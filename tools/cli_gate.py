"""CLI gate: run every ``hscl`` subcommand on generated cohorts and hash what each leaves.

Prints one ``sha256  path`` line per output file (paths relative to --out),
then one line per command: its name, its exit code and the sha256 of its
stdout and of its stderr, each with the --out path replaced by ``<out>``.
Running it on two source trees and diffing the manifests shows whether a
change moved any CLI output:

    python tools/cli_gate.py --src old/src --out /tmp/gate-old > old.txt
    python tools/cli_gate.py --src src --out /tmp/gate-new > new.txt
    diff old.txt new.txt

The commands run in this process, through the ``hscl.cli.main`` of the tree
at --src; one that raises past ``main`` is recorded as ``exit=traceback``,
its stderr hash being that of the exception's type name and message. They are: gen-data, also
at the generator's edges (101 patients, whose ids take three digits; two scans; a latent
dimension equal to the feature count; no noise); pretrain for each loss mode x {cos, l2};
frozen and unfrozen finetune; eval on every split; analyze with and without
the sample-size cap warning; compare in threshold mode, also with one seed
(each mode pre-trains a stack of one run) and with an unfrozen encoder; and
in bin mode, on an S/F-scaled cohort (gen-data's scores may be non-positive), compare,
pretrain and finetune, then pretrain, finetune, eval, analyze and compare on
copies that hold one non-positive score (for the restores, in a test-split
scan, so the checkpoint's normalization still matches); then eval, analyze and
compare on a copy of the threshold cohort as a spreadsheet might export it,
with a byte-order mark, CRLF line ends and quoted patient ids, which the
loader reads through ``csv.reader``; then compare, with one seed and one epoch,
on a larger cohort (over two of the loader's reads of 128 Ki characters), on its
spreadsheet copy and on a copy whose lines end in a lone ``\\r``, so that both
of the loader's paths, ``np.loadtxt`` blocks and ``csv.reader`` rows, read a
file in several pieces. Then the parser's own
texts: ``--help``, each ``<command> --help``, an unknown command, no command,
a missing required flag and an unrecognized flag, each recorded with the
exit code argparse gives it. Argparse wraps its help to the terminal width
(``COLUMNS``, else 80 columns when stdout is not a terminal), so compare
manifests made at the same width.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import importlib
import io
import sys
from pathlib import Path

LOSS_MODES = ("mse", "mse+cl", "mse+wcl")
SIMILARITIES = ("cos", "l2")
SPLITS = ("train", "val", "test")
COMMANDS = ("gen-data", "pretrain", "finetune", "eval", "analyze", "compare")  # not read from hscl.cli: the gate runs on older trees too
NON_POSITIVE = -0.5
PATIENTS, SCANS_PER_PATIENT, FEATURES = 40, 4, 6  # the gen-data and S/F cohorts' sizes
EPOCHS, HIDDEN, SEEDS, SAMPLE_SIZE = "4", "8,4", "0,1", "20"  # option values as the CLI reads them


def _hscl(src: Path):
    """The ``hscl`` package of the tree at ``src``, imported from there."""
    src = src.resolve()
    if "hscl" not in sys.modules:
        sys.path.insert(0, str(src))
    hscl = importlib.import_module("hscl")
    if src not in Path(hscl.__file__).resolve().parents:
        raise SystemExit(f"cli_gate: hscl is already imported from {hscl.__file__}, not from {src}")
    importlib.import_module("hscl.cli")  # which imports the data and pipeline modules used here too
    return hscl


def _sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _sf_cohorts(hscl, out: Path) -> None:
    """Three cohorts whose scores read as S/F ratios: ``sf.csv``, all positive, and two copies
    with one score set to ``NON_POSITIVE``: the first scan's (``sf_non_positive.csv``) and, for
    the restores, a scan of the split seed-1 test split (``sf_non_positive_test.csv``).
    """
    spec = hscl.data.SyntheticSpec(
        n_patients=PATIENTS, scans_per_patient=SCANS_PER_PATIENT, n_features=FEATURES,
        seed=3, hs_center=300.0, hs_scale=40.0,
    )
    collection = hscl.data.generate_synthetic(spec)
    if not all(rec.health_score > 0 for series in collection for rec in series.records):
        raise SystemExit("cli_gate: the S/F cohort holds a non-positive score")
    hscl.data.save_dataset(collection, out / "sf.csv")
    _, _, test = hscl.data.split_patients(collection, hscl.pipeline.DataConfig().fractions, 1)
    for name, series in (("sf_non_positive.csv", collection[0]), ("sf_non_positive_test.csv", test[0])):
        record = series.records[0]
        score, record.health_score = record.health_score, NON_POSITIVE
        hscl.data.save_dataset(collection, out / name)
        record.health_score = score


def _spreadsheet_copy(path: Path, copy: Path) -> None:
    """Write the dataset file ``path`` to ``copy`` as a spreadsheet might export it:
    with a byte-order mark, CRLF line ends and every patient id quoted."""
    header, *rows = path.read_text(encoding="utf-8").split("\n")[:-1]
    quoted = ['"{}",{}'.format(*row.split(",", 1)) for row in rows]
    copy.write_bytes("\r\n".join(["\ufeff" + header, *quoted, ""]).encode("utf-8"))


def _crlf_cohorts(hscl, out: Path) -> None:
    """``data_crlf.csv``, the spreadsheet copy of gen-data's cohort; ``large.csv``, a 200 x 4 x 32
    cohort (0.53 MB, over two of the loader's reads of 128 Ki characters), ``large_crlf.csv``, its
    spreadsheet copy, and ``large_cr.csv``, its copy with every line ending in a lone ``\\r``."""
    for name, (patients, scans, features) in (
        ("data_crlf.csv", (PATIENTS, SCANS_PER_PATIENT, FEATURES)), ("large.csv", (200, 4, 32)),
    ):
        spec = hscl.data.SyntheticSpec(n_patients=patients, scans_per_patient=scans, n_features=features, seed=3)
        hscl.data.save_dataset(hscl.data.generate_synthetic(spec), out / name)
    _spreadsheet_copy(out / "data_crlf.csv", out / "data_crlf.csv")
    _spreadsheet_copy(out / "large.csv", out / "large_crlf.csv")
    (out / "large_cr.csv").write_bytes((out / "large.csv").read_bytes().replace(b"\n", b"\r"))


def _commands(out: Path) -> list[tuple[str, list[str]]]:
    data, sf, crlf = str(out / "data.csv"), str(out / "sf.csv"), str(out / "data_crlf.csv")
    bad, bad_test = str(out / "sf_non_positive.csv"), str(out / "sf_non_positive_test.csv")
    train = ["--epochs", EPOCHS, "--seed", "1"]
    bin_mode = ["--label-mode", "bin"]

    def pretrain(cohort: str, name: str, *flags: str) -> tuple[str, list[str]]:
        return name, ["pretrain", "--data", cohort, "--hidden", HIDDEN, *train, *flags, "--out", str(out / name)]

    def restore(command: str, cohort: str, ckpt: str, name: str, *flags: str) -> tuple[str, list[str]]:
        return name, [command, "--data", cohort, "--checkpoint", str(out / ckpt), *flags, "--out", str(out / name)]

    def compare(cohort: str, name: str, *flags: str, seeds: str = SEEDS, epochs: str = EPOCHS) -> tuple[str, list[str]]:
        return name, [
            "compare", "--data", cohort, "--seeds", seeds, "--epochs", epochs,
            "--finetune-epochs", epochs, "--hidden", HIDDEN, *flags, "--out", str(out / name),
        ]

    ckpt, tuned = "pretrain-mse+cl-cos/pretrain_best.ckpt", "finetune-frozen/finetune_best.ckpt"
    bin_ckpt, bin_tuned = "pretrain-bin/pretrain_best.ckpt", "finetune-bin/finetune_best.ckpt"
    return [
        ("gen-data", [
            "gen-data", "--patients", str(PATIENTS), "--scans-per-patient", str(SCANS_PER_PATIENT),
            "--features", str(FEATURES), "--seed", "3", "--out", data,
        ]),
        ("gen-data-edges", [
            "gen-data", "--patients", "101", "--scans-per-patient", "2", "--features", str(FEATURES),
            "--latent-dim", str(FEATURES), "--noise", "0", "--seed", "4", "--out", str(out / "edges.csv"),
        ]),
        *(pretrain(data, f"pretrain-{m}-{sim}", "--loss", m, "--sim", sim) for m in LOSS_MODES for sim in SIMILARITIES),
        restore("finetune", data, ckpt, "finetune-frozen", "--freeze-encoder", *train),
        restore("finetune", data, ckpt, "finetune-unfrozen", "--no-freeze-encoder", *train),
        *(restore("eval", data, tuned, f"eval-{split}", "--split", split) for split in SPLITS),
        restore("analyze", data, ckpt, "analyze.tsv", "--sample-size", SAMPLE_SIZE),
        restore("analyze", data, ckpt, "analyze-capped.tsv", "--sample-size", str(10**6)),
        compare(data, "compare-threshold"),
        compare(data, "compare-one-seed", seeds="0"),
        compare(data, "compare-unfrozen", "--no-freeze-encoder"),
        compare(sf, "compare-bin", *bin_mode),
        pretrain(sf, "pretrain-bin", *bin_mode),
        restore("finetune", sf, bin_ckpt, "finetune-bin", *train),
        compare(bad, "compare-bin-non-positive", *bin_mode),
        pretrain(bad, "pretrain-bin-non-positive", *bin_mode),
        restore("finetune", bad_test, bin_ckpt, "finetune-bin-non-positive", *train),
        restore("eval", bad_test, bin_tuned, "eval-bin-non-positive"),
        restore("analyze", bad_test, bin_ckpt, "analyze-bin-non-positive.tsv"),
        restore("eval", crlf, tuned, "eval-crlf"),
        restore("analyze", crlf, ckpt, "analyze-crlf.tsv", "--sample-size", SAMPLE_SIZE),
        compare(crlf, "compare-crlf"),
        *(compare(str(out / f"{name}.csv"), f"compare-{name}", seeds="0", epochs="1") for name in ("large", "large_crlf", "large_cr")),
        ("help", ["--help"]),
        *((f"help-{command}", [command, "--help"]) for command in COMMANDS),
        ("unknown-command", ["evaluate"]),
        ("no-command", []),
        ("missing-flag", ["eval", "--data", data, "--checkpoint", str(out / tuned)]),
        restore("eval", data, tuned, "unrecognized-flag", "--seed", "1"),
    ]


def run_gate(src: Path, out: Path) -> list[str]:
    """Run every command of the gate into the empty or new directory ``out``; the manifest lines."""
    hscl = _hscl(Path(src))
    out = Path(out).resolve()
    out.mkdir(parents=True, exist_ok=True)
    if any(out.iterdir()):
        raise SystemExit(f"cli_gate: {out} is not empty")
    _sf_cohorts(hscl, out)
    _crlf_cohorts(hscl, out)
    results = []
    for name, argv in _commands(out):
        stdout, stderr = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
            try:
                code = hscl.cli.main(argv)
            except SystemExit as exc:  # argparse's usage errors
                code = exc.code
            except Exception as exc:  # an error ``main`` does not map to an exit code
                code = "traceback"
                stderr = io.StringIO(f"{type(exc).__name__}: {exc}")
        texts = [t.getvalue().replace(str(out), "<out>").encode("utf-8") for t in (stdout, stderr)]
        results.append(f"{name} exit={code} stdout={_sha(texts[0])} stderr={_sha(texts[1])}")
    files = [
        f"{_sha(p.read_bytes())}  {p.relative_to(out).as_posix()}"
        for p in sorted(out.rglob("*"))
        if p.is_file()
    ]
    return files + results


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--src", required=True, type=Path, help="the source tree holding the hscl package")
    parser.add_argument("--out", required=True, type=Path, help="an empty or new directory for the outputs")
    args = parser.parse_args(argv)
    print("\n".join(run_gate(args.src, args.out)))
    return 0


if __name__ == "__main__":
    sys.exit(main())

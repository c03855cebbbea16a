"""Read-path profile: the best-of-N wall time of each stage that ``hscl eval`` and ``hscl analyze`` run.

Writes a generated cohort with ``save_dataset``, trains a short mse
pre-training and a frozen fine-tune on it through ``hscl.cli.main``, then
times each stage of the read path on that file and those checkpoints and
prints one line per stage to stdout, in milliseconds, best of --repeat calls:

- read and split: ``data._runs`` on the file opened as ``load_dataset`` opens it, the pieces that
  Python's text layer reads and decodes, checked and cut into lines;
- np.loadtxt: the loader's ``np.loadtxt`` calls on each block's value texts;
- row checks: ``data._parse_lines`` on each block, its ``np.loadtxt`` call answered with the parsed values;
- record build: ``data._collection``, the records and series of the parsed rows;
- load_dataset: the whole load;
- prepare: ``pipeline.prepare`` of the loaded cohort with the checkpoint's split;
- cli eval and cli analyze: each command in this process, load included.

The last line gives the share of a load, and of the two commands, that
``np.loadtxt`` takes. Run from the root of a checkout:

    PYTHONPATH=src python tools/read_path_profile.py --patients 400 --scans 6 --features 32
"""

from __future__ import annotations

import argparse
import contextlib
import io
import sys
import tempfile
import time
from pathlib import Path
from unittest import mock

import numpy as np

from hscl import cli, data
from hscl.pipeline import DataConfig, prepare


def best_ms(call, repeat: int) -> float:
    """The shortest of ``repeat`` wall times of ``call()``, in milliseconds."""
    best = float("inf")
    for _ in range(repeat):
        start = time.perf_counter()
        call()
        best = min(best, time.perf_counter() - start)
    return best * 1e3


def _data_blocks(path: Path) -> tuple[list[list[str]], int]:
    """The loader's blocks of data lines (the header dropped) and the row width, for a file of plain pieces."""
    with open(path, **data._TEXT_MODE) as fh:
        blocks = list(data._blocks(data._runs(fh, path)))
    return blocks[1:], len(data._row(blocks[0][0]))


def _value_texts(block: list[str]) -> list[str]:
    return [line.split(",", 2)[2] for line in block if line]


def _silently(argv: list[str]) -> None:
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        code = cli.main(argv)
    if code != 0:
        raise SystemExit(f"hscl {argv[0]} exited {code}")


def profile(patients: int, scans: int, features: int, repeat: int, workdir: Path) -> dict[str, float]:
    """Stage -> best ms, for each read-path stage on a cohort of ``patients`` x ``scans`` x ``features``."""
    path = workdir / "cohort.csv"
    data.save_dataset(
        data.generate_synthetic(data.SyntheticSpec(n_patients=patients, scans_per_patient=scans, n_features=features)),
        path,
    )
    pre, fine = workdir / "pretrain", workdir / "finetune"
    _silently(["pretrain", "--data", str(path), "--out", str(pre), "--loss", "mse", "--epochs", "2"])
    _silently(["finetune", "--data", str(path), "--checkpoint", str(pre / "pretrain_best.ckpt"),
               "--out", str(fine), "--epochs", "1"])

    def read_and_split():
        with open(path, **data._TEXT_MODE) as fh:
            for _ in data._runs(fh, path):
                pass

    blocks, width = _data_blocks(path)
    seen: set = set()
    rows = [data._parse_lines(block, width, seen) for block in blocks]  # (pids, seq indices, values) per block
    if None in rows:
        raise SystemExit("a block left the np.loadtxt path; the profile covers plain files only")
    pids, seqs = [pid for r in rows for pid in r[0]], [seq for r in rows for seq in r[1]]
    values = np.concatenate([r[2] for r in rows])
    texts = [_value_texts(block) for block in blocks]

    def loadtxt():
        for rests in texts:
            np.loadtxt(rests, delimiter=",", dtype=np.float64, comments=None, quotechar=None, ndmin=2)

    def row_checks():
        """``_parse_lines`` on every block, its ``np.loadtxt`` call answered with the block's parsed values."""
        answers = iter([r[2] for r in rows])
        seen: set = set()
        with mock.patch.object(np, "loadtxt", lambda *args, **kwargs: next(answers)):
            for block in blocks:
                data._parse_lines(block, width, seen)

    loaded = data.load_dataset(path)
    return {
        "read and split": best_ms(read_and_split, repeat),
        "np.loadtxt": best_ms(loadtxt, repeat),
        "row checks": best_ms(row_checks, repeat),
        "record build": best_ms(lambda: data._collection(pids, seqs, values), repeat),
        "load_dataset": best_ms(lambda: data.load_dataset(path), repeat),
        "prepare": best_ms(lambda: prepare(loaded, 0, DataConfig()), repeat),
        "cli eval": best_ms(lambda: _silently(["eval", "--data", str(path), "--checkpoint",
                                               str(fine / "finetune_best.ckpt"), "--out", str(workdir / "eval")]),
                            repeat),
        "cli analyze": best_ms(lambda: _silently(["analyze", "--data", str(path), "--checkpoint",
                                                  str(pre / "pretrain_best.ckpt"),
                                                  "--out", str(workdir / "profile.tsv")]), repeat),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--patients", type=int, default=400)
    parser.add_argument("--scans", type=int, default=6)
    parser.add_argument("--features", type=int, default=32)
    parser.add_argument("--repeat", type=int, default=20, help="calls per stage; the best is printed")
    args = parser.parse_args(argv)
    with tempfile.TemporaryDirectory() as tmp:
        stages = profile(args.patients, args.scans, args.features, args.repeat, Path(tmp))
    print(f"cohort {args.patients} x {args.scans} x {args.features}, best of {args.repeat} calls")
    for stage, ms in stages.items():
        print(f"{stage:<16}{ms:9.2f} ms")
    commands = stages["cli eval"] + stages["cli analyze"]
    print(f"np.loadtxt share: {stages['np.loadtxt'] / stages['load_dataset']:.0%} of a load, "
          f"{2 * stages['np.loadtxt'] / commands:.0%} of eval + analyze")
    return 0


if __name__ == "__main__":
    sys.exit(main())

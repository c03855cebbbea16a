import argparse
import copy
import csv
import json
import math
import os
import struct
import subprocess
import sys
import zlib
from pathlib import Path

import numpy as np
import pytest

from hscl import cli
from hscl.cli import main
from hscl.checkpoint import (
    Checkpoint,
    checkpoint_bytes,
    classifier_from_checkpoint,
    encoder_from_checkpoint,
    load_checkpoint,
    save_checkpoint,
)
from hscl.data import (
    DEFAULT_FRACTIONS,
    SyntheticSpec,
    generate_synthetic,
    load_dataset,
    save_dataset,
    split_patients,
)
from hscl.errors import TrainingAbort
from hscl.model import classify_pairs
from hscl.training import TrainConfig, embed_pairs, parse_trace

import hscl.errors
import hscl.pipeline

from oracles import first_scans


def test_gen_data_reports_counts(tmp_path, capsys):
    out = tmp_path / "d.csv"
    rc = main(["gen-data", "--patients", "100", "--scans-per-patient", "4", "--out", str(out)])
    assert rc == 0
    captured = capsys.readouterr()
    assert "records: 400" in captured.out
    assert "pairs: 300" in captured.out


def test_gen_data_deterministic(tmp_path):
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    flags = ["--patients", "8", "--scans-per-patient", "3", "--features", "4", "--seed", "11"]
    assert main(["gen-data", *flags, "--out", str(a)]) == 0
    assert main(["gen-data", *flags, "--out", str(b)]) == 0
    assert a.read_bytes() == b.read_bytes()


def test_gen_data_invalid_spec_exits_2(tmp_path, capsys):
    rc = main(["gen-data", "--patients", "0", "--out", str(tmp_path / "x.csv")])
    assert rc == 2
    assert "error" in capsys.readouterr().err


def test_missing_required_flag_exits_2():
    with pytest.raises(SystemExit) as exc:
        main(["gen-data"])
    assert exc.value.code == 2


@pytest.mark.parametrize(
    "argv",
    [
        ["eval", "--seed", "1", "--data", "d.csv", "--checkpoint", "c.ckpt", "--out", "o"],
        ["compare", "--seed", "1", "--data", "d.csv", "--out", "o"],
        ["pretrain", "--pooling", "mean", "--data", "d.csv", "--out", "o"],
        # abbreviations of existing flags
        ["gen-data", "--pat", "5", "--out", "d.csv"],
        ["pretrain", "--hid", "8,4", "--data", "d.csv", "--out", "o"],
        ["finetune", "--cls", "8", "--data", "d.csv", "--checkpoint", "c", "--out", "o"],
        ["eval", "--spl", "val", "--data", "d.csv", "--checkpoint", "c", "--out", "o"],
        ["analyze", "--sample", "10", "--data", "d.csv", "--checkpoint", "c", "--out", "o"],
        ["compare", "--finetune", "2", "--data", "d.csv", "--out", "o"],
    ],
    ids=[
        "eval-seed",
        "compare-seed",
        "pretrain-pooling",
        "gen-data-pat",
        "pretrain-hid",
        "finetune-cls",
        "eval-spl",
        "analyze-sample",
        "compare-finetune",
    ],
)
def test_removed_flags_exit_2(argv):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2


def _subparsers(parser: argparse.ArgumentParser) -> dict:
    (action,) = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
    return action.choices


@pytest.mark.parametrize("command", list(cli.COMMANDS))
def test_a_one_command_parser_reads_as_the_full_parser(command):
    full, one = cli.build_parser(), cli.build_parser(command)
    assert list(_subparsers(one)) == [command]
    assert one.format_usage() == full.format_usage()
    full_sub, one_sub = _subparsers(full)[command], _subparsers(one)[command]
    assert one_sub.format_help() == full_sub.format_help()
    assert one_sub.format_usage() == full_sub.format_usage()


def _required_flags(command: str) -> list[str]:
    sub = _subparsers(cli.build_parser())[command]
    return [arg for a in sub._actions if a.required for arg in (a.option_strings[0], "unused")]


PARSER_CASES = {
    "help": ["--help"],
    "unknown-command": ["evaluate"],
    "no-command": [],
    **{f"{c}-help": [c, "--help"] for c in cli.COMMANDS},
    **{f"{c}-missing-flag": [c] for c in cli.COMMANDS},
    **{f"{c}-unrecognized-flag": [c, *_required_flags(c), "--bogus"] for c in cli.COMMANDS},
}


@pytest.mark.parametrize("argv", PARSER_CASES.values(), ids=PARSER_CASES.keys())
def test_main_prints_and_exits_as_with_the_full_parser(argv, capsys, monkeypatch):
    def run() -> tuple:
        try:
            code = main(argv)
        except SystemExit as exc:  # argparse's help and usage errors
            code = exc.code
        captured = capsys.readouterr()
        return code, captured.out, captured.err

    built = run()
    full_parser = cli.build_parser
    monkeypatch.setattr(cli, "build_parser", lambda command=None: full_parser())
    assert built == run()
    assert built[0] in (0, 2) and built[1] + built[2] != ""


def test_pretrain_missing_dataset_names_path(tmp_path, capsys):
    rc = main(["pretrain", "--data", str(tmp_path / "nope.csv"), "--out", str(tmp_path / "o")])
    assert rc == 2
    assert "nope.csv" in capsys.readouterr().err


def test_pretrain_outputs(tiny_pretrained):
    for name in ("pretrain_final.ckpt", "pretrain_best.ckpt", "pretrain_trace.log"):
        assert (tiny_pretrained / name).exists()
    trace = parse_trace(tiny_pretrained / "pretrain_trace.log")
    assert trace[0]["epoch"] == 0
    assert trace[0]["lr"] == 0.001
    assert trace[-1]["epoch"] == 3  # terminal entry carries the annealed-out rate
    ck = load_checkpoint(tiny_pretrained / "pretrain_best.ckpt")
    assert ck.meta["train"]["batch_size"] == 8
    assert ck.meta["train"]["loss"]["mode"] == "mse+cl"


def test_pretrain_alpha_zero_matches_mse(tiny_dataset, tmp_path):
    out_a, out_b = tmp_path / "a", tmp_path / "b"
    base = ["--data", str(tiny_dataset), "--epochs", "2", "--hidden", "8,4", "--seed", "5"]
    assert main(["pretrain", *base, "--out", str(out_a), "--loss", "mse+cl", "--alpha", "0"]) == 0
    assert main(["pretrain", *base, "--out", str(out_b), "--loss", "mse"]) == 0
    trace_a = parse_trace(out_a / "pretrain_trace.log")
    trace_b = parse_trace(out_b / "pretrain_trace.log")
    assert trace_a == trace_b


def test_finetune_frozen_encoder_checksum(tiny_pretrained, tiny_finetuned):
    pre = load_checkpoint(tiny_pretrained / "pretrain_best.ckpt")
    fine = load_checkpoint(tiny_finetuned / "finetune_best.ckpt")
    assert fine.meta["train"]["freeze_encoder"] is True
    for name, arr in pre.tensors.items():
        if name.startswith("encoder."):
            assert np.array_equal(fine.tensors[name], arr)


_ENCODER_TENSORS = {"encoder.w0": (5, 8), "encoder.b0": (8,), "encoder.w1": (8, 4), "encoder.b1": (4,)}
_REG_TENSORS = {"reg.w": (4, 1), "reg.b": (1,)}
_CLS_TENSORS = {"cls.w0": (8, 32), "cls.b0": (32,), "cls.w1": (32, 3), "cls.b1": (3,)}


def _with_adam(tensors: dict) -> dict:
    return {**tensors, **{f"adam.{m}.{name}": shape for m in ("m", "v") for name, shape in tensors.items()}}


def test_checkpoint_tensor_names_and_shapes(tiny_dataset, tiny_pretrained, tiny_finetuned, tmp_path):
    """The names a checkpoint stores, spelled out: the Adam moments are those of the trained tensors only."""
    unfrozen = tmp_path / "unfrozen"
    pretrained = tiny_pretrained / "pretrain_best.ckpt"
    argv = ["--data", str(tiny_dataset), "--checkpoint", str(pretrained), "--epochs", "1", "--no-freeze-encoder"]
    assert main(["finetune", *argv, "--out", str(unfrozen)]) == 0
    expected = {
        pretrained: _with_adam({**_ENCODER_TENSORS, **_REG_TENSORS}),
        tiny_finetuned / "finetune_best.ckpt": {**_ENCODER_TENSORS, **_with_adam(_CLS_TENSORS)},
        unfrozen / "finetune_best.ckpt": _with_adam({**_ENCODER_TENSORS, **_CLS_TENSORS}),
    }
    for path, shapes in expected.items():
        assert {name: t.shape for name, t in load_checkpoint(path).tensors.items()} == shapes, path


def test_finetune_writes_metrics(tiny_finetuned):
    metrics = json.loads((tiny_finetuned / "val_metrics.json").read_text())
    confusion = np.array(metrics["confusion"])
    supports = [entry["support"] for entry in metrics["per_class"]]
    assert confusion.sum(axis=1).tolist() == supports


def test_finetune_rejects_wrong_stage(tiny_dataset, tiny_finetuned, tmp_path, capsys):
    rc = main(
        [
            "finetune",
            "--data", str(tiny_dataset),
            "--checkpoint", str(tiny_finetuned / "finetune_best.ckpt"),
            "--out", str(tmp_path / "x"),
        ]
    )
    assert rc == 2
    assert "stage" in capsys.readouterr().err


def test_eval_writes_metrics_files(tiny_dataset, tiny_finetuned, tmp_path, capsys):
    out = tmp_path / "eval"
    rc = main(
        [
            "eval",
            "--data", str(tiny_dataset),
            "--checkpoint", str(tiny_finetuned / "finetune_best.ckpt"),
            "--out", str(out),
        ]
    )
    assert rc == 0
    assert "accuracy:" in capsys.readouterr().out
    assert (out / "metrics.txt").exists()
    payload = json.loads((out / "metrics.json").read_text())
    assert payload["n_examples"] > 0


def test_eval_rejects_pretrain_checkpoint(tiny_dataset, tiny_pretrained, tmp_path):
    rc = main(
        [
            "eval",
            "--data", str(tiny_dataset),
            "--checkpoint", str(tiny_pretrained / "pretrain_best.ckpt"),
            "--out", str(tmp_path / "x"),
        ]
    )
    assert rc == 2


def test_corrupt_checkpoint_exits_1(tiny_dataset, tiny_pretrained, tiny_finetuned, tmp_path, capsys):
    bad = tmp_path / "bad.ckpt"
    blob = bytearray((tiny_pretrained / "pretrain_best.ckpt").read_bytes())
    blob[25] ^= 0xFF
    bad.write_bytes(bytes(blob))
    rc = main(
        [
            "finetune",
            "--data", str(tiny_dataset),
            "--checkpoint", str(bad),
            "--out", str(tmp_path / "o"),
        ]
    )
    assert rc == 1
    assert "checksum" in capsys.readouterr().err

    # a checksum-valid tensor header whose dims multiply to 2**64, which an int64 size wraps to 0
    body = checkpoint_bytes(Checkpoint({}, {}))[:-8]  # up to the metadata block
    body += struct.pack("<II1sI4I", 1, 1, b"t", 4, *(65536,) * 4)
    bad.write_bytes(body + struct.pack("<I", zlib.crc32(body) & 0xFFFFFFFF))
    argv = ["eval", "--data", str(tiny_dataset), "--checkpoint", str(bad), "--out", str(tmp_path / "wrap")]
    assert main(argv) == 1
    assert capsys.readouterr().err == f"error: {bad}: truncated checkpoint body\n"

    # checksum-valid checkpoints without what the restore reads, or with a tensor of another shape
    pre = load_checkpoint(tiny_pretrained / "pretrain_best.ckpt")
    fine = load_checkpoint(tiny_finetuned / "finetune_best.ckpt")

    def without(ck, *keys):
        meta = copy.deepcopy(ck.meta)
        parent = meta
        for key in keys[:-1]:
            parent = parent[key]
        del parent[keys[-1]]
        return Checkpoint(ck.tensors, meta)

    def with_tensor(ck, name, value):
        tensors = {k: v for k, v in ck.tensors.items() if k != name}
        if value is not None:
            tensors[name] = value
        return Checkpoint(tensors, ck.meta)

    def with_entry(ck, name, value):
        tensor = ck.tensors[name].copy()
        tensor.flat[0] = value
        return with_tensor(ck, name, tensor)

    cases = [
        ("eval", without(fine, "data"), "checkpoint metadata has no data"),
        ("eval", without(fine, "data", "tau"), "checkpoint metadata has no data.tau"),
        ("finetune", without(pre, "data", "split_seed"), "checkpoint metadata has no data.split_seed"),
        ("analyze", without(pre, "model", "widths"), "checkpoint metadata has no model.widths"),
        ("eval", without(fine, "model", "activation"), "checkpoint metadata has no model.activation"),
        ("eval", with_tensor(fine, "cls.b0", np.zeros(5)), "checkpoint cls.b0 has shape (5,), expected (32,)"),
        (
            "finetune", with_tensor(pre, "encoder.b1", np.zeros(3)),
            "checkpoint encoder.b1 has shape (3,), expected (4,)",
        ),
        ("analyze", with_tensor(pre, "encoder.b0", None), "checkpoint missing tensor 'encoder.b0'"),
        # a non-finite network tensor: NaN logits would otherwise argmax to class 0, NaN embeddings to std_dev nan
        ("eval", with_entry(fine, "encoder.w0", np.nan), "checkpoint tensor 'encoder.w0' holds a non-finite value"),
        ("eval", with_entry(fine, "cls.b1", -np.inf), "checkpoint tensor 'cls.b1' holds a non-finite value"),
        ("analyze", with_entry(pre, "encoder.w0", np.nan), "checkpoint tensor 'encoder.w0' holds a non-finite value"),
        ("finetune", with_entry(pre, "encoder.b1", np.inf), "checkpoint tensor 'encoder.b1' holds a non-finite value"),
    ]
    for k, (command, ck, message) in enumerate(cases):
        path, out = tmp_path / f"restore{k}.ckpt", tmp_path / f"restore{k}"
        save_checkpoint(ck, path)
        argv = [command, "--data", str(tiny_dataset), "--checkpoint", str(path), "--out", str(out)]
        assert main(argv + (["--sample-size", "5"] if command == "analyze" else [])) == 1
        assert capsys.readouterr().err == f"error: {message}\n"
        assert not out.exists()

    # values of the wrong type or range, and analyze at its default sample size, which this
    # cohort caps: the restore rejects the checkpoint before any warning or output
    def with_meta(ck, value, *keys):
        meta = copy.deepcopy(ck.meta)
        parent = meta
        for key in keys[:-1]:
            parent = parent[key]
        parent[keys[-1]] = value
        return Checkpoint(ck.tensors, meta)

    def bad(key, what, got):
        return f"checkpoint metadata {key}: expected {what}, got {got}"

    fractions, widths = "a list of 3 non-negative numbers summing to 1", "a list of 2 or more positive integers"
    cases = [
        ("eval", with_meta(fine, 5, "data", "fractions"), bad("data.fractions", fractions, "5")),
        ("eval", with_meta(fine, "x", "data", "tau"), bad("data.tau", "a finite number >= 0", "'x'")),
        ("eval", with_meta(fine, "a", "data", "split_seed"), bad("data.split_seed", "an integer >= 0", "'a'")),
        ("eval", with_meta(fine, "a", "data", "hs_min"), bad("data.hs_min", "a finite number", "'a'")),
        ("eval", with_meta(fine, math.nan, "data", "hs_min"), bad("data.hs_min", "a finite number", "nan")),
        ("eval", with_meta(fine, ["a"], "model", "widths"), bad("model.widths", widths, "['a']")),
        ("eval", with_meta(fine, [5.7, 8, 4], "model", "widths"), bad("model.widths", widths, "[5.7, 8, 4]")),
        ("eval", with_meta(fine, ["a"], "model", "cls_widths"), bad("model.cls_widths", widths, "['a']")),
        (
            "eval", with_meta(fine, 5, "data", "label_mode"),
            bad("data.label_mode", "one of ('bin', 'threshold')", "5"),
        ),
        (
            "eval", with_meta(fine, "sigmoid", "model", "activation"),
            bad("model.activation", "one of ('relu', 'tanh')", "'sigmoid'"),
        ),
        (
            "eval", with_meta(fine, "false", "data", "higher_is_better"),
            bad("data.higher_is_better", "true or false", "'false'"),
        ),
        ("eval", without(fine, "model", "cls_activation"), "checkpoint metadata has no model.cls_activation"),
        ("eval", with_meta(fine, 5, "stage"), bad("stage", "one of ('pretrain', 'finetune')", "5")),
        (
            "eval", Checkpoint(fine.tensors, [fine.meta]),
            "{path}: corrupt metadata block: expected a JSON object, got list",
        ),
        ("analyze", without(pre, "model", "widths"), "checkpoint metadata has no model.widths"),
        (
            "analyze", with_meta(pre, "sigmoid", "model", "activation"),
            bad("model.activation", "one of ('relu', 'tanh')", "'sigmoid'"),
        ),
        ("analyze", with_meta(fine, math.nan, "data", "hs_min"), bad("data.hs_min", "a finite number", "nan")),
        ("analyze", with_tensor(pre, "encoder.b0", None), "checkpoint missing tensor 'encoder.b0'"),
    ]
    for k, (command, ck, message) in enumerate(cases):
        path, out = tmp_path / f"meta{k}.ckpt", tmp_path / f"meta{k}"
        save_checkpoint(ck, path)
        assert main([command, "--data", str(tiny_dataset), "--checkpoint", str(path), "--out", str(out)]) == 1
        assert capsys.readouterr().err == f"error: {message.format(path=path)}\n"
        assert not out.exists()


def test_analyze_profile_and_cap_warning(tiny_dataset, tiny_pretrained, tmp_path, capsys):
    profile = tmp_path / "profile.tsv"
    rc = main(
        [
            "analyze",
            "--data", str(tiny_dataset),
            "--checkpoint", str(tiny_pretrained / "pretrain_best.ckpt"),
            "--out", str(profile),
            "--sample-size", "100000",
        ]
    )
    assert rc == 0
    captured = capsys.readouterr()
    assert "capping" in captured.err
    assert "std_dev:" in captured.out
    assert profile.exists()


def test_analyze_deterministic(tiny_dataset, tiny_pretrained, tmp_path):
    args = [
        "analyze",
        "--data", str(tiny_dataset),
        "--checkpoint", str(tiny_pretrained / "pretrain_best.ckpt"),
        "--sample-size", "20",
        "--seed", "2",
    ]
    p1, p2 = tmp_path / "p1.tsv", tmp_path / "p2.tsv"
    assert main([*args, "--out", str(p1)]) == 0
    assert main([*args, "--out", str(p2)]) == 0
    assert p1.read_bytes() == p2.read_bytes()


def test_analyze_two_checkpoints_give_two_profiles(tiny_dataset, tiny_pretrained, tmp_path):
    mse_out = tmp_path / "mse_run"
    assert main(
        [
            "pretrain",
            "--data", str(tiny_dataset),
            "--out", str(mse_out),
            "--epochs", "3",
            "--hidden", "8,4",
            "--loss", "mse",
            "--seed", "1",
        ]
    ) == 0
    profiles = []
    for ck_dir, name in ((tiny_pretrained, "cl.tsv"), (mse_out, "mse.tsv")):
        path = tmp_path / name
        assert main(
            [
                "analyze",
                "--data", str(tiny_dataset),
                "--checkpoint", str(ck_dir / "pretrain_best.ckpt"),
                "--out", str(path),
                "--sample-size", "50",
            ]
        ) == 0
        profiles.append(path.read_bytes())
    assert profiles[0] != profiles[1]  # different encoders, different spread


def test_compare_report_structure(tiny_dataset, tmp_path, capsys):
    out = tmp_path / "cmp"
    rc = main(
        [
            "compare",
            "--data", str(tiny_dataset),
            "--out", str(out),
            "--seeds", "0,1",
            "--epochs", "2",
            "--finetune-epochs", "2",
            "--hidden", "8,4",
        ]
    )
    assert rc == 0
    report = json.loads((out / "report.json").read_text())
    assert report["modes"] == ["mse", "mse+cl", "mse+wcl"]
    assert set(report["per_seed"]) == {"0", "1"}
    for mode in report["modes"]:
        assert mode in report["medians"]
    table = (out / "report.txt").read_text()
    assert table.count("accuracy") == 3  # one row per loss mode
    assert (out / "seed0" / "mse+wcl" / "finetune_best.ckpt").exists()
    assert "median" in capsys.readouterr().out


def test_compare_median_even_count_rule(tiny_dataset, tmp_path):
    out = tmp_path / "cmp2"
    rc = main(
        [
            "compare",
            "--data", str(tiny_dataset),
            "--out", str(out),
            "--seeds", "0,1",
            "--modes", "mse",
            "--epochs", "2",
            "--finetune-epochs", "2",
            "--hidden", "8,4",
        ]
    )
    assert rc == 0
    report = json.loads((out / "report.json").read_text())
    accs = [report["per_seed"][s]["mse"]["accuracy"] for s in ("0", "1")]
    assert report["medians"]["mse"]["accuracy"] == pytest.approx(sum(accs) / 2.0)


def test_compare_records_failed_seed_and_continues(tiny_dataset, tmp_path, monkeypatch):
    real = hscl.pipeline.run_pretrain_runs

    def flaky(prepareds, model, config, seeds):
        if 1 in seeds:
            raise TrainingAbort("injected failure")
        return real(prepareds, model, config, seeds)

    monkeypatch.setattr(hscl.pipeline, "run_pretrain_runs", flaky)
    out = tmp_path / "cmp3"
    rc = main(
        [
            "compare",
            "--data", str(tiny_dataset),
            "--out", str(out),
            "--seeds", "0,1",
            "--modes", "mse",
            "--epochs", "2",
            "--finetune-epochs", "2",
            "--hidden", "8,4",
        ]
    )
    assert rc == 0
    report = json.loads((out / "report.json").read_text())
    assert "injected failure" in report["per_seed"]["1"]["error"]
    assert "mse" in report["per_seed"]["0"]
    assert "failed seeds:" in (out / "report.txt").read_text()
    assert report["per_seed"]["1"]["error"] == "TrainingAbort: injected failure"


def _diverge_finetune(monkeypatch, diverges) -> None:
    """NaN the training features of each fine-tuning run for which ``diverges(seed, loss mode)`` holds.

    Such a run's loss is non-finite at its first batch, as a diverged run's is.
    """
    real = hscl.pipeline.finetune_runs

    def poisoned(pretrained, xp_train, *args, seeds, **kwargs):
        xp_train = xp_train.copy()
        for k, (ck, seed) in enumerate(zip(pretrained, seeds)):
            if diverges(seed, ck.meta["train"]["loss"]["mode"]):
                xp_train[k] = np.nan
        return real(pretrained, xp_train, *args, seeds=seeds, **kwargs)

    monkeypatch.setattr(hscl.pipeline, "finetune_runs", poisoned)


def test_compare_a_diverged_mode_aborts_its_seed_and_names_the_run(tiny_dataset, tmp_path, monkeypatch):
    _diverge_finetune(monkeypatch, lambda seed, mode: seed == 1 and mode == "mse+cl")
    out = tmp_path / "cmp5"
    rc = main(
        [
            "compare",
            "--data", str(tiny_dataset),
            "--out", str(out),
            "--seeds", "0,1",
            "--modes", "mse,mse+cl",
            "--epochs", "1",
            "--finetune-epochs", "1",
            "--hidden", "8,4",
        ]
    )
    assert rc == 0
    report = json.loads((out / "report.json").read_text())
    assert set(report["per_seed"]["0"]) == {"mse", "mse+cl"}
    assert report["per_seed"]["1"] == {
        "error": "TrainingAbort: finetune run 1: non-finite loss at epoch 0 batch 0: ce=nan"
    }
    assert not (out / "seed1").exists()


def test_every_error_type_derives_from_hscl_error():
    types = [
        obj
        for obj in vars(hscl.errors).values()
        if isinstance(obj, type) and issubclass(obj, Exception) and obj is not hscl.errors.HsclError
    ]
    assert len(types) >= 9
    assert all(issubclass(t, hscl.errors.HsclError) for t in types)


def test_programming_error_in_a_seed_propagates_out_of_run_comparison(tiny_dataset, monkeypatch):
    def broken(prepareds, model, config, seeds):
        raise TypeError("injected bug")

    monkeypatch.setattr(hscl.pipeline, "run_pretrain_runs", broken)
    with pytest.raises(TypeError, match="injected bug"):
        hscl.pipeline.run_comparison(
            load_dataset(tiny_dataset),
            hscl.pipeline.CompareConfig(seeds=(0, 1), modes=("mse",)),
            hscl.pipeline.DataConfig(),
            hscl.pipeline.ModelSpec(hidden=(8, 4)),
            TrainConfig(epochs=1),
            TrainConfig(epochs=1),
        )


def test_compare_exits_nonzero_on_a_programming_error(tiny_dataset, tmp_path):
    script = (
        "import sys\n"
        "import hscl.pipeline\n"
        "def broken(prepareds, model, config, seeds):\n"
        "    raise TypeError('injected bug')\n"
        "hscl.pipeline.run_pretrain_runs = broken\n"
        "from hscl.cli import main\n"
        "sys.exit(main(sys.argv[1:]))\n"
    )
    src = str(Path(hscl.pipeline.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    out = tmp_path / "cmp4"
    proc = subprocess.run(
        [
            sys.executable, "-c", script,
            "compare",
            "--data", str(tiny_dataset),
            "--out", str(out),
            "--seeds", "0",
            "--modes", "mse",
            "--epochs", "1",
            "--finetune-epochs", "1",
            "--hidden", "8,4",
        ],
        capture_output=True,
        text=True,
        env=env,
        timeout=120,
    )
    assert proc.returncode != 0
    assert "TypeError: injected bug" in proc.stderr
    assert not (out / "report.json").exists()


def test_config_file_precedence(tiny_dataset, tmp_path):
    config = tmp_path / "cfg.json"
    config.write_text(json.dumps({"epochs": 2, "hidden": [8, 4], "seed": 9}))
    out = tmp_path / "run"
    rc = main(
        [
            "pretrain",
            "--data", str(tiny_dataset),
            "--out", str(out),
            "--config", str(config),
            "--epochs", "3",  # flag beats config
        ]
    )
    assert rc == 0
    ck = load_checkpoint(out / "pretrain_best.ckpt")
    assert ck.meta["train"]["epochs"] == 3
    assert ck.meta["train"]["seed"] == 9
    assert ck.meta["model"]["widths"][1:] == [8, 4]


def test_config_file_unknown_key_rejected(tiny_dataset, tmp_path, capsys):
    config = tmp_path / "cfg.json"
    config.write_text(json.dumps({"epochz": 2}))
    rc = main(
        [
            "pretrain",
            "--data", str(tiny_dataset),
            "--out", str(tmp_path / "o"),
            "--config", str(config),
        ]
    )
    assert rc == 2
    assert "epochz" in capsys.readouterr().err


@pytest.mark.parametrize(
    "text, message",
    [
        (None, "config file not found: "),
        ("{", "config file .*: invalid JSON: "),
        ("[1, 2]", "config file .*: expected a JSON object$"),
    ],
    ids=["missing", "not-json", "not-an-object"],
)
def test_a_config_file_that_is_missing_or_not_a_json_object_is_a_config_error(tmp_path, text, message):
    config = tmp_path / "cfg.json"
    if text is not None:
        config.write_text(text)
    args = cli.build_parser().parse_args(["pretrain", "--data", "d.csv", "--out", "o", "--config", str(config)])
    with pytest.raises(hscl.errors.ConfigError, match=f"^{message}"):
        cli._merge(args)


@pytest.mark.parametrize(
    "fault, message",
    [("directory", "not a regular file"), ("not-utf8", "not UTF-8 text")],
    ids=["directory", "not-utf8"],
)
def test_a_config_file_that_is_a_directory_or_not_utf8_exits_2_naming_it(tmp_path, capsys, fault, message):
    config = tmp_path / "cfg.json"
    if fault == "directory":
        config.mkdir()
    else:
        config.write_bytes(b"\xff\xfe{")
    out = tmp_path / "data.csv"
    assert main(["gen-data", "--config", str(config), "--out", str(out)]) == 2
    assert capsys.readouterr().err == f"error: config file {config}: {message}\n"
    assert not out.exists()


def test_an_empty_path_is_a_config_error():
    with pytest.raises(hscl.errors.ConfigError, match="^dataset path is required$"):
        cli._require_file("", "dataset")


@pytest.mark.parametrize(
    "command, values",
    [
        ("finetune", {"freeze_encoder": "false"}),
        ("finetune", {"epochs": 2.9}),
        ("finetune", {"epochs": True}),
        ("finetune", {"lr": "0.01"}),
        ("finetune", {"cls_hidden": [8.5]}),
        ("pretrain", {"loss": 1}),
        ("pretrain", {"hidden": "8,a"}),
        ("pretrain", {"fractions": None}),
        # of the option's type, but a value no run can use
        ("pretrain", {"hidden": []}),
        ("compare", {"label_mode": "foo"}),
        ("compare", {"spread_split": "foo"}),
        ("compare", {"activation": "foo"}),
    ],
)
def test_config_value_of_the_wrong_type_exits_2(
    tiny_dataset, tiny_pretrained, tmp_path, capsys, monkeypatch, command, values
):
    stacks = _record_pretrain_stacks(monkeypatch)
    config = tmp_path / "cfg.json"
    config.write_text(json.dumps(values))
    argv = [command, "--data", str(tiny_dataset), "--out", str(tmp_path / "o"), "--config", str(config)]
    if command == "finetune":
        argv += ["--checkpoint", str(tiny_pretrained / "pretrain_best.ckpt")]
    assert main(argv) == 2
    (key,) = values
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1 and key in err
    assert not (tmp_path / "o").exists()
    assert stacks == []  # compare pre-trains no seed


# flag values no run can use, each rejected before any work (NaN and infinity:
# test_tooling.py's test of every float option): (command, flags, error text)
UNUSABLE = {
    "pretrain-eta-min-negative": ("pretrain", ["--eta-min", "-0.01"], "eta_min must lie in [0, lr]"),
    "pretrain-eta-min-above-lr": ("pretrain", ["--eta-min", "0.01"], "eta_min must lie in [0, lr]"),
    "pretrain-tau-negative": ("pretrain", ["--tau", "-0.1"], "tau must be non-negative and finite"),
    "pretrain-fractions-nan": ("pretrain", ["--fractions", "nan,0.5,0.5"], "fractions: need 3 non-negative"),
    "pretrain-seed-negative": ("pretrain", ["--seed", "-1"], "seed must be non-negative"),
    "gen-data-seed-negative": ("gen-data", ["--seed", "-1"], "generator: seed must be non-negative"),
    "finetune-cls-hidden-negative": ("finetune", ["--cls-hidden=-1"], "cls_hidden: widths must be positive"),
    "finetune-cls-hidden-zero": ("finetune", ["--cls-hidden", "0"], "cls_hidden: widths must be positive"),
    "finetune-seed-negative": ("finetune", ["--seed", "-1"], "seed must be non-negative"),
    "analyze-seed-negative": ("analyze", ["--seed", "-1", "--sample-size", "5"], "seed must be non-negative"),
    "compare-seeds-negative": ("compare", ["--seeds=-1"], "run_comparison: seeds must be non-negative"),
    "compare-sample-size-zero": ("compare", ["--sample-size", "0"], "run_comparison: sample_size must be >= 1"),
    "compare-tau-nan": ("compare", ["--tau", "nan"], "tau must be non-negative and finite"),
    "compare-cls-hidden-zero": ("compare", ["--cls-hidden", "0"], "cls_hidden: widths must be positive"),
    "compare-hidden-zero": ("compare", ["--hidden", "8,0"], "hidden: widths must be positive"),
}


# CompareConfig values no sweep can use, each rejected when the config is built: (fields, error text)
UNUSABLE_COMPARE = {
    "mode-unknown": ({"modes": ("mse", "cl")}, "unknown loss mode 'cl'"),
    "modes-none": ({"modes": ()}, "need at least one loss mode"),
    "seeds-none": ({"seeds": ()}, "need at least one seed"),
    "seeds-negative": ({"seeds": (0, -1)}, "seeds must be non-negative, got -1"),
    "sample-size-zero": ({"sample_size": 0}, "sample_size must be >= 1, got 0"),
    "spread-split-unknown": (
        {"spread_split": "all"}, "spread_split must be one of ('train', 'val', 'test'), got 'all'"
    ),
    "seed-repeated": ({"seeds": (1, 0, 1)}, "each seed may appear once, got repeats of [1]"),
    "mode-repeated": ({"modes": ("mse", "mse")}, "each loss mode may appear once, got repeats of ['mse']"),
    # two bad values: the first check in the order above reports
    "seeds-and-sample-size": ({"seeds": (-1,), "sample_size": 0}, "seeds must be non-negative, got -1"),
}


@pytest.mark.parametrize("fields, message", UNUSABLE_COMPARE.values(), ids=UNUSABLE_COMPARE.keys())
def test_compare_config_rejects_a_value_no_sweep_can_use_when_built(fields, message):
    with pytest.raises(hscl.errors.ConfigError) as raised:
        hscl.pipeline.CompareConfig(**fields)
    assert str(raised.value) == f"run_comparison: {message}"


@pytest.mark.parametrize("command, flags, message", UNUSABLE.values(), ids=UNUSABLE.keys())
def test_a_value_no_run_can_use_exits_2_before_any_work(
    tiny_dataset, tiny_pretrained, tmp_path, capsys, monkeypatch, command, flags, message
):
    stacks = _record_pretrain_stacks(monkeypatch)
    out = tmp_path / "out"
    argv = [command, "--out", str(out), *flags]
    if command != "gen-data":
        argv += ["--data", str(tiny_dataset)]
    if command in ("finetune", "analyze"):
        argv += ["--checkpoint", str(tiny_pretrained / "pretrain_best.ckpt")]
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1 and message in err
    assert not out.exists()
    assert list(tmp_path.rglob("*.ckpt")) == []
    assert stacks == []  # compare pre-trains no seed


def test_config_values_of_a_fitting_type_are_taken(tiny_dataset, tiny_pretrained, tmp_path):
    config = tmp_path / "cfg.json"
    # an integer sets a float option; a list option takes a list or a comma-separated string
    config.write_text(json.dumps({"freeze_encoder": False, "epochs": 2, "lr": 1, "cls_hidden": "6"}))
    out = tmp_path / "run"
    rc = main(
        [
            "finetune",
            "--data", str(tiny_dataset),
            "--checkpoint", str(tiny_pretrained / "pretrain_best.ckpt"),
            "--out", str(out),
            "--config", str(config),
        ]
    )
    assert rc == 0
    meta = load_checkpoint(out / "finetune_final.ckpt").meta
    assert meta["train"]["freeze_encoder"] is False
    assert meta["train"]["epochs"] == 2
    assert meta["train"]["lr"] == 1.0
    assert meta["model"]["cls_widths"][1:-1] == [6]


def _run_cli(*argv, env: dict | None = None) -> subprocess.CompletedProcess:
    """``python -m hscl.cli *argv`` in a fresh interpreter, so exit codes are the real ones.

    ``env`` adds to the child's environment only.
    """
    src = str(Path(hscl.pipeline.__file__).resolve().parents[1])
    env = {
        **os.environ,
        **(env or {}),
        "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])),
    }
    return subprocess.run(
        [sys.executable, "-m", "hscl.cli", *map(str, argv)],
        capture_output=True,
        text=True,
        env=env,
        timeout=120,
    )


def _tree(out: Path) -> dict[str, bytes]:
    return {p.relative_to(out).as_posix(): p.read_bytes() for p in sorted(out.rglob("*")) if p.is_file()}


def test_compare_writes_the_same_bytes_on_one_blas_thread_or_two(tmp_path):
    """Bit-for-bit output given a seed holds for one BLAS build and kernel at 1 or 2 threads."""
    data = tmp_path / "cohort.csv"
    assert main(["gen-data", "--out", str(data)]) == 0
    flags = ["--seeds", "0,1", "--modes", "mse,mse+cl", "--epochs", "10", "--finetune-epochs", "5"]
    for threads in ("1", "2"):
        proc = _run_cli("compare", "--data", data, "--out", tmp_path / threads, *flags,
                        env={"OPENBLAS_NUM_THREADS": threads})
        assert proc.returncode == 0, proc.stderr
    one, two = _tree(tmp_path / "1"), _tree(tmp_path / "2")
    assert "report.json" in one and len(one) == 10  # two reports, 2 seeds x 2 modes x 2 checkpoints
    assert one == two


def test_compare_with_bad_fractions_exits_2_before_any_seed(tiny_dataset, tmp_path):
    out = tmp_path / "cmp"
    proc = _run_cli(
        "compare",
        "--data", tiny_dataset,
        "--out", out,
        "--seeds", "0,1",
        "--fractions", "0.5,0.3,0.3",
    )
    assert proc.returncode == 2
    assert "fractions must sum to 1" in proc.stderr
    assert proc.stdout == ""
    assert not out.exists()


def test_compare_with_no_loss_mode_exits_2_before_any_seed(tiny_dataset, tmp_path):
    out = tmp_path / "cmp"
    proc = _run_cli("compare", "--data", tiny_dataset, "--out", out, "--seeds", "0", "--modes", "")
    assert proc.returncode == 2
    assert "need at least one loss mode" in proc.stderr
    assert not out.exists()


@pytest.mark.parametrize("flag, value, what", [("--seeds", "1,1", "seed"), ("--modes", "mse,mse", "loss mode")])
def test_compare_with_a_repeated_seed_or_mode_exits_2_before_any_seed(tiny_dataset, tmp_path, flag, value, what):
    out = tmp_path / "cmp"
    proc = _run_cli("compare", "--data", tiny_dataset, "--out", out, flag, value, "--epochs", "1")
    assert proc.returncode == 2
    assert f"each {what} may appear once" in proc.stderr
    assert proc.stdout == ""
    assert not out.exists()


def test_compare_in_bin_label_mode_with_a_non_positive_score_exits_2_before_any_seed(tiny_dataset, tmp_path):
    rows = Path(tiny_dataset).read_text(encoding="utf-8").splitlines()
    first = rows[1].split(",")  # the first scan of a patient with three
    first[2] = "-0.5"
    data = tmp_path / "non_positive.csv"
    data.write_text("\n".join([rows[0], ",".join(first), *rows[2:]]) + "\n", encoding="utf-8")
    out = tmp_path / "cmp"
    proc = _run_cli(
        "compare", "--data", data, "--out", out, "--seeds", "0,1", "--label-mode", "bin", "--epochs", "1"
    )
    assert proc.returncode == 2
    assert proc.stderr == "error: categorize_sf: S/F ratio must be positive, got -0.5\n"
    assert proc.stdout == ""
    assert not out.exists()


def test_pretrain_in_bin_label_mode_with_a_non_positive_score_exits_2_before_any_output(tiny_dataset, tmp_path):
    rows = Path(tiny_dataset).read_text(encoding="utf-8").splitlines()
    first = rows[1].split(",")
    first[2] = "-0.5"
    data = tmp_path / "non_positive.csv"
    data.write_text("\n".join([rows[0], ",".join(first), *rows[2:]]) + "\n", encoding="utf-8")
    out = tmp_path / "pre"
    proc = _run_cli("pretrain", "--data", data, "--out", out, "--label-mode", "bin", "--epochs", "1")
    assert proc.returncode == 2
    assert proc.stderr == "error: categorize_sf: S/F ratio must be positive, got -0.5\n"
    assert proc.stdout == ""
    assert not out.exists()


def test_a_restore_in_bin_label_mode_of_a_non_positive_score_exits_2(tiny_dataset, tmp_path, capsys):
    """finetune, eval and analyze label the pairs again; a non-positive test-split score fails as in pretrain."""
    train = ["--data", str(tiny_dataset), "--epochs", "1", "--seed", "1"]
    assert main(["pretrain", *train, "--hidden", "8,4", "--label-mode", "bin", "--out", str(tmp_path / "pre")]) == 0
    pretrained = str(tmp_path / "pre" / "pretrain_best.ckpt")
    assert main(["finetune", *train, "--checkpoint", pretrained, "--out", str(tmp_path / "fin")]) == 0
    cohort = load_dataset(tiny_dataset)
    _, _, test = split_patients(cohort, DEFAULT_FRACTIONS, 1)
    # the first scan of a test patient: the training split, and so the checkpoint's stats, are untouched
    cohort.scores[cohort.row_patient_ids().tolist().index(test.patient_ids[0])] = -0.5
    data = tmp_path / "non_positive_test.csv"
    save_dataset(cohort, data)
    capsys.readouterr()
    for command, ckpt in (
        ("finetune", pretrained),
        ("eval", str(tmp_path / "fin" / "finetune_best.ckpt")),
        ("analyze", pretrained),
    ):
        out = tmp_path / f"{command}-out"
        assert main([command, "--data", str(data), "--checkpoint", ckpt, "--out", str(out)]) == 2, command
        assert capsys.readouterr() == ("", "error: categorize_sf: S/F ratio must be positive, got -0.5\n")
        assert not out.exists()


# -- seeds of equal split sizes train in one stack; each run as if it ran alone ----------


def _compare_small(data, out, seeds: str, modes: str = "mse,mse+cl") -> int:
    return main(
        [
            "compare",
            "--data", str(data),
            "--out", str(out),
            "--seeds", seeds,
            "--modes", modes,
            "--epochs", "2",
            "--finetune-epochs", "2",
            "--hidden", "8,4",
        ]
    )


def _checkpoints(out: Path) -> dict[str, bytes]:
    return {p.relative_to(out).as_posix(): p.read_bytes() for p in sorted(out.rglob("*.ckpt"))}


def _record_pretrain_stacks(monkeypatch) -> list[list[int]]:
    """Record the seeds of every pre-training stack."""
    real, stacks = hscl.pipeline.run_pretrain_runs, []

    def recorded(prepareds, model, config, seeds):
        stacks.append(list(seeds))
        return real(prepareds, model, config, seeds)

    monkeypatch.setattr(hscl.pipeline, "run_pretrain_runs", recorded)
    return stacks


def test_a_diverged_seed_in_a_stack_fails_alone_and_spares_the_others(tiny_dataset, tmp_path, monkeypatch):
    stacks = _record_pretrain_stacks(monkeypatch)
    _diverge_finetune(monkeypatch, lambda seed, mode: seed == 1)
    assert _compare_small(tiny_dataset, tmp_path / "sweep", "0,1,2") == 0
    # the group's stacks fail, then each seed is retrained as a group of one
    assert stacks == [[0, 1, 2], [0, 1, 2], [0], [0], [1], [1], [2], [2]]
    assert _compare_small(tiny_dataset, tmp_path / "alone", "1") == 1
    assert _compare_small(tiny_dataset, tmp_path / "without", "0,2") == 0

    sweep, alone, without = (
        json.loads((tmp_path / name / "report.json").read_text()) for name in ("sweep", "alone", "without")
    )
    assert [seed for seed, row in sweep["per_seed"].items() if "error" in row] == ["1"]
    assert sweep["per_seed"]["1"] == alone["per_seed"]["1"]
    assert sweep["per_seed"]["1"]["error"].startswith("TrainingAbort: finetune run 0: non-finite loss")
    failure = "  seed 1: " + sweep["per_seed"]["1"]["error"]
    assert failure in (tmp_path / "sweep" / "report.txt").read_text().splitlines()
    assert failure in (tmp_path / "alone" / "report.txt").read_text().splitlines()
    for seed in ("0", "2"):
        assert sweep["per_seed"][seed] == without["per_seed"][seed]
    assert _checkpoints(tmp_path / "sweep") == _checkpoints(tmp_path / "without")
    assert len(_checkpoints(tmp_path / "sweep")) == 8


@pytest.fixture(scope="module")
def uneven_dataset(tmp_path_factory):
    """Patients with 3 or 4 scans, so different seeds split into different sizes."""
    spec = SyntheticSpec(n_patients=12, scans_per_patient=4, n_features=5, seed=3)
    path = tmp_path_factory.mktemp("uneven") / "uneven.csv"
    save_dataset(first_scans(generate_synthetic(spec), lambda k: 4 if k % 2 else 3), path)
    return path


def test_compare_stacks_seeds_of_equal_split_sizes_and_matches_every_seed_alone(
    uneven_dataset, tmp_path, monkeypatch
):
    cohort = load_dataset(uneven_dataset)
    groups: dict[tuple, list[int]] = {}
    for seed in range(6):
        prepared = hscl.pipeline.prepare(cohort, seed, hscl.pipeline.DataConfig())
        groups.setdefault(hscl.pipeline._split_sizes(prepared), []).append(seed)
    assert list(groups.values()) == [[0, 5], [1, 2], [3], [4]]

    stacks = _record_pretrain_stacks(monkeypatch)
    assert _compare_small(uneven_dataset, tmp_path / "grouped", "0,1,2,3,4,5", "mse,mse+wcl") == 0
    assert stacks == [[0, 5], [0, 5], [1, 2], [1, 2], [3], [3], [4], [4]]

    # give every seed a group of its own: the sweep as it ran before stacking
    monkeypatch.setattr(hscl.pipeline, "_split_sizes", lambda prepared: prepared.data_meta["split_seed"])
    del stacks[:]
    assert _compare_small(uneven_dataset, tmp_path / "alone", "0,1,2,3,4,5", "mse,mse+wcl") == 0
    assert stacks == [[seed] for seed in range(6) for _ in range(2)]

    for name in ("report.json", "report.txt"):
        assert (tmp_path / "grouped" / name).read_bytes() == (tmp_path / "alone" / name).read_bytes()
    grouped = _checkpoints(tmp_path / "grouped")
    assert len(grouped) == 24
    assert grouped == _checkpoints(tmp_path / "alone")


# -- empty splits: (0, F) arrays, ConfigError (exit 2) where a stage needs data ----


@pytest.fixture(scope="module")
def single_scan_dataset(tmp_path_factory):
    """Every patient has one scan, so no split has a consecutive pair."""
    spec = SyntheticSpec(n_patients=30, scans_per_patient=2, n_features=5, seed=3)
    path = tmp_path_factory.mktemp("single") / "single.csv"
    save_dataset(first_scans(generate_synthetic(spec), lambda k: 1), path)
    return path


def test_an_empty_test_split_trains_and_eval_or_analyze_of_it_exits_2(tiny_dataset, tmp_path):
    pre, fine = tmp_path / "pre", tmp_path / "fine"
    common = ("--data", tiny_dataset, "--epochs", "2")
    proc = _run_cli("pretrain", *common, "--out", pre, "--hidden", "8,4", "--fractions", "0.8,0.2,0")
    assert proc.returncode == 0, proc.stderr
    proc = _run_cli("finetune", *common, "--out", fine, "--checkpoint", pre / "pretrain_best.ckpt")
    assert proc.returncode == 0, proc.stderr

    proc = _run_cli("eval", "--data", tiny_dataset, "--out", tmp_path / "eval", "--split", "test",
                    "--checkpoint", fine / "finetune_best.ckpt")
    assert proc.returncode == 2
    assert "split 'test' has no pairs" in proc.stderr
    assert "Traceback" not in proc.stderr
    assert not (tmp_path / "eval").exists()

    proc = _run_cli("analyze", "--data", tiny_dataset, "--out", tmp_path / "a.tsv", "--split", "test",
                    "--checkpoint", pre / "pretrain_best.ckpt")
    assert proc.returncode == 2
    assert "split 'test' has no scans" in proc.stderr
    assert "capping" not in proc.stderr
    assert not (tmp_path / "a.tsv").exists()


def test_finetune_with_an_empty_val_split_exits_2_before_training(tiny_dataset, tmp_path):
    pre, fine = tmp_path / "pre", tmp_path / "fine"
    common = ("--data", tiny_dataset, "--epochs", "2")
    proc = _run_cli("pretrain", *common, "--out", pre, "--hidden", "8,4", "--fractions", "0.8,0,0.2")
    assert proc.returncode == 0, proc.stderr
    assert "best_val_mse: nan" in proc.stdout
    proc = _run_cli("finetune", *common, "--out", fine, "--checkpoint", pre / "pretrain_best.ckpt")
    assert proc.returncode == 2
    assert "split 'val' has no pairs" in proc.stderr
    assert not fine.exists()


def test_a_train_split_smaller_than_the_batch_exits_2(tiny_dataset, tmp_path):
    out = tmp_path / "pre"
    proc = _run_cli("pretrain", "--data", tiny_dataset, "--out", out, "--batch-size", "64")
    assert proc.returncode == 2
    assert "smaller than batch size 64" in proc.stderr
    assert "Traceback" not in proc.stderr
    assert not out.exists()


def test_a_cohort_without_pairs_pretrains_and_finetune_exits_2(single_scan_dataset, tmp_path):
    pre, fine = tmp_path / "pre", tmp_path / "fine"
    common = ("--data", single_scan_dataset, "--epochs", "2")
    proc = _run_cli("pretrain", *common, "--out", pre, "--hidden", "8,4")
    assert proc.returncode == 0, proc.stderr
    proc = _run_cli("finetune", *common, "--out", fine, "--checkpoint", pre / "pretrain_best.ckpt")
    assert proc.returncode == 2
    assert "split 'train' has no pairs" in proc.stderr
    assert "Traceback" not in proc.stderr
    assert not fine.exists()


def _count_pretrained_seeds(monkeypatch) -> list[int]:
    """The seeds of every pre-training run, as they start."""
    real, calls = hscl.pipeline.run_pretrain_runs, []

    def counted(prepareds, model, config, seeds):
        calls.extend(seeds)
        return real(prepareds, model, config, seeds)

    monkeypatch.setattr(hscl.pipeline, "run_pretrain_runs", counted)
    return calls


def _compare_once(data, out, seeds: str, *flags: str) -> int:
    return main(
        [
            "compare", "--data", str(data), "--out", str(out), "--seeds", seeds, "--modes", "mse",
            "--epochs", "1", "--finetune-epochs", "1", "--hidden", "8,4", *flags,
        ]
    )


def test_compare_records_a_split_without_pairs_as_a_failed_seed(
    single_scan_dataset, tmp_path, capsys, monkeypatch
):
    calls = _count_pretrained_seeds(monkeypatch)
    out = tmp_path / "cmp"
    assert _compare_once(single_scan_dataset, out, "0,1") == 1
    assert "every seed failed" in capsys.readouterr().err
    report = json.loads((out / "report.json").read_text())
    for seed in ("0", "1"):
        assert report["per_seed"][seed] == {"error": "ConfigError: run_comparison: split 'train' has no pairs"}
    assert calls == []  # the missing pairs are found before any pre-training


def test_compare_with_a_zero_fraction_exits_2_before_any_seed(tiny_dataset, tmp_path, capsys, monkeypatch):
    """Every seed's test split would be empty and its evaluation fail alike, so none pre-trains."""
    calls = _count_pretrained_seeds(monkeypatch)
    for fractions, split in (("0.7,0.3,0", "test"), ("0.7,0,0.3", "val"), ("0,0.5,0.5", "train")):
        out = tmp_path / split
        assert _compare_once(tiny_dataset, out, "0,1", "--fractions", fractions) == 2
        assert capsys.readouterr() == ("", f"error: run_comparison: the {split} fraction is 0; every seed needs {split} pairs\n")
        assert not out.exists()
    assert calls == []


def test_compare_fails_a_seed_whose_val_split_has_no_pairs_as_finetune_does(tiny_dataset, tmp_path, capsys, monkeypatch):
    """Each val patient of split seed 1 keeps one scan: finetune exits 2 before training, and compare fails the seed alike."""
    cohort = load_dataset(tiny_dataset)
    _, val, _ = split_patients(cohort, DEFAULT_FRACTIONS, 1)
    data = tmp_path / "val_single.csv"
    save_dataset(first_scans(cohort, lambda k: 1 if cohort.patient_ids[k] in val.patient_ids else 3), data)
    train = ["--data", str(data), "--epochs", "1", "--seed", "1"]
    assert main(["pretrain", *train, "--hidden", "8,4", "--out", str(tmp_path / "pre")]) == 0
    pretrained = str(tmp_path / "pre" / "pretrain_best.ckpt")
    capsys.readouterr()
    assert main(["finetune", *train, "--checkpoint", pretrained, "--out", str(tmp_path / "fin")]) == 2
    assert capsys.readouterr() == ("", "error: finetune: split 'val' has no pairs\n")

    calls = _count_pretrained_seeds(monkeypatch)
    out = tmp_path / "cmp"
    assert _compare_once(data, out, "1") == 1
    assert "every seed failed" in capsys.readouterr().err
    report = json.loads((out / "report.json").read_text())
    assert report["per_seed"]["1"] == {"error": "ConfigError: run_comparison: split 'val' has no pairs"}
    assert calls == []


@pytest.mark.parametrize("pooling", ["mean", "last"])
def test_checkpoint_with_old_pooling_key_evaluates_identically(
    tiny_dataset, tiny_finetuned, tmp_path, pooling
):
    """Checkpoints from before the sequence path was removed carry meta.model.pooling."""
    plain_path = tiny_finetuned / "finetune_best.ckpt"
    plain = load_checkpoint(plain_path)
    assert "pooling" not in plain.meta["model"]
    meta = copy.deepcopy(plain.meta)
    meta["model"]["pooling"] = pooling
    old_path = tmp_path / "old.ckpt"
    save_checkpoint(Checkpoint(plain.tensors, meta), old_path)
    old = load_checkpoint(old_path)
    assert old.meta["model"]["pooling"] == pooling

    prepared = hscl.pipeline.prepared_from_meta(load_dataset(tiny_dataset), plain.meta["data"])
    xp, xn, _ = prepared.pairs["test"]
    logits = []
    for ck in (plain, old):
        encoder, cls = encoder_from_checkpoint(ck), classifier_from_checkpoint(ck)
        logits.append(classify_pairs(cls, *embed_pairs(encoder, xp, xn)))
    assert np.array_equal(logits[0], logits[1])

    metrics = []
    for name, path in (("plain", plain_path), ("old", old_path)):
        out = tmp_path / name
        assert main(["eval", "--data", str(tiny_dataset), "--checkpoint", str(path), "--out", str(out)]) == 0
        metrics.append(((out / "metrics.json").read_bytes(), (out / "metrics.txt").read_bytes()))
    assert metrics[0] == metrics[1]


def _with_line_3(dataset, tmp_path, line: bytes) -> Path:
    """A copy of ``dataset`` whose third line (the second record) is ``line``."""
    lines = dataset.read_bytes().split(b"\n")
    lines[2] = line
    path = tmp_path / "edited.csv"
    path.write_bytes(b"\n".join(lines))
    return path


def test_analyze_of_a_dataset_that_is_not_utf8_exits_2_naming_the_line(tiny_dataset, tiny_pretrained, tmp_path):
    bad = _with_line_3(tiny_dataset, tmp_path, b"p\xff" + tiny_dataset.read_bytes().split(b"\n")[2][3:])
    out = tmp_path / "profile.tsv"
    proc = _run_cli("analyze", "--data", bad, "--checkpoint", tiny_pretrained / "pretrain_best.ckpt", "--out", out)
    assert proc.returncode == 2
    assert proc.stderr == f"error: {bad}: line 3: not UTF-8 text\n"
    assert not out.exists()


@pytest.mark.parametrize("pid", [b"p00", b'"p00"'], ids=["split", "csv.reader"])
def test_analyze_of_a_dataset_with_an_oversized_field_exits_2_naming_the_line(
    tiny_dataset, tiny_pretrained, tmp_path, pid
):
    limit = csv.field_size_limit()
    bad = _with_line_3(tiny_dataset, tmp_path, pid + b",9," + b"1" * (limit + 1) + b",0,0,0,0,0")
    proc = _run_cli("analyze", "--data", bad, "--checkpoint", tiny_pretrained / "pretrain_best.ckpt",
                    "--out", tmp_path / "profile.tsv")
    assert proc.returncode == 2
    assert proc.stderr == f"error: {bad}: line 3: field larger than field limit ({limit})\n"

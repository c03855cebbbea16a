from pathlib import Path

import pytest

from hscl.cli import main

HERE = Path(__file__).resolve().parent


def pytest_collection_modifyitems(config, items):
    """A ``RuntimeWarning`` (overflow, invalid value, ...) fails a test here; a test that expects one asserts it."""
    for item in items:
        if HERE in Path(item.path).resolve().parents:
            item.add_marker(pytest.mark.filterwarnings("error::RuntimeWarning"))


@pytest.fixture(scope="session")
def tiny_dataset(tmp_path_factory):
    """Small generated dataset shared by the CLI tests."""
    path = tmp_path_factory.mktemp("data") / "tiny.csv"
    rc = main(
        [
            "gen-data",
            "--patients", "12",
            "--scans-per-patient", "3",
            "--features", "5",
            "--seed", "3",
            "--out", str(path),
        ]
    )
    assert rc == 0
    return path


@pytest.fixture(scope="session")
def tiny_pretrained(tiny_dataset, tmp_path_factory):
    """Quick pretrain run over the tiny dataset; returns its output directory."""
    out = tmp_path_factory.mktemp("pretrain")
    rc = main(
        [
            "pretrain",
            "--data", str(tiny_dataset),
            "--out", str(out),
            "--epochs", "3",
            "--hidden", "8,4",
            "--loss", "mse+cl",
            "--seed", "1",
        ]
    )
    assert rc == 0
    return out


@pytest.fixture(scope="session")
def tiny_finetuned(tiny_dataset, tiny_pretrained, tmp_path_factory):
    out = tmp_path_factory.mktemp("finetune")
    rc = main(
        [
            "finetune",
            "--data", str(tiny_dataset),
            "--checkpoint", str(tiny_pretrained / "pretrain_best.ckpt"),
            "--out", str(out),
            "--epochs", "3",
            "--seed", "1",
        ]
    )
    assert rc == 0
    return out

"""Self-tests of the benchmark's own code.

    python3 -m pytest perfbench -q
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import types
from dataclasses import replace
from pathlib import Path

import pytest

import tracing
import workloads

HERE = Path(__file__).resolve().parent


def _span(sid, name, t0, t1, parent=None, rep=0, **attrs):
    return tracing.Span(sid, name, t0, t1, parent, rep, attrs)


def test_self_time_subtracts_the_children_a_span_covers():
    spans = [
        _span(0, "training.pretrain", 0.0, 10.0, epochs=1, mode="mse+cl"),
        _span(1, "model.encode", 1.0, 3.0, 0),
        _span(2, "tensor.backward", 1.5, 2.0, 1),
        _span(3, "losses.loss_gradients", 4.0, 7.0, 0),
        _span(4, "tensor.backward", 4.0, 5.0, 3),
        _span(5, "tensor.backward", 4.5, 6.0, 3),  # overlaps its sibling: covered once
        _span(-1, tracing.PROBE, 7.0, 7.5, 0),
    ]
    own = tracing.self_times(spans)
    assert own[0] == pytest.approx(10.0 - 2.0 - 3.0 - 0.5)
    assert own[1] == pytest.approx(1.5)
    assert own[3] == pytest.approx(1.0)
    assert own[2] == pytest.approx(0.5)
    assert -1 not in own


def test_step_runs_from_the_training_encode_to_the_adam_return():
    spans = [
        _span(0, "training.pretrain", 0.0, 20.0, epochs=2, mode="mse+cl", frozen=True),
        _span(1, "model.encode", 1.0, 2.0, 0),
        _span(2, "losses.combined_loss_terms", 2.0, 3.0, 0),
        _span(3, "training.adam_step", 3.0, 4.0, 0),
        # the epoch's validation, then the next step
        _span(4, "model.encode", 5.0, 6.0, 0),
        _span(5, "model.predict_hs", 6.0, 7.0, 0),
        _span(6, "model.encode", 8.0, 9.0, 0),
        _span(7, "losses.loss_gradients", 9.0, 11.0, 0),
        _span(-1, tracing.PROBE, 10.0, 10.5, 7),
        _span(8, "training.adam_step", 11.0, 12.0, 0),
    ]
    assert [s["ms"] for s in tracing.steps(spans)] == pytest.approx([3000.0, 3500.0])


def test_unfrozen_finetune_step_starts_at_the_first_pair_encode():
    spans = [
        _span(0, "training.finetune", 0.0, 20.0, epochs=1, mode="mse", frozen=False),
        _span(1, "model.encode", 1.0, 2.0, 0),
        _span(2, "model.encode", 2.0, 3.0, 0),
        _span(3, "model.classify_pairs", 3.0, 4.0, 0),
        _span(4, "training.adam_step", 4.0, 5.0, 0),
    ]
    frozen = [replace_attrs(spans[0], frozen=True), *spans[1:]]
    assert [s["ms"] for s in tracing.steps(spans)] == pytest.approx([4000.0])
    assert [s["ms"] for s in tracing.steps(frozen)] == pytest.approx([2000.0])


def replace_attrs(span, **attrs):
    return tracing.Span(span.sid, span.name, span.t0, span.t1, span.parent, span.rep,
                        {**span.attrs, **attrs})


def test_wrappers_are_removed_after_a_traced_block_even_when_it_raises():
    hs = workloads.import_hscl()
    originals = {
        (module, attr): getattr(getattr(hs, module), attr) for module, attr, _ in tracing.BINDINGS
    }
    tracer = tracing.Tracer()
    with pytest.raises(RuntimeError):
        with tracer.installed(hs, rep=0):
            assert len(tracing.wrapped_names(hs)) == len(tracing.BINDINGS)
            hs.data.generate_synthetic(hs.data.SyntheticSpec(n_patients=3, scans_per_patient=2))
            raise RuntimeError("inside the traced block")
    assert tracing.wrapped_names(hs) == []
    for (module, attr), fn in originals.items():
        assert getattr(getattr(hs, module), attr) is fn
    assert [s.name for s in tracer.spans] == ["data.generate_synthetic"]


def test_the_seed_changes_the_inputs_and_nothing_else(tmp_path):
    hs = workloads.import_hscl()
    for spec in workloads.SPECS.values():
        small = replace(spec, patients=8, scans=3, features=4)
        one, two = workloads.plan(small, 1), workloads.plan(small, 2)
        assert one.spec == two.spec == small
        assert (one.data_seed, one.train_seeds) != (two.data_seed, two.train_seeds)
        for mode in small.modes:
            a = workloads._configs(hs, small, one.train_seeds[0], mode)
            b = workloads._configs(hs, small, two.train_seeds[0], mode)
            assert [replace(c, seed=0) for c in a] == [replace(c, seed=0) for c in b]
        csv = {}
        for p, tag in ((one, "a"), (two, "b"), (one, "c")):
            (tmp_path / tag).mkdir()
            state = workloads.build(hs, p, tmp_path / tag)
            csv[tag] = state.csv.read_bytes()
            shutil.rmtree(tmp_path / tag)
        assert csv["a"] == csv["c"]
        assert csv["a"] != csv["b"]


@pytest.mark.parametrize("trace", [False, True])
@pytest.mark.parametrize("name", sorted(workloads.SPECS))
def test_one_epoch_smoke_run_has_no_errors(name, trace, tmp_path):
    spec = replace(workloads.SPECS[name], pretrain_epochs=1, finetune_epochs=1)
    outcome = workloads.run_workload(spec, seed=3, seconds=0, trace=trace, workdir=tmp_path)
    assert outcome.ledger.failures == []
    assert outcome.ledger.attempted > 0
    assert len(outcome.reps) >= workloads.MIN_REPS
    used = types.SimpleNamespace(**{n: sys.modules[f"hscl.{n}"] for n in workloads.HSCL_MODULES})
    assert tracing.wrapped_names(used) == []
    if trace:
        assert len(outcome.traced_reps) >= workloads.MIN_REPS
        layer = outcome.layer
        assert layer["training.steps"] > 0 and layer["data.csv_bytes"] > 0
        pretrain = [g for g in outcome.breakdown if g["stage"] == "pretrain"]
        nodes = {"mse": 21.0, "mse+cl": 608.0, "mse+wcl": 656.0}
        assert {g["variant"]: g["graph_nodes_per_step"] for g in pretrain} == {
            mode: nodes[mode] for mode in spec.modes
        }
        for g in pretrain:
            assert g["pairs_per_step"] == (0.0 if g["variant"] == "mse" else 48.0)
    else:
        assert len(outcome.setup["norm"]) == len(outcome.setup["raw"]) == workloads.SETUP_REPEATS


@pytest.mark.parametrize("trace, kind", [(0, "end_to_end"), (1, "per_layer")])
def test_command_prints_the_contract_line(trace, kind):
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", "regression", "--seed", "4",
         "--seconds", "0", "--trace", str(trace)],
        capture_output=True, text=True, timeout=170,
    )
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert sorted(result) == ["attempted", "correct", "failed", "metrics"]
    declared = json.loads((HERE.parent / "BENCHMARK.json").read_text())[kind]
    assert {k: v["unit"] for k, v in result["metrics"].items()} == {m["name"]: m["unit"] for m in declared}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] > 0


def test_command_fails_without_the_library(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "study", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=170,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout

"""Guards that keep tooling and the CLI in step with the library.

The benchmark's tracer (perfbench/tracing.py) replaces functions at the
module bindings listed in ``tracing.BINDINGS``; a library rename that drops
one of them would silently leave that layer out of a traced run. Its probes
read library results (the mined pairs of a ``MiningResult``), so they are run
on real ones here, and short training runs go through the whole tracer.

Every public name of the tensor core has an importer in the library, so an
op that only the tests call lives in the test tree (``elementary.py``).

The CLI takes every option default from the library's config dataclasses
(or the parameters of the function a command calls) instead of restating
them, and accepts exactly its options as config-file keys.
"""

import ast
import importlib
import importlib.util
import inspect
import json
import statistics
import types
from pathlib import Path

import numpy as np
import pytest

import hscl.tensor
from hscl import cli
from hscl.data import SyntheticSpec
from hscl.errors import ConfigError
from hscl.losses import LossConfig, mine_batch
from hscl.pipeline import (
    CompareConfig,
    DataConfig,
    ModelSpec,
    evaluate_checkpoint,
    spread_for_checkpoint,
)
from hscl.tensor import Tensor
from hscl.training import TrainConfig, finetune, pretrain

from elementary import pairwise_similarity

ROOT = Path(__file__).resolve().parents[1]
TRACING = ROOT / "perfbench" / "tracing.py"


def _load_tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_traced_binding_resolves_to_a_callable():
    bindings = _load_tracing().BINDINGS
    assert bindings
    missing = [
        f"hscl.{module_name}.{attr}"
        for module_name, attr, _ in bindings
        if not callable(getattr(importlib.import_module(f"hscl.{module_name}"), attr, None))
    ]
    assert missing == []


@pytest.mark.parametrize("similarity", ["cos", "l2"])
def test_mining_probes_read_a_real_mining_result(similarity):
    tracing = _load_tracing()
    hs = np.array([0.1, 0.9, 0.4, 0.4, 0.7, 0.2, 0.8, 0.3])
    rng = np.random.default_rng(5)
    e = rng.normal(size=(8, 3))
    e[3] = e[2]  # one identical pair: similarity 1.0, at the clamp
    mining = mine_batch(hs)
    pairs = int(mining.positive.sum() + mining.negative.sum())
    assert pairs == 8 * 2 * mining.per_side
    assert tracing._mining({"hs": hs}, mining) == {"pairs": pairs}

    config = LossConfig(mode="mse+cl", similarity=similarity)
    args = {"mining": mining, "config": config, "embeddings": Tensor(e)}
    sims = pairwise_similarity(Tensor(e), similarity).data
    mined = mining.positive | mining.negative
    at_clamp = mined & ((sims <= config.sim_floor) | (sims >= 1.0))
    assert at_clamp.sum() >= 2  # the identical pair, from both anchors
    assert tracing._clamped(args, None) == {"mined": pairs, "clamped": int(at_clamp.sum())}


def test_traced_training_runs_every_probe_without_error():
    """Short pre-training runs (mse+cl, mse+wcl) and a frozen fine-tune under the installed tracer."""
    tracing = _load_tracing()
    hs = types.SimpleNamespace(
        **{name: importlib.import_module(f"hscl.{name}") for name, _, _ in tracing.BINDINGS}
    )
    rng = np.random.default_rng(6)
    x, y = rng.normal(size=(37, 5)), rng.uniform(size=37)
    xp, xn, labels = rng.normal(size=(20, 5)), rng.normal(size=(20, 5)), rng.integers(0, 3, size=20)
    tracer = tracing.Tracer()
    with tracer.installed(hs, rep=0):
        for mode in ("mse+cl", "mse+wcl"):
            pre = pretrain(x, y, x[:9], y[:9], TrainConfig(epochs=1, loss=LossConfig(mode)), hidden=(6, 4))
        finetune(pre.best, xp, xn, labels, xp[:9], xn[:9], labels[:9], TrainConfig(epochs=1))
    assert tracing.wrapped_names(hs) == []
    loss_spans = [s for s in tracer.spans if s.name == "losses.combined_loss_terms"]
    assert len(loss_spans) == 2 * (37 // 8)
    assert all(s.attrs["mined"] == 8 * 2 * 3 for s in loss_spans)
    assert sum(s.name == tracing.ADAM for s in tracer.spans) == 2 * (37 // 8) + 3


def test_every_tensor_export_is_imported_by_another_library_module():
    """Imported and referenced there; a re-export from ``__init__`` does not count.

    ``grad_check``, the public check tool, is the one name that nothing in
    the library calls.
    """
    used = set()
    for path in (ROOT / "src" / "hscl").glob("*.py"):
        if path.name in ("tensor.py", "__init__.py"):
            continue
        nodes = list(ast.walk(ast.parse(path.read_text(encoding="utf-8"))))
        imported = {
            alias.asname or alias.name
            for stmt in nodes
            if isinstance(stmt, ast.ImportFrom) and (stmt.module, stmt.level) in (("tensor", 1), ("hscl.tensor", 0))
            for alias in stmt.names
        }
        used |= imported & {stmt.id for stmt in nodes if isinstance(stmt, ast.Name)}
    assert sorted(set(hscl.tensor.__all__) - used - {"grad_check"}) == []


@pytest.mark.parametrize("path", sorted(ROOT.glob("BENCH_*.json")), ids=lambda p: p.name)
def test_committed_bench_records_match_their_runs(path):
    """Each ``BENCH_*.json``: BENCH_11's keys, a declared claim, correct runs, summaries of its runs."""
    bench = json.loads(path.read_text(encoding="utf-8"))
    assert set(json.loads((ROOT / "BENCH_11.json").read_text(encoding="utf-8"))) <= set(bench)
    declared = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    assert bench["claimed"]["workload"] in {w["name"] for w in declared["workloads"]}
    assert bench["claimed"]["metric"] in {m["name"] for m in declared["end_to_end"] + declared["per_layer"]}
    for workload in bench["workloads"].values():
        runs = workload["runs"]
        assert runs and all(run["result"]["correct"] is True for run in runs)
        for metric, sides in workload["summary"].items():
            for side, summary in sides.items():
                if not isinstance(summary, dict):  # a pair count or a relative change beside the sides
                    continue
                values = [run["result"]["metrics"][metric]["value"] for run in runs if run["side"] == side]
                assert (summary["median"], summary["n"]) == (statistics.median(values), len(values)), (metric, side)


PATH_ARGS = {"config", "data", "out", "checkpoint"}

# The library configs each subcommand builds from its options.
CONFIGS = {
    "gen-data": (SyntheticSpec,),
    "pretrain": (TrainConfig, LossConfig, ModelSpec, DataConfig),
    "finetune": (TrainConfig, ModelSpec),
    "eval": (),
    "analyze": (CompareConfig,),
    "compare": (TrainConfig, LossConfig, ModelSpec, DataConfig, CompareConfig),
}


def _subparsers():
    parser = cli.build_parser()
    (action,) = [a for a in parser._actions if a.dest == "command"]
    return parser, action.choices


def _option_dests(sub) -> set[str]:
    return {a.dest for a in sub._actions if a.dest != "help"} - PATH_ARGS


def _no_flag_args(parser, command, sub, config=None):
    argv = [command]
    for action in sub._actions:
        if action.required:
            argv += [action.option_strings[0], "unused"]
    if config is not None:
        argv += ["--config", str(config)]
    return parser.parse_args(argv)


def test_every_subcommand_is_covered():
    _, subs = _subparsers()
    assert set(subs) == set(CONFIGS)


@pytest.mark.parametrize("command", sorted(CONFIGS))
def test_config_file_keys_are_the_option_dests(command, tmp_path):
    parser, subs = _subparsers()
    dests = _option_dests(subs[command])
    opts = cli._merge(_no_flag_args(parser, command, subs[command]))
    assert set(opts) == dests

    every_key = tmp_path / "every_key.json"
    every_key.write_text(json.dumps({key: list(v) if isinstance(v, tuple) else v for key, v in opts.items()}))
    assert cli._merge(_no_flag_args(parser, command, subs[command], every_key)).keys() == opts.keys()

    for key in sorted(PATH_ARGS | {"pooling", "seed"} - dests):
        extra = tmp_path / f"{key}.json"
        extra.write_text(json.dumps({key: 1}))
        with pytest.raises(ConfigError, match="unknown keys"):
            cli._merge(_no_flag_args(parser, command, subs[command], extra))


@pytest.mark.parametrize("command", sorted(CONFIGS))
def test_no_flag_options_build_the_default_configs(command):
    parser, subs = _subparsers()
    opts = cli._merge(_no_flag_args(parser, command, subs[command]))
    for config_cls in CONFIGS[command]:
        assert cli._build(config_cls, opts) == config_cls()


def test_eval_and_analyze_defaults_are_the_called_functions_defaults():
    parser, subs = _subparsers()
    for command, function in (("eval", evaluate_checkpoint), ("analyze", spread_for_checkpoint)):
        opts = cli._merge(_no_flag_args(parser, command, subs[command]))
        params = inspect.signature(function).parameters
        with_default = {name for name, p in params.items() if p.default is not p.empty}
        assert set(opts) & with_default
        for key in set(opts) & with_default:
            assert opts[key] == params[key].default, (command, key)

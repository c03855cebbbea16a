"""Guards that keep tooling and the CLI in step with the library.

The benchmark's tracer (perfbench/tracing.py) replaces functions at the
module bindings listed in ``tracing.BINDINGS``; a library rename that drops
one of them would silently leave that layer out of a traced run. Its probes
read library results (the mined pairs of a ``MiningResult``), so they are run
on real ones here, and short training runs go through the whole tracer.

Which modules may name the layer pass, the graph, a tensor's array and the
checkpoint format is one table, ``OWNERSHIP``; ``UNUSED_PUBLIC`` lists the
public names no library module uses, each with its reason.

The CLI takes every option default from the library's config dataclasses
(or the parameters of the function a command calls) instead of restating
them, and accepts exactly its options as config-file keys. Every float
option rejects NaN and infinity with exit 2, as every float field of the
library's configs does with ``ConfigError``, and every option with choices
rejects a config-file value outside them with exit 2.

``training.CHECKPOINT_META`` declares exactly the metadata keys the writers
emit, so a new key cannot go unchecked on restore.

The CLI gate (tools/cli_gate.py), which hashes every output of every
subcommand to compare two source trees, gives the same manifest run after
run, so a difference between trees is the trees'.
"""

import ast
import dataclasses
import importlib
import importlib.util
import inspect
import json
import math
import statistics
import sys
import types
from pathlib import Path

import numpy as np
import pytest

from hscl import cli
from hscl.data import SyntheticSpec, load_dataset
from hscl.errors import ConfigError, HsclError
from hscl.losses import LossConfig, contrast_targets, mine_batch
from hscl.pipeline import (
    CompareConfig,
    DataConfig,
    ModelSpec,
    evaluate_checkpoint,
    spread_for_checkpoint,
)
from hscl.tensor import Tensor
from hscl.training import (
    CHECKPOINT_META,
    FINETUNE_META,
    TrainConfig,
    check_meta,
    finetune,
    load_checkpoint,
    pretrain,
)

from elementary import pairwise_similarity

ROOT = Path(__file__).resolve().parents[1]
TRACING = ROOT / "perfbench" / "tracing.py"
CLI_GATE = ROOT / "tools" / "cli_gate.py"


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


def _traced_modules(tracing):
    return types.SimpleNamespace(
        **{name: importlib.import_module(f"hscl.{name}") for name, _, _ in tracing.BINDINGS}
    )


def test_traced_training_runs_every_probe_without_error():
    """Short pre-training runs (mse+cl, mse+wcl) and a frozen fine-tune under the installed tracer.

    A pre-training step runs its loss as an array forward/backward pair, so
    the runs record no loss and no backward span. The loss probe is run on
    one traced ``combined_loss_terms`` call with a batch's real targets.
    """
    tracing = _load_tracing()
    hs = _traced_modules(tracing)
    rng = np.random.default_rng(6)
    x, y = rng.normal(size=(37, 5)), rng.uniform(size=37)
    xp, xn, labels = rng.normal(size=(20, 5)), rng.normal(size=(20, 5)), rng.integers(0, 3, size=20)
    tracer = tracing.Tracer()
    with tracer.installed(hs, rep=0):
        for mode in ("mse+cl", "mse+wcl"):
            pre = pretrain(x, y, x[:9], y[:9], TrainConfig(epochs=1, loss=LossConfig(mode)), hidden=(6, 4))
        finetune(pre.best, xp, xn, labels, xp[:9], xn[:9], labels[:9], TrainConfig(epochs=1))
        trained = [s.name for s in tracer.spans]
        config = LossConfig("mse+cl")
        batch = contrast_targets(y[:32].reshape(4, 8), config).batch(1)
        hs.training.combined_loss_terms(y[8:16], Tensor(np.zeros(8)), Tensor(x[8:16]), batch, y[8:16], config)
    assert tracing.wrapped_names(hs) == []
    assert "losses.combined_loss_terms" not in trained and "tensor.backward" not in trained
    (loss_span,) = [s for s in tracer.spans if s.name == "losses.combined_loss_terms"]
    assert loss_span.attrs["mined"] == 8 * 2 * 3
    assert sum(s.name == tracing.ADAM for s in tracer.spans) == 2 * (37 // 8) + 3


def test_traced_compare_pretrains_each_mode_of_a_group_in_one_stack(tiny_dataset, monkeypatch):
    """Under the installed tracer, ``compare`` trains a group of seeds as it does untraced.

    A tracer probe that fails on stacked arrays would make the group's
    pre-training raise, and the seeds would be retrained one by one.
    """
    tracing = _load_tracing()
    hs = _traced_modules(tracing)
    stacked, calls = hs.pipeline.run_pretrain_runs, []

    def recorded(prepareds, model, config, seeds):
        try:
            result = stacked(prepareds, model, config, seeds)
        except HsclError as exc:
            calls.append((config.loss.mode, list(seeds), type(exc).__name__))
            raise
        calls.append((config.loss.mode, list(seeds)))
        return result

    monkeypatch.setattr(hs.pipeline, "run_pretrain_runs", recorded)
    with tracing.Tracer().installed(hs, rep=0):
        report = hs.pipeline.run_comparison(
            load_dataset(tiny_dataset),
            CompareConfig(seeds=(2, 3), modes=("mse", "mse+cl")),
            DataConfig(),
            ModelSpec(hidden=(8, 4)),
            TrainConfig(epochs=1),
            TrainConfig(epochs=1),
        )
    assert tracing.wrapped_names(hs) == []
    assert calls == [("mse", [2, 3]), ("mse+cl", [2, 3])]
    assert all("error" not in report["per_seed"][seed] for seed in ("2", "3"))


SRC = ROOT / "src" / "hscl"

# One row per decision: (the rule, the names that spell it, the modules allowed
# to name them). A module names a name as a variable, an attribute, a
# definition or an import; ``.data=`` is a store to a ``data`` attribute, and
# a watched phrase (one with a space) matches anywhere in the module's text.
# ``__init__``'s imports are its exports, so they name nothing and use nothing.
OWNERSHIP = (
    ("only model runs the dense layer pair", {"dense_forward", "dense_backward"}, {"tensor", "model"}),
    ("only the autodiff API builds or walks a graph", {"node", "backward"}, {"tensor", "model", "losses"}),
    ("only tensor rebinds a tensor's array", {".data="}, {"tensor"}),
    (
        "only training knows the checkpoint format",
        {
            "CHECKPOINT_MAGIC",
            "CHECKPOINT_VERSION",
            "CHECKPOINT_META",
            "FINETUNE_META",
            "struct",
            "zlib",
            "checkpoint metadata",
        },
        {"training"},
    ),
)

# A public top-level name is used by another module, or by a used definition of
# its own module, and a name in a module's ``__all__`` by another module; these
# are not, and each says why it stays public. An op or rule that only the tests
# call lives in the test tree (``elementary.py``, ``oracles.py``) instead.
UNUSED_PUBLIC = {
    "tensor.grad_check": "the autodiff API's gradient check",
    "training.parse_trace": "reads back the trace log a pre-training run writes",
    "losses.cl_loss": "the autodiff API's contrastive loss",
    "losses.wcl_loss": "the autodiff API's weighted contrastive loss",
    "losses.mse_loss": "the autodiff API's regression loss",
    "losses.cross_entropy": "the autodiff API's classifier loss; perfbench BINDINGS also binds it",
    "losses.combined_loss": "the autodiff API's pre-training loss",
    "losses.combined_loss_terms": "the graph form of the array pair a step runs; perfbench BINDINGS also binds it",
    "losses.loss_gradients": "bound only by perfbench BINDINGS; it moves to tests/oracles.py once they drop it",
}


def _names(node) -> set[str]:
    return {n.id for n in ast.walk(node) if isinstance(n, ast.Name)}


def _defines(stmt) -> set[str]:
    if isinstance(stmt, (ast.FunctionDef, ast.ClassDef)):
        return {stmt.name}
    targets = stmt.targets if isinstance(stmt, ast.Assign) else [stmt.target] if isinstance(stmt, ast.AnnAssign) else []
    return set().union(*map(_names, targets))


def _library_modules() -> dict[str, types.SimpleNamespace]:
    """Per module: its text, the names it names and uses, its imports by local name, its public definitions."""
    modules = {}
    for path in sorted(SRC.glob("*.py")):
        text = path.read_text(encoding="utf-8")
        body = [s for s in ast.parse(text).body if not (path.stem == "__init__" and isinstance(s, ast.ImportFrom))]
        tree = ast.Module(body=body, type_ignores=[])
        named, imports = set(), {}
        for n in ast.walk(tree):
            if isinstance(n, ast.Name):
                named.add(n.id)
            elif isinstance(n, (ast.FunctionDef, ast.ClassDef)):
                named.add(n.name)
            elif isinstance(n, ast.Attribute):
                named |= {n.attr, f".{n.attr}="} if isinstance(n.ctx, ast.Store) else {n.attr}
            elif isinstance(n, (ast.Import, ast.ImportFrom)) and getattr(n, "module", None) != "__future__":
                for alias in n.names:
                    local = alias.asname or alias.name.split(".")[0]
                    named |= {alias.name, local}
                    imports[local] = (getattr(n, "level", 0), getattr(n, "module", None), alias.name)
        public = {name: stmt for stmt in body for name in _defines(stmt) if not name.startswith("_")}
        exports = {e for s in body if _defines(s) == {"__all__"} for e in ast.literal_eval(s.value)}
        modules[path.stem] = types.SimpleNamespace(
            text=text, named=named, used=_names(tree), imports=imports, public=public, exports=exports, body=body
        )
    return modules


def _unused_public(modules) -> set[str]:
    unused = set()
    for stem, m in modules.items():
        imported = {
            name
            for other in modules.values()
            for local, (level, source, name) in other.imports.items()
            if (level, source) in ((1, stem), (0, f"hscl.{stem}")) and local in other.used
        }
        used = imported.union(*(_names(stmt) for stmt in m.body if stmt not in m.public.values()))
        while True:  # what a used definition references is used
            grown = used.union(*(_names(m.public[name]) - {name} for name in used & m.public.keys()))
            if grown == used:
                break
            used = grown
        public = m.public.keys()
        unused |= {f"{stem}.{name}" for name in (public - used) | (public & m.exports - imported)}
    return unused


@pytest.mark.parametrize(
    "rule, watched, allowed", OWNERSHIP, ids=["layer-pair", "graph", "data-store", "checkpoint"]
)
def test_each_decision_is_named_only_by_the_modules_the_ownership_table_allows(rule, watched, allowed):
    """A row cannot go stale: its modules exist and name each of its names."""
    modules = _library_modules()
    naming = {stem: {w for w in watched if w in m.named or " " in w and w in m.text} for stem, m in modules.items()}
    offenders = [f"{rule}: {stem} names {sorted(hits)}" for stem, hits in naming.items() if hits and stem not in allowed]
    offenders += [f"{rule}: no module {stem}" for stem in sorted(allowed - modules.keys())]
    unowned = watched - set().union(*(naming.get(stem, set()) for stem in allowed))
    if unowned:
        offenders.append(f"{rule}: no allowed module names {sorted(unowned)}")
    assert offenders == []


def test_an_import_a_module_never_uses_is_one_the_tracer_binds_there():
    bound = {}
    for stem, attr, _ in _load_tracing().BINDINGS:
        bound.setdefault(stem, set()).add(attr)
    offenders = [
        f"{stem} imports {sorted(stray)} but never uses them, and tracing.BINDINGS does not bind them there"
        for stem, m in _library_modules().items()
        if (stray := m.imports.keys() - m.used - bound.get(stem, set()))
    ]
    assert offenders == []


def test_every_public_name_has_a_library_user_or_a_declared_reason():
    """``UNUSED_PUBLIC`` cannot go stale: each declared name is still defined and still unused."""
    unused = _unused_public(_library_modules())
    offenders = [f"{name}: no library user" for name in sorted(unused - UNUSED_PUBLIC.keys())]
    offenders += [f"{name}: declared unused, but used or gone" for name in sorted(UNUSED_PUBLIC.keys() - unused)]
    assert offenders == []


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
    assert set(subs) == set(CONFIGS) == set(cli.COMMANDS)


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


@pytest.mark.parametrize(
    "config_cls", sorted({c for cs in CONFIGS.values() for c in cs}, key=lambda c: c.__name__), ids=lambda c: c.__name__
)
def test_every_config_the_cli_builds_checks_its_values(config_cls):
    # its own checks, so that no config holds a value no run can use until a run starts
    assert "__post_init__" in vars(config_cls)


@pytest.mark.parametrize("command", sorted(CONFIGS))
def test_no_flag_options_build_the_default_configs(command):
    parser, subs = _subparsers()
    opts = cli._merge(_no_flag_args(parser, command, subs[command]))
    for config_cls in CONFIGS[command]:
        assert cli._build(config_cls, opts) == config_cls()


def _required_args(command, dataset, pretrained, finetuned, out) -> list[str]:
    """The required flags of ``command``, set to a real dataset, a checkpoint of the stage it reads and ``out``."""
    checkpoint = finetuned / "finetune_best.ckpt" if command == "eval" else pretrained / "pretrain_best.ckpt"
    paths = {"data": dataset, "checkpoint": checkpoint, "out": out}
    _, subs = _subparsers()
    return [arg for a in subs[command]._actions if a.required for arg in (a.option_strings[0], str(paths[a.dest]))]


def _float_options() -> list[tuple[str, str, str]]:
    """(command, dest, flag) of every option that takes a float or a list of floats."""
    _, subs = _subparsers()
    return [
        (command, action.dest, action.option_strings[0])
        for command, sub in sorted(subs.items())
        for action in sub._actions
        if action.type is float or cli._LIST_ITEMS.get(action.dest) is float
    ]


FLOAT_OPTIONS = _float_options()


@pytest.mark.parametrize("value", ["nan", "inf"])
@pytest.mark.parametrize("command, dest, flag", FLOAT_OPTIONS, ids=[f"{c}{f}" for c, _, f in FLOAT_OPTIONS])
def test_every_float_option_rejects_nan_and_inf_before_any_work(
    command, dest, flag, value, tiny_dataset, tiny_pretrained, tiny_finetuned, tmp_path, capsys
):
    """Found from the parser, so a new float option gets the rule without a new case."""
    assert {"lr", "eta_min", "alpha", "eps", "tau", "noise", "fractions"} <= {d for _, d, _ in FLOAT_OPTIONS}
    out = tmp_path / "out"
    argv = [command, flag, value, *_required_args(command, tiny_dataset, tiny_pretrained, tiny_finetuned, out)]
    assert cli.main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1 and dest in err
    assert not out.exists()


FLOAT_FIELDS = [
    (cls, f.name)
    for cls in (TrainConfig, LossConfig, DataConfig, SyntheticSpec)
    for f in dataclasses.fields(cls)
    if f.type in (float, "float")
]


@pytest.mark.parametrize("value", [math.nan, math.inf])
@pytest.mark.parametrize("cls, name", FLOAT_FIELDS, ids=[f"{c.__name__}.{n}" for c, n in FLOAT_FIELDS])
def test_every_float_config_field_rejects_nan_and_inf(cls, name, value):
    """The library side of the rule above, found from the dataclasses, so a new float field gets it too."""
    assert {"lr", "adam_eps", "alpha", "tau", "noise", "hs_center"} <= {n for _, n in FLOAT_FIELDS}
    with pytest.raises(ConfigError, match=name):
        cls(**{name: value})


def _choice_options() -> list[tuple[str, str]]:
    """(command, dest) of every option whose flag takes one of a fixed set of values."""
    _, subs = _subparsers()
    return [
        (command, action.dest)
        for command, sub in sorted(subs.items())
        for action in sub._actions
        if action.choices is not None
    ]


CHOICE_OPTIONS = _choice_options()


@pytest.mark.parametrize("command, dest", CHOICE_OPTIONS, ids=[f"{c}-{d}" for c, d in CHOICE_OPTIONS])
def test_every_choice_option_rejects_a_config_value_outside_its_choices(
    command, dest, tiny_dataset, tiny_pretrained, tiny_finetuned, tmp_path, capsys
):
    """A config-file value meets the choices its flag has: exit 2 before any work."""
    assert {"split", "label_mode", "loss", "sim", "activation", "spread_split"} <= {d for _, d in CHOICE_OPTIONS}
    config = tmp_path / "cfg.json"
    config.write_text(json.dumps({dest: "bogus"}))
    out = tmp_path / "out"
    argv = [command, "--config", str(config), *_required_args(command, tiny_dataset, tiny_pretrained, tiny_finetuned, out)]
    assert cli.main(argv) == 2
    captured = capsys.readouterr()
    assert captured.err.startswith(f"error: {dest}: expected one of ") and captured.err.count("\n") == 1
    assert captured.out == ""
    assert not out.exists()


def test_eval_and_analyze_defaults_are_the_called_functions_defaults():
    parser, subs = _subparsers()
    for command, function in (("eval", evaluate_checkpoint), ("analyze", spread_for_checkpoint)):
        opts = cli._merge(_no_flag_args(parser, command, subs[command]))
        params = inspect.signature(function).parameters
        with_default = {name for name, p in params.items() if p.default is not p.empty}
        assert set(opts) & with_default
        for key in set(opts) & with_default:
            assert opts[key] == params[key].default, (command, key)


def _meta_keys(meta: dict, prefix: str = "") -> set:
    """The dotted leaf keys of a checkpoint's metadata; ``train`` and ``pretrain_train`` are leaves."""
    keys = set()
    for key, value in meta.items():
        name = prefix + key
        if isinstance(value, dict) and name not in ("train", "pretrain_train"):
            keys |= _meta_keys(value, name + ".")
        else:
            keys.add(name)
    return keys


def test_checkpoint_meta_declares_exactly_the_keys_every_writer_emits(
    tiny_dataset, tiny_pretrained, tiny_finetuned, tmp_path
):
    out = tmp_path / "cmp"
    argv = ["compare", "--data", str(tiny_dataset), "--out", str(out), "--seeds", "0", "--modes", "mse,mse+cl"]
    assert cli.main(argv + ["--epochs", "1", "--finetune-epochs", "1", "--hidden", "8,4"]) == 0
    paths = [*tiny_pretrained.glob("*.ckpt"), *tiny_finetuned.glob("*.ckpt"), *out.rglob("*.ckpt")]
    stages = []
    for path in paths:
        ck = load_checkpoint(path)
        stage = check_meta(ck.meta)
        stages.append(stage)
        declared = set(CHECKPOINT_META) - (set() if stage == "finetune" else set(FINETUNE_META))
        assert _meta_keys(ck.meta) == declared, path
    assert sorted(set(stages)) == ["finetune", "pretrain"] and len(paths) == 8


def _load_cli_gate():
    spec = importlib.util.spec_from_file_location("cli_gate", CLI_GATE)
    gate = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(gate)
    return gate


def test_the_cli_gate_gives_the_same_manifest_twice(tmp_path):
    gate = _load_cli_gate()
    first = gate.run_gate(ROOT / "src", tmp_path / "a")
    assert first == gate.run_gate(ROOT / "src", tmp_path / "b")
    commands = [line.split()[0] for line in first if " exit=" in line]
    assert len(set(commands)) == 39 and len(first) > 2 * len(commands)


def test_the_cli_gate_records_an_unmapped_exception_as_a_traceback(tmp_path, monkeypatch):
    gate = _load_cli_gate()
    hscl = gate._hscl(ROOT / "src")

    def main(argv):
        raise KeyError(argv[0])

    monkeypatch.setattr(hscl.cli, "main", main)
    results = [line for line in gate.run_gate(ROOT / "src", tmp_path) if " exit=" in line]
    assert len(results) == 39
    assert results[0] == (
        f"gen-data exit=traceback stdout={gate._sha(b'')} stderr={gate._sha(b'KeyError: ' + repr('gen-data').encode())}"
    )

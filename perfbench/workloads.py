"""The three hscl benchmark workloads: set-up, one repetition, and output checks.

Every workload runs in this process and thread as a closed loop with one
caller: a repetition starts when the previous one has returned. Inputs come
from the seed alone; the library receives only the generated cohort or the
CSV written from it.

- contrastive: the paper recipe on the default cohort (100 patients x 4 scans
  x 12 features, batch 8, cosine similarity); pre-trains in mse+cl and in
  mse+wcl, each followed by a frozen-encoder fine-tune. The contrastive loss
  and the autodiff backward pass dominate its steps.
- regression: mse-only pre-training and an unfrozen fine-tune on a larger
  cohort (400 x 6 x 32). Mining and the contrastive term are bypassed, so a
  change to them should not move it; Adam, the encoder and the MLP backward
  carry its cost.
- study: the user-facing path through ``hscl.cli.main`` on a CSV written by
  ``gen-data``: pretrain, finetune, compare over seeds x {mse, mse+cl} with
  checkpoints and report, then eval and analyze reading a saved checkpoint.

contrastive and regression end with the same read path as study (``hscl
eval`` and ``hscl analyze`` on checkpoints the repetition saved), so every
layer is exercised by every workload.
"""

from __future__ import annotations

import contextlib
import gc
import importlib
import io
import json
import math
import resource
import shutil
import statistics
import sys
import time
import types
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

import tracing

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
REFERENCE = Path(__file__).resolve().parent / "reference.json"
HSCL_MODULES = ("cli", "data", "losses", "metrics", "model", "pipeline", "tensor", "training")

SETUP_REPEATS = 9
MIN_REPS = 3
# best val-MSE and final trace loss may move by reduction-order round-off only
REFERENCE_RTOL = 1e-9
REFERENCE_EPOCHS = 2
REFERENCE_SEED = 0


@dataclass(frozen=True)
class Spec:
    """A workload's fixed shape; the seed supplies the inputs."""

    name: str
    patients: int
    scans: int
    features: int
    modes: tuple[str, ...]
    pretrain_epochs: int
    finetune_epochs: int
    freeze_encoder: bool
    compare_seeds: int = 0
    batch_size: int = 8


SPECS = {
    "contrastive": Spec("contrastive", 100, 4, 12, ("mse+cl", "mse+wcl"), 1, 20, True),
    "regression": Spec("regression", 400, 6, 32, ("mse",), 2, 1, False),
    "study": Spec("study", 100, 4, 12, ("mse", "mse+cl"), 1, 20, True, compare_seeds=2),
}


@dataclass(frozen=True)
class Plan:
    """Everything the library is handed in one run: the spec plus the seeded inputs."""

    spec: Spec
    data_seed: int
    train_seeds: tuple[int, ...]


def plan(spec: Spec, seed: int) -> Plan:
    """The seed picks the cohort, the split and training seeds, and nothing else."""
    n_seeds = 1 + spec.compare_seeds
    return Plan(spec, seed, tuple(seed + k for k in range(n_seeds)))


def import_hscl() -> types.SimpleNamespace:
    """Import hscl from this checkout's src/, dropping any copy already imported."""
    if sys.path[:1] != [str(SRC)]:
        sys.path.insert(0, str(SRC))
    for name in [n for n in sys.modules if n == "hscl" or n.startswith("hscl.")]:
        del sys.modules[name]
    package = importlib.import_module("hscl")
    if Path(package.__file__).resolve().parent != SRC / "hscl":
        raise ImportError(f"imported hscl from {package.__file__}, not from {SRC}")
    return types.SimpleNamespace(
        **{name: importlib.import_module(f"hscl.{name}") for name in HSCL_MODULES}
    )


# -- operations and checks ---------------------------------------------------------


class OpFailed(Exception):
    """An operation raised; the repetition it belongs to stops."""


class Ledger:
    """Counts operations (training runs and CLI commands) and the ones that failed."""

    def __init__(self) -> None:
        self.ops: list[dict] = []

    @contextlib.contextmanager
    def op(self, name: str):
        entry = {"op": name, "error": None}
        self.ops.append(entry)
        try:
            yield entry
        except Exception as exc:  # the run's boundary: record it, stop the repetition
            entry["error"] = f"{type(exc).__name__}: {exc}"
            raise OpFailed(name) from exc

    def check(self, entry: dict, ok: bool, message: str) -> None:
        if not ok and entry["error"] is None:
            entry["error"] = f"check failed: {message}"

    @property
    def attempted(self) -> int:
        return len(self.ops)

    @property
    def failures(self) -> list[dict]:
        return [e for e in self.ops if e["error"] is not None]


class Memo:
    """First repetition's outputs; later repetitions with the same seed must match byte for byte."""

    def __init__(self) -> None:
        self.first: dict[str, bytes] = {}

    def same(self, key: str, blob: bytes) -> bool:
        return self.first.setdefault(key, blob) == blob


def _finite(*values: float) -> bool:
    return all(math.isfinite(v) for v in values)


def _cli(hs, argv: list) -> str:
    """Run one hscl command in this process; returns its stdout, raises on a non-zero exit."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = hs.cli.main([str(a) for a in argv])
    if code != 0:
        raise RuntimeError(f"hscl {argv[0]} exited {code}: {err.getvalue().strip()}")
    return out.getvalue()


def _read(path) -> bytes:
    with open(path, "rb") as fh:
        return fh.read()


def _roundtrip_ok(hs, path) -> bool:
    """Checkpoint save -> load -> save gives the same bytes."""
    return hs.training.checkpoint_bytes(hs.training.load_checkpoint(path)) == _read(path)


# -- timing ---------------------------------------------------------------------------

# Nominal time of speed_kernel(); a normalised time is wall time x this / the
# kernel's measured time next to it, i.e. seconds on a host that runs the
# kernel in REFERENCE_KERNEL_S.
REFERENCE_KERNEL_S = 0.015
KERNEL_ITERATIONS = 600


class _Node:
    __slots__ = ("value", "parents")

    def __init__(self, value, parents):
        self.value, self.parents = value, parents


def speed_kernel() -> float:
    """Wall time of a fixed mix of small numpy calls and Python object churn.

    The mix resembles an hscl step (tiny matmuls, tanh, many small graph
    objects) but calls no hscl code, so no change to hscl moves it. The
    garbage collector is paused so that the size of the heap hscl left
    behind does not leak into it.
    """
    rng = np.random.default_rng(0)
    w1, w2, x = rng.normal(size=(12, 64)), rng.normal(size=(64, 16)), rng.normal(size=(8, 12))
    enabled = gc.isenabled()
    gc.disable()
    try:
        t0 = time.perf_counter()
        acc = 0.0
        for _ in range(KERNEL_ITERATIONS):
            h = np.tanh(x @ w1)
            o = np.tanh(h @ w2)
            nodes = [_Node(float(k), (h, o)) for k in range(20)]
            acc += float(((1.0 - o * o) @ w2.T).sum()) + len(nodes)
        return time.perf_counter() - t0
    finally:
        if enabled:
            gc.enable()


class Clock:
    """Times calls one by one, running the speed kernel after each.

    The host's speed drifts by up to 2x within seconds (other tenants share
    its cores). Each call's wall time is therefore also reported normalised:
    scaled by REFERENCE_KERNEL_S over the median of the four kernel runs
    around it (two before, two after), which follows the drift and shrugs
    off a single disturbed kernel run. Work between timed calls (the
    benchmark's own checks) is not timed.
    """

    def __init__(self) -> None:
        self.kernels = [speed_kernel()]
        self.calls: list[tuple[object, str, float]] = []  # call i runs between kernels i and i+1
        self.rep: object = None

    def call(self, key: str, fn, *args, **kwargs):
        t0 = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            raw = time.perf_counter() - t0
            self.kernels.append(speed_kernel())
            self.calls.append((self.rep, key, raw))

    def times(self, normalised: bool) -> dict[object, dict[str, list[float]]]:
        """rep label -> call key -> the calls' times, in call order."""
        out: dict[object, dict[str, list[float]]] = {}
        for i, (rep, key, raw) in enumerate(self.calls):
            if normalised:
                raw *= REFERENCE_KERNEL_S / statistics.median(self.kernels[max(0, i - 1) : i + 3])
            out.setdefault(rep, {}).setdefault(key, []).append(raw)
        return out


# -- set-up -------------------------------------------------------------------------


@dataclass
class State:
    hs: types.SimpleNamespace
    plan: Plan
    csv: Path
    prepared: object
    train_scans_per_epoch: int
    train_pairs: int


def build(hs, p: Plan, workdir: Path) -> State:
    """Build or load the cohort, write its CSV, and prepare the split."""
    spec = p.spec
    csv = workdir / "cohort.csv"
    if spec.name == "study":
        _cli(hs, ["gen-data", "--patients", spec.patients, "--scans-per-patient", spec.scans,
                  "--features", spec.features, "--seed", p.data_seed, "--out", csv])
        collection = hs.data.load_dataset(csv)
    else:
        collection = hs.data.generate_synthetic(
            hs.data.SyntheticSpec(
                n_patients=spec.patients, scans_per_patient=spec.scans,
                n_features=spec.features, seed=p.data_seed,
            )
        )
        hs.data.save_dataset(collection, csv)
    prepared = hs.pipeline.prepare(collection, p.train_seeds[0], hs.pipeline.DataConfig())
    n_train = len(prepared.regression["train"][1])
    return State(
        hs, p, csv, prepared,
        train_scans_per_epoch=(n_train // spec.batch_size) * spec.batch_size,
        train_pairs=len(prepared.pairs["train"][2]),
    )


def timed_setup(p: Plan, workdir: Path, clock: Clock) -> State:
    """Import hscl and build the inputs SETUP_REPEATS times; returns the last state."""
    clock.rep = "setup"
    for _ in range(SETUP_REPEATS):
        gc.collect()
        state = clock.call("setup", lambda: build(import_hscl(), p, workdir))
    return state


# -- one repetition ---------------------------------------------------------------


def _configs(hs, spec: Spec, seed: int, mode: str, epochs: int | None = None):
    pre = hs.training.TrainConfig(
        batch_size=spec.batch_size, epochs=epochs or spec.pretrain_epochs, seed=seed,
        loss=hs.losses.LossConfig(mode=mode),
    )
    fine = hs.training.TrainConfig(
        batch_size=spec.batch_size, epochs=spec.finetune_epochs, seed=seed,
        freeze_encoder=spec.freeze_encoder,
    )
    return pre, fine


def _library_rep(state: State, ledger: Ledger, memo: Memo, clock: Clock, rep_dir: Path) -> None:
    hs, spec, seed = state.hs, state.plan.spec, state.plan.train_seeds[0]
    model = hs.pipeline.ModelSpec()
    for mode in spec.modes:
        pre_cfg, fine_cfg = _configs(hs, spec, seed, mode)
        with ledger.op(f"pretrain {mode}") as entry:
            pre = clock.call("pretrain", hs.pipeline.run_pretrain, state.prepared, model, pre_cfg)
            best_val = pre.trace[pre.best_epoch]["val_mse"]
            ledger.check(entry, _finite(best_val, pre.trace[-1]["loss"]), "non-finite val-MSE or loss")
            for name, ck in (("best", pre.best), ("final", pre.final)):
                blob = hs.training.checkpoint_bytes(ck)
                ledger.check(entry, memo.same(f"pretrain {mode} {name}", blob),
                             f"pretrain {mode} {name} checkpoint differs from the first repetition")
        with ledger.op(f"finetune {mode}") as entry:
            fine = clock.call("finetune", hs.pipeline.run_finetune, state.prepared, pre.best, fine_cfg, model)
            ledger.check(entry, _finite(*(h["train_ce"] for h in fine.history)), "non-finite cross-entropy")
            ledger.check(entry, memo.same(f"finetune {mode}", hs.training.checkpoint_bytes(fine.best)),
                         f"finetune {mode} checkpoint differs from the first repetition")
    # the read path: eval and analyze on the checkpoints of the last mode
    pre_path, fine_path = rep_dir / "pretrain_best.ckpt", rep_dir / "finetune_best.ckpt"

    def save():
        hs.training.save_checkpoint(pre.best, pre_path)
        hs.training.save_checkpoint(fine.best, fine_path)

    clock.call("save", save)
    _read_path(state, ledger, memo, clock, rep_dir, pre_path, fine_path)


def _read_path(state: State, ledger: Ledger, memo: Memo, clock: Clock, rep_dir: Path, pre_path, fine_path) -> None:
    """``hscl eval`` and ``hscl analyze`` on saved checkpoints."""
    hs = state.hs
    with ledger.op("cli eval") as entry:
        out = clock.call("eval", _cli, hs, ["eval", "--data", state.csv, "--checkpoint", fine_path,
                                            "--out", rep_dir / "eval"])
        ledger.check(entry, _roundtrip_ok(hs, fine_path), "finetune checkpoint save/load/save differs")
        ledger.check(entry, memo.same("eval", out.encode()), "eval output differs from the first repetition")
    with ledger.op("cli analyze") as entry:
        profile = rep_dir / "profile.tsv"
        clock.call("eval", _cli, hs, ["analyze", "--data", state.csv, "--checkpoint", pre_path,
                                      "--out", profile])
        ledger.check(entry, _roundtrip_ok(hs, pre_path), "pretrain checkpoint save/load/save differs")
        ledger.check(entry, memo.same("analyze", _read(profile)), "spread profile differs from the first repetition")


def _study_rep(state: State, ledger: Ledger, memo: Memo, clock: Clock, rep_dir: Path) -> None:
    hs, spec = state.hs, state.plan.spec
    seed, *compare_seeds = state.plan.train_seeds
    csv = state.csv
    pre_dir, fine_dir, cmp_dir = rep_dir / "pretrain", rep_dir / "finetune", rep_dir / "compare"
    with ledger.op("cli pretrain") as entry:
        out = clock.call("pretrain", _cli, hs, ["pretrain", "--data", csv, "--out", pre_dir,
                                                "--loss", spec.modes[-1], "--epochs", spec.pretrain_epochs,
                                                "--seed", seed])
        printed = dict(line.split(": ", 1) for line in out.splitlines())
        ledger.check(entry, _finite(float(printed["best_val_mse"]), float(printed["final_train_loss"])),
                     "non-finite val-MSE or loss")
        ledger.check(entry, memo.same("pretrain", _read(pre_dir / "pretrain_best.ckpt")),
                     "pretrain checkpoint differs from the first repetition")
    with ledger.op("cli finetune") as entry:
        clock.call("finetune", _cli, hs, ["finetune", "--data", csv, "--checkpoint", pre_dir / "pretrain_best.ckpt",
                                          "--out", fine_dir, "--epochs", spec.finetune_epochs, "--seed", seed])
        ledger.check(entry, memo.same("finetune", _read(fine_dir / "finetune_best.ckpt")),
                     "finetune checkpoint differs from the first repetition")
    with ledger.op("cli compare") as entry:
        clock.call("compare", _cli, hs, ["compare", "--data", csv, "--out", cmp_dir,
                                         "--seeds", ",".join(str(s) for s in compare_seeds),
                                         "--modes", ",".join(spec.modes), "--epochs", spec.pretrain_epochs,
                                         "--finetune-epochs", spec.finetune_epochs])
        report_bytes = _read(cmp_dir / "report.json")
        failed = [s for s, row in json.loads(report_bytes)["per_seed"].items() if "error" in row]
        ledger.check(entry, not failed, f"compare seeds failed: {failed}")
        ledger.check(entry, memo.same("report.json", report_bytes), "report.json differs from the first repetition")
    run_dir = cmp_dir / f"seed{compare_seeds[0]}" / spec.modes[-1]
    _read_path(state, ledger, memo, clock, rep_dir, run_dir / "pretrain_best.ckpt", run_dir / "finetune_best.ckpt")


def _figures(state: State, times: dict[str, list[float]]) -> dict[str, float]:
    spec = state.plan.spec
    pre, fine = times["pretrain"], times["finetune"]
    return {
        "pretrain_scans_per_s": state.train_scans_per_epoch * spec.pretrain_epochs * len(pre) / sum(pre),
        "pretrain_run_s": statistics.fmean(pre),
        "finetune_pairs_per_s": state.train_pairs * spec.finetune_epochs * len(fine) / sum(fine),
        "finetune_run_s": statistics.fmean(fine),
        "study_s": sum(sum(v) for v in times.values()),
        "eval_s": sum(times["eval"]),
    }


def run_rep(state: State, ledger: Ledger, memo: Memo, clock: Clock, rep_dir: Path, label) -> float:
    """One repetition of the workload's sequence, its calls timed under ``label``; returns its wall time."""
    shutil.rmtree(rep_dir, ignore_errors=True)
    rep_dir.mkdir(parents=True)
    gc.collect()
    clock.rep = label
    t0 = time.perf_counter()
    rep = _study_rep if state.plan.spec.name == "study" else _library_rep
    rep(state, ledger, memo, clock, rep_dir)
    return time.perf_counter() - t0


# -- reference values -------------------------------------------------------------


def reference_values(hs, spec: Spec) -> dict[str, dict[str, float]]:
    """Best val-MSE and final trace loss of a short fixed-seed pre-train per loss mode.

    The cohort and the seeds are fixed (not taken from ``--seed``), so the
    stored values detect any change to the arithmetic whatever seed a run uses.
    """
    p = plan(spec, REFERENCE_SEED)
    collection = hs.data.generate_synthetic(
        hs.data.SyntheticSpec(n_patients=spec.patients, scans_per_patient=spec.scans,
                              n_features=spec.features, seed=p.data_seed)
    )
    prepared = hs.pipeline.prepare(collection, p.train_seeds[0], hs.pipeline.DataConfig())
    out = {}
    for mode in spec.modes:
        pre_cfg, _ = _configs(hs, spec, p.train_seeds[0], mode, epochs=REFERENCE_EPOCHS)
        result = hs.pipeline.run_pretrain(prepared, hs.pipeline.ModelSpec(), pre_cfg)
        out[mode] = {
            "best_val_mse": result.trace[result.best_epoch]["val_mse"],
            "final_loss": result.trace[-1]["loss"],
        }
    return out


def check_reference(hs, spec: Spec, ledger: Ledger) -> None:
    with open(REFERENCE, "r", encoding="utf-8") as fh:
        stored = json.load(fh)[spec.name]
    for mode in spec.modes:
        with ledger.op(f"reference pretrain {mode}") as entry:
            got = reference_values(hs, replace(spec, modes=(mode,)))[mode]
            for key, want in stored[mode].items():
                ledger.check(
                    entry,
                    math.isclose(got[key], want, rel_tol=REFERENCE_RTOL, abs_tol=1e-12),
                    f"{mode} {key} {got[key]!r} != reference {want!r}",
                )


# -- the measured loop ----------------------------------------------------------


@dataclass
class Outcome:
    ledger: Ledger
    setup: dict[str, list[float]]  # "norm" and "raw": each set-up's time
    reps: list[tuple[dict, dict]]  # untraced repetitions: (normalised, wall-clock) figures
    traced_reps: list[tuple[dict, dict]]
    spans: list
    layer: dict[str, float] | None
    breakdown: list[dict] | None
    peak_rss_mb: float
    clock: Clock


def _peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def run_workload(spec: Spec, seed: int, seconds: float, trace: bool, workdir: Path) -> Outcome:
    """Set up, check the reference values, then repeat the sequence for ``seconds``.

    Untraced, every repetition is timed. Traced, untraced and traced
    repetitions alternate (the pair gives the tracing overhead) and the
    wrappers are in place only during a traced repetition and its set-up.
    """
    p = plan(spec, seed)
    ledger, memo, clock = Ledger(), Memo(), Clock()
    tracer = tracing.Tracer()
    labels: list[tuple[str, int]] = []
    workdir.mkdir(parents=True, exist_ok=True)
    if trace:
        hs = import_hscl()
        with tracer.installed(hs, rep=None):
            state = build(hs, p, workdir)
    else:
        state = timed_setup(p, workdir, clock)
    try:
        check_reference(state.hs, spec, ledger)
        deadline = time.perf_counter() + seconds
        walls = []
        count = {"untraced": 0, "traced": 0}
        while True:
            kind = "traced" if trace and count["traced"] < count["untraced"] else "untraced"
            label = (kind, count[kind])
            count[kind] += 1
            labels.append(label)
            wrappers = tracer.installed(state.hs, rep=label[1]) if kind == "traced" else contextlib.nullcontext()
            with wrappers:
                walls.append(run_rep(state, ledger, memo, clock, workdir / "rep", label))
            if ledger.failures:
                break
            done = count["traced" if trace else "untraced"]
            if done >= MIN_REPS and time.perf_counter() + statistics.median(walls) > deadline:
                break
    except OpFailed:
        pass
    norm, raw = clock.times(normalised=True), clock.times(normalised=False)
    complete = [lb for lb in labels if lb in norm and not ledger.failures]
    figures = {lb: (_figures(state, norm[lb]), _figures(state, raw[lb])) for lb in complete}
    reps = [figures[lb] for lb in complete if lb[0] == "untraced"]
    traced = [figures[lb] for lb in complete if lb[0] == "traced"]
    setup = {"norm": norm.get("setup", {}).get("setup", []), "raw": raw.get("setup", {}).get("setup", [])}
    layer = breakdown = None
    if trace and traced and reps:
        # per-layer times share the end-to-end figures' normalisation
        scale = REFERENCE_KERNEL_S / statistics.median(clock.kernels)
        layer = tracing.layer_metrics(tracer.spans, len(traced), len(p.train_seeds), scale)
        layer["trace_overhead_frac"] = (
            statistics.median(f["study_s"] for f, _ in traced)
            / statistics.median(f["study_s"] for f, _ in reps)
            - 1.0
        )
        breakdown = tracing.step_breakdown(tracer.spans, scale)
    return Outcome(ledger, setup, reps, traced, tracer.spans, layer, breakdown, _peak_rss_mb(), clock)

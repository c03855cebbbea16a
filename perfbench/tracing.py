"""Span tracing from outside the library, and the per-layer metrics derived from it.

A traced repetition replaces each public hscl function at the name its caller
binds (``hscl.training.encode``, ``hscl.losses.backward``, ...) with a wrapper
that records a span: id, name, start, end, parent id, repetition id and a few
exact counts. Spans stay in memory until the run ends. Every wrapped name is
restored when the traced block exits, so untraced timing never runs through a
wrapper.

A span's self time is its duration minus the part of it that its child spans
cover. Bookkeeping the tracer does itself (counting graph nodes, mined pairs,
clamped pairs, file sizes) runs in ``perfbench.probe`` spans, which are
excluded from every layer's self time and from step times.
"""

from __future__ import annotations

import contextlib
import functools
import inspect
import os
import statistics
import time

import numpy as np

PROBE = "perfbench.probe"
PRETRAIN = "training.pretrain"
FINETUNE = "training.finetune"
ADAM = "training.adam_step"

# (module binding the name, attribute, span name). Several callers bind the
# same function; each binding gets its own wrapper under one span name.
BINDINGS = (
    ("losses", "backward", "tensor.backward"),
    ("training", "combined_loss_terms", "losses.combined_loss_terms"),
    ("training", "mine_batch", "losses.mine_batch"),
    ("training", "cross_entropy", "losses.cross_entropy"),
    ("training", "loss_gradients", "losses.loss_gradients"),
    ("training", "encode", "model.encode"),
    ("pipeline", "encode", "model.encode"),
    ("metrics", "encode", "model.encode"),
    ("training", "predict_hs", "model.predict_hs"),
    ("training", "classify_pairs", "model.classify_pairs"),
    ("pipeline", "classify_pairs", "model.classify_pairs"),
    ("pipeline", "pretrain", PRETRAIN),
    ("pipeline", "finetune", FINETUNE),
    ("training", "adam_step", ADAM),
    ("training", "save_checkpoint", "training.save_checkpoint"),
    ("pipeline", "save_checkpoint", "training.save_checkpoint"),
    ("cli", "save_checkpoint", "training.save_checkpoint"),
    ("training", "load_checkpoint", "training.load_checkpoint"),
    ("cli", "load_checkpoint", "training.load_checkpoint"),
    ("data", "generate_synthetic", "data.generate_synthetic"),
    ("cli", "generate_synthetic", "data.generate_synthetic"),
    ("data", "save_dataset", "data.save_dataset"),
    ("cli", "save_dataset", "data.save_dataset"),
    ("data", "load_dataset", "data.load_dataset"),
    ("cli", "load_dataset", "data.load_dataset"),
    ("training", "compute_metrics", "metrics.compute_metrics"),
    ("pipeline", "compute_metrics", "metrics.compute_metrics"),
    ("pipeline", "embedding_spread", "metrics.embedding_spread"),
    ("pipeline", "prepare", "pipeline.prepare"),
    ("cli", "prepare", "pipeline.prepare"),
    ("cli", "prepared_from_meta", "pipeline.prepared_from_meta"),
    ("pipeline", "run_pretrain", "pipeline.run_pretrain"),
    ("cli", "run_pretrain", "pipeline.run_pretrain"),
    ("pipeline", "run_finetune", "pipeline.run_finetune"),
    ("cli", "run_finetune", "pipeline.run_finetune"),
    ("pipeline", "evaluate_checkpoint", "pipeline.evaluate_checkpoint"),
    ("cli", "evaluate_checkpoint", "pipeline.evaluate_checkpoint"),
    ("pipeline", "spread_for_checkpoint", "pipeline.spread_for_checkpoint"),
    ("cli", "spread_for_checkpoint", "pipeline.spread_for_checkpoint"),
    ("pipeline", "run_comparison", "pipeline.run_comparison"),
    ("cli", "run_comparison", "pipeline.run_comparison"),
    ("cli", "main", "cli.main"),
)


class Span:
    __slots__ = ("sid", "name", "t0", "t1", "parent", "rep", "attrs")

    def __init__(self, sid, name, t0, t1, parent, rep, attrs=None):
        self.sid, self.name, self.t0, self.t1 = sid, name, t0, t1
        self.parent, self.rep, self.attrs = parent, rep, attrs or {}

    @property
    def dur(self) -> float:
        return self.t1 - self.t0

    def to_json(self) -> list:
        return [self.sid, self.name, self.t0, self.t1, self.parent, self.rep, self.attrs]


# -- probes: exact counts taken beside a call, never inside its timing ----------


def _graph_nodes(args, result) -> dict:
    """Nodes reachable from the loss handed to ``backward``, leaves included."""
    seen: set[int] = set()
    stack = [args["root"]]
    while stack:
        node = stack.pop()
        if id(node) not in seen:
            seen.add(id(node))
            stack.extend(node._parents)
    return {"nodes": len(seen)}


def _mined_pairs(mining) -> tuple[np.ndarray, np.ndarray]:
    anchors, others = [], []
    for i, (pos, neg) in enumerate(zip(mining.positives, mining.negatives)):
        for j in [*pos, *neg]:
            anchors.append(i)
            others.append(int(j))
    return np.array(anchors, dtype=np.int64), np.array(others, dtype=np.int64)


def _mining(args, result) -> dict:
    return {"pairs": int(len(_mined_pairs(result)[0]))}


def _clamped(args, result) -> dict:
    """Mined pairs whose similarity sits at the sim_floor or 1.0 clamp (zero gradient)."""
    mining, config = args["mining"], args["config"]
    if mining is None or not config.contrastive or config.alpha == 0.0:
        return {}
    e = np.asarray(args["embeddings"].data, dtype=np.float64)
    i, j = _mined_pairs(mining)
    if config.similarity == "cos":
        norms = np.linalg.norm(e, axis=1)
        sim = ((e[i] * e[j]).sum(axis=1) / (norms[i] * norms[j]) + 1.0) * 0.5
    else:
        sim = 1.0 / (np.linalg.norm(e[i] - e[j], axis=1) + 1.0)
    at_clamp = (sim <= config.sim_floor) | (sim >= 1.0)
    return {"mined": int(len(i)), "clamped": int(at_clamp.sum())}


def _training_run(args, result) -> dict:
    config = args["config"]
    return {
        "mode": config.loss.mode,
        "epochs": int(config.epochs),
        "frozen": bool(config.freeze_encoder),
    }


def _file_bytes(key):
    def probe(args, result) -> dict:
        return {"bytes": os.path.getsize(args[key])}

    return probe


PROBES = {
    "tensor.backward": _graph_nodes,
    "losses.mine_batch": _mining,
    "losses.combined_loss_terms": _clamped,
    PRETRAIN: _training_run,
    FINETUNE: _training_run,
    "training.save_checkpoint": _file_bytes("path"),
    "data.save_dataset": _file_bytes("path"),
    "data.load_dataset": _file_bytes("path"),
}


class Tracer:
    """In-memory span recorder; ``installed`` wraps the bindings for one block."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self.rep = None
        self._stack: list[int] = []
        self._next = 0

    def _wrap(self, fn, name: str):
        probe = PROBES.get(name)
        signature = inspect.signature(fn) if probe else None

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            parent = self._stack[-1] if self._stack else None
            sid = self._next
            self._next += 1
            self._stack.append(sid)
            t0 = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = time.perf_counter()
                self._stack.pop()
            span = Span(sid, name, t0, t1, parent, self.rep)
            self.spans.append(span)
            if probe is not None:
                p0 = time.perf_counter()
                bound = signature.bind(*args, **kwargs)
                bound.apply_defaults()
                span.attrs = probe(bound.arguments, result)
                self.spans.append(Span(-1, PROBE, p0, time.perf_counter(), parent, self.rep))
            return result

        wrapper.__wrapped_by_perfbench__ = True
        return wrapper

    @contextlib.contextmanager
    def installed(self, hs, rep):
        """Wrap every binding in ``hs`` (a namespace of hscl modules) for one block."""
        originals = []
        self.rep = rep
        try:
            for module_name, attr, name in BINDINGS:
                module = getattr(hs, module_name)
                fn = getattr(module, attr)
                originals.append((module, attr, fn))
                setattr(module, attr, self._wrap(fn, name))
            yield self
        finally:
            for module, attr, fn in reversed(originals):
                setattr(module, attr, fn)
            self.rep = None


def wrapped_names(hs) -> list[str]:
    """Bindings in ``hs`` that still hold a tracing wrapper (empty after every block)."""
    return [
        f"{module_name}.{attr}"
        for module_name, attr, _ in BINDINGS
        if hasattr(getattr(getattr(hs, module_name), attr), "__wrapped_by_perfbench__")
    ]


# -- derivation -----------------------------------------------------------------


def _covered(intervals: list[tuple[float, float]]) -> float:
    total, end = 0.0, -float("inf")
    for a, b in sorted(intervals):
        if b <= end:
            continue
        total += b - max(a, end)
        end = b
    return total


def self_times(spans: list[Span]) -> dict[int, float]:
    """Self time per span id: duration minus the union of its children's intervals."""
    children: dict[int, list[tuple[float, float]]] = {}
    for s in spans:
        if s.parent is not None:
            children.setdefault(s.parent, []).append((s.t0, s.t1))
    return {
        s.sid: s.dur - _covered(children.get(s.sid, []))
        for s in spans
        if s.name != PROBE
    }


def _training_ancestor(spans: list[Span]) -> dict[int, Span]:
    """Span id -> the pretrain/finetune run it runs under (itself included)."""
    by_id = {s.sid: s for s in spans if s.name != PROBE}
    memo: dict[int, Span | None] = {}

    def find(sid):
        if sid is None:
            return None
        if sid not in memo:
            s = by_id.get(sid)
            memo[sid] = s if s is None or s.name in (PRETRAIN, FINETUNE) else find(s.parent)
        return memo[sid]

    return {sid: run for sid in by_id if (run := find(sid)) is not None}


def _step_start(window: list[Span], run: Span) -> Span:
    """First call of a step: the training encode call, or the classifier call when frozen.

    ``window`` holds the run's direct children from the previous adam_step's
    return to this one, so it can also hold the previous epoch's validation
    calls; the step itself is the tail that feeds this step's loss.
    """
    names = [s.name for s in window]
    if run.name == PRETRAIN:
        encodes = [k for k, n in enumerate(names) if n == "model.encode"]
        return window[encodes[-1]] if encodes else window[0]
    classify = [k for k, n in enumerate(names) if n == "model.classify_pairs"]
    if not classify:
        return window[0]
    last = classify[-1]
    if run.attrs.get("frozen", True):
        return window[last]
    encodes = [k for k in range(last) if names[k] == "model.encode"]
    return window[encodes[-2]] if len(encodes) >= 2 else window[last]


def _group(run: Span) -> tuple[str, str]:
    """(stage, variant): the loss mode of a pre-training run, the encoder state of a fine-tune."""
    if run.name == PRETRAIN:
        return "pretrain", run.attrs.get("mode")
    return "finetune", "frozen encoder" if run.attrs.get("frozen", True) else "unfrozen encoder"


def steps(spans: list[Span]) -> list[dict]:
    """One entry per optimizer step: its run's (stage, variant) and duration in ms (probes excluded)."""
    runs = {s.sid: s for s in spans if s.name in (PRETRAIN, FINETUNE)}
    kids: dict[int, list[Span]] = {sid: [] for sid in runs}
    for s in spans:
        if s.parent in kids and s.name != PROBE:
            kids[s.parent].append(s)
    ancestor = _training_ancestor(spans)
    probes: dict[int, list[tuple[float, float]]] = {sid: [] for sid in runs}
    for s in spans:
        if s.name == PROBE and s.parent is not None:
            run = ancestor.get(s.parent)
            if run is not None:
                probes[run.sid].append((s.t0, s.t1))
    out = []
    for sid, run in runs.items():
        children = sorted(kids[sid], key=lambda s: s.t0)
        prev = 0
        for k, child in enumerate(children):
            if child.name != ADAM:
                continue
            start = _step_start(children[prev : k + 1], run)
            prev = k + 1
            inside = [(a, b) for a, b in probes[sid] if a >= start.t0 and b <= child.t1]
            out.append({"group": _group(run), "ms": (child.t1 - start.t0 - _covered(inside)) * 1e3})
    return out


def _percentile(values: list[float], q: float) -> float:
    """Nearest-rank percentile."""
    ordered = sorted(values)
    rank = max(1, int(np.ceil(q / 100.0 * len(ordered))))
    return ordered[rank - 1]


def layer_metrics(spans: list[Span], n_reps: int, seeds_per_rep: int, scale: float = 1.0) -> dict[str, float]:
    """The per-layer metrics of a traced run, from its spans.

    Per-step metrics of the pre-training step (backward, graph nodes, loss
    forward, mining, pairs, regression head, Adam, step percentiles) are
    averaged over pre-training steps; cross-entropy and the classifier over
    fine-tuning steps; the encoder over both. ``*_ms`` metrics without
    ``per_step`` are per call. Byte counts and step counts are per traced
    repetition; the set-up spans (rep ``None``) only feed per-call metrics.
    Every time is multiplied by ``scale``.
    """
    own = self_times(spans)
    ancestor = _training_ancestor(spans)
    stage_of = {sid: run.name for sid, run in ancestor.items()}
    real = [s for s in spans if s.name != PROBE]
    in_reps = [s for s in real if s.rep is not None]

    def pick(name, stage=None, source=real):
        return [
            s for s in source
            if s.name == name and (stage is None or stage_of.get(s.sid) == stage)
        ]

    def self_ms(selected) -> float:
        return sum(own[s.sid] for s in selected) * 1e3 * scale

    def per_call(name) -> float:
        selected = pick(name)
        return self_ms(selected) / len(selected) if selected else 0.0

    def attr_sum(selected, key) -> int:
        return sum(s.attrs.get(key, 0) for s in selected)

    n_pre = len(pick(ADAM, PRETRAIN))
    n_fine = len(pick(ADAM, FINETUNE))
    pre = max(n_pre, 1)
    fine = max(n_fine, 1)
    pre_steps = [st["ms"] * scale for st in steps(spans) if st["group"][0] == "pretrain"] or [0.0]
    runs = pick(PRETRAIN) + pick(FINETUNE)
    epochs = max(sum(r.attrs.get("epochs", 0) for r in runs), 1)
    mined = pick("losses.combined_loss_terms", PRETRAIN)
    commands = pick("cli.main", source=in_reps)
    pipeline = [s for s in in_reps if s.name.startswith("pipeline.")]
    return {
        "tensor.backward_ms_per_step": self_ms(pick("tensor.backward", PRETRAIN)) / pre,
        "tensor.graph_nodes_per_step": attr_sum(pick("tensor.backward", PRETRAIN), "nodes") / pre,
        "losses.loss_fwd_ms_per_step": self_ms(mined) / pre,
        "losses.mine_ms_per_step": self_ms(pick("losses.mine_batch", PRETRAIN)) / pre,
        "losses.cross_entropy_ms_per_step": self_ms(pick("losses.cross_entropy", FINETUNE)) / fine,
        "losses.pairs_per_step": attr_sum(pick("losses.mine_batch", PRETRAIN), "pairs") / pre,
        "losses.clamped_pair_frac": attr_sum(mined, "clamped") / max(attr_sum(mined, "mined"), 1),
        "model.encode_ms_per_step": (
            self_ms(pick("model.encode", PRETRAIN) + pick("model.encode", FINETUNE))
            / max(n_pre + n_fine, 1)
        ),
        "model.predict_hs_ms_per_step": self_ms(pick("model.predict_hs", PRETRAIN)) / pre,
        "model.classify_pairs_ms_per_step": self_ms(pick("model.classify_pairs", FINETUNE)) / fine,
        "training.adam_ms_per_step": self_ms(pick(ADAM, PRETRAIN)) / pre,
        "training.step_ms_p50": _percentile(pre_steps, 50),
        "training.step_ms_p99": _percentile(pre_steps, 99),
        "training.steps": (n_pre + n_fine) / max(n_reps, 1),
        "training.self_ms_per_epoch": self_ms(runs) / epochs,
        "training.checkpoint_save_ms": per_call("training.save_checkpoint"),
        "training.checkpoint_load_ms": per_call("training.load_checkpoint"),
        "training.checkpoint_bytes": (
            attr_sum(pick("training.save_checkpoint", source=in_reps), "bytes") / max(n_reps, 1)
        ),
        "data.generate_ms": per_call("data.generate_synthetic"),
        "data.save_dataset_ms": per_call("data.save_dataset"),
        "data.load_dataset_ms": per_call("data.load_dataset"),
        "data.csv_bytes": (
            attr_sum(pick("data.load_dataset", source=in_reps), "bytes") / max(n_reps, 1)
        ),
        "metrics.spread_ms": per_call("metrics.embedding_spread"),
        "metrics.compute_metrics_ms": per_call("metrics.compute_metrics"),
        "pipeline.prepare_ms": per_call("pipeline.prepare"),
        "pipeline.self_ms_per_seed": self_ms(pipeline) / max(n_reps * seeds_per_rep, 1),
        "cli.self_ms_per_command": self_ms(commands) / len(commands) if commands else 0.0,
    }


def step_breakdown(spans: list[Span], scale: float = 1.0) -> list[dict]:
    """Per (stage, variant): steps, step times, and each call's ms per step and share of a step."""
    own = self_times(spans)
    ancestor = _training_ancestor(spans)
    step_ms: dict[tuple, list[float]] = {}
    for st in steps(spans):
        step_ms.setdefault(st["group"], []).append(st["ms"] * scale)
    calls: dict[tuple, dict[str, float]] = {}
    nodes: dict[tuple, int] = {}
    pairs: dict[tuple, int] = {}
    for s in spans:
        run = ancestor.get(s.sid)
        if run is None or s is run:
            continue
        key = _group(run)
        calls.setdefault(key, {})
        calls[key][s.name] = calls[key].get(s.name, 0.0) + own[s.sid] * 1e3 * scale
        nodes[key] = nodes.get(key, 0) + s.attrs.get("nodes", 0)
        pairs[key] = pairs.get(key, 0) + s.attrs.get("pairs", 0)
    out = []
    for key, times in sorted(step_ms.items()):
        n = len(times)
        mean_step = sum(times) / n
        per_step = {name: ms / n for name, ms in sorted(calls.get(key, {}).items())}
        out.append(
            {
                "stage": key[0],
                "variant": key[1],
                "steps": n,
                "step_ms_p50": statistics.median(times),
                "step_ms_mean": mean_step,
                "graph_nodes_per_step": nodes.get(key, 0) / n,
                "pairs_per_step": pairs.get(key, 0) / n,
                "ms_per_step": per_step,
                "share_of_step": {name: ms / mean_step for name, ms in per_step.items()},
            }
        )
    return out

"""Step profile: the best-of-N wall time of each stage of one training step, per loop and stack size.

For each loop (pre-training in each loss mode, fine-tuning with a frozen and
with an unfrozen encoder) and each stack size S, runs one epoch of the
library's own ``training.pretrain_runs`` or ``finetune_runs`` on a generated
cohort's split, with S runs of seeds 0..S-1, and records the arguments of
the calls the loop makes through its module's bindings. The loop itself is
run unchanged, so the ``_Runs`` state, the parameter views and the batches
are the ones it builds. Each stage then replays its recorded calls, and is
printed in microseconds, the best of its replays. A round replays a loop's
five step stages once, in the order its step runs them, as the loop repeats
them, and then its validation once in rounds of its own; each of ``SWEEPS``
sweeps over the loops and stack sizes runs --repeat rounds of each, so that
a slow spell of the host does not fall on one loop alone:

- forward: ``mlp_forward`` of every network the step runs;
- loss forward: ``combined_loss_forward`` or ``softmax_cross_entropy_forward``;
- loss backward: ``combined_loss_backward`` or ``softmax_cross_entropy_backward``;
- backward: ``mlp_backward`` of every network the step trains;
- Adam: ``adam_step``;
- step: the sum of the five stages above (the loop's glue between the
  calls, slicing, ``_Runs.add``, concatenation, is in no row);
- validation: the epoch's validation, ``_val_mse`` in pre-training, and in
  fine-tuning its ``encode``, ``classify_pairs``, ``predict_classes`` and
  ``compute_metrics`` calls.

The step is the epoch's second, a full batch. Output is one Markdown table on
stdout. Run from the root of a checkout:

    PYTHONPATH=src python tools/step_profile.py
"""

from __future__ import annotations

import argparse
import sys
import time
from dataclasses import replace
from unittest import mock

from hscl import training
from hscl.data import SyntheticSpec, generate_synthetic
from hscl.losses import LossConfig
from hscl.pipeline import DataConfig, ModelSpec, prepare

STAGES = {  # stage: the training bindings a step calls for it
    "forward": ("mlp_forward",),
    "loss forward": ("combined_loss_forward", "softmax_cross_entropy_forward"),
    "loss backward": ("combined_loss_backward", "softmax_cross_entropy_backward"),
    "backward": ("mlp_backward",),
    "Adam": ("adam_step",),
}
VALIDATION = ("_val_mse", "encode", "classify_pairs", "predict_classes", "compute_metrics")
SWEEPS = 5
LOOPS = ("pre-training, `mse`", "pre-training, `mse+cl`", "pre-training, `mse+wcl`",
         "fine-tuning, frozen", "fine-tuning, unfrozen")


class _Recorder:
    """Wraps the training module's bindings and keeps each outermost call's (name, function, args, kwargs)."""

    def __init__(self):
        self.calls: list[tuple] = []
        self._depth = 0

    def wrap(self, name: str, fn):
        def recorded(*args, **kwargs):
            self._depth += 1
            try:
                out = fn(*args, **kwargs)
            finally:
                self._depth -= 1
            if self._depth == 0:
                self.calls.append((name, fn, args, kwargs))
            return out

        return recorded

    def record(self, train, *args, **kwargs):
        """``train(*args, **kwargs)`` with every staged binding of ``training`` recorded; its result."""
        names = [n for stage in STAGES.values() for n in stage] + list(VALIDATION)
        with mock.patch.multiple(training, **{n: self.wrap(n, getattr(training, n)) for n in names}):
            return train(*args, **kwargs)


def _stage_calls(calls: list[tuple]) -> dict[str, list[tuple]]:
    """The recorded calls of the epoch's second step per stage, and of its validation."""
    adam = [i for i, call in enumerate(calls) if call[0] == "adam_step"]
    if len(adam) < 2:
        raise SystemExit("an epoch of fewer than two steps; use a larger cohort")
    step = calls[adam[0] + 1 : adam[1] + 1]
    out = {stage: [c for c in step if c[0] in names] for stage, names in STAGES.items()}
    out["validation"] = [c for c in calls[adam[-1] + 1 :] if c[0] in VALIDATION]
    return out


def elapsed_us(calls: list[tuple]) -> float:
    """The wall time of the calls made one after another, in microseconds."""
    start = time.perf_counter()
    for _, fn, args, kwargs in calls:
        fn(*args, **kwargs)
    return (time.perf_counter() - start) * 1e6


def profile(spec: SyntheticSpec, runs: list[int], repeat: int) -> dict[str, dict[int, dict[str, float]]]:
    """Loop -> S -> stage -> best µs of ``SWEEPS`` x ``repeat`` rounds, on seed 0's split of ``spec``'s cohort."""
    prepared = prepare(generate_synthetic(spec), 0, DataConfig())
    model = ModelSpec()
    config = replace(training.TrainConfig(), epochs=1)
    pre_args = (*prepared.regression["train"], *prepared.regression["val"])
    pair_args = (*prepared.pairs["train"], *prepared.pairs["val"])
    (pretrained,) = training.pretrain_runs(*pre_args, config, model.hidden, model.activation)
    staged: dict[str, dict[int, dict[str, list[tuple]]]] = {loop: {} for loop in LOOPS}
    for s in runs:
        seeds = list(range(s))
        for loop, mode in zip(LOOPS[:3], ("mse", "mse+cl", "mse+wcl")):
            recorder = _Recorder()
            recorder.record(
                training.pretrain_runs, *pre_args, replace(config, loss=LossConfig(mode)),
                model.hidden, model.activation, seeds=seeds,
            )
            staged[loop][s] = _stage_calls(recorder.calls)
        for loop, frozen in zip(LOOPS[3:], (True, False)):
            recorder = _Recorder()
            recorder.record(
                training.finetune_runs, [pretrained.final] * s, *pair_args,
                replace(config, freeze_encoder=frozen), model.cls_hidden, seeds=seeds,
            )
            staged[loop][s] = _stage_calls(recorder.calls)
    best = {loop: {s: dict.fromkeys(calls, float("inf")) for s, calls in by_runs.items()} for loop, by_runs in staged.items()}
    for _ in range(SWEEPS):
        for loop, by_runs in staged.items():
            for s, calls in by_runs.items():
                times = best[loop][s]
                for rounds in (STAGES, ("validation",)):
                    for _ in range(repeat):
                        for stage in rounds:
                            times[stage] = min(times[stage], elapsed_us(calls[stage]))
    for by_runs in best.values():
        for times in by_runs.values():
            times["step"] = sum(times[stage] for stage in STAGES)
    return best


def main(argv=None) -> int:
    defaults = SyntheticSpec()
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--patients", type=int, default=defaults.n_patients)
    parser.add_argument("--scans", type=int, default=defaults.scans_per_patient)
    parser.add_argument("--features", type=int, default=defaults.n_features)
    parser.add_argument("--runs", default="1,2,3,9", help="comma-separated stack sizes S")
    parser.add_argument("--repeat", type=int, default=40, help="rounds per loop and sweep; each stage's best is printed")
    args = parser.parse_args(argv)
    runs = [int(s) for s in args.runs.split(",")]
    spec = SyntheticSpec(n_patients=args.patients, scans_per_patient=args.scans, n_features=args.features)
    times = profile(spec, runs, args.repeat)
    print(f"cohort {args.patients} x {args.scans} x {args.features}, µs per step, best of {SWEEPS} x {args.repeat} rounds")
    print()
    print("| loop | stage | " + " | ".join(f"S = {s}" for s in runs) + " |")
    print("|---|---|" + "---:|" * len(runs))
    for loop, by_runs in times.items():
        for stage in (*STAGES, "step", "validation"):
            print(f"| {loop} | {stage} | " + " | ".join(f"{by_runs[s][stage]:.1f}" for s in runs) + " |")
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""Stack profile: the wall time of a lock-step stack of S runs against running its S runs one after another.

Prints README's two stack tables as Markdown on stdout, both on seed 0's
split of a generated cohort (the default cohort unless the sizes are given):

- pre-training: ``training.pretrain_runs`` in each loss mode for
  --pretrain-epochs epochs, with one run per seed 0..S-1;
- fine-tuning: ``training.finetune_runs`` with a frozen and with an unfrozen
  encoder for --finetune-epochs epochs, the S runs sharing the split's pairs
  and one encoder pre-trained for --pretrain-epochs epochs.

Each cell is the median of --rounds timed calls, in ms. A round times every
stack size once, one size after another, for every row, so that a slow
spell of the host does not fall on one size alone. A stacked cell also gives
its ratio to S times the S = 1 median: the stack's time over that of running
its S runs one after another. S = 1 is always measured, as the ratios'
base. Run from the root of a checkout:

    PYTHONPATH=src python tools/stack_profile.py
"""

from __future__ import annotations

import argparse
import statistics
import sys
import time
from dataclasses import replace

from hscl import training
from hscl.data import SyntheticSpec, generate_synthetic
from hscl.losses import LossConfig
from hscl.pipeline import DataConfig, ModelSpec, prepare

MODES = ("mse", "mse+cl", "mse+wcl")
ENCODERS = ("frozen", "unfrozen")


def _ms(call) -> float:
    start = time.perf_counter()
    call()
    return (time.perf_counter() - start) * 1e3


def profile(spec: SyntheticSpec, args) -> tuple[dict, dict]:
    """Row -> S -> median ms, for the pre-training rows (loss modes) and the fine-tuning rows (encoders)."""
    prepared = prepare(generate_synthetic(spec), 0, DataConfig())
    model = ModelSpec()
    pre_args = (*prepared.regression["train"], *prepared.regression["val"])
    pair_args = (*prepared.pairs["train"], *prepared.pairs["val"])
    pre_config = replace(training.TrainConfig(), epochs=args.pretrain_epochs)
    fine_config = replace(training.TrainConfig(), epochs=args.finetune_epochs)
    (pretrained,) = training.pretrain_runs(*pre_args, pre_config, model.hidden, model.activation)

    def pretrain(mode, s):
        config = replace(pre_config, loss=LossConfig(mode))
        return lambda: training.pretrain_runs(*pre_args, config, model.hidden, model.activation, seeds=list(range(s)))

    def finetune(encoder, s):
        config = replace(fine_config, freeze_encoder=encoder == "frozen")
        return lambda: training.finetune_runs(
            [pretrained.final] * s, *pair_args, config, model.cls_hidden, seeds=list(range(s))
        )

    tables = []
    for rows, sizes, call in ((MODES, args.pretrain_runs, pretrain), (ENCODERS, args.finetune_runs, finetune)):
        times = {row: {s: [] for s in sizes} for row in rows}
        for _ in range(args.rounds):
            for s in sizes:
                for row in rows:
                    times[row][s].append(_ms(call(row, s)))
        tables.append({row: {s: statistics.median(t) for s, t in by_size.items()} for row, by_size in times.items()})
    return tables[0], tables[1]


def table(head: str, medians: dict[str, dict[int, float]], labels: dict[str, str]) -> list[str]:
    """A Markdown table of one row per entry of ``medians``, a stacked cell with its ratio to S x (S = 1)."""
    sizes = list(next(iter(medians.values())))
    lines = [
        f"| {head} | " + " | ".join("S = 1" if s == 1 else f"S = {s}, stacked" for s in sizes) + " |",
        "|---|" + "---|" * len(sizes),
    ]
    for row, by_size in medians.items():
        cells = [
            f"{ms:.1f} ms" if s == 1 else f"{ms:.1f} ms ({ms / (s * by_size[1]):.2f}×)" for s, ms in by_size.items()
        ]
        lines.append(f"| {labels[row]} | " + " | ".join(cells) + " |")
    return lines


def _sizes(text: str) -> list[int]:
    return sorted({1, *(int(s) for s in text.split(","))})


def main(argv=None) -> int:
    defaults = SyntheticSpec()
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--patients", type=int, default=defaults.n_patients)
    parser.add_argument("--scans", type=int, default=defaults.scans_per_patient)
    parser.add_argument("--features", type=int, default=defaults.n_features)
    parser.add_argument("--pretrain-epochs", type=int, default=10)
    parser.add_argument("--finetune-epochs", type=int, default=20)
    parser.add_argument("--pretrain-runs", type=_sizes, default="1,2,3,9", help="comma-separated stack sizes S")
    parser.add_argument("--finetune-runs", type=_sizes, default="1,2,3", help="comma-separated stack sizes S")
    parser.add_argument("--rounds", type=int, default=11, help="timed calls per cell; each cell is their median")
    args = parser.parse_args(argv)
    spec = SyntheticSpec(n_patients=args.patients, scans_per_patient=args.scans, n_features=args.features)
    pre, fine = profile(spec, args)
    cohort = f"cohort {args.patients} x {args.scans} x {args.features}, median of {args.rounds} rounds"
    print(f"pre-training, {args.pretrain_epochs} epochs, {cohort}")
    print()
    print("\n".join(table("mode", pre, {mode: f"`{mode}`" for mode in MODES})))
    print()
    print(f"fine-tuning, {args.finetune_epochs} epochs, {cohort}")
    print()
    print("\n".join(table("encoder", fine, {encoder: encoder for encoder in ENCODERS})))
    return 0


if __name__ == "__main__":
    sys.exit(main())

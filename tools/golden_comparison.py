"""Acceptance golden: the per-run results of the sweep that acceptance criteria 4 and 5 check.

The sweep is ``run_comparison`` of split seeds 0-8 x {mse, mse+cl} on the
default synthetic cohort, with the default data, model and training
configurations. For each seed and mode the golden holds the accuracy,
macro-F1, both best epochs, ``spread_degenerate``, ``spread_std`` and
``spread_rho``; ``tests/test_acceptance.py`` runs the same sweep and compares
its report with ``tests/golden_comparison.json``. A change that moves the
report on purpose regenerates the file:

    PYTHONPATH=src python tools/golden_comparison.py --out tests/golden_comparison.json
"""

from __future__ import annotations

import argparse
import json
import sys

from hscl.data import SyntheticSpec, generate_synthetic
from hscl.pipeline import CompareConfig, DataConfig, ModelSpec, run_comparison
from hscl.training import TrainConfig

SEEDS = tuple(range(9))
MODES = ("mse", "mse+cl")
FIELDS = (
    "accuracy", "macro_f1", "pretrain_best_epoch", "finetune_best_epoch",
    "spread_degenerate", "spread_std", "spread_rho",
)


def comparison_report() -> dict:
    """The acceptance sweep's ``run_comparison`` report."""
    config = CompareConfig(seeds=SEEDS, modes=MODES)
    return run_comparison(
        generate_synthetic(SyntheticSpec()), config, DataConfig(), ModelSpec(), TrainConfig(), TrainConfig()
    )


def golden(report: dict) -> dict:
    """``{seed: {mode: {field: value}}}`` of ``report``, for every seed, mode and field of the golden."""
    return {
        str(seed): {mode: {key: report["per_seed"][str(seed)][mode][key] for key in FIELDS} for mode in MODES}
        for seed in SEEDS
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--out", required=True, help="the JSON file to write")
    args = parser.parse_args(argv)
    with open(args.out, "w", encoding="utf-8") as fh:
        fh.write(json.dumps(golden(comparison_report()), indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())

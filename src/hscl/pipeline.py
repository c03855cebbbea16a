"""End-to-end orchestration: split, normalize, pretrain, finetune, evaluate.

This is the layer the CLI and the comparison experiment share. A prepared
bundle fixes the patient-level split, the normalization statistics (fitted on
the training split only), and the labeled pair sets, so every later stage of
a run sees consistent data.
"""

from __future__ import annotations

import os
import statistics
from dataclasses import dataclass, field, replace

import numpy as np

from .data import (
    DEFAULT_FRACTIONS,
    DEFAULT_TAU,
    NormalizationStats,
    PatientSeries,
    check_fractions,
    fit_normalization,
    make_pairs,
    pair_arrays,
    records_of,
    regression_arrays,
)
from .errors import ConfigError, HsclError
from .losses import MODES
from .metrics import MetricsReport, SpreadProfile, compute_metrics, embedding_spread
from .model import (
    DEFAULT_ACTIVATION,
    DEFAULT_CLS_HIDDEN,
    DEFAULT_HIDDEN,
    classify_pairs,
    encode,
    predict_classes,
)
from .training import (
    Checkpoint,
    FinetuneResult,
    PretrainResult,
    TrainConfig,
    classifier_from_checkpoint,
    encoder_from_checkpoint,
    finetune,
    finetune_runs,
    pretrain,
    save_checkpoint,
)

SPLITS = ("train", "val", "test")


@dataclass
class DataConfig:
    fractions: tuple[float, float, float] = DEFAULT_FRACTIONS
    label_mode: str = "threshold"
    tau: float = DEFAULT_TAU
    higher_is_better: bool = True

    def __post_init__(self) -> None:
        # checked here too, so a bad split fails before any seed of a sweep runs
        check_fractions(self.fractions, "fractions")


@dataclass
class ModelSpec:
    hidden: tuple[int, ...] = DEFAULT_HIDDEN
    activation: str = DEFAULT_ACTIVATION
    cls_hidden: tuple[int, ...] = DEFAULT_CLS_HIDDEN


@dataclass
class Prepared:
    """Split datasets, shared stats, and the arrays each stage consumes."""

    stats: NormalizationStats
    series: dict[str, list[PatientSeries]]
    regression: dict[str, tuple[np.ndarray, np.ndarray]] = field(repr=False)
    pairs: dict[str, tuple[np.ndarray, np.ndarray, np.ndarray]] = field(repr=False)
    data_meta: dict = field(default_factory=dict)


def prepare(collection: list[PatientSeries], seed: int, dcfg: DataConfig) -> Prepared:
    from .data import split_patients  # local import keeps module init light

    train_s, val_s, test_s = split_patients(collection, dcfg.fractions, seed)
    train_records = records_of(train_s)
    stats = fit_normalization(train_records, dcfg.higher_is_better)
    n_features = len(train_records[0].features)
    series = {"train": train_s, "val": val_s, "test": test_s}
    # an empty split or pair list gives (0, n_features) arrays
    regression = {
        name: regression_arrays(records_of(split), stats, n_features)
        for name, split in series.items()
    }
    pairs = {
        name: pair_arrays(make_pairs(split, stats, dcfg.label_mode, dcfg.tau), n_features)
        for name, split in series.items()
    }
    data_meta = {
        "hs_min": float(stats.hs_min),
        "hs_max": float(stats.hs_max),
        "higher_is_better": bool(stats.higher_is_better),
        "split_seed": int(seed),
        "fractions": [float(f) for f in dcfg.fractions],
        "label_mode": dcfg.label_mode,
        "tau": float(dcfg.tau),
    }
    return Prepared(stats, series, regression, pairs, data_meta)


def prepared_from_meta(collection: list[PatientSeries], data_meta: dict) -> Prepared:
    """Rebuild the exact split/stats a checkpoint was trained with."""
    dcfg = DataConfig(
        fractions=tuple(data_meta["fractions"]),
        label_mode=data_meta["label_mode"],
        tau=data_meta["tau"],
        higher_is_better=data_meta["higher_is_better"],
    )
    prepared = prepare(collection, int(data_meta["split_seed"]), dcfg)
    for key in ("hs_min", "hs_max"):
        if abs(getattr(prepared.stats, key) - data_meta[key]) > 1e-9:
            raise ConfigError(
                f"prepared_from_meta: dataset {key} {getattr(prepared.stats, key)} does not match "
                f"checkpoint {key} {data_meta[key]}; was the checkpoint trained on this dataset?"
            )
    return prepared


def run_pretrain(prepared: Prepared, model: ModelSpec, config: TrainConfig) -> PretrainResult:
    x_train, y_train = prepared.regression["train"]
    x_val, y_val = prepared.regression["val"]
    return pretrain(
        x_train,
        y_train,
        x_val,
        y_val,
        config,
        hidden=model.hidden,
        activation=model.activation,
        data_meta=prepared.data_meta,
    )


def run_finetune(
    prepared: Prepared, pretrained: Checkpoint, config: TrainConfig, model: ModelSpec
) -> FinetuneResult:
    xp_tr, xn_tr, y_tr = prepared.pairs["train"]
    xp_val, xn_val, y_val = prepared.pairs["val"]
    return finetune(
        pretrained, xp_tr, xn_tr, y_tr, xp_val, xn_val, y_val, config, cls_hidden=model.cls_hidden
    )


def evaluate_checkpoint(prepared: Prepared, ck: Checkpoint, split: str = "test") -> MetricsReport:
    if split not in SPLITS:
        raise ConfigError(f"evaluate_checkpoint: unknown split {split!r}")
    encoder = encoder_from_checkpoint(ck)
    cls = classifier_from_checkpoint(ck)
    xp, xn, labels = prepared.pairs[split]
    if len(labels) == 0:
        raise ConfigError(f"evaluate_checkpoint: split {split!r} has no pairs")
    logits = classify_pairs(cls, encode(encoder, xp).data, encode(encoder, xn).data).data
    return compute_metrics(predict_classes(logits), labels)


def spread_for_checkpoint(
    prepared: Prepared,
    ck: Checkpoint,
    sample_size: int,
    seed: int = 0,
    split: str = "test",
) -> SpreadProfile:
    if split not in SPLITS:
        raise ConfigError(f"spread_for_checkpoint: unknown split {split!r}")
    encoder = encoder_from_checkpoint(ck)
    x, y_norm = prepared.regression[split]
    if len(x) == 0:
        raise ConfigError(f"spread_for_checkpoint: split {split!r} has no scans")
    return embedding_spread(encoder, x, y_norm, sample_size, seed)


# -- the MSE-vs-contrastive comparison experiment ----------------------------------


@dataclass
class CompareConfig:
    seeds: tuple[int, ...] = (0, 1, 2, 3, 4)
    modes: tuple[str, ...] = MODES
    sample_size: int = 2000
    spread_split: str = "test"


def run_comparison(
    collection: list[PatientSeries],
    compare: CompareConfig,
    dcfg: DataConfig,
    model: ModelSpec,
    pretrain_cfg: TrainConfig,
    finetune_cfg: TrainConfig,
    out_dir: str | None = None,
) -> dict:
    """Pretrain/finetune/evaluate each loss mode for each seed.

    A stage failure the library reports (an ``HsclError``: bad input, a
    diverged run, a checkpoint error) aborts that seed, the reason is
    recorded and the sweep continues; any other exception is a programming
    error and propagates. Returns the report dict; when ``out_dir`` is given,
    writes report.json, report.txt, and per-run checkpoints beneath it.
    """
    for mode in compare.modes:
        if mode not in MODES:
            raise ConfigError(f"run_comparison: unknown loss mode {mode!r}")
    if not compare.modes:
        raise ConfigError("run_comparison: need at least one loss mode")
    if not compare.seeds:
        raise ConfigError("run_comparison: need at least one seed")

    per_seed: dict[str, dict] = {}
    for seed in compare.seeds:
        try:
            per_seed[str(seed)] = _run_one_seed(
                collection, seed, compare, dcfg, model, pretrain_cfg, finetune_cfg, out_dir
            )
        except HsclError as exc:  # record the reason, keep the sweep going
            per_seed[str(seed)] = {"error": f"{type(exc).__name__}: {exc}"}

    medians: dict[str, dict] = {}
    for mode in compare.modes:
        rows = [
            entry[mode]
            for entry in per_seed.values()
            if "error" not in entry and mode in entry
        ]
        if rows:
            medians[mode] = {
                key: float(statistics.median(row[key] for row in rows))
                for key in ("accuracy", "macro_f1", "spread_std", "spread_rho")
            }
    report = {
        "seeds": [int(s) for s in compare.seeds],
        "modes": list(compare.modes),
        "per_seed": per_seed,
        "medians": medians,
    }
    if out_dir is not None:
        _write_report(report, out_dir)
    return report


def _run_one_seed(
    collection: list[PatientSeries],
    seed: int,
    compare: CompareConfig,
    dcfg: DataConfig,
    model: ModelSpec,
    pretrain_cfg: TrainConfig,
    finetune_cfg: TrainConfig,
    out_dir: str | None,
) -> dict:
    prepared = prepare(collection, seed, dcfg)
    pairs_train, pairs_val = prepared.pairs["train"], prepared.pairs["val"]
    if len(pairs_train[2]) == 0:  # checked before any mode spends a pre-training
        raise ConfigError("finetune: no training pairs")
    # only each run's best checkpoint and epoch are kept; finals and traces are let go
    pres = [
        (pre.best, pre.best_epoch)
        for pre in (
            run_pretrain(
                prepared, model, replace(pretrain_cfg, seed=seed, loss=replace(pretrain_cfg.loss, mode=mode))
            )
            for mode in compare.modes
        )
    ]
    # every mode shares the pairs, batch order and head init, so one stacked call fine-tunes all
    f_cfg = replace(finetune_cfg, seed=seed)
    fines = [
        (fine.best, fine.best_epoch)
        for fine in finetune_runs(
            [best for best, _ in pres], *pairs_train, *pairs_val, f_cfg, cls_hidden=model.cls_hidden
        )
    ]
    results: dict[str, dict] = {}
    for mode, (pre_best, pre_epoch), (fine_best, fine_epoch) in zip(compare.modes, pres, fines):
        report = evaluate_checkpoint(prepared, fine_best, split="test")
        spread = spread_for_checkpoint(
            prepared, pre_best, compare.sample_size, seed, compare.spread_split
        )
        results[mode] = {
            "accuracy": float(report.accuracy),
            "macro_f1": float(report.macro_f1),
            "spread_std": float(spread.std_dev),
            "spread_rho": float(spread.rho),
            "spread_degenerate": bool(spread.degenerate),
            "pretrain_best_epoch": pre_epoch,
            "finetune_best_epoch": fine_epoch,
        }
        if out_dir is not None:
            run_dir = os.path.join(out_dir, f"seed{seed}", mode)
            os.makedirs(run_dir, exist_ok=True)
            save_checkpoint(pre_best, os.path.join(run_dir, "pretrain_best.ckpt"))
            save_checkpoint(fine_best, os.path.join(run_dir, "finetune_best.ckpt"))
    return results


def format_report(report: dict) -> str:
    """Fixed-width text table: one row per loss mode, one column per seed."""
    seeds = report["seeds"]
    lines = []
    header = f"{'loss':8s} {'metric':10s}" + "".join(f" seed{s:<6d}" for s in seeds) + "   median"
    lines.append(header)
    lines.append("-" * len(header))
    for mode in report["modes"]:
        for key, label in (("accuracy", "accuracy"), ("macro_f1", "macro_f1")):
            cells = []
            for seed in seeds:
                entry = report["per_seed"][str(seed)]
                if "error" in entry or mode not in entry:
                    cells.append(f" {'--':>9s}")
                else:
                    cells.append(f" {entry[mode][key]:9.4f}")
            median = report["medians"].get(mode)
            med = f" {median[key]:8.4f}" if median else f" {'--':>8s}"
            lines.append(f"{mode:8s} {label:10s}" + "".join(cells) + med)
    failures = [
        f"seed {seed}: {entry['error']}"
        for seed, entry in report["per_seed"].items()
        if "error" in entry
    ]
    if failures:
        lines.append("")
        lines.append("failed seeds:")
        lines.extend("  " + f for f in failures)
    return "\n".join(lines) + "\n"


def _write_report(report: dict, out_dir: str) -> None:
    import json

    os.makedirs(out_dir, exist_ok=True)
    with open(os.path.join(out_dir, "report.json"), "w", encoding="utf-8") as fh:
        json.dump(report, fh, sort_keys=True, indent=2)
        fh.write("\n")
    with open(os.path.join(out_dir, "report.txt"), "w", encoding="utf-8") as fh:
        fh.write(format_report(report))

"""End-to-end orchestration: split, normalize, pretrain, finetune, evaluate.

This is the layer the CLI and the comparison experiment share. A prepared
bundle fixes the patient-level split, the normalization statistics (fitted on
the training split only), and the labeled pair sets, so every later stage of
a run sees consistent data.
"""

from __future__ import annotations

import json
import math
import os
import statistics
from dataclasses import dataclass, field, replace

import numpy as np

from .checkpoint import (
    Checkpoint,
    classifier_from_checkpoint,
    encoder_from_checkpoint,
    meta_value,
    save_checkpoint,
)
from .data import (
    DEFAULT_FRACTIONS,
    DEFAULT_TAU,
    LABEL_MODES,
    Cohort,
    NormalizationStats,
    check_fractions,
    fit_normalization,
    pair_labels,
    split_patients,
)
from .errors import ConfigError, DomainError, HsclError
from .losses import MODES
from .metrics import MetricsReport, SpreadProfile, compute_metrics, embedding_spread
from .model import (
    ACTIVATIONS,
    DEFAULT_ACTIVATION,
    DEFAULT_CLS_HIDDEN,
    DEFAULT_HIDDEN,
    check_widths,
    classify_pairs,
    encode,  # bound here for perfbench/tracing.BINDINGS alone: pairs embed through training.embed_pairs
    predict_classes,
)
from .training import (
    FinetuneResult,
    PretrainResult,
    TrainConfig,
    embed_pairs,
    finetune,
    finetune_runs,
    pretrain,
    pretrain_runs,
)

SPLITS = ("train", "val", "test")


@dataclass
class DataConfig:
    """How a cohort is split into train/val/test patients and its scan pairs labelled."""

    fractions: tuple[float, float, float] = DEFAULT_FRACTIONS
    label_mode: str = "threshold"
    tau: float = DEFAULT_TAU
    higher_is_better: bool = True

    def __post_init__(self) -> None:
        # checked here, so a bad value fails before any seed of a sweep runs
        check_fractions(self.fractions, "fractions")
        if self.label_mode not in LABEL_MODES:
            raise ConfigError(f"label_mode must be one of {LABEL_MODES}, got {self.label_mode!r}")
        if not 0 <= self.tau < math.inf:
            raise ConfigError(f"tau must be non-negative and finite, got {self.tau}")


@dataclass
class ModelSpec:
    """The encoder's hidden widths and activation and the classifier head's hidden widths."""

    hidden: tuple[int, ...] = DEFAULT_HIDDEN
    activation: str = DEFAULT_ACTIVATION
    cls_hidden: tuple[int, ...] = DEFAULT_CLS_HIDDEN

    def __post_init__(self) -> None:
        # checked here too, so a bad model fails before any seed of a sweep runs
        if not self.hidden:
            raise ConfigError("hidden: need at least one encoder width")
        check_widths(self.hidden, "hidden")
        check_widths(self.cls_hidden, "cls_hidden")
        if self.activation not in ACTIVATIONS:
            raise ConfigError(f"activation must be one of {ACTIVATIONS}, got {self.activation!r}")


@dataclass
class Prepared:
    """Shared stats, and each split's arrays that the stages consume."""

    stats: NormalizationStats
    regression: dict[str, tuple[np.ndarray, np.ndarray]] = field(repr=False)
    pairs: dict[str, tuple[np.ndarray, np.ndarray, np.ndarray]] = field(repr=False)
    data_meta: dict = field(default_factory=dict)


def _labels(prev_hs: np.ndarray, next_hs: np.ndarray, stats: NormalizationStats | None, dcfg: DataConfig) -> np.ndarray:
    """``pair_labels``; a dataset score it rejects is bad input, so its ``DomainError`` is raised as ``ConfigError``."""
    try:
        return pair_labels(prev_hs, next_hs, stats, dcfg.label_mode, dcfg.tau)
    except DomainError as exc:
        raise ConfigError(str(exc)) from None


def prepare(cohort: Cohort, seed: int, dcfg: DataConfig) -> Prepared:
    splits = dict(zip(SPLITS, split_patients(cohort, dcfg.fractions, seed)))
    stats = fit_normalization(splits["train"].scores, dcfg.higher_is_better)
    # per split: its features matrix, the normalized scores, and the pairs at rows
    # (prev, prev + 1); an empty split or pair list gives (0, F) arrays
    regression, pairs = {}, {}
    for name, split in splits.items():
        x, hs, prev = split.features, split.scores, split.pair_index()
        regression[name] = (x, stats.normalize_array(hs))
        pairs[name] = (x[prev], x[prev + 1], _labels(hs[prev], hs[prev + 1], stats, dcfg))
    data_meta = {
        "hs_min": float(stats.hs_min),
        "hs_max": float(stats.hs_max),
        "higher_is_better": bool(stats.higher_is_better),
        "split_seed": int(seed),
        "fractions": [float(f) for f in dcfg.fractions],
        "label_mode": dcfg.label_mode,
        "tau": float(dcfg.tau),
    }
    return Prepared(stats, regression, pairs, data_meta)


def prepared_from_meta(cohort: Cohort, data_meta: dict | None) -> Prepared:
    """Rebuild the exact split/stats a checkpoint was trained with from its ``data`` metadata.

    Each value is read through ``checkpoint.meta_value``, so a missing or bad
    one raises ``CheckpointIntegrityError`` naming it.
    """

    def value(key: str):
        return meta_value({"data": data_meta}, f"data.{key}")

    dcfg = DataConfig(
        fractions=value("fractions"),
        label_mode=value("label_mode"),
        tau=value("tau"),
        higher_is_better=value("higher_is_better"),
    )
    prepared = prepare(cohort, value("split_seed"), dcfg)
    for key in ("hs_min", "hs_max"):
        if abs(getattr(prepared.stats, key) - value(key)) > 1e-9:
            raise ConfigError(
                f"prepared_from_meta: dataset {key} {getattr(prepared.stats, key)} does not match "
                f"checkpoint {key} {value(key)}; was the checkpoint trained on this dataset?"
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


def run_pretrain_runs(
    prepareds: list[Prepared], model: ModelSpec, config: TrainConfig, seeds: list[int]
) -> list[PretrainResult]:
    """Pre-train one run per prepared split in lock-step: run k on split k with seed ``seeds[k]``.

    The splits must have equal sizes; see ``training.pretrain_runs``.
    """

    def per_run(split: str, k: int) -> np.ndarray:
        return np.stack([p.regression[split][k] for p in prepareds])

    return pretrain_runs(
        per_run("train", 0),
        per_run("train", 1),
        per_run("val", 0),
        per_run("val", 1),
        config,
        hidden=model.hidden,
        activation=model.activation,
        data_metas=[p.data_meta for p in prepareds],
        seeds=seeds,
    )


def run_finetune(
    prepared: Prepared, pretrained: Checkpoint, config: TrainConfig, model: ModelSpec
) -> FinetuneResult:
    xp_tr, xn_tr, y_tr = prepared.pairs["train"]
    xp_val, xn_val, y_val = prepared.pairs["val"]
    return finetune(
        pretrained, xp_tr, xn_tr, y_tr, xp_val, xn_val, y_val, config, cls_hidden=model.cls_hidden
    )


def check_splits(prepared: Prepared, where: str, splits: tuple[str, ...]) -> None:
    """Raise ``ConfigError`` naming the first of ``splits`` with no scan pair.

    Run before training, so that a run whose data a later stage would reject
    spends none. A split with a pair has the 2 scans the spread analysis needs.
    """
    for split in splits:
        if len(prepared.pairs[split][2]) == 0:
            raise ConfigError(f"{where}: split {split!r} has no pairs")


def evaluate_checkpoint(prepared: Prepared, ck: Checkpoint, split: str = "test") -> MetricsReport:
    if split not in SPLITS:
        raise ConfigError(f"evaluate_checkpoint: unknown split {split!r}")
    encoder = encoder_from_checkpoint(ck)
    cls = classifier_from_checkpoint(ck)
    xp, xn, labels = prepared.pairs[split]
    if len(labels) == 0:
        raise ConfigError(f"evaluate_checkpoint: split {split!r} has no pairs")
    logits = classify_pairs(cls, *embed_pairs(encoder, xp, xn))
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
    """The comparison sweep's split seeds and loss modes, and its embedding-spread sample."""

    seeds: tuple[int, ...] = (0, 1, 2, 3, 4)
    modes: tuple[str, ...] = MODES
    sample_size: int = 2000
    spread_split: str = "test"

    def __post_init__(self) -> None:
        # checked here, so a bad value fails before any seed of a sweep runs
        for mode in self.modes:
            if mode not in MODES:
                raise ConfigError(f"run_comparison: unknown loss mode {mode!r}")
        if not self.modes:
            raise ConfigError("run_comparison: need at least one loss mode")
        if not self.seeds:
            raise ConfigError("run_comparison: need at least one seed")
        if min(self.seeds) < 0:
            raise ConfigError(f"run_comparison: seeds must be non-negative, got {min(self.seeds)}")
        if self.sample_size < 1:
            raise ConfigError(f"run_comparison: sample_size must be >= 1, got {self.sample_size}")
        if self.spread_split not in SPLITS:
            raise ConfigError(
                f"run_comparison: spread_split must be one of {SPLITS}, got {self.spread_split!r}"
            )
        for what, values in (("seed", self.seeds), ("loss mode", self.modes)):
            repeated = sorted({v for v in values if values.count(v) > 1})
            if repeated:
                raise ConfigError(f"run_comparison: each {what} may appear once, got repeats of {repeated}")


def run_comparison(
    cohort: Cohort,
    compare: CompareConfig,
    dcfg: DataConfig,
    model: ModelSpec,
    pretrain_cfg: TrainConfig,
    finetune_cfg: TrainConfig,
    out_dir: str | None = None,
) -> dict:
    """Pretrain/finetune/evaluate each loss mode for each seed.

    Every seed is prepared first. Seeds whose splits have equal sizes (train
    and val scans, train and val pairs) form a group, trained in lock-step:
    one pre-training stack per loss mode over the group's seeds, then one
    fine-tuning stack of all its (seed, mode) runs. Each run's outputs are
    bit-identical to training it alone. Evaluation, the spread analysis and
    checkpoint writes then run seed by seed, in seed order.

    A zero fraction, which leaves a split every seed reads empty, and in
    ``bin`` label mode a pair score the S/F bins reject (``pair_labels``'
    error), raise ``ConfigError`` before any seed runs, since every seed
    would fail on it alike. A seed whose train, val or test split has no
    pairs fails before any pre-training (``check_splits``). A stage failure the library reports (an
    ``HsclError``: bad input, a diverged run, a checkpoint error) aborts that
    seed, the reason is recorded and the sweep continues. When a group of
    several seeds fails, each of its seeds is retrained as a group of one, so
    only the failing seed is lost and its row reads as if it had run alone.
    Any other exception is a programming error and propagates. Returns the
    report dict; when ``out_dir`` is given, writes report.json, report.txt,
    and per-run checkpoints beneath it.
    """
    for split, fraction in zip(SPLITS, dcfg.fractions):
        if fraction == 0:
            raise ConfigError(f"run_comparison: the {split} fraction is 0; every seed needs {split} pairs")
    if dcfg.label_mode == "bin":  # a bin label does not depend on the split: check every pair once
        prev = cohort.pair_index()
        _labels(cohort.scores[prev], cohort.scores[prev + 1], None, dcfg)

    errors: dict[int, str] = {}
    prepared: dict[int, Prepared] = {}
    groups: dict[tuple[int, ...], list[int]] = {}
    for seed in compare.seeds:
        try:
            prepared[seed] = prepare(cohort, seed, dcfg)
            check_splits(prepared[seed], "run_comparison", SPLITS)
        except HsclError as exc:
            errors[seed] = _error_text(exc)
            continue
        groups.setdefault(_split_sizes(prepared[seed]), []).append(seed)

    trained: dict[int, list[tuple]] = {}
    for group in groups.values():
        try:
            trained.update(_train_group(group, prepared, compare, model, pretrain_cfg, finetune_cfg))
        except HsclError as exc:
            if len(group) == 1:
                errors[group[0]] = _error_text(exc)
                continue
            for seed in group:  # retrain alone, so no seed can abort another
                try:
                    trained.update(_train_group([seed], prepared, compare, model, pretrain_cfg, finetune_cfg))
                except HsclError as exc:
                    errors[seed] = _error_text(exc)

    per_seed: dict[str, dict] = {}
    for seed in compare.seeds:
        if seed in errors:
            per_seed[str(seed)] = {"error": errors[seed]}
            continue
        try:
            per_seed[str(seed)] = _evaluate_seed(prepared[seed], seed, trained[seed], compare, out_dir)
        except HsclError as exc:  # record the reason, keep the sweep going
            per_seed[str(seed)] = {"error": _error_text(exc)}

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


def _error_text(exc: HsclError) -> str:
    return f"{type(exc).__name__}: {exc}"


def _split_sizes(prepared: Prepared) -> tuple[int, ...]:
    """What seeds must share to train in one stack: train/val scan and pair counts."""
    return (
        len(prepared.regression["train"][1]),
        len(prepared.regression["val"][1]),
        len(prepared.pairs["train"][2]),
        len(prepared.pairs["val"][2]),
    )


def _train_group(
    seeds: list[int],
    prepared: dict[int, Prepared],
    compare: CompareConfig,
    model: ModelSpec,
    pretrain_cfg: TrainConfig,
    finetune_cfg: TrainConfig,
) -> dict[int, list[tuple]]:
    """Train every (seed, mode) run of a group of equal-size seeds.

    Returns, per seed, one ``(pre best, pre best epoch, fine best, fine best
    epoch)`` tuple per mode; finals and traces are let go.
    """
    prepareds = [prepared[seed] for seed in seeds]
    pres = [
        [
            (pre.best, pre.best_epoch)
            for pre in run_pretrain_runs(
                prepareds, model, replace(pretrain_cfg, loss=replace(pretrain_cfg.loss, mode=mode)), seeds
            )
        ]
        for mode in compare.modes
    ]
    # one fine-tuning stack of every run, seed-major: run (k, m) starts from pres[m][k]
    runs = [(k, m) for k in range(len(seeds)) for m in range(len(compare.modes))]

    def per_run(split: str, j: int) -> np.ndarray:
        return np.stack([prepareds[k].pairs[split][j] for k, _ in runs])

    fines = finetune_runs(
        [pres[m][k][0] for k, m in runs],
        *(per_run(split, j) for split in ("train", "val") for j in range(3)),
        finetune_cfg,
        cls_hidden=model.cls_hidden,
        seeds=[seeds[k] for k, _ in runs],
    )
    out: dict[int, list[tuple]] = {seed: [] for seed in seeds}
    for (k, m), fine in zip(runs, fines):
        out[seeds[k]].append((*pres[m][k], fine.best, fine.best_epoch))
    return out


def _evaluate_seed(
    prepared: Prepared, seed: int, runs: list[tuple], compare: CompareConfig, out_dir: str | None
) -> dict:
    results: dict[str, dict] = {}
    for mode, (pre_best, pre_epoch, fine_best, fine_epoch) in zip(compare.modes, runs):
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
    os.makedirs(out_dir, exist_ok=True)
    with open(os.path.join(out_dir, "report.json"), "w", encoding="utf-8") as fh:
        json.dump(report, fh, sort_keys=True, indent=2)
        fh.write("\n")
    with open(os.path.join(out_dir, "report.txt"), "w", encoding="utf-8") as fh:
        fh.write(format_report(report))

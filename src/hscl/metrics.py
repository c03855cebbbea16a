"""Classification metrics and the embedding-spread analysis.

Accuracy is reported in percent and F1 as unweighted macro over the three
change classes (0/0 per-class F1 counts as 0). The spread analysis samples
scan pairs, pairing each |normalized score difference| with the cosine
distance between the two embeddings, and summarizes dispersion (distance
standard deviation) and ordering (Spearman rank correlation with
average-rank tie handling).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .data import LABEL_NAMES
from .errors import ConfigError, DomainError, ShapeError
from .model import N_CLASSES, EncoderParams, encode


@dataclass
class MetricsReport:
    """Accuracy, macro-F1, per-class scores and confusion matrix of 3-way change predictions."""

    accuracy: float  # percent
    macro_f1: float
    per_class: list[dict]
    confusion: np.ndarray = field(repr=False)  # (3, 3), rows = true class
    n_examples: int

    def to_json_dict(self) -> dict:
        return {
            "accuracy": self.accuracy,
            "macro_f1": self.macro_f1,
            "per_class": self.per_class,
            "confusion": [[int(v) for v in row] for row in self.confusion],
            "n_examples": self.n_examples,
        }

    def to_text(self) -> str:
        lines = [
            f"n_examples: {self.n_examples}",
            f"accuracy: {repr(float(self.accuracy))}",
            f"macro_f1: {repr(float(self.macro_f1))}",
        ]
        for entry in self.per_class:
            name = entry["label"]
            for metric in ("precision", "recall", "f1"):
                lines.append(f"{metric}_{name}: {repr(float(entry[metric]))}")
            lines.append(f"support_{name}: {entry['support']}")
        for true_idx, row in enumerate(self.confusion):
            lines.append(f"confusion_{LABEL_NAMES[true_idx]}: " + " ".join(str(int(v)) for v in row))
        return "\n".join(lines) + "\n"


def compute_metrics(predictions, labels) -> MetricsReport:
    """Accuracy, macro-F1, per-class precision/recall/F1, 3x3 confusion matrix."""
    pred = np.asarray(predictions).reshape(-1)
    true = np.asarray(labels).reshape(-1)
    if pred.shape[0] != true.shape[0]:
        raise ShapeError(f"compute_metrics: {pred.shape[0]} predictions vs {true.shape[0]} labels")
    n = pred.shape[0]
    if n == 0:
        raise ConfigError("compute_metrics: empty input")
    for name, arr in (("predictions", pred), ("labels", true)):
        if arr.min() < 0 or arr.max() >= N_CLASSES:
            raise ConfigError(f"compute_metrics: {name} must lie in [0, {N_CLASSES})")

    cells = true.astype(np.int64) * N_CLASSES + pred.astype(np.int64)
    confusion = np.bincount(cells, minlength=N_CLASSES * N_CLASSES).reshape(N_CLASSES, N_CLASSES)

    rows = confusion.tolist()  # Python ints, read once
    per_class = []
    f1_sum = 0.0
    for c in range(N_CLASSES):
        tp, support = rows[c][c], sum(rows[c])
        fp = sum(row[c] for row in rows) - tp
        fn = support - tp
        precision = tp / (tp + fp) if tp + fp > 0 else 0.0
        recall = tp / (tp + fn) if tp + fn > 0 else 0.0
        f1 = 2.0 * precision * recall / (precision + recall) if precision + recall > 0 else 0.0
        f1_sum += f1
        per_class.append(
            {
                "label": LABEL_NAMES[c],
                "precision": precision,
                "recall": recall,
                "f1": f1,
                "support": support,
            }
        )
    return MetricsReport(
        accuracy=100.0 * float(sum(rows[c][c] for c in range(N_CLASSES))) / n,
        macro_f1=f1_sum / N_CLASSES,
        per_class=per_class,
        confusion=confusion,
        n_examples=n,
    )


def average_ranks(values) -> np.ndarray:
    """1-based ranks, tied values receiving the mean of their rank run."""
    v = np.asarray(values, dtype=np.float64).reshape(-1)
    n = v.size
    order = np.argsort(v, kind="stable")
    ordered = v[order]
    # a tie run [i, j] of the sorted values starts where a value differs from its predecessor
    starts = np.flatnonzero(np.concatenate(([True], ordered[1:] != ordered[:-1])))
    ends = np.append(starts[1:], n) - 1
    ranks = np.empty(n, dtype=np.float64)
    ranks[order] = np.repeat(0.5 * (starts + ends) + 1.0, ends - starts + 1)
    return ranks


def spearman_rho(x, y) -> tuple[float, bool]:
    """Spearman rank correlation; returns (rho, degenerate_flag).

    A coordinate with zero rank variance makes the correlation undefined;
    it is reported as 0.0 with the flag set so sweeps can keep going.
    """
    rx = average_ranks(x)
    ry = average_ranks(y)
    if rx.shape != ry.shape:
        raise ShapeError(f"spearman_rho: length mismatch {rx.shape} vs {ry.shape}")
    rx = rx - rx.mean()
    ry = ry - ry.mean()
    sx = float(rx @ rx)
    sy = float(ry @ ry)
    if sx == 0.0 or sy == 0.0:
        return 0.0, True
    return float((rx @ ry) / np.sqrt(sx * sy)), False


@dataclass
class SpreadProfile:
    """Sampled (|score delta|, cosine distance) pairs plus summary statistics."""

    delta_hs: np.ndarray = field(repr=False)
    cos_distance: np.ndarray = field(repr=False)
    std_dev: float
    rho: float
    degenerate: bool

    @property
    def n_points(self) -> int:
        return int(self.delta_hs.shape[0])


def _sampled_pairs(n: int, sample_size: int, seed: int) -> tuple[np.ndarray, np.ndarray]:
    """Up to ``sample_size`` of the n(n-1)/2 scan pairs i < j, drawn without replacement, in row-major order.

    The draw picks positions in the upper triangle read row by row; each is
    mapped to its (i, j) through the position where row i starts, so memory
    grows with n and the sample, not with the number of pairs.
    """
    total = n * (n - 1) // 2
    if sample_size < total:
        sel = np.sort(np.random.default_rng(seed).choice(total, size=sample_size, replace=False))
    else:
        sel = np.arange(total)
    rows = np.arange(n - 1)
    starts = rows * (2 * n - rows - 1) // 2
    i = np.searchsorted(starts, sel, "right") - 1
    return i, sel - starts[i] + i + 1


def embedding_spread(
    params: EncoderParams,
    features: np.ndarray,
    hs_norm: np.ndarray,
    sample_size: int,
    seed: int = 0,
) -> SpreadProfile:
    """Pairwise embedding-distance profile against normalized label distance.

    Samples up to ``sample_size`` scan pairs uniformly without replacement.
    Cosine distance is undefined for a zero vector, so, as in the cosine
    contrastive loss, a sampled pair with a zero-norm embedding raises
    ``DomainError``.
    """
    x = np.asarray(features, dtype=np.float64)
    scores = np.asarray(hs_norm, dtype=np.float64).reshape(-1)
    n = x.shape[0]
    if n < 2:
        raise ConfigError(f"embedding_spread: need at least 2 scans, got {n}")
    if scores.shape[0] != n:
        raise ShapeError(f"embedding_spread: {n} scans vs {scores.shape[0]} scores")
    if sample_size < 1:
        raise ConfigError(f"embedding_spread: sample_size must be >= 1, got {sample_size}")
    if seed < 0:
        raise ConfigError(f"embedding_spread: seed must be non-negative, got {seed}")

    iu, ju = _sampled_pairs(n, sample_size, seed)
    embeddings = encode(params, x)
    norms = np.linalg.norm(embeddings, axis=1)
    dots = (embeddings[iu] * embeddings[ju]).sum(axis=1)
    denom = norms[iu] * norms[ju]
    if np.any(denom == 0.0):
        raise DomainError("embedding_spread: cosine distance undefined for a zero vector")
    distance = 1.0 - np.clip(dots / denom, -1.0, 1.0)
    delta = np.abs(scores[iu] - scores[ju])

    rho, degenerate = spearman_rho(delta, distance)
    return SpreadProfile(
        delta_hs=delta,
        cos_distance=distance,
        std_dev=float(distance.std()),
        rho=rho,
        degenerate=degenerate,
    )


def export_profile(profile: SpreadProfile, path) -> None:
    """Tab-separated points plus '#'-prefixed summary footer; byte-deterministic."""
    points = zip(profile.delta_hs.tolist(), profile.cos_distance.tolist())
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("delta_hs\tcos_distance\n" + "".join(f"{d!r}\t{c!r}\n" for d, c in points))
        fh.write(f"# n\t{profile.n_points}\n")
        fh.write(f"# std_dev\t{repr(float(profile.std_dev))}\n")
        fh.write(f"# spearman_rho\t{repr(float(profile.rho))}\n")
        fh.write(f"# degenerate\t{int(profile.degenerate)}\n")

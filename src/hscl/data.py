"""Longitudinal scan data: synthetic generation, ingestion, labels, splits.

Each record is one scan: a feature vector plus a scalar health score. Records
group into per-patient series ordered by sequence index; consecutive records
form pair examples labeled improved / same / deteriorated. Health scores are
min-max normalized with statistics fitted on the training split only, so that
label distances (and the contrastive eps) live on a consistent [0, 1] scale
regardless of whether the raw scores are S/F-like (hundreds) or MMSE-like
(tens).

Dataset files are plain CSV with a header row:
``patient_id,seq_index,health_score,f0,...,f{F-1}``.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass, field, replace

import numpy as np

from .errors import ConfigError, DatasetError, DomainError

IMPROVED, SAME, DETERIORATED = 0, 1, 2
LABEL_NAMES = ("improved", "same", "deteriorated")
LABEL_MODES = ("bin", "threshold")

DEFAULT_FRACTIONS = (0.543, 0.247, 0.210)
DEFAULT_TAU = 0.05

# S/F ratio bins, best to worst: > 430, 275-430 (both ends), 180-275
# (lower end only), < 180.
_SF_EDGES = (430.0, 275.0, 180.0)


@dataclass
class ScanRecord:
    patient_id: str
    seq_index: int
    features: np.ndarray = field(repr=False)
    health_score: float


@dataclass
class PatientSeries:
    patient_id: str
    records: list[ScanRecord]

    def __post_init__(self) -> None:
        for rec in self.records:
            if rec.patient_id != self.patient_id:
                raise DatasetError(
                    f"series {self.patient_id}: record belongs to {rec.patient_id}"
                )
        indices = [rec.seq_index for rec in self.records]
        if any(b <= a for a, b in zip(indices, indices[1:])):
            raise DatasetError(
                f"series {self.patient_id}: seq_index must be strictly increasing, got {indices}"
            )


@dataclass
class PairExample:
    prev: ScanRecord
    next: ScanRecord
    label: int


@dataclass
class NormalizationStats:
    """Min-max scale fitted on the training split; applied to every split."""

    hs_min: float
    hs_max: float
    higher_is_better: bool = True

    def normalize(self, value: float) -> float:
        span = self.hs_max - self.hs_min
        if span <= 0:
            raise ConfigError(
                f"normalize: degenerate stats, hs_min == hs_max == {self.hs_min}"
            )
        return min(1.0, max(0.0, (value - self.hs_min) / span))


def categorize_sf(sf: float) -> int:
    """Clinical S/F bin, 0 (best) through 3 (worst)."""
    if not sf > 0:
        raise DomainError(f"categorize_sf: S/F ratio must be positive, got {sf}")
    if sf > _SF_EDGES[0]:
        return 0
    if sf >= _SF_EDGES[1]:
        return 1
    if sf >= _SF_EDGES[2]:
        return 2
    return 3


def change_label(
    prev_hs: float,
    next_hs: float,
    stats: NormalizationStats | None = None,
    mode: str = "bin",
    tau: float = DEFAULT_TAU,
) -> int:
    """3-way change label for a consecutive scan pair.

    ``bin`` compares S/F bins (lower bin number = healthier); ``threshold``
    compares the normalized score change against ±tau, with the direction
    flag deciding which sign counts as improvement.
    """
    if not (math.isfinite(prev_hs) and math.isfinite(next_hs)):
        raise DomainError(f"change_label: scores must be finite, got {prev_hs}, {next_hs}")
    if mode == "bin":
        prev_bin, next_bin = categorize_sf(prev_hs), categorize_sf(next_hs)
        if next_bin < prev_bin:
            return IMPROVED
        if next_bin > prev_bin:
            return DETERIORATED
        return SAME
    if mode == "threshold":
        if stats is None:
            raise ConfigError("change_label: threshold mode needs normalization stats")
        sign = 1.0 if stats.higher_is_better else -1.0
        delta = (stats.normalize(next_hs) - stats.normalize(prev_hs)) * sign
        if delta > tau:
            return IMPROVED
        if delta < -tau:
            return DETERIORATED
        return SAME
    raise ConfigError(f"change_label: unknown mode {mode!r}")


def records_of(collection: list[PatientSeries]) -> list[ScanRecord]:
    return [rec for series in collection for rec in series.records]


def fit_normalization(
    records: list[ScanRecord], higher_is_better: bool = True
) -> NormalizationStats:
    if not records:
        raise ConfigError("fit_normalization: no records")
    scores = [rec.health_score for rec in records]
    return NormalizationStats(min(scores), max(scores), higher_is_better)


def normalize_hs(records: list[ScanRecord], stats: NormalizationStats) -> list[ScanRecord]:
    """Copies of ``records`` with health scores mapped (and clamped) to [0, 1]."""
    return [replace(rec, health_score=stats.normalize(rec.health_score)) for rec in records]


@dataclass
class SyntheticSpec:
    """Generator settings for the synthetic longitudinal cohort.

    Each patient follows a latent random walk with a per-patient drift;
    the health score is a fixed linear readout of the latent state and the
    features are a full-rank linear mixing of it plus Gaussian noise. The
    patient-to-patient base spread is much larger than the per-step noise,
    so inter-patient score differences dominate intra-patient changes.
    """

    n_patients: int = 100
    scans_per_patient: int = 4
    n_features: int = 12
    latent_dim: int = 3
    noise: float = 0.3
    seed: int = 0
    base_scale: float = 1.8     # patient-level latent offset spread
    drift_scale: float = 0.5    # per-patient per-step drift spread
    step_scale: float = 0.25    # per-step walk noise spread
    hs_center: float = 20.0     # MMSE-like score scale
    hs_scale: float = 4.0

    def __post_init__(self) -> None:
        if self.n_patients < 3:
            raise ConfigError(f"generator: need at least 3 patients, got {self.n_patients}")
        if self.scans_per_patient < 2:
            raise ConfigError(
                f"generator: need at least 2 scans per patient, got {self.scans_per_patient}"
            )
        if self.latent_dim < 1 or self.n_features < self.latent_dim:
            raise ConfigError(
                f"generator: need 1 <= latent_dim <= n_features, got "
                f"{self.latent_dim} and {self.n_features}"
            )
        if self.noise < 0:
            raise ConfigError(f"generator: noise must be non-negative, got {self.noise}")


def generate_synthetic(spec: SyntheticSpec) -> list[PatientSeries]:
    """Deterministic synthetic cohort; same spec (incl. seed) gives identical data."""
    rng = np.random.default_rng(spec.seed)
    readout = rng.normal(size=spec.latent_dim)
    readout /= np.linalg.norm(readout)
    # orthonormal mixing columns keep the latent-to-feature map full rank
    mixing, _ = np.linalg.qr(rng.normal(size=(spec.n_features, spec.latent_dim)))

    width = len(str(spec.n_patients - 1))
    collection = []
    for p in range(spec.n_patients):
        pid = f"p{p:0{width}d}"
        z = rng.normal(scale=spec.base_scale, size=spec.latent_dim)
        drift = rng.normal(scale=spec.drift_scale, size=spec.latent_dim)
        records = []
        for t in range(spec.scans_per_patient):
            if t > 0:
                z = z + drift + rng.normal(scale=spec.step_scale, size=spec.latent_dim)
            score = spec.hs_center + spec.hs_scale * float(readout @ z)
            feats = mixing @ z + spec.noise * rng.normal(size=spec.n_features)
            records.append(ScanRecord(pid, t, feats, score))
        collection.append(PatientSeries(pid, records))
    return collection


def save_dataset(collection: list[PatientSeries], path) -> None:
    records = records_of(collection)
    if not records:
        raise DatasetError("save_dataset: no records")
    n_features = records[0].features.shape[-1]
    header = ["patient_id", "seq_index", "health_score"] + [f"f{i}" for i in range(n_features)]
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        for series in collection:
            for rec in series.records:
                feats = np.asarray(rec.features, dtype=np.float64).reshape(-1)
                if feats.shape[0] != n_features:
                    raise DatasetError(
                        f"save_dataset: record {rec.patient_id}/{rec.seq_index} has "
                        f"{feats.shape[0]} features, expected {n_features}"
                    )
                writer.writerow(
                    [rec.patient_id, rec.seq_index, repr(float(rec.health_score))]
                    + [repr(float(v)) for v in feats]
                )


def load_dataset(path) -> list[PatientSeries]:
    """Parse and validate a dataset file; raises DatasetError with line numbers."""
    with open(path, "r", encoding="utf-8", newline="") as fh:
        rows = list(csv.reader(fh))
    if not rows:
        raise DatasetError(f"{path}: no records")
    header = rows[0]
    if header[:3] != ["patient_id", "seq_index", "health_score"]:
        raise DatasetError(
            f"{path}: line 1: header must start with patient_id,seq_index,health_score"
        )
    feature_names = header[3:]
    if feature_names != [f"f{i}" for i in range(len(feature_names))] or not feature_names:
        raise DatasetError(f"{path}: line 1: feature columns must be f0..f{{F-1}}")
    n_features = len(feature_names)

    seen: set[tuple[str, int]] = set()
    by_patient: dict[str, list[ScanRecord]] = {}
    for lineno, row in enumerate(rows[1:], start=2):
        if not row:
            continue
        if len(row) != 3 + n_features:
            raise DatasetError(
                f"{path}: line {lineno}: expected {3 + n_features} fields, got {len(row)}"
            )
        pid = row[0]
        if not pid:
            raise DatasetError(f"{path}: line {lineno}: empty patient_id")
        try:
            seq = int(row[1])
        except ValueError:
            raise DatasetError(f"{path}: line {lineno}: seq_index {row[1]!r} is not an integer") from None
        if seq < 0:
            raise DatasetError(f"{path}: line {lineno}: seq_index must be non-negative, got {seq}")
        try:
            values = [float(v) for v in row[2:]]
        except ValueError:
            raise DatasetError(f"{path}: line {lineno}: non-numeric value") from None
        if not all(math.isfinite(v) for v in values):
            raise DatasetError(f"{path}: line {lineno}: non-finite value")
        key = (pid, seq)
        if key in seen:
            raise DatasetError(f"{path}: line {lineno}: duplicate (patient_id, seq_index) {key}")
        seen.add(key)
        by_patient.setdefault(pid, []).append(
            ScanRecord(pid, seq, np.asarray(values[1:], dtype=np.float64), values[0])
        )
    if not by_patient:
        raise DatasetError(f"{path}: no records")
    return [
        PatientSeries(pid, sorted(recs, key=lambda r: r.seq_index))
        for pid, recs in by_patient.items()
    ]


def check_fractions(fractions, where: str) -> None:
    """Raise ``ConfigError`` unless there are 3 non-negative fractions summing to 1."""
    if len(fractions) != 3 or any(f < 0 for f in fractions):
        raise ConfigError(f"{where}: need 3 non-negative fractions, got {fractions}")
    if abs(sum(fractions) - 1.0) > 1e-9:
        raise ConfigError(f"{where}: fractions must sum to 1, got {sum(fractions)}")


def split_patients(
    collection: list[PatientSeries],
    fractions: tuple[float, float, float] = DEFAULT_FRACTIONS,
    seed: int = 0,
) -> tuple[list[PatientSeries], list[PatientSeries], list[PatientSeries]]:
    """Patient-level train/val/test split with largest-remainder rounding."""
    check_fractions(fractions, "split_patients")
    n = len(collection)
    raw = [n * f for f in fractions]
    counts = [int(math.floor(r)) for r in raw]
    leftover = n - sum(counts)
    by_remainder = sorted(range(3), key=lambda i: (-(raw[i] - counts[i]), i))
    for i in by_remainder[:leftover]:
        counts[i] += 1
    for frac, count, name in zip(fractions, counts, ("train", "val", "test")):
        if frac > 0 and count == 0:
            raise ConfigError(f"split_patients: {name} split received zero patients")
    order = np.random.default_rng(seed).permutation(n)
    shuffled = [collection[i] for i in order]
    train = shuffled[: counts[0]]
    val = shuffled[counts[0] : counts[0] + counts[1]]
    test = shuffled[counts[0] + counts[1] :]
    return train, val, test


def make_pairs(
    collection: list[PatientSeries],
    stats: NormalizationStats | None = None,
    mode: str = "bin",
    tau: float = DEFAULT_TAU,
) -> list[PairExample]:
    """One labeled example per consecutive scan pair within each patient."""
    if mode not in LABEL_MODES:
        raise ConfigError(f"make_pairs: unknown label mode {mode!r}")
    pairs = []
    for series in collection:
        for prev, nxt in zip(series.records, series.records[1:]):
            label = change_label(prev.health_score, nxt.health_score, stats, mode, tau)
            pairs.append(PairExample(prev, nxt, label))
    return pairs


def _feature_matrix(rows: list[np.ndarray], n_features: int) -> np.ndarray:
    """(N, n_features) float64 stack of N feature vectors; (0, n_features) when N is 0."""
    if not rows:
        return np.zeros((0, n_features))
    return np.stack([np.asarray(r, dtype=np.float64) for r in rows])


def regression_arrays(
    records: list[ScanRecord], stats: NormalizationStats, n_features: int
) -> tuple[np.ndarray, np.ndarray]:
    """Feature matrix and normalized score vector for pre-training; empty for no records."""
    x = _feature_matrix([r.features for r in records], n_features)
    y = np.array([stats.normalize(r.health_score) for r in records], dtype=np.float64)
    return x, y


def pair_arrays(
    pairs: list[PairExample], n_features: int
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(prev features, next features, labels) for the downstream task; empty for no pairs."""
    xp = _feature_matrix([p.prev.features for p in pairs], n_features)
    xn = _feature_matrix([p.next.features for p in pairs], n_features)
    labels = np.array([p.label for p in pairs], dtype=np.int64)
    return xp, xn, labels

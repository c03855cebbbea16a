"""Longitudinal scan data: synthetic generation, ingestion, labels, splits.

Each record is one scan: a feature vector plus a scalar health score. Records
group into per-patient series ordered by sequence index; consecutive records
form pair examples labeled improved / same / deteriorated. Health scores are
min-max normalized with statistics fitted on the training split only, so that
label distances (and the contrastive eps) live on a consistent [0, 1] scale
regardless of whether the raw scores are S/F-like (hundreds) or MMSE-like
(tens).

Dataset files are UTF-8 CSV with a header row:
``patient_id,seq_index,health_score,f0,...,f{F-1}``.
"""

from __future__ import annotations

import csv
import io
import math
import re
from collections.abc import Iterable
from dataclasses import dataclass, field
from itertools import islice

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

    def _span(self) -> float:
        span = self.hs_max - self.hs_min
        if span <= 0:
            raise ConfigError(
                f"normalize: degenerate stats, hs_min == hs_max == {self.hs_min}"
            )
        return span

    def normalize(self, value: float) -> float:
        return min(1.0, max(0.0, (value - self.hs_min) / self._span()))

    def normalize_array(self, values: np.ndarray) -> np.ndarray:
        """``normalize`` of every entry, bit for bit.

        ``np.where`` keeps the picks of ``max``/``min`` where ``np.maximum``
        would not: -0.0 and nan clamp to 0.0.
        """
        span = self._span()
        with np.errstate(over="ignore", invalid="ignore"):  # as quiet as float arithmetic
            scaled = (values - self.hs_min) / span
        scaled = np.where(scaled > 0.0, scaled, 0.0)
        return np.where(scaled < 1.0, scaled, 1.0)


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


def _sf_bins(sf: np.ndarray) -> np.ndarray:
    """``categorize_sf`` of every entry of an array of positive S/F ratios."""
    best, mid, low = _SF_EDGES
    return (sf <= best).astype(np.int64) + (sf < mid) + (sf < low)


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


_HEADER = ["patient_id", "seq_index", "health_score"]

# rows tokenised and parsed at a time, so only one block of token strings is alive
_BLOCK_ROWS = 256

# one line as a file opened with newline="" yields it: ends at \n, \r or \r\n
_LINE = re.compile(r"[^\r\n]*(?:\r\n|\r|\n)|[^\r\n]+")


def _csv_field(value) -> str:
    r"""``value`` as ``csv.writer`` writes it in a row of several fields: quoted if it must be.

    The ``\r\n`` terminator makes the writer quote a value holding ``\r`` as
    well as ``\n``; a bare ``\r`` would end the row when the file is read back.
    """
    buf = io.StringIO()
    csv.writer(buf, lineterminator="\r\n").writerow([value, ""])
    return buf.getvalue()[: -len(",\r\n")]


def save_dataset(collection: list[PatientSeries], path) -> None:
    records = records_of(collection)
    if not records:
        raise DatasetError("save_dataset: no records")
    n_features = records[0].features.shape[-1]
    header = ",".join(_HEADER + [f"f{i}" for i in range(n_features)])
    quoted: dict[str, str] = {}
    lines = [header]
    for rec in records:
        feats = np.asarray(rec.features, dtype=np.float64).reshape(-1)
        if feats.shape[0] != n_features:
            raise DatasetError(
                f"save_dataset: record {rec.patient_id}/{rec.seq_index} has "
                f"{feats.shape[0]} features, expected {n_features}"
            )
        pid = quoted.get(rec.patient_id)
        if pid is None:
            pid = quoted[rec.patient_id] = _csv_field(rec.patient_id)
        # repr of the Python floats: the shortest text that reads back to the same bits
        values = ",".join(map(repr, [float(rec.health_score), *feats.tolist()]))
        lines.append(f"{pid},{rec.seq_index},{values}")
    lines.append("")
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write("\n".join(lines))


def _read_text(path) -> str:
    """The file as UTF-8 text; a leading byte-order mark, as spreadsheet exports write, is dropped."""
    with open(path, "rb") as fh:
        raw = fh.read()
    try:
        return raw.decode("utf-8-sig")
    except UnicodeDecodeError as exc:  # the offset counts from after a mark
        line = exc.object.count(b"\n", 0, exc.start) + 1
        raise DatasetError(f"{path}: line {line}: not UTF-8 text") from None


def _split_rows(text: str, path) -> Iterable[list[str]]:
    r"""The rows ``csv.reader`` reads from ``text`` when it holds no ``"`` and no ``\r``.

    Such text has no quoting and no line end but ``\n``, so ``str.split``
    gives the same rows, a blank line as ``[]``. They come lazily, one line at
    a time. A field longer than ``csv.field_size_limit()`` is an error here
    too, raised before any row is read.
    """
    lines = text.split("\n")
    if lines[-1] == "":
        lines.pop()
    limit = csv.field_size_limit()
    if lines and max(map(len, lines)) > limit:
        for lineno, line in enumerate(lines, start=1):
            if len(line) > limit and max(map(len, line.split(","))) > limit:
                raise DatasetError(f"{path}: line {lineno}: field larger than field limit ({limit})")
    return (line.split(",") if line else [] for line in lines)


def _csv_rows(text: str, path) -> list[list[str]]:
    """The rows ``csv.reader`` reads from ``text``, split into lines as a file read with newline=""."""
    rows: list[list[str]] = []
    try:
        for row in csv.reader(m.group() for m in _LINE.finditer(text)):
            rows.append(row)
    except csv.Error as exc:
        raise DatasetError(f"{path}: line {len(rows) + 1}: {exc}") from None
    return rows


def _row_error(row: list[str], width: int, seen: set) -> str | None:
    """What is wrong with one non-blank data row, checked in the order the file format states.

    Adds the row's (patient_id, seq_index) key to ``seen`` when nothing is.
    """
    if len(row) != width:
        return f"expected {width} fields, got {len(row)}"
    pid = row[0]
    if not pid:
        return "empty patient_id"
    try:
        seq = int(row[1])
    except ValueError:
        return f"seq_index {row[1]!r} is not an integer"
    if seq < 0:
        return f"seq_index must be non-negative, got {seq}"
    try:
        values = [float(v) for v in row[2:]]
    except ValueError:
        return "non-numeric value"
    if not all(math.isfinite(v) for v in values):
        return "non-finite value"
    key = (pid, seq)
    if key in seen:
        return f"duplicate (patient_id, seq_index) {key}"
    seen.add(key)
    return None


def _parse_block(rows: list[list[str]], width: int, seen: set):
    """(patient ids, seq indices, (n, width - 2) values) of a block's non-blank rows.

    Returns None when a row is malformed; ``seen`` then holds what it held.
    """
    body = [row for row in rows if row]
    if not body:
        return [], [], np.zeros((0, width - 2))
    if set(map(len, body)) != {width}:
        return None
    pids = [row[0] for row in body]
    if "" in pids:
        return None
    try:
        seqs = list(map(int, [row[1] for row in body]))
        # goes through float() for each string, so it accepts what float() does, bit for bit
        values = np.array([row[2:] for row in body], dtype=np.float64)
    except ValueError:
        return None
    keys = list(zip(pids, seqs))
    if (
        min(seqs) < 0
        or not np.isfinite(values).all()
        or len(set(keys)) != len(keys)
        or not seen.isdisjoint(keys)
    ):
        return None
    seen.update(keys)
    return pids, seqs, values


def load_dataset(path) -> list[PatientSeries]:
    r"""Parse and validate a UTF-8 dataset file; raises DatasetError naming the line.

    The file is read once. Text holding neither ``"`` nor ``
`` is split on
    ``
`` and ``,``; other text goes through ``csv.reader``, so quoted ids
    and CRLF line ends work; both give the same rows. Bytes that are not
    UTF-8 and a field longer than ``csv.field_size_limit()`` raise before any
    row is checked. Blank lines are skipped but counted: line N is the N-th
    row ``csv.reader`` reads (the physical line, for bytes that are not
    UTF-8). Numbers parse as ``int()`` and ``float()`` parse them, a block of
    rows at a time. The first bad row raises, with the first of its faults in
    this order: field count, empty patient_id, seq_index not an integer or
    negative, a value not numeric or not finite, a duplicate (patient_id,
    seq_index). Each record's features are a row view of one (N, F) matrix;
    its health score is a Python float.
    """
    text = _read_text(path)
    rows = iter(_csv_rows(text, path) if '"' in text or "\r" in text else _split_rows(text, path))
    del text  # the rows hold all of it that is still needed
    header = next(rows, None)
    if header is None:
        raise DatasetError(f"{path}: no records")
    if header[:3] != _HEADER:
        raise DatasetError(
            f"{path}: line 1: header must start with patient_id,seq_index,health_score"
        )
    feature_names = header[3:]
    if feature_names != [f"f{i}" for i in range(len(feature_names))] or not feature_names:
        raise DatasetError(f"{path}: line 1: feature columns must be f0..f{{F-1}}")
    width = 3 + len(feature_names)

    pids: list[str] = []
    seqs: list[int] = []
    blocks: list[np.ndarray] = []
    seen: set[tuple[str, int]] = set()
    lineno = 2  # of the block's first row
    for block in iter(lambda: list(islice(rows, _BLOCK_ROWS)), []):
        parsed = _parse_block(block, width, seen)
        if parsed is None:  # the per-row checks find the block's first bad row and say what is wrong
            for offset, row in enumerate(block):
                error = _row_error(row, width, seen) if row else None
                if error is not None:
                    raise DatasetError(f"{path}: line {lineno + offset}: {error}")
        pids += parsed[0]
        seqs += parsed[1]
        blocks.append(parsed[2])
        lineno += len(block)
    if not pids:
        raise DatasetError(f"{path}: no records")
    values = np.concatenate(blocks)
    del blocks
    by_patient: dict[str, list[ScanRecord]] = {}
    for pid, seq, score, features in zip(pids, seqs, values[:, 0].tolist(), values[:, 1:]):
        by_patient.setdefault(pid, []).append(ScanRecord(pid, seq, features, score))
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


def _check_label_mode(mode: str) -> None:
    # one message for make_pairs and pair_labels, its array form
    if mode not in LABEL_MODES:
        raise ConfigError(f"make_pairs: unknown label mode {mode!r}")


def make_pairs(
    collection: list[PatientSeries],
    stats: NormalizationStats | None = None,
    mode: str = "bin",
    tau: float = DEFAULT_TAU,
) -> list[PairExample]:
    """One labeled example per consecutive scan pair within each patient."""
    _check_label_mode(mode)
    pairs = []
    for series in collection:
        for prev, nxt in zip(series.records, series.records[1:]):
            label = change_label(prev.health_score, nxt.health_score, stats, mode, tau)
            pairs.append(PairExample(prev, nxt, label))
    return pairs


def series_arrays(
    collection: list[PatientSeries], n_features: int
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(features, health scores, prev) of the records of ``collection``, in ``records_of`` order.

    ``features`` is an (N, n_features) float64 matrix, (0, n_features) for no
    records. ``prev`` holds the position of every record that is not the last
    of its patient, so ``(prev, prev + 1)`` are the pairs of ``make_pairs``,
    in its order.
    """
    records = records_of(collection)
    if records:
        x = np.stack([np.asarray(r.features, dtype=np.float64) for r in records])
    else:
        x = np.zeros((0, n_features))
    scores = np.array([r.health_score for r in records], dtype=np.float64)
    lengths = np.array([len(series.records) for series in collection], dtype=np.int64)
    not_last = np.ones(len(records), dtype=bool)
    not_last[np.cumsum(lengths)[lengths > 0] - 1] = False
    return x, scores, np.flatnonzero(not_last)


def pair_labels(
    prev_hs: np.ndarray,
    next_hs: np.ndarray,
    stats: NormalizationStats,
    mode: str = "bin",
    tau: float = DEFAULT_TAU,
) -> np.ndarray:
    """``change_label`` of every pair ``(prev_hs[k], next_hs[k])``, as one int64 array.

    The first pair ``change_label`` rejects (a non-finite score, or in ``bin``
    mode a non-positive one) raises its error.
    """
    _check_label_mode(mode)
    valid = np.isfinite(prev_hs) & np.isfinite(next_hs)
    if mode == "bin":
        valid &= (prev_hs > 0) & (next_hs > 0)
    if not valid.all():
        k = int(np.argmin(valid))
        change_label(float(prev_hs[k]), float(next_hs[k]), stats, mode, tau)
    if mode == "bin":
        before, after = _sf_bins(prev_hs), _sf_bins(next_hs)
        return np.where(after < before, IMPROVED, np.where(after > before, DETERIORATED, SAME))
    sign = 1.0 if stats.higher_is_better else -1.0
    delta = (stats.normalize_array(next_hs) - stats.normalize_array(prev_hs)) * sign
    return np.where(delta > tau, IMPROVED, np.where(delta < -tau, DETERIORATED, SAME))

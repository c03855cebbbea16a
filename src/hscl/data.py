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

import codecs
import csv
import io
import math
import re
from collections.abc import Iterable, Iterator
from dataclasses import dataclass, field
from itertools import chain, islice

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
class NormalizationStats:
    """Min-max scale fitted on the training split; applied to every split."""

    hs_min: float
    hs_max: float
    higher_is_better: bool = True

    def normalize_array(self, values: np.ndarray) -> np.ndarray:
        """``(values - hs_min) / (hs_max - hs_min)``, clamped to [0, 1]; -0.0 and NaN map to 0.0."""
        span = self.hs_max - self.hs_min
        if span <= 0:
            raise ConfigError(f"normalize: degenerate stats, hs_min == hs_max == {self.hs_min}")
        with np.errstate(over="ignore", invalid="ignore"):  # as quiet as float arithmetic
            scaled = (values - self.hs_min) / span
        # np.where, not np.maximum: the comparison sends -0.0 and NaN to 0.0
        scaled = np.where(scaled > 0.0, scaled, 0.0)
        return np.where(scaled < 1.0, scaled, 1.0)


def _sf_bins(sf: np.ndarray) -> np.ndarray:
    """Clinical S/F bin of every entry of an array of positive S/F ratios, 0 (best) through 3 (worst)."""
    best, mid, low = _SF_EDGES
    return (sf <= best).astype(np.int64) + (sf < mid) + (sf < low)


def categorize_sf(sf: float) -> int:
    """Clinical S/F bin, 0 (best) through 3 (worst)."""
    if not sf > 0:
        raise DomainError(f"categorize_sf: S/F ratio must be positive, got {sf}")
    return int(_sf_bins(np.asarray(sf)))


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
        for name in ("noise", "base_scale", "drift_scale", "step_scale", "hs_scale"):
            if not 0 <= getattr(self, name) < math.inf:
                raise ConfigError(f"generator: {name} must be non-negative and finite, got {getattr(self, name)}")
        if not math.isfinite(self.hs_center):
            raise ConfigError(f"generator: hs_center must be finite, got {self.hs_center}")
        if self.seed < 0:
            raise ConfigError(f"generator: seed must be non-negative, got {self.seed}")


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

# rows tokenised and parsed, or formatted and written, at a time, so only one block of row text is alive
_BLOCK_ROWS = 256
# bytes read and decoded at a time; a file of at most this size is read and decoded in one piece
_CHUNK_BYTES = 1 << 17
# a line as a file opened with newline="" gives it to csv.reader: up to \n, \r\n or a lone \r, the last maybe without
_CSV_LINE = re.compile(r"[^\r\n]*(?:\r\n?|\n)|[^\r\n]+")


def _csv_field(value) -> str:
    r"""``value`` as ``csv.writer`` writes it in a row of several fields: quoted if it must be.

    The ``\r\n`` terminator makes the writer quote a value holding ``\r`` as
    well as ``\n``; a bare ``\r`` would end the row when the file is read back.
    """
    buf = io.StringIO()
    csv.writer(buf, lineterminator="\r\n").writerow([value, ""])
    return buf.getvalue()[: -len(",\r\n")]


def _features(rec: ScanRecord) -> np.ndarray:
    """The record's features as the flat float64 vector that is written."""
    return np.asarray(rec.features, dtype=np.float64).reshape(-1)


def _check_record(rec: ScanRecord, columns: list[str]) -> None:
    """Raise the first fault of one record: a width other than ``columns``', then a value that is not finite."""
    feats = _features(rec)
    if feats.shape[0] != len(columns) - 3:
        raise DatasetError(
            f"save_dataset: record {rec.patient_id}/{rec.seq_index} has "
            f"{feats.shape[0]} features, expected {len(columns) - 3}"
        )
    row = [float(rec.health_score), *feats.tolist()]
    if not all(map(math.isfinite, row)):  # load_dataset would reject it
        bad = ", ".join(f"{name}={v!r}" for name, v in zip(columns[2:], row) if not math.isfinite(v))
        raise DatasetError(
            f"save_dataset: record {rec.patient_id}/{rec.seq_index} has a non-finite value: {bad}"
        )


def _block_is_fine(block: list[ScanRecord], n_features: int) -> bool:
    """Whether the records of ``block``, stacked as one array, have ``n_features`` features and only finite values.

    False too where the features do not stack as one (n, ``n_features``)
    matrix, or a value has no float: the record checks then decide.
    """
    try:
        feats = np.array([rec.features for rec in block], dtype=np.float64)
        scores = np.array([float(rec.health_score) for rec in block])
    except (TypeError, ValueError, OverflowError):
        return False
    return feats.shape == (len(block), n_features) and bool(np.isfinite(feats).all() and np.isfinite(scores).all())


def _check_records(records: list[ScanRecord], columns: list[str]) -> None:
    """Raise the first fault of ``records``, in record order; a block of them at a time is checked as one array."""
    for start in range(0, len(records), _BLOCK_ROWS):
        block = records[start : start + _BLOCK_ROWS]
        if not _block_is_fine(block, len(columns) - 3):
            for rec in block:
                _check_record(rec, columns)


def save_dataset(collection: list[PatientSeries], path) -> None:
    """Write ``collection`` as a dataset file that ``load_dataset`` reads back to the bit.

    The width is the first record's number of features, flattened. Every
    record is checked before the file is opened, in record order, and the
    first fault raises ``DatasetError``: a record of another width, then a
    score or feature that is not finite. Then ``_BLOCK_ROWS`` rows at a time
    are formatted and written, so only one block's text is alive, not the
    file's: under tracemalloc, saving a 400 x 6 x 32 cohort (a 1.51 MiB file)
    peaks at 0.56 MiB, where holding the whole text peaked at 4.72 MiB.
    """
    records = records_of(collection)
    if not records:
        raise DatasetError("save_dataset: no records")
    columns = _HEADER + [f"f{i}" for i in range(_features(records[0]).shape[0])]
    _check_records(records, columns)
    quoted: dict[str, str] = {}
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(",".join(columns) + "\n")
        for start in range(0, len(records), _BLOCK_ROWS):
            lines = []
            for rec in records[start : start + _BLOCK_ROWS]:
                pid = quoted.get(rec.patient_id)
                if pid is None:
                    pid = quoted[rec.patient_id] = _csv_field(rec.patient_id)
                # repr of the Python floats: the shortest text that reads back to the same bits
                values = ",".join(map(repr, [float(rec.health_score), *_features(rec).tolist()]))
                lines.append(f"{pid},{rec.seq_index},{values}\n")
            fh.write("".join(lines))


def _decoded(fh, path) -> Iterator[str]:
    """The text of the binary file ``fh``, read and decoded ``_CHUNK_BYTES`` at a time.

    A leading byte-order mark, as spreadsheet exports write, is dropped. A
    byte that is not UTF-8 raises ``DatasetError`` naming its physical line
    when its chunk is decoded.
    """
    decoder = codecs.getincrementaldecoder("utf-8")()
    newlines = 0  # in the text given so far
    mark = True  # no text given yet, so a mark would be the next character
    final = False
    while not final:
        raw = fh.read(_CHUNK_BYTES)
        final = len(raw) < _CHUNK_BYTES
        try:
            text = decoder.decode(raw, final)
        except UnicodeDecodeError as exc:  # the offset counts from the bytes the decoder held over
            line = newlines + exc.object.count(b"\n", 0, exc.start) + 1
            raise DatasetError(f"{path}: line {line}: not UTF-8 text") from None
        del raw
        if mark and text:
            text, mark = text.removeprefix("\ufeff"), False
        newlines += text.count("\n")
        yield text
        del text  # before the next chunk is read


def _csv_lines(texts: Iterable[str]) -> Iterator[str]:
    r"""The lines of the joined ``texts`` as a file opened with newline="" gives them to ``csv.reader``."""
    rest = ""  # a line the texts so far may not end: it has no line end, or a \r that may yet be a \r\n
    for text in texts:
        if rest.endswith("\r") and not text.startswith("\n"):
            yield rest
            rest = ""
        lines = _CSV_LINE.findall(text)  # the new text only: rescanning rest would make a long line quadratic
        if lines:
            lines[0] = rest + lines[0]
            rest = lines.pop() if not lines[-1].endswith("\n") else ""
            yield from lines
    if rest:
        yield rest


def _field_fault(lines: list[str], first: int) -> str | None:
    """What is wrong with the first of ``lines``, numbered from ``first``, holding a field over ``csv.field_size_limit()``."""
    limit = csv.field_size_limit()
    if lines and max(map(len, lines)) > limit:
        for lineno, line in enumerate(lines, start=first):
            if len(line) > limit and max(map(len, line.split(","))) > limit:
                return f"line {lineno}: field larger than field limit ({limit})"
    return None


def _rows(fh, path) -> Iterator[list[str]]:
    r"""The rows ``csv.reader`` reads from the text of the binary file ``fh``, a chunk of it at a time.

    Until a chunk holds ``"`` or ``\r``, the text has no quoting and no line
    end but ``\n``, so ``str.split`` on ``\n`` and ``,`` gives the same rows, a
    blank line as ``[]``, lazily. From the first chunk that holds either, the
    lines go through one ``csv.reader``. A fault of the file itself, a field
    longer than ``csv.field_size_limit()`` or another ``csv.Error``, raises
    ``DatasetError`` naming its row only when the rest of the file is
    decoded, so that bytes that are not UTF-8 anywhere in it are reported first.
    """
    texts = _decoded(fh, path)
    n_rows = 0  # given so far
    rest = ""  # the start of a line that the chunks so far do not end
    for text in texts:
        if '"' in text or "\r" in text:
            try:
                for row in csv.reader(_csv_lines(chain([rest, text], texts))):
                    n_rows += 1
                    yield row
                return
            except csv.Error as exc:
                fault = f"line {n_rows + 1}: {exc}"
                break
        lines = text.split("\n")
        del text  # the lines hold all of it
        lines[0] = rest + lines[0]
        rest = lines.pop()
        fault = _field_fault(lines, n_rows + 1)
        if fault is not None:
            break
        n_rows += len(lines)
        yield from (line.split(",") if line else [] for line in lines)
        del lines  # before the next chunk is read
    else:  # the last line, if the file does not end in a line end
        fault = _field_fault([rest], n_rows + 1)
        if fault is None:
            if rest:
                yield rest.split(",")
            return
    for _ in texts:  # bytes that are not UTF-8, later in the file, are reported first
        pass
    raise DatasetError(f"{path}: {fault}")


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

    The file is read in one pass, ``_CHUNK_BYTES`` at a time, so a smaller
    file in one read. Text holding neither ``"`` nor ``\r`` is
    split on ``\n`` and ``,``; from the first chunk that holds either, the
    text goes through ``csv.reader``, so quoted ids and CRLF line ends work;
    both give the same rows. Blank lines are skipped but counted: line N is
    the N-th row ``csv.reader`` reads (the physical line, for bytes that are
    not UTF-8). Numbers parse as ``int()`` and ``float()`` parse them, a block
    of ``_BLOCK_ROWS`` rows at a time. A fault of the file itself wins over
    any fault of its rows, wherever each is: bytes that are not UTF-8 first,
    then a field longer than ``csv.field_size_limit()`` or another
    ``csv.Error``. Else a bad header, or the first bad row, raises, with the
    first of its faults in this order: field count, empty patient_id,
    seq_index not an integer or negative, a value not numeric or not finite, a
    duplicate (patient_id, seq_index). Each record's features are a row view
    of one (N, F) matrix; its health score is a Python float.

    Only one chunk of text and one block of tokens are alive at a time: under
    tracemalloc, loading a 400 x 6 x 32 cohort (a 1.51 MiB file) peaks 0.50
    MiB above the records it returns, where holding the whole text peaked
    2.34 MiB above them.
    """
    with open(path, "rb") as fh:
        rows = _rows(fh, path)
        header = next(rows, None)
        if header is None:
            raise DatasetError(f"{path}: no records")
        feature_names = header[3:]
        fault = None
        if header[:3] != _HEADER:
            fault = "line 1: header must start with patient_id,seq_index,health_score"
        elif feature_names != [f"f{i}" for i in range(len(feature_names))] or not feature_names:
            fault = "line 1: feature columns must be f0..f{F-1}"
        width = 3 + len(feature_names)
        pids: list[str] = []
        seqs: list[int] = []
        blocks: list[np.ndarray] = []
        seen: set[tuple[str, int]] = set()
        lineno = 2  # of the block's first row
        while fault is None and (block := list(islice(rows, _BLOCK_ROWS))):
            parsed = _parse_block(block, width, seen)
            if parsed is None:  # the per-row checks find the block's first bad row and say what is wrong
                fault = next(
                    f"line {lineno + offset}: {error}"
                    for offset, row in enumerate(block)
                    if row and (error := _row_error(row, width, seen)) is not None
                )
                break
            pids += parsed[0]
            seqs += parsed[1]
            blocks.append(parsed[2])
            lineno += len(block)
            del block, parsed  # before the next block is tokenised
        if fault is not None:
            for _ in rows:  # a fault of the file itself, later in it, is reported first
                pass
            raise DatasetError(f"{path}: {fault}")
    del seen  # a key per row: freed before the records are built
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
    if len(fractions) != 3 or not all(f >= 0 for f in fractions):  # NaN is not >= 0
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


def series_arrays(
    collection: list[PatientSeries], n_features: int
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(features, health scores, prev) of the records of ``collection``, in ``records_of`` order.

    ``features`` is an (N, n_features) float64 matrix, (0, n_features) for no
    records. ``prev`` holds the position of every record that is not the last
    of its patient, so ``(prev, prev + 1)`` are the consecutive scan pairs
    within each patient, patient by patient.
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
    stats: NormalizationStats | None,
    mode: str,
    tau: float = DEFAULT_TAU,
) -> np.ndarray:
    """3-way change label of every consecutive scan pair ``(prev_hs[k], next_hs[k])``, as one int64 array.

    ``bin`` compares S/F bins (lower bin number = healthier); ``threshold``
    compares the normalized score change against ±tau, with the direction
    flag deciding which sign counts as improvement. An unknown mode, and
    ``threshold`` mode without stats, raise ``ConfigError``. Then the first
    pair with a non-finite score, or in ``bin`` mode a non-positive one,
    raises ``DomainError``: finiteness first, then ``prev``, then ``next``.
    """
    if mode not in LABEL_MODES:
        raise ConfigError(f"pair_labels: unknown label mode {mode!r}")
    if mode == "threshold" and stats is None:
        raise ConfigError("pair_labels: threshold mode needs normalization stats")
    valid = np.isfinite(prev_hs) & np.isfinite(next_hs)
    if mode == "bin":
        valid &= (prev_hs > 0) & (next_hs > 0)
    if not valid.all():
        k = int(np.argmin(valid))
        prev, nxt = float(prev_hs[k]), float(next_hs[k])
        if not (math.isfinite(prev) and math.isfinite(nxt)):
            raise DomainError(f"pair_labels: scores must be finite, got {prev}, {nxt}")
        categorize_sf(prev)
        categorize_sf(nxt)
    if mode == "bin":
        before, after = _sf_bins(prev_hs), _sf_bins(next_hs)
        return np.where(after < before, IMPROVED, np.where(after > before, DETERIORATED, SAME))
    sign = 1.0 if stats.higher_is_better else -1.0
    delta = (stats.normalize_array(next_hs) - stats.normalize_array(prev_hs)) * sign
    return np.where(delta > tau, IMPROVED, np.where(delta < -tau, DETERIORATED, SAME))

"""Longitudinal scan data: synthetic generation, ingestion, labels, splits.

A cohort is one ``Cohort`` of arrays, one row per scan: a feature vector and
a scalar health score. Rows are grouped by patient and ordered by sequence
index; consecutive scans of one patient form pair examples labeled
improved / same / deteriorated. Health scores are
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
from collections.abc import Iterator
from dataclasses import dataclass
from itertools import chain

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


def _ascending(codes: np.ndarray, seq: np.ndarray) -> np.ndarray:
    """Whether each row after the first comes after the row before it: of a later patient, or of a higher seq_index."""
    return (codes[1:] > codes[:-1]) | ((codes[1:] == codes[:-1]) & (seq[1:] > seq[:-1]))


class Cohort:
    """Scans of many patients as arrays, one row per scan, grouped by patient and ordered by seq_index.

    ``patient_ids`` holds one id per patient, in order of first appearance,
    and ``scans`` (P,) int64 the number of rows of each; ``seq_index`` (N,)
    int64, ``scores`` (N,) float64 and ``features`` (N, F) float64 hold the
    rows, patient by patient.
    """

    __slots__ = ("patient_ids", "scans", "seq_index", "scores", "features")

    def __init__(self, patient_ids, seq_index, scores, features) -> None:
        """The cohort of rows given as each row's patient id, seq_index, score and features, in any order.

        Rows are grouped by patient in order of first appearance, each
        patient's sorted by seq_index. A repeated (patient_id, seq_index),
        features that are not one (N, F) matrix, and a seq_index that is not a
        64-bit integer raise ``DatasetError``.
        """
        first: dict[str, int] = {}
        n = len(patient_ids)
        codes = np.fromiter((first.setdefault(pid, len(first)) for pid in patient_ids), dtype=np.int64, count=n)
        try:
            seq = np.asarray(seq_index, dtype=np.int64)
            values = np.asarray(scores, dtype=np.float64)
            feats = np.asarray(features, dtype=np.float64)
        except (TypeError, ValueError, OverflowError) as exc:
            raise DatasetError(f"cohort: rows do not form arrays: {exc}") from None
        if feats.ndim != 2 or feats.shape[0] != n or seq.shape != (n,) or values.shape != (n,):
            raise DatasetError(
                f"cohort: {n} patient ids, {seq.shape} seq_index, {values.shape} scores and "
                f"{feats.shape} features do not form {n} rows of one features matrix"
            )
        self.patient_ids = tuple(first)
        if not _ascending(codes, seq).all():  # rows that come in order, as generated or saved, are not copied
            order = np.lexsort((seq, codes))
            codes, seq, values, feats = codes[order], seq[order], values[order], feats[order]
            repeated = np.flatnonzero(~_ascending(codes, seq))  # sorted, only a repeat is out of order
            if len(repeated):
                k = repeated[0]
                raise DatasetError(
                    f"cohort: duplicate (patient_id, seq_index) {(self.patient_ids[codes[k]], int(seq[k]))}"
                )
        self.scans = np.bincount(codes, minlength=len(first))
        self.seq_index, self.scores, self.features = seq, values, feats

    def row_patient_ids(self) -> np.ndarray:
        """Each row's patient id, as an (N,) object array."""
        return np.repeat(np.array(self.patient_ids, dtype=object), self.scans)

    def pair_index(self) -> np.ndarray:
        """The row of every scan that is not its patient's last: ``(prev, prev + 1)`` are the consecutive scan pairs."""
        not_last = np.ones(len(self.scores), dtype=bool)
        not_last[np.cumsum(self.scans) - 1] = False
        return np.flatnonzero(not_last)

    def patients(self, positions: np.ndarray) -> Cohort:
        """The cohort of the patients at ``positions``, in that order."""
        starts = np.cumsum(self.scans) - self.scans
        lengths = self.scans[positions]
        # row j of the new cohort is row j of the old one, shifted by its patient's old start less its new one
        rows = np.arange(lengths.sum()) + np.repeat(starts[positions] - (np.cumsum(lengths) - lengths), lengths)
        return Cohort(self.row_patient_ids()[rows], self.seq_index[rows], self.scores[rows], self.features[rows])


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


def fit_normalization(scores: np.ndarray, higher_is_better: bool = True) -> NormalizationStats:
    """The min-max scale of ``scores``; of equal extremes, such as 0.0 and -0.0, the first is taken, as ``min`` takes it."""
    if len(scores) == 0:
        raise ConfigError("fit_normalization: no records")
    return NormalizationStats(float(scores[np.argmin(scores)]), float(scores[np.argmax(scores)]), higher_is_better)


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


# normal draws per chunk of patients in generate_synthetic (256 KiB of float64)
_GEN_CHUNK_DRAWS = 1 << 15


def generate_synthetic(spec: SyntheticSpec) -> Cohort:
    """Deterministic synthetic cohort; same spec (incl. seed) gives identical data.

    Built as whole arrays, to the bit what drawing one patient and one scan
    at a time gives (``tests/oracles.generate_synthetic_ref``): one
    ``standard_normal`` call reads a chunk of patients' draws in that order,
    the walk runs once per scan over the chunk, and the readout and mixing
    are stacked products that run each scan's dot and gemv. A chunk holds
    about ``_GEN_CHUNK_DRAWS`` draws, so the transient arrays stay that size
    however wide or large the cohort.
    """
    rng = np.random.default_rng(spec.seed)
    readout = rng.normal(size=spec.latent_dim)
    readout /= np.linalg.norm(readout)
    # orthonormal mixing columns keep the latent-to-feature map full rank
    mixing, _ = np.linalg.qr(rng.normal(size=(spec.n_features, spec.latent_dim)))

    n_patients, n_scans, dim, n_feat = spec.n_patients, spec.scans_per_patient, spec.latent_dim, spec.n_features
    features = np.empty((n_patients, n_scans, n_feat))
    scores = np.empty((n_patients, n_scans))
    # a patient's row: its (L,) latent start, then per scan an (L,) walk draw (the drift
    # at scan 0, a step after it) and the scan's (F,) noise draw
    row = dim + n_scans * (dim + n_feat)
    chunk = max(1, _GEN_CHUNK_DRAWS // row)
    for lo in range(0, n_patients, chunk):
        draws = rng.standard_normal((min(chunk, n_patients - lo), row))
        n = len(draws)
        per_scan = draws[:, dim:].reshape(n, n_scans, dim + n_feat)
        # Generator.normal(scale=s) gives 0.0 + s * draw; the noise draws are of scale 1
        z = np.empty((n, n_scans, dim))
        z[:, 0] = 0.0 + spec.base_scale * draws[:, :dim]
        drift = 0.0 + spec.drift_scale * per_scan[:, 0, :dim]
        steps = 0.0 + spec.step_scale * per_scan[:, 1:, :dim]
        for t in range(1, n_scans):
            z[:, t] = z[:, t - 1] + drift + steps[:, t - 1]
        z = z.reshape(n * n_scans, dim)
        # the features start as each scan's noise term, its mixing added after: the product
        # and the sum commute, so the bits are those of mixing @ z + noise * draw
        feats = features[lo : lo + n]
        np.add(per_scan[:, :, dim:], 0.0, out=feats)
        feats *= spec.noise
        # stacked, each scan's product is the dot or gemv of one scan's; one gemm rounds otherwise
        feats += np.matmul(mixing, z[:, :, None]).reshape(n, n_scans, n_feat)
        scores[lo : lo + n] = (spec.hs_center + spec.hs_scale * np.matmul(z[:, None, :], readout)).reshape(n, n_scans)

    width = len(str(n_patients - 1))
    pids = np.repeat(np.array([f"p{p:0{width}d}" for p in range(n_patients)], dtype=object), n_scans)
    seq = np.tile(np.arange(n_scans), n_patients)
    return Cohort(pids, seq, scores.reshape(-1), features.reshape(n_patients * n_scans, n_feat))


_HEADER = ["patient_id", "seq_index", "health_score"]

# rows tokenised and parsed, or formatted and written, at a time, so only one block of row text is alive
_BLOCK_ROWS = 256
# characters read at a time, then read on to a line end; a file of at most this many characters is one piece
_CHUNK_CHARS = 1 << 17
# a piece holding any of these goes through csv.reader, not np.loadtxt: quotes and \r need csv.reader's
# rules, and np.loadtxt strips \x1c-\x1f around a value as whitespace, where float() refuses the value
_NOT_PLAIN = ('"', "\r", "\x1c", "\x1d", "\x1e", "\x1f")
# how a dataset file is read: as UTF-8 text, a byte that is not UTF-8 as a surrogate (_NOT_UTF8), and
# every line end as it is, as csv.reader needs; readline() then stops at \n, \r\n and a lone \r
_TEXT_MODE = {"encoding": "utf-8", "errors": "surrogateescape", "newline": ""}
# the characters _TEXT_MODE reads a byte that is not UTF-8 as
_NOT_UTF8 = re.compile("[\udc80-\udcff]")
# the largest seq_index: a Cohort holds them as int64
_SEQ_MAX = 2**63 - 1


def _csv_field(value) -> str:
    r"""``value`` as ``csv.writer`` writes it in a row of several fields: quoted if it must be.

    The ``\r\n`` terminator makes the writer quote a value holding ``\r`` as
    well as ``\n``; a bare ``\r`` would end the row when the file is read back.
    """
    buf = io.StringIO()
    csv.writer(buf, lineterminator="\r\n").writerow([value, ""])
    return buf.getvalue()[: -len(",\r\n")]


def save_dataset(cohort: Cohort, path) -> None:
    """Write ``cohort`` as a dataset file that ``load_dataset`` reads back to the bit.

    A score or feature that is not finite raises ``DatasetError`` naming the
    first row that holds one, before the file is opened. Then
    ``_BLOCK_ROWS`` rows at a time are formatted and written, so only one
    block's text is alive, not the file's: under tracemalloc, saving a
    400 x 6 x 32 cohort (a 1.51 MiB file) peaks at 0.66 MiB, where holding
    the whole text peaked at 4.72 MiB.
    """
    n = len(cohort.scores)
    if n == 0:
        raise DatasetError("save_dataset: no records")
    columns = _HEADER + [f"f{i}" for i in range(cohort.features.shape[1])]
    finite = np.isfinite(cohort.scores) & np.isfinite(cohort.features).all(axis=1)
    if not finite.all():  # load_dataset would reject it
        k = int(np.argmin(finite))
        row = [float(cohort.scores[k]), *cohort.features[k].tolist()]
        bad = ", ".join(f"{name}={v!r}" for name, v in zip(columns[2:], row) if not math.isfinite(v))
        raise DatasetError(
            f"save_dataset: record {cohort.row_patient_ids()[k]}/{cohort.seq_index[k]} has a non-finite value: {bad}"
        )
    quoted = np.repeat(np.array([_csv_field(pid) for pid in cohort.patient_ids], dtype=object), cohort.scans)
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(",".join(columns) + "\n")
        for start in range(0, n, _BLOCK_ROWS):
            block = slice(start, start + _BLOCK_ROWS)
            # repr of the Python floats: the shortest text that reads back to the same bits
            values = np.column_stack((cohort.scores[block], cohort.features[block])).tolist()
            fh.write("".join(
                f"{pid},{seq},{','.join(map(repr, row))}\n"
                for pid, seq, row in zip(quoted[block], cohort.seq_index[block].tolist(), values)
            ))


def _texts(fh) -> Iterator[str]:
    r"""The text of the text file ``fh`` in pieces of whole lines: ``_CHUNK_CHARS`` read, then read on to a line end.

    A piece that stops inside a line is read on with ``readline()``, to
    ``\n``, ``\r\n`` or a lone ``\r`` (``fh`` is opened with
    ``_TEXT_MODE``); one that stops after a ``\r`` takes the next
    character too if it is the ``\n`` of a pair, else carries it into the
    next piece. So every piece but the last ends a line, and none cuts a
    ``\r\n`` pair. A leading byte-order mark, as spreadsheet exports write,
    is dropped.
    """
    carry = fh.read(1).removeprefix("\ufeff")  # read ahead of the next piece: at first, the first character
    while text := carry + fh.read(_CHUNK_CHARS):
        carry = ""
        if text.endswith("\r"):
            if (carry := fh.read(1)) == "\n":
                text, carry = text + carry, ""
        elif not text.endswith("\n"):
            text += fh.readline()
        yield text
        del text  # before the next piece is read


def _check_utf8(text: str, newlines: int, path) -> None:
    r"""Raise ``DatasetError`` naming the physical line of the first byte of ``text`` that is not UTF-8, if any.

    ``errors="surrogateescape"`` reads such a byte as a character in
    U+DC80-U+DCFF, which UTF-8 text never decodes to. ``newlines`` counts
    the ``\n`` before ``text``.
    """
    if not text.isascii() and (bad := _NOT_UTF8.search(text)):
        line = newlines + text.count("\n", 0, bad.start()) + 1
        raise DatasetError(f"{path}: line {line}: not UTF-8 text")


def _checked(texts: Iterator[str], newlines: int, path) -> Iterator[str]:
    r"""``texts``, each checked by ``_check_utf8`` before it is given; ``newlines`` counts the ``\n`` before the first."""
    for text in texts:
        _check_utf8(text, newlines, path)
        newlines += text.count("\n")
        yield text


def _csv_lines(texts: Iterator[str]) -> Iterator[str]:
    r"""The lines of ``texts``, each with its line end: ``\r\n``, a lone ``\r`` or ``\n``.

    These are the lines ``csv.reader`` takes from a file opened with
    ``newline=""``. ``str.splitlines`` also ends a line at ``\x0b``,
    ``\x85``, ``\u2028`` and more, so a part it ends there is joined to the
    next. A piece's lines are held as strings, a byte per ASCII character,
    where an ``io.StringIO`` of it holds four.
    """
    for text in texts:
        parts = text.splitlines(keepends=True)
        del text
        line = ""
        for part in parts:
            line += part
            if part.endswith(("\n", "\r")):
                yield line
                line = ""
        if line:  # the last line of the file, with no line end
            yield line
        del parts  # before the next piece is split


def _runs(fh, path) -> Iterator[list[str] | list[list[str]]]:
    r"""The rows of the text file ``fh`` in runs, a piece of whole lines at a time: a plain piece's lines as text, then ``csv.reader`` rows.

    A plain piece holds none of ``_NOT_PLAIN`` and no line longer than
    ``csv.field_size_limit()``. Its lines are given as one run of their
    texts, which ``csv.reader`` would split at ``,`` (``_row``). From the
    first piece that is not plain, the lines go through one ``csv.reader``,
    each of whose rows is a run of its own. No run is empty.

    Each piece is checked for bytes that are not UTF-8 before its rows are
    given, and the first raises ``DatasetError`` naming its physical line:
    up to the first piece that is not plain, every row is a line, so the
    rows given so far count the lines before a piece; from there, the
    pieces' ``\n`` are counted. A fault of the file itself, a field over the
    limit or another ``csv.Error``, raises ``DatasetError`` naming its row
    only when the rest of the file is checked, so that bytes that are not
    UTF-8 anywhere in it are reported first.
    """
    texts = _texts(fh)
    limit = csv.field_size_limit()
    n_rows = 0  # given so far
    for text in texts:
        if not any(char in text for char in _NOT_PLAIN):
            lines = text.split("\n")
            if not lines[-1]:  # the piece ends its last line
                lines.pop()
            # a line is no longer than the piece less the \n of every other line
            if len(text) - len(lines) < limit or max(map(len, lines)) <= limit:
                _check_utf8(text, n_rows, path)
                del text  # the lines hold all of it
                n_rows += len(lines)
                yield lines
                del lines  # before the next piece is read
                continue
            del lines
        checked = _checked(chain([text], texts), n_rows, path)
        del text
        try:
            for row in csv.reader(_csv_lines(checked)):
                n_rows += 1
                yield [row]
            return
        except csv.Error as exc:
            fault = f"line {n_rows + 1}: {exc}"
        for _ in checked:  # bytes that are not UTF-8, later in the file, are reported first
            pass
        raise DatasetError(f"{path}: {fault}")


def _blocks(runs: Iterator[list]) -> Iterator[list]:
    """The first row of ``runs`` as a block of its own, then the rest in blocks of ``_BLOCK_ROWS``, the last one shorter.

    A block that one run holds is a slice of it.
    """
    block, size = [], 1  # the header row is a block of its own
    for run in runs:
        start = 0
        while len(run) - start >= size - len(block):  # the run completes the block
            stop = start + size - len(block)
            yield block + run[start:stop] if block else run[start:stop]
            block, size, start = [], _BLOCK_ROWS, stop
        block += run[start:]
        del run  # before the next run is read
    if block:
        yield block


def _row(line: str | list[str]) -> list[str]:
    """The ``csv.reader`` row of a line of a plain piece: its fields between commas, none if blank; a row ``csv.reader`` gave, as it is."""
    if isinstance(line, str):
        return line.split(",") if line else []
    return line


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
    if seq > _SEQ_MAX:
        return f"seq_index must be at most 2**63 - 1, got {seq}"
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


def _accepted(pids, seq_texts, values: np.ndarray, seen: set):
    """(pids, seq indices, values) of a block's rows if every row is good; else None, and ``seen`` holds what it held.

    The rows are good when no id is empty, every seq_index is a non-negative
    ``int()``, every value is finite and every (patient_id, seq_index) is
    new: then their keys are added to ``seen``.
    """
    if "" in pids:
        return None
    try:
        seqs = list(map(int, seq_texts))
    except ValueError:
        return None
    keys = set(zip(pids, seqs))  # hashed once: the set checks below reuse the hashes
    if (
        min(seqs) < 0
        or max(seqs) > _SEQ_MAX
        or not np.isfinite(values).all()
        or len(keys) != len(seqs)
        or not seen.isdisjoint(keys)
    ):
        return None
    seen.update(keys)
    return pids, seqs, values


def _parse_lines(lines: list[str], width: int, seen: set):
    """``_parse_block``'s result for lines of plain pieces, their values read by one ``np.loadtxt`` call.

    None where ``_parse_block`` must decide: a line is malformed or fails a
    check, or ``np.loadtxt`` refuses a value (``1_0`` and ``١٢``, which
    ``float()`` reads). A value both read has the same bits.
    """
    fields = [line.split(",", 2) for line in lines if line]
    if not fields:
        return [], [], np.zeros((0, width - 2))
    try:
        pids, seq_texts, rests = zip(*fields)
    except ValueError:  # a line of fewer than three fields
        return None
    del fields
    if "" in rests:  # np.loadtxt skips an empty line, and warns if no line is left
        return None
    try:
        values = np.loadtxt(rests, delimiter=",", dtype=np.float64, comments=None, quotechar=None, ndmin=2)
    except ValueError:
        return None
    if values.shape != (len(rests), width - 2):
        return None
    return _accepted(pids, seq_texts, values, seen)


def _parse_block(rows: list[list[str]], width: int, seen: set):
    """(patient ids, seq indices, (n, width - 2) values) of a block's non-blank rows.

    Returns None when a row is malformed; ``seen`` then holds what it held.
    """
    body = [row for row in rows if row]
    if not body:
        return [], [], np.zeros((0, width - 2))
    if set(map(len, body)) != {width}:
        return None
    try:
        # goes through float() for each string, so it accepts what float() does, bit for bit
        values = np.array([row[2:] for row in body], dtype=np.float64)
    except ValueError:
        return None
    return _accepted([row[0] for row in body], [row[1] for row in body], values, seen)


def load_dataset(path) -> Cohort:
    r"""Parse and validate a UTF-8 dataset file; raises DatasetError naming the line.

    The file is read in one pass, as UTF-8 text, in pieces of whole lines:
    ``_CHUNK_CHARS`` characters, read on to a line end (``\n``, ``\r\n`` or a
    lone ``\r``), so a smaller file is one piece. Rows are parsed a block of
    ``_BLOCK_ROWS`` at a time, on one of two paths that give the same records
    and errors:

    - A plain piece holds no ``"``, ``\r`` or ``\x1c``-``\x1f`` and no line
      longer than ``csv.field_size_limit()``. Its lines come as one list,
      and a block of them as a slice of it. Each line of a block is split at
      its first two commas, for the patient_id and seq_index, and one
      ``np.loadtxt`` call reads the block's values, creating no Python
      object per value. Where ``np.loadtxt`` and ``float()`` both read a
      value, they read the same bits. ``np.loadtxt`` strips ``\x1c``-``\x1f``
      around a number as whitespace and ``float()`` does not, so a piece
      holding one is not plain.
    - From the first piece that is not plain on, the text goes through
      ``csv.reader``, so quoted ids and CRLF or CR line ends work. A block of
      its rows, and a block of plain lines that ``np.loadtxt`` does not read
      (``1_0`` and ``١٢``, which ``float()`` reads) or whose rows fail a
      check, is read as ``csv.reader`` rows, with ``int()`` and ``float()``.

    Blank lines are skipped but counted: line N is the N-th row
    ``csv.reader`` reads (the physical line, counted in ``\n``, for bytes that
    are not UTF-8, which the file is opened to read as surrogates).
    A fault of the file itself wins over any fault of its rows, wherever
    each is: bytes that are not UTF-8 first, then a field longer than
    ``csv.field_size_limit()`` or another ``csv.Error``. Else a bad header,
    or the first bad row, raises, with the first of its faults in this
    order: field count, empty patient_id, seq_index not an integer,
    negative or above 2**63 - 1, a value not numeric or not finite, a
    duplicate (patient_id, seq_index). The rows are returned as a ``Cohort``.

    Only one piece of text and one block of rows are alive at a time: under
    tracemalloc, loading a 400 x 6 x 32 cohort (a 1.51 MiB file) peaks at
    1.48 MiB, 0.74 MiB of it the cohort it returns, and at 1.95 MiB for its
    ``\r\n`` copy and for its lone-``\r`` copy, read through ``csv.reader``.
    Most of the rest is the blocks' values and their concatenation, alive
    at once. Holding the whole text peaked 2.34 MiB above the records built
    from it.
    """
    with open(path, **_TEXT_MODE) as fh:
        blocks = _blocks(_runs(fh, path))
        header = next(blocks, None)
        if header is None:
            raise DatasetError(f"{path}: no records")
        header = _row(header[0])
        feature_names = header[3:]
        fault = None
        if header[:3] != _HEADER:
            fault = "line 1: header must start with patient_id,seq_index,health_score"
        elif feature_names != [f"f{i}" for i in range(len(feature_names))] or not feature_names:
            fault = "line 1: feature columns must be f0..f{F-1}"
        width = 3 + len(feature_names)
        pids: list[str] = []
        seqs: list[int] = []
        parts: list[np.ndarray] = []
        seen: set[tuple[str, int]] = set()
        lineno = 2  # of the block's first row
        while fault is None and (block := next(blocks, None)):
            # a plain piece's lines come before any csv.reader row
            parsed = _parse_lines(block, width, seen) if isinstance(block[-1], str) else None
            if parsed is None:
                block = list(map(_row, block))
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
            parts.append(parsed[2])
            lineno += len(block)
            del block, parsed  # before the next block is tokenised
        if fault is not None:
            for _ in blocks:  # a fault of the file itself, later in it, is reported first
                pass
            raise DatasetError(f"{path}: {fault}")
    del seen  # a key per row: freed before the cohort is built
    if not pids:
        raise DatasetError(f"{path}: no records")
    values = np.concatenate(parts)
    del parts
    return Cohort(pids, seqs, values[:, 0], values[:, 1:])


def check_fractions(fractions, where: str) -> None:
    """Raise ``ConfigError`` unless there are 3 non-negative fractions summing to 1."""
    if len(fractions) != 3 or not all(f >= 0 for f in fractions):  # NaN is not >= 0
        raise ConfigError(f"{where}: need 3 non-negative fractions, got {fractions}")
    if abs(sum(fractions) - 1.0) > 1e-9:
        raise ConfigError(f"{where}: fractions must sum to 1, got {sum(fractions)}")


def split_patients(
    cohort: Cohort,
    fractions: tuple[float, float, float] = DEFAULT_FRACTIONS,
    seed: int = 0,
) -> tuple[Cohort, Cohort, Cohort]:
    """Patient-level train/val/test split with largest-remainder rounding."""
    check_fractions(fractions, "split_patients")
    n = len(cohort.patient_ids)
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
    train, val, test = np.split(order, [counts[0], counts[0] + counts[1]])
    return cohort.patients(train), cohort.patients(val), cohort.patients(test)


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

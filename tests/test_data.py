import io
import os
import threading
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import hscl.data as data_mod
from hscl.data import (
    DEFAULT_FRACTIONS,
    DETERIORATED,
    IMPROVED,
    SAME,
    Cohort,
    NormalizationStats,
    SyntheticSpec,
    categorize_sf,
    fit_normalization,
    generate_synthetic,
    load_dataset,
    pair_labels,
    save_dataset,
    split_patients,
)
from hscl.errors import ConfigError, DatasetError, DomainError
from hscl.pipeline import DataConfig, prepare

from oracles import (
    Scan,
    cohort_of,
    first_scans,
    generate_synthetic_ref,
    load_dataset_ref,
    normalize_ref,
    pair_arrays,
    regression_arrays,
    save_dataset_ref,
    scans_of,
)


# -- S/F binning --------------------------------------------------------------


def test_categorize_sf_paper_ranges():
    assert categorize_sf(450) == 0
    assert categorize_sf(100) == 3


def test_categorize_sf_boundaries():
    # documented convention: 275-430 includes both ends, 180-275 includes 180 only
    assert categorize_sf(430) == 1
    assert categorize_sf(275) == 1
    assert categorize_sf(180) == 2
    assert categorize_sf(430.0001) == 0
    assert categorize_sf(274.9999) == 2
    assert categorize_sf(179.9999) == 3


def test_categorize_sf_rejects_nonpositive():
    for bad in (0.0, -5.0):
        with pytest.raises(DomainError):
            categorize_sf(bad)


def test_categorize_sf_monotone_step_function():
    values = np.arange(1.0, 1000.5, 0.5)
    bins = np.array([categorize_sf(v) for v in values])
    assert np.all(np.diff(bins) <= 0)  # higher score, same or better bin
    assert set(bins.tolist()) == {0, 1, 2, 3}
    assert np.count_nonzero(np.diff(bins)) == 3  # exactly 4 plateaus


# -- change labels ---------------------------------------------------------------


def _label(prev_hs, next_hs, stats=None, mode="bin"):
    """``pair_labels`` of the one pair ``(prev_hs, next_hs)``."""
    return int(pair_labels(np.array([prev_hs]), np.array([next_hs]), stats, mode)[0])


def test_pair_labels_bin_mode():
    assert _label(200.0, 300.0) == IMPROVED
    assert _label(300.0, 200.0) == DETERIORATED
    assert _label(440.0, 435.0) == SAME  # both bin 0
    assert _label(250.0, 250.0) == SAME


def test_pair_labels_threshold_mode():
    stats = NormalizationStats(0.0, 100.0)
    assert _label(50.0, 50.0, stats, mode="threshold") == SAME
    assert _label(50.0, 60.0, stats, mode="threshold") == IMPROVED
    assert _label(50.0, 40.0, stats, mode="threshold") == DETERIORATED
    assert _label(50.0, 54.0, stats, mode="threshold") == SAME  # inside tau band


def test_pair_labels_direction_flag():
    # lower-is-better scores flip the sign of improvement
    stats = NormalizationStats(0.0, 100.0, higher_is_better=False)
    assert _label(50.0, 40.0, stats, mode="threshold") == IMPROVED


def test_pair_labels_unknown_mode():
    with pytest.raises(ConfigError, match="pair_labels: unknown label mode 'delta'"):
        _label(1.0, 2.0, NormalizationStats(0.0, 1.0), mode="delta")


def test_threshold_labels_without_stats_are_a_config_error():
    with pytest.raises(ConfigError, match="pair_labels: threshold mode needs normalization stats"):
        _label(1.0, 2.0, None, mode="threshold")
    with pytest.raises(ConfigError, match="needs normalization stats"):  # also with no pairs to label
        pair_labels(np.zeros(0), np.zeros(0), None, "threshold")


@pytest.mark.parametrize(
    "prev, nxt, mode, message",
    [
        # the first bad pair raises; within it finiteness, then prev, then next
        ([300.0, np.nan, -1.0], [300.0, -2.0, 300.0], "bin", "pair_labels: scores must be finite, got nan, -2.0"),
        ([300.0, -1.0, np.nan], [300.0, -2.0, 300.0], "bin", "categorize_sf: S/F ratio must be positive, got -1.0"),
        ([300.0, 1.0, np.nan], [300.0, -0.0, 300.0], "bin", "categorize_sf: S/F ratio must be positive, got -0.0"),
        ([1.0, 2.0], [-np.inf, 3.0], "threshold", "pair_labels: scores must be finite, got 1.0, -inf"),
    ],
)
def test_pair_labels_raise_on_the_first_bad_pair(prev, nxt, mode, message):
    with pytest.raises(DomainError) as exc:
        pair_labels(np.array(prev), np.array(nxt), NormalizationStats(0.0, 1.0), mode)
    assert str(exc.value) == message


# -- normalization -----------------------------------------------------------------


def test_normalize_endpoints_and_midpoint():
    stats = NormalizationStats(10.0, 20.0)
    assert stats.normalize_array(np.array([10.0, 20.0, 15.0])).tolist() == [0.0, 1.0, 0.5]
    assert [normalize_ref(stats, v) for v in (10.0, 20.0, 15.0)] == [0.0, 1.0, 0.5]


def test_normalize_clamps_out_of_range():
    stats = NormalizationStats(0.0, 10.0)
    assert stats.normalize_array(np.array([25.0, -3.0])).tolist() == [1.0, 0.0]


def test_normalize_degenerate_stats_rejected():
    stats = NormalizationStats(5.0, 5.0)
    with pytest.raises(ConfigError, match="degenerate"):
        stats.normalize_array(np.array([5.0]))


@given(st.lists(st.sampled_from([0.0, -0.0, 1.0, -1.0, 2.5]), min_size=1, max_size=40))
@example([0.0, -0.0, 1.0])
@example([-1.0, -0.0, 0.0])
@settings(max_examples=200, deadline=None)
def test_fit_normalization_takes_python_s_min_and_max_signed_zero_included(scores):
    """Of equal extremes the first is taken, as ``min`` and ``max`` take it: the stats go into checkpoint metadata."""
    stats = fit_normalization(np.array(scores))
    assert type(stats.hs_min) is float and type(stats.hs_max) is float
    assert np.float64(stats.hs_min).tobytes() == np.float64(min(scores)).tobytes()
    assert np.float64(stats.hs_max).tobytes() == np.float64(max(scores)).tobytes()


@given(st.floats(-1e6, 1e6), st.floats(-1e6, 1e6))
@settings(max_examples=100, deadline=None)
def test_normalize_monotone(a, b):
    stats = NormalizationStats(-100.0, 100.0)
    if a < b:
        low, high = stats.normalize_array(np.array([a, b]))
        assert low <= high


# -- synthetic generator -------------------------------------------------------------


def test_generator_is_deterministic(tmp_path):
    spec = SyntheticSpec(n_patients=10, scans_per_patient=3, seed=5)
    p1, p2 = tmp_path / "a.csv", tmp_path / "b.csv"
    save_dataset(generate_synthetic(spec), p1)
    save_dataset(generate_synthetic(spec), p2)
    assert p1.read_bytes() == p2.read_bytes()


GENERATOR_GRID = [
    {},
    {"n_patients": 400, "scans_per_patient": 6, "n_features": 32},
    {"n_features": 3, "latent_dim": 3},  # latent_dim == n_features
    {"scans_per_patient": 2},
    {"noise": 0},
    {"base_scale": 0, "drift_scale": 0, "step_scale": 0},
    {"hs_center": 300, "hs_scale": 40},
    # the id width: 1 digit up to 10 patients, 2 from 11, 3 from 101; 3 is the fewest allowed
    *({"n_patients": n, "n_features": 4} for n in (3, 10, 11, 101)),
]


# draws per chunk: the default (400 x 6 x 32 makes three chunks, the last one short) and one patient a chunk
@pytest.mark.parametrize("chunk_draws", [data_mod._GEN_CHUNK_DRAWS, 1])
@pytest.mark.parametrize("seed", [0, 1, 7])
@pytest.mark.parametrize("kwargs", GENERATOR_GRID, ids=lambda kw: ",".join(f"{k}={v}" for k, v in kw.items()) or "default")
def test_generator_matches_the_one_scan_at_a_time_oracle_bit_for_bit(kwargs, seed, chunk_draws, monkeypatch):
    monkeypatch.setattr(data_mod, "_GEN_CHUNK_DRAWS", chunk_draws)
    spec = SyntheticSpec(seed=seed, **kwargs)
    got, want = generate_synthetic(spec), generate_synthetic_ref(spec)
    n = spec.n_patients * spec.scans_per_patient
    assert _cohort_bits(got) == _cohort_bits(want)
    assert got.features.shape == (n, spec.n_features) and got.features.flags.c_contiguous
    assert got.scans.tolist() == [spec.scans_per_patient] * spec.n_patients


@pytest.mark.parametrize("shape", [(400, 2, 512), (4000, 6, 32)])
def test_generator_transients_stay_a_chunk_however_wide_or_large_the_cohort(shape):
    """Above its cohort the generator peaks at about one chunk of draws (whole-cohort arrays: 3.0 and 1.7 MiB)."""
    n_patients, n_scans, n_features = shape
    spec = SyntheticSpec(n_patients=n_patients, scans_per_patient=n_scans, n_features=n_features)
    tracemalloc.start()
    try:
        cohort = generate_synthetic(spec)
        held, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert held > 3 * 2**20  # the features alone
    assert peak - held < 2**20, (held, peak)
    del cohort


def test_generator_noiseless_scores_linearly_recoverable():
    spec = SyntheticSpec(n_patients=20, scans_per_patient=3, noise=0.0, seed=1)
    cohort = generate_synthetic(spec)
    x, y = cohort.features, cohort.scores
    design = np.hstack([x, np.ones((len(x), 1))])
    coef, *_ = np.linalg.lstsq(design, y, rcond=None)
    assert np.max(np.abs(design @ coef - y)) < 1e-8


def test_generator_coarse_over_fine_variance():
    cohort = generate_synthetic(SyntheticSpec())
    patient_means = []
    within_vars = []
    for scores in np.split(cohort.scores, np.cumsum(cohort.scans)[:-1]):
        patient_means.append(scores.mean())
        within_vars.append(scores.var())
    ratio = np.var(patient_means) / np.mean(within_vars)
    assert ratio > 5.0


def test_generator_rejects_bad_specs():
    with pytest.raises(ConfigError):
        SyntheticSpec(n_patients=2)
    with pytest.raises(ConfigError):
        SyntheticSpec(scans_per_patient=1)
    with pytest.raises(ConfigError):
        SyntheticSpec(latent_dim=20, n_features=12)
    with pytest.raises(ConfigError):
        SyntheticSpec(noise=-0.1)
    bad_specs = [{"noise": float("nan")}, {"noise": float("inf")}, {"seed": -1}, {"hs_center": float("nan")}]
    for name in ("base_scale", "drift_scale", "step_scale", "hs_scale"):
        bad_specs += [{name: -1.0}, {name: float("nan")}, {name: float("inf")}]
    for bad in bad_specs:
        with pytest.raises(ConfigError, match=next(iter(bad))):
            SyntheticSpec(**bad)


# -- dataset file I/O -----------------------------------------------------------------


def test_load_empty_file(tmp_path):
    path = tmp_path / "empty.csv"
    path.write_text("")
    with pytest.raises(DatasetError, match="no records"):
        load_dataset(path)


def test_load_header_only(tmp_path):
    path = tmp_path / "header.csv"
    path.write_text("patient_id,seq_index,health_score,f0\n")
    with pytest.raises(DatasetError, match="no records"):
        load_dataset(path)


def test_load_row_with_missing_feature(tmp_path):
    path = tmp_path / "short.csv"
    path.write_text(
        "patient_id,seq_index,health_score,f0,f1\n"
        "p0,0,5.0,1.0,2.0\n"
        "p0,1,6.0,1.0\n"
    )
    with pytest.raises(DatasetError, match=r"line 3: expected 5 fields, got 4"):
        load_dataset(path)


def test_load_rejects_duplicates_and_nonfinite(tmp_path):
    dup = tmp_path / "dup.csv"
    dup.write_text(
        "patient_id,seq_index,health_score,f0\np0,0,5.0,1.0\np0,0,6.0,2.0\n"
    )
    with pytest.raises(DatasetError, match="line 3: duplicate"):
        load_dataset(dup)

    inf = tmp_path / "inf.csv"
    inf.write_text("patient_id,seq_index,health_score,f0\np0,0,inf,1.0\n")
    with pytest.raises(DatasetError, match="line 2: non-finite"):
        load_dataset(inf)

    bad = tmp_path / "bad.csv"
    bad.write_text("patient_id,seq_index,health_score,f0\np0,zero,5.0,1.0\n")
    with pytest.raises(DatasetError, match="line 2: seq_index"):
        load_dataset(bad)


def test_roundtrip_preserves_values(tmp_path):
    spec = SyntheticSpec(n_patients=3, scans_per_patient=4, n_features=5, seed=9)
    cohort = generate_synthetic(spec)
    path = tmp_path / "data.csv"
    save_dataset(cohort, path)
    loaded = load_dataset(path)
    assert len(loaded.patient_ids) == 3
    assert len(loaded.scores) == 12
    assert _cohort_bits(loaded) == _cohort_bits(cohort)


def test_save_dataset_writes_the_bytes_of_the_per_scalar_writer(tmp_path):
    cohort = generate_synthetic(SyntheticSpec(n_patients=4, scans_per_patient=3, n_features=6, seed=11))
    odd = 'p "7", west'  # the csv writer quotes it
    feats = [np.array([-0.0, 1e-300, 1.0 / 3.0, 5.0, -2.5e20, 0.1]), np.arange(6.0) * 0.7]
    scans = [scan for series in scans_of(cohort) for scan in series]
    cohort = cohort_of(scans + [Scan(odd, t, f, 3.25 - t) for t, f in enumerate(feats)])
    ours, ref = tmp_path / "ours.csv", tmp_path / "ref.csv"
    save_dataset(cohort, ours)
    save_dataset_ref(cohort, ref)
    assert ours.read_bytes() == ref.read_bytes()
    assert b'"p ""7"", west"' in ours.read_bytes()


def _cohort_bits(cohort: Cohort) -> tuple:
    """Every array of ``cohort`` with its dtype and shape, in a form that compares to the bit."""
    arrays = (cohort.scans, cohort.seq_index, cohort.scores, cohort.features)
    return (cohort.patient_ids, *((a.dtype.str, a.shape, a.tobytes()) for a in arrays))


def test_a_block_whose_values_np_loadtxt_refuses_is_read_by_the_float_rows(tmp_path):
    """``1_0`` and Unicode digits, which ``float()`` reads, send their block to ``_parse_block``; ``_`` or non-ASCII text in an id does not."""
    values = [["20.5", "1.0", "-2.0"] for _ in range(12)]
    values[5][1] = "0_1.5"  # the second block
    values[9][0] = "\u0661\u0662"  # the third: Arabic-Indic 12
    values[10][2] = "\xa0-2.0"  # and a no-break space
    ids = ["p_\u00e90", "p_\u00e90", "p_\u00e90", "p_\u00e90"] + [f"p{i // 4}" for i in range(4, 12)]
    path = tmp_path / "salted.csv"
    path.write_text(
        "patient_id,seq_index,health_score,f0,f1\n"
        + "".join(f"{pid},{i % 4},{','.join(row)}\n" for i, (pid, row) in enumerate(zip(ids, values))),
        encoding="utf-8",
    )
    with (
        mock.patch.object(data_mod, "_BLOCK_ROWS", 4),
        mock.patch.object(data_mod.np, "loadtxt", wraps=np.loadtxt) as loadtxt,
        mock.patch.object(data_mod, "_parse_block", wraps=data_mod._parse_block) as parse_block,
    ):
        loaded = load_dataset(path)
    assert (loadtxt.call_count, parse_block.call_count) == (3, 2)
    assert _cohort_bits(loaded) == _cohort_bits(load_dataset_ref(path))
    assert loaded.patient_ids[2] == "p2" and loaded.scores[8:].tolist() == [20.5, 12.0, 20.5, 20.5]


class _ReadOnce(io.RawIOBase):
    """A byte stream that cannot seek, as a pipe."""

    def __init__(self, data: bytes):
        self._data = io.BytesIO(data)

    def readable(self) -> bool:
        return True

    def readinto(self, buffer) -> int:
        chunk = self._data.read(len(buffer))
        buffer[: len(chunk)] = chunk
        return len(chunk)


@pytest.mark.parametrize("chunk_bytes", [1, 2, 3, 5, 8, 1 << 17])
def test_a_byte_that_is_not_utf8_is_named_by_its_line_in_a_file_and_in_a_stream(chunk_bytes):
    """One running count of the line ends read so far names the line, in a file and in a stream read once alike."""
    data = "\ufeffa,b\nc\r\nd\u00e9\n\n".encode("utf-8") + b"x\xff\ny\n"
    messages = []
    with mock.patch.object(data_mod, "_CHUNK_CHARS", chunk_bytes):
        for fh in (io.BytesIO(data), io.BufferedReader(_ReadOnce(data))):
            with pytest.raises(DatasetError) as exc:
                list(data_mod._runs(io.TextIOWrapper(fh, **data_mod._TEXT_MODE), "f.csv"))
            messages.append(str(exc.value))
    assert messages == ["f.csv: line 5: not UTF-8 text"] * 2


def _load_through_fifo(data: bytes, path):
    """``load_dataset`` of a named pipe that a thread fills with ``data``: a file that cannot seek."""
    os.mkfifo(path)

    def fill():
        try:
            with open(path, "wb") as fh:
                fh.write(data)
        except BrokenPipeError:  # the loader stopped reading
            pass

    writer = threading.Thread(target=fill, daemon=True)
    writer.start()
    try:
        return load_dataset(path)
    finally:
        writer.join(timeout=10)


@pytest.mark.skipif(not hasattr(os, "mkfifo"), reason="named pipes need os.mkfifo")
@pytest.mark.parametrize("chunk_bytes", [64, 256, 1 << 17])
def test_load_dataset_reads_a_pipe_as_the_file_it_streams(chunk_bytes, tmp_path):
    """The same records, and the same line for a byte that is not UTF-8, counted as the pieces go."""
    file = tmp_path / "cohort.csv"
    save_dataset(generate_synthetic(SyntheticSpec(n_patients=6, scans_per_patient=3, n_features=3, seed=4)), file)
    data = file.read_bytes()
    with mock.patch.object(data_mod, "_CHUNK_CHARS", chunk_bytes):
        assert _cohort_bits(_load_through_fifo(data, tmp_path / "clean.fifo")) == _cohort_bits(load_dataset(file))
        lines = data.split(b"\n")
        lines[14] = lines[14].replace(b",", b"\xff,", 1)
        file.write_bytes(b"\n".join(lines))
        for path in (file, tmp_path / "salted.fifo"):
            load = load_dataset if path == file else lambda p: _load_through_fifo(file.read_bytes(), p)
            with pytest.raises(DatasetError, match=f"^{path}: line 15: not UTF-8 text$"):
                load(path)


# -- splitting ---------------------------------------------------------------------


def _patients(n):
    """A cohort of ``n`` patients ``p0`` ... of two scans each."""
    return Cohort(
        [f"p{i}" for i in range(n) for _ in range(2)],
        [0, 1] * n,
        [float(i + t) for i in range(n) for t in range(2)],
        np.zeros((2 * n, 1)),
    )


def test_split_all_train():
    train, val, test = split_patients(_patients(10), (1.0, 0.0, 0.0), seed=0)
    assert len(train.patient_ids) == 10 and not val.patient_ids and not test.patient_ids
    assert val.features.shape == test.features.shape == (0, 1)


def test_split_same_seed_identical():
    a = split_patients(_patients(30), seed=4)
    b = split_patients(_patients(30), seed=4)
    for sa, sb in zip(a, b):
        assert sa.patient_ids == sb.patient_ids


def test_split_takes_each_patient_s_rows_in_the_seeded_permutation_s_order():
    cohort = _rows_cohort(["b,1,2.0,0.5", "a,0,1.0,0.25", "b,0,3.0,0.75", "c,4,4.0,1.0", "a,2,5.0,1.5"])
    order = np.random.default_rng(9).permutation(3)
    train, val, test = split_patients(cohort, (1 / 3, 1 / 3, 1 / 3), seed=9)
    assert [train.patient_ids, val.patient_ids, test.patient_ids] == [(cohort.patient_ids[i],) for i in order]
    rows = {"b": ([0, 1], [3.0, 2.0]), "a": ([0, 2], [1.0, 5.0]), "c": ([4], [4.0])}
    for split in (train, val, test):
        assert (split.seq_index.tolist(), split.scores.tolist()) == rows[split.patient_ids[0]]


def _rows_cohort(rows: list[str]) -> Cohort:
    """The cohort of ``patient_id,seq_index,score,f0`` rows, given to the constructor in this order."""
    fields = [row.split(",") for row in rows]
    return Cohort(
        [f[0] for f in fields], [int(f[1]) for f in fields], [float(f[2]) for f in fields],
        [[float(f[3])] for f in fields],
    )


def test_split_largest_remainder_counts():
    train, val, test = split_patients(_patients(100), (0.543, 0.247, 0.210), seed=1)
    assert (len(train.patient_ids), len(val.patient_ids), len(test.patient_ids)) == (54, 25, 21)


def test_split_zero_patient_split_rejected():
    with pytest.raises(ConfigError, match="zero patients"):
        split_patients(_patients(4), (0.9, 0.05, 0.05), seed=0)


def test_split_bad_fractions():
    with pytest.raises(ConfigError):
        split_patients(_patients(10), (0.5, 0.2, 0.2), seed=0)
    for bad in ((float("nan"), 0.5, 0.5), (float("inf"), 0.0, 0.0), (1.0, float("-inf"), 0.0)):
        with pytest.raises(ConfigError):
            split_patients(_patients(10), bad, seed=0)
        with pytest.raises(ConfigError):
            DataConfig(fractions=bad)
    for bad in ({"tau": float("nan")}, {"tau": float("inf")}, {"tau": -0.01}, {"label_mode": "foo"}):
        with pytest.raises(ConfigError, match=next(iter(bad))):
            DataConfig(**bad)


@given(
    st.integers(3, 60),
    st.integers(0, 2**32 - 1),
    st.floats(0.2, 0.6),
    st.floats(0.2, 0.39),
)
@settings(max_examples=100, deadline=None)
def test_split_patient_level_disjoint(n, seed, f_train, f_val):
    f_test = 1.0 - f_train - f_val
    try:
        train, val, test = split_patients(_patients(n), (f_train, f_val, f_test), seed=seed)
    except ConfigError:
        return  # a positive-fraction split got zero patients; rejection is the contract
    ids = [pid for split in (train, val, test) for pid in split.patient_ids]
    assert len(ids) == n
    assert len(set(ids)) == n
    assert sum(len(split.scores) for split in (train, val, test)) == 2 * n


# -- the cohort and its pairs ---------------------------------------------------------


def test_cohort_groups_rows_by_first_appearance_and_sorts_each_patient_by_seq_index():
    cohort = _rows_cohort(["b,7,1.0,0.1", "a,3,2.0,0.2", "b,2,3.0,0.3", "a,0,4.0,0.4", "b,5,5.0,0.5"])
    assert cohort.patient_ids == ("b", "a")
    assert cohort.scans.tolist() == [3, 2] and cohort.scans.dtype == np.int64
    assert cohort.seq_index.tolist() == [2, 5, 7, 0, 3] and cohort.seq_index.dtype == np.int64
    assert cohort.scores.tolist() == [3.0, 5.0, 1.0, 4.0, 2.0] and cohort.scores.dtype == np.float64
    assert cohort.features[:, 0].tolist() == [0.3, 0.5, 0.1, 0.4, 0.2] and cohort.features.dtype == np.float64
    assert cohort.row_patient_ids().tolist() == ["b", "b", "b", "a", "a"]


@pytest.mark.parametrize(
    "pids, seqs, repeated",
    [
        (["a", "b", "a"], [1, 0, 1], "('a', 1)"),
        (["a", "a"], [4, 4], "('a', 4)"),
        (["b", "a", "a", "b", "b"], [0, 3, 1, 2, 0], "('b', 0)"),
    ],
    ids=["apart", "adjacent", "unsorted"],
)
def test_cohort_rejects_a_repeated_patient_and_seq_index(pids, seqs, repeated):
    with pytest.raises(DatasetError) as exc:
        Cohort(pids, seqs, np.zeros(len(pids)), np.zeros((len(pids), 2)))
    assert str(exc.value) == f"cohort: duplicate (patient_id, seq_index) {repeated}"


@pytest.mark.parametrize(
    "features",
    [np.zeros(3), np.zeros((3, 2, 1)), np.zeros((2, 2)), [[1.0, 2.0], [3.0], [4.0, 5.0]]],
    ids=["flat", "3-D", "too-few-rows", "ragged"],
)
def test_features_that_do_not_stack_are_bad_input(features):
    """Features that are not one (N, F) matrix of the N rows raise ``DatasetError`` when the cohort is built."""
    with pytest.raises(DatasetError, match="^cohort: "):
        Cohort(["a", "a", "b"], [0, 1, 0], [1.0, 2.0, 3.0], features)


def test_cohort_rejects_a_seq_index_that_is_not_int64():
    with pytest.raises(DatasetError, match="^cohort: rows do not form arrays"):
        Cohort(["a"], [2**63], [1.0], [[1.0]])


def test_pair_index_counts():
    cohort = Cohort(["a"] * 2 + ["b"] * 5 + ["c"], [0, 1, *range(5), 0], np.arange(8.0), np.zeros((8, 1)))
    assert cohort.pair_index().tolist() == [0, 2, 3, 4, 5]


def test_pair_index_pairs_labels_and_order():
    cohort = _rows_cohort(["a,2,150.0,0", "a,0,200.0,0", "a,1,300.0,0"])
    prev = cohort.pair_index()
    hs = cohort.scores
    assert pair_labels(hs[prev], hs[prev + 1], None, mode="bin").tolist() == [IMPROVED, DETERIORATED]
    assert cohort.seq_index[prev].tolist() == [0, 1] and cohort.seq_index[prev + 1].tolist() == [1, 2]


def test_default_synthetic_pairs_cover_all_classes():
    cohort = generate_synthetic(SyntheticSpec())
    stats = fit_normalization(cohort.scores)
    prev, hs = cohort.pair_index(), cohort.scores
    labels = set(pair_labels(hs[prev], hs[prev + 1], stats, mode="threshold").tolist())
    assert labels == {IMPROVED, SAME, DETERIORATED}


# -- arrays of empty splits ------------------------------------------------------------


def test_no_records_or_pairs_give_zero_row_arrays_of_the_feature_width():
    x, y = regression_arrays([], NormalizationStats(0.0, 1.0), 4)
    assert x.shape == (0, 4) and x.dtype == np.float64
    assert y.shape == (0,) and y.dtype == np.float64
    xp, xn, labels = pair_arrays([], 4)
    assert xp.shape == xn.shape == (0, 4) and xp.dtype == xn.dtype == np.float64
    assert labels.shape == (0,) and labels.dtype == np.int64


def test_prepare_gives_zero_row_arrays_for_an_empty_split():
    cohort = generate_synthetic(SyntheticSpec(n_patients=12, scans_per_patient=3, n_features=5, seed=3))
    prepared = prepare(cohort, 0, DataConfig(fractions=(0.8, 0.2, 0.0)))
    x, y = prepared.regression["test"]
    assert x.shape == (0, 5) and y.shape == (0,)
    xp, xn, labels = prepared.pairs["test"]
    assert xp.shape == xn.shape == (0, 5) and labels.shape == (0,)
    assert prepared.pairs["val"][0].shape == (4, 5)


def test_prepare_gives_zero_row_pair_arrays_for_single_scan_patients():
    spec = SyntheticSpec(n_patients=30, scans_per_patient=2, n_features=5, seed=3)
    single = first_scans(generate_synthetic(spec), lambda k: 1)
    prepared = prepare(single, 0, DataConfig())
    for split, patients in zip(("train", "val", "test"), split_patients(single, DEFAULT_FRACTIONS, 0)):
        x, _ = prepared.regression[split]
        assert x.shape == (len(patients.patient_ids), 5)
        xp, xn, labels = prepared.pairs[split]
        assert xp.shape == xn.shape == (0, 5) and labels.shape == (0,)


def test_fitting_or_saving_no_records_raises(tmp_path):
    with pytest.raises(ConfigError, match="^fit_normalization: no records$"):
        fit_normalization(np.zeros(0))
    path = tmp_path / "empty.csv"
    with pytest.raises(DatasetError, match="^save_dataset: no records$"):
        save_dataset(Cohort([], [], [], np.zeros((0, 2))), path)
    assert not path.exists()

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hscl.data import (
    DEFAULT_FRACTIONS,
    DETERIORATED,
    IMPROVED,
    SAME,
    NormalizationStats,
    PatientSeries,
    ScanRecord,
    SyntheticSpec,
    categorize_sf,
    fit_normalization,
    generate_synthetic,
    load_dataset,
    pair_labels,
    records_of,
    save_dataset,
    series_arrays,
    split_patients,
)
from hscl.errors import ConfigError, DatasetError, DomainError
from hscl.pipeline import DataConfig, prepare

from oracles import normalize_hs, pair_arrays, regression_arrays, save_dataset_ref


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


def _record(pid, seq, hs, feats=(0.0,)):
    return ScanRecord(pid, seq, np.asarray(feats, dtype=np.float64), hs)


def test_normalize_endpoints_and_midpoint():
    stats = NormalizationStats(10.0, 20.0)
    records = [_record("a", 0, 10.0), _record("a", 1, 20.0), _record("a", 2, 15.0)]
    assert stats.normalize_array(np.array([10.0, 20.0, 15.0])).tolist() == [0.0, 1.0, 0.5]
    assert [r.health_score for r in normalize_hs(records, stats)] == [0.0, 1.0, 0.5]


def test_normalize_clamps_out_of_range():
    stats = NormalizationStats(0.0, 10.0)
    assert stats.normalize_array(np.array([25.0, -3.0])).tolist() == [1.0, 0.0]


def test_normalize_degenerate_stats_rejected():
    stats = NormalizationStats(5.0, 5.0)
    with pytest.raises(ConfigError, match="degenerate"):
        stats.normalize_array(np.array([5.0]))


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


def test_generator_noiseless_scores_linearly_recoverable():
    spec = SyntheticSpec(n_patients=20, scans_per_patient=3, noise=0.0, seed=1)
    records = records_of(generate_synthetic(spec))
    x = np.stack([r.features for r in records])
    y = np.array([r.health_score for r in records])
    design = np.hstack([x, np.ones((len(x), 1))])
    coef, *_ = np.linalg.lstsq(design, y, rcond=None)
    assert np.max(np.abs(design @ coef - y)) < 1e-8


def test_generator_coarse_over_fine_variance():
    collection = generate_synthetic(SyntheticSpec())
    patient_means = []
    within_vars = []
    for series in collection:
        scores = np.array([r.health_score for r in series.records])
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
    collection = generate_synthetic(spec)
    path = tmp_path / "data.csv"
    save_dataset(collection, path)
    loaded = load_dataset(path)
    assert len(loaded) == 3
    assert sum(len(s.records) for s in loaded) == 12
    original = {(r.patient_id, r.seq_index): r for r in records_of(collection)}
    for rec in records_of(loaded):
        ref = original[(rec.patient_id, rec.seq_index)]
        assert rec.health_score == ref.health_score
        assert np.array_equal(rec.features, ref.features)


def test_save_dataset_writes_the_bytes_of_the_per_scalar_writer(tmp_path):
    collection = generate_synthetic(SyntheticSpec(n_patients=4, scans_per_patient=3, n_features=6, seed=11))
    odd = 'p "7", west'  # the csv writer quotes it
    feats = [np.array([-0.0, 1e-300, 1.0 / 3.0, 5.0, -2.5e20, 0.1]), np.arange(6.0) * 0.7]
    collection.append(PatientSeries(odd, [ScanRecord(odd, t, f, 3.25 - t) for t, f in enumerate(feats)]))
    ours, ref = tmp_path / "ours.csv", tmp_path / "ref.csv"
    save_dataset(collection, ours)
    save_dataset_ref(collection, ref)
    assert ours.read_bytes() == ref.read_bytes()
    assert b'"p ""7"", west"' in ours.read_bytes()


# -- splitting ---------------------------------------------------------------------


def _patients(n):
    return [
        PatientSeries(f"p{i}", [_record(f"p{i}", 0, float(i)), _record(f"p{i}", 1, float(i) + 1)])
        for i in range(n)
    ]


def test_split_all_train():
    train, val, test = split_patients(_patients(10), (1.0, 0.0, 0.0), seed=0)
    assert len(train) == 10 and not val and not test


def test_split_same_seed_identical():
    a = split_patients(_patients(30), seed=4)
    b = split_patients(_patients(30), seed=4)
    for sa, sb in zip(a, b):
        assert [s.patient_id for s in sa] == [s.patient_id for s in sb]


def test_split_largest_remainder_counts():
    train, val, test = split_patients(_patients(100), (0.543, 0.247, 0.210), seed=1)
    assert (len(train), len(val), len(test)) == (54, 25, 21)


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
    ids = [s.patient_id for split in (train, val, test) for s in split]
    assert len(ids) == n
    assert len(set(ids)) == n


# -- pairs -------------------------------------------------------------------------


def test_series_arrays_pair_counts():
    two = PatientSeries("a", [_record("a", 0, 300.0), _record("a", 1, 310.0)])
    five = PatientSeries(
        "b", [_record("b", t, 300.0 + t) for t in range(5)]
    )
    assert len(series_arrays([two], 1)[2]) == 1
    assert len(series_arrays([five], 1)[2]) == 4


def test_series_arrays_pairs_labels_and_order():
    series = PatientSeries(
        "a",
        [_record("a", 0, 200.0), _record("a", 1, 300.0), _record("a", 2, 150.0)],
    )
    _, hs, prev = series_arrays([series], 1)
    assert pair_labels(hs[prev], hs[prev + 1], None, mode="bin").tolist() == [IMPROVED, DETERIORATED]
    assert series.records[prev[0]].seq_index == 0 and series.records[prev[0] + 1].seq_index == 1


def test_default_synthetic_pairs_cover_all_classes():
    collection = generate_synthetic(SyntheticSpec())
    stats = fit_normalization(records_of(collection))
    _, hs, prev = series_arrays(collection, 12)
    labels = set(pair_labels(hs[prev], hs[prev + 1], stats, mode="threshold").tolist())
    assert labels == {IMPROVED, SAME, DETERIORATED}


def test_series_validates_ordering():
    with pytest.raises(DatasetError, match="strictly increasing"):
        PatientSeries("a", [_record("a", 1, 1.0), _record("a", 0, 2.0)])
    with pytest.raises(DatasetError, match="belongs to"):
        PatientSeries("a", [_record("b", 0, 1.0)])


# -- arrays of empty splits ------------------------------------------------------------


def test_no_records_or_pairs_give_zero_row_arrays_of_the_feature_width():
    x, y = regression_arrays([], NormalizationStats(0.0, 1.0), 4)
    assert x.shape == (0, 4) and x.dtype == np.float64
    assert y.shape == (0,) and y.dtype == np.float64
    xp, xn, labels = pair_arrays([], 4)
    assert xp.shape == xn.shape == (0, 4) and xp.dtype == xn.dtype == np.float64
    assert labels.shape == (0,) and labels.dtype == np.int64


def test_prepare_gives_zero_row_arrays_for_an_empty_split():
    collection = generate_synthetic(SyntheticSpec(n_patients=12, scans_per_patient=3, n_features=5, seed=3))
    prepared = prepare(collection, 0, DataConfig(fractions=(0.8, 0.2, 0.0)))
    x, y = prepared.regression["test"]
    assert x.shape == (0, 5) and y.shape == (0,)
    xp, xn, labels = prepared.pairs["test"]
    assert xp.shape == xn.shape == (0, 5) and labels.shape == (0,)
    assert prepared.pairs["val"][0].shape == (4, 5)


def test_prepare_gives_zero_row_pair_arrays_for_single_scan_patients():
    spec = SyntheticSpec(n_patients=30, scans_per_patient=2, n_features=5, seed=3)
    single = [PatientSeries(s.patient_id, s.records[:1]) for s in generate_synthetic(spec)]
    prepared = prepare(single, 0, DataConfig())
    for split, patients in zip(("train", "val", "test"), split_patients(single, DEFAULT_FRACTIONS, 0)):
        x, _ = prepared.regression[split]
        assert x.shape == (len(patients), 5)
        xp, xn, labels = prepared.pairs[split]
        assert xp.shape == xn.shape == (0, 5) and labels.shape == (0,)

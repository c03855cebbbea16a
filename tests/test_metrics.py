import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import hscl.metrics
from hscl.errors import ConfigError, DomainError, ShapeError
from hscl.metrics import (
    SpreadProfile,
    average_ranks,
    compute_metrics,
    embedding_spread,
    export_profile,
    spearman_rho,
)
from hscl.model import init_encoder

from oracles import average_ranks_loop, metrics_ref, spearman_ref


# -- classification metrics ------------------------------------------------------


def test_all_correct():
    report = compute_metrics([0, 1, 2, 1], [0, 1, 2, 1])
    assert report.accuracy == 100.0
    assert report.macro_f1 == 1.0


def test_constant_predictor_on_balanced_labels():
    labels = [0, 1, 2] * 4
    report = compute_metrics([0] * 12, labels)
    assert report.accuracy == pytest.approx(100.0 / 3.0)
    # class 0: precision 1/3, recall 1 -> f1 = 0.5; the others are 0/0 -> 0
    assert report.macro_f1 == pytest.approx(0.5 / 3.0)


def test_matches_brute_force_tally():
    rng = np.random.default_rng(0)
    preds = rng.integers(0, 3, size=200)
    labels = rng.integers(0, 3, size=200)
    report = compute_metrics(preds, labels)
    acc_ref, f1_ref, conf_ref = metrics_ref(preds, labels)
    assert abs(report.accuracy - acc_ref) < 1e-12
    assert abs(report.macro_f1 - f1_ref) < 1e-12
    assert report.confusion.tolist() == conf_ref


@pytest.mark.parametrize("n", [1, 2, 7, 500])
def test_confusion_matrix_matches_brute_force_tally_on_random_labels(n):
    rng = np.random.default_rng(n)
    for _ in range(20):
        preds = rng.integers(0, 3, size=n)
        labels = rng.integers(0, 3, size=n)
        report = compute_metrics(preds, labels)
        acc_ref, f1_ref, conf_ref = metrics_ref(preds, labels)
        assert report.confusion.shape == (3, 3)
        assert report.confusion.tolist() == conf_ref
        assert abs(report.accuracy - acc_ref) < 1e-12
        assert abs(report.macro_f1 - f1_ref) < 1e-12


def test_confusion_row_sums_equal_supports():
    rng = np.random.default_rng(1)
    preds = rng.integers(0, 3, size=90)
    labels = rng.integers(0, 3, size=90)
    report = compute_metrics(preds, labels)
    for c, entry in enumerate(report.per_class):
        assert entry["support"] == int(report.confusion[c].sum())
        assert entry["support"] == int(np.count_nonzero(labels == c))


@given(st.integers(0, 2**32 - 1))
@settings(max_examples=30, deadline=None)
def test_metrics_permutation_invariant(seed):
    rng = np.random.default_rng(seed)
    n = int(rng.integers(1, 60))
    preds = rng.integers(0, 3, size=n)
    labels = rng.integers(0, 3, size=n)
    perm = rng.permutation(n)
    a = compute_metrics(preds, labels)
    b = compute_metrics(preds[perm], labels[perm])
    assert a.accuracy == b.accuracy
    assert a.macro_f1 == b.macro_f1
    assert 0.0 <= a.macro_f1 <= 1.0
    assert 0.0 <= a.accuracy <= 100.0


def test_metrics_input_validation():
    with pytest.raises(ShapeError):
        compute_metrics([0, 1], [0, 1, 2])
    with pytest.raises(ConfigError, match="empty"):
        compute_metrics([], [])
    with pytest.raises(ConfigError):
        compute_metrics([0, 3], [0, 1])


def test_report_text_and_json():
    report = compute_metrics([0, 1, 1], [0, 1, 2])
    text = report.to_text()
    assert "accuracy:" in text and "confusion_improved:" in text
    payload = report.to_json_dict()
    assert payload["n_examples"] == 3
    assert len(payload["confusion"]) == 3


# -- Spearman --------------------------------------------------------------------


def test_average_ranks_with_ties():
    assert average_ranks([10.0, 20.0, 10.0, 30.0]).tolist() == [1.5, 3.0, 1.5, 4.0]


@pytest.mark.parametrize(
    "values",
    [
        np.random.default_rng(5).integers(0, 7, size=300).astype(float),  # many ties
        np.full(50, 0.25),  # all tied
        np.array([3.0]),
        np.array([]),
        np.array([0.0, -0.0, np.nan, 1.0, np.nan, 0.0]),
        np.random.default_rng(6).normal(size=2000),
        np.round(np.random.default_rng(7).normal(size=2000), 1),  # the spread's size, with ties
    ],
)
def test_average_ranks_matches_the_tie_run_loop_bitwise(values):
    assert np.array_equal(average_ranks(values), average_ranks_loop(values))


def test_spearman_perfect_and_reversed():
    rho, degenerate = spearman_rho([1, 2, 3, 4], [10, 20, 30, 40])
    assert rho == pytest.approx(1.0) and not degenerate
    rho, _ = spearman_rho([1, 2, 3, 4], [40, 30, 20, 10])
    assert rho == pytest.approx(-1.0)


def test_spearman_matches_counting_oracle():
    rng = np.random.default_rng(2)
    x = rng.normal(size=40)
    y = rng.normal(size=40) + 0.5 * x
    rho, degenerate = spearman_rho(x, y)
    assert not degenerate
    assert rho == pytest.approx(spearman_ref(x, y), abs=1e-12)


def test_spearman_tied_data_matches_oracle():
    x = [1.0, 1.0, 2.0, 2.0, 3.0, 0.5]
    y = [4.0, 2.0, 2.0, 5.0, 6.0, 2.0]
    rho, degenerate = spearman_rho(x, y)
    assert not degenerate
    assert rho == pytest.approx(spearman_ref(x, y), abs=1e-12)


def test_spearman_monotone_transform_invariant():
    rng = np.random.default_rng(3)
    x = rng.normal(size=30)
    y = rng.normal(size=30)
    base, _ = spearman_rho(x, y)
    warped_x, _ = spearman_rho(np.exp(x), y)
    warped_y, _ = spearman_rho(x, np.tanh(y) * 7.0)
    assert base == pytest.approx(warped_x, abs=1e-12)
    assert base == pytest.approx(warped_y, abs=1e-12)


def test_spearman_degenerate_flag():
    rho, degenerate = spearman_rho([1.0, 1.0, 1.0], [1.0, 2.0, 3.0])
    assert rho == 0.0 and degenerate


# -- embedding spread --------------------------------------------------------------


def _identity_encoder(width):
    params = init_encoder([width, width], seed=0, activation="relu")
    params.weights[0][:] = np.eye(width)
    return params


def test_spread_constant_embeddings_degenerate():
    params = init_encoder([4, 3], seed=0, activation="relu")
    params.weights[0][:] = 0.0
    params.biases[0][:] = [1.0, 0.0, 0.0]  # every scan maps to the same unit embedding
    x = np.random.default_rng(0).normal(size=(10, 4))
    hs = np.random.default_rng(1).uniform(0, 1, size=10)
    profile = embedding_spread(params, x, hs, sample_size=1000, seed=0)
    assert np.all(profile.cos_distance == 0.0)
    assert profile.std_dev == 0.0
    assert profile.rho == 0.0 and profile.degenerate


def test_spread_rejects_a_score_count_other_than_the_scan_count():
    encoder = init_encoder([3, 2], seed=0)
    with pytest.raises(ShapeError, match="^embedding_spread: 5 scans vs 4 scores$"):
        embedding_spread(encoder, np.ones((5, 3)), np.zeros(4), sample_size=10)


def test_spread_rejects_a_pair_with_a_zero_embedding():
    # the same rule as the cosine contrastive loss: no cosine for a zero vector
    x = np.random.default_rng(0).uniform(0.5, 1.0, size=(10, 2))
    x[4] = [-1.0, -2.0]  # the relu identity encoder maps this scan to the zero vector
    hs = np.random.default_rng(1).uniform(0, 1, size=10)
    with pytest.raises(DomainError, match="zero vector"):
        embedding_spread(_identity_encoder(2), x, hs, sample_size=1000, seed=0)


def test_spread_monotone_angle_embedding_has_rho_one():
    # scans already on the unit circle at angle = score: cosine distance is
    # strictly increasing in |delta score|, so ranks align perfectly; distinct
    # pairwise deltas keep the ranking free of float near-ties
    hs = np.random.default_rng(7).uniform(0.0, 1.0, size=12)
    deltas = np.abs(hs[:, None] - hs[None, :])[np.triu_indices(12, 1)]
    assert len(set(deltas.tolist())) == len(deltas)
    x = np.stack([np.cos(hs), np.sin(hs)], axis=1)  # non-negative, relu-transparent
    profile = embedding_spread(_identity_encoder(2), x, hs, sample_size=10_000, seed=0)
    assert not profile.degenerate
    assert profile.rho == pytest.approx(1.0)


def test_spread_sampling_is_seeded_and_capped():
    params = init_encoder([3, 2], seed=1)
    rng = np.random.default_rng(4)
    x = rng.normal(size=(15, 3))
    hs = rng.uniform(0, 1, size=15)
    a = embedding_spread(params, x, hs, sample_size=20, seed=9)
    b = embedding_spread(params, x, hs, sample_size=20, seed=9)
    assert np.array_equal(a.delta_hs, b.delta_hs)
    assert a.n_points == 20
    full = embedding_spread(params, x, hs, sample_size=10_000, seed=9)
    assert full.n_points == 15 * 14 // 2


def test_spread_distance_bounds():
    params = init_encoder([3, 2], seed=2, activation="tanh")
    rng = np.random.default_rng(5)
    x = rng.normal(size=(20, 3))
    hs = rng.uniform(0, 1, size=20)
    profile = embedding_spread(params, x, hs, sample_size=500, seed=0)
    assert np.all(profile.cos_distance >= 0.0)
    assert np.all(profile.cos_distance <= 2.0)


@pytest.mark.parametrize("n", [2, 3, 5, 84, 504, 3001])
def test_spread_samples_the_pairs_a_full_upper_triangle_gives(n):
    """The sorted draw's pairs out of ``np.triu_indices``, for samples below, at and above the pair count."""
    iu, ju = np.triu_indices(n, k=1)
    total = iu.shape[0]
    for size in sorted({s for s in (1, 2000, total - 1, total, total + 1) if s >= 1}):
        ref = (iu, ju)
        if size < total:
            sel = np.random.default_rng(3).choice(total, size=size, replace=False)
            sel.sort()
            ref = (iu[sel], ju[sel])
        got = hscl.metrics._sampled_pairs(n, size, 3)
        assert all(g.dtype == r.dtype and np.array_equal(g, r) for g, r in zip(got, ref)), (n, size)


def test_spread_memory_grows_with_the_scans_not_the_pairs():
    n = 3000  # 4 498 500 pairs: one int64 array of them is 36 MB
    rng = np.random.default_rng(6)
    x, hs = rng.uniform(0.5, 1.0, size=(n, 2)), rng.uniform(0, 1, size=n)
    tracemalloc.start()
    try:
        profile = embedding_spread(_identity_encoder(2), x, hs, sample_size=2000, seed=0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert profile.n_points == 2000
    assert peak < 2_000_000


def test_spread_requires_two_scans():
    params = init_encoder([3, 2], seed=0)
    with pytest.raises(ConfigError, match="at least 2"):
        embedding_spread(params, np.ones((1, 3)), np.ones(1), 10)


# -- profile export -----------------------------------------------------------------


def test_export_empty_profile(tmp_path):
    profile = SpreadProfile(np.zeros(0), np.zeros(0), 0.0, 0.0, True)
    path = tmp_path / "empty.tsv"
    export_profile(profile, path)
    lines = path.read_text().splitlines()
    assert lines[0] == "delta_hs\tcos_distance"
    assert all(line.startswith("#") for line in lines[1:])


def test_export_row_count_and_determinism(tmp_path):
    rng = np.random.default_rng(6)
    profile = SpreadProfile(rng.uniform(size=7), rng.uniform(size=7), 0.3, 0.5, False)
    p1, p2 = tmp_path / "a.tsv", tmp_path / "b.tsv"
    export_profile(profile, p1)
    export_profile(profile, p2)
    assert p1.read_bytes() == p2.read_bytes()
    lines = p1.read_text().splitlines()
    data_rows = [l for l in lines[1:] if not l.startswith("#")]
    assert len(data_rows) == 7
    assert any(l.startswith("# std_dev") for l in lines)

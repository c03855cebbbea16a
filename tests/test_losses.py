import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hscl.errors import ConfigError, DomainError, ShapeError
from hscl.losses import (
    MODES,
    SIMILARITIES,
    LossConfig,
    cl_loss,
    combined_loss,
    combined_loss_backward,
    combined_loss_forward,
    combined_loss_terms,
    contrast_targets,
    cross_entropy,
    loss_gradients,
    mine_batch,
    mse_loss,
    wcl_loss,
)
from hscl.model import classify_pairs, init_classifier_head
from hscl.tensor import Tensor, backward, grad_check

import elementary as el
from elementary import dense, pairwise_similarity
from oracles import cl_ref, combined_loss_chain, cross_entropy_ref, mine_ref, mse_ref, sim_ref, wcl_ref

CL_CFG = LossConfig(mode="mse+cl")
WCL_CFG = LossConfig(mode="mse+wcl")


# -- mse ------------------------------------------------------------------------


def test_mse_zero_on_equal():
    y = np.array([1.0, -2.0, 3.0])
    assert mse_loss(y, Tensor(y.copy())).item() == 0.0


def test_mse_hand_value():
    assert mse_loss([1.0, 3.0], Tensor([0.0, 1.0])).item() == 5.0


def test_mse_matches_scalar_loop():
    rng = np.random.default_rng(0)
    y, y_pred = rng.normal(size=100), rng.normal(size=100)
    assert abs(mse_loss(y, Tensor(y_pred)).item() - mse_ref(y, y_pred)) < 1e-10


def test_mse_length_mismatch():
    with pytest.raises(ShapeError):
        mse_loss([1.0, 2.0], Tensor([1.0, 2.0, 3.0]))


def test_mse_gradient_is_tight():
    rng = np.random.default_rng(20)
    y = rng.normal(size=8)
    assert grad_check(lambda t: mse_loss(y, t), Tensor(rng.normal(size=8)), 1e-6) < 1e-5


# -- similarity -------------------------------------------------------------------


def test_cosine_similarity_of_self_is_one():
    e = np.array([[0.3, -1.2, 0.7], [1.0, 0.5, -0.2]])
    s = pairwise_similarity(Tensor(e), "cos").data
    assert np.allclose(np.diag(s), 1.0, rtol=0.0, atol=1e-12)
    assert sim_ref(e[0], e[0], "cos") == pytest.approx(1.0, abs=1e-12)


def test_cosine_similarity_antipodal_hits_floor():
    e = np.array([[1.0, 0.0], [-1.0, 0.0]])
    s = el.clamp(pairwise_similarity(Tensor(e), "cos"), 1e-6, 1.0).data
    assert s[0, 1] == s[1, 0] == 1e-6
    assert sim_ref(e[0], e[1], "cos", 1e-6) == 1e-6


def test_l2_similarity_value():
    e = np.array([[0.0, 0.0], [3.0, 4.0]])
    s = pairwise_similarity(Tensor(e), "l2").data
    assert s[0, 1] == pytest.approx(1.0 / 6.0, abs=1e-12)
    assert s[0, 1] == pytest.approx(sim_ref(e[0], e[1], "l2"), abs=1e-12)


def test_cosine_rejects_zero_vector():
    with pytest.raises(DomainError, match="zero"):
        pairwise_similarity(Tensor([[0.0, 0.0], [1.0, 0.0]]), "cos")


@given(st.integers(0, 2**32 - 1))
@settings(max_examples=30, deadline=None)
def test_similarity_range(seed):
    rng = np.random.default_rng(seed)
    e = rng.normal(size=(4, 4))
    for kind in ("cos", "l2"):
        s = el.clamp(pairwise_similarity(Tensor(e), kind), 1e-6, 1.0).data
        assert np.all((s > 0.0) & (s <= 1.0))
        for i in range(4):
            for j in range(4):
                assert s[i, j] == pytest.approx(sim_ref(e[i], e[j], kind), abs=1e-12)


# -- mining -----------------------------------------------------------------------


def test_mine_batch_sorted_scores():
    result = mine_batch([100, 200, 300, 400, 500, 600, 700, 800])
    assert result.per_side == 3
    assert result.positives[0] == [1, 2, 3]
    assert result.negatives[0] == [5, 6, 7]
    used = set(result.positives[0]) | set(result.negatives[0])
    assert 4 not in used  # middle candidate dropped for even batch size


def test_mine_batch_all_equal_tie_break_by_index():
    result = mine_batch([5.0] * 5)
    assert result.positives[0] == [1, 2]
    assert result.negatives[0] == [3, 4]


def test_mine_batch_too_small():
    with pytest.raises(ConfigError):
        mine_batch([1.0, 2.0])


def test_mine_batch_matches_selection_oracle():
    rng = np.random.default_rng(7)
    for _ in range(200):
        b = int(rng.integers(4, 17))
        # mix of continuous and heavily tied score vectors
        if rng.random() < 0.3:
            hs = rng.integers(0, 3, size=b).astype(float)
        else:
            hs = rng.normal(size=b)
        result = mine_batch(hs)
        ref_pos, ref_neg = mine_ref(hs)
        for i in range(b):
            assert sorted(result.positives[i]) == ref_pos[i]
            assert sorted(result.negatives[i]) == ref_neg[i]
        _check_masks(result)


def _check_masks(result):
    """The (B, B) masks: no diagonal, disjoint, k per row, and the same pairs as the lists."""
    b, k = result.batch_size, result.per_side
    for mask, lists in ((result.positive, result.positives), (result.negative, result.negatives)):
        assert mask.dtype == bool and mask.shape == (b, b)
        assert not mask.diagonal().any()
        assert np.array_equal(mask.sum(axis=1), np.full(b, k))
        assert [np.flatnonzero(row).tolist() for row in mask] == [sorted(js) for js in lists]
    assert not (result.positive & result.negative).any()


@given(st.lists(st.floats(-1e6, 1e6, allow_nan=False), min_size=3, max_size=16))
@settings(max_examples=200, deadline=None)
def test_mine_batch_invariants(hs):
    result = mine_batch(hs)
    b = len(hs)
    k = (b - 1) // 2
    for i in range(b):
        pos, neg = set(result.positives[i]), set(result.negatives[i])
        assert i not in pos | neg
        assert not pos & neg
        assert len(pos) == len(neg) == k
        if pos and neg:
            max_pos = max(result.distances[i, j] for j in pos)
            min_neg = min(result.distances[i, j] for j in neg)
            assert max_pos <= min_neg
    _check_masks(result)


# -- contrastive losses --------------------------------------------------------------


def test_cl_loss_zero_for_identical_embeddings():
    u = np.tile([0.5, -0.2, 0.1], (4, 1))
    mining = mine_batch([1.0, 2.0, 3.0, 4.0])
    assert abs(cl_loss(Tensor(u), mining, CL_CFG).item()) < 1e-12


def test_cl_loss_saturated_pairs_value():
    # positives identical (sim 1), negatives antipodal (sim floor)
    u = np.array([[1.0, 0.0], [1.0, 0.0], [-1.0, 0.0], [-1.0, 0.0]])
    mining = mine_batch([0.0, 0.0, 1.0, 1.0])
    total_neg_pairs = sum(len(n) for n in mining.negatives)
    expected = total_neg_pairs * math.log(1e-6)
    assert cl_loss(Tensor(u), mining, CL_CFG).item() == pytest.approx(expected, abs=1e-9)
    assert expected == pytest.approx(-13.8155 * total_neg_pairs, abs=1e-3 * total_neg_pairs)


@pytest.mark.parametrize("kind", ["cos", "l2"])
def test_cl_loss_matches_double_loop_oracle(kind):
    rng = np.random.default_rng(1)
    for _ in range(25):
        b = int(rng.integers(3, 9))
        u = rng.normal(size=(b, 4))
        hs = rng.normal(size=b)
        mining = mine_batch(hs)
        cfg = LossConfig(mode="mse+cl", similarity=kind)
        got = cl_loss(Tensor(u), mining, cfg).item()
        want = cl_ref(u, mining.positives, mining.negatives, kind)
        assert abs(got - want) < 1e-10


@pytest.mark.parametrize("row", [0, 3, 5])
def test_contrastive_losses_reject_a_zero_row_anywhere_with_cosine(row):
    rng = np.random.default_rng(12)
    u = rng.normal(size=(6, 3))
    u[row] = 0.0
    hs = rng.uniform(0, 1, size=6)
    mining = mine_batch(hs)
    with pytest.raises(DomainError, match="zero"):
        cl_loss(Tensor(u), mining, CL_CFG)
    with pytest.raises(DomainError, match="zero"):
        wcl_loss(Tensor(u), mining, hs, WCL_CFG)


def test_saturated_batch_has_zero_embedding_gradient():
    # every positive pair sits at sim 1 and every negative at the floor, so
    # the clamp passes no gradient through any mined pair
    u = np.array([[1.0, 0.0], [1.0, 0.0], [-1.0, 0.0], [-1.0, 0.0]])
    hs = np.array([0.0, 0.0, 1.0, 1.0])
    mining = mine_batch(hs)
    for loss in (
        lambda e: cl_loss(e, mining, CL_CFG),
        lambda e: wcl_loss(e, mining, hs, WCL_CFG),
    ):
        e = Tensor(u.copy(), requires_grad=True)
        backward(loss(e))
        assert np.array_equal(e.grad, np.zeros_like(u))


def _graph_size(root):
    seen, stack = set(), [root]
    while stack:
        node = stack.pop()
        if id(node) not in seen:
            seen.add(id(node))
            stack.extend(node._parents)
    return len(seen)


@pytest.mark.parametrize("kind", ["cos", "l2"])
def test_contrastive_graph_size_does_not_grow_with_batch(kind):
    rng = np.random.default_rng(13)
    sizes = {}
    for b in (8, 16):
        e = Tensor(rng.normal(size=(b, 4)), requires_grad=True)
        hs = rng.uniform(0, 1, size=b)
        mining = mine_batch(hs)
        cl_cfg = LossConfig(mode="mse+cl", similarity=kind)
        wcl_cfg = LossConfig(mode="mse+wcl", similarity=kind)
        sizes[b] = (_graph_size(cl_loss(e, mining, cl_cfg)), _graph_size(wcl_loss(e, mining, hs, wcl_cfg)))
    assert sizes[8] == sizes[16]


def test_frozen_finetune_step_graph_size_does_not_grow_with_batch():
    rng = np.random.default_rng(14)
    cls = init_classifier_head(4, seed=0)
    sizes = {}
    for b in (8, 16):
        logits = classify_pairs(cls, rng.normal(size=(b, 4)), rng.normal(size=(b, 4)))
        sizes[b] = _graph_size(cross_entropy(logits, rng.integers(0, 3, size=b)))
    assert sizes[8] == sizes[16]


def test_wcl_loss_identical_embeddings_value():
    # sim == 1 everywhere: positive terms vanish, each negative term is log(eps)
    u = np.tile([0.4, 0.3], (5, 1))
    hs = np.zeros(5)
    mining = mine_batch(hs)
    cfg = LossConfig(mode="mse+wcl", eps=1e-2)
    total_neg_pairs = sum(len(n) for n in mining.negatives)
    expected = total_neg_pairs * math.log(1e-2)
    assert wcl_loss(Tensor(u), mining, hs, cfg).item() == pytest.approx(expected, abs=1e-10)


def test_wcl_reduces_to_cl_when_weights_are_one():
    # all label distances 0 and eps = 1 makes every weight d + eps == 1
    rng = np.random.default_rng(2)
    u = rng.normal(size=(6, 3))
    hs = np.full(6, 0.7)
    mining = mine_batch(hs)
    cfg = LossConfig(mode="mse+wcl", eps=1.0)
    assert abs(
        wcl_loss(Tensor(u), mining, hs, cfg).item()
        - cl_loss(Tensor(u), mining, cfg).item()
    ) < 1e-10


@pytest.mark.parametrize("kind", ["cos", "l2"])
def test_wcl_loss_matches_double_loop_oracle(kind):
    rng = np.random.default_rng(3)
    for _ in range(25):
        b = int(rng.integers(3, 9))
        u = rng.normal(size=(b, 4))
        hs = rng.uniform(0, 1, size=b)
        mining = mine_batch(hs)
        cfg = LossConfig(mode="mse+wcl", similarity=kind, eps=1e-2)
        got = wcl_loss(Tensor(u), mining, hs, cfg).item()
        want = wcl_ref(u, mining.positives, mining.negatives, hs, 1e-2, kind)
        assert abs(got - want) < 1e-10


def test_batch_size_mismatch_rejected():
    mining = mine_batch([1.0, 2.0, 3.0])
    with pytest.raises(ShapeError, match="mining"):
        cl_loss(Tensor(np.ones((4, 2))), mining, CL_CFG)


def test_contrastive_losses_permutation_invariant():
    rng = np.random.default_rng(4)
    u = rng.normal(size=(7, 3))
    hs = rng.uniform(0, 1, size=7)
    perm = rng.permutation(7)
    base_cl = cl_loss(Tensor(u), mine_batch(hs), CL_CFG).item()
    base_wcl = wcl_loss(Tensor(u), mine_batch(hs), hs, WCL_CFG).item()
    perm_cl = cl_loss(Tensor(u[perm]), mine_batch(hs[perm]), CL_CFG).item()
    perm_wcl = wcl_loss(Tensor(u[perm]), mine_batch(hs[perm]), hs[perm], WCL_CFG).item()
    assert abs(base_cl - perm_cl) < 1e-10
    assert abs(base_wcl - perm_wcl) < 1e-10


def test_cosine_losses_scale_invariant():
    rng = np.random.default_rng(5)
    u = rng.normal(size=(6, 4))
    hs = rng.uniform(0, 1, size=6)
    mining = mine_batch(hs)
    for scale in (0.3, 7.0):
        assert abs(
            cl_loss(Tensor(u * scale), mining, CL_CFG).item()
            - cl_loss(Tensor(u), mining, CL_CFG).item()
        ) < 1e-10
        assert abs(
            wcl_loss(Tensor(u * scale), mining, hs, WCL_CFG).item()
            - wcl_loss(Tensor(u), mining, hs, WCL_CFG).item()
        ) < 1e-10


def _rotation_batch(theta):
    """u2 orbits around u1=e1, changing only its similarity to u0=e2."""
    u0 = [0.0, 1.0, 0.0]
    u1 = [1.0, 0.0, 0.0]
    u2 = [0.5, 0.6 * math.cos(theta), 0.6 * math.sin(theta)]
    return np.array([u0, u1, u2])


def test_cl_loss_monotone_in_positive_pair_similarity():
    # hs [0, 10, 1] mines (0,2) as a positive pair for anchors 0 and 2
    mining = mine_batch([0.0, 10.0, 1.0])
    losses = [
        cl_loss(Tensor(_rotation_batch(theta)), mining, CL_CFG).item()
        for theta in (1.2, 0.8, 0.4)  # decreasing theta raises sim(u0, u2)
    ]
    assert losses[0] > losses[1] > losses[2]


def test_cl_loss_monotone_in_negative_pair_similarity():
    # hs [0, 1, 10] mines (0,2) as a negative pair instead
    mining = mine_batch([0.0, 1.0, 10.0])
    losses = [
        cl_loss(Tensor(_rotation_batch(theta)), mining, CL_CFG).item()
        for theta in (1.2, 0.8, 0.4)
    ]
    assert losses[0] < losses[1] < losses[2]


# -- combined ----------------------------------------------------------------------


def test_combined_alpha_zero_equals_mse_for_all_modes():
    rng = np.random.default_rng(6)
    u = rng.normal(size=(5, 3))
    hs = rng.uniform(0, 1, size=5)
    y_pred = Tensor(rng.normal(size=5))
    mining = mine_batch(hs)
    want = mse_loss(hs, y_pred).item()
    for mode in ("mse", "mse+cl", "mse+wcl"):
        cfg = LossConfig(mode=mode, alpha=0.0)
        got = combined_loss(hs, y_pred, Tensor(u), mining, hs, cfg)
        assert got.item() == want


def test_combined_contrastive_mode_needs_mining():
    with pytest.raises(ConfigError, match="mining"):
        combined_loss_terms([1.0, 2.0, 3.0], Tensor([1.0, 2.0, 3.0]), None, None, None, CL_CFG)


def test_combined_is_sum_of_reference_terms():
    rng = np.random.default_rng(7)
    u = rng.normal(size=(4, 3))
    hs = rng.uniform(0, 1, size=4)
    y_pred = rng.normal(size=4)
    mining = mine_batch(hs)
    cfg = LossConfig(mode="mse+cl", alpha=0.5)
    got = combined_loss(hs, Tensor(y_pred), Tensor(u), mining, hs, cfg).item()
    want = mse_ref(hs, y_pred) + 0.5 * cl_ref(u, mining.positives, mining.negatives, "cos")
    assert abs(got - want) < 1e-10


def test_combined_gradient_wrt_embeddings():
    rng = np.random.default_rng(8)
    b, d = 5, 3
    u = rng.normal(size=(b, d))
    hs = rng.uniform(0, 1, size=b)
    y_pred = Tensor(rng.normal(size=b))
    mining = mine_batch(hs)
    for mode in ("mse+cl", "mse+wcl"):
        cfg = LossConfig(mode=mode)

        def f(flat):
            return combined_loss(hs, y_pred, flat.reshape((b, d)), mining, hs, cfg)

        assert grad_check(f, Tensor(u.reshape(-1)), 1e-6) < 1e-4


# -- cross entropy -----------------------------------------------------------------


def test_cross_entropy_saturated_correct_class():
    logits = Tensor(np.array([[1e6, 0.0, 0.0], [0.0, 1e6, 0.0]]))
    assert cross_entropy(logits, [0, 1]).item() < 1e-9


def test_cross_entropy_uniform_logits():
    logits = Tensor(np.zeros((5, 3)))
    assert cross_entropy(logits, [0, 1, 2, 0, 1]).item() == pytest.approx(math.log(3.0), abs=1e-12)


def test_cross_entropy_matches_scalar_reference():
    rng = np.random.default_rng(9)
    logits = rng.normal(size=(12, 3))
    labels = rng.integers(0, 3, size=12)
    got = cross_entropy(Tensor(logits), labels).item()
    assert abs(got - cross_entropy_ref(logits, labels)) < 1e-10


def test_cross_entropy_rejects_bad_labels():
    with pytest.raises(DomainError):
        cross_entropy(Tensor(np.zeros((2, 3))), [0, 3])
    for logits, labels in ((np.zeros((0, 3)), np.zeros(0, int)), (np.zeros((2, 0, 3)), np.zeros((2, 0), int))):
        with pytest.raises(ShapeError, match="need at least one row"):
            cross_entropy(Tensor(logits), labels)


def test_cross_entropy_gradient():
    rng = np.random.default_rng(10)
    logits = rng.normal(size=(4, 3))
    labels = np.array([0, 2, 1, 1])

    def f(flat):
        return cross_entropy(flat.reshape((4, 3)), labels)

    assert grad_check(f, Tensor(logits.reshape(-1)), 1e-6) < 1e-4


# -- loss gradients away from clamp boundaries ---------------------------------------


def _interior_batch(rng, b, d, cfg):
    """Random embeddings whose pair similarities avoid the clamp edges."""
    for _ in range(100):
        u = rng.normal(size=(b, d))
        ok = True
        for i in range(b):
            for j in range(b):
                if i != j:
                    s = sim_ref(u[i], u[j], cfg.similarity, cfg.sim_floor)
                    if not cfg.sim_floor + 1e-3 < s < 1.0 - 1e-3:
                        ok = False
        if ok:
            return u
    raise AssertionError("could not sample an interior batch")


@pytest.mark.parametrize("mode", ["mse+cl", "mse+wcl"])
@pytest.mark.parametrize("kind", ["cos", "l2"])
def test_contrastive_gradients_match_finite_differences(mode, kind):
    rng = np.random.default_rng(11)
    cfg = LossConfig(mode=mode, similarity=kind)
    b, d = 4, 3
    u = _interior_batch(rng, b, d, cfg)
    hs = rng.uniform(0, 1, size=b)
    mining = mine_batch(hs)

    def f(flat):
        emb = flat.reshape((b, d))
        if mode == "mse+wcl":
            return wcl_loss(emb, mining, hs, cfg)
        return cl_loss(emb, mining, cfg)

    assert grad_check(f, Tensor(u.reshape(-1)), 1e-6) < 1e-4


# -- loss_gradients -----------------------------------------------------------------


def test_loss_gradients_backprop_into_one_flat_buffer():
    rng = np.random.default_rng(12)
    x = Tensor(rng.normal(size=(5, 3)))
    w, b = rng.normal(size=(3, 2)), rng.normal(size=2)

    ref_w, ref_b = Tensor(w.copy(), requires_grad=True), Tensor(b.copy(), requires_grad=True)
    backward(el.sum(el.square(dense(x, ref_w, ref_b))))

    params = [
        Tensor(w.copy(), requires_grad=True),
        Tensor(b.copy(), requires_grad=True),
        Tensor(np.ones(4), requires_grad=True),  # not reached by the loss
    ]
    grad = np.full(6 + 2 + 4, 7.0)  # stale values must be cleared
    views = [grad[0:6].reshape(3, 2), grad[6:8], grad[8:12]]
    for _ in range(2):  # a second call starts from zero again, no accumulation
        loss = el.sum(el.square(dense(x, params[0], params[1])))
        out = loss_gradients(loss, params, grad, views)
        assert out is grad
        assert np.array_equal(views[0], ref_w.grad)
        assert np.array_equal(views[1], ref_b.grad)
        assert np.array_equal(views[2], np.zeros(4))
        assert all(p.grad is view for p, view in zip(params, views))


# -- a leading run axis: S runs mined and scored at once, each bit-identical to its own call --


@pytest.mark.parametrize("runs", [2, 3, 9])
def test_mine_batch_with_a_run_axis_matches_each_runs_own_mining(runs):
    rng = np.random.default_rng(40)
    for b in (3, 8, 9):
        hs = rng.normal(size=(runs, b))
        hs[0] = rng.integers(0, 2, size=b)  # heavy ties, broken by index
        stacked = mine_batch(hs)
        assert stacked.positive.shape == stacked.negative.shape == stacked.distances.shape == (runs, b, b)
        assert (stacked.batch_size, stacked.per_side) == (b, (b - 1) // 2)
        for r in range(runs):
            alone = mine_batch(hs[r])
            for name in ("positive", "negative", "distances"):
                assert np.array_equal(getattr(stacked, name)[r], getattr(alone, name))


def test_stacked_masks_have_no_per_anchor_index_lists():
    mining = mine_batch(np.arange(12.0).reshape(2, 6))
    with pytest.raises(ShapeError, match="stack"):
        mining.positives
    with pytest.raises(ShapeError, match="stack"):
        mining.negatives


@pytest.mark.parametrize("runs", [2, 3, 9])
@pytest.mark.parametrize("mode", MODES)
@pytest.mark.parametrize("kind", SIMILARITIES)
def test_combined_loss_terms_with_a_run_axis_match_each_runs_own_call_bitwise(kind, mode, runs):
    """Every term, its gradients and its graph size; the wcl value includes its constant term."""
    rng = np.random.default_rng(41)
    cfg = LossConfig(mode=mode, similarity=kind, alpha=0.7)
    b, d = 8, 4

    def call(hs, pred, emb, upstream):
        p, e = Tensor(pred.copy(), requires_grad=True), Tensor(emb.copy(), requires_grad=True)
        mining = mine_batch(hs) if cfg.contrastive else None
        terms = combined_loss_terms(hs, p, e, mining, hs, cfg)
        size = _graph_size(terms[0])
        backward(el.mul(terms[0], Tensor(upstream)))
        return [t.data if t is not None else None for t in terms], p.grad, e.grad, size

    for trial in range(3):
        hs = rng.uniform(0, 1, size=(runs, b))
        pred = rng.normal(size=(runs, b))
        emb = rng.normal(size=(runs, b, d))
        emb[0, 1] = emb[0, 0]  # similarity 1, at the clamp edge
        upstream = rng.normal(size=runs)
        terms, p_grad, e_grad, size = call(hs, pred, emb, upstream)
        for r in range(runs):
            terms_r, p_grad_r, e_grad_r, size_r = call(hs[r], pred[r], emb[r], upstream[r])
            assert size == size_r  # an mse stack builds no contrastive node
            for t, t_r in zip(terms, terms_r):
                assert (t is None and t_r is None) or np.array_equal(t[r], t_r)
            assert np.array_equal(p_grad[r], p_grad_r)
            if cfg.contrastive:
                assert np.array_equal(e_grad[r], e_grad_r)
            else:
                assert e_grad is None and e_grad_r is None


def test_stacked_losses_reject_masks_of_another_batch():
    mining = mine_batch(np.zeros((2, 5)))
    with pytest.raises(ShapeError, match="mining"):
        cl_loss(Tensor(np.ones((3, 5, 2))), mining, CL_CFG)
    with pytest.raises(ShapeError, match="scores"):
        wcl_loss(Tensor(np.ones((2, 5, 2))), mining, np.zeros(10), WCL_CFG)


# Each loss takes one run's operands without a run axis, or S runs' with it on all of them.
_HS = np.array([0.1, 0.5, 0.2, 0.9, 0.4])
_ONE_LAYOUT_CASES = {
    "cross_entropy-labels": (
        lambda: cross_entropy(Tensor(np.zeros((2, 5, 3))), np.zeros(5, dtype=int)),
        r"cross_entropy: got \(5,\) labels for logits of shape \(2, 5, 3\)",
    ),
    "mse_loss-target": (
        lambda: mse_loss(_HS[:, None], Tensor(np.zeros(5))),
        r"mse_loss: target shape \(5, 1\) != prediction shape \(5,\)",
    ),
    "combined_loss_terms-target": (
        lambda: combined_loss_terms(
            _HS[:, None], Tensor(np.zeros(5)), Tensor(np.ones((5, 2))), mine_batch(_HS), _HS, CL_CFG
        ),
        r"mse_loss: target shape \(5, 1\) != prediction shape \(5,\)",
    ),
    "wcl_loss-scores": (
        lambda: wcl_loss(Tensor(np.ones((5, 2))), mine_batch(_HS), _HS[:, None], WCL_CFG),
        r"wcl_loss: got \(5, 1\) scores for embeddings of shape \(5, 2\)",
    ),
}


@pytest.mark.parametrize("case", sorted(_ONE_LAYOUT_CASES))
def test_losses_reject_an_operand_of_another_layout(case):
    call, message = _ONE_LAYOUT_CASES[case]
    with pytest.raises(ShapeError, match=f"^{message}$"):
        call()


# -- epoch-level targets: every batch's masks, K and wcl constant at once -------------------


@pytest.mark.parametrize("lead", [(5,), (4, 3)], ids=["epoch", "epoch-x-runs"])
@pytest.mark.parametrize("b", [3, 8, 9])
def test_contrast_targets_equal_per_batch_mining_and_loss_construction_bitwise(b, lead):
    """Masks, K and the wcl constant per batch, and the loss each batch's slice gives."""
    rng = np.random.default_rng(42)
    hs = rng.uniform(0, 1, size=lead + (b,))
    batches = hs.reshape(-1, b)
    batches[0] = rng.integers(0, 2, size=b)  # heavy ties, broken by index
    batches[1] = 0.25  # every score tied
    for cfg in (LossConfig("mse+cl", alpha=0.7), LossConfig("mse+wcl", "l2", eps=0.05)):
        targets = contrast_targets(hs, cfg)
        assert targets.coefficients.shape == lead + (b, b)
        assert targets.per_side == (b - 1) // 2
        for index in np.ndindex(*lead):
            scores = hs[index]
            mining = mine_batch(scores)
            one = targets.batch(index)
            for name in ("positive", "negative", "distances"):
                assert np.array_equal(getattr(one, name), getattr(mining, name))
            # the construction cl_loss/wcl_loss used per batch
            if cfg.weighted:
                weights = np.abs(scores[:, None] - scores[None, :]) + cfg.eps
                assert np.array_equal(one.coefficients, mining.negative - mining.positive / weights)
                assert np.array_equal(one.constant, np.log(weights[mining.negative]).sum())
            else:
                assert np.array_equal(one.coefficients, mining.negative.astype(np.float64) - mining.positive)
                assert one.constant is None
            emb = Tensor(rng.normal(size=(b, 3)))
            own = wcl_loss(emb, mining, scores, cfg) if cfg.weighted else cl_loss(emb, mining, cfg)
            _, _, via = combined_loss_terms(scores, Tensor(np.zeros(b)), emb, one, scores, cfg)
            _, _, chain = combined_loss_chain(scores, Tensor(np.zeros(b)), emb, mining, scores, cfg)
            assert np.array_equal(via.data, own.data) and np.array_equal(via.data, chain.data)
        if len(lead) == 2:  # one step of S runs: its (S, B, B) slice is the runs' own stacked mining
            for step in range(lead[0]):
                stacked = mine_batch(hs[step])
                assert np.array_equal(targets.batch(step).positive, stacked.positive)
                assert np.array_equal(targets.batch(step).negative, stacked.negative)


def test_combined_loss_rejects_targets_built_for_another_loss():
    hs = np.array([0.1, 0.5, 0.2, 0.9, 0.4])
    emb, pred = Tensor(np.random.default_rng(43).normal(size=(5, 3))), Tensor(np.zeros(5))
    for built, used in ((CL_CFG, WCL_CFG), (WCL_CFG, CL_CFG), (WCL_CFG, LossConfig("mse+wcl", eps=0.5))):
        with pytest.raises(ConfigError, match="another loss"):
            combined_loss_terms(hs, pred, emb, contrast_targets(hs, built), hs, used)
    with pytest.raises(ShapeError, match="mining"):
        combined_loss_terms(hs, pred, emb, contrast_targets(np.zeros((2, 5)), CL_CFG), hs, CL_CFG)
    wrong_constant = dataclasses.replace(contrast_targets(hs, WCL_CFG), constant=np.zeros(2))
    with pytest.raises(ShapeError, match="add: incompatible shapes"):
        combined_loss_terms(hs, pred, emb, wrong_constant, hs, WCL_CFG)


# -- ContrastTargets: each term one node, wired straight to the leaves ----------------------


def _same_bytes(a, b) -> bool:
    return a is not None and b is not None and a.shape == b.shape and a.tobytes() == b.tobytes()


@pytest.mark.parametrize("alpha", [1.0, 0.7])
@pytest.mark.parametrize("runs", [1, 3])
@pytest.mark.parametrize("mode", ["mse+cl", "mse+wcl"])
@pytest.mark.parametrize("kind", SIMILARITIES)
def test_contrast_targets_terms_are_one_node_each_and_match_the_graph_ops_bytewise(kind, mode, runs, alpha):
    """Values and leaf gradients against ``oracles.combined_loss_chain``, through ``backward``.

    The library's terms are computed one way for the epoch's ``contrast_targets``
    and for a plain ``mine_batch`` result. The total reaches both leaves,
    ``mse`` only the predictions and ``con`` only the embeddings; the total's
    graph is the node and its two leaves at every batch size, against 7 (cl)
    or 9 (wcl) nodes for the chain of graph ops.
    """
    rng = np.random.default_rng(44)
    cfg = LossConfig(mode=mode, similarity=kind, alpha=alpha)
    lead = (runs,) if runs > 1 else ()
    for b in (3, 8, 9):
        hs = rng.uniform(0, 1, size=lead + (b,))
        pred = rng.normal(size=lead + (b,))
        emb = rng.normal(size=lead + (b, 4))
        emb[..., 1, :] = emb[..., 0, :]  # similarity 1, at the clamp edge
        upstream = Tensor(rng.normal(size=lead))

        def call(loss, mining, root):
            p, e = Tensor(pred.copy(), requires_grad=True), Tensor(emb.copy(), requires_grad=True)
            terms = loss(hs, p, e, mining, hs, cfg)
            size = _graph_size(terms[0])
            backward(el.mul(terms[root], upstream))
            return [t.data for t in terms], p.grad, e.grad, size

        for root in range(3):
            chain_values, chain_p_grad, chain_e_grad, chain_size = call(combined_loss_chain, mine_batch(hs), root)
            assert chain_size == (7 if mode == "mse+cl" else 9)
            for mining in (contrast_targets(hs, cfg), mine_batch(hs)):
                values, p_grad, e_grad, size = call(combined_loss_terms, mining, root)
                assert size == 3
                assert all(_same_bytes(v, c) for v, c in zip(values, chain_values))
                if root == 2:
                    assert p_grad is None and chain_p_grad is None
                else:
                    assert _same_bytes(p_grad, chain_p_grad)
                if root == 1:
                    assert e_grad is None and chain_e_grad is None
                else:
                    assert _same_bytes(e_grad, chain_e_grad)


@pytest.mark.parametrize("runs", [1, 3])
@pytest.mark.parametrize("mode", ["mse+cl", "mse+wcl"])
def test_zero_norm_embeddings_raise_the_same_error_with_contrast_targets_and_with_mining(mode, runs):
    rng = np.random.default_rng(45)
    cfg = LossConfig(mode=mode)
    lead = (runs,) if runs > 1 else ()
    hs = rng.uniform(0, 1, size=lead + (6,))
    emb = rng.normal(size=lead + (6, 3))
    emb[..., 4, :] = 0.0
    messages = []
    for mining in (contrast_targets(hs, cfg), mine_batch(hs)):
        with pytest.raises(DomainError) as info:
            combined_loss_terms(hs, Tensor(np.zeros(lead + (6,))), Tensor(emb), mining, hs, cfg)
        messages.append(str(info.value))
    assert messages[0] == messages[1] == "pairwise_similarity: cosine undefined for a zero vector"


# -- the array pair the pre-training step calls ---------------------------------------------


@pytest.mark.parametrize("runs", [1, 3])
@pytest.mark.parametrize(
    "mode, alpha", [("mse", 1.0), ("mse+cl", 0.7), ("mse+wcl", 0.7), ("mse+cl", 0.0)],
    ids=["mse", "mse+cl", "mse+wcl", "mse+cl-alpha0"],
)
@pytest.mark.parametrize("kind", SIMILARITIES)
def test_combined_loss_pair_matches_the_terms_nodes_and_the_graph_ops_bytewise(kind, mode, alpha, runs):
    """Values and both gradients of the pair against ``combined_loss_terms`` and ``oracles.combined_loss_chain``.

    The total's gradient is 0.5, not the ones ``backward`` seeds, so the
    contrastive share shows its scaling by alpha. With alpha == 0 a
    contrastive mode takes the mse-only path: no contrastive term and no
    embedding gradient.
    """
    rng = np.random.default_rng(46)
    cfg = LossConfig(mode=mode, similarity=kind, alpha=alpha)
    lead = (runs,) if runs > 1 else ()
    assert cfg.needs_mining == (mode != "mse" and alpha != 0.0)
    for b in (3, 8, 9):
        hs = rng.uniform(0, 1, size=lead + (b,))
        pred = rng.normal(size=lead + (b,))
        emb = rng.normal(size=lead + (b, 4))
        emb[..., 1, :] = emb[..., 0, :]  # similarity 1, at the clamp edge
        seed = np.full(lead, 0.5)
        targets = contrast_targets(hs, cfg) if cfg.needs_mining else None
        values, saved = combined_loss_forward(hs, pred, emb, targets, cfg)
        p_grad, e_grad = combined_loss_backward(seed, cfg, *saved)
        assert (values[2] is None) == (e_grad is None) == (not cfg.needs_mining)
        for loss, mining in ((combined_loss_terms, targets), (combined_loss_chain, mine_batch(hs))):
            p, e = Tensor(pred.copy(), requires_grad=True), Tensor(emb.copy(), requires_grad=True)
            terms = loss(hs, p, e, mining, hs, cfg)
            backward(el.mul(terms[0], Tensor(seed)))
            for value, term in zip(values, terms):
                assert (value is None and term is None) or _same_bytes(value, term.data)
            assert _same_bytes(p_grad, p.grad)
            assert (e_grad is None and e.grad is None) or _same_bytes(e_grad, e.grad)

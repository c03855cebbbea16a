import itertools
import math

import numpy as np
import pytest

from hscl.errors import ConfigError, DomainError, GraphStateError, ShapeError
from hscl.tensor import (
    Tensor,
    backward,
    grad_check,
    node,
    pairwise_similarity_backward,
    pairwise_similarity_forward,
    squared_error_sum_backward,
    squared_error_sum_forward,
    weighted_log_sum_backward,
    weighted_log_sum_forward,
)

import elementary as el
from elementary import (
    concat_last,
    dense,
    matmul,
    pairwise_similarity,
    softmax_cross_entropy,
    squared_error_sum,
    weighted_log_sum,
)
from oracles import (
    dense_chain,
    sim_ref,
    softmax_cross_entropy_chain,
    squared_error_sum_chain,
    weighted_log_sum_chain,
)


def test_affine_identity():
    x = Tensor([[1.0, 0.0]])
    w = Tensor(np.eye(2))
    b = Tensor(np.zeros(2))
    out = dense(x, w, b)
    assert np.array_equal(out.data, [[1.0, 0.0]])


def test_sum_of_squares_forward():
    assert el.sum(el.square(Tensor([3.0, 4.0]))).item() == 25.0


def test_log_of_clamped_zero():
    out = el.log(el.clamp(Tensor(0.0), 1e-12, 1.0))
    assert out.item() == pytest.approx(math.log(1e-12))
    assert out.item() == pytest.approx(-27.631, abs=1e-3)


def test_backward_sum_of_squares():
    x = Tensor([3.0, 4.0], requires_grad=True)
    backward(el.sum(el.square(x)))
    assert np.array_equal(x.grad, [6.0, 8.0])


def test_backward_constant_root_is_noop():
    root = Tensor(5.0)
    backward(root)  # no requires-grad leaves anywhere


def test_backward_cosine_gradient():
    # d/du of cos(u, v) at u=[1,0], v=[0,1] is exactly [0, 1]; the shifted
    # similarity (cos + 1) / 2 halves it
    e = Tensor([[1.0, 0.0], [0.0, 1.0]], requires_grad=True)
    pick = Tensor([[0.0, 1.0], [0.0, 0.0]])
    backward(el.sum(el.mul(pairwise_similarity(e, "cos"), pick)))
    assert np.allclose(e.grad[0], [0.0, 0.5], atol=1e-12)

    def f(t):
        return el.sum(el.mul(pairwise_similarity(t.reshape((2, 2)), "cos"), pick))

    assert grad_check(f, Tensor([1.0, 0.0, 0.0, 1.0]), 1e-6) < 1e-6


def test_backward_seeds_a_non_scalar_root_with_ones():
    """An (S,) root holds S runs' losses, and each run's leaves get only their own gradient."""
    x = Tensor([1.0, 2.0], requires_grad=True)
    backward(el.mul(x, 2.0))
    assert np.array_equal(x.grad, [2.0, 2.0])
    runs = Tensor([[1.0, 2.0], [3.0, -1.0], [0.5, 0.0]], requires_grad=True)
    backward(el.sum(el.square(runs), axis=1))
    assert np.array_equal(runs.grad, 2.0 * runs.data)


def test_backward_rejects_consumed_graph():
    x = Tensor([1.0, 2.0], requires_grad=True)
    loss = el.sum(el.square(x))
    backward(loss)
    with pytest.raises(GraphStateError):
        backward(loss)


def test_gradient_sums_over_uses():
    x = Tensor([2.0], requires_grad=True)
    y = el.add(el.mul(x, 3.0), el.mul(x, x))  # x used twice
    backward(el.sum(y))
    assert np.allclose(x.grad, [3.0 + 2.0 * 2.0])


@pytest.mark.parametrize("sum_first", [True, False])
def test_first_gradient_write_never_aliases_another_node(sum_first):
    """``add(a, b)`` passes one upstream array to both non-leaf parents, which then get more.

    A first write keeps the array it is handed, so the add must give each
    parent its own: if ``a`` and ``b`` shared one array, adding ``a``'s other
    contribution would also land in ``b``'s gradient. The add hands its array
    over only when it is walked before the other uses of ``a`` and ``b``, which
    depends on the term order; both orders are run.
    """
    x = Tensor([1.0, 2.0], requires_grad=True)
    y = Tensor([0.5, -1.0], requires_grad=True)
    a, b = el.mul(x, 2.0), el.mul(y, 3.0)
    terms = [el.add(a, b), el.mul(a, 5.0), el.mul(b, 7.0)]
    if not sum_first:
        terms.reverse()
    backward(el.sum(el.add(el.add(terms[0], terms[1]), terms[2])))
    # dL/da = 1 + 5, dL/db = 1 + 7
    assert np.array_equal(x.grad, [12.0, 12.0])
    assert np.array_equal(y.grad, [24.0, 24.0])
    assert np.array_equal(a.grad, [6.0, 6.0])
    assert np.array_equal(b.grad, [8.0, 8.0])


def test_shape_errors_name_op_and_shapes():
    with pytest.raises(ShapeError, match=r"add.*\(2,\).*\(3,\)"):
        el.add(Tensor([1.0, 2.0]), Tensor([1.0, 2.0, 3.0]))
    with pytest.raises(ShapeError, match="matmul"):
        matmul(Tensor(np.ones((2, 3))), Tensor(np.ones((2, 3))))
    with pytest.raises(ShapeError, match="dense"):
        dense(Tensor(np.ones((2, 3))), Tensor(np.ones((4, 2))), Tensor(np.zeros(2)))
    with pytest.raises(ShapeError, match="dense"):
        dense(Tensor(np.ones((2, 3))), Tensor(np.ones((3, 2))), Tensor(np.zeros(3)))


def test_log_domain_error():
    with pytest.raises(DomainError, match="log"):
        el.log(Tensor([-1.0]))
    with pytest.raises(DomainError, match="sqrt"):
        el.sqrt(Tensor([0.0]))
    with pytest.raises(DomainError, match="reciprocal"):
        el.reciprocal(Tensor([0.0]))


def test_relu_subgradient_zero_at_kink():
    x = Tensor([[0.0, -1.0, 2.0]], requires_grad=True)
    backward(el.sum(dense(x, Tensor(np.eye(3)), Tensor(np.zeros(3)), "relu")))
    assert np.array_equal(x.grad, [[0.0, 0.0, 1.0]])


def test_clamp_gradient_zero_at_boundaries_and_outside():
    x = Tensor([0.0, 0.5, 1.0, 2.0, -1.0], requires_grad=True)
    backward(el.sum(el.clamp(x, 0.0, 1.0)))
    assert np.array_equal(x.grad, [0.0, 1.0, 0.0, 0.0, 0.0])


def test_softmax_forward_and_shift_invariance():
    onehot = np.array([[0.0, 1.0, 0.0]])
    loss = softmax_cross_entropy(Tensor([[1.0, 2.0, 3.0]]), onehot, 1e-12).item()
    e = np.exp([1.0, 2.0, 3.0])
    assert loss == pytest.approx(-math.log(e[1] / e.sum()), abs=1e-14)
    shifted = softmax_cross_entropy(Tensor([[101.0, 102.0, 103.0]]), onehot, 1e-12).item()
    assert shifted == pytest.approx(loss, abs=1e-14)


def test_concat_last_forward_and_backward():
    a = Tensor(np.arange(4.0).reshape(2, 2), requires_grad=True)
    b = Tensor(np.arange(6.0).reshape(2, 3), requires_grad=True)
    out = concat_last([a, b])
    assert out.shape == (2, 5)
    backward(el.sum(el.mul(out, 2.0)))
    assert np.array_equal(a.grad, np.full((2, 2), 2.0))
    assert np.array_equal(b.grad, np.full((2, 3), 2.0))


def test_segment_backward():
    v = Tensor(np.arange(5.0), requires_grad=True)
    backward(el.sum(el.segment(v, 1, 4)))
    assert np.array_equal(v.grad, [0.0, 1.0, 1.0, 1.0, 0.0])


@pytest.mark.parametrize("kind", ["cos", "l2"])
def test_pairwise_similarity_matches_pair_oracle(kind):
    rng = np.random.default_rng(12)
    e = rng.normal(size=(6, 4))
    s = pairwise_similarity(Tensor(e), kind).data
    assert s.shape == (6, 6)
    for i in range(6):
        for j in range(6):
            if i != j:
                assert abs(s[i, j] - sim_ref(e[i], e[j], kind, floor=0.0)) < 1e-12


@pytest.mark.parametrize("kind", ["cos", "l2"])
def test_pairwise_similarity_gradient_at_interior_points(kind):
    rng = np.random.default_rng(13)
    b, d = 5, 3
    for _ in range(5):
        weights = Tensor(rng.normal(size=(b, b)))

        def f(t):
            return el.sum(el.mul(pairwise_similarity(t.reshape((b, d)), kind), weights))

        assert grad_check(f, Tensor(rng.normal(size=b * d)), 1e-6) < 1e-5


def test_pairwise_similarity_cosine_rejects_any_zero_row():
    e = np.ones((4, 3))
    e[2] = 0.0
    with pytest.raises(DomainError, match="zero"):
        pairwise_similarity(Tensor(e), "cos")


def test_pairwise_l2_gradient_zero_where_distance_is_zero():
    e = Tensor(np.array([[1.0, 2.0], [1.0, 2.0]]), requires_grad=True)
    backward(el.sum(pairwise_similarity(e, "l2")))
    assert np.array_equal(e.grad, np.zeros((2, 2)))


def test_pairwise_similarity_rejects_bad_shape_and_kind():
    with pytest.raises(ShapeError, match="pairwise_similarity"):
        pairwise_similarity(Tensor(np.ones(3)), "cos")
    with pytest.raises(ConfigError, match="kind"):
        pairwise_similarity(Tensor(np.ones((3, 2))), "dot")


def test_mean_axis_backward():
    m = Tensor(np.arange(6.0).reshape(2, 3), requires_grad=True)
    backward(el.sum(el.mean(m, axis=1)))
    assert np.allclose(m.grad, np.full((2, 3), 1.0 / 3.0))


def test_mul_scalar_tensor_broadcast():
    v = Tensor([1.0, 2.0], requires_grad=True)
    s = Tensor(3.0, requires_grad=True)
    backward(el.sum(el.mul(v, s)))
    assert np.array_equal(v.grad, [3.0, 3.0])
    assert np.array_equal(s.grad, np.asarray(3.0))


def test_grad_check_quadratic_is_tight():
    assert grad_check(lambda t: el.sum(el.square(t)), Tensor([1.0, 2.0, 3.0]), 1e-6) < 1e-6


def test_grad_check_rejects_bad_step_and_nonscalar():
    with pytest.raises(ValueError, match="step"):
        grad_check(el.sum, Tensor([1.0]), 1e-2)
    with pytest.raises(ValueError, match="scalar"):
        grad_check(lambda t: el.mul(t, 2.0), Tensor([1.0, 2.0]))


def _op_cases(rng):
    """Scalar-valued functions covering the op set, with kink-free sampling.

    Constants are drawn once per case (not inside the lambdas) so the checked
    function is identical across the finite-difference evaluations.
    """

    def away_from_zero(x):
        return np.where(np.abs(x) < 1e-2, x + np.sign(x + 0.5) * 0.2, x)

    mul_const = Tensor(rng.normal(size=4))
    sim_weights = Tensor(rng.normal(size=(2, 2)))
    aff_w, aff_b = Tensor(rng.normal(size=(3, 2))), Tensor(rng.normal(size=2))
    mm_const = Tensor(rng.normal(size=(2, 2)))
    eye5, zeros5 = Tensor(np.eye(5)), Tensor(np.zeros(5))
    onehot = np.eye(3)[rng.integers(0, 3, size=2)]
    target = rng.normal(size=5)
    log_weights = rng.normal(size=(2, 3))
    return [
        (lambda t: el.sum(el.add(el.mul(t, 0.7), el.square(t))), rng.normal(size=6)),
        (lambda t: el.mean(el.square(el.sub(t, Tensor(np.ones(5))))), rng.normal(size=5)),
        (lambda t: el.sum(el.mul(t, mul_const)), rng.normal(size=4)),
        (lambda t: el.sum(dense(t.reshape((1, 5)), eye5, zeros5, "tanh")), rng.normal(size=5)),
        (
            lambda t: el.sum(dense(t.reshape((1, 5)), eye5, zeros5, "relu")),
            away_from_zero(rng.normal(size=5)),
        ),
        (lambda t: el.sum(el.sqrt(el.add(el.square(t), Tensor(np.full(4, 0.5))))), rng.normal(size=4)),
        (lambda t: el.sum(el.log(el.add(el.square(t), Tensor(np.full(4, 0.5))))), rng.normal(size=4)),
        (lambda t: el.sum(el.reciprocal(el.add(el.square(t), Tensor(np.full(3, 0.5))))), rng.normal(size=3)),
        (lambda t: el.sum(el.clamp(t, -0.8, 0.8)), away_from_zero(rng.uniform(-0.5, 0.5, size=5))),
        (
            lambda t: el.sum(el.mul(pairwise_similarity(t.reshape((2, 2)), "cos"), sim_weights)),
            rng.normal(size=4) + 2.0,
        ),
        (
            lambda t: el.sum(el.mul(pairwise_similarity(t.reshape((2, 2)), "l2"), sim_weights)),
            rng.normal(size=4),
        ),
        (lambda t: el.sum(el.square(dense(t.reshape((2, 3)), aff_w, aff_b))), rng.normal(size=6)),
        (lambda t: el.sum(dense(t.reshape((2, 3)), aff_w, aff_b, "tanh")), rng.normal(size=6)),
        (lambda t: el.sum(el.square(matmul(t.reshape((2, 2)), mm_const))), rng.normal(size=4)),
        (lambda t: softmax_cross_entropy(t.reshape((2, 3)), onehot, 1e-12), rng.normal(size=6)),
        (lambda t: squared_error_sum(target, t), rng.normal(size=5)),
        (
            lambda t: weighted_log_sum(t.reshape((2, 3)), log_weights, 1e-6),
            rng.uniform(0.1, 0.9, size=6),
        ),
        (
            lambda t: el.sum(el.square(concat_last([t.reshape((2, 2)), el.mul(t.reshape((2, 2)), 2.0)]))),
            rng.normal(size=4),
        ),
        (lambda t: el.sum(el.square(el.mul(t.reshape((3, 2)), el.sum(t)))), rng.normal(size=6) + 1.5),
        (lambda t: el.sum(el.square(el.segment(t, 1, 4))), rng.normal(size=6)),
        (lambda t: el.sum(el.square(el.sum(t.reshape((2, 4)), axis=0))), rng.normal(size=8)),
        (lambda t: el.sum(el.square(el.mean(t.reshape((2, 3)), axis=1))), rng.normal(size=6)),
        (lambda t: el.square(el.mul(el.sum(t), el.mean(t))), rng.normal(size=5)),
    ]


def _pair_cases(rng):
    """Scalar nodes built on the forward/backward array pairs, as the fused pre-training loss builds its terms."""
    target = rng.normal(size=5)
    log_weights = rng.normal(size=(2, 3))
    contrast_k = rng.normal(size=(3, 3)) * (1.0 - np.eye(3))

    def squared_error_pair(t):
        loss, diff = squared_error_sum_forward(target, t.data)
        return node(loss, (t,), lambda g: (squared_error_sum_backward(g, diff),))

    def weighted_log_pair(t):
        x = t.data.reshape((2, 3))
        loss, clamped = weighted_log_sum_forward(x, log_weights, 1e-6)
        return node(
            loss, (t,), lambda g: (weighted_log_sum_backward(g, x, log_weights, 1e-6, clamped).reshape(-1),)
        )

    def contrast_pair(kind):
        def f(t):
            e = t.data.reshape((3, 2))
            sims, saved = pairwise_similarity_forward(e, kind)
            loss, clamped = weighted_log_sum_forward(sims, contrast_k, 1e-6)

            def grads(g):
                g_sims = weighted_log_sum_backward(g, sims, contrast_k, 1e-6, clamped)
                return (pairwise_similarity_backward(g_sims, e, kind, sims, saved).reshape(-1),)
            return node(loss, (t,), grads)
        return f

    return [
        (squared_error_pair, rng.normal(size=5)),
        (weighted_log_pair, rng.uniform(0.1, 0.9, size=6)),
        (contrast_pair("cos"), rng.normal(size=6)),
        (contrast_pair("l2"), rng.normal(size=6)),
    ]


def test_every_op_matches_finite_differences():
    rng = np.random.default_rng(11)
    pair_rng = np.random.default_rng(12)
    checked = 0
    for trial in range(5):
        for f, point in _op_cases(rng) + _pair_cases(pair_rng):
            err = grad_check(f, Tensor(point), 1e-6)
            assert err < 1e-4, f"trial {trial}: op case failed with error {err}"
            checked += 1
    assert checked >= 100


def test_backward_linearity():
    rng = np.random.default_rng(3)
    point = rng.normal(size=6)
    a, b = 1.7, -0.4

    def f(t):
        return el.sum(el.square(t))

    def g(t):
        return el.sum(dense(t.reshape((1, 6)), Tensor(np.eye(6)), Tensor(np.zeros(6)), "tanh"))

    x1 = Tensor(point.copy(), requires_grad=True)
    backward(f(x1))
    gf = x1.grad.copy()
    x2 = Tensor(point.copy(), requires_grad=True)
    backward(g(x2))
    gg = x2.grad.copy()

    x3 = Tensor(point.copy(), requires_grad=True)
    backward(el.add(el.mul(f(x3), a), el.mul(g(x3), b)))
    assert np.all(np.abs(x3.grad - (a * gf + b * gg)) < 1e-10)


def test_determinism_bitwise():
    def run():
        rng = np.random.default_rng(42)
        x = Tensor(rng.normal(size=(4, 3)), requires_grad=True)
        w = Tensor(rng.normal(size=(3, 2)), requires_grad=True)
        b = Tensor(rng.normal(size=2), requires_grad=True)
        loss = softmax_cross_entropy(dense(x, w, b, "tanh"), np.eye(2)[[0, 1, 1, 0]], 1e-12)
        backward(loss)
        return loss.item(), x.grad.copy(), w.grad.copy()

    l1, gx1, gw1 = run()
    l2, gx2, gw2 = run()
    assert l1 == l2
    assert np.array_equal(gx1, gx2)
    assert np.array_equal(gw1, gw2)


# -- fused ops: bit for bit against the elementary-op chains they replace ------------


def _value_and_grads(build, arrays):
    """Loss value and the gradient of each input array, from a fresh graph."""
    leaves = [Tensor(a.copy(), requires_grad=True) for a in arrays]
    loss = build(*leaves)
    backward(loss)
    return loss.data, [t.grad for t in leaves]


def _assert_bitwise_equal(fused, chain):
    (value, grads), (want_value, want_grads) = fused, chain
    assert np.array_equal(value, want_value)
    for got, want in zip(grads, want_grads):
        assert np.array_equal(got, want)


@pytest.mark.parametrize("activation", ["tanh", "relu", None])
def test_dense_matches_the_affine_activation_chain_bitwise(activation):
    rng = np.random.default_rng(21)
    for _ in range(20):
        arrays = [rng.normal(size=(7, 5)), rng.normal(size=(5, 4)), rng.normal(size=4)]
        upstream = Tensor(rng.normal(size=(7, 4)))
        _assert_bitwise_equal(
            _value_and_grads(lambda x, w, b: el.sum(el.mul(dense(x, w, b, activation), upstream)), arrays),
            _value_and_grads(lambda x, w, b: el.sum(el.mul(dense_chain(x, w, b, activation), upstream)), arrays),
        )


@pytest.mark.parametrize("activation", ["tanh", "relu", None])
def test_dense_gradient_matches_finite_differences(activation):
    rng = np.random.default_rng(22)
    for _ in range(5):
        x, w, b = rng.normal(size=(3, 4)), rng.normal(size=(4, 2)), rng.normal(size=2)
        while np.any(np.abs(x @ w + b) < 0.1):  # keep relu away from its kink
            b = rng.normal(size=2)
        upstream = Tensor(rng.normal(size=(3, 2)))
        for at, point in (
            (lambda t: dense(t.reshape((3, 4)), Tensor(w), Tensor(b), activation), x),
            (lambda t: dense(Tensor(x), t.reshape((4, 2)), Tensor(b), activation), w),
            (lambda t: dense(Tensor(x), Tensor(w), t, activation), b),
        ):
            assert grad_check(lambda t: el.sum(el.mul(at(t), upstream)), Tensor(point.reshape(-1)), 1e-6) < 1e-5


def test_dense_rejects_an_unknown_activation():
    with pytest.raises(ConfigError, match="activation"):
        dense(Tensor(np.ones((2, 3))), Tensor(np.ones((3, 2))), Tensor(np.zeros(2)), "sigmoid")


@pytest.mark.parametrize("kind", ["cos", "l2"])
def test_weighted_log_sum_matches_the_clamp_log_chain_bitwise(kind):
    rng = np.random.default_rng(23)
    for trial in range(20):
        e = rng.normal(size=(6, 3))
        if trial % 4 == 0:
            e[1] = e[0]  # similarity 1: at the clamp edge
            e[2] = -e[0] * 3.0  # cosine floor for cos
        k = rng.normal(size=(6, 6))
        _assert_bitwise_equal(
            _value_and_grads(lambda t: el.mul(weighted_log_sum(pairwise_similarity(t, kind), k, 1e-3), 0.37), [e]),
            _value_and_grads(
                lambda t: el.mul(weighted_log_sum_chain(pairwise_similarity(t, kind), k, 1e-3), 0.37), [e]
            ),
        )


def test_squared_error_sum_matches_the_sub_square_chain_bitwise():
    rng = np.random.default_rng(25)
    for _ in range(20):
        target, pred = rng.normal(size=9), rng.normal(size=9)
        _assert_bitwise_equal(
            _value_and_grads(lambda t: el.mul(squared_error_sum(target, t), 0.37), [pred]),
            _value_and_grads(lambda t: el.mul(squared_error_sum_chain(target, t), 0.37), [pred]),
        )


def test_softmax_cross_entropy_matches_the_softmax_clamp_log_chain_bitwise():
    rng = np.random.default_rng(26)
    for trial in range(20):
        logits = rng.normal(size=(7, 3)) * (1.0 if trial % 2 else 40.0)  # large logits saturate
        onehot = np.eye(3)[rng.integers(0, 3, size=7)]
        _assert_bitwise_equal(
            _value_and_grads(lambda t: el.mul(softmax_cross_entropy(t, onehot, 1e-12), 0.37), [logits]),
            _value_and_grads(lambda t: el.mul(softmax_cross_entropy_chain(t, onehot, 1e-12), 0.37), [logits]),
        )


def test_weighted_log_sum_gradient_zero_at_and_beyond_the_clamp_edges():
    x = Tensor([0.0, 1e-6, 0.5, 1.0, 2.0], requires_grad=True)
    backward(weighted_log_sum(x, np.ones(5), 1e-6))
    assert np.array_equal(x.grad, [0.0, 0.0, 2.0, 0.0, 0.0])
    with pytest.raises(DomainError, match="floor"):
        weighted_log_sum(x, np.ones(5), 0.0)
    with pytest.raises(ShapeError, match="coefficients"):
        weighted_log_sum(x, np.ones(4), 1e-6)


# -- a leading run axis: each run's slice is bit-identical to its own 2-D call -----------


def _assert_runs_match_their_own_calls(build, leaves, rng, constants=()):
    """Value and every gradient of one call on run stacks against each run's call on its slices.

    ``leaves`` holds ``(array, requires_grad)`` pairs, each array with the
    run axis first. ``constants`` are plain arrays with the run axis first,
    passed to ``build`` after the tensors. The output is weighted by a random
    upstream array, so every gradient entry is exercised.
    """

    def call(arrays, consts):
        tensors = [Tensor(a.copy(), requires_grad=grad) for a, (_, grad) in zip(arrays, leaves)]
        return build(*tensors, *consts), tensors

    out, tensors = call([a for a, _ in leaves], constants)
    upstream = rng.normal(size=out.shape)
    backward(el.mul(out, Tensor(upstream)))
    for r in range(out.shape[0]):
        out_r, tensors_r = call([a[r] for a, _ in leaves], [c[r] for c in constants])
        backward(el.mul(out_r, Tensor(upstream[r])))
        assert np.array_equal(out.data[r], out_r.data)
        for t, t_r, (_, grad) in zip(tensors, tensors_r, leaves):
            if grad:
                assert np.array_equal(t.grad[r], t_r.grad)


@pytest.mark.parametrize("runs", [1, 2, 3])
@pytest.mark.parametrize("activation", ["tanh", "relu", None])
def test_dense_with_a_run_axis_matches_each_runs_own_call_bitwise(activation, runs):
    rng = np.random.default_rng(31)
    # encoder, classifier-hidden and logit layer widths; 1 row is a partial last batch
    for (f, h), rows in itertools.product([(12, 64), (32, 16), (8, 32), (32, 3)], [1, 2, 8]):
        w, b = rng.normal(size=(runs, f, h)), rng.normal(size=(runs, h))
        stacked, shared = rng.normal(size=(runs, rows, f)), rng.normal(size=(rows, f))
        # an input that takes no gradient: one batch broadcast to every run
        for x in ((stacked, True), (np.broadcast_to(shared, (runs, rows, f)), False)):
            _assert_runs_match_their_own_calls(
                lambda x, w, b: dense(x, w, b, activation), [x, (w, True), (b, True)], rng
            )


@pytest.mark.parametrize("runs", [1, 2, 3])
def test_concat_last_and_cross_entropy_with_a_run_axis_match_each_runs_own_call_bitwise(runs):
    rng = np.random.default_rng(32)
    for trial, rows in enumerate([1, 2, 8, 8]):
        a, b = rng.normal(size=(runs, rows, 4)), rng.normal(size=(runs, rows, 3))
        _assert_runs_match_their_own_calls(lambda a, b: concat_last([a, b]), [(a, True), (b, True)], rng)
        logits = rng.normal(size=(runs, rows, 3)) * (1.0 if trial % 2 else 40.0)  # large logits saturate
        onehot = np.broadcast_to(np.eye(3)[rng.integers(0, 3, size=rows)], logits.shape)
        _assert_runs_match_their_own_calls(
            lambda z, m: softmax_cross_entropy(z, m, 1e-12), [(logits, True)], rng, constants=[onehot]
        )


def test_dense_rejects_mismatched_runs_and_a_shared_input_that_needs_a_gradient():
    w, b = Tensor(np.ones((2, 3, 4))), Tensor(np.zeros((2, 4)))
    with pytest.raises(ShapeError, match="runs"):
        dense(Tensor(np.ones((3, 5, 3))), w, b)
    with pytest.raises(ShapeError, match="bias"):
        dense(Tensor(np.ones((5, 3))), w, Tensor(np.zeros(4)))
    for grad in (False, True):  # a batch without the run axis is one run's, with or without a gradient
        with pytest.raises(ShapeError, match=r"^dense: input \(5, 3\) must carry the weight's runs \(2,\)$"):
            dense(Tensor(np.ones((5, 3)), requires_grad=grad), w, b)
    with pytest.raises(ShapeError, match="runs"):  # a run axis on the input needs one on the weight
        dense(Tensor(np.ones((2, 5, 3))), Tensor(np.ones((3, 4))), Tensor(np.zeros(4)))


@pytest.mark.parametrize("runs", [2, 3, 9])
def test_squared_error_sum_with_a_run_axis_matches_each_runs_own_call_bitwise(runs):
    rng = np.random.default_rng(33)
    for rows in (1, 8, 100):
        target, pred = rng.normal(size=(runs, rows)), rng.normal(size=(runs, rows))
        _assert_runs_match_their_own_calls(
            lambda p, t: squared_error_sum(t, p), [(pred, True)], rng, constants=[target]
        )


@pytest.mark.parametrize("runs", [2, 3, 9])
@pytest.mark.parametrize("kind", ["cos", "l2"])
def test_pairwise_similarity_with_a_run_axis_matches_each_runs_own_call_bitwise(kind, runs):
    rng = np.random.default_rng(34)
    for rows, width in ((3, 2), (8, 16), (8, 4)):
        e = rng.normal(size=(runs, rows, width))
        e[0, 1] = e[0, 0]  # a zero-distance pair: the l2 gradient is 0 there
        e[-1, 2] = -e[-1, 0] * 2.0  # antipodal rows: cosine similarity 0
        _assert_runs_match_their_own_calls(lambda t: pairwise_similarity(t, kind), [(e, True)], rng)


@pytest.mark.parametrize("runs", [2, 3, 9])
def test_weighted_log_sum_with_a_run_axis_matches_each_runs_own_call_bitwise(runs):
    rng = np.random.default_rng(35)
    for rows in (3, 8):
        x = rng.uniform(0.0, 1.0, size=(runs, rows, rows))
        x[0, 0, :2] = [1e-3, 1.0]  # at the clamp edges
        x[-1, 1, :2] = [1e-9, 1.5]  # beyond them
        k = rng.normal(size=(runs, rows, rows))
        _assert_runs_match_their_own_calls(
            lambda t, k: weighted_log_sum(t, k, 1e-3), [(x, True)], rng, constants=[k]
        )


@pytest.mark.parametrize("runs", [2, 3, 9])
def test_softmax_cross_entropy_with_a_per_run_mask_matches_each_runs_own_call_bitwise(runs):
    rng = np.random.default_rng(36)
    for trial, rows in enumerate([1, 2, 8, 8]):
        logits = rng.normal(size=(runs, rows, 3)) * (1.0 if trial % 2 else 40.0)  # large logits saturate
        onehot = np.eye(3)[rng.integers(0, 3, size=(runs, rows))]
        _assert_runs_match_their_own_calls(
            lambda z, m: softmax_cross_entropy(z, m, 1e-12), [(logits, True)], rng, constants=[onehot]
        )


def test_stacked_losses_reject_mismatched_masks_and_shapes():
    with pytest.raises(ShapeError, match="mask"):
        softmax_cross_entropy(Tensor(np.zeros((2, 4, 3))), np.ones((3, 4, 3), dtype=bool), 1e-12)
    for shape in ((2, 0, 3), (4, 0)):
        with pytest.raises(ShapeError, match="at least one row and one class"):
            softmax_cross_entropy(Tensor(np.zeros(shape)), np.ones(shape, dtype=bool), 1e-12)
    with pytest.raises(ShapeError, match="squared_error_sum"):
        squared_error_sum(np.zeros((2, 3, 4)), Tensor(np.zeros((2, 3, 4))))
    with pytest.raises(ShapeError, match="pairwise_similarity"):
        pairwise_similarity(Tensor(np.ones((2, 2, 3, 4))), "cos")


def test_softmax_cross_entropy_rejects_a_mask_without_the_logits_run_axis():
    with pytest.raises(ShapeError, match=r"a mask of their shape, got \(2, 4, 3\) and \(4, 3\)$"):
        softmax_cross_entropy(Tensor(np.zeros((2, 4, 3))), np.ones((4, 3), dtype=bool), 1e-12)

import numpy as np
import pytest

from hscl.errors import ConfigError, ShapeError
from hscl.model import (
    ClassifierHead,
    classify_pairs,
    encode,
    init_classifier_head,
    init_encoder,
    init_regression_head,
    predict_classes,
    predict_hs,
)
from hscl.tensor import Tensor, backward, grad_check

import elementary as el
from oracles import pack_shapes, unpack_flat


def _numpy_mlp(x, params):
    """Independent forward pass: plain numpy affine chain with activation."""
    act = np.tanh if params.activation == "tanh" else lambda v: np.maximum(v, 0.0)
    for w, b in zip(params.weights, params.biases):
        x = act(x @ w.data + b.data)
    return x


def test_init_is_reproducible_per_seed():
    a = init_encoder([8, 4], seed=7)
    b = init_encoder([8, 4], seed=7)
    for ta, tb in zip(a.trainable(), b.trainable()):
        assert np.array_equal(ta.data, tb.data)
    c = init_encoder([8, 4], seed=8)
    assert not np.array_equal(a.weights[0].data, c.weights[0].data)


def test_init_glorot_bound_and_zero_bias():
    params = init_encoder([8, 4], seed=0)
    bound = np.sqrt(6.0 / 12.0)
    assert np.all(np.abs(params.weights[0].data) <= bound)
    assert np.array_equal(params.biases[0].data, np.zeros(4))


def test_init_rejects_bad_widths():
    with pytest.raises(ConfigError):
        init_encoder([], seed=0)
    with pytest.raises(ConfigError):
        init_encoder([5], seed=0)
    with pytest.raises(ConfigError):
        init_encoder([5, 0], seed=0)


def test_encode_identity_layer():
    params = init_encoder([3, 3], seed=0, activation="relu")
    params.weights[0].data[:] = np.eye(3)
    x = np.array([[0.5, 1.0, 0.0], [2.0, 0.0, 3.0]])  # non-negative keeps relu transparent
    assert np.array_equal(encode(params, x).data, x)


def test_encode_rejects_sequence_input():
    params = init_encoder([4, 3], seed=1)
    with pytest.raises(ShapeError, match="2-D"):
        encode(params, np.ones((5, 3, 4)))


def test_encode_rejects_vector_input():
    params = init_encoder([4, 3], seed=1)
    with pytest.raises(ShapeError, match="2-D"):
        encode(params, np.ones(4))


def test_encode_matches_numpy_reference():
    params = init_encoder([5, 7, 3], seed=3, activation="tanh")
    x = np.random.default_rng(4).normal(size=(6, 5))
    assert np.allclose(encode(params, x).data, _numpy_mlp(x, params), atol=1e-12)


def test_encode_width_mismatch():
    params = init_encoder([5, 3], seed=0)
    with pytest.raises(ShapeError, match="width"):
        encode(params, np.ones((2, 4)))


def test_encode_permutation_equivariant():
    params = init_encoder([4, 6, 3], seed=2)
    x = np.random.default_rng(5).normal(size=(7, 4))
    perm = np.random.default_rng(6).permutation(7)
    assert np.array_equal(encode(params, x).data[perm], encode(params, x[perm]).data)


def test_predict_hs_constant_bias():
    head = init_regression_head(4, seed=0)
    head.weight.data[:] = 0.0
    head.bias.data[:] = 2.5
    out = predict_hs(head, Tensor(np.random.default_rng(0).normal(size=(6, 4))))
    assert np.array_equal(out.data, np.full(6, 2.5))


def test_predict_hs_unit_vector_picks_column():
    head = init_regression_head(4, seed=0)
    head.weight.data[:] = 0.0
    head.weight.data[0, 0] = 1.0
    head.bias.data[:] = 0.0
    u = np.random.default_rng(1).normal(size=(5, 4))
    assert np.allclose(predict_hs(head, Tensor(u)).data, u[:, 0])


def test_predict_hs_matches_manual_matmul():
    head = init_regression_head(3, seed=9)
    u = np.random.default_rng(2).normal(size=(4, 3))
    expected = [float(row @ head.weight.data[:, 0] + head.bias.data[0]) for row in u]
    assert np.allclose(predict_hs(head, Tensor(u)).data, expected, atol=1e-12)


def test_classifier_constant_bias_always_predicts_same():
    head = init_classifier_head(4, seed=0, hidden=())
    head.weights[0].data[:] = 0.0
    head.biases[0].data[:] = [0.0, 1.0, 0.0]
    rng = np.random.default_rng(3)
    logits = classify_pairs(head, rng.normal(size=(10, 4)), rng.normal(size=(10, 4)))
    assert np.all(predict_classes(logits.data) == 1)


def test_classifier_is_order_sensitive():
    rng = np.random.default_rng(4)
    u, v = rng.normal(size=4), rng.normal(size=4)
    for seed in range(20):
        head = init_classifier_head(4, seed=seed)
        a = classify_pairs(head, u[None, :], v[None, :]).data
        b = classify_pairs(head, v[None, :], u[None, :]).data
        if not np.allclose(a, b):
            return
    raise AssertionError("no parameter draw distinguished swapped pair order")


def test_classifier_logits_finite_for_large_inputs():
    head = init_classifier_head(8, seed=1)
    rng = np.random.default_rng(7)
    u = rng.uniform(-1e3, 1e3, size=(16, 8))
    v = rng.uniform(-1e3, 1e3, size=(16, 8))
    assert np.all(np.isfinite(classify_pairs(head, u, v).data))


def test_classifier_argmax_shift_invariant():
    head = init_classifier_head(4, seed=5)
    rng = np.random.default_rng(8)
    logits = classify_pairs(head, rng.normal(size=(6, 4)), rng.normal(size=(6, 4))).data
    assert np.array_equal(predict_classes(logits), predict_classes(logits + 17.3))


def test_predict_classes_tie_breaks_low_index():
    assert np.array_equal(predict_classes(np.array([[1.0, 1.0, 0.0], [0.0, 2.0, 2.0]])), [0, 1])


def test_classify_pair_matches_batch_version():
    """One (1, D) pair gives the same logits alone as in its run of a stacked batch."""
    head, other = init_classifier_head(3, seed=6), init_classifier_head(3, seed=7)
    stacked = ClassifierHead(
        head.widths,
        head.activation,
        [Tensor(np.stack([a.data, b.data])) for a, b in zip(head.weights, other.weights)],
        [Tensor(np.stack([a.data, b.data])) for a, b in zip(head.biases, other.biases)],
    )
    rng = np.random.default_rng(9)
    u, v = rng.normal(size=3), rng.normal(size=3)
    single = classify_pairs(head, u[None, :], v[None, :]).data
    batched = classify_pairs(stacked, np.stack([u, v])[:, None, :], np.stack([v, u])[:, None, :]).data
    assert batched.shape == (2, 1, 3)
    assert np.array_equal(single, batched[0])


def test_mean_prediction_gradient_through_encoder():
    # smooth activation keeps the check away from relu kinks
    params = init_encoder([3, 5, 2], seed=10, activation="tanh")
    head = init_regression_head(2, seed=11)
    x = np.random.default_rng(12).normal(size=(4, 3))
    tensors = [t.data for t in params.trainable()] + [head.weight.data, head.bias.data]
    flat, shapes = pack_shapes(tensors)

    def f(flat_t):
        pieces = unpack_flat(flat_t, shapes)
        n_layers = len(params.weights)
        rebuilt = type(params)(
            params.widths, params.activation,
            pieces[:n_layers], pieces[n_layers : 2 * n_layers],
        )
        rebuilt_head = type(head)(weight=pieces[-2], bias=pieces[-1])
        return el.mean(predict_hs(rebuilt_head, encode(rebuilt, x)))

    assert grad_check(f, Tensor(flat), 1e-6) < 1e-4


def test_encoder_gradients_flow_to_all_parameters():
    params = init_encoder([3, 4, 2], seed=13, activation="tanh")
    head = init_regression_head(2, seed=14)
    x = np.random.default_rng(15).normal(size=(5, 3))
    backward(el.mean(predict_hs(head, encode(params, x))))
    for t in params.trainable() + head.trainable():
        assert t.grad is not None and t.grad.shape == t.data.shape

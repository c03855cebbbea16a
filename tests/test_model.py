import numpy as np
import pytest

from hscl.errors import ConfigError, ShapeError
from hscl.model import (
    ClassifierHead,
    EncoderParams,
    RegressionHead,
    classify_pairs,
    encode,
    init_classifier_head,
    init_encoder,
    init_regression_head,
    mlp_forward,
    predict_classes,
    predict_hs,
)
from hscl.pipeline import ModelSpec
from hscl.tensor import Tensor, backward

import elementary as el
from oracles import pack_shapes, unpack_flat


_NUMPY_ACTIVATIONS = {"tanh": np.tanh, "relu": lambda v: np.maximum(v, 0.0), None: lambda v: v}


def _numpy_mlp(x, params, activations=None):
    """Independent forward pass: plain numpy affine chain, layer i activated by ``activations[i]``.

    ``activations`` defaults to the network's activation on every layer, as
    an encoder has it; ``None`` in it is a linear layer.
    """
    if activations is None:
        activations = [params.activation] * len(params.weights)
    assert len(activations) == len(params.weights)
    for w, b, act in zip(params.weights, params.biases, activations):
        x = _NUMPY_ACTIVATIONS[act](x @ w + b)
    return x


def _stacked_pair(net, other):
    """Two networks of one kind as one of S = 2 runs."""
    return type(net)(
        net.widths,
        net.activation,
        [np.stack([a, b]) for a, b in zip(net.weights, other.weights)],
        [np.stack([a, b]) for a, b in zip(net.biases, other.biases)],
    )


def test_init_is_reproducible_per_seed():
    a = init_encoder([8, 4], seed=7)
    b = init_encoder([8, 4], seed=7)
    for ta, tb in zip([*a.weights, *a.biases], [*b.weights, *b.biases]):
        assert np.array_equal(ta, tb)
    c = init_encoder([8, 4], seed=8)
    assert not np.array_equal(a.weights[0], c.weights[0])


def test_init_glorot_bound_and_zero_bias():
    params = init_encoder([8, 4], seed=0)
    bound = np.sqrt(6.0 / 12.0)
    assert np.all(np.abs(params.weights[0]) <= bound)
    assert np.array_equal(params.biases[0], np.zeros(4))


def test_init_rejects_bad_widths():
    with pytest.raises(ConfigError):
        init_encoder([], seed=0)
    with pytest.raises(ConfigError):
        init_encoder([5], seed=0)
    with pytest.raises(ConfigError):
        init_encoder([5, 0], seed=0)
    for embedding_dim, hidden in ((4, (0,)), (4, (-1,)), (4, (8, 0)), (0, ())):
        with pytest.raises(ConfigError, match="init_classifier_head: widths must be positive"):
            init_classifier_head(embedding_dim, seed=0, hidden=hidden)


@pytest.mark.parametrize(
    "build, message",
    [
        (lambda: init_encoder([3, 2], seed=0, activation="sigmoid"), "^init_encoder: unknown activation 'sigmoid'$"),
        (lambda: ModelSpec(activation="sigmoid"), r"^activation must be one of \(.*\), got 'sigmoid'$"),
    ],
    ids=["init_encoder", "ModelSpec"],
)
def test_an_unknown_activation_choice_raises_config_error(build, message):
    with pytest.raises(ConfigError, match=message):
        build()


def test_encode_identity_layer():
    params = init_encoder([3, 3], seed=0, activation="relu")
    params.weights[0][:] = np.eye(3)
    x = np.array([[0.5, 1.0, 0.0], [2.0, 0.0, 3.0]])  # non-negative keeps relu transparent
    assert np.array_equal(encode(params, x), x)


def test_encode_rejects_sequence_input():
    params = init_encoder([4, 3], seed=1)
    with pytest.raises(ShapeError, match="2-D"):
        encode(params, np.ones((5, 3, 4)))


def test_encode_rejects_vector_input():
    params = init_encoder([4, 3], seed=1)
    with pytest.raises(ShapeError, match="2-D"):
        encode(params, np.ones(4))


def test_encode_rejects_a_batch_without_the_run_axis_of_a_stacked_encoder():
    encoder = _stacked_pair(init_encoder([4, 3], seed=1), init_encoder([4, 3], seed=2))
    with pytest.raises(ShapeError, match=r"got shape \(5, 4\) for weights of shape \(2, 4, 3\)$"):
        encode(encoder, np.ones((5, 4)))


def test_encode_matches_numpy_reference():
    params = init_encoder([5, 7, 3], seed=3, activation="tanh")
    x = np.random.default_rng(4).normal(size=(6, 5))
    assert np.allclose(encode(params, x), _numpy_mlp(x, params), atol=1e-12)


def test_encode_width_mismatch():
    params = init_encoder([5, 3], seed=0)
    with pytest.raises(ShapeError, match="width"):
        encode(params, np.ones((2, 4)))


@pytest.mark.parametrize(
    "call, text",
    [
        (lambda: encode(init_encoder([5, 3], seed=0), np.ones((2, 4))),
         "encode: feature width 4 != encoder input width 5"),
        (lambda: predict_hs(init_regression_head(3, seed=0), np.ones((2, 4))),
         "predict_hs: embedding width 4 != head width 3"),
        (lambda: classify_pairs(init_classifier_head(3, seed=0), np.ones((2, 2)), np.ones((2, 2))),
         "classify_pairs: pair width 4 != classifier input width 6"),
    ],
)
def test_each_forward_names_its_own_width_mismatch(call, text):
    with pytest.raises(ShapeError) as info:
        call()
    assert str(info.value) == text


def test_encode_permutation_equivariant():
    params = init_encoder([4, 6, 3], seed=2)
    x = np.random.default_rng(5).normal(size=(7, 4))
    perm = np.random.default_rng(6).permutation(7)
    assert np.array_equal(encode(params, x)[perm], encode(params, x[perm]))


def test_predict_hs_constant_bias():
    head = init_regression_head(4, seed=0)
    head.weights[0][:] = 0.0
    head.biases[0][:] = 2.5
    out = predict_hs(head, np.random.default_rng(0).normal(size=(6, 4)))
    assert np.array_equal(out, np.full(6, 2.5))


def test_predict_hs_unit_vector_picks_column():
    head = init_regression_head(4, seed=0)
    head.weights[0][:] = 0.0
    head.weights[0][0, 0] = 1.0
    head.biases[0][:] = 0.0
    u = np.random.default_rng(1).normal(size=(5, 4))
    assert np.allclose(predict_hs(head, u), u[:, 0])


def test_predict_hs_matches_manual_matmul():
    head = init_regression_head(3, seed=9)
    u = np.random.default_rng(2).normal(size=(4, 3))
    expected = [float(row @ head.weights[0][:, 0] + head.biases[0][0]) for row in u]
    assert np.allclose(predict_hs(head, u), expected, atol=1e-12)


def test_classifier_constant_bias_always_predicts_same():
    head = init_classifier_head(4, seed=0, hidden=())
    head.weights[0][:] = 0.0
    head.biases[0][:] = [0.0, 1.0, 0.0]
    rng = np.random.default_rng(3)
    logits = classify_pairs(head, rng.normal(size=(10, 4)), rng.normal(size=(10, 4)))
    assert np.all(predict_classes(logits) == 1)


def test_classifier_is_order_sensitive():
    rng = np.random.default_rng(4)
    u, v = rng.normal(size=4), rng.normal(size=4)
    for seed in range(20):
        head = init_classifier_head(4, seed=seed)
        a = classify_pairs(head, u[None, :], v[None, :])
        b = classify_pairs(head, v[None, :], u[None, :])
        if not np.allclose(a, b):
            return
    raise AssertionError("no parameter draw distinguished swapped pair order")


def test_classifier_logits_finite_for_large_inputs():
    head = init_classifier_head(8, seed=1)
    rng = np.random.default_rng(7)
    u = rng.uniform(-1e3, 1e3, size=(16, 8))
    v = rng.uniform(-1e3, 1e3, size=(16, 8))
    assert np.all(np.isfinite(classify_pairs(head, u, v)))


def test_classifier_argmax_shift_invariant():
    head = init_classifier_head(4, seed=5)
    rng = np.random.default_rng(8)
    logits = classify_pairs(head, rng.normal(size=(6, 4)), rng.normal(size=(6, 4)))
    assert np.array_equal(predict_classes(logits), predict_classes(logits + 17.3))


def test_predict_classes_tie_breaks_low_index():
    assert np.array_equal(predict_classes(np.array([[1.0, 1.0, 0.0], [0.0, 2.0, 2.0]])), [0, 1])


def test_classify_pair_matches_batch_version():
    """One (1, D) pair gives the same logits alone as in its run of a stacked batch."""
    head, other = init_classifier_head(3, seed=6), init_classifier_head(3, seed=7)
    stacked = _stacked_pair(head, other)
    rng = np.random.default_rng(9)
    u, v = rng.normal(size=3), rng.normal(size=3)
    single = classify_pairs(head, u[None, :], v[None, :])
    batched = classify_pairs(stacked, np.stack([u, v])[:, None, :], np.stack([v, u])[:, None, :])
    assert batched.shape == (2, 1, 3)
    assert np.array_equal(single, batched[0])


def test_multi_layer_classifier_head_activates_its_hidden_layers_and_keeps_the_logits_linear():
    heads = [init_classifier_head(4, seed=s, hidden=(6, 5)) for s in (20, 21)]
    rng = np.random.default_rng(22)
    rows = rng.normal(size=(2, 9, 8))
    activations = ["relu", "relu", None]
    expected = [_numpy_mlp(run_rows, head, activations) for run_rows, head in zip(rows, heads)]
    assert (expected[0] < 0).any()  # a relu on the logits would show
    assert np.allclose(classify_pairs(heads[0], rows[0, :, :4], rows[0, :, 4:]), expected[0], atol=1e-12)
    stacked = classify_pairs(_stacked_pair(*heads), rows[..., :4], rows[..., 4:])
    assert stacked.shape == (2, 9, 3)
    for run in range(2):
        assert np.allclose(stacked[run], expected[run], atol=1e-12)


def test_regression_head_is_one_linear_layer():
    heads = [init_regression_head(3, seed=s) for s in (23, 24)]
    assert heads[0].widths == [3, 1] and len(heads[0].weights) == 1
    u = np.random.default_rng(25).normal(size=(2, 7, 3))
    expected = [_numpy_mlp(run_u, head, [None])[:, 0] for run_u, head in zip(u, heads)]
    assert (expected[0] < 0).any()
    assert np.allclose(predict_hs(heads[0], u[0]), expected[0], atol=1e-12)
    stacked = predict_hs(_stacked_pair(*heads), u)
    assert stacked.shape == (2, 7)
    for run in range(2):
        assert np.allclose(stacked[run], expected[run], atol=1e-12)


def test_mean_prediction_gradient_through_encoder():
    # smooth activation keeps the check away from relu kinks
    params = init_encoder([3, 5, 2], seed=10, activation="tanh")
    head = init_regression_head(2, seed=11)
    x = np.random.default_rng(12).normal(size=(4, 3))
    tensors = [*params.weights, *params.biases, head.weights[0], head.biases[0]]
    flat, shapes = pack_shapes(tensors)

    def f(flat_t):
        pieces = unpack_flat(flat_t, shapes)
        n_layers = len(params.weights)
        rebuilt = type(params)(
            params.widths, params.activation,
            pieces[:n_layers], pieces[n_layers : 2 * n_layers],
        )
        rebuilt_head = type(head)(head.widths, head.activation, [pieces[-2]], [pieces[-1]])
        return el.mean(el.predict_hs(rebuilt_head, el.encode(rebuilt, x)))

    assert el.grad_check(f, Tensor(flat), 1e-6) < 1e-4


def test_encoder_gradients_flow_to_all_parameters():
    params = el.as_leaves(init_encoder([3, 4, 2], seed=13, activation="tanh"))
    head = el.as_leaves(init_regression_head(2, seed=14))
    x = np.random.default_rng(15).normal(size=(5, 3))
    backward(el.mean(el.predict_hs(head, el.encode(params, x))))
    for t in [*params.weights, *params.biases, *head.weights, *head.biases]:
        assert t.grad is not None and t.grad.shape == t.data.shape


# -- one node per call: the network's array pass, bit for bit against the per-layer chain ---


def _layer_chain(net, x):
    """``x`` through ``net``, one ``elementary.dense`` node per layer."""
    for w, b, activation in zip(net.weights, net.biases, net.activations()):
        x = el.dense(x, w, b, activation)
    return x


# call: (network kind, widths, input widths, the call, its graph form, the graph form as a per-layer chain)
_NODE_CALLS = {
    "encode": (EncoderParams, [5, 7, 4], [5], encode, el.encode, _layer_chain),
    "predict_hs": (
        RegressionHead, [4, 1], [4], predict_hs, el.predict_hs, lambda net, e: _layer_chain(net, e).reshape(e.shape[:-1])
    ),
    "classify_pairs": (
        ClassifierHead, [8, 6, 3], [4, 4], classify_pairs, el.classify_pairs,
        lambda net, up, un: _layer_chain(net, el.concat_last([up, un])),
    ),
}


def _node_call_arrays(call, runs, rng):
    """Random weights, biases and inputs for ``call``; ``runs`` None is one run without the run axis."""
    _, widths, in_widths, *_ = _NODE_CALLS[call]
    lead = () if runs is None else (runs,)
    weights = [rng.normal(size=(*lead, a, b)) for a, b in zip(widths[:-1], widths[1:])]
    biases = [rng.normal(size=(*lead, b)) for b in widths[1:]]
    inputs = [rng.normal(size=(*lead, 6, f)) for f in in_widths]
    return weights, biases, inputs


def _node_call_result(call, activation, arrays, need_x, upstream, chain):
    """The call's output and every leaf's gradient under ``upstream``, from fresh leaves."""
    kind, widths, _, _, fn, chain_fn = _NODE_CALLS[call]
    weights, biases, inputs = (
        [Tensor(a.copy(), requires_grad=grad) for a in group]
        for group, grad in zip(arrays, (True, True, need_x))
    )
    net = kind(widths, activation, weights, biases)
    out = (chain_fn if chain else fn)(net, *inputs)
    backward(el.sum(el.mul(out, Tensor(upstream))))
    return out, [t.grad for t in [*inputs, *weights, *biases]]


@pytest.mark.parametrize("need_x", [True, False])
@pytest.mark.parametrize("runs", [None, 1, 3])
@pytest.mark.parametrize("activation", ["tanh", "relu"])
@pytest.mark.parametrize("call", list(_NODE_CALLS))
def test_each_network_call_matches_the_per_layer_dense_chain_bitwise(call, activation, runs, need_x):
    rng = np.random.default_rng(40)
    for _ in range(3):
        arrays = _node_call_arrays(call, runs, rng)
        out, _ = _node_call_result(call, activation, arrays, need_x, 1.0, chain=True)
        upstream = rng.normal(size=out.shape) * 3.0  # a non-unit gradient reaches every entry
        got, got_grads = _node_call_result(call, activation, arrays, need_x, upstream, chain=False)
        want, want_grads = _node_call_result(call, activation, arrays, need_x, upstream, chain=True)
        assert got.shape == want.shape and got.data.tobytes() == want.data.tobytes()
        assert len(got_grads) == len(want_grads)
        assert (got_grads[0] is None) == (not need_x)  # an input that takes no gradient gets none
        for g, w in zip(got_grads, want_grads):
            assert (g is None) == (w is None)
            if w is not None:
                assert g.shape == w.shape and g.tobytes() == w.tobytes()


@pytest.mark.parametrize("form", ["2-D", "stacked", "nested list"])
@pytest.mark.parametrize("call", list(_NODE_CALLS))
def test_each_network_call_returns_the_plain_array_of_the_mlp_pass(call, form):
    """The library's calls build no node: each gives ``mlp_forward``'s output, ``predict_hs`` one score per row."""
    kind, widths, _, fn, _, _ = _NODE_CALLS[call]
    weights, biases, inputs = _node_call_arrays(call, 3 if form == "stacked" else None, np.random.default_rng(44))
    net = kind(widths, "tanh", weights, biases)
    out = fn(net, *([x.tolist() for x in inputs] if form == "nested list" else inputs))
    layers = [(w, b, act, None, None) for w, b, act in zip(weights, biases, net.activations())]
    want = mlp_forward(layers, np.concatenate(inputs, axis=-1))[-1][1]
    if call == "predict_hs":
        assert out.shape == inputs[0].shape[:-1]
        want = want.reshape(out.shape)
    assert type(out) is np.ndarray and out.dtype == np.float64
    assert out.shape == want.shape and out.tobytes() == want.tobytes()


@pytest.mark.parametrize("runs", [None, 3])
@pytest.mark.parametrize("grad_input", [0, 1])
def test_a_pair_half_that_takes_no_gradient_gets_none_and_the_other_its_chain_gradient(grad_input, runs):
    """Frozen validation passes plain embeddings; one half of a pair may take a gradient alone."""
    rng = np.random.default_rng(43)
    weights, biases, inputs = _node_call_arrays("classify_pairs", runs, rng)
    upstream = rng.normal(size=(*inputs[0].shape[:-1], 3))
    grads = []
    for fn in _NODE_CALLS["classify_pairs"][4:]:
        halves = [Tensor(x.copy(), requires_grad=i == grad_input) for i, x in enumerate(inputs)]
        net = ClassifierHead([8, 6, 3], "tanh", [Tensor(w) for w in weights], [Tensor(b) for b in biases])
        backward(el.sum(el.mul(fn(net, *halves), Tensor(upstream))))
        grads.append([h.grad for h in halves])
    got, want = grads
    assert got[1 - grad_input] is None and want[1 - grad_input] is None
    assert got[grad_input].tobytes() == want[grad_input].tobytes()


@pytest.mark.parametrize("call", list(_NODE_CALLS))
def test_each_network_call_is_one_node_over_its_inputs_weights_and_biases(call):
    kind, widths, _, _, fn, _ = _NODE_CALLS[call]
    weights, biases, inputs = (
        [Tensor(a, requires_grad=True) for a in group]
        for group in _node_call_arrays(call, 2, np.random.default_rng(41))
    )
    net = kind(widths, "tanh", weights, biases)
    out = fn(net, *inputs)
    assert len(out._parents) == len(inputs) + 2 * len(weights)
    assert all(p is q for p, q in zip(out._parents, [*inputs, *weights, *biases]))


# -- malformed networks and inputs: one check per call raises an hscl error -----------------


def _malformed(call, change):
    """``call`` on a network of 2 runs and its inputs, after ``change`` edits their arrays in place.

    ``change`` may return an activation for the network in place of tanh.
    """
    kind, widths, _, fn, _, _ = _NODE_CALLS[call]
    weights, biases, inputs = _node_call_arrays(call, 2, np.random.default_rng(42))
    activation = change(weights, biases, inputs) or "tanh"
    net = kind(widths, activation, weights, biases)
    return lambda: fn(net, *inputs)


def _set(items, i, value):
    items[i] = value


_SHAPE_FAULTS = {
    "a weight off the widths": lambda ws, bs, xs: _set(ws, -1, ws[-1][:, 1:]),
    "a bias off the widths": lambda ws, bs, xs: _set(bs, -1, bs[-1][:, 1:]),
    "a bias without the run axis": lambda ws, bs, xs: _set(bs, 0, bs[0][0]),
    "a weight of 3 runs in a network of 2": lambda ws, bs, xs: _set(ws, -1, np.concatenate([ws[-1], ws[-1][:1]])),
    "a missing weight": lambda ws, bs, xs: _set(ws, slice(-1, None), []),
    "a weight with two run axes": lambda ws, bs, xs: _set(ws, 0, ws[0][None]),
    "an input of 3 runs": lambda ws, bs, xs: _set(xs, 0, np.concatenate([xs[0], xs[0][:1]])),
    "an input without the run axis": lambda ws, bs, xs: _set(xs, 0, xs[0][0]),
}


@pytest.mark.parametrize("fault", list(_SHAPE_FAULTS))
@pytest.mark.parametrize("call", list(_NODE_CALLS))
def test_a_network_or_input_whose_shapes_do_not_chain_raises_shape_error(call, fault):
    """In a call's own words; ``classify_pairs`` checks its inputs, then its network over their rows."""
    with pytest.raises(ShapeError, match=f"^({'|'.join(_NODE_CALLS)}): "):
        _malformed(call, _SHAPE_FAULTS[fault])()


# a regression head's one layer is linear whatever its activation
@pytest.mark.parametrize("call", ["encode", "classify_pairs"])
def test_a_network_of_an_unknown_activation_raises_config_error(call):
    with pytest.raises(ConfigError, match="unknown activation 'sigmoid'$"):
        _malformed(call, lambda ws, bs, xs: "sigmoid")()


def test_a_regression_head_of_more_than_one_output_raises_shape_error():
    head = RegressionHead([3, 2], None, [np.ones((3, 2))], [np.zeros(2)])
    with pytest.raises(ShapeError, match=r"^predict_hs: head output width 2 != 1$"):
        predict_hs(head, np.ones((4, 3)))


def _two_heads():
    return _stacked_pair(init_classifier_head(3, seed=1), init_classifier_head(3, seed=2))


@pytest.mark.parametrize(
    "prev_shape, next_shape",
    [
        ((5, 3), (5, 4)),  # halves of two widths
        ((5, 3), (4, 3)),  # halves of two batches
        ((2, 5, 3), (5, 3)),  # one half run-stacked
        ((3,), (3,)),  # no batch axis
        ((1, 2, 5, 3), (1, 2, 5, 3)),  # two run axes
    ],
)
def test_classify_pairs_names_halves_that_do_not_match_or_are_not_2_or_3_d(prev_shape, next_shape):
    with pytest.raises(ShapeError) as info:
        classify_pairs(init_classifier_head(3, seed=0), np.ones(prev_shape), np.ones(next_shape))
    assert str(info.value) == (
        f"classify_pairs: expected matching (B, D) or (S, B, D) inputs, got {prev_shape} and {next_shape}"
    )


@pytest.mark.parametrize(
    "call, text",
    [
        (lambda: encode(_stacked_pair(init_encoder([4, 3], seed=1), init_encoder([4, 3], seed=2)), np.ones((5, 4))),
         "encode: expected a 2-D (batch, feature) input, or (S, B, F) for an encoder of S runs, "
         "got shape (5, 4) for weights of shape (2, 4, 3)"),
        (lambda: encode(init_encoder([4, 3], seed=1), np.ones((2, 5, 4))),
         "encode: expected a 2-D (batch, feature) input, or (S, B, F) for an encoder of S runs, "
         "got shape (2, 5, 4) for weights of shape (4, 3)"),
        (lambda: predict_hs(init_regression_head(3, seed=0), np.ones(3)),
         "predict_hs: expected a 2-D (batch, embedding) input, or (S, B, F) for a head of S runs, "
         "got shape (3,) for weights of shape (3, 1)"),
        (lambda: classify_pairs(init_classifier_head(3, seed=0), np.ones((2, 4, 3)), np.ones((2, 4, 3))),
         "classify_pairs: expected a 2-D (batch, pair) input, or (S, B, F) for a classifier of S runs, "
         "got shape (2, 4, 6) for weights of shape (6, 32)"),
        (lambda: classify_pairs(_two_heads(), np.ones((5, 3)), np.ones((5, 3))),
         "classify_pairs: expected a 2-D (batch, pair) input, or (S, B, F) for a classifier of S runs, "
         "got shape (5, 6) for weights of shape (2, 6, 32)"),
        (lambda: classify_pairs(_two_heads(), np.ones((3, 5, 3)), np.ones((3, 5, 3))),
         "classify_pairs: expected a 2-D (batch, pair) input, or (S, B, F) for a classifier of S runs, "
         "got shape (3, 5, 6) for weights of shape (2, 6, 32)"),
    ],
)
def test_each_forward_names_its_own_run_axis_mismatch(call, text):
    with pytest.raises(ShapeError) as info:
        call()
    assert str(info.value) == text

"""Elementary graph ops that the tests build reference graphs from.

The library runs every network and loss as forward/backward array pairs,
and its loss API wraps each loss term as one node; the tests check those
against chains of the elementary ops here, one graph node per op, each built
with the public ``hscl.tensor.node``.
They follow the tensor core's conventions: a gradient handed to a parent is
an array the parent may keep, and clamp' is zero at and beyond the clamp
edges.

``squared_error_sum``, ``softmax_cross_entropy``, ``pairwise_similarity``
and ``weighted_log_sum`` are the one-node wrappers of the library's
``*_forward``/``*_backward`` array pairs, with the checks the library made
when it exported them. ``dense`` is one MLP layer as a node over this
module's own layer pair, ``dense_forward``/``dense_backward``, an
independent reference for the layers that ``model.mlp_forward`` and
``mlp_backward`` compute inline. ``concat_last`` is the concatenation node the
library's pair classifier was built from. The library's own nodes wrap a
whole loss term; these wrap one layer or one op, so the tests can rebuild a
network layer by layer.

``encode``, ``predict_hs`` and ``classify_pairs`` are the graph forms of the
library's three network calls, which return arrays: one node per call over
the input, the weights and the biases, whose value and gradients come from
``model.mlp_forward`` and ``mlp_backward``, the pass the training loops run.
They take a network of arrays and wrap each weight and bias as a
requires-grad leaf that shares the array's memory; a network whose weights
and biases are leaves already (``as_leaves``) keeps them, so a test can read
their gradients.

``mse_term`` and ``contrastive_term`` pick one term of the library's
``losses.combined_loss_terms``, the one graph form of its pre-training loss.
``grad_check`` compares a scalar graph's gradient with central differences.

Python numbers and arrays are taken as constant tensors wherever a tensor
is expected.
"""

from __future__ import annotations

from dataclasses import replace
from typing import Callable

import numpy as np

from hscl import model
from hscl.errors import ConfigError, DomainError, ShapeError
from hscl.losses import LossConfig, combined_loss_terms
from hscl.tensor import (
    Tensor,
    backward,
    node,
    pairwise_similarity_backward,
    pairwise_similarity_forward,
    softmax_cross_entropy_backward,
    softmax_cross_entropy_forward,
    squared_error_sum_backward,
    squared_error_sum_forward,
    weighted_log_sum_backward,
    weighted_log_sum_forward,
)


def add(a, b) -> Tensor:
    a, b = _as_tensor(a), _as_tensor(b)
    _require_same_shape("add", a, b)
    # one upstream array, so the first parent gets a copy of its own
    return node(a.data + b.data, (a, b), lambda g: (g.copy(), g))


def sub(a, b) -> Tensor:
    a, b = _as_tensor(a), _as_tensor(b)
    _require_same_shape("sub", a, b)
    return node(a.data - b.data, (a, b), lambda g: (g, -g))


def mul(a, b) -> Tensor:
    """``a * b``: by a Python number, elementwise on equal shapes, or by a size-1 factor."""
    a = _as_tensor(a)
    if isinstance(b, (int, float)):
        c = float(b)
        return node(a.data * c, (a,), lambda g: (g * c,))
    b = _as_tensor(b)
    if a.shape != b.shape and a.data.size != 1 and b.data.size != 1:
        raise ShapeError(f"mul: incompatible shapes {a.shape} and {b.shape}")
    return node(
        a.data * b.data, (a, b), lambda g: (_reduce_to(g * b.data, a.shape), _reduce_to(g * a.data, b.shape))
    )


def square(t: Tensor) -> Tensor:
    return node(t.data * t.data, (t,), lambda g: (g * 2.0 * t.data,))


def sqrt(t: Tensor) -> Tensor:
    if np.any(t.data <= 0.0):
        raise DomainError("sqrt: input must be strictly positive")
    y = np.sqrt(t.data)
    return node(y, (t,), lambda g: (g * 0.5 / y,))


def log(t: Tensor) -> Tensor:
    if np.any(t.data <= 0.0):
        raise DomainError("log: input must be strictly positive")
    return node(np.log(t.data), (t,), lambda g: (g / t.data,))


def reciprocal(t: Tensor) -> Tensor:
    if np.any(t.data == 0.0):
        raise DomainError("reciprocal: input must be nonzero")
    y = 1.0 / t.data
    return node(y, (t,), lambda g: (-g * y * y,))


def clamp(t: Tensor, lo: float, hi: float) -> Tensor:
    if not lo < hi:
        raise DomainError(f"clamp: lo {lo} must be < hi {hi}")
    # pass-through strictly inside [lo, hi]; zero at and beyond the edges
    mask = (t.data > lo) & (t.data < hi)
    return node(np.clip(t.data, lo, hi), (t,), lambda g: (g * mask,))


def sum(t: Tensor, axis: int | tuple[int, ...] | None = None) -> Tensor:
    return node(t.data.sum(axis=axis), (t,), lambda g: (_spread(g, t.shape, axis).copy(),))


def mean(t: Tensor, axis: int | None = None) -> Tensor:
    n = t.data.size if axis is None else t.shape[axis]
    return node(t.data.mean(axis=axis), (t,), lambda g: (_spread(g, t.shape, axis) / n,))


def segment(t: Tensor, start: int, stop: int) -> Tensor:
    """Contiguous slice [start, stop) of a 1-D vector."""
    if t.data.ndim != 1:
        raise ShapeError(f"segment: expected a 1-D vector, got shape {t.shape}")
    if not 0 <= start <= stop <= t.shape[0]:
        raise ShapeError(f"segment: [{start}, {stop}) out of range for length {t.shape[0]}")

    def grads(g: np.ndarray) -> tuple:
        full = np.zeros_like(t.data)
        full[start:stop] = g
        return (full,)

    return node(t.data[start:stop].copy(), (t,), grads)


def matmul(a: Tensor, b: Tensor) -> Tensor:
    """2-D matrix product a @ b."""
    if a.data.ndim != 2 or b.data.ndim != 2:
        raise ShapeError(f"matmul: expected 2-D operands, got {a.shape} and {b.shape}")
    if a.shape[1] != b.shape[0]:
        raise ShapeError(f"matmul: inner dims differ, {a.shape} vs {b.shape}")
    return node(a.data @ b.data, (a, b), lambda g: (g @ b.data.T, a.data.T @ g))


def concat_last(parts) -> Tensor:
    """Concatenate tensors along the last axis."""
    if not parts:
        raise ShapeError("concat_last: need at least one tensor")
    lead = parts[0].shape[:-1]
    for p in parts[1:]:
        if p.data.ndim != parts[0].data.ndim or p.shape[:-1] != lead:
            raise ShapeError(f"concat_last: leading dims differ, {parts[0].shape} vs {p.shape}")
    offsets = np.cumsum([0] + [p.shape[-1] for p in parts])
    return node(
        np.concatenate([p.data for p in parts], axis=-1),
        tuple(parts),
        lambda g: tuple(g[..., lo:hi].copy() for lo, hi in zip(offsets[:-1], offsets[1:])),
    )


def dense_forward(
    x: np.ndarray, w: np.ndarray, b: np.ndarray, activation: str | None
) -> tuple[np.ndarray, np.ndarray]:
    """One MLP layer ``act(x @ w + b)`` on arrays, unchecked: the output ``y`` and the pre-activation ``z``."""
    z = x @ w
    z += b[:, None, :] if w.ndim == 3 else b
    if activation == "tanh":
        return np.tanh(z), z
    if activation == "relu":
        return np.maximum(z, 0.0), z
    return z, z


def dense_backward(
    g: np.ndarray, x: np.ndarray, w: np.ndarray, y: np.ndarray, z: np.ndarray, activation: str | None,
    need_x: bool = True,
) -> tuple[np.ndarray | None, np.ndarray, np.ndarray]:
    """Fresh gradients (x, w, b) of ``dense_forward`` for output gradient ``g``; None for x unless ``need_x``."""
    if activation == "tanh":
        g = g * (1.0 - y * y)
    elif activation == "relu":
        g = g * (z > 0.0)
    return (
        g @ w.swapaxes(-1, -2) if need_x else None,
        np.matmul(x.swapaxes(-1, -2), g),
        np.add.reduce(g, axis=-2),
    )


def dense(x: Tensor, w: Tensor, b: Tensor, activation: str | None = None) -> Tensor:
    """One MLP layer ``act(x @ w + b)``, the bias broadcast across rows.

    ``activation`` is ``"tanh"``, ``"relu"`` or ``None`` (the affine map).
    The input (B, F), weight (F, H) and bias (H,) may all carry a leading
    run axis of S runs, (S, B, F), (S, F, H) and (S, H). Each run's slice of
    the output is bit-identical to the 2-D call on its slices.
    """
    xd, wd, bd = x.data, w.data, b.data
    xs, ws = xd.shape, wd.shape
    if len(xs) not in (2, 3) or len(ws) not in (2, 3):
        raise ShapeError(f"dense: expected 2-D or 3-D input and weight, got {xs} and {ws}")
    runs = ws[:-2]
    if xs[-1] != ws[-2]:
        raise ShapeError(f"dense: input width {xs[-1]} != weight rows {ws[-2]}")
    if bd.shape != runs + ws[-1:]:
        raise ShapeError(f"dense: bias shape {bd.shape} != {runs + ws[-1:]}")
    if xs[:-2] != runs:
        raise ShapeError(f"dense: input {xs} must carry the weight's runs {runs}")
    if activation not in ("tanh", "relu", None):
        raise ConfigError(f"dense: unknown activation {activation!r}")
    y, z = dense_forward(xd, wd, bd, activation)

    def grads(g: np.ndarray) -> tuple:
        gx, gw, gb = dense_backward(g, xd, wd, y, z, activation, x.requires_grad)
        return gx, gw if w.requires_grad else None, gb if b.requires_grad else None

    return node(y, (x, w, b), grads)


def as_leaves(net):
    """``net`` with each weight and bias a requires-grad leaf that shares its array's memory."""
    weights, biases = ([Tensor(a, requires_grad=True) for a in arrays] for arrays in (net.weights, net.biases))
    return type(net)(net.widths, net.activation, weights, biases)


def _network(net, x: np.ndarray, call: tuple):
    """``x`` through ``net``, a network of Tensors (``as_leaves`` makes one), by ``model``'s checked array pass.

    It gives the output, the network's Tensors and their gradient map.

    The map takes the output's gradient and whether the input needs one, and
    gives fresh gradients of the input (or None) and of every leaf.
    """
    params = [*net.weights, *net.biases]
    n = len(net.weights)
    arrays = type(net)(net.widths, net.activation, [p.data for p in params[:n]], [p.data for p in params[n:]])
    activations = net.activations()
    model._check(arrays, activations, x, call)
    layers = [(w, b, act, None, None) for w, b, act in zip(arrays.weights, arrays.biases, activations)]
    saved = model.mlp_forward(layers, x)

    def grads(g: np.ndarray, need_x: bool) -> tuple:
        fresh = [(w, b, act, np.empty_like(w), np.empty_like(b)) for w, b, act, _, _ in layers]
        g_x = model.mlp_backward(fresh, saved, g, need_x)
        return (g_x, *(layer[3] for layer in fresh), *(layer[4] for layer in fresh))

    return saved[-1][1], params, grads


def encode(net, batch) -> Tensor:
    """``model.encode`` as one node over the batch, the weights and the biases."""
    x = _as_tensor(batch)
    y, params, grads = _network(net, x.data, model._ENCODE)
    return node(y, (x, *params), lambda g: grads(g, x.requires_grad))


def predict_hs(head, embeddings) -> Tensor:
    """``model.predict_hs`` as one node over the embeddings, the weights and the biases."""
    e = _as_tensor(embeddings)
    y, params, grads = _network(head, e.data, model._PREDICT)
    return node(y.reshape(e.shape[:-1]), (e, *params), lambda g: grads(g.reshape(y.shape), e.requires_grad))


def classify_pairs(head, u_prev, u_next) -> Tensor:
    """``model.classify_pairs`` as one node over both halves of the pairs, the weights and the biases."""
    up, un = _as_tensor(u_prev), _as_tensor(u_next)
    y, params, grads = _network(head, np.concatenate([up.data, un.data], axis=-1), model._CLASSIFY)
    d = up.shape[-1]

    def pair_grads(g: np.ndarray) -> tuple:
        g_rows, *rest = grads(g, up.requires_grad or un.requires_grad)
        if g_rows is None:
            return (None, None, *rest)
        return (g_rows[..., :d], g_rows[..., d:], *rest)  # views of one fresh array, not overlapping

    return node(y, (up, un, *params), pair_grads)


def squared_error_sum(target, pred: Tensor) -> Tensor:
    """``sum((target - pred)^2)`` for a constant ``target`` shaped like ``pred``.

    A (B,) prediction gives a scalar; an (S, B) stack of S runs gives the
    (S,) per-run sums.
    """
    target = np.asarray(target, dtype=np.float64)
    if target.shape != pred.shape or pred.data.ndim not in (1, 2):
        raise ShapeError(
            f"squared_error_sum: expected a (B,) or (S, B) prediction and a target of its shape, "
            f"got {pred.shape} and {target.shape}"
        )
    loss, diff = squared_error_sum_forward(target, pred.data)
    return node(loss, (pred,), lambda g: (squared_error_sum_backward(g, diff),))


def softmax_cross_entropy(logits: Tensor, onehot: np.ndarray, floor: float) -> Tensor:
    """Mean over rows of ``-log clamp(p, floor, 1)``, ``p`` the softmax mass on ``onehot``.

    (B, C) logits give a scalar; an (S, B, C) stack of S runs gives the (S,)
    per-run losses. The mask has the logits' shape.
    """
    z = logits.data
    if z.ndim not in (2, 3) or onehot.shape != z.shape:
        raise ShapeError(
            f"softmax_cross_entropy: expected (B, C) or (S, B, C) logits and a mask of their shape, "
            f"got {z.shape} and {onehot.shape}"
        )
    if min(z.shape[-2:]) < 1:
        raise ShapeError("softmax_cross_entropy: need at least one row and one class")
    loss, saved = softmax_cross_entropy_forward(z, onehot, floor)
    return node(loss, (logits,), lambda g: (softmax_cross_entropy_backward(g, onehot, floor, *saved),))


def pairwise_similarity(embeddings: Tensor, kind: str) -> Tensor:
    """Unclamped (B, B) similarity of every pair of rows of (B, D) embeddings; (S, B, D) gives (S, B, B)."""
    if embeddings.data.ndim not in (2, 3):
        raise ShapeError(
            f"pairwise_similarity: expected (B, D) or (S, B, D) embeddings, got shape {embeddings.shape}"
        )
    e = embeddings.data
    sim, saved = pairwise_similarity_forward(e, kind)
    return node(sim, (embeddings,), lambda g: (pairwise_similarity_backward(g, e, kind, sim, saved),))


def weighted_log_sum(x: Tensor, coefficients: np.ndarray, floor: float) -> Tensor:
    """``sum(K * log clamp(x, floor, 1))`` as one node; (S, B, B) input gives (S,) sums."""
    xd = x.data
    loss, clamped = weighted_log_sum_forward(xd, coefficients, floor)
    return node(loss, (x,), lambda g: (weighted_log_sum_backward(g, xd, coefficients, floor, clamped),))


def mse_term(y, y_pred: Tensor) -> Tensor:
    """The mse term of ``combined_loss_terms`` in mode ``mse``: ``sum((y - y_pred)^2)``."""
    return combined_loss_terms(y, y_pred, None, None, None, LossConfig())[1]


def contrastive_term(embeddings: Tensor, mining, hs, config: LossConfig) -> Tensor:
    """The contrastive term of ``combined_loss_terms``, weighted by the scores ``hs`` unless they are None.

    ``config`` gives the similarity, eps and sim_floor; its mode becomes
    ``mse+wcl`` (with ``hs``) or ``mse+cl``, and its alpha 1, so that the
    term is built. The mse term, of zero predictions, is dropped.
    """
    config = replace(config, mode="mse+cl" if hs is None else "mse+wcl", alpha=1.0)
    zeros = np.zeros(embeddings.shape[:-1])
    return combined_loss_terms(zeros, Tensor(zeros), embeddings, mining, hs, config)[2]


def grad_check(f: Callable[[Tensor], Tensor], point: Tensor, h: float = 1e-6) -> float:
    """Max relative error between ``f``'s analytic gradient and central differences.

    Per coordinate the error is |analytic - numeric| / max(1, |analytic|);
    the largest over all coordinates of ``point`` is returned. ``f`` must
    build a fresh scalar graph from its argument on every call.
    """
    if not 1e-7 <= h <= 1e-4:
        raise ValueError(f"grad_check: step {h} outside [1e-7, 1e-4]")
    base = np.array(point.data, dtype=np.float64)

    probe = Tensor(base.copy(), requires_grad=True)
    out = f(probe)
    if not isinstance(out, Tensor) or out.data.size != 1:
        raise ValueError("grad_check: f must return a scalar tensor")
    backward(out)
    analytic = probe.grad if probe.grad is not None else np.zeros_like(base)

    worst = 0.0
    flat = base.reshape(-1)
    for k in range(flat.size):
        orig = flat[k]
        flat[k] = orig + h
        f_plus = f(Tensor(base.copy())).item()
        flat[k] = orig - h
        f_minus = f(Tensor(base.copy())).item()
        flat[k] = orig
        numeric = (f_plus - f_minus) / (2.0 * h)
        a = float(analytic.reshape(-1)[k])
        err = abs(a - numeric) / max(1.0, abs(a))
        if err > worst:
            worst = err
    return worst


def _as_tensor(value) -> Tensor:
    return value if isinstance(value, Tensor) else Tensor(value)


def _reduce_to(g: np.ndarray, shape: tuple[int, ...]) -> np.ndarray:
    if g.shape == shape:
        return g
    return np.asarray(g.sum()).reshape(shape)


def _spread(g: np.ndarray, shape: tuple[int, ...], axis: int | None) -> np.ndarray:
    if axis is None:
        return np.broadcast_to(g, shape)
    return np.broadcast_to(np.expand_dims(g, axis), shape)


def _require_same_shape(op: str, a: Tensor, b: Tensor) -> None:
    if a.shape != b.shape:
        raise ShapeError(f"{op}: incompatible shapes {a.shape} and {b.shape}")

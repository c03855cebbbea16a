"""Elementary graph ops that the tests build reference graphs from.

The library computes every MLP layer and loss as one fused node (or without
a graph at all); the tests check those against chains of the elementary ops
here, one graph node per op, each built with the public ``hscl.tensor.node``.
They follow the tensor core's conventions: a gradient handed to a parent is
an array the parent may keep, and clamp' is zero at and beyond the clamp
edges.

``pairwise_similarity`` and ``weighted_log_sum`` are the node wrappers of
the library's ``*_forward``/``*_backward`` array pairs, with the checks the
library made when it exported them.

Python numbers and arrays are taken as constant tensors wherever a tensor
is expected.
"""

from __future__ import annotations

import numpy as np

from hscl.errors import DomainError, ShapeError
from hscl.tensor import (
    Tensor,
    node,
    pairwise_similarity_backward,
    pairwise_similarity_forward,
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


def sum(t: Tensor, axis: int | None = None) -> Tensor:
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

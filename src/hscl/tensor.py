"""The forward/backward array pairs the library trains with, and their graph form.

The core holds the losses the library differentiates: the squared-error
and cross-entropy losses and the contrastive term, each as a pair of plain
array functions (an MLP's layers run in ``model.mlp_forward`` and
``mlp_backward``). ``*_forward`` returns the output and what the gradient
needs, ``*_backward`` maps an output gradient to the operands' gradients.
The pairs are:

- ``squared_error_sum_*``, ``sum((target - pred)^2)``;
- ``softmax_cross_entropy_*``, ``-mean(log clamp(sum(softmax(z) * onehot)))``;
- the contrastive term's ``pairwise_similarity_*`` (the (B, B) similarity
  matrix ``S``) and ``weighted_log_sum_*`` (``sum(K * log clamp(S))``).

Everything is float64 and single-threaded; gradients accumulate in a fixed
reverse-topological order, so identical graphs always produce bit-identical
values and gradients.

The pairs are the core the library runs: every training step calls them
directly and builds no graph. ``Tensor``, ``node`` and ``backward`` are
its graph form, kept for the losses the benchmark's tracer binds:
``losses.combined_loss_terms`` and ``cross_entropy`` wrap the pairs in
graph nodes, one node per loss term, because walking a node costs more
Python time than the small numpy arrays it carries. ``node`` makes such a
node from a value, its parents and a function that gives each parent's
gradient; its closure calls the backward function, so the tests' gradient
checks of a term (central differences, ``tests/elementary.grad_check``)
test the code that the loops run without it. The graph forms of the network
calls live in the test tree too.

Each pair runs the same numpy operations, in the same order, as the
equivalent chain of elementary ops (softmax, clamp, log, ...), so values
and gradients are bit-identical to that chain; the cross-entropy backward
is bit-identical for the 0/1 masks the library builds. The elementary ops,
and the one-node forms of the pairs, live in the test tree
(``tests/elementary.py``), which builds the chains as oracles.

The array functions also take a leading run axis that stacks S independent
runs, on every operand at once, and then give per-run results: an (S,)
loss, an (S, B, B) similarity. An operand without the axis is one run's;
none is shared by the runs. Each run's slice is computed by the same numpy
operations on the same shapes as its own call, so it is bit-identical to
it.

Gradients are written, not zero-filled and added: a node's first gradient
contribution becomes its ``grad`` array, and later ones are added into it in
place. So the first contribution must be an array the node owns. An op hands
over a fresh array, or marks as ``shared`` (and the node then keeps a copy)
one that other code may still write or read: the view ``reshape`` passes
on. A leaf whose ``grad`` is preset (the flat training buffer) always adds
into it.

Subgradient conventions (relevant when checking gradients near kinks):
relu'(0) = 0, a clamp passes no gradient outside its interval *and at its
boundaries*, and a pairwise L2 distance has gradient 0 where the distance
is 0.
"""

from __future__ import annotations

from typing import Callable, Sequence

import numpy as np

from .errors import ConfigError, DomainError, GraphStateError, ShapeError

__all__ = [
    "Tensor",
    "backward",
    "node",
    "pairwise_similarity_backward",
    "pairwise_similarity_forward",
    "softmax_cross_entropy_backward",
    "softmax_cross_entropy_forward",
    "squared_error_sum_backward",
    "squared_error_sum_forward",
    "weighted_log_sum_backward",
    "weighted_log_sum_forward",
]


class Tensor:
    """Array node in a computation graph.

    Leaves are built directly (``Tensor(data, requires_grad=True)`` for
    trainables); ops and ``node`` return derived tensors that remember their
    parents.
    ``backward`` on a result fills ``grad`` on every requires-grad leaf
    reachable from it, summing over all uses.
    """

    __slots__ = ("data", "grad", "requires_grad", "_parents", "_backward", "_spent")

    def __init__(self, data, requires_grad: bool = False):
        self.data = np.asarray(data, dtype=np.float64)
        self.grad: np.ndarray | None = None
        self.requires_grad = requires_grad
        self._parents: tuple[Tensor, ...] = ()
        self._backward: Callable[[np.ndarray], None] | None = None
        self._spent = False

    @property
    def shape(self) -> tuple[int, ...]:
        return self.data.shape

    def item(self) -> float:
        if self.data.size != 1:
            raise ShapeError(f"item: tensor of shape {self.shape} is not a scalar")
        return float(self.data.reshape(()))

    def __repr__(self) -> str:
        return f"Tensor(shape={self.shape}, requires_grad={self.requires_grad})"

    def reshape(self, shape: Sequence[int]) -> "Tensor":
        shape = tuple(int(s) for s in shape)
        if int(np.prod(shape, dtype=np.int64)) != self.data.size:
            raise ShapeError(f"reshape: cannot view {self.shape} as {shape}")
        out = _node(self.data.reshape(shape), (self,))
        if out._parents:
            out._backward = lambda g: _accumulate(self, g.reshape(self.shape), shared=True)
        return out


# -- ops -------------------------------------------------------------------


def node(
    data: np.ndarray,
    parents: tuple[Tensor, ...],
    grads: Callable[[np.ndarray], Sequence[np.ndarray | None]],
) -> Tensor:
    """A graph node holding ``data``, computed from ``parents``.

    ``grads`` maps the node's gradient to one gradient per parent, in order:
    a fresh array the parent may keep, or None for a parent that takes no
    gradient. A node none of whose parents takes a gradient has no backward.
    """
    out = _node(data, parents)
    if out._parents:
        def back(g: np.ndarray) -> None:
            for parent, grad in zip(parents, grads(g)):
                _accumulate(parent, grad)
        out._backward = back
    return out


def pairwise_similarity_forward(e: np.ndarray, kind: str) -> tuple[np.ndarray, np.ndarray]:
    """Unclamped (..., B, B) similarity between every pair of rows of (..., B, D) embeddings.

    ``cos`` is the shifted cosine ``(E E^T / (n n^T) + 1) / 2`` with ``n`` the
    row norms, and raises ``DomainError`` when any row has zero norm. ``l2`` is
    ``1 / (||e_i - e_j|| + 1)``; its gradient is 0 where the distance is 0.
    The shape is unchecked. Returns the similarity and what the gradient
    needs: the row norms (cos) or the pairwise distances (l2).
    """
    if kind == "cos":
        norms = np.sqrt((e * e).sum(axis=-1))
        if not norms.all():
            raise DomainError("pairwise_similarity: cosine undefined for a zero vector")
        outer = norms[..., :, None] * norms[..., None, :]
        return ((e @ e.swapaxes(-1, -2)) / outer + 1.0) * 0.5, norms
    if kind == "l2":
        diff = e[..., :, None, :] - e[..., None, :, :]
        dist = np.sqrt((diff * diff).sum(axis=-1))
        return 1.0 / (dist + 1.0), dist
    raise ConfigError(f"pairwise_similarity: unknown kind {kind!r}")


def pairwise_similarity_backward(
    g: np.ndarray, e: np.ndarray, kind: str, sim: np.ndarray, saved: np.ndarray
) -> np.ndarray:
    """Gradient of ``pairwise_similarity_forward``'s embeddings for similarity gradient ``g``."""
    if kind == "cos":
        unit = e / saved[..., None]
        g_unit = (0.5 * (g + g.swapaxes(-1, -2))) @ unit
        radial = (g_unit * unit).sum(axis=-1, keepdims=True)
        return (g_unit - radial * unit) / saved[..., None]
    # d sim / d dist = -sim^2; d dist_ij / d e_i = (e_i - e_j) / dist_ij
    w = np.divide(-g * sim * sim, saved, out=np.zeros_like(saved), where=saved > 0.0)
    w = w + w.swapaxes(-1, -2)
    return w.sum(axis=-1)[..., None] * e - w @ e


def squared_error_sum_forward(target: np.ndarray, pred: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``sum((target - pred)^2)`` over the last axis, unchecked: the sums and ``target - pred``.

    A (B,) prediction gives a scalar; an (S, B) stack of S runs gives the
    (S,) per-run sums.
    """
    diff = target - pred
    return (diff * diff).sum(axis=-1), diff


def squared_error_sum_backward(g: np.ndarray, diff: np.ndarray) -> np.ndarray:
    """Gradient of ``squared_error_sum_forward``'s prediction for loss gradient ``g``."""
    return -(g[..., None] * 2.0 * diff)


def softmax_cross_entropy_forward(
    z: np.ndarray, onehot: np.ndarray, floor: float
) -> tuple[np.ndarray, tuple[np.ndarray, np.ndarray, np.ndarray]]:
    """Mean over rows of ``-log clamp(p, floor, 1)``, ``p`` the softmax mass on ``onehot``, unchecked.

    The softmax over the last axis uses the usual max-shift, and the mask
    has the logits' shape. (B, C) logits give a scalar; an (S, B, C) stack
    of S runs gives the (S,) per-run losses. Returns the loss and (softmax,
    picked mass, clamped mass); a mass at or beyond the clamp edges passes
    no gradient. It reduces with the ufuncs that ``max`` and ``sum`` call.
    """
    s = z - np.maximum.reduce(z, axis=-1, keepdims=True)
    np.exp(s, out=s)
    s /= np.add.reduce(s, axis=-1, keepdims=True)
    picked = np.add.reduce(s * onehot, axis=-1)
    clamped = np.minimum(np.maximum(picked, floor), 1.0)
    return np.add.reduce(np.log(clamped), axis=-1) / picked.shape[-1] * -1.0, (s, picked, clamped)


def softmax_cross_entropy_backward(
    g: np.ndarray, onehot: np.ndarray, floor: float, s: np.ndarray, picked: np.ndarray, clamped: np.ndarray
) -> np.ndarray:
    """Gradient of ``softmax_cross_entropy_forward``'s logits for loss gradient ``g``, for a 0/1 ``onehot``.

    ``g_s * s`` summed over a row is its one picked product ``g_picked *
    picked``; ``+ 0.0`` makes a zero product +0.0, the sign the sum starts
    from, where a clamped row's ``g_picked`` is -0.0.
    """
    inside = (picked > floor) & (picked < 1.0)
    g_picked = (g * -1.0 / picked.shape[-1])[..., None] / clamped * inside
    g_s = g_picked[..., None] * onehot
    g_s -= (g_picked * picked + 0.0)[..., None]
    g_s *= s
    return g_s


def weighted_log_sum_forward(
    x: np.ndarray, coefficients: np.ndarray, floor: float
) -> tuple[np.ndarray, np.ndarray]:
    """``sum(K * log clamp(x, floor, 1))`` for a constant coefficient array ``K``.

    An (S, B, B) stack of S runs' matrices gives the (S,) per-run sums; any
    other shape is summed whole. Returns the sum and ``clamp(x, floor, 1)``;
    an entry at or beyond the clamp edges passes no gradient.
    """
    if coefficients.shape != x.shape:
        raise ShapeError(f"weighted_log_sum: coefficients {coefficients.shape} != input {x.shape}")
    if not 0.0 < floor < 1.0:
        raise DomainError(f"weighted_log_sum: floor {floor} must lie in (0, 1)")
    clamped = np.minimum(np.maximum(x, floor), 1.0)
    return (np.log(clamped) * coefficients).sum(axis=(-2, -1) if x.ndim == 3 else None), clamped


def weighted_log_sum_backward(
    g: np.ndarray, x: np.ndarray, coefficients: np.ndarray, floor: float, clamped: np.ndarray
) -> np.ndarray:
    """Gradient of ``weighted_log_sum_forward``'s input for loss gradient ``g``."""
    inside = (x > floor) & (x < 1.0)
    return (g[:, None, None] if x.ndim == 3 else g) * coefficients / clamped * inside


# -- backward pass ------------------------------------------------------------


def backward(root: Tensor) -> None:
    """Backpropagate from a root, filling grads on requires-grad leaves.

    The root's gradient is seeded with ones of its own shape. A scalar root
    is one loss; an (S,) root holds the losses of S independent runs, so
    each run's parameters get exactly their own run's gradient.

    Each graph may be walked once; a second call on the same root raises
    ``GraphStateError``. Leaves are reusable across graphs, and their grads
    accumulate until the caller resets ``grad`` (as
    ``losses.loss_gradients`` does).

    Its callers (no training step is one: the loops run on arrays):

    - ``losses.loss_gradients`` and public callers, on whole-model graphs
      built with the test tree's graph forms of the network calls;
    - the tests: their gradient checks, the elementary-op chains and the
      per-step reference loops.
    """
    if root._spent:
        raise GraphStateError("backward: graph already consumed by a previous call")

    topo: list[Tensor] = []
    visited: set[int] = set()
    stack: list[tuple[Tensor, bool]] = [(root, False)]
    while stack:
        node, emitted = stack.pop()
        if emitted:
            topo.append(node)
            continue
        if id(node) in visited:
            continue
        visited.add(id(node))
        stack.append((node, True))
        for parent in node._parents:
            if id(parent) not in visited:
                stack.append((parent, False))

    root.grad = np.ones(root.data.shape)
    for node in reversed(topo):
        if node._backward is not None:
            node._backward(node.grad)
            node._spent = True
    root._spent = True


# -- internals ------------------------------------------------------------------


def _node(data: np.ndarray, parents: tuple[Tensor, ...]) -> Tensor:
    out = Tensor(data)
    if any(p.requires_grad for p in parents):
        out.requires_grad = True
        out._parents = parents
    return out


def _accumulate(t: Tensor, g: np.ndarray, shared: bool = False) -> None:
    """Add ``g`` into ``t.grad``; a first write keeps ``g`` itself, or a copy if ``shared``."""
    if not t.requires_grad:
        return
    if t.grad is None:
        t.grad = g.copy() if shared else g
    else:
        t.grad += g

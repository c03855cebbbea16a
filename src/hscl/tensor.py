"""Dense float64 tensors with eager reverse-mode automatic differentiation.

The core holds what the library differentiates: MLP layers, the
squared-error and cross-entropy losses, and the contrastive term, each as a
pair of plain array functions. ``*_forward`` returns the output and what
the gradient needs, ``*_backward`` maps an output gradient to the operands'
gradients. The pairs are:

- ``dense_*``, a whole MLP layer ``act(x @ w + b)``;
- ``squared_error_sum_*``, ``sum((target - pred)^2)``;
- ``softmax_cross_entropy_*``, ``-mean(log clamp(sum(softmax(z) * onehot)))``;
- the contrastive term's ``pairwise_similarity_*`` (the (B, B) similarity
  matrix ``S``) and ``weighted_log_sum_*`` (``sum(K * log clamp(S))``).

Everything is float64 and single-threaded; gradients accumulate in a fixed
reverse-topological order, so identical graphs always produce bit-identical
values and gradients.

The training loops call the pairs directly and build no graph. The public
autodiff calls of ``model`` and ``losses`` wrap them in graph nodes, one
node per call (a whole network, a whole loss term), because walking a node
costs more Python time than the small numpy arrays it carries. ``node``
makes such a node from a value, its parents and a function that gives each
parent's gradient; its closure calls the backward function, so the gradient
checks of a call test the code that the loops run without it.

Each pair runs the same numpy operations, in the same order, as the
equivalent chain of elementary ops (affine, activation, softmax, clamp,
log, ...), so values and gradients are bit-identical to that chain. The
elementary ops, and the one-node forms of the pairs, live in the test tree
(``tests/elementary.py``), which builds the chains as oracles. A backward
computes only the products its caller asks for.

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
    "dense_backward",
    "dense_forward",
    "grad_check",
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
    need_x: bool = True, need_w: bool = True, need_b: bool = True,
    gw: np.ndarray | None = None, gb: np.ndarray | None = None,
) -> tuple[np.ndarray | None, np.ndarray | None, np.ndarray | None]:
    """Gradients (x, w, b) of ``dense_forward`` for output gradient ``g``; None where not needed.

    Given ``gw`` and ``gb``, arrays shaped like the weight and the bias, the
    weight and bias gradients are written into them and they are returned.
    """
    if activation == "tanh":
        g = g * (1.0 - y * y)
    elif activation == "relu":
        g = g * (z > 0.0)
    return (
        g @ w.swapaxes(-1, -2) if need_x else None,
        np.matmul(x.swapaxes(-1, -2), g, out=gw) if need_w else None,
        np.add.reduce(g, axis=-2, out=gb) if need_b else None,
    )


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
    no gradient.
    """
    e = np.exp(z - z.max(axis=-1, keepdims=True))
    s = e / e.sum(axis=-1, keepdims=True)
    picked = (s * onehot).sum(axis=-1)
    clamped = np.minimum(np.maximum(picked, floor), 1.0)
    return np.log(clamped).sum(axis=-1) / picked.shape[-1] * -1.0, (s, picked, clamped)


def softmax_cross_entropy_backward(
    g: np.ndarray, onehot: np.ndarray, floor: float, s: np.ndarray, picked: np.ndarray, clamped: np.ndarray
) -> np.ndarray:
    """Gradient of ``softmax_cross_entropy_forward``'s logits for loss gradient ``g``."""
    inside = (picked > floor) & (picked < 1.0)
    g_picked = (g * -1.0 / picked.shape[-1])[..., None] / clamped * inside
    g_s = g_picked[..., None] * onehot
    inner = (g_s * s).sum(axis=-1, keepdims=True)
    return s * (g_s - inner)


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

    - ``losses.loss_gradients`` and public callers, on whole-model graphs;
    - ``grad_check``;
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


# -- numerical gradient checking -----------------------------------------------


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

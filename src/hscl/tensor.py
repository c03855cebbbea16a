"""Dense float64 tensors with eager reverse-mode automatic differentiation.

The op set holds what the library runs: MLP layers, the squared-error and
cross-entropy losses, and the array functions of the contrastive term.
Everything is float64 and single-threaded; gradients accumulate in a fixed
reverse-topological order, so identical graphs always produce bit-identical
values and gradients.

Each MLP layer and each loss is one graph node, because walking a node costs
more Python time than the small numpy arrays it carries:

- ``dense`` is a whole MLP layer, ``act(x @ w + b)``;
- ``squared_error_sum`` is ``sum((target - pred)^2)``;
- ``softmax_cross_entropy`` is ``-mean(log clamp(sum(softmax(z) * onehot)))``.

Each fused forward and backward runs the same numpy operations, in the same
order, as the equivalent chain of elementary ops (affine, activation,
softmax, clamp, log, ...), so values and gradients are bit-identical to that
chain. The elementary ops live in the test tree (``tests/elementary.py``),
which builds the chains as oracles. A fused backward computes only the
products its requires-grad operands need.

Every fused op is built on a pair of plain array functions: ``*_forward``
returns the output and what the gradient needs, ``*_backward`` maps an
output gradient to the operands' gradients. The pairs are ``dense_*``,
``squared_error_sum_*``, ``softmax_cross_entropy_*``, and the contrastive
term's ``pairwise_similarity_*`` (the (B, B) similarity matrix ``S``) and
``weighted_log_sum_*`` (``sum(K * log clamp(S))``). A node's closure calls
the backward function, so the gradient checks of the op test the code that
other callers run without it: the training loops run every MLP layer and
the fine-tuning loss of a step tape-free, and ``losses`` builds each loss
term as one node wired straight to its leaves. ``node`` makes such a node
from a value, its parents and a function that gives each parent's gradient.

The fused ops and the array functions also take a leading run axis that
stacks S independent runs, and then give per-run results: an (S,) loss, an
(S, B, B) similarity. Each run's slice is computed by the same numpy
operations on the same shapes as its own call, so it is bit-identical to it.

Gradients are written, not zero-filled and added: a node's first gradient
contribution becomes its ``grad`` array, and later ones are added into it in
place. So the first contribution must be an array the node owns. An op hands
over a fresh array, or marks as ``shared`` (and the node then keeps a copy)
one that other code may still write or read: the view ``reshape`` and
``concat_last`` pass on. A leaf whose ``grad`` is preset (the flat training
buffer) always adds into it.

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
    "concat_last",
    "dense",
    "dense_backward",
    "dense_forward",
    "grad_check",
    "node",
    "pairwise_similarity_backward",
    "pairwise_similarity_forward",
    "softmax_cross_entropy",
    "softmax_cross_entropy_backward",
    "softmax_cross_entropy_forward",
    "squared_error_sum",
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


def dense(x: Tensor, w: Tensor, b: Tensor, activation: str | None = None) -> Tensor:
    """One MLP layer ``act(x @ w + b)``, the bias broadcast across rows.

    ``activation`` is ``"tanh"``, ``"relu"`` or ``None`` (the affine map).
    The weight (F, H) and bias (H,) may carry a leading run axis, (S, F, H)
    and (S, H); the input is then either (S, B, F), one batch per run, or a
    (B, F) batch shared by every run, which takes no gradient. Each run's
    slice of the output is bit-identical to the 2-D call on its slices.
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
    if xs[:-2] != runs and (len(xs) == 3 or x.requires_grad):
        raise ShapeError(
            f"dense: input {xs} must carry the weight's runs {runs}, or be one batch "
            f"shared by all runs that takes no gradient"
        )
    if activation not in ("tanh", "relu", None):
        raise ConfigError(f"dense: unknown activation {activation!r}")
    y, z = dense_forward(xd, wd, bd, activation)

    def grads(g: np.ndarray) -> tuple:
        return dense_backward(g, xd, wd, y, z, activation, x.requires_grad, w.requires_grad, b.requires_grad)

    return node(y, (x, w, b), grads)


def dense_forward(
    x: np.ndarray, w: np.ndarray, b: np.ndarray, activation: str | None
) -> tuple[np.ndarray, np.ndarray]:
    """``dense`` on arrays, unchecked: the output ``y`` and the pre-activation ``z``."""
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


def concat_last(parts: Sequence[Tensor]) -> Tensor:
    """Concatenate tensors along the last axis."""
    if not parts:
        raise ShapeError("concat_last: need at least one tensor")
    lead = parts[0].shape[:-1]
    for p in parts[1:]:
        if p.data.ndim != parts[0].data.ndim or p.shape[:-1] != lead:
            raise ShapeError(
                f"concat_last: leading dims differ, {parts[0].shape} vs {p.shape}"
            )
    widths = [p.shape[-1] for p in parts]
    out = _node(np.concatenate([p.data for p in parts], axis=-1), tuple(parts))
    if out._parents:
        offsets = np.cumsum([0] + widths)
        def back(g: np.ndarray) -> None:
            for p, lo, hi in zip(parts, offsets[:-1], offsets[1:]):
                _accumulate(p, g[..., lo:hi], shared=True)
        out._backward = back
    return out


def squared_error_sum(target: np.ndarray, pred: Tensor) -> Tensor:
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


def squared_error_sum_forward(target: np.ndarray, pred: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``squared_error_sum`` on arrays, unchecked: the sums and ``target - pred``."""
    diff = target - pred
    return (diff * diff).sum(axis=-1), diff


def squared_error_sum_backward(g: np.ndarray, diff: np.ndarray) -> np.ndarray:
    """Gradient of ``squared_error_sum_forward``'s prediction for loss gradient ``g``."""
    return -(g[..., None] * 2.0 * diff)


def softmax_cross_entropy(logits: Tensor, onehot: np.ndarray, floor: float) -> Tensor:
    """Mean over rows of ``-log clamp(p, floor, 1)``, ``p`` the softmax mass on ``onehot``.

    The softmax over the last axis uses the usual max-shift. A probability
    at or beyond the clamp edges passes no gradient.
    (S, B, C) logits of S runs give an (S,) vector of per-run losses, with
    one (B, C) mask shared by the runs or an (S, B, C) mask per run; (B, C)
    logits give a scalar.
    """
    z = logits.data
    if z.ndim not in (2, 3) or onehot.shape not in (z.shape[-2:], z.shape):
        raise ShapeError(
            f"softmax_cross_entropy: expected (B, C) or (S, B, C) logits and a (B, C) or per-run mask, "
            f"got {z.shape} and {onehot.shape}"
        )
    if min(z.shape[-2:]) < 1:
        raise ShapeError("softmax_cross_entropy: need at least one row and one class")
    loss, saved = softmax_cross_entropy_forward(z, onehot, floor)
    return node(loss, (logits,), lambda g: (softmax_cross_entropy_backward(g, onehot, floor, *saved),))


def softmax_cross_entropy_forward(
    z: np.ndarray, onehot: np.ndarray, floor: float
) -> tuple[np.ndarray, tuple[np.ndarray, np.ndarray, np.ndarray]]:
    """``softmax_cross_entropy`` on arrays, unchecked: the loss and (softmax, picked mass, clamped mass)."""
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

    Its callers:

    - the pre-training step of the training loops, which walks only the
      loss: one node wired straight to two leaves, the embeddings and the
      predictions (an mse loss is one node over the predictions). The MLP
      layers and the fine-tuning loss run without a graph;
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

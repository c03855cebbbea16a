"""Dense float64 tensors with eager reverse-mode automatic differentiation.

The op set is deliberately small: just enough to express MLP encoders,
similarity-based contrastive objectives, and the squared-error / cross-entropy
losses built on top of them. Everything is float64 and single-threaded;
gradients accumulate in a fixed reverse-topological order, so identical
graphs always produce bit-identical values and gradients.

Each MLP layer and each loss is one graph node, because walking a node costs
more Python time than the small numpy arrays it carries:

- ``dense`` is a whole MLP layer, ``act(x @ w + b)``;
- ``squared_error_sum`` is ``sum((target - pred)^2)``;
- ``softmax_cross_entropy`` is ``-mean(log clamp(sum(softmax(z) * onehot)))``;
- ``weighted_log_sum`` is ``sum(K * log clamp(s))``.

Each fused forward and backward runs the same numpy operations, in the same
order, as the equivalent chain of elementary ops (affine, activation,
softmax, clamp, log, ...), so values and gradients are bit-identical to that
chain; the tests hold the chains as oracles. A fused backward computes only
the products its requires-grad operands need.

``dense`` and ``softmax_cross_entropy`` are each built on a pair of plain
array functions: ``*_forward`` returns the output and what the gradient
needs, ``*_backward`` maps an output gradient to the operands' gradients.
The node's closure calls that backward function, and the training loops
call both directly, with no graph: every MLP layer and the fine-tuning loss
of a step run tape-free, so the gradient checks of the op test the code the
loops run.

The fused ops and ``pairwise_similarity`` also take a leading run axis that
stacks S independent runs, and then give per-run results: an (S,) loss, an
(S, B, B) similarity. Each run's slice is computed by the same numpy
operations on the same shapes as its own call, so it is bit-identical to it.

Gradients are written, not zero-filled and added: a node's first gradient
contribution becomes its ``grad`` array, and later ones are added into it in
place. So the first contribution must be an array the node owns. An op hands
over a fresh array, or marks as ``shared`` (and the node then keeps a copy)
one that other code may still write or read: a view, a broadcast, or the
same array passed to two parents, as ``+`` does. A leaf whose ``grad`` is
preset (the flat training buffer) always adds into it.

Subgradient conventions (relevant when checking gradients near kinks):
relu'(0) = 0, clamp' is zero outside the interval *and at its boundaries*,
and a pairwise L2 distance has gradient 0 where the distance is 0.
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
    "matmul",
    "pairwise_similarity",
    "softmax_cross_entropy",
    "softmax_cross_entropy_backward",
    "softmax_cross_entropy_forward",
    "squared_error_sum",
    "weighted_log_sum",
]


class Tensor:
    """Array node in a computation graph.

    Leaves are built directly (``Tensor(data, requires_grad=True)`` for
    trainables); ops return derived tensors that remember their parents.
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

    # -- arithmetic ---------------------------------------------------------

    def __add__(self, other) -> "Tensor":
        other = _as_tensor(other)
        _require_same_shape("add", self, other)
        out = _node(self.data + other.data, (self, other))
        if out._parents:
            def back(g: np.ndarray) -> None:
                _accumulate(self, g, shared=True)
                _accumulate(other, g)
            out._backward = back
        return out

    __radd__ = __add__

    def __sub__(self, other) -> "Tensor":
        other = _as_tensor(other)
        _require_same_shape("sub", self, other)
        out = _node(self.data - other.data, (self, other))
        if out._parents:
            def back(g: np.ndarray) -> None:
                _accumulate(self, g)
                _accumulate(other, -g)
            out._backward = back
        return out

    def __rsub__(self, other) -> "Tensor":
        return _as_tensor(other) - self

    def __mul__(self, other) -> "Tensor":
        if isinstance(other, (int, float)):
            c = float(other)
            out = _node(self.data * c, (self,))
            if out._parents:
                out._backward = lambda g: _accumulate(self, g * c)
            return out
        other = _as_tensor(other)
        # elementwise on equal shapes; a size-1 operand acts as a scalar factor
        if self.shape != other.shape and self.data.size != 1 and other.data.size != 1:
            raise ShapeError(f"mul: incompatible shapes {self.shape} and {other.shape}")
        a, b = self, other
        out = _node(a.data * b.data, (a, b))
        if out._parents:
            def back(g: np.ndarray) -> None:
                _accumulate(a, _reduce_to(g * b.data, a.shape))
                _accumulate(b, _reduce_to(g * a.data, b.shape))
            out._backward = back
        return out

    __rmul__ = __mul__

    def __neg__(self) -> "Tensor":
        return self * -1.0

    # -- elementwise --------------------------------------------------------

    def square(self) -> "Tensor":
        out = _node(self.data * self.data, (self,))
        if out._parents:
            out._backward = lambda g: _accumulate(self, g * 2.0 * self.data)
        return out

    def sqrt(self) -> "Tensor":
        if np.any(self.data <= 0.0):
            raise DomainError("sqrt: input must be strictly positive")
        y = np.sqrt(self.data)
        out = _node(y, (self,))
        if out._parents:
            out._backward = lambda g: _accumulate(self, g * 0.5 / y)
        return out

    def log(self) -> "Tensor":
        if np.any(self.data <= 0.0):
            raise DomainError("log: input must be strictly positive")
        out = _node(np.log(self.data), (self,))
        if out._parents:
            out._backward = lambda g: _accumulate(self, g / self.data)
        return out

    def reciprocal(self) -> "Tensor":
        if np.any(self.data == 0.0):
            raise DomainError("reciprocal: input must be nonzero")
        y = 1.0 / self.data
        out = _node(y, (self,))
        if out._parents:
            out._backward = lambda g: _accumulate(self, -g * y * y)
        return out

    def clamp(self, lo: float, hi: float) -> "Tensor":
        if not lo < hi:
            raise DomainError(f"clamp: lo {lo} must be < hi {hi}")
        out = _node(np.clip(self.data, lo, hi), (self,))
        if out._parents:
            # pass-through strictly inside [lo, hi]; zero at and beyond the edges
            mask = (self.data > lo) & (self.data < hi)
            out._backward = lambda g: _accumulate(self, g * mask)
        return out

    # -- reductions & structure ----------------------------------------------

    def sum(self, axis: int | None = None) -> "Tensor":
        out = _node(self.data.sum(axis=axis), (self,))
        if out._parents:
            def back(g: np.ndarray) -> None:
                _accumulate(self, _spread(g, self.shape, axis), shared=True)
            out._backward = back
        return out

    def mean(self, axis: int | None = None) -> "Tensor":
        n = self.data.size if axis is None else self.shape[axis]
        out = _node(self.data.mean(axis=axis), (self,))
        if out._parents:
            def back(g: np.ndarray) -> None:
                _accumulate(self, _spread(g, self.shape, axis) / n)
            out._backward = back
        return out

    def reshape(self, shape: Sequence[int]) -> "Tensor":
        shape = tuple(int(s) for s in shape)
        if int(np.prod(shape, dtype=np.int64)) != self.data.size:
            raise ShapeError(f"reshape: cannot view {self.shape} as {shape}")
        out = _node(self.data.reshape(shape), (self,))
        if out._parents:
            out._backward = lambda g: _accumulate(self, g.reshape(self.shape), shared=True)
        return out

    def segment(self, start: int, stop: int) -> "Tensor":
        """Contiguous slice [start, stop) of a 1-D vector."""
        if self.data.ndim != 1:
            raise ShapeError(f"segment: expected a 1-D vector, got shape {self.shape}")
        if not 0 <= start <= stop <= self.shape[0]:
            raise ShapeError(f"segment: [{start}, {stop}) out of range for length {self.shape[0]}")
        out = _node(self.data[start:stop].copy(), (self,))
        if out._parents:
            def back(g: np.ndarray) -> None:
                full = np.zeros_like(self.data)
                full[start:stop] = g
                _accumulate(self, full)
            out._backward = back
        return out


# -- multi-argument ops -------------------------------------------------------


def matmul(a: Tensor, b: Tensor) -> Tensor:
    """2-D matrix product a @ b."""
    if a.data.ndim != 2 or b.data.ndim != 2:
        raise ShapeError(f"matmul: expected 2-D operands, got {a.shape} and {b.shape}")
    if a.shape[1] != b.shape[0]:
        raise ShapeError(f"matmul: inner dims differ, {a.shape} vs {b.shape}")
    out = _node(a.data @ b.data, (a, b))
    if out._parents:
        def back(g: np.ndarray) -> None:
            _accumulate(a, g @ b.data.T)
            _accumulate(b, a.data.T @ g)
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
    out = _node(y, (x, w, b))
    if out._parents:
        def back(g: np.ndarray) -> None:
            gx, gw, gb = dense_backward(
                g, xd, wd, y, z, activation, x.requires_grad, w.requires_grad, b.requires_grad
            )
            _accumulate(x, gx)
            _accumulate(w, gw)
            _accumulate(b, gb)
        out._backward = back
    return out


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
) -> tuple[np.ndarray | None, np.ndarray | None, np.ndarray | None]:
    """Gradients (x, w, b) of ``dense_forward`` for output gradient ``g``; None where not needed."""
    if activation == "tanh":
        g = g * (1.0 - y * y)
    elif activation == "relu":
        g = g * (z > 0.0)
    return (
        g @ w.swapaxes(-1, -2) if need_x else None,
        x.swapaxes(-1, -2) @ g if need_w else None,
        g.sum(axis=-2) if need_b else None,
    )


def pairwise_similarity(embeddings: Tensor, kind: str) -> Tensor:
    """Unclamped (B, B) similarity between every pair of rows of a (B, D) tensor.

    ``cos`` is the shifted cosine ``(E E^T / (n n^T) + 1) / 2`` with ``n`` the
    row norms, and raises ``DomainError`` when any row has zero norm. ``l2`` is
    ``1 / (||e_i - e_j|| + 1)``; its gradient is 0 where the distance is 0.
    (S, B, D) embeddings of S runs give an (S, B, B) stack.
    """
    if embeddings.data.ndim not in (2, 3):
        raise ShapeError(
            f"pairwise_similarity: expected (B, D) or (S, B, D) embeddings, got shape {embeddings.shape}"
        )
    e = embeddings.data
    if kind == "cos":
        norms = np.sqrt((e * e).sum(axis=-1))
        if np.any(norms == 0.0):
            raise DomainError("pairwise_similarity: cosine undefined for a zero vector")
        outer = norms[..., :, None] * norms[..., None, :]
        out = _node(((e @ e.swapaxes(-1, -2)) / outer + 1.0) * 0.5, (embeddings,))
        if out._parents:
            unit = e / norms[..., None]
            def back(g: np.ndarray) -> None:
                g_unit = (0.5 * (g + g.swapaxes(-1, -2))) @ unit
                radial = (g_unit * unit).sum(axis=-1, keepdims=True)
                _accumulate(embeddings, (g_unit - radial * unit) / norms[..., None])
            out._backward = back
        return out
    if kind == "l2":
        diff = e[..., :, None, :] - e[..., None, :, :]
        dist = np.sqrt((diff * diff).sum(axis=-1))
        sim = 1.0 / (dist + 1.0)
        out = _node(sim, (embeddings,))
        if out._parents:
            def back(g: np.ndarray) -> None:
                # d sim / d dist = -sim^2; d dist_ij / d e_i = (e_i - e_j) / dist_ij
                w = np.divide(-g * sim * sim, dist, out=np.zeros_like(dist), where=dist > 0.0)
                w = w + w.swapaxes(-1, -2)
                _accumulate(embeddings, w.sum(axis=-1)[..., None] * e - w @ e)
            out._backward = back
        return out
    raise ConfigError(f"pairwise_similarity: unknown kind {kind!r}")


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
    diff = target - pred.data
    out = _node((diff * diff).sum(axis=-1), (pred,))
    if out._parents:
        def back(g: np.ndarray) -> None:
            _accumulate(pred, -(g[..., None] * 2.0 * diff))
        out._backward = back
    return out


def softmax_cross_entropy(logits: Tensor, onehot: np.ndarray, floor: float) -> Tensor:
    """Mean over rows of ``-log clamp(p, floor, 1)``, ``p`` the softmax mass on ``onehot``.

    The softmax over the last axis uses the usual max-shift. As with
    ``clamp``, a probability at or beyond the clamp edges passes no gradient.
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
    loss, saved = softmax_cross_entropy_forward(z, onehot, floor)
    out = _node(loss, (logits,))
    if out._parents:
        def back(g: np.ndarray) -> None:
            _accumulate(logits, softmax_cross_entropy_backward(g, onehot, floor, *saved))
        out._backward = back
    return out


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


def weighted_log_sum(x: Tensor, coefficients: np.ndarray, floor: float) -> Tensor:
    """``sum(K * log clamp(x, floor, 1))`` for a constant coefficient array ``K``.

    As with ``clamp``, an entry at or beyond the clamp edges passes no gradient.
    An (S, B, B) stack of S runs' matrices gives the (S,) per-run sums; any
    other shape is summed whole.
    """
    if coefficients.shape != x.shape:
        raise ShapeError(f"weighted_log_sum: coefficients {coefficients.shape} != input {x.shape}")
    if not 0.0 < floor < 1.0:
        raise DomainError(f"weighted_log_sum: floor {floor} must lie in (0, 1)")
    stacked = x.data.ndim == 3
    clamped = np.minimum(np.maximum(x.data, floor), 1.0)
    out = _node((np.log(clamped) * coefficients).sum(axis=(-2, -1) if stacked else None), (x,))
    if out._parents:
        inside = (x.data > floor) & (x.data < 1.0)
        def back(g: np.ndarray) -> None:
            _accumulate(x, (g[:, None, None] if stacked else g) * coefficients / clamped * inside)
        out._backward = back
    return out


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

    The training loops walk only a pre-training step's loss graph, from two
    leaves (embeddings and predictions) to the loss, and run the MLP layers
    and the fine-tuning loss without one. Whole-model graphs remain for
    public callers, ``loss_gradients``, the gradient checks and the
    per-step reference loops of the tests.
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

    root.grad = np.ones_like(root.data)
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


def _as_tensor(value) -> Tensor:
    if isinstance(value, Tensor):
        return value
    return Tensor(np.asarray(value, dtype=np.float64))


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

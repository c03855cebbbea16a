"""Feature-vector encoder and its two task heads, three kinds of one MLP type.

The encoder maps each scan's (batch, feature) row to an embedding. The
regression head, one linear layer, predicts the scalar health score during
pre-training; the classifier head maps a concatenated pair of embeddings
[u_prev ; u_next] to three change logits (improved / same / deteriorated).

A network holds its weights and biases as float64 arrays. Every network runs
through one array pass, ``mlp_forward``/``mlp_backward``, which computes each
layer's ``act(x @ w + b)`` and its gradient products itself, one call per
network: this forward/backward pair, not a graph, is the core the library
differentiates. The training loops call it on views of their flat parameter
buffer. The public calls ``encode``, ``predict_hs`` and ``classify_pairs``
check the network and the input once and return the forward pass's output
array, so inference runs the same arrays. The gradient checks in the test
tree wrap the pass in graph nodes over leaves that share the arrays' memory,
so they test the pair the loops run.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import ClassVar

import numpy as np

from .errors import ConfigError, ShapeError

ACTIVATIONS = ("relu", "tanh")

DEFAULT_HIDDEN = (64, 32, 16)
# tanh keeps embeddings away from the exact-zero vectors a relu stack can
# emit, which the cosine similarity rejects
DEFAULT_ACTIVATION = "tanh"
DEFAULT_CLS_HIDDEN = (32,)
CLS_ACTIVATION = "relu"
N_CLASSES = 3


@dataclass
class MLP:
    """Dense layers ``widths[i] -> widths[i + 1]``; ``widths`` includes the input width.

    The weights (F, H) and biases (H,) may carry a leading run axis of S
    runs. Each kind states which layers are activated: the encoder every
    one, a head every one but its last, whose outputs stay linear.
    """

    LINEAR_LAST: ClassVar[bool] = True

    widths: list[int]
    activation: str | None
    weights: list[np.ndarray] = field(repr=False)
    biases: list[np.ndarray] = field(repr=False)

    def activations(self) -> list[str | None]:
        """Each layer's activation; ``None`` is a linear layer."""
        n = len(self.weights)
        return [self.activation] * (n - 1) + [None if self.LINEAR_LAST else self.activation]


class EncoderParams(MLP):
    """The scan encoder: every layer activated, the last one's width the embedding's."""

    LINEAR_LAST = False

    @property
    def embedding_dim(self) -> int:
        return self.widths[-1]


class RegressionHead(MLP):
    """One linear layer of widths [D, 1]: an embedding's health score."""


class ClassifierHead(MLP):
    """MLP over [u_prev ; u_next]; hidden layers activated, logits linear."""


def _glorot(kind: type[MLP], widths: list[int], activation: str | None, seed: int) -> MLP:
    """A ``kind`` of Glorot-uniform weights and zero biases, reproducible per seed."""
    rng = np.random.default_rng(seed)
    weights, biases = [], []
    for fan_in, fan_out in zip(widths[:-1], widths[1:]):
        s = np.sqrt(6.0 / (fan_in + fan_out))
        weights.append(rng.uniform(-s, s, size=(fan_in, fan_out)))
        biases.append(np.zeros(fan_out))
    return kind(list(widths), activation, weights, biases)


def mlp_forward(layers: list[tuple], x: np.ndarray) -> list[tuple[np.ndarray, np.ndarray, np.ndarray]]:
    """Each layer's (input, output, pre-activation) for array ``x`` run through ``layers``, unchecked.

    A layer is (weight, bias, activation, weight gradient, bias gradient),
    and computes ``act(x @ w + b)``. ``x`` may carry one more leading axis
    than the weights: a pair batch's prev and next scans, which the stacked
    matmuls treat like a run axis.
    """
    saved = []
    for w, b, activation, _, _ in layers:
        z = x @ w
        z += b[:, None, :] if w.ndim == 3 else b
        y = np.tanh(z) if activation == "tanh" else np.maximum(z, 0.0) if activation == "relu" else z
        saved.append((x, y, z))
        x = y
    return saved


def mlp_backward(layers: list[tuple], saved: list[tuple], g: np.ndarray, need_x: bool = False) -> np.ndarray | None:
    """Send output gradient ``g`` back through ``layers``; the input's gradient if ``need_x``.

    Each layer's weight and bias gradients are written into its gradient
    arrays. A ``g`` with one more axis than the weights holds a pair batch's
    prev and next passes; each gradient array is then written as the sum of
    the two shares, and a sum of two does not depend on order. The input
    gradient ``g @ w^T`` of the first layer is computed only if ``need_x``.
    """
    for i in reversed(range(len(layers))):
        w, _, activation, gw, gb = layers[i]
        x, y, z = saved[i]
        if activation == "tanh":
            g = g * (1.0 - y * y)
        elif activation == "relu":
            g = g * (z > 0.0)
        if g.ndim > w.ndim:
            dw, db = np.matmul(x.swapaxes(-1, -2), g), np.add.reduce(g, axis=-2)
            np.add(dw[0], dw[1], out=gw)
            np.add(db[0], db[1], out=gb)
        else:
            np.matmul(x.swapaxes(-1, -2), g, out=gw)
            np.add.reduce(g, axis=-2, out=gb)
        g = g @ w.swapaxes(-1, -2) if need_x or i > 0 else None
    return g


# (name, input, network, input width) in each call's messages
_ENCODE = ("encode", "feature", "an encoder", "encoder input")
_PREDICT = ("predict_hs", "embedding", "a head", "head")
_CLASSIFY = ("classify_pairs", "pair", "a classifier", "classifier input")


def _check(net: MLP, activations: list[str | None], x: np.ndarray, call: tuple[str, str, str, str]) -> None:
    """Raise unless ``net``'s layers chain along its widths over one run axis and ``x`` fits them.

    ``ConfigError`` for an unknown activation, else ``ShapeError``.
    """
    name, what, kind, expected = call
    for activation in activations:
        if activation is not None and activation not in ACTIVATIONS:
            raise ConfigError(f"{name}: unknown activation {activation!r}")
    ws, bs, widths = net.weights, net.biases, net.widths
    runs = ws[0].shape[:-2] if ws else ()
    chained = bool(ws) and len(runs) < 2 and len(ws) == len(widths) - 1 == len(bs)
    for w, b, fan_in, fan_out in zip(ws, bs, widths, widths[1:]) if chained else ():
        if w.shape != (*runs, fan_in, fan_out) or b.shape != (*runs, fan_out):
            chained = False
    if not chained:
        raise ShapeError(
            f"{name}: weights {[w.shape for w in ws]} and biases {[b.shape for b in bs]} "
            f"do not chain along widths {widths} over one run axis"
        )
    if x.ndim != len(runs) + 2 or x.shape[:-2] != runs:
        raise ShapeError(
            f"{name}: expected a 2-D (batch, {what}) input, or (S, B, F) for {kind} of S runs, "
            f"got shape {x.shape} for weights of shape {ws[0].shape}"
        )
    if x.shape[-1] != widths[0]:
        raise ShapeError(f"{name}: {what} width {x.shape[-1]} != {expected} width {widths[0]}")


def _run(net: MLP, x: np.ndarray, call: tuple[str, str, str, str]) -> np.ndarray:
    """``x`` through ``net`` once ``_check`` passes: the last layer's output."""
    activations = net.activations()
    _check(net, activations, x, call)
    layers = [(w, b, act, None, None) for w, b, act in zip(net.weights, net.biases, activations)]
    return mlp_forward(layers, x)[-1][1]


def check_widths(widths, where: str) -> None:
    """Raise ``ConfigError`` unless every layer width is positive."""
    if any(w <= 0 for w in widths):
        raise ConfigError(f"{where}: widths must be positive, got {widths}")


def init_encoder(
    widths: list[int], seed: int, activation: str = DEFAULT_ACTIVATION
) -> EncoderParams:
    """Glorot-uniform weights, zero biases, reproducible per seed."""
    if len(widths) < 2:
        raise ConfigError("init_encoder: need at least input and output widths")
    check_widths(widths, "init_encoder")
    if activation not in ACTIVATIONS:
        raise ConfigError(f"init_encoder: unknown activation {activation!r}")
    return _glorot(EncoderParams, widths, activation, seed)


def init_regression_head(embedding_dim: int, seed: int) -> RegressionHead:
    return _glorot(RegressionHead, [embedding_dim, 1], None, seed)


def init_classifier_head(
    embedding_dim: int,
    seed: int,
    hidden: tuple[int, ...] = DEFAULT_CLS_HIDDEN,
) -> ClassifierHead:
    widths = [2 * embedding_dim, *hidden, N_CLASSES]
    check_widths(widths, "init_classifier_head")
    return _glorot(ClassifierHead, widths, CLS_ACTIVATION, seed)


def encode(params: EncoderParams, batch) -> np.ndarray:
    """Map a (B, F) batch to (B, embedding_dim) embeddings.

    An encoder whose weights carry a leading run axis of S runs takes an
    (S, B, F) stack instead, one batch per run, and gives (S, B, embedding_dim).
    """
    return _run(params, np.asarray(batch, dtype=np.float64), _ENCODE)


def predict_hs(head: RegressionHead, embeddings) -> np.ndarray:
    """Scalar health-score prediction per row: a length-B vector, or (S, B) for S runs."""
    e = np.asarray(embeddings, dtype=np.float64)
    if head.widths[-1] != 1:
        raise ShapeError(f"predict_hs: head output width {head.widths[-1]} != 1")
    return _run(head, e, _PREDICT).reshape(e.shape[:-1])


def classify_pairs(head: ClassifierHead, u_prev, u_next) -> np.ndarray:
    """Logits (B, 3) for a batch of embedding pairs, the head run over their rows [u_prev ; u_next].

    The embeddings and the head's weights may carry a leading run axis:
    (S, B, D) pairs through a head of (S, ...) weights give (S, B, 3).
    """
    up, un = np.asarray(u_prev, dtype=np.float64), np.asarray(u_next, dtype=np.float64)
    if up.shape != un.shape or up.ndim not in (2, 3):
        raise ShapeError(
            f"classify_pairs: expected matching (B, D) or (S, B, D) inputs, got {up.shape} and {un.shape}"
        )
    return _run(head, np.concatenate([up, un], axis=-1), _CLASSIFY)


def predict_classes(logits: np.ndarray) -> np.ndarray:
    """Argmax class per row; ties resolve to the lowest index."""
    return np.argmax(np.asarray(logits), axis=-1)

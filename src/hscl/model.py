"""Feature-vector encoder and its two task heads, three kinds of one MLP type.

The encoder maps each scan's (batch, feature) row to an embedding. The
regression head, one linear layer, predicts the scalar health score during
pre-training; the classifier head maps a concatenated pair of embeddings
[u_prev ; u_next] to three change logits (improved / same / deteriorated).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import ClassVar

import numpy as np

from .errors import ConfigError, ShapeError
from .tensor import Tensor, concat_last, dense

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
    weights: list[Tensor] = field(repr=False)
    biases: list[Tensor] = field(repr=False)

    def activations(self) -> list[str | None]:
        """Each layer's activation; ``None`` is a linear layer."""
        n = len(self.weights)
        return [self.activation] * (n - 1) + [None if self.LINEAR_LAST else self.activation]

    def trainable(self) -> list[Tensor]:
        return [*self.weights, *self.biases]


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
        weights.append(Tensor(rng.uniform(-s, s, size=(fan_in, fan_out)), requires_grad=True))
        biases.append(Tensor(np.zeros(fan_out), requires_grad=True))
    return kind(list(widths), activation, weights, biases)


def _forward(net: MLP, x, got: str, expected: str) -> Tensor:
    """``x`` through every layer of ``net``, once its last axis matches the input width.

    A mismatch raises ``ShapeError`` "{got} width {x's} != {expected} width {net's}".
    """
    x = x if isinstance(x, Tensor) else Tensor(np.asarray(x, dtype=np.float64))
    if x.shape[-1] != net.widths[0]:
        raise ShapeError(f"{got} width {x.shape[-1]} != {expected} width {net.widths[0]}")
    for w, b, activation in zip(net.weights, net.biases, net.activations()):
        x = dense(x, w, b, activation)
    return x


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


def encode(params: EncoderParams, batch) -> Tensor:
    """Map a (B, F) batch to (B, embedding_dim) embeddings.

    An encoder whose weights carry a leading run axis of S runs takes an
    (S, B, F) stack instead, one batch per run, and gives (S, B, embedding_dim).
    """
    x = batch if isinstance(batch, Tensor) else Tensor(np.asarray(batch, dtype=np.float64))
    if x.data.ndim != params.weights[0].data.ndim:
        raise ShapeError(
            f"encode: expected a 2-D (batch, feature) input, or (S, B, F) for an encoder of S runs, "
            f"got shape {x.shape} for weights of shape {params.weights[0].shape}"
        )
    return _forward(params, x, "encode: feature", "encoder input")


def predict_hs(head: RegressionHead, embeddings: Tensor) -> Tensor:
    """Scalar health-score prediction per row: a length-B vector, or (S, B) for S runs."""
    return _forward(head, embeddings, "predict_hs: embedding", "head").reshape(embeddings.shape[:-1])


def classify_pair_rows(head: ClassifierHead, rows) -> Tensor:
    """Logits (B, 3) for (B, 2D) rows of concatenated embedding pairs [u_prev ; u_next].

    The rows and the head's weights may carry a leading run axis: (S, B, 2D)
    rows through a head of (S, ...) weights give (S, B, 3).
    """
    return _forward(head, rows, "classify_pair_rows: pair", "classifier input")


def classify_pairs(head: ClassifierHead, u_prev, u_next) -> Tensor:
    """Logits (B, 3) for a batch of embedding pairs: their concatenation through ``classify_pair_rows``.

    The embeddings and the head's weights may carry a leading run axis:
    (S, B, D) pairs through a head of (S, ...) weights give (S, B, 3).
    """
    up = u_prev if isinstance(u_prev, Tensor) else Tensor(np.asarray(u_prev, dtype=np.float64))
    un = u_next if isinstance(u_next, Tensor) else Tensor(np.asarray(u_next, dtype=np.float64))
    if up.shape != un.shape or up.data.ndim not in (2, 3):
        raise ShapeError(
            f"classify_pairs: expected matching (B, D) or (S, B, D) inputs, got {up.shape} and {un.shape}"
        )
    return classify_pair_rows(head, concat_last([up, un]))


def predict_classes(logits: np.ndarray) -> np.ndarray:
    """Argmax class per row; ties resolve to the lowest index."""
    return np.argmax(np.asarray(logits), axis=-1)

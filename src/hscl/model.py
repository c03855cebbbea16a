"""Feature-vector encoder and its two task heads.

The encoder is an MLP that maps each scan's (batch, feature) row to an
embedding. The regression head predicts the scalar health score during
pre-training; the classifier head maps a concatenated pair of embeddings
[u_prev ; u_next] to three change logits (improved / same / deteriorated).
"""

from __future__ import annotations

from dataclasses import dataclass, field

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
class EncoderParams:
    """MLP encoder weights; ``widths`` includes the input width."""

    widths: list[int]
    activation: str
    weights: list[Tensor] = field(repr=False)
    biases: list[Tensor] = field(repr=False)

    @property
    def embedding_dim(self) -> int:
        return self.widths[-1]

    def trainable(self) -> list[Tensor]:
        return [*self.weights, *self.biases]


@dataclass
class RegressionHead:
    weight: Tensor
    bias: Tensor

    def trainable(self) -> list[Tensor]:
        return [self.weight, self.bias]


@dataclass
class ClassifierHead:
    """MLP over [u_prev ; u_next]; hidden layers activated, logits linear."""

    widths: list[int]
    activation: str
    weights: list[Tensor] = field(repr=False)
    biases: list[Tensor] = field(repr=False)

    def trainable(self) -> list[Tensor]:
        return [*self.weights, *self.biases]


def _glorot_layers(widths: list[int], rng: np.random.Generator):
    weights, biases = [], []
    for fan_in, fan_out in zip(widths[:-1], widths[1:]):
        s = np.sqrt(6.0 / (fan_in + fan_out))
        weights.append(Tensor(rng.uniform(-s, s, size=(fan_in, fan_out)), requires_grad=True))
        biases.append(Tensor(np.zeros(fan_out), requires_grad=True))
    return weights, biases


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
    weights, biases = _glorot_layers(list(widths), np.random.default_rng(seed))
    return EncoderParams(list(widths), activation, weights, biases)


def init_regression_head(embedding_dim: int, seed: int) -> RegressionHead:
    rng = np.random.default_rng(seed)
    s = np.sqrt(6.0 / (embedding_dim + 1))
    return RegressionHead(
        weight=Tensor(rng.uniform(-s, s, size=(embedding_dim, 1)), requires_grad=True),
        bias=Tensor(np.zeros(1), requires_grad=True),
    )


def init_classifier_head(
    embedding_dim: int,
    seed: int,
    hidden: tuple[int, ...] = DEFAULT_CLS_HIDDEN,
) -> ClassifierHead:
    widths = [2 * embedding_dim, *hidden, N_CLASSES]
    check_widths(widths, "init_classifier_head")
    weights, biases = _glorot_layers(widths, np.random.default_rng(seed))
    return ClassifierHead(widths, CLS_ACTIVATION, weights, biases)


def encode(params: EncoderParams, batch) -> Tensor:
    """Map a (B, F) batch to (B, embedding_dim) embeddings.

    An encoder whose weights carry a leading run axis of S runs also takes
    an (S, B, F) stack, one batch per run, and gives (S, B, embedding_dim).
    """
    x = batch if isinstance(batch, Tensor) else Tensor(np.asarray(batch, dtype=np.float64))
    stacked = params.weights[0].data.ndim == 3
    if x.data.ndim != 2 and not (stacked and x.data.ndim == 3):
        raise ShapeError(
            f"encode: expected a 2-D (batch, feature) input, or (S, B, F) for an encoder of S runs, "
            f"got shape {x.shape}"
        )
    if x.shape[-1] != params.widths[0]:
        raise ShapeError(
            f"encode: feature width {x.shape[-1]} != encoder input width {params.widths[0]}"
        )
    for w, b in zip(params.weights, params.biases):
        x = dense(x, w, b, params.activation)
    return x


def predict_hs(head: RegressionHead, embeddings: Tensor) -> Tensor:
    """Scalar health-score prediction per row: a length-B vector, or (S, B) for S runs."""
    if embeddings.shape[-1] != head.weight.shape[-2]:
        raise ShapeError(
            f"predict_hs: embedding width {embeddings.shape[-1]} != head width {head.weight.shape[-2]}"
        )
    return dense(embeddings, head.weight, head.bias).reshape(embeddings.shape[:-1])


def classify_pair_rows(head: ClassifierHead, rows) -> Tensor:
    """Logits (B, 3) for (B, 2D) rows of concatenated embedding pairs [u_prev ; u_next].

    The rows and the head's weights may carry a leading run axis: (S, B, 2D)
    rows through a head of (S, ...) weights give (S, B, 3).
    """
    x = rows if isinstance(rows, Tensor) else Tensor(np.asarray(rows, dtype=np.float64))
    if x.shape[-1] != head.widths[0]:
        raise ShapeError(
            f"classify_pair_rows: pair width {x.shape[-1]} != classifier input width {head.widths[0]}"
        )
    last = len(head.weights) - 1
    for i, (w, b) in enumerate(zip(head.weights, head.biases)):
        x = dense(x, w, b, head.activation if i < last else None)
    return x


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

"""Training objectives and health-score-driven batch mining.

Pre-training minimizes a summed squared error on the predicted health score,
optionally augmented with a contrastive term over batch pairs mined by label
distance: for each anchor, the floor((B-1)/2) label-nearest batch members are
positives and the floor((B-1)/2) label-farthest are negatives. The contrastive
term sums log-similarities so that minimizing it pulls positives together and
pushes negatives apart; the weighted variant scales each pair's term by its
label distance.

Both contrastive losses are computed over the whole batch at once:

- one (B, B) similarity matrix ``S`` of the embeddings, remapped into (0, 1]
  and clamped to ``[sim_floor, 1]`` before the log, which keeps both loss
  branches finite for antipodal or distant pairs (and, as everywhere in the
  tensor core, gives zero gradient at the clamp boundaries);
- one constant (B, B) coefficient matrix ``K`` built from the mining masks:
  +1 for a negative pair, -1 (cl) or -1/(d_ij + eps) (wcl) for a positive
  pair, 0 elsewhere, so the loss is ``sum(K * log S)``;
- for wcl, the constant ``sum over negatives of log(d_ij + eps)``, because a
  negative pair contributes ``log(S_ij * (d_ij + eps))``.

Mining and every loss also take a leading run axis of S independent runs:
(S, B) scores give (S, B, B) masks, and the loss terms become (S,) vectors.
A stack holds one loss mode, so an ``mse`` stack builds no contrastive term.

The masks, ``K`` and the wcl constant depend on the labels alone. They are
held in ``ContrastTargets``: a training loop builds them for a whole epoch
of batches at once with ``contrast_targets`` and hands each step its
batch's slice, and ``cl_loss``, ``wcl_loss`` and ``combined_loss_terms``
turn a plain ``MiningResult`` into them first. Every contrastive loss is
then computed one way, from the tensor core's array functions.

The combined loss is one pair of array functions, as the tensor core's are:
``combined_loss_forward`` gives the terms and what the gradient needs, and
``combined_loss_backward`` maps the total's gradient to the predictions'
and the embeddings'. The pre-training step calls the pair and builds no
graph. ``combined_loss_terms`` wraps it for the ``Tensor`` API: each term is
one node wired straight to the embeddings and the predictions, and the
total's node calls the pair's backward, so ``backward`` walks 3 nodes for
the total. The tests rebuild the same values and gradients from a chain of
7 (cl) or 9 (wcl) graph ops. ``mse_loss`` and ``cross_entropy`` are one
node each over the tensor core's squared-error and softmax cross-entropy
pairs, which the fine-tuning step calls directly.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigError, DomainError, ShapeError
from .tensor import (
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

MODES = ("mse", "mse+cl", "mse+wcl")
SIMILARITIES = ("cos", "l2")

PROB_FLOOR = 1e-12  # cross-entropy probability floor before the log


@dataclass
class LossConfig:
    mode: str = "mse"
    similarity: str = "cos"
    eps: float = 1e-2        # offset added to label distances used as weights
    sim_floor: float = 1e-6  # clamp floor applied to similarities before log
    alpha: float = 1.0       # weight of the contrastive term

    def __post_init__(self) -> None:
        if self.mode not in MODES:
            raise ConfigError(f"loss mode must be one of {MODES}, got {self.mode!r}")
        if self.similarity not in SIMILARITIES:
            raise ConfigError(f"similarity must be one of {SIMILARITIES}, got {self.similarity!r}")
        if not 0 < self.eps < math.inf:
            raise ConfigError(f"eps must be positive and finite, got {self.eps}")
        if not 0 < self.sim_floor < 1:
            raise ConfigError(f"sim_floor must lie in (0, 1), got {self.sim_floor}")
        if not 0 <= self.alpha < math.inf:
            raise ConfigError(f"alpha must be non-negative and finite, got {self.alpha}")

    @property
    def contrastive(self) -> bool:
        return self.mode != "mse"

    @property
    def weighted(self) -> bool:
        return self.mode == "mse+wcl"

    @property
    def needs_mining(self) -> bool:
        """Whether the loss has a contrastive term: a contrastive mode with alpha != 0.

        Otherwise the total is the MSE term alone, and no batch is mined.
        """
        return self.contrastive and self.alpha != 0.0


@dataclass
class MiningResult:
    """Mined pairs as (B, B) boolean masks (row = anchor) plus all pairwise label distances.

    Batches mined at once carry the same leading axes as their scores: (S, B)
    scores give (S, B, B) masks and distances.
    """

    positive: np.ndarray = field(repr=False)
    negative: np.ndarray = field(repr=False)
    distances: np.ndarray = field(repr=False)  # (..., B, B), |hs_i - hs_j|
    per_side: int

    @property
    def batch_size(self) -> int:
        return self.positive.shape[-1]

    @property
    def positives(self) -> list[list[int]]:
        """Per-anchor positive indices, ascending."""
        return _indices(self.positive)

    @property
    def negatives(self) -> list[list[int]]:
        """Per-anchor negative indices, ascending."""
        return _indices(self.negative)


@dataclass
class ContrastTargets(MiningResult):
    """Mined masks plus the label-only parts of the contrastive loss built from them.

    ``coefficients`` is ``K`` (..., B, B) and ``constant`` the wcl term's (...,)
    constant; ``eps`` is the distance offset ``K`` was weighted with, and
    ``None`` (with no constant) for the unweighted cl loss.
    """

    coefficients: np.ndarray = field(repr=False)
    constant: np.ndarray | None = field(repr=False)
    eps: float | None

    def batch(self, index) -> "ContrastTargets":
        """The targets at ``index`` along the leading axes: one batch, or one step of S runs."""
        return ContrastTargets(
            self.positive[index],
            self.negative[index],
            self.distances[index],
            self.per_side,
            self.coefficients[index],
            None if self.constant is None else self.constant[index],
            self.eps,
        )


def _indices(mask: np.ndarray) -> list[list[int]]:
    if mask.ndim != 2:
        raise ShapeError(f"mining: per-anchor indices need (B, B) masks, got a stack of shape {mask.shape}")
    return [np.flatnonzero(row).tolist() for row in mask]


def mine_batch(hs) -> MiningResult:
    """Select label-nearest positives and label-farthest negatives per anchor.

    Candidates j != i are ranked by (|hs_i - hs_j| ascending, j ascending);
    the first floor((B-1)/2) become positives, the last floor((B-1)/2)
    negatives. When B is even the single middle candidate is unused. The
    last axis of ``hs`` is one batch; any leading axes (S runs, the batches
    of an epoch, or both) stack batches mined each on its own, so (..., B)
    scores give (..., B, B) masks.
    """
    scores = np.asarray(hs, dtype=np.float64)
    if scores.ndim == 0:
        scores = scores.reshape(-1)
    b = scores.shape[-1]
    if b < 3:
        raise ConfigError(f"mine_batch: need at least 3 scores for a positive/negative split, got {b}")
    distances = np.abs(scores[..., :, None] - scores[..., None, :])
    k = (b - 1) // 2
    # a stable sort orders row i by (distance, j); the key -1 on the diagonal
    # ranks the anchor itself first, so its candidates hold ranks 1..B-1
    keys = distances.copy()
    diagonal = np.arange(b)
    keys[..., diagonal, diagonal] = -1.0
    order = np.argsort(keys, axis=-1, kind="stable")
    rank = order.argsort(axis=-1)  # candidate j's place in row i's order
    positive = (rank >= 1) & (rank <= k)
    negative = rank >= b - k
    return MiningResult(positive, negative, distances, k)


def _targets(mining: MiningResult, scores: np.ndarray | None, eps: float) -> ContrastTargets:
    """``mining`` plus ``K`` and the wcl constant; unweighted (cl) when ``scores`` is None.

    Elementwise over the masks and the scores, so batches stacked along
    leading axes get each batch's own values.
    """
    pos, neg = mining.positive, mining.negative
    if scores is None:
        return ContrastTargets(
            pos, neg, mining.distances, mining.per_side, neg.astype(np.float64) - pos, None, None
        )
    weights = np.abs(scores[..., :, None] - scores[..., None, :]) + eps
    # every anchor has per_side negatives, so each batch's terms are one row
    constant = np.log(weights[neg]).reshape(scores.shape[:-1] + (-1,)).sum(axis=-1)
    return ContrastTargets(
        pos, neg, mining.distances, mining.per_side, neg - pos / weights, constant, eps
    )


def contrast_targets(hs, config: LossConfig) -> ContrastTargets:
    """Mine (..., B) batches of scores and build their ``K`` and wcl constants at once.

    Each batch along the leading axes gets the masks of ``mine_batch`` and
    the ``K`` and constant that ``cl_loss``/``wcl_loss`` build from them;
    ``ContrastTargets.batch`` hands one step its slice, which
    ``combined_loss_terms`` takes in place of a ``MiningResult``.
    """
    scores = np.asarray(hs, dtype=np.float64)
    return _targets(mine_batch(scores), scores if config.weighted else None, config.eps)


def mse_loss(y, y_pred: Tensor) -> Tensor:
    """Summed squared error (no mean normalization); (S, B) predictions give (S,) sums."""
    loss, diff = squared_error_sum_forward(_mse_target(y, y_pred), y_pred.data)
    return node(loss, (y_pred,), lambda g: (squared_error_sum_backward(g, diff),))


def _mse_target(y, y_pred: Tensor) -> np.ndarray:
    """``y`` as the float64 target of ``y_pred``, after ``mse_loss``'s checks."""
    target = np.asarray(y, dtype=np.float64)
    if y_pred.data.ndim not in (1, 2) or target.shape != y_pred.shape:
        raise ShapeError(f"mse_loss: target shape {target.shape} != prediction shape {y_pred.shape}")
    if target.shape[-1] < 1:
        raise ShapeError("mse_loss: need at least one element")
    return target


def _check_mining(name: str, embeddings: Tensor, mining: MiningResult) -> None:
    if embeddings.data.ndim not in (2, 3):
        raise ShapeError(f"{name}: expected (B, D) or (S, B, D) embeddings, got shape {embeddings.shape}")
    rows = embeddings.shape[:-1]
    if mining.positive.shape != rows + rows[-1:]:
        raise ShapeError(
            f"{name}: mining masks {mining.positive.shape} do not fit embeddings of shape {embeddings.shape}"
        )


def cl_loss(embeddings: Tensor, mining: MiningResult, config: LossConfig) -> Tensor:
    """Unweighted contrastive loss over the mined pairs."""
    return _contrastive_node(embeddings, _mined_targets(embeddings, mining, None, config, False), config)


def wcl_loss(embeddings: Tensor, mining: MiningResult, hs, config: LossConfig) -> Tensor:
    """Contrastive loss with each pair's term scaled by its label distance.

    Negative pairs contribute log(sim * (d_ij + eps)); positive pairs
    contribute -log(sim) / (d_ij + eps). ``hs`` must be on the normalized
    scale so that eps is comparable across datasets.
    """
    return _contrastive_node(embeddings, _mined_targets(embeddings, mining, hs, config, True), config)


def _mined_targets(
    embeddings: Tensor, mining: MiningResult, hs, config: LossConfig, weighted: bool
) -> ContrastTargets:
    """``mining`` as the targets of ``wcl_loss`` (weighted) or ``cl_loss``, after that function's checks."""
    name = "wcl_loss" if weighted else "cl_loss"
    _check_mining(name, embeddings, mining)
    if not weighted:
        return _targets(mining, None, config.eps)
    scores = np.asarray(hs, dtype=np.float64)
    if scores.shape != embeddings.shape[:-1]:
        raise ShapeError(f"{name}: got {scores.shape} scores for embeddings of shape {embeddings.shape}")
    return _targets(mining, scores, config.eps)


def _contrastive_node(embeddings: Tensor, targets: ContrastTargets, config: LossConfig) -> Tensor:
    con, con_grad = _contrastive_term(embeddings.data, targets, config)
    return node(con, (embeddings,), lambda g: (con_grad(g),))


def _contrastive_term(e: np.ndarray, targets: ContrastTargets, config: LossConfig):
    """sum(K * log clamp(S)) [+ the wcl constant] of embeddings ``e``, and the map from its gradient to e's."""
    kind, floor, coefficients = config.similarity, config.sim_floor, targets.coefficients
    sims, saved = pairwise_similarity_forward(e, kind)
    con, clamped = weighted_log_sum_forward(sims, coefficients, floor)
    if targets.constant is not None:
        if np.shape(targets.constant) != np.shape(con):  # the check of the reference chain's ``+``
            raise ShapeError(f"add: incompatible shapes {np.shape(con)} and {np.shape(targets.constant)}")
        con = con + targets.constant

    def con_grad(g: np.ndarray) -> np.ndarray:
        g_sims = weighted_log_sum_backward(g, sims, coefficients, floor, clamped)
        return pairwise_similarity_backward(g_sims, e, kind, sims, saved)

    return con, con_grad


def combined_loss_forward(
    y: np.ndarray, pred: np.ndarray, e: np.ndarray | None, targets: ContrastTargets | None, config: LossConfig
) -> tuple[tuple[np.ndarray, np.ndarray, np.ndarray | None], tuple]:
    """``combined_loss_terms`` on arrays, unchecked: (total, mse, con or None) and what the gradient needs.

    ``y`` is the target of the predictions ``pred``, (B,) or (S, B); ``e``
    the embeddings and ``targets`` the batch's ``ContrastTargets``, read
    only when ``config.needs_mining``. Otherwise the total is the mse term
    and con is None.
    """
    mse, diff = squared_error_sum_forward(y, pred)
    if not config.needs_mining:
        return (mse, mse, None), (diff, None)
    con, con_grad = _contrastive_term(e, targets, config)
    return (mse + con * float(config.alpha), mse, con), (diff, con_grad)


def combined_loss_backward(
    g: np.ndarray, config: LossConfig, diff: np.ndarray, con_grad
) -> tuple[np.ndarray, np.ndarray | None]:
    """Gradients (predictions, embeddings) of ``combined_loss_forward``'s total for its gradient ``g``.

    The contrastive term takes ``g * alpha``; the embeddings' gradient is
    None for the mse-only loss.
    """
    g_e = None if con_grad is None else con_grad(g * float(config.alpha))
    return squared_error_sum_backward(g, diff), g_e


def combined_loss_terms(
    y,
    y_pred: Tensor,
    embeddings: Tensor | None,
    mining: MiningResult | None,
    hs,
    config: LossConfig,
) -> tuple[Tensor, Tensor, Tensor | None]:
    """(total, mse term, contrastive term or None).

    With alpha == 0 or plain MSE mode the total *is* the MSE tensor, so the
    resulting graph and gradients are bit-identical to pure MSE training.
    ``mining`` is the ``ContrastTargets`` of this batch, built for ``config``
    by ``contrast_targets``, whose ``K`` and constant the loss takes as they
    are without reading ``hs``; or a plain ``MiningResult``, which is first
    turned into them with ``hs`` as ``cl_loss``/``wcl_loss`` do.

    The terms come from ``combined_loss_forward``, one node each: ``total``
    has the parents (y_pred, embeddings) and calls
    ``combined_loss_backward``, ``mse`` has y_pred and ``con`` the
    embeddings. Values and gradients repeat the graph-op chain
    ``mse + (sum(K * log clamp(S)) [+ constant]) * alpha`` operation for
    operation: the total's gradient reaches the contrastive term as
    ``g * alpha``, and the constant passes it through unchanged.
    """
    target = _mse_target(y, y_pred)
    e = None
    if config.needs_mining:
        if embeddings is None or mining is None:
            raise ConfigError(f"combined_loss: mode {config.mode!r} needs embeddings and a mining result")
        if isinstance(mining, ContrastTargets):
            if mining.eps != (config.eps if config.weighted else None):
                raise ConfigError(f"combined_loss: contrast targets were built for another loss than {config.mode!r}")
            _check_mining("combined_loss", embeddings, mining)
        else:
            mining = _mined_targets(embeddings, mining, hs, config, config.weighted)
        e = embeddings.data
    (total, mse, con), saved = combined_loss_forward(target, y_pred.data, e, mining, config)
    if con is None:
        total = node(total, (y_pred,), lambda g: combined_loss_backward(g, config, *saved)[:1])
        return total, total, None
    diff, con_grad = saved
    return (
        node(total, (y_pred, embeddings), lambda g: combined_loss_backward(g, config, *saved)),
        node(mse, (y_pred,), lambda g: (squared_error_sum_backward(g, diff),)),
        node(con, (embeddings,), lambda g: (con_grad(g),)),
    )


def combined_loss(y, y_pred, embeddings, mining, hs, config: LossConfig) -> Tensor:
    total, _, _ = combined_loss_terms(y, y_pred, embeddings, mining, hs, config)
    return total


def onehot_labels(labels, n_classes: int) -> np.ndarray:
    """(..., C) boolean class mask of integer labels; ``DomainError`` for a label outside [0, C)."""
    target = np.asarray(labels)
    onehot = target[..., None] == np.arange(n_classes)
    if np.count_nonzero(onehot) != target.size:  # some label is not a class index
        raise DomainError(
            f"cross_entropy: labels must lie in [0, {n_classes}), got {sorted(set(target.ravel().tolist()))}"
        )
    return onehot


def cross_entropy(logits: Tensor, labels) -> Tensor:
    """Mean negative log softmax probability of the true class.

    (B, C) logits take (B,) labels and give a scalar; an (S, B, C) stack of
    S runs takes (S, B) labels and gives the (S,) per-run losses.
    """
    target = np.asarray(labels)
    if logits.data.ndim not in (2, 3):
        raise ShapeError(f"cross_entropy: expected (B, C) or (S, B, C) logits, got shape {logits.shape}")
    n, c = logits.shape[-2:]
    if target.shape != logits.shape[:-1]:
        raise ShapeError(f"cross_entropy: got {target.shape} labels for logits of shape {logits.shape}")
    if n < 1:
        raise ShapeError("cross_entropy: need at least one row")
    onehot = onehot_labels(target, c)
    loss, saved = softmax_cross_entropy_forward(logits.data, onehot, PROB_FLOOR)
    return node(loss, (logits,), lambda g: (softmax_cross_entropy_backward(g, onehot, PROB_FLOOR, *saved),))


def loss_gradients(
    loss: Tensor, params: list[Tensor], grad: np.ndarray, views: list[np.ndarray]
) -> np.ndarray:
    """Backprop ``loss`` into the flat gradient buffer ``grad`` and return it.

    ``views[k]`` is the slice of ``grad`` shaped like ``params[k]``. The
    buffer is zeroed once and each param's ``grad`` points at its view, so
    backward accumulates in place; a param the loss does not reach keeps a
    zero gradient.
    """
    grad.fill(0.0)
    for p, view in zip(params, views):
        p.grad = view
    backward(loss)
    return grad

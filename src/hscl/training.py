"""Optimization: Adam, cosine-annealed learning rate, training loops.

Pre-training runs the regression-plus-contrastive objective over seeded
shuffled batches (last partial batch dropped, since mining needs a fixed
batch size); fine-tuning trains the 3-way pair classifier on top of a loaded
encoder, optionally frozen. Each loop can train several independent runs,
each with its own seed and data, in lock-step along a leading run axis. Both
loops are single-threaded and bit-for-bit deterministic given the same
config and seed. Each loop returns its runs' checkpoints, whose format and
restore ``checkpoint`` owns.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass, field, replace
from typing import Sequence

import numpy as np

# perfbench/tracing.py wraps functions at this module's bindings, so each name
# its BINDINGS resolves here stays bound, even an import nothing here calls;
# perfbench/workloads.py reads checkpoint_bytes, save_checkpoint and
# load_checkpoint here too.
from .checkpoint import (
    Checkpoint,
    _tensor_name,
    checkpoint_bytes,
    encoder_from_checkpoint,
    load_checkpoint,
    meta_value,
    save_checkpoint,
)
from .errors import ConfigError, ShapeError, TrainingAbort
from .losses import (
    PROB_FLOOR,
    LossConfig,
    combined_loss_backward,
    combined_loss_forward,
    combined_loss_terms,
    contrast_targets,
    cross_entropy,
    loss_gradients,
    mine_batch,
    onehot_labels,
)
from .metrics import compute_metrics
from .model import (
    DEFAULT_ACTIVATION,
    DEFAULT_CLS_HIDDEN,
    DEFAULT_HIDDEN,
    MLP,
    EncoderParams,
    RegressionHead,
    classify_pairs,
    encode,
    init_classifier_head,
    init_encoder,
    init_regression_head,
    mlp_backward,
    mlp_forward,
    predict_classes,
    predict_hs,
)
from .tensor import softmax_cross_entropy_backward, softmax_cross_entropy_forward

# seed-stream tags so the different random uses never collide
_STREAM_ENCODER, _STREAM_REG_HEAD, _STREAM_CLS_HEAD, _STREAM_SHUFFLE = 0, 1, 2, 3

TRACE_KEYS = ("epoch", "lr", "loss", "mse", "contrast", "val_mse")
HISTORY_KEYS = ("epoch", "lr", "train_ce", "val_accuracy", "val_macro_f1")


@dataclass
class TrainConfig:
    """Optimiser, schedule, batching and seed of one pre-training or fine-tuning run."""

    batch_size: int = 8
    lr: float = 0.001
    epochs: int = 100
    eta_min: float = 0.0
    beta1: float = 0.9
    beta2: float = 0.999
    adam_eps: float = 1e-8
    seed: int = 0
    loss: LossConfig = field(default_factory=LossConfig)
    freeze_encoder: bool = True

    def __post_init__(self) -> None:
        if self.batch_size < 3:
            raise ConfigError(f"batch_size must be >= 3, got {self.batch_size}")
        if not 0 < self.lr < math.inf:
            raise ConfigError(f"lr must be positive and finite, got {self.lr}")
        if not 0 <= self.eta_min <= self.lr:  # a negative rate would ascend the loss
            raise ConfigError(f"eta_min must lie in [0, lr] = [0, {self.lr}], got {self.eta_min}")
        if self.epochs < 1:
            raise ConfigError(f"epochs must be >= 1, got {self.epochs}")
        for name in ("beta1", "beta2"):  # 1.0 makes a bias correction divide 0 by 0
            if not 0 <= getattr(self, name) < 1:
                raise ConfigError(f"{name} must lie in [0, 1), got {getattr(self, name)}")
        if not 0 < self.adam_eps < math.inf:
            raise ConfigError(f"adam_eps must be positive and finite, got {self.adam_eps}")
        if self.seed < 0:
            raise ConfigError(f"seed must be non-negative, got {self.seed}")


@dataclass
class AdamState:
    """Adam over one flat float64 buffer that holds every trained parameter.

    Built from the trained tensors' shapes: ``flat``, ``grad``, ``m`` and
    ``v`` are zero-filled buffers of their total size, each laid out block
    by block in the order of ``shapes``, and ``views`` gives a buffer's
    per-tensor reshaped views. The training loops write each run's initial
    parameters into the views of ``flat`` once and run every network on
    them, so one whole-buffer update moves them all; a step writes its
    gradients into the views of ``grad``. ``scratch`` holds two buffers
    ``adam_step`` computes in.
    """

    shapes: list[tuple[int, ...]]
    step: int = 0
    flat: np.ndarray = field(init=False, repr=False)
    grad: np.ndarray = field(init=False, repr=False)
    m: np.ndarray = field(init=False, repr=False)
    v: np.ndarray = field(init=False, repr=False)
    scratch: tuple[np.ndarray, np.ndarray] = field(init=False, repr=False)

    def __post_init__(self) -> None:
        size = sum(math.prod(shape) for shape in self.shapes)
        self.flat, self.grad, self.m, self.v = (np.zeros(size) for _ in range(4))
        self.scratch = (np.empty(size), np.empty(size))

    def views(self, buffer: np.ndarray) -> list[np.ndarray]:
        """Per-tensor views of a buffer laid out like ``flat``, shaped as ``shapes`` declares."""
        out, offset = [], 0
        for shape in self.shapes:
            size = math.prod(shape)
            out.append(buffer[offset : offset + size].reshape(shape))
            offset += size
        return out


def adam_step(
    state: AdamState,
    grad: np.ndarray,
    lr: float,
    beta1: float = TrainConfig.beta1,
    beta2: float = TrainConfig.beta2,
    eps: float = TrainConfig.adam_eps,
) -> AdamState:
    """One bias-corrected Adam update of the whole flat buffer, in place on ``state``.

    Per element: ``m = b1 m + (1 - b1) g``, ``v = b2 v + (1 - b2) g^2`` and
    ``flat -= lr (m / c1) / (sqrt(v / c2) + eps)``, each product and quotient
    computed in that order, in the two scratch buffers.
    """
    if grad.shape != state.flat.shape:
        raise ShapeError(f"adam_step: gradient shape {grad.shape} vs parameter buffer {state.flat.shape}")
    state.step += 1
    c1 = 1.0 - beta1 ** state.step
    c2 = 1.0 - beta2 ** state.step
    m, v = state.m, state.v
    a, b = state.scratch
    m *= beta1
    np.multiply(grad, 1.0 - beta1, out=a)
    m += a
    v *= beta2
    np.multiply(grad, grad, out=a)
    a *= 1.0 - beta2
    v += a
    np.divide(m, c1, out=a)
    a *= lr
    np.divide(v, c2, out=b)
    np.sqrt(b, out=b)
    b += eps
    a /= b
    state.flat -= a
    return state


def cosine_lr(epoch: int, config: TrainConfig) -> float:
    """Cosine-annealed rate over [0, epochs]; exact endpoints, clamped beyond."""
    if epoch < 0:
        raise ConfigError(f"cosine_lr: epoch must be non-negative, got {epoch}")
    t_max = config.epochs
    if epoch > t_max:
        return config.eta_min
    cos = math.cos(math.pi * epoch / t_max)
    return config.eta_min + (config.lr - config.eta_min) * (1.0 + cos) / 2.0


def _snapshot(
    params: dict[str, np.ndarray], trained: list[str], state: AdamState, meta: dict, run: int
) -> Checkpoint:
    """Checkpoint of run ``run``: its slice of each named (S, ...) parameter and of their Adam moments.

    ``trained`` names the tensors ``state`` holds, in its order.
    """
    tensors = {name: a[run].copy() for name, a in params.items()}
    for name, m, v in zip(trained, state.views(state.m), state.views(state.v)):
        tensors[f"adam.m.{name}"] = m[run].copy()
        tensors[f"adam.v.{name}"] = v[run].copy()
    return Checkpoint(tensors, meta)


def _sub_seed(seed: int, *stream: int) -> int:
    return int(np.random.SeedSequence([seed, *stream]).generate_state(1)[0])


def _epoch_order(seed: int, epoch: int, n: int) -> np.ndarray:
    rng = np.random.default_rng(np.random.SeedSequence([seed, _STREAM_SHUFFLE, epoch]))
    return rng.permutation(n)


# -- lock-step runs ---------------------------------------------------------------
#
# Both loops train S independent runs at once. Every parameter, input, epoch
# order and snapshot is stacked along a leading run axis, also for one run.
# ``_Runs`` lays the parameters out once, from their shapes: one flat
# AdamState holds the S x N trained elements, each run's initial or restored
# arrays are written into their slices of it, and an untrained tensor (a
# frozen encoder's) is one stacked array. Every network a step or validation
# runs is a set of views of those arrays, handed out by checkpoint name, so
# no parameter is copied twice and none is rebound. One step trains all
# runs, each on its own (S,) loss entry. Stacked matmuls, row reductions
# and elementwise ops give each run's slice the same bits as the run's own
# 2-D call, so each run's trace, history and checkpoints are bit-identical to
# training it alone.
#
# Only the step's own views, and validation's, drop the axis for one run, and
# ``_lead`` alone makes that choice: a one-run step sees 2-D weights, (B, F)
# batches and a scalar loss. A size-1 run axis inside the step gave the same bits but cost
# 7-11% of single-run throughput (pre-training scans/s -9.0% and fine-tuning
# pairs/s -11.3% on the benchmark's contrastive workload, -6.8% and -8.2% on
# its regression one): numpy's per-call overhead on (1, ...) operands and on
# (1,) loss terms where the 2-D step has scalars.
#
# A step runs the forward/backward array pairs; nothing in the library
# builds a graph. ``model.mlp_forward`` runs each network's layers on arrays
# and keeps each layer's arrays; ``model.mlp_backward`` sends the output
# gradient back through them and writes each parameter's gradient straight
# into its view of ``AdamState.grad``. ``encode``, ``predict_hs`` and
# ``classify_pairs`` return ``mlp_forward``'s output, and the gradient checks
# in the test tree wrap the same pair in graph nodes, so what they check is
# what a step runs. Every view is written every step, so the buffer is never
# zero-filled. The losses run the same way, seeded with a gradient of ones
# for each run's loss: pre-training calls ``losses.combined_loss_forward``
# on the embeddings and the predictions with the batch's ``ContrastTargets``
# and ``combined_loss_backward`` for both their gradients, the pair the
# ``combined_loss_terms`` total node calls; fine-tuning calls the
# cross-entropy's forward and backward functions. An unfrozen
# encoder runs once per step over the batch's prev and next scans, stacked
# along a leading axis of two, which the stacked matmuls treat like a run
# axis. Where a gradient has two shares (the embeddings, from the head and
# from the similarity; an unfrozen encoder's parameters, from the prev and
# the next scans) they are added once, and a sum of two does not depend on
# order.


def _lead(n_runs: int) -> tuple[int, ...]:
    """The run axis of a step's arrays: (S,) for S runs, and none for one run.

    The one place a loop picks its layout from the run count. Every other
    array keeps its run axis at S = 1; a one-run step stays 2-D because a
    size-1 axis there is measurably slower (see the block comment above).
    """
    return (n_runs,) if n_runs > 1 else ()


def _per_run(a, n_runs: int, ndim: int, what: str) -> np.ndarray:
    """``a`` as an (S, ...) array with one slice per run along a leading axis.

    ``a`` either already holds one array per run (``ndim + 1`` dimensions),
    returned as is, or is shared by every run (``ndim``), repeated along a
    new leading axis; ``_flat_rows`` would copy a shared training input of
    S > 1 runs anyway.
    """
    a = np.asarray(a)
    if a.ndim == ndim + 1:
        if a.shape[0] != n_runs:
            raise ShapeError(f"{what}: {a.shape[0]} per-run arrays for {n_runs} runs")
        return a
    if a.ndim != ndim:
        raise ShapeError(
            f"{what}: expected a {ndim}-D array shared by the runs or a {ndim + 1}-D one per run, "
            f"got shape {a.shape}"
        )
    return a[None].repeat(n_runs, axis=0)


def _epoch_rows(seeds: list[int], epoch: int, n: int, lead: tuple[int, ...]) -> np.ndarray:
    """Each run's batch order for ``epoch``, as rows of its arrays in ``_flat_rows`` form.

    Run k's order is offset by k * n, so a slice of it gathers every run's
    batch with one ``take``; the orders are shaped ``lead + (n,)``.
    """
    by_seed = {s: _epoch_order(s, epoch, n) for s in dict.fromkeys(seeds)}
    return np.array([by_seed[s] + k * n for k, s in enumerate(seeds)]).reshape(lead + (n,))


def _flat_rows(a: np.ndarray) -> np.ndarray:
    """A per-run (S, N, ...) array as (S * N, ...) rows, run by run."""
    return a.reshape(-1, *a.shape[2:])


def _full_batches(rows: np.ndarray, batch_size: int) -> np.ndarray:
    """``_epoch_rows`` cut into the epoch's full batches, (n_batches, [S,] B); the rest is dropped.

    Gathering an array's rows with it lays each step's batch out contiguously
    at one index of the leading axis, as a per-step ``take`` would.
    """
    n_batches = rows.shape[-1] // batch_size
    batches = rows[..., : n_batches * batch_size].reshape(*rows.shape[:-1], n_batches, batch_size)
    return np.moveaxis(batches, -2, 0)


def _step_view(a: np.ndarray | None, lead: tuple[int, ...]) -> np.ndarray | None:
    """``a``, whose first axis is the run axis, as a view shaped ``lead + a.shape[1:]`` (see ``_lead``)."""
    return None if a is None else a.reshape(lead + a.shape[1:])


class _Runs:
    """The per-run state and bookkeeping of both loops, from the parameters to the results.

    ``_Runs`` owns each network's parameters, under their checkpoint names
    (``_tensor_name``), as (S, ...) arrays in ``params``. ``nets`` maps each
    network's prefix to its S runs' initial or restored networks, and
    ``trained`` names the prefixes a step trains. ``state`` is allocated from
    the trained tensors' shapes, in the order of ``nets``, layers in order,
    weight before bias; each run's arrays are written into their slices of
    ``state.flat`` once, and ``params`` holds those views. An untrained
    tensor (a frozen encoder's) is one stacked array. ``grads`` holds the
    trained names' views of ``state.grad``, and ``network`` hands a step and
    validation their layers.

    A step hands ``add`` its per-run loss terms, which are kept as they are;
    a non-finite first term raises ``TrainingAbort``, naming the run when
    S > 1. ``end_epoch`` sums each run's terms in batch order and logs each
    run's entry under the stage's keys: epoch, lr, the mean terms, then
    the validation values, the last of which selects the best epoch by strict
    improvement (lower ``val_mse``, higher ``val_macro_f1``), so NaN is never
    selected. ``results`` appends the terminal entry at epoch == epochs, with
    the fully annealed rate and the last epoch's values, and gives a run that
    never scored its final checkpoint as best, at epoch epochs - 1.
    """

    # stage: (log keys, the loss terms an abort names, the sign that makes a better score larger)
    STAGES = {
        "pretrain": (TRACE_KEYS, ("loss", "mse", "contrast"), -1.0),
        "finetune": (HISTORY_KEYS, ("ce",), 1.0),
    }

    def __init__(
        self, stage: str, config: TrainConfig, seeds: list[int], nets: dict[str, list[MLP]],
        trained: tuple[str, ...], model: dict, extras: list[dict],
    ):
        self.stage, self.config = stage, config
        self.keys, self.terms, self.sign = self.STAGES[stage]
        self.nets = {prefix: models[0] for prefix, models in nets.items()}  # each network's kind and widths
        per_run = {}  # each name's S arrays
        for prefix, models in nets.items():
            for i in range(len(models[0].weights)):
                per_run[_tensor_name(prefix, "w", i)] = [m.weights[i] for m in models]
                per_run[_tensor_name(prefix, "b", i)] = [m.biases[i] for m in models]
        self.trained = [name for name in per_run if name.split(".")[0] in trained]  # "{prefix}.…"
        self.state = AdamState([(len(seeds), *per_run[name][0].shape) for name in self.trained])
        flat = dict(zip(self.trained, self.state.views(self.state.flat)))
        self.params = {name: np.stack(arrays, out=flat.get(name)) for name, arrays in per_run.items()}
        self.grads = dict(zip(self.trained, self.state.views(self.state.grad)))
        self.metas = [  # each run's metadata after its stage, epoch and Adam step
            {"model": model, "train": asdict(replace(config, seed=s)), **e} for s, e in zip(seeds, extras)
        ]
        self.n_runs = len(seeds)
        self.steps: list[tuple] = []  # the epoch's per-step loss terms
        self.logs: list[list[dict]] = [[] for _ in seeds]
        self.best: list[Checkpoint | None] = [None] * self.n_runs
        self.best_epoch = [-1] * self.n_runs
        self.best_score = [-math.inf] * self.n_runs

    def network(self, prefix: str, lead: tuple[int, ...]) -> tuple[MLP, list[tuple]]:
        """Network ``prefix`` as a step and validation see it: the network, and its layers for ``mlp_forward``.

        A layer is (weight, bias, activation, weight gradient, bias gradient),
        each array a ``_step_view`` of its named one, so the network sees every
        Adam update; the gradients are None for a network ``state`` does not
        train.
        """
        net = self.nets[prefix]
        layers = []
        for i, activation in enumerate(net.activations()):
            w, b = _tensor_name(prefix, "w", i), _tensor_name(prefix, "b", i)
            layers.append((
                _step_view(self.params[w], lead), _step_view(self.params[b], lead), activation,
                _step_view(self.grads.get(w), lead), _step_view(self.grads.get(b), lead),
            ))
        step = type(net)(net.widths, net.activation, [l[0] for l in layers], [l[1] for l in layers])
        return step, layers

    def snapshot(self, epoch: int, s: int) -> Checkpoint:
        meta = {"stage": self.stage, "epoch": epoch, "adam_step": self.state.step, **self.metas[s]}
        return _snapshot(self.params, self.trained, self.state, meta, s)

    def add(self, epoch: int, batch: int, *terms: np.ndarray | None) -> None:
        """Keep one step's loss terms, each an (S,) array (a scalar for one run); ``None`` is zeros."""
        first = terms[0]
        if not (math.isfinite(first) if first.ndim == 0 else np.isfinite(first).all()):
            self._abort(epoch, batch, terms)
        self.steps.append(terms)

    def _abort(self, epoch: int, batch: int, terms: tuple) -> None:
        columns = [[0.0] * self.n_runs if t is None else t.reshape(-1).tolist() for t in terms]
        s = [math.isfinite(v) for v in columns[0]].index(False)
        where = f" run {s}" if self.n_runs > 1 else ""
        named = " ".join(f"{name}={column[s]}" for name, column in zip(self.terms, columns))
        raise TrainingAbort(f"{self.stage}{where}: non-finite loss at epoch {epoch} batch {batch}: {named}")

    def _sums(self) -> list[list[float]]:
        """Per term, each run's sum over the epoch's steps, added in batch order from 0.0.

        ``np.add.accumulate`` adds one row at a time, as a running sum does;
        a pairwise sum could round differently.
        """
        sums = []
        for column in zip(*self.steps):
            rows = np.zeros((len(column) + 1, self.n_runs))
            if column[0] is not None:
                rows[1:] = np.reshape(column, (len(column), self.n_runs))
            sums.append(np.add.accumulate(rows)[-1].tolist())
        return sums

    def end_epoch(self, epoch: int, lr: float, vals) -> None:
        """Log each run's epoch from its mean terms and its tuple of ``vals``; keep an improved best."""
        sums, n_steps = self._sums(), len(self.steps)
        self.steps = []
        for s, run_vals in enumerate(vals):
            means = [run_sums[s] / n_steps for run_sums in sums]
            entry = dict(zip(self.keys, (epoch, lr, *means, *run_vals)))
            self.logs[s].append(entry)
            score = self.sign * entry[self.keys[-1]]
            if score > self.best_score[s]:
                self.best_score[s], self.best_epoch[s], self.best[s] = score, epoch, self.snapshot(epoch, s)

    def results(self, result: type) -> list:
        out, epochs = [], self.config.epochs
        for s, log in enumerate(self.logs):
            log.append({**log[-1], "epoch": epochs, "lr": cosine_lr(epochs, self.config)})
            final = self.snapshot(epochs - 1, s)
            if self.best[s] is None:  # no finite validation score ever observed
                self.best[s], self.best_epoch[s] = final, epochs - 1
            out.append(result(final, self.best[s], self.best_epoch[s], log))
        return out


def format_trace_line(entry: dict, keys=TRACE_KEYS) -> str:
    parts = []
    for key in keys:
        value = entry[key]
        parts.append(f"{key}={value if isinstance(value, int) else repr(float(value))}")
    return " ".join(parts)


def write_trace(entries: list[dict], path, keys=TRACE_KEYS) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        for entry in entries:
            fh.write(format_trace_line(entry, keys) + "\n")


def parse_trace(path, keys=TRACE_KEYS) -> list[dict]:
    entries = []
    with open(path, "r", encoding="utf-8") as fh:
        for line in fh:
            fields = dict(part.split("=", 1) for part in line.split())
            entry: dict = {}
            for key in keys:
                raw = fields[key]
                entry[key] = int(raw) if key == "epoch" else float(raw)
            entries.append(entry)
    return entries


# -- pre-training loop ------------------------------------------------------------


@dataclass
class PretrainResult:
    """A pre-training run's last and best (lowest validation MSE) checkpoints, the best epoch and the per-epoch trace."""

    final: Checkpoint
    best: Checkpoint
    best_epoch: int
    trace: list[dict]


def _val_mse(encoder: EncoderParams, reg: RegressionHead, x_val: np.ndarray, y_val: np.ndarray) -> list[float]:
    """Each run's validation MSE, from (S, N) targets; NaN for an empty split.

    The networks and the features are in the step layout (see ``_Runs.network``).
    """
    if y_val.shape[-1] == 0:
        return [float("nan")] * len(y_val)
    pred = predict_hs(reg, encode(encoder, x_val)).reshape(y_val.shape)
    return [float(np.mean((p - y) ** 2)) for p, y in zip(pred, y_val)]


def pretrain(
    x_train: np.ndarray,
    y_train: np.ndarray,
    x_val: np.ndarray,
    y_val: np.ndarray,
    config: TrainConfig,
    hidden: tuple[int, ...] = DEFAULT_HIDDEN,
    activation: str = DEFAULT_ACTIVATION,
    data_meta: dict | None = None,
) -> PretrainResult:
    """Regression pre-training with optional contrastive augmentation.

    Per epoch: gather the batches and mine every one of them by label
    distance. Per batch: encode, predict the score, combine the losses,
    backprop, Adam step. Targets must already be on the normalized scale.
    Returns the final checkpoint, the lowest validation-MSE checkpoint, and
    the per-epoch trace (the trace carries a terminal entry at epoch ==
    epochs showing the fully annealed rate).
    """
    (result,) = pretrain_runs(
        x_train, y_train, x_val, y_val, config, hidden, activation, data_metas=[data_meta]
    )
    return result


def pretrain_runs(
    x_train: np.ndarray,
    y_train: np.ndarray,
    x_val: np.ndarray,
    y_val: np.ndarray,
    config: TrainConfig,
    hidden: tuple[int, ...] = DEFAULT_HIDDEN,
    activation: str = DEFAULT_ACTIVATION,
    data_metas: Sequence[dict | None] | None = None,
    seeds: Sequence[int] | None = None,
) -> list[PretrainResult]:
    """Pre-train S runs in lock-step, run k with seed ``seeds[k]`` on its own data.

    ``seeds`` defaults to ``config.seed`` alone. A run's seed fixes its
    initial weights and batch order; the rest of ``config`` is shared, so a
    stack holds one loss mode. Each array is shared by every run or holds one
    per run along a leading axis: (S, N, F) features, (S, N) targets; each
    epoch gathers every run's batches with one ``take`` per array, and the
    contrastive masks, ``K`` and wcl constants of all of them with one
    ``contrast_targets`` call. ``data_metas[k]``
    goes into run k's checkpoints. A non-finite loss in any run raises
    ``TrainingAbort`` for all of them, naming the run when S > 1.
    """
    seeds = [config.seed] if seeds is None else [int(s) for s in seeds]
    n_runs = len(seeds)
    if n_runs == 0:
        raise ConfigError("pretrain: need at least one run")
    data_metas = [None] * n_runs if data_metas is None else list(data_metas)
    if len(data_metas) != n_runs:
        raise ConfigError(f"pretrain: {len(data_metas)} data metadata entries for {n_runs} runs")
    x_train, x_val = (_per_run(a, n_runs, 2, "pretrain") for a in (x_train, x_val))
    y_train, y_val = (_per_run(a, n_runs, 1, "pretrain") for a in (y_train, y_val))
    n = x_train.shape[-2]
    if n < config.batch_size:
        raise ConfigError(
            f"pretrain: training split has {n} records, smaller than batch size {config.batch_size}"
        )
    if y_train.shape[-1] != n:
        raise ShapeError(f"pretrain: {n} feature rows vs {y_train.shape[-1]} targets")
    if y_val.shape[-1] != x_val.shape[-2]:
        raise ShapeError(f"pretrain: {x_val.shape[-2]} validation feature rows vs {y_val.shape[-1]} targets")
    if x_val.shape[-1] != x_train.shape[-1]:
        raise ShapeError(
            f"pretrain: validation feature width {x_val.shape[-1]} != training feature width {x_train.shape[-1]}"
        )

    widths = [int(x_train.shape[-1]), *hidden]
    nets = {
        "encoder": [init_encoder(widths, _sub_seed(s, _STREAM_ENCODER), activation) for s in seeds],
        "reg": [init_regression_head(widths[-1], _sub_seed(s, _STREAM_REG_HEAD)) for s in seeds],
    }
    runs = _Runs(
        "pretrain", config, seeds, nets, ("encoder", "reg"),
        {"widths": widths, "activation": activation}, [{"data": m or {}} for m in data_metas],
    )
    state = runs.state
    loss = config.loss
    x_rows, y_rows = _flat_rows(x_train), _flat_rows(y_train)
    lead = _lead(n_runs)
    (encoder, enc_layers), (reg, head_layers) = runs.network("encoder", lead), runs.network("reg", lead)
    x_val = _step_view(x_val, lead)
    g_loss = np.ones(lead)  # the seed backward gives a root

    n_batches = n // config.batch_size
    for epoch in range(config.epochs):
        lr = cosine_lr(epoch, config)
        batches = _full_batches(_epoch_rows(seeds, epoch, n, lead), config.batch_size)
        xs, ys = x_rows.take(batches, axis=0), y_rows.take(batches, axis=0)
        targets = contrast_targets(ys, loss) if loss.needs_mining else None
        for k in range(n_batches):
            enc_saved = mlp_forward(enc_layers, xs[k])
            e = enc_saved[-1][1]
            head_saved = mlp_forward(head_layers, e)
            y_hat = head_saved[-1][1].reshape(e.shape[:-1])
            terms, saved = combined_loss_forward(
                ys[k], y_hat, e, None if targets is None else targets.batch(k), loss
            )
            runs.add(epoch, k, *terms)
            g_pred, g_e = combined_loss_backward(g_loss, loss, *saved)
            g = mlp_backward(head_layers, head_saved, g_pred.reshape(e.shape[:-1] + (1,)), need_x=True)
            if g_e is not None:  # the similarity's share, added to the head's
                g += g_e
            mlp_backward(enc_layers, enc_saved, g)
            adam_step(state, state.grad, lr, config.beta1, config.beta2, config.adam_eps)
        runs.end_epoch(epoch, lr, zip(_val_mse(encoder, reg, x_val, y_val)))
    return runs.results(PretrainResult)


# -- fine-tuning loop --------------------------------------------------------------


@dataclass
class FinetuneResult:
    """A fine-tuning run's last and best (highest validation macro-F1) checkpoints, the best epoch and the per-epoch history."""

    final: Checkpoint
    best: Checkpoint
    best_epoch: int
    history: list[dict]


def embed_pairs(encoder: EncoderParams, xp, xn) -> tuple[np.ndarray, np.ndarray]:
    """A pair batch's (u_prev, u_next) embeddings: ``encode`` of its prev and of its next scans, as arrays.

    Fine-tuning and ``pipeline.evaluate_checkpoint`` both embed pairs here, so
    every pair encode goes through this module's ``encode``, the binding
    perfbench traces as ``model.encode``.
    """
    return encode(encoder, xp), encode(encoder, xn)


def finetune(
    pretrained: Checkpoint,
    xp_train: np.ndarray,
    xn_train: np.ndarray,
    y_train: np.ndarray,
    xp_val: np.ndarray,
    xn_val: np.ndarray,
    y_val: np.ndarray,
    config: TrainConfig,
    cls_hidden: tuple[int, ...] = DEFAULT_CLS_HIDDEN,
) -> FinetuneResult:
    """Train the 3-way change classifier on top of a pre-trained encoder.

    With ``config.freeze_encoder`` the encoder weights are untouched and the
    pair embeddings are computed once up front. Model selection is by
    validation macro-F1. A training or validation label outside the classes
    raises ``DomainError`` (``cross_entropy``'s message) before the first step.
    """
    (result,) = finetune_runs(
        [pretrained], xp_train, xn_train, y_train, xp_val, xn_val, y_val, config, cls_hidden
    )
    return result


def finetune_runs(
    pretrained: list[Checkpoint],
    xp_train: np.ndarray,
    xn_train: np.ndarray,
    y_train: np.ndarray,
    xp_val: np.ndarray,
    xn_val: np.ndarray,
    y_val: np.ndarray,
    config: TrainConfig,
    cls_hidden: tuple[int, ...] = DEFAULT_CLS_HIDDEN,
    seeds: Sequence[int] | None = None,
) -> list[FinetuneResult]:
    """Fine-tune one classifier per pre-trained encoder, all runs in lock-step.

    Run k starts from ``pretrained[k]`` with seed ``seeds[k]`` (default
    ``config.seed`` for every run), which fixes its head's initial weights
    and its batch order; the rest of ``config`` is shared. Each pair array is
    shared by every run or holds one per run along a leading axis: (S, N, F)
    features, (S, N) labels. The labels are checked and turned into one-hot
    masks once, and a frozen encoder's pair embeddings concatenated once;
    each epoch then gathers its rows of them with one ``take`` per array. A
    non-finite loss in any run raises ``TrainingAbort`` for all of them,
    naming the run when S > 1.
    """
    if not pretrained:
        raise ConfigError("finetune: need at least one pre-trained checkpoint")
    n_runs = len(pretrained)
    seeds = [config.seed] * n_runs if seeds is None else [int(s) for s in seeds]
    if len(seeds) != n_runs:
        raise ConfigError(f"finetune: {len(seeds)} seeds for {n_runs} runs")
    xp_train, xn_train, xp_val, xn_val = (
        _per_run(a, n_runs, 2, "finetune") for a in (xp_train, xn_train, xp_val, xn_val)
    )
    y_train, y_val = (_per_run(a, n_runs, 1, "finetune") for a in (y_train, y_val))
    for xp, xn, y in ((xp_train, xn_train, y_train), (xp_val, xn_val, y_val)):
        if not (xp.shape[-2] == xn.shape[-2] == y.shape[-1]):
            raise ShapeError("finetune: prev/next/label lengths differ")
    n = y_train.shape[-1]
    if n == 0:
        raise ConfigError("finetune: no training pairs")

    encoders = [encoder_from_checkpoint(ck) for ck in pretrained]
    encoder = encoders[0]
    for other in encoders[1:]:
        if (other.widths, other.activation) != (encoder.widths, encoder.activation):
            raise ShapeError(
                f"finetune: runs need one encoder shape, got {encoder.widths} {encoder.activation} "
                f"and {other.widths} {other.activation}"
            )
    for x in (xp_train, xn_train, xp_val, xn_val):
        if x.shape[-1] != encoder.widths[0]:
            raise ShapeError(f"finetune: pair feature width {x.shape[-1]} != encoder input width {encoder.widths[0]}")
    heads = {
        s: init_classifier_head(encoder.embedding_dim, _sub_seed(s, _STREAM_CLS_HEAD), cls_hidden)
        for s in dict.fromkeys(seeds)
    }
    cls = heads[seeds[0]]  # the stack's kind and widths

    frozen = config.freeze_encoder
    model = {
        "widths": encoder.widths,
        "activation": encoder.activation,
        "cls_widths": cls.widths,
        "cls_activation": cls.activation,
    }
    extras = [
        {"pretrain_train": meta_value(ck.meta, "train"), "data": meta_value(ck.meta, "data")} for ck in pretrained
    ]
    nets = {"encoder": encoders, "cls": [heads[s] for s in seeds]}
    runs = _Runs("finetune", config, seeds, nets, ("cls",) if frozen else ("encoder", "cls"), model, extras)
    state = runs.state
    onehot_rows = onehot_labels(_flat_rows(y_train), cls.widths[-1])
    onehot_labels(y_val, cls.widths[-1])  # the validation labels, checked before the first step too
    lead = _lead(n_runs)
    (cls, head_layers), (encoder, enc_layers) = runs.network("cls", lead), runs.network("encoder", lead)
    xp_val, xn_val = _step_view(xp_val, lead), _step_view(xn_val, lead)
    dim = encoder.embedding_dim
    g_loss = np.ones(lead)  # the seed backward gives a root
    val_pairs = None  # a frozen encoder's validation embeddings, kept for every epoch
    if frozen:
        train_pairs = embed_pairs(encoder, _step_view(xp_train, lead), _step_view(xn_train, lead))
        pair_rows = np.concatenate(train_pairs, axis=-1).reshape(-1, 2 * dim)
        val_pairs = embed_pairs(encoder, xp_val, xn_val)
    else:
        xp_rows, xn_rows = _flat_rows(xp_train), _flat_rows(xn_train)
        x_epoch = np.empty((2, *lead, n, xp_train.shape[-1]))  # each epoch's prev and next rows, stacked

    def val_metrics() -> list[tuple[float, float]]:
        if y_val.shape[-1] == 0:
            return [(float("nan"), float("nan"))] * n_runs
        logits = classify_pairs(cls, *(val_pairs or embed_pairs(encoder, xp_val, xn_val)))
        out = []
        for run_logits, labels in zip(logits.reshape(y_val.shape + logits.shape[-1:]), y_val):
            report = compute_metrics(predict_classes(run_logits), labels)
            out.append((report.accuracy, report.macro_f1))
        return out

    batches = [  # each step's rows of the epoch's arrays; the last batch may be short
        (Ellipsis, slice(start, start + config.batch_size), slice(None)) for start in range(0, n, config.batch_size)
    ]
    for epoch in range(config.epochs):
        lr = cosine_lr(epoch, config)
        # the epoch's rows, gathered once; each step reads its batch as a view
        orders = _epoch_rows(seeds, epoch, n, lead)
        onehot = onehot_rows.take(orders, axis=0)
        if frozen:
            rows = pair_rows.take(orders, axis=0)
        else:
            xp_rows.take(orders, axis=0, out=x_epoch[0])
            xn_rows.take(orders, axis=0, out=x_epoch[1])
        for k, batch in enumerate(batches):
            if frozen:
                head_saved = mlp_forward(head_layers, rows[batch])
            else:  # the shared encoder runs once over the batch's prev and next scans
                enc_saved = mlp_forward(enc_layers, x_epoch[batch])
                u = enc_saved[-1][1]
                head_saved = mlp_forward(head_layers, np.concatenate([u[0], u[1]], axis=-1))
            onehot_batch = onehot[batch]
            ce, ce_saved = softmax_cross_entropy_forward(head_saved[-1][1], onehot_batch, PROB_FLOOR)
            runs.add(epoch, k, ce)
            g = softmax_cross_entropy_backward(g_loss, onehot_batch, PROB_FLOOR, *ce_saved)
            g = mlp_backward(head_layers, head_saved, g, need_x=not frozen)
            if not frozen:  # each encoder parameter's two shares, prev and next, added once
                mlp_backward(enc_layers, enc_saved, np.stack([g[..., :dim], g[..., dim:]]))
            adam_step(state, state.grad, lr, config.beta1, config.beta2, config.adam_eps)
        runs.end_epoch(epoch, lr, val_metrics())
    return runs.results(FinetuneResult)

"""Optimization: Adam, cosine-annealed learning rate, training loops, checkpoints.

Pre-training runs the regression-plus-contrastive objective over seeded
shuffled batches (last partial batch dropped, since mining needs a fixed
batch size); fine-tuning trains the 3-way pair classifier on top of a loaded
encoder, optionally frozen. Each loop can train several independent runs,
each with its own seed and data, in lock-step along a leading run axis. Both
loops are single-threaded and bit-for-bit deterministic given the same
config and seed.

Checkpoints are a little-endian binary format: magic ``GCCK``, u32 version,
length-prefixed JSON metadata, then name-sorted tensors (u32 name length,
name, u32 rank, u32 dims, float64 payload) and a trailing CRC32.
"""

from __future__ import annotations

import json
import math
import struct
import zlib
from dataclasses import asdict, dataclass, field, replace
from typing import Sequence

import numpy as np

from .errors import (
    CheckpointIntegrityError,
    CheckpointVersionError,
    ConfigError,
    ShapeError,
    TrainingAbort,
)
from .losses import (
    PROB_FLOOR,
    LossConfig,
    combined_loss_terms,
    contrast_targets,
    cross_entropy,
    loss_gradients,
    mine_batch,
    onehot_labels,
)
from .metrics import compute_metrics
from .model import (
    CLS_ACTIVATION,
    DEFAULT_ACTIVATION,
    DEFAULT_CLS_HIDDEN,
    DEFAULT_HIDDEN,
    ClassifierHead,
    EncoderParams,
    RegressionHead,
    classify_pair_rows,
    classify_pairs,
    encode,
    init_classifier_head,
    init_encoder,
    init_regression_head,
    predict_classes,
    predict_hs,
)
from .tensor import (
    Tensor,
    backward,
    dense_backward,
    dense_forward,
    softmax_cross_entropy_backward,
    softmax_cross_entropy_forward,
)

# perfbench/tracing.py wraps functions at this module's bindings, so each name
# its BINDINGS resolves here must stay bound: ``combined_loss_terms``,
# ``adam_step``, ``save_checkpoint``, ``load_checkpoint``, ``compute_metrics``
# and ``encode``, ``predict_hs`` and ``classify_pairs``, which only the
# validation and a frozen encoder's pair rows call; and ``loss_gradients``,
# ``mine_batch`` and ``cross_entropy``, which nothing here calls any more: a
# step runs its layers tape-free (see ``_forward``), each epoch is mined at
# once (``contrast_targets``) and the fine-tuning labels are checked once
# (``onehot_labels``).

CHECKPOINT_MAGIC = b"GCCK"
CHECKPOINT_VERSION = 1

# seed-stream tags so the different random uses never collide
_STREAM_ENCODER, _STREAM_REG_HEAD, _STREAM_CLS_HEAD, _STREAM_SHUFFLE = 0, 1, 2, 3

TRACE_KEYS = ("epoch", "lr", "loss", "mse", "contrast", "val_mse")
HISTORY_KEYS = ("epoch", "lr", "train_ce", "val_accuracy", "val_macro_f1")


@dataclass
class TrainConfig:
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
        if not self.lr > 0:
            raise ConfigError(f"lr must be positive, got {self.lr}")
        if self.epochs < 1:
            raise ConfigError(f"epochs must be >= 1, got {self.epochs}")


@dataclass
class AdamState:
    """Adam over one flat float64 buffer that holds every trained parameter.

    ``for_params`` copies the tensors into ``flat`` and rebinds each
    ``p.data`` to its reshaped view of it, so one whole-buffer update moves
    them all. ``grad``, ``m`` and ``v`` are laid out like ``flat``; ``grads``
    are the per-parameter views of ``grad`` that backward accumulates into,
    and ``scratch`` holds two buffers ``adam_step`` computes in.
    """

    params: list[Tensor]
    flat: np.ndarray
    grad: np.ndarray
    m: np.ndarray
    v: np.ndarray
    step: int = 0
    grads: list[np.ndarray] = field(init=False, repr=False)
    scratch: tuple[np.ndarray, np.ndarray] = field(init=False, repr=False)

    def __post_init__(self) -> None:
        self.grads = self.views(self.grad)
        self.scratch = (np.empty_like(self.flat), np.empty_like(self.flat))

    @classmethod
    def for_params(cls, params: list[Tensor]) -> "AdamState":
        flat = np.concatenate([p.data.reshape(-1) for p in params]) if params else np.zeros(0)
        state = cls(params, flat, np.zeros_like(flat), np.zeros_like(flat), np.zeros_like(flat))
        for p, view in zip(params, state.views(flat)):
            p.data = view
        return state

    def views(self, buffer: np.ndarray) -> list[np.ndarray]:
        """Per-parameter views of a buffer laid out like ``flat``."""
        out, offset = [], 0
        for p in self.params:
            size = p.data.size
            out.append(buffer[offset : offset + size].reshape(p.data.shape))
            offset += size
        return out


def adam_step(
    state: AdamState,
    grad: np.ndarray,
    lr: float,
    beta1: float = 0.9,
    beta2: float = 0.999,
    eps: float = 1e-8,
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


# -- checkpoints ---------------------------------------------------------------


@dataclass
class Checkpoint:
    tensors: dict[str, np.ndarray]
    meta: dict
    version: int = CHECKPOINT_VERSION


def checkpoint_bytes(ck: Checkpoint) -> bytes:
    buf = bytearray()
    buf += CHECKPOINT_MAGIC
    buf += struct.pack("<I", ck.version)
    meta = json.dumps(ck.meta, sort_keys=True, separators=(",", ":")).encode("utf-8")
    buf += struct.pack("<I", len(meta))
    buf += meta
    names = sorted(ck.tensors)
    buf += struct.pack("<I", len(names))
    for name in names:
        raw = name.encode("utf-8")
        arr = np.ascontiguousarray(ck.tensors[name], dtype="<f8")
        buf += struct.pack("<I", len(raw))
        buf += raw
        buf += struct.pack("<I", arr.ndim)
        buf += struct.pack(f"<{arr.ndim}I", *arr.shape)
        buf += arr.tobytes()
    buf += struct.pack("<I", zlib.crc32(bytes(buf)) & 0xFFFFFFFF)
    return bytes(buf)


def save_checkpoint(ck: Checkpoint, path) -> None:
    with open(path, "wb") as fh:
        fh.write(checkpoint_bytes(ck))


def load_checkpoint(path) -> Checkpoint:
    with open(path, "rb") as fh:
        blob = fh.read()
    if len(blob) < 16:
        raise CheckpointIntegrityError(f"{path}: truncated checkpoint ({len(blob)} bytes)")
    if blob[:4] != CHECKPOINT_MAGIC:
        raise CheckpointIntegrityError(f"{path}: bad magic, not a checkpoint file")
    (version,) = struct.unpack_from("<I", blob, 4)
    if version != CHECKPOINT_VERSION:
        raise CheckpointVersionError(
            f"{path}: checkpoint version {version}, this build reads version {CHECKPOINT_VERSION}"
        )
    body = blob[:-4]
    (crc,) = struct.unpack_from("<I", blob, len(blob) - 4)
    if zlib.crc32(body) & 0xFFFFFFFF != crc:
        raise CheckpointIntegrityError(f"{path}: checksum mismatch")

    offset = 8

    def take(n: int) -> bytes:
        nonlocal offset
        if offset + n > len(body):
            raise CheckpointIntegrityError(f"{path}: truncated checkpoint body")
        piece = body[offset : offset + n]
        offset += n
        return piece

    (meta_len,) = struct.unpack("<I", take(4))
    try:
        meta = json.loads(take(meta_len).decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise CheckpointIntegrityError(f"{path}: corrupt metadata block: {exc}") from None
    (count,) = struct.unpack("<I", take(4))
    tensors: dict[str, np.ndarray] = {}
    for _ in range(count):
        (name_len,) = struct.unpack("<I", take(4))
        name = take(name_len).decode("utf-8")
        (rank,) = struct.unpack("<I", take(4))
        dims = struct.unpack(f"<{rank}I", take(4 * rank))
        size = int(np.prod(dims, dtype=np.int64)) if rank else 1
        data = np.frombuffer(take(8 * size), dtype="<f8").reshape(dims)
        tensors[name] = np.array(data, dtype=np.float64)
    if offset != len(body):
        raise CheckpointIntegrityError(f"{path}: trailing data after tensor block")
    return Checkpoint(tensors, meta, version)


# -- parameter <-> checkpoint plumbing -------------------------------------------


def _encoder_entries(encoder: EncoderParams) -> dict[str, np.ndarray]:
    out = {}
    for i, (w, b) in enumerate(zip(encoder.weights, encoder.biases)):
        out[f"encoder.w{i}"] = w.data.copy()
        out[f"encoder.b{i}"] = b.data.copy()
    return out


def encoder_from_checkpoint(ck: Checkpoint) -> EncoderParams:
    """The checkpoint's encoder; its tensors take no gradient until a trainer marks them."""
    model = ck.meta.get("model")
    if not model:
        raise CheckpointIntegrityError("checkpoint has no model metadata")
    widths = [int(w) for w in model["widths"]]
    n_layers = len(widths) - 1
    weights, biases = [], []
    for i in range(n_layers):
        try:
            w = ck.tensors[f"encoder.w{i}"]
            b = ck.tensors[f"encoder.b{i}"]
        except KeyError as exc:
            raise CheckpointIntegrityError(f"checkpoint missing tensor {exc}") from None
        if w.shape != (widths[i], widths[i + 1]):
            raise ShapeError(
                f"checkpoint encoder.w{i} has shape {w.shape}, expected {(widths[i], widths[i + 1])}"
            )
        weights.append(Tensor(w.copy()))
        biases.append(Tensor(b.copy()))
    # older version-1 checkpoints also carry a "pooling" key from a sequence
    # path that 2-D input never reached; it is ignored
    return EncoderParams(widths, model["activation"], weights, biases)


def classifier_from_checkpoint(ck: Checkpoint) -> ClassifierHead:
    """The checkpoint's classifier head; its tensors take no gradient."""
    model = ck.meta.get("model", {})
    widths = model.get("cls_widths")
    if not widths:
        raise CheckpointIntegrityError("checkpoint has no classifier metadata")
    widths = [int(w) for w in widths]
    weights, biases = [], []
    for i in range(len(widths) - 1):
        try:
            w = ck.tensors[f"cls.w{i}"]
            b = ck.tensors[f"cls.b{i}"]
        except KeyError as exc:
            raise CheckpointIntegrityError(f"checkpoint missing tensor {exc}") from None
        weights.append(Tensor(w.copy()))
        biases.append(Tensor(b.copy()))
    return ClassifierHead(widths, model.get("cls_activation", CLS_ACTIVATION), weights, biases)


def _named_params(
    encoder: EncoderParams | None,
    reg: RegressionHead | None = None,
    cls: ClassifierHead | None = None,
) -> list[tuple[str, Tensor]]:
    named: list[tuple[str, Tensor]] = []
    if encoder is not None:
        for i, (w, b) in enumerate(zip(encoder.weights, encoder.biases)):
            named.append((f"encoder.w{i}", w))
            named.append((f"encoder.b{i}", b))
    if reg is not None:
        named.append(("reg.w", reg.weight))
        named.append(("reg.b", reg.bias))
    if cls is not None:
        for i, (w, b) in enumerate(zip(cls.weights, cls.biases)):
            named.append((f"cls.w{i}", w))
            named.append((f"cls.b{i}", b))
    return named


def _snapshot(
    all_named: list[tuple[str, Tensor]],
    trained_named: list[tuple[str, Tensor]],
    state: AdamState,
    meta: dict,
    run: int | None = None,
) -> Checkpoint:
    """Checkpoint of the parameters and Adam moments; ``run`` picks one run of a stack."""
    pick = (lambda a: a) if run is None else (lambda a: a[run])
    tensors = {name: pick(t.data).copy() for name, t in all_named}
    for (name, _), m, v in zip(trained_named, state.views(state.m), state.views(state.v)):
        tensors[f"adam.m.{name}"] = pick(m).copy()
        tensors[f"adam.v.{name}"] = pick(v).copy()
    return Checkpoint(tensors, meta)


def _sub_seed(seed: int, *stream: int) -> int:
    return int(np.random.SeedSequence([seed, *stream]).generate_state(1)[0])


def _epoch_order(seed: int, epoch: int, n: int) -> np.ndarray:
    rng = np.random.default_rng(np.random.SeedSequence([seed, _STREAM_SHUFFLE, epoch]))
    return rng.permutation(n)


# -- lock-step runs ---------------------------------------------------------------
#
# Both loops train S independent runs at once. Every parameter is stacked
# along a leading run axis, one flat AdamState holds the S x N trained
# elements, and one step trains all runs, each on its own (S,) loss entry.
# Stacked matmuls, row reductions and elementwise ops give each run's slice
# the same bits as the run's own 2-D call, so each run's trace, history and
# checkpoints are bit-identical to training it alone. One run carries no run
# axis at all.
#
# A step builds no graph for its MLP layers. ``_forward`` runs them through
# ``tensor.dense_forward`` and keeps each layer's arrays; ``_backward`` sends
# the output gradient back through ``tensor.dense_backward`` and writes each
# parameter's gradient straight into its view of ``AdamState.grad``. Those
# are the functions the ``dense`` node calls, so values and gradients are
# those of the graph, bit for bit. Every view is written every step, so the
# buffer is never zero-filled. Pre-training still walks the small loss graph
# of ``combined_loss_terms``, from two leaves, the embeddings and the
# predictions; fine-tuning calls the cross-entropy's forward and backward
# functions directly. Where a gradient has two shares (the embeddings, from
# the head and from the similarity; an unfrozen encoder's parameters, from
# the prev and the next pass) they are added once, and a sum of two does not
# depend on order.


def _per_run(a, n_runs: int, ndim: int, what: str) -> np.ndarray:
    """``a`` with one slice per run along a leading axis, or unstacked for one run.

    ``a`` is either shared by every run (``ndim`` dimensions) or already holds
    one array per run (``ndim + 1``); a shared array is broadcast, not copied.
    """
    a = np.asarray(a)
    if a.ndim == ndim + 1:
        if a.shape[0] != n_runs:
            raise ShapeError(f"{what}: {a.shape[0]} per-run arrays for {n_runs} runs")
        return a if n_runs > 1 else a[0]
    if a.ndim != ndim:
        raise ShapeError(
            f"{what}: expected a {ndim}-D array shared by the runs or a {ndim + 1}-D one per run, "
            f"got shape {a.shape}"
        )
    return np.broadcast_to(a, (n_runs, *a.shape)) if n_runs > 1 else a


def _epoch_rows(seeds: list[int], epoch: int, n: int) -> np.ndarray:
    """Each run's batch order for ``epoch``, as rows of its arrays in ``_flat_rows`` form.

    One run gets its (n,) order. S runs get an (S, n) stack, run k's order
    offset by k * n, so a slice of it gathers every run's batch with one
    ``take``.
    """
    if len(seeds) == 1:
        return _epoch_order(seeds[0], epoch, n)
    by_seed = {s: _epoch_order(s, epoch, n) for s in dict.fromkeys(seeds)}
    return np.stack([by_seed[s] for s in seeds]) + np.arange(len(seeds))[:, None] * n


def _flat_rows(a: np.ndarray, n_runs: int) -> np.ndarray:
    """A per-run (S, N, ...) array as (S * N, ...) rows, run by run; one run's array as is."""
    return a.reshape(-1, *a.shape[2:]) if n_runs > 1 else a


def _full_batches(rows: np.ndarray, batch_size: int) -> np.ndarray:
    """``_epoch_rows`` cut into the epoch's full batches, (n_batches, [S,] B); the rest is dropped.

    Gathering an array's rows with it lays each step's batch out contiguously
    at one index of the leading axis, as a per-step ``take`` would.
    """
    n_batches = rows.shape[-1] // batch_size
    batches = rows[..., : n_batches * batch_size].reshape(*rows.shape[:-1], n_batches, batch_size)
    return np.moveaxis(batches, -2, 0)


def _stack(parts: list[Tensor]) -> Tensor:
    return Tensor(np.stack([p.data for p in parts]), requires_grad=parts[0].requires_grad)


def _stack_layers(runs: list) -> tuple[list[Tensor], list[Tensor]]:
    """The per-layer weights and biases of ``runs`` (encoders or heads), stacked along the run axis."""
    return (
        [_stack(list(ws)) for ws in zip(*(r.weights for r in runs))],
        [_stack(list(bs)) for bs in zip(*(r.biases for r in runs))],
    )


def _layers(weights: list[Tensor], biases: list[Tensor], activations: list[str | None]) -> list[tuple]:
    """(weight, bias, activation) per layer; built after ``AdamState.for_params``, they see its updates."""
    return [(w.data, b.data, act) for w, b, act in zip(weights, biases, activations)]


def _forward(layers: list[tuple], x: np.ndarray) -> list[tuple[np.ndarray, np.ndarray, np.ndarray]]:
    """Each layer's (input, output, pre-activation) for ``x`` run through ``layers``."""
    saved = []
    for w, b, activation in layers:
        y, z = dense_forward(x, w, b, activation)
        saved.append((x, y, z))
        x = y
    return saved


def _backward(
    layers: list[tuple], saved: list[tuple], g: np.ndarray, grads: list[np.ndarray],
    add: bool = False, need_x: bool = False,
) -> np.ndarray | None:
    """Send output gradient ``g`` back through ``layers``; the input's gradient if ``need_x``.

    Layer i's weight and bias gradients are written into ``grads[2i]`` and
    ``grads[2i + 1]``, or added into them with ``add``.
    """
    for i in reversed(range(len(layers))):
        w, _, activation = layers[i]
        x, y, z = saved[i]
        g, gw, gb = dense_backward(g, x, w, y, z, activation, need_x or i > 0)
        if add:
            grads[2 * i] += gw
            grads[2 * i + 1] += gb
        else:
            grads[2 * i][...] = gw
            grads[2 * i + 1][...] = gb
    return g


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
    final: Checkpoint
    best: Checkpoint
    best_epoch: int
    trace: list[dict]


def _val_mse(
    encoder: EncoderParams, reg: RegressionHead, x_val: np.ndarray, y_val: np.ndarray, n_runs: int
) -> list[float]:
    """Each run's validation MSE; NaN for an empty split."""
    if x_val.shape[-2] == 0:
        return [float("nan")] * n_runs
    pred = predict_hs(reg, encode(encoder, x_val)).data
    return [
        float(np.mean((p - y) ** 2))
        for p, y in zip(pred.reshape(n_runs, -1), np.reshape(y_val, (n_runs, -1)))
    ]


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
    stacked = n_runs > 1
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

    widths = [int(x_train.shape[-1]), *hidden]
    encoders = [init_encoder(widths, _sub_seed(s, _STREAM_ENCODER), activation) for s in seeds]
    regs = [init_regression_head(widths[-1], _sub_seed(s, _STREAM_REG_HEAD)) for s in seeds]
    encoder, reg = encoders[0], regs[0]
    if stacked:
        encoder = EncoderParams(widths, activation, *_stack_layers(encoders))
        reg = RegressionHead(_stack([r.weight for r in regs]), _stack([r.bias for r in regs]))

    named = _named_params(encoder, reg)
    params = [t for _, t in named]
    state = AdamState.for_params(params)
    needs_mining = config.loss.contrastive and config.loss.alpha > 0.0
    train_meta = [asdict(replace(config, seed=s)) for s in seeds]
    x_rows, y_rows = _flat_rows(x_train, n_runs), _flat_rows(y_train, n_runs)
    enc_layers = _layers(encoder.weights, encoder.biases, [activation] * len(encoder.weights))
    head_layers = _layers([reg.weight], [reg.bias], [None])
    enc_grads, head_grads = state.grads[: 2 * len(enc_layers)], state.grads[2 * len(enc_layers) :]

    def snapshot(epoch: int, s: int) -> Checkpoint:
        meta = {
            "stage": "pretrain",
            "epoch": epoch,
            "adam_step": state.step,
            "model": {"widths": widths, "activation": activation},
            "train": train_meta[s],
            "data": data_metas[s] or {},
        }
        return _snapshot(named, named, state, meta, s if stacked else None)

    traces: list[list[dict]] = [[] for _ in range(n_runs)]
    best: list[Checkpoint | None] = [None] * n_runs
    best_epoch = [-1] * n_runs
    best_val = [math.inf] * n_runs

    n_batches = n // config.batch_size
    for epoch in range(config.epochs):
        lr = cosine_lr(epoch, config)
        batches = _full_batches(_epoch_rows(seeds, epoch, n), config.batch_size)
        xs, ys = x_rows.take(batches, axis=0), y_rows.take(batches, axis=0)
        targets = contrast_targets(ys, config.loss) if needs_mining else None
        sums = [{"loss": 0.0, "mse": 0.0, "contrast": 0.0} for _ in range(n_runs)]
        for k in range(n_batches):
            yb = ys[k]
            enc_saved = _forward(enc_layers, xs[k])
            e = enc_saved[-1][1]
            head_saved = _forward(head_layers, e)
            embeddings = Tensor(e, requires_grad=True)
            y_hat = Tensor(head_saved[-1][1].reshape(e.shape[:-1]), requires_grad=True)
            total, mse_term, con_term = combined_loss_terms(
                yb, y_hat, embeddings, targets.batch(k) if needs_mining else None, yb, config.loss
            )
            terms = zip(
                total.data.reshape(-1).tolist(),
                mse_term.data.reshape(-1).tolist(),
                con_term.data.reshape(-1).tolist() if con_term is not None else [0.0] * n_runs,
            )
            for s, (loss_val, mse_val, con_val) in enumerate(terms):
                if not math.isfinite(loss_val):
                    where = f" run {s}" if stacked else ""
                    raise TrainingAbort(
                        f"pretrain{where}: non-finite loss at epoch {epoch} batch {k}: "
                        f"loss={loss_val} mse={mse_val} contrast={con_val}"
                    )
                run_sums = sums[s]
                run_sums["loss"] += loss_val
                run_sums["mse"] += mse_val
                run_sums["contrast"] += con_val
            backward(total)
            g_pred = y_hat.grad.reshape(e.shape[:-1] + (1,))
            g = _backward(head_layers, head_saved, g_pred, head_grads, need_x=True)
            if embeddings.grad is not None:  # the similarity's share, added to the head's
                g += embeddings.grad
            _backward(enc_layers, enc_saved, g, enc_grads)
            adam_step(state, state.grad, lr, config.beta1, config.beta2, config.adam_eps)

        for s, val_mse in enumerate(_val_mse(encoder, reg, x_val, y_val, n_runs)):
            traces[s].append(
                {
                    "epoch": epoch,
                    "lr": lr,
                    "loss": sums[s]["loss"] / n_batches,
                    "mse": sums[s]["mse"] / n_batches,
                    "contrast": sums[s]["contrast"] / n_batches,
                    "val_mse": val_mse,
                }
            )
            if val_mse < best_val[s]:
                best_val[s] = val_mse
                best_epoch[s] = epoch
                best[s] = snapshot(epoch, s)

    results = []
    for s, trace in enumerate(traces):
        last = trace[-1]
        trace.append(
            {
                "epoch": config.epochs,
                "lr": cosine_lr(config.epochs, config),
                "loss": last["loss"],
                "mse": last["mse"],
                "contrast": last["contrast"],
                "val_mse": last["val_mse"],
            }
        )
        final = snapshot(config.epochs - 1, s)
        if best[s] is None:  # no finite validation MSE ever observed
            best[s], best_epoch[s] = final, config.epochs - 1
        results.append(PretrainResult(final=final, best=best[s], best_epoch=best_epoch[s], trace=trace))
    return results


# -- fine-tuning loop --------------------------------------------------------------


@dataclass
class FinetuneResult:
    final: Checkpoint
    best: Checkpoint
    best_epoch: int
    history: list[dict]


def _pair_logits(
    encoder: EncoderParams, cls: ClassifierHead, xp: np.ndarray, xn: np.ndarray
) -> np.ndarray:
    return classify_pairs(cls, encode(encoder, xp).data, encode(encoder, xn).data).data


def _pair_rows(encoder: EncoderParams, xp: np.ndarray, xn: np.ndarray) -> np.ndarray:
    """Each pair's embeddings concatenated into one [u_prev ; u_next] row."""
    return np.concatenate([encode(encoder, xp).data, encode(encoder, xn).data], axis=-1)


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
    validation macro-F1. A training label outside the classes raises
    ``DomainError`` (``cross_entropy``'s message) before the first step.
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
    n = np.shape(y_train)[-1]
    if not (np.shape(xp_train)[-2] == np.shape(xn_train)[-2] == n):
        raise ShapeError("finetune: prev/next/label lengths differ")
    if n == 0:
        raise ConfigError("finetune: no training pairs")
    if not pretrained:
        raise ConfigError("finetune: need at least one pre-trained checkpoint")
    n_runs = len(pretrained)
    seeds = [config.seed] * n_runs if seeds is None else [int(s) for s in seeds]
    if len(seeds) != n_runs:
        raise ConfigError(f"finetune: {len(seeds)} seeds for {n_runs} runs")
    stacked = n_runs > 1
    xp_train, xn_train, xp_val, xn_val = (
        _per_run(a, n_runs, 2, "finetune") for a in (xp_train, xn_train, xp_val, xn_val)
    )
    y_train, y_val = (_per_run(a, n_runs, 1, "finetune") for a in (y_train, y_val))

    encoders = [encoder_from_checkpoint(ck) for ck in pretrained]
    encoder = encoders[0]
    for other in encoders[1:]:
        if (other.widths, other.activation) != (encoder.widths, encoder.activation):
            raise ShapeError(
                f"finetune: runs need one encoder shape, got {encoder.widths} {encoder.activation} "
                f"and {other.widths} {other.activation}"
            )
    if xp_train.shape[-1] != encoder.widths[0]:
        raise ShapeError(
            f"finetune: pair feature width {xp_train.shape[-1]} != encoder input width {encoder.widths[0]}"
        )
    heads = {
        s: init_classifier_head(encoder.embedding_dim, _sub_seed(s, _STREAM_CLS_HEAD), cls_hidden)
        for s in dict.fromkeys(seeds)
    }
    cls = heads[seeds[0]]
    if stacked:
        encoder = EncoderParams(encoder.widths, encoder.activation, *_stack_layers(encoders))
        cls = ClassifierHead(cls.widths, cls.activation, *_stack_layers([heads[s] for s in seeds]))

    frozen = config.freeze_encoder
    named_trained = _named_params(None, cls=cls) if frozen else _named_params(encoder, cls=cls)
    named_all = _named_params(encoder, cls=cls)
    params = [t for _, t in named_trained]
    state = AdamState.for_params(params)
    train_meta = [asdict(replace(config, seed=s)) for s in seeds]
    onehot_rows = onehot_labels(_flat_rows(y_train, n_runs), cls.widths[-1])
    n_head = len(cls.weights)
    head_layers = _layers(cls.weights, cls.biases, [cls.activation] * (n_head - 1) + [None])
    enc_layers = _layers(encoder.weights, encoder.biases, [encoder.activation] * len(encoder.weights))
    enc_grads, head_grads = state.grads[: -2 * n_head], state.grads[-2 * n_head :]
    dim = encoder.embedding_dim
    g_loss = np.ones((n_runs,) if stacked else ())  # the seed backward gives a root
    if frozen:
        pair_rows = _flat_rows(_pair_rows(encoder, xp_train, xn_train), n_runs)
        val_rows = _pair_rows(encoder, xp_val, xn_val)
    else:
        xp_rows, xn_rows = _flat_rows(xp_train, n_runs), _flat_rows(xn_train, n_runs)

    def val_metrics() -> list[tuple[float, float]]:
        if y_val.shape[-1] == 0:
            return [(float("nan"), float("nan"))] * n_runs
        if frozen:
            logits = classify_pair_rows(cls, val_rows).data
        else:
            logits = _pair_logits(encoder, cls, xp_val, xn_val)
        out = []
        for run_logits, labels in zip(
            logits.reshape(n_runs, -1, logits.shape[-1]), np.reshape(y_val, (n_runs, -1))
        ):
            report = compute_metrics(predict_classes(run_logits), labels)
            out.append((report.accuracy, report.macro_f1))
        return out

    def snapshot(epoch: int, s: int) -> Checkpoint:
        meta = {
            "stage": "finetune",
            "epoch": epoch,
            "adam_step": state.step,
            "model": {
                "widths": encoder.widths,
                "activation": encoder.activation,
                "cls_widths": cls.widths,
                "cls_activation": cls.activation,
            },
            "train": train_meta[s],
            "pretrain_train": pretrained[s].meta.get("train"),
            "data": pretrained[s].meta.get("data", {}),
        }
        return _snapshot(named_all, named_trained, state, meta, s if stacked else None)

    histories: list[list[dict]] = [[] for _ in range(n_runs)]
    best: list[Checkpoint | None] = [None] * n_runs
    best_epoch = [-1] * n_runs
    best_f1 = [-math.inf] * n_runs

    starts = range(0, n, config.batch_size)  # the last batch may be short
    n_batches = len(starts)
    for epoch in range(config.epochs):
        lr = cosine_lr(epoch, config)
        # the epoch's rows, gathered once; each step reads its batch as a view
        orders = _epoch_rows(seeds, epoch, n)
        onehot = onehot_rows.take(orders, axis=0)
        if frozen:
            rows = pair_rows.take(orders, axis=0)
        else:
            xp_epoch, xn_epoch = xp_rows.take(orders, axis=0), xn_rows.take(orders, axis=0)
        ce_sums = [0.0] * n_runs
        for k, start in enumerate(starts):
            batch = (Ellipsis, slice(start, start + config.batch_size), slice(None))
            if frozen:
                head_saved = _forward(head_layers, rows[batch])
            else:
                prev_saved = _forward(enc_layers, xp_epoch[batch])
                next_saved = _forward(enc_layers, xn_epoch[batch])
                head_saved = _forward(
                    head_layers, np.concatenate([prev_saved[-1][1], next_saved[-1][1]], axis=-1)
                )
            onehot_batch = onehot[batch]
            ce, ce_saved = softmax_cross_entropy_forward(head_saved[-1][1], onehot_batch, PROB_FLOOR)
            for s, ce_val in enumerate(ce.reshape(-1).tolist()):
                if not math.isfinite(ce_val):
                    where = f" run {s}" if stacked else ""
                    raise TrainingAbort(
                        f"finetune{where}: non-finite loss at epoch {epoch} batch {k}: ce={ce_val}"
                    )
                ce_sums[s] += ce_val
            g = softmax_cross_entropy_backward(g_loss, onehot_batch, PROB_FLOOR, *ce_saved)
            g = _backward(head_layers, head_saved, g, head_grads, need_x=not frozen)
            if not frozen:  # each encoder parameter's two shares, prev and next, in either order
                _backward(enc_layers, prev_saved, g[..., :dim], enc_grads)
                _backward(enc_layers, next_saved, g[..., dim:], enc_grads, add=True)
            adam_step(state, state.grad, lr, config.beta1, config.beta2, config.adam_eps)

        for s, (accuracy, macro_f1) in enumerate(val_metrics()):
            histories[s].append(
                {
                    "epoch": epoch,
                    "lr": lr,
                    "train_ce": ce_sums[s] / n_batches,
                    "val_accuracy": accuracy,
                    "val_macro_f1": macro_f1,
                }
            )
            if macro_f1 > best_f1[s]:
                best_f1[s] = macro_f1
                best_epoch[s] = epoch
                best[s] = snapshot(epoch, s)

    results = []
    for s, history in enumerate(histories):
        history.append(
            {
                "epoch": config.epochs,
                "lr": cosine_lr(config.epochs, config),
                "train_ce": history[-1]["train_ce"],
                "val_accuracy": history[-1]["val_accuracy"],
                "val_macro_f1": history[-1]["val_macro_f1"],
            }
        )
        final = snapshot(config.epochs - 1, s)
        if best[s] is None:  # no finite validation macro-F1 ever observed
            best[s], best_epoch[s] = final, config.epochs - 1
        results.append(FinetuneResult(final, best[s], best_epoch[s], history))
    return results

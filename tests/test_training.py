import math
import struct
import zlib
from dataclasses import replace

import numpy as np
import pytest

from hscl import losses, model, training
from hscl.data import SyntheticSpec, generate_synthetic
from hscl.errors import (
    CheckpointIntegrityError,
    CheckpointVersionError,
    ConfigError,
    DomainError,
    ShapeError,
    TrainingAbort,
)
from hscl.losses import LossConfig
from hscl.metrics import compute_metrics
from hscl.model import (
    DEFAULT_ACTIVATION,
    DEFAULT_CLS_HIDDEN,
    classify_pairs,
    encode,
    init_classifier_head,
    init_encoder,
    predict_classes,
)
from hscl.pipeline import DataConfig, ModelSpec, evaluate_checkpoint, prepare, run_finetune, run_pretrain
from hscl.tensor import Tensor, dense_forward
from hscl.training import (
    AdamState,
    Checkpoint,
    TrainConfig,
    adam_step,
    checkpoint_bytes,
    cosine_lr,
    encoder_from_checkpoint,
    finetune,
    finetune_runs,
    load_checkpoint,
    pretrain,
    pretrain_runs,
    save_checkpoint,
)

import oracles
from oracles import (
    adam_per_tensor_ref,
    adam_ref,
    dense_chain,
    finetune_runs_ref,
    pretrain_runs_ref,
    softmax_cross_entropy_chain,
    squared_error_sum_chain,
    weighted_log_sum_chain,
)


# -- Adam --------------------------------------------------------------------------


def _adam_state(values) -> AdamState:
    """An ``AdamState`` over one parameter holding ``values``, set through ``flat``."""
    values = np.asarray(values, dtype=np.float64)
    state = AdamState([values.shape])
    state.flat[...] = values.reshape(-1)
    return state


def test_adam_zero_gradient_keeps_parameters():
    state = _adam_state([1.0, -2.0])
    adam_step(state, np.zeros(2), lr=0.1)
    assert np.array_equal(state.flat, [1.0, -2.0])


def test_adam_matches_scalar_reference():
    rng = np.random.default_rng(0)
    values = rng.normal(size=4)
    grad_seq = [rng.normal(size=4) for _ in range(10)]

    state = _adam_state(values)
    for g in grad_seq:
        adam_step(state, g, lr=0.01)

    expected = adam_ref(values, grad_seq, lr=0.01)
    assert np.max(np.abs(state.flat - expected)) < 1e-12


def test_adam_first_step_direction():
    # with zero moments, step one moves each coordinate by ~lr * sign(g)
    state = _adam_state([0.0, 0.0])
    adam_step(state, np.array([0.5, -2.0]), lr=0.01)
    assert np.allclose(state.flat, [-0.01, 0.01], atol=1e-6)


def test_adam_lr_zero_is_identity():
    state = _adam_state([3.0])
    adam_step(state, np.array([1.0]), lr=0.0)
    assert state.flat[0] == 3.0


def test_adam_deterministic_trajectories():
    def run():
        rng = np.random.default_rng(5)
        state = _adam_state(rng.normal(size=3))
        for _ in range(5):
            adam_step(state, rng.normal(size=3), lr=0.05)
        return state.flat.copy()

    assert np.array_equal(run(), run())


MIXED_SHAPES = [(5, 4), (4,), (4, 3), (3,), (3, 1), (1,)]


def test_adam_flat_step_matches_per_tensor_loop_bitwise():
    rng = np.random.default_rng(8)
    values = [rng.normal(size=shape) for shape in MIXED_SHAPES]
    grad_seq = [[rng.normal(size=shape) for shape in MIXED_SHAPES] for _ in range(50)]

    state = AdamState(MIXED_SHAPES)
    for view, value in zip(state.views(state.flat), values):
        view[...] = value
    for grads in grad_seq:
        for view, g in zip(state.views(state.grad), grads):
            view[...] = g
        adam_step(state, state.grad, lr=0.01)

    expected, ms, vs = adam_per_tensor_ref(values, grad_seq, lr=0.01)
    for got, want in zip(state.views(state.flat), expected):
        assert np.array_equal(got, want)
    for got, want in zip(state.views(state.m), ms):
        assert np.array_equal(got, want)
    for got, want in zip(state.views(state.v), vs):
        assert np.array_equal(got, want)


def test_adam_state_packs_every_param_into_one_buffer():
    """Each buffer starts zero-filled, and its views tile it in order with the declared shapes."""
    state = AdamState(MIXED_SHAPES)
    size = sum(math.prod(shape) for shape in MIXED_SHAPES)
    buffers = (state.flat, state.grad, state.m, state.v)
    for k, buffer in enumerate(buffers):
        assert buffer.shape == (size,) and not buffer.any()
        buffer[:] = np.arange(size) + k * size
        views = state.views(buffer)
        assert [view.shape for view in views] == MIXED_SHAPES
        assert all(np.shares_memory(view, buffer) for view in views)
        assert np.array_equal(np.concatenate([view.reshape(-1) for view in views]), buffer)
    for k, buffer in enumerate(buffers):  # four buffers, none writing into another
        assert np.array_equal(buffer, np.arange(size) + k * size)


def test_adam_step_rejects_a_gradient_of_the_wrong_size():
    state = AdamState([(2, 2)])
    with pytest.raises(ShapeError, match="adam_step"):
        adam_step(state, np.zeros(3), lr=0.1)


# -- cosine schedule -------------------------------------------------------------------


def test_cosine_lr_endpoints_exact():
    cfg = TrainConfig()
    assert cosine_lr(0, cfg) == 0.001
    assert cosine_lr(100, cfg) == 0.0
    assert cosine_lr(50, cfg) == pytest.approx(0.0005, abs=1e-18)


def test_cosine_lr_beyond_t_max_clamps():
    cfg = TrainConfig(epochs=10, eta_min=1e-5)
    assert cosine_lr(11, cfg) == 1e-5
    assert cosine_lr(10, cfg) == 1e-5


def test_cosine_lr_rejects_negative_epoch():
    with pytest.raises(ConfigError):
        cosine_lr(-1, TrainConfig())


def test_train_config_validation():
    with pytest.raises(ConfigError):
        TrainConfig(batch_size=2)
    with pytest.raises(ConfigError):
        TrainConfig(lr=0.0)
    with pytest.raises(ConfigError):
        TrainConfig(epochs=0)
    for bad in ({"lr": math.inf}, {"lr": math.nan}, {"eta_min": -0.01}, {"eta_min": math.nan}, {"seed": -1}):
        with pytest.raises(ConfigError, match=next(iter(bad))):
            TrainConfig(**bad)
    with pytest.raises(ConfigError, match=r"eta_min must lie in \[0, lr\]"):
        TrainConfig(lr=0.01, eta_min=0.02)
    assert TrainConfig(lr=0.01, eta_min=0.01).eta_min == 0.01


@pytest.mark.parametrize(
    "bad",
    [
        # 1.0 divides 0 by 0 in adam_step's bias correction; outside [0, 1) no moment average is one
        {"beta1": 1.0}, {"beta2": 1.0}, {"beta1": -0.5}, {"beta2": 1.5}, {"beta1": math.nan},
        # nan poisons every update; 0 divides by zero where v is 0
        {"adam_eps": math.nan}, {"adam_eps": 0.0}, {"adam_eps": -1e-8}, {"adam_eps": math.inf},
    ],
)
def test_train_config_rejects_adam_settings_that_break_training(bad):
    with pytest.raises(ConfigError, match=next(iter(bad))):
        TrainConfig(**bad)


def test_train_config_takes_the_adam_range_ends():
    config = TrainConfig(beta1=0.0, beta2=0.0, adam_eps=5e-324)
    assert (config.beta1, config.beta2, config.adam_eps) == (0.0, 0.0, 5e-324)


# -- checkpoints -----------------------------------------------------------------------


def _toy_checkpoint():
    rng = np.random.default_rng(1)
    return Checkpoint(
        tensors={"encoder.w0": rng.normal(size=(3, 2)), "encoder.b0": np.zeros(2)},
        meta={"stage": "pretrain", "epoch": 4, "model": {"widths": [3, 2]}},
    )


def test_checkpoint_roundtrip_byte_identical(tmp_path):
    ck = _toy_checkpoint()
    p1, p2 = tmp_path / "a.ckpt", tmp_path / "b.ckpt"
    save_checkpoint(ck, p1)
    loaded = load_checkpoint(p1)
    save_checkpoint(loaded, p2)
    assert p1.read_bytes() == p2.read_bytes()
    for name, arr in ck.tensors.items():
        assert np.array_equal(loaded.tensors[name], arr)
    assert loaded.meta == ck.meta


def test_checkpoint_truncated_file(tmp_path):
    path = tmp_path / "trunc.ckpt"
    save_checkpoint(_toy_checkpoint(), path)
    path.write_bytes(path.read_bytes()[:-9])
    with pytest.raises(CheckpointIntegrityError):
        load_checkpoint(path)


def test_checkpoint_corrupt_payload(tmp_path):
    path = tmp_path / "bad.ckpt"
    save_checkpoint(_toy_checkpoint(), path)
    blob = bytearray(path.read_bytes())
    blob[30] ^= 0xFF
    path.write_bytes(bytes(blob))
    with pytest.raises(CheckpointIntegrityError, match="checksum"):
        load_checkpoint(path)


def _renamed(old: bytes, new: bytes):
    """A toy checkpoint's bytes with tensor name ``old`` written as ``new``, under a valid checksum."""
    body = checkpoint_bytes(_toy_checkpoint())[:-4].replace(old, new)
    return body + struct.pack("<I", zlib.crc32(body) & 0xFFFFFFFF)


def _header_only(dims):
    """A checkpoint whose one tensor's header gives ``dims`` and whose body ends there, under a valid checksum."""
    body = checkpoint_bytes(Checkpoint({}, {}))[:-8]  # up to the metadata block
    body += struct.pack(f"<II1sI{len(dims)}I", 1, 1, b"t", len(dims), *dims)
    return body + struct.pack("<I", zlib.crc32(body) & 0xFFFFFFFF)


@pytest.mark.parametrize(
    "blob, message",
    [
        (checkpoint_bytes(Checkpoint({}, [1, 2])), "corrupt metadata block: expected a JSON object, got list"),
        (checkpoint_bytes(Checkpoint({}, "stage")), "corrupt metadata block: expected a JSON object, got str"),
        (_renamed(b"encoder.b0", b"encoder.\xff0"), "corrupt tensor name: 'utf-8' codec can't decode"),
        (_renamed(b"encoder.w0", b"encoder.b0"), "tensor 'encoder.b0' given twice"),
        # dims whose product is 2**64, which an int64 product wraps to 0
        (_header_only((2**31, 2**31, 4)), "truncated checkpoint body"),
        (_header_only((65536,) * 4), "truncated checkpoint body"),
    ],
    ids=["list-metadata", "string-metadata", "name-not-utf8", "name-twice", "dims-2**64-rank3", "dims-2**64-rank4"],
)
def test_checkpoint_unparseable_body_with_a_valid_checksum(tmp_path, blob, message):
    path = tmp_path / "bad.ckpt"
    path.write_bytes(blob)
    with pytest.raises(CheckpointIntegrityError) as exc:
        load_checkpoint(path)
    assert str(exc.value).startswith(f"{path}: {message}")


def test_checkpoint_version_error_names_both(tmp_path):
    path = tmp_path / "vers.ckpt"
    blob = bytearray(checkpoint_bytes(_toy_checkpoint()))
    struct.pack_into("<I", blob, 4, 3)  # bump the version field
    path.write_bytes(bytes(blob))
    with pytest.raises(CheckpointVersionError, match=r"version 3.*version 1"):
        load_checkpoint(path)


def test_checkpoint_rejects_other_files(tmp_path):
    path = tmp_path / "not.ckpt"
    path.write_bytes(b"definitely not a checkpoint, but long enough")
    with pytest.raises(CheckpointIntegrityError, match="magic"):
        load_checkpoint(path)


# -- pretraining -------------------------------------------------------------------------


def _noiseless_regression(n=60, f=6, seed=0):
    rng = np.random.default_rng(seed)
    x = rng.normal(size=(n, f))
    w = rng.normal(size=f)
    return x, x @ w * 0.1 + 0.5


def test_pretrain_reduces_mse_on_linear_task():
    x, y = _noiseless_regression()
    cfg = TrainConfig(epochs=100, seed=0)
    result = pretrain(x, y, x[:10], y[:10], cfg, hidden=(16, 8), activation="tanh")
    assert result.trace[-2]["mse"] < 0.1 * result.trace[0]["mse"]


def test_pretrain_loss_nonincreasing_after_warmup():
    # full-batch removes resampling noise; what remains is optimizer dynamics
    x, y = _noiseless_regression(n=32)
    cfg = TrainConfig(epochs=60, seed=1, batch_size=32)
    result = pretrain(x, y, x[:10], y[:10], cfg, hidden=(16, 8), activation="tanh")
    losses = [e["loss"] for e in result.trace[:-1]]
    for prev, cur in zip(losses[10:], losses[11:]):
        assert cur <= prev + 1e-6


def test_pretrain_alpha_zero_trace_matches_mse_bitwise():
    x, y = _noiseless_regression(n=40)
    base = pretrain(x, y, x[:8], y[:8], TrainConfig(epochs=5, seed=3), hidden=(8, 4))
    for mode in ("mse+cl", "mse+wcl"):
        cfg = TrainConfig(epochs=5, seed=3, loss=LossConfig(mode=mode, alpha=0.0))
        run = pretrain(x, y, x[:8], y[:8], cfg, hidden=(8, 4))
        assert run.trace == base.trace


def test_pretrain_deterministic_checkpoint_bytes():
    x, y = _noiseless_regression(n=32)
    cfg = TrainConfig(epochs=3, seed=7, loss=LossConfig(mode="mse+cl"))
    a = pretrain(x, y, x[:6], y[:6], cfg, hidden=(8, 4), activation="tanh")
    b = pretrain(x, y, x[:6], y[:6], cfg, hidden=(8, 4), activation="tanh")
    assert checkpoint_bytes(a.final) == checkpoint_bytes(b.final)
    assert checkpoint_bytes(a.best) == checkpoint_bytes(b.best)


def test_pretrain_rejects_small_dataset():
    x, y = _noiseless_regression(n=5)
    with pytest.raises(ConfigError, match="smaller than batch"):
        pretrain(x, y, x, y, TrainConfig(batch_size=8, epochs=1))


def test_pretrain_aborts_on_nonfinite_loss():
    x, y = _noiseless_regression(n=32)
    cfg = TrainConfig(epochs=2, seed=0, lr=1e200)
    with pytest.warns(RuntimeWarning, match="overflow"), pytest.raises(TrainingAbort, match="non-finite"):
        pretrain(x, y, x[:6], y[:6], cfg, hidden=(8, 4))


def test_pretrain_shuffle_depends_only_on_seed_and_epoch():
    from hscl.training import _epoch_order

    assert np.array_equal(_epoch_order(3, 5, 20), _epoch_order(3, 5, 20))
    assert not np.array_equal(_epoch_order(3, 5, 20), _epoch_order(3, 6, 20))
    assert not np.array_equal(_epoch_order(4, 5, 20), _epoch_order(3, 5, 20))


def test_pretrain_trace_has_terminal_entry():
    x, y = _noiseless_regression(n=24)
    cfg = TrainConfig(epochs=4, seed=2)
    result = pretrain(x, y, x[:6], y[:6], cfg, hidden=(4,))
    assert len(result.trace) == 5
    assert result.trace[-1]["epoch"] == 4
    assert result.trace[-1]["lr"] == cfg.eta_min


# -- fine-tuning ------------------------------------------------------------------------


def _pretrained_toy(seed=0, f=5, hidden=(8, 4)):
    x, y = _noiseless_regression(n=40, f=f, seed=seed)
    cfg = TrainConfig(epochs=3, seed=seed)
    return pretrain(x, y, x[:8], y[:8], cfg, hidden=hidden, activation="tanh")


def _separable_pairs(ck, n=60, margin=0.5, seed=4):
    """Pairs whose labels are a thresholded linear readout of the embeddings."""
    encoder = encoder_from_checkpoint(ck)
    f = encoder.widths[0]
    rng = np.random.default_rng(seed)
    readout = rng.normal(size=2 * encoder.embedding_dim)
    xp, xn, labels = [], [], []
    while len(labels) < n:
        a, b = rng.normal(size=f), rng.normal(size=f)
        u = encode(encoder, np.stack([a, b])).data
        score = float(np.concatenate([u[0], u[1]]) @ readout)
        if abs(score) < margin:
            continue  # keep a separation margin between the classes
        xp.append(a)
        xn.append(b)
        labels.append(0 if score > margin else 2)
    return np.stack(xp), np.stack(xn), np.array(labels)


def test_finetune_frozen_encoder_unchanged():
    pre = _pretrained_toy()
    xp, xn, labels = _separable_pairs(pre.best)
    cfg = TrainConfig(epochs=3, seed=1, freeze_encoder=True)
    result = finetune(pre.best, xp, xn, labels, xp[:10], xn[:10], labels[:10], cfg)
    for name, arr in pre.best.tensors.items():
        if name.startswith("encoder."):
            assert np.array_equal(result.final.tensors[name], arr)


def test_finetune_unfrozen_encoder_moves():
    pre = _pretrained_toy()
    xp, xn, labels = _separable_pairs(pre.best)
    cfg = TrainConfig(epochs=2, seed=1, freeze_encoder=False)
    result = finetune(pre.best, xp, xn, labels, xp[:10], xn[:10], labels[:10], cfg)
    moved = any(
        not np.array_equal(result.final.tensors[name], arr)
        for name, arr in pre.best.tensors.items()
        if name.startswith("encoder.w")
    )
    assert moved


def test_finetune_reaches_full_accuracy_on_separable_pairs():
    pre = _pretrained_toy()
    xp, xn, labels = _separable_pairs(pre.best, n=80)
    cfg = TrainConfig(epochs=200, seed=2, lr=0.01, freeze_encoder=True)
    result = finetune(pre.best, xp, xn, labels, xp, xn, labels, cfg)
    encoder = encoder_from_checkpoint(result.best)
    from hscl.training import classifier_from_checkpoint

    cls = classifier_from_checkpoint(result.best)
    logits = classify_pairs(cls, encode(encoder, xp).data, encode(encoder, xn).data).data
    report = compute_metrics(predict_classes(logits), labels)
    assert report.accuracy == 100.0


def test_finetune_rejects_width_mismatch():
    pre = _pretrained_toy(f=5)
    rng = np.random.default_rng(0)
    xp = rng.normal(size=(12, 7))
    with pytest.raises(Exception, match="width"):
        finetune(pre.best, xp, xp, np.zeros(12, dtype=int), xp, xp, np.zeros(12, dtype=int), TrainConfig(epochs=1))


def test_untrained_classifier_near_chance_on_balanced_pairs():
    # balanced labels and label-independent predictions give ~33% accuracy
    rng = np.random.default_rng(6)
    encoder = init_encoder([6, 8, 4], seed=0)
    cls = init_classifier_head(4, seed=1)
    n = 300
    xp, xn = rng.normal(size=(n, 6)), rng.normal(size=(n, 6))
    labels = np.arange(n) % 3
    logits = classify_pairs(cls, encode(encoder, xp).data, encode(encoder, xn).data).data
    report = compute_metrics(predict_classes(logits), labels)
    assert abs(report.accuracy - 100.0 / 3.0) <= 5.0


# -- tape-free loops vs the per-step graph built from the elementary-op chains ------------


@pytest.mark.parametrize(
    "mode, sim, activation",
    [(m, s, "tanh") for m in losses.MODES for s in losses.SIMILARITIES] + [("mse+wcl", "l2", "relu")],
)
def test_training_with_fused_ops_matches_the_op_chains_bitwise(mode, sim, activation, monkeypatch):
    """The tape-free loops, unpatched, against the per-step references built from the chains.

    The loops call the fused ops' forward and backward functions, which the
    patches do not reach; the references build each step's graph through the
    patched ops, and every patched op must be called.
    """
    rng = np.random.default_rng(8)
    x, y = _noiseless_regression(n=40, f=5, seed=8)
    xp, xn = rng.normal(size=(30, 5)), rng.normal(size=(30, 5))
    labels = rng.integers(0, 3, size=30)

    def run(pretrain_fn, finetune_fn):
        cfg = TrainConfig(epochs=3, seed=4, loss=LossConfig(mode=mode, similarity=sim, alpha=0.7))
        (pre,) = pretrain_fn(x, y, x[:8], y[:8], cfg, (8, 4), activation, [None], [4])
        outputs = [pre.trace, checkpoint_bytes(pre.final), checkpoint_bytes(pre.best)]
        for freeze in (True, False):
            fine_cfg = TrainConfig(epochs=3, seed=5, freeze_encoder=freeze)
            (fine,) = finetune_fn(
                [pre.best], xp, xn, labels, xp[:9], xn[:9], labels[:9], fine_cfg, DEFAULT_CLS_HIDDEN, [5]
            )
            outputs += [fine.history, checkpoint_bytes(fine.final), checkpoint_bytes(fine.best)]
        return outputs

    fused = run(pretrain_runs, finetune_runs)
    calls = []
    for module, name, chain in (
        (oracles, "dense", dense_chain),
        (oracles, "squared_error_sum", squared_error_sum_chain),
        (oracles, "softmax_cross_entropy", softmax_cross_entropy_chain),
        (oracles, "weighted_log_sum", weighted_log_sum_chain),
    ):
        def counted(*args, chain=chain, name=name):
            calls.append(name)
            return chain(*args)
        monkeypatch.setattr(module, name, counted)
    assert run(pretrain_runs_ref, finetune_runs_ref) == fused
    contrastive = {"weighted_log_sum"} if mode != "mse" else set()
    assert set(calls) == {"dense", "squared_error_sum", "softmax_cross_entropy"} | contrastive


# -- lock-step fine-tuning: S runs in one stack give each run's own results, bit for bit ---


@pytest.mark.parametrize("freeze", [True, False])
@pytest.mark.parametrize("sim", losses.SIMILARITIES)
def test_lockstep_finetune_matches_each_run_alone_bitwise(sim, freeze):
    rng = np.random.default_rng(12)
    x, y = _noiseless_regression(n=40, f=5, seed=12)
    # 25 pairs: three full batches of 8 and a last batch of one row
    xp, xn = rng.normal(size=(25, 5)), rng.normal(size=(25, 5))
    labels = rng.integers(0, 3, size=25)
    pres = [
        pretrain(x, y, x[:8], y[:8], TrainConfig(epochs=2, seed=4, loss=LossConfig(mode, sim)), hidden=(8, 4)).best
        for mode in losses.MODES
    ]
    args = (xp, xn, labels, xp[:9], xn[:9], labels[:9], TrainConfig(epochs=3, seed=5, freeze_encoder=freeze))

    def outputs(result):
        return [result.history, result.best_epoch, checkpoint_bytes(result.best), checkpoint_bytes(result.final)]

    alone = [outputs(finetune(ck, *args)) for ck in pres]
    assert len({a[3] for a in alone}) == len(pres)  # the runs really differ
    for runs in (1, 2, 3):
        for first in range(len(pres)):  # every mode at every stack size
            picked = [(first + k) % len(pres) for k in range(runs)]
            stacked = finetune_runs([pres[i] for i in picked], *args)
            assert [outputs(r) for r in stacked] == [alone[i] for i in picked]


def test_a_non_finite_run_aborts_the_stack_and_is_named_only_when_stacked():
    pre = _pretrained_toy()
    xp, xn, labels = _separable_pairs(pre.best, n=20)
    nan_xp = np.full_like(xp, np.nan)  # gives a NaN loss at the first batch
    args = (xn, labels, xp[:10], xn[:10], labels[:10], TrainConfig(epochs=2, seed=1))
    with pytest.raises(TrainingAbort) as alone:
        finetune(pre.best, nan_xp, *args)
    assert str(alone.value) == "finetune: non-finite loss at epoch 0 batch 0: ce=nan"
    with pytest.raises(TrainingAbort) as stacked:
        finetune_runs([pre.best] * 3, np.stack([xp, nan_xp, xp]), *args)
    assert str(stacked.value) == "finetune run 1: non-finite loss at epoch 0 batch 0: ce=nan"


def test_lockstep_finetune_rejects_runs_with_different_encoder_shapes():
    a, b = _pretrained_toy(hidden=(8, 4)), _pretrained_toy(hidden=(6, 4))
    xp, xn, labels = _separable_pairs(a.best, n=12)
    with pytest.raises(ShapeError, match="one encoder shape"):
        finetune_runs([a.best, b.best], xp, xn, labels, xp, xn, labels, TrainConfig(epochs=1))


# -- lock-step across seeds: runs with their own seeds and data, each bit-identical alone ---


def _run_data(n_runs, n=37, f=5, val=9):
    """Per-run regression splits of equal sizes; 37 rows leave a dropped partial batch."""
    splits = [_noiseless_regression(n=n + val, f=f, seed=20 + r) for r in range(n_runs)]
    return [(x[:n], y[:n], x[n:], y[n:]) for x, y in splits]


def _pretrain_outputs(result):
    return [result.trace, result.best_epoch, checkpoint_bytes(result.best), checkpoint_bytes(result.final)]


@pytest.mark.parametrize("runs", [2, 3])
@pytest.mark.parametrize("sim", losses.SIMILARITIES)
@pytest.mark.parametrize("mode", losses.MODES)
def test_lockstep_pretrain_matches_each_run_alone_bitwise(mode, sim, runs):
    data = _run_data(runs)
    seeds = [7 + 3 * r for r in range(runs)]
    cfg = TrainConfig(epochs=3, seed=0, loss=LossConfig(mode, sim, alpha=0.7))
    metas = [{"split_seed": s} for s in seeds]
    alone = [
        _pretrain_outputs(pretrain(*split, replace(cfg, seed=s), hidden=(8, 4), data_meta=meta))
        for split, s, meta in zip(data, seeds, metas)
    ]
    assert len({a[3] for a in alone}) == runs  # the runs really differ
    stacked = pretrain_runs(
        *(np.stack(arrays) for arrays in zip(*data)), cfg, hidden=(8, 4), data_metas=metas, seeds=seeds
    )
    assert [_pretrain_outputs(r) for r in stacked] == alone


def test_lockstep_pretrain_of_shared_data_with_one_seed_per_run_matches_each_run_alone():
    x, y, xv, yv = _run_data(1)[0]
    cfg = TrainConfig(epochs=2, loss=LossConfig("mse+wcl"))
    alone = [_pretrain_outputs(pretrain(x, y, xv, yv, replace(cfg, seed=s), hidden=(6,))) for s in (1, 2, 1)]
    stacked = pretrain_runs(x, y, xv, yv, cfg, hidden=(6,), seeds=[1, 2, 1])
    assert [_pretrain_outputs(r) for r in stacked] == alone
    assert alone[0] == alone[2] != alone[1]


def test_a_non_finite_pretrain_run_aborts_the_stack_and_is_named():
    data = _run_data(3)
    stacked = [np.stack(arrays) for arrays in zip(*data)]
    stacked[1][2] *= 1e300  # run 2's targets overflow the squared error
    cfg = TrainConfig(epochs=1, loss=LossConfig("mse+cl"))
    with pytest.warns(RuntimeWarning, match="overflow"):
        with pytest.raises(TrainingAbort, match=r"^pretrain run 2: non-finite loss at epoch 0 batch 0: "):
            pretrain_runs(*stacked, cfg, hidden=(4,), seeds=[0, 1, 2])
    with pytest.warns(RuntimeWarning, match="overflow"):
        with pytest.raises(TrainingAbort, match=r"^pretrain: non-finite loss at epoch 0 batch 0: "):
            pretrain(*(a[2] for a in stacked), replace(cfg, seed=2), hidden=(4,))


def test_lockstep_pretrain_rejects_arrays_for_another_run_count():
    x, y, xv, yv = (np.stack(arrays) for arrays in zip(*_run_data(2)))
    with pytest.raises(ShapeError, match="2 per-run arrays for 3 runs"):
        pretrain_runs(x, y, xv, yv, TrainConfig(epochs=1), hidden=(4,), seeds=[0, 1, 2])
    with pytest.raises(ConfigError, match="at least one run"):
        pretrain_runs(x, y, xv, yv, TrainConfig(epochs=1), hidden=(4,), seeds=[])


@pytest.mark.parametrize("freeze", [True, False])
def test_lockstep_finetune_with_per_run_pairs_and_seeds_matches_each_run_alone_bitwise(freeze):
    rng = np.random.default_rng(13)
    data = _run_data(3)
    cfg = TrainConfig(epochs=2, loss=LossConfig("mse+cl"))
    pres = [pretrain(*split, replace(cfg, seed=r), hidden=(8, 4)).best for r, split in enumerate(data)]
    # 25 training pairs per run: three full batches of 8 and a last batch of one row
    pairs = [
        (rng.normal(size=(25, 5)), rng.normal(size=(25, 5)), rng.integers(0, 3, size=25),
         rng.normal(size=(9, 5)), rng.normal(size=(9, 5)), rng.integers(0, 3, size=9))
        for _ in pres
    ]
    seeds = [5, 6, 5]
    fine_cfg = TrainConfig(epochs=3, seed=0, freeze_encoder=freeze)

    def outputs(result):
        return [result.history, result.best_epoch, checkpoint_bytes(result.best), checkpoint_bytes(result.final)]

    alone = [
        outputs(finetune(ck, *arrays, replace(fine_cfg, seed=s)))
        for ck, arrays, s in zip(pres, pairs, seeds)
    ]
    stacked = finetune_runs(pres, *(np.stack(a) for a in zip(*pairs)), fine_cfg, seeds=seeds)
    assert [outputs(r) for r in stacked] == alone


# -- label- and data-only work hoisted out of the step: the per-step reference, bit for bit ---


@pytest.mark.parametrize("runs", [1, 3])
@pytest.mark.parametrize(
    "mode, sim, activation",
    [pytest.param(m, s, DEFAULT_ACTIVATION, id=f"{m}-{s}") for m in losses.MODES for s in losses.SIMILARITIES]
    + [pytest.param("mse+wcl", "l2", "relu", id="mse+wcl-l2-relu")],
)
def test_training_loops_match_the_per_step_reference_bitwise(mode, sim, activation, runs):
    """One run through ``pretrain``/``finetune``, three through the ``*_runs`` loops.

    37 training rows leave 5 rows of each epoch unused; 25 training pairs end
    every fine-tuning epoch with a batch of one pair. The relu case reaches
    the relu branch of the encoder's hand-written backward.
    """
    data = _run_data(runs)
    seeds = [3 + 2 * r for r in range(runs)]
    metas = [{"split_seed": s} for s in seeds]
    cfg = TrainConfig(epochs=3, seed=seeds[0], loss=LossConfig(mode, sim, alpha=0.7))
    arrays = data[0] if runs == 1 else [np.stack(a) for a in zip(*data)]
    if runs == 1:
        pre = [pretrain(*arrays, cfg, hidden=(8, 4), activation=activation, data_meta=metas[0])]
    else:
        pre = pretrain_runs(*arrays, cfg, hidden=(8, 4), activation=activation, data_metas=metas, seeds=seeds)
    ref = pretrain_runs_ref(*arrays, cfg, (8, 4), activation, metas, seeds)
    assert [_pretrain_outputs(r) for r in pre] == [_pretrain_outputs(r) for r in ref]

    rng = np.random.default_rng(14)
    pairs = [
        (rng.normal(size=(25, 5)), rng.normal(size=(25, 5)), rng.integers(0, 3, size=25),
         rng.normal(size=(9, 5)), rng.normal(size=(9, 5)), rng.integers(0, 3, size=9))
        for _ in range(runs)
    ]
    pair_arrays = pairs[0] if runs == 1 else [np.stack(a) for a in zip(*pairs)]
    fine_seeds = [5, 6, 5][:runs]
    checkpoints = [r.best for r in pre]

    def outputs(result):
        return [result.history, result.best_epoch, checkpoint_bytes(result.best), checkpoint_bytes(result.final)]

    for freeze in (True, False):
        fine_cfg = TrainConfig(epochs=3, seed=fine_seeds[0], freeze_encoder=freeze)
        if runs == 1:
            fine = [finetune(checkpoints[0], *pair_arrays, fine_cfg)]
        else:
            fine = finetune_runs(checkpoints, *pair_arrays, fine_cfg, seeds=fine_seeds)
        ref = finetune_runs_ref(checkpoints, *pair_arrays, fine_cfg, DEFAULT_CLS_HIDDEN, fine_seeds)
        assert [outputs(r) for r in fine] == [outputs(r) for r in ref]


def test_an_out_of_range_finetune_label_raises_cross_entropys_error_before_the_first_step(monkeypatch):
    pre = _pretrained_toy()
    xp, xn, labels = _separable_pairs(pre.best, n=20)
    bad = labels.copy()
    bad[17] = 3  # in the third batch of the first epoch
    expected = f"cross_entropy: labels must lie in [0, 3), got {sorted(set(bad.tolist()))}"
    with pytest.raises(DomainError) as ce_error:
        losses.cross_entropy(Tensor(np.zeros((20, 3))), bad)
    assert str(ce_error.value) == expected
    steps = []
    monkeypatch.setattr(training, "adam_step", lambda *args: steps.append(args))
    args = (xp, xn, bad, xp[:10], xn[:10], labels[:10], TrainConfig(epochs=2, seed=1))
    with pytest.raises(DomainError) as alone:
        finetune(pre.best, *args)
    assert str(alone.value) == expected
    with pytest.raises(DomainError, match=r"^cross_entropy: labels must lie in \[0, 3\)"):
        finetune_runs([pre.best, pre.best], *args)
    assert steps == []


@pytest.mark.parametrize("runs", [1, 2])
@pytest.mark.parametrize(
    "bad, message",
    [
        ("rows", "pretrain: 10 validation feature rows vs 8 targets"),
        ("width", "pretrain: validation feature width 4 != training feature width 5"),
    ],
)
def test_a_pretrain_validation_split_that_does_not_fit_raises_before_the_first_step(bad, message, runs, monkeypatch):
    steps = []
    monkeypatch.setattr(training, "adam_step", lambda *args: steps.append(args))
    x, y = _noiseless_regression(n=40, f=5, seed=8)
    x_val, y_val = (x[:10], y[:8]) if bad == "rows" else (x[:8, :4], y[:8])
    cfg = TrainConfig(epochs=2, loss=LossConfig("mse+cl"))
    with pytest.raises(ShapeError) as raised:
        if runs == 1:
            pretrain(x, y, x_val, y_val, cfg, hidden=(4,))
        else:
            pretrain_runs(x, y, x_val, y_val, cfg, hidden=(4,), seeds=list(range(runs)))
    assert str(raised.value) == message
    assert steps == []


@pytest.mark.parametrize("freeze", [True, False])
@pytest.mark.parametrize("runs", [1, 2])
@pytest.mark.parametrize("bad", ["next", "labels", "label 5", "width", "1-D"])
def test_a_finetune_validation_split_that_does_not_fit_raises_before_the_first_step(bad, runs, freeze, monkeypatch):
    pre = _pretrained_toy()
    xp, xn, labels = _separable_pairs(pre.best, n=20)
    xp_val, xn_val, y_val = xp[:10], xn[:10], labels[:10].copy()
    error, message = ShapeError, "finetune: prev/next/label lengths differ"
    if bad == "next":
        xn_val = xn[:9]
    elif bad == "labels":
        y_val = y_val[:8]
    elif bad == "label 5":
        y_val[3] = 5
        error, message = DomainError, f"cross_entropy: labels must lie in [0, 3), got {sorted(set(y_val.tolist()))}"
    elif bad == "width":
        xp_val, xn_val = xp_val[:, :4], xn_val[:, :4]
        message = "finetune: pair feature width 4 != encoder input width 5"
    else:
        xp_val = xp_val[0]
        message = f"finetune: expected a 2-D array shared by the runs or a 3-D one per run, got shape {xp_val.shape}"
    steps = []
    monkeypatch.setattr(training, "adam_step", lambda *args: steps.append(args))
    args = (xp, xn, labels, xp_val, xn_val, y_val, TrainConfig(epochs=2, seed=1, freeze_encoder=freeze))
    with pytest.raises(error) as raised:
        if runs == 1:
            finetune(pre.best, *args)
        else:
            finetune_runs([pre.best] * runs, *args)
    assert str(raised.value) == message
    assert steps == []


def test_a_one_run_step_runs_on_2d_weights_and_a_stack_of_runs_on_3d(monkeypatch):
    """A size-1 run axis in the step gives the same bits but costs single-run throughput.

    So a one-run step keeps 2-D weights; only a stack of runs takes the
    stacked (S, F, H) ones.
    """
    ndims = []

    def recorded(x, w, b, activation):
        ndims.append(w.ndim)
        return dense_forward(x, w, b, activation)

    monkeypatch.setattr(model, "dense_forward", recorded)
    x, y = _noiseless_regression(n=40, f=5, seed=16)
    xp, xn = np.random.default_rng(16).normal(size=(2, 20, 5))
    labels = np.arange(20) % 3
    cfg = TrainConfig(epochs=1, loss=LossConfig("mse+cl"))
    for seeds, ndim in (([0], 2), ([0, 1], 3)):
        ndims.clear()
        pres = pretrain_runs(x, y, x[:8], y[:8], cfg, hidden=(8, 4), seeds=seeds)
        assert set(ndims) == {ndim}
        for freeze in (True, False):
            ndims.clear()
            fine_cfg = replace(cfg, freeze_encoder=freeze)
            finetune_runs([r.best for r in pres], xp, xn, labels, xp[:9], xn[:9], labels[:9], fine_cfg, seeds=seeds)
            assert set(ndims) == {ndim}


# -- per-run bookkeeping: selection, its fallback and the terminal entry --------------------


@pytest.mark.parametrize("runs", [1, 3])
@pytest.mark.parametrize("stage", ["pretrain", "finetune-frozen", "finetune-unfrozen"])
def test_a_run_with_no_finite_validation_score_keeps_its_final_checkpoint_as_best(stage, runs):
    cfg = TrainConfig(epochs=3, loss=LossConfig("mse+cl"))
    seeds = [3 + r for r in range(runs)]
    data = _run_data(runs, val=0)
    arrays = data[0] if runs == 1 else [np.stack(a) for a in zip(*data)]
    results = pretrain_runs(*arrays, cfg, hidden=(8, 4), seeds=seeds)
    keys = training.TRACE_KEYS
    if stage != "pretrain":
        rng = np.random.default_rng(15)
        shape = () if runs == 1 else (runs,)
        xp, xn = rng.normal(size=(2, *shape, 20, 5))
        labels = rng.integers(0, 3, size=(*shape, 20))
        empty, no_labels = np.zeros((*shape, 0, 5)), np.zeros((*shape, 0), dtype=int)
        fine_cfg = replace(cfg, freeze_encoder=stage == "finetune-frozen")
        results = finetune_runs(
            [r.final for r in results], xp, xn, labels, empty, empty, no_labels, fine_cfg, seeds=seeds
        )
        keys = training.HISTORY_KEYS
    assert len(results) == runs
    for result in results:
        log = result.trace if stage == "pretrain" else result.history
        assert checkpoint_bytes(result.best) == checkpoint_bytes(result.final)
        assert result.best_epoch == cfg.epochs - 1
        assert [entry["epoch"] for entry in log] == list(range(cfg.epochs + 1))
        val_keys = [k for k in keys if k.startswith("val_")]
        assert all(np.isnan(entry[k]) for entry in log for k in val_keys)
        *_, last, terminal = log
        assert terminal["lr"] == cosine_lr(cfg.epochs, cfg)
        assert np.array_equal(
            [terminal[k] for k in keys[2:]], [last[k] for k in keys[2:]], equal_nan=True
        )


def test_training_loops_build_no_graph_for_validation(monkeypatch):
    """The trained tensors take no gradient inside the loops; the public initialisers' still do."""
    seen = []
    for name in ("predict_hs", "classify_pairs"):
        def recorded(*args, _original=getattr(training, name)):
            out = _original(*args)
            seen.append(out)
            return out
        monkeypatch.setattr(training, name, recorded)
    x, y = _noiseless_regression(n=40, f=5, seed=16)
    pre = pretrain(x, y, x[:8], y[:8], TrainConfig(epochs=2, seed=1), hidden=(8, 4))
    xp, xn, labels = _separable_pairs(pre.best, n=20)
    finetune(pre.best, xp, xn, labels, xp[:10], xn[:10], labels[:10], TrainConfig(epochs=2, seed=1))
    assert len(seen) == 4
    assert not any(t.requires_grad or t._backward is not None for t in seen)
    assert all(p.requires_grad for p in init_encoder([5, 8, 4], 0, DEFAULT_ACTIVATION).trainable())
    assert all(p.requires_grad for p in init_classifier_head(4, 0, DEFAULT_CLS_HIDDEN).trainable())


@pytest.mark.parametrize("stacked", [False, True])
@pytest.mark.parametrize("freeze", [True, False])
def test_the_model_selection_score_is_what_the_restored_best_checkpoint_scores(freeze, stacked):
    """The validation a loop selects on equals ``evaluate_checkpoint`` of its best checkpoint, alone or stacked."""
    collection = generate_synthetic(SyntheticSpec(n_patients=30, scans_per_patient=4, n_features=5, seed=5))
    prepared = prepare(collection, 0, DataConfig())
    spec = ModelSpec(hidden=(8, 4))
    pre = [run_pretrain(prepared, spec, TrainConfig(epochs=2, seed=s)).best for s in (0, 1)]
    cfg = TrainConfig(epochs=6, seed=2, freeze_encoder=freeze)
    if stacked:
        results = finetune_runs(pre, *prepared.pairs["train"], *prepared.pairs["val"], cfg, seeds=[2, 3])
    else:
        results = [run_finetune(prepared, pre[0], cfg, spec)]
    for result in results:
        entry = result.history[result.best_epoch]
        report = evaluate_checkpoint(prepared, result.best, "val")
        assert (entry["val_accuracy"], entry["val_macro_f1"]) == (report.accuracy, report.macro_f1)


@pytest.mark.parametrize("runs", [1, 2])
@pytest.mark.parametrize("freeze", [True, False])
def test_the_validation_split_never_changes_what_fine_tuning_trains(freeze, runs):
    """Validated on the val pairs or on the test pairs, a fine-tune ends at the same final checkpoint.

    Validation runs the networks on views of the Adam buffer, so a byte
    difference would mean that validation wrote into training.
    """
    collection = generate_synthetic(SyntheticSpec(n_patients=30, scans_per_patient=4, n_features=5, seed=5))
    prepared = prepare(collection, 0, DataConfig())
    seeds = [3, 4][:runs]
    pre_cfg = TrainConfig(epochs=3, loss=LossConfig("mse+cl"))
    pre = [run_pretrain(prepared, ModelSpec(hidden=(8, 4)), replace(pre_cfg, seed=s)).best for s in seeds]
    cfg = TrainConfig(epochs=6, freeze_encoder=freeze)
    on_val, on_test = (
        finetune_runs(pre, *prepared.pairs["train"], *prepared.pairs[split], cfg, seeds=seeds)
        for split in ("val", "test")
    )
    for a, b in zip(on_val, on_test, strict=True):
        assert [e["val_macro_f1"] for e in a.history] != [e["val_macro_f1"] for e in b.history]
        assert checkpoint_bytes(a.final) == checkpoint_bytes(b.final)


# -- pipeline-level pretrain smoke -------------------------------------------------------


def test_run_pretrain_emits_best_and_final():
    collection = generate_synthetic(SyntheticSpec(n_patients=20, scans_per_patient=3, seed=2))
    prepared = prepare(collection, 0, DataConfig())
    cfg = TrainConfig(epochs=4, seed=0)
    result = run_pretrain(prepared, ModelSpec(hidden=(8, 4)), cfg)
    assert result.best.meta["stage"] == "pretrain"
    assert result.best.meta["data"]["split_seed"] == 0
    assert 0 <= result.best_epoch < cfg.epochs
    enc = encoder_from_checkpoint(result.best)
    x, _ = prepared.regression["test"]
    assert encode(enc, x).data.shape == (len(x), 4)

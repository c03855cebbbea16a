"""Independent reference implementations used as test oracles.

Most of this is deliberately written as plain-Python scalar loops (or
selection-style algorithms) so it shares no code path with the library
implementations it checks.

The ``*_chain`` functions are the exception: each takes the arguments of a
one-node op of ``elementary`` (``dense``, ``squared_error_sum``,
``softmax_cross_entropy``, ``weighted_log_sum``), each a wrapper of one of
the library's array pairs, and rebuilds the chain of elementary ops it
replaces (affine, activation, softmax, clamp, log, ...), one graph node per
op, so tests can require the pairs to match them bit for bit.
``softmax_cross_entropy_pair_ref`` is the cross-entropy pair's own arrays
in their general form, the softmax product summed over every class.
``combined_loss_chain`` is ``losses.combined_loss_terms`` as a chain of
one-node ops, 7 (cl) or 9 (wcl) nodes to the library's 3. It calls this
module's ``squared_error_sum`` and ``weighted_log_sum`` bindings, which a
test can replace with their chains.

So are the ``*_runs_ref`` training loops: they set up runs with the
library's own helpers, but build every step as the loops did before the
label- and data-only work moved out of the step (a ``take`` per batch and
array, ``mine_batch`` and the loss's own ``K`` per batch, a per-step
``concat_last`` and one-hot label mask). Every network, in a step and in
validation, is a per-layer loop over this module's ``dense`` binding
(``mlp_ref``), the fine-tuning loss is its ``softmax_cross_entropy`` and
the pre-training loss comes from ``combined_loss_chain``. So the loops call
none of the library's network or loss calls, and tests can require the
hoisted, tape-free loops to match them bit for bit. ``generate_synthetic_ref``
is the cohort generator as it was, one ``rng.normal`` call per draw and one
matrix-vector product per scan. ``save_dataset_ref`` is
the CSV writer as it was, one numpy scalar at a time; ``load_dataset_ref`` is the
loader as it was, one ``csv.reader`` row and one ``float()`` at a time; and
``prepare_arrays_ref`` builds ``prepare``'s arrays as it did, one scan and
one ``change_label_ref`` per pair (with ``regression_arrays``/``pair_arrays``).
They hold a cohort as lists of ``Scan`` tuples (``scans_of``) and hand the
library a ``Cohort`` built from such lists (``cohort_of``).
``change_label_ref``, ``categorize_sf_ref``, ``normalize_ref`` and
``make_pairs_ref`` state the pair-and-label rules one scalar at a time, as
the reference for ``data.pair_labels``: they raise its errors, with its
texts, and share none of its code.
"""

from __future__ import annotations

import csv
import io
import math
from dataclasses import asdict, dataclass, replace
from typing import NamedTuple

import numpy as np

import elementary as el
from hscl import losses, training
from hscl.checkpoint import Checkpoint
from hscl.data import (
    DEFAULT_TAU,
    DETERIORATED,
    IMPROVED,
    LABEL_MODES,
    SAME,
    Cohort,
    NormalizationStats,
    split_patients,
)
from hscl.errors import ConfigError, DatasetError, DomainError
from hscl.losses import PROB_FLOOR, loss_gradients, mine_batch
from hscl.model import init_classifier_head, init_encoder, init_regression_head
from hscl.tensor import Tensor, node

# the one-node ops the reference loops and ``combined_loss_chain`` build
# from, bound here so that a test can replace each with its chain
dense = el.dense
squared_error_sum = el.squared_error_sum
softmax_cross_entropy = el.softmax_cross_entropy
weighted_log_sum = el.weighted_log_sum


def mse_ref(y, y_pred) -> float:
    total = 0.0
    for a, b in zip(y, y_pred):
        total += (float(a) - float(b)) ** 2
    return total


def sim_ref(u, v, kind: str, floor: float = 1e-6) -> float:
    if kind == "cos":
        nu = math.sqrt(sum(float(x) * float(x) for x in u))
        nv = math.sqrt(sum(float(x) * float(x) for x in v))
        cos = sum(float(a) * float(b) for a, b in zip(u, v)) / (nu * nv)
        raw = (1.0 + cos) / 2.0
    elif kind == "l2":
        dist = math.sqrt(sum((float(a) - float(b)) ** 2 for a, b in zip(u, v)))
        raw = 1.0 / (1.0 + dist)
    else:
        raise ValueError(kind)
    return min(1.0, max(floor, raw))


def cl_ref(embeddings, positives, negatives, kind: str, floor: float = 1e-6) -> float:
    total = 0.0
    for i in range(len(embeddings)):
        for j in negatives[i]:
            total += math.log(sim_ref(embeddings[i], embeddings[j], kind, floor))
        for j in positives[i]:
            total -= math.log(sim_ref(embeddings[i], embeddings[j], kind, floor))
    return total


def wcl_ref(embeddings, positives, negatives, hs, eps, kind: str, floor: float = 1e-6) -> float:
    total = 0.0
    for i in range(len(embeddings)):
        for j in negatives[i]:
            weight = abs(float(hs[i]) - float(hs[j])) + eps
            total += math.log(sim_ref(embeddings[i], embeddings[j], kind, floor) * weight)
        for j in positives[i]:
            weight = abs(float(hs[i]) - float(hs[j])) + eps
            total -= math.log(sim_ref(embeddings[i], embeddings[j], kind, floor)) / weight
    return total


def cross_entropy_ref(logits, labels) -> float:
    total = 0.0
    for row, label in zip(logits, labels):
        row = [float(v) for v in row]
        m = max(row)
        denom = sum(math.exp(v - m) for v in row)
        total -= math.log(math.exp(row[int(label)] - m) / denom)
    return total / len(labels)


def mine_ref(hs):
    """Selection-based miner: repeatedly extract the (distance, index) extremes."""
    scores = [float(v) for v in hs]
    b = len(scores)
    k = (b - 1) // 2
    positives, negatives = [], []
    for i in range(b):
        remaining = [(abs(scores[i] - scores[j]), j) for j in range(b) if j != i]
        pos = []
        pool = list(remaining)
        for _ in range(k):
            best = min(pool)
            pool.remove(best)
            pos.append(best[1])
        neg = []
        pool = list(remaining)
        for _ in range(k):
            worst = max(pool)
            pool.remove(worst)
            neg.append(worst[1])
        positives.append(sorted(pos))
        negatives.append(sorted(neg))
    return positives, negatives


def adam_ref(values, grad_seq, lr, beta1=0.9, beta2=0.999, eps=1e-8):
    """Scalar-loop Adam over a flat parameter list; returns final values."""
    x = [float(v) for v in values]
    m = [0.0] * len(x)
    v = [0.0] * len(x)
    for t, grads in enumerate(grad_seq, start=1):
        for i, g in enumerate(grads):
            g = float(g)
            m[i] = beta1 * m[i] + (1.0 - beta1) * g
            v[i] = beta2 * v[i] + (1.0 - beta2) * g * g
            m_hat = m[i] / (1.0 - beta1**t)
            v_hat = v[i] / (1.0 - beta2**t)
            x[i] -= lr * m_hat / (math.sqrt(v_hat) + eps)
    return x


def adam_per_tensor_ref(values, grad_seq, lr, beta1=0.9, beta2=0.999, eps=1e-8):
    """Adam as one numpy update per parameter tensor, in the library's operation order.

    ``values`` is a list of arrays and ``grad_seq`` a list of per-step lists of
    gradients shaped like them. Returns the final (values, m, v) lists, which
    a flat whole-buffer update must reproduce bit for bit.
    """
    params = [np.array(v, dtype=np.float64) for v in values]
    ms = [np.zeros_like(p) for p in params]
    vs = [np.zeros_like(p) for p in params]
    for t, grads in enumerate(grad_seq, start=1):
        c1 = 1.0 - beta1**t
        c2 = 1.0 - beta2**t
        for p, g, m, v in zip(params, grads, ms, vs):
            m *= beta1
            m += (1.0 - beta1) * g
            v *= beta2
            v += (1.0 - beta2) * (g * g)
            p -= lr * (m / c1) / (np.sqrt(v / c2) + eps)
    return params, ms, vs


def metrics_ref(predictions, labels, n_classes=3):
    """Brute-force tally: returns (accuracy_percent, macro_f1, confusion)."""
    preds = [int(p) for p in predictions]
    trues = [int(t) for t in labels]
    confusion = [[0] * n_classes for _ in range(n_classes)]
    correct = 0
    for p, t in zip(preds, trues):
        confusion[t][p] += 1
        if p == t:
            correct += 1
    f1s = []
    for c in range(n_classes):
        tp = confusion[c][c]
        fp = sum(confusion[r][c] for r in range(n_classes)) - tp
        fn = sum(confusion[c]) - tp
        precision = tp / (tp + fp) if tp + fp else 0.0
        recall = tp / (tp + fn) if tp + fn else 0.0
        f1s.append(2 * precision * recall / (precision + recall) if precision + recall else 0.0)
    return 100.0 * correct / len(preds), sum(f1s) / n_classes, confusion


def spearman_ref(x, y) -> float:
    """Rank by counting, Pearson by loops; assumes non-degenerate input."""

    def ranks(values):
        out = []
        for i, vi in enumerate(values):
            smaller = sum(1 for v in values if v < vi)
            ties = sum(1 for v in values if v == vi)
            out.append(smaller + (ties + 1) / 2.0)
        return out

    rx, ry = ranks([float(v) for v in x]), ranks([float(v) for v in y])
    mx = sum(rx) / len(rx)
    my = sum(ry) / len(ry)
    num = sum((a - mx) * (b - my) for a, b in zip(rx, ry))
    den = math.sqrt(sum((a - mx) ** 2 for a in rx) * sum((b - my) ** 2 for b in ry))
    return num / den


def pack_shapes(tensors):
    """Flatten a list of arrays into one vector; returns (flat, shapes)."""
    shapes = [np.asarray(t).shape for t in tensors]
    flat = np.concatenate([np.asarray(t, dtype=np.float64).reshape(-1) for t in tensors])
    return flat, shapes


def unpack_flat(flat_tensor, shapes):
    """Split a flat graph tensor back into shaped graph tensors."""
    pieces = []
    offset = 0
    for shape in shapes:
        size = int(np.prod(shape)) if shape else 1
        pieces.append(el.segment(flat_tensor, offset, offset + size).reshape(shape))
        offset += size
    return pieces


# -- elementary-op chains that the fused ops replace --------------------------------


def affine_chain(x, w, b):
    """x @ w + b as one node; (S, B, F) rows, (S, F, H) weights and (S, H) biases give (S, B, H)."""
    return node(
        x.data @ w.data + np.expand_dims(b.data, -2),
        (x, w, b),
        lambda g: (g @ w.data.swapaxes(-1, -2), x.data.swapaxes(-1, -2) @ g, g.sum(axis=-2)),
    )


def relu_chain(t):
    mask = t.data > 0.0
    return node(np.maximum(t.data, 0.0), (t,), lambda g: (g * mask,))


def tanh_chain(t):
    y = np.tanh(t.data)
    return node(y, (t,), lambda g: (g * (1.0 - y * y),))


def softmax_chain(t):
    """Softmax over the last axis with the max-shift, as one node."""
    e = np.exp(t.data - t.data.max(axis=-1, keepdims=True))
    s = e / e.sum(axis=-1, keepdims=True)
    return node(s, (t,), lambda g: (s * (g - (g * s).sum(axis=-1, keepdims=True)),))


def dense_chain(x, w, b, activation=None):
    z = affine_chain(x, w, b)
    if activation == "tanh":
        return tanh_chain(z)
    if activation == "relu":
        return relu_chain(z)
    return z


def squared_error_sum_chain(target, pred):
    """Summed over the last axis: (B,) gives a scalar, (S, B) the (S,) per-run sums."""
    return el.sum(el.square(el.sub(target, pred)), axis=-1)


def softmax_cross_entropy_chain(logits, onehot, floor):
    """Mean over the rows: (B, C) gives a scalar, (S, B, C) the (S,) per-run losses."""
    picked = el.sum(el.mul(softmax_chain(logits), onehot), axis=-1)
    return el.mul(el.mean(el.log(el.clamp(picked, floor, 1.0)), axis=-1), -1.0)


def softmax_cross_entropy_pair_ref(z, onehot, floor, g):
    """The cross-entropy pair's arrays in their general form: (loss, the logits' gradient for loss gradient ``g``).

    The softmax Jacobian-vector product sums ``g_s * s`` over each row,
    where ``tensor.softmax_cross_entropy_backward`` reads the row's one
    picked product for a 0/1 mask; the forward reduces through the ndarray
    methods.
    """
    e = np.exp(z - z.max(axis=-1, keepdims=True))
    s = e / e.sum(axis=-1, keepdims=True)
    picked = (s * onehot).sum(axis=-1)
    clamped = np.minimum(np.maximum(picked, floor), 1.0)
    loss = np.log(clamped).sum(axis=-1) / picked.shape[-1] * -1.0
    inside = (picked > floor) & (picked < 1.0)
    g_picked = (g * -1.0 / picked.shape[-1])[..., None] / clamped * inside
    g_s = g_picked[..., None] * onehot
    inner = (g_s * s).sum(axis=-1, keepdims=True)
    return loss, s * (g_s - inner)


def weighted_log_sum_chain(x, coefficients, floor):
    """Summed over the last two axes: (B, B) gives a scalar, (S, B, B) the (S,) per-run sums."""
    return el.sum(el.mul(el.log(el.clamp(x, floor, 1.0)), coefficients), axis=(-2, -1))


def combined_loss_chain(y, y_pred, embeddings, mining, hs, config):
    """(total, mse, con or None) of ``combined_loss_terms``, as the chain of graph ops.

    ``mse + (weighted_log_sum(pairwise_similarity(e), K) [+ constant]) * alpha``,
    one node per op, with ``K`` and the wcl constant built from ``mining``
    (and, for wcl, the scores ``hs``) as the loss builds them.
    """
    mse = squared_error_sum(losses._mse_target(y, y_pred), y_pred)
    if not config.contrastive or config.alpha == 0.0:
        return mse, mse, None
    scores = np.asarray(hs, dtype=np.float64).reshape(embeddings.shape[:-1]) if config.weighted else None
    targets = losses._targets(mining, scores, config.eps)
    sims = el.pairwise_similarity(embeddings, config.similarity)
    con = weighted_log_sum(sims, targets.coefficients, config.sim_floor)
    if targets.constant is not None:
        con = el.add(con, targets.constant)
    return el.add(mse, el.mul(con, config.alpha)), mse, con


def average_ranks_loop(values):
    """1-based average ranks by walking each tie run of the stable sort in a Python loop."""
    v = np.asarray(values, dtype=np.float64).reshape(-1)
    n = v.size
    order = np.argsort(v, kind="stable")
    ranks = np.empty(n, dtype=np.float64)
    i = 0
    while i < n:
        j = i
        while j + 1 < n and v[order[j + 1]] == v[order[i]]:
            j += 1
        ranks[order[i : j + 1]] = 0.5 * (i + j) + 1.0
        i = j + 1
    return ranks


# -- training loops with every step built from scratch ---------------------------------


def mlp_ref(net, x):
    """``x`` through every layer of ``net``, one ``dense`` node per layer."""
    x = x if isinstance(x, Tensor) else Tensor(x)
    for w, b, activation in zip(net.weights, net.biases, net.activations()):
        x = dense(x, w, b, activation)
    return x


def _val_mse_ref(encoder, reg, x_val, y_val):
    """Each run's validation MSE from (S, N, F) features; NaN for an empty split."""
    if y_val.shape[-1] == 0:
        return [float("nan")] * len(y_val)
    pred = mlp_ref(reg, mlp_ref(encoder, x_val)).data[..., 0]
    return [float(np.mean((p - y) ** 2)) for p, y in zip(pred, y_val)]


def _ref_networks(runs, *prefixes):
    """The named networks of a ``training._Runs``, run axis kept, as graph leaves, and their trained leaves.

    Each weight and bias is a leaf that shares memory with its view, so it
    sees every Adam update. A trained one takes a gradient, and the trained
    leaves come with their views of the Adam gradient buffer, for
    ``loss_gradients``.
    """
    nets, params, views = [], [], []
    for prefix in prefixes:
        net, layers = runs.network(prefix, (runs.n_runs,))
        weights, biases = [], []
        for w, b, _, gw, gb in layers:
            weights.append(Tensor(w, requires_grad=gw is not None))
            biases.append(Tensor(b, requires_grad=gw is not None))
            if gw is not None:
                params += [weights[-1], biases[-1]]
                views += [gw, gb]
        nets.append(type(net)(net.widths, net.activation, weights, biases))
    return nets, params, views


def pretrain_runs_ref(x_train, y_train, x_val, y_val, config, hidden, activation, data_metas, seeds):
    """Lock-step pre-training, one ``take``, one ``mine_batch`` and one loss ``K`` per step."""
    t = training
    n_runs = len(seeds)
    x_train, x_val = (t._per_run(a, n_runs, 2, "ref") for a in (x_train, x_val))
    y_train, y_val = (t._per_run(a, n_runs, 1, "ref") for a in (y_train, y_val))
    n = x_train.shape[-2]
    widths = [int(x_train.shape[-1]), *hidden]
    nets = {
        "encoder": [init_encoder(widths, t._sub_seed(s, t._STREAM_ENCODER), activation) for s in seeds],
        "reg": [init_regression_head(widths[-1], t._sub_seed(s, t._STREAM_REG_HEAD)) for s in seeds],
    }
    runs = t._Runs("pretrain", config, seeds, nets, ("encoder", "reg"), {}, [{}] * n_runs)  # metadata is built here
    (encoder, reg), params, grad_views = _ref_networks(runs, "encoder", "reg")
    state = runs.state
    needs_mining = config.loss.contrastive and config.loss.alpha > 0.0
    x_rows, y_rows = t._flat_rows(x_train), t._flat_rows(y_train)

    def snapshot(epoch, s):
        meta = {
            "stage": "pretrain",
            "epoch": epoch,
            "adam_step": state.step,
            "model": {"widths": widths, "activation": activation},
            "train": asdict(replace(config, seed=seeds[s])),
            "data": data_metas[s] or {},
        }
        return Checkpoint({name: a[s].copy() for name, a in runs.params.items()}, meta)

    traces = [[] for _ in seeds]
    best, best_epoch, best_val = [None] * n_runs, [-1] * n_runs, [math.inf] * n_runs
    for epoch in range(config.epochs):
        lr = t.cosine_lr(epoch, config)
        orders = t._epoch_rows(seeds, epoch, n, (n_runs,))
        sums = [[0.0, 0.0, 0.0] for _ in seeds]
        n_batches = 0
        for start in range(0, n - config.batch_size + 1, config.batch_size):
            idx = orders[..., start : start + config.batch_size]
            xb, yb = x_rows.take(idx, axis=0), y_rows.take(idx, axis=0)
            embeddings = mlp_ref(encoder, xb)
            y_hat = mlp_ref(reg, embeddings).reshape(embeddings.shape[:-1])
            mining = mine_batch(yb) if needs_mining else None
            total, mse_term, con_term = combined_loss_chain(yb, y_hat, embeddings, mining, yb, config.loss)
            terms = zip(
                total.data.reshape(-1).tolist(),
                mse_term.data.reshape(-1).tolist(),
                con_term.data.reshape(-1).tolist() if con_term is not None else [0.0] * n_runs,
            )
            for run_sums, values in zip(sums, terms):
                for k, value in enumerate(values):
                    run_sums[k] += value
            grad = loss_gradients(total, params, state.grad, grad_views)
            t.adam_step(state, grad, lr, config.beta1, config.beta2, config.adam_eps)
            n_batches += 1
        for s, val_mse in enumerate(_val_mse_ref(encoder, reg, x_val, y_val)):
            loss, mse, contrast = (v / n_batches for v in sums[s])
            traces[s].append(
                {"epoch": epoch, "lr": lr, "loss": loss, "mse": mse, "contrast": contrast, "val_mse": val_mse}
            )
            if val_mse < best_val[s]:
                best_val[s], best_epoch[s], best[s] = val_mse, epoch, snapshot(epoch, s)
    results = []
    for s, trace in enumerate(traces):
        trace.append({**trace[-1], "epoch": config.epochs, "lr": t.cosine_lr(config.epochs, config)})
        final = snapshot(config.epochs - 1, s)
        if best[s] is None:
            best[s], best_epoch[s] = final, config.epochs - 1
        results.append(t.PretrainResult(final, best[s], best_epoch[s], trace))
    return results


def finetune_runs_ref(pretrained, xp_train, xn_train, y_train, xp_val, xn_val, y_val, config, cls_hidden, seeds):
    """Lock-step fine-tuning, a ``take`` per array, ``concat_last`` and a one-hot label mask per step."""
    t = training
    n_runs = len(pretrained)
    n = np.shape(y_train)[-1]
    xp_train, xn_train, xp_val, xn_val = (
        t._per_run(a, n_runs, 2, "ref") for a in (xp_train, xn_train, xp_val, xn_val)
    )
    y_train, y_val = (t._per_run(a, n_runs, 1, "ref") for a in (y_train, y_val))
    encoders = [t.encoder_from_checkpoint(ck) for ck in pretrained]
    heads = {
        s: init_classifier_head(encoders[0].embedding_dim, t._sub_seed(s, t._STREAM_CLS_HEAD), cls_hidden)
        for s in dict.fromkeys(seeds)
    }
    frozen = config.freeze_encoder
    nets = {"encoder": encoders, "cls": [heads[s] for s in seeds]}
    trained = ("cls",) if frozen else ("encoder", "cls")
    runs = t._Runs("finetune", config, seeds, nets, trained, {}, [{}] * n_runs)  # metadata is built here
    (encoder, cls), params, grad_views = _ref_networks(runs, "encoder", "cls")
    state = runs.state
    y_rows = t._flat_rows(y_train)
    if frozen:
        xp_rows = t._flat_rows(mlp_ref(encoder, xp_train).data)
        xn_rows = t._flat_rows(mlp_ref(encoder, xn_train).data)
        up_val, un_val = mlp_ref(encoder, xp_val), mlp_ref(encoder, xn_val)
    else:
        xp_rows, xn_rows = t._flat_rows(xp_train), t._flat_rows(xn_train)

    def val_metrics():
        if frozen:
            logits = mlp_ref(cls, el.concat_last([up_val, un_val])).data
        else:
            pairs = [mlp_ref(encoder, xp_val), mlp_ref(encoder, xn_val)]
            logits = mlp_ref(cls, el.concat_last(pairs)).data
        out = []
        for run_logits, labels in zip(logits, y_val):
            report = t.compute_metrics(np.argmax(run_logits, axis=-1), labels)
            out.append((report.accuracy, report.macro_f1))
        return out

    def snapshot(epoch, s):
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
            "train": asdict(replace(config, seed=seeds[s])),
            "pretrain_train": pretrained[s].meta.get("train"),
            "data": pretrained[s].meta.get("data", {}),
        }
        return Checkpoint({name: a[s].copy() for name, a in runs.params.items()}, meta)

    histories = [[] for _ in seeds]
    best, best_epoch, best_f1 = [None] * n_runs, [-1] * n_runs, [-math.inf] * n_runs
    for epoch in range(config.epochs):
        lr = t.cosine_lr(epoch, config)
        orders = t._epoch_rows(seeds, epoch, n, (n_runs,))
        ce_sums = [0.0] * n_runs
        n_batches = 0
        for start in range(0, n, config.batch_size):
            idx = orders[..., start : start + config.batch_size]
            xp, xn = Tensor(xp_rows.take(idx, axis=0)), Tensor(xn_rows.take(idx, axis=0))
            if not frozen:
                xp, xn = mlp_ref(encoder, xp), mlp_ref(encoder, xn)
            logits = mlp_ref(cls, el.concat_last([xp, xn]))
            onehot = y_rows.take(idx, axis=0)[..., None] == np.arange(logits.shape[-1])
            ce = softmax_cross_entropy(logits, onehot, PROB_FLOOR)
            for s, ce_val in enumerate(ce.data.reshape(-1).tolist()):
                ce_sums[s] += ce_val
            grad = loss_gradients(ce, params, state.grad, grad_views)
            t.adam_step(state, grad, lr, config.beta1, config.beta2, config.adam_eps)
            n_batches += 1
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
                best_f1[s], best_epoch[s], best[s] = macro_f1, epoch, snapshot(epoch, s)
    results = []
    for s, history in enumerate(histories):
        history.append({**history[-1], "epoch": config.epochs, "lr": t.cosine_lr(config.epochs, config)})
        final = snapshot(config.epochs - 1, s)
        if best[s] is None:
            best[s], best_epoch[s] = final, config.epochs - 1
        results.append(t.FinetuneResult(final, best[s], best_epoch[s], history))
    return results


class Scan(NamedTuple):
    """One scan as the oracles hold it: its patient, seq_index, (F,) features and score."""

    patient_id: str
    seq_index: int
    features: np.ndarray
    score: float


def scans_of(cohort: Cohort) -> list[list[Scan]]:
    """Each patient's scans of ``cohort``, one ``Scan`` of Python scalars and a row copy at a time."""
    series, row = [], 0
    for pid, n in zip(cohort.patient_ids, cohort.scans.tolist()):
        series.append([
            Scan(pid, int(cohort.seq_index[k]), np.array(cohort.features[k]), float(cohort.scores[k]))
            for k in range(row, row + n)
        ])
        row += n
    return series


def cohort_of(scans: list[Scan], n_features: int = 0) -> Cohort:
    """The ``Cohort`` of ``scans``, given patient by patient in order; (0, ``n_features``) features for none."""
    if not scans:
        return Cohort([], [], [], np.zeros((0, n_features)))
    pids, seqs, feats, scores = zip(*scans)
    return Cohort(pids, seqs, scores, np.stack(feats))


def first_scans(cohort: Cohort, keep) -> Cohort:
    """``cohort`` with only patient k's first ``keep(k)`` scans."""
    return cohort_of([scan for k, scans in enumerate(scans_of(cohort)) for scan in scans[: keep(k)]])


def generate_synthetic_ref(spec):
    """The synthetic cohort one patient and one scan at a time: per scan a ``rng.normal`` call per draw and ``mixing @ z``."""
    rng = np.random.default_rng(spec.seed)
    readout = rng.normal(size=spec.latent_dim)
    readout /= np.linalg.norm(readout)
    # orthonormal mixing columns keep the latent-to-feature map full rank
    mixing, _ = np.linalg.qr(rng.normal(size=(spec.n_features, spec.latent_dim)))

    width = len(str(spec.n_patients - 1))
    scans = []
    for p in range(spec.n_patients):
        pid = f"p{p:0{width}d}"
        z = rng.normal(scale=spec.base_scale, size=spec.latent_dim)
        drift = rng.normal(scale=spec.drift_scale, size=spec.latent_dim)
        for t in range(spec.scans_per_patient):
            if t > 0:
                z = z + drift + rng.normal(scale=spec.step_scale, size=spec.latent_dim)
            score = spec.hs_center + spec.hs_scale * float(readout @ z)
            feats = mixing @ z + spec.noise * rng.normal(size=spec.n_features)
            scans.append(Scan(pid, t, feats, score))
    return cohort_of(scans)


def save_dataset_ref(cohort, path) -> None:
    """The dataset CSV writer with one ``repr(float(v))`` per numpy scalar and one ``writerow`` per scan."""
    header = ["patient_id", "seq_index", "health_score"] + [f"f{i}" for i in range(cohort.features.shape[1])]
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        for series in scans_of(cohort):
            for scan in series:
                writer.writerow(
                    [scan.patient_id, scan.seq_index, repr(float(scan.score))]
                    + [repr(float(v)) for v in scan.features]
                )


def load_dataset_ref(path):
    """The dataset loader with the whole file in memory, one ``csv.reader`` row, one ``float()`` per value and one array per row.

    The file is decoded whole, then read into rows whole, so bytes that are
    not UTF-8 anywhere raise first (naming their physical line), then a
    ``csv.Error`` (naming its row), and only then are the header and rows
    checked. A leading byte-order mark is dropped (``utf-8-sig``), as the
    library's loader drops it.
    """
    with open(path, "rb") as fh:
        raw = fh.read()
    try:
        text = raw.decode("utf-8-sig")
    except UnicodeDecodeError as exc:
        line = exc.object.count(b"\n", 0, exc.start) + 1
        raise DatasetError(f"{path}: line {line}: not UTF-8 text") from None
    rows: list[list[str]] = []
    try:
        for row in csv.reader(io.StringIO(text, newline="")):
            rows.append(row)
    except csv.Error as exc:
        raise DatasetError(f"{path}: line {len(rows) + 1}: {exc}") from None
    if not rows:
        raise DatasetError(f"{path}: no records")
    header = rows[0]
    if header[:3] != ["patient_id", "seq_index", "health_score"]:
        raise DatasetError(
            f"{path}: line 1: header must start with patient_id,seq_index,health_score"
        )
    feature_names = header[3:]
    if feature_names != [f"f{i}" for i in range(len(feature_names))] or not feature_names:
        raise DatasetError(f"{path}: line 1: feature columns must be f0..f{{F-1}}")
    n_features = len(feature_names)

    seen: set[tuple[str, int]] = set()
    by_patient: dict[str, list[Scan]] = {}
    for lineno, row in enumerate(rows[1:], start=2):
        if not row:
            continue
        if len(row) != 3 + n_features:
            raise DatasetError(
                f"{path}: line {lineno}: expected {3 + n_features} fields, got {len(row)}"
            )
        pid = row[0]
        if not pid:
            raise DatasetError(f"{path}: line {lineno}: empty patient_id")
        try:
            seq = int(row[1])
        except ValueError:
            raise DatasetError(f"{path}: line {lineno}: seq_index {row[1]!r} is not an integer") from None
        if seq < 0:
            raise DatasetError(f"{path}: line {lineno}: seq_index must be non-negative, got {seq}")
        if seq >= 2**63:
            raise DatasetError(f"{path}: line {lineno}: seq_index must be at most 2**63 - 1, got {seq}")
        try:
            values = [float(v) for v in row[2:]]
        except ValueError:
            raise DatasetError(f"{path}: line {lineno}: non-numeric value") from None
        if not all(math.isfinite(v) for v in values):
            raise DatasetError(f"{path}: line {lineno}: non-finite value")
        key = (pid, seq)
        if key in seen:
            raise DatasetError(f"{path}: line {lineno}: duplicate (patient_id, seq_index) {key}")
        seen.add(key)
        by_patient.setdefault(pid, []).append(Scan(pid, seq, np.asarray(values[1:], dtype=np.float64), values[0]))
    if not by_patient:
        raise DatasetError(f"{path}: no records")
    return cohort_of([scan for scans in by_patient.values() for scan in sorted(scans, key=lambda s: s.seq_index)])


_SF_EDGES = (430.0, 275.0, 180.0)


def categorize_sf_ref(sf):
    """Clinical S/F bin, 0 (best) through 3 (worst)."""
    if not sf > 0:
        raise DomainError(f"categorize_sf: S/F ratio must be positive, got {sf}")
    if sf > _SF_EDGES[0]:
        return 0
    if sf >= _SF_EDGES[1]:
        return 1
    if sf >= _SF_EDGES[2]:
        return 2
    return 3


def normalize_ref(stats, value):
    """``value`` min-max scaled by ``stats`` and clamped to [0, 1]."""
    span = stats.hs_max - stats.hs_min
    if span <= 0:
        raise ConfigError(f"normalize: degenerate stats, hs_min == hs_max == {stats.hs_min}")
    return min(1.0, max(0.0, (value - stats.hs_min) / span))


def change_label_ref(prev_hs, next_hs, stats=None, mode="bin", tau=DEFAULT_TAU):
    """3-way change label for a consecutive scan pair.

    ``bin`` compares S/F bins (lower bin number = healthier); ``threshold``
    compares the normalized score change against ±tau, with the direction
    flag deciding which sign counts as improvement.
    """
    if not (math.isfinite(prev_hs) and math.isfinite(next_hs)):
        raise DomainError(f"pair_labels: scores must be finite, got {prev_hs}, {next_hs}")
    if mode == "bin":
        prev_bin, next_bin = categorize_sf_ref(prev_hs), categorize_sf_ref(next_hs)
        if next_bin < prev_bin:
            return IMPROVED
        if next_bin > prev_bin:
            return DETERIORATED
        return SAME
    if mode == "threshold":
        if stats is None:
            raise ConfigError("pair_labels: threshold mode needs normalization stats")
        sign = 1.0 if stats.higher_is_better else -1.0
        delta = (normalize_ref(stats, next_hs) - normalize_ref(stats, prev_hs)) * sign
        if delta > tau:
            return IMPROVED
        if delta < -tau:
            return DETERIORATED
        return SAME
    raise ConfigError(f"pair_labels: unknown label mode {mode!r}")


@dataclass
class PairExample:
    prev: Scan
    next: Scan
    label: int


def make_pairs_ref(series, stats=None, mode="bin", tau=DEFAULT_TAU):
    """One labeled example per consecutive scan pair within each patient's list of ``Scan``."""
    if mode not in LABEL_MODES:
        raise ConfigError(f"pair_labels: unknown label mode {mode!r}")
    pairs = []
    for scans in series:
        for prev, nxt in zip(scans, scans[1:]):
            label = change_label_ref(prev.score, nxt.score, stats, mode, tau)
            pairs.append(PairExample(prev, nxt, label))
    return pairs


def _feature_matrix(rows, n_features):
    """(N, n_features) float64 stack of N feature vectors; (0, n_features) when N is 0."""
    if not rows:
        return np.zeros((0, n_features))
    return np.stack([np.asarray(r, dtype=np.float64) for r in rows])


def regression_arrays(scans, stats, n_features):
    """Feature matrix and normalized score vector for pre-training; empty for no scans."""
    x = _feature_matrix([s.features for s in scans], n_features)
    y = np.array([normalize_ref(stats, s.score) for s in scans], dtype=np.float64)
    return x, y


def pair_arrays(pairs, n_features):
    """(prev features, next features, labels) for the downstream task; empty for no pairs."""
    xp = _feature_matrix([p.prev.features for p in pairs], n_features)
    xn = _feature_matrix([p.next.features for p in pairs], n_features)
    labels = np.array([p.label for p in pairs], dtype=np.int64)
    return xp, xn, labels


def prepare_arrays_ref(cohort, seed, dcfg):
    """(regression, pairs) of ``prepare``: split -> one scan and one ``change_label_ref`` per pair.

    The training split's min and max are Python's ``min`` and ``max`` of its
    scores. A score the labels reject is bad input: its ``DomainError`` is
    raised as a ``ConfigError``.
    """
    series = {
        name: scans_of(split)
        for name, split in zip(("train", "val", "test"), split_patients(cohort, dcfg.fractions, seed))
    }
    train_scores = [scan.score for scans in series["train"] for scan in scans]
    if not train_scores:
        raise ConfigError("fit_normalization: no records")
    stats = NormalizationStats(min(train_scores), max(train_scores), dcfg.higher_is_better)
    n_features = cohort.features.shape[1]
    regression = {
        name: regression_arrays([scan for scans in split for scan in scans], stats, n_features)
        for name, split in series.items()
    }
    try:
        pairs = {
            name: pair_arrays(make_pairs_ref(split, stats, dcfg.label_mode, dcfg.tau), n_features)
            for name, split in series.items()
        }
    except DomainError as exc:
        raise ConfigError(str(exc)) from None
    return regression, pairs

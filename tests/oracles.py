"""Independent reference implementations used as test oracles.

Most of this is deliberately written as plain-Python scalar loops (or
selection-style algorithms) so it shares no code path with the library
implementations it checks.

The ``*_chain`` functions are the exception: each takes the arguments of a
fused op (``dense``, ``squared_error_sum``, ``softmax_cross_entropy``,
``weighted_log_sum``) and rebuilds the chain of elementary ops it replaces
(affine, activation, softmax, clamp, log, ...), one graph node per op from
``elementary``, so tests can require the fused ops to match them bit for
bit. ``combined_loss_chain`` is ``losses.combined_loss_terms`` as a chain of
one-node ops, 7 (cl) or 9 (wcl) nodes to the library's 3; it calls this
module's ``squared_error_sum`` and ``weighted_log_sum`` bindings, which a
test can replace with their chains.

So are the ``*_runs_ref`` training loops: they set up runs with the
library's own helpers, but build every step as the loops did before the
label- and data-only work moved out of the step (a ``take`` per batch and
array, ``mine_batch`` and the loss's own ``K`` per batch, a per-step
``concat_last`` and ``cross_entropy`` label check), and take the loss from
``combined_loss_chain``, so tests can require the hoisted, tape-free loops
to match them bit for bit. ``save_dataset_ref`` is the CSV
writer as it was, one numpy scalar at a time; ``load_dataset_ref`` is the
loader as it was, one ``csv.reader`` row and one ``float()`` at a time; and
``prepare_arrays_ref`` builds ``prepare``'s arrays as it did, one record and
one ``change_label`` per pair (with ``regression_arrays``/``pair_arrays``).
"""

from __future__ import annotations

import csv
import math
from dataclasses import asdict, replace

import numpy as np

import elementary as el
from hscl import losses, training
from hscl.data import (
    PatientSeries,
    ScanRecord,
    fit_normalization,
    make_pairs,
    records_of,
    split_patients,
)
from hscl.errors import DatasetError
from hscl.losses import cross_entropy, loss_gradients, mine_batch
from hscl.model import (
    ClassifierHead,
    EncoderParams,
    RegressionHead,
    classify_pairs,
    encode,
    init_classifier_head,
    init_encoder,
    init_regression_head,
    predict_hs,
)
from hscl.tensor import Tensor, node, squared_error_sum

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
    """x @ w + b as one node."""
    return node(x.data @ w.data + b.data, (x, w, b), lambda g: (g @ w.data.T, x.data.T @ g, g.sum(axis=0)))


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
    return el.sum(el.square(el.sub(target, pred)))


def softmax_cross_entropy_chain(logits, onehot, floor):
    picked = el.sum(el.mul(softmax_chain(logits), onehot), axis=-1)
    return el.mul(el.mean(el.log(el.clamp(picked, floor, 1.0))), -1.0)


def weighted_log_sum_chain(x, coefficients, floor):
    return el.sum(el.mul(el.log(el.clamp(x, floor, 1.0)), coefficients))


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


def pretrain_runs_ref(x_train, y_train, x_val, y_val, config, hidden, activation, data_metas, seeds):
    """Lock-step pre-training, one ``take``, one ``mine_batch`` and one loss ``K`` per step."""
    t = training
    n_runs, stacked = len(seeds), len(seeds) > 1
    x_train, x_val = (t._per_run(a, n_runs, 2, "ref") for a in (x_train, x_val))
    y_train, y_val = (t._per_run(a, n_runs, 1, "ref") for a in (y_train, y_val))
    n = x_train.shape[-2]
    widths = [int(x_train.shape[-1]), *hidden]
    encoders = [init_encoder(widths, t._sub_seed(s, t._STREAM_ENCODER), activation) for s in seeds]
    regs = [init_regression_head(widths[-1], t._sub_seed(s, t._STREAM_REG_HEAD)) for s in seeds]
    encoder, reg = encoders[0], regs[0]
    if stacked:
        encoder = EncoderParams(widths, activation, *t._stack_layers(encoders))
        reg = RegressionHead(t._stack([r.weight for r in regs]), t._stack([r.bias for r in regs]))
    named = t._named_params(encoder, reg)
    params = [p for _, p in named]
    state = t.AdamState.for_params(params)
    needs_mining = config.loss.contrastive and config.loss.alpha > 0.0
    x_rows, y_rows = t._flat_rows(x_train, n_runs), t._flat_rows(y_train, n_runs)

    def snapshot(epoch, s):
        meta = {
            "stage": "pretrain",
            "epoch": epoch,
            "adam_step": state.step,
            "model": {"widths": widths, "activation": activation},
            "train": asdict(replace(config, seed=seeds[s])),
            "data": data_metas[s] or {},
        }
        return t._snapshot(named, named, state, meta, s if stacked else None)

    traces = [[] for _ in seeds]
    best, best_epoch, best_val = [None] * n_runs, [-1] * n_runs, [math.inf] * n_runs
    for epoch in range(config.epochs):
        lr = t.cosine_lr(epoch, config)
        orders = t._epoch_rows(seeds, epoch, n)
        sums = [[0.0, 0.0, 0.0] for _ in seeds]
        n_batches = 0
        for start in range(0, n - config.batch_size + 1, config.batch_size):
            idx = orders[..., start : start + config.batch_size]
            xb, yb = x_rows.take(idx, axis=0), y_rows.take(idx, axis=0)
            embeddings = encode(encoder, xb)
            y_hat = predict_hs(reg, embeddings)
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
            grad = loss_gradients(total, params, state.grad, state.grads)
            t.adam_step(state, grad, lr, config.beta1, config.beta2, config.adam_eps)
            n_batches += 1
        for s, val_mse in enumerate(t._val_mse(encoder, reg, x_val, y_val, n_runs)):
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
    """Lock-step fine-tuning, a ``take`` per array, ``concat_last`` and ``cross_entropy`` per step."""
    t = training
    n_runs, stacked = len(pretrained), len(pretrained) > 1
    n = np.shape(y_train)[-1]
    xp_train, xn_train, xp_val, xn_val = (
        t._per_run(a, n_runs, 2, "ref") for a in (xp_train, xn_train, xp_val, xn_val)
    )
    y_train, y_val = (t._per_run(a, n_runs, 1, "ref") for a in (y_train, y_val))
    encoders = [t.encoder_from_checkpoint(ck) for ck in pretrained]
    encoder = encoders[0]
    heads = {
        s: init_classifier_head(encoder.embedding_dim, t._sub_seed(s, t._STREAM_CLS_HEAD), cls_hidden)
        for s in dict.fromkeys(seeds)
    }
    cls = heads[seeds[0]]
    if stacked:
        encoder = EncoderParams(encoder.widths, encoder.activation, *t._stack_layers(encoders))
        cls = ClassifierHead(cls.widths, cls.activation, *t._stack_layers([heads[s] for s in seeds]))
    frozen = config.freeze_encoder
    if not frozen:
        for p in encoder.trainable():
            p.requires_grad = True
    named_trained = t._named_params(None, cls=cls) if frozen else t._named_params(encoder, cls=cls)
    named_all = t._named_params(encoder, cls=cls)
    params = [p for _, p in named_trained]
    state = t.AdamState.for_params(params)
    y_rows = t._flat_rows(y_train, n_runs)
    if frozen:
        xp_rows = t._flat_rows(encode(encoder, xp_train).data, n_runs)
        xn_rows = t._flat_rows(encode(encoder, xn_train).data, n_runs)
        up_val, un_val = encode(encoder, xp_val).data, encode(encoder, xn_val).data
    else:
        xp_rows, xn_rows = t._flat_rows(xp_train, n_runs), t._flat_rows(xn_train, n_runs)

    def val_metrics():
        if frozen:
            logits = classify_pairs(cls, up_val, un_val).data
        else:
            logits = t._pair_logits(encoder, cls, xp_val, xn_val)
        out = []
        for run_logits, labels in zip(logits.reshape(n_runs, -1, logits.shape[-1]), np.reshape(y_val, (n_runs, -1))):
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
        return t._snapshot(named_all, named_trained, state, meta, s if stacked else None)

    histories = [[] for _ in seeds]
    best, best_epoch, best_f1 = [None] * n_runs, [-1] * n_runs, [-math.inf] * n_runs
    for epoch in range(config.epochs):
        lr = t.cosine_lr(epoch, config)
        orders = t._epoch_rows(seeds, epoch, n)
        ce_sums = [0.0] * n_runs
        n_batches = 0
        for start in range(0, n, config.batch_size):
            idx = orders[..., start : start + config.batch_size]
            xp, xn = xp_rows.take(idx, axis=0), xn_rows.take(idx, axis=0)
            if frozen:
                logits = classify_pairs(cls, xp, xn)
            else:
                logits = classify_pairs(cls, encode(encoder, xp), encode(encoder, xn))
            ce = cross_entropy(logits, y_rows.take(idx, axis=0))
            for s, ce_val in enumerate(ce.data.reshape(-1).tolist()):
                ce_sums[s] += ce_val
            grad = loss_gradients(ce, params, state.grad, state.grads)
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


def save_dataset_ref(collection, path) -> None:
    """The dataset CSV writer with one ``repr(float(v))`` per numpy scalar and one ``writerow`` per record."""
    n_features = collection[0].records[0].features.shape[-1]
    header = ["patient_id", "seq_index", "health_score"] + [f"f{i}" for i in range(n_features)]
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        for series in collection:
            for rec in series.records:
                feats = np.asarray(rec.features, dtype=np.float64).reshape(-1)
                writer.writerow(
                    [rec.patient_id, rec.seq_index, repr(float(rec.health_score))]
                    + [repr(float(v)) for v in feats]
                )


def load_dataset_ref(path):
    """The dataset loader with one ``csv.reader`` row, one ``float()`` per value and one array per record.

    A leading byte-order mark is dropped (``utf-8-sig``), as the library's loader drops it.
    """
    with open(path, "r", encoding="utf-8-sig", newline="") as fh:
        rows = list(csv.reader(fh))
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
    by_patient: dict[str, list[ScanRecord]] = {}
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
        by_patient.setdefault(pid, []).append(
            ScanRecord(pid, seq, np.asarray(values[1:], dtype=np.float64), values[0])
        )
    if not by_patient:
        raise DatasetError(f"{path}: no records")
    return [
        PatientSeries(pid, sorted(recs, key=lambda r: r.seq_index))
        for pid, recs in by_patient.items()
    ]


def normalize_hs(records, stats):
    """Copies of ``records`` with health scores mapped (and clamped) to [0, 1]."""
    return [replace(rec, health_score=stats.normalize(rec.health_score)) for rec in records]


def _feature_matrix(rows, n_features):
    """(N, n_features) float64 stack of N feature vectors; (0, n_features) when N is 0."""
    if not rows:
        return np.zeros((0, n_features))
    return np.stack([np.asarray(r, dtype=np.float64) for r in rows])


def regression_arrays(records, stats, n_features):
    """Feature matrix and normalized score vector for pre-training; empty for no records."""
    x = _feature_matrix([r.features for r in records], n_features)
    y = np.array([stats.normalize(r.health_score) for r in records], dtype=np.float64)
    return x, y


def pair_arrays(pairs, n_features):
    """(prev features, next features, labels) for the downstream task; empty for no pairs."""
    xp = _feature_matrix([p.prev.features for p in pairs], n_features)
    xn = _feature_matrix([p.next.features for p in pairs], n_features)
    labels = np.array([p.label for p in pairs], dtype=np.int64)
    return xp, xn, labels


def prepare_arrays_ref(collection, seed, dcfg):
    """(regression, pairs) of ``prepare``: split -> one record and one ``change_label`` per pair."""
    train_s, val_s, test_s = split_patients(collection, dcfg.fractions, seed)
    train_records = records_of(train_s)
    stats = fit_normalization(train_records, dcfg.higher_is_better)
    n_features = len(train_records[0].features)
    series = {"train": train_s, "val": val_s, "test": test_s}
    regression = {
        name: regression_arrays(records_of(split), stats, n_features)
        for name, split in series.items()
    }
    pairs = {
        name: pair_arrays(make_pairs(split, stats, dcfg.label_mode, dcfg.tau), n_features)
        for name, split in series.items()
    }
    return regression, pairs

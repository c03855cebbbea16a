"""Independent reference implementations used as test oracles.

Most of this is deliberately written as plain-Python scalar loops (or
selection-style algorithms) so it shares no code path with the library
implementations it checks.

The ``*_chain`` functions are the exception: each takes the arguments of a
fused op in ``hscl.tensor`` (``dense``, ``squared_error_sum``,
``softmax_cross_entropy``, ``weighted_log_sum``) and rebuilds the chain of
elementary ops it replaces (affine, activation, softmax, clamp, log, ...),
one graph node per op as the library used to, so tests can require the fused
ops to match them bit for bit.
"""

from __future__ import annotations

import math

import numpy as np

from hscl.tensor import Tensor, _accumulate, _node


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
        pieces.append(flat_tensor.segment(offset, offset + size).reshape(shape))
        offset += size
    return pieces


# -- elementary-op chains that the fused ops replace --------------------------------


def affine_chain(x, w, b):
    """x @ w + b as one node."""
    out = _node(x.data @ w.data + b.data, (x, w, b))
    if out._parents:
        def back(g):
            _accumulate(x, g @ w.data.T)
            _accumulate(w, x.data.T @ g)
            _accumulate(b, g.sum(axis=0))
        out._backward = back
    return out


def relu_chain(t):
    out = _node(np.maximum(t.data, 0.0), (t,))
    if out._parents:
        mask = t.data > 0.0
        out._backward = lambda g: _accumulate(t, g * mask)
    return out


def tanh_chain(t):
    y = np.tanh(t.data)
    out = _node(y, (t,))
    if out._parents:
        out._backward = lambda g: _accumulate(t, g * (1.0 - y * y))
    return out


def softmax_chain(t):
    """Softmax over the last axis with the max-shift, as one node."""
    e = np.exp(t.data - t.data.max(axis=-1, keepdims=True))
    s = e / e.sum(axis=-1, keepdims=True)
    out = _node(s, (t,))
    if out._parents:
        def back(g):
            inner = (g * s).sum(axis=-1, keepdims=True)
            _accumulate(t, s * (g - inner))
        out._backward = back
    return out


def dense_chain(x, w, b, activation=None):
    z = affine_chain(x, w, b)
    if activation == "tanh":
        return tanh_chain(z)
    if activation == "relu":
        return relu_chain(z)
    return z


def squared_error_sum_chain(target, pred):
    return (Tensor(target) - pred).square().sum()


def softmax_cross_entropy_chain(logits, onehot, floor):
    picked = (softmax_chain(logits) * Tensor(onehot)).sum(axis=-1)
    return picked.clamp(floor, 1.0).log().mean() * -1.0


def weighted_log_sum_chain(x, coefficients, floor):
    return (x.clamp(floor, 1.0).log() * Tensor(coefficients)).sum()


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

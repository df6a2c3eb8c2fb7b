"""Independent numerical oracles shared by the test modules.

Everything here is deliberately written without the package's autodiff:
central finite differences, scalar re-implementations, and brute-force
counting, so the tests check the library against a second, independent
route to the same numbers.  Two exceptions are built from the model's own
layers on purpose.  ``full_layer_logits`` is the full-width forward that
the [CLS]-only inference path must match, and training bit for bit.
``reference_train`` differentiates fresh leaves that own their gradients,
to check the shared gradient buffer and the in-place optimizer.
"""

from __future__ import annotations

import math

import numpy as np

from minibert import tensor as T
from minibert.evaluation import ConfusionMatrix, MetricsReport, _ratio
from minibert.model import ClassifierModel, as_stacked, trim_padding
from minibert.training import shuffle_epoch

FD_STEP = 1e-4
REL_TOL = 1e-3
ABS_TOL = 1e-6


def numeric_gradient(loss_fn, array: np.ndarray, step: float = FD_STEP) -> np.ndarray:
    """Central finite differences of ``loss_fn()`` w.r.t. ``array`` in place."""
    grad = np.zeros_like(array, dtype=np.float64)
    flat = array.reshape(-1)
    out = grad.reshape(-1)
    for i in range(flat.size):
        original = flat[i]
        flat[i] = original + step
        plus = loss_fn()
        flat[i] = original - step
        minus = loss_fn()
        flat[i] = original
        out[i] = (plus - minus) / (2.0 * step)
    return grad


def assert_grads_close(analytic, numeric, rtol: float = REL_TOL, atol: float = ABS_TOL):
    analytic = np.asarray(analytic, dtype=np.float64)
    numeric = np.asarray(numeric, dtype=np.float64)
    np.testing.assert_allclose(analytic, numeric, rtol=rtol, atol=atol)


# -- scalar references -----------------------------------------------------


def scalar_softmax(values: list[float]) -> list[float]:
    m = max(values)
    exp = [math.exp(v - m) for v in values]
    total = sum(exp)
    return [e / total for e in exp]


def scalar_gelu(x: float) -> float:
    return 0.5 * x * (1.0 + math.tanh(math.sqrt(2.0 / math.pi) * (x + 0.044715 * x**3)))


def scalar_layer_norm(row: list[float], gain: list[float], bias: list[float],
                      epsilon: float = 1e-5) -> list[float]:
    n = len(row)
    mean = sum(row) / n
    var = sum((v - mean) ** 2 for v in row) / n
    inv = 1.0 / math.sqrt(var + epsilon)
    return [(v - mean) * inv * g + b for v, g, b in zip(row, gain, bias)]


def scalar_adam_trace(grads: list[float], start: float, lr: float, beta1: float,
                      beta2: float, epsilon: float) -> list[float]:
    """Parameter values after each bias-corrected update on one scalar."""
    theta, m, v = start, 0.0, 0.0
    out = []
    for t, g in enumerate(grads, start=1):
        m = beta1 * m + (1.0 - beta1) * g
        v = beta2 * v + (1.0 - beta2) * g * g
        m_hat = m / (1.0 - beta1**t)
        v_hat = v / (1.0 - beta2**t)
        theta = theta - lr * m_hat / (math.sqrt(v_hat) + epsilon)
        out.append(theta)
    return out


def reference_adam_step(data, grad, m, v, t: int, lr: float, beta1: float,
                        beta2: float, epsilon: float):
    """One bias-corrected Adam update as plain out-of-place numpy
    expressions; returns new (data, m, v) and modifies nothing."""
    if grad is None:
        grad = np.zeros_like(data)
    m = beta1 * m + (1.0 - beta1) * grad
    v = beta2 * v + (1.0 - beta2) * grad * grad
    m_hat = m / (1.0 - beta1**t)
    v_hat = v / (1.0 - beta2**t)
    return data - lr * m_hat / (np.sqrt(v_hat) + epsilon), m, v


def reference_gelu(x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """GELU's value and tanh term as the plain numpy formula."""
    c = math.sqrt(2.0 / math.pi)
    t = np.tanh(c * (x + 0.044715 * x * x * x))
    return 0.5 * x * (1.0 + t), t


def reference_gelu_grad(x: np.ndarray, grad: np.ndarray) -> np.ndarray:
    """Vector-Jacobian product of GELU as the plain numpy formula."""
    c = math.sqrt(2.0 / math.pi)
    _, t = reference_gelu(x)
    d_inner = c * (1.0 + 3.0 * 0.044715 * x * x)
    return grad * (0.5 * (1.0 + t) + 0.5 * x * (1.0 - t * t) * d_inner)



def reference_softmax(x: np.ndarray, axis: int = -1) -> np.ndarray:
    """Softmax as the plain max-subtracted numpy formula."""
    shifted = x - x.max(axis=axis, keepdims=True)
    exp = np.exp(shifted)
    return exp / exp.sum(axis=axis, keepdims=True)


def reference_softmax_grad(probs: np.ndarray, grad: np.ndarray, axis: int = -1) -> np.ndarray:
    """Vector-Jacobian product of softmax as the plain numpy formula."""
    dot = (grad * probs).sum(axis=axis, keepdims=True)
    return (grad - dot) * probs


def reference_layer_norm(x, gain, bias, grad, epsilon: float = 1e-5):
    """Layer norm over the last axis and its three input gradients, as the
    plain out-of-place numpy formulas; returns (value, gx, g_gain, g_bias)."""
    mean = x.mean(axis=-1, keepdims=True)
    centered = x - mean
    var = (centered * centered).mean(axis=-1, keepdims=True)
    inv_std = 1.0 / np.sqrt(var + epsilon)
    normalized = centered * inv_std
    value = normalized * gain + bias
    lead = tuple(range(grad.ndim - 1))
    d_norm = grad * gain
    gx = inv_std * (
        d_norm
        - d_norm.mean(axis=-1, keepdims=True)
        - normalized * (d_norm * normalized).mean(axis=-1, keepdims=True)
    )
    return value, gx, (grad * normalized).sum(axis=lead), grad.sum(axis=lead)


def full_layer_logits(model, token_ids, segment_ids, attention_mask) -> np.ndarray:
    """Class logits with every encoder layer computed at every position,
    then the head on the last layer's [CLS] row: the forward pass as
    training runs it, composed from the model's own embedding, layer and
    head pieces."""
    p = model.params
    x = model.embed(token_ids, segment_ids)
    for i in range(model.config.num_layers):
        x = model.encoder_layer(x, attention_mask, i)
    pooled = T.tanh(T.matmul(x[:, 0, :], p["head.hidden_w"], p["head.hidden_b"]))
    return T.matmul(pooled, p["head.out_w"], p["head.out_b"]).data


def reference_train(model, train_set, config) -> dict[str, np.ndarray]:
    """The parameters ``training.train(model, train_set, _, config)``
    should reach, tensor by tensor: each batch, in ``train``'s order and
    trim, differentiates fresh leaves holding the current weights, and
    each tensor takes its own ``reference_adam_step``.  ``model`` is left
    alone."""
    data = {name: p.data.copy() for name, p in model.params.items()}
    m = {name: np.zeros_like(d) for name, d in data.items()}
    v = {name: np.zeros_like(d) for name, d in data.items()}
    probe = ClassifierModel(model.config, np.zeros_like(model.flat))
    inputs = as_stacked(train_set)
    n, t = len(train_set), 0
    for epoch in range(config.epochs):
        order = np.asarray(shuffle_epoch(list(range(n)), config.shuffle_seed, epoch))
        for start in range(0, n, config.batch_size):
            picked = order[start : start + config.batch_size]
            probe.params = {name: T.Tensor(d, requires_grad=True) for name, d in data.items()}
            batch = trim_padding(
                inputs.token_ids[picked], inputs.segment_ids[picked], inputs.attention_mask[picked]
            )
            T.cross_entropy(probe.forward(*batch), inputs.labels[picked]).backward()
            t += 1
            for name, leaf in probe.params.items():
                data[name], m[name], v[name] = reference_adam_step(
                    data[name], leaf.grad, m[name], v[name], t, config.learning_rate,
                    config.adam_beta1, config.adam_beta2, config.adam_epsilon,
                )
    return data


def out_of_place_backward(loss) -> dict[int, np.ndarray]:
    """Gradients of a scalar tensor ``loss`` w.r.t. every leaf that
    requires one, keyed by ``id(leaf)``.

    Walks the graph in the same order as ``Tensor.backward`` but sums each
    further contribution into a new array, so no array is ever written to;
    leaves' ``grad`` fields are left alone.
    """
    topo, seen, stack = [], set(), [(loss, False)]
    while stack:
        node, emitted = stack.pop()
        if emitted:
            topo.append(node)
        elif id(node) not in seen:
            seen.add(id(node))
            stack.append((node, True))
            stack.extend((p, False) for p in node._parents
                         if p.requires_grad and id(p) not in seen)
    grads = {id(loss): np.ones_like(loss.data)}
    leaves = {}
    for node in reversed(topo):
        grad = grads.pop(id(node), None)
        if grad is None:
            continue
        if node._vjp is None:
            leaves[id(node)] = grad
            continue
        for parent, contribution in zip(node._parents, node._vjp(grad)):
            if contribution is not None and parent.requires_grad:
                key = id(parent)
                grads[key] = contribution if key not in grads else grads[key] + contribution
    return leaves


CJK_RANGES = (
    (0x4E00, 0x9FFF), (0x3400, 0x4DBF), (0x20000, 0x2A6DF), (0x2A700, 0x2B73F),
    (0x2B740, 0x2B81F), (0x2B820, 0x2CEAF), (0xF900, 0xFAFF), (0x2F800, 0x2FA1F),
)


def loop_segment_text(text: str) -> list[str]:
    """Segmentation by walking the characters: a CJK codepoint is a token,
    other non-whitespace runs are lowercased tokens, whitespace delimits."""
    tokens: list[str] = []
    run: list[str] = []
    for ch in text:
        cjk = any(lo <= ord(ch) <= hi for lo, hi in CJK_RANGES)
        if ch.isspace() or cjk:
            if run:
                tokens.append("".join(run).lower())
                run = []
            if cjk:
                tokens.append(ch)
        else:
            run.append(ch)
    if run:
        tokens.append("".join(run).lower())
    return tokens


def brute_force_vote(votes_per_example: list[int]) -> int:
    """Mode with lowest-class-index tie-break, by explicit counting."""
    best_class, best_count = None, -1
    for cls in sorted(set(votes_per_example)):
        count = sum(1 for v in votes_per_example if v == cls)
        if count > best_count:
            best_class, best_count = cls, count
    return best_class


def brute_force_confusion(predicted, actual, num_classes: int) -> np.ndarray:
    counts = np.zeros((num_classes, num_classes), dtype=np.int64)
    for p, a in zip(predicted, actual):
        counts[a][p] += 1
    return counts


# -- forked metric paths, kept as the reference for evaluation.metrics ---


def _binary_metrics(cm: ConfusionMatrix) -> MetricsReport:
    undefined = []
    accuracy = (cm.tp + cm.tn) / cm.total
    precision, p_undef = _ratio(cm.tp, cm.tp + cm.fp)
    recall, r_undef = _ratio(cm.tp, cm.tp + cm.fn)
    f1, f_undef = _ratio(2.0 * precision * recall, precision + recall)
    if p_undef:
        undefined.append("precision")
    if r_undef:
        undefined.append("recall")
    if f_undef:
        undefined.append("f1")
    return MetricsReport(
        accuracy=accuracy,
        precision=precision,
        recall=recall,
        f1=f1,
        confusion=cm,
        undefined=tuple(undefined),
    )


def _macro_metrics(cm: ConfusionMatrix) -> MetricsReport:
    counts = cm.counts
    accuracy = float(np.trace(counts)) / cm.total
    precisions, recalls, f1s = [], [], []
    undefined: set[str] = set()
    for c in range(cm.num_classes):
        tp = float(counts[c, c])
        p, pu = _ratio(tp, counts[:, c].sum())
        r, ru = _ratio(tp, counts[c, :].sum())
        f, fu = _ratio(2.0 * p * r, p + r)
        if pu:
            undefined.add("precision")
        if ru:
            undefined.add("recall")
        if fu:
            undefined.add("f1")
        precisions.append(p)
        recalls.append(r)
        f1s.append(f)
    return MetricsReport(
        accuracy=accuracy,
        precision=float(np.mean(precisions)),
        recall=float(np.mean(recalls)),
        f1=float(np.mean(f1s)),
        confusion=cm,
        undefined=tuple(sorted(undefined)),
    )

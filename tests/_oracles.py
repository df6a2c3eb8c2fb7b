"""Independent numerical oracles shared by the test modules.

Everything here is deliberately written without the package's autodiff:
central finite differences, scalar re-implementations, and brute-force
counting, so the tests check the library against a second, independent
route to the same numbers.
"""

from __future__ import annotations

import math

import numpy as np

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

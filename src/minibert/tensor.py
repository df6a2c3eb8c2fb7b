"""Reverse-mode automatic differentiation over dense numpy arrays.

Implements exactly the operations the classifier needs: matrix
multiplication (with leading batch dimensions), broadcast add/multiply,
reshape/transpose/indexing, reductions, tanh, GELU, softmax, layer
normalization and cross-entropy.  float32 is the working precision;
float64 inputs keep their dtype so numerical checks can run in double
precision.  All computation is deterministic for identical inputs.
"""

from __future__ import annotations

import contextlib
import math

import numpy as np

__all__ = [
    "Tensor",
    "ShapeError",
    "no_grad",
    "add",
    "mul",
    "matmul",
    "reshape",
    "transpose",
    "tensor_sum",
    "tensor_mean",
    "tanh",
    "gelu",
    "softmax",
    "layer_norm",
    "cross_entropy",
]

_FLOAT_DTYPES = (np.dtype(np.float32), np.dtype(np.float64))

# GELU tanh approximation: 0.5 * x * (1 + tanh(sqrt(2/pi) * (x + 0.044715 * x^3)))
_GELU_C = math.sqrt(2.0 / math.pi)
_GELU_A = 0.044715

# Process-wide graph-building switch; see ``no_grad``.
_grad_enabled = True


class ShapeError(ValueError):
    """Operand shapes are incompatible for the requested operation."""


class Tensor:
    """A dense row-major array plus the bookkeeping for backpropagation.

    Tensors produced by operations remember their inputs; calling
    :meth:`backward` on a scalar result accumulates gradients into every
    reachable leaf tensor that has ``requires_grad`` set.  Repeated
    backward calls accumulate further until :meth:`zero_grad`.
    """

    __slots__ = ("data", "requires_grad", "grad", "_parents", "_vjp")

    def __init__(self, data, requires_grad: bool = False):
        if isinstance(data, (np.ndarray, np.floating)) and data.dtype in _FLOAT_DTYPES:
            # keep float32/float64 arrays and numpy scalars (e.g. reduction
            # results) at their own precision
            arr = np.asarray(data)
        else:
            # python scalars, lists, and integer arrays land in the working precision
            arr = np.asarray(data, dtype=np.float32)
        self.data = arr
        self.requires_grad = requires_grad
        self.grad: np.ndarray | None = None
        self._parents: tuple[Tensor, ...] = ()
        self._vjp = None

    @property
    def shape(self) -> tuple[int, ...]:
        return self.data.shape

    @property
    def ndim(self) -> int:
        return self.data.ndim

    @property
    def dtype(self):
        return self.data.dtype

    @property
    def size(self) -> int:
        return self.data.size

    def item(self) -> float:
        if self.data.size != 1:
            raise ValueError(f"item() requires a single-element tensor, got shape {self.shape}")
        return float(self.data.reshape(()))

    def zero_grad(self) -> None:
        self.grad = None

    def backward(self) -> None:
        """Accumulate d(self)/d(leaf) into every reachable leaf's ``grad``.

        ``self`` must be a scalar.  Intermediate gradients are discarded
        after propagation; only leaf tensors (those not produced by an
        operation) keep their ``grad``.
        """
        if self.data.size != 1:
            raise ValueError(f"backward() requires a scalar loss, got shape {self.shape}")
        topo: list[Tensor] = []
        seen: set[int] = set()
        stack: list[tuple[Tensor, bool]] = [(self, False)]
        while stack:
            node, emitted = stack.pop()
            if emitted:
                topo.append(node)
                continue
            if id(node) in seen:
                continue
            seen.add(id(node))
            stack.append((node, True))
            for parent in node._parents:
                if parent.requires_grad and id(parent) not in seen:
                    stack.append((parent, False))

        grads: dict[int, np.ndarray] = {id(self): np.ones_like(self.data)}
        for node in reversed(topo):
            grad = grads.pop(id(node), None)
            if grad is None:
                continue
            if node._vjp is None:
                if node.requires_grad:
                    node.grad = grad if node.grad is None else node.grad + grad
                continue
            for parent, contribution in zip(node._parents, node._vjp(grad)):
                if contribution is None or not parent.requires_grad:
                    continue
                key = id(parent)
                grads[key] = contribution if key not in grads else grads[key] + contribution

    # -- operator sugar -------------------------------------------------

    def __add__(self, other):
        return add(self, other)

    __radd__ = __add__

    def __mul__(self, other):
        return mul(self, other)

    __rmul__ = __mul__

    def __neg__(self):
        return mul(self, -1.0)

    def __sub__(self, other):
        return add(self, mul(other, -1.0))

    def __rsub__(self, other):
        return add(mul(self, -1.0), other)

    def __matmul__(self, other):
        return matmul(self, other)

    def __getitem__(self, key):
        return take(self, key)

    def reshape(self, *shape) -> "Tensor":
        if len(shape) == 1 and isinstance(shape[0], (tuple, list)):
            shape = tuple(shape[0])
        return reshape(self, shape)

    def transpose(self, *axes) -> "Tensor":
        if len(axes) == 1 and isinstance(axes[0], (tuple, list)):
            axes = tuple(axes[0])
        return transpose(self, axes or None)

    def swapaxes(self, a: int, b: int) -> "Tensor":
        axes = list(range(self.ndim))
        axes[a], axes[b] = axes[b], axes[a]
        return transpose(self, tuple(axes))

    def sum(self, axis=None, keepdims: bool = False) -> "Tensor":
        return tensor_sum(self, axis=axis, keepdims=keepdims)

    def mean(self, axis=None, keepdims: bool = False) -> "Tensor":
        return tensor_mean(self, axis=axis, keepdims=keepdims)

    def __repr__(self) -> str:
        flag = ", requires_grad=True" if self.requires_grad else ""
        return f"Tensor(shape={self.shape}, dtype={self.data.dtype}{flag})"


@contextlib.contextmanager
def no_grad():
    """Build no autodiff graph inside the block, like ``torch.no_grad``.

    Operations return plain tensors with ``requires_grad`` unset, no
    parents and no backward closure, so activations are freed as soon as
    they are consumed.  The previous mode is restored on exit, also when
    the block raises.  The switch is process-wide: do not train in one
    thread while another runs inference.
    """
    global _grad_enabled
    previous = _grad_enabled
    _grad_enabled = False
    try:
        yield
    finally:
        _grad_enabled = previous


def as_tensor(value) -> Tensor:
    return value if isinstance(value, Tensor) else Tensor(value)


def _make(data: np.ndarray, parents: tuple[Tensor, ...], vjp) -> Tensor:
    out = Tensor(data)
    if _grad_enabled and any(p.requires_grad for p in parents):
        out.requires_grad = True
        out._parents = parents
        out._vjp = vjp
    return out


def _unbroadcast(grad: np.ndarray, shape: tuple[int, ...]) -> np.ndarray:
    """Sum ``grad`` over the axes numpy broadcasting introduced or expanded."""
    if grad.shape == shape:
        return grad
    extra = grad.ndim - len(shape)
    if extra:
        grad = grad.sum(axis=tuple(range(extra)))
    squeeze = tuple(i for i, n in enumerate(shape) if n == 1 and grad.shape[i] != 1)
    if squeeze:
        grad = grad.sum(axis=squeeze, keepdims=True)
    return grad.reshape(shape)


def add(a, b) -> Tensor:
    a, b = as_tensor(a), as_tensor(b)
    try:
        data = a.data + b.data
    except ValueError:
        raise ShapeError(f"cannot add shapes {a.shape} and {b.shape}") from None

    def vjp(grad):
        return (
            _unbroadcast(grad, a.data.shape) if a.requires_grad else None,
            _unbroadcast(grad, b.data.shape) if b.requires_grad else None,
        )

    return _make(data, (a, b), vjp)


def mul(a, b) -> Tensor:
    a, b = as_tensor(a), as_tensor(b)
    try:
        data = a.data * b.data
    except ValueError:
        raise ShapeError(f"cannot multiply shapes {a.shape} and {b.shape}") from None

    def vjp(grad):
        return (
            _unbroadcast(grad * b.data, a.data.shape) if a.requires_grad else None,
            _unbroadcast(grad * a.data, b.data.shape) if b.requires_grad else None,
        )

    return _make(data, (a, b), vjp)


def matmul(a, b) -> Tensor:
    """Matrix product; leading dimensions broadcast like ``numpy.matmul``.

    Backward: dA = dC @ B^T and dB = A^T @ dC, summed over broadcast axes.
    """
    a, b = as_tensor(a), as_tensor(b)
    if a.ndim < 2 or b.ndim < 2:
        raise ShapeError(f"matmul requires 2D+ operands, got {a.shape} @ {b.shape}")
    if a.shape[-1] != b.shape[-2]:
        raise ShapeError(f"matmul inner dimensions differ: {a.shape} @ {b.shape}")
    data = a.data @ b.data

    def vjp(grad):
        ga = gb = None
        if a.requires_grad:
            ga = _unbroadcast(grad @ b.data.swapaxes(-1, -2), a.data.shape)
        if b.requires_grad:
            gb = _unbroadcast(a.data.swapaxes(-1, -2) @ grad, b.data.shape)
        return ga, gb

    return _make(data, (a, b), vjp)


def reshape(x: Tensor, shape) -> Tensor:
    x = as_tensor(x)
    original = x.data.shape
    data = x.data.reshape(shape)

    def vjp(grad):
        return (grad.reshape(original),)

    return _make(data, (x,), vjp)


def transpose(x: Tensor, axes=None) -> Tensor:
    x = as_tensor(x)
    data = x.data.transpose(axes)
    inverse = None if axes is None else tuple(np.argsort(axes))

    def vjp(grad):
        return (grad.transpose(inverse),)

    return _make(data, (x,), vjp)


def take(x: Tensor, key) -> Tensor:
    """Index or slice ``x``; gradient scatter-adds back (duplicates accumulate)."""
    x = as_tensor(x)
    data = np.array(x.data[key])

    def vjp(grad):
        full = np.zeros_like(x.data, dtype=grad.dtype)
        np.add.at(full, key, grad)
        return (full,)

    return _make(data, (x,), vjp)


def tensor_sum(x: Tensor, axis=None, keepdims: bool = False) -> Tensor:
    x = as_tensor(x)
    data = x.data.sum(axis=axis, keepdims=keepdims)

    def vjp(grad):
        if axis is not None and not keepdims:
            grad = np.expand_dims(grad, axis)
        return (np.broadcast_to(grad, x.data.shape).copy(),)

    return _make(data, (x,), vjp)


def tensor_mean(x: Tensor, axis=None, keepdims: bool = False) -> Tensor:
    x = as_tensor(x)
    data = x.data.mean(axis=axis, keepdims=keepdims)
    count = x.data.size if axis is None else np.prod(
        [x.data.shape[i] for i in np.atleast_1d(axis)]
    )

    def vjp(grad):
        if axis is not None and not keepdims:
            grad = np.expand_dims(grad, axis)
        return (np.broadcast_to(grad, x.data.shape).copy() / count,)

    return _make(data, (x,), vjp)


def tanh(x: Tensor) -> Tensor:
    x = as_tensor(x)
    t = np.tanh(x.data)

    def vjp(grad):
        return (grad * (1.0 - t * t),)

    return _make(t, (x,), vjp)


def gelu(x: Tensor) -> Tensor:
    """Gaussian error linear unit, tanh approximation.

    gelu(x) = 0.5 * x * (1 + tanh(sqrt(2/pi) * (x + 0.044715 * x^3)))
    """
    x = as_tensor(x)
    xd = x.data
    inner = _GELU_C * (xd + _GELU_A * xd * xd * xd)
    t = np.tanh(inner)
    data = 0.5 * xd * (1.0 + t)

    def vjp(grad):
        d_inner = _GELU_C * (1.0 + 3.0 * _GELU_A * xd * xd)
        local = 0.5 * (1.0 + t) + 0.5 * xd * (1.0 - t * t) * d_inner
        return (grad * local,)

    return _make(data, (x,), vjp)


def softmax(x: Tensor, axis: int = -1) -> Tensor:
    """Softmax along ``axis``, computed with max subtraction for stability."""
    x = as_tensor(x)
    if not -x.ndim <= axis < x.ndim:
        raise ShapeError(f"softmax axis {axis} invalid for shape {x.shape}")
    shifted = x.data - x.data.max(axis=axis, keepdims=True)
    exp = np.exp(shifted)
    probs = exp / exp.sum(axis=axis, keepdims=True)

    def vjp(grad):
        dot = (grad * probs).sum(axis=axis, keepdims=True)
        return ((grad - dot) * probs,)

    return _make(probs, (x,), vjp)


def layer_norm(x: Tensor, gain: Tensor, bias: Tensor, epsilon: float = 1e-5) -> Tensor:
    """Normalize the last axis to zero mean / unit variance, then affine."""
    x, gain, bias = as_tensor(x), as_tensor(gain), as_tensor(bias)
    width = x.shape[-1]
    if gain.shape != (width,) or bias.shape != (width,):
        raise ShapeError(
            f"layer_norm gain/bias must have shape ({width},), "
            f"got {gain.shape} and {bias.shape}"
        )
    mean = x.data.mean(axis=-1, keepdims=True)
    centered = x.data - mean
    var = (centered * centered).mean(axis=-1, keepdims=True)
    inv_std = 1.0 / np.sqrt(var + epsilon)
    normalized = centered * inv_std
    data = normalized * gain.data + bias.data

    def vjp(grad):
        gx = gg = gb = None
        lead = tuple(range(grad.ndim - 1))
        if gain.requires_grad:
            gg = (grad * normalized).sum(axis=lead)
        if bias.requires_grad:
            gb = grad.sum(axis=lead)
        if x.requires_grad:
            d_norm = grad * gain.data
            gx = inv_std * (
                d_norm
                - d_norm.mean(axis=-1, keepdims=True)
                - normalized * (d_norm * normalized).mean(axis=-1, keepdims=True)
            )
        return gx, gg, gb

    return _make(data, (x, gain, bias), vjp)


def cross_entropy(logits: Tensor, labels) -> Tensor:
    """Mean over the batch of -log softmax(logits)[label].

    Backward distributes (softmax(logits) - one_hot(label)) / batch.
    """
    logits = as_tensor(logits)
    if logits.ndim != 2:
        raise ShapeError(f"cross_entropy expects (batch, classes) logits, got {logits.shape}")
    labels = np.asarray(labels)
    if labels.ndim != 1 or labels.shape[0] != logits.shape[0]:
        raise ShapeError(
            f"labels shape {labels.shape} does not match batch of {logits.shape[0]}"
        )
    n, classes = logits.shape
    if labels.size and (labels.min() < 0 or labels.max() >= classes):
        raise ValueError(f"labels must lie in [0, {classes}), got range "
                         f"[{labels.min()}, {labels.max()}]")
    shifted = logits.data - logits.data.max(axis=1, keepdims=True)
    exp = np.exp(shifted)
    probs = exp / exp.sum(axis=1, keepdims=True)
    log_probs = shifted - np.log(exp.sum(axis=1, keepdims=True))
    rows = np.arange(n)
    data = np.asarray(-log_probs[rows, labels].mean(), dtype=logits.dtype)

    def vjp(grad):
        local = probs.copy()
        local[rows, labels] -= 1.0
        return (grad * local / n,)

    return _make(data, (logits,), vjp)

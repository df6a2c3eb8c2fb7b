"""Reverse-mode automatic differentiation over dense numpy arrays.

Implements exactly the operations the classifier needs: matrix
multiplication (with leading batch dimensions), broadcast add/multiply,
reshape/transpose/indexing, reductions, tanh, GELU, softmax, layer
normalization and cross-entropy.  float32 is the working precision;
float64 inputs keep their dtype so numerical checks can run in double
precision.  All computation is deterministic for identical inputs.

Three ops fold a neighbouring add into their own node, which saves one
graph node and one stored activation each: ``matmul(a, w, bias)``,
``layer_norm(x, gain, bias, residual=r)`` and ``softmax(x, bias=mask)``.
Each gives results bit for bit equal to its unfused composition.
"""

from __future__ import annotations

import contextlib
import math

import numpy as np

__all__ = [
    "Tensor",
    "ShapeError",
    "no_grad",
    "grad_enabled",
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
    backward calls accumulate further until :meth:`zero_grad`.  A leaf's
    ``grad`` is only ever written in place, so it may be a view into a
    larger buffer, such as ``ClassifierModel.grad``.
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
        """Zero ``grad`` in place; a leaf without one keeps none."""
        if self.grad is not None:
            self.grad.fill(0)

    def backward(self) -> None:
        """Accumulate d(self)/d(leaf) into every reachable leaf's ``grad``.

        ``self`` must be a scalar.  Intermediate gradients are discarded
        after propagation; only leaf tensors (those not produced by an
        operation) keep their ``grad``.  A leaf's gradient is added into
        its ``grad`` array in place; a leaf without one stores a copy of
        its gradient, since one array can reach several leaves.
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
        # Keys whose buffer this loop allocated as the sum of two contributions.
        # Only those take later contributions in place: any other buffer may
        # be shared, as ``add`` hands one array to both parents, ``reshape``
        # returns views and a residual ``layer_norm`` gives one array to two.
        owned: set[int] = set()
        for node in reversed(topo):
            grad = grads.pop(id(node), None)
            if grad is None:
                continue
            if node._vjp is None:
                if node.requires_grad and node.grad is None:
                    node.grad = grad.copy()
                elif node.requires_grad:
                    node.grad += grad
                continue
            for parent, contribution in zip(node._parents, node._vjp(grad)):
                if contribution is None or not parent.requires_grad:
                    continue
                key = id(parent)
                if key not in grads:
                    grads[key] = contribution
                elif key in owned and contribution.dtype == grads[key].dtype:
                    grads[key] += contribution
                else:
                    grads[key] = grads[key] + contribution
                    owned.add(key)

    # -- operator sugar -------------------------------------------------

    def __add__(self, other):
        return add(self, other)

    __radd__ = __add__

    def __mul__(self, other):
        return mul(self, other)

    __rmul__ = __mul__

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


def grad_enabled() -> bool:
    """Whether operations currently build the autodiff graph (false inside
    ``no_grad``)."""
    return _grad_enabled


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


def matmul(a, b, bias=None) -> Tensor:
    """Matrix product; leading dimensions broadcast like ``numpy.matmul``.

    ``matmul(a, w, bias)`` is ``a @ w + bias`` as one node: the bias, of
    shape ``(w.shape[-1],)``, is added in place to the fresh product, and
    its gradient is the output gradient summed over the leading axes.

    Backward: dA = dC @ B^T and dB = A^T @ dC, summed over broadcast axes.
    A stack of rows times a 2-D weight, (..., K) @ (K, N), runs each
    gradient as one 2-D GEMM over the flattened rows instead of one GEMM
    per leading index plus a sum over them.  The forward does the same for
    a stack of single rows, (..., 1, K) @ (K, N), such as inference's
    [CLS] rows.
    """
    a, b = as_tensor(a), as_tensor(b)
    if a.ndim < 2 or b.ndim < 2:
        raise ShapeError(f"matmul requires 2D+ operands, got {a.shape} @ {b.shape}")
    if a.shape[-1] != b.shape[-2]:
        raise ShapeError(f"matmul inner dimensions differ: {a.shape} @ {b.shape}")
    if a.ndim > 2 and b.ndim == 2 and a.shape[-2] == 1:
        # numpy's batched product would make one 1-row GEMM per leading index
        data = (a.data.reshape(-1, a.shape[-1]) @ b.data).reshape(*a.shape[:-1], b.shape[-1])
    else:
        # flattening a stack of several rows was measured slower than numpy's
        # batched product for 64x64 weights at evaluation shapes
        data = a.data @ b.data
    parents = (a, b)
    if bias is not None:
        bias = as_tensor(bias)
        if bias.shape != (b.shape[-1],):
            raise ShapeError(f"matmul bias must have shape ({b.shape[-1]},), got {bias.shape}")
        # a bias of another dtype promotes the result, as the plain sum does
        data = np.add(data, bias.data, out=data if bias.dtype == data.dtype else None)
        parents = (a, b, bias)

    def vjp(grad):
        ga = gb = None
        if b.ndim == 2 and a.ndim > 2:
            rows = a.data.reshape(-1, a.shape[-1])
            grad_rows = grad.reshape(-1, b.shape[-1])
            if a.requires_grad:
                ga = (grad_rows @ b.data.T).reshape(a.data.shape)
            if b.requires_grad:
                gb = rows.T @ grad_rows
        else:
            if a.requires_grad:
                ga = _unbroadcast(grad @ b.data.swapaxes(-1, -2), a.data.shape)
            if b.requires_grad:
                gb = _unbroadcast(a.data.swapaxes(-1, -2) @ grad, b.data.shape)
        if bias is None:
            return ga, gb
        return ga, gb, _unbroadcast(grad, bias.data.shape) if bias.requires_grad else None

    return _make(data, parents, vjp)


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
    """Index or slice ``x``; gradient scatter-adds back (duplicates accumulate).

    Gathering rows of a 2-D table with an integer array (an embedding
    lookup) scatters its gradient with one 1-D ``np.add.at`` over flat
    element offsets, which adds in the same order as the row scatter but
    avoids its per-row overhead.
    """
    x = as_tensor(x)
    data = np.array(x.data[key])
    rows_of_table = isinstance(key, np.ndarray) and key.dtype.kind in "iu" and x.ndim == 2

    def vjp(grad):
        if rows_of_table:
            width = x.shape[1]
            # negative ids give negative offsets, which wrap to the same rows
            offsets = key.reshape(-1, 1).astype(np.intp, copy=False) * width + np.arange(width)
            flat = np.zeros(x.data.size, dtype=grad.dtype)
            np.add.at(flat, offsets.reshape(-1), grad.reshape(-1))
            return (flat.reshape(x.data.shape),)
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

    Both directions run in place on a few scratch arrays, in the operation
    order of the formulas written out below, so results are bit for bit
    those of the plain expressions.
    """
    x = as_tensor(x)
    xd = x.data
    # t = tanh(_GELU_C * (x + _GELU_A * x * x * x))
    t = np.multiply(xd, _GELU_A, out=np.empty_like(xd))
    t *= xd
    t *= xd
    t += xd
    t *= _GELU_C
    np.tanh(t, out=t)
    # data = 0.5 * x * (1 + t)
    data = np.multiply(xd, 0.5, out=np.empty_like(xd))
    data *= 1.0 + t

    def vjp(grad):
        # local = 0.5 * (1 + t) + 0.5 * x * (1 - t * t) * d_inner, where
        # d_inner = _GELU_C * (1 + 3 * _GELU_A * x * x)
        d_inner = np.multiply(xd, 3.0 * _GELU_A, out=np.empty_like(xd))
        d_inner *= xd
        d_inner += 1.0
        d_inner *= _GELU_C
        one_minus_t2 = np.multiply(t, t, out=np.empty_like(xd))
        np.subtract(1.0, one_minus_t2, out=one_minus_t2)
        local = np.multiply(xd, 0.5, out=np.empty_like(xd))
        local *= one_minus_t2
        local *= d_inner
        np.add(t, 1.0, out=d_inner)
        d_inner *= 0.5
        np.add(d_inner, local, out=local)
        local *= grad
        return (local,)

    return _make(data, (x,), vjp)


def softmax(x: Tensor, axis: int = -1, bias=None) -> Tensor:
    """Softmax along ``axis``, computed with max subtraction for stability.

    ``bias`` is an optional constant array added to ``x`` first, such as
    the attention mask's large negative bias on PAD keys; no gradient flows
    to it.  Forward and backward each run in place on one fresh array, in
    the operation order of the plain expressions, so results are bit for
    bit those of ``softmax(x + bias)``.
    """
    x = as_tensor(x)
    if not -x.ndim <= axis < x.ndim:
        raise ShapeError(f"softmax axis {axis} invalid for shape {x.shape}")
    if bias is None:
        probs = x.data.copy()
    else:
        bias = np.asarray(bias)
        if np.broadcast_shapes(x.shape, bias.shape) != x.shape:
            raise ShapeError(f"softmax bias of shape {bias.shape} does not fit {x.shape}")
        probs = x.data + bias
    # probs = exp(shifted) / sum(exp(shifted)), shifted = x - max(x)
    probs -= probs.max(axis=axis, keepdims=True)
    np.exp(probs, out=probs)
    probs /= probs.sum(axis=axis, keepdims=True)

    def vjp(grad):
        # (grad - sum(grad * probs)) * probs
        local = np.multiply(grad, probs)
        dot = local.sum(axis=axis, keepdims=True)
        np.subtract(grad, dot, out=local)
        local *= probs
        return (local,)

    return _make(probs, (x,), vjp)


def layer_norm(x: Tensor, gain: Tensor, bias: Tensor, epsilon: float = 1e-5,
               *, residual: Tensor | None = None) -> Tensor:
    """Normalize the last axis to zero mean / unit variance, then affine.

    With ``residual``, normalizes ``x + residual`` as one node, and both
    inputs receive the same gradient array.  All inputs share one dtype.
    Forward and backward run on a few reused arrays in the operation order
    of the plain expressions written out below, so results are bit for bit
    those of ``layer_norm(x + residual, gain, bias)``.
    """
    x, gain, bias = as_tensor(x), as_tensor(gain), as_tensor(bias)
    width = x.shape[-1]
    if gain.shape != (width,) or bias.shape != (width,):
        raise ShapeError(
            f"layer_norm gain/bias must have shape ({width},), "
            f"got {gain.shape} and {bias.shape}"
        )
    parents = (x, gain, bias)
    if residual is not None:
        residual = as_tensor(residual)
        if residual.shape != x.shape:
            raise ShapeError(f"layer_norm residual shape {residual.shape} differs from {x.shape}")
        parents = (x, gain, bias, residual)
    dtypes = {t.dtype for t in parents}
    if len(dtypes) > 1:
        raise TypeError(f"layer_norm inputs must share one dtype, got {sorted(map(str, dtypes))}")
    summed = x.data if residual is None else x.data + residual.data
    # centered = summed - mean, written over the sum when this node owns it
    mean = summed.mean(axis=-1, keepdims=True)
    normalized = np.subtract(summed, mean, out=None if residual is None else summed)
    data = np.multiply(normalized, normalized)
    var = data.mean(axis=-1, keepdims=True)
    inv_std = 1.0 / np.sqrt(var + epsilon)
    # normalized = centered * inv_std; data = normalized * gain + bias
    normalized *= inv_std
    np.multiply(normalized, gain.data, out=data)
    data += bias.data

    def vjp(grad):
        gx = gg = gb = None
        lead = tuple(range(grad.ndim - 1))
        local = np.multiply(grad, normalized)
        if gain.requires_grad:
            gg = local.sum(axis=lead)
        if bias.requires_grad:
            gb = grad.sum(axis=lead)
        if x.requires_grad or (residual is not None and residual.requires_grad):
            # gx = inv_std * (d_norm - mean(d_norm)
            #                 - normalized * mean(d_norm * normalized)),
            # d_norm = grad * gain
            d_norm = grad * gain.data
            d_mean = d_norm.mean(axis=-1, keepdims=True)
            np.multiply(d_norm, normalized, out=local)
            dot_mean = local.mean(axis=-1, keepdims=True)
            d_norm -= d_mean
            np.multiply(normalized, dot_mean, out=local)
            d_norm -= local
            d_norm *= inv_std
            gx = d_norm
        if residual is None:
            return gx, gg, gb
        return (gx if x.requires_grad else None), gg, gb, (gx if residual.requires_grad else None)

    return _make(data, parents, vjp)


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

"""Dense float64 tensors with reverse-mode automatic differentiation.

Every operation builds a node in an implicit computation graph; calling
``backward()`` on a scalar output walks the graph in reverse topological
order and accumulates gradients into every tensor that requires them.
All arithmetic happens in 64-bit floats so that finite-difference
gradient checks can be made tight.

Graph recording can be suspended with the ``no_grad()`` context manager,
which makes evaluation passes cheap and memory-light.
"""

from __future__ import annotations

import contextlib
from typing import Callable, Sequence

import numpy as np
from scipy.special import expit

from .errors import ConfigError, DimensionError

_GRAD_ENABLED = True


@contextlib.contextmanager
def no_grad():
    """Temporarily disable graph recording (for evaluation passes)."""
    global _GRAD_ENABLED
    prev = _GRAD_ENABLED
    _GRAD_ENABLED = False
    try:
        yield
    finally:
        _GRAD_ENABLED = prev


def _unbroadcast(grad: np.ndarray, shape: tuple[int, ...]) -> np.ndarray:
    """Sum ``grad`` over the axes numpy broadcasting introduced or expanded."""
    extra = grad.ndim - len(shape)
    if extra > 0:
        grad = grad.sum(axis=tuple(range(extra)))
    axes = tuple(i for i, s in enumerate(shape) if s == 1 and grad.shape[i] != 1)
    if axes:
        grad = grad.sum(axis=axes, keepdims=True)
    return grad


class Tensor:
    """A dense float64 array plus an optional gradient slot.

    Only a tensor with ``requires_grad`` set collects a gradient, and an op
    joins the graph only if one of its inputs does; clearing the flag on a
    parameter freezes it.

    ``Tensor(data)`` validates that the payload is finite; internal op
    results skip that check for speed (training loops check losses and
    gradients at the points where divergence is actionable).
    """

    __slots__ = ("data", "grad", "requires_grad", "_parents", "_backward")

    def __init__(self, data, requires_grad: bool = False):
        arr = np.asarray(data, dtype=np.float64)
        if not np.all(np.isfinite(arr)):
            raise ValueError("tensor payload contains NaN or Inf")
        self.data = arr
        self.grad: np.ndarray | None = None
        self.requires_grad = requires_grad
        self._parents: tuple[Tensor, ...] = ()
        self._backward: Callable[[np.ndarray], None] | None = None

    @classmethod
    def _from_op(cls, data: np.ndarray, parents: tuple["Tensor", ...],
                 backward: Callable[[np.ndarray], None]) -> "Tensor":
        out = cls.__new__(cls)
        out.data = data
        out.grad = None
        if _GRAD_ENABLED and any(p.requires_grad for p in parents):
            out.requires_grad = True
            out._parents = parents
            out._backward = backward
        else:
            out.requires_grad = False
            out._parents = ()
            out._backward = None
        return out

    # -- basic introspection ------------------------------------------------

    @property
    def shape(self) -> tuple[int, ...]:
        return self.data.shape

    @property
    def ndim(self) -> int:
        return self.data.ndim

    @property
    def size(self) -> int:
        return self.data.size

    def item(self) -> float:
        return float(self.data)

    def __repr__(self) -> str:
        return f"Tensor(shape={self.shape}, requires_grad={self.requires_grad})"

    def zero_grad(self) -> None:
        self.grad = None

    def _accumulate(self, g: np.ndarray) -> None:
        if self.requires_grad:
            self.grad = g if self.grad is None else self.grad + g

    # -- autodiff -----------------------------------------------------------

    def backward(self, grad: np.ndarray | None = None) -> None:
        """Backpropagate from this tensor; defaults to d(self)/d(self)=1 for scalars."""
        if grad is None:
            if self.data.size != 1:
                raise DimensionError("backward() without a seed gradient needs a scalar output")
            grad = np.ones_like(self.data)
        topo: list[Tensor] = []
        visited: set[int] = set()
        stack: list[tuple[Tensor, bool]] = [(self, False)]
        while stack:
            node, expanded = stack.pop()
            if expanded:
                topo.append(node)
                continue
            if id(node) in visited:
                continue
            visited.add(id(node))
            stack.append((node, True))
            for p in node._parents:
                if p.requires_grad and id(p) not in visited:
                    stack.append((p, False))
        self._accumulate(np.asarray(grad, dtype=np.float64))
        for node in reversed(topo):
            if node._backward is not None and node.grad is not None:
                node._backward(node.grad)

    # -- operator sugar -----------------------------------------------------

    def __add__(self, other):
        return add(self, other)

    __radd__ = __add__

    def __mul__(self, other):
        return mul(self, other)

    __rmul__ = __mul__

    def __sub__(self, other):
        return add(self, mul(_to_const(other), -1.0))

    def __getitem__(self, idx):
        return getitem(self, idx)

    def reshape(self, *shape):
        if len(shape) == 1 and isinstance(shape[0], (tuple, list)):
            shape = tuple(shape[0])
        return reshape(self, shape)

    def sum(self, axis=None, keepdims=False):
        return tsum(self, axis=axis, keepdims=keepdims)

    def mean(self, axis=None, keepdims=False):
        return tmean(self, axis=axis, keepdims=keepdims)


def _to_const(x) -> Tensor:
    if isinstance(x, Tensor):
        return x
    t = Tensor.__new__(Tensor)
    t.data = np.asarray(x, dtype=np.float64)
    t.grad = None
    t.requires_grad = False
    t._parents = ()
    t._backward = None
    return t


# -- primitives --------------------------------------------------------------


def add(a, b) -> Tensor:
    a, b = _to_const(a), _to_const(b)
    out_data = a.data + b.data

    def backward(g):
        a._accumulate(_unbroadcast(g, a.shape))
        b._accumulate(_unbroadcast(g, b.shape))

    return Tensor._from_op(out_data, (a, b), backward)


def mul(a, b) -> Tensor:
    a, b = _to_const(a), _to_const(b)
    out_data = a.data * b.data

    def backward(g):
        a._accumulate(_unbroadcast(g * b.data, a.shape))
        b._accumulate(_unbroadcast(g * a.data, b.shape))

    return Tensor._from_op(out_data, (a, b), backward)


def relu(a: Tensor) -> Tensor:
    a = _to_const(a)
    out_data = np.maximum(a.data, 0.0)

    def backward(g):
        a._accumulate(g * (a.data > 0.0))

    return Tensor._from_op(out_data, (a,), backward)


def softplus(a: Tensor) -> Tensor:
    """log(1 + e^x), computed stably; derivative is the logistic sigmoid."""
    a = _to_const(a)
    out_data = np.logaddexp(0.0, a.data)

    def backward(g):
        a._accumulate(g * expit(a.data))

    return Tensor._from_op(out_data, (a,), backward)


def tsum(a: Tensor, axis=None, keepdims: bool = False) -> Tensor:
    a = _to_const(a)
    out_data = a.data.sum(axis=axis, keepdims=keepdims)

    def backward(g):
        if axis is not None and not keepdims:
            g = np.expand_dims(g, axis)
        a._accumulate(np.broadcast_to(g, a.shape).copy())

    return Tensor._from_op(out_data, (a,), backward)


def tmean(a: Tensor, axis=None, keepdims: bool = False) -> Tensor:
    a = _to_const(a)
    out_data = a.data.mean(axis=axis, keepdims=keepdims)
    scale = a.data.size / out_data.size

    def backward(g):
        if axis is not None and not keepdims:
            g = np.expand_dims(g, axis)
        a._accumulate(np.broadcast_to(g, a.shape) / scale)

    return Tensor._from_op(out_data, (a,), backward)


def reshape(a: Tensor, shape: tuple[int, ...]) -> Tensor:
    a = _to_const(a)
    out_data = a.data.reshape(shape)

    def backward(g):
        a._accumulate(g.reshape(a.shape))

    return Tensor._from_op(out_data, (a,), backward)


def broadcast_to(a: Tensor, shape: tuple[int, ...]) -> Tensor:
    a = _to_const(a)
    out_data = np.broadcast_to(a.data, shape)

    def backward(g):
        a._accumulate(_unbroadcast(g, a.shape))

    return Tensor._from_op(out_data, (a,), backward)


def concat(tensors: Sequence[Tensor], axis: int = 0) -> Tensor:
    ts = tuple(_to_const(t) for t in tensors)
    out_data = np.concatenate([t.data for t in ts], axis=axis)
    sizes = [t.shape[axis] for t in ts]
    offsets = np.cumsum(sizes)[:-1]

    def backward(g):
        pieces = np.split(g, offsets, axis=axis)
        for t, piece in zip(ts, pieces):
            t._accumulate(piece)

    return Tensor._from_op(out_data, ts, backward)


def getitem(a: Tensor, idx) -> Tensor:
    """Basic indexing (ints and slices) with gradient scatter on the way back."""
    a = _to_const(a)
    out_data = a.data[idx]

    def backward(g):
        full = np.zeros(a.shape, dtype=np.float64)
        full[idx] = g
        a._accumulate(full)

    return Tensor._from_op(np.ascontiguousarray(out_data), (a,), backward)


def gather_rows(table: Tensor, indices: np.ndarray) -> Tensor:
    """Row lookup ``table[indices]`` (embedding fetch); repeated rows accumulate."""
    table = _to_const(table)
    idx = np.asarray(indices, dtype=np.int64)
    if idx.ndim != 1:
        raise DimensionError("gather_rows expects a 1-D index array")
    out_data = table.data[idx]

    def backward(g):
        full = np.zeros(table.shape, dtype=np.float64)
        np.add.at(full, idx, g)
        table._accumulate(full)

    return Tensor._from_op(out_data, (table,), backward)


def linear(x: Tensor, weight: Tensor, bias: Tensor | None = None) -> Tensor:
    """Fused ``x @ weight (+ bias)`` over the last axis, as one flat GEMM.

    Every product with a 2-D right operand goes through here: the leading
    axes of ``x`` are flattened into rows, so the weight gradient is a single
    ``x2.T @ g2`` rather than a sum of per-batch products.
    """
    x, weight = _to_const(x), _to_const(weight)
    if weight.ndim != 2 or x.shape[-1] != weight.shape[0]:
        raise DimensionError(f"linear shapes differ: {x.shape} @ {weight.shape}")
    lead = x.shape[:-1]
    x2 = x.data.reshape(-1, x.shape[-1])
    out2 = x2 @ weight.data
    parents: tuple[Tensor, ...] = (x, weight)
    if bias is not None:
        bias = _to_const(bias)
        if bias.shape != (weight.shape[1],):
            raise DimensionError(f"bias shape {bias.shape} != ({weight.shape[1]},)")
        out2 = out2 + bias.data
        parents = (x, weight, bias)
    out_data = out2.reshape(*lead, weight.shape[1])

    def backward(g):
        g2 = np.ascontiguousarray(g).reshape(-1, weight.shape[1])
        x._accumulate((g2 @ weight.data.T).reshape(x.shape))
        if weight.requires_grad:
            weight._accumulate(x2.T @ g2)
        if bias is not None and bias.requires_grad:
            bias._accumulate(g2.sum(axis=0))

    return Tensor._from_op(out_data, parents, backward)


def layer_norm(x: Tensor, gamma: Tensor, beta: Tensor, eps: float = 1e-5) -> Tensor:
    """Fused layer normalization over the last axis with affine output."""
    if eps <= 0:
        raise ConfigError("layer_norm eps must be positive")
    x, gamma, beta = _to_const(x), _to_const(gamma), _to_const(beta)
    if x.shape[-1] == 0:
        raise DimensionError("layer_norm over an empty feature axis")
    mu = x.data.mean(axis=-1, keepdims=True)
    centered = x.data - mu
    var = np.mean(centered * centered, axis=-1, keepdims=True)
    inv = 1.0 / np.sqrt(var + eps)
    xhat = centered * inv
    out_data = xhat * gamma.data + beta.data

    def backward(g):
        axes = tuple(range(g.ndim - 1))
        beta._accumulate(g.sum(axis=axes))
        gamma._accumulate((g * xhat).sum(axis=axes))
        gx = g * gamma.data
        m1 = gx.mean(axis=-1, keepdims=True)
        m2 = (gx * xhat).mean(axis=-1, keepdims=True)
        x._accumulate((gx - m1 - xhat * m2) * inv)

    return Tensor._from_op(out_data, (x, gamma, beta), backward)


def _softmax(x: np.ndarray, axis: int = -1) -> np.ndarray:
    e = np.exp(x - x.max(axis=axis, keepdims=True))
    return e / e.sum(axis=axis, keepdims=True)


def _softmax_backward(g: np.ndarray, out: np.ndarray, axis: int = -1) -> np.ndarray:
    inner = (g * out).sum(axis=axis, keepdims=True)
    return out * (g - inner)


def softmax(a: Tensor, axis: int = -1) -> Tensor:
    """Stable softmax along ``axis``; outputs are positive and sum to one."""
    a = _to_const(a)
    if a.shape[axis if axis >= 0 else a.ndim + axis] == 0:
        raise DimensionError("softmax over an empty axis")
    out_data = _softmax(a.data, axis)

    def backward(g):
        a._accumulate(_softmax_backward(g, out_data, axis))

    return Tensor._from_op(out_data, (a,), backward)


def attention(q: Tensor, k: Tensor, v: Tensor, heads: int) -> Tensor:
    """Multi-head scaled dot-product attention of [B, S, d] projections, as one node.

    Splits the width into ``heads`` slices, softmaxes each head's
    ``q·kᵀ / sqrt(d / heads)`` over the keys, weights ``v`` with it and
    merges the heads back into [B, Sq, d].  ``q`` may hold fewer tokens
    (Sq) than ``k`` and ``v`` (Sk): each query attends to every key.  No
    masking, no dropout.
    """
    if (q.ndim != 3 or k.ndim != 3 or k.shape != v.shape
            or q.shape[0] != k.shape[0] or q.shape[2] != k.shape[2]):
        raise DimensionError(f"attention inputs differ: {q.shape}, {k.shape}, {v.shape}")
    B, _, d = q.shape
    if d % heads != 0:
        raise ConfigError(f"embedding width {d} not divisible by {heads} heads")
    dh = d // heads

    def split(a):
        return a.reshape(B, a.shape[1], heads, dh).transpose(0, 2, 1, 3)  # [B, H, S, dh]

    def merge(a):
        return a.transpose(0, 2, 1, 3).reshape(B, a.shape[2], d)

    qh, kh, vh = split(q.data), split(k.data), split(v.data)
    scale = 1.0 / np.sqrt(dh)
    weights = _softmax(qh @ kh.transpose(0, 1, 3, 2) * scale)  # [B, H, Sq, Sk]
    out_data = merge(weights @ vh)

    def backward(g):
        g_ctx = split(g)
        g_weights = g_ctx @ np.swapaxes(vh, -1, -2)
        v._accumulate(merge(np.swapaxes(weights, -1, -2) @ g_ctx))
        g_scores = _softmax_backward(g_weights, weights) * scale
        q._accumulate(merge(g_scores @ kh))
        k._accumulate(merge(np.swapaxes(np.swapaxes(qh, -1, -2) @ g_scores, -1, -2)))

    # parent order as in the unfused graph: shared inputs sum gradients in the same order
    return Tensor._from_op(out_data, (q, k, v), backward)


def mixture_linear(z: Tensor, coeffs: Tensor, weight: Tensor, bias: Tensor) -> Tensor:
    """Per-token mixture of M affine maps, as one node.

    z: [B, T, d_in], coeffs: [T, M], weight: [M, d_in, d_out], bias: [M, d_out]
    -> [B, T, d_out] with ``out[b, t] = z[b, t] @ (c[t] · W) + c[t] · bias``.
    The weights are mixed per token first and then applied in one batched
    product; callers validate the shapes.
    """
    n_basis, d_in, d_out = weight.shape
    n_tok = coeffs.shape[0]
    w_flat = weight.data.reshape(n_basis, d_in * d_out)
    w_eff = (coeffs.data @ w_flat).reshape(n_tok, d_in, d_out)
    z_t = z.data.transpose(1, 0, 2)  # [T, B, d_in]
    out_data = (z_t @ w_eff).transpose(1, 0, 2) + coeffs.data @ bias.data

    def backward(g):
        g_bias = np.ascontiguousarray(g.sum(axis=0))  # [T, d_out]
        g_t = g.transpose(1, 0, 2)
        z._accumulate((g_t @ np.swapaxes(w_eff, -1, -2)).transpose(1, 0, 2))
        g_w = np.ascontiguousarray(np.swapaxes(z_t, -1, -2) @ g_t).reshape(n_tok, -1)
        coeffs._accumulate(g_w @ w_flat.T)
        if weight.requires_grad:
            weight._accumulate((coeffs.data.T @ g_w).reshape(weight.shape))
        coeffs._accumulate(g_bias @ bias.data.T)
        if bias.requires_grad:
            bias._accumulate(coeffs.data.T @ g_bias)

    # parent order as in the unfused graph: shared inputs sum gradients in the same order
    return Tensor._from_op(out_data, (z, weight, coeffs, bias), backward)

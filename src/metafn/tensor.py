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
import math
from typing import Callable

import numpy as np
from scipy.special import expit

from .errors import ConfigError, DimensionError

_GRAD_ENABLED = True
LAYER_NORM_EPS = 1e-5
# Widest softmax axis whose row max is taken column by column (see _softmax);
# the column sweep and numpy's row reduce break even at 21-25 keys.
SWEEP_MAX_KEYS = 16


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


def _colsum(a2: np.ndarray) -> np.ndarray:
    """Column sums of a 2-D array, as one BLAS product with a ones vector."""
    return np.ones(a2.shape[0]) @ a2


def _rowsum(a: np.ndarray) -> np.ndarray:
    """Sums over the last axis, as one BLAS product with a ones vector.

    The rows are made contiguous first: on a strided view the product would
    run column-major and sum in another order, so the last bits would
    depend on the memory layout.
    """
    n = a.shape[-1]
    return (np.ascontiguousarray(a).reshape(-1, n) @ np.ones(n)).reshape(a.shape[:-1])


def _rowdot(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Dot products of matching last-axis rows."""
    return np.einsum("...i,...i->...", a, b)


def _unbroadcast(grad: np.ndarray, shape: tuple[int, ...]) -> np.ndarray:
    """Sum ``grad`` over the axes numpy broadcasting introduced or expanded."""
    extra = grad.ndim - len(shape)
    if extra > 0:
        tail = grad.shape[extra:]
        grad = _colsum(grad.reshape(math.prod(grad.shape[:extra]), math.prod(tail)))
        grad = grad.reshape(tail)
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
    # numpy defers to __radd__ and __rmul__ instead of building an object array
    __array_ufunc__ = None

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
        if a.requires_grad:
            a._accumulate(_unbroadcast(g, a.shape))
        if b.requires_grad:
            b._accumulate(_unbroadcast(g, b.shape))

    return Tensor._from_op(out_data, (a, b), backward)


def mul(a, b) -> Tensor:
    a, b = _to_const(a), _to_const(b)
    out_data = a.data * b.data

    def backward(g):
        if a.requires_grad:
            a._accumulate(_unbroadcast(g * b.data, a.shape))
        if b.requires_grad:
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


_BASIC_INDEX = (int, np.integer, slice, type(None), type(Ellipsis))


def getitem(a: Tensor, idx) -> Tensor:
    """Basic indexing (ints, slices, None, Ellipsis) with gradient scatter on
    the way back.  Any other index is refused: an array index may repeat an
    element, and the scatter would then drop all but one of its gradients."""
    for i in idx if isinstance(idx, tuple) else (idx,):
        if isinstance(i, bool) or not isinstance(i, _BASIC_INDEX):
            raise DimensionError(f"tensors take basic indices only, got {type(i).__name__}")
    a = _to_const(a)
    out_data = a.data[idx]

    def backward(g):
        full = np.zeros(a.shape, dtype=np.float64)
        full[idx] = g
        a._accumulate(full)

    return Tensor._from_op(np.ascontiguousarray(out_data), (a,), backward)


def tokens(x_num: np.ndarray, x_idx: np.ndarray, cls: Tensor, num_weight: Tensor | None,
           num_bias: Tensor | None, cat_table: Tensor | None,
           cat_bias: Tensor | None) -> Tensor:
    """FT-Transformer's feature tokens of B rows, as one [B, 1 + n_num + n_cat, d] node.

    Token 0 is ``cls``, numeric feature j gives ``x_num[:, j] * num_weight[j] +
    num_bias[j]`` and categorical feature j ``cat_table[x_idx[:, j]] + cat_bias[j]``;
    a table without one kind of feature passes None for its two parameters.
    Callers validate the shapes.
    """
    B, n_num = x_num.shape
    d = cls.shape[0]
    out_data = np.empty((B, 1 + n_num + x_idx.shape[1], d))
    out_data[:, 0] = cls.data
    num, cat = slice(1, 1 + n_num), slice(1 + n_num, None)
    x3 = x_num.reshape(B, n_num, 1)
    if num_weight is not None:
        np.multiply(x3, num_weight.data, out=out_data[:, num])
        out_data[:, num] += num_bias.data
    if cat_table is not None:
        np.add(cat_table.data[x_idx], cat_bias.data, out=out_data[:, cat])

    def backward(g):
        # each slice of g is summed as add and mul sum a broadcast operand, so
        # the gradients equal those of the same tokens built from basic ops
        cls._accumulate(_unbroadcast(g[:, :1], (1, 1, d)).reshape(d))
        if num_weight is not None:
            if num_weight.requires_grad:
                num_weight._accumulate(_unbroadcast(g[:, num] * x3, num_weight.shape))
            num_bias._accumulate(_unbroadcast(g[:, num], num_bias.shape))
        if cat_table is not None:
            if cat_table.requires_grad:
                full = np.zeros(cat_table.shape)
                np.add.at(full, x_idx, g[:, cat])
                cat_table._accumulate(full)
            cat_bias._accumulate(_unbroadcast(g[:, cat], cat_bias.shape))

    parents = (cls, num_weight, num_bias, cat_table, cat_bias)
    return Tensor._from_op(out_data, tuple(p for p in parents if p is not None), backward)


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
        out2 += bias.data
        parents = (x, weight, bias)
    out_data = out2.reshape(*lead, weight.shape[1])

    def backward(g):
        g2 = np.ascontiguousarray(g).reshape(-1, weight.shape[1])
        x._accumulate((g2 @ weight.data.T).reshape(x.shape))
        if weight.requires_grad:
            weight._accumulate(x2.T @ g2)
        if bias is not None and bias.requires_grad:
            bias._accumulate(_colsum(g2))

    return Tensor._from_op(out_data, parents, backward)


def layer_norm(x: Tensor, gamma: Tensor, beta: Tensor) -> Tensor:
    """Fused layer normalization over the last axis with affine output."""
    x, gamma, beta = _to_const(x), _to_const(gamma), _to_const(beta)
    n = x.shape[-1]
    if n == 0:
        raise DimensionError("layer_norm over an empty feature axis")
    x2 = np.ascontiguousarray(x.data).reshape(-1, n)
    xhat = x2 - (_rowsum(x2) / n)[:, None]
    inv = (1.0 / np.sqrt(_rowdot(xhat, xhat) / n + LAYER_NORM_EPS))[:, None]
    xhat *= inv
    out2 = xhat * gamma.data
    out2 += beta.data

    def backward(g):
        g2 = np.ascontiguousarray(g).reshape(-1, n)
        if beta.requires_grad:
            beta._accumulate(_colsum(g2))
        buf = g2 * xhat
        if gamma.requires_grad:
            gamma._accumulate(_colsum(buf))
        gx = g2 * gamma.data
        m2 = _rowdot(gx, xhat) / n
        gx -= (_rowsum(gx) / n)[:, None]
        gx -= np.multiply(xhat, m2[:, None], out=buf)
        gx *= inv
        x._accumulate(gx.reshape(x.shape))

    return Tensor._from_op(out2.reshape(x.shape), (x, gamma, beta), backward)


def _softmax(scores: np.ndarray) -> np.ndarray:
    """Softmax over the last axis, computed in place in a contiguous array.

    The row max is shifted out first so that ``exp`` cannot overflow.  On a
    last axis of at most ``SWEEP_MAX_KEYS`` it is taken by a sweep of
    ``np.maximum`` over the columns, one call per column, because numpy's
    reduce pays a fixed cost per row, which dominates on many short rows;
    wider rows use the reduce, which is the faster of the two there.  Both
    give the same max.
    """
    n = scores.shape[-1]
    if n <= SWEEP_MAX_KEYS:
        top = scores[..., 0].copy()
        for j in range(1, n):
            np.maximum(top, scores[..., j], out=top)
        scores -= top[..., None]
    else:
        scores -= scores.max(axis=-1, keepdims=True)
    np.exp(scores, out=scores)
    scores /= _rowsum(scores)[..., None]
    return scores


def _softmax_backward(g: np.ndarray, out: np.ndarray) -> np.ndarray:
    grad = g - _rowdot(g, out)[..., None]
    grad *= out
    return grad


def softmax(a: Tensor) -> Tensor:
    """Stable softmax along the last axis; outputs are positive and sum to one."""
    a = _to_const(a)
    if a.shape[-1] == 0:
        raise DimensionError("softmax over an empty axis")
    out_data = _softmax(a.data.copy())

    def backward(g):
        a._accumulate(_softmax_backward(g, out_data))

    return Tensor._from_op(out_data, (a,), backward)


def attention(x: Tensor, wq: Tensor, bq: Tensor, wk: Tensor, wv: Tensor, bv: Tensor,
              heads: int, queries: int) -> Tensor:
    """Multi-head scaled dot-product self-attention of [B, S, d] tokens, as one node.

    Projects queries ``x @ wq + bq``, keys ``x @ wk`` (no bias) and values
    ``x @ wv + bv``, splits the width into ``heads`` slices, softmaxes each
    head's ``q·kᵀ / sqrt(d / heads)`` over the keys, weights the values with
    it and merges the heads into [B, queries, d].  The first ``queries``
    tokens query; every token is a key and a value.  The projections run as
    one packed GEMM, ``x @ [wq|wk|wv]``, or ``x @ [wk|wv]`` plus a product
    of the querying tokens alone when fewer than S tokens query, and take
    their biases as one packed row, ``[bq|-0|bv]`` or ``[-0|bv]``.  The
    softmax takes each row's max as ``_softmax`` does.  No masking, no
    dropout.
    """
    x, wq, bq, wk, wv, bv = (_to_const(t) for t in (x, wq, bq, wk, wv, bv))
    if x.ndim != 3:
        raise DimensionError(f"attention input must be [B, S, d], got {x.shape}")
    B, S, d = x.shape
    if (any(w.shape != (d, d) for w in (wq, wk, wv))
            or bq.shape != (d,) or bv.shape != (d,)):
        raise DimensionError(
            f"attention projections {wq.shape}, {bq.shape}, {wk.shape}, {wv.shape}, "
            f"{bv.shape} do not match width {d}")
    if not 1 <= queries <= S:
        raise DimensionError(f"{queries} queries out of {S} tokens")
    if d % heads != 0:
        raise ConfigError(f"embedding width {d} not divisible by {heads} heads")
    dh = d // heads
    every = queries == S
    x2 = x.data.reshape(B * S, d)
    w_packed = np.concatenate([wq.data, wk.data, wv.data] if every else [wk.data, wv.data],
                              axis=1)
    n_proj = w_packed.shape[1] // d
    proj = x2 @ w_packed   # [B*S, n_proj*d]: [q|k|v] or [k|v]
    # one contiguous add of [bq | -0 | bv] or [-0 | bv]: x + (-0.0) is x for
    # every x, signed zeros included, so the keys are left bit for bit
    no_bias = np.full(d, -0.0)
    proj += np.concatenate([bq.data, no_bias, bv.data] if every else [no_bias, bv.data])
    if every:
        xq2, q2 = x2, proj[:, :d]
    else:
        xq2 = x2.reshape(B, S, d)[:, :queries].reshape(B * queries, d)
        q2 = xq2 @ wq.data
        q2 += bq.data

    def split(a2, n_tok):   # [B*n_tok, d] view -> [B, H, n_tok, dh]
        return a2.reshape(B, n_tok, heads, dh).transpose(0, 2, 1, 3)

    qh, kh, vh = split(q2, queries), split(proj[:, -2 * d:-d], S), split(proj[:, -d:], S)
    scale = 1.0 / np.sqrt(dh)
    weights = qh @ kh.transpose(0, 1, 3, 2)   # [B, H, queries, S]
    weights *= scale
    _softmax(weights)
    ctx = np.empty((B, queries, heads, dh))
    np.matmul(weights, vh, out=ctx.transpose(0, 2, 1, 3))
    out_data = ctx.reshape(B, queries, d)

    def backward(g):
        g_ctx = g.reshape(B, queries, heads, dh).transpose(0, 2, 1, 3)
        g_weights = g_ctx @ vh.transpose(0, 1, 3, 2)
        g_proj = np.empty((B, S, n_proj, heads, dh))   # [B, S, (q|)k|v, H, dh]
        np.matmul(weights.transpose(0, 1, 3, 2), g_ctx,
                  out=g_proj[:, :, -1].transpose(0, 2, 1, 3))
        g_scores = _softmax_backward(g_weights, weights)
        g_scores *= scale
        np.matmul(g_scores.swapaxes(-1, -2), qh, out=g_proj[:, :, -2].transpose(0, 2, 1, 3))
        g_q = g_proj[:, :, 0] if every else np.empty((B, queries, heads, dh))
        np.matmul(g_scores, kh, out=g_q.transpose(0, 2, 1, 3))
        g_proj2 = g_proj.reshape(B * S, n_proj * d)
        gq2 = g_proj2[:, :d] if every else g_q.reshape(B * queries, d)
        gx = g_proj2 @ w_packed.T
        if not every:
            gx.reshape(B, S, d)[:, :queries] += (gq2 @ wq.data.T).reshape(B, queries, d)
        x._accumulate(gx.reshape(B, S, d))
        if wq.requires_grad or wk.requires_grad or wv.requires_grad:
            gw = x2.T @ g_proj2
            wq._accumulate(gw[:, :d] if every else xq2.T @ gq2)
            wk._accumulate(gw[:, -2 * d:-d])
            wv._accumulate(gw[:, -d:])
        if bq.requires_grad:
            bq._accumulate(_colsum(gq2))
        if bv.requires_grad:
            bv._accumulate(_colsum(g_proj2[:, -d:]))

    return Tensor._from_op(out_data, (x, wq, bq, wk, wv, bv), backward)


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
    out_data = np.empty((z.shape[0], n_tok, d_out))
    np.matmul(z_t, w_eff, out=out_data.transpose(1, 0, 2))
    out_data += coeffs.data @ bias.data

    def backward(g):
        g_bias = _colsum(np.ascontiguousarray(g).reshape(g.shape[0], -1)).reshape(n_tok, d_out)
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

"""Neural-network primitives built on the autodiff engine.

Parameters carry a hierarchical name and a weight-decay exemption flag
(true for embedding, normalization, and bias parameters only).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import tensor as T
from .errors import ConfigError, DataError, DimensionError
from .tensor import Tensor


class Parameter(Tensor):
    """A named, trainable tensor."""

    __slots__ = ("name", "weight_decay_exempt")

    def __init__(self, data, name: str, weight_decay_exempt: bool = False):
        super().__init__(data, requires_grad=True)
        self.name = name
        self.weight_decay_exempt = weight_decay_exempt

    def __repr__(self) -> str:
        return f"Parameter({self.name!r}, shape={self.shape})"


def uniform_fan_in(rng: np.random.Generator, fan_in: int, shape) -> np.ndarray:
    """Fan-in scaled uniform init, U(-1/sqrt(fan_in), 1/sqrt(fan_in))."""
    bound = 1.0 / np.sqrt(max(fan_in, 1))
    return rng.uniform(-bound, bound, size=shape)


@dataclass
class AttentionParams:
    """Projection parameters for one multi-head self-attention layer.

    The key projection carries no bias: a key bias shifts all logits of a
    query by the same amount and cancels in the softmax, so it would be a
    provably dead parameter.
    """
    wq: Parameter
    bq: Parameter
    wk: Parameter
    wv: Parameter
    bv: Parameter
    wo: Parameter
    bo: Parameter

    def all(self) -> list[Parameter]:
        return [self.wq, self.bq, self.wk,
                self.wv, self.bv, self.wo, self.bo]


def init_attention(rng: np.random.Generator, d: int, prefix: str) -> AttentionParams:
    def lin(tag, bias=True):
        w = Parameter(uniform_fan_in(rng, d, (d, d)), f"{prefix}.{tag}.weight")
        if not bias:
            return w, None
        b = Parameter(uniform_fan_in(rng, d, (d,)), f"{prefix}.{tag}.bias",
                      weight_decay_exempt=True)
        return w, b

    wq, bq = lin("query")
    wk, _ = lin("key", bias=False)
    wv, bv = lin("value")
    wo, bo = lin("out")
    return AttentionParams(wq, bq, wk, wv, bv, wo, bo)


def self_attention(x: Tensor, p: AttentionParams, heads: int,
                   queries: int | None = None) -> Tensor:
    """Scaled dot-product multi-head self-attention with output projection.

    x: [B, T, d] -> [B, n, d], where the first ``n = queries`` tokens query
    (default: all T) and every token is a key and a value.  No masking, no
    dropout.
    """
    n = x.shape[1] if queries is None else queries
    ctx = T.attention(x, p.wq, p.bq, p.wk, p.wv, p.bv, heads, n)
    return T.linear(ctx, p.wo, p.bo)


def compute_loss(pred: Tensor, target: np.ndarray, task: str) -> Tensor:
    """Mean logistic cross-entropy (binary) or mean squared error (regression).

    ``pred`` carries one logit or one value per row; binary targets must be
    exactly 0 or 1.
    """
    y = np.asarray(target, dtype=np.float64).reshape(-1)
    z = pred.reshape(y.shape[0]) if pred.ndim > 1 else pred
    if z.shape != y.shape:
        raise DimensionError(f"prediction shape {pred.shape} does not match {y.shape}")
    if task == "binary":
        if not np.all((y == 0.0) | (y == 1.0)):
            raise DataError("binary targets must be 0 or 1")
        # softplus(z) - z*y == -log sigmoid(z) for y=1, -log(1-sigmoid(z)) for y=0
        return T.tmean(T.softplus(z) - z * y)
    if task == "regression":
        diff = z - y
        return T.tmean(diff * diff)
    raise ConfigError(f"unknown task type {task!r}")

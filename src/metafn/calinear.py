"""Calibratable linear layers.

A CaLinear holds M basis affine maps (shared across datasets) plus a tiny
calibration MLP that turns one scalar of context per token into M softmax
coefficients.  Its effective map for token n is the coefficient-weighted
mixture of the bases:

    out[b, n] = sum_m c[n, m] * (z[b, n] @ W_m + b_m)

Because the mixture is linear in the bases, ``tensor.mixture_linear``
mixes the weights and biases per token and applies the mixed map in one
batched product, one autodiff node that is algebraically identical to
summing M separate affine maps.

In the "direct" coefficient mode the assembly feeds the same forward pass
softmax rows of a per-dataset logit matrix instead of the MLP's output.
"""

from __future__ import annotations

import numpy as np

from . import tensor as T
from .errors import DimensionError
from .nn import Parameter, uniform_fan_in
from .tensor import Tensor


class CaLinear:
    """M basis affine maps d_in -> d_out plus a 1 -> hidden -> M calibration MLP."""

    def __init__(self, d_in: int, d_out: int, n_basis: int,
                 rng: np.random.Generator, name: str, cal_hidden: int = 16):
        if n_basis < 1:
            raise DimensionError("a CaLinear needs at least one basis map")
        self.d_in = d_in
        self.d_out = d_out
        self.n_basis = n_basis
        self.name = name
        weights = np.stack([uniform_fan_in(rng, d_in, (d_in, d_out))
                            for _ in range(n_basis)])
        biases = np.stack([uniform_fan_in(rng, d_in, (d_out,))
                           for _ in range(n_basis)])
        self.weight = Parameter(weights, f"{name}.basis.weight")
        self.bias = Parameter(biases, f"{name}.basis.bias", weight_decay_exempt=True)
        # near-zero output weights => initial coefficients are near-uniform;
        # the positive hidden bias keeps every ReLU unit active at small context
        self.cal_w1 = Parameter(rng.uniform(-0.01, 0.01, (1, cal_hidden)), f"{name}.cal.w1")
        self.cal_b1 = Parameter(np.full(cal_hidden, 0.1), f"{name}.cal.b1",
                                weight_decay_exempt=True)
        self.cal_w2 = Parameter(rng.uniform(-0.01, 0.01, (cal_hidden, n_basis)),
                                f"{name}.cal.w2")
        self.cal_b2 = Parameter(np.zeros(n_basis), f"{name}.cal.b2",
                                weight_decay_exempt=True)

    def parameters(self) -> list[Parameter]:
        return [self.weight, self.bias, self.cal_w1, self.cal_b1,
                self.cal_w2, self.cal_b2]

    def coefficients(self, context: Tensor) -> Tensor:
        """Map a context vector [T] to simplex coefficient rows [T, M]."""
        if context.ndim != 1:
            raise DimensionError("context vector must be 1-D (one scalar per token)")
        h = T.relu(T.linear(context.reshape(context.size, 1), self.cal_w1, self.cal_b1))
        return T.softmax(T.linear(h, self.cal_w2, self.cal_b2))

    def forward(self, z: Tensor, coeffs: Tensor) -> Tensor:
        """Apply the coefficient-weighted mixture of basis maps.

        z: [B, T, d_in], coeffs: [T, M] -> [B, T, d_out].
        """
        if z.ndim != 3 or z.shape[2] != self.d_in:
            raise DimensionError(
                f"{self.name}: expected input [B, T, {self.d_in}], got {z.shape}")
        if coeffs.shape != (z.shape[1], self.n_basis):
            raise DimensionError(
                f"{self.name}: coefficient shape {coeffs.shape} does not match "
                f"(tokens={z.shape[1]}, basis={self.n_basis})")
        return T.mixture_linear(z, coeffs, self.weight, self.bias)


def calinear_ffn_forward(lin1, lin2, z: Tensor, c1: Tensor, c2: Tensor) -> Tensor:
    """Two-layer feed-forward block: lin2(relu(lin1(z))), coefficients per layer."""
    return lin2.forward(T.relu(lin1.forward(z, c1)), c2)

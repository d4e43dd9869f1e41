#!/usr/bin/env python3
"""A tour of the float64 autodiff engine.

Builds a few small computation graphs, backpropagates through them, and
verifies the gradients against central finite differences -- including a
deliberately corrupted gradient to show what a failure looks like.
"""

import numpy as np

from metafn import tensor as T
from metafn.gradcheck import check_gradients
from metafn.nn import Parameter

print("=== scalar chain rule ===")
x = T.Tensor([2.0], requires_grad=True)
y = x * x * 3.0 + x  # dy/dx = 6x + 1 = 13 at x=2
y.backward(np.ones(1))
print(f"d/dx of 3x^2 + x at x=2: {x.grad[0]:.1f}  (expected 13)")

print("\n=== matrix graph with broadcasting ===")
rng = np.random.default_rng(0)
w = T.Tensor(rng.standard_normal((3, 2)), requires_grad=True)
b = T.Tensor(np.zeros(2), requires_grad=True)
data = rng.standard_normal((5, 3))
out = T.softmax(T.linear(T.Tensor(data), w, b))
loss = T.tsum(out * rng.standard_normal((5, 2)))
loss.backward()
print(f"softmax rows sum to 1: {np.allclose(out.data.sum(axis=1), 1.0)}")
print(f"weight gradient shape {w.grad.shape}, bias gradient shape {b.grad.shape}")

print("\n=== finite-difference verification ===")
p = Parameter(rng.standard_normal((4, 3)), "demo.weight")
target = rng.standard_normal((4, 3))


def objective():
    diff = p - target
    return T.tmean(diff * diff)


report = check_gradients(objective, [p], tol=1e-8)
print(report.summary())

print("\n=== a corrupted gradient is caught and named ===")
bad = Parameter(np.array([0.5]), "demo.corrupted")


def broken():
    # forward computes 2*bad, but the hand-written backward claims 5x
    out = T.Tensor._from_op(bad.data * 2.0, (bad,),
                            lambda g: bad._accumulate(g * 5.0))
    return T.tsum(out)


report = check_gradients(broken, [bad])
print(report.summary())
print(f"failures: {report.failures}")

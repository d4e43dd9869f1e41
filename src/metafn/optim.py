"""AdamW with decoupled weight decay, and the warmup/decay schedule.

Every phase trains with the fixed recipe of the constants below; only the
learning rate is a setting (``PhaseSpec.base_lr``).

``AdamW`` keeps its state flat.  At construction it lays every parameter of
every group end to end in one float64 vector: group by group, and within a
group the decayed parameters first and the ``weight_decay_exempt`` ones
after them.  One offset table maps each parameter to its slice, and the
first moment ``m``, the second moment ``s`` and the gradient buffer share
that layout.  A group's learning rate scales its contiguous span, and decay
multiplies the decayed part of that span; exempt elements are left alone,
which is bitwise the same as multiplying them by 1.0.

A step gathers the gradients into the flat buffer, checks them, runs the
Adam update as a handful of in-place vector operations and hands each
parameter a view of one freshly allocated vector.  ``p.data`` is rebound,
never written in place, so arrays taken from a parameter before a step keep
their values.  A parameter whose ``data`` was rebound from outside since the
last step is read back in.  Every element goes through the same operations
in the same order as the textbook per-tensor update, so results are bitwise
identical to it.
"""

from __future__ import annotations

import numpy as np

from .errors import MetafnError, UsageError
from .nn import Parameter

BETA1, BETA2, EPS = 0.9, 0.999, 1e-8   # moment decay rates; offset of the root
WEIGHT_DECAY = 1e-5         # decoupled decay of every non-exempt parameter
WARMUP_FRAC = 0.2           # share of the schedule spent warming up


class AdamW:
    """Adam with decoupled weight decay over one flat state vector.

    Parameters are organized in groups so different groups can run at
    different (scheduled) learning rates; ``groups[i]["lr"]`` may change
    between steps.  Weight decay is skipped for parameters flagged
    ``weight_decay_exempt``.  One shared step counter ``t`` drives bias
    correction for the whole instance.
    """

    def __init__(self, groups, lr: float = 1e-4, weight_decay: float = WEIGHT_DECAY):
        if groups and isinstance(groups[0], Parameter):
            groups = [{"params": list(groups), "lr": lr}]
        self.groups = [{"params": list(g["params"]), "lr": float(g.get("lr", lr))}
                       for g in groups]
        self.weight_decay = weight_decay
        self.t = 0
        # flat layout: per group [decayed ... | exempt ...]
        seen: set[str] = set()
        self._params: list[Parameter] = []
        self._slots: list[tuple[int, int, tuple[int, ...]]] = []
        self._spans: list[tuple[int, int, int]] = []   # per group: start, end of decayed, end
        pos = 0
        for g in self.groups:
            decayed = [p for p in g["params"] if not p.weight_decay_exempt]
            exempt = [p for p in g["params"] if p.weight_decay_exempt]
            start = pos
            for p in decayed + exempt:
                if p.name in seen:
                    raise UsageError(f"parameter {p.name!r} appears in two groups")
                seen.add(p.name)
                self._params.append(p)
                self._slots.append((pos, pos + p.data.size, p.data.shape))
                pos += p.data.size
            self._spans.append((start, start + sum(p.data.size for p in decayed), pos))
        if not self._params:
            raise UsageError("AdamW needs at least one parameter")
        self._m = np.zeros(pos)
        self._s = np.zeros(pos)
        self._g = np.zeros(pos)
        self._tmp = np.zeros(pos)
        zeros = np.zeros(max((hi - lo for lo, hi, _ in self._slots), default=0))
        self._no_grad = [zeros[:hi - lo] for lo, hi, _ in self._slots]
        # the vector and views the last step handed out; none before the first step
        self._flat: np.ndarray | None = None
        self._views: list[np.ndarray | None] = [None] * len(self._params)

    def zero_grad(self) -> None:
        for g in self.groups:
            for p in g["params"]:
                p.zero_grad()

    def step(self) -> None:
        """Apply one update; parameters without a gradient are treated as g=0.

        g=0 still moves such a parameter: its moments decay, the remaining
        momentum is applied and weight decay acts.  A non-finite gradient
        raises before ``t``, the moments or any parameter change.
        """
        params = self._params
        g = self._g
        np.concatenate([p.grad.ravel() if p.grad is not None else z
                        for p, z in zip(params, self._no_grad)], out=g)
        if not np.isfinite(g.sum()):      # NaN or Inf anywhere makes the sum non-finite
            self._check_finite()
        w = self._flat
        if any(p.data is not v for p, v in zip(params, self._views)):
            w = np.concatenate([p.data.ravel() for p in params])

        self.t += 1
        c1 = 1.0 - BETA1 ** self.t
        c2 = 1.0 - BETA2 ** self.t
        m, s, tmp = self._m, self._s, self._tmp
        m *= BETA1
        np.multiply(g, 1.0 - BETA1, out=tmp)
        m += tmp
        s *= BETA2
        np.multiply(g, g, out=tmp)
        tmp *= 1.0 - BETA2
        s += tmp
        # step = lr * (m / c1) / (sqrt(s / c2) + eps); g is free again from here
        np.divide(m, c1, out=tmp)
        for group, (lo, _, hi) in zip(self.groups, self._spans):
            tmp[lo:hi] *= group["lr"]
        np.divide(s, c2, out=g)
        np.sqrt(g, out=g)
        g += EPS
        tmp /= g

        new = np.empty_like(w)
        for group, (lo, mid, hi) in zip(self.groups, self._spans):
            np.multiply(w[lo:mid], 1.0 - group["lr"] * self.weight_decay, out=new[lo:mid])
            new[mid:hi] = w[mid:hi]
        new -= tmp
        views = [new[lo:hi].reshape(shape) for lo, hi, shape in self._slots]
        for p, v in zip(params, views):
            p.data = v
        self._flat, self._views = new, views

    def _check_finite(self) -> None:
        """Name the first parameter, in group order, whose gradient is not finite.

        Returns when every gradient is finite and only their sum overflowed.
        """
        for group in self.groups:
            for p in group["params"]:
                if p.grad is not None and not np.all(np.isfinite(p.grad)):
                    raise MetafnError(f"non-finite gradient for parameter {p.name!r}")


def lr_at(step: int, total_steps: int, base_lr: float) -> float:
    """Linear warmup to ``base_lr`` over the first ``WARMUP_FRAC`` of steps,
    then linear decay to zero at ``total_steps``."""
    if total_steps <= 0:
        raise UsageError("total_steps must be positive")
    if not 0 <= step <= total_steps:
        raise UsageError(f"step {step} outside [0, {total_steps}]")
    warm = WARMUP_FRAC * total_steps
    if step <= warm:
        return base_lr * (step / warm)
    return base_lr * (total_steps - step) / (total_steps - warm)

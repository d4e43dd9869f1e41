"""Finite-difference verification of reverse-mode gradients.

For each parameter the analytic gradient (one backward pass) is compared
against central differences of step ``STEP``.  The reported error is the
normalized max deviation  ``max|a - n| / max(1e-12, max|a| + max|n|)``; a
parameter passes when that is at or below the tolerance.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Sequence

import numpy as np

from .nn import Parameter
from .tensor import Tensor, no_grad

STEP = 1e-5


@dataclass
class GradCheckEntry:
    name: str
    max_abs_diff: float
    rel_error: float
    passed: bool


@dataclass
class GradCheckReport:
    tol: float
    entries: list[GradCheckEntry] = field(default_factory=list)

    @property
    def passed(self) -> bool:
        return all(e.passed for e in self.entries)

    @property
    def failures(self) -> list[str]:
        return [e.name for e in self.entries if not e.passed]

    def summary(self) -> str:
        lines = [f"gradient check: step={STEP:g} tol={self.tol:g}"]
        for e in self.entries:
            status = "ok  " if e.passed else "FAIL"
            lines.append(f"  [{status}] {e.name}: rel={e.rel_error:.3e}")
        return "\n".join(lines)


def _scalar(f: Callable[[], Tensor]) -> float:
    out = f()
    if out.size != 1:
        raise ValueError("gradient check requires a scalar-valued computation")
    return float(out.data)


def check_gradients(f: Callable[[], Tensor], params: Sequence[Parameter],
                    tol: float = 1e-4) -> GradCheckReport:
    """Compare reverse-mode gradients of ``f`` against central differences.

    ``f`` must be deterministic and rebuild its graph from the parameters'
    current values on every call.
    """
    params = list(params)
    for p in params:
        p.zero_grad()
    out = f()
    if out.size != 1:
        raise ValueError("gradient check requires a scalar-valued computation")
    out.backward()
    analytic = {p.name: (p.grad.copy() if p.grad is not None else np.zeros_like(p.data))
                for p in params}

    report = GradCheckReport(tol=tol)
    for p in params:
        if not p.data.flags["C_CONTIGUOUS"]:
            p.data = np.ascontiguousarray(p.data)
        numeric = np.zeros_like(p.data)
        flat = p.data.reshape(-1)
        num_flat = numeric.reshape(-1)
        with no_grad():
            for i in range(flat.size):
                orig = flat[i]
                flat[i] = orig + STEP
                hi = _scalar(f)
                flat[i] = orig - STEP
                lo = _scalar(f)
                flat[i] = orig
                num_flat[i] = (hi - lo) / (2.0 * STEP)
        a = analytic[p.name]
        diff = float(np.max(np.abs(a - numeric))) if a.size else 0.0
        scale = max(1e-12, float(np.max(np.abs(a))) + float(np.max(np.abs(numeric)))) \
            if a.size else 1e-12
        rel = diff / scale
        report.entries.append(GradCheckEntry(p.name, diff, rel, rel <= tol))
    return report

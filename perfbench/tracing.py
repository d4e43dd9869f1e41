"""Spans around calls into metafn, recorded from outside the library.

The benchmark never edits ``src/``.  ``install_tracing`` replaces module and
class attributes at the places where the library looks each name up (for
example ``model.self_attention`` or ``training.AdamW``) with wrappers that
open a span, call the original and close the span.  ``Patcher.restore`` puts
every original object back, so ``vars(owner)[name] is original`` afterwards.

Spans are kept in memory as (id, name, start, end, parent, unit, phase,
attrs) and written to JSON when the run ends; ``layer_metrics`` reduces them
to the per-layer figures the benchmark reports.
"""

from __future__ import annotations

import functools
import json
import math
import os
import time
from dataclasses import dataclass, field

PERCENTILE_LADDER = (50.0, 75.0, 90.0, 95.0, 99.0, 99.9, 99.99)
MIN_BEYOND = 10


@dataclass
class Span:
    id: int
    name: str
    start: float
    end: float | None
    parent: int | None
    unit: int
    phase: str
    attrs: dict = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    """In-memory span recorder; one span stack, since metafn is single-threaded."""

    def __init__(self):
        self.spans: list[Span] = []
        self._stack: list[Span] = []
        self.unit = -1          # the request every new span belongs to
        self.phase = "setup"    # "setup" or "unit"

    def begin(self, name: str) -> Span:
        parent = self._stack[-1].id if self._stack else None
        span = Span(len(self.spans), name, time.perf_counter(), None, parent,
                    self.unit, self.phase)
        self.spans.append(span)
        self._stack.append(span)
        return span

    def end(self, span: Span) -> None:
        span.end = time.perf_counter()
        top = self._stack.pop()
        if top is not span:
            raise RuntimeError(f"span {span.name!r} closed out of order")

    def to_json(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump([s.__dict__ for s in self.spans], fh)
            fh.write("\n")


class Patcher:
    """Replaces attributes and restores the original objects, last in first out."""

    def __init__(self):
        self._saved: list[tuple[object, str, object]] = []

    def replace(self, owner, name: str, new) -> None:
        self._saved.append((owner, name, vars(owner)[name]))
        setattr(owner, name, new)

    def wrap(self, owner, name: str, make) -> None:
        """Replace ``owner.name`` by ``make(function)``, keeping classmethods such."""
        old = vars(owner)[name]
        if isinstance(old, classmethod):
            self.replace(owner, name, classmethod(make(old.__func__)))
        else:
            self.replace(owner, name, make(old))

    def restore(self) -> None:
        while self._saved:
            owner, name, old = self._saved.pop()
            setattr(owner, name, old)


def timed(tracer: Tracer, name: str, after=None):
    """Wrapper factory: a span around each call, plus counts from ``after``.

    ``after(args, kwargs, result)`` returns attributes stored on the span.
    """
    def make(fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span = tracer.begin(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer.end(span)
            if after is not None:
                span.attrs.update(after(args, kwargs, result))
            return result
        return wrapper
    return make


def traced_optimizer(base, tracer: Tracer):
    """Subclass of the library's AdamW whose construction, step and zero_grad are spans.

    At each step it counts the parameters stepped and those holding a gradient.
    """
    class Traced(base):
        def __init__(self, *args, **kwargs):
            span = tracer.begin("optim.init")
            try:
                super().__init__(*args, **kwargs)
            finally:
                tracer.end(span)

        def step(self):
            params = [p for g in self.groups for p in g["params"]]
            present = sum(p.grad is not None for p in params)
            span = tracer.begin("optim.step")
            try:
                base.step(self)
            finally:
                tracer.end(span)
            span.attrs.update(params=len(params), grads=present)

        def zero_grad(self):
            span = tracer.begin("optim.zero_grad")
            try:
                base.zero_grad(self)
            finally:
                tracer.end(span)

    Traced.__name__ = Traced.__qualname__ = base.__name__
    return Traced


def _rows(args, kwargs, result):
    return {"rows": int(len(result))}


def _file_bytes(args, kwargs, result):
    path = args[1] if len(args) > 1 else kwargs["path"]
    return {"bytes": os.path.getsize(path)}


def install_tracing(tracer: Tracer, patcher: Patcher) -> None:
    """Wrap the public functions of every metafn layer the workloads reach."""
    from metafn import (calinear, checkpoint, data, evaluate, model, tensor,
                        training, workflow)

    plain = [
        (tensor.Tensor, "backward", "tensor.backward"),
        (model.FeatureTokenizer, "forward", "model.tokenizer"),
        (model.OutputHead, "forward", "model.head"),
        (model.ModelAssembly, "forward", "model.forward"),
        (model, "self_attention", "nn.attention"),
        (model, "layer_norm", "nn.layer_norm"),
        (model, "calinear_ffn_forward", "calinear.ffn"),
        (calinear.CaLinear, "coefficients", "calinear.coefficients"),
        (training, "compute_loss", "nn.loss"),
        (training, "pretrain", "training.pretrain"),
        (training, "calibrate", "training.calibrate"),
        (training, "refine", "training.refine"),
        (training, "train_from_scratch", "training.scratch"),
        (evaluate, "score", "evaluate.score"),
        (evaluate, "export_coefficients", "evaluate.export_coefficients"),
        (data, "generate_synth_suite", "data.generate_synth_suite"),
        (data, "prepare", "data.prepare"),
        (data, "matrices", "data.matrices"),
        (checkpoint.Checkpoint, "load", "checkpoint.load"),
        (checkpoint, "assembly_from_checkpoint", "checkpoint.assembly_from_checkpoint"),
        (workflow, "load_shared", "checkpoint.load_shared"),
        (workflow, "checkpoint_from_assembly", "checkpoint.from_assembly"),
        (workflow, "pretrain_suite", "workflow.pretrain_suite"),
        (workflow, "adapt_to_task", "workflow.adapt_to_task"),
        (workflow, "scratch_baseline", "workflow.scratch_baseline"),
    ]
    for owner, attr, name in plain:
        patcher.wrap(owner, attr, timed(tracer, name))
    patcher.wrap(evaluate, "predictions", timed(tracer, "evaluate.predictions", _rows))
    patcher.wrap(checkpoint.Checkpoint, "save",
                 timed(tracer, "checkpoint.save", _file_bytes))
    patcher.replace(training, "AdamW", traced_optimizer(training.AdamW, tracer))


# -- reduction -------------------------------------------------------------------


def self_times(spans: list[Span]) -> dict[int, float]:
    """Each span's duration minus the part of its interval its children cover."""
    children: dict[int, list[Span]] = {}
    for s in spans:
        if s.parent is not None:
            children.setdefault(s.parent, []).append(s)
    out = {}
    for s in spans:
        covered = 0.0
        cur_lo = cur_hi = None
        for c in sorted(children.get(s.id, ()), key=lambda c: c.start):
            lo, hi = max(c.start, s.start), min(c.end, s.end)
            if hi <= lo:
                continue
            if cur_hi is None or lo > cur_hi:
                if cur_hi is not None:
                    covered += cur_hi - cur_lo
                cur_lo, cur_hi = lo, hi
            else:
                cur_hi = max(cur_hi, hi)
        if cur_hi is not None:
            covered += cur_hi - cur_lo
        out[s.id] = s.duration - covered
    return out


def _rank(p: float, n: int) -> int:
    """1-based nearest rank of percentile ``p`` among ``n`` sorted samples."""
    return max(1, math.ceil(round(p * n / 100.0, 9)))   # 99.9% of 10000 is 9990, not 9991


def tail_percentile(n: int) -> float | None:
    """The highest ladder percentile with at least ten samples beyond it."""
    best = None
    for p in PERCENTILE_LADDER:
        if n - _rank(p, n) >= MIN_BEYOND:
            best = p
    return best


def percentile(values, p: float) -> float:
    """Nearest-rank percentile of a non-empty sample."""
    ordered = sorted(values)
    return ordered[_rank(p, len(ordered)) - 1]


def step_times(spans: list[Span], nograd: set[int]) -> list[float]:
    """Start of a gradient-recording forward to the end of the next optimizer step."""
    out = []
    pending = None
    for s in spans:
        if s.name == "model.forward" and s.id not in nograd:
            pending = s.start          # a forward without a step (divergence) is dropped
        elif s.name == "optim.step" and pending is not None:
            out.append(s.end - pending)
            pending = None
    return out


def _under(spans: list[Span], prefix: str) -> set[int]:
    """Ids of spans that have an ancestor whose name starts with ``prefix``."""
    out: set[int] = set()
    for s in spans:   # spans are in start order, so parents come first
        p = s.parent
        if p is not None and (p in out or spans[p].name.startswith(prefix)):
            out.add(s.id)
    return out


PER_UNIT_TIMES = {
    "tensor.backward_s": "tensor.backward",
    "optim.step_s": "optim.step",
    "optim.init_s": "optim.init",
    "optim.zero_grad_s": "optim.zero_grad",
    "model.tokenizer_s": "model.tokenizer",
    "model.head_s": "model.head",
    "nn.attention_s": "nn.attention",
    "nn.layer_norm_s": "nn.layer_norm",
    "nn.loss_s": "nn.loss",
    "calinear.ffn_s": "calinear.ffn",
    "calinear.coefficients_s": "calinear.coefficients",
    "evaluate.score_s": "evaluate.score",
    "evaluate.predictions_s": "evaluate.predictions",
    "evaluate.export_coefficients_s": "evaluate.export_coefficients",
    "data.matrices_s": "data.matrices",
    "workflow.pretrain_suite_s": "workflow.pretrain_suite",
    "workflow.adapt_to_task_s": "workflow.adapt_to_task",
    "workflow.scratch_baseline_s": "workflow.scratch_baseline",
}
PER_UNIT_CALLS = {
    "tensor.backward_calls": "tensor.backward",
    "optim.step_calls": "optim.step",
    "calinear.coefficients_calls": "calinear.coefficients",
    "evaluate.score_calls": "evaluate.score",
}
TRAINING_PHASES = ("pretrain", "calibrate", "refine", "scratch")
PER_CALL_TIMES = {
    "checkpoint.save_s": "checkpoint.save",
    "checkpoint.load_s": "checkpoint.load",
    "checkpoint.load_shared_s": "checkpoint.load_shared",
    "checkpoint.assembly_s": "checkpoint.assembly_from_checkpoint",
}
PER_SETUP_TIMES = {
    "data.generate_synth_suite_s": "data.generate_synth_suite",
    "data.prepare_s": "data.prepare",
}


def layer_metrics(spans: list[Span], n_units: int, n_setups: int) -> dict[str, float]:
    """Per-layer figures: per traced unit, per call (checkpoint) or per set-up (data)."""
    selfs = self_times(spans)
    nograd = _under(spans, "evaluate.predictions")
    in_training = _under(spans, "training.")
    units = [s for s in spans if s.phase == "unit"]

    def total(name, pool=units, keep=lambda s: True):
        return sum(s.duration for s in pool if s.name == name and keep(s))

    def calls(name, pool=units, keep=lambda s: True):
        return sum(1 for s in pool if s.name == name and keep(s))

    def attr(name, key):
        return sum(s.attrs.get(key, 0) for s in units if s.name == name)

    per_unit = max(n_units, 1)
    out: dict[str, float] = {}
    for metric, name in PER_UNIT_TIMES.items():
        out[metric] = total(name) / per_unit
    for metric, name in PER_UNIT_CALLS.items():
        out[metric] = calls(name) / per_unit
    out["model.forward_calls"] = calls("model.forward") / per_unit
    out["model.forward_grad_s"] = total("model.forward",
                                        keep=lambda s: s.id not in nograd) / per_unit
    out["model.forward_nograd_s"] = total("model.forward",
                                          keep=lambda s: s.id in nograd) / per_unit
    stepped = attr("optim.step", "params")
    out["optim.params_stepped"] = stepped / per_unit
    out["optim.grad_present_ratio"] = attr("optim.step", "grads") / stepped if stepped else 0.0
    for phase in TRAINING_PHASES:
        name = f"training.{phase}"
        out[f"{name}_s"] = total(name) / per_unit
        out[f"{name}.self_s"] = sum(selfs[s.id] for s in units if s.name == name) / per_unit
    out["evaluate.validation_score_calls"] = calls(
        "evaluate.score", keep=lambda s: s.id in in_training) / per_unit
    out["evaluate.validation_score_s"] = total(
        "evaluate.score", keep=lambda s: s.id in in_training) / per_unit
    out["evaluate.predict_rows"] = attr("evaluate.predictions", "rows") / per_unit

    steps_ms = [1e3 * t for t in step_times(units, nograd)]
    tail = tail_percentile(len(steps_ms))
    out["training.step_count"] = len(steps_ms) / per_unit
    out["training.step_ms_p50"] = percentile(steps_ms, 50.0) if steps_ms else 0.0
    out["training.step_ms_tail"] = percentile(steps_ms, tail) if tail else 0.0
    out["training.step_ms_tail_pct"] = tail or 0.0

    for metric, name in PER_CALL_TIMES.items():
        n = calls(name, pool=spans)
        out[metric] = total(name, pool=spans) / n if n else 0.0
    saves = [s.attrs["bytes"] for s in spans if s.name == "checkpoint.save"]
    out["checkpoint.bytes"] = sum(saves) / len(saves) if saves else 0.0
    setups = [s for s in spans if s.phase == "setup"]
    for metric, name in PER_SETUP_TIMES.items():
        out[metric] = total(name, pool=setups) / max(n_setups, 1)
    out["trace.spans_per_unit"] = len(units) / per_unit
    return out

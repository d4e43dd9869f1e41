"""Three-phase training: cross-table pretraining, task calibration, refinement.

Pretraining samples a dataset uniformly at every step and trains the
shared body together with every dataset's own parts.  Calibration
freezes the shared body (except normalization parameters) and trains the
new dataset's tokenizer, head, and context from scratch.  Refinement
briefly unfreezes everything, and the from-scratch baseline trains every
parameter on one dataset.

All four phases run one step loop, ``_train``.  A phase hands it the
parameters it trains, a batch schedule, a log period, the tables it
validates on and one of two rules for the state it retains:

* best (calibrate, refine, scratch): the initial state and the state at
  every epoch end are candidates, and the one with the best validation
  metric is restored at the end, so refinement can never end worse than
  the calibration result;
* last (pretrain): the state at the latest log point is kept.

A non-finite loss stops the loop.  The retained state is restored when
the loop ends, also when a step raises.

From the parameters a phase trains the loop derives its two AdamW groups,
dataset-specific ones on the warmup/decay schedule and shared ones at the
constant base rate, and its freeze: while it runs exactly those parameters
have ``requires_grad`` set, and every flag is restored when it ends, also
when it raises.
"""

from __future__ import annotations

import json
import time
from dataclasses import asdict, dataclass, field
from math import ceil, isfinite
from typing import Iterator

import numpy as np

from . import data as D
from . import evaluate as E
from .errors import UsageError, check_choice, check_int, check_real
from .model import ModelAssembly
from .nn import Parameter, compute_loss
from .optim import AdamW, lr_at

# every phase name a spec, a train log or a checkpoint header may carry
PHASES = ("pretrain", "calibrate", "refine", "scratch")


@dataclass
class PhaseSpec:
    phase: str                 # one of PHASES
    epochs: int
    batch_cap: int = 1024
    base_lr: float = 1e-4
    seed: int = 0

    def __post_init__(self):
        check_choice("phase", self.phase, PHASES)
        check_int("epochs", self.epochs, 0)
        check_int("batch_cap", self.batch_cap, 1)
        check_real("base_lr", self.base_lr)
        check_int("seed", self.seed, 0)


# The reference epoch budget of each configured phase.  Calibration's is
# None: it follows the limited-data setting, see default_calibrate_epochs.
DEFAULT_EPOCHS = {"pretrain": 50, "calibrate": None, "refine": 5}


def default_calibrate_epochs(setting_name: str) -> int:
    return 240 if setting_name == "T-full" else 40


@dataclass
class LogEntry:
    epoch: int
    train_loss: float
    valid_metric: float
    metric_name: str
    lr_dataset: float
    lr_shared: float
    wall_time: float
    changed_params: list[str]


@dataclass
class TrainLog:
    phase: str
    dataset: str | None = None
    entries: list[LogEntry] = field(default_factory=list)
    best_epoch: int = 0
    best_metric: float = float("nan")
    diverged: bool = False
    step_losses: list[float] = field(default_factory=list)

    def to_jsonl(self, path) -> None:
        """One JSON object per line, meta first; a NaN or infinity is written as null."""
        meta = {"phase": self.phase, "dataset": self.dataset,
                "best_epoch": self.best_epoch, "best_metric": self.best_metric,
                "diverged": self.diverged}
        with open(path, "w", encoding="utf-8") as fh:
            for record in (meta, *map(asdict, self.entries)):
                strict = {k: None if isinstance(v, float) and not isfinite(v) else v
                          for k, v in record.items()}
                fh.write(json.dumps(strict, sort_keys=True, allow_nan=False) + "\n")


def _snapshot(params: dict[str, Parameter]) -> dict[str, np.ndarray]:
    return {n: p.data.copy() for n, p in params.items()}


def _restore(params: dict[str, Parameter], snap: dict[str, np.ndarray]) -> None:
    for n, arr in snap.items():
        params[n].data = arr.copy()


def _changed(before: dict[str, np.ndarray], after: dict[str, np.ndarray]) -> list[str]:
    return sorted(n for n, arr in after.items() if arr.tobytes() != before[n].tobytes())


Batches = Iterator[tuple[str, np.ndarray]]


def _train(assembly: ModelAssembly, bundles: list[D.DatasetBundle], spec: PhaseSpec,
           params: dict[str, Parameter], batches: Batches, total: int, log_every: int,
           keep_best: bool) -> TrainLog:
    """The step loop of every phase.

    ``params`` holds what the phase trains.  Its dataset-specific members
    form the scheduled AdamW group and its shared members the group at the
    constant ``spec.base_lr``; while the loop runs, exactly ``params`` have
    ``requires_grad`` set.  ``batches`` yields ``(dataset name, row
    indices)`` once per step, the indices counting rows of that bundle's
    train split.  ``total`` is the length of the learning-rate schedule.
    Every ``log_every`` steps, and after step ``total``, the loop validates
    and logs.  With
    ``keep_best`` it scores the one table in ``bundles`` (first before any
    step) and retains the best state; otherwise it reports the mean over
    ``bundles`` and retains the latest state.  Each bundle's train and
    valid splits are transformed once, before the first step.
    """
    train = {b.schema.name: D.matrices(b, "train") for b in bundles}
    valid = {b.schema.name: D.matrices(b, "valid") for b in bundles}
    shared = assembly.shared_parameters()
    opt = AdamW([{"params": [p for n, p in params.items() if n not in shared], "lr": 0.0},
                 {"params": [p for n, p in params.items() if n in shared], "lr": spec.base_lr}])
    log = TrainLog(phase=spec.phase, dataset=bundles[0].schema.name if keep_best else None)
    tasks = {b.schema.name: b.schema.task for b in bundles}
    kept = before = _snapshot(params)
    kept_epoch, kept_metric = 0, float("nan")
    if keep_best:
        kept_metric = E.score(assembly, bundles[0], "valid",
                              matrices=valid[bundles[0].schema.name]).value

    losses: list[float] = []
    period_start = 0
    lr_ds = 0.0
    t0 = time.perf_counter()
    flags = [(p, p.requires_grad) for p in assembly.parameters().values()]
    for p, _ in flags:
        p.requires_grad = p.name in params
    try:
        for step, (name, idx) in enumerate(batches, start=1):
            x_num, x_cat, y = train[name]
            lr_ds = lr_at(step, total, spec.base_lr)
            opt.groups[0]["lr"] = lr_ds
            pred = assembly.forward(name, x_num[idx], x_cat[idx])
            loss = compute_loss(pred, y[idx], tasks[name])
            value = loss.item()
            if not np.isfinite(value):
                log.diverged = True
                break
            loss.backward()
            opt.step()
            opt.zero_grad()
            losses.append(value)
            if step % log_every and step != total:
                continue

            scores = [E.score(assembly, b, "valid", matrices=valid[b.schema.name])
                      for b in bundles]
            if keep_best:
                metric, metric_name = scores[0].value, scores[0].metric
            else:
                metric = float(np.mean([s.value for s in scores]))
                metric_name = "mean_valid"
            snap = _snapshot(params)
            epoch = len(log.entries) + 1
            log.entries.append(LogEntry(
                epoch=epoch, train_loss=float(np.mean(losses[period_start:])),
                valid_metric=metric, metric_name=metric_name,
                lr_dataset=lr_ds, lr_shared=spec.base_lr,
                wall_time=time.perf_counter() - t0,
                changed_params=_changed(before, snap)))
            before, period_start = snap, len(losses)
            if not keep_best or (E.oriented(metric_name, metric)
                                 > E.oriented(metric_name, kept_metric)):
                kept, kept_epoch, kept_metric = snap, epoch, metric
    finally:
        _restore(params, kept)
        for p, flag in flags:
            p.requires_grad = flag
    log.best_epoch, log.best_metric = kept_epoch, kept_metric
    log.step_losses = losses
    return log


def _epoch_batches(name: str, n: int, spec: PhaseSpec,
                   rng: np.random.Generator) -> Batches:
    """One permutation of the rows per epoch, cut into batches."""
    for _ in range(spec.epochs):
        order = rng.permutation(n)
        for lo in range(0, n, spec.batch_cap):
            yield name, order[lo:lo + spec.batch_cap]


def _sampled_batches(sizes: dict[str, int], batch_cap: int, total: int,
                     rng: np.random.Generator) -> Batches:
    """A uniformly drawn dataset per step; each walks its own permutations."""
    names = list(sizes)
    orders = {n: rng.permutation(size) for n, size in sizes.items()}
    pos = dict.fromkeys(names, 0)
    for _ in range(total):
        name = names[int(rng.integers(len(names)))]
        size = sizes[name]
        if pos[name] >= size:
            orders[name] = rng.permutation(size)
            pos[name] = 0
        lo = pos[name]
        pos[name] = min(lo + batch_cap, size)
        yield name, orders[name][lo:pos[name]]


def _check_phase(spec: PhaseSpec, phase: str) -> None:
    if spec.phase != phase:
        raise UsageError(f"the {phase} phase was given a {spec.phase!r} spec")


def _fit_one(assembly: ModelAssembly, bundle: D.DatasetBundle, spec: PhaseSpec,
             norms_only: bool) -> TrainLog:
    """Epochs over one dataset, logged per epoch, best state retained: trains the
    dataset's parts, the shared norms and, unless ``norms_only``, the rest."""
    name = bundle.schema.name
    part = assembly.partition_parameters(name)
    params = {**part.dataset, **part.shared_norm, **({} if norms_only else part.shared_rest)}
    n = bundle.split_rows("train").size
    steps_per_epoch = max(1, ceil(n / spec.batch_cap))
    rng = np.random.default_rng(np.random.SeedSequence([spec.seed, 0xba7c4]))
    log = _train(assembly, [bundle], spec, params, _epoch_batches(name, n, spec, rng),
                 total=max(1, spec.epochs * steps_per_epoch), log_every=steps_per_epoch,
                 keep_best=True)
    assembly.dataset_phase[name] = spec.phase
    return log


def calibrate(assembly: ModelAssembly, bundle: D.DatasetBundle,
              spec: PhaseSpec) -> TrainLog:
    """Train {tokenizer, head, context} plus shared norms; freeze the rest."""
    _check_phase(spec, "calibrate")
    if assembly.provenance is None:
        raise UsageError("calibration needs a pretrained (or loaded) shared body")
    assembly.attach_dataset(bundle.schema.signature())
    return _fit_one(assembly, bundle, spec, norms_only=True)


def refine(assembly: ModelAssembly, bundle: D.DatasetBundle,
           spec: PhaseSpec) -> TrainLog:
    """Short all-parameter fine-tuning after calibration."""
    _check_phase(spec, "refine")
    name = bundle.schema.name
    if assembly.dataset_phase.get(name) != "calibrate":
        raise UsageError(f"refinement requires calibration of {name!r} first")
    return _fit_one(assembly, bundle, spec, norms_only=False)


def train_from_scratch(assembly: ModelAssembly, bundle: D.DatasetBundle,
                       spec: PhaseSpec) -> TrainLog:
    """Supervised baseline: all parameters trainable on one dataset."""
    _check_phase(spec, "scratch")
    if bundle.schema.name not in assembly.datasets:
        assembly.attach_dataset(bundle.schema.signature())
    return _fit_one(assembly, bundle, spec, norms_only=False)


def pretrain(assembly: ModelAssembly, bundles: list[D.DatasetBundle],
             spec: PhaseSpec, steps_total: int | None = None) -> TrainLog:
    """Cross-table pretraining with uniform per-step dataset sampling.

    ``steps_total`` defaults to spec.epochs * sum_i ceil(rows_i / batch_cap),
    which makes the expected per-dataset epoch count equal spec.epochs for
    same-sized datasets.  The run is logged at every epoch boundary (every
    sum_i ceil(rows_i / batch_cap) steps) and after the last step; each entry
    averages the losses of the steps since the entry before.
    """
    _check_phase(spec, "pretrain")
    if not bundles:
        raise UsageError("pretraining needs at least one dataset")
    for b in bundles:
        if b.schema.name not in assembly.datasets:
            raise UsageError(f"attach {b.schema.name!r} before pretraining")

    sizes = {b.schema.name: b.split_rows("train").size for b in bundles}
    steps_per_epoch = sum(ceil(size / spec.batch_cap) for size in sizes.values())
    total = steps_total if steps_total is not None else spec.epochs * steps_per_epoch
    if total <= 0:
        raise UsageError("pretraining needs a positive step count")

    rng = np.random.default_rng(np.random.SeedSequence([spec.seed, 0x9e7a1]))
    log = _train(assembly, bundles, spec, assembly.parameters(),
                 _sampled_batches(sizes, spec.batch_cap, total, rng),
                 total=total, log_every=steps_per_epoch, keep_best=False)
    assembly.provenance = "pretrain"
    return log

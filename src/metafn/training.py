"""Three-phase training: cross-table pretraining, task calibration, refinement.

Pretraining samples a dataset uniformly at every step and trains the
shared body together with every dataset's own parts.  Calibration
freezes the shared body (except normalization parameters) and trains the
new dataset's tokenizer, head, and context from scratch.  Refinement
briefly unfreezes everything, and the from-scratch baseline trains every
parameter on one dataset.

All four phases run one step loop, ``_train``.  A phase hands it its
tables, the parameters it trains, its seed stream and one of two rules for
the state it retains:

* best (calibrate, refine, scratch): the initial state and the state at
  every epoch end are candidates, and the one with the best validation
  metric is restored at the end, so refinement can never end worse than
  the calibration result;
* last (pretrain): the state at the latest log point is kept.

Every phase draws its batches the same way: at each step a uniformly
drawn table gives the next ``batch_cap`` rows of its current permutation,
and a table whose permutation is used up draws a new one.  With one table
that is one permutation per epoch, cut into batches.  An epoch, which is
also the log period, is the sum over tables of ``ceil(train rows /
batch_cap)`` steps, and a phase runs ``spec.epochs`` epochs unless
pretraining is given a step count.

A non-finite loss stops the loop.  The retained state is restored when
the loop ends, also when a step raises.  States are held by reference:
AdamW rebinds ``p.data`` and never writes into it, so no state is copied.

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

import numpy as np

from . import data as D
from . import evaluate as E
from .errors import UsageError, check_choice, check_int, check_real, write_file
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
        lines = [json.dumps({k: None if isinstance(v, float) and not isfinite(v) else v
                             for k, v in record.items()}, sort_keys=True, allow_nan=False)
                 for record in (meta, *map(asdict, self.entries))]
        write_file(path, "".join(line + "\n" for line in lines))


def _snapshot(params: dict[str, Parameter]) -> dict[str, np.ndarray]:
    return {n: p.data for n, p in params.items()}


def _changed(before: dict[str, np.ndarray], after: dict[str, np.ndarray]) -> list[str]:
    return sorted(n for n, arr in after.items() if arr.tobytes() != before[n].tobytes())


def _train(assembly: ModelAssembly, bundles: list[D.DatasetBundle], spec: PhaseSpec,
           params: dict[str, Parameter], keep_best: bool, stream: int,
           steps: int | None = None) -> TrainLog:
    """The step loop of every phase.

    ``params`` holds what the phase trains.  Its dataset-specific members
    form the scheduled AdamW group and its shared members the group at the
    constant ``spec.base_lr``; while the loop runs, exactly ``params`` have
    ``requires_grad`` set.  The batches of ``bundles`` are drawn from the
    seed stream ``[spec.seed, stream]``.  The schedule is ``steps`` long,
    by default ``spec.epochs`` epochs, and at every epoch end and after the
    last step the loop validates and logs.  With ``keep_best`` it scores
    the one table in ``bundles`` (first before any step) and retains the
    best state; otherwise it reports the mean over ``bundles`` and retains
    the latest state.  Each bundle's train and valid splits are transformed
    once, before the first step.
    """
    sizes = {b.schema.name: b.split_rows("train").size for b in bundles}
    log_every = sum(ceil(n / spec.batch_cap) for n in sizes.values())
    total = spec.epochs * log_every if steps is None else steps
    batches = _sampled_batches(sizes, spec.batch_cap, total, np.random.default_rng(
        np.random.SeedSequence([spec.seed, stream])))
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
        for n, arr in kept.items():
            params[n].data = arr
        for p, flag in flags:
            p.requires_grad = flag
    log.best_epoch, log.best_metric = kept_epoch, kept_metric
    log.step_losses = losses
    return log


def _sampled_batches(sizes: dict[str, int], batch_cap: int, total: int,
                     rng: np.random.Generator):
    """Yield ``total`` steps' (dataset name, train row indices): a uniformly
    drawn dataset per step, each walking its own permutations."""
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
    log = _train(assembly, [bundle], spec, params, keep_best=True, stream=0xba7c4)
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

    ``steps_total`` defaults to ``spec.epochs`` epochs, which makes the
    expected per-dataset epoch count equal spec.epochs for same-sized
    datasets.  Each log entry averages the losses of the steps since the
    entry before.
    """
    _check_phase(spec, "pretrain")
    if not bundles:
        raise UsageError("pretraining needs at least one dataset")
    for b in bundles:
        if b.schema.name not in assembly.datasets:
            raise UsageError(f"attach {b.schema.name!r} before pretraining")

    # every table has a train row, so an epoch is at least one step
    if (spec.epochs if steps_total is None else steps_total) <= 0:
        raise UsageError("pretraining needs a positive step count")
    log = _train(assembly, bundles, spec, assembly.parameters(), keep_best=False,
                 stream=0x9e7a1, steps=steps_total)
    assembly.provenance = "pretrain"
    return log

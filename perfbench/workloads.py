"""The three benchmark workloads: set-up, one unit of work, and its output checks.

Every workload uses the acceptance model (d=32, 2 blocks, 4 heads, M=4,
d_ffn=48, cal_hidden=16) on the synthetic suite whose seed is the workload
seed.  A unit is the repeated piece of work a run times:

* ``pretrain``: one ``workflow.pretrain_suite`` call (one epoch over the 16
  default tables at batch 128, with its validation pass) and the save of
  the pretrained checkpoint;
* ``adapt``: one held-out T-100 task, that is ``adapt_to_task``, a
  45-epoch ``scratch_baseline`` and two test ``evaluate.score`` calls;
* ``score``: load the pretrained checkpoint from disk, score the test split
  of all 16 large tables and export the mixture coefficients.

``work`` is what the clock times; ``check`` runs afterwards, untimed and
untraced, and turns the outputs into a ``UnitResult``.  The runner puts a
``FreezeCheck`` into every state as ``state["freeze"]``.
"""

from __future__ import annotations

import dataclasses
import functools
import hashlib
import math
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from metafn import checkpoint as C
from metafn import data as D
from metafn import evaluate as E
from metafn import training as TR
from metafn import workflow as W
from metafn.model import ModelAssembly, ModelConfig

MODEL = ModelConfig(d=32, n_blocks=2, n_heads=4, n_basis=4, d_ffn=48, cal_hidden=16)
BATCH = 128
PRETRAIN_EPOCHS = 1          # 160 steps over the default suite
SETUP_PRETRAIN_STEPS = 64    # the body adapt and score start from; its quality is not measured
SCORE_ROWS = 20480           # test split of 4096 rows: one full evaluate batch
SCORE_TABLES = 16


def _pretrain_spec(seed: int) -> TR.PhaseSpec:
    return TR.PhaseSpec("pretrain", epochs=PRETRAIN_EPOCHS, base_lr=1e-3,
                        batch_cap=BATCH, seed=seed)


def _adapt_specs(seed: int):
    cal = TR.PhaseSpec("calibrate", epochs=40, base_lr=3e-2, batch_cap=100, seed=seed)
    ref = TR.PhaseSpec("refine", epochs=5, base_lr=3e-2, batch_cap=100, seed=seed)
    scratch = dataclasses.replace(cal, phase="scratch", epochs=cal.epochs + ref.epochs)
    return cal, ref, scratch


def digest(*parts) -> str:
    """SHA-256 over raw bytes and float64 arrays, in order."""
    h = hashlib.sha256()
    for part in parts:
        h.update(part if isinstance(part, bytes)
                 else np.ascontiguousarray(part, dtype=np.float64).tobytes())
    return h.hexdigest()


@dataclass
class UnitResult:
    key: int                 # units with equal keys do identical work
    label: str
    seconds: float
    rows: int
    attempted: int
    failed: int
    digest: str
    problems: list[str] = field(default_factory=list)
    quality: dict = field(default_factory=dict)


class FreezeCheck:
    """Wraps ``training.calibrate`` to check the freeze contract on every call.

    Shared non-norm parameters must come back bitwise unchanged; the number
    of them left holding a ``.grad`` is recorded as found.
    """

    def __init__(self):
        self.unchanged: list[bool] = []
        self.frozen_grads: list[int] = []

    def install(self, patcher) -> None:
        def make(fn):
            @functools.wraps(fn)
            def calibrate(assembly, bundle, spec):
                before = {n: p.data.tobytes()
                          for n, p in assembly.shared_parameters().items()}
                log = fn(assembly, bundle, spec)
                rest = assembly.partition_parameters(bundle.schema.name).shared_rest
                self.unchanged.append(all(p.data.tobytes() == before[n]
                                          for n, p in rest.items()))
                self.frozen_grads.append(sum(p.grad is not None for p in rest.values()))
                return log
            return calibrate
        patcher.wrap(TR, "calibrate", make)


def _pretrained_body(seed: int, suite, path: Path) -> None:
    """Pretrain a shared body briefly on the default suite and save it to ``path``."""
    bundles = W.prepare_pretrain_bundles(suite, seed)
    assembly = ModelAssembly(MODEL, seed=seed)
    for b in bundles:
        assembly.attach_dataset(b.schema.signature())
    TR.pretrain(assembly, bundles, _pretrain_spec(seed), steps_total=SETUP_PRETRAIN_STEPS)
    C.save_checkpoint(assembly, path, "pretrain")


def _roundtrip_ok(path: Path, scratch: Path) -> bool:
    C.Checkpoint.load(path).save(scratch)
    return scratch.read_bytes() == path.read_bytes()


class Pretrain:
    name = "pretrain"
    setup_repeats = 9            # set-up takes well under a second here

    def setup(self, seed: int, workdir: Path):
        suite = D.generate_synth_suite(D.SynthSuiteSpec(seed=seed))
        bundles = W.prepare_pretrain_bundles(suite, seed)
        train_rows = [b.splits["train"].size for b in bundles]
        if any(n % BATCH for n in train_rows):    # then every step trains BATCH rows
            raise ValueError(f"train splits {train_rows} are not multiples of {BATCH}")
        per_epoch = sum(n // BATCH for n in train_rows)
        return {"seed": seed, "bundles": bundles, "steps": per_epoch * PRETRAIN_EPOCHS,
                "path": workdir / "pretrain.ckpt", "copy": workdir / "pretrain.copy.ckpt"}

    def ops_per_unit(self, state) -> int:
        return state["steps"]

    def work(self, state, k: int):
        seed = state["seed"]
        _, ckpt, log = W.pretrain_suite(MODEL, state["bundles"], _pretrain_spec(seed), seed)
        ckpt.save(state["path"])
        return log

    def check(self, state, k: int, log, seconds: float) -> UnitResult:
        losses = np.asarray(log.step_losses)
        finite = int(np.isfinite(losses).sum())
        problems = []
        if log.diverged or finite < state["steps"]:
            problems.append(f"{state['steps'] - finite} steps without a finite loss")
        valid = log.entries[-1].valid_metric if log.entries else float("nan")
        failed = state["steps"] - finite
        if not _roundtrip_ok(state["path"], state["copy"]):
            problems.append("checkpoint load -> save is not byte-identical")
            failed = state["steps"]
        return UnitResult(
            key=0, label="pretrain", seconds=seconds, rows=int(losses.size) * BATCH,
            attempted=state["steps"], failed=failed,
            digest=digest(losses, [e.valid_metric for e in log.entries],
                          state["path"].read_bytes()),
            problems=problems,
            quality={"pretrain_valid_mse": valid})


class Adapt:
    name = "adapt"
    setup_repeats = 3

    def setup(self, seed: int, workdir: Path):
        suite = D.generate_synth_suite(D.SynthSuiteSpec(seed=seed))
        path = workdir / "shared.ckpt"
        _pretrained_body(seed, suite, path)
        shared = C.Checkpoint.load(path)
        tasks = [D.prepare(raw, split_seed=seed, setting="T-100") for raw in suite.heldout]
        return {"seed": seed, "shared": shared, "tasks": tasks, "path": path,
                "copy": workdir / "shared.copy.ckpt", "freeze_seen": 0}

    def ops_per_unit(self, state) -> int:
        return 1

    def work(self, state, k: int):
        seed = state["seed"]
        cal, ref, scratch = _adapt_specs(seed)
        bundle = state["tasks"][k % len(state["tasks"])]
        asm_t, cal_log, ref_log = W.adapt_to_task(MODEL, state["shared"], bundle,
                                                  cal, ref, seed)
        asm_s, scr_log = W.scratch_baseline(MODEL, bundle, scratch, seed)
        s_t = E.score(asm_t, bundle, "test")
        s_s = E.score(asm_s, bundle, "test")
        return bundle, (cal_log, ref_log, scr_log), (s_t, s_s)

    def check(self, state, k: int, out, seconds: float) -> UnitResult:
        bundle, logs, (s_t, s_s) = out
        problems = []
        losses = [e.train_loss for log in logs for e in log.entries]
        valids = [e.valid_metric for log in logs for e in log.entries]
        if any(log.diverged for log in logs) or not np.all(np.isfinite(losses)):
            problems.append("a training loss is not finite")
        if not (math.isfinite(s_t.value) and math.isfinite(s_s.value)):
            problems.append("a test score is not finite")
        cal_log, ref_log, _ = logs
        if ref_log.best_metric > cal_log.best_metric:
            problems.append("refinement ended worse than calibration on validation")
        freeze = state["freeze"]
        new = freeze.unchanged[state["freeze_seen"]:]
        state["freeze_seen"] = len(freeze.unchanged)
        if not new or not all(new):
            problems.append("calibrate changed a frozen shared parameter")
        if k == 0 and not _roundtrip_ok(state["path"], state["copy"]):
            problems.append("checkpoint load -> save is not byte-identical")
        n_train = bundle.splits["train"].size
        return UnitResult(
            key=k % len(state["tasks"]), label=bundle.schema.name, seconds=seconds,
            rows=n_train * len(losses), attempted=1, failed=int(bool(problems)),
            digest=digest(losses, valids, [s_t.value, s_s.value]),
            problems=problems,
            quality={"heldout_test_mse": s_t.value, "scratch_test_mse": s_s.value,
                     "transfer_win": float(s_t.value < s_s.value)})


def _score_table(suite, small: D.DatasetBundle, i: int, seed: int) -> D.DatasetBundle:
    """A large table drawn from the same mixture and signature as ``small``."""
    rng = np.random.default_rng(np.random.SeedSequence([seed, 0x5c0e, i]))
    x = rng.standard_normal((SCORE_ROWS, small.x_num.shape[1]))
    y = suite.oracle_predictions(small, x) + suite.spec.noise_std * rng.standard_normal(SCORE_ROWS)
    big = D.DatasetBundle(small.schema, x, np.empty((SCORE_ROWS, 0), dtype=np.int64), y,
                          true_mixture=small.true_mixture)
    return D.prepare(big, split_seed=seed)


class Score:
    name = "score"
    setup_repeats = 3

    def setup(self, seed: int, workdir: Path):
        suite = D.generate_synth_suite(D.SynthSuiteSpec(seed=seed))
        path = workdir / "score.ckpt"
        _pretrained_body(seed, suite, path)
        tables = [_score_table(suite, b, i, seed)
                  for i, b in enumerate(suite.pretrain[:SCORE_TABLES])]
        return {"seed": seed, "tables": tables, "path": path,
                "copy": workdir / "score.copy.ckpt", "coeffs": workdir / "coefficients.json"}

    def ops_per_unit(self, state) -> int:
        return len(state["tables"])

    def work(self, state, k: int):
        ckpt = C.Checkpoint.load(state["path"])
        asm = C.assembly_from_checkpoint(ckpt, seed=state["seed"])
        scores = [E.score(asm, b, "test") for b in state["tables"]]
        doc = E.export_coefficients(asm, [b.schema.name for b in state["tables"]],
                                    state["coeffs"])
        return scores, doc

    def check(self, state, k: int, out, seconds: float) -> UnitResult:
        scores, doc = out
        values = [s.value for s in scores]
        failed = sum(not math.isfinite(v) for v in values)
        problems = [f"{failed} test scores are not finite"] if failed else []
        coeffs = np.array([r["coefficients"] for r in doc["records"]])
        if coeffs.size == 0 or np.any(coeffs <= 0) or \
                np.max(np.abs(coeffs.sum(axis=1) - 1.0)) > 1e-9:
            problems.append("exported coefficient rows are off the simplex")
            failed = len(values)
        if not _roundtrip_ok(state["path"], state["copy"]):
            problems.append("checkpoint load -> save is not byte-identical")
            failed = len(values)
        rows = sum(b.splits["test"].size for b in state["tables"])
        return UnitResult(
            key=0, label="score", seconds=seconds, rows=int(rows),
            attempted=len(values), failed=failed,
            digest=digest(values, coeffs), problems=problems,
            quality={"score_test_mse": float(np.mean(values))})


WORKLOADS = {w.name: w for w in (Pretrain, Adapt, Score)}

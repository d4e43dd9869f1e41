"""End-to-end experiment orchestration.

The transfer benchmark is the package's main verifiable experiment:
pretrain a shared body across the synthetic suite, adapt it to each
held-out task by calibration plus refinement, and compare against an
identically-configured model trained from scratch with the same total
epoch budget and the same seeds.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass, field

from . import data as D
from . import evaluate as E
from . import training as TR
from .checkpoint import Checkpoint, checkpoint_from_assembly, load_shared
from .data import SynthSuite
from .model import ModelAssembly, ModelConfig


@dataclass
class TaskComparison:
    task: str
    metric: str
    transfer: float
    scratch: float
    transfer_raw: float           # de-standardized, where applicable
    scratch_raw: float
    oracle_raw: float | None
    calibrate_best_epoch: int
    refine_best_epoch: int
    calibrate_valid: float
    refine_valid: float

    @property
    def transfer_wins(self) -> bool:
        return E.oriented(self.metric, self.transfer) > E.oriented(self.metric, self.scratch)


@dataclass
class TransferReport:
    tasks: list[TaskComparison] = field(default_factory=list)
    pretrain_log: TR.TrainLog | None = None

    @property
    def wins(self) -> int:
        return sum(t.transfer_wins for t in self.tasks)

    def score_table(self) -> E.ScoreTable:
        table = E.ScoreTable(["transfer", "scratch"])
        for t in self.tasks:
            table.add_row(t.task, t.metric, {"transfer": t.transfer, "scratch": t.scratch})
        return table


def prepare_pretrain_bundles(suite: SynthSuite, data_seed: int) -> list[D.DatasetBundle]:
    return [D.prepare(b, split_seed=data_seed) for b in suite.pretrain]


def pretrain_suite(cfg: ModelConfig, bundles: list[D.DatasetBundle],
                   spec: TR.PhaseSpec, model_seed: int):
    assembly = ModelAssembly(cfg, seed=model_seed)
    for b in bundles:
        assembly.attach_dataset(b.schema.signature())
    log = TR.pretrain(assembly, bundles, spec)
    return assembly, checkpoint_from_assembly(assembly, "pretrain"), log


def calibrate_task(cfg: ModelConfig, shared: Checkpoint, bundle: D.DatasetBundle,
                   spec: TR.PhaseSpec, model_seed: int):
    """Calibrate a fresh assembly around the pretrained body."""
    assembly = ModelAssembly(cfg, seed=model_seed)
    load_shared(assembly, shared)
    return assembly, TR.calibrate(assembly, bundle, spec)


def adapt_to_task(cfg: ModelConfig, shared: Checkpoint, bundle: D.DatasetBundle,
                  cal_spec: TR.PhaseSpec, ref_spec: TR.PhaseSpec,
                  model_seed: int):
    """Calibrate then refine a fresh assembly around the pretrained body."""
    assembly, cal_log = calibrate_task(cfg, shared, bundle, cal_spec, model_seed)
    return assembly, cal_log, TR.refine(assembly, bundle, ref_spec)


def scratch_baseline(cfg: ModelConfig, bundle: D.DatasetBundle,
                     spec: TR.PhaseSpec, model_seed: int):
    assembly = ModelAssembly(cfg, seed=model_seed)
    log = TR.train_from_scratch(assembly, bundle, spec)
    return assembly, log


def run_transfer_benchmark(suite: SynthSuite, cfg: ModelConfig,
                           pre_spec: TR.PhaseSpec, cal_spec: TR.PhaseSpec,
                           ref_spec: TR.PhaseSpec, setting: str,
                           data_seed: int, model_seed: int) -> TransferReport:
    pre_bundles = prepare_pretrain_bundles(suite, data_seed)
    _, shared, pre_log = pretrain_suite(cfg, pre_bundles, pre_spec, model_seed)

    scratch_spec = dataclasses.replace(
        cal_spec, phase="scratch", epochs=cal_spec.epochs + ref_spec.epochs)

    report = TransferReport(pretrain_log=pre_log)
    for raw in suite.heldout:
        bundle = D.prepare(raw, split_seed=data_seed, setting=setting)
        asm_t, cal_log, ref_log = adapt_to_task(cfg, shared, bundle,
                                                cal_spec, ref_spec, model_seed)
        asm_s, _ = scratch_baseline(cfg, bundle, scratch_spec, model_seed)
        s_t = E.score(asm_t, bundle, "test")
        s_s = E.score(asm_s, bundle, "test")
        oracle = suite.oracle_mse(bundle) if raw.true_mixture is not None else None
        report.tasks.append(TaskComparison(
            task=bundle.schema.name, metric=s_t.metric,
            transfer=s_t.value, scratch=s_s.value,
            transfer_raw=D.de_standardize_mse(bundle, s_t.value),
            scratch_raw=D.de_standardize_mse(bundle, s_s.value),
            oracle_raw=oracle,
            calibrate_best_epoch=cal_log.best_epoch,
            refine_best_epoch=ref_log.best_epoch,
            calibrate_valid=cal_log.best_metric,
            refine_valid=ref_log.best_metric))
    return report


def run_ablation_grid(suite: SynthSuite, base_cfg: ModelConfig,
                      pre_spec: TR.PhaseSpec, cal_spec: TR.PhaseSpec,
                      ref_spec: TR.PhaseSpec, setting: str, data_seed: int,
                      model_seed: int) -> dict[str, E.ScoreTable]:
    """Basis-count sweep (M = 1, 2, 4) plus the direct-coefficient variant.

    Each variant is pretrained from scratch on the suite, adapted to every
    held-out task, and scored on test; the tables are shaped for ranking
    (basis sweep) and win/tie/loss (coefficient source), with no numeric
    expectations attached.
    """
    variants = {f"basis-{m}": dataclasses.replace(base_cfg, n_basis=m) for m in (1, 2, 4)}
    variants["mlp"] = base_cfg
    variants["direct"] = dataclasses.replace(base_cfg, mode="direct")

    pre_bundles = prepare_pretrain_bundles(suite, data_seed)
    tasks = [D.prepare(raw, split_seed=data_seed, setting=setting) for raw in suite.heldout]
    scores: dict[str, dict[str, E.Score]] = {}
    by_config: dict[ModelConfig, dict[str, E.Score]] = {}
    for name, cfg in variants.items():
        if cfg not in by_config:
            _, shared, _ = pretrain_suite(cfg, pre_bundles, pre_spec, model_seed)
            per_task = {}
            for bundle in tasks:
                asm, _, _ = adapt_to_task(cfg, shared, bundle, cal_spec, ref_spec,
                                          model_seed)
                per_task[bundle.schema.name] = E.score(asm, bundle, "test")
            by_config[cfg] = per_task
        scores[name] = by_config[cfg]

    task_names = [b.schema.name for b in suite.heldout]
    tables: dict[str, E.ScoreTable] = {}
    for table_name, methods in (("basis_count", ["basis-1", "basis-2", "basis-4"]),
                                ("coefficient_source", ["mlp", "direct"])):
        table = E.ScoreTable(methods)
        for task in task_names:
            table.add_row(task, scores[methods[0]][task].metric,
                          {m: scores[m][task].value for m in methods})
        tables[table_name] = table
    return tables

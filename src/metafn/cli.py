"""Command-line entry point.

    metafn <command> --config <path> [--set key=value]...

Commands: gen-synth, pretrain, calibrate, refine, eval, export-coeffs,
report.  Exit codes: 0 success, 1 runtime/training failure, 2 usage or
configuration error.  Logs go to stderr; artifacts go to the output
directory, each accompanied by a provenance record (command, config
hash, seed).

Each command runs the ``workflow`` phase functions, so the CLI and the
library give the same numbers from the same state.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from . import data as D
from . import evaluate as E
from . import training as TR
from . import workflow as W
from .checkpoint import Checkpoint, assembly_from_checkpoint, checkpoint_from_assembly
from .config import RunConfig
from .errors import (ConfigError, DataError, MetafnError, UsageError, json_text, read_json,
                     write_file)
from .model import ModelAssembly

def _log(msg: str) -> None:
    print(msg, file=sys.stderr)


def _provenance(cfg: RunConfig, command: str, artifact: Path) -> None:
    record = {"command": command, "config_hash": cfg.hash(), "seed": cfg.seed,
              "artifact": artifact.name}
    write_file(artifact.with_name(artifact.name + ".provenance.json"), json_text(record))


def _suite(cfg: RunConfig) -> D.SynthSuite:
    """The exported suite ``data.suite_dir`` names, else the one ``data.synth`` generates."""
    suite_dir = cfg.raw["data"]["suite_dir"]
    if suite_dir is not None:
        return D.load_suite(suite_dir)
    return D.generate_synth_suite(cfg.synth_spec())


def _tasks(cfg: RunConfig, out: Path):
    """Yield (setting, prepared task, task directory) for every task and setting."""
    raws = list(_suite(cfg).heldout)
    raws += [D.load_csv(entry["csv"], entry["manifest"])
             for entry in cfg.raw["data"]["tasks"]]
    names = [raw.schema.name for raw in raws]
    for i, name in enumerate(names):
        if name in names[:i]:
            raise UsageError(f"two tasks share the name {name!r}; each task needs its own name")
    for raw in raws:
        for setting in cfg.settings:
            bundle = D.prepare(raw, split_seed=cfg.seed, setting=setting)
            yield setting, bundle, out / "tasks" / bundle.schema.name / setting


def _checkpoint(path: Path, command: str) -> Checkpoint:
    """Load a checkpoint an earlier command wrote; its absence is a usage error."""
    if not path.exists():
        raise UsageError(f"missing checkpoint {path}; run {command} first")
    return Checkpoint.load(path)


def _save_task(cfg: RunConfig, phase: str, assembly: ModelAssembly, log: TR.TrainLog,
               task_dir: Path, setting: str) -> None:
    """Write a calibrate/refine result: <phase>d.ckpt, its log, provenance."""
    path = task_dir / f"{phase}d.ckpt"
    checkpoint_from_assembly(assembly, phase).save(path)
    log_path = task_dir / f"{phase}.log.jsonl"
    log.to_jsonl(log_path)
    _provenance(cfg, phase, path)
    _provenance(cfg, phase, log_path)
    _log(f"{phase}d {log.dataset} [{setting}] "
         f"best epoch {log.best_epoch} metric {log.best_metric:.4f}")


def cmd_gen_synth(cfg: RunConfig, out: Path) -> None:
    suite = D.generate_synth_suite(cfg.synth_spec())
    suite_dir = out / "suite"
    D.export_suite(suite, suite_dir)
    _provenance(cfg, "gen-synth", suite_dir / "suite.json")
    _log(f"wrote {len(suite.pretrain)} pretraining and {len(suite.heldout)} "
         f"held-out datasets under {suite_dir}")


def cmd_pretrain(cfg: RunConfig, out: Path) -> None:
    bundles = W.prepare_pretrain_bundles(_suite(cfg), cfg.seed)
    _, ckpt, log = W.pretrain_suite(cfg.model_config(), bundles,
                                    cfg.phase_spec("pretrain"), cfg.seed)
    ckpt_path = out / "pretrained.ckpt"
    ckpt.save(ckpt_path)
    log.to_jsonl(out / "pretrain.log.jsonl")
    _provenance(cfg, "pretrain", ckpt_path)
    _provenance(cfg, "pretrain", out / "pretrain.log.jsonl")
    _log(f"pretrained for {len(log.entries)} logged epochs -> {ckpt_path}")
    if log.diverged:
        raise MetafnError("pretraining diverged; kept the last good checkpoint")


def cmd_calibrate(cfg: RunConfig, out: Path) -> None:
    shared = _checkpoint(out / "pretrained.ckpt", "pretrain")
    for setting, bundle, task_dir in _tasks(cfg, out):
        assembly, log = W.calibrate_task(cfg.model_config(), shared, bundle,
                                         cfg.phase_spec("calibrate", setting), cfg.seed)
        _save_task(cfg, "calibrate", assembly, log, task_dir, setting)


def cmd_refine(cfg: RunConfig, out: Path) -> None:
    for setting, bundle, task_dir in _tasks(cfg, out):
        ckpt = _checkpoint(task_dir / "calibrated.ckpt", "calibrate")
        assembly = assembly_from_checkpoint(ckpt, seed=cfg.seed)
        log = TR.refine(assembly, bundle, cfg.phase_spec("refine", setting))
        _save_task(cfg, "refine", assembly, log, task_dir, setting)


def cmd_eval(cfg: RunConfig, out: Path) -> None:
    methods = ["calibrated", "refined"]
    table = E.ScoreTable(methods)
    for setting, bundle, task_dir in _tasks(cfg, out):
        scores = {}
        for method in methods:
            ckpt = _checkpoint(task_dir / f"{method}.ckpt", method[:-1])
            scores[method] = E.score(assembly_from_checkpoint(ckpt, seed=cfg.seed),
                                     bundle, "test")
        table.add_row(f"{bundle.schema.name}|{setting}", scores["refined"].metric,
                      {m: s.value for m, s in scores.items()})
    path = out / "scores.json"
    write_file(path, json_text(table.to_dict()))
    _provenance(cfg, "eval", path)
    _log(f"scored {len(table.tasks)} task/setting pairs -> {path}")


def cmd_export_coeffs(cfg: RunConfig, out: Path) -> None:
    ckpt = _checkpoint(out / "pretrained.ckpt", "pretrain")
    assembly = assembly_from_checkpoint(ckpt, seed=cfg.seed)
    path = out / "coefficients.json"
    E.export_coefficients(assembly, sorted(assembly.datasets), path)
    _provenance(cfg, "export-coeffs", path)
    _log(f"exported coefficients for {len(assembly.datasets)} datasets -> {path}")


def cmd_report(cfg: RunConfig, out: Path) -> None:
    scores_path = out / "scores.json"
    if not scores_path.exists():
        raise UsageError(f"missing {scores_path}; run eval first")
    table = read_json(scores_path, DataError, "score table", E.ScoreTable.from_dict)
    report_prefix = out / "report"
    E.build_report({"main": table}, report_prefix)
    _provenance(cfg, "report", report_prefix.with_suffix(".json"))
    _log(f"wrote {report_prefix.with_suffix('.json')} and .txt")


HANDLERS = {
    "gen-synth": cmd_gen_synth,
    "pretrain": cmd_pretrain,
    "calibrate": cmd_calibrate,
    "refine": cmd_refine,
    "eval": cmd_eval,
    "export-coeffs": cmd_export_coeffs,
    "report": cmd_report,
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="metafn",
        description="cross-table pretraining for tabular prediction")
    parser.add_argument("command", choices=HANDLERS)
    parser.add_argument("--config", default=None,
                        help="JSON run configuration (defaults are used if omitted)")
    parser.add_argument("--set", dest="overrides", action="append", default=[],
                        metavar="KEY=VALUE", help="dotted-path config override")
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        cfg = RunConfig.load(args.config, args.overrides)
    except (ConfigError, UsageError) as exc:
        _log(f"error: {exc}")
        return 2
    out = cfg.output_dir()
    try:
        cfg.write_resolved(out)
        HANDLERS[args.command](cfg, out)
    except (ConfigError, UsageError) as exc:
        _log(f"error: {exc}")
        return 2
    except (MetafnError, OSError) as exc:    # OSError: an output cannot be written
        _log(f"error: {exc}")
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())

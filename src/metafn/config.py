"""Run configuration: JSON file + dotted-path overrides.

Defaults follow the reference setup (width 192, 4 blocks, 8 heads,
4 basis maps, learning rate 1e-4, weight decay 1e-5, batch cap 1024,
calibration 240 epochs full / 40 limited, refinement 5 epochs).  Every
command writes its resolved configuration next to its outputs so a run
can be reproduced bit-for-bit from the echoed file.
"""

from __future__ import annotations

import copy
import hashlib
import json
import os
from pathlib import Path

from .data import SETTINGS, SynthSuiteSpec
from .errors import ConfigError, check_int, check_real
from .model import ModelConfig
from .training import PhaseSpec, default_calibrate_epochs

OUTPUT_ROOT_ENV = "METAFN_OUTPUT_ROOT"

DEFAULTS: dict = {
    "model": {"d": 192, "blocks": 4, "heads": 8, "basis": 4, "d_ffn": 256,
              "cal_hidden": 16, "mode": "mlp"},
    "data": {
        "synth": SynthSuiteSpec().to_dict(),
        "suite_dir": None,          # read an exported suite instead of generating
        "tasks": [],                # extra CSV tasks: [{"csv":..., "manifest":...}]
    },
    "phases": {
        "pretrain": {"epochs": 50, "batch_cap": 1024, "lr": 1e-4,
                     "weight_decay": 1e-5, "warmup_frac": 0.2},
        "calibrate": {"epochs": None, "batch_cap": 1024, "lr": 1e-4,
                      "weight_decay": 1e-5, "warmup_frac": 0.2},
        "refine": {"epochs": 5, "batch_cap": 1024, "lr": 1e-4,
                   "weight_decay": 1e-5, "warmup_frac": 0.2},
    },
    "settings": ["T-100"],
    "seed": 0,
    "output_dir": "runs/default",
}


def _deep_merge(base: dict, override, path: str = "") -> dict:
    """``base`` with ``override``'s values; a section stays an object, merged by key."""
    if not isinstance(override, dict):
        raise ConfigError(f"{path or 'the configuration'} must be a JSON object")
    out = copy.deepcopy(base)
    for key, value in override.items():
        here = f"{path}.{key}" if path else key
        if key not in base:
            raise ConfigError(f"unknown configuration key {here!r}")
        if isinstance(base[key], dict):
            out[key] = _deep_merge(base[key], value, here)
        else:
            out[key] = copy.deepcopy(value)
    return out


def parse_override(text: str) -> tuple[str, object]:
    if "=" not in text:
        raise ConfigError(f"override {text!r} is not of the form key=value")
    key, raw = text.split("=", 1)
    try:
        value = json.loads(raw)
    except json.JSONDecodeError:
        value = raw
    return key.strip(), value


class RunConfig:
    """Validated run configuration with helpers to build typed specs."""

    def __init__(self, resolved: dict):
        self.raw = resolved
        self.validate()

    @classmethod
    def load(cls, path: str | None, overrides: list[str] = ()) -> "RunConfig":
        cfg = copy.deepcopy(DEFAULTS)
        if path is not None:
            try:
                with open(path, "r", encoding="utf-8") as fh:
                    user = json.load(fh)
            except FileNotFoundError:
                raise ConfigError(f"config file not found: {path}") from None
            except json.JSONDecodeError as exc:
                raise ConfigError(f"config file {path} is not valid JSON: {exc}") from None
            cfg = _deep_merge(cfg, user)
        for text in overrides:
            key, value = parse_override(text)
            for part in reversed(key.split(".")):
                value = {part: value}
            cfg = _deep_merge(cfg, value)
        return cls(cfg)

    def validate(self) -> None:
        check_int("seed", self.raw["seed"], 0)
        for key, value in self.raw["model"].items():
            if key != "mode":
                check_int(f"model.{key}", value, 1)
        try:
            self.model_config().validate()
        except ConfigError as exc:
            raise ConfigError(f"model: {exc}") from None
        try:
            self.synth_spec().validate()
        except ConfigError as exc:
            raise ConfigError(f"data.synth.{exc}") from None
        if not isinstance(self.raw["output_dir"], str):
            raise ConfigError("output_dir must be a string")
        if not isinstance(self.raw["data"]["suite_dir"], (str, type(None))):
            raise ConfigError("data.suite_dir must be a string or null")
        if not isinstance(self.raw["settings"], list):
            raise ConfigError("settings must be a list of setting names")
        for name in self.raw["settings"]:
            if not isinstance(name, str) or name not in SETTINGS:
                raise ConfigError(f"settings: unknown setting name {name!r}")
        for phase, spec in self.raw["phases"].items():
            here = f"phases.{phase}"
            if spec["epochs"] is not None or phase != "calibrate":
                check_int(f"{here}.epochs", spec["epochs"], 0)
            check_int(f"{here}.batch_cap", spec["batch_cap"], 1)
            check_real(f"{here}.lr", spec["lr"], 0.0)
            check_real(f"{here}.weight_decay", spec["weight_decay"], 0.0)
            check_real(f"{here}.warmup_frac", spec["warmup_frac"], 0.0, 1.0)
        tasks = self.raw["data"]["tasks"]
        if not isinstance(tasks, list) or not all(
                isinstance(t, dict) and isinstance(t.get("csv"), str)
                and isinstance(t.get("manifest"), str) for t in tasks):
            raise ConfigError('data.tasks must list {"csv": path, "manifest": path} entries')

    # -- typed views -----------------------------------------------------------

    def model_config(self) -> ModelConfig:
        m = self.raw["model"]
        return ModelConfig(d=m["d"], n_blocks=m["blocks"], n_heads=m["heads"],
                           n_basis=m["basis"], d_ffn=m["d_ffn"],
                           cal_hidden=m["cal_hidden"], mode=m["mode"])

    def synth_spec(self) -> SynthSuiteSpec:
        return SynthSuiteSpec(**self.raw["data"]["synth"])

    def phase_spec(self, phase: str, setting: str | None = None) -> PhaseSpec:
        p = self.raw["phases"][phase]
        epochs = p["epochs"]
        if epochs is None:     # calibration only; validate rejects it elsewhere
            epochs = default_calibrate_epochs(setting or "T-full")
        return PhaseSpec(phase=phase, epochs=epochs, batch_cap=p["batch_cap"],
                         base_lr=p["lr"], weight_decay=p["weight_decay"],
                         warmup_frac=p["warmup_frac"], seed=self.raw["seed"])

    @property
    def seed(self) -> int:
        return self.raw["seed"]

    @property
    def settings(self) -> list[str]:
        return list(self.raw["settings"])

    def output_dir(self) -> Path:
        root = os.environ.get(OUTPUT_ROOT_ENV, "")
        out = Path(self.raw["output_dir"])
        return Path(root) / out if root and not out.is_absolute() else out

    # -- provenance --------------------------------------------------------------

    def canonical_json(self) -> str:
        return json.dumps(self.raw, sort_keys=True, indent=2) + "\n"

    def hash(self) -> str:
        return hashlib.sha256(self.canonical_json().encode("utf-8")).hexdigest()

    def write_resolved(self, directory: Path) -> Path:
        directory.mkdir(parents=True, exist_ok=True)
        path = directory / "config.resolved.json"
        path.write_text(self.canonical_json(), encoding="utf-8")
        return path

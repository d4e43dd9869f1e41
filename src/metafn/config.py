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
from .errors import ConfigError
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


def _deep_merge(base: dict, override: dict, path: str = "") -> dict:
    out = copy.deepcopy(base)
    for key, value in override.items():
        here = f"{path}.{key}" if path else key
        if key not in base:
            raise ConfigError(f"unknown configuration key {here!r}")
        if isinstance(base[key], dict) and isinstance(value, dict):
            out[key] = _deep_merge(base[key], value, here)
        else:
            out[key] = copy.deepcopy(value)
    return out


def _set_dotted(cfg: dict, dotted: str, value) -> None:
    parts = dotted.split(".")
    node = cfg
    for p in parts[:-1]:
        if not isinstance(node, dict) or p not in node:
            raise ConfigError(f"unknown configuration key {dotted!r}")
        node = node[p]
    if not isinstance(node, dict) or parts[-1] not in node:
        raise ConfigError(f"unknown configuration key {dotted!r}")
    node[parts[-1]] = value


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
            _set_dotted(cfg, key, value)
        return cls(cfg)

    def validate(self) -> None:
        self.model_config().validate()
        for name in self.raw["settings"]:
            if name not in SETTINGS:
                raise ConfigError(f"settings: unknown setting name {name!r}")
        for phase, spec in self.raw["phases"].items():
            epochs = spec["epochs"]
            if epochs is not None and epochs < 0:
                raise ConfigError(f"phases.{phase}.epochs must be >= 0")
            cap = spec["batch_cap"]
            if not isinstance(cap, int) or cap < 1:
                raise ConfigError(f"phases.{phase}.batch_cap must be an integer >= 1")
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
        if epochs is None:
            if phase != "calibrate":
                raise ConfigError(f"phases.{phase}.epochs must be set")
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

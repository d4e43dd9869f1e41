"""Run configuration: JSON file + dotted-path overrides.

The ``model``, ``data.synth`` and ``phases.<phase>`` sections hold the
fields of ``ModelConfig``, ``SynthSuiteSpec`` and ``PhaseSpec`` under
their field names, with the dataclasses' defaults; each dataclass checks
its own values.  Only the phases' epoch budgets come from
``training.DEFAULT_EPOCHS``, and ``seed`` is the run's.  Settings no run
varies are constants in ``optim`` and ``data``, not keys.  Every command
writes its resolved configuration next to its outputs so a run can be
reproduced bit-for-bit from the echoed file.
"""

from __future__ import annotations

import copy
import dataclasses
import hashlib
import json
import os
from functools import partial
from pathlib import Path

from .data import SETTINGS, SynthSuiteSpec
from .errors import ConfigError, check_int, json_text, read_json, write_file
from .model import ModelConfig
from .training import DEFAULT_EPOCHS, PhaseSpec, default_calibrate_epochs

OUTPUT_ROOT_ENV = "METAFN_OUTPUT_ROOT"


def _section(spec, *run_keys: str) -> dict:
    """A spec's fields as a configuration section, less those the run supplies."""
    return {k: v for k, v in dataclasses.asdict(spec).items() if k not in run_keys}


DEFAULTS: dict = {
    "model": _section(ModelConfig()),
    "data": {
        "synth": _section(SynthSuiteSpec()),
        "suite_dir": None,          # read an exported suite instead of generating
        "tasks": [],                # extra CSV tasks: [{"csv":..., "manifest":...}]
    },
    "phases": {phase: {**_section(PhaseSpec(phase, 0), "phase", "seed"), "epochs": epochs}
               for phase, epochs in DEFAULT_EPOCHS.items()},
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
        """Check every key: each spec section through its dataclass, the rest here."""
        self.raw = resolved
        check_int("seed", self.raw["seed"], 0)
        specs = {"model": self.model_config, "data.synth": self.synth_spec,
                 **{f"phases.{p}": partial(self.phase_spec, p) for p in self.raw["phases"]}}
        for section, build in specs.items():
            try:
                build()
            except ConfigError as exc:
                raise ConfigError(f"{section}.{exc}") from None
        if not isinstance(self.raw["output_dir"], str):
            raise ConfigError("output_dir must be a string")
        if not isinstance(self.raw["data"]["suite_dir"], (str, type(None))):
            raise ConfigError("data.suite_dir must be a string or null")
        if not isinstance(self.raw["settings"], list):
            raise ConfigError("settings must be a list of setting names")
        for i, name in enumerate(self.raw["settings"]):
            if not isinstance(name, str) or name not in SETTINGS:
                raise ConfigError(f"settings: unknown setting name {name!r}")
            if name in self.raw["settings"][:i]:
                raise ConfigError(f"settings: {name!r} is listed twice")
        tasks = self.raw["data"]["tasks"]
        if not isinstance(tasks, list) or not all(
                isinstance(t, dict) and isinstance(t.get("csv"), str)
                and isinstance(t.get("manifest"), str) for t in tasks):
            raise ConfigError('data.tasks must list {"csv": path, "manifest": path} entries')
        for i, task in enumerate(tasks):
            unknown = sorted(set(task) - {"csv", "manifest"})
            if unknown:
                raise ConfigError(f"data.tasks[{i}]: unknown key {unknown[0]!r}")

    @classmethod
    def load(cls, path: str | None, overrides: list[str] = ()) -> "RunConfig":
        cfg = copy.deepcopy(DEFAULTS)
        if path is not None:
            cfg = read_json(path, ConfigError, "config file", partial(_deep_merge, cfg))
        for text in overrides:
            key, value = parse_override(text)
            for part in reversed(key.split(".")):
                value = {part: value}
            cfg = _deep_merge(cfg, value)
        return cls(cfg)

    # -- typed views -----------------------------------------------------------

    def model_config(self) -> ModelConfig:
        return ModelConfig(**self.raw["model"])

    def synth_spec(self) -> SynthSuiteSpec:
        return SynthSuiteSpec(**self.raw["data"]["synth"])

    def phase_spec(self, phase: str, setting: str | None = None) -> PhaseSpec:
        section = dict(self.raw["phases"][phase])
        if section["epochs"] is None and phase == "calibrate":
            section["epochs"] = default_calibrate_epochs(setting or "T-full")
        return PhaseSpec(phase=phase, seed=self.raw["seed"], **section)

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
        return json_text(self.raw)

    def hash(self) -> str:
        return hashlib.sha256(self.canonical_json().encode("utf-8")).hexdigest()

    def write_resolved(self, directory: Path) -> None:
        write_file(directory / "config.resolved.json", self.canonical_json())

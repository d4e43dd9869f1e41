"""The names through which the training path reaches its layers.

An external profiler (``perfbench/tracing.py``) times the library by
replacing module attributes: ``model.layer_norm``, ``model.self_attention``,
``model.calinear_ffn_forward``, ``training.compute_loss``, ``training.AdamW``
and ``evaluate.score`` inside a step, and the workflow and phase functions
around it.  If a refactor stops calling one of them through that attribute,
its spans go silent without any error; these tests catch that.
"""

import functools
from pathlib import Path

import pytest

from metafn import data as D
from metafn import evaluate as E
from metafn import model as M
from metafn import training as TR
from metafn import workflow as W
from metafn.checkpoint import load_shared
from metafn.cli import main
from metafn.model import ModelAssembly, ModelConfig

CFG = ModelConfig(d=8, n_blocks=2, n_heads=2, n_basis=2, d_ffn=6, cal_hidden=4)
SUITE_SPEC = D.SynthSuiteSpec(seed=3, n_basis_functions=2, n_pretrain=2,
                              rows_per_dataset=100, n_features=3, noise_std=0.1,
                              n_heldout=1, heldout_rows=100, hidden=4)
HOOKS = [(M, "layer_norm"), (M, "self_attention"), (M, "calinear_ffn_forward"),
         (TR, "compute_loss"), (TR, "AdamW"), (E, "score")]
CLI_HOOKS = [(W, "pretrain_suite"), (W, "load_shared"), (W, "checkpoint_from_assembly"),
             (TR, "calibrate"), (TR, "refine")]
LIBRARY_HOOKS = [(TR, "pretrain"), (TR, "train_from_scratch"), (W, "adapt_to_task"),
                 (W, "scratch_baseline")]
TINY = Path(__file__).resolve().parents[1] / "configs" / "tiny.json"


def count_calls(monkeypatch, hooks):
    seen = {}
    for owner, name in hooks:
        key = f"{owner.__name__}.{name}"
        seen[key] = 0

        def make(fn, key=key):
            @functools.wraps(fn)
            def counting(*args, **kwargs):
                seen[key] += 1
                return fn(*args, **kwargs)
            return counting

        monkeypatch.setattr(owner, name, make(getattr(owner, name)))
    return seen


@pytest.fixture
def counts(monkeypatch):
    return count_calls(monkeypatch, HOOKS)


def test_pretrain_and_calibrate_call_every_hook_point(counts):
    suite = D.generate_synth_suite(SUITE_SPEC)
    bundles = W.prepare_pretrain_bundles(suite, data_seed=0)
    _, shared, _ = W.pretrain_suite(CFG, bundles, TR.PhaseSpec("pretrain", epochs=1), 0)
    assert all(counts.values()), counts

    counts.update(dict.fromkeys(counts, 0))
    asm = ModelAssembly(CFG, seed=1)
    load_shared(asm, shared)
    bundle = D.prepare(suite.heldout[0], split_seed=0, setting="T-100")
    TR.calibrate(asm, bundle, TR.PhaseSpec("calibrate", epochs=1))
    assert all(counts.values()), counts


def test_cli_runs_through_the_workflow_hook_points(monkeypatch, tmp_path):
    seen = count_calls(monkeypatch, CLI_HOOKS)
    out = f'output_dir="{tmp_path / "run"}"'
    for command in ("gen-synth", "pretrain", "calibrate", "refine"):
        assert main([command, "--config", str(TINY), "--set", out]) == 0, command
    assert all(seen.values()), seen


def test_transfer_benchmark_runs_through_the_phase_hook_points(monkeypatch):
    seen = count_calls(monkeypatch, LIBRARY_HOOKS)
    W.run_transfer_benchmark(D.generate_synth_suite(SUITE_SPEC), CFG,
                             TR.PhaseSpec("pretrain", epochs=1),
                             TR.PhaseSpec("calibrate", epochs=1),
                             TR.PhaseSpec("refine", epochs=1),
                             setting="T-100", data_seed=0, model_seed=0)
    assert all(seen.values()), seen

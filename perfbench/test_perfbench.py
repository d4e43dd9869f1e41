"""Tests of the benchmark's own arithmetic and plumbing.

    python3 -m pytest perfbench/test_perfbench.py
"""

import sys
from pathlib import Path

import numpy as np
import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))
sys.path.insert(0, str(Path(__file__).resolve().parent))

from tracing import (Patcher, Span, Tracer, install_tracing, layer_metrics,  # noqa: E402
                     percentile, self_times, step_times, tail_percentile)
from workloads import FreezeCheck  # noqa: E402


@pytest.mark.parametrize("n, expected", [
    (0, None), (19, None), (20, 50.0), (39, 50.0), (40, 75.0), (100, 90.0),
    (199, 90.0), (200, 95.0), (640, 95.0), (1000, 99.0), (10000, 99.9)])
def test_tail_is_highest_percentile_with_ten_samples_beyond(n, expected):
    assert tail_percentile(n) == expected


def test_nearest_rank_percentile():
    values = list(range(100, 0, -1))
    assert percentile(values, 50.0) == 50
    assert percentile(values, 90.0) == 90
    assert percentile(values, 100.0) == 100
    assert percentile([7.0], 99.0) == 7.0


def _span(i, name, start, end, parent=None, phase="unit"):
    return Span(i, name, start, end, parent, 0, phase)


def test_self_time_subtracts_the_union_of_children():
    spans = [
        _span(0, "root", 0.0, 10.0),
        _span(1, "a", 1.0, 4.0, parent=0),
        _span(2, "a.child", 2.0, 3.0, parent=1),
        _span(3, "b", 3.0, 6.0, parent=0),      # overlaps a: [1, 6] counted once
        _span(4, "c", 8.0, 12.0, parent=0),     # clipped to the parent's end
        _span(5, "d", 7.0, 7.5),                # no parent, no children
    ]
    selfs = self_times(spans)
    assert selfs[0] == pytest.approx(10.0 - 5.0 - 2.0)
    assert selfs[1] == pytest.approx(3.0 - 1.0)
    assert selfs[2] == pytest.approx(1.0)
    assert selfs[3] == pytest.approx(3.0)
    assert selfs[5] == pytest.approx(0.5)


def test_layer_metrics_split_steps_and_validation():
    spans = [
        _span(0, "training.calibrate", 0.0, 10.0),
        _span(1, "model.forward", 0.0, 1.0, parent=0),
        _span(2, "optim.step", 2.0, 3.0, parent=0),
        _span(3, "evaluate.score", 3.0, 4.0, parent=0),
        _span(4, "evaluate.predictions", 3.0, 4.0, parent=3),
        _span(5, "model.forward", 3.0, 3.5, parent=4),
        _span(6, "model.forward", 5.0, 6.0, parent=0),
        _span(7, "optim.step", 6.0, 8.0, parent=0),
        _span(8, "evaluate.score", 11.0, 12.0),
    ]
    spans[2].attrs.update(params=10, grads=4)
    spans[7].attrs.update(params=10, grads=6)
    assert step_times(spans, {5}) == [3.0, 3.0]
    m = layer_metrics(spans, n_units=1, n_setups=1)
    assert m["model.forward_calls"] == 3
    assert m["model.forward_grad_s"] == pytest.approx(2.0)
    assert m["model.forward_nograd_s"] == pytest.approx(0.5)
    assert m["evaluate.score_calls"] == 2
    assert m["evaluate.validation_score_calls"] == 1
    assert m["optim.grad_present_ratio"] == pytest.approx(0.5)
    assert m["training.calibrate.self_s"] == pytest.approx(10.0 - 1 - 1 - 1 - 1 - 2)
    assert m["training.step_ms_p50"] == pytest.approx(3000.0)
    assert m["training.step_ms_tail_pct"] == 0.0


def _tiny_step():
    """One forward, loss, backward and AdamW step through the library's lookups."""
    from metafn import training
    from metafn.model import DatasetSignature, ModelAssembly, ModelConfig
    cfg = ModelConfig(d=8, n_blocks=1, n_heads=2, n_basis=2, d_ffn=6, cal_hidden=4)
    asm = ModelAssembly(cfg, seed=3)
    asm.attach_dataset(DatasetSignature("t", "regression", ("numeric", "numeric"), ()))
    rng = np.random.default_rng(4)
    x, y = rng.standard_normal((5, 2)), rng.standard_normal(5)
    opt = training.AdamW(list(asm.parameters().values()), lr=1e-2)
    loss = training.compute_loss(asm.forward("t", x, np.empty((5, 0), dtype=np.int64)),
                                 y, "regression")
    loss.backward()
    opt.step()
    return {n: p.data.copy() for n, p in asm.parameters().items()}


def test_unwrapping_restores_every_original_object():
    patcher = Patcher()
    install_tracing(Tracer(), patcher)
    FreezeCheck().install(patcher)
    originals = {}
    for owner, name, old in patcher._saved:      # training.calibrate is wrapped twice
        originals.setdefault((owner, name), old)
    assert len(originals) > 20
    for (owner, name), old in originals.items():
        assert vars(owner)[name] is not old
    patcher.restore()
    for (owner, name), old in originals.items():
        assert vars(owner)[name] is old, f"{owner!r}.{name} was not restored"


def test_tracing_records_spans_without_changing_results():
    plain = _tiny_step()
    tracer, patcher = Tracer(), Patcher()
    install_tracing(tracer, patcher)
    try:
        traced = _tiny_step()
    finally:
        patcher.restore()
    assert plain.keys() == traced.keys()
    assert all(np.array_equal(plain[n], traced[n]) for n in plain)
    names = {s.name for s in tracer.spans}
    assert {"model.forward", "nn.attention", "calinear.ffn", "nn.loss",
            "tensor.backward", "optim.step", "optim.init"} <= names
    assert all(s.end is not None for s in tracer.spans)

import hashlib
import json

import numpy as np
import pytest

from metafn import data as D
from metafn import training as TR
from metafn import workflow as W
from metafn.checkpoint import (Checkpoint, assembly_from_checkpoint, load_shared,
                               save_checkpoint)
from metafn.errors import UsageError
from metafn.model import ModelAssembly, ModelConfig
from metafn.optim import WARMUP_FRAC

CFG = ModelConfig(d=16, n_blocks=2, n_heads=2, n_basis=2, d_ffn=12, cal_hidden=4)

SUITE_SPEC = D.SynthSuiteSpec(seed=5, n_basis_functions=3, n_pretrain=3,
                              rows_per_dataset=300, n_features=4, noise_std=0.1,
                              n_heldout=2, heldout_rows=200, hidden=8)


def digest(p):
    return hashlib.sha256(np.ascontiguousarray(p.data).tobytes()).hexdigest()


@pytest.fixture(scope="module")
def suite():
    return D.generate_synth_suite(SUITE_SPEC)


def pretrained(suite, epochs=10, seed=0):
    bundles = W.prepare_pretrain_bundles(suite, data_seed=seed)
    spec = TR.PhaseSpec("pretrain", epochs=epochs, seed=seed)
    return W.pretrain_suite(CFG, bundles, spec, model_seed=seed)


def test_pretrain_updates_shared_and_dataset_parts(suite):
    assembly, _, log = pretrained(suite, epochs=3)
    changed = set(log.entries[0].changed_params)
    assert any(n.startswith("blocks.") for n in changed)
    assert any(n.startswith("datasets.") for n in changed)


def test_pretrain_bitwise_deterministic(suite):
    a1, _, _ = pretrained(suite, epochs=3, seed=7)
    a2, _, _ = pretrained(suite, epochs=3, seed=7)
    for name, p in a1.parameters().items():
        np.testing.assert_array_equal(p.data, a2.parameters()[name].data)


def test_pretrain_learning_progress(suite):
    _, _, log = pretrained(suite, epochs=12)
    losses = log.step_losses
    k = max(1, len(losses) // 10)
    assert np.mean(losses[-k:]) < np.mean(losses[:k])


def test_pretrain_requires_attached_bundles(suite):
    bundles = W.prepare_pretrain_bundles(suite, data_seed=0)
    asm = ModelAssembly(CFG, seed=0)
    with pytest.raises(UsageError, match="attach"):
        TR.pretrain(asm, bundles, TR.PhaseSpec("pretrain", epochs=1))


def test_pretrain_empty_suite_is_usage_error():
    asm = ModelAssembly(CFG, seed=0)
    with pytest.raises(UsageError):
        TR.pretrain(asm, [], TR.PhaseSpec("pretrain", epochs=1))


def adapt_once(suite, cal_epochs=6, ref_epochs=2, seed=1):
    _, shared, _ = pretrained(suite, epochs=6, seed=seed)
    bundle = D.prepare(suite.heldout[0], split_seed=seed, setting="T-100")
    asm = ModelAssembly(CFG, seed=seed + 100)
    load_shared(asm, shared)
    cal_spec = TR.PhaseSpec("calibrate", epochs=cal_epochs, seed=seed)
    cal_log = TR.calibrate(asm, bundle, cal_spec)
    return asm, bundle, cal_log, shared


def test_calibrate_freeze_contract(suite):
    _, shared, _ = pretrained(suite, epochs=4, seed=2)
    bundle = D.prepare(suite.heldout[0], split_seed=2, setting="T-100")
    asm = ModelAssembly(CFG, seed=55)
    load_shared(asm, shared)
    part_probe = ModelAssembly(CFG, seed=55)  # names of shared params only
    frozen_names = [n for n in part_probe.shared_parameters()
                    if "norm" not in n]
    before = {n: digest(asm.parameters()[n]) for n in frozen_names}
    log = TR.calibrate(asm, bundle,
                       TR.PhaseSpec("calibrate", epochs=8, base_lr=1e-2, seed=3))
    after = {n: digest(asm.parameters()[n]) for n in frozen_names}
    assert before == after
    # calibration actually improved on the initial state, and the returned
    # context moved away from its deterministic initialization
    assert log.best_epoch > 0
    ctx = asm.datasets[bundle.schema.name].context
    fresh = ModelAssembly(CFG, seed=55)
    fresh.attach_dataset(bundle.schema.signature())
    assert not np.array_equal(ctx.data,
                              fresh.datasets[bundle.schema.name].context.data)


def test_calibrate_changed_set_is_exactly_allowed_set(suite):
    _, shared, _ = pretrained(suite, epochs=4, seed=3)
    bundle = D.prepare(suite.heldout[1], split_seed=3, setting="T-100")
    asm = ModelAssembly(CFG, seed=66)
    load_shared(asm, shared)
    before_shared = {n: digest(p) for n, p in asm.parameters().items()}
    TR.calibrate(asm, bundle, TR.PhaseSpec("calibrate", epochs=5, seed=4))
    part = asm.partition_parameters(bundle.schema.name)
    changed = {n for n, d in before_shared.items()
               if digest(asm.parameters()[n]) != d}
    # among pre-existing (shared) parameters, exactly the norms moved
    assert changed == set(part.shared_norm)
    # freshly attached dataset parts moved away from their deterministic init
    probe = ModelAssembly(CFG, seed=66)
    probe.attach_dataset(bundle.schema.signature())
    moved = [n for n in part.dataset
             if not np.array_equal(asm.parameters()[n].data,
                                   probe.parameters()[n].data)]
    assert any(".tokenizer." in n for n in moved)
    assert any(".head." in n for n in moved)
    assert any(n.endswith(".context") for n in moved)


def test_each_phase_transforms_a_split_once(suite, monkeypatch):
    calls = []
    real_matrices = D.matrices

    def counting(bundle, split_name):
        calls.append((bundle.schema.name, split_name))
        return real_matrices(bundle, split_name)

    monkeypatch.setattr(D, "matrices", counting)
    _, shared, log = pretrained(suite, epochs=3)
    assert len(log.entries) == 3
    assert sorted(calls) == sorted((b.schema.name, split) for b in suite.pretrain
                                   for split in ("train", "valid"))
    calls.clear()
    bundle = D.prepare(suite.heldout[0], split_seed=0, setting="T-100")
    asm = ModelAssembly(CFG, seed=0)
    load_shared(asm, shared)
    log = TR.calibrate(asm, bundle, TR.PhaseSpec("calibrate", epochs=5))
    assert len(log.entries) == 5
    assert sorted(calls) == [(bundle.schema.name, "train"), (bundle.schema.name, "valid")]


def test_calibrate_requires_pretrained_body(suite):
    bundle = D.prepare(suite.heldout[0], split_seed=0, setting="T-100")
    asm = ModelAssembly(CFG, seed=0)
    with pytest.raises(UsageError, match="pretrained"):
        TR.calibrate(asm, bundle, TR.PhaseSpec("calibrate", epochs=1))


def test_best_checkpoint_is_argbest_of_logged_metrics(suite):
    asm, bundle, cal_log, _ = adapt_once(suite, cal_epochs=8)
    metrics = [cal_log.best_metric] if cal_log.best_epoch == 0 else []
    all_metrics = metrics + [e.valid_metric for e in cal_log.entries]
    assert cal_log.best_metric == min(all_metrics)  # regression: lower is better
    from metafn import evaluate as E
    assert E.score(asm, bundle, "valid").value == pytest.approx(cal_log.best_metric)


def test_refine_epochs_zero_is_identity(suite):
    asm, bundle, _, _ = adapt_once(suite)
    before = {n: digest(p) for n, p in asm.parameters().items()}
    log = TR.refine(asm, bundle, TR.PhaseSpec("refine", epochs=0, seed=9))
    after = {n: digest(p) for n, p in asm.parameters().items()}
    assert before == after
    assert log.best_epoch == 0


def test_refine_never_worse_than_calibration(suite):
    asm, bundle, cal_log, _ = adapt_once(suite)
    ref_log = TR.refine(asm, bundle, TR.PhaseSpec("refine", epochs=3, seed=9))
    assert ref_log.best_metric <= cal_log.best_metric + 1e-12


def test_refine_unfreezes_shared_body(suite):
    asm, bundle, _, shared = adapt_once(suite, cal_epochs=4)
    shared_digests = {r[0]: hashlib.sha256(r[2]).hexdigest()
                      for r in shared.records if not r[0].startswith("datasets.")}
    log = TR.refine(asm, bundle, TR.PhaseSpec("refine", epochs=4, seed=10))
    if log.best_epoch > 0:
        moved = [n for n, d in shared_digests.items()
                 if "norm" not in n and digest(asm.parameters()[n]) != d]
        assert moved


def test_refine_restores_its_best_epoch_bitwise(suite, monkeypatch):
    # after a single calibration epoch refinement still improves: its best
    # epoch is 1 of 2, so the restore of a state other than the last runs
    from metafn import evaluate as E
    asm, bundle, cal_log, _ = adapt_once(suite, cal_epochs=1)
    at_validation = []
    real_score = E.score

    def spy(assembly, b, split, matrices=None):
        at_validation.append(params_of(assembly))
        return real_score(assembly, b, split, matrices)

    monkeypatch.setattr(E, "score", spy)
    flags = {n: p.requires_grad for n, p in asm.parameters().items()}
    log = TR.refine(asm, bundle, TR.PhaseSpec("refine", epochs=2, base_lr=1e-2, seed=9))

    assert 0 < log.best_epoch < len(log.entries)
    assert log.best_metric == log.entries[log.best_epoch - 1].valid_metric
    assert log.best_metric <= cal_log.best_metric
    best = at_validation[log.best_epoch]
    assert any(not np.array_equal(at_validation[-1][n], a) for n, a in best.items())
    for n, p in asm.parameters().items():
        np.testing.assert_array_equal(p.data, best[n])
    assert {n: p.requires_grad for n, p in asm.parameters().items()} == flags


def test_refine_requires_calibration_first(suite):
    _, shared, _ = pretrained(suite, epochs=2, seed=4)
    bundle = D.prepare(suite.heldout[0], split_seed=4, setting="T-100")
    asm = ModelAssembly(CFG, seed=77)
    load_shared(asm, shared)
    asm.attach_dataset(bundle.schema.signature())
    with pytest.raises(UsageError, match="calibration"):
        TR.refine(asm, bundle, TR.PhaseSpec("refine", epochs=1))


def test_training_an_unsplit_bundle_is_a_usage_error():
    raw = D.generate_synth_suite(SUITE_SPEC).pretrain[0]
    asm = ModelAssembly(CFG, seed=0)
    asm.attach_dataset(raw.schema.signature())
    with pytest.raises(UsageError, match="split"):
        TR.pretrain(asm, [raw], TR.PhaseSpec("pretrain", epochs=1))
    with pytest.raises(UsageError, match="split"):
        TR.train_from_scratch(asm, raw, TR.PhaseSpec("scratch", epochs=1))


def test_default_epoch_policy():
    assert TR.default_calibrate_epochs("T-full") == 240
    for name in ("T-200", "T-100", "T-50", "T-20"):
        assert TR.default_calibrate_epochs(name) == 40


def test_weight_decay_exempt_never_decays(suite):
    # one adamw step with zero gradients: exempt params unchanged,
    # non-exempt shrink by (1 - lr*wd)
    from metafn.optim import AdamW
    asm = ModelAssembly(CFG, seed=12)
    params = list(asm.shared_parameters().values())
    opt = AdamW(params, lr=0.5, weight_decay=0.01)
    before = {p.name: p.data.copy() for p in params}
    for p in params:
        p.grad = np.zeros_like(p.data)
    opt.step()
    for p in params:
        if p.weight_decay_exempt:
            np.testing.assert_array_equal(p.data, before[p.name])
        else:
            np.testing.assert_allclose(p.data, before[p.name] * (1 - 0.5 * 0.01),
                                       rtol=1e-12)


def test_transfer_benchmark_smoke(suite):
    report = W.run_transfer_benchmark(
        suite, CFG,
        pre_spec=TR.PhaseSpec("pretrain", epochs=6, seed=0),
        cal_spec=TR.PhaseSpec("calibrate", epochs=5, seed=0),
        ref_spec=TR.PhaseSpec("refine", epochs=2, seed=0),
        setting="T-100", data_seed=0, model_seed=0)
    assert len(report.tasks) == 2
    for t in report.tasks:
        assert t.refine_valid <= t.calibrate_valid + 1e-12
        assert np.isfinite(t.transfer) and np.isfinite(t.scratch)
    table = report.score_table()
    assert table.methods == ["transfer", "scratch"] and len(table.tasks) == 2


def test_transfer_wins_follows_each_task_metric():
    from metafn import evaluate as E

    def task(metric, transfer, scratch):
        return W.TaskComparison(
            task=f"{metric}-{transfer}", metric=metric, transfer=transfer, scratch=scratch,
            transfer_raw=transfer, scratch_raw=scratch, oracle_raw=None,
            calibrate_best_epoch=1, refine_best_epoch=1, calibrate_valid=0.0,
            refine_valid=0.0)

    report = W.TransferReport([task("mse", 0.1, 0.5), task("accuracy", 0.1, 0.5),
                               task("mse", 0.3, 0.3), task("accuracy", 0.9, 0.8)])
    assert [t.transfer_wins for t in report.tasks] == [True, False, False, True]
    assert report.wins == 2
    assert E.win_tie_loss(report.score_table(), "transfer", "scratch") == (2, 1, 1)


def test_trainlog_jsonl_roundtrip(tmp_path, suite):
    _, _, log = pretrained(suite, epochs=2, seed=11)
    path = tmp_path / "log.jsonl"
    log.to_jsonl(path)
    lines = path.read_text().strip().split("\n")
    assert len(lines) == 1 + len(log.entries)
    meta = json.loads(lines[0])
    assert meta["phase"] == "pretrain"
    entry = json.loads(lines[1])
    assert {"epoch", "train_loss", "valid_metric", "changed_params"} <= set(entry)


def test_trainlog_jsonl_writes_non_finite_numbers_as_null(tmp_path):
    # a diverged phase leaves a NaN best metric; RFC 8259 JSON has no NaN
    nan, inf = float("nan"), float("inf")
    log = TR.TrainLog("pretrain", best_metric=nan, diverged=True, entries=[
        TR.LogEntry(1, nan, inf, "mse", 1e-3, -inf, 0.5, ["a"])])
    path = tmp_path / "log.jsonl"
    log.to_jsonl(path)

    def reject(name):
        raise ValueError(f"non-standard JSON constant {name}")

    meta, entry = (json.loads(line, parse_constant=reject)
                   for line in path.read_text().splitlines())
    assert (meta["best_metric"], meta["diverged"]) == (None, True)
    assert [entry[k] for k in ("train_loss", "valid_metric", "lr_dataset", "lr_shared")] == \
        [None, None, 1e-3, None]


def test_lr_groups_in_supervised_loop(suite):
    # dataset params follow the schedule while shared stay at base lr
    _, shared, _ = pretrained(suite, epochs=2, seed=13)
    bundle = D.prepare(suite.heldout[0], split_seed=13, setting="T-100")
    asm = ModelAssembly(CFG, seed=14)
    load_shared(asm, shared)
    spec = TR.PhaseSpec("calibrate", epochs=4, seed=13)
    log = TR.calibrate(asm, bundle, spec)
    total = 4  # one batch per epoch at T-100
    warm = WARMUP_FRAC * total
    for e in log.entries:
        assert e.lr_shared == spec.base_lr
        share = e.epoch / warm if e.epoch <= warm else (total - e.epoch) / (total - warm)
        assert e.lr_dataset == pytest.approx(spec.base_lr * share)


def pretrain_assembly(bundles):
    asm = ModelAssembly(CFG, seed=0)
    for b in bundles:
        asm.attach_dataset(b.schema.signature())
    return asm


def test_pretrain_log_entry_averages_only_its_own_steps(suite):
    # 5 steps, epochs of 3 steps (three tables, one batch each): log points
    # after steps 3 and 5
    bundles = W.prepare_pretrain_bundles(suite, data_seed=0)
    log = TR.pretrain(pretrain_assembly(bundles), bundles,
                      TR.PhaseSpec("pretrain", epochs=2, seed=0), steps_total=5)
    losses = log.step_losses
    assert len(losses) == 5
    assert [e.epoch for e in log.entries] == [1, 2]
    assert [e.train_loss for e in log.entries] == [
        float(np.mean(losses[0:3])), float(np.mean(losses[3:5]))]


def test_pretrain_logs_at_epoch_boundaries(suite, monkeypatch):
    # an epoch is 3 steps here; 5 steps over 2 epochs used to be logged every
    # round(5 / 2) = 2 steps, giving 3 entries
    from metafn import evaluate as E
    bundles = W.prepare_pretrain_bundles(suite, data_seed=0)
    steps, logged_after = [], []
    real_loss, real_score = TR.compute_loss, E.score

    def counting_loss(*args):
        steps.append(1)
        return real_loss(*args)

    def spy(*args, **kwargs):
        logged_after.append(len(steps))
        return real_score(*args, **kwargs)

    monkeypatch.setattr(TR, "compute_loss", counting_loss)
    monkeypatch.setattr(E, "score", spy)
    for steps_total, want in ((5, [3, 5]), (None, [3, 6]), (7, [3, 6, 7])):
        steps.clear()
        logged_after.clear()
        log = TR.pretrain(pretrain_assembly(bundles), bundles,
                          TR.PhaseSpec("pretrain", epochs=2, seed=0), steps_total=steps_total)
        assert sorted(set(logged_after)) == want
        assert [e.epoch for e in log.entries] == list(range(1, len(want) + 1))


def nan_loss_on_call(monkeypatch, k, before_nan):
    """Make the k-th ``compute_loss`` call of the training loop return NaN.

    ``before_nan()`` runs just before that call's NaN is returned.
    """
    real = TR.compute_loss
    calls = []

    def fake(pred, y, task):
        calls.append(1)
        loss = real(pred, y, task)
        if len(calls) != k:
            return loss
        before_nan()
        return loss * float("nan")

    monkeypatch.setattr(TR, "compute_loss", fake)


def params_of(asm):
    return {n: p.data.copy() for n, p in asm.parameters().items()}


def test_pretrain_divergence_restores_last_log_point(suite, monkeypatch):
    from metafn import evaluate as E
    bundles = W.prepare_pretrain_bundles(suite, data_seed=0)
    asm = ModelAssembly(CFG, seed=0)
    for b in bundles:
        asm.attach_dataset(b.schema.signature())
    at_validation, at_nan = [], []
    real_score = E.score

    def spy(assembly, bundle, split, matrices=None):
        at_validation.append(params_of(assembly))
        return real_score(assembly, bundle, split, matrices)

    monkeypatch.setattr(E, "score", spy)
    spec = TR.PhaseSpec("pretrain", epochs=4, seed=0)
    log_every = 3   # 12 steps logged 4 times
    nan_loss_on_call(monkeypatch, 2 * log_every + 2, lambda: at_nan.append(params_of(asm)))
    log = TR.pretrain(asm, bundles, spec, steps_total=4 * log_every)

    assert log.diverged
    assert len(log.step_losses) == 2 * log_every + 1
    assert len(log.entries) == 2
    assert (log.best_epoch, log.best_metric) == (2, log.entries[-1].valid_metric)
    last_log_point = at_validation[-1]
    assert any(not np.array_equal(at_nan[0][n], a) for n, a in last_log_point.items())
    for n, p in asm.parameters().items():
        np.testing.assert_array_equal(p.data, last_log_point[n])
    assert asm.provenance == "pretrain"


def test_calibrate_divergence_restores_best_snapshot(suite, monkeypatch):
    from metafn import evaluate as E
    _, shared, _ = pretrained(suite, epochs=2, seed=6)
    bundle = D.prepare(suite.heldout[0], split_seed=6, setting="T-100")
    asm = ModelAssembly(CFG, seed=88)
    load_shared(asm, shared)
    # one step per epoch at T-100; the validation metric is scripted so that
    # epoch 2 is the best candidate and the initial state is not
    scripted = [1.0, 0.9, 0.5, 0.7, 0.8, 0.6]
    at_validation, at_nan = [], []

    def fake_score(assembly, b, split, matrices=None):
        at_validation.append(params_of(assembly))
        return E.Score(scripted[len(at_validation) - 1], "mse")

    monkeypatch.setattr(E, "score", fake_score)
    nan_loss_on_call(monkeypatch, 6, lambda: at_nan.append(params_of(asm)))
    log = TR.calibrate(asm, bundle, TR.PhaseSpec("calibrate", epochs=8, seed=6))

    assert log.diverged
    assert [e.valid_metric for e in log.entries] == scripted[1:]
    assert (log.best_epoch, log.best_metric) == (2, 0.5)
    part = asm.partition_parameters(bundle.schema.name)
    trainable = {**part.dataset, **part.shared_norm}
    best = at_validation[2]
    assert any(not np.array_equal(at_nan[0][n], best[n]) for n in trainable)
    for n in trainable:
        np.testing.assert_array_equal(asm.parameters()[n].data, best[n])


def test_calibrate_keeps_the_first_best_epoch_of_a_higher_is_better_metric(suite, monkeypatch):
    from metafn import evaluate as E
    _, shared, _ = pretrained(suite, epochs=2, seed=6)
    bundle = D.prepare(suite.heldout[0], split_seed=6, setting="T-100")
    asm = ModelAssembly(CFG, seed=88)
    load_shared(asm, shared)
    # one step per epoch at T-100; the scripted accuracy makes epochs 2 and 4
    # tie for best above the initial state, and the first of them is kept
    scripted = [0.5, 0.6, 0.9, 0.7, 0.9]
    at_validation = []

    def fake_score(assembly, b, split, matrices=None):
        at_validation.append(params_of(assembly))
        return E.Score(scripted[len(at_validation) - 1], "accuracy")

    monkeypatch.setattr(E, "score", fake_score)
    log = TR.calibrate(asm, bundle, TR.PhaseSpec("calibrate", epochs=4, seed=6))

    assert not log.diverged
    assert [e.valid_metric for e in log.entries] == scripted[1:]
    assert (log.best_epoch, log.best_metric) == (2, 0.9)
    part = asm.partition_parameters(bundle.schema.name)
    trainable = {**part.dataset, **part.shared_norm}
    best = at_validation[2]
    assert any(not np.array_equal(at_validation[4][n], best[n]) for n in trainable)
    for n in trainable:
        np.testing.assert_array_equal(asm.parameters()[n].data, best[n])


def test_calibrate_leaves_no_gradient_on_frozen_parameters(suite):
    asm, bundle, _, _ = adapt_once(suite, cal_epochs=3)
    rest = asm.partition_parameters(bundle.schema.name).shared_rest
    assert rest and not [n for n, p in rest.items() if p.grad is not None]
    assert all(p.requires_grad for p in asm.parameters().values())


def test_phase_restores_requires_grad_when_it_raises(suite, monkeypatch):
    _, shared, _ = pretrained(suite, epochs=2, seed=4)
    bundle = D.prepare(suite.heldout[0], split_seed=4, setting="T-100")
    asm = ModelAssembly(CFG, seed=4)
    load_shared(asm, shared)
    seen = []

    def failing(pred, y, task):
        seen.append({n for n, p in asm.parameters().items() if p.requires_grad})
        raise RuntimeError("loss failed")

    monkeypatch.setattr(TR, "compute_loss", failing)
    with pytest.raises(RuntimeError, match="loss failed"):
        TR.calibrate(asm, bundle, TR.PhaseSpec("calibrate", epochs=2, seed=4))
    part = asm.partition_parameters(bundle.schema.name)
    assert seen == [{*part.dataset, *part.shared_norm}]
    assert all(p.requires_grad for p in asm.parameters().values())


def test_phase_restores_the_retained_state_when_it_raises(suite, monkeypatch):
    # the first step updates the parameters, then fails: the state retained
    # so far, the one before any step, must be back in place
    _, shared, _ = pretrained(suite, epochs=2, seed=4)
    bundle = D.prepare(suite.heldout[0], split_seed=4, setting="T-100")
    asm = ModelAssembly(CFG, seed=4)
    load_shared(asm, shared)
    states = []
    real_step = TR.AdamW.step

    def failing(opt):
        states.append({n: p.data.copy() for n, p in asm.parameters().items()})
        real_step(opt)
        states.append({n: p.data.copy() for n, p in asm.parameters().items()})
        raise RuntimeError("step failed")

    monkeypatch.setattr(TR.AdamW, "step", failing)
    with pytest.raises(RuntimeError, match="step failed"):
        TR.calibrate(asm, bundle, TR.PhaseSpec("calibrate", epochs=2, seed=4))
    initial, stepped = states
    assert any(not np.array_equal(stepped[n], initial[n]) for n in initial)
    for n, p in asm.parameters().items():
        np.testing.assert_array_equal(p.data, initial[n], err_msg=n)


@pytest.mark.parametrize("function,phase,given", [
    ("calibrate", "calibrate", "refine"),
    ("refine", "refine", "calibrate"),
    ("train_from_scratch", "scratch", "calibrate"),
    ("pretrain", "pretrain", "scratch"),
])
def test_phase_function_rejects_another_phases_spec(suite, function, phase, given):
    bundle = D.prepare(suite.pretrain[0], split_seed=0)
    asm = ModelAssembly(CFG, seed=0)
    asm.attach_dataset(bundle.schema.signature())
    asm.provenance = "pretrain"
    asm.dataset_phase[bundle.schema.name] = "calibrate"
    before = {n: p.data.copy() for n, p in asm.parameters().items()}
    target = [bundle] if function == "pretrain" else bundle
    with pytest.raises(UsageError, match=f"{phase}.*{given}"):
        getattr(TR, function)(asm, target, TR.PhaseSpec(given, epochs=1))
    assert asm.dataset_phase == {bundle.schema.name: "calibrate"}
    assert all(np.array_equal(p.data, before[n]) for n, p in asm.parameters().items())


def test_in_memory_refine_matches_checkpoint_round_trip(suite, tmp_path):
    _, shared, _ = pretrained(suite, epochs=4, seed=2)
    bundle = D.prepare(suite.heldout[1], split_seed=2, setting="T-100")
    cal_spec = TR.PhaseSpec("calibrate", epochs=6, base_lr=1e-2, seed=2)
    ref_spec = TR.PhaseSpec("refine", epochs=3, base_lr=1e-2, seed=2)
    in_memory, _, ref_log = W.adapt_to_task(CFG, shared, bundle, cal_spec, ref_spec, 2)

    calibrated, _ = W.calibrate_task(CFG, shared, bundle, cal_spec, 2)
    save_checkpoint(calibrated, tmp_path / "calibrated.ckpt", phase="calibrate")
    reloaded = assembly_from_checkpoint(Checkpoint.load(tmp_path / "calibrated.ckpt"), seed=2)
    reloaded_log = TR.refine(reloaded, bundle, ref_spec)

    assert reloaded_log.step_losses == ref_log.step_losses
    assert [e.valid_metric for e in reloaded_log.entries] == \
        [e.valid_metric for e in ref_log.entries]
    for name, p in in_memory.parameters().items():
        assert p.data.tobytes() == reloaded.parameters()[name].data.tobytes(), name


@pytest.mark.parametrize("phase", ["pretrain", "calibrate", "refine", "scratch"])
def test_each_phase_trains_its_own_parameters_in_two_rate_groups(suite, monkeypatch, phase):
    # another table is attached besides the one adapted, so a phase that
    # trained every table's parts would show
    other = D.prepare(suite.pretrain[0], split_seed=0)
    bundle = D.prepare(suite.heldout[0], split_seed=0, setting="T-100")
    asm = ModelAssembly(CFG, seed=0)
    asm.attach_dataset(other.schema.signature())
    asm.provenance = "pretrain"
    groups, flags = [], []

    class Recording(TR.AdamW):
        def __init__(self, param_groups, *args, **kwargs):
            super().__init__(param_groups, *args, **kwargs)
            groups.extend(({p.name for p in g["params"]}, g["lr"]) for g in self.groups)

    real_loss = TR.compute_loss

    def recording_loss(pred, y, task):
        if not flags:
            flags.append({n for n, p in asm.parameters().items() if p.requires_grad})
        return real_loss(pred, y, task)

    monkeypatch.setattr(TR, "AdamW", Recording)
    monkeypatch.setattr(TR, "compute_loss", recording_loss)
    spec = TR.PhaseSpec(phase, epochs=1, base_lr=3e-3)
    if phase == "pretrain":
        asm.attach_dataset(bundle.schema.signature())
        TR.pretrain(asm, [other, bundle], spec, steps_total=1)
        own = set(asm.parameters()) - set(asm.shared_parameters())   # both tables' parts
        shared = set(asm.shared_parameters())
    else:
        if phase == "refine":
            asm.attach_dataset(bundle.schema.signature())
            asm.dataset_phase[bundle.schema.name] = "calibrate"
        phase_function = {"calibrate": TR.calibrate, "refine": TR.refine,
                          "scratch": TR.train_from_scratch}[phase]
        phase_function(asm, bundle, spec)
        part = asm.partition_parameters(bundle.schema.name)
        own = set(part.dataset)
        shared = set(part.shared_norm) | (set() if phase == "calibrate"
                                          else set(part.shared_rest))
        assert own and not own & set(asm.partition_parameters(other.schema.name).dataset)
    assert len(groups) == 2
    assert groups[0][0] == own
    assert groups[1] == (shared, spec.base_lr)
    assert flags == [own | shared]


def record_step_rows(monkeypatch, bundles):
    """Wrap ModelAssembly.forward to record (dataset, train row indices) of every step.

    A step's forward builds a graph and a validation forward does not; a
    step's rows are found in the dataset's train matrix by their bytes.
    """
    rows = {}
    for b in bundles:
        x_num = D.matrices(b, "train")[0]
        rows[b.schema.name] = {r.tobytes(): i for i, r in enumerate(x_num)}
        assert len(rows[b.schema.name]) == len(x_num)    # every train row is distinct
    steps = []
    real_forward = ModelAssembly.forward

    def recording(self, dataset, x_num, x_cat):
        pred = real_forward(self, dataset, x_num, x_cat)
        if pred.requires_grad:
            steps.append((dataset, [rows[dataset][r.tobytes()] for r in x_num]))
        return pred

    monkeypatch.setattr(ModelAssembly, "forward", recording)
    return steps


def test_calibration_walks_one_permutation_per_epoch_cut_at_batch_cap(suite, monkeypatch):
    _, shared, _ = pretrained(suite, epochs=2, seed=3)
    bundle = D.prepare(suite.heldout[0], split_seed=3, setting="T-100")
    asm = ModelAssembly(CFG, seed=3)
    load_shared(asm, shared)
    steps = record_step_rows(monkeypatch, [bundle])
    spec = TR.PhaseSpec("calibrate", epochs=3, batch_cap=32, seed=11)
    TR.calibrate(asm, bundle, spec)

    n = bundle.split_rows("train").size
    assert n == 100
    rng = np.random.default_rng(np.random.SeedSequence([spec.seed, 0xba7c4]))
    expected = []
    for _ in range(spec.epochs):
        order = rng.permutation(n).tolist()
        expected += [order[lo:lo + spec.batch_cap] for lo in range(0, n, spec.batch_cap)]
    assert [len(idx) for _, idx in steps] == [32, 32, 32, 4] * spec.epochs
    assert steps == [(bundle.schema.name, idx) for idx in expected]


def test_pretraining_draws_a_table_per_step_from_its_seed_stream(suite, monkeypatch):
    bundles = W.prepare_pretrain_bundles(suite, data_seed=0)
    asm = ModelAssembly(CFG, seed=0)
    for b in bundles:
        asm.attach_dataset(b.schema.signature())
    steps = record_step_rows(monkeypatch, bundles)
    spec = TR.PhaseSpec("pretrain", epochs=1, batch_cap=64, seed=13)
    total = 40      # more steps than one pass over any table takes
    TR.pretrain(asm, bundles, spec, steps_total=total)

    sizes = {b.schema.name: b.split_rows("train").size for b in bundles}
    names = list(sizes)
    rng = np.random.default_rng(np.random.SeedSequence([spec.seed, 0x9e7a1]))
    orders = {name: rng.permutation(size).tolist() for name, size in sizes.items()}
    pos = dict.fromkeys(names, 0)
    expected, reshuffles = [], 0
    for _ in range(total):
        name = names[int(rng.integers(len(names)))]
        if pos[name] >= sizes[name]:
            orders[name], pos[name] = rng.permutation(sizes[name]).tolist(), 0
            reshuffles += 1
        lo, pos[name] = pos[name], min(pos[name] + spec.batch_cap, sizes[name])
        expected.append((name, orders[name][lo:pos[name]]))
    assert reshuffles > 0
    assert steps == expected

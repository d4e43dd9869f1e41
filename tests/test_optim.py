import numpy as np
import pytest

from metafn.errors import MetafnError, UsageError
from metafn.model import DatasetSignature, ModelAssembly, ModelConfig
from metafn.nn import Parameter, compute_loss
from metafn.optim import AdamW, lr_at


class PerTensorAdamW:
    """Reference: the per-tensor update loop AdamW ran before its state went flat."""

    def __init__(self, groups, betas=(0.9, 0.999), eps=1e-8, weight_decay=1e-5):
        self.groups = groups
        self.beta1, self.beta2 = betas
        self.eps = eps
        self.weight_decay = weight_decay
        self.t = 0
        self._m = {p.name: np.zeros_like(p.data) for g in groups for p in g["params"]}
        self._s = {p.name: np.zeros_like(p.data) for g in groups for p in g["params"]}

    def step(self):
        self.t += 1
        c1 = 1.0 - self.beta1 ** self.t
        c2 = 1.0 - self.beta2 ** self.t
        for group in self.groups:
            lr = group["lr"]
            for p in group["params"]:
                g = p.grad if p.grad is not None else np.zeros_like(p.data)
                if not np.all(np.isfinite(g)):
                    raise MetafnError(f"non-finite gradient for parameter {p.name!r}")
                data = p.data
                if self.weight_decay and not p.weight_decay_exempt:
                    data = data * (1.0 - lr * self.weight_decay)
                m = self._m[p.name] = self.beta1 * self._m[p.name] + (1.0 - self.beta1) * g
                s = self._s[p.name] = self.beta2 * self._s[p.name] + (1.0 - self.beta2) * (g * g)
                step = lr * (m / c1) / (np.sqrt(s / c2) + self.eps)
                p.data = data - step


def test_first_step_matches_hand_computation():
    # fresh state, g=1: m_hat=1, s_hat=1 -> w ~ -lr
    p = Parameter(np.zeros(1), "w")
    opt = AdamW([p], lr=0.1, weight_decay=0.0)
    p.grad = np.ones(1)
    opt.step()
    np.testing.assert_allclose(p.data, [-0.1 / (1 + 1e-8)], rtol=1e-12)
    np.testing.assert_allclose(p.data, [-0.1], atol=1e-8)


def test_zero_grad_zero_decay_is_identity():
    rng = np.random.default_rng(0)
    p = Parameter(rng.standard_normal(4), "w")
    before = p.data.copy()
    opt = AdamW([p], lr=0.1, weight_decay=0.0)
    p.grad = np.zeros(4)
    opt.step()
    np.testing.assert_array_equal(p.data, before)


def test_decoupled_decay_factor():
    p = Parameter(np.ones(1), "w")
    opt = AdamW([p], lr=0.1, weight_decay=0.01)
    p.grad = np.zeros(1)
    opt.step()
    # moments stay zero, so only the decay multiplier acts: w * (1 - lr*wd)
    np.testing.assert_allclose(p.data, [0.999], rtol=1e-12)


def test_exempt_parameters_skip_decay():
    w = Parameter(np.ones(1), "w")
    b = Parameter(np.ones(1), "b", weight_decay_exempt=True)
    opt = AdamW([w, b], lr=0.1, weight_decay=0.01)
    w.grad = np.zeros(1)
    b.grad = np.zeros(1)
    opt.step()
    np.testing.assert_allclose(w.data, [0.999], rtol=1e-12)
    np.testing.assert_array_equal(b.data, [1.0])


def test_non_finite_gradient_reports_parameter_name():
    p = Parameter(np.zeros(2), "blocks.0.ffn.weight")
    opt = AdamW([p], lr=0.1)
    p.grad = np.array([1.0, np.nan])
    with pytest.raises(MetafnError, match="blocks.0.ffn.weight"):
        opt.step()


def test_non_finite_gradient_changes_nothing():
    rng = np.random.default_rng(2)
    params = [Parameter(rng.standard_normal(3), f"p{i}") for i in range(3)]
    opt = AdamW(params, lr=0.1, weight_decay=0.01)
    for p in params:
        p.grad = rng.standard_normal(3)
    opt.step()
    data = [p.data for p in params]
    saved = [p.data.copy() for p in params]
    m, s = opt._m.copy(), opt._s.copy()
    for p in params:
        p.grad = rng.standard_normal(3)
    params[-1].grad[1] = np.nan
    with pytest.raises(MetafnError, match="p2"):
        opt.step()
    assert opt.t == 1
    for p, arr, before in zip(params, data, saved):
        assert p.data is arr
        np.testing.assert_array_equal(p.data, before)
    np.testing.assert_array_equal(opt._m, m)
    np.testing.assert_array_equal(opt._s, s)


def test_step_leaves_earlier_arrays_untouched():
    p = Parameter(np.ones(4), "w")
    opt = AdamW([p], lr=0.1)
    held = p.data
    for _ in range(2):
        p.grad = np.ones(4)
        opt.step()
    np.testing.assert_array_equal(held, np.ones(4))
    assert p.data is not held


def test_rebound_data_is_read_back():
    a = Parameter(np.zeros(2), "a")
    b = Parameter(np.zeros(3), "b")
    opt = AdamW([a, b], lr=0.1, weight_decay=0.0)
    ref_a = Parameter(np.zeros(2), "a")
    ref_b = Parameter(np.zeros(3), "b")
    ref = PerTensorAdamW([{"params": [ref_a, ref_b], "lr": 0.1}], weight_decay=0.0)
    for step in range(3):
        if step == 1:
            a.data = ref_a.data = np.full(2, 5.0)
        for p, q in ((a, ref_a), (b, ref_b)):
            p.grad = q.grad = np.arange(p.size, dtype=float) - step
        opt.step()
        ref.step()
    np.testing.assert_array_equal(a.data, ref_a.data)
    np.testing.assert_array_equal(b.data, ref_b.data)


def _two_dataset_assembly():
    cfg = ModelConfig(d=8, n_blocks=1, n_heads=2, n_basis=2, d_ffn=6, cal_hidden=4)
    asm = ModelAssembly(cfg, seed=5)
    asm.attach_dataset(DatasetSignature("a", "regression", ("numeric", "categorical"), (3,)))
    asm.attach_dataset(DatasetSignature("b", "binary", ("numeric", "numeric", "numeric"), ()))
    return asm


def test_flat_update_is_bitwise_equal_to_per_tensor_reference():
    flat_asm, ref_asm = _two_dataset_assembly(), _two_dataset_assembly()

    def groups(asm):
        params = asm.parameters()
        return [{"params": [p for n, p in params.items() if n.startswith("datasets.")],
                 "lr": 0.0},
                {"params": [p for n, p in params.items() if not n.startswith("datasets.")],
                 "lr": 3e-2}]

    flat_groups, ref_groups = groups(flat_asm), groups(ref_asm)
    assert any(p.weight_decay_exempt for g in flat_groups for p in g["params"])
    assert any(not p.weight_decay_exempt for g in flat_groups for p in g["params"])
    flat = AdamW(flat_groups, weight_decay=1e-2)
    ref = PerTensorAdamW(ref_groups, weight_decay=1e-2)
    rng = np.random.default_rng(6)
    for step in range(1, 6):
        # one dataset per step, so the other dataset's parameters have no gradient
        name = "a" if step % 2 else "b"
        n = 7
        x_num = rng.standard_normal((n, 1 if name == "a" else 3))
        x_cat = rng.integers(0, 3, (n, 1)) if name == "a" else np.empty((n, 0), np.int64)
        y = rng.standard_normal(n) if name == "a" else rng.integers(0, 2, n).astype(float)
        task = "regression" if name == "a" else "binary"
        for asm, opt in ((flat_asm, flat), (ref_asm, ref)):
            gs = opt.groups
            gs[0]["lr"] = lr_at(step, 5, 3e-2)
            gs[1]["lr"] = 3e-2 / step
            compute_loss(asm.forward(name, x_num, x_cat), y, task).backward()
            assert any(p.grad is None for g in gs for p in g["params"])
            opt.step()
            for g in gs:
                for p in g["params"]:
                    p.zero_grad()
    assert flat.t == ref.t == 5
    ref_params = ref_asm.parameters()
    for name, p in flat_asm.parameters().items():
        np.testing.assert_array_equal(p.data, ref_params[name].data, err_msg=name)


def test_step_counter_shared_across_groups():
    a = Parameter(np.zeros(1), "a")
    b = Parameter(np.zeros(1), "b")
    opt = AdamW([{"params": [a], "lr": 0.1}, {"params": [b], "lr": 0.2}])
    for _ in range(3):
        a.grad = np.ones(1)
        b.grad = np.ones(1)
        opt.step()
    assert opt.t == 3


def test_duplicate_parameter_rejected():
    p = Parameter(np.zeros(1), "p")
    with pytest.raises(UsageError):
        AdamW([{"params": [p]}, {"params": [p]}])


def test_empty_parameter_set_rejected():
    with pytest.raises(UsageError, match="at least one parameter"):
        AdamW([])
    with pytest.raises(UsageError, match="at least one parameter"):
        AdamW([{"params": []}])


def test_matches_reference_adamw_trajectory():
    # independent reference implementation of the update rule
    rng = np.random.default_rng(1)
    w0 = rng.standard_normal(6)
    grads = [rng.standard_normal(6) for _ in range(20)]
    lr, b1, b2, eps, wd = 1e-2, 0.9, 0.999, 1e-8, 1e-2

    w = w0.copy()
    m = np.zeros(6)
    s = np.zeros(6)
    for t, g in enumerate(grads, start=1):
        w = w * (1 - lr * wd)
        m = b1 * m + (1 - b1) * g
        s = b2 * s + (1 - b2) * g * g
        w = w - lr * (m / (1 - b1 ** t)) / (np.sqrt(s / (1 - b2 ** t)) + eps)

    p = Parameter(w0.copy(), "w")
    opt = AdamW([p], lr=lr, weight_decay=wd)
    for g in grads:
        p.grad = g.copy()
        opt.step()
    np.testing.assert_allclose(p.data, w, rtol=1e-12)


def test_lr_schedule_examples():
    assert lr_at(10, 100, 1.0) == pytest.approx(0.5)
    assert lr_at(20, 100, 1.0) == pytest.approx(1.0)
    assert lr_at(60, 100, 1.0) == pytest.approx(0.5)
    assert lr_at(100, 100, 1.0) == 0.0
    assert lr_at(0, 100, 1.0) == 0.0


def test_lr_schedule_peak_and_continuity():
    total = 250
    vals = [lr_at(s, total, 2.0) for s in range(total + 1)]
    assert max(vals) == vals[int(0.2 * total)]
    diffs = np.abs(np.diff(vals))
    assert diffs.max() <= 2.0 / (0.2 * total) + 1e-12


def test_lr_schedule_usage_errors():
    with pytest.raises(UsageError):
        lr_at(0, 0, 1.0)
    with pytest.raises(UsageError):
        lr_at(101, 100, 1.0)

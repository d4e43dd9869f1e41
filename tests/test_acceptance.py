"""Acceptance suite: the package's headline guarantees, one criterion per test.

Each test prints a single PASS/FAIL line (run pytest with -s or -rA to see
them).  The synthetic transfer experiment is shared by criteria 6 and 7 and
dominates the runtime (a few minutes); everything else is fast.
"""

import hashlib
import time

import numpy as np
import pytest

from metafn import data as D
from metafn import evaluate as E
from metafn import model as M
from metafn import tensor as T
from metafn import training as TR
from metafn import workflow as W
from metafn.calinear import CaLinear
from metafn.checkpoint import Checkpoint, load_shared, save_checkpoint
from metafn.cli import main as cli_main
from metafn.gradcheck import check_gradients
from metafn.model import DatasetSignature, ModelAssembly, ModelConfig
from metafn.nn import compute_loss
from metafn.tensor import Tensor, no_grad

RESULTS = []


def report(criterion, ok, detail=""):
    line = f"ACCEPTANCE {criterion}: {'PASS' if ok else 'FAIL'} {detail}"
    print(line)
    RESULTS.append(line)
    assert ok, line


# -- experiment configuration (desk scale) ------------------------------------

MODEL = ModelConfig(d=32, n_blocks=2, n_heads=4, n_basis=4, d_ffn=48, cal_hidden=16)
SUITE_SPEC = D.SynthSuiteSpec(seed=0)  # P=6, K=16 x 2000 rows, k=8, sigma=0.1
PRE = TR.PhaseSpec("pretrain", epochs=50, base_lr=1e-3, batch_cap=128, seed=0)
CAL = TR.PhaseSpec("calibrate", epochs=40, base_lr=3e-2, batch_cap=100, seed=0)
REF = TR.PhaseSpec("refine", epochs=5, base_lr=3e-2, batch_cap=100, seed=0)
NOISE_FLOOR = SUITE_SPEC.noise_std ** 2

GRADCHECK_MODEL = ModelConfig(d=16, n_blocks=2, n_heads=2, n_basis=2,
                              d_ffn=12, cal_hidden=4)


@pytest.fixture(scope="module")
def transfer_report():
    suite = D.generate_synth_suite(SUITE_SPEC)
    t0 = time.perf_counter()
    rep = W.run_transfer_benchmark(suite, MODEL, PRE, CAL, REF,
                                   setting="T-100", data_seed=0, model_seed=0)
    rep.runtime = time.perf_counter() - t0
    return rep


def test_criterion_1_gradient_soundness():
    t0 = time.perf_counter()
    worst = 0.0
    for task in ("regression", "binary"):
        asm = ModelAssembly(GRADCHECK_MODEL, seed=21)
        sig = DatasetSignature("gc", task, ("numeric", "numeric", "categorical"), (3,))
        asm.attach_dataset(sig)
        rng = np.random.default_rng(22)
        x_num = rng.standard_normal((4, 2))
        x_cat = rng.integers(0, 4, (4, 1))
        y = rng.standard_normal(4) if task == "regression" \
            else (rng.uniform(size=4) > 0.5).astype(float)
        rep = check_gradients(
            lambda: compute_loss(asm.forward("gc", x_num, x_cat), y, task),
            list(asm.parameters().values()), tol=1e-4)
        worst = max(worst, max(e.rel_error for e in rep.entries))
        assert rep.passed, rep.summary()
    dt = time.perf_counter() - t0
    report(1, rep.passed and dt < 60,
           f"(full-model gradient check, both losses, max rel err "
           f"{worst:.2e}, {dt:.1f}s)")


def test_criterion_2_simplex_invariant():
    rng = np.random.default_rng(0)
    worst = 0.0
    for trial in range(1000):
        m = int(rng.integers(2, 7))
        layer = CaLinear(3, 2, m, np.random.default_rng(trial), f"l{trial}", 8)
        for p in (layer.cal_w1, layer.cal_b1, layer.cal_w2, layer.cal_b2):
            p.data = rng.standard_normal(p.shape) * rng.uniform(0.1, 3)
        v = Tensor(rng.standard_normal(int(rng.integers(1, 7))) * 2)
        with no_grad():
            c = layer.coefficients(v).data
        ok = np.all(c > 0) and np.max(np.abs(c.sum(axis=1) - 1)) <= 1e-9
        worst = max(worst, float(np.max(np.abs(c.sum(axis=1) - 1))))
        assert ok
    report(2, True, f"(1000 draws, max row-sum deviation {worst:.1e})")


def plain_ffn(lin1, lin2, z, c1, c2):
    """The ordinary two-layer FFN on each layer's basis 0; coefficients unread."""
    hidden = T.relu(T.linear(z, Tensor(lin1.weight.data[0]), Tensor(lin1.bias.data[0])))
    return T.linear(hidden, Tensor(lin2.weight.data[0]), Tensor(lin2.bias.data[0]))


def test_criterion_3_degeneracy(monkeypatch):
    cfg = ModelConfig(d=16, n_blocks=2, n_heads=2, n_basis=1, d_ffn=12, cal_hidden=4)
    asm = ModelAssembly(cfg, seed=16)
    asm.attach_dataset(DatasetSignature("deg", "regression",
                                        ("numeric", "numeric", "categorical"), (3,)))
    rng = np.random.default_rng(17)
    batches = []
    for _ in range(100):
        B = int(rng.integers(1, 8))
        batches.append((rng.standard_normal((B, 2)), rng.integers(0, 4, (B, 1))))
    with no_grad():
        got = [asm.forward("deg", *b).data for b in batches]
        # the same assembly with every feed-forward sublayer an ordinary FFN
        monkeypatch.setattr(M, "calinear_ffn_forward", plain_ffn)
        want = [asm.forward("deg", *b).data for b in batches]
    worst = max(float(np.max(np.abs(a - b))) for a, b in zip(got, want))
    report(3, worst <= 1e-10, f"(100 batches, max deviation {worst:.1e})")


def test_criterion_4_affinity():
    rng = np.random.default_rng(12)
    worst = 0.0
    layer = CaLinear(4, 3, 4, np.random.default_rng(13), "aff", 8)
    for _ in range(1000):
        alpha = rng.uniform(-2, 2)
        beta = 1.0 - alpha
        z1 = rng.standard_normal((2, 3, 4))
        z2 = rng.standard_normal((2, 3, 4))
        c = Tensor(rng.dirichlet(np.ones(4), size=3))
        with no_grad():
            lhs = layer.forward(Tensor(alpha * z1 + beta * z2), c).data
            rhs = alpha * layer.forward(Tensor(z1), c).data \
                + beta * layer.forward(Tensor(z2), c).data
        worst = max(worst, float(np.max(np.abs(lhs - rhs))))
    report(4, worst <= 1e-9, f"(1000 trials, max deviation {worst:.1e})")


def _digest(p):
    return hashlib.sha256(np.ascontiguousarray(p.data).tobytes()).hexdigest()


def test_criterion_5_freeze_contract():
    cfg = ModelConfig(d=16, n_blocks=2, n_heads=2, n_basis=2, d_ffn=12, cal_hidden=4)
    suite = D.generate_synth_suite(D.SynthSuiteSpec(
        seed=5, n_pretrain=2, rows_per_dataset=300, n_features=4,
        n_heldout=3, heldout_rows=200))
    bundles = W.prepare_pretrain_bundles(suite, data_seed=5)
    _, shared, _ = W.pretrain_suite(cfg, bundles,
                                    TR.PhaseSpec("pretrain", epochs=5, seed=5),
                                    model_seed=5)
    all_ok = True
    for raw in suite.heldout:
        bundle = D.prepare(raw, split_seed=5, setting="T-100")
        asm = ModelAssembly(cfg, seed=7)
        load_shared(asm, shared)
        before = {n: _digest(p) for n, p in asm.parameters().items()}
        TR.calibrate(asm, bundle, TR.PhaseSpec("calibrate", epochs=5,
                                               base_lr=1e-2, seed=7))
        part = asm.partition_parameters(bundle.schema.name)
        changed = {n for n, d in before.items()
                   if _digest(asm.parameters()[n]) != d}
        frozen_moved = changed - set(part.shared_norm)
        norms_moved = changed & set(part.shared_norm)
        all_ok &= not frozen_moved and bool(norms_moved)
    report(5, all_ok, "(3 tasks: frozen digests unchanged, allowed set changed)")


def test_criterion_6_synthetic_transfer(transfer_report):
    rep = transfer_report
    wins = rep.wins
    floors_ok = all(t.transfer_raw > NOISE_FLOOR and t.scratch_raw > NOISE_FLOOR
                    for t in rep.tasks)
    ok = wins >= 7 and floors_ok and rep.runtime < 900
    report(6, ok, f"(transfer wins {wins}/10, all raw MSEs above the "
                  f"{NOISE_FLOOR} noise floor, {rep.runtime / 60:.1f} min)")


def test_criterion_7_refinement_safety(transfer_report):
    ok = all(t.refine_valid <= t.calibrate_valid + 1e-12
             for t in transfer_report.tasks)
    worst = max(t.refine_valid - t.calibrate_valid for t in transfer_report.tasks)
    report(7, ok, f"(10 tasks, max validation regression {worst:.2e})")


def test_criterion_8_preprocessing():
    rng = np.random.default_rng(7)
    vals = rng.uniform(size=10_000)
    qt = D.QuantileTransform.fit(vals, np.random.default_rng(8))
    out = qt.apply(vals)
    from scipy.stats import kstest
    ks = kstest(out, "norm").statistic
    stats_ok = abs(out.mean()) < 0.05 and 0.9 <= out.std() <= 1.1 and ks < 0.02

    cols = [D.Column("a", "numeric"), D.Column("y", "target")]
    big = D.DatasetBundle(D.Schema("s", "regression", cols),
                          rng.standard_normal((1000, 1)),
                          np.empty((1000, 0), dtype=np.int64),
                          rng.standard_normal(1000))
    s = D.prepare(big, split_seed=0).splits
    split_ok = (len(s["train"]), len(s["valid"]), len(s["test"])) == (640, 160, 200)
    limited = D.prepare(big, split_seed=0, setting="T-200").splits
    setting_ok = (len(limited["train"]), len(limited["valid"])) == (200, 50)
    report(8, stats_ok and split_ok and setting_ok,
           f"(mean {out.mean():+.3f}, std {out.std():.3f}, KS {ks:.4f}, "
           f"splits 640/160/200 and 200/50)")


def _brute_ranks(values, higher_better):
    v = np.asarray(values, dtype=float)
    order = -v if higher_better else v
    ranks = np.empty(len(v))
    for i, x in enumerate(order):
        less = np.sum(order < x)
        equal = np.sum(order == x)
        ranks[i] = less + (equal + 1) / 2.0
    return ranks


def test_criterion_9_metric_oracles():
    rng = np.random.default_rng(10)
    for _ in range(1000):
        n_methods = int(rng.integers(2, 6))
        n_tasks = int(rng.integers(1, 5))
        hb = bool(rng.integers(2))
        vals = np.round(rng.uniform(size=(n_tasks, n_methods)), 1)
        table = E.ScoreTable([f"m{j}" for j in range(n_methods)])
        for i in range(n_tasks):
            table.add_row(f"t{i}", "accuracy" if hb else "mse",
                          {f"m{j}": vals[i, j] for j in range(n_methods)})
        got = E.rank_methods(table).ranks
        for i in range(n_tasks):
            assert np.array_equal(got[i], _brute_ranks(vals[i], hb))
            assert got[i].sum() == pytest.approx(n_methods * (n_methods + 1) / 2)
        if n_methods >= 2:
            a = np.round(vals[:, 0], 3)
            b = np.round(vals[:, 1], 3)
            wins = ties = losses = 0
            for i in range(n_tasks):
                if a[i] == b[i]:
                    ties += 1
                elif (a[i] > b[i]) == hb:
                    wins += 1
                else:
                    losses += 1
            assert E.win_tie_loss(table, "m0", "m1") == (wins, ties, losses)
    report(9, True, "(1000 random tables match brute-force ranking and "
                    "win/tie/loss; rank sums conserved)")


def test_criterion_10_ablation_hooks(tmp_path):
    suite = D.generate_synth_suite(D.SynthSuiteSpec(
        seed=1, n_basis_functions=4, n_pretrain=6, rows_per_dataset=600,
        n_heldout=4, heldout_rows=400))
    tables = W.run_ablation_grid(
        suite, MODEL,
        pre_spec=TR.PhaseSpec("pretrain", epochs=20, base_lr=1e-3,
                              batch_cap=128, seed=1),
        cal_spec=TR.PhaseSpec("calibrate", epochs=40, base_lr=3e-2,
                              batch_cap=100, seed=1),
        ref_spec=TR.PhaseSpec("refine", epochs=5, base_lr=3e-2,
                              batch_cap=100, seed=1),
        setting="T-100", data_seed=1, model_seed=1)
    basis = tables["basis_count"]
    coef = tables["coefficient_source"]
    shape_ok = (basis.methods == ["basis-1", "basis-2", "basis-4"]
                and len(basis.tasks) == 4
                and coef.methods == ["mlp", "direct"] and len(coef.tasks) == 4)
    rep = E.build_report({"main": basis, "ablation:coefficient_source": coef},
                         tmp_path / "main")
    report_ok = "ablation:coefficient_source" in rep and "rank" in rep["main"]
    wtl = E.win_tie_loss(coef, "mlp", "direct")
    report(10, shape_ok and report_ok,
           f"(basis sweep ranks {E.rank_methods(basis).mean}, "
           f"mlp-vs-direct win/tie/loss {wtl})")


def test_criterion_11_round_trips(tmp_path):
    # checkpoint: save -> load -> save byte identical
    cfg = ModelConfig(d=16, n_blocks=2, n_heads=2, n_basis=2, d_ffn=12, cal_hidden=4)
    asm = ModelAssembly(cfg, seed=3)
    asm.attach_dataset(DatasetSignature("t", "regression", ("numeric",), ()))
    p1, p2 = tmp_path / "a.ckpt", tmp_path / "b.ckpt"
    save_checkpoint(asm, p1, phase="pretrain")
    Checkpoint.load(p1).save(p2)
    ckpt_ok = p1.read_bytes() == p2.read_bytes()

    # synthetic suite: export -> import reproduces bundles
    spec = D.SynthSuiteSpec(seed=15, n_pretrain=2, rows_per_dataset=40,
                            n_heldout=2, heldout_rows=30)
    suite = D.generate_synth_suite(spec)
    D.export_suite(suite, tmp_path / "suite")
    again = D.load_suite(tmp_path / "suite")
    suite_ok = all(
        np.array_equal(a.x_num, b.x_num) and np.array_equal(a.y, b.y)
        and np.array_equal(a.true_mixture, b.true_mixture)
        for a, b in zip(suite.pretrain + suite.heldout,
                        again.pretrain + again.heldout))

    # resolved-config rerun: feeding the echoed config back reproduces the
    # artifacts bit for bit
    import pathlib
    tiny = pathlib.Path(__file__).resolve().parents[1] / "configs" / "tiny.json"
    first = tmp_path / "r1"
    base = ["--config", str(tiny), "--set", f'output_dir="{first}"']
    for cmd in ("gen-synth", "pretrain", "calibrate", "refine", "eval", "report"):
        assert cli_main([cmd, *base]) == 0
    echoed = first / "config.resolved.json"
    second = tmp_path / "r2"
    base2 = ["--config", str(echoed), "--set", f'output_dir="{second}"']
    for cmd in ("gen-synth", "pretrain", "calibrate", "refine", "eval", "report"):
        assert cli_main([cmd, *base2]) == 0
    rerun_ok = all(
        (first / rel).read_bytes() == (second / rel).read_bytes()
        for rel in ("pretrained.ckpt", "scores.json", "report.json"))
    report(11, ckpt_ok and suite_ok and rerun_ok,
           "(checkpoint bytes, suite export/import, config-echo rerun)")

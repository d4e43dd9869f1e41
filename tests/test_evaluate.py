import json

import numpy as np
import pytest

from metafn import data as D
from metafn import evaluate as E
from metafn.errors import DataError, UsageError
from metafn.model import ModelAssembly, ModelConfig

CFG = ModelConfig(d=16, n_blocks=1, n_heads=2, n_basis=2, d_ffn=12, cal_hidden=4)


def brute_force_ranks(values, higher_better):
    """Sort-based reference: rank 1 is best; tied scores share the mean position."""
    v = np.asarray(values, dtype=float)
    order = -v if higher_better else v
    ranks = np.empty(len(v))
    for i, x in enumerate(order):
        less = np.sum(order < x)
        equal = np.sum(order == x)
        # positions less+1 .. less+equal are shared
        ranks[i] = less + (equal + 1) / 2.0
    return ranks


def prepared_bundle(task="regression", n=200, seed=0, name="toy"):
    rng = np.random.default_rng(seed)
    cols = [D.Column(f"x{j}", "numeric") for j in range(3)] + [D.Column("y", "target")]
    schema = D.Schema(name, task, cols)
    x = rng.standard_normal((n, 3))
    y = x @ np.array([1.0, -0.5, 0.2]) + 0.1 * rng.standard_normal(n) \
        if task == "regression" else (rng.uniform(size=n) > 0.5).astype(float)
    b = D.DatasetBundle(schema, x, np.empty((n, 0), dtype=np.int64), y)
    return D.prepare(b, split_seed=seed)


def test_score_regression_constant_predictor_near_one():
    bundle = prepared_bundle(n=4000, seed=1)
    asm = ModelAssembly(CFG, seed=2)
    asm.attach_dataset(bundle.schema.signature())
    # zero out the head so the model predicts a constant
    head = asm.datasets["toy"].head
    head.weight.data = np.zeros_like(head.weight.data)
    head.bias.data = np.zeros_like(head.bias.data)
    s = E.score(asm, bundle, "test")
    assert s.metric == "mse" and not s.higher_better
    assert abs(s.value - 1.0) < 0.15  # variance of standardized targets
    assert "mse_destandardized" in s.extras


def test_score_perfect_binary_predictor():
    bundle = prepared_bundle(task="binary", n=100, seed=3, name="bin")
    asm = ModelAssembly(CFG, seed=4)
    asm.attach_dataset(bundle.schema.signature())
    # relabel the test split with the model's own decisions: a perfect predictor
    preds = E.predictions(asm, bundle, "test")
    bundle.y[bundle.splits["test"]] = (preds > 0).astype(float)
    s = E.score(asm, bundle, "test")
    assert s.metric == "accuracy" and s.higher_better
    assert s.value == 1.0


def test_score_regression_exact_predictor():
    bundle = prepared_bundle(task="regression", n=200, seed=30, name="exact")
    asm = ModelAssembly(CFG, seed=31)
    asm.attach_dataset(bundle.schema.signature())
    preds = E.predictions(asm, bundle, "test")
    # make the raw targets de-standardize to exactly the model's outputs
    idx = bundle.splits["test"]
    bundle.y[idx] = preds * bundle.target_std + bundle.target_mean
    assert E.score(asm, bundle, "test").value == pytest.approx(0.0, abs=1e-24)


def test_score_transforms_its_split_once(monkeypatch):
    bundle = prepared_bundle(task="regression", n=100, seed=32, name="once")
    asm = ModelAssembly(CFG, seed=33)
    asm.attach_dataset(bundle.schema.signature())
    expected = E.score(asm, bundle, "valid").value
    calls = []
    real = D.matrices
    monkeypatch.setattr(D, "matrices", lambda b, s: calls.append(s) or real(b, s))
    assert E.score(asm, bundle, "valid").value == expected
    assert calls == ["valid"]


def test_score_invariant_to_row_order():
    bundle = prepared_bundle(n=300, seed=5)
    asm = ModelAssembly(CFG, seed=6)
    asm.attach_dataset(bundle.schema.signature())
    s1 = E.score(asm, bundle, "test").value
    rng = np.random.default_rng(7)
    bundle.splits["test"] = rng.permutation(bundle.splits["test"])
    s2 = E.score(asm, bundle, "test").value
    assert s1 == pytest.approx(s2, abs=1e-12)


def test_score_empty_split_is_usage_error():
    bundle = prepared_bundle(n=100, seed=8)
    bundle.splits["valid"] = np.empty(0, dtype=int)
    asm = ModelAssembly(CFG, seed=9)
    asm.attach_dataset(bundle.schema.signature())
    with pytest.raises(UsageError, match="empty"):
        E.score(asm, bundle, "valid")


def make_table(values, higher_better=True, methods=None):
    methods = methods or [f"m{j}" for j in range(len(values[0]))]
    t = E.ScoreTable(methods)
    for i, row in enumerate(values):
        t.add_row(f"task{i}", "accuracy" if higher_better else "mse",
                  higher_better, dict(zip(methods, row)))
    return t


def test_rank_examples():
    r = E.rank_methods(make_table([[0.9, 0.8, 0.7]]))
    np.testing.assert_array_equal(r.ranks, [[1, 2, 3]])
    r = E.rank_methods(make_table([[0.9, 0.9, 0.7]]))
    np.testing.assert_array_equal(r.ranks, [[1.5, 1.5, 3]])
    r = E.rank_methods(make_table([[0.9, 0.1], [0.8, 0.2]]))
    assert r.mean["m0"] == 1.0 and r.std["m0"] == 0.0


def test_rank_matches_brute_force_on_1000_random_tables():
    rng = np.random.default_rng(10)
    for _ in range(1000):
        n_methods = int(rng.integers(2, 6))
        n_tasks = int(rng.integers(1, 5))
        hb = bool(rng.integers(2))
        # quantize so ties actually occur
        vals = np.round(rng.uniform(size=(n_tasks, n_methods)), 1)
        table = make_table(vals.tolist(), higher_better=hb)
        got = E.rank_methods(table).ranks
        for i in range(n_tasks):
            np.testing.assert_array_equal(got[i], brute_force_ranks(vals[i], hb))
            assert got[i].sum() == pytest.approx(n_methods * (n_methods + 1) / 2)


def test_rank_requires_two_methods():
    t = E.ScoreTable(["only"])
    t.add_row("a", "mse", False, {"only": 1.0})
    with pytest.raises(UsageError):
        E.rank_methods(t)


def test_win_tie_loss_examples():
    t = make_table([[0.9, 0.8], [0.5, 0.5]], higher_better=True, methods=["A", "B"])
    assert E.win_tie_loss(t, "A", "B") == (1, 1, 0)
    t2 = make_table([[0.3, 0.3]] * 4, higher_better=True, methods=["A", "B"])
    assert E.win_tie_loss(t2, "A", "B") == (0, 4, 0)


def test_win_tie_loss_rounding_rule():
    # differs only in the 4th decimal -> tie at 3 decimals
    t = make_table([[0.123449, 0.123451]], higher_better=True, methods=["A", "B"])
    assert E.win_tie_loss(t, "A", "B") == (0, 1, 0)
    assert E.win_tie_loss(t, "A", "B", decimals=6) == (0, 0, 1)


def test_win_tie_loss_symmetry_random():
    rng = np.random.default_rng(11)
    for _ in range(200):
        vals = np.round(rng.uniform(size=(int(rng.integers(1, 8)), 2)), 2)
        hb = bool(rng.integers(2))
        t = make_table(vals.tolist(), higher_better=hb, methods=["A", "B"])
        w, ti, l = E.win_tie_loss(t, "A", "B")
        w2, t2, l2 = E.win_tie_loss(t, "B", "A")
        assert (w, ti, l) == (l2, t2, w2)
        assert w + ti + l == len(vals)


def test_export_coefficients_counts_and_simplex(tmp_path):
    cfg = ModelConfig(d=16, n_blocks=4, n_heads=2, n_basis=3, d_ffn=12, cal_hidden=4)
    asm = ModelAssembly(cfg, seed=12)
    b1 = prepared_bundle(n=100, seed=13, name="d5")
    cols = [D.Column(f"x{j}", "numeric") for j in range(3)] + [D.Column("y", "target")]
    asm.attach_dataset(b1.schema.signature())
    sig2 = D.Schema("d3", "regression",
                    [D.Column("a", "numeric"), D.Column("b", "numeric"),
                     D.Column("c", "numeric"), D.Column("y", "target")]).signature()
    asm.attach_dataset(sig2)
    # d5 has 3 features -> 4 tokens; d3 has 3 features -> 4 tokens; 8 layers
    path = tmp_path / "coeffs.json"
    doc = E.export_coefficients(asm, ["d5", "d3"], path, phase="pretrained")
    assert len(doc["records"]) == (4 + 4) * 8
    for rec in doc["records"]:
        np.testing.assert_allclose(sum(rec["coefficients"]), 1.0, atol=1e-9)
        assert all(c > 0 for c in rec["coefficients"])
        assert rec["context"] is not None
    # re-export without training in between: identical bytes
    path2 = tmp_path / "coeffs2.json"
    E.export_coefficients(asm, ["d5", "d3"], path2, phase="pretrained")
    assert path.read_bytes() == path2.read_bytes()


def test_export_coefficients_token_counts_match_spec_shapes(tmp_path):
    # datasets with 5 and 3 features -> (6 + 4) tokens x 2L layers
    cfg = ModelConfig(d=16, n_blocks=4, n_heads=2, n_basis=2, d_ffn=12, cal_hidden=4)
    asm = ModelAssembly(cfg, seed=14)
    for name, n in (("n5", 5), ("n3", 3)):
        cols = [D.Column(f"x{j}", "numeric") for j in range(n)] + [D.Column("y", "target")]
        asm.attach_dataset(D.Schema(name, "regression", cols).signature())
    doc = E.export_coefficients(asm, ["n5", "n3"], tmp_path / "c.json")
    assert len(doc["records"]) == (6 + 4) * 8 == 80


def test_build_report_deterministic_and_signed(tmp_path):
    table = E.ScoreTable(["transfer", "scratch"])
    table.add_row("t1", "mse", False, {"transfer": 0.25, "scratch": 0.5})
    table.add_row("t2", "accuracy", True, {"transfer": 0.9, "scratch": 0.8})
    rep = E.build_report(table, tmp_path / "report")
    raw = rep["main"]["raw_scores"]
    assert raw[0]["scores"]["transfer"] == -0.25  # negated mse
    assert raw[1]["scores"]["transfer"] == 0.9
    assert rep["main"]["win_tie_loss"]["transfer vs scratch"] == [2, 0, 0]
    first = (tmp_path / "report.json").read_bytes()
    E.build_report(table, tmp_path / "report")
    assert (tmp_path / "report.json").read_bytes() == first
    text = (tmp_path / "report.txt").read_text()
    assert "mean rank" in text and "win 2" in text


def test_build_report_validates_log_tasks(tmp_path):
    table = E.ScoreTable(["a", "b"])
    table.add_row("t1", "mse", False, {"a": 1.0, "b": 2.0})
    with pytest.raises(DataError, match="unknown tasks"):
        E.build_report(table, tmp_path / "r", logs={"nope": []})


def test_score_table_missing_cell_rejected():
    t = E.ScoreTable(["a", "b"])
    with pytest.raises(DataError, match="missing"):
        t.add_row("t", "mse", False, {"a": 1.0})


def test_score_table_roundtrip():
    t = make_table([[0.1, 0.2], [0.3, 0.4]], higher_better=False)
    t2 = E.ScoreTable.from_dict(json.loads(json.dumps(t.to_dict())))
    assert t2.values == t.values and t2.methods == t.methods

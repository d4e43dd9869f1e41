import json
import os
import tracemalloc

import numpy as np
import pytest

from metafn import data as D
from metafn import evaluate as E
from metafn.errors import DataError, UsageError
from metafn.model import ModelAssembly, ModelConfig

CFG = ModelConfig(d=16, n_blocks=1, n_heads=2, n_basis=2, d_ffn=12, cal_hidden=4)
ACCEPTANCE = ModelConfig(d=32, n_blocks=2, n_heads=4, n_basis=4, d_ffn=48, cal_hidden=16)


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


def prepared_bundle(task="regression", n=200, seed=0, name="toy", n_features=3):
    rng = np.random.default_rng(seed)
    cols = [D.Column(f"x{j}", "numeric") for j in range(n_features)] \
        + [D.Column("y", "target")]
    schema = D.Schema(name, task, cols)
    x = rng.standard_normal((n, n_features))
    y = x[:, :3] @ np.array([1.0, -0.5, 0.2]) + 0.1 * rng.standard_normal(n) \
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
    assert s.metric == "mse"
    assert abs(s.value - 1.0) < 0.15  # variance of standardized targets


def test_score_perfect_binary_predictor():
    bundle = prepared_bundle(task="binary", n=100, seed=3, name="bin")
    asm = ModelAssembly(CFG, seed=4)
    asm.attach_dataset(bundle.schema.signature())
    # relabel the test split with the model's own decisions: a perfect predictor
    preds = E.predictions(asm, bundle, "test", D.matrices(bundle, "test"))
    bundle.y[bundle.splits["test"]] = (preds > 0).astype(float)
    s = E.score(asm, bundle, "test")
    assert s.metric == "accuracy"
    assert s.value == 1.0


def test_score_regression_exact_predictor():
    bundle = prepared_bundle(task="regression", n=200, seed=30, name="exact")
    asm = ModelAssembly(CFG, seed=31)
    asm.attach_dataset(bundle.schema.signature())
    preds = E.predictions(asm, bundle, "test", D.matrices(bundle, "test"))
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


def brute_force_win_tie_loss(a, b, higher_better):
    """Row-by-row reference: equal at 3 decimals is a tie, else the row's direction decides."""
    wins = ties = losses = 0
    for x, y, hb in zip(np.round(a, 3), np.round(b, 3), higher_better):
        if x == y:
            ties += 1
        elif (x > y) == hb:
            wins += 1
        else:
            losses += 1
    return wins, ties, losses


@pytest.mark.parametrize("methods", [["a", "a"], [1, 2], "ab", ("a", "b")],
                         ids=["repeated", "not-strings", "a-string", "a-tuple"])
def test_a_score_table_names_each_method_once_as_a_string(methods):
    with pytest.raises(DataError, match="methods must list distinct strings"):
        E.ScoreTable(methods)
    doc = {"methods": methods, "tasks": ["t"], "metrics": ["mse"], "values": [[0.1, 0.2]]}
    with pytest.raises(DataError, match="methods must list distinct strings"):
        E.ScoreTable.from_dict(doc)


def make_table(values, higher_better=True, methods=None):
    """Accuracy rows where ``higher_better`` holds, mse rows elsewhere; one bool or one per row."""
    methods = methods or [f"m{j}" for j in range(len(values[0]))]
    if not isinstance(higher_better, list):
        higher_better = [higher_better] * len(values)
    t = E.ScoreTable(methods)
    for i, (row, hb) in enumerate(zip(values, higher_better)):
        t.add_row(f"task{i}", "accuracy" if hb else "mse", dict(zip(methods, row)))
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


def test_average_ranks_equal_scipy_rankdata_bitwise():
    from scipy.stats import rankdata
    rng = np.random.default_rng(21)
    for n in [1, 2, 3, 5, 8, 190] * 100:
        x = rng.integers(0, int(rng.integers(1, 6)), n) * rng.choice([-1.0, 1.0])
        if rng.random() < 0.3:
            x = rng.standard_normal(n)      # ties unlikely
        assert E.average_ranks(x).tobytes() == rankdata(x, method="average").tobytes()
    # -0.0 and 0.0 compare equal, so they tie
    np.testing.assert_array_equal(E.average_ranks(np.array([0.0, -0.0, 1.0])), [1.5, 1.5, 3])


def test_rank_and_win_tie_loss_match_brute_force_on_mixed_direction_tables():
    rng = np.random.default_rng(12)
    for _ in range(500):
        n_methods = int(rng.integers(2, 6))
        n_tasks = int(rng.integers(2, 8))
        # one accuracy and one mse row at least, the rest drawn
        hb = [True, False] + rng.integers(2, size=n_tasks - 2).astype(bool).tolist()
        vals = np.round(rng.uniform(size=(n_tasks, n_methods)), int(rng.integers(1, 5)))
        table = make_table(vals.tolist(), higher_better=hb)
        got = E.rank_methods(table).ranks
        for i in range(n_tasks):
            np.testing.assert_array_equal(got[i], brute_force_ranks(vals[i], hb[i]))
        for a, b in ((0, 1), (1, 0), (0, n_methods - 1)):
            assert E.win_tie_loss(table, f"m{a}", f"m{b}") == \
                brute_force_win_tie_loss(vals[:, a], vals[:, b], hb)


def test_direction_comes_from_the_metric():
    assert (E.oriented("accuracy", 0.9), E.oriented("mse", 0.25)) == (0.9, -0.25)
    # A beats B on the mse row and loses on the accuracy row
    t = make_table([[0.1, 0.5], [0.1, 0.5]], higher_better=[False, True], methods=["A", "B"])
    assert E.win_tie_loss(t, "A", "B") == (1, 0, 1)
    np.testing.assert_array_equal(E.rank_methods(t).ranks, [[1, 2], [2, 1]])


def test_rank_requires_two_methods():
    t = E.ScoreTable(["only"])
    t.add_row("a", "mse", {"only": 1.0})
    with pytest.raises(UsageError):
        E.rank_methods(t)


def test_win_tie_loss_examples():
    t = make_table([[0.9, 0.8], [0.5, 0.5]], higher_better=True, methods=["A", "B"])
    assert E.win_tie_loss(t, "A", "B") == (1, 1, 0)
    t2 = make_table([[0.3, 0.3]] * 4, higher_better=True, methods=["A", "B"])
    assert E.win_tie_loss(t2, "A", "B") == (0, 4, 0)


def test_win_tie_loss_rounding_rule():
    # differs only in the 4th decimal -> tie at 3 decimals; in the 3rd -> a loss
    t = make_table([[0.123449, 0.123451], [0.1234, 0.1244]], higher_better=True,
                   methods=["A", "B"])
    assert E.win_tie_loss(t, "A", "B") == (0, 1, 1)


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
    # d5 has 3 features -> 4 tokens; d3 has 3 features -> 4 tokens; 8 layers,
    # of which the last block's 2 read only the [CLS] token
    path = tmp_path / "coeffs.json"
    doc = E.export_coefficients(asm, ["d5", "d3"], path)
    assert len(doc["records"]) == (4 + 4) * 6 + (1 + 1) * 2 == 52
    for rec in doc["records"]:
        np.testing.assert_allclose(sum(rec["coefficients"]), 1.0, atol=1e-9)
        assert all(c > 0 for c in rec["coefficients"])
        assert rec["context"] is not None
    # re-export without training in between: identical bytes
    path2 = tmp_path / "coeffs2.json"
    E.export_coefficients(asm, ["d5", "d3"], path2)
    assert path.read_bytes() == path2.read_bytes()


def test_export_coefficients_rejects_a_nan_row(tmp_path):
    asm = ModelAssembly(CFG, seed=14)
    cols = [D.Column("a", "numeric"), D.Column("y", "target")]
    asm.attach_dataset(D.Schema("n1", "regression", cols).signature())
    asm.datasets["n1"].context.data[0] = np.nan
    path = tmp_path / "c.json"
    with pytest.raises(DataError, match="left the simplex"):
        E.export_coefficients(asm, ["n1"], path)
    assert not path.exists()


def test_export_coefficients_token_counts_match_spec_shapes(tmp_path):
    # datasets with 5 and 3 features -> (6 + 4) tokens x 2(L-1) layers, plus
    # one [CLS] row each in the last block's 2 layers
    cfg = ModelConfig(d=16, n_blocks=4, n_heads=2, n_basis=2, d_ffn=12, cal_hidden=4)
    asm = ModelAssembly(cfg, seed=14)
    for name, n in (("n5", 5), ("n3", 3)):
        cols = [D.Column(f"x{j}", "numeric") for j in range(n)] + [D.Column("y", "target")]
        asm.attach_dataset(D.Schema(name, "regression", cols).signature())
    doc = E.export_coefficients(asm, ["n5", "n3"], tmp_path / "c.json")
    assert len(doc["records"]) == (6 + 4) * 6 + (1 + 1) * 2 == 64


def test_build_report_deterministic_and_signed(tmp_path):
    table = E.ScoreTable(["transfer", "scratch"])
    table.add_row("t1", "mse", {"transfer": 0.25, "scratch": 0.5})
    table.add_row("t2", "accuracy", {"transfer": 0.9, "scratch": 0.8})
    rep = E.build_report({"main": table}, tmp_path / "report")
    raw = rep["main"]["raw_scores"]
    assert raw[0]["scores"]["transfer"] == -0.25  # negated mse
    assert raw[1]["scores"]["transfer"] == 0.9
    assert rep["main"]["win_tie_loss"]["transfer vs scratch"] == [2, 0, 0]
    first = (tmp_path / "report.json").read_bytes()
    E.build_report({"main": table}, tmp_path / "report")
    assert (tmp_path / "report.json").read_bytes() == first
    text = (tmp_path / "report.txt").read_text()
    assert "mean rank" in text and "win 2" in text


def test_score_table_missing_cell_rejected():
    t = E.ScoreTable(["a", "b"])
    with pytest.raises(DataError, match="missing"):
        t.add_row("t", "mse", {"a": 1.0})


def test_score_table_rejects_a_task_scored_twice():
    t = E.ScoreTable(["a", "b"])
    t.add_row("t", "mse", {"a": 1.0, "b": 2.0})
    with pytest.raises(DataError, match="task 't' is scored twice"):
        t.add_row("t", "mse", {"a": 1.0, "b": 2.0})
    assert t.tasks == ["t"]
    with pytest.raises(DataError, match="task 't' is scored twice"):
        E.ScoreTable.from_dict({"methods": ["a", "b"], "tasks": ["t", "t"],
                                "metrics": ["mse", "mse"], "values": [[1.0, 2.0]] * 2})


def test_score_table_rejects_an_unknown_metric():
    t = E.ScoreTable(["a", "b"])
    with pytest.raises(DataError, match="task 't' has unknown metric 'rmse'"):
        t.add_row("t", "rmse", {"a": 1.0, "b": 2.0})
    assert t.tasks == [] and t.values == []


@pytest.mark.parametrize("metric", ["accuracy", "mse"])
@pytest.mark.parametrize("bad", [float("nan"), float("inf"), float("-inf")])
def test_score_table_rejects_a_non_finite_score_naming_task_and_method(metric, bad):
    t = E.ScoreTable(["A", "B"])
    t.add_row("t0", metric, {"A": 0.9, "B": 0.5})
    with pytest.raises(DataError, match="task 't1', method 'B'"):
        t.add_row("t1", metric, {"A": 0.9, "B": bad})
    assert t.tasks == ["t0"] and t.metric_names == [metric] and len(t.values) == 1


def test_score_table_roundtrip():
    t = make_table([[0.1, 0.2], [0.3, 0.4]], higher_better=False)
    d = t.to_dict()
    assert set(d) == {"methods", "tasks", "metrics", "values"}
    t2 = E.ScoreTable.from_dict(json.loads(json.dumps(d)))
    assert t2.values == t.values and t2.methods == t.methods
    assert t2.metric_names == t.metric_names == ["mse", "mse"]
    # keys other than these four are not read
    t3 = E.ScoreTable.from_dict({**d, "higher_better": [True, True]})
    assert t3.to_dict() == d


def test_predictions_in_several_blocks_equal_one_block_bitwise(monkeypatch):
    bundle = prepared_bundle(n=225, seed=5)
    asm = ModelAssembly(ModelConfig(d=16, n_blocks=2, n_heads=2, n_basis=2, d_ffn=12,
                                    cal_hidden=4), seed=6)
    asm.attach_dataset(bundle.schema.signature())
    mats = D.matrices(bundle, "test")
    whole = E.predictions(asm, bundle, "test", mats)
    assert whole.shape == (45,)
    # a budget of 16 to 23 rows' score arrays: blocks of 16, 16 and 13 rows
    row_bytes = 2 * 4 * 4 * 8
    monkeypatch.setattr(E, "SCORE_BYTES", 24 * row_bytes - 1)
    assert E.predict_rows(asm.config, 4) == 16
    np.testing.assert_array_equal(E.predictions(asm, bundle, "test", mats), whole)
    monkeypatch.undo()

    # the acceptance model on a 9-token table: blocks of 256, 256 and 88 rows
    # against one block of 4096
    bundle = prepared_bundle(n=3000, seed=7, n_features=8)
    asm = ModelAssembly(ACCEPTANCE, seed=8)
    asm.attach_dataset(bundle.schema.signature())
    mats = D.matrices(bundle, "test")
    blocks = E.predictions(asm, bundle, "test", mats)
    assert blocks.shape == (600,) and E.predict_rows(ACCEPTANCE, 9) == 256
    monkeypatch.setattr(E, "PREDICT_BATCH", 4096)
    np.testing.assert_array_equal(E.predictions(asm, bundle, "test", mats), blocks)


def test_predictions_keep_a_small_working_set():
    # 4096 rows of a 9-token table in one block allocate about 58 MiB of
    # temporaries; blocks of 256 rows about 4 MiB
    n = 4096
    bundle = prepared_bundle(n=20, n_features=8)
    asm = ModelAssembly(ACCEPTANCE, seed=9)
    asm.attach_dataset(bundle.schema.signature())
    rng = np.random.default_rng(10)
    mats = (rng.standard_normal((n, 8)), np.empty((n, 0), dtype=np.int64), np.zeros(n))
    tracemalloc.start()
    try:
        E.predictions(asm, bundle, "test", matrices=mats)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 8 * 2 ** 20


def test_predict_rows_bounds_one_attention_score_array():
    # a 9-token table scores 256 rows at a time
    assert E.predict_rows(ACCEPTANCE, 9) == E.PREDICT_BATCH == 256
    # at 101 tokens one 256-row score array would take 80 MiB (4 heads) or
    # 159 MiB (8 heads); the budget allows 200 and 96 rows
    for cfg, want in ((ACCEPTANCE, 200), (ModelConfig(), 96)):
        row_bytes = cfg.n_heads * 101 * 101 * 8
        rows = E.predict_rows(cfg, 101)
        assert rows == want
        assert rows * row_bytes <= E.SCORE_BYTES < (rows + 8) * row_bytes
    assert E.predict_rows(ACCEPTANCE, 10_000) == 1


def test_a_failed_report_write_keeps_the_previous_files_and_leaves_no_temporary(
        tmp_path, monkeypatch):
    E.build_report({"main": make_table([[0.9, 0.8], [0.7, 0.6]])}, tmp_path / "report")
    before = {p.name: p.read_bytes() for p in tmp_path.iterdir()}

    def fail(fd):
        raise OSError("disk full")

    monkeypatch.setattr(os, "fsync", fail)
    with pytest.raises(OSError, match="disk full"):
        E.build_report({"main": make_table([[0.1, 0.8], [0.7, 0.6]])}, tmp_path / "report")
    assert {p.name: p.read_bytes() for p in tmp_path.iterdir()} == before

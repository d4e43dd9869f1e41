import json

import numpy as np
import pytest

from metafn import data as D
from metafn import evaluate as E
from metafn.checkpoint import Checkpoint
from metafn.cli import cmd_report
from metafn.config import RunConfig
from metafn.errors import CheckpointError, ConfigError, DataError, UsageError
from metafn.model import ModelAssembly, ModelConfig


def toy_bundle(n=1000, seed=0, task="regression"):
    rng = np.random.default_rng(seed)
    cols = [D.Column("a", "numeric"), D.Column("b", "numeric"), D.Column("y", "target")]
    schema = D.Schema("toy", task, cols)
    x = rng.standard_normal((n, 2))
    y = rng.standard_normal(n) if task == "regression" \
        else (rng.uniform(size=n) > 0.5).astype(float)
    return D.DatasetBundle(schema, x, np.empty((n, 0), dtype=np.int64), y)


def write_csv(tmp_path, text, manifest):
    csv_path = tmp_path / "d.csv"
    man_path = tmp_path / "d.manifest.json"
    csv_path.write_text(text)
    man_path.write_text(json.dumps(manifest))
    return csv_path, man_path


MANIFEST = {
    "name": "tiny", "task": "binary",
    "columns": [
        {"name": "age", "kind": "numeric"},
        {"name": "color", "kind": "categorical", "vocabulary": ["red", "green"]},
        {"name": "label", "kind": "target"},
    ],
}


def test_load_csv_roundtrip_of_small_file(tmp_path):
    p, m = write_csv(tmp_path, "age,color,label\n1.5,red,1\n2.0,green,0\n-3.25,red,1\n",
                     MANIFEST)
    b = D.load_csv(p, m)
    assert b.schema.n_features == 2 and b.n_rows == 3
    np.testing.assert_array_equal(b.x_num[:, 0], [1.5, 2.0, -3.25])
    np.testing.assert_array_equal(b.x_cat[:, 0], [0, 1, 0])
    np.testing.assert_array_equal(b.y, [1, 0, 1])


def test_load_csv_unknown_category_counted(tmp_path):
    p, m = write_csv(tmp_path, "age,color,label\n1,blue,0\n2,red,1\n", MANIFEST)
    with pytest.warns(UserWarning, match="tiny: 1 categorical values outside"):
        b = D.load_csv(p, m)
    assert b.x_cat[0, 0] == 2  # the unknown bucket


def test_load_csv_names_a_missing_csv(tmp_path):
    _, m = write_csv(tmp_path, "age,color,label\n1,red,0\n", MANIFEST)
    with pytest.raises(DataError, match=r"absent\.csv: CSV not found"):
        D.load_csv(tmp_path / "absent.csv", m)


def test_load_csv_names_an_undecodable_csv(tmp_path):
    p, m = write_csv(tmp_path, "", MANIFEST)
    p.write_bytes(b"age,color,label\n1,r\xffd,0\n")
    with pytest.raises(DataError, match=r"d\.csv: not valid UTF-8"):
        D.load_csv(p, m)


def test_load_csv_header_mismatch_names_column(tmp_path):
    p, m = write_csv(tmp_path, "age,colour,label\n1,red,0\n", MANIFEST)
    with pytest.raises(DataError, match="colour"):
        D.load_csv(p, m)


def test_load_csv_bad_numeric_and_bad_target(tmp_path):
    p, m = write_csv(tmp_path, "age,color,label\nabc,red,0\n", MANIFEST)
    with pytest.raises(DataError, match="age"):
        D.load_csv(p, m)
    p2, m2 = write_csv(tmp_path, "age,color,label\n1,red,0.5\n", MANIFEST)
    with pytest.raises(DataError, match="binary target"):
        D.load_csv(p2, m2)


@pytest.mark.parametrize("text,row,column", [
    ("x,y\n1,2\nnan,3\n", 3, "x"),
    ("x,y\n-inf,2\n", 2, "x"),
    ("x,y\n1,2\n2,3\n3,inf\n", 4, "y"),
    ("x,y\n1,NaN\n", 2, "y"),
])
def test_load_csv_rejects_non_finite_values(tmp_path, text, row, column):
    manifest = {"name": "reg", "task": "regression",
                "columns": [{"name": "x", "kind": "numeric"}, {"name": "y", "kind": "target"}]}
    p, m = write_csv(tmp_path, text, manifest)
    with pytest.raises(DataError, match=rf"d\.csv: row {row}, column '{column}'"):
        D.load_csv(p, m)


def test_load_csv_empty_file(tmp_path):
    p, m = write_csv(tmp_path, "", MANIFEST)
    with pytest.raises(DataError, match="empty"):
        D.load_csv(p, m)
    p2, m2 = write_csv(tmp_path, "age,color,label\n", MANIFEST)
    with pytest.raises(DataError, match="no data rows"):
        D.load_csv(p2, m2)


def test_schema_validation():
    with pytest.raises(DataError, match="target"):
        D.Schema("x", "binary", [D.Column("a", "numeric")])
    with pytest.raises(DataError, match="vocabulary"):
        D.Schema("x", "binary", [D.Column("a", "categorical", ()),
                                 D.Column("y", "target")])


@pytest.mark.parametrize("name", ["", ".", "..", "../../escaped", "a/b", "a\\b", "a\0b"])
def test_a_dataset_name_is_one_path_component(name):
    with pytest.raises(DataError, match="must be one path component"):
        D.Schema(name, "regression", [D.Column("y", "target")])


def sizes(bundle):
    return {k: v.size for k, v in bundle.splits.items()}


def test_split_arithmetic_1000():
    assert sizes(D.prepare(toy_bundle(1000), split_seed=0)) == {
        "test": 200, "valid": 160, "train": 640}


def test_split_arithmetic_10_rows():
    assert sizes(D.prepare(toy_bundle(10), split_seed=1)) == {"test": 2, "valid": 1, "train": 7}


def test_split_deterministic_and_disjoint():
    s1 = D.prepare(toy_bundle(137, seed=5), split_seed=9).splits
    s2 = D.prepare(toy_bundle(137, seed=5), split_seed=9).splits
    for k in s1:
        np.testing.assert_array_equal(s1[k], s2[k])
    allidx = np.concatenate(list(s1.values()))
    assert len(np.unique(allidx)) == 137


def test_split_too_few_rows():
    for n in (4, 5):
        with pytest.raises(DataError, match=f"at least 6 rows to split, got {n}"):
            D.prepare(toy_bundle(n), split_seed=0)
    # the smallest table accepted keeps a row in every split
    assert sizes(D.prepare(toy_bundle(6), split_seed=0)) == {"test": 1, "valid": 1, "train": 4}


def test_apply_setting_caps():
    b = toy_bundle(1000)
    full = D.prepare(b, split_seed=0)
    t200 = D.prepare(b, split_seed=0, setting="T-200")
    assert sizes(t200) == {"test": 200, "valid": 50, "train": 200}
    np.testing.assert_array_equal(t200.splits["test"], full.splits["test"])
    for k in ("train", "valid"):   # a cap subsamples its own split
        assert np.isin(t200.splits[k], full.splits[k]).all()
    # caps larger than the split leave it whole
    small = toy_bundle(23)
    t20 = D.prepare(small, split_seed=0, setting="T-20")
    assert sizes(t20) == sizes(D.prepare(small, split_seed=0)) == {
        "test": 4, "valid": 3, "train": 16}


def test_apply_setting_subsets_vary_with_seed():
    b = toy_bundle(1000)
    a = D.prepare(b, split_seed=1, setting="T-100").splits["train"]
    c = D.prepare(b, split_seed=2, setting="T-100").splits["train"]
    assert not np.array_equal(a, c)
    assert np.array_equal(a, D.prepare(b, split_seed=1, setting="T-100").splits["train"])


def test_unknown_setting_is_usage_error():
    with pytest.raises(UsageError, match="T-99"):
        D.prepare(toy_bundle(100, seed=6), split_seed=0, setting="T-99")


def test_quantile_plotting_positions():
    from scipy.special import ndtri
    qt = D.QuantileTransform.fit(np.array([1.0, 2.0, 3.0]), np.random.default_rng(0))
    np.testing.assert_array_equal(qt.knots_p, [1 / 6, 1 / 2, 5 / 6])
    np.testing.assert_array_equal(qt.apply(qt.knots_x), ndtri(qt.knots_p))
    assert qt.apply(qt.knots_x[1:2])[0] == 0.0  # the median maps to zero
    # below the minimum: clipped to the lowest quantile
    np.testing.assert_array_equal(qt.apply(qt.knots_x[:1] - 100.0), ndtri([1 / 6]))


def test_quantile_constant_column_warns_and_zeroes():
    rng = np.random.default_rng(0)
    with pytest.warns(UserWarning, match="constant"):
        qt = D.QuantileTransform.fit(np.full(10, 3.3), rng)
    np.testing.assert_array_equal(qt.apply(np.array([1.0, 5.0])), [0.0, 0.0])


def test_quantile_normality_of_uniform_sample():
    rng = np.random.default_rng(7)
    vals = rng.uniform(size=10_000)
    qt = D.QuantileTransform.fit(vals, np.random.default_rng(8))
    out = qt.apply(vals)
    assert abs(out.mean()) < 0.05
    assert 0.9 <= out.std() <= 1.1
    from scipy.stats import kstest
    assert kstest(out, "norm").statistic < 0.02


def test_transforms_never_see_valid_or_test():
    b = toy_bundle(500, seed=3)
    out = D.prepare(b, split_seed=4, setting="T-200")
    held = np.setdiff1d(np.arange(b.n_rows), out.splits["train"])
    changed = D.DatasetBundle(b.schema, b.x_num.copy(), b.x_cat, b.y.copy())
    changed.x_num[held] = 100.0 + np.arange(held.size)[:, None]
    changed.y[held] = -50.0
    again = D.prepare(changed, split_seed=4, setting="T-200")
    for t1, t2 in zip(out.transforms, again.transforms, strict=True):
        np.testing.assert_array_equal(t1.knots_x, t2.knots_x)
    assert (again.target_mean, again.target_std) == (out.target_mean, out.target_std)


def test_standardize_targets_examples():
    b = toy_bundle(11)
    train = D.prepare(b, split_seed=0).splits["train"]
    b.y = np.full(11, 7.0)
    b.y[train] = [0.0, 2.0] * 4
    out = D.prepare(b, split_seed=0)
    assert out.target_mean == 1.0 and out.target_std == 1.0
    _, _, y = D.matrices(out, "train")
    np.testing.assert_array_equal(y, [-1.0, 1.0] * 4)
    _, _, y = D.matrices(out, "test")
    np.testing.assert_array_equal(y, [6.0, 6.0])


def test_standardize_already_standardized_is_identity():
    b = toy_bundle(500, seed=20)
    train_y = b.y[D.prepare(b, split_seed=21).splits["train"]]
    b.y = (b.y - train_y.mean()) / train_y.std()
    out = D.prepare(b, split_seed=21)
    assert abs(out.target_mean) < 1e-12 and abs(out.target_std - 1.0) < 1e-12
    _, _, y = D.matrices(out, "train")
    np.testing.assert_allclose(y, b.y[out.splits["train"]], atol=1e-12)


def test_standardize_constant_target_is_error():
    b = toy_bundle(10)
    b.y = np.ones(10)
    with pytest.raises(DataError, match="constant"):
        D.prepare(b, split_seed=0)


def test_standardize_binary_is_noop():
    b = D.prepare(toy_bundle(10, task="binary"), split_seed=0)
    assert b.target_mean is None and b.target_std is None
    _, _, y = D.matrices(b, "train")
    np.testing.assert_array_equal(y, b.y[b.splits["train"]])


def test_synth_suite_deterministic():
    spec = D.SynthSuiteSpec(seed=11, n_pretrain=3, rows_per_dataset=50,
                            n_heldout=2, heldout_rows=40)
    s1 = D.generate_synth_suite(spec)
    s2 = D.generate_synth_suite(spec)
    for a, b in zip(s1.pretrain + s1.heldout, s2.pretrain + s2.heldout):
        np.testing.assert_array_equal(a.x_num, b.x_num)
        np.testing.assert_array_equal(a.y, b.y)
        np.testing.assert_array_equal(a.true_mixture, b.true_mixture)


def test_synth_oracle_attains_noise_floor():
    spec = D.SynthSuiteSpec(seed=12, n_pretrain=2, rows_per_dataset=2000,
                            n_heldout=1, noise_std=0.1)
    suite = D.generate_synth_suite(spec)
    mse = suite.oracle_mse(D.prepare(suite.pretrain[0], split_seed=0))
    assert 0.8 * 0.01 <= mse <= 1.2 * 0.01
    # zero noise: the oracle is exact
    spec0 = D.SynthSuiteSpec(seed=13, n_pretrain=2, rows_per_dataset=100,
                             n_heldout=1, noise_std=0.0)
    s0 = D.generate_synth_suite(spec0)
    assert s0.oracle_mse(D.prepare(s0.pretrain[0], split_seed=0)) < 1e-24


def test_synth_mixtures_on_simplex():
    spec = D.SynthSuiteSpec(seed=14, n_pretrain=4, rows_per_dataset=30, n_heldout=3)
    suite = D.generate_synth_suite(spec)
    for b in suite.pretrain + suite.heldout:
        w = b.true_mixture
        assert np.all(w > 0)
        np.testing.assert_allclose(w.sum(), 1.0, atol=1e-12)


def test_suite_export_import_roundtrip(tmp_path):
    spec = D.SynthSuiteSpec(seed=15, n_pretrain=2, rows_per_dataset=25,
                            n_heldout=2, heldout_rows=20)
    suite = D.generate_synth_suite(spec)
    D.export_suite(suite, tmp_path)
    again = D.load_suite(tmp_path)
    assert again.spec == spec
    for a, b in zip(suite.pretrain + suite.heldout, again.pretrain + again.heldout):
        assert a.schema.name == b.schema.name
        np.testing.assert_array_equal(a.x_num, b.x_num)
        np.testing.assert_array_equal(a.y, b.y)
        np.testing.assert_array_equal(a.true_mixture, b.true_mixture)
        assert (suite.oracle_predictions(a, a.x_num).tobytes()
                == again.oracle_predictions(b, b.x_num).tobytes())


def test_prepare_pipeline_and_matrices():
    b = toy_bundle(400, seed=6)
    out = D.prepare(b, split_seed=1, setting="T-100")
    x, xc, y = D.matrices(out, "train")
    assert x.shape == (100, 2) and xc.shape == (100, 0) and y.shape == (100,)
    assert abs(float(y.mean())) < 1e-9  # standardized on this split
    np.testing.assert_allclose(float(y.std()), 1.0, atol=1e-9)
    with pytest.raises(UsageError, match="unknown split 'holdout'"):
        D.matrices(out, "holdout")


def test_prepare_leaves_its_input_unsplit():
    raw = toy_bundle(100, seed=6)
    out = D.prepare(raw, split_seed=0, setting="T-20")
    assert raw.splits is None and raw.transforms is None
    assert sizes(out) == {"test": 20, "valid": 5, "train": 20}


@pytest.mark.parametrize("use", [
    lambda suite, raw: D.matrices(raw, "train"),
    lambda suite, raw: E.score(ModelAssembly(ModelConfig(d=8, n_blocks=1), seed=0), raw, "test"),
    lambda suite, raw: suite.oracle_mse(raw),
], ids=["matrices", "score", "oracle_mse"])
def test_a_raw_bundle_is_not_prepared(use):
    suite = D.generate_synth_suite(D.SynthSuiteSpec(seed=3, n_pretrain=2, rows_per_dataset=20,
                                                    n_heldout=1, heldout_rows=20))
    with pytest.raises(UsageError, match="'synth_pre_00' is not prepared: split"):
        use(suite, suite.pretrain[0])


def test_matrices_of_an_empty_split_keep_the_numeric_width():
    # prepare leaves every split a row, so the empty split is made by hand
    b = D.prepare(toy_bundle(6), split_seed=0)
    b.splits["valid"] = b.splits["valid"][:0]
    x, xc, y = D.matrices(b, "valid")
    assert x.shape == (0, 2) and xc.shape == (0, 0) and y.shape == (0,)


def exported_suite_json(tmp_path):
    spec = D.SynthSuiteSpec(seed=16, n_pretrain=2, rows_per_dataset=25,
                            n_heldout=1, heldout_rows=20)
    D.export_suite(D.generate_synth_suite(spec), tmp_path)
    return tmp_path / "suite.json"


@pytest.mark.parametrize("edit", [
    lambda meta: "{not json",
    lambda meta: json.dumps({**meta, "spec": {**meta["spec"], "structure": "ridge"}}),
    lambda meta: json.dumps({"mixtures": meta["mixtures"]}),
    lambda meta: json.dumps({"spec": meta["spec"]}),
    lambda meta: json.dumps({**meta, "mixtures": {"synth_pre_00": ["x"]}}),
    lambda meta: json.dumps({**meta, "spec": {**meta["spec"], "seed": "seven"}}),
    lambda meta: json.dumps({**meta, "spec": {**meta["spec"], "curvature": 3.0}}),
    lambda meta: json.dumps({**meta, "tables": {"pretrain": meta["tables"]["pretrain"]}}),
    lambda meta: json.dumps({**meta, "tables": {**meta["tables"], "heldout": "synth_task_0"}}),
    lambda meta: json.dumps({**meta, "tables": {**meta["tables"], "heldout": [0]}}),
], ids=["not-json", "unknown-spec-key", "missing-spec", "missing-mixtures", "bad-mixture",
        "mistyped-spec-seed", "removed-spec-key", "missing-part", "part-not-a-list",
        "name-not-a-string"])
def test_load_suite_rejects_a_malformed_suite_json_naming_it(tmp_path, edit):
    path = exported_suite_json(tmp_path)
    path.write_text(edit(json.loads(path.read_text())))
    with pytest.raises(DataError, match="suite.json"):
        D.load_suite(tmp_path)


@pytest.mark.parametrize("edit", [
    lambda mix: mix[:3], lambda mix: [*mix, "0.1"], lambda mix: ["nan", *mix[1:]],
    lambda mix: None,
], ids=["cut", "extra-weight", "nan-weight", "missing"])
def test_load_suite_needs_a_whole_finite_mixture_for_every_listed_table(tmp_path, edit):
    path = exported_suite_json(tmp_path)
    meta = json.loads(path.read_text())
    meta["mixtures"]["synth_task_00"] = edit(meta["mixtures"]["synth_task_00"])
    if meta["mixtures"]["synth_task_00"] is None:
        del meta["mixtures"]["synth_task_00"]
    path.write_text(json.dumps(meta))
    with pytest.raises(DataError, match=r"suite\.json: malformed suite description .*"
                                        r"'synth_task_00' needs a mixture of 6 finite weights"):
        D.load_suite(tmp_path)


def test_load_suite_reads_only_the_listed_tables(tmp_path):
    exported_suite_json(tmp_path)
    for suffix in (".csv", ".manifest.json"):   # a stray copy of a listed table
        (tmp_path / "pretrain" / f"stray{suffix}").write_bytes(
            (tmp_path / "pretrain" / f"synth_pre_00{suffix}").read_bytes())
    suite = D.load_suite(tmp_path)
    assert [b.schema.name for b in suite.pretrain] == ["synth_pre_00", "synth_pre_01"]
    assert [b.schema.name for b in suite.heldout] == ["synth_task_00"]


def test_load_suite_names_a_missing_listed_table(tmp_path):
    exported_suite_json(tmp_path)
    (tmp_path / "pretrain" / "synth_pre_01.csv").unlink()
    with pytest.raises(DataError, match=r"synth_pre_01\.csv: CSV not found"):
        D.load_suite(tmp_path)


def test_a_suite_json_without_its_table_list_must_be_exported_again(tmp_path):
    path = exported_suite_json(tmp_path)    # as exported before suites listed their tables
    meta = json.loads(path.read_text())
    del meta["tables"]
    path.write_text(json.dumps(meta))
    with pytest.raises(DataError, match=r"suite\.json: malformed suite description "
                                        r".*export the suite again"):
        D.load_suite(tmp_path)


def _with_column(column):
    return {**MANIFEST, "columns": [column, *MANIFEST["columns"][1:]]}


@pytest.mark.parametrize("text", [
    json.dumps(MANIFEST)[:30],
    json.dumps({k: v for k, v in MANIFEST.items() if k != "task"}),
    json.dumps(_with_column({"name": "age"})),
    json.dumps([MANIFEST]),
    json.dumps(_with_column({"name": "age", "kind": "ordinal"})),
    json.dumps(_with_column({"name": "age", "kind": "categorical", "vocabulary": 3})),
], ids=["not-json", "missing-task", "column-without-kind", "top-level-list", "unknown-kind",
        "vocabulary-not-a-list"])
def test_load_manifest_rejects_a_malformed_manifest_naming_it(tmp_path, text):
    csv_path, man_path = write_csv(tmp_path, "age,color,label\n1,red,0\n", MANIFEST)
    man_path.write_text(text)
    with pytest.raises(DataError, match=r"d\.manifest\.json"):
        D.load_manifest(man_path)
    with pytest.raises(DataError, match=r"d\.manifest\.json"):
        D.load_csv(csv_path, man_path)


def test_load_manifest_rejects_a_repeated_column_name(tmp_path):
    manifest = {"name": "twice", "task": "regression",
                "columns": [{"name": "a", "kind": "numeric"}, {"name": "a", "kind": "numeric"},
                            {"name": "y", "kind": "target"}]}
    _, man_path = write_csv(tmp_path, "a,a,y\n1.0,2.0,0.5\n", manifest)
    with pytest.raises(DataError, match=r"d\.manifest\.json: malformed manifest "
                                        r"\(DataError: column name 'a' is repeated\)"):
        D.load_manifest(man_path)


@pytest.mark.parametrize("vocabulary", [[0, 1], ["0", "1", "1"], ["red", None], "red"],
                         ids=["numbers", "repeated", "null", "string"])
def test_load_manifest_rejects_a_vocabulary_of_other_than_distinct_strings(tmp_path,
                                                                          vocabulary):
    # [0, 1] sent every CSV value to the unknown bucket, ["0", "1", "1"]
    # mapped "1" to index 2 and declared cardinality 3, and "red" was read
    # as the vocabulary ("r", "e", "d")
    manifest = _with_column({"name": "age", "kind": "categorical", "vocabulary": vocabulary})
    _, man_path = write_csv(tmp_path, "age,color,label\n1,red,0\n", manifest)
    with pytest.raises(DataError, match=r"d\.manifest\.json: malformed manifest .*"
                                        r"vocabulary of column 'age' must list distinct strings"):
        D.load_manifest(man_path)


def test_load_manifest_names_a_missing_manifest(tmp_path):
    with pytest.raises(DataError, match=r"absent\.manifest\.json: manifest not found"):
        D.load_manifest(tmp_path / "absent.manifest.json")


def test_an_exported_suite_of_101_tables_loads_in_generation_order(tmp_path):
    spec = D.SynthSuiteSpec(seed=3, n_pretrain=101, rows_per_dataset=10,
                            n_heldout=1, heldout_rows=10)
    suite = D.generate_synth_suite(spec)
    D.export_suite(suite, tmp_path)
    names = [b.schema.name for b in suite.pretrain]
    assert [b.schema.name for b in D.load_suite(tmp_path).pretrain] == names
    assert names[:2] == ["synth_pre_000", "synth_pre_001"] and names[-1] == "synth_pre_100"
    assert [b.schema.name for b in suite.heldout] == ["synth_task_00"]


# -- every input file is read through errors.read_file / read_json -------------


def _input(kind, tmp_path):
    """Where an input of ``kind`` lives and a call that reads it, as its library caller does."""
    path = tmp_path / {"config": "c.json", "manifest": "d.manifest.json", "CSV": "d.csv",
                       "suite": "suite.json", "checkpoint": "m.ckpt",
                       "score table": "scores.json"}[kind]
    manifest = tmp_path / "ok.manifest.json"
    manifest.write_text(json.dumps(MANIFEST))
    return path, {
        "config": lambda: RunConfig.load(str(path)),
        "manifest": lambda: D.load_manifest(path),
        "CSV": lambda: D.load_csv(path, manifest),
        "suite": lambda: D.load_suite(tmp_path),
        "checkpoint": lambda: Checkpoint.load(path),
        "score table": lambda: cmd_report(RunConfig.load(None), tmp_path),
    }[kind]


FAULTS = {
    "missing": lambda path: None,
    "directory": lambda path: path.mkdir(),
    "not-utf8": lambda path: path.write_bytes(b'{"name": "\xff"}'),
    "not-json": lambda path: path.write_text("{not json"),
    "malformed": lambda path: path.write_text("[]" if path.suffix == ".json" else "colour\n1\n"),
}


READER_CASES = [   # (input, fault, library error, message after "<path>: ")
    ("config", "missing", ConfigError, "config file not found"),
    ("config", "directory", ConfigError, "config file cannot be read: Is a directory"),
    ("config", "not-utf8", ConfigError, "config file is not valid JSON (UnicodeDecodeError"),
    ("config", "not-json", ConfigError, "config file is not valid JSON (JSONDecodeError"),
    ("config", "malformed", ConfigError, "malformed config file (ConfigError"),
    ("manifest", "missing", DataError, "manifest not found"),
    ("manifest", "directory", DataError, "manifest cannot be read: Is a directory"),
    ("manifest", "not-utf8", DataError, "manifest is not valid JSON (UnicodeDecodeError"),
    ("manifest", "not-json", DataError, "manifest is not valid JSON (JSONDecodeError"),
    ("manifest", "malformed", DataError, "malformed manifest (TypeError"),
    ("CSV", "missing", DataError, "CSV not found"),
    ("CSV", "directory", DataError, "CSV cannot be read: Is a directory"),
    ("CSV", "not-utf8", DataError, "not valid UTF-8"),
    ("CSV", "malformed", DataError, "header does not match manifest"),
    ("suite", "missing", DataError, "suite description not found"),
    ("suite", "directory", DataError, "suite description cannot be read: Is a directory"),
    ("suite", "not-utf8", DataError, "suite description is not valid JSON (UnicodeDecodeError"),
    ("suite", "not-json", DataError, "suite description is not valid JSON (JSONDecodeError"),
    ("suite", "malformed", DataError, "malformed suite description (TypeError"),
    ("checkpoint", "missing", CheckpointError, "checkpoint not found"),
    ("checkpoint", "directory", CheckpointError, "checkpoint cannot be read: Is a directory"),
    ("checkpoint", "malformed", CheckpointError, "not a checkpoint file"),
    ("score table", "directory", DataError, "score table cannot be read: Is a directory"),
    ("score table", "not-utf8", DataError, "score table is not valid JSON (UnicodeDecodeError"),
    ("score table", "not-json", DataError, "score table is not valid JSON (JSONDecodeError"),
    ("score table", "malformed", DataError, "malformed score table (TypeError"),
]


@pytest.mark.parametrize("kind,fault,error,message", READER_CASES,
                         ids=[f"{k.replace(' ', '-')}-{f}" for k, f, *_ in READER_CASES])
def test_every_input_file_fault_is_the_library_error_naming_the_file(
        tmp_path, kind, fault, error, message):
    path, read = _input(kind, tmp_path)
    FAULTS[fault](path)
    with pytest.raises(error) as exc:
        read()
    assert str(exc.value).startswith(f"{path}: {message}")

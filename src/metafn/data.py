"""Dataset ingestion, preprocessing, splits, and the synthetic suite.

A DatasetBundle carries raw rows plus everything fitted from them:
quantile maps for numeric features, target standardization for
regression, and the train/valid/test split.  Transforms are always
fitted on the training rows only, after any limited-data setting has
been applied.

The synthetic suite provides a controlled transfer problem: a fixed set
of nonlinear basis functions is shared by all datasets, each dataset
mixes them with its own simplex weights, and held-out tasks use fresh
weights.  The recorded true mixture gives a noise-floor oracle.
"""

from __future__ import annotations

import csv
import io
import math
import warnings
from dataclasses import asdict, dataclass, replace
from pathlib import Path

import numpy as np
from scipy.special import ndtri

from .errors import (DataError, UsageError, check_int, check_real, json_text, read_file,
                     read_json, write_file)
from .model import DatasetSignature

PROB_CLIP = 1e-7
QUANTILE_JITTER = 1e-3   # tie-breaking noise before a quantile fit, in column stds


@dataclass(frozen=True)
class Column:
    name: str
    kind: str  # "numeric" | "categorical" | "target"
    vocabulary: tuple[str, ...] | None = None


@dataclass
class Schema:
    name: str
    task: str  # "binary" | "regression"
    columns: list[Column]

    def __post_init__(self):
        # the name is a directory of the CLI's output: one path component
        if (not isinstance(self.name, str) or self.name in ("", ".", "..")
                or any(ch in self.name for ch in "/\\\0")):
            raise DataError(f"dataset name {self.name!r} must be one path component")
        if self.task not in ("binary", "regression"):
            raise DataError(f"unknown task type {self.task!r}")
        targets = [c for c in self.columns if c.kind == "target"]
        if len(targets) != 1:
            raise DataError(f"schema needs exactly one target column, found {len(targets)}")
        names = [c.name for c in self.columns]
        for c in self.columns:
            if names.count(c.name) > 1:
                raise DataError(f"column name {c.name!r} is repeated")
            if c.kind not in ("numeric", "categorical", "target"):
                raise DataError(f"column {c.name!r} has unknown kind {c.kind!r}")
            if c.kind == "categorical" and not c.vocabulary:
                raise DataError(f"categorical column {c.name!r} has an empty vocabulary")
            if c.vocabulary is not None and (
                    not isinstance(c.vocabulary, tuple)
                    or not all(isinstance(v, str) for v in c.vocabulary)
                    or len(set(c.vocabulary)) < len(c.vocabulary)):
                raise DataError(f"the vocabulary of column {c.name!r} must list distinct strings")

    @property
    def feature_columns(self) -> list[Column]:
        return [c for c in self.columns if c.kind != "target"]

    @property
    def n_features(self) -> int:
        return len(self.feature_columns)

    def signature(self) -> DatasetSignature:
        kinds = tuple(c.kind for c in self.feature_columns)
        cards = tuple(len(c.vocabulary) for c in self.feature_columns
                      if c.kind == "categorical")
        return DatasetSignature(self.name, self.task, kinds, cards)

    def to_dict(self) -> dict:
        return {"name": self.name, "task": self.task,
                "columns": [{"name": c.name, "kind": c.kind,
                             **({"vocabulary": list(c.vocabulary)}
                                if c.vocabulary else {})}
                            for c in self.columns]}

    @classmethod
    def from_dict(cls, d: dict) -> "Schema":
        cols = [Column(c["name"], c["kind"], tuple(c["vocabulary"])
                       if isinstance(c.get("vocabulary"), list) else c.get("vocabulary"))
                for c in d["columns"]]
        return cls(d["name"], d["task"], cols)


# Limited-data protocols: each name's caps on the train and valid row counts
SETTINGS = {"T-full": (None, None), "T-200": (200, 50), "T-100": (100, 25),
            "T-50": (50, 13), "T-20": (20, 5)}


class QuantileTransform:
    """Empirical-quantile map to a standard normal.

    The training values, jittered by ``QUANTILE_JITTER`` column standard
    deviations to break ties, sit sorted at plotting positions (i+0.5)/n;
    between them the empirical CDF is linearly interpolated, outside
    them it is clipped to the extreme quantiles, and probabilities are
    clipped to [1e-7, 1-1e-7] before the normal inverse CDF.
    """

    def __init__(self, knots_x: np.ndarray, knots_p: np.ndarray, degenerate: bool):
        self.knots_x = knots_x
        self.knots_p = knots_p
        self.degenerate = degenerate

    @classmethod
    def fit(cls, values: np.ndarray, rng: np.random.Generator) -> "QuantileTransform":
        v = np.asarray(values, dtype=np.float64)
        if v.size < 1:
            raise DataError("cannot fit a quantile transform on an empty column")
        if np.unique(v).size < 2:
            warnings.warn("constant column mapped to zeros by quantile transform")
            return cls(np.array([]), np.array([]), degenerate=True)
        v = v + rng.normal(0.0, QUANTILE_JITTER * v.std(), size=v.shape)
        xs = np.sort(v)
        ps = (np.arange(xs.size) + 0.5) / xs.size
        return cls(xs, ps, degenerate=False)

    def apply(self, values: np.ndarray) -> np.ndarray:
        v = np.asarray(values, dtype=np.float64)
        if self.degenerate:
            return np.zeros_like(v)
        p = np.interp(v, self.knots_x, self.knots_p)
        return ndtri(np.clip(p, PROB_CLIP, 1.0 - PROB_CLIP))


@dataclass
class DatasetBundle:
    """Schema + raw rows + fitted preprocessing + split indices."""
    schema: Schema
    x_num: np.ndarray              # [rows, n_numeric] raw values
    x_cat: np.ndarray              # [rows, n_categorical] vocabulary indices
    y: np.ndarray                  # [rows] raw target
    splits: dict[str, np.ndarray] | None = None
    transforms: list[QuantileTransform] | None = None
    target_mean: float | None = None
    target_std: float | None = None
    true_mixture: np.ndarray | None = None   # synthetic provenance

    @property
    def n_rows(self) -> int:
        return self.y.shape[0]

    def split_rows(self, name: str) -> np.ndarray:
        """The row indices of split ``name`` of a bundle from ``prepare``."""
        if self.splits is None or self.transforms is None:
            raise UsageError(f"bundle {self.schema.name!r} is not prepared: "
                             f"split and fit it with data.prepare first")
        if name not in self.splits:
            raise UsageError(f"unknown split {name!r}")
        return self.splits[name]


def prepare(bundle: DatasetBundle, split_seed: int,
            setting: str = "T-full") -> DatasetBundle:
    """A copy of ``bundle`` split, capped to ``setting`` and fitted on its train rows.

    80:20 into pool and test, then 20% of the pool becomes validation; the
    setting's caps subsample train and valid, never test.  Quantile maps and,
    for regression, the target mean and std see only the capped train rows.
    The permutation and the caps each draw from a fresh ``default_rng(split_seed)``,
    so the caps replay the permutation's stream; the jitter has a stream of its own.
    """
    n = bundle.n_rows
    if n < 6:     # the fewest rows whose splits all keep a row
        raise DataError(f"need at least 6 rows to split, got {n}")
    if setting not in SETTINGS:
        raise UsageError(f"unknown setting {setting!r}; choose from {sorted(SETTINGS)}")
    perm = np.random.default_rng(split_seed).permutation(n)
    n_test = int(np.floor(0.2 * n))
    n_valid = int(np.floor(0.2 * (n - n_test)))
    splits = {"test": np.sort(perm[:n_test]),
              "valid": np.sort(perm[n_test:n_test + n_valid]),
              "train": np.sort(perm[n_test + n_valid:])}
    caps_rng = np.random.default_rng(split_seed)
    for key, cap in zip(("train", "valid"), SETTINGS[setting]):
        if cap is not None and splits[key].size > cap:
            splits[key] = np.sort(caps_rng.choice(splits[key], size=cap, replace=False))

    train = splits["train"]
    jitter_rng = np.random.default_rng(np.random.SeedSequence([split_seed, 0x9a111]))
    transforms = [QuantileTransform.fit(bundle.x_num[train, j], jitter_rng)
                  for j in range(bundle.x_num.shape[1])]
    target_mean = target_std = None
    if bundle.schema.task == "regression":
        train_y = bundle.y[train]
        target_std = float(train_y.std())
        if target_std == 0.0:
            raise DataError("regression target is constant on the training split")
        target_mean = float(train_y.mean())
    return replace(bundle, splits=splits, transforms=transforms,
                   target_mean=target_mean, target_std=target_std)


def matrices(bundle: DatasetBundle, split_name: str):
    """Model-ready (x_num, x_cat, y) for one split, transforms applied."""
    idx = bundle.split_rows(split_name)
    x_num = np.column_stack([t.apply(bundle.x_num[idx, j])
                             for j, t in enumerate(bundle.transforms)]) \
        if bundle.transforms else np.empty((idx.size, 0))
    y = bundle.y[idx].astype(np.float64)
    if bundle.target_std is not None:
        y = (y - bundle.target_mean) / bundle.target_std
    return x_num, bundle.x_cat[idx], y


def de_standardize_mse(bundle: DatasetBundle, standardized_mse: float) -> float:
    if bundle.target_std is None:
        return standardized_mse
    return standardized_mse * bundle.target_std ** 2


# -- CSV + manifest ----------------------------------------------------------


def load_manifest(path) -> Schema:
    return read_json(path, DataError, "manifest", Schema.from_dict)


def _finite(text: str, csv_path, r: int, column: str) -> float:
    """``text`` from data row ``r`` as a finite float; errors name file, row and column."""
    try:
        value = float(text)
    except ValueError:
        value = math.nan      # reported below, as nan and inf are
    if not math.isfinite(value):
        raise DataError(f"{csv_path}: row {r + 2}, column {column!r}: "
                        f"{text!r} is not a finite number")
    return value


def load_csv(csv_path, manifest_path) -> DatasetBundle:
    """Parse a CSV against its manifest into an unfitted bundle."""
    schema = load_manifest(manifest_path)
    try:
        text = read_file(csv_path, DataError, "CSV").decode("utf-8")
    except UnicodeDecodeError as exc:
        raise DataError(f"{csv_path}: not valid UTF-8: {exc}") from None
    rows = list(csv.reader(io.StringIO(text, newline="")))
    if not rows:
        raise DataError(f"{csv_path}: file is empty")
    header, rows = rows[0], rows[1:]
    expected = [c.name for c in schema.columns]
    if header != expected:
        bad = next((h for h, e in zip(header, expected) if h != e),
                   header[len(expected):] or expected[len(header):])
        raise DataError(f"{csv_path}: header does not match manifest near {bad!r}")
    if not rows:
        raise DataError(f"{csv_path}: no data rows")

    n = len(rows)
    num_cols = [i for i, c in enumerate(schema.columns) if c.kind == "numeric"]
    cat_cols = [i for i, c in enumerate(schema.columns) if c.kind == "categorical"]
    tgt_col = next(i for i, c in enumerate(schema.columns) if c.kind == "target")
    vocab_maps = {i: {v: k for k, v in enumerate(schema.columns[i].vocabulary)}
                  for i in cat_cols}

    x_num = np.empty((n, len(num_cols)))
    x_cat = np.empty((n, len(cat_cols)), dtype=np.int64)
    y = np.empty(n)
    unknown = 0
    for r, row in enumerate(rows):
        if len(row) != len(schema.columns):
            raise DataError(f"{csv_path}: row {r + 2} has {len(row)} fields, "
                            f"expected {len(schema.columns)}")
        for j, i in enumerate(num_cols):
            x_num[r, j] = _finite(row[i], csv_path, r, schema.columns[i].name)
        for j, i in enumerate(cat_cols):
            mapping = vocab_maps[i]
            idx = mapping.get(row[i])
            if idx is None:
                idx = len(mapping)  # unknown bucket
                unknown += 1
            x_cat[r, j] = idx
        raw = row[tgt_col]
        y[r] = _finite(raw, csv_path, r, schema.columns[tgt_col].name)
        if schema.task == "binary" and y[r] not in (0.0, 1.0):
            raise DataError(f"{csv_path}: row {r + 2}: binary target must be 0 or 1, "
                            f"got {raw!r}")
    if unknown:
        warnings.warn(f"{schema.name}: {unknown} categorical values outside the "
                      f"vocabulary mapped to the unknown bucket")
    return DatasetBundle(schema, x_num, x_cat, y)


def save_csv(bundle: DatasetBundle, csv_path, manifest_path) -> None:
    """Write raw rows + manifest; floats use repr so values round-trip exactly."""
    schema = bundle.schema
    write_file(manifest_path, json_text(schema.to_dict()))
    buf = io.StringIO(newline="")
    writer = csv.writer(buf)
    writer.writerow([c.name for c in schema.columns])
    i_num = {c.name: k for k, c in enumerate(schema.columns) if c.kind == "numeric"}
    i_cat = {c.name: k for k, c in
             enumerate([c for c in schema.columns if c.kind == "categorical"])}
    for r in range(bundle.n_rows):
        row = []
        for c in schema.columns:
            if c.kind == "numeric":
                row.append(repr(float(bundle.x_num[r, i_num[c.name]])))
            elif c.kind == "categorical":
                idx = bundle.x_cat[r, i_cat[c.name]]
                row.append(c.vocabulary[idx] if idx < len(c.vocabulary) else "<unknown>")
            else:
                val = bundle.y[r]
                row.append(repr(float(val)) if schema.task == "regression"
                           else str(int(val)))
        writer.writerow(row)
    write_file(csv_path, buf.getvalue())


# -- synthetic suite ----------------------------------------------------------

CURVATURE = 3.0       # least gain of the tanh units: their steepness
MIXTURE_ALPHA = 0.3   # Dirichlet concentration of the mixtures; small = sparse


@dataclass(frozen=True)
class SynthSuiteSpec:
    seed: int = 0
    n_basis_functions: int = 6   # shared nonlinearities, at least 2
    n_pretrain: int = 16         # pretraining datasets, at least 2
    rows_per_dataset: int = 2000
    n_features: int = 8
    noise_std: float = 0.1
    n_heldout: int = 10
    heldout_rows: int = 2000
    hidden: int = 16

    def __post_init__(self):
        check_int("seed", self.seed, 0)
        for name in ("n_basis_functions", "n_pretrain"):
            check_int(name, getattr(self, name), 2)
        for name in ("rows_per_dataset", "n_features", "n_heldout", "heldout_rows", "hidden"):
            check_int(name, getattr(self, name), 1)
        check_real("noise_std", self.noise_std)


class BasisFunction:
    """A frozen two-layer tanh network R^k -> R, standardized on a probe sample.

    All hidden units share one input direction (a ridge function), so the
    function is a multi-wiggle waveform along that direction: easy to
    learn when the direction is known (or shared across many datasets),
    nearly impossible to recover from a handful of rows.
    """

    def __init__(self, rng: np.random.Generator, n_features: int, hidden: int,
                 probe: np.ndarray):
        direction = rng.standard_normal(n_features)
        direction /= np.linalg.norm(direction)
        gains = rng.uniform(CURVATURE, CURVATURE + 4.0, hidden) \
            * rng.choice([-1.0, 1.0], hidden)
        self.w1 = np.outer(direction, gains)
        self.b1 = rng.uniform(-2.5, 2.5, hidden)
        self.w2 = rng.standard_normal(hidden) * (1.0 / np.sqrt(hidden))
        raw = self._raw(probe)
        self.shift = float(raw.mean())
        self.scale = float(raw.std()) or 1.0

    def _raw(self, x: np.ndarray) -> np.ndarray:
        return np.tanh(x @ self.w1 + self.b1) @ self.w2

    def __call__(self, x: np.ndarray) -> np.ndarray:
        return (self._raw(x) - self.shift) / self.scale


@dataclass
class SynthSuite:
    spec: SynthSuiteSpec
    basis: list[BasisFunction]
    pretrain: list[DatasetBundle]
    heldout: list[DatasetBundle]

    def oracle_predictions(self, bundle: DatasetBundle, x_raw: np.ndarray) -> np.ndarray:
        """Ground-truth mixture prediction on raw numeric rows ``x_raw`` of a
        bundle generated by this suite."""
        if bundle.true_mixture is None:
            raise UsageError(f"bundle {bundle.schema.name!r} has no recorded mixture")
        out = np.zeros(x_raw.shape[0])
        for w, g in zip(bundle.true_mixture, self.basis):
            out += w * g(x_raw)
        return out

    def oracle_mse(self, bundle: DatasetBundle) -> float:
        """The ground-truth mixture's raw-unit MSE on the test split."""
        idx = bundle.split_rows("test")
        pred = self.oracle_predictions(bundle, bundle.x_num[idx])
        return float(np.mean((pred - bundle.y[idx]) ** 2))


def _synth_bundle(name: str, suite_spec: SynthSuiteSpec, basis: list[BasisFunction],
                  rows: int, rng: np.random.Generator) -> DatasetBundle:
    k = suite_spec.n_features
    x = rng.standard_normal((rows, k))
    w = rng.dirichlet(np.full(suite_spec.n_basis_functions, MIXTURE_ALPHA))
    y = np.zeros(rows)
    for wp, g in zip(w, basis):
        y += wp * g(x)
    y += suite_spec.noise_std * rng.standard_normal(rows)
    cols = [Column(f"x{j}", "numeric") for j in range(k)] + [Column("y", "target")]
    schema = Schema(name, "regression", cols)
    return DatasetBundle(schema, x, np.empty((rows, 0), dtype=np.int64), y,
                         true_mixture=w)


def _basis_functions(spec: SynthSuiteSpec) -> list[BasisFunction]:
    """The shared basis, from the suite seed's first two children (as generated)."""
    probe_key, basis_key = np.random.SeedSequence(spec.seed).spawn(2)
    probe = np.random.default_rng(probe_key).standard_normal((4096, spec.n_features))
    basis_rng = np.random.default_rng(basis_key)
    return [BasisFunction(basis_rng, spec.n_features, spec.hidden, probe)
            for _ in range(spec.n_basis_functions)]


def _synth_name(kind: str, i: int, count: int) -> str:
    """Name ``i`` of ``count``, zero-padded to the widest index (2 digits at least),
    so that the names sort in generation order."""
    width = max(2, len(str(count - 1)))
    return f"synth_{kind}_{i:0{width}d}"


def generate_synth_suite(spec: SynthSuiteSpec) -> SynthSuite:
    """Deterministically build pretraining and held-out bundles from the spec."""
    basis = _basis_functions(spec)
    keys = np.random.SeedSequence(spec.seed).spawn(2 + spec.n_pretrain + spec.n_heldout)
    pretrain = [
        _synth_bundle(_synth_name("pre", i, spec.n_pretrain), spec, basis,
                      spec.rows_per_dataset, np.random.default_rng(keys[2 + i]))
        for i in range(spec.n_pretrain)]
    heldout = [
        _synth_bundle(_synth_name("task", i, spec.n_heldout), spec, basis,
                      spec.heldout_rows, np.random.default_rng(keys[2 + spec.n_pretrain + i]))
        for i in range(spec.n_heldout)]
    return SynthSuite(spec, basis, pretrain, heldout)


def export_suite(suite: SynthSuite, out_dir) -> None:
    """Write every bundle as CSV + manifest, plus a suite.json with provenance.

    suite.json lists the tables of each part in generation order; ``load_suite``
    reads exactly those.
    """
    out = Path(out_dir)
    meta = {"spec": asdict(suite.spec), "mixtures": {}, "tables": {}}
    for sub, bundles in (("pretrain", suite.pretrain), ("heldout", suite.heldout)):
        meta["tables"][sub] = [b.schema.name for b in bundles]
        for b in bundles:
            save_csv(b, out / sub / f"{b.schema.name}.csv",
                     out / sub / f"{b.schema.name}.manifest.json")
            meta["mixtures"][b.schema.name] = [repr(float(v)) for v in b.true_mixture]
    write_file(out / "suite.json", json_text(meta))


def load_suite(suite_dir) -> SynthSuite:
    """Re-read the tables an exported suite.json lists, in its order.

    Other files in the suite directory are ignored.  Basis functions are
    rebuilt from the spec seed.
    """
    root = Path(suite_dir)

    def parse(meta):
        spec = SynthSuiteSpec(**meta["spec"])
        mixtures = {name: np.array([float(v) for v in mix])
                    for name, mix in dict(meta["mixtures"]).items()}
        if "tables" not in meta:
            raise ValueError("no 'tables' list; export the suite again")
        tables = {sub: meta["tables"][sub] for sub in ("pretrain", "heldout")}
        if not all(isinstance(names, list) and all(isinstance(n, str) for n in names)
                   for names in tables.values()):
            raise TypeError("'tables' must list the names of each part")
        for name in tables["pretrain"] + tables["heldout"]:
            mix = mixtures.get(name)
            if (mix is None or mix.shape != (spec.n_basis_functions,)
                    or not np.isfinite(mix).all()):
                raise ValueError(f"table {name!r} needs a mixture of "
                                 f"{spec.n_basis_functions} finite weights")
        return spec, mixtures, tables

    spec, mixtures, tables = read_json(root / "suite.json", DataError,
                                       "suite description", parse)

    def read(sub):
        out = []
        for name in tables[sub]:
            b = load_csv(root / sub / f"{name}.csv", root / sub / f"{name}.manifest.json")
            b.true_mixture = mixtures.get(b.schema.name)
            out.append(b)
        return out

    return SynthSuite(spec, _basis_functions(spec), read("pretrain"), read("heldout"))

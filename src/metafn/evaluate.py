"""Scoring, cross-method comparison, coefficient export, report assembly.

Scores are accuracy (binary, higher better, logit threshold 0) or mean
squared error on standardized targets (regression, lower better, also
reported de-standardized).  Reports follow the usual conventions for
cross-method tables: per-task performance ranks with average-tied ranks,
pairwise win/tie/loss counts with ties decided after rounding to three
decimals, and regression cells displayed negated so that higher is
always better.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np
from scipy.stats import rankdata

from . import data as D
from .errors import DataError, UsageError
from .model import ModelAssembly, ModelConfig
from .tensor import no_grad

TIE_DECIMALS = 3
# Rows per no-grad forward pass, at most.  At 256 rows each block's
# temporaries stay at about 2 MB or less (the packed Q/K/V projection of a
# 9-token table at d=32), so the allocator reuses them from the heap on the
# next block instead of unmapping them and faulting them in again; blocks of
# 384 to 4096 rows fault far more.
PREDICT_BATCH = 256
SCORE_BYTES = 64 * 2 ** 20    # bytes of one [rows, heads, T, T] score array, at most


def predict_rows(config: ModelConfig, n_tokens: int) -> int:
    """Rows per no-grad forward pass on a table of ``n_tokens`` tokens.

    ``PREDICT_BATCH``, or fewer on a wide table, so that one float64
    attention-score array stays within ``SCORE_BYTES``.  Where 8 rows fit,
    the count is a multiple of 8: BLAS rounds the rows of a ragged last tile
    differently, so only then do the outputs not depend on where the blocks
    split.
    """
    row_bytes = 8 * config.n_heads * n_tokens * n_tokens
    return max(1, min(PREDICT_BATCH, SCORE_BYTES // row_bytes) // 8 * 8)


def predictions(assembly: ModelAssembly, bundle: D.DatasetBundle, split_name: str,
                matrices: tuple[np.ndarray, np.ndarray, np.ndarray]) -> np.ndarray:
    """Raw model outputs for one split (logits or standardized values).

    ``matrices`` is the split's ``data.matrices`` result.
    """
    x_num, x_cat, _ = matrices
    n = x_num.shape[0]
    if n == 0:
        raise UsageError(f"split {split_name!r} of {bundle.schema.name!r} is empty")
    out = np.empty(n)
    rows = predict_rows(assembly.config, bundle.schema.signature().n_tokens)
    with no_grad():
        for lo in range(0, n, rows):
            hi = min(lo + rows, n)
            out[lo:hi] = assembly.forward(bundle.schema.name,
                                          x_num[lo:hi], x_cat[lo:hi]).data[:, 0]
    return out


@dataclass
class Score:
    value: float
    metric: str
    higher_better: bool
    extras: dict = field(default_factory=dict)


def score(assembly: ModelAssembly, bundle: D.DatasetBundle, split_name: str,
          matrices: tuple[np.ndarray, np.ndarray, np.ndarray] | None = None) -> Score:
    """Accuracy for binary tasks, standardized MSE for regression.

    ``matrices`` is the split's ``data.matrices`` result when the caller
    already holds it; otherwise the split is transformed here.
    """
    if split_name not in ("valid", "test"):
        raise UsageError("score evaluates the 'valid' or 'test' split")
    mats = matrices if matrices is not None else D.matrices(bundle, split_name)
    pred = predictions(assembly, bundle, split_name, matrices=mats)
    y = mats[2]
    if bundle.schema.task == "binary":
        acc = float(np.mean((pred > 0.0) == (y == 1.0)))
        return Score(acc, "accuracy", True)
    mse = float(np.mean((pred - y) ** 2))
    return Score(mse, "mse", False,
                 extras={"mse_destandardized": D.de_standardize_mse(bundle, mse)})


# -- score tables --------------------------------------------------------------


@dataclass
class ScoreTable:
    """Tasks x methods score matrix with a per-row orientation."""
    methods: list[str]
    tasks: list[str] = field(default_factory=list)
    metric_names: list[str] = field(default_factory=list)
    higher_better: list[bool] = field(default_factory=list)
    values: list[list[float]] = field(default_factory=list)

    def add_row(self, task: str, metric: str, higher_better: bool,
                scores: dict[str, float]) -> None:
        missing = [m for m in self.methods if m not in scores]
        if missing:
            raise DataError(f"task {task!r} is missing scores for {missing}")
        self.tasks.append(task)
        self.metric_names.append(metric)
        self.higher_better.append(higher_better)
        self.values.append([float(scores[m]) for m in self.methods])

    @property
    def array(self) -> np.ndarray:
        return np.asarray(self.values, dtype=np.float64)

    def column(self, method: str) -> np.ndarray:
        return self.array[:, self.methods.index(method)]

    def to_dict(self) -> dict:
        return {"methods": self.methods, "tasks": self.tasks,
                "metrics": self.metric_names,
                "higher_better": self.higher_better, "values": self.values}

    @classmethod
    def from_dict(cls, d: dict) -> "ScoreTable":
        t = cls(list(d["methods"]))
        for task, metric, hb, row in zip(d["tasks"], d["metrics"],
                                         d["higher_better"], d["values"]):
            t.add_row(task, metric, hb, dict(zip(d["methods"], row)))
        return t


@dataclass
class RankResult:
    methods: list[str]
    ranks: np.ndarray             # [tasks, methods], 1 = best, ties averaged
    mean: dict[str, float]
    std: dict[str, float]


def rank_methods(table: ScoreTable) -> RankResult:
    """Per-task method ranks (1 = best, average ties) with mean and std."""
    if len(table.methods) < 2:
        raise UsageError("ranking needs at least two methods")
    if not table.tasks:
        raise UsageError("ranking needs at least one task row")
    rows = []
    for hb, row in zip(table.higher_better, table.values):
        vals = np.asarray(row)
        rows.append(rankdata(-vals if hb else vals, method="average"))
    ranks = np.vstack(rows)
    mean = {m: float(ranks[:, j].mean()) for j, m in enumerate(table.methods)}
    std = {m: float(ranks[:, j].std()) for j, m in enumerate(table.methods)}
    return RankResult(list(table.methods), ranks, mean, std)


def win_tie_loss(table: ScoreTable, method_a: str, method_b: str) -> tuple[int, int, int]:
    """Pairwise comparison; scores equal after rounding to ``TIE_DECIMALS`` count as ties."""
    a = np.round(table.column(method_a), TIE_DECIMALS)
    b = np.round(table.column(method_b), TIE_DECIMALS)
    wins = ties = losses = 0
    for hb, x, y in zip(table.higher_better, a, b):
        if x == y:
            ties += 1
        elif (x > y) == hb:
            wins += 1
        else:
            losses += 1
    return wins, ties, losses


# -- coefficient export ---------------------------------------------------------


def export_coefficients(assembly: ModelAssembly, dataset_names: list[str], path) -> dict:
    """Dump per-(dataset, token, layer) mixture coefficients as JSON."""
    records = []
    with no_grad():
        for name in dataset_names:
            layers = assembly.coefficients(name)      # raises for an unattached name
            context = assembly.datasets[name].context
            for layer_idx, coeffs in enumerate(c.data for c in layers):
                if np.any(coeffs <= 0) or np.max(np.abs(coeffs.sum(axis=1) - 1)) > 1e-9:
                    raise DataError("coefficient rows left the simplex")
                for token in range(coeffs.shape[0]):
                    records.append({
                        "dataset": name,
                        "token": token,
                        "layer": layer_idx,
                        "context": float(context.data[token]) if context is not None else None,
                        "coefficients": [float(c) for c in coeffs[token]],
                    })
    doc = {"phase": "pretrained", "records": records}
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=2, sort_keys=True)
        fh.write("\n")
    return doc


# -- report ----------------------------------------------------------------------


def _display_value(metric: str, value: float) -> float:
    # regression MSE cells carry a minus sign so higher is better everywhere
    return -value if metric == "mse" else value


def _table_section(table: ScoreTable) -> dict:
    rank = rank_methods(table)
    wtl = {}
    for i, a in enumerate(table.methods):
        for b in table.methods[i + 1:]:
            wtl[f"{a} vs {b}"] = list(win_tie_loss(table, a, b))
    return {
        "raw_scores": [
            {"task": t, "metric": m,
             "scores": {meth: _display_value(m, v)
                        for meth, v in zip(table.methods, row)}}
            for t, m, row in zip(table.tasks, table.metric_names, table.values)],
        "rank": {m: {"mean": rank.mean[m], "std": rank.std[m]}
                 for m in table.methods},
        "win_tie_loss": wtl,
    }


def _render_text(report: dict) -> str:
    lines = ["method comparison report", "=" * 40]
    for section, body in report.items():
        lines.append(f"\n[{section}]")
        rank = body.get("rank", {})
        if rank:
            lines.append(f"  {'method':24s} mean rank")
            for m in sorted(rank, key=lambda m: rank[m]["mean"]):
                lines.append(f"  {m:24s} {rank[m]['mean']:.2f} +/- {rank[m]['std']:.2f}")
        for pair, (w, t, l) in body.get("win_tie_loss", {}).items():
            lines.append(f"  {pair}: win {w} / tie {t} / loss {l}")
    return "\n".join(lines) + "\n"


def build_report(tables: dict[str, ScoreTable], out_prefix) -> dict:
    """Write one section per named table to <prefix>.json / <prefix>.txt.

    Sections appear in the text in the order of ``tables``; the main
    comparison is conventionally named "main".  Regenerating from identical
    inputs produces byte-identical files.
    """
    report = {name: _table_section(table) for name, table in tables.items()}
    prefix = Path(out_prefix)
    prefix.parent.mkdir(parents=True, exist_ok=True)
    with open(prefix.with_suffix(".json"), "w", encoding="utf-8") as fh:
        json.dump(report, fh, indent=2, sort_keys=True)
        fh.write("\n")
    with open(prefix.with_suffix(".txt"), "w", encoding="utf-8") as fh:
        fh.write(_render_text(report))
    return report

"""Scoring, cross-method comparison, coefficient export, report assembly.

Scores are accuracy (binary, logit threshold 0) or mean squared error on
standardized targets (regression).  A score's metric name alone fixes its
direction, through ``HIGHER_BETTER``; every comparison and every report
cell goes through ``oriented``, which signs a value so that higher is
better.  Reports follow the usual conventions for cross-method tables:
per-task performance ranks with average-tied ranks, pairwise
win/tie/loss counts with ties decided after rounding to three decimals,
and regression cells displayed negated.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from . import data as D
from .errors import DataError, UsageError, json_text, write_file
from .model import ModelAssembly, ModelConfig
from .tensor import no_grad

TIE_DECIMALS = 3
HIGHER_BETTER = {"accuracy": True, "mse": False}
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


def oriented(metric: str, value):
    """``value`` (a float or an array) signed so that higher is better."""
    return value if HIGHER_BETTER[metric] else -value


@dataclass
class Score:
    value: float
    metric: str


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
        return Score(acc, "accuracy")
    return Score(float(np.mean((pred - y) ** 2)), "mse")


# -- score tables --------------------------------------------------------------


@dataclass
class ScoreTable:
    """Tasks x methods score matrix; each row's metric fixes its direction."""
    methods: list[str]
    tasks: list[str] = field(default_factory=list)
    metric_names: list[str] = field(default_factory=list)
    values: list[list[float]] = field(default_factory=list)

    def __post_init__(self):
        if (not isinstance(self.methods, list)
                or not all(isinstance(m, str) for m in self.methods)
                or len(set(self.methods)) < len(self.methods)):
            raise DataError(f"methods must list distinct strings, not {self.methods!r}")

    def add_row(self, task: str, metric: str, scores: dict[str, float]) -> None:
        if task in self.tasks:
            raise DataError(f"task {task!r} is scored twice")
        if metric not in HIGHER_BETTER:
            raise DataError(f"task {task!r} has unknown metric {metric!r}")
        missing = [m for m in self.methods if m not in scores]
        if missing:
            raise DataError(f"task {task!r} is missing scores for {missing}")
        row = [float(scores[m]) for m in self.methods]
        for m, v in zip(self.methods, row):
            if not math.isfinite(v):
                raise DataError(f"task {task!r}, method {m!r}: score {v} is not finite")
        self.tasks.append(task)
        self.metric_names.append(metric)
        self.values.append(row)

    def oriented(self) -> np.ndarray:
        """[tasks, methods] values, each row signed so that higher is better."""
        return np.array([oriented(m, np.asarray(row, dtype=np.float64))
                         for m, row in zip(self.metric_names, self.values)])

    def to_dict(self) -> dict:
        return {"methods": self.methods, "tasks": self.tasks,
                "metrics": self.metric_names, "values": self.values}

    @classmethod
    def from_dict(cls, d: dict) -> "ScoreTable":
        t = cls(d["methods"])
        lists = d["tasks"], d["metrics"], d["values"]
        if len({len(x) for x in lists}) != 1:
            raise DataError("tasks, metrics and values differ in length: "
                            + ", ".join(str(len(x)) for x in lists))
        for task, metric, row in zip(*lists):
            if len(row) != len(t.methods):
                raise DataError(f"task {task!r} has {len(row)} scores "
                                f"for {len(t.methods)} methods")
            t.add_row(task, metric, dict(zip(t.methods, row)))
        return t


@dataclass
class RankResult:
    methods: list[str]
    ranks: np.ndarray             # [tasks, methods], 1 = best, ties averaged
    mean: dict[str, float]
    std: dict[str, float]


def average_ranks(values: np.ndarray) -> np.ndarray:
    """1-based ranks of a 1-D array, smallest first, tied values sharing their mean rank.

    Equal values sit next to each other after a stable sort; a group at
    0-based positions ``start`` to ``end - 1`` gets ``(start + 1 + end) / 2``,
    a whole or half number, so the ranks are exact.
    """
    order = np.argsort(values, kind="stable")
    ordered = values[order]
    starts = np.flatnonzero(np.r_[True, ordered[1:] != ordered[:-1]])
    ends = np.r_[starts[1:], len(values)]
    ranks = np.empty(len(values))
    ranks[order] = np.repeat((starts + 1 + ends) / 2, ends - starts)
    return ranks


def rank_methods(table: ScoreTable) -> RankResult:
    """Per-task method ranks (1 = best, average ties) with mean and std."""
    if len(table.methods) < 2:
        raise UsageError("ranking needs at least two methods")
    if not table.tasks:
        raise UsageError("ranking needs at least one task row")
    ranks = np.vstack([average_ranks(-row) for row in table.oriented()])
    mean = {m: float(ranks[:, j].mean()) for j, m in enumerate(table.methods)}
    std = {m: float(ranks[:, j].std()) for j, m in enumerate(table.methods)}
    return RankResult(list(table.methods), ranks, mean, std)


def win_tie_loss(table: ScoreTable, method_a: str, method_b: str) -> tuple[int, int, int]:
    """Pairwise comparison; scores equal after rounding to ``TIE_DECIMALS`` count as ties."""
    values = np.round(table.oriented(), TIE_DECIMALS)
    a = values[:, table.methods.index(method_a)]
    b = values[:, table.methods.index(method_b)]
    wins, ties = int(np.sum(a > b)), int(np.sum(a == b))
    return wins, ties, len(a) - wins - ties


# -- coefficient export ---------------------------------------------------------


def export_coefficients(assembly: ModelAssembly, dataset_names: list[str], path) -> dict:
    """Dump per-(dataset, token, layer) mixture coefficients as JSON."""
    records = []
    with no_grad():
        for name in dataset_names:
            layers = assembly.coefficients(name)      # raises for an unattached name
            context = assembly.datasets[name].context
            for layer_idx, coeffs in enumerate(c.data for c in layers):
                # written so that a NaN fails it: every comparison with NaN is False
                if not (np.all(coeffs > 0) and np.max(np.abs(coeffs.sum(axis=1) - 1)) <= 1e-9):
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
    write_file(path, json_text(doc))
    return doc


# -- report ----------------------------------------------------------------------


def _table_section(table: ScoreTable) -> dict:
    rank = rank_methods(table)
    wtl = {}
    for i, a in enumerate(table.methods):
        for b in table.methods[i + 1:]:
            wtl[f"{a} vs {b}"] = list(win_tie_loss(table, a, b))
    return {
        "raw_scores": [
            {"task": t, "metric": m,
             "scores": {meth: oriented(m, v)
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
    write_file(prefix.with_suffix(".json"), json_text(report))
    write_file(prefix.with_suffix(".txt"), _render_text(report))
    return report

#!/usr/bin/env python3
"""Cross-method comparison machinery on a hand-made score table.

Shows performance ranking with average-tied ranks, pairwise win/tie/loss
counts with the 3-decimal tie rule, and the assembled report files.  Each
row names its metric, and the metric fixes which way is better
(``evaluate.HIGHER_BETTER``).
"""

import tempfile
from pathlib import Path

from metafn import evaluate as E

table = E.ScoreTable(["mixture", "gbdt", "mlp"])
# accuracy rows: the metric says higher is better
table.add_row("churn|T-100", "accuracy",
              {"mixture": 0.847, "gbdt": 0.799, "mlp": 0.781})
table.add_row("fraud|T-100", "accuracy",
              {"mixture": 0.912, "gbdt": 0.912, "mlp": 0.875})
# regression rows: standardized MSE, which says lower is better; the report
# shows these cells negated, so higher is better in every row
table.add_row("housing|T-100", "mse",
              {"mixture": 0.085, "gbdt": 0.104, "mlp": 0.131})
table.add_row("demand|T-100", "mse",
              {"mixture": 0.232, "gbdt": 0.217, "mlp": 0.2321})

rank = E.rank_methods(table)
print("per-task ranks (1 = best, ties averaged):")
for task, row in zip(table.tasks, rank.ranks):
    print(f"  {task:16s} {row}")
print("\nmean rank per method:")
for m in table.methods:
    print(f"  {m:8s} {rank.mean[m]:.2f} +/- {rank.std[m]:.2f}")

print("\npairwise win/tie/loss (ties after rounding to 3 decimals):")
for a, b in (("mixture", "gbdt"), ("mixture", "mlp"), ("gbdt", "mlp")):
    w, t, l = E.win_tie_loss(table, a, b)
    print(f"  {a} vs {b}: {w}/{t}/{l}")

out = Path(tempfile.mkdtemp()) / "report"
E.build_report({"main": table}, out)
print(f"\nreport written to {out}.json and {out}.txt")
print("-" * 40)
print(out.with_suffix(".txt").read_text())

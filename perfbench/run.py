#!/usr/bin/env python3
"""Benchmark of metafn: three workloads, end-to-end metrics or a traced run.

    python3 perfbench/run.py --workload {pretrain,adapt,score} --seed N \\
        --seconds S --trace {0,1}

Run it from the repository root; it imports metafn from ``src/``.  The seed
makes every input.  Set-up runs several times and is timed on its own; then
units of work run back to back (a closed loop, one client) while another
unit is expected to end within ``--seconds``.  With ``--trace 1`` every unit
runs twice, untraced and then traced, and the two must give equal digests.

The last line of standard output is one JSON object with the keys correct,
attempted, failed and metrics; metric names and units come from
BENCHMARK.json (``end_to_end`` with --trace 0, ``per_layer`` with
--trace 1).  The lines before it print every figure by name and unit.  The
full record, with environment, per-unit times, digests and quality, goes to
``perfbench/out/<workload>-seed<N>-trace<T>.json``, and a traced run writes
its spans beside it.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import resource
import shutil
import statistics
import sys
import time
import traceback
from pathlib import Path

# Neither module imports numpy: metafn must be the first to import it, so that
# any thread setting the library makes before that still takes effect.
import envinfo
from tracing import Patcher, Tracer, install_tracing, layer_metrics

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
OUT = BENCH / "out"


def import_library() -> None:
    """Import metafn from this checkout's src/ and nowhere else."""
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    import metafn
    where = Path(metafn.__file__).resolve().parent
    if where != (src / "metafn").resolve():
        raise ImportError(f"metafn was imported from {where}, not from {src}")


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=("pretrain", "adapt", "score"))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return ap.parse_args(argv)


def run_unit(wl, state, k, tracer):
    """Time one unit, traced when ``tracer`` is given, then check its outputs."""
    patcher = Patcher()
    if tracer is not None:
        tracer.phase, tracer.unit = "unit", k
        install_tracing(tracer, patcher)
    try:
        t0 = time.perf_counter()
        out = wl.work(state, k)
        seconds = time.perf_counter() - t0
    finally:
        patcher.restore()
    return wl.check(state, k, out, seconds)


def attempt(wl, state, k, tracer):
    """``run_unit``, with an exception counted as every operation of the unit failing."""
    from workloads import UnitResult      # workloads imports metafn: only after import_library
    try:
        return run_unit(wl, state, k, tracer)
    except Exception:
        traceback.print_exc()
        n = wl.ops_per_unit(state)
        return UnitResult(key=-1, label="error", seconds=math.nan, rows=0,
                          attempted=n, failed=n, digest="",
                          problems=[traceback.format_exc(limit=2)])


def setup(wl, seed, workdir, tracer):
    times = []
    for i in range(wl.setup_repeats):
        patcher = Patcher()
        if tracer is not None:
            tracer.phase, tracer.unit = "setup", -1 - i
            install_tracing(tracer, patcher)
        state = None                    # drop the previous repeat's inputs first
        try:
            t0 = time.perf_counter()
            state = wl.setup(seed, workdir)
            times.append(time.perf_counter() - t0)
        finally:
            patcher.restore()
    return state, times


def measure(wl, state, seconds, tracer):
    """An untimed warm-up unit, then a closed loop of timed units.

    Units with equal keys do the same work and must give equal digests,
    traced or not.  Returns (warm-up, untraced units, traced units).
    """
    first: dict[int, str] = {}

    def checked(r):
        if r.key >= 0 and first.setdefault(r.key, r.digest) != r.digest:
            r.problems.append("digest differs from an earlier run of the same unit")
            r.failed = r.attempted
        return r

    warm = checked(attempt(wl, state, 0, None))
    plain, traced = [], []
    start = time.perf_counter()
    k = 0
    while True:
        plain.append(checked(attempt(wl, state, k, None)))
        if tracer is not None:
            traced.append(checked(attempt(wl, state, k, tracer)))
        k += 1
        elapsed = time.perf_counter() - start
        if elapsed + elapsed / k > seconds:
            return warm, plain, traced


def _median(values) -> float:
    values = [v for v in values if math.isfinite(v)]
    return statistics.median(values) if values else 0.0


def summarize_quality(units) -> dict:
    """Mean of each quality figure over the distinct units (first run of each key)."""
    firsts = {}
    for u in units:
        if u.key >= 0 and not u.failed:
            firsts.setdefault(u.key, u)
    if not firsts:
        return {}
    names = next(iter(firsts.values())).quality
    out = {q: statistics.fmean(u.quality[q] for u in firsts.values()) for q in names}
    out["distinct_units"] = len(firsts)
    if "transfer_win" in out:
        out["transfer_wins"] = sum(u.quality["transfer_win"] for u in firsts.values())
    return out


def main(argv=None) -> int:
    args = parse_args(argv)
    try:
        import_library()
        spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    except (ImportError, OSError, ValueError) as exc:
        print(f"perfbench: cannot start: {exc}", file=sys.stderr)
        return 2
    from workloads import WORKLOADS, FreezeCheck

    wl = WORKLOADS[args.workload]()
    tracer = Tracer() if args.trace else None
    workdir = OUT / f"work-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    checks = Patcher()
    try:
        state, setup_times = setup(wl, args.seed, workdir, tracer)
        state["freeze"] = freeze = FreezeCheck()
        freeze.install(checks)
        warm, plain, traced = measure(wl, state, args.seconds, tracer)
    finally:
        checks.restore()
        shutil.rmtree(workdir, ignore_errors=True)

    units = [warm] + plain + traced
    attempted = sum(u.attempted for u in units)
    failed = sum(u.failed for u in units)
    ok = [u for u in plain if not u.failed]
    values = {
        "setup_s": _median(setup_times),
        "wall_s": _median(u.seconds for u in ok),
        "rows_per_s": _median(u.rows / u.seconds for u in ok),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    if tracer is not None:
        traced_ok = [u for u in traced if not u.failed]
        values.update(layer_metrics(tracer.spans, len(traced), len(setup_times)))
        values["training.frozen_grad_tensors"] = max(freeze.frozen_grads, default=0)
        base = values["wall_s"]
        values["trace.overhead_pct"] = (
            100.0 * (_median(u.seconds for u in traced_ok) / base - 1.0) if base else 0.0)
    quality = summarize_quality(plain)
    aliases = {"error_rate": failed / attempted}
    if args.workload in ("pretrain", "adapt"):
        aliases["train_rows_per_s"] = values["rows_per_s"]
    if args.workload == "adapt":
        aliases["task_s_p50"] = values["wall_s"]
    if args.workload == "score":
        aliases["infer_rows_per_s"] = values["rows_per_s"]

    section = spec["per_layer" if args.trace else "end_to_end"]
    metrics = {m["name"]: {"value": float(values[m["name"]]), "unit": m["unit"]}
               for m in section}
    problems = [f"unit {i} ({u.label}): {p}" for i, u in enumerate(units) for p in u.problems]
    correct = failed == 0 and not problems
    digests = {}
    for u in plain:
        if u.key >= 0:
            digests.setdefault(u.label, u.digest)
    record = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "env": envinfo.capture(ROOT, args.workload, args.seed),
        "correct": correct, "attempted": attempted, "failed": failed,
        "problems": problems, "metrics": metrics, "aliases": aliases,
        "quality": quality, "digests": digests, "setup_times_s": setup_times,
        "units": [{"label": u.label, "traced": i > len(plain), "seconds": u.seconds,
                   "rows": u.rows, "failed": u.failed, "digest": u.digest}
                  for i, u in enumerate(units)],
    }
    stem = OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}"
    with open(stem.with_suffix(".json"), "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=1, sort_keys=True)
        fh.write("\n")
    if tracer is not None:
        tracer.to_json(f"{stem}-spans.json")

    for name, m in metrics.items():
        print(f"metric {name} = {m['value']:.6g} {m['unit']}")
    for name, v in {**aliases, **quality}.items():
        print(f"figure {name} = {v:.6g}")
    for label, d in digests.items():
        print(f"digest {label} {d}")
    for p in problems:
        print(f"problem {p}")
    print("env " + json.dumps(record["env"], sort_keys=True))
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())

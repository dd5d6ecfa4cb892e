#!/usr/bin/env python3
"""Compare two google-benchmark JSON files and fail on perf regressions.

Usage:
    compare_bench.py BASELINE CURRENT --bench NAME [--bench NAME ...]
                     [--max-ratio 1.25] [--counter pivots --counter-ratio 1.05]

For every --bench NAME (exact benchmark name, e.g. "BM_Lp1/1024"),
the current run's real_time must be at most --max-ratio times the baseline's
real_time. When --counter is given, the same check runs on that exported
counter with its own ratio — counters such as "pivots" are deterministic per
build, so a much tighter bound is appropriate there than on wall time.

Exit code 0 when every checked benchmark holds, 1 on any regression or any
requested benchmark missing from either file. The full comparison table is
printed either way, so CI logs show the trajectory even on green runs.

Counter-only entries (benches that export counters or percentile columns
but no real_time — both files agree) skip the missing metric instead of
failing: a metric absent from BOTH files is not a regression signal. A
metric present in one file but not the other still fails, since that means
the two runs measured different things.

    compare_bench.py BASELINE --list

prints the baseline's entry names (one per line) and exits — handy for
discovering exact --bench spellings.

This is the perf-smoke gate wired into .github/workflows/ci.yml: the
checked-in BENCH_perf_micro.json at the repo root is the baseline, the
Release job's fresh run is the candidate.
"""

import argparse
import json
import sys


def load_benchmarks(path):
    """name -> benchmark entry, aggregates (mean/median/stddev) excluded."""
    try:
        with open(path, "r", encoding="utf-8") as f:
            doc = json.load(f)
    except (OSError, ValueError) as e:
        sys.exit(f"error: cannot read {path}: {e}")
    out = {}
    for i, b in enumerate(doc.get("benchmarks", [])):
        if b.get("run_type") == "aggregate":
            continue
        name = b.get("name")
        if name is None:
            sys.exit(
                f"error: {path}: benchmarks[{i}] has no 'name' field — "
                "not google-benchmark output?"
            )
        out[name] = b
    if not out:
        sys.exit(f"error: no benchmarks in {path}")
    return out


def main():
    ap = argparse.ArgumentParser(
        description="Fail when benchmarks regress vs a baseline JSON."
    )
    ap.add_argument("baseline", help="baseline BENCH_*.json")
    ap.add_argument("current", nargs="?", help="candidate BENCH_*.json")
    ap.add_argument(
        "--bench",
        action="append",
        metavar="NAME",
        help="exact benchmark name to check (repeatable)",
    )
    ap.add_argument(
        "--list",
        action="store_true",
        help="print the baseline's benchmark entry names and exit",
    )
    ap.add_argument(
        "--max-ratio",
        type=float,
        default=1.25,
        help="max allowed current/baseline real_time ratio (default 1.25)",
    )
    ap.add_argument(
        "--counter",
        metavar="COUNTER",
        help="also check this exported counter (e.g. pivots)",
    )
    ap.add_argument(
        "--counter-ratio",
        type=float,
        default=1.05,
        help="max allowed current/baseline ratio for --counter (default 1.05)",
    )
    args = ap.parse_args()

    base = load_benchmarks(args.baseline)
    if args.list:
        for name in base:
            print(name)
        return 0
    if args.current is None or not args.bench:
        ap.error("CURRENT and at least one --bench are required "
                 "(or use --list)")
    curr = load_benchmarks(args.current)

    failed = False
    rows = []
    for name in args.bench:
        checks = [("real_time", args.max_ratio)]
        if args.counter:
            checks.append((args.counter, args.counter_ratio))
        for metric, max_ratio in checks:
            b = base.get(name)
            c = curr.get(name)
            if b is None or c is None:
                rows.append((name, metric, "-", "-", "-", "MISSING"))
                failed = True
                continue
            bv = b.get(metric)
            cv = c.get(metric)
            if bv is None and cv is None:
                # Counter-only entry (e.g. a percentile/histogram bench with
                # no real_time) in both files: nothing to compare, not a
                # regression.
                rows.append((name, metric, "-", "-", "-", "skipped"))
                continue
            if bv is None or cv is None:
                rows.append((name, metric, "-", "-", "-", "NO-METRIC"))
                failed = True
                continue
            if bv <= 0:
                # A zero baseline (e.g. a counter that was 0) cannot form a
                # ratio; only flag if the candidate became nonzero.
                ok = cv <= 0
                ratio_s = "inf" if not ok else "-"
            else:
                ratio = cv / bv
                ok = ratio <= max_ratio
                ratio_s = f"{ratio:.3f}"
            rows.append(
                (name, metric, f"{bv:.4g}", f"{cv:.4g}", ratio_s,
                 "ok" if ok else f"REGRESSED (> {max_ratio:g}x)")
            )
            failed = failed or not ok

    widths = [max(len(str(r[i])) for r in rows + [
        ("benchmark", "metric", "baseline", "current", "ratio", "verdict")
    ]) for i in range(6)]
    header = ("benchmark", "metric", "baseline", "current", "ratio", "verdict")
    for r in [header] + rows:
        print("  ".join(str(v).ljust(w) for v, w in zip(r, widths)).rstrip())

    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())

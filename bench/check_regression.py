#!/usr/bin/env python3
"""Allocation/CPU budget gate for bench artifacts (stdlib only).

Compares a freshly produced p2mon-bench-v1 artifact against a committed
baseline and fails (exit 1) when a budgeted metric regresses beyond the
allowed ratio. Used by CI's allocation-budget smoke step, which runs
bench_parallel_fleet in short mode and gates on the committed
BENCH_parallel_fleet_smoke.json (docs/SCALING.md "Memory model &
hot paths").

Budgeted metrics (lower is better): cpu_ms_per_s, alloc_mb_per_s.
Determinism columns (live_tuples, tx_msgs) must match the baseline
exactly — a drift there is an engine-behavior change, not noise.

Usage:
  check_regression.py BASELINE.json FRESH.json [--max-regress 1.25]
"""

import argparse
import json
import sys

BUDGET_METRICS = ("cpu_ms_per_s", "alloc_mb_per_s")
EXACT_METRICS = ("live_tuples", "tx_msgs")
# Below this absolute level a metric is noise-dominated on shared CI
# runners; ratios against it are meaningless, so tiny baselines are
# compared against an absolute floor instead.
ABS_FLOOR = {"cpu_ms_per_s": 50.0, "alloc_mb_per_s": 1.0}


def load_rows(path):
    with open(path) as f:
        doc = json.load(f)
    if doc.get("schema") != "p2mon-bench-v1":
        sys.exit(f"{path}: unexpected schema {doc.get('schema')!r}")
    return doc.get("bench", "?"), {
        (r.get("series"), r.get("x")): r for r in doc.get("rows", [])
    }


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("baseline")
    ap.add_argument("fresh")
    ap.add_argument(
        "--max-regress",
        type=float,
        default=1.25,
        help="fail when fresh/baseline exceeds this ratio (default 1.25)",
    )
    args = ap.parse_args()

    base_name, base = load_rows(args.baseline)
    fresh_name, fresh = load_rows(args.fresh)
    if base_name != fresh_name:
        sys.exit(f"bench mismatch: baseline={base_name} fresh={fresh_name}")

    failures = []
    for key, brow in sorted(base.items()):
        frow = fresh.get(key)
        label = f"{key[0]}={key[1]}"
        if frow is None:
            failures.append(f"{label}: row missing from fresh artifact")
            continue
        for m in EXACT_METRICS:
            if m in brow and frow.get(m) != brow[m]:
                failures.append(
                    f"{label}: {m} drifted {brow[m]} -> {frow.get(m)} "
                    f"(determinism contract, must match exactly)"
                )
        for m in BUDGET_METRICS:
            if m not in brow:
                continue
            bv, fv = float(brow[m]), float(frow.get(m, 0.0))
            # Allow the ratio OR the absolute floor, whichever is looser:
            # a 0.4ms baseline jumping to 0.7ms is runner noise, not a leak.
            limit = max(bv * args.max_regress, ABS_FLOOR.get(m, 0.0))
            status = "FAIL" if fv > limit else "ok"
            print(
                f"{label:14s} {m:15s} base={bv:10.3f} fresh={fv:10.3f} "
                f"limit={limit:10.3f}  {status}"
            )
            if fv > limit:
                failures.append(
                    f"{label}: {m} regressed {bv:.3f} -> {fv:.3f} "
                    f"(limit {limit:.3f})"
                )

    if failures:
        print(f"\n{len(failures)} budget violation(s):", file=sys.stderr)
        for f in failures:
            print(f"  {f}", file=sys.stderr)
        return 1
    print("\nall budgets hold")
    return 0


if __name__ == "__main__":
    sys.exit(main())

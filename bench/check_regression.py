#!/usr/bin/env python3
"""Kind-aware gate for bench artifacts (stdlib only).

Compares a fresh BENCH_<name>.json against a committed baseline, using only
what the baseline holds (format: bench/bench_artifact.h). Each baseline
metric is gated by its kind:

  exact   must equal the baseline (a determinism column);
  budget  must not exceed the baseline times the metric's stored tolerance;
  info    printed only.

A pair whose bench, schema, build type or parameters differ is refused: its
numbers are not comparable. So is a budget whose baseline is zero or less,
where a ratio would leave no room at all; a quantity that is rightly zero is
deterministic and is recorded as exact.

Exit status: 0 when every gate holds, 1 on a regression, 2 when refused.

Usage:
  check_regression.py BASELINE.json FRESH.json
"""

import json
import sys

SCHEMA = "p2mon-bench-v2"
COMPARABLE = ("bench", "schema", "build_type", "params")


def refuse(message):
    print(f"refused: {message}", file=sys.stderr)
    sys.exit(2)


def load(path):
    with open(path) as f:
        doc = json.load(f)
    if doc.get("schema") != SCHEMA:
        refuse(f"{path}: schema {doc.get('schema')!r}, expected {SCHEMA!r}")
    return doc


def show(value):
    return "null" if value is None else f"{value:.6g}"


def main(argv):
    if len(argv) != 3:
        print(__doc__, file=sys.stderr)
        return 2
    base, fresh = load(argv[1]), load(argv[2])
    for field in COMPARABLE:
        if base.get(field) != fresh.get(field):
            refuse(f"{field} differs: baseline {base.get(field)!r}, "
                   f"fresh {fresh.get(field)!r}")
    print(f"{base['bench']}: baseline {base.get('commit')}, "
          f"fresh {fresh.get('commit')} ({fresh['build_type']})")

    fresh_rows = {(r["series"], r["x"]): r["metrics"] for r in fresh["rows"]}
    failures = []
    for row in base["rows"]:
        label = f"{row['series']}={row['x']}"
        got = fresh_rows.get((row["series"], row["x"]))
        if got is None:
            failures.append(f"{label}: row missing from fresh artifact")
            continue
        for name, metric in row["metrics"].items():
            kind, bv = metric["kind"], metric["value"]
            if name not in got:
                failures.append(f"{label}: {name} missing from fresh artifact")
                continue
            fv = got[name]["value"]
            if kind == "exact":
                ok, rule = fv == bv, "must equal"
            elif kind == "budget":
                if bv is None or bv <= 0:
                    refuse(f"{label}: budget {name} has baseline {show(bv)}; "
                           f"record a zero quantity as exact")
                limit = bv * metric["tolerance"]
                ok, rule = fv is not None and fv <= limit, f"limit {limit:.6g}"
            elif kind == "info":
                ok, rule = True, ""
            else:
                refuse(f"{label}: {name} has unknown kind {kind!r}")
            print(f"{label:20s} {name:24s} {kind:6s} base={show(bv):>12s} "
                  f"fresh={show(fv):>12s} {rule:18s} {'ok' if ok else 'FAIL'}")
            if not ok:
                failures.append(f"{label}: {kind} {name} {show(bv)} -> "
                                f"{show(fv)} ({rule})")

    if failures:
        print(f"\n{len(failures)} regression(s):", file=sys.stderr)
        for f in failures:
            print(f"  {f}", file=sys.stderr)
        return 1
    print("\nall gates hold")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))

#!/usr/bin/env python3
"""Builds and runs the p2mon benchmark.

    python3 perfbench/run.py --workload <name|all> --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --selftest

Run from the repository root. The engine and the benchmark are built from
source with CMake (Release) into $CARGO_TARGET_DIR/perfbench, default
.bench_build/perfbench. The benchmark's own output passes through; its last
line is the JSON result, which is checked here against BENCHMARK.json (metric
names and units) before it is repeated as the last line of this script's
output. Exit status: 0 when every correctness gate passed, non-zero otherwise.
"""

import argparse
import hashlib
import json
import math
import os
import signal
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
RUN_TIMEOUT_S = 175


def log(msg):
    print(f"run.py: {msg}", file=sys.stderr, flush=True)


def build_dir():
    return os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR", ".bench_build"), "perfbench")


def build(target):
    """Configures (once) and builds `target`; build logs go to stderr."""
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        log("engine sources (src/) not found next to perfbench/; nothing to build")
        return None
    out = build_dir()
    if not os.path.isfile(os.path.join(out, "CMakeCache.txt")):
        cmd = ["cmake", "-S", os.path.join(ROOT, "perfbench"), "-B", out,
               "-DCMAKE_BUILD_TYPE=Release"]
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode != 0:
            log("cmake configure failed")
            return None
    cmd = ["cmake", "--build", out, "--target", target, "-j", str(os.cpu_count() or 1)]
    if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode != 0:
        log("build failed")
        return None
    return os.path.join(out, target)


def commit_id():
    """The git commit when run from a clone, else a digest of the sources."""
    try:
        head = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"], capture_output=True,
                              text=True, timeout=10)
        if head.returncode == 0 and head.stdout.strip():
            return head.stdout.strip()
    except (OSError, subprocess.TimeoutExpired):
        pass
    digest = hashlib.sha256()
    for top in ("src", "perfbench", "CMakeLists.txt"):
        base = os.path.join(ROOT, top)
        paths = [base] if os.path.isfile(base) else sorted(
            os.path.join(d, f) for d, _, files in os.walk(base) for f in files
            if not f.endswith(".pyc"))
        for path in paths:
            digest.update(os.path.relpath(path, ROOT).encode())
            with open(path, "rb") as fh:
                digest.update(fh.read())
    return "src-sha256:" + digest.hexdigest()[:16]


def declared_metrics(trace):
    """name -> unit of the metrics BENCHMARK.json declares for this trace mode."""
    path = os.path.join(ROOT, "BENCHMARK.json")
    if not os.path.isfile(path):
        return None
    with open(path) as fh:
        spec = json.load(fh)
    return {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}


def check_result(line, declared):
    """Parses a result line; returns (result, problems)."""
    try:
        result = json.loads(line)
    except ValueError:
        return None, ["last line is not JSON"]
    problems = []
    if not isinstance(result, dict) or set(result) != {"correct", "attempted", "failed",
                                                       "metrics"}:
        return None, ["result keys are not correct/attempted/failed/metrics"]
    if not isinstance(result["correct"], bool):
        problems.append("correct is not a boolean")
    for key in ("attempted", "failed"):
        if not isinstance(result[key], int) or isinstance(result[key], bool) or result[key] < 0:
            problems.append(f"{key} is not a whole number")
    if isinstance(result["attempted"], int) and result["attempted"] < 1:
        problems.append("attempted is below 1")
    metrics = result["metrics"]
    for name, m in metrics.items():
        value = m.get("value") if isinstance(m, dict) else None
        if not isinstance(value, (int, float)) or isinstance(value, bool) or \
                not math.isfinite(value):
            problems.append(f"{name}: value is not a finite number")
    if declared is not None:
        if set(metrics) != set(declared):
            missing = sorted(set(declared) - set(metrics))
            extra = sorted(set(metrics) - set(declared))
            problems.append(f"metric names differ from BENCHMARK.json: missing {missing}, "
                            f"undeclared {extra}")
        for name, unit in declared.items():
            if name in metrics and metrics[name].get("unit") != unit:
                problems.append(f"{name}: unit {metrics[name].get('unit')!r} but "
                                f"BENCHMARK.json says {unit!r}")
    return result, problems


def run(args):
    binary = build("p2bench")
    if binary is None:
        return 1
    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed), "--seconds",
           str(args.seconds), "--trace", str(args.trace), "--commit", commit_id(),
           "--out-dir", build_dir()]
    # Its own process group, so a stop also reaches the child process the
    # traced run forks for its untraced pass.
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True, start_new_session=True)
    try:
        out, _ = proc.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        log(f"benchmark exceeded {RUN_TIMEOUT_S} s and was stopped")
        return 1
    lines = out.rstrip("\n").split("\n")
    if proc.returncode not in (0, 1) or not lines or not lines[-1].startswith("{"):
        sys.stdout.write(out)
        log(f"benchmark exited with {proc.returncode} without a result")
        return proc.returncode or 1
    result, problems = check_result(lines[-1], declared_metrics(args.trace == 1))
    sys.stdout.write("\n".join(lines[:-1]) + "\n")
    for problem in problems:
        print(f"  OUTPUT CHECK FAILED: {problem}")
    if result is None:
        return 1
    if problems:
        result["correct"] = False
    print(json.dumps(result), flush=True)
    return 0 if result["correct"] and proc.returncode == 0 else 1


def selftest():
    binary = build("perfbench_test")
    if binary is None:
        return 1
    if subprocess.run([binary]).returncode != 0:
        return 1
    tests = os.path.join(ROOT, "perfbench", "test_run.py")
    return subprocess.run([sys.executable, tests]).returncode


def main():
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", default="all")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--selftest", action="store_true",
                        help="build and run the benchmark's own helper tests")
    args = parser.parse_args()
    sys.exit(selftest() if args.selftest else run(args))


if __name__ == "__main__":
    main()

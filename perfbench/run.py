#!/usr/bin/env python3
"""The repository benchmark: build the driver from source and run one workload.

    python3 perfbench/run.py --workload W --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --self-test

Run from the repository root.  The driver (perfbench/main.cpp and friends)
is built with CMake against the repository's own `ule` library into
$CARGO_TARGET_DIR/perfbench (default .bench_build/perfbench), then runs the
workload in a fresh process.  Its JSON line is checked against
BENCHMARK.json and completed: a per-layer metric of a layer the workload
does not exercise is reported as 0.  The last stdout line is the result:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

--self-test runs every workload at tiny sizes (seconds in all), traced and
untraced, and fails unless each emits exactly the declared metrics with
their declared units and every per-layer metric is measured by at least
one workload.  See perfbench/README.md.
"""

import argparse
import fcntl
import json
import math
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BENCH_DIR = Path(__file__).resolve().parent
RUN_TIMEOUT_S = 170


def die(msg, code=1):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(code)


def load_spec():
    path = ROOT / "BENCHMARK.json"
    if not path.is_file():
        die(f"{path.name} not found next to {BENCH_DIR.name}/", 2)
    spec = json.loads(path.read_text())
    return spec


def build():
    if not (ROOT / "src").is_dir() or not (ROOT / "CMakeLists.txt").is_file():
        die("repository sources (src/, CMakeLists.txt) not found; the "
            "benchmark builds them from source", 2)
    target = Path(os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    build_dir = (ROOT / target / "perfbench").resolve()
    build_dir.mkdir(parents=True, exist_ok=True)
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    with open(build_dir / "build.lock", "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)
        steps = []
        if not (build_dir / "CMakeCache.txt").is_file():
            steps.append(["cmake", "-S", str(BENCH_DIR), "-B", str(build_dir),
                          "-DCMAKE_BUILD_TYPE=Release"])
        steps.append(["cmake", "--build", str(build_dir), "--target",
                      "perfbench", "-j", jobs])
        for cmd in steps:
            # Build chatter goes to stderr: stdout carries only the result.
            rc = subprocess.run(cmd, cwd=ROOT, stdout=sys.stderr).returncode
            if rc != 0:
                die(f"build step failed ({' '.join(cmd[:2])}): exit {rc}", 2)
    return build_dir / "perfbench"


def run_driver(binary, workload, seed, seconds, trace, tiny=False):
    cmd = [str(binary), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    if tiny:
        cmd.append("--tiny")
    try:
        proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                              text=True, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        die(f"{workload}: no result within {RUN_TIMEOUT_S} s")
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        die(f"{workload}: driver exited {proc.returncode}")
    return json.loads(lines[-1])


def declared(spec, trace):
    key = "per_layer" if trace else "end_to_end"
    return {m["name"]: m["unit"] for m in spec[key]}


def check_emitted(spec, result, trace, workload):
    """Every emitted metric is declared for this mode, with its unit, and is
    a finite number; untraced runs emit every end-to-end metric."""
    want = declared(spec, trace)
    errors = []
    for name, m in result["metrics"].items():
        if name not in want:
            errors.append(f"undeclared metric {name}")
        elif m["unit"] != want[name]:
            errors.append(f"{name}: unit {m['unit']} != declared {want[name]}")
        if not isinstance(m["value"], (int, float)) or not math.isfinite(
                m["value"]):
            errors.append(f"{name}: value {m['value']!r} is not a number")
    if not trace:
        for name in want:
            if name not in result["metrics"]:
                errors.append(f"end-to-end metric {name} not emitted")
    return [f"{workload} trace={int(trace)}: {e}" for e in errors]


def complete(spec, result, trace):
    """Report every declared metric: unexercised per-layer metrics read 0."""
    metrics = {}
    for name, unit in declared(spec, trace).items():
        m = result["metrics"].get(name, {"value": 0, "unit": unit})
        metrics[name] = {"value": m["value"], "unit": unit}
    return {"correct": bool(result["correct"]),
            "attempted": int(result["attempted"]),
            "failed": int(result["failed"]), "metrics": metrics}


def self_test(spec):
    binary = build()
    errors, measured = [], set()
    for w in (x["name"] for x in spec["workloads"]):
        for trace in (0, 1):
            res = run_driver(binary, w, 1, 1, trace, tiny=True)
            errors += check_emitted(spec, res, trace, w)
            if not res["correct"] or res["failed"] != 0:
                errors.append(f"{w} trace={trace}: correct={res['correct']} "
                              f"failed={res['failed']}")
            if trace:
                measured |= set(res["metrics"])
            print(f"self-test {w} trace={trace}: {len(res['metrics'])} "
                  f"metrics, {res['attempted']} attempted, "
                  f"{res['failed']} failed")
    for name in declared(spec, True):
        if name not in measured:
            errors.append(f"per-layer metric {name} measured by no workload")
    for e in errors:
        print(f"self-test FAIL: {e}", file=sys.stderr)
    print("self-test " + ("FAILED" if errors else "passed"))
    return 1 if errors else 0


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=int, default=None)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--self-test", action="store_true")
    args = ap.parse_args()

    spec = load_spec()
    if args.self_test:
        return self_test(spec)
    names = [w["name"] for w in spec["workloads"]]
    if args.workload not in names:
        die(f"--workload must be one of {', '.join(names)}", 2)
    seconds = args.seconds or spec["run_seconds"]

    binary = build()
    res = run_driver(binary, args.workload, args.seed, seconds, args.trace)
    errors = check_emitted(spec, res, args.trace, args.workload)
    if errors:
        die("; ".join(errors))
    print(json.dumps(complete(spec, res, args.trace)))
    return 0


if __name__ == "__main__":
    sys.exit(main())

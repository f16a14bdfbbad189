#!/usr/bin/env python3
"""Builds and runs the repository benchmark.

    python3 perfbench/run.py --workload check_cold|opt_large|service_warm \
        --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --self-test
    python3 perfbench/run.py --determinism --workload W --seed N --seconds S

Run from the repository root. The harness (perfbench/harness.cpp and
friends) is built from source into $CARGO_TARGET_DIR/perfbench (default
.bench_build/perfbench) on top of the repository's src/ libraries, then run
once; its last stdout line is the JSON result. --self-test plants one wrong
answer per correctness oracle. --determinism runs the traced workload twice
with one seed and compares the counters that must repeat exactly.
"""

import argparse
import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BUILD_TIMEOUT_S = 850
RUN_TIMEOUT_S = 170

# Per-layer counters that must repeat exactly across runs of one seed.
DETERMINISTIC = [
    "engine.stmts_after",
    "checker.obligations",
    "checker.rlimit",
    "engine.facts",
    "engine.fixpoint_iters",
    "engine.applied",
    "service.response_bytes",
]


def fail(msg, code=2):
    print("perfbench: " + msg, file=sys.stderr)
    sys.exit(code)


def build():
    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        fail("repository sources (src/) not found next to perfbench/")
    out = Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    if not out.is_absolute():
        out = ROOT / out
    build_dir = out / "perfbench"
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not (build_dir / "CMakeCache.txt").is_file():
        steps.append(["cmake", "-S", str(ROOT / "perfbench"), "-B",
                      str(build_dir), "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
    steps.append(["cmake", "--build", str(build_dir), "-j", jobs,
                  "--target", "perfbench_harness"])
    for cmd in steps:
        try:
            done = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr,
                                  timeout=BUILD_TIMEOUT_S)
        except (OSError, subprocess.TimeoutExpired) as e:
            fail("build failed: %s" % e)
        if done.returncode != 0:
            fail("build failed: %s" % " ".join(cmd))
    return build_dir


def harness(build_dir, args):
    cmd = [str(build_dir / "perfbench_harness")] + args
    try:
        done = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S, cwd=ROOT)
    except subprocess.TimeoutExpired:
        fail("harness exceeded %d s" % RUN_TIMEOUT_S, 1)
    return done.returncode, done.stdout


def result_of(stdout):
    lines = stdout.strip().splitlines()
    try:
        return json.loads(lines[-1]) if lines else None
    except json.JSONDecodeError:
        return None


def main():
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload")
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=10)
    p.add_argument("--trace", type=int, choices=[0, 1], default=0)
    p.add_argument("--self-test", action="store_true")
    p.add_argument("--determinism", action="store_true")
    a = p.parse_args()

    build_dir = build()
    if a.self_test:
        code, out = harness(build_dir, ["--self-test"])
        sys.stdout.write(out)
        return code
    if not a.workload:
        fail("--workload is required")
    args = ["--workload", a.workload, "--seed", str(a.seed),
            "--seconds", str(a.seconds)]

    if a.determinism:
        runs = []
        for _ in range(2):
            code, out = harness(build_dir, args + ["--trace", "1"])
            res = result_of(out)
            if code != 0 or res is None:
                fail("traced run failed", 1)
            runs.append(res["metrics"])
        diverged = [n for n in DETERMINISTIC
                    if runs[0][n]["value"] != runs[1][n]["value"]]
        for n in DETERMINISTIC:
            print("%-28s %16s %16s" % (n, runs[0][n]["value"],
                                       runs[1][n]["value"]))
        print("determinism: " + ("diverged: " + ", ".join(diverged)
                                 if diverged else "every counter repeated"))
        return 1 if diverged else 0

    trace_out = build_dir / ("spans-%s-%d.json" % (a.workload, a.seed))
    extra = ["--trace-out", str(trace_out)] if a.trace else []
    code, out = harness(build_dir, args + ["--trace", str(a.trace)] + extra)
    if code != 0 or result_of(out) is None:
        sys.stderr.write(out)
        fail("harness failed (exit %d)" % code, code or 1)
    sys.stdout.write(out)
    return 0


if __name__ == "__main__":
    sys.exit(main())

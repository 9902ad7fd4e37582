#!/usr/bin/env python3
"""Runs one workload of the repository benchmark (see README.md).

Usage, from the repository root:

    python3 perfbench/run.py --workload web-3m --seed 1 --seconds 20 --trace 0

Builds the library and the harness from source (Release, under
$CARGO_TARGET_DIR or .bench_build), runs the workload described in
perfbench/workloads.json and relays the harness output. The last line of
stdout is the result JSON. The exit code is 0 when every correctness
check passed, 1 when a check failed or the result is incomplete, and 2
for a usage or build error.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
RUN_TIMEOUT_SECONDS = 170


def fail(message, code=2):
    print(f"error: {message}", file=sys.stderr)
    sys.exit(code)


def build_dir():
    base = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    if not os.path.isabs(base):
        base = os.path.join(ROOT, base)
    return os.path.join(base, "perfbench")


def build(targets):
    """Configures (once) and builds `targets`; returns the build directory."""
    if not os.path.isfile(os.path.join(ROOT, "CMakeLists.txt")) or not (
        os.path.isdir(os.path.join(ROOT, "src"))
    ):
        fail(f"no library source tree at {ROOT}")
    out = build_dir()
    if not os.path.isfile(os.path.join(out, "CMakeCache.txt")):
        configure = ["cmake", "-S", ROOT, "-B", out,
                     "-DCMAKE_BUILD_TYPE=Release",
                     "-DCMAKE_PROJECT_INCLUDE=" +
                     os.path.join(BENCH_DIR, "perfbench.cmake"),
                     "-DSIMRANK_BUILD_TESTS=OFF",
                     "-DSIMRANK_BUILD_BENCHMARKS=OFF",
                     "-DSIMRANK_BUILD_EXAMPLES=OFF",
                     "-DSIMRANK_BUILD_FUZZERS=OFF",
                     "-DSIMRANK_FAULT_INJECTION=OFF"]
        if shutil.which("ninja"):
            configure += ["-G", "Ninja"]
        if subprocess.run(configure, stdout=sys.stderr).returncode != 0:
            shutil.rmtree(out, ignore_errors=True)
            fail("cmake configure failed")
    jobs = str(min(4, os.cpu_count() or 1))
    result = subprocess.run(
        ["cmake", "--build", out, "--target", *targets, "-j", jobs],
        stdout=sys.stderr)
    if result.returncode != 0:
        fail("build failed")
    return out


def load_json(path):
    with open(path, encoding="utf-8") as f:
        return json.load(f)


def harness_args(workload, spec, seed, seconds, trace, scale, spans):
    args = ["--workload", workload, "--graph", spec["graph"],
            "--scale", str(scale if scale is not None else spec["scale"]),
            "--seed", str(seed), "--seconds", str(seconds),
            "--trace", str(trace),
            "--setup-reps", str(spec["setup_reps"]),
            "--min-exact", str(spec["min_exact_queries"]),
            "--recall-queries", str(spec["recall_queries"]),
            "--serve-rate", str(spec["serve_rate_qps"]),
            "--recall-floor", str(spec["recall_floor"])]
    if spans:
        args += ["--spans", spans]
    return args


def expected_metrics(trace):
    """Metric names BENCHMARK.json promises for this mode, if it exists."""
    path = os.path.join(ROOT, "BENCHMARK.json")
    if not os.path.isfile(path):
        return []
    bench = load_json(path)
    return [m["name"] for m in bench["per_layer" if trace else "end_to_end"]]


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--scale", type=float, default=None,
                        help="graph scale override (smoke tests only)")
    args = parser.parse_args()

    workloads = load_json(os.path.join(BENCH_DIR, "workloads.json"))
    spec = workloads["workloads"].get(args.workload)
    if spec is None:
        fail(f"unknown workload {args.workload!r}; known: "
             + ", ".join(sorted(workloads["workloads"])))
    out = build(["perfbench_run"])
    spans = (os.path.join(out, f"spans-{args.workload}-{args.seed}.tsv")
             if args.trace else None)
    command = [os.path.join(out, "perfbench_run"),
               *harness_args(args.workload, spec, args.seed, args.seconds,
                             args.trace, args.scale, spans)]
    try:
        run = subprocess.run(command, stdout=subprocess.PIPE, text=True,
                             timeout=RUN_TIMEOUT_SECONDS)
    except subprocess.TimeoutExpired:
        fail(f"harness did not finish within {RUN_TIMEOUT_SECONDS} s", 1)
    lines = run.stdout.rstrip("\n").split("\n")
    try:
        result = json.loads(lines[-1])
    except (json.JSONDecodeError, IndexError):
        sys.stdout.write(run.stdout)
        fail(f"harness exited {run.returncode} without a result line", 1)
    missing = [name for name in expected_metrics(args.trace)
               if name not in result.get("metrics", {})]
    if missing:
        print("\n".join(lines[:-1]))
        fail("result lacks metrics: " + ", ".join(missing), 1)
    sys.stdout.write(run.stdout)
    sys.stdout.flush()
    if run.returncode != 0 or not result.get("correct"):
        print("error: a correctness check failed", file=sys.stderr)
        sys.exit(1)


if __name__ == "__main__":
    main()

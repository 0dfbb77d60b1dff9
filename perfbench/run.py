#!/usr/bin/env python3
"""Builds and runs the repository's benchmark.

    python3 perfbench/run.py --workload W --seed N --seconds S --trace 0|1

Run from the repository root. The benchmark program (perfbench/main.cpp)
is compiled together with the simulator's src/ tree into
$CARGO_TARGET_DIR/perfbench (default .bench_build/perfbench); build output
goes to stderr. The last line of stdout is one JSON object with the keys
correct, attempted, failed and metrics: the end-to-end metrics with
--trace 0, the per-layer metrics with --trace 1 (whose spans are also
written to trace-<workload>.json in the build directory). The exit code is
nonzero when the build fails, an output check fails, or the metrics
printed differ from BENCHMARK.json.
"""
import argparse
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("read-fanin", "mapreduce", "metadata-storm")
# The program stops repeating after --seconds; this bounds one repetition's
# overshoot plus set-up so a hung run is killed well inside 180 s.
RUN_TIMEOUT_S = 170


def build_dir():
    base = Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    if not base.is_absolute():
        base = ROOT / base
    return base / "perfbench"


def build():
    """Configures (once) and builds the program; returns its path."""
    out = build_dir()
    if not (out / "CMakeCache.txt").exists():
        cmd = ["cmake", "-S", str(HERE), "-B", str(out),
               "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        subprocess.run(cmd, check=True, stdout=sys.stderr)
    jobs = str(min(4, os.cpu_count() or 1))
    subprocess.run(["cmake", "--build", str(out), "-j", jobs], check=True,
                   stdout=sys.stderr)
    return out / "perfbench"


def expected_metrics(trace):
    """Metric names BENCHMARK.json declares for this mode."""
    doc = json.loads((ROOT / "BENCHMARK.json").read_text())
    return [m["name"] for m in doc["per_layer" if trace else "end_to_end"]]


def run(binary, workload, seed, seconds, trace, extra=(), env=None):
    """Runs the program once; returns (exit code, parsed result or None)."""
    cmd = [str(binary), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace), *extra]
    if trace and "--trace-out" not in extra:
        cmd += ["--trace-out", str(build_dir() / f"trace-{workload}.json")]
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                          timeout=RUN_TIMEOUT_S, env=env)
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1]) if lines else None
    return proc.returncode, result


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=20)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    if args.seed < 0:
        ap.error("--seed must be a non-negative integer")

    try:
        binary = build()
    except (OSError, subprocess.CalledProcessError) as e:
        print(f"perfbench: build failed: {e}", file=sys.stderr)
        return 1
    try:
        code, result = run(binary, args.workload, args.seed, args.seconds,
                           args.trace)
    except subprocess.TimeoutExpired:
        print(f"perfbench: the benchmark program ran past {RUN_TIMEOUT_S} s;"
              " killed", file=sys.stderr)
        return 1
    if result is None:
        print("perfbench: the benchmark program printed no result",
              file=sys.stderr)
        return code or 1
    if set(result["metrics"]) != set(expected_metrics(args.trace)):
        print("perfbench: metrics differ from BENCHMARK.json", file=sys.stderr)
        return 1
    print(json.dumps(result))
    return code


if __name__ == "__main__":
    sys.exit(main())

#!/usr/bin/env python3
"""Self-test of the benchmark, on a scaled-down version of each workload.

    python3 perfbench/selftest.py

For every workload it runs the benchmark program twice on one seed, traced and
untraced, and requires every simulated metric and work counter to come out
identical (host-time metrics are exempt). It runs once more on a second
seed, which must pass the output checks, and checks the paper's direction
(BSFS finishes before HDFS) on read-fanin and on both mapreduce jobs. It
also checks that the program refuses to measure the reference solver or
the centralized version manager when the environment selects them.
"""
import os
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))
import run  # noqa: E402

SEEDS = (11, 12)


def simulated(metrics):
    """The metrics that must repeat exactly: everything but host time."""
    host = ("run_s", "setup_s", "peak_rss_mib", "bench.trace_overhead")
    return {k: v["value"] for k, v in metrics.items()
            if k not in host and "host" not in k}


def small(binary, workload, seed, trace, env=None):
    """One short run of the scaled-down workload: (exit code, result)."""
    return run.run(binary, workload, seed, 0.01, trace,
                   extra=("--scale", "small", "--trace-out", os.devnull),
                   env=env)


def main():
    binary = run.build()
    failures = []

    def check(ok, what):
        print(("ok   " if ok else "FAIL ") + what)
        if not ok:
            failures.append(what)

    for workload in run.WORKLOADS:
        for trace in (0, 1):
            runs = [small(binary, workload, SEEDS[0], trace) for _ in range(2)]
            codes = [code for code, _ in runs]
            check(codes == [0, 0] and all(r and r["correct"] for _, r in runs),
                  f"{workload} trace={trace}: both runs pass their checks")
            if codes != [0, 0]:
                continue
            a, b = (simulated(r["metrics"]) for _, r in runs)
            diff = sorted(k for k in a if a[k] != b.get(k))
            differ = f" (differ: {', '.join(diff)})" if diff else ""
            check(not diff, f"{workload} trace={trace}: simulated metrics "
                            f"repeat exactly{differ}")
            m = runs[0][1]["metrics"]
            if trace == 0 and workload == "read-fanin":
                check(m["bsfs_sim_s"]["value"] < m["hdfs_sim_s"]["value"],
                      "read-fanin: BSFS finishes before HDFS")
            if trace == 1 and workload == "mapreduce":
                for job in ("rtw", "grep"):
                    check(m[f"mr.{job}_job_sim_s.bsfs"]["value"] <
                          m[f"mr.{job}_job_sim_s.hdfs"]["value"],
                          f"mapreduce: BSFS finishes {job} before HDFS")
        code, result = small(binary, workload, SEEDS[1], 0)
        check(code == 0 and result is not None and result["correct"],
              f"{workload}: second seed passes its checks")

    for var, workload in (("BS_LEGACY_SOLVER", "read-fanin"),
                          ("BS_LEGACY_VM", "metadata-storm")):
        code, result = small(binary, workload, SEEDS[0], 0,
                             env={**os.environ, var: "1"})
        check(code != 0 and result is None,
              f"{var}=1: the program refuses to measure")

    print(f"{len(failures)} failure(s)")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())

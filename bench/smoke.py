"""Smoke test of the benchmark itself.

    python3 bench/smoke.py

Runs a tiny size of every workload with tracing off and on and checks the
shape of the result line, then injects one wrong count and one raising job
and checks that both are counted as failures, then runs the benchmark in a
copy of the benchmark's own files without popkit's sources and checks that
it fails without printing a result.  Exits non-zero on the first problem.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import layers  # noqa: E402
from run import END_TO_END_UNITS  # noqa: E402
from workloads import WORKLOADS  # noqa: E402


def bench(*extra: str, cwd: str = ROOT) -> subprocess.CompletedProcess:
    cmd = [sys.executable, "bench/run.py", "--seed", "1", "--seconds", "1", *extra]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=180)


def result_line(proc: subprocess.CompletedProcess) -> dict:
    if proc.returncode != 0:
        raise AssertionError(f"exit {proc.returncode}: {proc.stderr[-1000:]}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}, result.keys()
    return result


def check_tiny_runs() -> None:
    for workload in WORKLOADS:
        for trace, names in (("0", list(END_TO_END_UNITS)), ("1", layers.metric_names())):
            result = result_line(bench("--workload", workload, "--trace", trace, "--max-jobs", "3"))
            assert result["correct"] and result["failed"] == 0, result
            assert list(result["metrics"]) == names, list(result["metrics"])
            if trace == "0":
                assert all(m["value"] > 0 for m in result["metrics"].values()), result
            print(f"ok   {workload} trace={trace}: {result['attempted']} jobs attempted")


def check_injected_failures() -> None:
    proc = bench("--workload", "enumerate", "--trace", "0", "--max-jobs", "1",
                 "--inject-failures")
    result = result_line(proc)
    passes = result["attempted"] // 3
    assert not result["correct"], result
    assert result["failed"] == 2 * passes, result
    ratio = [line for line in proc.stdout.splitlines() if line.startswith("fail_ratio")]
    assert ratio and f"({2 * passes}/{3 * passes})" in ratio[0], ratio
    print(f"ok   injected wrong count and raising job: {ratio[0].split(None, 1)[1]}")


def check_missing_sources() -> None:
    scratch = os.path.join(HERE, "results", "smoke-root")
    shutil.rmtree(scratch, ignore_errors=True)
    try:
        shutil.copytree(HERE, os.path.join(scratch, "bench"),
                        ignore=shutil.ignore_patterns("results", "__pycache__"))
        shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), scratch)
        proc = bench("--workload", "enumerate", "--trace", "0", cwd=scratch)
        assert proc.returncode != 0, proc.stdout
        assert '"metrics"' not in proc.stdout, proc.stdout
        print(f"ok   without popkit's sources: exit {proc.returncode}, {proc.stderr.strip()}")
    finally:
        shutil.rmtree(scratch, ignore_errors=True)


if __name__ == "__main__":
    check_tiny_runs()
    check_injected_failures()
    check_missing_sources()

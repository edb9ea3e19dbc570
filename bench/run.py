"""popkit's benchmark: seeded workloads, checked outputs, timed end to end.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 bench/run.py --workload all --seed N --seconds S

Run from the repository root; popkit is imported from ./src.  Workloads:

  enumerate  count, count --quasi and seq --pattern jobs over every pattern
             kind: the brute-force counting path.
  classify   classify (narrow and deep, wide and shallow) and verify jobs:
             counting plus poset building and symmetry orbits.
  formulas   seq --theorem for every generator id, series --dc, and rational
             g.f. expansions: no search at all.
  match      batches of contains / avoids / quasi_avoids / occurrences /
             count_occurrences queries: the matcher alone.

Load is one client in a closed loop: each job starts when the previous one
has finished.  The workload runs in a fresh child process, which runs the
whole job list in passes until --seconds are spent and checks every result
against an independent oracle outside the timed region (a wrong answer is
a failed job).  Set-up time is measured on separate fresh interpreters.

With --trace 0 the last line of stdout is a JSON object with the
end-to-end metrics, all medians or ratios over the run.  Every time in it
is scaled to a fixed machine speed (see CALIBRATION_S in worker.py): a
pure-Python loop that does not use popkit is timed next to each job and
each set-up, and the unscaled figures are printed above the result line
and kept in the results file.

  setup_s      fresh interpreter to the first job: import popkit, build the
               seeded job list, parse and build its patterns (median of
               SETUP_REPEATS interpreters)
  wall_s       summed job latency of one pass over the job list
  job_s_p50    median job latency
  job_s_tail   highest percentile with at least 10 jobs beyond it (the
               percentile and the sample count are printed above)
  peak_rss_mb  peak resident memory of the workload process
  work_per_s   output-sized work per second of job time: avoiders (sum of
               a(m) for m <= n, or the quasi-avoider count) on enumerate and
               classify, sequence terms on formulas, queries on match

With --trace 1 the same jobs run untraced for half the budget and traced
for the other half, and the metrics are the per-layer ones of layers.py.
The failure ratio is failed / attempted.  Results, provenance and the job
list go to bench/results/; spans of traced runs too.  smoke.py checks the
benchmark itself.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKER = os.path.join(HERE, "worker.py")
RESULTS = os.path.join(HERE, "results")
sys.path.insert(0, HERE)

from workloads import WORKLOADS  # noqa: E402

SETUP_REPEATS = 7
DEADLINE_S = 170  # the whole run, set-up included, ends within this

END_TO_END_UNITS = {
    "setup_s": "s", "wall_s": "s", "job_s_p50": "s", "job_s_tail": "s",
    "peak_rss_mb": "MB", "work_per_s": "1/s",
}
WORK_NAMES = {
    "enumerate": "avoiders_per_s", "classify": "avoiders_per_s",
    "formulas": "terms_per_s", "match": "queries_per_s",
}


class BenchError(Exception):
    pass


def provenance() -> dict:
    return {
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "nproc": os.cpu_count(),
        "platform": platform.platform(),
        "commit": git_commit(),
    }


def git_commit() -> str:
    """The checked-out commit, read from .git without running git."""
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD"), encoding="utf-8") as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        ref_file = os.path.join(git, ref)
        if os.path.exists(ref_file):
            with open(ref_file, encoding="utf-8") as fh:
                return fh.read().strip()
        with open(os.path.join(git, "packed-refs"), encoding="utf-8") as fh:
            for line in fh:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return "unknown (not a git checkout)"


def child(args, mode: str, deadline: float) -> dict:
    """Run worker.py once and return its JSON result."""
    cmd = [sys.executable, WORKER, "--root", ROOT, "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace), "--mode", mode]
    if args.max_jobs is not None:
        cmd += ["--max-jobs", str(args.max_jobs)]
    if args.inject_failures:
        cmd.append("--inject-failures")
    started = time.monotonic()
    proc = subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True)
    try:
        stdout, _ = proc.communicate(timeout=max(deadline - time.monotonic(), 1))
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        raise BenchError(f"{mode} child ran past the deadline")
    if proc.returncode != 0:
        raise BenchError(f"{mode} child exited with code {proc.returncode}")
    result = json.loads(stdout.strip().splitlines()[-1])
    result["started"] = started
    return result


def job_list(run: dict) -> list[tuple[str, float]]:
    """Each job with its median raw latency over the passes."""
    per_job = zip(*(p["latencies"] for p in run["passes"]))
    return [(name, statistics.median(lat)) for name, lat in zip(run["jobs"], per_job)]


def tail(latencies: list[float]) -> float:
    """The highest percentile with at least ten jobs beyond it: the 11th
    largest latency (the largest when there are fewer than eleven)."""
    ordered = sorted(latencies)
    return ordered[-11] if len(ordered) >= 11 else ordered[-1]


def tail_percentile(count: int) -> int:
    return math.floor(100 * (count - 10) / count) if count >= 11 else 100


def timed_setup(args, deadline: float) -> tuple[float, float]:
    """Raw set-up time of one fresh interpreter, and the machine speed
    measured in that interpreter."""
    setup = child(args, "setup", deadline)
    return setup["ready"] - setup["started"], setup["speed"]


def timings(passes: list[dict], setups: list[tuple[float, float]], scaled: bool) -> dict:
    def scale(values, speeds):
        return [v * s for v, s in zip(values, speeds)] if scaled else list(values)

    per_pass = [scale(p["latencies"], p["speeds"]) for p in passes]
    latencies = [x for p in per_pass for x in p]
    return {
        "setup_s": statistics.median(scale(*zip(*setups))),
        "wall_s": statistics.median(sum(p) for p in per_pass),
        "job_s_p50": statistics.median(latencies),
        "job_s_tail": tail(latencies),
        "work_per_s": sum(p["work"] for p in passes) / sum(latencies),
    }


def end_to_end(args, deadline: float) -> tuple[dict, dict]:
    run = child(args, "run", deadline)
    peak_kb = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    setups = [timed_setup(args, deadline) for _ in range(SETUP_REPEATS)]
    passes = run["passes"]
    metrics = timings(passes, setups, scaled=True)
    metrics["peak_rss_mb"] = peak_kb / 1024
    raw = timings(passes, setups, scaled=False)
    jobs = sum(len(p["latencies"]) for p in passes)
    details = {
        "passes": len(passes), "jobs": jobs,
        "tail_percentile": tail_percentile(jobs),
        "machine_speed": statistics.median(s for p in passes for s in p["speeds"]),
        "raw_timings": raw,
        "job_list": job_list(run),
        "failures": [f for p in passes for f in p["failures"]],
        "attempted": jobs,
        "setups": setups,
        "pass_timings": [{"latencies": p["latencies"], "speeds": p["speeds"]} for p in passes],
    }
    return {k: {"value": metrics[k], "unit": u} for k, u in END_TO_END_UNITS.items()}, details


def per_layer(args, deadline: float) -> tuple[dict, dict]:
    run = child(args, "run", deadline)
    metrics = {}
    for name, value in run["layers"].items():
        if name.endswith("_s"):
            unit = "s"
        elif name == "wilf.dedup_ratio":
            unit = "ratio"
        else:
            unit = "count"
        metrics[name] = {"value": value, "unit": unit}
    passes = run["passes"]
    details = {"passes": len(passes), "spans": run["spans"], "span_file": run["span_file"],
               "traced_raw_wall_s": run["traced_raw_wall_s"],
               "job_list": job_list(run),
               "failures": [f for p in passes for f in p["failures"]],
               "attempted": sum(len(p["latencies"]) for p in passes)}
    return metrics, details


def run_workload(args) -> dict:
    deadline = time.monotonic() + DEADLINE_S
    measure = per_layer if args.trace else end_to_end
    metrics, details = measure(args, deadline)
    failed = len(details["failures"])
    summary = {"correct": failed == 0, "attempted": details["attempted"],
               "failed": failed, "metrics": metrics}
    record = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "provenance": provenance(), **details, **summary}
    os.makedirs(RESULTS, exist_ok=True)
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    with open(os.path.join(RESULTS, name), "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=1)
    report(record)
    return summary


def report(record: dict) -> None:
    prov = record["provenance"]
    print(f"# {record['workload']} seed={record['seed']} seconds={record['seconds']} "
          f"trace={record['trace']} passes={record['passes']}")
    print(f"# python {prov['python']} nproc={prov['nproc']} {prov['platform']} "
          f"commit={prov['commit']}")
    for name, m in record["metrics"].items():
        label = name
        if name == "work_per_s":
            label = f"{name} ({WORK_NAMES[record['workload']]})"
        if name == "job_s_tail":
            label = f"{name} (p{record['tail_percentile']} of {record['jobs']} jobs)"
        print(f"{label:44s} {m['value']:.6g} {m['unit']}")
    print(f"{'fail_ratio':44s} {record['failed'] / record['attempted']:.6g} ratio "
          f"({record['failed']}/{record['attempted']})")
    if "raw_timings" in record:
        raw = ", ".join(f"{k} {v:.4g}" for k, v in record["raw_timings"].items())
        print(f"# machine speed {record['machine_speed']:.3f}; unscaled: {raw}")
    for failure in record["failures"][:10]:
        print(f"FAILED {failure}")


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--max-jobs", type=int, default=None,
                    help="run only the first J jobs (smoke tests)")
    ap.add_argument("--inject-failures", action="store_true",
                    help="add a wrong-count job and a raising job (smoke tests)")
    args = ap.parse_args()
    if not os.path.exists(os.path.join(ROOT, "src", "popkit", "__init__.py")):
        print(f"bench: no popkit sources under {ROOT}/src", file=sys.stderr)
        return 2
    if args.workload == "all":
        # One run.py per workload, so that each reads the peak memory of
        # its own workload process only.
        codes = [
            subprocess.run([sys.executable, __file__, *sys.argv[1:], "--workload", w]).returncode
            for w in WORKLOADS
        ]
        return max(codes)
    try:
        print(json.dumps(run_workload(args)))
    except BenchError as exc:
        print(f"bench: {exc}", file=sys.stderr)
        return 3
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""One workload run inside a fresh interpreter; started by run.py.

    python3 bench/worker.py --root DIR --workload W --seed N --seconds S
                            --trace 0|1 --mode setup|run [--max-jobs J]
                            [--inject-failures]

It imports popkit from DIR/src, builds the seeded job list and prepares
every job (parsing and building its patterns).  In setup mode it then
prints the monotonic clock and the machine speed and exits.  In run mode
it runs the job list in passes, one job at a time, until the time budget
is spent, timing each job and checking its result against the oracle
outside the timed region.  With --trace 1 the first half of the budget
runs untraced and the second half traced, and the per-layer metrics come
from the traced passes.  The last line of stdout is one JSON object with
the raw results.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)


# A core shared with other virtual machines can change speed by up to two
# times over tens of seconds, which swamps the differences the benchmark
# is for.  So a fixed pure-Python loop that does not touch popkit (the
# subset oracle on one permutation) is timed next to every job, and each
# latency is also reported at the speed at which that loop takes
# CALIBRATION_S: raw seconds times CALIBRATION_S / loop seconds.
CALIBRATION_S = 0.004
_CALIBRATION_VALUES = (9, 14, 2, 17, 6, 11, 1, 16, 5, 12, 18, 3, 8, 15, 10, 4, 13, 7)
_CALIBRATION_RELATIONS = frozenset({(3, 1), (3, 2), (4, 1), (4, 2)})


def calibration_loop_s() -> float:
    import oracles

    start = time.perf_counter()
    oracles.naive_occurrences(_CALIBRATION_VALUES, 4, _CALIBRATION_RELATIONS)
    return time.perf_counter() - start


def import_popkit(root: str):
    src = os.path.join(root, "src")
    sys.path.insert(0, src)
    try:
        import popkit
        import popkit.cli  # noqa: F401  (jobs call popkit.cli.run_cli)
    except ImportError as exc:
        sys.exit(f"cannot import popkit from {src}: {exc}")
    if not os.path.abspath(popkit.__file__).startswith(os.path.abspath(src) + os.sep):
        sys.exit(f"popkit was imported from {popkit.__file__}, not from {src}")
    return popkit


def injected_jobs(workloads):
    """A count with a wrong expected value and a job that raises."""
    import random

    import oracles
    import patterns

    wrong = oracles.catalan(6)
    wrong[6] += 1
    bad = workloads.count_job(random.Random(0), patterns.chain("123"), 6, lambda: wrong)
    bad.name = "injected: wrong count"

    def prepare(pk):
        poset = pk.pop_from_text("chain:123")
        return lambda: pk.count_avoiders(poset, -1)

    raising = workloads.Job("injected: raising job", prepare, lambda result: None, lambda: 1)
    return [bad, raising]


def run_pass(jobs, calls, verified, tracer=None):
    """Run every job once; return (raw latencies, speeds, failures, work).

    speeds[i] is the machine speed next to job i: CALIBRATION_S over the
    mean loop time measured just before and just after the job.
    """
    latencies, speeds, failures, work = [], [], [], 0
    loop_before = calibration_loop_s()
    for i, (job, call) in enumerate(zip(jobs, calls)):
        if tracer is not None:
            tracer.job = i
        error = None
        start = time.perf_counter()
        try:
            result = call()
        except Exception as exc:  # a raising job is a failed job, not a crash
            error = f"raised {type(exc).__name__}: {exc}"
        elapsed = time.perf_counter() - start
        loop_after = calibration_loop_s()
        latencies.append(elapsed)
        speeds.append(CALIBRATION_S / ((loop_before + loop_after) / 2))
        loop_before = loop_after
        if error is None and not (verified[i] is not None and result == verified[i]):
            try:
                error = job.check(result)
            except Exception as exc:  # unparsable output is a wrong answer
                error = f"check failed: {type(exc).__name__}: {exc}"
            if error is None:
                verified[i] = result
        if error is not None:
            failures.append(f"{job.name}: {error}")
        work += job.work()
    return latencies, speeds, failures, work


def run_passes(jobs, calls, verified, budget, tracer=None):
    passes = []
    start = time.perf_counter()
    while True:
        passes.append(run_pass(jobs, calls, verified, tracer))
        spent = time.perf_counter() - start
        if spent * (len(passes) + 1) / len(passes) > budget:
            return passes


def normalised_wall(p) -> float:
    return sum(lat * speed for lat, speed in zip(p[0], p[1]))


def main() -> None:
    ap = argparse.ArgumentParser()
    ap.add_argument("--root", required=True)
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--mode", choices=("setup", "run"), required=True)
    ap.add_argument("--max-jobs", type=int, default=None)
    ap.add_argument("--inject-failures", action="store_true")
    args = ap.parse_args()

    popkit = import_popkit(args.root)
    import workloads

    jobs = workloads.build(args.workload, args.seed)[: args.max_jobs]
    if args.inject_failures:
        jobs += injected_jobs(workloads)
    calls = [job.prepare(popkit) for job in jobs]
    ready = time.monotonic()
    if args.mode == "setup":
        loops = calibration_loop_s() + calibration_loop_s()
        print(json.dumps({"ready": ready, "speed": CALIBRATION_S / (loops / 2)}))
        return

    verified = [None] * len(jobs)
    out = {"ready": ready, "jobs": [job.name for job in jobs]}
    if args.trace:
        import layers

        plain = run_passes(jobs, calls, verified, args.seconds / 2)
        tracer = layers.Tracer("popkit")
        tracer.install()
        try:
            traced = run_passes(jobs, calls, verified, args.seconds / 2, tracer)
        finally:
            tracer.uninstall()
        layers = tracer.metrics(len(traced))
        layers["tracing.overhead_s"] = (
            statistics.median(map(normalised_wall, traced))
            - statistics.median(map(normalised_wall, plain))
        )
        out["traced_raw_wall_s"] = statistics.median(sum(p[0]) for p in traced)
        out["layers"] = layers
        results_dir = os.path.join(HERE, "results")
        os.makedirs(results_dir, exist_ok=True)
        span_file = os.path.join(results_dir, f"spans-{args.workload}-seed{args.seed}.tsv.gz")
        out["spans"] = tracer.dump(span_file)
        out["span_file"] = os.path.relpath(span_file, args.root)
        passes = plain + traced
    else:
        passes = run_passes(jobs, calls, verified, args.seconds)
    out["passes"] = [
        {"latencies": lat, "speeds": speeds, "failures": fails, "work": work}
        for lat, speeds, fails, work in passes
    ]
    print(json.dumps(out))


if __name__ == "__main__":
    main()

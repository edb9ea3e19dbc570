"""Seeded job lists for the four workloads, each job with its oracle.

A job is one popkit.cli.run_cli(argv) call with stdout captured, one
library call (g.f. expansions), or one batch of matcher queries.  Every
job carries its expected answer from oracles.py or reference.json, which
is computed on first use, outside set-up and the timed region, and the
work it represents: avoiders for brute-force jobs, sequence terms for
formula jobs, queries for matcher batches.  The seed picks patterns,
parameters, formats and job order inside fixed slots, so different seeds
give different inputs of about the same cost.
"""

from __future__ import annotations

import csv
import io
import itertools
import json
import os
import random
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass
from functools import cache, partial
from math import comb
from typing import Callable

import oracles as O
import patterns as P

HERE = os.path.dirname(os.path.abspath(__file__))
with open(os.path.join(HERE, "reference.json"), encoding="utf-8") as _fh:
    REFERENCE: dict[str, list[int]] = json.load(_fh)

WORKLOADS = ("enumerate", "classify", "formulas", "match")
FORMATS = ("table", "json", "csv")


@dataclass
class Job:
    name: str
    # Builds the timed call from the popkit package: parses and builds
    # patterns and permutations, returns a zero-argument callable.
    prepare: Callable[[object], Callable[[], object]]
    # Returns None when the result is right, else the reason it is wrong.
    check: Callable[[object], str | None]
    # The work the job represents, from its expected output.
    work: Callable[[], int]


# ------------------------------------------------------------- CLI jobs


def _cli(pk, argv: list[str], pattern_texts: list[str]) -> Callable[[], object]:
    for text in pattern_texts:
        pk.pop_from_text(text)

    def run():
        out, err = io.StringIO(), io.StringIO()
        with redirect_stdout(out), redirect_stderr(err):
            code = pk.cli.run_cli(argv)
        return code, out.getvalue(), err.getvalue()

    return run


def _cli_job(name, argv, patterns, check, work) -> Job:
    return Job(name, lambda pk: _cli(pk, argv, patterns), check, work)


def _parse_values(fmt: str, stdout: str) -> list[int]:
    if fmt == "json":
        return [int(v) for v in json.loads(stdout)["values"]]
    if fmt == "csv":
        rows = list(csv.reader(io.StringIO(stdout)))
        if rows[0] != ["n", "value"]:
            raise ValueError(f"bad csv header {rows[0]}")
        return [int(v) for _, v in rows[1:]]
    values = []
    for n, line in enumerate(stdout.strip().splitlines()):
        idx, value = line.split()
        if int(idx) != n:
            raise ValueError(f"row {n} labelled {idx}")
        values.append(int(value))
    return values


def _parse_count(fmt: str, stdout: str) -> int:
    if fmt == "json":
        return int(json.loads(stdout)["count"])
    if fmt == "csv":
        return int(list(csv.reader(io.StringIO(stdout)))[1][3])
    return int(stdout.strip())


def _expect(parse, fmt: str, expected: Callable[[], object]) -> Callable[[object], str | None]:
    def check(result) -> str | None:
        code, stdout, stderr = result
        if code != 0:
            return f"exit {code}: {stderr.strip()}"
        got = parse(fmt, stdout)
        if got != expected():
            return f"got {str(got)[:200]} expected {str(expected())[:200]}"
        return None

    return check


def seq_job(rng, pattern: P.Pattern, n: int, avoiders: Callable[[], list[int]]) -> Job:
    """avoiders() gives the expected a(0..n) or more."""
    fmt = rng.choice(FORMATS)
    argv = ["seq", "--pattern", pattern.text, "--nmax", str(n), "--format", fmt]
    values = cache(lambda: avoiders()[: n + 1])
    return _cli_job(f"seq {pattern.text} n={n}", argv, [pattern.text],
                    _expect(_parse_values, fmt, values), lambda: sum(values()))


def count_job(rng, pattern: P.Pattern, n: int, avoiders: Callable[[], list[int]],
              quasi=False) -> Job:
    fmt = rng.choice(FORMATS)
    argv = ["count", "--pattern", pattern.text, "--n", str(n), "--format", fmt]
    avoiders = cache(avoiders)
    if quasi:
        argv.append("--quasi")
        value = cache(lambda: O.quasi_from_avoiders(avoiders(), n))
        work = value
    else:
        value = cache(lambda: avoiders()[n])
        work = cache(lambda: sum(avoiders()[: n + 1]))
    name = f"count{' --quasi' if quasi else ''} {pattern.text} n={n}"
    return _cli_job(name, argv, [pattern.text], _expect(_parse_count, fmt, value), work)


# ------------------------------------------------------------ enumerate


def _n_class(word: str) -> str:
    """Class of a length-4 path pattern, read off its stored a(5)."""
    return {59: "N-class1", 60: "N-class2", 61: "N-class3"}[REFERENCE[f"n:{word}"][5]]


def _ref(text: str) -> Callable[[], list[int]]:
    return lambda: REFERENCE[text]


def enumerate_jobs(rng: random.Random) -> list[Job]:
    chain4, zz, rel = (rng.choice(pool) for pool in (P.CHAIN4_POOL, P.ZZ_POOL, P.REL_POOL))
    quasi_word = rng.choice(P.N_QUASI_POOL)
    two_chains = rng.choice([["43", "21"], ["12", "34"]])
    three_two = rng.choice([["54", "321"], ["132", "45"], ["45", "123"], ["213", "54"]])
    if rng.random() < 0.5:
        small, small_values = rng.choice([["21", "3"], ["12", "3"], ["32", "1"], ["1", "32"]]), O.dc_p1
    else:
        small, small_values = rng.choice([["31", "2"], ["13", "2"]]), O.dc_p2
    return [
        seq_job(rng, rng.choice(P.S3_POOL), 9, partial(O.catalan, 9)),
        count_job(rng, chain4, 8, _ref(chain4.text)),
        count_job(rng, P.cb(4, rng.choice([(1, 2), (3, 4), (1, 3), (2, 4)])), 9,
                  partial(O.b2, 4, 9)),
        count_job(rng, P.cb(3, (rng.randint(1, 2),)), 10, partial(O.b1, 3, 10), quasi=True),
        seq_job(rng, P.cb(4, (rng.randint(1, 2),)), 9, partial(O.b1, 4, 9)),
        seq_job(rng, P.cb(5, rng.choice([(2, 3, 4), (3, 4, 5)])), 8, partial(O.interval, 5, 2, 8)),
        count_job(rng, P.cb(5, rng.choice([(1, 4), (2, 5)])), 8, partial(O.cb_14_235, 8)),
        seq_job(rng, P.npat(rng.choice(P.N_CLASS1_POOL)), 9, partial(O.n_class1, 9)),
        count_job(rng, P.npat(quasi_word), 8,
                  partial(O.theorem_values, _n_class(quasi_word), 8), quasi=True),
        seq_job(rng, P.dc(two_chains), 10, lambda: O.dc_rule([O.chain_avoiders(2, 10)] * 2)),
        seq_job(rng, P.dc(small), 10, partial(small_values, 10)),
        seq_job(rng, P.dc(three_two), 8,
                lambda: O.dc_rule([O.chain_avoiders(len(w), 8) for w in three_two])),
        seq_job(rng, zz, 8, _ref(zz.text)),
        seq_job(rng, rel, 8, _ref(rel.text)),
    ]


# ------------------------------------------------------------- classify


def _orbit_key(k: int, relations: frozenset) -> frozenset:
    """Orbit of a pattern under label complement and order dual."""
    orbit, frontier = {relations}, [relations]
    while frontier:
        r = frontier.pop()
        for image in (O.label_complement(k, r), O.order_dual(r)):
            if image not in orbit:
                orbit.add(image)
                frontier.append(image)
    return frozenset(orbit)


def _parse_classes(fmt: str, stdout: str) -> list[tuple]:
    """(prefix, members, number of orbit representatives) per class."""
    if fmt == "json":
        return [
            (tuple(int(v) for v in c["prefix"]), tuple(c["members"]),
             len(c["orbit_representatives"]))
            for c in json.loads(stdout)["classes"]
        ]
    lines = stdout.strip().splitlines()[2:]
    classes = []
    for head, members, reps in zip(lines[0::3], lines[1::3], lines[2::3]):
        prefix = tuple(int(v) for v in head.split(": ", 1)[1].split(","))
        classes.append((prefix, tuple(members.split(": ", 1)[1].split()),
                        len(reps.split(": ", 1)[1].split())))
    return classes


def classify_job(rng, family: str, n: int,
                 members: Callable[[], list[tuple[P.Pattern, list[int]]]]) -> Job:
    """members() gives (pattern, expected a(0..n)) for every family member."""
    fmt = rng.choice(("table", "json"))

    @cache
    def expected():
        orbits: dict[frozenset, list[int]] = {}
        grouped: dict[tuple, list[str]] = {}
        orbit_sets: dict[tuple, set] = {}
        for pat, values in members():
            prefix = tuple(values[: n + 1])
            key = _orbit_key(pat.k, pat.relations)
            orbits[key] = prefix
            grouped.setdefault(prefix, []).append(pat.text)
            orbit_sets.setdefault(prefix, set()).add(key)
        classes = [
            (prefix, tuple(sorted(grouped[prefix])), len(orbit_sets[prefix]))
            for prefix in sorted(grouped)
        ]
        return classes, sum(sum(v) for v in orbits.values())

    argv = ["classify", "--family", family, "--nmax", str(n), "--format", fmt]
    return _cli_job(f"classify {family} n={n}", argv, [],
                    _expect(_parse_classes, fmt, lambda: expected()[0]),
                    lambda: expected()[1])


def verify_job(rng, tid: str, pattern: P.Pattern, n: int, k=None) -> Job:
    argv = ["verify", "--theorem", tid, "--pattern", pattern.text, "--nmax", str(n)]
    if k is not None:
        argv += ["--k", str(k)]
    expected = cache(partial(O.theorem_values, tid, n, k=k))

    def check(result):
        code, stdout, stderr = result
        lines = stdout.strip().splitlines()
        if code != 0 or len(lines) != 3:
            return f"exit {code}: {stdout.strip()[:200]} {stderr.strip()[:200]}"
        joined = ",".join(map(str, expected()))
        if not (lines[0].endswith(": " + joined) and lines[1].endswith(": " + joined)
                and lines[2] == f"match through n={n}"):
            return f"unexpected verify output {stdout[:300]!r}"
        return None

    return _cli_job(f"verify {tid} {pattern.text} n={n}", argv, [pattern.text], check,
                    lambda: sum(expected()))


def _npatterns_members():
    return [(P.npat(w), O.theorem_values(_n_class(w), 8)) for w in P.N_WORDS]


def _cb5_members():
    members = []
    for top in itertools.combinations(range(1, 6), 2):
        pat = P.cb(5, top)
        if top in ((1, 4), (2, 5)):
            values = O.cb_14_235(8)
        elif top == (1, 5):
            values = REFERENCE[pat.text]
        else:
            values = O.b2(5, 8)
        members.append((pat, values))
    return members


def _wide_members(big_k: int, a_size: int, n: int):
    return [(P.cb(big_k, top), O.factorial_prefix(n))
            for top in itertools.combinations(range(1, big_k + 1), a_size)]


def classify_jobs(rng: random.Random) -> list[Job]:
    jobs = [
        classify_job(rng, "npatterns", 8, _npatterns_members),
        classify_job(rng, "cb:5:2", 7, _cb5_members),
    ]
    # Wide and shallow: every member counts n! below its length, so the
    # posets and their orbits are the whole cost.
    # (12 labels, 792 members: cb:12:5 and its order dual cb:12:7.)
    for _ in range(4):
        a_size = rng.choice((5, 7))
        jobs.append(classify_job(rng, f"cb:12:{a_size}", 5,
                                 partial(_wide_members, 12, a_size, 5)))
    verifies = [
        lambda: verify_job(rng, "N-class1", P.npat(rng.choice(P.N_CLASS1_POOL)), 9),
        lambda: verify_job(rng, "N-class2", P.npat("4213"), 9),
        lambda: verify_job(rng, "B1", P.cb(4, (rng.randint(1, 2),)), 9, k=4),
    ]
    for make in rng.sample(verifies, 2):
        jobs.append(make())
    return jobs


# ------------------------------------------------------------- formulas


def _lib_job(name: str, build: Callable[[object], object], n: int,
             expected: Callable[[], list[int]]) -> Job:
    """A rational g.f. expanded through popkit.gf_coefficients."""

    def prepare(pk):
        def run():
            return list(pk.gf_coefficients(build(pk), n).values)

        return run

    def check(got):
        want = expected()
        return None if got == want else f"got {str(got)[:200]} expected {str(want)[:200]}"

    return Job(name, prepare, check, lambda: n + 1)


# Fixed parameters and formats keep the short jobs, whose median is
# job_s_p50 here, at the same cost whatever the seed.
THEOREM_PARAMS = {
    "B1": {"k": 6}, "B2": {"k": 6}, "CB-adjacent": {"k": 5}, "CB-gap2": {"k": 7},
    "CB-interval": {"k": 7, "j": 2},
}


def formulas_jobs(rng: random.Random) -> list[Job]:
    jobs = []
    for i, tid in enumerate(O.THEOREM_IDS):
        params = THEOREM_PARAMS.get(tid, {})
        n = rng.randint(398, 402)
        fmt = FORMATS[i % len(FORMATS)]
        argv = ["seq", "--theorem", tid.lower() if rng.random() < 0.5 else tid,
                "--nmax", str(n), "--format", fmt]
        for key, value in params.items():
            argv += [f"--{key}", str(value)]
        expected = partial(O.theorem_values, tid, n, **params)
        jobs.append(_cli_job(f"seq --theorem {tid} {params} n={n}", argv, [],
                             _expect(_parse_values, fmt, expected), lambda n=n: n + 1))
    for _ in range(3):
        lengths = [rng.randint(1, 3) for _ in range(3)]
        if max(lengths) < 2:
            lengths[0] = 3
        words, base = [], 0
        for m in lengths:
            labels = [str(base + i) for i in range(1, m + 1)]
            rng.shuffle(labels)
            words.append("".join(labels))
            base += m
        order = rng.randint(198, 202)
        fmt = FORMATS[len(jobs) % len(FORMATS)]
        dc = "[" + "|".join(words) + "]"
        expected = partial(lambda ms, o: O.dc_rule([O.chain_avoiders(m, o) for m in ms]),
                           lengths, order)
        argv = ["series", "--dc", dc, "--order", str(order), "--format", fmt]
        jobs.append(_cli_job(f"series {dc} order={order}", argv, ["dc:" + dc],
                             _expect(_parse_values, fmt, expected), lambda o=order: o + 1))
    gfs = [
        ("thm_b1_gf(6)", lambda pk: pk.thm_b1_gf(6), partial(O.b1, 6)),
        ("thm_b2_gf(6)", lambda pk: pk.thm_b2_gf(6), partial(O.b2, 6)),
        ("n_class1_gf()", lambda pk: pk.n_class1_gf(), O.n_class1),
        ("n_class2_gf()", lambda pk: pk.n_class2_gf(), O.n_class2),
    ]
    for name, build, oracle in gfs:
        n = rng.randint(398, 402)
        jobs.append(_lib_job(f"gf_coefficients({name}, {n})", build, n, partial(oracle, n)))
    return jobs


# ---------------------------------------------------------------- match

PREDICATES = ("contains", "avoids", "quasi_avoids", "occurrences", "count_occurrences")
NAIVE_LIMIT = 12000  # largest C(n, k) the subset oracle checks


def random_pattern(rng: random.Random, k: int) -> P.Pattern:
    kind = rng.choice(["chain", "cb", "n", "zz", "rel", "dc"] if k == 4 else
                      ["chain", "cb", "zz", "rel", "dc"])
    labels = "".join(str(i) for i in range(1, k + 1))
    if kind == "chain":
        return P.chain("".join(rng.sample(labels, k)))
    if kind == "cb":
        return P.cb(k, tuple(sorted(rng.sample(range(1, k + 1), rng.randint(1, k - 1)))))
    if kind == "n":
        return P.npat("".join(rng.sample(labels, 4)))
    if kind == "zz":
        shape = ("^v" * k)[: k - 1] if rng.random() < 0.5 else ("v^" * k)[: k - 1]
        return P.zz(shape, "".join(rng.sample(labels, k)))
    if kind == "dc":
        cut = rng.randint(1, k - 1)
        return P.dc(["".join(rng.sample(labels[:cut], cut)),
                     "".join(rng.sample(labels[cut:], k - cut))])
    order = list(range(1, k + 1))
    rng.shuffle(order)
    pairs = [(order[i], order[j]) for i in range(k) for j in range(i + 1, k)
             if rng.random() < 0.4] or [(order[0], order[-1])]
    return P.rel(k, pairs)


def merged_runs(rng: random.Random, n: int, runs: int) -> list[int]:
    """A union of `runs` increasing subsequences: avoids the decreasing
    chain of length runs + 1."""
    colour = [rng.randrange(runs) for _ in range(n)]
    values = list(range(1, n + 1))
    rng.shuffle(values)
    out = [0] * n
    start = 0
    for c in range(runs):
        slots = [i for i in range(n) if colour[i] == c]
        for i, v in zip(slots, sorted(values[start : start + len(slots)])):
            out[i] = v
        start += len(slots)
    return out


def near_sorted(rng: random.Random, n: int, swaps: int) -> list[int]:
    values = list(range(1, n + 1))
    for _ in range(swaps):
        i = rng.randrange(n - 1)
        values[i], values[i + 1] = values[i + 1], values[i]
    return values


def _naive_answer(pred: str, values, pat: P.Pattern):
    k, rels = pat.k, pat.relations
    if pred == "contains":
        return O.naive_contains(values, k, rels)
    if pred == "avoids":
        return not O.naive_contains(values, k, rels)
    if pred == "quasi_avoids":
        return O.naive_contains(values, k, rels) and not O.naive_contains(
            O.reduce_values(values[:-1]), k, rels)
    occ = O.naive_occurrences(values, k, rels)
    return occ if pred == "occurrences" else len(occ)


def match_job(rng: random.Random, name: str, queries: list[tuple]) -> Job:
    """A batch of (permutation, predicate, pattern, known answer) queries.

    A query whose answer is known by construction is checked against it;
    the others are checked against the subset definition on a seeded
    subsample of the queries small enough for it, and every listed
    occurrence is checked to be one.
    """
    sampled = [
        i for i, (values, _, pat, known) in enumerate(queries)
        if known is None and comb(len(values), pat.k) <= NAIVE_LIMIT and rng.random() < 0.5
    ]

    def prepare(pk):
        calls = [(pk.Permutation(values), pred, pk.pop_from_text(pat.text))
                 for values, pred, pat, _ in queries]

        def run():
            out = []
            for perm, pred, poset in calls:
                result = getattr(pk, pred)(perm, poset)
                out.append(list(result) if pred == "occurrences" else result)
            return out

        return run

    def check(results):
        for (values, pred, pat, known), got in zip(queries, results):
            if known is not None and got != known:
                return f"{pred} {pat.text} on {values}: got {got}, expected {known}"
            if pred == "occurrences":
                for occ in got:
                    pos = [p - 1 for p in occ]
                    if sorted(set(pos)) != pos or not O.is_occurrence(values, pos, pat.relations):
                        return f"{pred} {pat.text}: {occ} is not an occurrence"
        for i in sampled:
            values, pred, pat, _ = queries[i]
            if results[i] != _naive_answer(pred, values, pat):
                return f"{pred} {pat.text} on {values}: got {str(results[i])[:100]}"
        return None

    return Job(f"{name} queries={len(queries)}", prepare, check, lambda: len(queries))


def match_batch(rng: random.Random, k: int, index: int) -> Job:
    """One batch: four permutations, each with its own kind of query.

    - a random permutation of length 40-60, where containment usually
      stops at the first hit;
    - a short random permutation with every occurrence listed or counted;
    - a union of 2-4 increasing runs, which avoids the decreasing chain one
      longer than the number of runs;
    - a near-sorted permutation against a pattern of length k whose last
      slot lies below all the others (or, mirrored, a near-reversed one
      against the last slot above all the others), which it avoids, so the
      search runs to the end: about C(n, k-1) partial occurrences.
    """
    queries = []
    values = list(range(1, rng.randint(40, 60) + 1))
    rng.shuffle(values)
    queries += [(values, rng.choice(PREDICATES[:3]), random_pattern(rng, rng.randint(3, 6)), None)
                for _ in range(8)]
    values = list(range(1, rng.randint(20, 22) + 1))
    rng.shuffle(values)
    queries += [(values, rng.choice(PREDICATES[3:]), random_pattern(rng, rng.randint(3, 5)), None)
                for _ in range(4)]
    runs = rng.randint(2, 4)
    values = merged_runs(rng, rng.randint(40, 50), runs)
    decreasing = P.chain("".join(str(i) for i in range(runs + 1, 0, -1)))
    pred = rng.choice(PREDICATES[:3])
    queries.append((values, pred, decreasing, pred == "avoids"))
    queries += [(values, rng.choice(PREDICATES[:3]), random_pattern(rng, rng.randint(3, 4)), None)
                for _ in range(5)]
    n = rng.randint(44, 46) if k == 4 else rng.randint(29, 31)
    values = near_sorted(rng, n, n // 10)
    pattern = P.cb(k, tuple(range(1, k)))
    if rng.random() < 0.5:
        values = [n + 1 - v for v in values]
        pattern = P.cb(k, (k,))
    queries += [(values, pred, pattern, pred == "avoids") for pred in PREDICATES[:3]]
    return match_job(rng, f"batch {index}", queries)


def match_jobs(rng: random.Random) -> list[Job]:
    return [match_batch(rng, 4 + i % 2, i) for i in range(8)]


def build(workload: str, seed: int) -> list[Job]:
    """The job list of one workload run, in its seeded order."""
    rng = random.Random(f"{workload}:{seed}")
    if workload == "enumerate":
        jobs = enumerate_jobs(rng)
    elif workload == "classify":
        jobs = classify_jobs(rng)
    elif workload == "formulas":
        jobs = formulas_jobs(rng)
    elif workload == "match":
        jobs = match_jobs(rng)
    else:
        raise ValueError(f"unknown workload {workload!r}")
    rng.shuffle(jobs)
    return jobs

"""Independent oracles for every benchmark job.

Nothing here imports popkit.  Each function restates a counting law or a
definition from scratch, so a wrong answer from the program cannot be
copied into the expected value.  Patterns are given as (k, relations),
where a relation (a, b) means "the value at occurrence slot a is below the
value at occurrence slot b".
"""

from __future__ import annotations

from itertools import combinations
from math import comb, factorial

# ---------------------------------------------------------------- sequences


def factorial_prefix(n_max: int) -> list[int]:
    return [factorial(n) for n in range(n_max + 1)]


def catalan(n_max: int) -> list[int]:
    return [comb(2 * n, n) // (n + 1) for n in range(n_max + 1)]


def b1(k: int, n_max: int) -> list[int]:
    """Single top label: (k-1)! (k-1)^(n-k+1) from n = k on."""
    return [
        factorial(n) if n < k else factorial(k - 1) * (k - 1) ** (n - k + 1)
        for n in range(n_max + 1)
    ]


def linear_recurrence(initial: list[int], coeffs: list[int], n_max: int) -> list[int]:
    """a(n) = sum_i coeffs[i] a(n-1-i) once the initial terms run out."""
    a = list(initial[: n_max + 1])
    while len(a) <= n_max:
        a.append(sum(c * a[-1 - i] for i, c in enumerate(coeffs)))
    return a


def b2(k: int, n_max: int) -> list[int]:
    """Two top labels placed adjacently or two apart."""
    return linear_recurrence(
        factorial_prefix(k - 1), [2 * (k - 2), -(k - 2) * (k - 3)], n_max
    )


def interval(k: int, j: int, n_max: int) -> list[int]:
    """Top set an interval of j+1 labels: inclusion-exclusion recurrence."""
    coeffs = []
    for ell in range(1, j + 2):
        falling = 1
        for t in range(1, ell + 1):
            falling *= k - j - t
        coeffs.append((-1) ** (ell - 1) * comb(j + 1, ell) * falling)
    return linear_recurrence(factorial_prefix(k - 1), coeffs, n_max)


def cb_14_235(n_max: int) -> list[int]:
    """cb:5:{1,4}: main counts coupled with an auxiliary sequence."""
    a = [1, 1, 2, 6, 24]
    b = [0, 0, 1]
    partial = 0  # b(2) + ... + b(n-2)
    for n in range(3, n_max + 1):
        partial += b[n - 2] if n - 2 >= 2 else 0
        b.append(a[n - 2] + b[n - 1] + 2 * partial)
        if n >= 5:
            a.append(7 * a[n - 1] - 12 * a[n - 2] + 4 * a[n - 3] + 2 * b[n - 2])
    return a[: n_max + 1]


def series_quotient(num: list[int], den: list[int], n_max: int) -> list[int]:
    """Power-series coefficients of num/den, den[0] == 1, exact integers."""
    out: list[int] = []
    for n in range(n_max + 1):
        acc = num[n] if n < len(num) else 0
        for i in range(1, min(n, len(den) - 1) + 1):
            acc -= den[i] * out[n - i]
        out.append(acc)
    return out


def n_class1(n_max: int) -> list[int]:
    return [(3**n - 2 * n + 3) // 4 for n in range(n_max + 1)]


def n_class2(n_max: int) -> list[int]:
    return series_quotient([1, -3, 1], [1, -4, 3, -1], n_max)


def n_class3(n_max: int) -> list[int]:
    return linear_recurrence([1, 1, 2, 6], [3, 1, -1], n_max)


def dc_p1(n_max: int) -> list[int]:
    return [1] + list(range(1, n_max + 1))


def dc_p2(n_max: int) -> list[int]:
    return linear_recurrence([1, 1, 2], [1, 1], n_max)


THEOREM_IDS = (
    "B1", "B2", "CB-adjacent", "CB-interval", "CB-gap2", "CB-14-235",
    "N-class1", "N-class2", "N-class3", "DC-p1", "DC-p2-fibonacci",
)


def theorem_values(tid: str, n_max: int, k: int | None = None, j: int | None = None) -> list[int]:
    """Expected terms of a named generator, by canonical id."""
    if tid == "B1":
        return b1(k, n_max)
    if tid in ("B2", "CB-adjacent", "CB-gap2"):
        return b2(k, n_max)
    if tid == "CB-interval":
        return interval(k, j, n_max)
    if tid == "CB-14-235":
        return cb_14_235(n_max)
    if tid == "N-class1":
        return n_class1(n_max)
    if tid == "N-class2":
        return n_class2(n_max)
    if tid == "N-class3":
        return n_class3(n_max)
    if tid == "DC-p1":
        return dc_p1(n_max)
    if tid == "DC-p2-fibonacci":
        return dc_p2(n_max)
    raise KeyError(tid)


def quasi_from_avoiders(a: list[int], n: int) -> int:
    """Quasi-avoiders of length n: n a(n-1) - a(n)."""
    return n * a[n - 1] - a[n]


# -------------------------------------------------- e.g.f. rule for chains


def _binomial_convolution(f: list[int], g: list[int]) -> list[int]:
    return [
        sum(comb(n, i) * f[i] * g[n - i] for i in range(n + 1))
        for n in range(len(f))
    ]


def chain_avoiders(length: int, order: int) -> list[int]:
    """Avoiders of one classical chain of length 1, 2 or 3."""
    if length == 1:
        return [1] + [0] * order
    if length == 2:
        return [1] * (order + 1)
    if length == 3:
        return catalan(order)
    raise ValueError("only chains of length at most 3 have a closed form here")


def dc_rule(chain_series: list[list[int]]) -> list[int]:
    """Avoiders of a disjoint union of chains in consecutive label blocks:
    A = sum_i A_i prod_{j<i} ((x-1) A_j + 1)."""
    order = len(chain_series[0]) - 1
    total = [0] * (order + 1)
    running = [1] + [0] * order
    for a in chain_series:
        term = _binomial_convolution(a, running)
        total = [x + y for x, y in zip(total, term)]
        quasi = [0] + [n * a[n - 1] - a[n] for n in range(1, order + 1)]
        running = _binomial_convolution(running, quasi)
    return total


# ------------------------------------------------ the subset definition


def is_occurrence(values, positions, relations) -> bool:
    return all(values[positions[a - 1]] < values[positions[b - 1]] for a, b in relations)


def naive_occurrences(values, k: int, relations) -> list[tuple[int, ...]]:
    """Every occurrence as 1-based positions, by filtering all k-subsets."""
    return [
        tuple(p + 1 for p in pos)
        for pos in combinations(range(len(values)), k)
        if is_occurrence(values, pos, relations)
    ]


def naive_contains(values, k: int, relations) -> bool:
    return any(
        is_occurrence(values, pos, relations)
        for pos in combinations(range(len(values)), k)
    )


def reduce_values(values) -> tuple[int, ...]:
    ranks = {v: i for i, v in enumerate(sorted(values), start=1)}
    return tuple(ranks[v] for v in values)


def naive_avoider_counts(k: int, relations, n_max: int) -> list[int]:
    """a(0..n_max) by the subset definition.

    Avoidance is closed under deleting the last entry, so the avoiders of
    length n are exactly the one-entry extensions of avoiders of length
    n-1 with no occurrence through the new last entry; each extension is
    tested against every (k-1)-subset of the earlier positions.
    """
    level = [()]
    counts = [1]
    for n in range(1, n_max + 1):
        nxt = []
        heads = list(combinations(range(n - 1), k - 1))
        for prefix in level:
            for rank in range(1, n + 1):
                cand = tuple(v + (v >= rank) for v in prefix) + (rank,)
                if not any(
                    is_occurrence(cand, head + (n - 1,), relations) for head in heads
                ):
                    nxt.append(cand)
        level = nxt
        counts.append(len(level))
    return counts


def label_complement(k: int, relations) -> frozenset:
    """Orbit partner: reversing positions mirrors the slot labels."""
    return frozenset((k + 1 - a, k + 1 - b) for a, b in relations)


def order_dual(relations) -> frozenset:
    """Orbit partner: complementing values reverses every relation."""
    return frozenset((b, a) for a, b in relations)

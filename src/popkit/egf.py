"""Exact truncated exponential-generating-function arithmetic.

A TruncatedEgf holds the integer counts c(0..order) of a series
sum c(n) x^n / n!, and rejects any count that is not an int.  The sum
and product are the functions egf_add and egf_mul; the one operator is
subtraction, which only the closed form below uses.  The product is the
binomial convolution: count n is one inner product of half of Pascal's
row n (built from row n-1) with the pair sums f(i)g(n-i) + f(n-i)g(i).
Disjoint-chain rules live here too: the quasi-avoider transform
A* = (x-1)A + 1, the one-extra-chain composition C = A + B A*, its right
fold over m chains (the Horner form
A_1 + A_1*(A_2 + A_2*(... + A_(m-1)* A_m))), the closed form
(1 - (1 + (x-1)e^x)^m) / (1-x) for m disjoint two-element chains, and
the avoidance series of each chain itself.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import reduce
from operator import add, mul, sub
from typing import Sequence

from .counting import avoidance_sequence
from .errors import InvalidInputError
from .perms import _check_ints, _check_length
from .posets import dc_pop

DEFAULT_ORDER = 15


@dataclass(frozen=True)
class TruncatedEgf:
    """Integer counts c(0..order) of the series sum c(n) x^n / n!."""

    counts: tuple[int, ...]

    def __post_init__(self):
        counts = tuple(self.counts)
        if not counts:
            raise InvalidInputError("need at least the order-0 count")
        _check_ints("count", counts)
        object.__setattr__(self, "counts", counts)

    @property
    def order(self) -> int:
        return len(self.counts) - 1

    def __getitem__(self, n: int) -> int:
        return self.counts[n]

    def __sub__(self, other: "TruncatedEgf") -> "TruncatedEgf":
        _check_orders(self, other)
        return TruncatedEgf(tuple(map(sub, self.counts, other.counts)))


def _check_orders(f: TruncatedEgf, g: TruncatedEgf) -> None:
    if f.order != g.order:
        raise InvalidInputError(
            f"truncation orders differ: {f.order} vs {g.order}"
        )


def egf_add(f: TruncatedEgf, g: TruncatedEgf) -> TruncatedEgf:
    _check_orders(f, g)
    return TruncatedEgf(tuple(map(add, f.counts, g.counts)))


def egf_mul(f: TruncatedEgf, g: TruncatedEgf) -> TruncatedEgf:
    """Binomial convolution: terms i and n-i share C(n, i) = C(n, n-i)."""
    _check_orders(f, g)
    a, b = f.counts, g.counts
    row, counts = [1], []
    for n in range(f.order + 1):
        h, m = (n + 1) // 2, n // 2
        pairs = map(add, map(mul, a[:h], b[n:m:-1]), map(mul, b[:h], a[n:m:-1]))
        c = sum(map(mul, row, pairs))
        counts.append(c if n % 2 else c + row[m] * a[m] * b[m])
        row = [1, *map(add, row, row[1:]), 1]
    return TruncatedEgf(tuple(counts))


def egf_one(order: int = DEFAULT_ORDER) -> TruncatedEgf:
    """The constant series 1."""
    _check_length(order)
    return TruncatedEgf((1,) + (0,) * order)


def egf_exp(order: int = DEFAULT_ORDER) -> TruncatedEgf:
    """e^x: one object of every size (the 2-chain avoiders)."""
    _check_length(order)
    return TruncatedEgf((1,) * (order + 1))


def _check_unit(a: TruncatedEgf) -> None:
    if a.counts[0] != 1:
        raise InvalidInputError("avoidance series must have a(0) = 1")


def quasi_transform(a: TruncatedEgf) -> TruncatedEgf:
    """Quasi-avoider counts from avoider counts: A* = (x-1)A + 1.

    Coefficientwise a*(n) = n a(n-1) - a(n), with a*(0) = 0; requires
    a(0) = 1 (one empty permutation) for the constant terms to cancel.
    """
    _check_unit(a)
    c = a.counts
    return TruncatedEgf((0, *map(sub, map(mul, range(1, len(c)), c), c[1:])))


def chain_compose(a: TruncatedEgf, b: TruncatedEgf) -> TruncatedEgf:
    """Avoider counts after adjoining one disjoint chain: C = A + B A*.

    a counts the avoiders of the added chain's classical pattern, b the
    avoiders of the rest of the pattern.
    """
    _check_orders(a, b)
    return egf_add(a, egf_mul(b, quasi_transform(a)))


def chain_egf(word: tuple[int, ...], order: int, cap: int) -> TruncatedEgf:
    """Avoidance series for one chain word of a disjoint-chain pattern.

    Lengths 1-3 have closed forms (empty-only, all ones, Catalan); longer
    chains fall back to exact search, so the order is capped for them.
    """
    _check_length(order)
    m = len(word)
    if m == 1:
        return egf_one(order)
    if m == 2:
        return egf_exp(order)
    if m == 3:  # Catalan numbers: (n + 2) C(n+1) = (4n + 2) C(n)
        counts = [1]
        for n in range(order):
            counts.append(counts[n] * (4 * n + 2) // (n + 2))
        return TruncatedEgf(counts)
    seq = avoidance_sequence(dc_pop([word]), order, cap=cap)
    return TruncatedEgf(seq.values)


def dc_pop_egf(chain_egfs: Sequence[TruncatedEgf]) -> TruncatedEgf:
    """Avoider counts for a disjoint union of chains.

    Takes one avoidance series per chain's classical pattern and folds
    chain_compose over them from the right, A_1 + A_1* (A_2 + ... +
    A_(m-1)* A_m): the Horner form of sum_i A_i prod_{j<i} A_j*, with
    m-1 products.
    """
    if not chain_egfs:
        raise InvalidInputError("need at least one chain series")
    for f in chain_egfs:
        _check_orders(chain_egfs[0], f)
    *outer, total = chain_egfs
    _check_unit(total)  # the fold never transforms the innermost series
    for f in reversed(outer):
        total = chain_compose(f, total)
    return total


def bipartite_dc_closed_form(m: int, order: int = DEFAULT_ORDER) -> TruncatedEgf:
    """Avoider counts for m disjoint two-element chains:
    C = (1 - (1 + (x-1)e^x)^m) / (1-x).

    The base series 1 + (x-1)e^x has counts 0, 0, 1, 2, 3, ...; dividing
    by (1-x) unrolls to c(n) = g(n) + n c(n-1), which keeps everything
    integral.
    """
    if m < 1:
        raise InvalidInputError("need at least one chain")
    base = quasi_transform(egf_exp(order))
    g = egf_one(order) - reduce(egf_mul, [base] * m)
    counts = [g.counts[0]]
    for n in range(1, order + 1):
        counts.append(g.counts[n] + n * counts[n - 1])
    return TruncatedEgf(tuple(counts))

"""Exact truncated exponential-generating-function arithmetic.

A TruncatedEgf holds the integer counts c(0..order) of a series
sum c(n) x^n / n!, so multiplication is the binomial convolution
(f g)(n) = sum C(n,i) f(i) g(n-i) and all arithmetic stays in unbounded
integers.  The composition rules for disjoint-chain patterns live here:
the quasi-avoider transform A* = (x-1)A + 1, the one-extra-chain
composition C = A + B A*, its m-fold iteration, and the closed form
(1 - (1 + (x-1)e^x)^m) / (1-x) for m disjoint two-element chains,
and the avoidance series of each chain itself.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import comb
from typing import Sequence

from .counting import CountSequence, avoidance_sequence
from .errors import InvalidInputError
from .perms import _check_length
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
        object.__setattr__(self, "counts", counts)

    @property
    def order(self) -> int:
        return len(self.counts) - 1

    def __getitem__(self, n: int) -> int:
        return self.counts[n]

    def __add__(self, other: "TruncatedEgf") -> "TruncatedEgf":
        return egf_add(self, other)

    def __sub__(self, other: "TruncatedEgf") -> "TruncatedEgf":
        _check_orders(self, other)
        return TruncatedEgf(
            tuple(a - b for a, b in zip(self.counts, other.counts))
        )

    def __mul__(self, other: "TruncatedEgf") -> "TruncatedEgf":
        return egf_mul(self, other)


def _check_orders(f: TruncatedEgf, g: TruncatedEgf) -> None:
    if f.order != g.order:
        raise InvalidInputError(
            f"truncation orders differ: {f.order} vs {g.order}"
        )


def egf_add(f: TruncatedEgf, g: TruncatedEgf) -> TruncatedEgf:
    _check_orders(f, g)
    return TruncatedEgf(tuple(a + b for a, b in zip(f.counts, g.counts)))


def egf_mul(f: TruncatedEgf, g: TruncatedEgf) -> TruncatedEgf:
    """Binomial convolution: the product series' counts."""
    _check_orders(f, g)
    return TruncatedEgf(
        tuple(
            sum(comb(n, i) * f.counts[i] * g.counts[n - i] for i in range(n + 1))
            for n in range(f.order + 1)
        )
    )


def egf_one(order: int = DEFAULT_ORDER) -> TruncatedEgf:
    """The constant series 1."""
    _check_length(order)
    return TruncatedEgf((1,) + (0,) * order)


def egf_zero(order: int = DEFAULT_ORDER) -> TruncatedEgf:
    """The zero series."""
    _check_length(order)
    return TruncatedEgf((0,) * (order + 1))


def egf_exp(order: int = DEFAULT_ORDER) -> TruncatedEgf:
    """e^x: one object of every size (the 2-chain avoiders)."""
    _check_length(order)
    return TruncatedEgf((1,) * (order + 1))


def egf_from_counts(counts: Sequence[int]) -> TruncatedEgf:
    return TruncatedEgf(tuple(counts))


def quasi_transform(a: TruncatedEgf) -> TruncatedEgf:
    """Quasi-avoider counts from avoider counts: A* = (x-1)A + 1.

    Coefficientwise a*(n) = n a(n-1) - a(n), with a*(0) = 0; requires
    a(0) = 1 (one empty permutation) for the constant terms to cancel.
    """
    if a.counts[0] != 1:
        raise InvalidInputError("avoidance series must have a(0) = 1")
    counts = [0]
    for n in range(1, a.order + 1):
        counts.append(n * a.counts[n - 1] - a.counts[n])
    return TruncatedEgf(tuple(counts))


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
    if m == 3:
        return egf_from_counts(
            [comb(2 * n, n) // (n + 1) for n in range(order + 1)]
        )
    seq = avoidance_sequence(dc_pop([word]), order, cap=cap)
    return egf_from_counts(seq.values)


def dc_pop_egf(chain_egfs: Sequence[TruncatedEgf]) -> TruncatedEgf:
    """Avoider counts for a disjoint union of chains.

    Takes one avoidance series per chain's classical pattern and
    combines them: A = sum_i A_i prod_{j<i} ((x-1)A_j + 1).
    """
    if not chain_egfs:
        raise InvalidInputError("need at least one chain series")
    order = chain_egfs[0].order
    for f in chain_egfs:
        _check_orders(chain_egfs[0], f)
    total = egf_zero(order)
    running = egf_one(order)  # product of quasi transforms so far
    for f in chain_egfs:
        total = egf_add(total, egf_mul(f, running))
        running = egf_mul(running, quasi_transform(f))
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
    base = TruncatedEgf(
        tuple(0 if n == 0 else n - 1 for n in range(order + 1))
    )
    power = egf_one(order)
    for _ in range(m):
        power = egf_mul(power, base)
    g = egf_one(order) - power
    counts = [g.counts[0]]
    for n in range(1, order + 1):
        counts.append(g.counts[n] + n * counts[n - 1])
    return TruncatedEgf(tuple(counts))


def egf_sequence(f: TruncatedEgf, pattern: str) -> CountSequence:
    """Package a series' counts as a named CountSequence."""
    return CountSequence(pattern=pattern, values=f.counts, source="egf-expansion")

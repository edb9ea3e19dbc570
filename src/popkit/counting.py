"""Exact brute-force avoidance counting.

One depth-first walk produces every count.  It builds permutations one
entry at a time, left to right, in reduced form: a prefix of length m
is a permutation of {1..m} recording the relative order of the entries
placed so far, and appending an entry of rank r bumps the existing
values >= r up by one.  Containment is hereditary (deleting an entry
never creates an occurrence), so every avoider of length n extends an
avoider of length n-1 and only avoiding prefixes are ever extended.

Because the prefix avoids the pattern p of length k, an occurrence in
an extension must put slot k on the new entry.  The walk therefore
enumerates once, per prefix, the occurrences of slots 1..k-1 in it.
Each one forbids the new ranks r with

    max(values at slots below k) < r <= min(values at slots above k),

where the maximum of no values is 0 and the minimum of none is m+1.
Every rank outside the union of these intervals gives an avoiding
child.  The walk keeps only the counts a(0..n_max) and an explicit
stack of pending prefixes, so its depth is not bounded by Python's
recursion limit.

Quasi-avoiders (p occurs, but not in the one-shorter prefix) come from
the same counts: a*(n) = n a(n-1) - a(n).

The exact counts these routines produce are the ground truth against
which every closed form in the package is checked.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import factorial

from .errors import InvalidInputError, ResourceLimitError
from .matcher import _search, _slot_constraints
from .perms import DEFAULT_CAP
from .posets import Poset

_SOURCES = ("brute-force", "theorem-name", "gf-expansion", "egf-expansion")


@dataclass(frozen=True)
class CountSequence:
    """Exact avoidance counts a(0..n_max) with their provenance.

    pattern is the Poset counted, or the name of the sequence generator
    for values that come from a closed form rather than a search.
    """

    pattern: Poset | str
    values: tuple[int, ...]
    source: str

    def __post_init__(self):
        object.__setattr__(self, "values", tuple(self.values))
        if self.source not in _SOURCES:
            raise InvalidInputError(f"unknown source {self.source!r}")
        if not self.values:
            raise InvalidInputError("a sequence needs at least a(0)")
        if self.values[0] != 1:
            raise InvalidInputError("a(0) must be 1 (the empty permutation)")
        if any(v < 0 for v in self.values):
            raise InvalidInputError("avoidance counts cannot be negative")
        if isinstance(self.pattern, Poset):
            # Below the pattern length nothing can be contained.
            for n in range(min(len(self.values), self.pattern.k)):
                if self.values[n] != factorial(n):
                    raise InvalidInputError(
                        f"a({n}) must be {n}! for a pattern of length "
                        f"{self.pattern.k}, got {self.values[n]}"
                    )

    @property
    def n_max(self) -> int:
        return len(self.values) - 1

    def __getitem__(self, n: int) -> int:
        return self.values[n]


def _check_cap(n: int, cap: int) -> None:
    if n < 0:
        raise InvalidInputError(f"negative length: {n}")
    if n > cap:
        raise ResourceLimitError(
            f"avoidance counting to length {n} exceeds cap {cap}; "
            "raise the cap explicitly if this is intended"
        )


def _avoider_counts(p: Poset, n_max: int) -> list[int]:
    """a(0..n_max) by one depth-first walk over the avoiding prefixes."""
    if p.k == 0:
        raise InvalidInputError(
            "the empty pattern occurs in every permutation"
        )
    k = p.k
    table = _slot_constraints(p)
    below = [s - 1 for s, smaller_first in table[k] if smaller_first]
    above = [s - 1 for s, smaller_first in table[k] if not smaller_first]
    counts = [0] * (n_max + 1)
    stack: list[tuple[int, ...]] = [()]
    while stack:
        prefix = stack.pop()
        m = len(prefix)
        counts[m] += 1
        if m == n_max:
            continue
        # Bit r set: appending rank r completes an occurrence.
        forbidden = 0
        for occ in _search(prefix, k - 1, table):
            lo = max((prefix[occ[s]] for s in below), default=0)
            hi = min((prefix[occ[s]] for s in above), default=m + 1)
            if lo < hi:
                forbidden |= (1 << (hi + 1)) - (1 << (lo + 1))
        for rank in range(1, m + 2):
            if not forbidden >> rank & 1:
                stack.append(
                    tuple(v if v < rank else v + 1 for v in prefix) + (rank,)
                )
    return counts


def count_avoiders(p: Poset, n: int, cap: int = DEFAULT_CAP) -> int:
    """Number of n-permutations with no occurrence of p."""
    _check_cap(n, cap)
    return _avoider_counts(p, n)[n]


def avoidance_sequence(p: Poset, n_max: int, cap: int = DEFAULT_CAP) -> CountSequence:
    """Exact counts a(0..n_max) for p-avoiding permutations."""
    _check_cap(n_max, cap)
    values = _avoider_counts(p, n_max)
    return CountSequence(pattern=p, values=tuple(values), source="brute-force")


def count_quasi_avoiders(p: Poset, n: int, cap: int = DEFAULT_CAP) -> int:
    """Number of n-permutations that contain p while their length-(n-1)
    prefix pattern avoids it.

    The n a(n-1) one-entry extensions of the avoiding (n-1)-prefixes are
    exactly the n-permutations whose prefix avoids p; a(n) of them avoid
    p too, so a*(n) = n a(n-1) - a(n).
    """
    if n < 1:
        raise InvalidInputError("quasi-avoidance needs length >= 1")
    _check_cap(n, cap)
    counts = _avoider_counts(p, n)
    return n * counts[n - 1] - counts[n]

"""Permutations in one-line notation.

A permutation of length n is a bijection on {1..n} written as the word
pi_1 pi_2 ... pi_n.  Everything downstream (pattern matching, avoidance
counting) works on these objects, so the elementary transformations live
here: reduction of an arbitrary distinct-entry sequence to its pattern,
the complement/reverse/inverse symmetries, and capped exhaustive
enumeration.

Values and positions are one-indexed throughout.
"""

from __future__ import annotations

import itertools
from typing import Iterator, Sequence

from .errors import InvalidInputError, ResourceLimitError

# 12! = 479,001,600 permutations: the largest exhaustive sweep we allow
# without an explicit override.
DEFAULT_CAP = 12


def _check_length(n: int) -> None:
    if n < 0:
        raise InvalidInputError(f"negative length: {n}")


def _check_cap(n: int, cap: int) -> None:
    """Reject a negative length, or one above cap (a factorial-time sweep)."""
    _check_length(n)
    if n > cap:
        raise ResourceLimitError(
            f"length {n} exceeds cap {cap}; "
            "raise the cap explicitly if this is intended"
        )


class Permutation:
    """An immutable permutation of {1..n} in one-line notation."""

    __slots__ = ("entries",)

    def __init__(self, entries: Sequence[int]):
        entries = tuple(entries)
        n = len(entries)
        if sorted(entries) != list(range(1, n + 1)):
            raise InvalidInputError(
                f"not a permutation of 1..{n}: {entries!r}"
            )
        object.__setattr__(self, "entries", entries)

    def __setattr__(self, name, value):
        raise AttributeError("Permutation is immutable")

    def __len__(self) -> int:
        return len(self.entries)

    def __iter__(self) -> Iterator[int]:
        return iter(self.entries)

    def __getitem__(self, i: int) -> int:
        return self.entries[i]

    def __eq__(self, other) -> bool:
        return isinstance(other, Permutation) and self.entries == other.entries

    def __hash__(self) -> int:
        return hash(self.entries)

    def __repr__(self) -> str:
        return f"Permutation({list(self.entries)!r})"

    def __str__(self) -> str:
        # Digits for short permutations, comma-separated beyond single
        # digits ("41253" vs "11,9,10,...").
        if len(self.entries) <= 9:
            return "".join(str(v) for v in self.entries)
        return ",".join(str(v) for v in self.entries)

    @classmethod
    def from_text(cls, text: str) -> "Permutation":
        """Parse the textual form produced by str()."""
        text = text.strip()
        if text == "":
            return cls(())
        if "," in text:
            parts = [p.strip() for p in text.split(",")]
        else:
            parts = list(text)
        try:
            values = [int(p) for p in parts]
        except ValueError as exc:
            raise InvalidInputError(f"bad permutation text {text!r}") from exc
        return cls(values)

    def complement(self) -> "Permutation":
        """Replace each value x by n+1-x."""
        n = len(self.entries)
        return Permutation(tuple(n + 1 - v for v in self.entries))

    def reverse(self) -> "Permutation":
        """Write the entries in reverse order."""
        return Permutation(self.entries[::-1])

    def inverse(self) -> "Permutation":
        """Group-theoretic inverse: position of each value."""
        n = len(self.entries)
        inv = [0] * n
        for pos, v in enumerate(self.entries, start=1):
            inv[v - 1] = pos
        return Permutation(inv)


def reduce(s: Sequence[int]) -> Permutation:
    """Order-isomorphic pattern of a distinct-entry sequence.

    The i-th smallest entry becomes i, e.g. (2,6,9,1,4) -> 24513.
    """
    s = tuple(s)
    if len(set(s)) != len(s):
        raise InvalidInputError(f"entries not distinct: {s!r}")
    rank = {v: i for i, v in enumerate(sorted(s), start=1)}
    return Permutation(tuple(rank[v] for v in s))


def complement(pi: Permutation) -> Permutation:
    return pi.complement()


def reverse(pi: Permutation) -> Permutation:
    return pi.reverse()


def inverse(pi: Permutation) -> Permutation:
    return pi.inverse()


def all_permutations(n: int, cap: int = DEFAULT_CAP) -> Iterator[Permutation]:
    """Yield all n! permutations of {1..n} in lexicographic order.

    Refuses n above the cap: the full sweep is factorial-time and a
    larger request is almost certainly a mistake rather than a plan.
    """
    _check_cap(n, cap)
    for entries in itertools.permutations(range(1, n + 1)):
        yield Permutation(entries)

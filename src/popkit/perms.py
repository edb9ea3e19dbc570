"""Permutations in one-line notation.

A permutation of length n is a bijection on {1..n} written as the word
pi_1 pi_2 ... pi_n.  Everything downstream (pattern matching, avoidance
counting) works on these objects, so the elementary transformations live
here: reduction of an arbitrary distinct-entry sequence to its pattern,
and the complement/reverse/inverse symmetries.  So do the length cap
and the integer rule, which every public type applies to the values it
holds.

Values and positions are one-indexed throughout.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, Sequence

from .errors import InvalidInputError, ResourceLimitError

# 12! = 479,001,600 permutations: the largest exhaustive sweep we allow
# without an explicit override.
DEFAULT_CAP = 12


def _is_int(value) -> bool:
    """The one integer rule: an int that is not a bool."""
    return isinstance(value, int) and not isinstance(value, bool)


def _check_int(what: str, value) -> None:
    """Reject a value that breaks the integer rule."""
    if not _is_int(value):
        raise InvalidInputError(f"{what} is not an integer: {value!r}")


def _check_ints(what: str, values: tuple) -> None:
    """Reject the first value of a tuple that breaks the integer rule.
    Plain ints, the common case, cost one C-level pass over their types."""
    if set(map(type, values)) <= {int}:
        return
    for v in values:
        _check_int(what, v)


def _check_length(n: int) -> None:
    """Reject a length that is not a non-negative int."""
    _check_int("length", n)
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


@dataclass(frozen=True)
class Permutation:
    """An immutable permutation of {1..n} in one-line notation."""

    entries: tuple[int, ...]

    def __post_init__(self):
        entries = tuple(self.entries)
        n = len(entries)
        for v in entries:
            _check_int("entry", v)
        if sorted(entries) != list(range(1, n + 1)):
            raise InvalidInputError(
                f"not a permutation of 1..{n}: {entries!r}"
            )
        object.__setattr__(self, "entries", entries)

    def __len__(self) -> int:
        return len(self.entries)

    def __iter__(self) -> Iterator[int]:
        return iter(self.entries)

    def __getitem__(self, i: int) -> int:
        return self.entries[i]

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


def _check_distinct(s: tuple[int, ...]) -> None:
    """Reject a sequence with a repeated entry: it has no pattern."""
    if len(set(s)) != len(s):
        raise InvalidInputError(f"entries not distinct: {s!r}")


def reduce(s: Sequence[int]) -> Permutation:
    """Order-isomorphic pattern of a distinct-entry sequence.

    The i-th smallest entry becomes i, e.g. (2,6,9,1,4) -> 24513.
    """
    s = tuple(s)
    _check_distinct(s)
    rank = {v: i for i, v in enumerate(sorted(s), start=1)}
    return Permutation(tuple(rank[v] for v in s))

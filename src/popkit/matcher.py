"""Occurrence search: does a permutation contain a given pattern?

An occurrence of a k-label pattern p in pi is a choice of positions
i_1 < ... < i_k such that pi(i_j) < pi(i_m) whenever label j is below
label m in p.  The search walks the labels in position order (slot 1 is
the leftmost occurrence position), extending a partial choice one
position at a time and pruning as soon as a decided pair violates a
relation.  The compiled plan is sized by the relations, not by k, so a
pattern far longer than pi costs nothing.  Worst case O(n^k), which is
fine at the pattern lengths that arise here (k <= 11).
"""

from __future__ import annotations

from typing import Iterator, Sequence

from .errors import InvalidInputError
from .perms import Permutation, _check_distinct
from .posets import Poset

# Search plan, one entry per slot s (1-based) that a relation names: the
# (earlier, smaller_first) checks decidable when slot s is placed, with
# earlier a 0-based slot index and smaller_first meaning "value at
# earlier < value here".  Its size is bounded by the relations, not k.
_Plan = dict[int, list[tuple[int, bool]]]


def _slot_constraints(p: Poset) -> _Plan:
    table: _Plan = {}
    for a, b in p.relations:
        if a < b:
            table.setdefault(b, []).append((a - 1, True))
        else:
            table.setdefault(a, []).append((b - 1, False))
    return table


def _search(pi: Permutation | Sequence[int], p: Poset) -> Iterator[tuple[int, ...]]:
    """Yield occurrences of p in pi as 0-based position tuples; ties are
    rejected."""
    values = tuple(pi)
    _check_distinct(values)
    n, k = len(values), p.k
    if k == 0:
        yield ()
        return
    if n < k:
        return
    table = _slot_constraints(p)
    chosen = [0] * k

    def extend(slot: int, start: int) -> Iterator[tuple[int, ...]]:
        checks = table.get(slot, ())
        for pos in range(start, n - (k - slot)):
            v = values[pos]
            for earlier, smaller_first in checks:
                if (values[chosen[earlier]] < v) != smaller_first:
                    break
            else:
                chosen[slot - 1] = pos
                if slot == k:
                    yield tuple(chosen)
                else:
                    yield from extend(slot + 1, pos + 1)

    yield from extend(1, 0)


def occurrences(pi: Permutation | Sequence[int], p: Poset) -> Iterator[tuple[int, ...]]:
    """Yield each occurrence of p in pi as a tuple of 1-based positions."""
    for chosen in _search(pi, p):
        yield tuple(pos + 1 for pos in chosen)


def contains(pi: Permutation | Sequence[int], p: Poset) -> bool:
    """True iff pi has at least one occurrence of p (short-circuits)."""
    return next(_search(pi, p), None) is not None


def avoids(pi: Permutation | Sequence[int], p: Poset) -> bool:
    """True iff pi has no occurrence of p."""
    return not contains(pi, p)


def count_occurrences(pi: Permutation | Sequence[int], p: Poset) -> int:
    """Number of position subsets forming occurrences of p in pi."""
    return sum(1 for _ in _search(pi, p))


def quasi_avoids(pi: Permutation | Sequence[int], p: Poset) -> bool:
    """True iff pi contains p but its one-shorter prefix pattern does not.

    Containment depends only on relative order, so the raw prefix
    pi_1..pi_{n-1} answers for its pattern without being reduced.
    """
    values = tuple(pi)
    if not values:
        raise InvalidInputError("quasi-avoidance needs a nonempty permutation")
    return contains(values, p) and avoids(values[:-1], p)

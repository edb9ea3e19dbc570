"""Occurrence search: does a permutation contain a given pattern?

An occurrence of a k-label pattern p in pi is a choice of positions
i_1 < ... < i_k such that pi(i_j) < pi(i_m) whenever label j is below
label m in p.  The search walks the labels in position order (slot 1 is
the leftmost occurrence position), extending a partial choice one
position at a time and pruning as soon as a decided pair violates a
relation.  Worst case O(n^k), which is fine at the pattern lengths that
arise here (k <= 11).
"""

from __future__ import annotations

from typing import Iterator, Sequence

from .errors import InvalidInputError
from .perms import Permutation, reduce as _reduce
from .posets import Poset

# Constraint table: for each slot s (1-based), the list of
# (earlier_slot, smaller_first) checks that become decidable when slot s
# is placed.  smaller_first means "value at earlier_slot < value here".
_ConstraintTable = list[list[tuple[int, bool]]]


def _slot_constraints(p: Poset) -> _ConstraintTable:
    table: _ConstraintTable = [[] for _ in range(p.k + 1)]
    for a, b in p.relations:
        if a < b:
            table[b].append((a, True))
        else:
            table[a].append((b, False))
    return table


def _search(
    values: Sequence[int],
    k: int,
    table: _ConstraintTable,
) -> Iterator[tuple[int, ...]]:
    """Yield occurrences as 0-based position tuples."""
    n = len(values)
    if k == 0:
        yield ()
        return
    if n < k:
        return
    chosen = [0] * k

    def extend(slot: int, start: int) -> Iterator[tuple[int, ...]]:
        for pos in range(start, n - (k - slot)):
            v = values[pos]
            ok = True
            for earlier, smaller_first in table[slot]:
                ev = values[chosen[earlier - 1]]
                if (ev < v) != smaller_first:
                    ok = False
                    break
            if not ok:
                continue
            chosen[slot - 1] = pos
            if slot == k:
                yield tuple(chosen)
            else:
                yield from extend(slot + 1, pos + 1)

    yield from extend(1, 0)


def occurrences(pi: Permutation | Sequence[int], p: Poset) -> Iterator[tuple[int, ...]]:
    """Yield each occurrence of p in pi as a tuple of 1-based positions."""
    values = tuple(pi)
    table = _slot_constraints(p)
    for chosen in _search(values, p.k, table):
        yield tuple(pos + 1 for pos in chosen)


def contains(pi: Permutation | Sequence[int], p: Poset) -> bool:
    """True iff pi has at least one occurrence of p (short-circuits)."""
    values = tuple(pi)
    table = _slot_constraints(p)
    for _ in _search(values, p.k, table):
        return True
    return False


def avoids(pi: Permutation | Sequence[int], p: Poset) -> bool:
    """True iff pi has no occurrence of p."""
    return not contains(pi, p)


def count_occurrences(pi: Permutation | Sequence[int], p: Poset) -> int:
    """Number of position subsets forming occurrences of p in pi."""
    values = tuple(pi)
    table = _slot_constraints(p)
    return sum(1 for _ in _search(values, p.k, table))


def quasi_avoids(pi: Permutation | Sequence[int], p: Poset) -> bool:
    """True iff pi contains p but its one-shorter prefix pattern does not.

    The prefix check reduces pi_1..pi_{n-1} to a permutation first, so
    the question is about the pattern of the prefix, not its raw values.
    """
    values = tuple(pi)
    if not values:
        raise InvalidInputError("quasi-avoidance needs a nonempty permutation")
    if not contains(values, p):
        return False
    return avoids(_reduce(values[:-1]), p)

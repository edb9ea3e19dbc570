"""Exact avoidance counting by a walk over merged prefix states.

Permutations are built one entry at a time, left to right, in reduced
form: a prefix of length m is a permutation of {1..m}, and appending an
entry of rank r bumps the existing values >= r up by one.  Containment
is hereditary (deleting an entry never creates an occurrence), so every
avoider of length n extends an avoider of length n-1.

What a prefix can still become depends only on its partial occurrences
of the pattern p of length k: choices of slots 1..j (j < k) on entries
of the prefix.  Each one is kept as a summary: j, and for every later
slot s that some relation names a window (lo, hi] of the ranks a new
entry may take there, lo being the largest value at a matched slot below
s (0 if none) and hi the smallest at a matched slot above s (m+1 if
none).  The state of a prefix is the set of its summaries, and prefixes
with equal states have the same future, so the walk keeps, for each
length m, only a map from state to the number of avoiding prefixes it
stands for.  a(m) is the sum of that map's values.

Appending rank r shifts each bound b to b + (b >= r).  A summary whose
window for slot j+1 holds r also extends to slot j+1 on the new entry,
whose value r tightens the windows of the later slots it relates to.
A child in which some summary completes slot k contains p and is
dropped.  No window ever empties, because p is stored transitively
closed.  When slot s takes rank r, take a later slot t above s: every
matched slot above t is above s too, so r <= hi_s <= hi_t before the
shift and r < hi_t after it, and the shift keeps lo_t < hi_t, so t's
new window (max(lo_t, r), hi_t] is not empty.  Later slots below s
mirror this.  Three prunings keep the states few:

1. a summary whose windows fit, one by one, inside those of another
   summary with the same j completes only where the other does too, and
   is dropped;
2. a summary that needs more entries (k - j) than the walk will still
   append is dropped;
3. the last level is never built: each state's avoiding children are
   counted from the bitmask of ranks that complete p, so that level
   builds only these forbid masks and no moves.

A state with no summary left is empty, and its m + 1 children are all
avoiders in the empty state again.  By pruning 2 the first level of a
pattern longer than n_max holds only the empty state, so such a pattern
costs no walk at all: a(m) = m!.

The walk holds one level and the level it is building, nothing more.
Within a level the summaries are numbered and a state is a bitmask over
them, so each state costs one integer next to its count.  The moves of
each summary are worked out once per level, not once per state, and
once per rank interval, not once per rank: every rank between two
consecutive bounds of a summary shifts its bounds alike.  Pruning 1 is
computed from per-coordinate threshold masks, the members whose lower
bound is at least v and those whose upper bound is at most v, so it
costs a few big-int ANDs per summary, not a comparison per pair.

Quasi-avoiders (p occurs, but not in the one-shorter prefix) come from
the same counts: a*(n) = n a(n-1) - a(n).

The exact counts these routines produce are the ground truth against
which every closed form in the package is checked.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import factorial

from .errors import InvalidInputError
from .perms import DEFAULT_CAP, _check_cap, _check_ints
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
        _check_ints("count", self.values)
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


def _bits(mask: int) -> list[int]:
    """Indices of the set bits of mask, lowest first."""
    out = []
    while mask:
        low = mask & -mask
        out.append(low.bit_length() - 1)
        mask ^= low
    return out


def _covers(summaries: list, group: list[int], dims: int) -> dict[int, int]:
    """For each summary a of group (indices into summaries, all with the
    same j), the bitmask of the other members whose windows fit, one by
    one, inside a's.

    Per coordinate c, at_least[v] holds the members whose lower bound is
    at least v, and at_most[v] those whose upper bound is at most v; b
    fits inside a when it is in at_least[lows_a[c]] & at_most[highs_a[c]]
    at every c.  That takes O(|group| dims) big-int ANDs, not |group|^2
    comparisons of tuples.
    """
    masks = dict.fromkeys(group, sum(1 << a for a in group))
    for c in range(dims):
        at_least, at_most = {}, {}
        for a in group:
            _, lows, highs = summaries[a]
            at_least[lows[c]] = at_least.get(lows[c], 0) | 1 << a
            at_most[highs[c]] = at_most.get(highs[c], 0) | 1 << a
        # Suffix ORs over the lower bounds, prefix ORs over the upper.
        for table, descending in ((at_least, True), (at_most, False)):
            acc = 0
            for v in sorted(table, reverse=descending):
                acc = table[v] = acc | table[v]
        for a in group:
            _, lows, highs = summaries[a]
            masks[a] &= at_least[lows[c]] & at_most[highs[c]]
    return {a: mask & ~(1 << a) for a, mask in masks.items()}


def _avoider_counts(p: Poset, n_max: int) -> list[int]:
    """a(0..n_max) by one walk over the states of each length."""
    if p.k == 0:
        raise InvalidInputError(
            "the empty pattern occurs in every permutation"
        )
    counts = [1] + [0] * n_max
    if p.k > n_max:
        # Pruning 2 leaves only the empty state: a(m) = m!.
        for n in range(1, n_max + 1):
            counts[n] = counts[n - 1] * n
        return counts
    k = p.k
    named = sorted({s for pair in p.relations for s in pair})
    index = {s: i for i, s in enumerate(named)}
    # The later slots whose windows a value at slot s tightens: from
    # below when s is below them, from above when they are below s.
    raises: list[list[int]] = [[] for _ in range(k + 1)]
    lowers: list[list[int]] = [[] for _ in range(k + 1)]
    for a, b in p.relations:
        if a < b:
            raises[a].append(index[b])
        else:
            lowers[b].append(index[a])

    # One level: its summaries, and the number of prefixes of each state,
    # a bitmask over those summaries.
    summaries = [(0, (0,) * len(named), (1,) * len(named))]
    level = {1: 1}
    for m in range(n_max):
        # A child summary needs k - j more entries; n_max - m - 1 remain.
        j_min = k - (n_max - m - 1)
        ids: dict[tuple, int] = {}
        forbids = []  # bit r: appending rank r completes p
        moves = []  # per rank: the child summaries, as a bitmask
        for j, lows, highs in summaries:
            # Slot j + 1 takes a rank in (lo, hi]: there it completes p,
            # or extends the summary if the walk can still complete p.
            s = j + 1
            i = index.get(s)
            lo, hi = (0, m + 1) if i is None else (lows[i], highs[i])
            forbids.append((1 << hi + 1) - (1 << lo + 1) if s == k else 0)
            if m == n_max - 1:
                continue
            row, prev = [], 0
            for edge in sorted({b for b in lows + highs if b} | {m + 1}):
                # Every rank r in (prev, edge] shifts the same bounds,
                # and lies in (lo, hi] exactly when edge does.
                lows_r = tuple(b + (b >= edge) for b in lows)
                highs_r = tuple(b + (b >= edge) for b in highs)
                kept = 0
                if j >= j_min:
                    kept = 1 << ids.setdefault((j, lows_r, highs_r), len(ids))
                if j_min <= s < k and lo < edge <= hi:
                    # The new entry, of value r, tightens the later
                    # windows; none empties, since p is closed (docstring).
                    lows_s, highs_s = list(lows_r), list(highs_r)
                    if i is not None:
                        lows_s[i] = highs_s[i] = 0
                    for r in range(prev + 1, edge + 1):
                        for t in raises[s]:
                            lows_s[t] = max(lows_r[t], r)
                        for t in lowers[s]:
                            highs_s[t] = min(highs_r[t], r)
                        child = (s, tuple(lows_s), tuple(highs_s))
                        row.append(kept | 1 << ids.setdefault(child, len(ids)))
                else:
                    row += [kept] * (edge - prev)
                prev = edge
            moves.append(row)
        if m == n_max - 1:
            # The last level is only counted, never built.
            for state, count in level.items():
                forbid = 0
                for i in _bits(state):
                    forbid |= forbids[i]
                counts[n_max] += count * (n_max - forbid.bit_count())
            break
        summaries = list(ids)
        # covers[i]: the summaries whose windows fit inside summary i's.
        by_j: dict[int, list[int]] = {}
        for i, summary in enumerate(summaries):
            by_j.setdefault(summary[0], []).append(i)
        covers: dict[int, int] = {}
        for group in by_j.values():
            covers.update(_covers(summaries, group, len(named)))
        # Pair each move with the summaries its own summaries cover.
        redundant: dict[int, int] = {}
        for row in moves:
            for kids in row:
                if kids not in redundant:
                    redundant[kids] = 0
                    for i in _bits(kids):
                        redundant[kids] |= covers[i]
        moves = [[(kids, redundant[kids]) for kids in row] for row in moves]
        children: dict[int, int] = {}
        for state, count in level.items():
            mine = _bits(state)
            forbid = 0
            for i in mine:
                forbid |= forbids[i]
            rows = [moves[i] for i in mine]
            for r in range(1, m + 2):
                if forbid >> r & 1:
                    continue
                child = covered = 0
                for row in rows:
                    kids, kills = row[r - 1]
                    child |= kids
                    covered |= kills
                child &= ~covered
                children[child] = children.get(child, 0) + count
        level = children
        counts[m + 1] = sum(level.values())
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

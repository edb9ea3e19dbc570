"""The depth-first counting walk, kept as a test oracle for the engine.

It visits every avoiding prefix and asks the public matcher for the
occurrences of slots 1..k-1 in it, so it shares no code with counting's
state walk.  The test modules import it; pytest does not collect it.
"""

from popkit.matcher import occurrences
from popkit.posets import Poset


def dfs_avoider_counts(p, n_max):
    """a(0..n_max) by a depth-first walk over the avoiding prefixes.

    A prefix of length m is a permutation of {1..m}; appending rank r
    bumps the values >= r.  Since the prefix avoids p, an occurrence in
    a child puts slot k on the new entry, so each occurrence of slots
    1..k-1 forbids the ranks r with

        max(values at slots below k) < r <= min(values at slots above k),

    the maximum of no values being 0 and the minimum of none m+1.
    """
    k = p.k
    # Slots 1..k-1 of p: the restriction of a closed order is closed.
    head = Poset(k - 1, frozenset(r for r in p.relations if max(r) < k))
    below = [a for a, b in p.relations if b == k]
    above = [b for a, b in p.relations if a == k]
    counts = [0] * (n_max + 1)
    stack = [()]
    while stack:
        prefix = stack.pop()
        m = len(prefix)
        counts[m] += 1
        if m == n_max:
            continue
        # Bit r set: appending rank r completes an occurrence.
        forbidden = 0
        for occ in occurrences(prefix, head):
            lo = max((prefix[occ[s - 1] - 1] for s in below), default=0)
            hi = min((prefix[occ[s - 1] - 1] for s in above), default=m + 1)
            if lo < hi:
                forbidden |= (1 << (hi + 1)) - (1 << (lo + 1))
        for rank in range(1, m + 2):
            if not forbidden >> rank & 1:
                stack.append(
                    tuple(v if v < rank else v + 1 for v in prefix) + (rank,)
                )
    return counts

"""Patterns the benchmark draws from, built without popkit.

Each Pattern carries the notation string handed to popkit and the cover
relations the oracles use, written down here from the definition of each
kind.  The pools list the candidates a seed may pick for one job slot.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass


@dataclass(frozen=True)
class Pattern:
    text: str
    k: int
    relations: frozenset  # (a, b): value at slot a below value at slot b


def chain(word: str) -> Pattern:
    k = len(word)
    rels = frozenset(
        (i + 1, j + 1) for i in range(k) for j in range(k) if word[i] < word[j]
    )
    return Pattern(f"chain:{word}", k, rels)


def cb(k: int, top: tuple[int, ...]) -> Pattern:
    """Complete bipartite: every label outside top below every label in it."""
    rels = frozenset((b, a) for b in range(1, k + 1) if b not in top for a in top)
    return Pattern("cb:%d:{%s}" % (k, ",".join(map(str, sorted(top)))), k, rels)


def npat(word: str) -> Pattern:
    w1, w2, w3, w4 = (int(c) for c in word)
    return Pattern(f"n:{word}", 4, frozenset({(w1, w2), (w3, w2), (w3, w4)}))


def zz(shape: str, word: str) -> Pattern:
    labels = [int(c) for c in word]
    rels = set()
    for i, step in enumerate(shape):
        a, b = labels[i], labels[i + 1]
        rels.add((a, b) if step == "^" else (b, a))
    return Pattern(f"zz:{shape}:{word}", len(word), frozenset(rels))


def dc(words: list[str]) -> Pattern:
    """Disjoint chains; each word lists its labels from top to bottom and
    the words together cover 1..k, so the letters are the labels."""
    rels = set()
    for w in words:
        labels = [int(c) for c in w]
        for i, upper in enumerate(labels):
            for lower in labels[i + 1 :]:
                rels.add((lower, upper))
    k = sum(len(w) for w in words)
    return Pattern("dc:[%s]" % "|".join(words), k, frozenset(rels))


def rel(k: int, pairs: list[tuple[int, int]]) -> Pattern:
    text = "rel:%d:{%s}" % (k, ",".join(f"({a},{b})" for a, b in pairs))
    return Pattern(text, k, frozenset(pairs))


# Each pool lists the candidates for one job slot.  The members of a pool
# cost about the same (within about ten percent on one core), so the seed
# changes the inputs but hardly the amount of work.

S3_POOL = [chain(w) for w in ("123", "132", "321")]

# Classical patterns of length 4, counted at n = 8.
CHAIN4_POOL = [chain(w) for w in (
    "2134", "2314", "3142", "3214", "3241", "3421", "4231", "4312",
)]

# Alternating paths on five labels at n = 8; the first is the word whose
# recorded test fixture disagrees with search.
ZZ_POOL = [zz("^v^v", "31425"), zz("^v^v", "34521"), zz("^v^v", "34215")]

# Raw relation sets on five labels at n = 8, with a(8) of 13017 and 14966.
REL_POOL = [
    rel(5, [(2, 5), (2, 3), (1, 4), (5, 4)]),
    rel(5, [(1, 2), (4, 2), (2, 5)]),
]

# Length-4 path patterns: N-class1 words for seq at n = 9, and N-class2 or
# N-class3 words for count --quasi at n = 8.
N_CLASS1_POOL = ["4312", "3421", "3412", "3214", "4123"]
N_QUASI_POOL = ["2314", "4132", "2413", "1423", "3142", "2431", "3241"]

N_WORDS = ["".join(w) for w in itertools.permutations("1234")]

# Patterns with no named generator, and how far their stored reference
# values go.
REFERENCE_TARGETS = (
    [(p, 8) for p in CHAIN4_POOL + ZZ_POOL + REL_POOL]
    + [(npat(w), 6) for w in N_WORDS]
    + [(cb(5, (1, 5)), 8)]
)

"""Empirical Wilf-equivalence classification of pattern families.

Two patterns are Wilf-equivalent when their avoidance counts agree for
every length.  The classifier computes exact counts up to a chosen
length and partitions a family by that prefix; equal prefixes are
strong evidence, never proof, and every report carries that caveat.
Label-complement and order-dual images are provably equivalent, so
counts are computed once per symmetry orbit.
"""

from __future__ import annotations

from dataclasses import dataclass

from .counting import avoidance_sequence
from .notation import CbSpec, NSpec, poset_text, render_pop
from .perms import DEFAULT_CAP, Permutation
from .posets import (
    PatternFamily,
    Poset,
    complete_bipartite,
    label_complement,
    n_pattern,
    vertical_flip,
)

import itertools

CAVEAT = (
    "equal counting prefixes are evidence of Wilf-equivalence, not proof"
)


def symmetry_orbit(p: Poset) -> frozenset[Poset]:
    """Closure of p under label complement and order dual (size 1, 2, or 4).

    The two maps are commuting involutions, so together they generate
    only {identity, complement, dual, complement of dual}; the images of
    p under these four are the whole orbit.
    """
    c = label_complement(p)
    return frozenset((p, c, vertical_flip(p), vertical_flip(c)))


@dataclass(frozen=True)
class WilfClass:
    """One empirical class: the shared counts and who realizes them."""

    prefix: tuple[int, ...]
    members: tuple[Poset, ...]
    member_names: tuple[str, ...]
    orbit_representatives: tuple[Poset, ...]

    @property
    def size(self) -> int:
        return len(self.members)


@dataclass(frozen=True)
class WilfReport:
    """Partition of a family by counting-sequence prefix a(0..n_max)."""

    family: str
    n_max: int
    classes: tuple[WilfClass, ...]
    caveat: str = CAVEAT


def classify(
    family: PatternFamily, n_max: int = 9, cap: int = DEFAULT_CAP
) -> WilfReport:
    """Group the family by exact counts a(0..n_max).

    Counts are computed once per symmetry orbit, so provably equivalent
    members can never be separated.  Classes are ordered by prefix,
    members and orbit representatives by canonical text; the report is
    deterministic.
    """
    names = family.display_names or tuple(
        poset_text(p) for p in family.members
    )

    rep_of: dict[Poset, Poset] = {}
    prefix_of: dict[Poset, tuple[int, ...]] = {}
    for p in family.members:
        if p not in rep_of:
            orbit = symmetry_orbit(p)
            rep = min(orbit, key=poset_text)
            rep_of.update(dict.fromkeys(orbit, rep))
            prefix_of[rep] = tuple(avoidance_sequence(p, n_max, cap=cap).values)

    grouped: dict[tuple[int, ...], list[int]] = {}
    for idx, p in enumerate(family.members):
        grouped.setdefault(prefix_of[rep_of[p]], []).append(idx)

    classes = []
    for prefix in sorted(grouped):
        ordered = sorted(grouped[prefix], key=lambda i: names[i])
        members = tuple(family.members[i] for i in ordered)
        classes.append(
            WilfClass(
                prefix=prefix,
                members=members,
                member_names=tuple(names[i] for i in ordered),
                orbit_representatives=tuple(
                    sorted({rep_of[p] for p in members}, key=poset_text)
                ),
            )
        )
    return WilfReport(family=family.name, n_max=n_max, classes=tuple(classes))


def n_pattern_family() -> PatternFamily:
    """All 24 length-4 path patterns, one per word."""
    members = []
    names = []
    for word in itertools.permutations((1, 2, 3, 4)):
        members.append(n_pattern(Permutation(word)))
        names.append(render_pop(NSpec(word)))
    return PatternFamily(
        name="npatterns",
        members=tuple(members),
        display_names=tuple(names),
    )


def cb_family(k: int, a_size: int) -> PatternFamily:
    """All complete bipartite patterns of length k with |upper set| = a_size."""
    members = []
    names = []
    for a_set in itertools.combinations(range(1, k + 1), a_size):
        members.append(complete_bipartite(k, a_set))
        names.append(render_pop(CbSpec(k, a_set)))
    return PatternFamily(
        name=f"cb:{k}:{a_size}",
        members=tuple(members),
        display_names=tuple(names),
    )

"""Empirical Wilf-equivalence classification of pattern families.

Two patterns are Wilf-equivalent when their avoidance counts agree for
every length.  The classifier computes exact counts up to a chosen
length and partitions a family by that prefix; equal prefixes are
strong evidence, never proof, and every report carries that caveat.
Label-complement and order-dual images are provably equivalent, so
counts are computed once per symmetry orbit.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Sequence

from .counting import avoidance_sequence
from .errors import InvalidInputError
from .notation import CbSpec, NSpec, PopSpec, build_pop, poset_text, render_pop
from .perms import DEFAULT_CAP, _check_int
from .posets import PatternFamily, Poset, label_complement, vertical_flip

DEFAULT_NMAX = 9

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
    family: PatternFamily, n_max: int = DEFAULT_NMAX, cap: int = DEFAULT_CAP
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
    rep_text: dict[Poset, str] = {}
    prefix_of: dict[Poset, tuple[int, ...]] = {}
    for p in family.members:
        if p not in rep_of:
            text = {q: poset_text(q) for q in symmetry_orbit(p)}
            rep = min(text, key=text.get)
            rep_of.update(dict.fromkeys(text, rep))
            rep_text[rep] = text[rep]
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
                    sorted({rep_of[p] for p in members}, key=rep_text.get)
                ),
            )
        )
    return WilfReport(family=family.name, n_max=n_max, classes=tuple(classes))


def _spec_family(name: str, specs: Sequence[PopSpec]) -> PatternFamily:
    """A family built from notation ASTs, each named by its canonical text."""
    return PatternFamily(
        name=name,
        members=tuple(build_pop(s) for s in specs),
        display_names=tuple(render_pop(s) for s in specs),
    )


def n_pattern_family() -> PatternFamily:
    """All 24 length-4 path patterns, one per word."""
    words = itertools.permutations((1, 2, 3, 4))
    return _spec_family("npatterns", [NSpec(w) for w in words])


def cb_family(k: int, a_size: int) -> PatternFamily:
    """All complete bipartite patterns of length k with |upper set| = a_size."""
    _check_int("size", k)
    _check_int("upper set size", a_size)
    if a_size < 0:
        raise InvalidInputError(f"negative upper set size: {a_size}")
    a_sets = itertools.combinations(range(1, k + 1), a_size)
    return _spec_family(f"cb:{k}:{a_size}", [CbSpec(k, a) for a in a_sets])

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
from .notation import CbSpec, NSpec, PopSpec, _rel_text, build_pop, render_pop
from .perms import DEFAULT_CAP, _check_int
from .posets import (
    Pair, PatternFamily, Poset, _trusted, label_complement, vertical_flip,
)

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


def _complement_pairs(k: int, pairs: list[Pair]) -> list[Pair]:
    """Label complement of a sorted pair list, still sorted: x -> k+1-x
    reverses the order of the labels, so it reverses the list's order."""
    return [(k + 1 - a, k + 1 - b) for a, b in reversed(pairs)]


def _other_images(k: int, pairs: list[Pair]) -> tuple[list[Pair], ...]:
    """Sorted relation lists of the label complement, the order dual and
    the dual's complement of the poset whose sorted list is pairs.  The
    complement of either orbit half is its list mapped and reversed, so
    the order dual costs the only sort."""
    dual = sorted((b, a) for a, b in pairs)
    return _complement_pairs(k, pairs), dual, _complement_pairs(k, dual)


@dataclass(frozen=True)
class WilfClass:
    """One empirical class: the shared counts and who realizes them.

    representative_names[i] is the canonical text of
    orbit_representatives[i].
    """

    prefix: tuple[int, ...]
    members: tuple[Poset, ...]
    member_names: tuple[str, ...]
    orbit_representatives: tuple[Poset, ...]
    representative_names: tuple[str, ...]

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
    members can never be separated.  An orbit is keyed by its
    representative, the image with the least canonical text.  Each
    member's relations are sorted once; a member in an orbit not yet
    seen adds its order dual, sorted once more, and the texts of all
    four images come from those two lists.  A representative that is
    not a member is built from its list.  Classes are ordered by prefix,
    members and orbit representatives by canonical text; the report is
    deterministic.
    """
    k = family.members[0].k
    texts = []
    rep_of: dict[str, str] = {}  # image text -> its representative's text
    orbits: dict[str, tuple[list[Pair], tuple[int, ...]]] = {}  # pairs, prefix
    grouped: dict[tuple[int, ...], list[int]] = {}  # prefix -> member indices
    for i, p in enumerate(family.members):
        pairs = sorted(p.relations)
        text = _rel_text(k, pairs)
        rep = rep_of.get(text)
        if rep is None:
            images = {text: pairs}
            for q in _other_images(k, pairs):
                images[_rel_text(k, q)] = q
            rep = min(images)
            rep_of.update(dict.fromkeys(images, rep))
            orbits[rep] = images[rep], avoidance_sequence(p, n_max, cap=cap).values
        texts.append(text)
        grouped.setdefault(orbits[rep][1], []).append(i)
    names = family.display_names or texts
    member_of = dict(zip(texts, family.members))
    reps_of: dict[tuple[int, ...], list[str]] = {}  # prefix -> representatives
    for rep, (_, prefix) in orbits.items():
        reps_of.setdefault(prefix, []).append(rep)

    classes = []
    for prefix in sorted(grouped):
        ordered = sorted(grouped[prefix], key=lambda i: names[i])
        reps = sorted(reps_of[prefix])
        classes.append(
            WilfClass(
                prefix=prefix,
                members=tuple(family.members[i] for i in ordered),
                member_names=tuple(names[i] for i in ordered),
                orbit_representatives=tuple(
                    member_of[r] if r in member_of else _trusted(k, orbits[r][0])
                    for r in reps
                ),
                representative_names=tuple(reps),
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

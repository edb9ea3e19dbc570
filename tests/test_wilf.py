import itertools
import random

import pytest

from popkit import (
    InvalidInputError,
    PatternFamily,
    avoidance_sequence,
    cb_family,
    chain,
    classify,
    complete_bipartite,
    from_relations,
    label_complement,
    n_pattern,
    n_pattern_family,
    poset_text,
    symmetry_orbit,
    vertical_flip,
)


def frontier_orbit(p):
    """Reference orbit by search: apply both maps until nothing is new."""
    orbit = {p}
    frontier = [p]
    while frontier:
        q = frontier.pop()
        for image in (label_complement(q), vertical_flip(q)):
            if image not in orbit:
                orbit.add(image)
                frontier.append(image)
    return frozenset(orbit)


def seeded_posets(count, seed=20261018):
    """Random posets on k <= 5 labels from seeded linear extensions."""
    rng = random.Random(seed)
    for _ in range(count):
        k = rng.randint(1, 5)
        order = list(range(1, k + 1))
        rng.shuffle(order)
        pairs = [
            (order[i], order[j])
            for i in range(k)
            for j in range(i + 1, k)
            if rng.random() < 0.4
        ]
        yield from_relations(k, pairs)


def reference_classes(family, n_max):
    """(prefix, names, members) per class, every member counted directly."""
    names = family.display_names or tuple(
        poset_text(p) for p in family.members
    )
    grouped = {}
    for name, p in zip(names, family.members):
        prefix = avoidance_sequence(p, n_max).values
        grouped.setdefault(prefix, []).append((name, p))
    classes = []
    for prefix in sorted(grouped):
        ordered = sorted(grouped[prefix], key=lambda pair: pair[0])
        classes.append(
            (
                prefix,
                tuple(name for name, _ in ordered),
                tuple(p for _, p in ordered),
            )
        )
    return classes


class TestSymmetryOrbit:
    def test_four_element_orbit(self):
        assert len(symmetry_orbit(n_pattern((2, 1, 3, 4)))) == 4

    def test_two_element_orbit(self):
        # this word's complement equals its own reverse, halving the orbit
        assert len(symmetry_orbit(n_pattern((2, 1, 4, 3)))) == 2

    def test_orbit_is_closed(self):
        orbit = symmetry_orbit(n_pattern((3, 1, 2, 4)))
        for q in orbit:
            assert label_complement(q) in orbit
            assert vertical_flip(q) in orbit

    def test_contains_original(self):
        p = chain((1, 2, 3))
        assert p in symmetry_orbit(p)

    def test_closed_form_equals_search(self):
        posets = itertools.chain(
            n_pattern_family().members,
            cb_family(6, 3).members,
            seeded_posets(30),
        )
        for p in posets:
            assert symmetry_orbit(p) == frontier_orbit(p)

    def test_orbit_members_share_counts(self):
        p = n_pattern((3, 1, 2, 4))
        base = avoidance_sequence(p, 6).values
        for q in symmetry_orbit(p):
            assert avoidance_sequence(q, 6).values == base


class TestFamilies:
    def test_n_family_has_24_members(self):
        fam = n_pattern_family()
        assert len(fam.members) == 24
        assert fam.display_names[0] == "n:1234"
        assert all(p.k == 4 for p in fam.members)

    def test_cb_family_sizes(self):
        assert len(cb_family(5, 2).members) == 10
        assert len(cb_family(4, 1).members) == 4

    def test_cb_family_bad_subset_size(self):
        with pytest.raises(InvalidInputError):
            cb_family(4, 0)
        with pytest.raises(InvalidInputError):
            cb_family(4, 4)


class TestClassify:
    def test_path_patterns_three_classes(self):
        report = classify(n_pattern_family(), n_max=8)
        assert [cls.size for cls in report.classes] == [14, 8, 2]

    def test_class_prefixes_diverge_at_five(self):
        report = classify(n_pattern_family(), n_max=8)
        fifth = [cls.prefix[5] for cls in report.classes]
        assert fifth == [59, 60, 61]

    def test_members_sorted_and_prefixes_shared(self):
        report = classify(n_pattern_family(), n_max=7)
        for cls in report.classes:
            assert list(cls.member_names) == sorted(cls.member_names)
            for member in cls.members:
                assert avoidance_sequence(member, 7).values == cls.prefix

    def test_classes_sorted_by_prefix(self):
        report = classify(n_pattern_family(), n_max=7)
        prefixes = [cls.prefix for cls in report.classes]
        assert prefixes == sorted(prefixes)

    def test_single_class_family(self):
        report = classify(cb_family(4, 1), n_max=7)
        assert len(report.classes) == 1
        assert report.classes[0].size == 4
        assert report.classes[0].prefix == (1, 1, 2, 6, 18, 54, 162, 486)

    def test_exceptional_pair_splits_off(self):
        report = classify(cb_family(5, 2), n_max=7)
        assert len(report.classes) == 2
        small = min(report.classes, key=lambda c: c.size)
        assert set(small.member_names) == {"cb:5:{1,4}", "cb:5:{2,5}"}
        assert small.prefix[7] == 2364

    def test_caveat_present(self):
        report = classify(n_pattern_family(), n_max=6)
        assert "not proof" in report.caveat

    def test_orbit_representatives_cover_members(self):
        report = classify(n_pattern_family(), n_max=7)
        for cls in report.classes:
            covered = set()
            for rep in cls.orbit_representatives:
                covered |= symmetry_orbit(rep)
            assert set(cls.members) <= covered

    def test_deterministic(self):
        a = classify(n_pattern_family(), n_max=7)
        b = classify(n_pattern_family(), n_max=7)
        assert a == b

    def test_ad_hoc_family(self):
        fam = PatternFamily(
            "pair", (chain((1, 2, 3)), chain((3, 2, 1)))
        )
        report = classify(fam, n_max=7)
        assert len(report.classes) == 1  # mirror images are one class

    @pytest.mark.parametrize(
        "family, n_max",
        [
            (n_pattern_family(), 7),
            (cb_family(5, 2), 6),
            (cb_family(6, 3), 5),
            (
                PatternFamily(
                    "ad-hoc",
                    (
                        chain((1, 2, 3)),
                        chain((3, 2, 1)),
                        chain((1, 3, 2)),
                        complete_bipartite(3, {1}),
                        from_relations(3, [(1, 3)]),
                        chain((1, 2, 3)),
                    ),
                ),
                7,
            ),
        ],
    )
    def test_matches_direct_classifier(self, family, n_max):
        report = classify(family, n_max=n_max)
        got = [
            (cls.prefix, cls.member_names, cls.members)
            for cls in report.classes
        ]
        assert got == reference_classes(family, n_max)
        for cls in report.classes:
            reps = {min(symmetry_orbit(m), key=poset_text) for m in cls.members}
            assert cls.orbit_representatives == tuple(
                sorted(reps, key=poset_text)
            )

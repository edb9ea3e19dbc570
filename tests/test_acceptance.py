"""Acceptance gate: twelve end-to-end checks, one test per criterion.

Every comparison here is exact integer equality. Brute-force work stays
within length 8 (length 7 for patterns of size 6 or more), which keeps
the whole file fast. Each test prints one pass/fail line under -v.
"""

from itertools import permutations

from oracles import naive_occurrences
from poset_gen import seeded_posets
from popkit import (
    TruncatedEgf,
    avoidance_sequence,
    bipartite_dc_closed_form,
    chain,
    classify,
    complete_bipartite,
    contains,
    count_occurrences,
    count_quasi_avoiders,
    dc_pop,
    dc_pop_egf,
    egf_exp,
    from_relations,
    label_complement,
    n_class1,
    n_class1_closed_form,
    n_class1_gf,
    n_class2,
    n_class2_binomial_sum,
    n_class2_gf,
    n_class3,
    n_pattern,
    n_pattern_family,
    gf_coefficients,
    reduce,
    thm_b1_gf,
    thm_b2_gf,
    theorem_sequence,
    thm_general1,
    thm_long_answer,
    vertical_flip,
    zigzag,
)


def brute(p, n_max):
    return avoidance_sequence(p, n_max).values


def test_c01_length4_bipartite_counts_match_recurrence():
    got = brute(complete_bipartite(4, {1, 2}), 8)
    assert got[1:] == (1, 2, 6, 20, 68, 232, 792, 2704)
    assert got == theorem_sequence("B2", 8, k=4).values


def test_c02_length5_generic_vs_exceptional_split():
    generic = brute(complete_bipartite(5, {1, 2}), 7)
    assert generic[1:] == (1, 2, 6, 24, 108, 504, 2376)
    exceptional = brute(complete_bipartite(5, {1, 4}), 8)
    assert exceptional[1:] == (1, 2, 6, 24, 108, 504, 2364, 11052)
    assert exceptional == thm_long_answer(8).values


def test_c03_single_top_label_geometric_growth():
    from math import factorial

    for k in (3, 4, 5):
        got = brute(complete_bipartite(k, {1}), 8)
        for n in range(k, 9):
            assert got[n] == factorial(k - 1) * (k - 1) ** (n - k + 1), (k, n)
        assert got == theorem_sequence("B1", 8, k=k).values


def test_c04_interval_top_sets_match_inclusion_exclusion():
    for k, j in ((5, 2), (6, 2), (6, 3)):
        expected = thm_general1(k, j, 7).values
        for i in range(1, k - j + 1):
            top = set(range(i, i + j + 1))
            got = brute(complete_bipartite(k, top), 7)
            assert got == expected, (k, j, i)


def test_c05_seven_two_label_top_sets_share_one_sequence():
    expected = theorem_sequence("B2", 8, k=5).values
    for top in ({1, 2}, {2, 3}, {3, 4}, {4, 5}, {1, 3}, {2, 4}, {3, 5}):
        got = brute(complete_bipartite(5, top), 8)
        assert got == expected, top


def test_c06_path_pattern_family_splits_into_three_classes():
    report = classify(n_pattern_family(), n_max=8)
    assert [cls.size for cls in report.classes] == [14, 8, 2]
    assert report.classes[0].prefix == n_class1(8).values
    assert report.classes[1].prefix == n_class2(8).values
    assert report.classes[2].prefix == n_class3(8).values
    at567 = [cls.prefix[5:8] for cls in report.classes]
    assert at567 == [(59, 180, 544), (60, 189, 595), (61, 196, 630)]


def test_c07_closed_forms_and_gf_expansions_to_thirty():
    c1 = n_class1(30)
    for n, v in enumerate(c1.values):
        assert v == n_class1_closed_form(n)
    c2 = n_class2(30)
    for n in range(1, 31):
        assert c2.values[n] == n_class2_binomial_sum(n)
    assert gf_coefficients(n_class1_gf(), 30).values == c1.values
    assert gf_coefficients(n_class2_gf(), 30).values == c2.values
    for k in (3, 4, 5):
        assert (
            gf_coefficients(thm_b1_gf(k), 30).values
            == theorem_sequence("B1", 30, k=k).values
        )
    for k in (4, 5):
        assert (
            gf_coefficients(thm_b2_gf(k), 30).values
            == theorem_sequence("B2", 30, k=k).values
        )


def test_c08_quasi_avoider_counts_satisfy_transform_identity():
    fixtures = [
        chain((1, 2)),
        chain((1, 2, 3)),
        complete_bipartite(4, {1, 2}),
        n_pattern((2, 1, 3, 4)),
        from_relations(3, [(1, 3)]),
        dc_pop([(1, 2), (3, 4)]),
    ]
    for p in fixtures:
        a = brute(p, 8)
        for n in range(1, 9):
            assert count_quasi_avoiders(p, n) == n * a[n - 1] - a[n], (p, n)


def test_c09_series_calculus_matches_search():
    for m, n_max in ((1, 8), (2, 8), (3, 7)):
        words = [(2 * i + 1, 2 * i + 2) for i in range(m)]
        got = brute(dc_pop(words), n_max)
        closed = bipartite_dc_closed_form(m, order=n_max)
        assert closed.counts == got, m
    catalan = [1, 1, 2, 5, 14, 42, 132, 429]
    series = dc_pop_egf([TruncatedEgf(catalan), egf_exp(7)])
    assert series.counts == brute(dc_pop([(1, 2, 3), (2, 1)]), 7)


def test_c10_two_smallest_disjoint_chain_patterns():
    p1 = dc_pop([(2, 1), (3,)])
    got1 = brute(p1, 8)
    assert got1[1:] == tuple(range(1, 9))
    p2 = dc_pop([(3, 1), (2,)])
    got2 = brute(p2, 8)
    assert got2[1:] == (1, 2, 3, 5, 8, 13, 21, 34)
    for n in range(3, 9):
        assert got2[n] == got2[n - 1] + got2[n - 2]


def test_c11_alternating_path_regression_values():
    recorded = (1, 2, 6, 24, 104, 448, 1888)
    first = brute(zigzag((1, 2, 4, 3, 5), "^v^v"), 7)
    assert first[1:] == recorded
    # The recorded expectation below does not match direct search for
    # the second path word (search gives 454 and 1968 at lengths 6 and
    # 7, confirmed by two independent matcher implementations and by
    # the symmetry orbit of the word). The fixture is kept as recorded
    # rather than adjusted to what the search produces.
    second = brute(zigzag((3, 1, 4, 2, 5), "^v^v"), 7)
    assert second[1:] == recorded


def test_c12_property_suites():
    # invariance of counts under the two label symmetries, on random
    # posets drawn from seeded linear extensions (acyclic by build)
    for p in seeded_posets(50, 20260818, 5):
        base = brute(p, 6)
        assert brute(label_complement(p), 6) == base
        assert brute(vertical_flip(p), 6) == base

    # deleting the last entry of an avoider leaves an avoider
    fixtures = [
        chain((1, 2, 3)),
        complete_bipartite(3, {1, 2}),
        complete_bipartite(4, {1, 2}),
        complete_bipartite(5, {1, 4}),
        n_pattern((2, 1, 3, 4)),
        n_pattern((3, 1, 4, 2)),
        from_relations(3, [(1, 3)]),
        dc_pop([(1, 2), (3, 4)]),
        zigzag((1, 2, 4, 3, 5), "^v^v"),
        from_relations(4, []),
    ]
    for p in fixtures:
        for n in range(1, 7):
            for pi in permutations(range(1, n + 1)):
                if contains(reduce(pi[:-1]), p):
                    assert contains(pi, p), (p, pi)

    # backtracking matcher equals the subset-filter definition
    small = [
        chain((1, 2, 3)),
        complete_bipartite(4, {1, 2}),
        n_pattern((3, 1, 4, 2)),
        from_relations(3, [(3, 1)]),
        zigzag((1, 2, 4, 3, 5), "^v^v"),
    ]
    for p in small:
        for n in range(1, 8):
            for pi in permutations(range(1, n + 1)):
                assert count_occurrences(pi, p) == len(
                    naive_occurrences(pi, p.k, p.relations)
                )

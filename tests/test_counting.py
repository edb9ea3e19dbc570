import ast
import itertools
from fractions import Fraction
from math import comb, factorial
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

import popkit.counting
from popkit.counting import _covers
from dfs_oracle import dfs_avoider_counts
from oracles import catalan, naive_avoider_counts
from poset_gen import cb_strategy, poset_strategy, seeded_posets
from popkit import (
    CountSequence,
    InvalidInputError,
    Permutation,
    ResourceLimitError,
    TruncatedEgf,
    avoidance_sequence,
    avoids,
    chain,
    chain_compose,
    complete_bipartite,
    count_avoiders,
    count_quasi_avoiders,
    dc_pop,
    from_relations,
    label_complement,
    n_pattern,
    pop_from_text,
    quasi_avoids,
    symmetry_orbit,
    theorem_sequence,
    vertical_flip,
    zigzag,
)


class TestCountSequence:
    def test_basic_fields(self):
        seq = avoidance_sequence(chain((1, 2)), 5)
        assert seq.source == "brute-force"
        assert seq.n_max == 5
        assert seq[0] == 1

    def test_unknown_source_rejected(self):
        with pytest.raises(InvalidInputError):
            CountSequence("x", (1, 1), "guesswork")

    def test_must_start_at_one(self):
        with pytest.raises(InvalidInputError):
            CountSequence("x", (2, 1), "brute-force")

    def test_needs_a_value(self):
        with pytest.raises(InvalidInputError) as info:
            CountSequence("x", (), "brute-force")
        assert str(info.value) == "a sequence needs at least a(0)"

    def test_negative_value_rejected(self):
        with pytest.raises(InvalidInputError) as info:
            CountSequence("x", (1, -1), "brute-force")
        assert str(info.value) == "avoidance counts cannot be negative"

    @pytest.mark.parametrize(
        "values, bad", [((1, 2.0), "2.0"), ((True, 2), "True"), ((1, "2"), "'2'")]
    )
    def test_values_must_be_ints(self, values, bad):
        with pytest.raises(InvalidInputError) as info:
            CountSequence("x", values, "theorem-name")
        assert str(info.value) == f"count is not an integer: {bad}"

    def test_factorial_prefix_enforced_for_posets(self):
        # a(n) must be n! strictly below the pattern length
        with pytest.raises(InvalidInputError):
            CountSequence(chain((1, 2, 3)), (1, 1, 3), "brute-force")


class TestCountAvoiders:
    def test_classical_123_gives_catalan(self):
        p = chain((1, 2, 3))
        got = [count_avoiders(p, n) for n in range(8)]
        assert got == [comb(2 * n, n) // (n + 1) for n in range(8)]

    def test_single_relation_k2(self):
        # avoiding one inversion-free pair leaves only the decreasing word
        p = chain((1, 2))
        assert all(count_avoiders(p, n) == 1 for n in range(7))

    def test_antichain_blocks_everything_at_k(self):
        p = from_relations(3, [])
        assert count_avoiders(p, 2) == 2
        assert count_avoiders(p, 3) == 0

    def test_below_pattern_length_everything_avoids(self):
        p = complete_bipartite(5, {1, 2})
        for n in range(5):
            assert count_avoiders(p, n) == factorial(n)

    def test_empty_pattern_rejected(self):
        with pytest.raises(InvalidInputError):
            count_avoiders(from_relations(0, []), 3)

    def test_negative_length_rejected(self):
        with pytest.raises(InvalidInputError):
            count_avoiders(chain((1, 2)), -1)

    def test_cap_enforced(self):
        with pytest.raises(ResourceLimitError):
            count_avoiders(chain((1, 2)), 13)
        with pytest.raises(ResourceLimitError):
            count_avoiders(chain((1, 2)), 9, cap=8)
        assert count_avoiders(chain((1, 2)), 9, cap=9) == 1


class TestAvoidanceSequence:
    def test_bipartite_oracle(self):
        seq = avoidance_sequence(complete_bipartite(4, {1, 2}), 8)
        assert seq.values == (1, 1, 2, 6, 20, 68, 232, 792, 2704)

    def test_disjoint_chain_oracle(self):
        seq = avoidance_sequence(dc_pop([(1, 2, 3), (2, 1)]), 7)
        assert seq.values == (1, 1, 2, 6, 24, 110, 530, 2597)

    def test_matches_pointwise_counter(self):
        p = n_pattern((3, 1, 4, 2))
        seq = avoidance_sequence(p, 6)
        assert seq.values == tuple(count_avoiders(p, n) for n in range(7))

    def test_cap_applies_to_n_max(self):
        with pytest.raises(ResourceLimitError):
            avoidance_sequence(chain((1, 2)), 20)

    def test_pruned_search_equals_naive_filter(self):
        fixtures = [
            chain((1, 2, 3)),
            n_pattern((2, 1, 3, 4)),
            from_relations(1, []),
            from_relations(3, [(1, 2)]),  # label 3 isolated
            from_relations(3, [(3, 1), (3, 2)]),  # label 3 only below
            from_relations(3, [(1, 3), (2, 3)]),  # label 3 only above
            from_relations(4, [(4, 1)]),  # label 4 below one label
            from_relations(4, [(2, 4), (4, 3)]),  # label 4 in between
        ] + seeded_posets(30, 20261018, 5)
        for p in fixtures:
            subset = naive_avoider_counts(p.k, p.relations, 6)
            for n in range(7):
                perms = itertools.permutations(range(1, n + 1))
                naive = sum(1 for pi in perms if avoids(pi, p))
                assert count_avoiders(p, n) == naive == subset[n], (p, n)

    @settings(max_examples=100, deadline=None)
    @given(poset_strategy(6), st.integers(0, 7))
    def test_every_orbit_member_equals_subset_definition(self, p, n_max):
        # the gate for any counting engine: posets with k <= 6 and every
        # symmetry partner, against the definition through n = 7
        subset = naive_avoider_counts(p.k, p.relations, n_max)
        for q in symmetry_orbit(p):
            assert list(avoidance_sequence(q, n_max).values) == subset, q

    @settings(max_examples=100, deadline=None)
    @given(poset_strategy(6), st.integers(0, 8))
    def test_state_walk_equals_depth_first_walk(self, p, n_max):
        # the depth-first walk visits every avoiding prefix and shares
        # no code with the state walk
        got = list(avoidance_sequence(p, n_max).values)
        assert got == dfs_avoider_counts(p, n_max), p

    @settings(max_examples=100, deadline=None)
    @given(st.one_of(poset_strategy(12), cb_strategy(12)), st.data())
    def test_pattern_longer_than_n_max_counts_factorials(self, p, data):
        n_max = data.draw(st.integers(0, p.k - 1))
        values = avoidance_sequence(p, n_max).values
        assert values == tuple(factorial(n) for n in range(n_max + 1))

    def test_engine_imports_nothing_from_the_matcher(self):
        # counting builds its own relation table, so the matcher is not
        # in the path of any count
        tree = ast.parse(Path(popkit.counting.__file__).read_text(encoding="utf-8"))
        modules = {
            node.module
            for node in ast.walk(tree)
            if isinstance(node, ast.ImportFrom)
        }
        assert not {"matcher", "popkit.matcher"} & modules

    def test_alternating_path_search_values(self):
        # The search values for this word; the acceptance fixture c11
        # records 448 and 1888 instead and fails by design.
        seq = avoidance_sequence(zigzag((3, 1, 4, 2, 5), "^v^v"), 7)
        assert seq.values[6:] == (454, 1968)

    def test_counts_invariant_under_label_symmetries(self):
        p = complete_bipartite(4, {1, 2})
        base = avoidance_sequence(p, 8).values
        assert avoidance_sequence(label_complement(p), 8).values == base
        assert avoidance_sequence(vertical_flip(p), 8).values == base

    def test_growth_bounds(self):
        # a(n) is at most n! and at most n times a(n-1); hereditarity
        # gives the second bound, and neither implies monotonicity
        for p in [chain((1, 2, 3)), from_relations(3, []), n_pattern((2, 1, 3, 4))]:
            seq = avoidance_sequence(p, 7).values
            for n in range(1, 8):
                assert seq[n] <= factorial(n)
                assert seq[n] <= n * seq[n - 1]


class TestCapLength:
    """Exact counts at the default cap n = 12 against named oracles."""

    def test_exceptional_length5_pattern(self):
        seq = avoidance_sequence(pop_from_text("cb:5:{1,4}"), 12)
        assert seq.values == theorem_sequence("CB-14-235", 12).values
        assert seq[12] == 5118516

    def test_two_adjacent_top_labels(self):
        seq = avoidance_sequence(complete_bipartite(4, {1, 2}), 12)
        assert seq.values == theorem_sequence("B2", 12, k=4).values

    def test_classical_123_gives_catalan(self):
        seq = avoidance_sequence(chain((1, 2, 3)), 12)
        assert list(seq.values) == catalan(12)

    def test_pattern_longer_than_the_permutations(self):
        seq = avoidance_sequence(complete_bipartite(12, {1, 2, 3, 4, 5}), 5)
        assert seq.values == tuple(factorial(n) for n in range(6))


def gessel_1234(n):
    """Gessel's number of 1234-avoiders of length n >= 0."""
    return 2 * sum(
        Fraction(
            comb(2 * k, k) * comb(n, k) ** 2 * (3 * k * k + 2 * k + 1 - n - 2 * n * k),
            (k + 1) ** 2 * (k + 2) * (n - k + 1),
        )
        for k in range(n + 1)
    )


def bona_1342(n):
    """Bona's number of 1342-avoiders of length n >= 1."""
    return Fraction((-1) ** (n - 1) * (7 * n * n - 3 * n - 2), 2) + 3 * sum(
        Fraction(
            (-1) ** (n - i) * 2 ** (i + 1) * factorial(2 * i - 4),
            factorial(i) * factorial(i - 2),
        )
        * comb(n - i + 2, 2)
        for i in range(2, n + 1)
    )


def block_fold(p1, p2):
    """p1 followed by p2: p2's labels shifted past p1's, and no relation
    between the two blocks."""
    shifted = [(a + p1.k, b + p1.k) for a, b in p2.relations]
    return from_relations(p1.k + p2.k, [*p1.relations, *shifted])


def egf_from_counts(values):
    """The series sum a(n) x^n / n! of the counts a(0..n)."""
    return TruncatedEgf(values)


class TestPastTheGates:
    """Exact counts at n = 11-14, past the gates that search every
    permutation (n <= 8), against closed forms and the block-fold rule."""

    def test_1234_equals_gessel_through_14(self):
        want = [gessel_1234(n) for n in range(15)]
        assert all(v.denominator == 1 for v in want)
        seq = avoidance_sequence(chain((1, 2, 3, 4)), 14, cap=14)
        assert list(seq.values) == want

    # 2413 by Stankova's Wilf-equivalence 1342 ~ 2413
    @pytest.mark.parametrize("word", [(1, 3, 4, 2), (2, 4, 1, 3)])
    def test_1342_class_equals_bona_through_11(self, word):
        want = [1] + [bona_1342(n) for n in range(1, 12)]
        assert all(v.denominator == 1 for v in want)
        assert list(avoidance_sequence(chain(word), 11).values) == want

    @pytest.mark.parametrize("seed", range(20))
    def test_block_fold_equals_chain_compose(self, seed):
        # A permutation avoids P1P2 when it avoids P1 or the entries after
        # its shortest prefix that contains P1 avoid P2: C = A1 + A2 A1*.
        p1, p2 = seeded_posets(2, seed, 3)
        a1, a2 = (egf_from_counts(avoidance_sequence(p, 11).values) for p in (p1, p2))
        want = chain_compose(a1, a2).counts
        assert avoidance_sequence(block_fold(p1, p2), 11).values == want
        # A* = 1 + (x - 1) A as e.g.f.s, so C is symmetric in A1, A2.
        assert avoidance_sequence(block_fold(p2, p1), 11).values == want


class TestPastTheGatesBySymmetry:
    """At n = 11 the members of an orbit, and a chain word and its
    inverse, walk different state sets but must count alike."""

    @pytest.mark.parametrize("p", seeded_posets(20, 20261020, 6))
    def test_orbit_members_agree_through_11(self, p):
        want = avoidance_sequence(p, 11).values
        for q in symmetry_orbit(p):
            assert avoidance_sequence(q, 11).values == want, q

    # pi avoids w exactly when its inverse avoids w's inverse; each word
    # here has its inverse outside its own symmetry orbit
    @pytest.mark.parametrize(
        "word", [(1, 3, 4, 2), (2, 3, 1, 4), (2, 4, 3, 1), (3, 2, 4, 1)]
    )
    def test_chain_word_equals_its_inverse_through_11(self, word):
        p, q = chain(word), chain(Permutation(word).inverse())
        assert q not in symmetry_orbit(p)
        assert avoidance_sequence(p, 11).values == avoidance_sequence(q, 11).values


def inside(a, b):
    """True when summary a's windows fit, one by one, inside b's: the
    pairwise definition of pruning 1."""
    return all(x >= y for x, y in zip(a[1], b[1])) and all(
        x <= y for x, y in zip(a[2], b[2])
    )


def summary_lists():
    """Up to 12 summaries (j, lows, highs) with j in {0, 1}, 0 to 3
    coordinates, and bounds drawn from so few values that ties and equal
    windows are common."""
    return st.integers(0, 3).flatmap(
        lambda dims: st.tuples(
            st.just(dims),
            st.lists(
                st.tuples(
                    st.integers(0, 1),
                    st.tuples(*[st.integers(0, 3)] * dims),
                    st.tuples(*[st.integers(1, 4)] * dims),
                ),
                max_size=12,
            ),
        )
    )


class TestCovers:
    @settings(max_examples=300, deadline=None)
    @given(summary_lists())
    def test_equals_pairwise_definition(self, drawn):
        dims, summaries = drawn
        for j in (0, 1):
            group = [i for i, s in enumerate(summaries) if s[0] == j]
            want = {
                a: sum(1 << b for b in group if b != a and inside(summaries[b], summaries[a]))
                for a in group
            }
            assert _covers(summaries, group, dims) == want

    def test_equal_windows_cover_each_other(self):
        summaries = [(1, (0, 2), (3, 4))] * 2 + [(1, (1, 2), (3, 4))]
        assert _covers(summaries, [0, 1, 2], 2) == {0: 0b110, 1: 0b101, 2: 0}

    def test_no_coordinates_cover_the_whole_group(self):
        summaries = [(2, (), ())] * 3
        assert _covers(summaries, [0, 2], 0) == {0: 0b100, 2: 0b001}


class TestCountQuasiAvoiders:
    def test_transform_identity_small(self):
        # a*(n) = n a(n-1) - a(n) holds for every pattern
        for p in [
            chain((1, 2)),
            chain((1, 2, 3)),
            complete_bipartite(4, {1, 2}),
            n_pattern((2, 1, 3, 4)),
        ]:
            for n in range(1, 8):
                lhs = count_quasi_avoiders(p, n)
                rhs = n * count_avoiders(p, n - 1) - count_avoiders(p, n)
                assert lhs == rhs, (p, n)

    def test_matches_definition(self):
        # counted from the definition, not from the avoider counts
        for p in [
            chain((1, 2, 3)),
            complete_bipartite(4, {1, 2}),
            n_pattern((2, 1, 3, 4)),
            from_relations(3, []),
            from_relations(1, []),
        ]:
            for n in range(1, 7):
                perms = itertools.permutations(range(1, n + 1))
                direct = sum(quasi_avoids(pi, p) for pi in perms)
                assert count_quasi_avoiders(p, n) == direct, (p, n)

    def test_n_zero_rejected(self):
        with pytest.raises(InvalidInputError):
            count_quasi_avoiders(chain((1, 2)), 0)

    def test_cap_enforced(self):
        with pytest.raises(ResourceLimitError):
            count_quasi_avoiders(chain((1, 2)), 13)

from itertools import permutations

import pytest
from hypothesis import given, strategies as st

from oracles import naive_occurrences
from poset_gen import poset_strategy
from popkit import (
    InvalidInputError,
    Permutation,
    avoids,
    chain,
    complete_bipartite,
    contains,
    count_occurrences,
    dc_pop,
    from_relations,
    n_pattern,
    occurrences,
    pop_from_text,
    quasi_avoids,
    reduce,
    zigzag,
)
from popkit.matcher import _slot_constraints

# One pattern of each notation kind.
KIND_PATTERNS = [
    "chain:132",
    "cb:4:{1,2}",
    "n:3142",
    "dc:[12|43]",
    "zz:^v^v:31425",
    "rel:3:{(3,1),(2,1)}",
]


def reduced_quasi_avoids(pi, p):
    """Reference: the prefix reduced to a permutation before the check."""
    return contains(pi, p) and avoids(reduce(pi[:-1]), p)


class TestOccurrences:
    def test_single_relation_example(self):
        p = from_relations(3, [(3, 1)])
        assert count_occurrences((4, 1, 2, 5, 3), p) == 4

    def test_two_relation_example(self):
        p = from_relations(3, [(3, 1), (2, 1)])
        assert count_occurrences((4, 1, 2, 5, 3), p) == 3

    def test_bipartite_example(self):
        p = complete_bipartite(4, {1, 2})
        assert count_occurrences((4, 1, 6, 5, 3, 2), p) == 3

    def test_positions_are_one_based_and_increasing(self):
        p = chain((1, 2, 3))
        occs = list(occurrences((3, 6, 4, 1, 2, 5), p))
        assert occs == [(1, 3, 6), (4, 5, 6)]

    def test_classical_chain_containment(self):
        p = chain((1, 2, 3))
        assert contains((3, 6, 4, 1, 2, 5), p)
        assert avoids((4, 3, 2, 1), p)

    def test_antichain_occurs_everywhere(self):
        p = from_relations(3, [])
        assert count_occurrences((2, 1, 4, 3), p) == 4  # C(4,3)

    def test_empty_pattern_in_everything(self):
        p = from_relations(0, [])
        assert contains((1,), p)
        assert contains((), p)

    def test_pattern_longer_than_permutation(self):
        p = chain((1, 2, 3))
        assert avoids((2, 1), p)

    def test_accepts_permutation_objects(self):
        p = chain((1, 2))
        assert contains(Permutation((1, 2)), p)

    @pytest.mark.parametrize(
        "pattern",
        [
            chain((1, 2, 3)),
            complete_bipartite(4, {1, 2}),
            n_pattern((3, 1, 4, 2)),
            from_relations(3, [(3, 1)]),
            zigzag((1, 2, 4, 3, 5), "^v^v"),
        ],
        ids=lambda p: f"k{p.k}r{len(p.relations)}",
    )
    def test_matches_naive_matcher(self, pattern):
        for n in range(1, 7):
            for pi in permutations(range(1, n + 1)):
                naive = naive_occurrences(pi, pattern.k, pattern.relations)
                assert list(occurrences(pi, pattern)) == naive
                assert count_occurrences(pi, pattern) == len(naive)


class TestQuasiAvoids:
    def test_bipartite_example(self):
        p = complete_bipartite(4, {1, 2})
        assert quasi_avoids((4, 1, 6, 5, 3, 2), p)

    def test_containment_without_fresh_final_entry(self):
        p = chain((1, 2))
        # 132 contains 12 already in its first two entries
        assert not quasi_avoids((1, 3, 2), p)
        # 213 contains 12 only using the last entry
        assert quasi_avoids((2, 1, 3), p)

    def test_avoider_is_not_quasi_avoider(self):
        p = chain((1, 2))
        assert not quasi_avoids((3, 2, 1), p)

    def test_empty_permutation_rejected(self):
        with pytest.raises(InvalidInputError):
            quasi_avoids((), chain((1, 2)))

    def test_definition_agrees_with_reduction(self):
        p = dc_pop([(1, 2), (3, 4)])
        for n in range(1, 7):
            for pi in permutations(range(1, n + 1)):
                assert quasi_avoids(pi, p) == reduced_quasi_avoids(pi, p)

    @pytest.mark.parametrize("text", KIND_PATTERNS)
    def test_equals_reduce_based_definition(self, text):
        p = pop_from_text(text)
        for n in range(1, 7):
            for pi in permutations(range(1, n + 1)):
                assert quasi_avoids(pi, p) == reduced_quasi_avoids(pi, p)

    @given(st.data())
    def test_equals_reduce_based_definition_on_random_posets(self, data):
        p = data.draw(poset_strategy(5))
        n = data.draw(st.integers(1, 7))
        pi = data.draw(st.permutations(range(1, n + 1)))
        assert quasi_avoids(pi, p) == reduced_quasi_avoids(pi, p)


class TestRepeatedEntries:
    """Tied values have no order, so every query rejects them."""

    @pytest.mark.parametrize(
        "query, values, poset",
        [
            (contains, (1, 1), from_relations(2, [(2, 1)])),
            (contains, (1, 1), chain((1, 2))),
            (count_occurrences, (2, 2, 1), from_relations(2, [(2, 1)])),
            (quasi_avoids, (3, 1, 3), chain((1, 2))),
            (avoids, (1, 2, 2), from_relations(3, [])),
            (lambda pi, p: list(occurrences(pi, p)), (5, 5), chain((2, 1))),
        ],
    )
    def test_rejected(self, query, values, poset):
        with pytest.raises(InvalidInputError, match="entries not distinct"):
            query(values, poset)

    def test_distinct_raw_sequence_still_matches(self):
        values = (2, 6, 9, 1, 4)
        p = chain((2, 1))
        assert contains(values, p)
        assert count_occurrences(values, p) == count_occurrences(reduce(values), p)
        assert list(occurrences(values, p)) == list(occurrences(reduce(values), p))


class TestSearchPlan:
    def test_plan_is_sized_by_relations(self):
        p = pop_from_text("rel:100000:{(1,2)}")
        assert len(_slot_constraints(p)) <= len(p.relations)

    def test_pattern_far_longer_than_permutation(self):
        p = pop_from_text("rel:99999999999999999999:{}")
        pi = (1, 2, 3)
        assert contains(pi, p) is False
        assert list(occurrences(pi, p)) == []
        assert count_occurrences(pi, p) == 0
        assert avoids(pi, p) is True
        assert quasi_avoids(pi, p) is False

import pytest
from hypothesis import given, strategies as st

from popkit import (
    InvalidInputError,
    InvalidPosetError,
    PatternFamily,
    Poset,
    chain,
    complete_bipartite,
    dc_pop,
    from_relations,
    is_bipartite,
    label_complement,
    n_pattern,
    vertical_flip,
    zigzag,
)


def random_posets(max_k=5):
    """Random posets built from a linear extension, so always acyclic."""

    def build(draw_data):
        k, pair_flags = draw_data
        order = list(range(1, k + 1))
        pairs = [
            (order[i], order[j])
            for i in range(k)
            for j in range(i + 1, k)
        ]
        kept = [p for p, keep in zip(pairs, pair_flags) if keep]
        return from_relations(k, kept)

    return (
        st.integers(1, max_k)
        .flatmap(
            lambda k: st.tuples(
                st.just(k),
                st.lists(
                    st.booleans(),
                    min_size=k * (k - 1) // 2,
                    max_size=k * (k - 1) // 2,
                ),
            )
        )
        .map(build)
    )


class TestFromRelations:
    def test_transitive_closure_applied(self):
        p = from_relations(3, [(1, 2), (2, 3)])
        assert p.less(1, 3)
        assert p.relations == frozenset({(1, 2), (2, 3), (1, 3)})

    def test_antichain(self):
        p = from_relations(4, [])
        assert p.relations == frozenset()

    def test_cycle_rejected(self):
        with pytest.raises(InvalidPosetError):
            from_relations(3, [(1, 2), (2, 3), (3, 1)])
        with pytest.raises(InvalidPosetError):
            from_relations(2, [(1, 2), (2, 1)])

    def test_reflexive_pair_rejected(self):
        with pytest.raises(InvalidPosetError):
            from_relations(2, [(1, 1)])

    def test_label_out_of_range_rejected(self):
        with pytest.raises(InvalidInputError):
            from_relations(2, [(1, 3)])
        with pytest.raises(InvalidInputError):
            from_relations(2, [(0, 1)])

    @pytest.mark.parametrize("pair", [(1, 3), (0, 1), (-1, 1)])
    def test_direct_poset_label_out_of_range_rejected(self, pair):
        with pytest.raises(InvalidInputError, match="label out of range"):
            Poset(2, frozenset({pair}))

    def test_direct_poset_requires_closed_input(self):
        with pytest.raises(InvalidPosetError):
            Poset(3, frozenset({(1, 2), (2, 3)}))


def naive_closure(rels):
    closed = set(rels)
    while True:
        extra = {
            (a, d) for a, b in closed for c, d in closed if b == c
        } - closed
        if not extra:
            return frozenset(closed)
        closed |= extra


def relation_sets(max_k):
    """Every set of pairs of labels 1..k, for each k up to max_k."""
    for k in range(max_k + 1):
        pairs = [(a, b) for a in range(1, k + 1) for b in range(1, k + 1)]
        for mask in range(1 << len(pairs)):
            yield k, frozenset(
                pair for i, pair in enumerate(pairs) if mask >> i & 1
            )


class TestStrictOrderCheck:
    """Every relation set on at most three labels, against a naive oracle."""

    def test_poset_accepts_exactly_strict_orders(self):
        for k, rels in relation_sets(3):
            irreflexive = all(a != b for a, b in rels)
            if irreflexive and naive_closure(rels) == rels:
                assert Poset(k, rels).relations == rels
            else:
                with pytest.raises(InvalidPosetError):
                    Poset(k, rels)

    def test_from_relations_closes_then_checks(self):
        for k, rels in relation_sets(3):
            closed = naive_closure(rels)
            if all(a != b for a, b in closed):
                assert from_relations(k, rels).relations == closed
            else:
                with pytest.raises(InvalidPosetError):
                    from_relations(k, rels)


class TestBuilders:
    def test_chain_full_order(self):
        p = chain((1, 2, 3))
        assert p.relations == frozenset({(1, 2), (2, 3), (1, 3)})

    def test_chain_word_gives_word_order(self):
        # letters compare as values: the word is which slot holds which rank
        p = chain((2, 1, 3))
        assert p.less(2, 1) and p.less(1, 3) and p.less(2, 3)

    def test_complete_bipartite(self):
        p = complete_bipartite(4, {1, 2})
        assert p.relations == frozenset({(3, 1), (3, 2), (4, 1), (4, 2)})
        assert is_bipartite(p)

    def test_complete_bipartite_rejects_bad_sets(self):
        with pytest.raises(InvalidInputError):
            complete_bipartite(4, set())
        with pytest.raises(InvalidInputError):
            complete_bipartite(4, {1, 2, 3, 4})
        with pytest.raises(InvalidInputError):
            complete_bipartite(4, {5})

    def test_n_pattern(self):
        p = n_pattern((2, 1, 3, 4))
        assert p.relations == frozenset({(2, 1), (3, 1), (3, 4)})

    def test_n_pattern_needs_length_four(self):
        with pytest.raises(InvalidInputError):
            n_pattern((1, 2, 3))

    def test_zigzag_example(self):
        p = zigzag((1, 2, 4, 3, 5), "^v^v")
        assert p.relations == frozenset({(1, 2), (4, 2), (4, 3), (5, 3)})

    def test_zigzag_unicode_shape(self):
        assert zigzag((1, 3, 2), "∧∨") == zigzag((1, 3, 2), "^v")

    def test_zigzag_rejects_non_alternating(self):
        with pytest.raises(InvalidInputError):
            zigzag((1, 2, 3), "^^")

    def test_zigzag_rejects_length_mismatch(self):
        with pytest.raises(InvalidInputError):
            zigzag((1, 2, 3), "^v^")

    def test_dc_pop_literal_labels(self):
        # letters cover 1..3 exactly, so they are taken literally:
        # the chain reads top down as 3 above 1, and 2 sits alone
        p = dc_pop([(3, 1), (2,)])
        assert p.relations == frozenset({(1, 3)})

    def test_dc_pop_reduced_blocks(self):
        p = dc_pop([(1, 2, 3), (2, 1)])
        assert p.k == 5
        assert p.relations == frozenset({(2, 1), (3, 1), (3, 2), (4, 5)})

    def test_dc_pop_single_word_top_down(self):
        p = dc_pop([(1, 2)])
        assert p.relations == frozenset({(2, 1)})

    def test_dc_pop_rejects_bad_words(self):
        with pytest.raises(InvalidInputError):
            dc_pop([])
        with pytest.raises(InvalidInputError):
            dc_pop([(1, 1)])
        with pytest.raises(InvalidInputError):
            dc_pop([()])
        with pytest.raises(InvalidInputError):
            dc_pop([(0, 1)])


class TestSymmetryMaps:
    def test_label_complement(self):
        p = n_pattern((2, 1, 3, 4))
        q = label_complement(p)
        assert q.relations == frozenset({(3, 4), (2, 4), (2, 1)})

    def test_vertical_flip(self):
        p = chain((1, 2))
        assert vertical_flip(p).relations == frozenset({(2, 1)})

    @given(random_posets())
    def test_both_are_involutions(self, p):
        assert label_complement(label_complement(p)) == p
        assert vertical_flip(vertical_flip(p)) == p

    @given(random_posets())
    def test_maps_commute(self, p):
        assert label_complement(vertical_flip(p)) == vertical_flip(
            label_complement(p)
        )

    @given(random_posets())
    def test_maps_preserve_validity(self, p):
        # construction through Poset would raise if closure broke
        assert label_complement(p).k == p.k
        assert vertical_flip(p).k == p.k


class TestIsBipartite:
    def test_two_level_poset(self):
        assert is_bipartite(complete_bipartite(5, {2, 4}))

    def test_chain_of_three_is_not(self):
        assert not is_bipartite(chain((1, 2, 3)))

    def test_antichain_is(self):
        assert is_bipartite(from_relations(3, []))


class TestPatternFamily:
    def test_mixed_sizes_rejected(self):
        with pytest.raises(InvalidInputError):
            PatternFamily("bad", (chain((1, 2)), chain((1, 2, 3))))

    def test_display_names_must_align(self):
        with pytest.raises(InvalidInputError):
            PatternFamily(
                "bad", (chain((1, 2)),), display_names=("a", "b")
            )

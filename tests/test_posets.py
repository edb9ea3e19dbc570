import itertools
import random

import pytest
from hypothesis import given, strategies as st

from poset_gen import poset_strategy
from popkit import (
    InvalidInputError,
    InvalidPosetError,
    PatternFamily,
    Permutation,
    Poset,
    PopkitError,
    cb_family,
    chain,
    complete_bipartite,
    dc_pop,
    from_relations,
    label_complement,
    n_pattern,
    vertical_flip,
    zigzag,
)


class TestFromRelations:
    def test_transitive_closure_applied(self):
        p = from_relations(3, [(1, 2), (2, 3)])
        assert (1, 3) in p.relations
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

    @pytest.mark.parametrize(
        "build",
        [
            lambda: from_relations(3, [(1.5, 2)]),
            lambda: Poset(3, frozenset({(1.0, 2)})),
            lambda: from_relations(3, [("a", 2)]),
            lambda: Poset(3, frozenset({(1, 2.0)})),
            lambda: from_relations(3.0, [(1, 2)]),
            lambda: from_relations(True, []),
            lambda: Poset(True, frozenset()),
            lambda: Poset(2.0, frozenset()),
            lambda: from_relations("3", [(1, 2)]),
            lambda: chain((1.0, 2)),
            lambda: from_relations(2, [(True, 2)]),
            lambda: complete_bipartite(3, {True}),
            lambda: complete_bipartite(3.0, {1}),
            lambda: dc_pop([(1.5, 2)]),
            lambda: dc_pop([(True, 2)]),
            lambda: cb_family(3.0, 1),
            lambda: cb_family(3, 1.0),
        ],
        ids=["float-from-relations", "float-poset", "str-from-relations",
             "float-upper-poset", "float-size-from-relations",
             "bool-size-from-relations", "bool-size-poset", "float-size-poset",
             "str-size-from-relations", "float-chain-word",
             "bool-label-from-relations", "bool-label-bipartite",
             "float-size-bipartite", "float-dc-letter", "bool-dc-letter",
             "float-size-cb-family", "float-upper-size-cb-family"],
    )
    def test_non_integer_label_rejected(self, build):
        with pytest.raises(InvalidInputError, match="not an integer"):
            build()

    @pytest.mark.parametrize(
        "build",
        [
            lambda: from_relations(3, [(1, 2, 3)]),
            lambda: from_relations(3, [(1, 2), (1,)]),
            lambda: from_relations(3, [5]),
            lambda: Poset(3, frozenset({(1, 2, 3)})),
            lambda: Poset(3, frozenset({()})),
        ],
        ids=["triple-from-relations", "single-from-relations",
             "int-from-relations", "triple-poset", "empty-poset"],
    )
    def test_relation_not_a_pair_rejected(self, build):
        with pytest.raises(InvalidInputError, match="relation is not a pair"):
            build()

    def test_negative_size_reported_before_labels(self):
        with pytest.raises(InvalidInputError, match="negative size: -1"):
            from_relations(-1, [(1, 2)])
        with pytest.raises(InvalidInputError, match="negative size: -1"):
            Poset(-1, frozenset({(1, 2)}))

    def test_huge_size_checks_only_the_relations(self):
        # Irreflexivity scans the pairs, not the labels 1..k.
        k = 10**20
        assert (7, 8) in from_relations(k, [(7, 9), (9, 8)]).relations
        with pytest.raises(InvalidPosetError, match="through label 5$"):
            from_relations(k, [(9, 9), (6, 5), (5, 6), (k, k)])

    def test_direct_poset_requires_closed_input(self):
        with pytest.raises(InvalidPosetError):
            Poset(3, frozenset({(1, 2), (2, 3)}))


def warshall_closure(k, pairs):
    """Transitive closure over labels {1..k} by Warshall's algorithm on a
    boolean reachability matrix: the reference for the R∘R fixpoint."""
    reach = [[False] * (k + 1) for _ in range(k + 1)]
    for a, b in pairs:
        if not (1 <= a <= k and 1 <= b <= k):
            raise InvalidInputError(
                f"label out of range 1..{k} in relation ({a},{b})"
            )
        reach[a][b] = True
    for m in range(1, k + 1):
        for a in range(1, k + 1):
            if reach[a][m]:
                for b in range(1, k + 1):
                    if reach[m][b]:
                        reach[a][b] = True
    return frozenset(
        (a, b)
        for a in range(1, k + 1)
        for b in range(1, k + 1)
        if reach[a][b]
    )


def reference_from_relations(k, pairs):
    """Warshall closure, then the cycle message for the smallest label."""
    closed = warshall_closure(k, pairs)
    cycle = sorted(a for a, b in closed if a == b)
    if cycle:
        raise InvalidPosetError(
            f"relations contain a cycle through label {cycle[0]}"
        )
    return closed


def below_something_scan(rels):
    """Bipartiteness by a scan: no label is both below and above another."""
    below_something = {a for a, _ in rels}
    return not any(b in below_something for _, b in rels)


def outcome(relations_of):
    """The relation set a call returns, or its exception type and message."""
    try:
        return relations_of()
    except PopkitError as exc:
        return type(exc), str(exc)


def relation_sets(max_k):
    """Every set of pairs of labels 1..k, for each k up to max_k."""
    for k in range(max_k + 1):
        pairs = [(a, b) for a in range(1, k + 1) for b in range(1, k + 1)]
        for mask in range(1 << len(pairs)):
            yield k, frozenset(
                pair for i, pair in enumerate(pairs) if mask >> i & 1
            )


def random_pair_lists(count=300, max_k=9, seed=6):
    """Seeded pair lists on k <= max_k labels.

    Half follow a random linear order, so they are acyclic and their
    closures span long paths; the rest are arbitrary pairs, and every
    tenth list may hold labels outside 1..k.
    """
    rng = random.Random(seed)
    for i in range(count):
        k = rng.randint(0, max_k)
        size = rng.randint(0, 2 * k)
        if i % 2 == 0:
            order = rng.sample(range(1, k + 1), k)
            pairs = []
            for _ in range(size if k > 1 else 0):
                x, y = sorted(rng.sample(range(k), 2))
                pairs.append((order[x], order[y]))
        else:
            low, high = (-1, k + 2) if i % 10 == 1 else (1, k)
            pairs = [
                (rng.randint(low, high), rng.randint(low, high))
                for _ in range(size if high >= low else 0)
            ]
        yield k, pairs


class TestStrictOrderCheck:
    """The R∘R closure and closedness check against the Warshall
    closure."""

    def test_poset_accepts_exactly_strict_orders(self):
        for k, rels in relation_sets(3):
            irreflexive = all(a != b for a, b in rels)
            if warshall_closure(k, rels) != rels:
                with pytest.raises(
                    InvalidPosetError, match="not transitively closed"
                ):
                    Poset(k, rels)
            elif irreflexive:
                p = Poset(k, rels)
                assert p.relations == rels
            else:
                with pytest.raises(InvalidPosetError, match="cycle"):
                    Poset(k, rels)

    def test_from_relations_closes_then_checks(self):
        for k, rels in relation_sets(3):
            pairs = sorted(rels)
            assert outcome(lambda: from_relations(k, pairs).relations) == (
                outcome(lambda: reference_from_relations(k, pairs))
            )

    def test_random_pair_lists_match_warshall(self):
        results = set()
        for k, pairs in random_pair_lists():
            expected = outcome(lambda: reference_from_relations(k, pairs))
            assert outcome(lambda: from_relations(k, pairs).relations) == (
                expected
            )
            if isinstance(expected, frozenset):
                results.add("ok")
                p = Poset(k, expected)
                assert p.relations == expected
            else:
                results.add(expected[0])
        assert results == {"ok", InvalidInputError, InvalidPosetError}


class TestBuilders:
    def test_chain_full_order(self):
        p = chain((1, 2, 3))
        assert p.relations == frozenset({(1, 2), (2, 3), (1, 3)})

    def test_chain_word_gives_word_order(self):
        # letters compare as values: the word is which slot holds which rank
        p = chain((2, 1, 3))
        assert {(2, 1), (1, 3), (2, 3)} <= p.relations

    @pytest.mark.parametrize("k", range(7))
    def test_chain_relations_are_every_ordered_pair(self, k):
        # chain lists k-1 covers; from_relations must close them to the
        # full order of the word
        for word in itertools.permutations(range(1, k + 1)):
            expected = {
                (i, j)
                for i in range(1, k + 1)
                for j in range(1, k + 1)
                if word[i - 1] < word[j - 1]
            }
            assert chain(word).relations == expected

    def test_builders_take_permutations_and_sequences_alike(self):
        word = (2, 4, 1, 3)
        assert chain(Permutation(word)) == chain(word)
        assert n_pattern(Permutation(word)) == n_pattern(word)
        assert zigzag(Permutation(word), "v^v") == zigzag(word, "v^v")
        assert dc_pop([Permutation((2, 1)), (3,)]) == dc_pop([(2, 1), (3,)])

    def test_complete_bipartite(self):
        p = complete_bipartite(4, {1, 2})
        assert p.relations == frozenset({(3, 1), (3, 2), (4, 1), (4, 2)})
        assert below_something_scan(p.relations)

    def test_complete_bipartite_rejects_bad_sets(self):
        with pytest.raises(InvalidInputError):
            complete_bipartite(4, set())
        with pytest.raises(InvalidInputError):
            complete_bipartite(4, {1, 2, 3, 4})
        with pytest.raises(InvalidInputError):
            complete_bipartite(4, {5})

    @pytest.mark.parametrize(
        "word",
        list(itertools.permutations((1, 2, 3, 4))),
        ids=lambda w: "".join(map(str, w)),
    )
    def test_n_pattern(self, word):
        w1, w2, w3, w4 = word
        p = n_pattern(word)
        assert p.relations == frozenset({(w1, w2), (w3, w2), (w3, w4)})

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

    def test_zigzag_rejects_bad_shape_character(self):
        with pytest.raises(InvalidInputError) as info:
            zigzag((1, 2), "x")
        assert str(info.value) == "bad shape character in 'x'"

    def test_poset_repr_lists_sorted_pairs(self):
        assert repr(chain((2, 1, 3))) == "Poset(k=3, relations={(1,3),(2,1),(2,3)})"
        assert repr(from_relations(2, [])) == "Poset(k=2, relations={})"

    def test_dc_pop_literal_labels(self):
        # letters cover 1..3 exactly, so they are taken literally:
        # the chain reads top down as 3 above 1, and 2 sits alone
        p = dc_pop([(3, 1), (2,)])
        assert p.relations == frozenset({(1, 3)})

    def test_dc_pop_reduced_blocks(self):
        p = dc_pop([(1, 2, 3), (2, 1)])
        assert p.k == 5
        assert p.relations == frozenset({(2, 1), (3, 1), (3, 2), (4, 5)})

    def test_dc_pop_every_letter_below_each_earlier_letter(self):
        rng = random.Random(4)
        for _ in range(200):
            labels = rng.sample(range(1, 9), 8)
            cut = rng.randint(1, 7)
            words = [tuple(labels[:cut]), tuple(labels[cut:])]
            expected = {
                (lower, upper)
                for w in words
                for i, upper in enumerate(w)
                for lower in w[i + 1 :]
            }
            assert dc_pop(words).relations == expected

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

    @given(poset_strategy(5))
    def test_both_are_involutions(self, p):
        assert label_complement(label_complement(p)) == p
        assert vertical_flip(vertical_flip(p)) == p

    @given(poset_strategy(5))
    def test_maps_commute(self, p):
        assert label_complement(vertical_flip(p)) == vertical_flip(
            label_complement(p)
        )

    @given(poset_strategy(5))
    def test_maps_preserve_validity(self, p):
        # the maps skip Poset's checks; the checked constructor accepts
        # each image unchanged
        for q in (label_complement(p), vertical_flip(p)):
            assert Poset(q.k, q.relations) == q
            assert q.k == p.k


def top_sets():
    """k <= 8 and a nonempty proper subset of 1..k."""
    return st.integers(2, 8).flatmap(
        lambda k: st.tuples(
            st.just(k), st.sets(st.integers(1, k), min_size=1, max_size=k - 1)
        )
    )


def perm_words(min_k, max_k):
    """A permutation of 1..k for k in min_k..max_k."""
    return st.integers(min_k, max_k).flatmap(
        lambda k: st.permutations(range(1, k + 1))
    )


@st.composite
def zigzag_args(draw):
    """A word and an alternating shape one step shorter, in either
    alphabet, starting up or down."""
    word = draw(perm_words(1, 8))
    steps = draw(st.sampled_from(("^v", "v^", "∧∨", "∨∧")))
    return word, "".join(steps[i % 2] for i in range(len(word) - 1))


@st.composite
def chain_words(draw):
    """Words for dc_pop: a split of 1..K, taken literally, or letters
    from 10 up, which are reduced block by block."""
    if draw(st.booleans()):
        labels = draw(perm_words(1, 8))
        cuts = [i for i in range(1, len(labels)) if draw(st.booleans())]
        bounds = [0, *cuts, len(labels)]
        return [tuple(labels[a:b]) for a, b in zip(bounds, bounds[1:])]
    letters = st.lists(st.integers(10, 30), min_size=1, max_size=3, unique=True)
    return draw(st.lists(letters, min_size=1, max_size=3))


@st.composite
def pair_lists(draw):
    """k <= 8 and up to 12 pairs of labels in 1..k, cycles allowed."""
    k = draw(st.integers(1, 8))
    label = st.integers(1, k)
    return k, draw(st.lists(st.tuples(label, label), max_size=12))


def assert_passes_checks(q):
    # the builders skip Poset's checks; the checked constructor accepts
    # each output unchanged
    assert Poset(q.k, q.relations) == q


class TestTrustedConstructor:
    @given(top_sets())
    def test_complete_bipartite(self, args):
        assert_passes_checks(complete_bipartite(*args))

    @given(zigzag_args())
    def test_zigzag(self, args):
        assert_passes_checks(zigzag(*args))

    @given(perm_words(4, 4))
    def test_n_pattern(self, word):
        assert_passes_checks(n_pattern(word))

    @given(perm_words(0, 8))
    def test_chain(self, word):
        assert_passes_checks(chain(word))

    @given(chain_words())
    def test_dc_pop(self, word_list):
        assert_passes_checks(dc_pop(word_list))

    @given(pair_lists())
    def test_from_relations(self, args):
        k, pairs = args
        if any(a == b for a, b in warshall_closure(k, pairs)):
            with pytest.raises(InvalidPosetError, match="cycle"):
                from_relations(k, pairs)
        else:
            assert_passes_checks(from_relations(k, pairs))


class TestPatternFamily:
    def test_mixed_sizes_rejected(self):
        with pytest.raises(InvalidInputError):
            PatternFamily("bad", (chain((1, 2)), chain((1, 2, 3))))

    def test_display_names_must_align(self):
        with pytest.raises(InvalidInputError):
            PatternFamily(
                "bad", (chain((1, 2)),), display_names=("a", "b")
            )

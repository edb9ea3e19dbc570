import pytest
from hypothesis import given, strategies as st

from poset_gen import poset_strategy
from popkit import (
    InvalidInputError,
    ParseError,
    build_pop,
    cb_family,
    chain,
    complete_bipartite,
    dc_pop,
    n_pattern,
    parse_pop,
    pop_from_text,
    poset_text,
    render_pop,
    symmetry_orbit,
    zigzag,
)
from popkit.notation import RelSpec


ROUND_TRIP_CASES = [
    "chain:123",
    "chain:2413",
    "cb:4:{1,2}",
    "cb:5:{1,4}",
    "n:2134",
    "dc:[12|34]",
    "dc:[123|21]",
    "zz:^v^v:12435",
    "rel:3:{(1,3)}",
    "rel:4:{}",
    "rel:11:{(1,10)}",
    "chain:123456789(10)",
]


class TestParse:
    @pytest.mark.parametrize("text", ROUND_TRIP_CASES)
    def test_round_trip(self, text):
        canonical = render_pop(parse_pop(text))
        assert render_pop(parse_pop(canonical)) == canonical

    def test_whitespace_tolerated(self):
        assert parse_pop(" cb:4:{ 1 , 2 } ") == parse_pop("cb:4:{1,2}")

    def test_set_order_normalized(self):
        assert render_pop(parse_pop("cb:5:{2,1}")) == "cb:5:{1,2}"

    def test_rel_pairs_sorted(self):
        assert (
            render_pop(parse_pop("rel:3:{(3,1),(2,1)}"))
            == "rel:3:{(2,1),(3,1)}"
        )

    def test_unicode_shape_normalized(self):
        assert render_pop(parse_pop("zz:∧∨:132")) == "zz:^v:132"

    def test_parenthesized_letters(self):
        spec = parse_pop("chain:12(10)3")
        assert spec.word == (1, 2, 10, 3)

    def test_unknown_kind(self):
        with pytest.raises(ParseError) as info:
            parse_pop("xx:123")
        assert info.value.offset == 0
        assert "chain" in info.value.expected

    def test_unclosed_set_offset(self):
        with pytest.raises(ParseError) as info:
            parse_pop("cb:4:{1,2")
        assert info.value.offset == 9

    def test_zero_letter_rejected(self):
        with pytest.raises(ParseError):
            parse_pop("chain:120")

    def test_missing_shape_offset(self):
        with pytest.raises(ParseError) as info:
            parse_pop("zz::12")
        assert info.value.offset == 3
        assert str(info.value) == "expected a shape at offset 3 (expected: '^', 'v')"

    def test_trailing_garbage(self):
        with pytest.raises(ParseError):
            parse_pop("chain:123 extra")

    def test_empty_word(self):
        with pytest.raises(ParseError):
            parse_pop("chain:")

    def test_error_carries_expected_tokens(self):
        with pytest.raises(ParseError) as info:
            parse_pop("cb:4:{}")
        assert info.value.expected  # at least one suggestion


class TestBuild:
    def test_chain(self):
        assert pop_from_text("chain:123") == chain((1, 2, 3))

    def test_cb(self):
        assert pop_from_text("cb:4:{1,2}") == complete_bipartite(4, {1, 2})

    def test_n(self):
        assert pop_from_text("n:2134") == n_pattern((2, 1, 3, 4))

    def test_dc(self):
        assert pop_from_text("dc:[31|2]") == dc_pop([(3, 1), (2,)])

    def test_zz(self):
        assert pop_from_text("zz:^v^v:12435") == zigzag(
            (1, 2, 4, 3, 5), "^v^v"
        )

    def test_rel_applies_closure(self):
        p = pop_from_text("rel:3:{(1,2),(2,3)}")
        assert (1, 3) in p.relations

    def test_semantic_error_not_parse_error(self):
        # bad word shape parses fine but cannot build
        spec = parse_pop("n:3125")
        with pytest.raises(InvalidInputError):
            build_pop(spec)

    def test_antichain(self):
        p = pop_from_text("rel:4:{}")
        assert p.k == 4 and not p.relations


class TestPosetText:
    def test_raw_relations_rendering(self):
        p = n_pattern((2, 1, 3, 4))
        assert poset_text(p) == "rel:4:{(2,1),(3,1),(3,4)}"

    def test_round_trips_through_parser(self):
        for text in ROUND_TRIP_CASES:
            p = pop_from_text(text)
            assert pop_from_text(poset_text(p)) == p

    @given(
        st.integers(1, 5).flatmap(
            lambda k: st.lists(
                st.tuples(st.integers(1, k), st.integers(1, k)),
                max_size=6,
            ).map(lambda pairs: (k, pairs))
        )
    )
    def test_random_posets_round_trip(self, data):
        from popkit import from_relations, InvalidPosetError

        k, pairs = data
        try:
            p = from_relations(k, pairs)
        except (InvalidInputError, InvalidPosetError):
            return
        assert pop_from_text(poset_text(p)) == p

    @given(poset_strategy(12))
    def test_equals_rendered_relation_spec(self, q):
        assert poset_text(q) == render_pop(RelSpec(q.k, q.relations))

    def test_equals_rendered_relation_spec_on_cb_12_5_orbits(self):
        # two-digit labels, where text order and numeric order differ
        images = {q for p in cb_family(12, 5).members for q in symmetry_orbit(p)}
        assert len(images) == 1584
        for q in images:
            assert poset_text(q) == render_pop(RelSpec(q.k, q.relations))

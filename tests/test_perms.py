import pytest
from hypothesis import given, strategies as st

from popkit import InvalidInputError, Permutation, reduce


perms = (
    st.integers(1, 8)
    .flatmap(lambda n: st.permutations(list(range(1, n + 1))))
    .map(lambda xs: Permutation(tuple(xs)))
)


class TestPermutation:
    def test_valid_construction(self):
        p = Permutation((2, 1, 3))
        assert len(p) == 3
        assert list(p) == [2, 1, 3]
        assert p[0] == 2

    def test_rejects_non_bijection(self):
        with pytest.raises(InvalidInputError):
            Permutation((1, 1, 2))
        with pytest.raises(InvalidInputError):
            Permutation((0, 1))
        with pytest.raises(InvalidInputError):
            Permutation((2, 3))

    @pytest.mark.parametrize("entries", [(1.0, 2), (True, 2)], ids=["float", "bool"])
    def test_rejects_non_integer_entries(self, entries):
        with pytest.raises(InvalidInputError, match="not an integer"):
            Permutation(entries)

    def test_empty_is_fine(self):
        assert len(Permutation(())) == 0

    def test_immutable(self):
        p = Permutation((1, 2))
        with pytest.raises(AttributeError):
            p.entries = (2, 1)
        with pytest.raises(AttributeError):
            p.extra = 1

    def test_entries_stored_as_tuple(self):
        assert Permutation([3, 1, 2]).entries == (3, 1, 2)

    def test_str_compact_through_nine(self):
        assert str(Permutation((2, 1, 3))) == "213"
        long = Permutation(tuple(range(1, 11)))
        assert str(long) == "1,2,3,4,5,6,7,8,9,10"

    def test_from_text(self):
        assert Permutation.from_text("24513") == Permutation((2, 4, 5, 1, 3))

    def test_from_text_empty_and_comma_forms(self):
        assert Permutation.from_text("") == Permutation(())
        long = Permutation.from_text("10,1,2,3,4,5,6,7,8,9")
        assert long == Permutation((10, *range(1, 10)))

    def test_from_text_rejects_non_digits(self):
        with pytest.raises(InvalidInputError) as info:
            Permutation.from_text("1a")
        assert str(info.value) == "bad permutation text '1a'"

    def test_repr(self):
        assert repr(Permutation((2, 1, 3))) == "Permutation([2, 1, 3])"

    def test_equality_and_hash(self):
        assert Permutation((1, 2)) == Permutation((1, 2))
        assert hash(Permutation((1, 2))) == hash(Permutation((1, 2)))
        assert Permutation((1, 2)) != Permutation((2, 1))


class TestReduce:
    def test_example(self):
        assert str(reduce((2, 6, 9, 1, 4))) == "24513"

    def test_rejects_repeats(self):
        with pytest.raises(InvalidInputError):
            reduce((3, 3, 1))

    @given(st.lists(st.integers(-100, 100), min_size=1, max_size=8, unique=True))
    def test_result_is_permutation_preserving_order(self, xs):
        rho = reduce(tuple(xs))
        assert sorted(rho) == list(range(1, len(xs) + 1))
        for i in range(len(xs)):
            for j in range(i + 1, len(xs)):
                assert (xs[i] < xs[j]) == (rho[i] < rho[j])

    @given(perms)
    def test_idempotent_on_permutations(self, p):
        assert reduce(tuple(p)) == p


class TestSymmetries:
    def test_complement_example(self):
        assert str(Permutation((3, 1, 4, 2)).complement()) == "2413"

    def test_reverse_example(self):
        assert str(Permutation((5, 2, 4, 1, 3)).reverse()) == "31425"

    def test_inverse_example(self):
        assert str(Permutation((3, 1, 2)).inverse()) == "231"

    @given(perms)
    def test_involutions(self, p):
        assert p.complement().complement() == p
        assert p.reverse().reverse() == p
        assert p.inverse().inverse() == p

    @given(perms)
    def test_complement_reverse_commute(self, p):
        assert p.reverse().complement() == p.complement().reverse()


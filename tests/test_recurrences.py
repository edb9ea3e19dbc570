from math import comb, factorial

import pytest

from popkit import (
    InvalidGfError,
    InvalidInputError,
    RationalGf,
    dc_small,
    gf_coefficients,
    n_class1,
    n_class1_closed_form,
    n_class1_gf,
    n_class2,
    n_class2_binomial_sum,
    n_class2_gf,
    n_class3,
    theorem_sequence,
    thm_b1,
    thm_b1_gf,
    thm_b2_gf,
    thm_b2_recurrence,
    thm_general1,
    thm_long_answer,
)


class TestRationalGf:
    def test_geometric_series(self):
        gf = RationalGf((1,), (1, -2))
        assert gf.expand(6) == [2**n for n in range(7)]

    def test_zero_constant_term_rejected(self):
        with pytest.raises(InvalidGfError):
            RationalGf((1,), (0, 1))

    def test_non_integer_expansion_rejected(self):
        gf = RationalGf((1,), (2,))
        with pytest.raises(InvalidGfError):
            gf.expand(3)

    def test_gf_coefficients_source(self):
        seq = gf_coefficients(RationalGf((1,), (1, -1)), 4)
        assert seq.source == "gf-expansion"
        assert seq.values == (1, 1, 1, 1, 1)


class TestSingleTopLabel:
    def test_small_lengths_factorial(self):
        seq = thm_b1(4, 8)
        assert seq.values[:4] == (1, 1, 2, 6)

    def test_geometric_tail(self):
        seq = thm_b1(4, 8)
        assert seq.values == (1, 1, 2, 6, 18, 54, 162, 486, 1458)

    @pytest.mark.parametrize("k", [2, 3, 4, 5, 6])
    def test_gf_matches_recurrence(self, k):
        assert (
            gf_coefficients(thm_b1_gf(k), 12).values == thm_b1(k, 12).values
        )

    def test_k_one_means_nonempty_avoiders_vanish(self):
        assert thm_b1(1, 4).values == (1, 0, 0, 0, 0)

    def test_bad_k(self):
        with pytest.raises(InvalidInputError):
            thm_b1(0, 5)


class TestTwoTopLabels:
    def test_k4_oracle(self):
        assert thm_b2_recurrence(4, 8).values == (
            1, 1, 2, 6, 20, 68, 232, 792, 2704,
        )

    def test_k5_oracle(self):
        assert thm_b2_recurrence(5, 8).values == (
            1, 1, 2, 6, 24, 108, 504, 2376, 11232,
        )

    @pytest.mark.parametrize("k", [4, 5, 6, 7])
    def test_gf_matches_recurrence(self, k):
        assert (
            gf_coefficients(thm_b2_gf(k), 12).values
            == thm_b2_recurrence(k, 12).values
        )

    def test_gf_needs_length_four(self):
        # the rational form's numerator degree argument assumes k >= 4;
        # below that the recurrence generator is the authority
        with pytest.raises(InvalidInputError):
            thm_b2_gf(3)

    def test_recurrence_covers_small_k(self):
        # k=2: a(n)=0 once n >= 2; k=3: a(n)=2a(n-1)
        assert thm_b2_recurrence(2, 5).values == (1, 1, 0, 0, 0, 0)
        assert thm_b2_recurrence(3, 6).values == (1, 1, 2, 4, 8, 16, 32)


class TestIntervalTopSets:
    def test_width_two_at_five_matches_adjacent(self):
        assert thm_general1(5, 2, 8).values == thm_b2_recurrence(5, 8).values

    def test_width_two_at_six_oracle(self):
        assert thm_general1(6, 2, 7).values == (
            1, 1, 2, 6, 24, 120, 684, 4140,
        )

    def test_width_three_at_six_oracle(self):
        assert thm_general1(6, 3, 7).values == (
            1, 1, 2, 6, 24, 120, 672, 3936,
        )

    def test_width_zero_reduces_to_single_top_label(self):
        for k in range(2, 7):
            assert thm_general1(k, 0, 10).values == thm_b1(k, 10).values

    def test_width_one_reduces_to_adjacent_pair(self):
        for k in range(3, 9):
            assert (
                thm_general1(k, 1, 20).values
                == thm_b2_recurrence(k, 20).values
            )

    def test_invalid_interval_rejected(self):
        with pytest.raises(InvalidInputError):
            thm_general1(4, 4, 6)  # interval would cover all labels
        with pytest.raises(InvalidInputError):
            thm_general1(5, -1, 6)


class TestExceptionalLengthFive:
    def test_oracle_through_nine(self):
        assert thm_long_answer(9).values == (
            1, 1, 2, 6, 24, 108, 504, 2364, 11052, 51456,
        )

    def test_departs_from_interval_family_at_seven(self):
        a = thm_long_answer(7).values
        b = thm_b2_recurrence(5, 7).values
        assert a[:7] == b[:7]
        assert a[7] == 2364 and b[7] == 2376


class TestPathPatternClasses:
    def test_class1_recurrence_and_closed_form(self):
        seq = n_class1(9)
        assert seq.values == (1, 1, 2, 6, 19, 59, 180, 544, 1637, 4917)
        for n, v in enumerate(seq.values):
            assert v == n_class1_closed_form(n)

    def test_class1_gf(self):
        assert gf_coefficients(n_class1_gf(), 20).values == n_class1(20).values

    def test_class2_recurrence_and_binomial_form(self):
        seq = n_class2(9)
        assert seq.values == (1, 1, 2, 6, 19, 60, 189, 595, 1873, 5896)
        for n in range(1, 10):
            assert seq.values[n] == n_class2_binomial_sum(n)

    def test_class2_binomial_sum_direct(self):
        for n in range(1, 12):
            assert n_class2_binomial_sum(n) == sum(
                comb(n + 2 * i - 1, 3 * i) for i in range(n)
            )

    def test_class2_gf(self):
        assert gf_coefficients(n_class2_gf(), 20).values == n_class2(20).values

    def test_class3_recurrence(self):
        seq = n_class3(9)
        assert seq.values == (1, 1, 2, 6, 19, 61, 196, 630, 2025, 6509)
        v = seq.values
        for n in range(4, 10):
            assert v[n] == 3 * v[n - 1] + v[n - 2] - v[n - 3]

    def test_classes_split_at_five(self):
        assert n_class1(5).values[5] == 59
        assert n_class2(5).values[5] == 60
        assert n_class3(5).values[5] == 61


class TestSmallDisjointChains:
    def test_p1_linear(self):
        assert dc_small("p1", 8).values == (1, 1, 2, 3, 4, 5, 6, 7, 8)

    def test_p2_fibonacci(self):
        values = dc_small("p2", 10).values
        assert values == (1, 1, 2, 3, 5, 8, 13, 21, 34, 55, 89)
        for n in range(3, 11):
            assert values[n] == values[n - 1] + values[n - 2]

    def test_name_case_insensitive(self):
        assert dc_small("P1", 5).values == dc_small("p1", 5).values

    def test_unknown_name(self):
        with pytest.raises(InvalidInputError):
            dc_small("p3", 5)


class TestNegativeLength:
    @pytest.mark.parametrize(
        "generator, args",
        [
            (n_class1, ()),
            (n_class2, ()),
            (n_class3, ()),
            (thm_long_answer, ()),
            (dc_small, ("p2",)),
            (dc_small, ("p1",)),
            (thm_b1, (4,)),
            (thm_b2_recurrence, (4,)),
            (thm_general1, (5, 2)),
            (gf_coefficients, (n_class1_gf(),)),
        ],
        ids=lambda v: getattr(v, "__name__", None),
    )
    def test_rejected(self, generator, args):
        with pytest.raises(InvalidInputError, match="negative length"):
            generator(*args, -2)


class TestTheoremDispatch:
    def test_parameter_requirements(self):
        with pytest.raises(InvalidInputError):
            theorem_sequence("b1", 6)  # needs k
        with pytest.raises(InvalidInputError):
            theorem_sequence("cb-interval", 6, k=5)  # needs j too
        with pytest.raises(InvalidInputError):
            theorem_sequence("n-class1", 6, k=4)  # takes no k
        with pytest.raises(InvalidInputError):
            theorem_sequence("b2", 6, k=4, j=1)  # takes no j

    def test_unknown_id(self):
        with pytest.raises(InvalidInputError):
            theorem_sequence("no-such-theorem", 6)

    def test_case_insensitive_ids(self):
        a = theorem_sequence("N-CLASS3", 6)
        b = theorem_sequence("n-class3", 6)
        assert a.values == b.values

    def test_all_ids_runnable(self):
        table = {
            "B1": {"k": 4},
            "B2": {"k": 4},
            "CB-adjacent": {"k": 5},
            "CB-interval": {"k": 5, "j": 2},
            "CB-gap2": {"k": 5},
            "CB-14-235": {},
            "N-class1": {},
            "N-class2": {},
            "N-class3": {},
            "DC-p1": {},
            "DC-p2-fibonacci": {},
        }
        for name, kwargs in table.items():
            seq = theorem_sequence(name, 6, **kwargs)
            assert seq.source == "theorem-name"
            assert seq.values[0] == 1

    def test_gap2_equals_adjacent(self):
        a = theorem_sequence("CB-adjacent", 8, k=5)
        b = theorem_sequence("CB-gap2", 8, k=5)
        assert a.values == b.values

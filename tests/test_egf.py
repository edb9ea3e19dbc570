from math import comb, factorial

import pytest
from hypothesis import given, strategies as st

from popkit import (
    InvalidInputError,
    TruncatedEgf,
    avoidance_sequence,
    bipartite_dc_closed_form,
    chain_compose,
    complete_bipartite,
    count_quasi_avoiders,
    dc_pop,
    dc_pop_egf,
    egf_add,
    egf_exp,
    egf_from_counts,
    egf_mul,
    egf_one,
    egf_sequence,
    egf_zero,
    quasi_transform,
)

counts_lists = st.lists(st.integers(-50, 50), min_size=1, max_size=12)


def catalan_series(order):
    return egf_from_counts(
        [comb(2 * n, n) // (n + 1) for n in range(order + 1)]
    )


class TestArithmetic:
    def test_add_is_termwise(self):
        a = egf_from_counts([1, 2, 3])
        b = egf_from_counts([4, 5, 6])
        assert egf_add(a, b).counts == (5, 7, 9)

    def test_mul_is_binomial_convolution(self):
        # e^x * e^x has counts 2^n
        ex = egf_exp(10)
        assert egf_mul(ex, ex).counts == tuple(2**n for n in range(11))

    def test_one_is_multiplicative_identity(self):
        a = egf_from_counts([1, 4, 9, 16])
        assert egf_mul(a, egf_one(3)).counts == a.counts

    def test_zero_is_additive_identity(self):
        a = egf_from_counts([1, 4, 9])
        assert egf_add(a, egf_zero(2)).counts == a.counts

    def test_operators_match_functions(self):
        a = egf_from_counts([1, 2, 3])
        b = egf_from_counts([1, 0, 1])
        assert (a + b).counts == egf_add(a, b).counts
        assert (a * b).counts == egf_mul(a, b).counts
        assert (a - b).counts == (0, 2, 2)

    def test_order_mismatch_rejected(self):
        with pytest.raises(InvalidInputError):
            egf_add(egf_exp(4), egf_exp(5))
        with pytest.raises(InvalidInputError):
            egf_mul(egf_exp(4), egf_exp(5))

    @given(counts_lists, counts_lists, counts_lists)
    def test_mul_associative_and_commutative(self, xs, ys, zs):
        order = min(len(xs), len(ys), len(zs)) - 1
        a = egf_from_counts(xs[: order + 1])
        b = egf_from_counts(ys[: order + 1])
        c = egf_from_counts(zs[: order + 1])
        assert egf_mul(a, b).counts == egf_mul(b, a).counts
        assert (
            egf_mul(egf_mul(a, b), c).counts
            == egf_mul(a, egf_mul(b, c)).counts
        )

    def test_exp_counts_all_ones(self):
        assert egf_exp(6).counts == (1,) * 7

    @pytest.mark.parametrize("series", [egf_one, egf_zero, egf_exp])
    def test_negative_order_rejected(self, series):
        with pytest.raises(InvalidInputError, match="negative length"):
            series(-1)


class TestQuasiTransform:
    def test_coefficient_rule(self):
        a = egf_from_counts([1, 1, 2, 6, 24])
        q = quasi_transform(a)
        assert q.counts[0] == 0
        for n in range(1, 5):
            assert q.counts[n] == n * a.counts[n - 1] - a.counts[n]

    def test_of_exponential(self):
        # all-ones counts transform to 0, 0, 1, 2, 3, ...
        q = quasi_transform(egf_exp(8))
        assert q.counts == (0, 0, 1, 2, 3, 4, 5, 6, 7)

    def test_requires_unit_constant_term(self):
        with pytest.raises(InvalidInputError):
            quasi_transform(egf_from_counts([0, 1, 2]))

    def test_matches_direct_quasi_count(self):
        p = complete_bipartite(4, {1, 2})
        seq = avoidance_sequence(p, 8)
        q = quasi_transform(egf_from_counts(seq.values))
        for n in range(1, 9):
            assert q.counts[n] == count_quasi_avoiders(p, n)


class TestComposition:
    def test_two_two_chains(self):
        ones = egf_exp(8)
        c = chain_compose(ones, ones)
        assert c.counts == (1, 1, 2, 6, 18, 50, 130, 322, 770)

    def test_chain_compose_is_two_entry_composition(self):
        a = catalan_series(8)
        b = egf_exp(8)
        assert chain_compose(a, b).counts == dc_pop_egf([a, b]).counts

    def test_mixed_chain_pattern_matches_brute_force(self):
        a = catalan_series(7)
        b = egf_exp(7)
        series = dc_pop_egf([a, b])
        brute = avoidance_sequence(dc_pop([(1, 2, 3), (2, 1)]), 7)
        assert series.counts == brute.values

    def test_composition_order_invariant(self):
        a = catalan_series(9)
        b = egf_exp(9)
        assert dc_pop_egf([a, b]).counts == dc_pop_egf([b, a]).counts

    def test_empty_composition_rejected(self):
        with pytest.raises(InvalidInputError):
            dc_pop_egf([])


class TestBipartiteClosedForm:
    def test_single_chain(self):
        assert bipartite_dc_closed_form(1, order=8).counts == (1,) * 9

    def test_two_chains_closed_form(self):
        got = bipartite_dc_closed_form(2, order=10).counts
        for n in range(2, 11):
            assert got[n] == 2 + n * 2 ** (n - 1) - 2**n

    def test_three_chains_oracle(self):
        assert bipartite_dc_closed_form(3, order=7).counts == (
            1, 1, 2, 6, 24, 120, 630, 3150,
        )

    @pytest.mark.parametrize("m", [1, 2, 3, 4, 5])
    def test_equals_composition_of_exponentials(self, m):
        series = dc_pop_egf([egf_exp(15)] * m)
        assert bipartite_dc_closed_form(m, order=15).counts == series.counts

    def test_two_chains_matches_brute_force(self):
        brute = avoidance_sequence(dc_pop([(1, 2), (3, 4)]), 8)
        assert bipartite_dc_closed_form(2, order=8).counts == brute.values

    def test_bad_m(self):
        with pytest.raises(InvalidInputError):
            bipartite_dc_closed_form(0)


class TestEgfSequence:
    def test_wraps_counts(self):
        f = bipartite_dc_closed_form(2, order=6)
        seq = egf_sequence(f, "dc:[12|34]")
        assert seq.source == "egf-expansion"
        assert seq.values == f.counts

    def test_truncated_egf_indexing(self):
        f = TruncatedEgf((1, 1, 2))
        assert f.order == 2
        assert f[2] == 2

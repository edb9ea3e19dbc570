import itertools
import random
from functools import cache, partial
from math import comb

import pytest
from hypothesis import given, strategies as st

from oracles import catalan, chain_avoiders, dc_rule
from popkit import (
    InvalidInputError,
    PopkitError,
    TruncatedEgf,
    avoidance_sequence,
    bipartite_dc_closed_form,
    chain,
    chain_compose,
    complete_bipartite,
    count_quasi_avoiders,
    dc_pop,
    dc_pop_egf,
    egf_add,
    egf_exp,
    egf_mul,
    egf_one,
    parse_pop,
    quasi_transform,
)
from popkit import egf as egf_module

counts_lists = st.lists(st.integers(-50, 50), min_size=1, max_size=12)
# small counts of either sign, and counts of up to 400 digits
wide_counts = st.one_of(st.integers(-50, 50), st.integers(-(10**400), 10**400))


def comb_product(f, g):
    """The binomial convolution straight from its definition."""
    return tuple(
        sum(comb(n, i) * f[i] * g[n - i] for i in range(n + 1))
        for n in range(len(f))
    )


def catalan_series(order):
    return TruncatedEgf(catalan(order))


def running_product_dc_egf(chain_egfs):
    """sum_i A_i prod_{j<i} A_j* with the product kept as it runs: the
    former dc_pop_egf, the reference for the right fold."""
    if not chain_egfs:
        raise InvalidInputError("need at least one chain series")
    order = chain_egfs[0].order
    for f in chain_egfs:
        if f.order != order:
            raise InvalidInputError(
                f"truncation orders differ: {order} vs {f.order}"
            )
    total = TruncatedEgf((0,) * (order + 1))
    running = egf_one(order)
    for f in chain_egfs:
        total = egf_add(total, egf_mul(f, running))
        running = egf_mul(running, quasi_transform(f))
    return total


BRUTE_ORDER = 8
BRUTE_WORDS = ((1, 3, 2), (1, 2, 3, 4), (2, 4, 1, 3), (1, 2, 3, 4, 5))


@cache
def brute_chain_counts(word):
    return avoidance_sequence(chain(word), BRUTE_ORDER).values


def random_series(rng, order, unit=True):
    """One avoidance-like series of the given order, with a(0) = 1 unless
    unit is False."""
    kinds = ["one", "exp", "catalan", "random"]
    if order <= BRUTE_ORDER:
        kinds.append("brute")
    kind = rng.choice(kinds)
    if kind == "one":
        f = egf_one(order)
    elif kind == "exp":
        f = egf_exp(order)
    elif kind == "catalan":
        f = catalan_series(order)
    elif kind == "brute":
        word = rng.choice(BRUTE_WORDS)
        f = TruncatedEgf(brute_chain_counts(word)[: order + 1])
    else:
        f = TruncatedEgf(
            [1] + [rng.randint(-10**6, 10**6) for _ in range(order)]
        )
    if unit:
        return f
    return TruncatedEgf((rng.choice([0, 2, -1]),) + f.counts[1:])


def outcome(call):
    """The counts a call returns, or its exception type and message."""
    try:
        return call().counts
    except PopkitError as exc:
        return type(exc), str(exc)


class TestArithmetic:
    def test_needs_the_order_zero_count(self):
        with pytest.raises(InvalidInputError) as info:
            TruncatedEgf(())
        assert str(info.value) == "need at least the order-0 count"

    @pytest.mark.parametrize(
        "counts, bad", [((1.5, 2), "1.5"), ((1, True), "True"), (("1",), "'1'")]
    )
    def test_counts_must_be_ints(self, counts, bad):
        with pytest.raises(InvalidInputError) as info:
            TruncatedEgf(counts)
        assert str(info.value) == f"count is not an integer: {bad}"

    def test_truncated_egf_indexing(self):
        f = TruncatedEgf((1, 1, 2))
        assert f.order == 2
        assert f[2] == 2

    def test_add_is_termwise(self):
        a = TruncatedEgf([1, 2, 3])
        b = TruncatedEgf([4, 5, 6])
        assert egf_add(a, b).counts == (5, 7, 9)

    def test_mul_is_binomial_convolution(self):
        # e^x * e^x has counts 2^n
        ex = egf_exp(10)
        assert egf_mul(ex, ex).counts == tuple(2**n for n in range(11))

    def test_one_is_multiplicative_identity(self):
        a = TruncatedEgf([1, 4, 9, 16])
        assert egf_mul(a, egf_one(3)).counts == a.counts

    def test_operators_match_functions(self):
        # subtraction, the one operator, adds the negated series
        a = TruncatedEgf([1, 2, 3])
        b = TruncatedEgf([1, 0, 1])
        assert (a - b).counts == (0, 2, 2)
        assert (a - b) == egf_add(a, TruncatedEgf([-c for c in b.counts]))

    def test_order_mismatch_rejected(self):
        with pytest.raises(InvalidInputError):
            egf_add(egf_exp(4), egf_exp(5))
        with pytest.raises(InvalidInputError):
            egf_mul(egf_exp(4), egf_exp(5))

    @given(counts_lists, counts_lists, counts_lists)
    def test_mul_associative_and_commutative(self, xs, ys, zs):
        order = min(len(xs), len(ys), len(zs)) - 1
        a = TruncatedEgf(xs[: order + 1])
        b = TruncatedEgf(ys[: order + 1])
        c = TruncatedEgf(zs[: order + 1])
        assert egf_mul(a, b).counts == egf_mul(b, a).counts
        assert (
            egf_mul(egf_mul(a, b), c).counts
            == egf_mul(a, egf_mul(b, c)).counts
        )

    def test_exp_counts_all_ones(self):
        assert egf_exp(6).counts == (1,) * 7

    @pytest.mark.parametrize(
        "series",
        [
            egf_one,
            egf_exp,
            pytest.param(
                partial(bipartite_dc_closed_form, 2),
                id="bipartite_dc_closed_form",
            ),
        ],
    )
    def test_negative_order_rejected(self, series):
        with pytest.raises(InvalidInputError, match="negative length"):
            series(-1)


class TestProduct:
    """egf_mul against the comb definition of the binomial convolution."""

    @given(st.integers(0, 30), st.data())
    def test_equals_comb_definition(self, order, data):
        same_order = st.lists(wide_counts, min_size=order + 1, max_size=order + 1)
        f, g = data.draw(same_order), data.draw(same_order)
        got = egf_mul(TruncatedEgf(f), TruncatedEgf(g)).counts
        assert got == comb_product(f, g)

    @pytest.mark.parametrize("order", range(31))
    def test_hundreds_of_digits_and_both_signs(self, order):
        rng = random.Random(order)
        f, g = (
            [rng.choice((-1, 1)) * rng.randrange(10**600) for _ in range(order + 1)]
            for _ in range(2)
        )
        assert max(map(abs, f + g)) > 10**300
        got = egf_mul(TruncatedEgf(f), TruncatedEgf(g)).counts
        assert got == comb_product(f, g)

    @pytest.mark.parametrize("m", [2, 3, 4])
    def test_one_minus_power(self, m):
        # the negative series 1 - (1 + (x-1)e^x)^m of the closed form
        base = quasi_transform(egf_exp(30))
        power = base
        for _ in range(m - 1):
            power = egf_mul(power, base)
        g = egf_one(30) - power
        assert min(g.counts) < 0
        assert egf_mul(g, base).counts == comb_product(g.counts, base.counts)

    @pytest.mark.parametrize("word", ["[1|234|567]", "[321|54|76]", "[12|3|564]"])
    def test_chain_fold_equals_oracle_rule_at_order_200(self, word):
        words = parse_pop(f"dc:{word}").words
        series = dc_pop_egf([egf_module.chain_egf(w, 200, 12) for w in words])
        expected = dc_rule([chain_avoiders(len(w), 200) for w in words])
        assert series.counts == tuple(expected)

    @pytest.mark.parametrize("order", [0, 1, 2, 3, 400])
    def test_length_three_chain_series_is_catalan(self, order):
        # the ratio recurrence against the binomial formula of the oracle
        series = egf_module.chain_egf((3, 1, 2), order, 12)
        assert series.counts == tuple(catalan(order))

    @pytest.mark.parametrize("word", ["[123|456|789]", "[1|32|4]", "[21|3|54]"])
    def test_fold_is_symmetric_in_the_chains(self, word):
        # every order puts other series in the f and g roles of egf_mul
        chains = [egf_module.chain_egf(w, 120, 12) for w in parse_pop(f"dc:{word}").words]
        expected = dc_pop_egf(chains).counts
        for order in itertools.permutations(chains):
            assert dc_pop_egf(list(order)).counts == expected


class TestQuasiTransform:
    def test_coefficient_rule(self):
        a = TruncatedEgf([1, 1, 2, 6, 24])
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
            quasi_transform(TruncatedEgf([0, 1, 2]))

    def test_matches_direct_quasi_count(self):
        p = complete_bipartite(4, {1, 2})
        seq = avoidance_sequence(p, 8)
        q = quasi_transform(TruncatedEgf(seq.values))
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
        assert outcome(lambda: dc_pop_egf([])) == outcome(
            lambda: running_product_dc_egf([])
        )


class TestRightFold:
    """dc_pop_egf as a fold of chain_compose against the running product."""

    def test_seeded_lists_match_running_product(self):
        rng = random.Random(20261018)
        for _ in range(400):
            order = rng.randint(0, 30)
            series = [random_series(rng, order) for _ in range(rng.randint(1, 5))]
            assert dc_pop_egf(series).counts == (
                running_product_dc_egf(series).counts
            )

    @pytest.mark.parametrize("m", [1, 2, 3, 4, 5])
    def test_fold_takes_m_minus_one_products(self, m, monkeypatch):
        calls = []

        def counted_mul(f, g):
            calls.append(f.order)
            return egf_mul(f, g)

        monkeypatch.setattr(egf_module, "egf_mul", counted_mul)
        dc_pop_egf([catalan_series(10)] * m)
        assert len(calls) == m - 1

    @pytest.mark.parametrize("m", [1, 2, 3, 5])
    def test_errors_match_in_every_position(self, m):
        rng = random.Random(m)
        seen = set()
        for bad in range(m):
            for wrong_order in (True, False):
                order = rng.randint(0, 12)
                series = [random_series(rng, order) for _ in range(m)]
                if wrong_order:
                    if m == 1:
                        continue
                    series[bad] = egf_exp(order + 1 + rng.randint(0, 3))
                else:
                    series[bad] = random_series(rng, order, unit=False)
                got = outcome(lambda: dc_pop_egf(series))
                assert got == outcome(lambda: running_product_dc_egf(series))
                assert got[0] is InvalidInputError
                seen.add(got[1].split(":")[0])
        assert seen == (
            {"avoidance series must have a(0) = 1"}
            | ({"truncation orders differ"} if m > 1 else set())
        )

    def test_order_error_wins_over_constant_term(self):
        # every order is checked before any a(0), as in the running product
        series = [TruncatedEgf([0, 1, 2]), egf_exp(2), egf_exp(3)]
        got = outcome(lambda: dc_pop_egf(series))
        assert got == outcome(lambda: running_product_dc_egf(series))
        assert got == (InvalidInputError, "truncation orders differ: 2 vs 3")


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

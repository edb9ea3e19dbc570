import ast
import re
from functools import partial
from math import comb, factorial
from pathlib import Path

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
    THEOREM_IDS,
    theorem_sequence,
    thm_b1_gf,
    thm_b2_gf,
    thm_general1,
    thm_long_answer,
)
from popkit import recurrences
from popkit.recurrences import _poly_add, _poly_mul


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

    @pytest.mark.parametrize(
        "num, den, bad",
        [
            ((1,), (1.0, -1), "1.0"),
            ((0.5,), (1, -1), "0.5"),
            ((True,), (1, -1), "True"),
            (("1",), (1,), "'1'"),
        ],
    )
    def test_coefficients_must_be_ints(self, num, den, bad):
        with pytest.raises(InvalidInputError) as info:
            RationalGf(num, den)
        assert str(info.value) == f"coefficient is not an integer: {bad}"

    def test_gf_coefficients_source(self):
        seq = gf_coefficients(RationalGf((1,), (1, -1)), 4)
        assert seq.source == "gf-expansion"
        assert seq.values == (1, 1, 1, 1, 1)


class TestSingleTopLabel:
    def test_small_lengths_factorial(self):
        seq = theorem_sequence("B1", 8, k=4)
        assert seq.values[:4] == (1, 1, 2, 6)

    def test_geometric_tail(self):
        seq = theorem_sequence("B1", 8, k=4)
        assert seq.values == (1, 1, 2, 6, 18, 54, 162, 486, 1458)

    @pytest.mark.parametrize("k", range(1, 31))
    def test_gf_matches_recurrence(self, monkeypatch, k):
        _certify(monkeypatch, partial(theorem_sequence, "B1", k=k), thm_b1_gf(k))

    def test_k_one_means_nonempty_avoiders_vanish(self):
        assert theorem_sequence("B1", 4, k=1).values == (1, 0, 0, 0, 0)

    def test_bad_k(self):
        with pytest.raises(InvalidInputError):
            theorem_sequence("B1", 5, k=0)

    def test_gf_bad_k(self):
        with pytest.raises(InvalidInputError) as info:
            thm_b1_gf(0)
        assert str(info.value) == "pattern length must be at least 1"


class TestTwoTopLabels:
    def test_k4_oracle(self):
        assert theorem_sequence("B2", 8, k=4).values == (
            1, 1, 2, 6, 20, 68, 232, 792, 2704,
        )

    def test_k5_oracle(self):
        assert theorem_sequence("B2", 8, k=5).values == (
            1, 1, 2, 6, 24, 108, 504, 2376, 11232,
        )

    @pytest.mark.parametrize("k", range(4, 31))
    def test_gf_matches_recurrence(self, monkeypatch, k):
        _certify(monkeypatch, partial(theorem_sequence, "B2", k=k), thm_b2_gf(k))

    def test_gf_needs_length_four(self):
        # the rational form's numerator degree argument assumes k >= 4;
        # below that the recurrence generator is the authority
        with pytest.raises(InvalidInputError):
            thm_b2_gf(3)

    def test_recurrence_covers_small_k(self):
        # k=2: a(n)=0 once n >= 2; k=3: a(n)=2a(n-1)
        assert theorem_sequence("B2", 5, k=2).values == (1, 1, 0, 0, 0, 0)
        assert theorem_sequence("B2", 6, k=3).values == (
            1, 1, 2, 4, 8, 16, 32,
        )


class TestIntervalTopSets:
    def test_width_two_at_five_matches_adjacent(self):
        assert (
            thm_general1(5, 2, 8).values
            == theorem_sequence("B2", 8, k=5).values
        )

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
            values = thm_general1(k, 0, 10).values
            for n in range(k, 11):
                assert values[n] == factorial(k - 1) * (k - 1) ** (n - k + 1)

    def test_width_one_reduces_to_adjacent_pair(self):
        for k in range(3, 9):
            assert (
                thm_general1(k, 1, 20).values
                == theorem_sequence("B2", 20, k=k).values
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

    def test_law_equals_coupled_system(self, monkeypatch):
        # The coupled system as the paper states it: a(0..4) = 1, 1, 2, 6,
        # 24, b(0) = b(1) = 0, b(2) = 1, and
        #   a(n) = 7a(n-1) - 12a(n-2) + 4a(n-3) + 2b(n-2)   for n >= 5,
        #   b(n) = a(n-2) + b(n-1) + 2(b(2) + ... + b(n-2))   for n >= 3,
        # so b(3) = a(1) + b(2) = 2.
        a, b = (1, 1, 2, 6, 24), (0, 0, 1, 2)
        # In g.f.s the first reads da A - 2x^2 B = P, with deg P <= 4.
        # Differencing b's running sum gives, for n >= 4,
        # b(n) = 2b(n-1) + b(n-2) + a(n-2) - a(n-3), so
        # db B - x^2 (1-x) A = Q, with deg Q <= 3.
        da, db = (1, -7, 12, -4), (1, -2, -1)
        p = _poly_add(_poly_mul(da, a), _poly_mul((0, 0, -2), b))[:5]
        q = _poly_add(_poly_mul(db, b), _poly_mul((0, 0, -1, 1), a))[:4]
        # Multiply the first by db and put Q + x^2 (1-x) A for db B:
        # (da db - 2x^4 (1-x)) A = P db + 2x^2 Q.
        den = _poly_add(_poly_mul(da, db), (0, 0, 0, 0, -2, 2))
        num = _poly_add(_poly_mul(p, db), _poly_mul((0, 0, 2), q))
        assert den == (1, -9, 25, -21, -6, 6)
        assert num == (1, -8, 18, -8, -7, 0, 0)
        _certify(monkeypatch, thm_long_answer, RationalGf(num, den))

    def test_departs_from_interval_family_at_seven(self):
        a = thm_long_answer(7).values
        b = theorem_sequence("B2", 7, k=5).values
        assert a[:7] == b[:7]
        assert a[7] == 2364 and b[7] == 2376


class TestPathPatternClasses:
    def test_class1_recurrence_and_closed_form(self):
        seq = n_class1(9)
        assert seq.values == (1, 1, 2, 6, 19, 59, 180, 544, 1637, 4917)
        for n, v in enumerate(seq.values):
            assert v == n_class1_closed_form(n)

    def test_class1_gf(self, monkeypatch):
        _certify(monkeypatch, n_class1, n_class1_gf())

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

    def test_class2_binomial_sum_starts_at_one(self):
        with pytest.raises(InvalidInputError) as info:
            n_class2_binomial_sum(0)
        assert str(info.value) == "binomial form defined for n >= 1"

    def test_class2_gf(self, monkeypatch):
        _certify(monkeypatch, n_class2, n_class2_gf())

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


def _law(monkeypatch, generator, n_max):
    """The initial terms and coefficients that generator hands to _linear
    when asked for a(0..n_max)."""
    seen = []
    with monkeypatch.context() as patch:
        patch.setattr(
            recurrences, "_linear",
            lambda name, initial, coeffs, n_max: seen.append((initial, coeffs)),
        )
        generator(n_max)
    (initial, coeffs), = seen
    return tuple(initial), tuple(coeffs)


def _certify(monkeypatch, generator, gf):
    """Prove, in exact integers, that generator's law and the rational g.f.
    gf have equal coefficients for every n (the C-finite ansatz).

    The law's initial block of L terms and its coefficients c_i make its
    series P1/D1, with D1 = 1 - sum c_i x^i and deg P1 < L.  The g.f. is
    N2/D2.  The two differ by (P1 D2 - N2 D1) / (D1 D2), whose numerator
    has degree at most M = max(L - 1 + deg D2, deg N2 + deg D1); D1 D2 has
    a nonzero constant term.  So if the series agree through x^M, that
    numerator is zero and they agree everywhere.
    """
    # Below its initial block a law may build no coefficients; read it
    # once to learn L, then at L.
    initial, _ = _law(monkeypatch, generator, 0)
    initial, coeffs = _law(monkeypatch, generator, len(initial))
    assert 1 <= len(coeffs) <= len(initial)
    m = max(
        len(initial) + len(gf.denominator) - 2,
        len(gf.numerator) - 1 + len(coeffs),
    )
    assert generator(m).values == tuple(gf.expand(m))


class TestNClassIdentities:
    """Proofs, in exact integers, that the N-class1 and N-class2 g.f.s
    equal their closed form and binomial sum for every n.

    `_certify` proves each law equal to its g.f. (test_class1_gf and
    test_class2_gf), so the laws equal these oracles too.  The generators
    do not re-check either identity.
    """

    def test_class1_equals_closed_form(self):
        gf = n_class1_gf()
        den = _poly_mul((1, -3), _poly_mul((1, -1), (1, -1)))
        assert den == (1, -5, 7, -3) == gf.denominator
        # The roots 3, 1, 1 of den make 3^n, n and 1 solve the recurrence
        # sum_i den[i] b(n-i) = 0 at every n: for 3^n the sum is
        # 3^(n-3) sum_i den[i] 3^(3-i), for n it is n sum(den) - sum(i den[i]).
        assert sum(c * 3 ** (3 - i) for i, c in enumerate(den)) == 0
        assert sum(den) == 0 == sum(i * c for i, c in enumerate(den))
        # The closed form 3^n/4 - n/2 + 3/4 combines them, so it solves the
        # recurrence too.  The g.f.'s numerator has degree 2, so its series
        # solves it from n = 3 on, and the two start alike.
        assert len(gf.numerator) == 3
        assert gf.expand(2) == [n_class1_closed_form(n) for n in range(3)]
        # It is an integer: 3^n - 2n + 3 is 4 at n = 0 and n = 1, and from
        # n to n + 2 it grows by 8 * 3^n - 4, a multiple of 4.
        assert [3**n - 2 * n + 3 for n in (0, 1)] == [4, 4]

    def test_class2_equals_binomial_sum(self):
        # sum_n C(n+2i-1, 3i) x^n = x^(i+1) / (1-x)^(3i+1); the terms with
        # i >= n vanish, so summing over every i >= 0 gives
        # sum_{n>=1} B(n) x^n = x(1-x)^2 / ((1-x)^3 - x).
        cube = _poly_mul((1, -1), _poly_mul((1, -1), (1, -1)))
        den = _poly_add(cube, (0, -1))
        assert den == (1, -4, 3, -1)
        # Hence 1 + sum_{n>=1} B(n) x^n = (den + x(1-x)^2) / den, the g.f.
        num = _poly_add(den, _poly_mul((0, 1), _poly_mul((1, -1), (1, -1))))
        assert num == (1, -3, 1, 0)
        assert n_class2_gf() == RationalGf(num[:3], den)

    def test_spot_check_at_400(self):
        assert n_class1(400).values[400] == n_class1_closed_form(400)
        assert n_class2(400).values[400] == n_class2_binomial_sum(400)


class TestSmallDisjointChains:
    def test_p1_linear(self):
        assert dc_small("p1", 8).values == (1, 1, 2, 3, 4, 5, 6, 7, 8)

    def test_p2_fibonacci(self):
        values = dc_small("p2", 10).values
        assert values == (1, 1, 2, 3, 5, 8, 13, 21, 34, 55, 89)
        for n in range(3, 11):
            assert values[n] == values[n - 1] + values[n - 2]

    def test_p1_gf(self, monkeypatch):
        # 1 + sum_{n>=1} n x^n = 1 + x/(1-x)^2
        gf = RationalGf((1, -1, 1), (1, -2, 1))
        _certify(monkeypatch, partial(dc_small, "p1"), gf)

    def test_p2_gf(self, monkeypatch):
        gf = RationalGf((1,), (1, -1, -1))
        _certify(monkeypatch, partial(dc_small, "p2"), gf)

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
            (partial(theorem_sequence, k=4), ("B1",)),
            (partial(theorem_sequence, k=4), ("B2",)),
            (thm_general1, (5, 2)),
            (gf_coefficients, (n_class1_gf(),)),
            (n_class1_closed_form, ()),
            (n_class2_binomial_sum, ()),
        ],
        ids=lambda v: getattr(v, "__name__", None),
    )
    def test_rejected(self, generator, args):
        with pytest.raises(InvalidInputError, match="negative length"):
            generator(*args, -2)
        for n in (2.5, 3.0, True):
            with pytest.raises(InvalidInputError, match="not an integer"):
                generator(*args, n)


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

    # Each id with its parameters and its pattern length.
    SHAPES = {
        "B1": ({"k": 4}, 4),
        "B2": ({"k": 5}, 5),
        "CB-adjacent": ({"k": 6}, 6),
        "CB-interval": ({"k": 7, "j": 3}, 7),
        "CB-gap2": ({"k": 3}, 3),
        "CB-14-235": ({}, 5),
        "N-class1": ({}, 4),
        "N-class2": ({}, 4),
        "N-class3": ({}, 4),
        "DC-p1": ({}, 3),
        "DC-p2-fibonacci": ({}, 3),
    }

    @pytest.mark.parametrize("tid", sorted(SHAPES))
    def test_lengths_factorial_start_and_prefixes(self, tid):
        params, length = self.SHAPES[tid]
        full = theorem_sequence(tid, length + 8, **params).values
        assert full[:length] == tuple(factorial(n) for n in range(length))
        for n_max in range(length + 2):
            values = theorem_sequence(tid, n_max, **params).values
            assert len(values) == n_max + 1
            assert values == full[: n_max + 1]

    def test_ids_match_readme(self):
        readme = (Path(__file__).parents[1] / "README.md").read_text()
        para = readme.split("Theorem ids (case-insensitive): ")[1]
        clauses = re.split(r"[.;]\s", para.split("\n\n")[0])[:3]
        ids, takes_k, takes_kj = (
            re.findall(r"`([A-Z][\w-]*)`", clause) for clause in clauses
        )
        assert takes_kj == ["CB-interval"]
        assert THEOREM_IDS == {
            tid: (tid in takes_k + takes_kj, tid in takes_kj) for tid in ids
        }

    @pytest.mark.parametrize(
        "call",
        [
            partial(theorem_sequence, "B1", 5, k=2.5),
            partial(theorem_sequence, "B1", 5, k=True),
            partial(theorem_sequence, "B2", 5, k="4"),
            partial(theorem_sequence, "CB-interval", 6, k=5, j=True),
            partial(theorem_sequence, "CB-interval", 6, k=5.0, j=1),
            partial(thm_b1_gf, 2.5),
            partial(thm_b2_gf, True),
        ],
        ids=lambda call: "-".join(
            map(str, [call.func.__name__, *call.args, *call.keywords.values()])
        ),
    )
    def test_non_integer_parameters_rejected(self, call):
        with pytest.raises(InvalidInputError, match="not an integer"):
            call()

    def test_readme_quick_start_runs(self):
        readme = (Path(__file__).parents[1] / "README.md").read_text()
        block = readme.split("```python\n")[1].split("```")[0]
        namespace, shown = {}, []
        for stmt in ast.parse(block).body:
            if isinstance(stmt, ast.Expr):
                code = compile(ast.Expression(stmt.value), "README.md", "eval")
                shown.append(eval(code, namespace))
            else:
                code = compile(ast.Module([stmt], []), "README.md", "exec")
                exec(code, namespace)
        assert 232 in shown
        assert shown.count((1, 1, 2, 6, 20, 68, 232, 792, 2704)) == 2
        assert [(14, 59), (8, 60), (2, 61)] in shown

    def test_gap2_equals_adjacent(self):
        a = theorem_sequence("CB-adjacent", 8, k=5)
        b = theorem_sequence("CB-gap2", 8, k=5)
        assert a.values == b.values

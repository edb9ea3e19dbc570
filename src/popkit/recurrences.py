"""Named sequence generators: recurrences, closed forms, rational g.f.s.

Each generator produces the exact avoidance counts of a specific
pattern family from its stated law alone, never from search, so the
brute-force counter and these formulas can be checked against each
other meaningfully.  All arithmetic is unbounded-integer exact.

Every law is a fixed-order linear recurrence with constant
coefficients: a block of initial terms, each of them n!, then
a(n) = c_1 a(n-1) + ... + c_d a(n-d).  One loop, `_linear`, runs them
all, and each generator states only its initial terms and
coefficients.  The stated rational g.f.s, the closed form of N-class1
and the binomial sum of N-class2 stay literal, as oracles:
tests/test_recurrences.py proves once, by the C-finite ansatz, that
each law equals its g.f. or closed form for every n, and no call
re-checks them.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import partial
from itertools import islice
from math import comb, factorial, perm
from operator import mul
from typing import Callable, Iterable, Sequence

from .counting import CountSequence
from .errors import InvalidGfError, InvalidInputError
from .perms import _check_int, _check_ints, _check_length


@dataclass(frozen=True)
class RationalGf:
    """Ratio of integer polynomials, coefficients in ascending degree.

    The denominator's constant term must be nonzero so the ratio
    expands as a power series.
    """

    numerator: tuple[int, ...]
    denominator: tuple[int, ...]

    def __post_init__(self):
        object.__setattr__(self, "numerator", tuple(self.numerator))
        object.__setattr__(self, "denominator", tuple(self.denominator))
        _check_ints("coefficient", self.numerator + self.denominator)
        if not self.denominator or self.denominator[0] == 0:
            raise InvalidGfError(
                "denominator constant term is zero; no power-series expansion"
            )

    def expand(self, n_max: int) -> list[int]:
        """Exact power-series coefficients c(0..n_max).

        The denominator acts as a linear recurrence on the coefficients;
        a non-integer coefficient (possible when the constant term is
        not a unit) is rejected.
        """
        _check_length(n_max)
        num, den = self.numerator, self.denominator
        coeffs: list[int] = []
        for n in range(n_max + 1):
            acc = num[n] if n < len(num) else 0
            for i in range(1, min(n, len(den) - 1) + 1):
                acc -= den[i] * coeffs[n - i]
            c, rem = divmod(acc, den[0])
            if rem:
                raise InvalidGfError(
                    f"coefficient of x^{n} is not an integer: "
                    f"{Fraction(acc, den[0])}"
                )
            coeffs.append(c)
        return coeffs


def gf_coefficients(gf: RationalGf, n_max: int) -> CountSequence:
    """Power-series expansion of a rational g.f. as a count sequence."""
    values = gf.expand(n_max)
    name = f"gf {list(gf.numerator)}/{list(gf.denominator)}"
    return CountSequence(pattern=name, values=tuple(values), source="gf-expansion")


def _poly_add(p: tuple[int, ...], q: tuple[int, ...]) -> tuple[int, ...]:
    n = max(len(p), len(q))
    return tuple(
        (p[i] if i < len(p) else 0) + (q[i] if i < len(q) else 0)
        for i in range(n)
    )


def _poly_mul(p: tuple[int, ...], q: tuple[int, ...]) -> tuple[int, ...]:
    out = [0] * (len(p) + len(q) - 1)
    for i, a in enumerate(p):
        for j, b in enumerate(q):
            out[i + j] += a * b
    return tuple(out)


def _linear(
    name: str, initial: Iterable[int], coeffs: Sequence[int], n_max: int
) -> CountSequence:
    """a(0..n_max): the initial terms while they last, then
    a(n) = coeffs[0] a(n-1) + coeffs[1] a(n-2) + ...

    initial must hold at least len(coeffs) terms.  It is read lazily,
    so an n! block longer than n_max + 1 terms is never computed.
    """
    _check_length(n_max)
    values = list(islice(initial, n_max + 1))
    newest_first = slice(-1, -len(coeffs) - 1, -1)
    while len(values) <= n_max:
        values.append(sum(map(mul, coeffs, values[newest_first])))
    return CountSequence(name, tuple(values), "theorem-name")


def _interval(name: str, k: int, j: int, n_max: int) -> CountSequence:
    """Counts for a complete bipartite pattern of length k whose top set
    is an interval of j+1 labels.

    Inclusion-exclusion over how many of the largest values sit inside
    the occurrence's top positions gives, for n at least k,
    a(n) = sum over l=1..j+1 of
    (-1)^(l-1) C(j+1, l) (k-j-1)(k-j-2)...(k-j-l) a(n-l).
    At j=0 this is B1, a(n) = (k-1) a(n-1); at j=1 it is B2,
    a(n) = 2(k-2) a(n-1) - (k-2)(k-3) a(n-2).  At k = j+1 every
    coefficient is 0: the pattern is an antichain.
    """
    _check_length(n_max)
    _check_int("pattern length", k)
    if k < j + 1:
        raise InvalidInputError(f"pattern length must be at least {j + 1}")
    # Below k the n! block is the whole answer, so no coefficient is built.
    coeffs = [
        (-1) ** (ell - 1) * comb(j + 1, ell) * perm(k - j - 1, ell)
        for ell in range(1, j + 2 if n_max >= k else 1)
    ]
    return _linear(name, map(factorial, range(k)), coeffs, n_max)


def _b1(k: int, n_max: int) -> CountSequence:
    return _interval(f"B1(k={k})", k, 0, n_max)


def _b2(k: int, n_max: int) -> CountSequence:
    return _interval(f"B2(k={k})", k, 1, n_max)


def thm_b1_gf(k: int) -> RationalGf:
    """Stated rational g.f. of the single-top-label counts (id B1)."""
    _check_int("pattern length", k)
    if k < 1:
        raise InvalidInputError("pattern length must be at least 1")
    den = (1, -(k - 1))
    poly = tuple(factorial(i) for i in range(k))
    num = list(_poly_mul(poly, den))  # k + 1 terms
    num[k] += (k - 1) * factorial(k - 1)
    return RationalGf(tuple(num), den)


def thm_b2_gf(k: int) -> RationalGf:
    """Stated rational g.f. of the two-label top-set counts (id B2).

    The numerator's truncated factorial sums only encode the n! initial
    segment correctly from k = 4 up; smaller k is rejected (the
    recurrence form covers it).
    """
    _check_int("pattern length", k)
    if k < 4:
        raise InvalidInputError("g.f. form needs pattern length >= 4")
    a = tuple(factorial(i) for i in range(k - 2))
    b = tuple(
        2 * (k - 2) * factorial(i - 1) if i >= 1 else 0
        for i in range(k - 2)
    )
    c = tuple(
        (k - 2) * (k - 3) * factorial(i - 2) if i >= 2 else 0
        for i in range(k - 2)
    )
    num = _poly_add(_poly_add(a, tuple(-x for x in b)), c)
    den = (1, -2 * (k - 2), (k - 2) * (k - 3))
    return RationalGf(num, den)


def thm_general1(k: int, j: int, n_max: int) -> CountSequence:
    """Counts for a complete bipartite pattern whose top set is the
    interval of j+1 labels starting anywhere, with at least one bottom
    label beside it: the `_linear` law of `_interval`, whose j=0 and
    j=1 cases (B1, B2) the tests prove equal to `thm_b1_gf` and
    `thm_b2_gf` for every n.
    """
    _check_length(n_max)
    _check_int("interval width", j)
    _check_int("pattern length", k)
    if j < 0:
        raise InvalidInputError("interval width must be non-negative")
    if k < j + 2:
        raise InvalidInputError(
            "pattern length must exceed the top interval"
        )
    return _interval(f"interval(k={k},j={j})", k, j, n_max)


def thm_long_answer(n_max: int) -> CountSequence:
    """Counts for the exceptional length-5 complete bipartite pattern
    whose top labels are 1 and 4 (equivalently 2 and 5).

    The paper states a coupled system: a(n) = 7a(n-1) - 12a(n-2) +
    4a(n-3) + 2b(n-2) from n=5, with auxiliary counts
    b(n) = a(n-2) + b(n-1) + 2(b(2) + ... + b(n-2)) from n=3, b(1)=0,
    b(2)=1.  Eliminating b leaves one law of order 5, with g.f.
    (1 - 8x + 18x^2 - 8x^3 - 7x^4) / (1 - 9x + 25x^2 - 21x^3 - 6x^4 +
    6x^5); tests/test_recurrences.py derives it from the system.
    """
    return _linear(
        "exceptional-cb5", [1, 1, 2, 6, 24], [9, -25, 21, 6, -6], n_max
    )


def n_class1_closed_form(n: int) -> int:
    """(3^n - 2n + 3) / 4, exactly: 4 divides the numerator for every n."""
    _check_length(n)
    return (3**n - 2 * n + 3) // 4


def n_class1(n_max: int) -> CountSequence:
    """Counts for the largest class of length-4 path patterns.

    a(0)=a(1)=1 and a(n) = 4a(n-1) - 3a(n-2) + 1, run in its homogeneous
    form a(n) = 5a(n-1) - 7a(n-2) + 3a(n-3) from a(2) = 2 (the
    difference of two consecutive steps cancels the +1).  It equals the
    closed form, proven once in the tests (through `n_class1_gf`), not
    per call.
    """
    return _linear("N-class1", [1, 1, 2], [5, -7, 3], n_max)


def n_class1_gf() -> RationalGf:
    """(1-2x)^2 / ((1-3x)(1-x)^2)."""
    num = _poly_mul((1, -2), (1, -2))
    den = _poly_mul((1, -3), _poly_mul((1, -1), (1, -1)))
    return RationalGf(num, den)


def n_class2_binomial_sum(n: int) -> int:
    """sum over i of C(n+2i-1, 3i), valid for n >= 1."""
    _check_length(n)
    if n < 1:
        raise InvalidInputError("binomial form defined for n >= 1")
    return sum(comb(n + 2 * i - 1, 3 * i) for i in range(n))


def n_class2(n_max: int) -> CountSequence:
    """Counts for the middle class of length-4 path patterns.

    a(0)=a(1)=1, a(2)=2, then a(n) = 4a(n-1) - 3a(n-2) + a(n-3), equal to
    the binomial sum from n=1 on: proven once in the tests (through
    `n_class2_gf`), not per call.
    """
    return _linear("N-class2", [1, 1, 2], [4, -3, 1], n_max)


def n_class2_gf() -> RationalGf:
    """(1 - 3x + x^2) / (1 - 4x + 3x^2 - x^3)."""
    return RationalGf((1, -3, 1), (1, -4, 3, -1))


def n_class3(n_max: int) -> CountSequence:
    """Counts for the two-member class of length-4 path patterns:
    a(n) = n! through n=3, then a(n) = 3a(n-1) + a(n-2) - a(n-3)."""
    return _linear("N-class3", [1, 1, 2, 6], [3, 1, -1], n_max)


def dc_small(name: str, n_max: int) -> CountSequence:
    """Counts for the two three-label one-chain-plus-isolated patterns.

    p1 (chain 1<2, isolated 3): a(n) = n for n >= 1, run as
    a(n) = 2a(n-1) - a(n-2) from a(2) = 2.
    p2 (chain 1<3, isolated 2): a(n) = a(n-1) + a(n-2) from n=3, the
    Fibonacci sequence in the indexing fixed by direct enumeration
    (a(1..5) = 1, 2, 3, 5, 8).
    """
    _check_length(n_max)
    key = name.lower()
    if key == "p1":
        return _linear("DC-p1", [1, 1, 2], [2, -1], n_max)
    if key == "p2":
        return _linear("DC-p2-fibonacci", [1, 1, 2], [1, 1], n_max)
    raise InvalidInputError(f"unknown small pattern name {name!r}")


# Canonical generator ids exposed to the CLI, each with its generator
# and the names of the parameters it takes before n_max.  Every
# generator is one `_linear` law.  The two-label top-set ids (adjacent
# and gap-2 placements) share the B2 law; they exist as distinct ids so
# each placement's claim can be verified against brute force
# separately.
_GENERATORS: dict[str, tuple[Callable[..., CountSequence], tuple[str, ...]]] = {
    "B1": (_b1, ("k",)),
    "B2": (_b2, ("k",)),
    "CB-adjacent": (_b2, ("k",)),
    "CB-interval": (thm_general1, ("k", "j")),
    "CB-gap2": (_b2, ("k",)),
    "CB-14-235": (thm_long_answer, ()),
    "N-class1": (n_class1, ()),
    "N-class2": (n_class2, ()),
    "N-class3": (n_class3, ()),
    "DC-p1": (partial(dc_small, "p1"), ()),
    "DC-p2-fibonacci": (partial(dc_small, "p2"), ()),
}

# Values: (needs_k, needs_j).
THEOREM_IDS: dict[str, tuple[bool, bool]] = {
    tid: ("k" in params, "j" in params) for tid, (_, params) in _GENERATORS.items()
}

_CANONICAL = {tid.lower(): tid for tid in THEOREM_IDS}


def normalize_theorem_id(theorem_id: str) -> str:
    """Resolve a case-insensitive generator id to its canonical form."""
    key = theorem_id.lower()
    if key not in _CANONICAL:
        known = ", ".join(sorted(THEOREM_IDS))
        raise InvalidInputError(
            f"unknown theorem id {theorem_id!r}; known ids: {known}"
        )
    return _CANONICAL[key]


def theorem_sequence(
    theorem_id: str,
    n_max: int,
    k: int | None = None,
    j: int | None = None,
) -> CountSequence:
    """Evaluate a named generator, checking its parameter requirements."""
    tid = normalize_theorem_id(theorem_id)
    generator, params = _GENERATORS[tid]
    given = {"k": k, "j": j}
    for name, value in given.items():
        if name in params and value is None:
            raise InvalidInputError(f"theorem {tid} requires {name}")
        if name not in params and value is not None:
            raise InvalidInputError(f"theorem {tid} takes no {name} parameter")
    return generator(*(given[name] for name in params), n_max)

"""Named sequence generators: recurrences, closed forms, rational g.f.s.

Each generator produces the exact avoidance counts of a specific
pattern family from its closed form alone, never from search, so the
brute-force counter and these formulas can be checked against each
other meaningfully.  All arithmetic is unbounded-integer exact.

Initial conditions follow the common shape a(n) = n! for n below the
pattern length; the handful of sequences with other initial segments
spell them out explicitly.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import comb, factorial
from typing import Callable

from .counting import CountSequence
from .errors import InvalidGfError, InvalidInputError
from .perms import _check_length


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


def thm_b1(k: int, n_max: int) -> CountSequence:
    """Counts for the complete bipartite pattern with a single top label.

    a(n) = n! below the pattern length, then (k-1)! (k-1)^(n-k+1):
    every further entry has k-1 admissible insertion slots.
    """
    _check_length(n_max)
    if k < 1:
        raise InvalidInputError("pattern length must be at least 1")
    values = [
        factorial(n) if n < k else factorial(k - 1) * (k - 1) ** (n - k + 1)
        for n in range(n_max + 1)
    ]
    return CountSequence(f"B1(k={k})", tuple(values), "theorem-name")


def thm_b1_gf(k: int) -> RationalGf:
    """Stated rational g.f. matching thm_b1 termwise."""
    if k < 1:
        raise InvalidInputError("pattern length must be at least 1")
    den = (1, -(k - 1))
    poly = tuple(factorial(i) for i in range(k))
    num = list(_poly_mul(poly, den))
    while len(num) < k + 1:
        num.append(0)
    num[k] += (k - 1) * factorial(k - 1)
    return RationalGf(tuple(num), den)


def thm_b2_recurrence(k: int, n_max: int) -> CountSequence:
    """Counts for complete bipartite patterns with a two-label top set
    placed adjacently or two apart: a(n) = 2(k-2)a(n-1) - (k-2)(k-3)a(n-2)
    once n reaches the pattern length.
    """
    _check_length(n_max)
    if k < 2:
        raise InvalidInputError("pattern length must be at least 2")
    values: list[int] = []
    for n in range(n_max + 1):
        if n < k:
            values.append(factorial(n))
        else:
            values.append(
                2 * (k - 2) * values[n - 1]
                - (k - 2) * (k - 3) * values[n - 2]
            )
    return CountSequence(f"B2(k={k})", tuple(values), "theorem-name")


def thm_b2_gf(k: int) -> RationalGf:
    """Stated rational g.f. matching thm_b2_recurrence termwise.

    The numerator's truncated factorial sums only encode the n! initial
    segment correctly from k = 4 up; smaller k is rejected (the
    recurrence form covers it).
    """
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
    interval of j+1 labels starting anywhere.

    Inclusion-exclusion over how many of the largest values sit inside
    the occurrence's top positions gives, for n at least k,
    a(n) = sum over l=1..j+1 of
    (-1)^(l-1) C(j+1, l) (k-j-1)(k-j-2)...(k-j-l) a(n-l).
    """
    _check_length(n_max)
    if j < 0:
        raise InvalidInputError("interval width must be non-negative")
    if k < j + 2:
        raise InvalidInputError(
            "pattern length must exceed the top interval"
        )
    values: list[int] = []
    for n in range(n_max + 1):
        if n < k:
            values.append(factorial(n))
            continue
        total = 0
        for ell in range(1, j + 2):
            coeff = comb(j + 1, ell)
            for t in range(1, ell + 1):
                coeff *= k - j - t
            term = coeff * values[n - ell]
            total += term if ell % 2 == 1 else -term
        values.append(total)
    return CountSequence(
        f"interval(k={k},j={j})", tuple(values), "theorem-name"
    )


def _long_answer_system(n_max: int) -> tuple[list[int], list[int]]:
    """Coupled system for the exceptional length-5 bipartite pattern
    (top labels 1 and 4): main counts a(n) and auxiliary counts b(n).
    """
    a = [1, 1, 2, 6, 24]
    b = [0, 0, 1]  # b(0) unused; b(1)=0, b(2)=1
    # The two recurrences feed each other two terms back, so they are
    # advanced together: b(n) uses a(n-2), a(n) uses b(n-2).
    for n in range(3, n_max + 1):
        b.append(a[n - 2] + b[n - 1] + 2 * sum(b[i] for i in range(2, n - 1)))
        if n >= 5:
            a.append(
                7 * a[n - 1] - 12 * a[n - 2] + 4 * a[n - 3] + 2 * b[n - 2]
            )
    return a[: n_max + 1], b[: n_max + 1]


def thm_long_answer(n_max: int) -> CountSequence:
    """Counts for the exceptional length-5 complete bipartite pattern
    whose top labels are 1 and 4 (equivalently 2 and 5)."""
    _check_length(n_max)
    a, _ = _long_answer_system(max(n_max, 4))
    return CountSequence(
        "exceptional-cb5", tuple(a[: n_max + 1]), "theorem-name"
    )


def n_class1_closed_form(n: int) -> int:
    """(3^n - 2n + 3) / 4, exactly."""
    value, rem = divmod(3**n - 2 * n + 3, 4)
    if rem:
        raise AssertionError(f"closed form not integral at n={n}")
    return value


def n_class1(n_max: int) -> CountSequence:
    """Counts for the largest class of length-4 path patterns.

    a(0)=a(1)=1 and a(n) = 4a(n-1) - 3a(n-2) + 1; each term is checked
    against the closed form (3^n - 2n + 3)/4 as it is produced.
    """
    _check_length(n_max)
    values = [1, 1]
    for n in range(2, n_max + 1):
        values.append(4 * values[n - 1] - 3 * values[n - 2] + 1)
    values = values[: n_max + 1]
    for n, v in enumerate(values):
        if v != n_class1_closed_form(n):
            raise AssertionError(
                f"recurrence and closed form disagree at n={n}"
            )
    return CountSequence("N-class1", tuple(values), "theorem-name")


def n_class1_gf() -> RationalGf:
    """(1-2x)^2 / ((1-3x)(1-x)^2)."""
    num = _poly_mul((1, -2), (1, -2))
    den = _poly_mul((1, -3), _poly_mul((1, -1), (1, -1)))
    return RationalGf(num, den)


def n_class2_binomial_sum(n: int) -> int:
    """sum over i of C(n+2i-1, 3i), valid for n >= 1."""
    if n < 1:
        raise InvalidInputError("binomial form defined for n >= 1")
    return sum(comb(n + 2 * i - 1, 3 * i) for i in range(n))


def n_class2(n_max: int) -> CountSequence:
    """Counts for the middle class of length-4 path patterns.

    a(0)=a(1)=1, a(2)=2, then a(n) = 4a(n-1) - 3a(n-2) + a(n-3); each
    term from n=1 on is checked against the binomial sum.
    """
    _check_length(n_max)
    values = [1, 1, 2]
    for n in range(3, n_max + 1):
        values.append(
            4 * values[n - 1] - 3 * values[n - 2] + values[n - 3]
        )
    values = values[: n_max + 1]
    for n in range(1, len(values)):
        if values[n] != n_class2_binomial_sum(n):
            raise AssertionError(
                f"recurrence and binomial sum disagree at n={n}"
            )
    return CountSequence("N-class2", tuple(values), "theorem-name")


def n_class2_gf() -> RationalGf:
    """(1 - 3x + x^2) / (1 - 4x + 3x^2 - x^3)."""
    return RationalGf((1, -3, 1), (1, -4, 3, -1))


def n_class3(n_max: int) -> CountSequence:
    """Counts for the two-member class of length-4 path patterns:
    a(n) = n! through n=3, then a(n) = 3a(n-1) + a(n-2) - a(n-3)."""
    _check_length(n_max)
    values = [1, 1, 2, 6]
    for n in range(4, n_max + 1):
        values.append(
            3 * values[n - 1] + values[n - 2] - values[n - 3]
        )
    return CountSequence(
        "N-class3", tuple(values[: n_max + 1]), "theorem-name"
    )


def dc_small(name: str, n_max: int) -> CountSequence:
    """Counts for the two three-label one-chain-plus-isolated patterns.

    p1 (chain 1<2, isolated 3): a(n) = n for n >= 1.
    p2 (chain 1<3, isolated 2): a(n) = a(n-1) + a(n-2) from n=3, the
    Fibonacci sequence in the indexing fixed by direct enumeration
    (a(1..5) = 1, 2, 3, 5, 8).
    """
    _check_length(n_max)
    key = name.lower()
    if key == "p1":
        values = [1] + [n for n in range(1, n_max + 1)]
        return CountSequence("DC-p1", tuple(values[: n_max + 1]), "theorem-name")
    if key == "p2":
        values = [1, 1, 2]
        for n in range(3, n_max + 1):
            values.append(values[n - 1] + values[n - 2])
        return CountSequence(
            "DC-p2-fibonacci", tuple(values[: n_max + 1]), "theorem-name"
        )
    raise InvalidInputError(f"unknown small pattern name {name!r}")


# Canonical generator ids exposed to the CLI, each with its generator
# (called as generator(n_max, k, j)) and whether it needs k and j.  The
# two-label top-set ids (adjacent and gap-2 placements) share the same
# counting law and delegate to the same recurrence; they exist as
# distinct ids so each placement's claim can be verified against brute
# force separately.
_GENERATORS: dict[str, tuple[Callable[..., CountSequence], bool, bool]] = {
    "B1": (lambda n_max, k, j: thm_b1(k, n_max), True, False),
    "B2": (lambda n_max, k, j: thm_b2_recurrence(k, n_max), True, False),
    "CB-adjacent": (lambda n_max, k, j: thm_b2_recurrence(k, n_max), True, False),
    "CB-interval": (lambda n_max, k, j: thm_general1(k, j, n_max), True, True),
    "CB-gap2": (lambda n_max, k, j: thm_b2_recurrence(k, n_max), True, False),
    "CB-14-235": (lambda n_max, k, j: thm_long_answer(n_max), False, False),
    "N-class1": (lambda n_max, k, j: n_class1(n_max), False, False),
    "N-class2": (lambda n_max, k, j: n_class2(n_max), False, False),
    "N-class3": (lambda n_max, k, j: n_class3(n_max), False, False),
    "DC-p1": (lambda n_max, k, j: dc_small("p1", n_max), False, False),
    "DC-p2-fibonacci": (lambda n_max, k, j: dc_small("p2", n_max), False, False),
}

# Values: (needs_k, needs_j).
THEOREM_IDS: dict[str, tuple[bool, bool]] = {
    tid: (needs_k, needs_j) for tid, (_, needs_k, needs_j) in _GENERATORS.items()
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
    generator, needs_k, needs_j = _GENERATORS[tid]
    if needs_k and k is None:
        raise InvalidInputError(f"theorem {tid} requires k")
    if needs_j and j is None:
        raise InvalidInputError(f"theorem {tid} requires j")
    if not needs_k and k is not None:
        raise InvalidInputError(f"theorem {tid} takes no k parameter")
    if not needs_j and j is not None:
        raise InvalidInputError(f"theorem {tid} takes no j parameter")
    return generator(n_max, k, j)

"""Partially ordered patterns in permutations.

A partially ordered pattern of length k is a partial order on the slots
1..k.  A permutation contains it when some k positions, read left to
right, realize every declared value comparison.  This package bundles
exact matching and enumeration, named counting sequences with their
rational generating functions, a truncated exponential-series calculus
for disjoint unions of chains, and an empirical Wilf classifier.
"""

from .counting import (
    CountSequence,
    avoidance_sequence,
    count_avoiders,
    count_quasi_avoiders,
)
from .egf import (
    DEFAULT_ORDER,
    TruncatedEgf,
    bipartite_dc_closed_form,
    chain_compose,
    dc_pop_egf,
    egf_add,
    egf_exp,
    egf_mul,
    egf_one,
    quasi_transform,
)
from .errors import (
    InvalidGfError,
    InvalidInputError,
    InvalidPosetError,
    ParseError,
    PopkitError,
    ResourceLimitError,
)
from .matcher import avoids, contains, count_occurrences, occurrences, quasi_avoids
from .notation import (
    build_pop,
    parse_pop,
    pop_from_text,
    poset_text,
    render_pop,
)
from .perms import DEFAULT_CAP, Permutation, reduce
from .posets import (
    PatternFamily,
    Poset,
    chain,
    complete_bipartite,
    dc_pop,
    from_relations,
    label_complement,
    n_pattern,
    vertical_flip,
    zigzag,
)
from .recurrences import (
    RationalGf,
    THEOREM_IDS,
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
    thm_b1_gf,
    thm_b2_gf,
    thm_general1,
    thm_long_answer,
)
from .wilf import WilfClass, WilfReport, cb_family, classify, n_pattern_family, symmetry_orbit

__version__ = "0.1.0"

__all__ = [
    "CountSequence",
    "DEFAULT_CAP",
    "DEFAULT_ORDER",
    "InvalidGfError",
    "InvalidInputError",
    "InvalidPosetError",
    "ParseError",
    "PatternFamily",
    "Permutation",
    "PopkitError",
    "Poset",
    "RationalGf",
    "ResourceLimitError",
    "THEOREM_IDS",
    "TruncatedEgf",
    "WilfClass",
    "WilfReport",
    "avoidance_sequence",
    "avoids",
    "bipartite_dc_closed_form",
    "build_pop",
    "cb_family",
    "chain",
    "chain_compose",
    "classify",
    "complete_bipartite",
    "contains",
    "count_avoiders",
    "count_occurrences",
    "count_quasi_avoiders",
    "dc_pop",
    "dc_pop_egf",
    "dc_small",
    "egf_add",
    "egf_exp",
    "egf_mul",
    "egf_one",
    "from_relations",
    "gf_coefficients",
    "label_complement",
    "n_class1",
    "n_class1_closed_form",
    "n_class1_gf",
    "n_class2",
    "n_class2_binomial_sum",
    "n_class2_gf",
    "n_class3",
    "n_pattern",
    "n_pattern_family",
    "occurrences",
    "parse_pop",
    "pop_from_text",
    "poset_text",
    "quasi_avoids",
    "quasi_transform",
    "reduce",
    "render_pop",
    "symmetry_orbit",
    "theorem_sequence",
    "thm_b1_gf",
    "thm_b2_gf",
    "thm_general1",
    "thm_long_answer",
    "vertical_flip",
    "zigzag",
]

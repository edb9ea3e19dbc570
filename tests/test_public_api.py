"""popkit's public names: one spelling per operation, every listed name
importable, and no second spelling left behind in its module."""

import pytest

import popkit
from popkit import egf, perms, posets

# Each former second spelling, or unused name, with the module that held it.
REMOVED = [
    (perms, "complement"),  # Permutation.complement
    (perms, "reverse"),  # Permutation.reverse
    (perms, "inverse"),  # Permutation.inverse
    (perms, "all_permutations"),  # itertools.permutations(range(1, n + 1))
    (egf, "egf_from_counts"),  # TruncatedEgf(counts)
    (egf, "egf_zero"),
    (egf, "egf_sequence"),
    (posets, "is_bipartite"),
]


def test_every_public_name_resolves():
    for name in popkit.__all__:
        assert hasattr(popkit, name), name


def test_public_names_sorted_and_unique():
    assert popkit.__all__ == sorted(set(popkit.__all__))


@pytest.mark.parametrize(
    "module, name", REMOVED, ids=[name for _, name in REMOVED]
)
def test_removed_name_is_gone(module, name):
    assert name not in popkit.__all__
    assert not hasattr(popkit, name)
    assert not hasattr(module, name)


def test_removed_methods_are_gone():
    # (a, b) in p.relations; egf_add and egf_mul
    assert not hasattr(popkit.Poset, "less")
    assert not hasattr(popkit.TruncatedEgf, "__add__")
    assert not hasattr(popkit.TruncatedEgf, "__mul__")


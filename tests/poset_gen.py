"""The random-poset generators of the test suite.

The test modules import it; pytest does not collect it.  Every random
poset is acyclic by construction, since each kept relation follows one
shuffled linear extension of the labels.  cb_strategy draws complete
bipartite posets, the members of the wide families.
"""

import random

from hypothesis import strategies as st

from popkit import complete_bipartite, from_relations


def random_poset(rng, max_k):
    """A poset on 1..k labels, k drawn up to max_k: shuffle a linear
    extension, then keep each of its pairs with probability 0.4."""
    k = rng.randint(1, max_k)
    order = list(range(1, k + 1))
    rng.shuffle(order)
    pairs = [
        (order[i], order[j])
        for i in range(k)
        for j in range(i + 1, k)
        if rng.random() < 0.4
    ]
    return from_relations(k, pairs)


def seeded_posets(count, seed, max_k):
    """count draws of random_poset from random.Random(seed)."""
    rng = random.Random(seed)
    return [random_poset(rng, max_k) for _ in range(count)]


def poset_strategy(max_k):
    """random_poset drawn by hypothesis, which shrinks it like any draw."""
    return st.builds(
        random_poset, st.randoms(use_true_random=False), st.just(max_k)
    )


def cb_strategy(max_k):
    """complete_bipartite(k, A) for k in 2..max_k and a nonempty proper
    upper set A, drawn by hypothesis."""
    return st.integers(2, max_k).flatmap(
        lambda k: st.sets(st.integers(1, k), min_size=1, max_size=k - 1).map(
            lambda a_set: complete_bipartite(k, a_set)
        )
    )

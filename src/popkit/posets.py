"""Labeled posets defining partially ordered patterns.

A pattern of length k is a strict partial order on the labels {1..k}.
The labels name the positions of a prospective occurrence, read left to
right; a relation a < b says "the value in occurrence position a must be
smaller than the value in occurrence position b".  A chain therefore
recovers a classical pattern, an antichain matches every subsequence,
and everything in between interpolates.

Builders cover every family used by the counting theorems: chains,
complete bipartite patterns (A over B), the length-4 path patterns
encoded by N-words, longer alternating paths, and disjoint unions of
chains.  The two label symmetries that preserve avoidance counts
(complementing the labels, dualizing the order) live here too.

Relations are stored transitively closed; every constructed Poset is a
valid strict partial order or the builder raises.  Closure and
closedness both come from R∘R: R is closed when R∘R ⊆ R, and its
closure is the fixpoint of R ∪ R∘R.  A bipartite R, one of two levels,
has R∘R empty and so is closed as it stands.
A direct Poset(...) call checks its input, which comes from outside, in
full.  Every builder instead checks its own arguments and ends in the
trusted constructor _trusted, which checks nothing: from_relations
closes its covers and rejects a cycle, the bipartite builders
(complete_bipartite, zigzag) list relations whose R∘R is empty, and the
label symmetries map a valid poset to a valid poset.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Sequence

from .errors import InvalidInputError, InvalidPosetError
from .perms import Permutation, _check_int, _is_int, reduce


Pair = tuple[int, int]


def _check_labels(k: int, pairs: Iterable[Pair]) -> None:
    """Reject a size k that is not a non-negative int, then the first
    pair, in iteration order, that is not a pair of int labels in 1..k."""
    _check_int("size", k)
    if k < 0:
        raise InvalidInputError(f"negative size: {k}")
    for pair in pairs:
        try:
            a, b = pair
        except (TypeError, ValueError):
            raise InvalidInputError(f"relation is not a pair: {pair!r}") from None
        if not (_is_int(a) and _is_int(b)):
            raise InvalidInputError(
                f"label is not an integer in relation ({a!r},{b!r})"
            )
        if not (1 <= a <= k and 1 <= b <= k):
            raise InvalidInputError(
                f"label out of range 1..{k} in relation ({a},{b})"
            )


def _compose(rels: frozenset[Pair]) -> set[Pair]:
    """R∘R: every pair (a, c) with (a, b) and (b, c) both in rels."""
    above: dict[int, list[int]] = {}
    for a, b in rels:
        above.setdefault(a, []).append(b)
    return {(a, c) for a, b in rels for c in above.get(b, ())}


def _check_acyclic(closed: frozenset[Pair]) -> None:
    """Reject a closed relation with a cycle.  A closed relation is
    antisymmetric once it is irreflexive: (a, b) and (b, a) close to
    (a, a)."""
    loops = [a for a, b in closed if a == b]
    if loops:
        raise InvalidPosetError(
            f"relations contain a cycle through label {min(loops)}"
        )


@dataclass(frozen=True)
class Poset:
    """Strict partial order on labels {1..k}, stored transitively closed.

    relations holds pairs (a, b) meaning a is below b.  Equality is
    label-exact: two posets are equal only when both k and the relation
    sets coincide.
    """

    k: int
    relations: frozenset[Pair]

    def __post_init__(self):
        rels = frozenset(self.relations)
        object.__setattr__(self, "relations", rels)
        _check_labels(self.k, rels)
        if not _compose(rels) <= rels:
            raise InvalidPosetError("relations are not transitively closed")
        _check_acyclic(rels)

    def __repr__(self) -> str:
        pairs = ",".join(f"({a},{b})" for a, b in sorted(self.relations))
        return f"Poset(k={self.k}, relations={{{pairs}}})"


def _trusted(k: int, relations: Iterable[Pair]) -> Poset:
    """A Poset built without Poset's checks, the last step of every
    builder.  Each caller guarantees what the checks would find: k is a
    non-negative int, every label is an int in 1..k, and the relations
    are transitively closed and hold no pair (a, a)."""
    poset = object.__new__(Poset)
    object.__setattr__(poset, "k", k)
    object.__setattr__(poset, "relations", frozenset(relations))
    return poset


def from_relations(k: int, covers: Iterable[Pair]) -> Poset:
    """Poset generated by arbitrary relation pairs (a below b).

    The pairs are closed by at most ceil(log2 k) rounds of R ∪ R∘R, and
    a cycle (including a pair given in both directions) is rejected.  An
    empty cover list gives the antichain, which every length-k
    subsequence matches.
    """
    pairs = tuple(covers)
    _check_labels(k, pairs)
    closed = frozenset(pairs)
    while not (longer := _compose(closed)) <= closed:
        closed |= longer
    _check_acyclic(closed)
    return _trusted(k, closed)


def chain(word: Permutation | Sequence[int]) -> Poset:
    """Chain poset whose occurrences are classical occurrences of word.

    Label i sits below label j exactly when word_i < word_j, so the
    values of an occurrence are ordered the same way as the word.  The
    covers are the labels of consecutive values, in rising order.
    """
    word = Permutation(word)
    labels = sorted(range(1, len(word) + 1), key=lambda i: word[i - 1])
    return from_relations(len(labels), zip(labels, labels[1:]))


def complete_bipartite(k: int, a_set: Iterable[int]) -> Poset:
    """Every label outside a_set below every label inside it.

    a_set must be a nonempty proper subset of {1..k}; the pattern asks
    for |a_set| values, at the a_set positions of the occurrence, that
    all exceed the values at the remaining positions.
    """
    _check_int("size", k)
    a_labels = set(a_set)
    for a in a_labels:
        _check_int("label", a)
        if not (1 <= a <= k):
            raise InvalidInputError(f"label {a} out of range 1..{k}")
    if not a_labels or len(a_labels) == k:
        raise InvalidInputError(
            "upper set must be a nonempty proper subset of the labels"
        )
    b_labels = set(range(1, k + 1)) - a_labels
    # No label of a_set is below another label, so R∘R is empty.
    return _trusted(k, ((b, a) for b in b_labels for a in a_labels))


def n_pattern(word: Permutation | Sequence[int]) -> Poset:
    """Length-4 path pattern encoded by a 4-letter word.

    The word lists the labels along the path low-high-low-high, giving
    relations w1 < w2, w3 < w2, w3 < w4: the zigzag of shape ^v^.
    """
    word = Permutation(word)
    if len(word) != 4:
        raise InvalidInputError("word must have length 4")
    return zigzag(word, "^v^")


SHAPE_ALIASES = {"^": "^", "v": "v", "∧": "^", "∨": "v"}


def zigzag(word: Permutation | Sequence[int], shape: str) -> Poset:
    """Alternating-path pattern with labels read along the path.

    shape is a string over {^, v}, one step per edge: '^' makes the next
    label an upper neighbour of the current one, 'v' a lower neighbour.
    Steps must strictly alternate (the path has no straight runs), and
    the word must be one letter longer than the shape.
    """
    word = Permutation(word)
    try:
        steps = "".join(SHAPE_ALIASES[c] for c in shape)
    except KeyError as exc:
        raise InvalidInputError(f"bad shape character in {shape!r}") from exc
    if len(word) != len(steps) + 1:
        raise InvalidInputError(
            f"word length {len(word)} does not fit shape of {len(steps)} steps"
        )
    for prev, cur in zip(steps, steps[1:]):
        if prev == cur:
            raise InvalidInputError(f"shape {shape!r} does not alternate")
    # Alternating steps make every label a local maximum or minimum of
    # the path, so no relation follows another: R∘R is empty.
    edges = zip(steps, word, word.entries[1:])
    return _trusted(
        len(word), ((a, b) if step == "^" else (b, a) for step, a, b in edges)
    )


def dc_pop(words: Sequence[Permutation | Sequence[int]]) -> Poset:
    """Disjoint union of chains, one per word, letters read top down.

    Each word lists one chain's labels from its maximum element to its
    minimum.  When the words' letters together form exactly {1..K} they
    are taken literally, so chains may interleave label ranges (e.g.
    [31, 2] puts labels 1 and 3 on the chain and leaves 2 isolated).
    Otherwise each word is reduced and the i-th chain takes the i-th
    consecutive block of labels.
    """
    if not words:
        raise InvalidInputError("need at least one chain word")
    letter_lists: list[tuple[int, ...]] = []
    for w in words:
        letters = tuple(w)
        if not letters:
            raise InvalidInputError("empty chain word")
        for v in letters:
            _check_int("letter", v)
        if len(set(letters)) != len(letters):
            raise InvalidInputError(f"repeated letter in chain word {letters!r}")
        if any(v < 1 for v in letters):
            raise InvalidInputError(f"non-positive letter in {letters!r}")
        letter_lists.append(letters)

    total = sum(len(w) for w in letter_lists)
    flat = [v for w in letter_lists for v in w]
    if sorted(flat) == list(range(1, total + 1)):
        blocks = letter_lists
    else:
        blocks = []
        base = 0
        for letters in letter_lists:
            rho = reduce(letters)
            blocks.append(tuple(base + r for r in rho))
            base += len(letters)

    covers = [(lo, hi) for labels in blocks for hi, lo in zip(labels, labels[1:])]
    return from_relations(total, covers)


def label_complement(p: Poset) -> Poset:
    """Replace each label x by k+1-x (an avoidance-preserving symmetry)."""
    k = p.k
    return _trusted(k, ((k + 1 - a, k + 1 - b) for a, b in p.relations))


def vertical_flip(p: Poset) -> Poset:
    """Order dual: reverse every relation (avoidance-preserving)."""
    return _trusted(p.k, ((b, a) for a, b in p.relations))


@dataclass(frozen=True)
class PatternFamily:
    """A named list of same-length posets, input to the classifier.

    display_names, when given, provides one human-readable notation
    string per member (e.g. "n:2134").
    """

    name: str
    members: tuple[Poset, ...]
    display_names: tuple[str, ...] | None = field(default=None)

    def __post_init__(self):
        object.__setattr__(self, "members", tuple(self.members))
        if self.display_names is not None:
            object.__setattr__(
                self, "display_names", tuple(self.display_names)
            )
        if not self.members:
            raise InvalidInputError("a pattern family cannot be empty")
        sizes = {p.k for p in self.members}
        if len(sizes) > 1:
            raise InvalidInputError(
                f"family members differ in length: {sorted(sizes)}"
            )
        if self.display_names is not None and len(self.display_names) != len(
            self.members
        ):
            raise InvalidInputError(
                "display_names must match members one to one"
            )

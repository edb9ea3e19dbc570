"""Textual pattern notation: parsing, rendering, and building.

The grammar is colon-separated and whitespace-insensitive:

    pop   := kind ":" payload
    kind  := "chain" | "cb" | "n" | "dc" | "zz" | "rel"

    chain:2134              chain of a classical pattern word
    cb:5:{1,4}              complete bipartite, upper labels listed
    n:3124                  length-4 path pattern by its word
    dc:[12|43|65]           disjoint chains, words top to bottom
    zz:^v^v:12435           alternating path: shape, then word
    rel:3:{(3,1),(2,1)}     raw relations, (a,b) meaning a below b

Word letters above 9 are parenthesized: (11)9(10).  Parsing produces a
small AST (one dataclass per kind) that canonicalizes order-insensitive
payloads, so parse(render(ast)) == ast and rendering parsed text is
idempotent.  Semantic checks (is the word a permutation? is the label
set proper?) belong to the builders, not the parser.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Iterable, Union

from .errors import ParseError
from .posets import (
    SHAPE_ALIASES,
    Poset,
    chain,
    complete_bipartite,
    dc_pop,
    from_relations,
    n_pattern,
    zigzag,
)


@dataclass(frozen=True)
class ChainSpec:
    word: tuple[int, ...]


@dataclass(frozen=True)
class CbSpec:
    k: int
    a_set: tuple[int, ...]

    def __post_init__(self):
        object.__setattr__(self, "a_set", tuple(sorted(set(self.a_set))))


@dataclass(frozen=True)
class NSpec:
    word: tuple[int, ...]


@dataclass(frozen=True)
class DcSpec:
    words: tuple[tuple[int, ...], ...]

    def __post_init__(self):
        object.__setattr__(
            self, "words", tuple(tuple(w) for w in self.words)
        )


@dataclass(frozen=True)
class ZzSpec:
    shape: str
    word: tuple[int, ...]

    def __post_init__(self):
        canonical = "".join(SHAPE_ALIASES.get(c, c) for c in self.shape)
        object.__setattr__(self, "shape", canonical)


@dataclass(frozen=True)
class RelSpec:
    k: int
    pairs: tuple[tuple[int, int], ...]

    def __post_init__(self):
        object.__setattr__(
            self,
            "pairs",
            tuple(sorted({(a, b) for a, b in self.pairs})),
        )


PopSpec = Union[ChainSpec, CbSpec, NSpec, DcSpec, ZzSpec, RelSpec]

KINDS = ("chain", "cb", "n", "dc", "zz", "rel")


class _Cursor:
    """Character cursor that raises ParseError with byte offsets."""

    def __init__(self, text: str):
        self.text = text
        self.pos = 0

    def fail(self, message: str, expected: tuple[str, ...] = ()) -> None:
        offset = len(self.text[: self.pos].encode("utf-8"))
        raise ParseError(message, offset, expected)

    def skip_ws(self) -> None:
        while self.pos < len(self.text) and self.text[self.pos].isspace():
            self.pos += 1

    def peek(self) -> str:
        return self.text[self.pos] if self.pos < len(self.text) else ""

    def eat(self, token: str) -> None:
        self.skip_ws()
        if not self.text.startswith(token, self.pos):
            self.fail(f"expected {token!r}", (token,))
        self.pos += len(token)

    def try_eat(self, token: str) -> bool:
        self.skip_ws()
        if self.text.startswith(token, self.pos):
            self.pos += len(token)
            return True
        return False

    def parse_int(self) -> int:
        self.skip_ws()
        start = self.pos
        while "0" <= self.peek() <= "9":
            self.pos += 1
        if self.pos == start:
            self.fail("expected a number", ("digit",))
        digits = self.text[start : self.pos]
        try:
            return int(digits)
        except ValueError:  # more digits than the int-to-str limit
            self.pos = start
            self.fail(f"number too long ({len(digits)} digits)")

    def parse_word(self) -> tuple[int, ...]:
        """Letters: single digits 1-9, or (NN) for larger labels."""
        self.skip_ws()
        letters = []
        while True:
            c = self.peek()
            if "0" <= c <= "9":
                if c == "0":
                    self.fail("word letters start at 1", ("digit 1-9", "'('"))
                letters.append(int(c))
                self.pos += 1
            elif c == "(":
                self.pos += 1
                value = self.parse_int()
                self.eat(")")
                letters.append(value)
            else:
                break
        if not letters:
            self.fail("expected a word", ("digit 1-9", "'('"))
        return tuple(letters)

    def parse_pair(self) -> tuple[int, int]:
        self.eat("(")
        a = self.parse_int()
        self.eat(",")
        b = self.parse_int()
        self.eat(")")
        return a, b

    def parse_list(self, item, sep: str, close: str) -> list:
        """Read item (sep item)* close; the caller has eaten the opener."""
        items = [item()]
        while self.try_eat(sep):
            items.append(item())
        self.eat(close)
        return items

    def parse_shape(self) -> str:
        self.skip_ws()
        start = self.pos
        while self.peek() in SHAPE_ALIASES:
            self.pos += 1
        if self.pos == start:
            self.fail("expected a shape", ("'^'", "'v'"))
        return self.text[start : self.pos]

    def expect_end(self) -> None:
        self.skip_ws()
        if self.pos != len(self.text):
            self.fail("trailing input", ("end of input",))


def parse_pop(text: str) -> PopSpec:
    """Parse pattern notation to its AST.

    Raises ParseError (with byte offset and the acceptable tokens) on
    malformed syntax; semantic problems are left to the builders.
    """
    cur = _Cursor(text)
    cur.skip_ws()
    # No kind is a prefix of another, so at most one matches.
    kind = next((kind for kind in KINDS if cur.try_eat(kind)), None)
    if kind is None:
        cur.fail("expected a pattern kind", KINDS)
    cur.eat(":")

    if kind == "chain":
        spec: PopSpec = ChainSpec(cur.parse_word())
    elif kind == "n":
        spec = NSpec(cur.parse_word())
    elif kind == "cb":
        k = cur.parse_int()
        cur.eat(":")
        cur.eat("{")
        spec = CbSpec(k, tuple(cur.parse_list(cur.parse_int, ",", "}")))
    elif kind == "dc":
        cur.eat("[")
        spec = DcSpec(tuple(cur.parse_list(cur.parse_word, "|", "]")))
    elif kind == "zz":
        shape = cur.parse_shape()
        cur.eat(":")
        spec = ZzSpec(shape, cur.parse_word())
    else:  # rel
        k = cur.parse_int()
        cur.eat(":")
        cur.eat("{")
        pairs = [] if cur.try_eat("}") else cur.parse_list(cur.parse_pair, ",", "}")
        spec = RelSpec(k, tuple(pairs))

    cur.expect_end()
    return spec


def _render_word(word: tuple[int, ...]) -> str:
    return "".join(str(v) if v <= 9 else f"({v})" for v in word)


@lru_cache(maxsize=4096)
def _pair_text(pair: tuple[int, int]) -> str:
    return f"({pair[0]},{pair[1]})"


def _rel_text(k: int, sorted_pairs: Iterable[tuple[int, int]]) -> str:
    return f"rel:{k}:{{{','.join(map(_pair_text, sorted_pairs))}}}"


def render_pop(spec: PopSpec) -> str:
    """Canonical text for an AST (sets and relations in sorted order)."""
    if isinstance(spec, ChainSpec):
        return f"chain:{_render_word(spec.word)}"
    if isinstance(spec, CbSpec):
        labels = ",".join(str(v) for v in spec.a_set)
        return f"cb:{spec.k}:{{{labels}}}"
    if isinstance(spec, NSpec):
        return f"n:{_render_word(spec.word)}"
    if isinstance(spec, DcSpec):
        return "dc:[" + "|".join(_render_word(w) for w in spec.words) + "]"
    if isinstance(spec, ZzSpec):
        return f"zz:{spec.shape}:{_render_word(spec.word)}"
    if isinstance(spec, RelSpec):
        return _rel_text(spec.k, spec.pairs)
    raise TypeError(f"not a pattern spec: {spec!r}")


def build_pop(spec: PopSpec) -> Poset:
    """Construct the poset an AST describes (semantic checks happen here)."""
    if isinstance(spec, ChainSpec):
        return chain(spec.word)
    if isinstance(spec, CbSpec):
        return complete_bipartite(spec.k, spec.a_set)
    if isinstance(spec, NSpec):
        return n_pattern(spec.word)
    if isinstance(spec, DcSpec):
        return dc_pop(spec.words)
    if isinstance(spec, ZzSpec):
        return zigzag(spec.word, spec.shape)
    if isinstance(spec, RelSpec):
        return from_relations(spec.k, spec.pairs)
    raise TypeError(f"not a pattern spec: {spec!r}")


def pop_from_text(text: str) -> Poset:
    """Parse and build in one step."""
    return build_pop(parse_pop(text))


def poset_text(p: Poset) -> str:
    """Canonical raw-relation notation for an arbitrary poset."""
    return _rel_text(p.k, sorted(p.relations))

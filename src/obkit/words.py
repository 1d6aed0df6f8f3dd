"""Parsers for the word, ring-element, Wh-element and generator-sequence
string grammars used by scenario files and the CLI.

Words follow ``ident ('^' int)? ('*' ...)*`` with ``1`` for the identity;
integers are written with the ASCII digits ``0-9`` only, and at most
``restricted_json.MAX_INT_DIGITS`` of them, the limit scenario files have.
A word writes at most MAX_WORD_LETTERS letters of free generators and
of free-rank abelian generators, the sum of their exponents' absolute
values, checked before each is built: a module acts on a^e by |e|
matrix applications.
Ring elements are integer combinations like ``2*g + -1*h`` or ``1 - t``.
Wh elements look like ``(1,0)[s*t] + (0,2)[t]`` or ``-2[s]``, with plain
integer coefficients allowed for rank-one modules.  Generator sequences
look like ``E(1,2,"t") ; D(1,"-s")`` with 1-based indices.
"""

from __future__ import annotations

from .errors import ObkitError
from .gmodules import GModule
from .groupring import DiagonalGen, ElementaryGen
from .groups import GroupElement, GroupSpec, multiply
from .restricted_json import MAX_INT_DIGITS
from .wh1 import WhElement

__all__ = [
    "WordError",
    "parse_word",
    "parse_wh",
    "parse_generator_sequence",
]

# Largest number of free-generator letters one word may write, four
# times the longest word of the fixtures and the benchmark (t^24).
MAX_WORD_LETTERS = 96


class WordError(ObkitError):
    """A grammar or name error inside an element string."""

    def __init__(self, message: str, pos: int):
        super().__init__(f"{message} (at offset {pos})")
        self.message = message
        self.pos = pos


class _Tokens:
    SYMBOLS = set("*^+-()[],;")

    def __init__(self, text: str):
        self.text = text
        self.items: list[tuple[str, str, int]] = []
        i = 0
        n = len(text)
        while i < n:
            ch = text[i]
            if ch.isspace():
                i += 1
                continue
            if "0" <= ch <= "9":
                j = i
                while j < n and "0" <= text[j] <= "9":
                    j += 1
                if j - i > MAX_INT_DIGITS:
                    raise WordError(f"integer has more than {MAX_INT_DIGITS} digits", i)
                self.items.append(("num", text[i:j], i))
                i = j
            elif ch.isalpha() or ch == "_":
                j = i
                while j < n and (text[j].isalnum() or text[j] == "_"):
                    j += 1
                self.items.append(("ident", text[i:j], i))
                i = j
            elif ch == '"':
                j = i + 1
                while j < n and text[j] != '"':
                    j += 1
                if j >= n:
                    raise WordError("unterminated string", i)
                self.items.append(("string", text[i + 1:j], i))
                i = j + 1
            elif ch in self.SYMBOLS:
                self.items.append((ch, ch, i))
                i += 1
            else:
                raise WordError(f"unexpected character {ch!r}", i)
        self.pos = 0

    def peek(self):
        if self.pos < len(self.items):
            return self.items[self.pos]
        return ("end", "", len(self.text))

    def next(self):
        tok = self.peek()
        if tok[0] != "end":
            self.pos += 1
        return tok

    def number(self) -> int:
        """Consume a digit run and return its value."""
        return int(self.expect("num")[1])

    def expect(self, kind: str):
        tok = self.next()
        if tok[0] != kind:
            raise WordError(f"expected {kind!r}, found {tok[1] or 'end of input'!r}", tok[2])
        return tok

    @property
    def done(self) -> bool:
        return self.peek()[0] == "end"


def _sign(toks: _Tokens) -> int:
    """Consume a run of '+' and '-' tokens; -1 if it holds an odd number
    of '-', else 1."""
    sign = 1
    while toks.peek()[0] in ("+", "-"):
        if toks.next()[0] == "-":
            sign = -sign
    return sign


def _parse_signed_int(toks: _Tokens) -> int:
    return _sign(toks) * toks.number()


def _parse_word_body(spec: GroupSpec, toks: _Tokens) -> GroupElement:
    out = spec.identity()
    letters = 0
    while True:
        tok = toks.next()
        if tok[0] == "num":
            if tok[1] != "1":
                raise WordError("only '1' may appear as a word atom", tok[2])
        elif tok[0] == "ident":
            try:
                fi, gi = spec.locate(tok[1])
            except ValueError:
                raise WordError(f"unknown generator {tok[1]!r}", tok[2]) from None
            exp = 1
            if toks.peek()[0] == "^":
                toks.next()
                exp = _parse_signed_int(toks)
            factor = spec.factors[fi]
            if factor.kind == "free" or gi < factor.free_rank:
                letters += abs(exp)
                if letters > MAX_WORD_LETTERS:
                    raise WordError(
                        f"word has more than {MAX_WORD_LETTERS} free letters", tok[2])
            out = multiply(out, spec.generator(tok[1], exp))
        else:
            raise WordError(f"expected a generator, found {tok[1] or 'end of input'!r}", tok[2])
        if toks.peek()[0] == "*":
            toks.next()
            continue
        return out


def parse_word(spec: GroupSpec, text: str) -> GroupElement:
    toks = _Tokens(text)
    out = _parse_word_body(spec, toks)
    if not toks.done:
        tok = toks.peek()
        raise WordError(f"unexpected trailing {tok[1]!r}", tok[2])
    return out


def _parse_ring_term(spec: GroupSpec, toks: _Tokens) -> tuple[GroupElement, int]:
    sign = _sign(toks)
    if toks.peek()[0] == "num":
        coeff = sign * toks.number()
        if toks.peek()[0] != "*":
            return spec.identity(), coeff
        toks.next()
        return _parse_word_body(spec, toks), coeff
    return _parse_word_body(spec, toks), sign


def _parse_ring(spec: GroupSpec, text: str) -> dict:
    """The terms {group element: nonzero coefficient} of a ring element."""
    toks = _Tokens(text)
    terms: dict = {}
    while True:
        g, c = _parse_ring_term(spec, toks)
        terms[g] = terms.get(g, 0) + c
        if toks.done:
            return {g: c for g, c in terms.items() if c}
        tok = toks.peek()
        if tok[0] not in ("+", "-"):
            raise WordError(f"expected '+' or '-', found {tok[1]!r}", tok[2])


def _parse_wh_coeff(module: GModule, toks: _Tokens, sign: int, pos: int):
    tok = toks.peek()
    if tok[0] == "num":
        if module.rank != 1:
            raise WordError("tuple coefficient required for a module of rank > 1", tok[2])
        return (sign * toks.number(),)
    if tok[0] == "(":
        toks.next()
        coords = [_parse_signed_int(toks)]
        while toks.peek()[0] == ",":
            toks.next()
            coords.append(_parse_signed_int(toks))
        toks.expect(")")
        if len(coords) != module.rank:
            raise WordError(
                f"coefficient has {len(coords)} coordinates, module rank is {module.rank}",
                tok[2],
            )
        return tuple(sign * x for x in coords)
    if tok[0] == "[":
        if module.rank != 1:
            raise WordError("tuple coefficient required for a module of rank > 1", tok[2])
        return (sign,)
    raise WordError(f"expected a coefficient or '[', found {tok[1] or 'end of input'!r}", pos)


def parse_wh(module: GModule, text: str) -> WhElement:
    toks = _Tokens(text)
    if toks.peek()[0] == "num" and toks.peek()[1] == "0":
        start = toks.pos
        toks.next()
        if toks.done:
            return WhElement.zero(module)
        toks.pos = start
    terms = []
    first = True
    while True:
        sign = _sign(toks)
        tok = toks.peek()
        if not first and tok[0] == "end":
            raise WordError("dangling operator", tok[2])
        coords = _parse_wh_coeff(module, toks, sign, tok[2])
        toks.expect("[")
        word = _parse_word_body(module.spec, toks)
        toks.expect("]")
        terms.append((coords, word))
        first = False
        if toks.done:
            break
        tok = toks.peek()
        if tok[0] not in ("+", "-"):
            raise WordError(f"expected '+' or '-', found {tok[1]!r}", tok[2])
    return WhElement.build(module, terms)


def parse_generator_sequence(spec: GroupSpec, n: int, text: str):
    """Parse ``E(i,j,"ring") ; D(i,"word")`` items with 1-based indices."""
    toks = _Tokens(text)
    gens = []
    if toks.done:
        return tuple(gens)
    while True:
        tok = toks.expect("ident")
        kind = tok[1]
        if kind not in ("E", "D"):
            raise WordError(f"expected generator kind 'E' or 'D', found {kind!r}", tok[2])
        toks.expect("(")
        i = _parse_signed_int(toks)
        if not 1 <= i <= n:
            raise WordError(f"index {i} out of range 1..{n}", tok[2])
        if kind == "E":
            toks.expect(",")
            j = _parse_signed_int(toks)
            if not 1 <= j <= n:
                raise WordError(f"index {j} out of range 1..{n}", tok[2])
            if i == j:
                raise WordError("elementary indices must differ", tok[2])
            toks.expect(",")
            body = toks.expect("string")
            try:
                x = _parse_ring(spec, body[1])
            except WordError as err:
                raise WordError(f"in E(...): {err.message}", body[2]) from None
            gens.append(ElementaryGen(i - 1, j - 1, x))
        else:
            toks.expect(",")
            body = toks.expect("string")
            inner = _Tokens(body[1])
            sign = _sign(inner)
            try:
                g = _parse_word_body(spec, inner)
                if not inner.done:
                    raise WordError("unexpected trailing input", inner.peek()[2])
            except WordError as err:
                raise WordError(f"in D(...): {err.message}", body[2]) from None
            gens.append(DiagonalGen(i - 1, sign, g))
        toks.expect(")")
        if toks.done:
            return tuple(gens)
        toks.expect(";")

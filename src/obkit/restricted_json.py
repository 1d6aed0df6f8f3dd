"""A minimal JSON profile: objects, arrays, strings and integers only.

Floats, exponents, booleans and null are rejected so that scenario
fixtures stay bit-exact and diffable.  The text is UTF-8 (``load_scenario``
decodes it), and integers are written with the ASCII digits ``0-9`` only.

An integer has at most MAX_INT_DIGITS digits, the least value Python's
``int_max_str_digits`` setting can take, so ``int()`` accepts every literal
under any setting; containers nest at most MAX_DEPTH deep, far from the
recursion limit.  Each limit is diagnosed where the literal or container starts.

``decode_json`` returns plain values: an object is a tuple of (key, value)
pairs in file order, duplicate keys kept, an array a list, a string a str
and an integer an int.  It reads the text with the stdlib ``json`` C
scanner, guarded so that what the scanner accepts the profile accepts with
the same values: the text holds no ``\\u`` (the profile joins an escaped
surrogate pair into its code point as the scanner does, but refuses a
lone surrogate escape, which no UTF-8 output can write), the hooks refuse
floats, ``NaN``, ``Infinity`` and integers past MAX_INT_DIGITS digits, and
a walk of the result refuses ``true``, ``false``, ``null`` and containers
past MAX_DEPTH levels.  Any other text, and any text the scanner refuses,
goes to ``parse_json``, the positioned parser, which diagnoses it or
accepts it (a raw tab in a string, say) and has its tree converted.

``parse_json`` gives every value its line and column.  A caller that
decodes a file needs them only for a diagnostic: it parses again then,
unless the decoder already fell back to ``parse_json`` (``_decode``).
The positioned parser scans each token class with one compiled regex:
whitespace, the plain run of a string up to its next quote, backslash or
newline, and an integer.  Line starts are found once, and an offset maps
to its ``line:col`` by bisection.
"""

from __future__ import annotations

import json
import re
from bisect import bisect_right
from dataclasses import dataclass
from itertools import chain
from operator import itemgetter

from .errors import ObkitError

__all__ = ["Node", "JsonError", "parse_json", "decode_json"]

MAX_INT_DIGITS = 640
MAX_DEPTH = 64

_ESCAPES = {'"': '"', "\\": "\\", "/": "/", "b": "\b", "f": "\f",
            "n": "\n", "r": "\r", "t": "\t"}
_WS = re.compile(r"[ \t\r\n]*")
_PLAIN = re.compile(r'[^"\\\n]*')
_INT = re.compile(r"-?([0-9]*)")
_HEX4 = re.compile(r"[0-9a-fA-F]{4}")
_LOW_SURROGATE = re.compile(r"\\u([dD][c-fC-F][0-9a-fA-F]{2})")


class JsonError(ObkitError):
    def __init__(self, message: str, line: int, col: int):
        super().__init__(f"{line}:{col}: {message}")
        self.message = message
        self.line = line
        self.col = col


@dataclass
class Node:
    """A parsed value: kind is 'object', 'array', 'string' or 'int'.

    Object values are lists of (key, key_line, key_col, Node) preserving
    file order; array values are lists of Nodes.
    """

    kind: str
    value: object
    line: int
    col: int


class _Parser:
    def __init__(self, text: str):
        self.text = text
        self.pos = 0
        self.depth = 0
        self.line_starts = [0] + [m.end() for m in re.finditer("\n", text)]

    def where(self, pos: int | None = None) -> tuple[int, int]:
        pos = self.pos if pos is None else pos
        line = bisect_right(self.line_starts, pos)
        return line, pos - self.line_starts[line - 1] + 1

    def fail(self, message: str, pos: int | None = None):
        line, col = self.where(pos)
        raise JsonError(message, line, col)

    def skip_ws(self) -> str:
        """Move past whitespace and return the next character, or ''."""
        self.pos = pos = _WS.match(self.text, self.pos).end()
        return self.text[pos:pos + 1]

    def parse(self) -> Node:
        node = self.parse_value()
        self.skip_ws()
        if self.pos != len(self.text):
            self.fail("trailing content after the document")
        return node

    def parse_value(self) -> Node:
        ch = self.skip_ws()
        if ch == "{" or ch == "[":
            self.depth += 1
            if self.depth > MAX_DEPTH:
                self.fail(f"containers nest deeper than {MAX_DEPTH} levels")
            node = self.parse_object() if ch == "{" else self.parse_array()
            self.depth -= 1
            return node
        if ch == '"':
            return self.parse_string()
        if ch == "-" or "0" <= ch <= "9":
            return self.parse_int()
        if self.text.startswith(("true", "false", "null"), self.pos):
            self.fail("booleans and null are not allowed in this profile")
        if ch == "":
            self.fail("unexpected end of input")
        self.fail(f"unexpected character {ch!r}")

    def parse_object(self) -> Node:
        line, col = self.where()
        self.pos += 1
        items = []
        if self.skip_ws() == "}":
            self.pos += 1
            return Node("object", items, line, col)
        while True:
            if self.skip_ws() != '"':
                self.fail("object keys must be strings")
            key = self.parse_string()
            if self.skip_ws() != ":":
                self.fail("expected ':' after object key")
            self.pos += 1
            items.append((key.value, key.line, key.col, self.parse_value()))
            ch = self.skip_ws()
            if ch == ",":
                self.pos += 1
                continue
            if ch == "}":
                self.pos += 1
                return Node("object", items, line, col)
            self.fail("expected ',' or '}' in object")

    def parse_array(self) -> Node:
        line, col = self.where()
        self.pos += 1
        items = []
        if self.skip_ws() == "]":
            self.pos += 1
            return Node("array", items, line, col)
        while True:
            items.append(self.parse_value())
            ch = self.skip_ws()
            if ch == ",":
                self.pos += 1
                continue
            if ch == "]":
                self.pos += 1
                return Node("array", items, line, col)
            self.fail("expected ',' or ']' in array")

    def parse_string(self) -> Node:
        line, col = self.where()
        text = self.text
        start = self.pos
        out = []
        pos = start + 1
        while True:
            end = _PLAIN.match(text, pos).end()
            out.append(text[pos:end])
            ch = text[end:end + 1]
            if ch == '"':
                self.pos = end + 1
                return Node("string", "".join(out), line, col)
            if ch == "":
                self.fail("unterminated string", start)
            if ch == "\n":
                self.fail("unescaped newline in string", start)
            esc = text[end + 1:end + 2]
            if esc in _ESCAPES:
                out.append(_ESCAPES[esc])
                pos = end + 2
            elif esc == "u":
                if _HEX4.fullmatch(text, end + 2, end + 6) is None:
                    self.fail("invalid unicode escape", end + 1)
                code = int(text[end + 2:end + 6], 16)
                pos = end + 6
                if 0xD800 <= code < 0xE000:
                    # A surrogate is text only as the high half of an
                    # escaped pair, which is joined into its code point.
                    low = _LOW_SURROGATE.match(text, pos)
                    if code >= 0xDC00 or low is None:
                        self.fail("unpaired surrogate in unicode escape", end + 1)
                    code = 0x10000 + (code - 0xD800) * 0x400 + int(low.group(1), 16) - 0xDC00
                    pos = low.end()
                out.append(chr(code))
            else:
                self.fail(f"invalid escape {esc!r}", end + 1)

    def parse_int(self) -> Node:
        line, col = self.where()
        start = self.pos
        match = _INT.match(self.text, start)
        digits = match.group(1)
        if not digits:
            self.fail("expected digits", match.start(1))
        self.pos = end = match.end()
        if self.text[end:end + 1] in (".", "e", "E"):
            self.fail("non-integer numbers are not allowed in this profile", start)
        if len(digits) > 1 and digits[0] == "0":
            self.fail("leading zeros are not allowed", start)
        if len(digits) > MAX_INT_DIGITS:
            self.fail(f"integer has more than {MAX_INT_DIGITS} digits", start)
        return Node("int", int(match.group()), line, col)


def parse_json(text: str) -> Node:
    return _Parser(text).parse()


class _Refused(Exception):
    """A value the scanner read that the profile refuses or limits."""


def _refuse(literal: str):
    raise _Refused(literal)


def _int(literal: str) -> int:
    if len(literal) > MAX_INT_DIGITS and len(literal.lstrip("-")) > MAX_INT_DIGITS:
        raise _Refused(literal)
    return int(literal)


_SCANNER = json.JSONDecoder(object_pairs_hook=tuple, parse_float=_refuse,
                            parse_int=_int, parse_constant=_refuse)
_second = itemgetter(1)


def _outside_profile(value) -> bool:
    """Whether a decoded value holds ``true``, ``false`` or ``null``, or a
    container MAX_DEPTH + 1 levels deep, found one level at a time."""
    level = [value]
    for _ in range(MAX_DEPTH + 1):
        if {bool, type(None)} & set(map(type, level)):
            return True
        level = [x for x in level if type(x) is list or type(x) is tuple]
        if not level:
            return False
        level = list(chain.from_iterable(c if type(c) is list else map(_second, c) for c in level))
    return True


def _plain(node: Node):
    if node.kind == "object":
        return tuple((key, _plain(value)) for key, _, _, value in node.value)
    if node.kind == "array":
        return [_plain(item) for item in node.value]
    return node.value


def _decode(text: str):
    """(``decode_json``'s value, ``parse_json``'s root if it read the text, else None)."""
    if "\\u" not in text:
        try:
            value = _SCANNER.decode(text)
        except (_Refused, json.JSONDecodeError, RecursionError):
            pass
        else:
            if not _outside_profile(value):
                return value, None
    root = parse_json(text)
    return _plain(root), root


def decode_json(text: str):
    """The plain value of a profile document, or JsonError as
    ``parse_json`` raises it.  Positions are not found."""
    return _decode(text)[0]

"""A minimal JSON-profile parser: objects, arrays, strings and integers
only, with line/column positions on every node and every error.

Floats, exponents, booleans and null are rejected so that scenario
fixtures stay bit-exact and diffable.  The text is UTF-8 (``load_scenario``
decodes it), and integers are written with the ASCII digits ``0-9`` only.

An integer has at most MAX_INT_DIGITS digits, the least value Python's
``int_max_str_digits`` setting can take, so ``int()`` accepts every literal
under any setting; containers nest at most MAX_DEPTH deep, far from the
recursion limit.  Each limit is diagnosed where the literal or container starts.

Each token class is scanned by one compiled regex, not one loop turn per
character: whitespace, the plain run of a string up to its next quote,
backslash or newline, and an integer.  The common tokens are matched
whole, with the whitespace before them: an object key and its colon, and
a string without escapes or a well-formed integer.  Anything else takes
the general path, which gives every diagnostic.  Line starts are found
once, and an offset maps to its ``line:col`` by bisection.
"""

from __future__ import annotations

import re
from bisect import bisect_right
from dataclasses import dataclass

from .errors import ObkitError

__all__ = ["Node", "JsonError", "parse_json"]

MAX_INT_DIGITS = 640
MAX_DEPTH = 64

_ESCAPES = {'"': '"', "\\": "\\", "/": "/", "b": "\b", "f": "\f",
            "n": "\n", "r": "\r", "t": "\t"}
_WS = re.compile(r"[ \t\r\n]*")
_PLAIN = re.compile(r'[^"\\\n]*')
_INT = re.compile(r"-?([0-9]*)")
_HEX4 = re.compile(r"[0-9a-fA-F]{4}")
# An integer is matched whole only when no digit, '.', 'e' or 'E' follows,
# so a leading zero or a fraction is left to the general path.
_KEY = re.compile(r'[ \t\r\n]*"([^"\\\n]*)"[ \t\r\n]*:')
_SCALAR = re.compile(r'[ \t\r\n]*(?:"([^"\\\n]*)"|(-?(?:0|[1-9][0-9]*))(?![0-9.eE]))?')


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
        match = _SCALAR.match(self.text, self.pos)
        self.pos = match.end()
        string, number = match.groups()
        if string is not None:
            line, col = self.where(match.start(1) - 1)
            return Node("string", string, line, col)
        if number is not None:
            line, col = self.where(match.start(2))
            return Node("int", self.to_int(number, match.start(2)), line, col)
        ch = self.text[self.pos:self.pos + 1]
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
            match = _KEY.match(self.text, self.pos)
            if match is not None:
                key = match.group(1)
                key_line, key_col = self.where(match.start(1) - 1)
                self.pos = match.end()
            else:
                if self.skip_ws() != '"':
                    self.fail("object keys must be strings")
                key_node = self.parse_string()
                key, key_line, key_col = key_node.value, key_node.line, key_node.col
                if self.skip_ws() != ":":
                    self.fail("expected ':' after object key")
                self.pos += 1
            items.append((key, key_line, key_col, self.parse_value()))
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
                out.append(chr(int(text[end + 2:end + 6], 16)))
                pos = end + 6
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
        return Node("int", self.to_int(match.group(), start), line, col)

    def to_int(self, literal: str, start: int) -> int:
        """The value of an integer literal that begins at ``start``."""
        if len(literal.lstrip("-")) > MAX_INT_DIGITS:
            self.fail(f"integer has more than {MAX_INT_DIGITS} digits", start)
        return int(literal)


def parse_json(text: str) -> Node:
    return _Parser(text).parse()

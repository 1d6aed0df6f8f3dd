"""Element-string grammars and the restricted JSON profile."""

import pathlib
import re
import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from obkit import restricted_json
from obkit.groupring import DiagonalGen, ElementaryGen
from obkit.restricted_json import (MAX_DEPTH, MAX_INT_DIGITS, JsonError, Node, decode_json,
                                   parse_json)
from obkit.wh1 import WhElement
from obkit.groups import GroupSpec
from obkit.words import (
    MAX_WORD_LETTERS,
    WordError,
    parse_generator_sequence,
    _parse_ring,
    parse_wh,
    parse_word,
)
from support import mixed_spec, reference_parse_json, trivial_module, zz2_spec

SCENARIOS = pathlib.Path(__file__).resolve().parent.parent / "scenarios"
FIXTURE_TEXTS = tuple((SCENARIOS / name).read_text(encoding="utf-8")
                      for name in ("paper_f2.json", "paper_z2.json", "paper_z6.json"))
NON_ASCII_DIGITS = ("\u00b2", "\u0663")


def test_parse_word_round_trip():
    spec = mixed_spec()
    for text in ["1", "x", "x^2*y^-1", "x*a^-1*s^3", "s^3*x^2"]:
        g = parse_word(spec, text)
        assert parse_word(spec, str(g)) == g


def test_parse_word_identity_and_torsion():
    spec = zz2_spec()
    assert parse_word(spec, "1").is_identity
    assert parse_word(spec, "s^2").is_identity
    assert parse_word(spec, "t*s^2*t^-1").is_identity
    assert parse_word(spec, "s^-1") == spec.generator("s")


def test_parse_word_errors():
    spec = zz2_spec()
    with pytest.raises(WordError):
        parse_word(spec, "w")
    with pytest.raises(WordError):
        parse_word(spec, "t*")
    with pytest.raises(WordError):
        parse_word(spec, "2")
    with pytest.raises(WordError):
        parse_word(spec, "t^")


def test_parse_ring():
    spec = zz2_spec()
    t = spec.generator("t")
    s = spec.generator("s")
    one = spec.identity()
    assert _parse_ring(spec, "1+s") == {one: 1, s: 1}
    assert _parse_ring(spec, "2*t + -1*s") == {t: 2, s: -1}
    assert _parse_ring(spec, "1 - t") == {one: 1, t: -1}
    assert _parse_ring(spec, "-s") == {s: -1}
    assert _parse_ring(spec, "0") == {}
    assert _parse_ring(spec, "2*t*s - 3") == {t * s: 2, one: -3}
    # Terms are collected and zero coefficients dropped.
    assert _parse_ring(spec, "t + s - t + 0*s + 2*s") == {s: 3}
    assert _parse_ring(spec, "s*s - 1") == {}


def test_parse_wh():
    spec = zz2_spec()
    mod1 = trivial_module(spec, 1)
    mod2 = trivial_module(spec, 2)
    s = spec.generator("s")
    assert parse_wh(mod1, "(1)[1]").is_zero
    assert parse_wh(mod1, "0").is_zero
    assert parse_wh(mod1, "-[s]") == WhElement.build(mod1, [((-1,), s)])
    assert parse_wh(mod1, "2[s] - [t]") == WhElement.build(
        mod1, [((2,), s), ((-1,), spec.generator("t"))])
    got = parse_wh(mod2, "(1,0)[s] + (0,2)[t]")
    assert got == WhElement.build(
        mod2, [((1, 0), s), ((0, 2), spec.generator("t"))])
    assert parse_wh(mod2, str(got)) == got
    with pytest.raises(WordError):
        parse_wh(mod2, "2[s]")
    with pytest.raises(WordError):
        parse_wh(mod1, "(1,2)[s]")


def test_parse_generator_sequence():
    spec = zz2_spec()
    gens = parse_generator_sequence(spec, 2, 'E(1,2,"t") ; D(1,"-s") ; E(2,1,"1+s")')
    assert gens == (
        ElementaryGen(0, 1, {spec.generator("t"): 1}),
        DiagonalGen(0, -1, spec.generator("s")),
        ElementaryGen(1, 0, {spec.identity(): 1, spec.generator("s"): 1}),
    )
    with pytest.raises(WordError):
        parse_generator_sequence(spec, 2, 'E(1,1,"t")')
    with pytest.raises(WordError):
        parse_generator_sequence(spec, 2, 'E(1,3,"t")')
    with pytest.raises(WordError):
        parse_generator_sequence(spec, 2, 'Q(1,"t")')


def test_restricted_json_basics():
    node = parse_json('{"a": [1, -2], "b": "x", "c": {"d": 0}}')
    assert node.kind == "object"
    keys = [item[0] for item in node.value]
    assert keys == ["a", "b", "c"]


def test_restricted_json_positions():
    node = parse_json('{\n  "a": 5\n}')
    (key, kline, kcol, val), = node.value
    assert (kline, kcol) == (2, 3)
    assert (val.line, val.col) == (2, 8)


def test_restricted_json_rejects_profile_violations():
    for bad in ["1.5", "[true]", "null", '{"a": 1e3}', "[-2E5]", "[01]", '"unterminated']:
        with pytest.raises(JsonError):
            parse_json(bad)


def test_restricted_json_error_positions():
    with pytest.raises(JsonError) as err:
        parse_json('{"a":\n true}')
    assert err.value.line == 2


def test_restricted_json_integer_at_end_of_input():
    assert parse_json("5") == Node("int", 5, 1, 1)
    assert parse_json(" -5\n") == Node("int", -5, 1, 2)
    for text, message, col in [
        ('{"paper": {"powers": 64', "expected ',' or '}' in object", 24),
        ("[1, 2", "expected ',' or ']' in array", 6),
        ('{"a": -7', "expected ',' or '}' in object", 9),
        ("-", "expected digits", 2),
    ]:
        with pytest.raises(JsonError) as err:
            parse_json(text)
        assert (err.value.message, err.value.line, err.value.col) == (message, 1, col)


def test_non_ascii_digits_rejected_by_both_grammars():
    spec = zz2_spec()
    for digit in NON_ASCII_DIGITS:
        with pytest.raises(JsonError) as err:
            parse_json('{"powers": ' + digit + "}")
        assert (err.value.message, err.value.col) == (f"unexpected character {digit!r}", 12)
        with pytest.raises(JsonError) as err:
            parse_json("[-" + digit + "]")
        assert (err.value.message, err.value.col) == ("expected digits", 3)
        for text in ("t^" + digit, "t^1" + digit):
            with pytest.raises(WordError) as err:
                parse_word(spec, text)
            assert err.value.message == f"unexpected character {digit!r}"
        with pytest.raises(WordError):
            _parse_ring(spec, digit + "*t")
        with pytest.raises(WordError):
            parse_generator_sequence(spec, 2, "D(" + digit + ',"t")')


# -- the regex scanner against the character-by-character reference -------

def _outcome(parse, text):
    try:
        return repr(parse(text))
    except JsonError as err:
        return (err.message, err.line, err.col)


_WS = st.sampled_from(["", " ", "\t", "\n", "\r\n", "\n   ", " \r\n\t "])
_SHORT_ESCAPES = {'"': '\\"', "\\": "\\\\", "/": "\\/", "\b": "\\b", "\f": "\\f",
                  "\n": "\\n", "\r": "\\r", "\t": "\\t"}


@st.composite
def _json_strings(draw):
    chars = draw(st.text(st.characters(max_codepoint=0xFFFF, exclude_categories=("Cs",)),
                         max_size=8))
    out = ['"']
    for ch in chars:
        forms = [f"\\u{ord(ch):04x}", f"\\u{ord(ch):04X}"]
        if ch in _SHORT_ESCAPES:
            forms.append(_SHORT_ESCAPES[ch])
        if ch not in '"\\\n':
            forms.append(ch)
        out.append(draw(st.sampled_from(forms)))
    out.append('"')
    return "".join(out)


@st.composite
def _json_documents(draw, depth=0):
    kinds = ["int", "string"] + (["array", "object"] if depth < 3 else [])
    kind = draw(st.sampled_from(kinds))
    if kind == "int":
        return str(draw(st.integers(-10**6, 10**6)))
    if kind == "string":
        return draw(_json_strings())
    size = draw(st.integers(0, 3))
    if kind == "array":
        items = [draw(_json_documents(depth + 1)) for _ in range(size)]
        open_, close = "[", "]"
    else:
        items = [draw(_json_strings()) + draw(_WS) + ":" + draw(_WS)
                 + draw(_json_documents(depth + 1)) for _ in range(size)]
        open_, close = "{", "}"
    body = "".join((draw(_WS) + "," if i else "") + draw(_WS) + item
                   for i, item in enumerate(items))
    return open_ + body + draw(_WS) + close


_MUTATION_ALPHABET = (list('{}[]:,"\\') + ["\n", "\t", "-", " ", ".", "e", "E"]
                      + list("0123456789") + sorted(set("truefalsenull"))
                      + list(NON_ASCII_DIGITS))


@st.composite
def _mutated_fixtures(draw):
    chars = list(draw(st.sampled_from(FIXTURE_TEXTS)))
    for _ in range(draw(st.integers(1, 4))):
        at = draw(st.integers(0, len(chars) - 1))
        op = draw(st.sampled_from(("insert", "delete", "replace")))
        if op == "delete":
            del chars[at]
        elif op == "insert":
            chars.insert(at, draw(st.sampled_from(_MUTATION_ALPHABET)))
        else:
            chars[at] = draw(st.sampled_from(_MUTATION_ALPHABET))
    return "".join(chars)


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(st.tuples(_WS, _json_documents(), _WS).map("".join))
def test_parse_json_matches_reference_on_valid_documents(text):
    got = _outcome(parse_json, text)
    assert isinstance(got, str)
    assert got == _outcome(reference_parse_json, text)


def test_parse_json_matches_reference_on_edge_cases():
    for text in ['"\\u12"', '["\\u12G4"]', '"\\q"', '"\\', '"ab', '"a\nb"', ' "\\\n"',
                 '{"a\nb": 1}', '{"a\\"b" : 1}', '{"a\\u0041" :\t1}', '{"a" 1}', '{1: 2}',
                 "[-]", "-x", "00", "-01", "-0", "1.5", "[2E1]", "7e", "[1,]"]:
        assert _outcome(parse_json, text) == _outcome(reference_parse_json, text)


@settings(max_examples=500, deadline=None, derandomize=True, database=None)
@given(_mutated_fixtures())
def test_parse_json_matches_reference_on_mutated_fixtures(text):
    # Anything but JsonError escapes _outcome and fails the test.
    assert _outcome(parse_json, text) == _outcome(reference_parse_json, text)


# -- the scanner-backed decoder against the reference -----------------------

def _plain(node):
    if node.kind == "object":
        return tuple((key, _plain(value)) for key, _, _, value in node.value)
    if node.kind == "array":
        return [_plain(item) for item in node.value]
    return node.value


def _decoded(text):
    """(decode_json's outcome, the reference's as plain values): a repr of
    the value, or the JsonError's message and position."""
    outcomes = []
    for decode in (decode_json, lambda t: _plain(reference_parse_json(t))):
        try:
            outcomes.append(repr(decode(text)))
        except JsonError as err:
            outcomes.append((err.message, err.line, err.col))
    return tuple(outcomes)


# Texts that trip each guard of the scanner path, and texts on both sides
# of each limit.
GUARD_TEXTS = [
    '{"a": "true"}', '["false", "null"]', '{"NaN": "Infinity"}', "[true]", "null", "NaN",
    "-Infinity", '"\\ud83d\\ude00"', '["\\u0041"]', '"\U0001f600"', '"a\tb"', '{"a\tb": 1}',
    "[" * MAX_DEPTH + "]" * MAX_DEPTH, "[" * (MAX_DEPTH + 1) + "]" * (MAX_DEPTH + 1),
    '{"a": ' * MAX_DEPTH + "1" + "}" * MAX_DEPTH,
    '{"a": ' * (MAX_DEPTH + 1) + "1" + "}" * (MAX_DEPTH + 1), "[" * 5000,
    "9" * MAX_INT_DIGITS, "-" + "9" * MAX_INT_DIGITS, "[" + "9" * (MAX_INT_DIGITS + 1) + "]",
    "-0", "[-0, 0]", "1e5", "1.5", "[1E-2]", "\ufeff{}", "\ufeff", "{}", "[]", '{"a": {}}',
    '{"a": 1, "a": 2}', "", "  ", "[1,]", "01",
]


def test_decoder_matches_reference_on_guard_texts():
    for text in GUARD_TEXTS:
        got, want = _decoded(text)
        assert got == want, text[:40]


def test_decoder_keeps_words_in_strings_on_the_scanner(monkeypatch):
    # Only a value, never a string, is refused as a constant: these texts
    # stay on the scanner and decode as the positioned parser reads them.
    texts = ['{"name": "nullspace", "a": ["true", "false"]}', '["NaN", "-Infinity"]',
             '{"true": {"null": [1, "Infinity"]}}']
    want = [_plain(parse_json(text)) for text in texts]

    def fail(text):
        raise AssertionError("fell back to the positioned parser")

    monkeypatch.setattr(restricted_json, "parse_json", fail)
    assert [decode_json(text) for text in texts] == want


def test_decoder_keeps_order_duplicates_and_kinds():
    assert decode_json('{"b": [1, {}], "a": "x", "b": []}') == (
        ("b", [1, ()]), ("a", "x"), ("b", []))
    # An escaped surrogate pair is joined into its code point.
    assert decode_json('"\\ud83d\\ude00"') == "\U0001f600"


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(st.tuples(_WS, _json_documents(), _WS).map("".join))
def test_decoder_matches_reference_on_valid_documents(text):
    got, want = _decoded(text)
    assert isinstance(got, str)
    assert got == want


@settings(max_examples=500, deadline=None, derandomize=True, database=None)
@given(_mutated_fixtures())
def test_decoder_matches_reference_on_mutated_fixtures(text):
    got, want = _decoded(text)
    assert got == want


# -- the word grammars raise nothing but WordError ---------------------------

_GRAMMAR_TOKENS = st.one_of(
    st.sampled_from(["x", "y", "a", "s", "w", "E", "D", "1", "0", " ", "*", "^", "+", "-",
                     "(", ")", "[", "]", ",", ";", '"', "E(", "D(", "_", "x1"]
                    + list(NON_ASCII_DIGITS)),
    st.text("0123456789", min_size=1, max_size=3),
)


def _cap_digit_runs(text):
    # Exponent bounds are not enforced yet, so no digit run exceeds 3.
    return re.sub(r"[0-9]{4,}", lambda m: m.group()[:3], text)


@settings(max_examples=500, deadline=None, derandomize=True, database=None)
@given(st.lists(_GRAMMAR_TOKENS, max_size=14).map("".join).map(_cap_digit_runs))
def test_word_grammars_raise_only_word_error(text):
    spec = mixed_spec()
    for parse in (lambda: parse_word(spec, text), lambda: _parse_ring(spec, text),
                  lambda: parse_generator_sequence(spec, 2, text)):
        try:
            parse()
        except WordError:
            pass


# -- input limits: digit runs and nesting ------------------------------------

BIG = "9" * 5000


def _json_failure(text):
    with pytest.raises(JsonError) as err:
        parse_json(text)
    return err.value.message, err.value.line, err.value.col


def test_integer_digit_limit_in_json():
    longest = "9" * MAX_INT_DIGITS
    assert parse_json("[" + longest + "]").value[0].value == int(longest)
    assert parse_json("-" + longest).value == -int(longest)
    too_long = f"integer has more than {MAX_INT_DIGITS} digits"
    for text, line, col in [("[1, " + longest + "9]", 1, 5),
                            ('{"powers":\n  -' + BIG + "}", 2, 3), (BIG, 1, 1)]:
        assert _json_failure(text) == (too_long, line, col)
        assert _outcome(reference_parse_json, text) == (too_long, line, col)


def test_integer_digit_limit_holds_under_the_strictest_interpreter_setting():
    # 640 is the smallest value int_max_str_digits takes (besides 0, no
    # limit), so every literal within the limit converts under any setting.
    old = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(640)
    try:
        assert parse_json("9" * MAX_INT_DIGITS).value == int("9" * MAX_INT_DIGITS)
        assert _parse_ring(zz2_spec(), "9" * MAX_INT_DIGITS + "*t")
    finally:
        sys.set_int_max_str_digits(old)


def test_nesting_limit_in_json():
    deepest = "[" * MAX_DEPTH + "]" * MAX_DEPTH
    assert parse_json(deepest).kind == "array"
    assert _outcome(reference_parse_json, deepest) == repr(parse_json(deepest))
    too_deep = f"containers nest deeper than {MAX_DEPTH} levels"
    mixed = '{"a": ' * (MAX_DEPTH - 1) + '\n [{"b": 1}]' + "}" * (MAX_DEPTH - 1)
    for text, line, col in [("[" * (MAX_DEPTH + 1) + "]" * (MAX_DEPTH + 1), 1, MAX_DEPTH + 1),
                            ("[" * 5000, 1, MAX_DEPTH + 1), (mixed, 2, 3)]:
        assert _json_failure(text) == (too_deep, line, col)
        assert _outcome(reference_parse_json, text) == (too_deep, line, col)


def test_integer_digit_limit_in_word_grammars():
    spec = zz2_spec()
    module = trivial_module(spec, 2)
    too_long = f"integer has more than {MAX_INT_DIGITS} digits"
    for parse, text, pos in [
        (lambda t: parse_word(spec, t), "t^" + BIG, 2),
        (lambda t: parse_word(spec, t), "s * t^-" + BIG, 7),
        (lambda t: _parse_ring(spec, t), "1 + " + "9" * (MAX_INT_DIGITS + 1) + "*t", 4),
        (lambda t: parse_wh(module, t), "(1," + BIG + ")[t]", 3),
        (lambda t: parse_generator_sequence(spec, 2, t), "D(" + BIG + ',"t")', 2),
    ]:
        with pytest.raises(WordError) as err:
            parse(text)
        assert (err.value.message, err.value.pos) == (too_long, pos)
    assert parse_wh(module, "(" + "9" * MAX_INT_DIGITS + ",0)[t]").terms


def test_free_letter_limit_in_word_grammars():
    spec = zz2_spec()
    module = trivial_module(spec, 2)
    half = MAX_WORD_LETTERS // 2
    assert parse_word(spec, f"t^{MAX_WORD_LETTERS}") == spec.generator("t", MAX_WORD_LETTERS)
    # Letters of an abelian factor are exponents, not letters.
    assert (parse_word(spec, f"t^{half}*s^{10**6 + 1}*t^{half}")
            == parse_word(spec, f"t^{half}*s*t^{half}"))
    too_many = f"word has more than {MAX_WORD_LETTERS} free letters"
    over = MAX_WORD_LETTERS + 1
    cases = [
        (lambda t: parse_word(spec, t), f"t^{over}", 0),
        # The running count of the word, though its letters cancel.
        (lambda t: parse_word(spec, t), f"t^{half}*s*t^-{half}*t", 9 + 2 * len(str(half))),
        (lambda t: _parse_ring(spec, t), f"1 + 2*t^{over}", 6),
        (lambda t: parse_wh(module, t), f"(1,0)[t^-{over}]", 6),
    ]
    for parse, text, pos in cases:
        with pytest.raises(WordError) as err:
            parse(text)
        assert (err.value.message, err.value.pos) == (too_many, pos)
    for text in (f'E(1,2,"t^{over}")', f'D(1,"-t^{over}")'):
        with pytest.raises(WordError, match=too_many):
            parse_generator_sequence(spec, 2, text)


def test_free_letter_limit_is_checked_before_building(monkeypatch):
    def fail(*args):
        raise AssertionError("built a generator power")

    monkeypatch.setattr(GroupSpec, "generator", fail)
    for text in (f"t^{MAX_WORD_LETTERS + 1}", "t^3000000", "t^-" + "9" * MAX_INT_DIGITS):
        with pytest.raises(WordError, match="free letters"):
            parse_word(zz2_spec(), text)

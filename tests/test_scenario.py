"""Scenario resolution, validation and positioned diagnostics."""

import copy
import itertools
import json
import pathlib
import random
import time

import pytest

from obkit import chi, gmodules, groupring, groups, restricted_json
from obkit.cli import main
from obkit import scenario as scenario_module
from obkit.chi import FiniteQuotient
from obkit.errors import DimensionError
from obkit.gmodules import GModule
from obkit.groupring import MAX_ENTRY_LETTERS, MAX_MATRIX_TERMS, RingMatrix
from obkit.groups import FactorSpec, GroupSpec
from obkit.intlinalg import IntMatrix, QuotientPresentation
from obkit.restricted_json import MAX_DEPTH, MAX_INT_DIGITS
from obkit.scenario import (MAX_MATRIX_SIZE, MAX_MODULE_RANK, MAX_TORSION_ORDER, ScenarioError,
                            load_scenario, parse_scenario)
from obkit.words import MAX_WORD_LETTERS, parse_word
from support import coboundary, flat_table

SCENARIOS = pathlib.Path(__file__).resolve().parent.parent / "scenarios"


def fixture_text(name):
    return (SCENARIOS / name).read_text(encoding="utf-8")


def diag_codes(err):
    return {d.code for d in err.value.diagnostics}


def test_shipped_fixtures_parse():
    for name in ("paper_f2.json", "paper_z2.json", "paper_z6.json"):
        scenario = parse_scenario(fixture_text(name))
        assert scenario.paper is not None
        assert "kernel-of-first-invariant" in scenario.assertions
        assert scenario.lenses["g"].main.terms


def test_framing_module_is_state_on_the_scenario():
    # built on first use, shared by one scenario's lenses, not across scenarios
    first = parse_scenario(fixture_text("paper_z2.json"))
    second = parse_scenario(fixture_text("paper_z2.json"))
    assert first.lenses["g"].framing.module is first.framing
    assert first.framing is not second.framing
    data = json.loads(fixture_text("paper_z2.json"))
    del data["lenses"], data["paper"]
    no_lenses = parse_scenario(json.dumps(data))
    assert "framing" not in vars(no_lenses)
    assert no_lenses.framing is no_lenses.framing


def test_fixture_round_trip_determinism():
    # re-serializing the parsed JSON and re-parsing yields the same objects
    text = fixture_text("paper_f2.json")
    data = json.loads(text)
    again = parse_scenario(json.dumps(data))
    first = parse_scenario(text)
    assert again.spec == first.spec
    assert again.elements["sigma"] == first.elements["sigma"]


def test_empty_input():
    with pytest.raises(ScenarioError) as err:
        parse_scenario("")
    assert any(d.code == "E210" and "no group declared" in d.message
               for d in err.value.diagnostics)


def test_missing_group():
    with pytest.raises(ScenarioError) as err:
        parse_scenario('{"name": "x"}')
    assert "E210" in diag_codes(err)


def test_syntax_error_position():
    with pytest.raises(ScenarioError) as err:
        parse_scenario('{"group": }')
    (diag,) = err.value.diagnostics
    assert diag.code == "E100"
    assert diag.line == 1 and diag.col == 11


def test_unresolved_names():
    data = json.loads(fixture_text("paper_f2.json"))
    data["maps"]["r"]["source"] = "nosuch"
    with pytest.raises(ScenarioError) as err:
        parse_scenario(json.dumps(data))
    assert "E220" in diag_codes(err)
    assert any("nosuch" in d.message for d in err.value.diagnostics)


def test_bad_word_diagnostic():
    data = json.loads(fixture_text("paper_f2.json"))
    data["elements"]["sigma"] = "w*"
    with pytest.raises(ScenarioError) as err:
        parse_scenario(json.dumps(data))
    assert "E230" in diag_codes(err)


def test_invalid_module_rejected():
    data = json.loads(fixture_text("paper_z2.json"))
    data["modules"]["pi2"]["action"]["s"] = [[2, 0, 0], [0, 1, 0], [0, 0, 1]]
    with pytest.raises(ScenarioError) as err:
        parse_scenario(json.dumps(data))
    assert "E240" in diag_codes(err)


def test_invalid_cocycle_rejected_with_quadruple():
    # The quadruple is the first violation in (g, h, q, l) enumeration
    # order; in the Z/6 case it is the 374th of the 1296 quadruples.
    cases = [
        ("paper_z2.json", 0, [1, -1, 1],
         "1:598: E243 cocycle 'c': identity violated at (q, q, q, q)"),
        ("paper_z6.json", 16, [1, -1, 0],
         "1:599: E243 cocycle 'c': identity violated at (q, q^4, q^2, q)"),
    ]
    for name, entry, value, expected in cases:
        data = json.loads(fixture_text(name))
        data["cocycles"]["c"]["entries"][entry]["value"] = value
        with pytest.raises(ScenarioError) as err:
            parse_scenario(json.dumps(data))
        diags = [d.render() for d in err.value.diagnostics if d.code == "E243"]
        assert diags == [expected]


def test_quotient_torsion_law_checked_by_repeated_squaring(monkeypatch):
    # s of order 10^9 (or 10^9 + 1) onto q^3, of order 2 in Z/6: checking
    # the law one product per unit of the order would take 10^9 products.
    real = groups.multiply
    calls = []

    def budgeted(g, h):
        calls.append(1)
        assert len(calls) <= 200, "more than 200 group products"
        return real(g, h)

    monkeypatch.setattr(groups, "multiply", budgeted)
    for order in (10**9, 10**9 + 1):
        calls.clear()
        text = json.dumps({
            "name": "big-torsion",
            "group": {"factors": [{"kind": "free", "names": ["t"]},
                                  {"kind": "abelian", "names": ["s"], "torsion": [order]}]},
            "quotients": {"Q": {"factors": [{"kind": "abelian", "names": ["q"], "torsion": [6]}],
                                "images": {"t": "q", "s": "q^3"}}},
        })
        if order % 2 == 0:
            assert "Q" in parse_scenario(text).quotients
            continue
        with pytest.raises(ScenarioError) as err:
            parse_scenario(text)
        assert [d.render() for d in err.value.diagnostics] == [
            "1:164: E242 quotient 'Q': image of 's' does not satisfy its torsion relation"]


def test_torsion_order_limit_is_a_positioned_error(monkeypatch):
    # A module over Z/order checks the law M^order = I; past the limit the
    # order is refused at its value instead of building a module.
    def fail(*args):
        raise AssertionError("checked a torsion law past the limit")

    monkeypatch.setattr(gmodules, "_power", fail)
    for order in (MAX_TORSION_ORDER + 1, 10**6):
        text = json.dumps({"group": {"factors": [{"kind": "abelian", "names": ["s"],
                                                  "torsion": [order]}]},
                           "modules": {"Z": {"rank": 1}}})
        with pytest.raises(ScenarioError) as err:
            parse_scenario(text)
        assert [d.render() for d in err.value.diagnostics] == [
            f"1:72: E200 torsion order {order} exceeds the limit {MAX_TORSION_ORDER} "
            "of a group with modules"]
    # No module declared: nothing to cap.  A malformed section gets its
    # own diagnostic only.
    assert parse_scenario(text.replace('{"Z": {"rank": 1}}', "{}")).modules == {}
    with pytest.raises(ScenarioError) as err:
        parse_scenario(text.replace('{"Z": {"rank": 1}}', "5"))
    assert [d.render() for d in err.value.diagnostics] == [
        "1:96: E200 modules must be an object"]
    monkeypatch.undo()
    assert "Z" in parse_scenario(text.replace(str(10**6), str(MAX_TORSION_ORDER))).modules


@pytest.mark.parametrize("order", [10**3, 10**9])
def test_quotient_order_limit_is_a_positioned_error(monkeypatch, tmp_path, capsys, order):
    # A cocycle over Z/order would ask for order^3 table slots and order^4
    # checks; the quotient is refused from its torsion orders first.
    def fail(spec):
        raise AssertionError("enumerated an oversized quotient")

    for layer in (groups, chi):
        monkeypatch.setattr(layer, "enumerate_elements", fail)
    text = json.dumps({
        "name": "big-quotient",
        "group": {"factors": [{"kind": "free", "names": ["t"]}]},
        "modules": {"Z": {"rank": 1}},
        "quotients": {"Q": {"factors": [{"kind": "abelian", "names": ["q"], "torsion": [order]}],
                            "images": {"t": "q"}}},
        "cocycles": {"c": {"quotient": "Q", "module": "Z",
                           "entries": [{"args": ["q", "q", "q"], "value": [1]}]}},
    })
    with pytest.raises(ScenarioError) as err:
        parse_scenario(text)
    diags = [d.render() for d in err.value.diagnostics if d.code == "E242"]
    assert diags == [f"1:134: E242 quotient 'Q': quotient order {order} exceeds the limit 32"]
    path = tmp_path / "big.json"
    path.write_text(text)
    assert main(["--scenario", str(path), "normalize", "t"]) == 2
    assert "E242" in capsys.readouterr().err


def test_profile_violation_is_syntax():
    with pytest.raises(ScenarioError) as err:
        parse_scenario('{"group": {"factors": [{"kind": "free", "names": ["t"]}]}, "x": 1.5}')
    assert "E100" in diag_codes(err)


def test_duplicate_key_diagnostic():
    text = '{"group": {"factors": [{"kind": "free", "names": ["t"]}]}, "name": "a", "name": "b"}'
    with pytest.raises(ScenarioError) as err:
        parse_scenario(text)
    assert "E201" in diag_codes(err)


def test_no_partial_acceptance():
    # two independent defects: both reported
    data = json.loads(fixture_text("paper_f2.json"))
    data["elements"]["sigma"] = "w"
    data["maps"]["r"]["target"] = "nosuch"
    with pytest.raises(ScenarioError) as err:
        parse_scenario(json.dumps(data))
    assert {"E230", "E220"} <= diag_codes(err)


def test_load_scenario(tmp_path):
    path = tmp_path / "s.json"
    path.write_text(fixture_text("paper_f2.json"), encoding="utf-8")
    scenario = load_scenario(path)
    assert scenario.name == "paper-F2"


def test_shipped_modules_validate_and_torsion_mutations_reject():
    from obkit.gmodules import GModule

    for name in ("paper_f2.json", "paper_z2.json", "paper_z6.json"):
        scenario = parse_scenario(fixture_text(name))
        for module in scenario.modules.values():
            for gen, matrix in module.action.items():
                fi, gi = scenario.spec.locate(gen)
                factor = scenario.spec.factors[fi]
                if factor.kind != "abelian" or gi < factor.free_rank:
                    continue
                order = factor.torsion[gi - factor.free_rank]
                k = module.rank
                for i in range(k):
                    for j in range(k):
                        rows = [list(r) for r in matrix.entries]
                        rows[i][j] += 1
                        bumped = IntMatrix(rows)
                        power = IntMatrix.identity(k)
                        for _ in range(order):
                            power = power @ bumped
                        reduce = module.presentation.reduce
                        breaks_torsion = any(
                            reduce(power.apply(e)) != reduce(e)
                            for e in IntMatrix.identity(k).entries
                        )
                        if not breaks_torsion:
                            continue
                        action = dict(module.action)
                        action[gen] = bumped
                        with pytest.raises(ValueError):
                            GModule(scenario.spec, module.presentation, action=action)


def _z4_word(e):
    return {0: "1", 1: "q"}.get(e, f"q^{e}")


def _z4_coboundary_scenario(seed):
    """t * Z/4 acting trivially on Z, with the dense coboundary table of a
    seeded 2-cochain f: df(a, b, c) = f(b, c) - f(a+b, c) + f(a, b+c) - f(a, b).
    The 64 entries use 4 distinct argument strings, each one many times."""
    rng = random.Random(seed)
    f = {(a, b): rng.randint(-3, 3) for a in range(4) for b in range(4)}
    entries = [
        {"args": [_z4_word(a), _z4_word(b), _z4_word(c)],
         "value": [f[b, c] - f[(a + b) % 4, c] + f[a, (b + c) % 4] - f[a, b]]}
        for a in range(4) for b in range(4) for c in range(4)
    ]
    return {
        "name": "z4",
        "group": {"factors": [{"kind": "free", "names": ["t"]},
                              {"kind": "abelian", "names": ["s"], "torsion": [4]}]},
        "modules": {"A": {"rank": 1}},
        "quotients": {"Q": {"factors": [{"kind": "abelian", "names": ["q"], "torsion": [4]}],
                            "images": {"t": "1", "s": "q"}}},
        "cocycles": {"c": {"quotient": "Q", "module": "A", "entries": entries}},
    }


def test_cocycle_words_parsed_once_per_distinct_string(monkeypatch):
    data = _z4_coboundary_scenario(7)
    entries = data["cocycles"]["c"]["entries"]
    arg_strings = {w for entry in entries for w in entry["args"]}
    other_words = len(data["quotients"]["Q"]["images"])
    calls = []

    def counting_parse_word(spec, text):
        calls.append(text)
        return parse_word(spec, text)

    monkeypatch.setattr(scenario_module, "parse_word", counting_parse_word)
    loaded = parse_scenario(json.dumps(data, indent=1))
    assert len(calls) <= len(arg_strings) + other_words

    # The memo changes no key or value: the same table as parsing each
    # argument node on its own, laid out in element order.
    q = loaded.quotients["Q"]
    table = {tuple(parse_word(q.target, w) for w in entry["args"]): entry["value"]
             for entry in entries}
    values = loaded.cocycles["c"].values
    assert values == flat_table(q, loaded.modules["A"], table)
    assert any(map(any, values))


def test_bad_cocycle_word_diagnosed_at_its_own_node():
    data = _z4_coboundary_scenario(7)
    data["cocycles"]["c"]["entries"][40]["args"][1] = "q*w"
    text = json.dumps(data, indent=1)
    offset = text.index('"q*w"')
    line = text.count("\n", 0, offset) + 1
    col = offset - text.rfind("\n", 0, offset)
    with pytest.raises(ScenarioError) as err:
        parse_scenario(text)
    assert [d.render() for d in err.value.diagnostics] == [
        f"{line}:{col}: E230 cocycle argument: unknown generator 'w'"
    ]


GROUP_T = '{"group": {"factors": [{"kind": "free", "names": ["t"]}]},\n'


def test_non_ascii_digits_are_positioned_errors():
    for digit in ("\u00b2", "\u0663"):
        with pytest.raises(ScenarioError) as err:
            parse_scenario(GROUP_T + ' "paper": {"powers": ' + digit + "}}")
        assert [d.render() for d in err.value.diagnostics] == [
            f"2:22: E100 unexpected character {digit!r}"]
        with pytest.raises(ScenarioError) as err:
            parse_scenario(GROUP_T + ' "elements": {"sigma": "t^' + digit + '"}}')
        assert [d.render() for d in err.value.diagnostics] == [
            f"2:24: E230 element 'sigma': unexpected character {digit!r}"]


def test_input_limits_are_positioned_errors():
    big = "9" * 5000
    cases = [
        (GROUP_T + ' "paper": {"powers": ' + big + "}}",
         "2:22: E100 integer has more than 640 digits"),
        (GROUP_T + ' "elements": {"sigma": "t^' + big + '"}}',
         "2:24: E230 element 'sigma': integer has more than 640 digits"),
        (GROUP_T + ' "x": ' + "[" * 5000,
         "2:70: E100 containers nest deeper than 64 levels"),
    ]
    for text, expected in cases:
        with pytest.raises(ScenarioError) as err:
            parse_scenario(text)
        assert [d.render() for d in err.value.diagnostics] == [expected]


def test_integer_at_end_of_input():
    cases = [
        ('{"paper": {"powers": 64', "1:24: E100 expected ',' or '}' in object"),
        ('{"a": [1, 2', "1:12: E100 expected ',' or ']' in array"),
        ('{"a": -7', "1:9: E100 expected ',' or '}' in object"),
        ("5", "1:1: E200 scenario must be an object"),
    ]
    for text, expected in cases:
        with pytest.raises(ScenarioError) as err:
            parse_scenario(text)
        assert [d.render() for d in err.value.diagnostics] == [expected]


def test_load_scenario_rejects_invalid_utf8(tmp_path):
    path = tmp_path / "bad.json"
    path.write_bytes(b'{"name": "x",\n  "group": \xff}')
    with pytest.raises(ScenarioError) as err:
        load_scenario(path)
    assert [d.render() for d in err.value.diagnostics] == [
        "2:12: E100 invalid UTF-8 byte 0xff"]


def test_load_scenario_reads_line_ends_as_text_mode_does(tmp_path):
    # CRLF and a lone CR each end a line, so the error sits on line 3.
    path = tmp_path / "s.json"
    path.write_bytes(b'{"name": "x",\r\n "group":\r 1.5}')
    with pytest.raises(ScenarioError) as err:
        load_scenario(path)
    assert [d.render() for d in err.value.diagnostics] == [
        "3:2: E100 non-integer numbers are not allowed in this profile"]


# -- every resolver diagnostic, pinned ---------------------------------------
#
# One small scenario that loads, and one row per resolver diagnostic site:
# each row mutates the scenario (or replaces it) and pins the full rendered
# list, so the code, message, position and order of every diagnostic the
# resolver can emit are fixed, including the cascades a defect causes later.

_DIAG_BASE = {
    "name": "diagnostics",
    "group": {"factors": [{"kind": "free", "names": ["t"]},
                          {"kind": "abelian", "names": ["s"], "torsion": [2]}]},
    "elements": {"sigma": "s", "one": "1"},
    "modules": {"A": {"rank": 1, "action": {"s": [[-1]]}, "elements": {"a": [1]}},
                "Z": {"rank": 1}},
    "maps": {"r": {"source": "Z", "target": "Z", "matrix": [[1]], "equivariant": 1}},
    "quotients": {"Q": {"factors": [{"kind": "abelian", "names": ["q"], "torsion": [2]}],
                        "images": {"t": "1", "s": "q"}}},
    "cocycles": {"c": {"quotient": "Q", "module": "A", "q_action": {"q": [[-1]]},
                       "entries": [{"args": ["q", "q", "q"], "value": [0]}]}},
    "matrices": {"M": {"size": 2, "generators": 'E(1,2,"t") ; D(2,"s")'}},
    "lenses": {"g": {"module": "A", "alpha": "a", "sigma": "sigma", "framing": "(1)[s]"}},
    "paper": {"lens": "g", "retraction": "r", "cocycle": "c", "matrices": ["M", "M", "M"]},
    "assertions": ["kernel-of-first-invariant"],
}
_DROP = object()
_FACTOR = "group.factors.1"
_QF = "quotients.Q.factors"


def _mutated(*changes):
    """The base scenario as indented JSON after each (dotted path, value)
    change; _DROP deletes the key and an index one past a list appends."""
    data = copy.deepcopy(_DIAG_BASE)
    for path, value in changes:
        *parents, last = [int(k) if k.isdigit() else k for k in path.split(".")]
        node = data
        for key in parents:
            node = node[key]
        if value is _DROP:
            del node[last]
        elif last == len(node):
            node.append(value)
        else:
            node[last] = value
    return json.dumps(data, indent=1)


DIAGNOSTIC_CASES = [
    ("empty-input", " \n",
     ["1:1: E210 no group declared"]),
    ("syntax", '{"group": }',
     ["1:11: E100 unexpected character '}'"]),
    ("top-not-object", "[1]",
     ["1:1: E200 scenario must be an object"]),
    ("duplicate-key", _mutated()[:-2] + ',\n "name": "again"\n}',
     ["129:2: E201 duplicate key 'name'"]),
    ("unknown-section", _mutated(("extra", 1)),
     ["129:2: E200 unknown section 'extra'"]),
    ("name-not-string", _mutated(("name", 5)),
     ["2:10: E200 field 'name' must be a string"]),
    ("no-group", _mutated(("group", _DROP)),
     ["1:1: E210 no group declared"]),
    ("group-not-object", _mutated(("group", [1])),
     ["3:11: E200 group must be an object"]),
    ("no-factors", _mutated(("group.factors", [])),
     ["3:11: E210 no group declared"]),
    ("factor-not-object", _mutated((_FACTOR, "s")),
     ["11:4: E200 factor must be an object"]),
    ("factor-no-names", _mutated((_FACTOR + ".names", _DROP)),
     ["11:4: E200 factor needs 'kind' and 'names'"]),
    ("factor-no-kind", _mutated((_FACTOR + ".kind", _DROP)),
     ["11:4: E200 missing required field 'kind'",
      "11:4: E200 factor needs 'kind' and 'names'"]),
    ("factor-kind-not-string", _mutated((_FACTOR + ".kind", 1)),
     ["12:13: E200 field 'kind' must be a string",
      "11:4: E200 factor needs 'kind' and 'names'"]),
    ("factor-name-not-string", _mutated((_FACTOR + ".names", [1])),
     ["14:6: E200 generator names must be strings"]),
    ("factor-unknown-kind", _mutated((_FACTOR + ".kind", "cyclic")),
     ["12:13: E200 unknown factor kind 'cyclic'"]),
    ("factor-free-rank-not-int", _mutated((_FACTOR + ".free_rank", "0")),
     ["19:18: E200 field 'free_rank' must be an integer"]),
    ("factor-torsion-not-array", _mutated((_FACTOR + ".torsion", 2)),
     ["16:16: E200 torsion must be an array of integers",
      "11:4: E200 abelian factor needs one name per generator"]),
    ("factor-torsion-entry", _mutated((_FACTOR + ".torsion", ["2"])),
     ["17:6: E200 torsion entries must be integers",
      "11:4: E200 abelian factor needs one name per generator"]),
    ("factor-value-error", _mutated((_FACTOR + ".torsion", [1])),
     ["11:4: E200 torsion orders must be at least 2"]),
    ("factor-negative-free-rank", _mutated((_FACTOR + ".free_rank", -1),
                                           (_FACTOR + ".torsion", [2, 3])),
     ["11:4: E200 free_rank must be at least 0"]),
    ("group-value-error", _mutated((_FACTOR + ".names", ["t"])),
     ["3:11: E200 generator names must be unique across factors"]),
    ("elements-not-object", _mutated(("elements", ["s"])),
     ["22:14: E200 elements must be an object",
      "111:13: E220 unresolved element name 'sigma'",
      "116:11: E220 unresolved lens name 'g'"]),
    ("element-not-string", _mutated(("elements.sigma", 5), ("elements.one", 6)),
     ["23:12: E200 element 'sigma' must be a word string",
      "24:10: E200 element 'one' must be a word string",
      "112:13: E220 unresolved element name 'sigma'",
      "117:11: E220 unresolved lens name 'g'"]),
    ("element-bad-word", _mutated(("elements.sigma", "w")),
     ["23:12: E230 element 'sigma': unknown generator 'w'",
      "112:13: E220 unresolved element name 'sigma'",
      "117:11: E220 unresolved lens name 'g'"]),
    ("modules-not-object", _mutated(("modules", 5)),
     ["26:13: E200 modules must be an object",
      "29:14: E220 unresolved module name 'Z'",
      "30:14: E220 unresolved module name 'Z'",
      "61:14: E220 unresolved module name 'A'",
      "91:14: E220 unresolved module name 'A'",
      "98:11: E220 unresolved lens name 'g'"]),
    ("module-not-object", _mutated(("modules.A", 5)),
     ["27:8: E200 module 'A' must be an object",
      "66:14: E220 unresolved module name 'A'",
      "96:14: E220 unresolved module name 'A'",
      "103:11: E220 unresolved lens name 'g'"]),
    ("module-no-rank", _mutated(("modules.A.rank", _DROP)),
     ["27:8: E200 missing required field 'rank'",
      "79:14: E220 unresolved module name 'A'",
      "109:14: E220 unresolved module name 'A'",
      "116:11: E220 unresolved lens name 'g'"]),
    ("module-rank-not-int", _mutated(("modules.A.rank", "1")),
     ["28:12: E200 field 'rank' must be an integer",
      "80:14: E220 unresolved module name 'A'",
      "110:14: E220 unresolved module name 'A'",
      "117:11: E220 unresolved lens name 'g'"]),
    ("module-rank-negative", _mutated(("modules.A.rank", -1)),
     ["28:12: E200 field 'rank' must be between 0 and 12",
      "80:14: E220 unresolved module name 'A'",
      "110:14: E220 unresolved module name 'A'",
      "117:11: E220 unresolved lens name 'g'"]),
    ("module-rank-over-limit", _mutated(("modules.A.rank", 13)),
     ["28:12: E200 field 'rank' must be between 0 and 12",
      "80:14: E220 unresolved module name 'A'",
      "110:14: E220 unresolved module name 'A'",
      "117:11: E220 unresolved lens name 'g'"]),
    ("relations-not-array", _mutated(("modules.Z.relations", 2)),
     ["44:17: E200 relations must be an array of rows"]),
    ("relations-row-not-array", _mutated(("modules.Z.relations", [2])),
     ["45:5: E200 relations row must be an array of integers"]),
    ("relations-entry", _mutated(("modules.Z.relations", [["2"]])),
     ["46:6: E200 relations row entries must be integers"]),
    ("action-not-object", _mutated(("modules.A.action", [[-1]])),
     ["29:14: E200 action must be an object",
      "78:14: E220 unresolved module name 'A'",
      "108:14: E220 unresolved module name 'A'",
      "115:11: E220 unresolved lens name 'g'"]),
    ("action-matrix-bad", _mutated(("modules.A.action.t", 1)),
     ["35:10: E200 action of 't' must be an array of rows",
      "81:14: E220 unresolved module name 'A'",
      "111:14: E220 unresolved module name 'A'",
      "118:11: E220 unresolved lens name 'g'"]),
    ("module-elements-not-object", _mutated(("modules.A.elements", [1])),
     ["36:16: E200 module elements must be an object",
      "78:14: E220 unresolved module name 'A'",
      "108:14: E220 unresolved module name 'A'",
      "115:11: E220 unresolved lens name 'g'"]),
    ("module-element-bad", _mutated(("modules.A.elements.a", 1)),
     ["37:10: E200 element 'a' must be an array of integers",
      "78:14: E220 unresolved module name 'A'",
      "108:14: E220 unresolved module name 'A'",
      "115:11: E220 unresolved lens name 'g'"]),
    ("module-build-error", _mutated(("modules.A.action.s", [[1, 0]])),
     ["27:8: E240 module 'A': action matrix for 's' must be 1x1",
      "81:14: E220 unresolved module name 'A'",
      "111:14: E220 unresolved module name 'A'",
      "118:11: E220 unresolved lens name 'g'"]),
    ("module-unknown-generator", _mutated(("modules.A.action.u", [[1]])),
     ["27:8: E240 module 'A': action names unknown generator 'u'",
      "85:14: E220 unresolved module name 'A'",
      "115:14: E220 unresolved module name 'A'",
      "122:11: E220 unresolved lens name 'g'"]),
    ("module-invalid", _mutated(("modules.A.action.s", [[2]])),
     ["27:8: E240 module 'A': action of 's' is not invertible on the quotient",
      "80:14: E220 unresolved module name 'A'",
      "110:14: E220 unresolved module name 'A'",
      "117:11: E220 unresolved lens name 'g'"]),
    ("maps-not-object", _mutated(("maps", 5)),
     ["46:10: E200 maps must be an object",
      "107:17: E220 unresolved map name 'r'"]),
    ("map-not-object", _mutated(("maps.r", 5)),
     ["47:8: E200 map 'r' must be an object",
      "109:17: E220 unresolved map name 'r'"]),
    ("map-reference-not-string", _mutated(("maps.r.source", 5)),
     ["48:14: E200 module reference must be a string",
      "118:17: E220 unresolved map name 'r'"]),
    ("map-unresolved", _mutated(("maps.r.source", "nosuch"), ("maps.r.target", "nosuch2")),
     ["48:14: E220 unresolved module name 'nosuch'",
      "49:14: E220 unresolved module name 'nosuch2'",
      "118:17: E220 unresolved map name 'r'"]),
    ("map-no-matrix", _mutated(("maps.r.matrix", _DROP)),
     ["47:8: E200 map 'r' needs a 'matrix'",
      "113:17: E220 unresolved map name 'r'"]),
    ("map-no-source", _mutated(("maps.r.source", _DROP)),
     ["47:8: E200 map 'r' needs 'source' and 'target'",
      "117:17: E220 unresolved map name 'r'"]),
    ("unused-map-no-source", _mutated(("maps.r2", {"target": "Z", "matrix": [[1]]})),
     ["57:9: E200 map 'r2' needs 'source' and 'target'"]),
    ("map-matrix-bad", _mutated(("maps.r.matrix", [1])),
     ["51:5: E200 matrix row must be an array of integers",
      "116:17: E220 unresolved map name 'r'"]),
    ("map-equivariant-not-int", _mutated(("maps.r.equivariant", "1")),
     ["55:19: E200 field 'equivariant' must be an integer"]),
    ("map-equivariant-not-0-or-1", _mutated(("maps.r.equivariant", 5)),
     ["55:19: E200 field 'equivariant' must be between 0 and 1",
      "118:17: E220 unresolved map name 'r'"]),
    ("map-build-error", _mutated(("maps.r.matrix", [[1, 0]])),
     ["47:8: E241 map 'r': map matrix must be target_rank x source_rank",
      "119:17: E220 unresolved map name 'r'"]),
    ("map-invalid", _mutated(("maps.r.source", "A")),
     ["47:8: E241 map 'r': map is flagged equivariant but does not commute with the action",
      "118:17: E220 unresolved map name 'r'"]),
    ("quotients-not-object", _mutated(("quotients", 5)),
     ["58:15: E200 quotients must be an object",
      "61:16: E220 unresolved quotient name 'Q'",
      "101:14: E220 unresolved cocycle name 'c'"]),
    ("quotient-not-object", _mutated(("quotients.Q", 5)),
     ["59:8: E200 quotient 'Q' must be an object",
      "63:16: E220 unresolved quotient name 'Q'",
      "103:14: E220 unresolved cocycle name 'c'"]),
    ("quotient-no-factors", _mutated(("quotients.Q.factors", _DROP)),
     ["59:8: E200 quotient 'Q' needs 'factors'",
      "68:16: E220 unresolved quotient name 'Q'",
      "108:14: E220 unresolved cocycle name 'c'"]),
    ("quotient-empty-factors", _mutated((_QF, [])),
     ["59:8: E210 no group declared",
      "69:16: E220 unresolved quotient name 'Q'",
      "109:14: E220 unresolved cocycle name 'c'"]),
    ("quotient-factor-bad", _mutated((_QF + ".0.names", _DROP)),
     ["61:5: E200 factor needs 'kind' and 'names'",
      "76:16: E220 unresolved quotient name 'Q'",
      "116:14: E220 unresolved cocycle name 'c'"]),
    ("quotient-group-error", _mutated((_QF, [{"kind": "free", "names": ["q"]},
                                             {"kind": "free", "names": ["q"]}])),
     ["59:8: E200 generator names must be unique across factors",
      "82:16: E220 unresolved quotient name 'Q'",
      "122:14: E220 unresolved cocycle name 'c'"]),
    ("quotient-no-images", _mutated(("quotients.Q.images", _DROP)),
     ["59:8: E200 quotient 'Q' needs 'images'",
      "75:16: E220 unresolved quotient name 'Q'",
      "115:14: E220 unresolved cocycle name 'c'"]),
    ("quotient-images-not-object", _mutated(("quotients.Q.images", ["q"])),
     ["71:14: E200 images must be an object",
      "59:8: E200 quotient 'Q' needs 'images'",
      "78:16: E220 unresolved quotient name 'Q'",
      "118:14: E220 unresolved cocycle name 'c'"]),
    ("quotient-image-bad", _mutated(("quotients.Q.images.s", "w"), ("quotients.Q.images.t", 1)),
     ["72:10: E200 image of 't' must be a word string",
      "79:16: E220 unresolved quotient name 'Q'",
      "119:14: E220 unresolved cocycle name 'c'"]),
    ("quotient-invalid", _mutated(("quotients.Q.images.t", "q"), ("quotients.Q.images.s", _DROP)),
     ["59:8: E242 quotient 'Q': missing image for generator 's'",
      "78:16: E220 unresolved quotient name 'Q'",
      "118:14: E220 unresolved cocycle name 'c'"]),
    # An image of a generator the working group lacks is refused, not
    # dropped; the first unknown name in file order is named.
    ("quotient-image-unknown", _mutated(("quotients.Q.images.zzz", "q"),
                                        ("quotients.Q.images.yyy", "1")),
     ["59:8: E242 quotient 'Q': images name unknown generator 'zzz'",
      "81:16: E220 unresolved quotient name 'Q'",
      "121:14: E220 unresolved cocycle name 'c'"]),
    ("cocycles-not-object", _mutated(("cocycles", 5)),
     ["77:14: E200 cocycles must be an object",
      "95:14: E220 unresolved cocycle name 'c'"]),
    ("cocycle-not-object", _mutated(("cocycles.c", 5)),
     ["78:8: E200 cocycle 'c' must be an object",
      "97:14: E220 unresolved cocycle name 'c'"]),
    ("cocycle-no-quotient", _mutated(("cocycles.c.quotient", _DROP)),
     ["78:8: E200 cocycle 'c' needs 'quotient' and 'module'",
      "118:14: E220 unresolved cocycle name 'c'"]),
    ("cocycle-references-bad", _mutated(("cocycles.c.quotient", 5),
                                        ("cocycles.c.module", "nosuch")),
     ["79:16: E200 quotient reference must be a string",
      "80:14: E220 unresolved module name 'nosuch'",
      "119:14: E220 unresolved cocycle name 'c'"]),
    ("entries-not-array", _mutated(("cocycles.c.entries", {})),
     ["88:15: E200 entries must be an array",
      "108:14: E220 unresolved cocycle name 'c'"]),
    ("entry-not-object", _mutated(("cocycles.c.entries.0", 5)),
     ["89:5: E200 cocycle entry must be an object",
      "89:5: E200 entry needs 'args' and 'value'",
      "110:14: E220 unresolved cocycle name 'c'"]),
    ("entry-no-value", _mutated(("cocycles.c.entries.0.value", _DROP)),
     ["89:5: E200 entry needs 'args' and 'value'",
      "116:14: E220 unresolved cocycle name 'c'"]),
    ("entry-args-short", _mutated(("cocycles.c.entries.0.args", ["q", "q"])),
     ["90:14: E200 args must be three quotient words",
      "118:14: E220 unresolved cocycle name 'c'"]),
    ("entry-arg-not-string", _mutated(("cocycles.c.entries.0.args.1", 1)),
     ["92:7: E200 cocycle argument must be a word string",
      "119:14: E220 unresolved cocycle name 'c'"]),
    ("entry-arg-bad-word", _mutated(("cocycles.c.entries.0.args.2", "w")),
     ["93:7: E230 cocycle argument: unknown generator 'w'",
      "119:14: E220 unresolved cocycle name 'c'"]),
    ("entry-value-bad", _mutated(("cocycles.c.entries.0.value", 0)),
     ["95:15: E200 entry value must be an array of integers",
      "117:14: E220 unresolved cocycle name 'c'"]),
    ("entry-duplicate", _mutated(("cocycles.c.entries.1",
                                  {"args": ["q", "q", "q^3"], "value": [1]})),
     ["99:5: E201 duplicate cocycle entry",
      "129:14: E220 unresolved cocycle name 'c'"]),
    ("q-action-not-object", _mutated(("cocycles.c.q_action", [[-1]])),
     ["81:16: E200 q_action must be an object",
      "117:14: E220 unresolved cocycle name 'c'"]),
    ("q-action-matrix-bad", _mutated(("cocycles.c.q_action.q", [-1])),
     ["83:6: E200 q_action of 'q' row must be an array of integers",
      "117:14: E220 unresolved cocycle name 'c'"]),
    # Likewise a quotient action on a generator the quotient lacks.
    ("q-action-unknown", _mutated(("cocycles.c.q_action.zz", [[1]]),
                                  ("cocycles.c.q_action.yy", [[1]])),
     ["78:8: E243 cocycle 'c': quotient action names unknown generator 'zz'",
      "129:14: E220 unresolved cocycle name 'c'"]),
    ("cocycle-build-error", _mutated(("cocycles.c.entries.0.value", [0, 1])),
     ["78:8: E243 cocycle 'c': table value has the wrong rank",
      "120:14: E220 unresolved cocycle name 'c'"]),
    ("cocycle-no-q-action", _mutated(("cocycles.c.q_action", _DROP)),
     ["78:8: E243 cocycle 'c': module action is nontrivial and no quotient action was "
      "supplied: cannot verify that the action factors through the quotient",
      "112:14: E220 unresolved cocycle name 'c'"]),
    ("cocycle-violated", _mutated(("cocycles.c.module", "Z"), ("cocycles.c.q_action", _DROP),
                                  ("cocycles.c.entries.0.value", [1])),
     ["78:8: E243 cocycle 'c': identity violated at (q, q, q, q)",
      "112:14: E220 unresolved cocycle name 'c'"]),
    ("cocycle-violated-trivial-quotient",
     _mutated((_QF, [{"kind": "abelian", "names": [], "torsion": []}]),
              ("quotients.Q.images.s", "1"), ("cocycles.c.module", "Z"),
              ("cocycles.c.q_action", _DROP),
              ("cocycles.c.entries.0", {"args": ["1", "1", "1"], "value": [1]})),
     ["74:8: E243 cocycle 'c': identity violated at (1, 1, 1, 1)",
      "108:14: E220 unresolved cocycle name 'c'"]),
    ("matrices-not-object", _mutated(("matrices", 5)),
     ["102:14: E200 matrices must be an object",
      "116:4: E220 unresolved matrix name"]),
    ("matrix-not-object", _mutated(("matrices.M", 5)),
     ["103:8: E200 matrix 'M' must be an object",
      "118:4: E220 unresolved matrix name"]),
    ("matrix-no-size", _mutated(("matrices.M.size", _DROP), ("matrices.M.generators", 7)),
     ["103:8: E200 missing required field 'size'",
      "104:18: E200 field 'generators' must be a string",
      "120:4: E220 unresolved matrix name"]),
    ("matrix-size-negative", _mutated(("matrices.M.size", -1)),
     ["104:12: E200 field 'size' must be between 0 and 24",
      "121:4: E220 unresolved matrix name"]),
    ("matrix-size-over-limit", _mutated(("matrices.M.size", 25)),
     ["104:12: E200 field 'size' must be between 0 and 24",
      "121:4: E220 unresolved matrix name"]),
    ("matrix-bad-sequence", _mutated(("matrices.M.generators", 'E(1,3,"t")')),
     ["105:18: E230 matrix 'M': index 3 out of range 1..2",
      "121:4: E220 unresolved matrix name"]),
    ("lenses-not-object", _mutated(("lenses", 5)),
     ["108:12: E200 lenses must be an object",
      "110:11: E220 unresolved lens name 'g'"]),
    ("lens-not-object", _mutated(("lenses.g", 5)),
     ["109:8: E200 lens 'g' must be an object",
      "112:11: E220 unresolved lens name 'g'"]),
    ("lens-no-module", _mutated(("lenses.g.module", _DROP)),
     ["109:8: E200 lens 'g' needs 'module'",
      "116:11: E220 unresolved lens name 'g'"]),
    ("unused-lens-no-module", _mutated(("lenses.g2", {"alpha": "a", "sigma": "sigma"})),
     ["115:9: E200 lens 'g2' needs 'module'"]),
    ("lens-module-unresolved", _mutated(("lenses.g.module", "nosuch")),
     ["110:14: E220 unresolved module name 'nosuch'",
      "117:11: E220 unresolved lens name 'g'"]),
    ("lens-no-alpha", _mutated(("lenses.g.alpha", _DROP), ("lenses.g.sigma", 3)),
     ["109:8: E200 missing required field 'alpha'",
      "111:13: E200 field 'sigma' must be a string",
      "116:11: E220 unresolved lens name 'g'"]),
    ("lens-alpha-unresolved", _mutated(("lenses.g.alpha", "nosuch")),
     ["111:13: E220 unresolved module element 'nosuch'",
      "117:11: E220 unresolved lens name 'g'"]),
    ("lens-sigma-unresolved", _mutated(("lenses.g.sigma", "nosuch")),
     ["112:13: E220 unresolved element name 'nosuch'",
      "117:11: E220 unresolved lens name 'g'"]),
    ("lens-k-not-int", _mutated(("lenses.g.k", "1"), ("lenses.g.n", "3")),
     ["114:9: E200 field 'k' must be an integer",
      "115:9: E200 field 'n' must be an integer"]),
    ("lens-framing-not-string", _mutated(("lenses.g.framing", 1)),
     ["113:15: E200 framing must be a Wh string",
      "117:11: E220 unresolved lens name 'g'"]),
    ("lens-framing-bad", _mutated(("lenses.g.framing", "(1)[w]")),
     ["113:15: E230 framing: unknown generator 'w'",
      "117:11: E220 unresolved lens name 'g'"]),
    ("lens-rejected", _mutated(("lenses.g.sigma", "one")),
     ["109:8: E244 lens 'g': sigma must be nontrivial: the bracket at the identity "
      "vanishes by definition",
      "117:11: E220 unresolved lens name 'g'"]),
    ("assertions-not-array", _mutated(("assertions", "x")),
     ["126:16: E200 assertions must be an array of strings"]),
    ("assertion-not-string", _mutated(("assertions", ["x", 1, 2])),
     ["128:3: E200 assertions must be strings"]),
    ("paper-not-object", _mutated(("paper", 5)),
     ["116:11: E200 paper must be an object"]),
    ("paper-no-lens", _mutated(("paper.lens", _DROP), ("paper.retraction", 5)),
     ["116:11: E200 missing required field 'lens'",
      "117:17: E200 field 'retraction' must be a string"]),
    ("paper-lens-unresolved", _mutated(("paper.lens", "nosuch"), ("paper.retraction", "nosuch")),
     ["117:11: E220 unresolved lens name 'nosuch'"]),
    ("paper-map-unresolved", _mutated(("paper.retraction", "nosuch")),
     ["118:17: E220 unresolved map name 'nosuch'"]),
    ("paper-cocycle-not-string", _mutated(("paper.cocycle", 1)),
     ["119:14: E200 field 'cocycle' must be a string"]),
    ("paper-cocycle-unresolved", _mutated(("paper.cocycle", "nosuch")),
     ["119:14: E220 unresolved cocycle name 'nosuch'"]),
    ("paper-matrices-short", _mutated(("paper.matrices", ["M"])),
     ["120:15: E200 paper matrices must name three matrices"]),
    ("paper-matrix-unresolved", _mutated(("paper.matrices.1", 5)),
     ["122:4: E220 unresolved matrix name"]),
    ("paper-powers-not-int", _mutated(("paper.powers", "64")),
     ["125:13: E200 field 'powers' must be an integer"]),
    ("paper-powers-zero", _mutated(("paper.powers", 0)),
     ["125:13: E200 field 'powers' must be at least 1"]),
    ("independent-defects", _mutated(("elements.sigma", "w"), ("modules.Z.rank", _DROP),
                                     ("assertions", 1)),
     ["23:12: E230 element 'sigma': unknown generator 'w'",
      "42:8: E200 missing required field 'rank'",
      "46:14: E220 unresolved module name 'Z'",
      "47:14: E220 unresolved module name 'Z'",
      "110:13: E220 unresolved element name 'sigma'",
      "124:16: E200 assertions must be an array of strings",
      "115:11: E220 unresolved lens name 'g'"]),

]


def test_diagnostic_base_scenario_loads():
    assert parse_scenario(_mutated()).paper is not None


@pytest.mark.parametrize("text, expected", [case[1:] for case in DIAGNOSTIC_CASES],
                         ids=[case[0] for case in DIAGNOSTIC_CASES])
def test_every_resolver_diagnostic(text, expected):
    with pytest.raises(ScenarioError) as err:
        parse_scenario(text)
    assert [d.render() for d in err.value.diagnostics] == expected


def test_matrix_construction_error_is_e245(monkeypatch):
    # parse_generator_sequence checks every index first, so no file reaches
    # this site; a failing build_invertible stands in for one.
    def fail(spec, n, gens):
        raise DimensionError("matrix size mismatch")

    monkeypatch.setattr(scenario_module, "build_invertible", fail)
    with pytest.raises(ScenarioError) as err:
        parse_scenario(_mutated())
    assert [d.render() for d in err.value.diagnostics] == [
        "103:8: E245 matrix 'M': matrix size mismatch",
        "121:4: E220 unresolved matrix name"]


def test_oversized_rank_and_size_are_refused_before_allocating(monkeypatch, tmp_path, capsys):
    def fail(*args):
        raise AssertionError("built an identity matrix")

    monkeypatch.setattr(IntMatrix, "identity", staticmethod(fail))
    monkeypatch.setattr(RingMatrix, "identity", staticmethod(fail))
    path = tmp_path / "big.json"
    path.write_text(GROUP_T + ' "modules": {"A": {"rank": 1000000}},\n'
                    ' "matrices": {"M": {"size": 1000000, "generators": ""}}}')
    assert main(["--scenario", str(path), "normalize", "t"]) == 2
    assert capsys.readouterr().err.splitlines() == [
        "2:28: E200 field 'rank' must be between 0 and 12",
        "3:29: E200 field 'size' must be between 0 and 24"]


def _with_matrices(name, size, generators):
    """A fixture whose matrices A, B and C are all of one size and sequence."""
    data = json.loads(fixture_text(name))
    data["matrices"] = {m: {"size": size, "generators": generators} for m in "ABC"}
    return json.dumps(data, indent=1)


def _cyclic(n):
    return " ; ".join(f'E({i},{i % n + 1},"t - s")' for i in range(1, n + 1))


def _cyclic_inverted(n):
    return " ; ".join(f'E({i},{i % n + 1},"-t + s")' for i in range(n, 0, -1))


def test_growing_generator_sequence_is_refused_within_a_second(tmp_path, capsys):
    path = tmp_path / "cyclic.json"
    path.write_text(_with_matrices("paper_z2.json", 24, _cyclic(24)))
    start = time.perf_counter()
    assert main(["--scenario", str(path), "chi", "c", "A", "B", "C"]) == 2
    assert time.perf_counter() - start < 1.0
    too_many = f"matrix would exceed the limit of {MAX_MATRIX_TERMS} terms"
    lines = capsys.readouterr().err.splitlines()
    # At each generators string; the paper section then misses its matrices.
    assert lines == [f"{line}:18: E245 matrix {name!r}: {too_many}"
                     for name, line in (("A", 144), ("B", 148), ("C", 152))] + [
        "169:4: E220 unresolved matrix name"]


def test_composed_inverse_past_the_term_limit_is_rejected(tmp_path, capsys):
    # Each matrix and inverse loads within the limit (528 terms at most);
    # C^-1 B^-1 A^-1 is a product of three such inverses and is not.
    path = tmp_path / "composed.json"
    path.write_text(_with_matrices("paper_z2.json", 8, _cyclic_inverted(8)))
    assert main(["--scenario", str(path), "chi", "c", "A", "B", "C"]) == 3
    assert capsys.readouterr().err == (
        f"REJECTED: matrix would exceed the limit of {MAX_MATRIX_TERMS} terms\n")


def test_chi_path_forms_no_matrix_product(tmp_path, capsys):
    # RingMatrix defines no product (test_groupring pins that), so these
    # runs show that chi and report-paper need none.  chi-matrix shaped:
    # size 6 over t * Z/2, single-term entries on the off-diagonal blocks,
    # and a diagonal unit.
    upper = " ; ".join(['D(2,"-t^3*s")'] + [f'E({i},{j},"-2*t^{i - j}*s")'
                                            for i in (1, 2, 3) for j in (4, 5, 6)])
    lower = " ; ".join(['D(5,"t^-7")'] + [f'E({j},{i},"t^{i + j}")'
                                          for i in (1, 2, 3) for j in (4, 5, 6)])
    path = tmp_path / "chi6.json"
    data = json.loads(_with_matrices("paper_z2.json", 6, upper))
    data["matrices"]["B"]["generators"] = lower
    path.write_text(json.dumps(data))
    for scenario in [SCENARIOS / name for name in ("paper_f2.json", "paper_z2.json",
                                                   "paper_z6.json")] + [path]:
        for command in (["chi", "c", "A", "B", "C"], ["report-paper"]):
            assert main(["--scenario", str(scenario)] + command) == 0, (scenario, command)
    assert "COCYCLE_OK: true" in capsys.readouterr().out


def test_free_letter_limit_is_positioned(tmp_path, capsys):
    over = f"t^{MAX_WORD_LETTERS + 1}"
    path = tmp_path / "letters.json"
    path.write_text(GROUP_T + f' "elements": {{"w": "{over}"}}}}')
    assert main(["--scenario", str(path), "normalize", "t"]) == 2
    too_many = f"word has more than {MAX_WORD_LETTERS} free letters"
    assert capsys.readouterr().err == f"2:20: E230 element 'w': {too_many}\n"
    assert main(["--scenario", str(SCENARIOS / "paper_f2.json"), "normalize", over]) == 2
    assert capsys.readouterr().err == f"PARSE: {too_many} (at offset 0)\n"


def test_letter_limit_is_positioned(monkeypatch, tmp_path, capsys):
    # Each D(1,"t^96") adds 96 letters to the one entry; the generator that
    # would pass the limit is refused before its column operation runs.
    admitted = MAX_ENTRY_LETTERS // MAX_WORD_LETTERS
    multiply = groupring.multiply
    calls = []

    def budgeted(g, h):
        calls.append(1)
        if len(calls) > admitted:
            raise AssertionError("multiplied past the letter limit")
        return multiply(g, h)

    monkeypatch.setattr(groupring, "multiply", budgeted)
    path = tmp_path / "letters.json"
    gens = " ; ".join([f'D(1,\\"t^{MAX_WORD_LETTERS}\\")'] * 1000)
    path.write_text(GROUP_T + f' "matrices": {{"M": {{"size": 1, "generators": "{gens}"}}}}}}')
    assert main(["--scenario", str(path), "normalize", "t"]) == 2
    assert capsys.readouterr().err == (
        f"2:46: E245 matrix 'M': matrix would exceed the limit of {MAX_ENTRY_LETTERS} "
        "letters in an entry\n")
    assert len(calls) == admitted


def test_free_rank_abelian_exponents_count_as_letters(monkeypatch, tmp_path, capsys):
    # A module acts on a^e by |e| matrix applications, so a free-rank
    # abelian exponent counts toward both letter limits like a free letter.
    def fail(*args):
        raise AssertionError("acted on a module element")

    monkeypatch.setattr(GModule, "act_vec", fail)
    data = {"group": {"factors": [{"kind": "free", "names": ["t"]},
                                  {"kind": "abelian", "names": ["a"], "free_rank": 1}]},
            "modules": {"Z": {"rank": 2, "action": {"a": [[0, 1], [1, 0]]}}}}
    path = tmp_path / "abelian.json"
    path.write_text(json.dumps(data))
    status = main(["--scenario", str(path), "wh", "normalize",
                   "(1,0)[a^10000000 * t * a^-10000000 * t]"])
    assert status == 2
    assert capsys.readouterr().err == (
        f"PARSE: word has more than {MAX_WORD_LETTERS} free letters (at offset 6)\n")
    data["matrices"] = {"M": {"size": 1, "generators": " ; ".join(
        [f'D(1,"a^{MAX_WORD_LETTERS}")'] * (MAX_ENTRY_LETTERS // MAX_WORD_LETTERS + 1))}}
    with pytest.raises(ScenarioError) as err:
        parse_scenario(json.dumps(data))
    assert [d.code for d in err.value.diagnostics] == ["E245"]
    assert f"limit of {MAX_ENTRY_LETTERS} letters" in err.value.diagnostics[0].message


ROT4 = [[1, 0, 0], [0, 0, -1], [0, 1, 0]]


def _dense_torsion_text(m):
    """t * Z/m acting on Z^3 by a quarter turn, with the dense coboundary
    table of a seeded 2-cochain: the shape of the benchmark's
    cocycle-torsion files."""
    spec = GroupSpec((FactorSpec.free("t"), FactorSpec.abelian(("s",), torsion=[m])))
    qspec = GroupSpec((FactorSpec.abelian(("q",), torsion=[m]),))
    quotient = FiniteQuotient(spec, qspec, {"t": qspec.identity(), "s": qspec.generator("q")})
    module = GModule(spec, QuotientPresentation(3), action={"s": ROT4})
    rng = random.Random(m)
    elems = quotient.elements
    two = {(g, h): [rng.randint(-2, 2) for _ in range(3)] for g in elems for h in elems}
    values = coboundary(quotient, module, two, q_action={"q": ROT4}).values
    table = {key: value for key, value in zip(itertools.product(elems, repeat=3), values)
             if any(value)}
    assert len(table) > m ** 3 // 2
    cyclic = {"kind": "abelian", "torsion": [m]}
    return json.dumps({
        "group": {"factors": [{"kind": "free", "names": ["t"]}, dict(cyclic, names=["s"])]},
        "modules": {"pi2": {"rank": 3, "action": {"s": ROT4}}},
        "quotients": {"Q": {"factors": [dict(cyclic, names=["q"])],
                            "images": {"t": "1", "s": "q"}}},
        "cocycles": {"c": {"quotient": "Q", "module": "pi2", "q_action": {"q": ROT4},
                           "entries": [{"args": [str(g) for g in key], "value": list(value)}
                                       for key, value in table.items()]}},
    }, indent=1)


def test_positioned_parser_runs_only_for_a_refused_file(monkeypatch):
    parse_json = restricted_json.parse_json

    def fail(text):
        raise AssertionError("ran the positioned parser")

    monkeypatch.setattr(restricted_json, "parse_json", fail)
    monkeypatch.setattr(scenario_module, "parse_json", fail)
    for name in ("paper_f2.json", "paper_z2.json", "paper_z6.json"):
        parse_scenario(fixture_text(name))
    parse_scenario(_dense_torsion_text(8))

    calls = []
    monkeypatch.setattr(scenario_module, "parse_json",
                        lambda text: calls.append(1) or parse_json(text))
    with pytest.raises(ScenarioError) as err:
        parse_scenario(_mutated(("name", 5)))
    assert [d.render() for d in err.value.diagnostics] == [
        "2:10: E200 field 'name' must be a string"]
    assert len(calls) == 1


def _nested_list(depth):
    out = []
    for _ in range(depth - 1):
        out = [out]
    return out


# Every JSON kind, small integers, the first value past each size limit
# and a string that sends the file past the decoder's scanner.
_FUZZ_POOL = (0, 1, -1, 2, 3, MAX_MODULE_RANK + 1, MAX_MATRIX_SIZE + 1, MAX_TORSION_ORDER + 1,
              "", "x", "t", "q", "1", "sigma", "t^2*s", [], [1], [[1]], ["q", "q", "q"], {},
              {"x": 1}, None, True, 1.5, f"t^{MAX_WORD_LETTERS + 1}", 10 ** MAX_INT_DIGITS,
              _nested_list(MAX_DEPTH + 1), "null")


def _slots(node):
    """(container, key) for every value below node."""
    if isinstance(node, dict):
        items = list(node.items())
    elif isinstance(node, list):
        items = list(enumerate(node))
    else:
        return
    for key, value in items:
        yield node, key
        yield from _slots(value)


def _fuzz_case(rng, fixtures):
    """A fixture with one value deleted or replaced from the pool, or with
    an unknown key added to one of its objects."""
    data = copy.deepcopy(rng.choice(fixtures))
    slots = list(_slots(data))
    op = rng.randrange(3)
    if op == 2:
        objects = [data] + [c[k] for c, k in slots if isinstance(c[k], dict)]
        rng.choice(objects)["zz_unknown"] = copy.deepcopy(rng.choice(_FUZZ_POOL))
    else:
        container, key = rng.choice(slots)
        if op == 0:
            del container[key]
        else:
            container[key] = copy.deepcopy(rng.choice(_FUZZ_POOL))
    return json.dumps(data, indent=2)


def test_mutated_fixtures_exit_cleanly(tmp_path, capsys):
    fixtures = [json.loads(fixture_text(name))
                for name in ("paper_f2.json", "paper_z2.json", "paper_z6.json")]
    rng = random.Random(15)
    path = tmp_path / "s.json"
    statuses = set()
    for case in range(300):
        path.write_text(_fuzz_case(rng, fixtures))
        for command in (["report-paper"], ["obstruct", "g"], ["chi", "c", "A", "B", "C"]):
            status = main(["--scenario", str(path)] + command)
            err = capsys.readouterr().err
            assert status in (0, 2, 3) and "Traceback" not in err, (case, command, err)
            statuses.add(status)
    assert statuses == {0, 2, 3}

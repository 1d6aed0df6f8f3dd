"""Scenario resolution, validation and positioned diagnostics."""

import json
import pathlib
import random

import pytest

from obkit import chi, groups
from obkit.cli import main
from obkit import scenario as scenario_module
from obkit.chi import Cocycle
from obkit.scenario import ScenarioError, load_scenario, parse_scenario
from obkit.words import parse_word

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
    from obkit.intlinalg import IntMatrix

    for name in ("paper_f2.json", "paper_z2.json", "paper_z6.json"):
        scenario = parse_scenario(fixture_text(name))
        for module in scenario.modules.values():
            assert module.validate() is None
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
                            reduce(power.apply(e)) != reduce(e) for e in module._basis()
                        )
                        if not breaks_torsion:
                            continue
                        action = dict(module.action)
                        action[gen] = bumped
                        mutated = GModule(scenario.spec, module.presentation,
                                          action=action)
                        assert mutated.validate() is not None


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
    # argument node on its own.
    q = loaded.quotients["Q"]
    table = {tuple(parse_word(q.target, w) for w in entry["args"]): entry["value"]
             for entry in entries}
    expected = Cocycle(q, loaded.modules["A"], table)
    assert loaded.cocycles["c"].table == expected.table
    assert loaded.cocycles["c"].table


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

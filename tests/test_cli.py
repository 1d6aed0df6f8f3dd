"""CLI dispatch, exit statuses and byte-determinism of reports."""

import collections
import functools
import hashlib
import json
import os
import pathlib
import subprocess
import sys

import pytest

import obkit
from obkit import chi, cli, gmodules, groups, obstruction, wh1
from obkit.cli import MAX_ORACLE_AMBIENT, MAX_ORACLE_PAIRS, main
from obkit.intlinalg import QuotientPresentation
from obkit.scenario import load_scenario
from support import pushforward, reference_oracle_rows

SCENARIOS = pathlib.Path(__file__).resolve().parent.parent / "scenarios"
F2 = str(SCENARIOS / "paper_f2.json")
Z2 = str(SCENARIOS / "paper_z2.json")
PAPER_FIXTURES = ("paper_f2.json", "paper_z2.json", "paper_z6.json")
GOLDEN = pathlib.Path(__file__).resolve().parent.parent / "perfbench" / "golden.json"
# The child process imports the same obkit as the tests, installed or not.
OBKIT_ROOT = str(pathlib.Path(obkit.__file__).resolve().parent.parent)


def run_cli(*args, env=None, **kwargs):
    env = dict(os.environ if env is None else env)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, (OBKIT_ROOT, env.get("PYTHONPATH"))))
    return subprocess.run(
        [sys.executable, "-m", "obkit.cli", *args],
        capture_output=True, text=True, env=env, **kwargs,
    )


def run_main(capsys, *args):
    status = main(list(args))
    out = capsys.readouterr().out
    return status, out


def test_normalize(capsys):
    status, out = run_main(capsys, "--scenario", F2, "normalize", "t*u*u^-1*t")
    assert status == 0
    assert out == "RESULT: t^2\n"


def test_conjugacy(capsys):
    status, out = run_main(capsys, "--scenario", F2, "conjugacy", "t*u*t^-1", "u")
    assert status == 0
    assert "ARE_CONJUGATE: true" in out


def test_wh_normalize_identity_bracket(capsys):
    status, out = run_main(capsys, "--scenario", F2, "wh", "normalize", "(1)[1]")
    assert status == 0
    assert out == "RESULT: 0\n"


def test_wh_add_and_detect(capsys):
    status, out = run_main(capsys, "--scenario", F2, "wh", "add", "[u]", "[u^-1]")
    assert status == 0
    assert out == "RESULT: [u] + [u^-1]\n"
    status, out = run_main(capsys, "--scenario", F2, "wh", "detect",
                           "(1,0)[u]", "r", "--module", "pi2")
    assert status == 0 and "RESULT: true" in out


def test_wh_expression_with_leading_dash(capsys):
    # a leading-dash expression needs the usual '--' separator
    status, out = run_main(capsys, "--scenario", F2, "wh", "normalize",
                           "--", "-[u]")
    assert status == 0
    assert out == "RESULT: -[u]\n"


def test_wh_module_selection(capsys):
    status, out = run_main(capsys, "--scenario", Z2, "wh", "normalize",
                           "(1,0,0)[s] + (1,0,0)[s^-1]", "--module", "pi2")
    assert status == 0
    assert out == "RESULT: (2,0,0)[s]\n"


def test_chi_command(capsys):
    status, out = run_main(capsys, "--scenario", Z2, "chi", "c", "A", "B", "C")
    assert status == 0
    assert "COCYCLE_OK: true" in out
    assert "CHI: (0,-1,1)[s]" in out


def test_chi_supplied_inverse_is_checked(tmp_path, capsys):
    # D is compared with the composed inverse, never multiplied out:
    # No matrix product exists in obkit (test_groupring pins that).
    data = json.loads(pathlib.Path(Z2).read_text())
    data["matrices"]["W"] = {"size": 1, "generators": 'D(1,"t")'}
    path = str(tmp_path / "with_w.json")
    pathlib.Path(path).write_text(json.dumps(data))
    status = main(["--scenario", path, "chi", "c", "A", "B", "C", "W"])
    captured = capsys.readouterr()
    assert status == 3
    assert "REJECTED" in captured.err
    # A = (s) is the inverse of A*B*C = (s^3) = (s)
    status, out = run_main(capsys, "--scenario", path, "chi", "c", "A", "B", "C", "A")
    assert status == 0
    _, expected = run_main(capsys, "--scenario", path, "chi", "c", "A", "B", "C")
    chi_line = [line for line in expected.splitlines() if line.startswith("CHI:")]
    assert chi_line and chi_line[0] in out.splitlines()
    # Eight cyclic generators E(i, i mod 8 + 1, "t - s"): A*B*C holds
    # 1,289,501 terms, and D = A is refused without forming it.
    cyclic = " ; ".join(f'E({i},{i % 8 + 1},"t - s")' for i in range(1, 9))
    data["matrices"] = {m: {"size": 8, "generators": cyclic} for m in "ABC"}
    pathlib.Path(path).write_text(json.dumps(data))
    status = main(["--scenario", path, "chi", "c", "A", "B", "C", "A"])
    assert status == 3
    assert capsys.readouterr().err == (
        "REJECTED: supplied matrix is not a two-sided inverse of A*B*C\n")


def test_obstruct_command(capsys):
    status, out = run_main(capsys, "--scenario", Z2, "obstruct", "g")
    assert status == 0
    assert "STABLE_MAIN: (-1,0,0)[s]" in out
    assert "RHO: -[s]" in out
    assert "RHO_DOUBLE: -2[s]" in out


_EXTRAPOLATED = "[paper-extrapolated: involution on nontrivial-action coefficients]"
# The whole obstruct report of each lens of each fixture.
OBSTRUCT_OUTPUT = {
    "paper_f2.json": {"g": (
        "LENS: g\nK: 1\nN: 3\nMAIN: (1,0)[u]\nFRAMING: 0\n"
        "STABLE_MAIN: (-1,0)[u]\nSTABLE_FRAMING: 0\n"
        "EPS_K: 2\nEPS_MAIN: (-1,0)[u^-1]\n"
        "DOUBLE_STABLE_MAIN: (-1,0)[u] + (-1,0)[u^-1]\n"
        "RHO: -[u]\nRHO_DOUBLE: -[u] - [u^-1]\n")},
    "paper_z2.json": {"g": (
        "LENS: g\nK: 1\nN: 3\nMAIN: (1,0,0)[s]\nFRAMING: 0\n"
        "STABLE_MAIN: (-1,0,0)[s]\nSTABLE_FRAMING: 0\n"
        "EPS_K: 2\nEPS_MAIN: (-1,0,0)[s]\n"
        f"EPS_NOTE: g {_EXTRAPOLATED}\n"
        "DOUBLE_STABLE_MAIN: (-2,0,0)[s]\n"
        "RHO: -[s]\nRHO_DOUBLE: -2[s]\n")},
    "paper_z6.json": {"g": (
        "LENS: g\nK: 1\nN: 3\nMAIN: (1,0,0)[s]\nFRAMING: 0\n"
        "STABLE_MAIN: (-1,0,0)[s]\nSTABLE_FRAMING: 0\n"
        "EPS_K: 2\nEPS_MAIN: (-1,0,0)[s^5]\n"
        f"EPS_NOTE: g {_EXTRAPOLATED}\n"
        "DOUBLE_STABLE_MAIN: (-1,0,0)[s] + (-1,0,0)[s^5]\n"
        "RHO: -[s]\nRHO_DOUBLE: -[s] - [s^5]\n")},
}


@pytest.mark.parametrize("name", PAPER_FIXTURES)
def test_obstruct_exact_output_for_every_fixture_lens(capsys, name):
    path = str(SCENARIOS / name)
    scenario = load_scenario(path)
    assert sorted(scenario.lenses) == sorted(OBSTRUCT_OUTPUT[name])
    for lens, expected in OBSTRUCT_OUTPUT[name].items():
        for extra in ((), ("--retraction", scenario.paper.retraction)):
            status = main(["--scenario", path, "obstruct", lens, *extra])
            assert (status, *capsys.readouterr()) == (0, expected, "")
        status = main(["--scenario", path, "obstruct", lens, "--retraction", "nope"])
        assert (status, *capsys.readouterr()) == (
            3, "", "REJECTED: scenario declares no map named 'nope'\n")


def test_obstruct_prints_rho_outside_the_double(capsys, tmp_path):
    # rho of the stabilized lens is defined for every lens; only the
    # double and its rho need k=1, n=3.
    data = json.loads(pathlib.Path(F2).read_text())
    data["lenses"]["h"] = dict(data["lenses"]["g"], k=2, n=4)
    path = str(tmp_path / "h.json")
    pathlib.Path(path).write_text(json.dumps(data))
    expected = ("LENS: h\nK: 2\nN: 4\nMAIN: (1,0)[u]\nFRAMING: 0\n"
                "STABLE_MAIN: (1,0)[u]\nSTABLE_FRAMING: 0\n"
                "EPS_K: 2\nEPS_MAIN: (-1,0)[u^-1]\nRHO: [u]\n")
    for extra in ((), ("--retraction", "r")):
        status = main(["--scenario", path, "obstruct", "h", *extra])
        assert (status, *capsys.readouterr()) == (0, expected, "")
    status = main(["--scenario", path, "obstruct", "h", "--retraction", "nope"])
    assert (status, *capsys.readouterr()) == (
        3, "", "REJECTED: scenario declares no map named 'nope'\n")


def _report_values(capsys, *args) -> dict:
    status, out = run_main(capsys, *args)
    assert status == 0
    return dict(line.split(": ", 1) for line in out.splitlines())


# report-paper key, obstruct key: one value under two names.
SHARED_VALUES = (
    ("EPS_MAIN", "EPS_MAIN"),
    ("STABLE_G_MAIN", "STABLE_MAIN"),
    ("STABLE_DOUBLE_MAIN", "DOUBLE_STABLE_MAIN"),
    ("RHO_G", "RHO"),
    ("RHO_DOUBLE", "RHO_DOUBLE"),
)


@pytest.mark.parametrize("name", PAPER_FIXTURES)
def test_report_paper_and_obstruct_agree(capsys, name):
    path = str(SCENARIOS / name)
    lens = load_scenario(path).paper.lens
    paper = _report_values(capsys, "--scenario", path, "report-paper")
    obstruct = _report_values(capsys, "--scenario", path, "obstruct", lens)
    for paper_key, obstruct_key in SHARED_VALUES:
        assert paper[paper_key] == obstruct[obstruct_key], paper_key


def test_eps_note_exactly_on_nontrivial_action(capsys):
    kinds = set()
    for name in PAPER_FIXTURES:
        path = str(SCENARIOS / name)
        scenario = load_scenario(path)
        lens = scenario.paper.lens
        nontrivial = not scenario.lenses[lens].main.module.trivial_action
        kinds.add(nontrivial)
        expected = f"{lens} {_EXTRAPOLATED}" if nontrivial else None
        for command in (("report-paper",), ("obstruct", lens)):
            values = _report_values(capsys, "--scenario", path, *command)
            assert values.get("EPS_NOTE") == expected, (name, command)
    assert kinds == {True, False}


def test_eps_note_does_not_read_the_lens_name(capsys, tmp_path):
    # A lens named by the marker text itself still gets its note.
    marker = _EXTRAPOLATED[1:-1]
    data = json.loads(pathlib.Path(Z2).read_text())
    data["lenses"] = {marker: data["lenses"]["g"]}
    data["paper"]["lens"] = marker
    path = tmp_path / "marker.json"
    path.write_text(json.dumps(data))
    for command in (("report-paper",), ("obstruct", marker)):
        values = _report_values(capsys, "--scenario", str(path), *command)
        assert values["EPS_NOTE"] == f"{marker} {_EXTRAPOLATED}", command


def test_report_paper_inconclusive_circle(capsys, tmp_path):
    # A retraction that kills alpha leaves rho = 0 and every power zero.
    data = json.loads(pathlib.Path(F2).read_text())
    data["maps"]["r"]["matrix"] = [[0, 1]]
    path = tmp_path / "killed.json"
    path.write_text(json.dumps(data))
    status, out = run_main(capsys, "--scenario", str(path), "report-paper")
    assert status == 0
    assert out.endswith(
        "RHO_G: 0\nRHO_DOUBLE: 0\nPOWERS_NONTRIVIAL: none\n"
        "POWERS_SHORTCUT: rho = 0, so every power is 0\n"
        "CIRCLE: inconclusive by this invariant\n"
        "CIRCLE_PSEUDOISOTOPIC_TO_IDENTITY: true\n"
        "CIRCLE_WITNESS: positive suspension of the generating lens\n")


def test_oracle_wh(capsys):
    status, out = run_main(capsys, "oracle", "wh", "Z2", "Ztrivial")
    assert status == 0
    assert "INVARIANT_FACTORS: 0\n" in out
    status, out = run_main(capsys, "oracle", "wh", "Z3", "Ztrivial")
    assert "INVARIANT_FACTORS: 0, 0" in out


@pytest.mark.parametrize("module", ["Ztrivial", "Z2trivial", "Z^2trivial"])
@pytest.mark.parametrize("group", ["Z2", "Z3", "Z6", "Z2xZ2", "Z2xZ3"])
def test_oracle_wh_matches_the_dense_presentation(capsys, group, module):
    # The lines the dense all-elements presentation of A[G]/<A[1], coinvariance> gives.
    spec = cli.builtin_group(group)
    rank, relations = cli.builtin_module(module)
    mod = gmodules.GModule(spec, QuotientPresentation(rank, relations), name=module)
    dense = QuotientPresentation(mod.rank * spec.order(), reference_oracle_rows(spec, mod))
    invariants = ", ".join(str(d) for d in dense.group_invariants()) or "trivial"
    status, out = run_main(capsys, "oracle", "wh", group, module)
    assert status == 0
    assert out == (f"GROUP_ORDER: {spec.order()}\nAMBIENT: {dense.rank}\n"
                   f"INVARIANT_FACTORS: {invariants}\nFREE_RANK: {dense.free_rank}\n")


def test_oracle_agree_seeded(capsys):
    status, out = run_main(capsys, "--seed", "5", "oracle", "agree",
                           "Z2xZ2", "Z^2trivial", "--pairs", "50")
    assert status == 0
    assert "DISAGREEMENTS: 0" in out
    assert "RESULT: ok" in out


def _fail_enumerate(spec):
    raise AssertionError("enumerated the elements of an oversized group")


def _forbid_enumeration(monkeypatch):
    for layer in (groups, cli):
        monkeypatch.setattr(layer, "enumerate_elements", _fail_enumerate)


def test_oracle_input_bounds(capsys, monkeypatch):
    # Each rejection comes before any group element is enumerated.
    _forbid_enumeration(monkeypatch)
    for pairs in ("-5", "0", str(MAX_ORACLE_PAIRS + 1)):
        assert main(["oracle", "agree", "Z2", "Ztrivial", "--pairs", pairs]) == 3
        out, err = capsys.readouterr()
        assert out == "" and "--pairs must lie in" in err
    assert main(["oracle", "agree", "Z100000", "Ztrivial"]) == 3
    out, err = capsys.readouterr()
    assert out == "" and "exceeds the limit" in err


def test_oracle_size_limit_rejects_before_enumerating(capsys, monkeypatch):
    _forbid_enumeration(monkeypatch)
    for group, module in ((f"Z{MAX_ORACLE_AMBIENT + 1}", "Ztrivial"), ("Z100000", "Ztrivial"),
                          ("Z2xZ2", f"Z^{MAX_ORACLE_AMBIENT // 4 + 1}trivial")):
        for action in ("wh", "agree"):
            assert main(["oracle", action, group, module]) == 3
            out, err = capsys.readouterr()
            assert out == "" and "exceeds the limit" in err


@pytest.mark.parametrize("group, module", [("Z2", "Z^100000trivial"), ("Z2", "Z^3000trivial"),
                                           ("Z100000", "Z^12trivial")])
def test_oracle_size_limit_is_checked_before_building_the_module(capsys, monkeypatch,
                                                                 group, module):
    # The limit is read off the tokens: no presentation is allocated and
    # no torsion law is checked for a module the command refuses.
    def fail(*args, **kwargs):
        raise AssertionError("module built before the size check")

    monkeypatch.setattr(cli, "QuotientPresentation", fail)
    _forbid_enumeration(monkeypatch)
    assert main(["oracle", "wh", group, module]) == 3
    out, err = capsys.readouterr()
    assert out == "" and "exceeds the limit" in err


@pytest.mark.parametrize("group, module, kind", [
    ("Z2", "Z^\u00b2trivial", "module"),
    ("Z2", "Z^\u0663trivial", "module"),
    ("Z2", "Z\u0663trivial", "module"),
    ("Z\u0663", "Ztrivial", "group"),
    ("Z" + "9" * 5000, "Ztrivial", "group"),
    ("Z2", "Z^" + "9" * 5000 + "trivial", "module"),
], ids=["superscript-rank", "arabic-indic-rank", "arabic-indic-order", "arabic-indic-group",
        "5000-digit-group", "5000-digit-rank"])
def test_builtin_tokens_read_ascii_digits_only(capsys, group, module, kind):
    assert main(["oracle", "wh", group, module]) == 3
    out, err = capsys.readouterr()
    assert out == "" and f"unknown {kind} token" in err


def test_wh_equal_past_the_oracle_limit(capsys, tmp_path, monkeypatch):
    # Z/1024 acting on Z by a sign: (1)[s] = (-1)[s] in the coinvariants,
    # A_G = Z/2, decided without enumerating the 1024 elements.
    _forbid_enumeration(monkeypatch)
    path = tmp_path / "big.json"
    path.write_text(json.dumps({
        "name": "big",
        "group": {"factors": [{"kind": "abelian", "names": ["s"], "free_rank": 0,
                               "torsion": [1024]}]},
        "modules": {"A": {"rank": 1, "action": {"s": [[-1]]}}},
    }))
    status, out = run_main(capsys, "--scenario", str(path), "wh", "equal",
                           "(1)[s]", "(-1)[s]", "--module", "A")
    assert status == 0
    assert out == "RESULT: true\n"


def test_report_paper_exact_lines(capsys):
    status, out = run_main(capsys, "--scenario", F2, "report-paper")
    assert status == 0
    assert "RHO_G: -[u]\n" in out
    assert "RHO_DOUBLE: -[u] - [u^-1]\n" in out
    assert "POWERS_NONTRIVIAL: 1..64\n" in out
    assert "CIRCLE: nontrivial\n" in out


def test_exit_status_parse_failure():
    result = run_cli("--scenario", "/nonexistent.json", "report-paper")
    assert result.returncode == 2
    result = run_cli("--scenario", F2, "nosuchcommand")
    assert result.returncode == 2


def test_unwritable_out_exits_2(tmp_path):
    result = run_cli("--scenario", Z2, "--out", str(tmp_path / "missing" / "x"),
                     "report-paper")
    assert result.returncode == 2
    assert result.stderr.startswith("ERROR: ")
    assert "Traceback" not in result.stderr
    assert result.stdout == ""


def _renamed_z2(tmp_path, name):
    """paper_z2.json with its name set to ``name``, which json.dumps writes
    with a \\u escape for each UTF-16 half of a character past U+FFFF."""
    data = json.loads(pathlib.Path(Z2).read_text(encoding="utf-8"))
    data["name"] = name
    path = tmp_path / "renamed.json"
    path.write_text(json.dumps(data), encoding="utf-8")
    assert "\\ud83d" in path.read_text(encoding="utf-8")
    return str(path)


def test_escaped_surrogate_pair_loads_and_prints(capsys, tmp_path):
    status, out = run_main(capsys, "--scenario", _renamed_z2(tmp_path, "paper-\U0001f600"),
                           "report-paper")
    assert status == 0
    assert out.splitlines()[0] == "SCENARIO: paper-\U0001f600"


def test_surrogate_escapes_through_the_console_script(tmp_path):
    # In process, captured stdout takes any str; a pipe must encode it.
    lone = run_cli("--scenario", _renamed_z2(tmp_path, "paper-\ud83d"), "report-paper")
    assert lone.returncode == 2
    assert lone.stdout == ""
    assert lone.stderr.endswith(": E100 unpaired surrogate in unicode escape\n")
    assert "Traceback" not in lone.stderr
    pair = run_cli("--scenario", _renamed_z2(tmp_path, "paper-\U0001f600"), "report-paper",
                   encoding="utf-8")
    assert pair.returncode == 0, pair.stderr
    assert pair.stdout.startswith("SCENARIO: paper-\U0001f600\n")


def test_out_to_a_directory_exits_2(capsys, tmp_path):
    status = main(["--scenario", Z2, "--out", str(tmp_path), "report-paper"])
    captured = capsys.readouterr()
    assert status == 2
    assert captured.out == ""
    assert captured.err.startswith("ERROR: ")
    assert list(tmp_path.iterdir()) == []


def test_exit_status_rejected(tmp_path):
    # a computation precondition failure is distinct from parse errors
    data = json.loads(pathlib.Path(F2).read_text())
    data["assertions"] = []
    path = tmp_path / "no_kernel.json"
    path.write_text(json.dumps(data))
    result = run_cli("--scenario", str(path), "report-paper")
    assert result.returncode == 3
    assert "REJECTED" in result.stderr


def test_exit_status_diagnostics(tmp_path):
    path = tmp_path / "broken.json"
    path.write_text('{"group": }')
    result = run_cli("--scenario", str(path), "report-paper")
    assert result.returncode == 2
    assert "E100" in result.stderr


def test_exit_status_invalid_utf8(tmp_path):
    path = tmp_path / "latin1.json"
    path.write_bytes(b'{"group": \xff}')
    result = run_cli("--scenario", str(path), "report-paper")
    assert result.returncode == 2
    assert result.stderr == "1:11: E100 invalid UTF-8 byte 0xff\n"


def test_exit_status_bad_word_argument():
    result = run_cli("--scenario", F2, "normalize", "nosuchgen")
    assert result.returncode == 2
    assert "PARSE" in result.stderr


def test_out_file(tmp_path, capsys):
    out_path = tmp_path / "report.txt"
    status, out = run_main(capsys, "--scenario", F2, "--out", str(out_path),
                           "report-paper")
    assert status == 0
    assert out == ""
    assert "RHO_G: -[u]" in out_path.read_text()


def test_byte_determinism_across_runs_and_hash_seeds():
    outputs = set()
    for seed in ("0", "1", "2"):
        env = dict(os.environ, PYTHONHASHSEED=seed)
        result = run_cli("--scenario", F2, "report-paper", env=env)
        assert result.returncode == 0
        outputs.add(result.stdout)
    assert len(outputs) == 1


def test_seed_never_affects_report_paper():
    a = run_cli("--scenario", F2, "--seed", "1", "report-paper")
    b = run_cli("--scenario", F2, "--seed", "999", "report-paper")
    assert a.stdout == b.stdout


def test_report_paper_bytes_match_the_benchmark_digests(capsys):
    golden = json.loads(GOLDEN.read_text(encoding="utf-8"))["paper-report"]
    assert sorted(golden) == list(PAPER_FIXTURES)
    for name in PAPER_FIXTURES:
        status, out = run_main(capsys, "--scenario", str(SCENARIOS / name), "report-paper")
        assert status == 0
        assert hashlib.sha256(out.encode("utf-8")).hexdigest() == golden[name], name


def test_report_paper_checks_the_retraction_once(capsys, monkeypatch):
    # Each evaluation of the cached ModuleMap.is_equivariant is counted,
    # at load and in the command alike.
    calls = []
    real = gmodules.ModuleMap.is_equivariant.func
    counted = functools.cached_property(lambda phi: calls.append(phi.name) or real(phi))
    counted.__set_name__(gmodules.ModuleMap, "is_equivariant")
    monkeypatch.setattr(gmodules.ModuleMap, "is_equivariant", counted)
    for name in PAPER_FIXTURES:
        calls.clear()
        status, _ = run_main(capsys, "--scenario", str(SCENARIOS / name), "report-paper")
        assert status == 0
        assert calls == ["r"], name


def _count_calls(monkeypatch, module, name, layers, calls):
    """Count calls of ``module.name`` in every layer that holds the name."""
    real = getattr(module, name)

    def counted(*args, **kwargs):
        calls[name] += 1
        return real(*args, **kwargs)

    for layer in layers:
        if hasattr(layer, name):
            monkeypatch.setattr(layer, name, counted)


def test_report_paper_computes_each_value_once(capsys, monkeypatch):
    calls = collections.Counter()
    _count_calls(monkeypatch, obstruction, "retraction_invariant", (obstruction, cli), calls)
    _count_calls(monkeypatch, chi, "chi_eval", (chi, cli), calls)
    for name in PAPER_FIXTURES:
        calls.clear()
        status, _ = run_main(capsys, "--scenario", str(SCENARIOS / name), "report-paper")
        assert status == 0
        assert calls == {"retraction_invariant": 2, "chi_eval": 1}, name


def test_report_paper_power_line_does_not_scale_with_powers(capsys, monkeypatch, tmp_path):
    calls = collections.Counter()
    real = wh1.WhElement.scale

    def counted(self, n):
        calls["scale"] += 1
        return real(self, n)

    monkeypatch.setattr(wh1.WhElement, "scale", counted)
    data = json.loads(pathlib.Path(F2).read_text())
    first = None
    for powers, expected in ((0, None), (-3, None), (1, "1"), (2, "1..2"),
                             (10**9, "1..1000000000")):
        data["paper"]["powers"] = powers
        text = json.dumps(data)
        path = tmp_path / f"powers_{powers}.json"
        path.write_text(text)
        calls.clear()
        status = main(["--scenario", str(path), "report-paper"])
        out, err = capsys.readouterr()
        if expected is None:
            # A power below 1 is refused at its value, not printed as "none".
            col = text.index('"powers": ') + len('"powers": ') + 1
            assert (status, out) == (2, "")
            assert err == f"1:{col}: E200 field 'powers' must be at least 1\n"
            continue
        assert status == 0
        assert f"POWERS_NONTRIVIAL: {expected}\n" in out
        first = calls["scale"] if first is None else first
        assert calls["scale"] == first, powers


def test_retraction_kills_chi_on_the_fixtures():
    # the table check stands in for chi of the pushed cocycle, which vanishes
    for name in PAPER_FIXTURES:
        scenario = load_scenario(SCENARIOS / name)
        cfg = scenario.paper
        cocycle = scenario.cocycles[cfg.cocycle]
        phi = scenario.maps[cfg.retraction]
        mats = [scenario.matrices[m] for m in cfg.matrices]
        assert chi.retraction_kills_chi(phi, cocycle), name
        assert chi.chi_eval(pushforward(phi, cocycle), *mats).is_zero, name


def test_exit_status_oversized_input(tmp_path):
    big = "9" * 5000
    result = run_cli("--scenario", F2, "normalize", "t^" + big)
    assert result.returncode == 2
    assert result.stderr == "PARSE: integer has more than 640 digits (at offset 2)\n"
    for text, expected in [
        ('{"name": "x",\n "paper": {"powers": ' + big + "}}",
         "2:22: E100 integer has more than 640 digits\n"),
        ("[" * 5000, "1:65: E100 containers nest deeper than 64 levels\n"),
    ]:
        path = tmp_path / "oversized.json"
        path.write_text(text)
        result = run_cli("--scenario", str(path), "report-paper")
        assert result.returncode == 2
        assert result.stderr == expected


def _z2_edited(tmp_path, edit):
    """paper_z2.json as a dict, changed by ``edit``, written to a file."""
    data = json.loads(pathlib.Path(Z2).read_text(encoding="utf-8"))
    edit(data)
    path = tmp_path / "edited.json"
    path.write_text(json.dumps(data, indent=1), encoding="utf-8")
    return str(path)


def _refusal(capsys, *args):
    status = main(list(args))
    captured = capsys.readouterr()
    assert captured.out == ""
    return status, captured.err


def test_report_paper_needs_a_paper_section_and_the_kernel_assertion(capsys, tmp_path):
    no_paper = _z2_edited(tmp_path, lambda d: d.pop("paper"))
    assert _refusal(capsys, "--scenario", no_paper, "report-paper") == (
        3, "REJECTED: scenario has no 'paper' section\n")
    no_kernel = _z2_edited(tmp_path, lambda d: d.update(assertions=["retraction-kills-cocycle"]))
    assert _refusal(capsys, "--scenario", no_kernel, "report-paper") == (
        3, "REJECTED: the stable invariant is defined on the kernel of the first invariant; "
           "scenario must assert 'kernel-of-first-invariant'\n")


@pytest.mark.parametrize("args, message", [
    (["normalize"], "wh normalize takes one Wh expression"),
    (["normalize", "1[t]", "1[t]"], "wh normalize takes one Wh expression"),
    (["add", "1[t]"], "wh add takes two Wh expressions"),
    (["equal", "1[t]", "1[t]", "1[t]"], "wh equal takes two Wh expressions"),
    (["detect", "1[t]"], "wh detect takes a Wh expression and a map name"),
])
def test_wh_refuses_a_wrong_argument_count(capsys, args, message):
    assert _refusal(capsys, "--scenario", Z2, "wh", *args) == (3, f"REJECTED: {message}\n")


@pytest.mark.parametrize("args, message", [
    (["--module", "pi2", "normalize", "[t]"],
     "tuple coefficient required for a module of rank > 1 (at offset 0)"),
    (["normalize", "x"], "expected a coefficient or '[', found 'x' (at offset 0)"),
    (["normalize", "1[t] +"], "dangling operator (at offset 6)"),
    (["normalize", "1[t] 2[t]"], "expected '+' or '-', found '2' (at offset 5)"),
])
def test_wh_expression_errors_exit_2(capsys, args, message):
    assert _refusal(capsys, "--scenario", Z2, "wh", *args) == (2, f"PARSE: {message}\n")


def test_trailing_input_in_a_diagonal_unit_is_a_load_error(capsys, tmp_path):
    path = _z2_edited(tmp_path, lambda d: d["matrices"]["A"].update(generators='D(1,"t s")'))
    assert _refusal(capsys, "--scenario", path, "normalize", "t") == (
        2, "144:18: E230 matrix 'A': in D(...): unexpected trailing input\n"
           "169:4: E220 unresolved matrix name\n")

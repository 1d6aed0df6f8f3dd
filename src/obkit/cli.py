"""Command-line interface: scenario ingestion, command dispatch, and
deterministic key/value reports.

Exit statuses: 0 success, 2 parse or validation failure (including
usage errors, an unreadable scenario and an unwritable ``--out``), 3
computation rejected by a precondition, 4 a disagreement found by
``oracle agree``.
"""

from __future__ import annotations

import argparse
import random
import sys
from dataclasses import dataclass

from .chi import chi_eval, retraction_kills_chi
from .errors import ContextError, DimensionError, RejectedError, UnsupportedError
from .gmodules import GModule
from .groups import FactorSpec, GroupSpec, are_conjugate, conjugacy_canonical, enumerate_elements
from .intlinalg import QuotientPresentation
from .obstruction import (
    LensClass,
    clam_double,
    involution,
    retraction_invariant,
    stable_obstruction,
    stable_sum,
)
from .restricted_json import MAX_INT_DIGITS
from .scenario import ASSERT_KERNEL, Scenario, ScenarioError, load_scenario
from .wh1 import WhElement, detect_nontrivial, induced_map, oracle_wh_presentation, wh_equal
from .words import WordError, parse_wh, parse_word

__all__ = ["Report", "run_command", "main"]

# Largest ``oracle --pairs``: each pair builds and reduces two random elements.
MAX_ORACLE_PAIRS = 100_000
# Largest ambient rank k*|G| of the ``oracle`` command: it bounds the
# enumeration of G, which ``oracle agree`` draws from.  It is checked
# from the tokens alone, before the module is built.
MAX_ORACLE_AMBIENT = 512


@dataclass(frozen=True)
class Report:
    """An ordered list of KEY: value lines plus an exit status."""

    lines: tuple[tuple[str, str], ...]
    status: int = 0

    def render(self) -> str:
        return "".join(f"{key}: {value}\n" for key, value in self.lines)


# -- builtin tokens for the oracle command -------------------------------


def _number(text: str) -> int | None:
    """The value of at most MAX_INT_DIGITS ASCII digits, else None."""
    if text.isascii() and text.isdigit() and len(text) <= MAX_INT_DIGITS:
        return int(text)
    return None


def builtin_group(token: str) -> GroupSpec | None:
    """Cyclic and product shorthands: Z2, Z6, Z2xZ2, ..."""
    orders = []
    for part in token.split("x"):
        m = _number(part[1:]) if part.startswith("Z") else None
        if m is None or m < 2:
            return None
        orders.append(m)
    if not orders:
        return None
    names = tuple(f"s{i + 1}" for i in range(len(orders))) if len(orders) > 1 else ("s",)
    return GroupSpec((FactorSpec.abelian(names, torsion=orders),))


def builtin_module(token: str) -> tuple[int, list] | None:
    """The rank and relations of a trivial-action shorthand: Ztrivial,
    Z2trivial, Z^2trivial.  Nothing is built, so the caller can bound the
    rank first."""
    if not token.endswith("trivial"):
        return None
    body = token[: -len("trivial")]
    if body == "Z":
        return 1, []
    if body.startswith("Z^"):
        rank = _number(body[2:])
        return None if rank is None else (rank, [])
    order = _number(body[1:]) if body.startswith("Z") else None
    return None if order is None else (1, [(order,)])


def _random_wh(rng: random.Random, module: GModule, elements) -> WhElement:
    terms = []
    for _ in range(rng.randint(0, 4)):
        coords = [rng.randint(-3, 3) for _ in range(module.rank)]
        terms.append((coords, rng.choice(elements)))
    return WhElement.build(module, terms)


# -- command handlers -----------------------------------------------------


def _cmd_normalize(scenario: Scenario, args) -> Report:
    word = parse_word(scenario.spec, args.word)
    return Report((("RESULT", str(word)),))


def _cmd_conjugacy(scenario: Scenario, args) -> Report:
    first = parse_word(scenario.spec, args.word)
    lines = [("CANONICAL", str(conjugacy_canonical(first)))]
    if args.other is not None:
        second = parse_word(scenario.spec, args.other)
        lines.append(("CANONICAL_2", str(conjugacy_canonical(second))))
        lines.append(("ARE_CONJUGATE", _bool(are_conjugate(first, second))))
    return Report(tuple(lines))


def _named(table: dict, name: str, what: str):
    """The scenario's ``what`` called ``name``, looked up in ``table``."""
    value = table.get(name)
    if value is None:
        raise RejectedError(f"scenario declares no {what} named {name!r}")
    return value


def _cmd_wh(scenario: Scenario, args) -> Report:
    module = _named(scenario.modules, "Z" if args.module is None else args.module, "module")
    action = args.action
    rest = args.args
    if action == "normalize":
        if len(rest) != 1:
            raise RejectedError("wh normalize takes one Wh expression")
        return Report((("RESULT", str(parse_wh(module, rest[0]))),))
    if action == "add":
        if len(rest) != 2:
            raise RejectedError("wh add takes two Wh expressions")
        total = parse_wh(module, rest[0]) + parse_wh(module, rest[1])
        return Report((("RESULT", str(total)),))
    if action == "equal":
        if len(rest) != 2:
            raise RejectedError("wh equal takes two Wh expressions")
        verdict = wh_equal(parse_wh(module, rest[0]), parse_wh(module, rest[1]))
        return Report((("RESULT", "unknown" if verdict is None else _bool(verdict)),))
    if action == "detect":
        if len(rest) != 2:
            raise RejectedError("wh detect takes a Wh expression and a map name")
        phi = _named(scenario.maps, rest[1], "map")
        flag = detect_nontrivial(parse_wh(module, rest[0]), phi)
        return Report((("RESULT", _bool(flag)),))
    raise RejectedError(f"unknown wh action {action!r}")


def _cmd_chi(scenario: Scenario, args) -> Report:
    cocycle = _named(scenario.cocycles, args.cocycle, "cocycle")
    mats = [_named(scenario.matrices, name, "matrix") for name in (args.a, args.b, args.c)]
    d = None if args.d is None else _named(scenario.matrices, args.d, "matrix")
    # The loader verified the cocycle identity (E243 otherwise).
    value = chi_eval(cocycle, *mats, d)
    return Report((("COCYCLE_OK", "true"), ("CHI", str(value))))


def _cmd_obstruct(scenario: Scenario, args) -> Report:
    lens = _named(scenario.lenses, args.lens, "lens")
    lines = [
        ("LENS", args.lens),
        ("K", str(lens.k)),
        ("N", str(lens.n)),
        ("MAIN", str(lens.main)),
        ("FRAMING", str(lens.framing)),
    ]
    sf, sm = stable_obstruction(lens)
    lines.append(("STABLE_MAIN", str(sm)))
    lines.append(("STABLE_FRAMING", str(sf)))
    eps = involution(lens)
    lines.append(("EPS_K", str(eps.k)))
    lines.append(("EPS_MAIN", str(eps.main)))
    lines.extend(_eps_note(lens, args.lens))
    double = (lens.k, lens.n) == (1, 3)
    if double:
        _, dm = stable_sum(clam_double(lens))
        lines.append(("DOUBLE_STABLE_MAIN", str(dm)))
    retraction = args.retraction
    if retraction is None and scenario.paper is not None:
        retraction = scenario.paper.retraction
    if retraction is not None:
        phi = _named(scenario.maps, retraction, "map")
        lines.append(("RHO", str(retraction_invariant(sm, phi))))
        if double:
            lines.append(("RHO_DOUBLE", str(retraction_invariant(dm, phi))))
    return Report(tuple(lines))


def _cmd_oracle(scenario: Scenario | None, args) -> Report:
    if not 1 <= args.pairs <= MAX_ORACLE_PAIRS:
        raise RejectedError(f"--pairs must lie in [1, {MAX_ORACLE_PAIRS}], got {args.pairs}")
    spec = builtin_group(args.group)
    if spec is None:
        raise RejectedError(f"unknown group token {args.group!r} "
                            "(expected Z<m> or products like Z2xZ2)")
    shape = builtin_module(args.module)
    if shape is None:
        raise RejectedError(f"unknown module token {args.module!r} "
                            "(expected Ztrivial, Z<m>trivial or Z^<k>trivial)")
    rank, relations = shape
    ambient = rank * spec.order()
    if ambient > MAX_ORACLE_AMBIENT:
        raise UnsupportedError(
            f"oracle ambient rank {ambient} exceeds the limit {MAX_ORACLE_AMBIENT}"
        )
    module = GModule(spec, QuotientPresentation(rank, relations), name=args.module)
    oracle = oracle_wh_presentation(spec, module)
    invariants = oracle.group_invariants()
    lines = [
        ("GROUP_ORDER", str(spec.order())),
        ("AMBIENT", str(oracle.ambient)),
        ("INVARIANT_FACTORS", ", ".join(str(d) for d in invariants) or "trivial"),
        ("FREE_RANK", str(oracle.free_rank)),
    ]
    if args.action == "agree":
        rng = random.Random(args.seed)
        elements = enumerate_elements(spec)
        pairs = args.pairs
        disagreements = 0
        for _ in range(pairs):
            x = _random_wh(rng, module, elements)
            y = _random_wh(rng, module, elements)
            if (x == y) != (oracle.coords(x) == oracle.coords(y)):
                disagreements += 1
        lines.append(("PAIRS", str(pairs)))
        lines.append(("DISAGREEMENTS", str(disagreements)))
        lines.append(("RESULT", "ok" if disagreements == 0 else "fail"))
        return Report(tuple(lines), status=0 if disagreements == 0 else 4)
    return Report(tuple(lines))


def _cmd_report_paper(scenario: Scenario, args) -> Report:
    if scenario.paper is None:
        raise RejectedError("scenario has no 'paper' section")
    if ASSERT_KERNEL not in scenario.assertions:
        raise RejectedError(
            "the stable invariant is defined on the kernel of the first "
            f"invariant; scenario must assert {ASSERT_KERNEL!r}"
        )
    cfg = scenario.paper
    lens = scenario.lenses[cfg.lens]
    phi = scenario.maps[cfg.retraction]
    sigma = lens.main.terms[0][1] if lens.main.terms else scenario.spec.identity()
    lines = [
        ("SCENARIO", scenario.name),
        ("GROUP", scenario.spec.describe()),
        ("SIGMA", str(sigma)),
        ("ALPHA", _coeff_str(lens.main)),
        ("LAMBDA_MAIN", str(lens.main)),
        ("LAMBDA_FRAMING", str(lens.framing)),
    ]
    if cfg.cocycle is not None and cfg.matrices is not None:
        cocycle = scenario.cocycles[cfg.cocycle]
        a, b, c = (scenario.matrices[m] for m in cfg.matrices)
        # Verified by the loader, like every cocycle of a scenario.
        lines.append(("COCYCLE_OK", "true"))
        value = chi_eval(cocycle, a, b, c)
        lines.append(("CHI_MAIN", str(value)))
        lines.append(("CHI_RETRACTED", str(induced_map(phi, value))))
        lines.append(("RETRACTION_KILLS_CHI", _bool(retraction_kills_chi(phi, cocycle))))
    double = clam_double(lens)
    lines.append(("EPS_MAIN", str(double[1].main)))  # the upside-down copy
    lines.extend(_eps_note(lens, cfg.lens))
    _, stable_g = stable_obstruction(lens)
    lines.append(("STABLE_G_MAIN", str(stable_g)))
    _, stable_d = stable_sum(double)
    lines.append(("STABLE_DOUBLE_MAIN", str(stable_d)))
    lines.append(("RHO_G", str(retraction_invariant(stable_g, phi))))
    # rho of the glued double; retraction_invariant says why it decides every power.
    rho = retraction_invariant(stable_d, phi)
    nontrivial = not rho.is_zero
    lines.append(("RHO_DOUBLE", str(rho)))
    lines.append(("POWERS_NONTRIVIAL", _power_range(nontrivial, cfg.powers)))
    lines.append(("POWERS_SHORTCUT",
                  "rho != 0 in a free abelian group, so n*rho != 0 for all n >= 1"
                  if nontrivial else "rho = 0, so every power is 0"))
    lines.append(("CIRCLE", "nontrivial" if nontrivial else "inconclusive by this invariant"))
    # The positive suspension of the lens makes the double pseudoisotopic to the identity.
    lines.append(("CIRCLE_PSEUDOISOTOPIC_TO_IDENTITY", "true"))
    lines.append(("CIRCLE_WITNESS", "positive suspension of the generating lens"))
    return Report(tuple(lines))


_EXTRAPOLATED = "paper-extrapolated: involution on nontrivial-action coefficients"


def _eps_note(lens: LensClass, name: str) -> list[tuple[str, str]]:
    """The EPS_NOTE line of a lens whose module acts nontrivially: the
    paper states the involution's sign rule for trivial action only."""
    if lens.main.module.trivial_action:
        return []
    return [("EPS_NOTE", f"{name} [{_EXTRAPOLATED}]".strip())]


def _power_range(nontrivial: bool, powers: int) -> str:
    """The powers n = 1..powers that are nontrivial: all of them or none."""
    if not nontrivial:
        return "none"
    return "1" if powers == 1 else f"1..{powers}"


def _coeff_str(x: WhElement) -> str:
    """The first term's coefficient: bare at rank one, else a tuple."""
    if not x.terms:
        return "0"
    coords = x.terms[0][0]
    return str(coords[0]) if len(coords) == 1 else "(" + ",".join(map(str, coords)) + ")"


def _bool(flag: bool) -> str:
    return "true" if flag else "false"


# -- dispatch --------------------------------------------------------------


def run_command(scenario: Scenario | None, command: str, args) -> Report:
    handlers = {
        "normalize": _cmd_normalize,
        "conjugacy": _cmd_conjugacy,
        "wh": _cmd_wh,
        "chi": _cmd_chi,
        "obstruct": _cmd_obstruct,
        "oracle": _cmd_oracle,
        "report-paper": _cmd_report_paper,
    }
    if command not in handlers:
        raise RejectedError(f"unknown command {command!r}")
    if command != "oracle" and scenario is None:
        raise RejectedError(f"command {command!r} needs a scenario")
    return handlers[command](scenario, args)


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="obkit",
        description="Symbolic obstruction calculus over free products.",
    )
    parser.add_argument("--scenario", help="path to a scenario file")
    parser.add_argument("--out", help="write the report to this path")
    parser.add_argument("--seed", type=int, default=0,
                        help="seed for randomized property commands only")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("normalize", help="normal form of a word")
    p.add_argument("word")

    p = sub.add_parser("conjugacy", help="canonical conjugacy representative")
    p.add_argument("word")
    p.add_argument("other", nargs="?")

    p = sub.add_parser("wh", help="Wh element operations")
    p.add_argument("action", choices=["normalize", "add", "equal", "detect"])
    p.add_argument("args", nargs="*")
    p.add_argument("--module", help="coefficient module name (default Z)")

    p = sub.add_parser("chi", help="evaluate chi on certified matrices")
    p.add_argument("cocycle")
    p.add_argument("a")
    p.add_argument("b")
    p.add_argument("c")
    p.add_argument("d", nargs="?")

    p = sub.add_parser("obstruct", help="lens obstruction report")
    p.add_argument("lens")
    p.add_argument("--retraction")

    p = sub.add_parser("oracle", help="finite-group Wh oracle")
    p.add_argument("action", choices=["wh", "agree"])
    p.add_argument("group")
    p.add_argument("module")
    p.add_argument("--pairs", type=int, default=200)

    sub.add_parser("report-paper", help="the full headline pipeline")
    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    scenario = None
    try:
        if args.scenario is not None:
            scenario = load_scenario(args.scenario)
        report = run_command(scenario, args.command, args)
        text = report.render()
        if args.out:
            with open(args.out, "w", encoding="utf-8") as fh:
                fh.write(text)
    except ScenarioError as err:
        for diag in err.diagnostics:
            print(diag.render(), file=sys.stderr)
        return 2
    except WordError as err:
        print(f"PARSE: {err}", file=sys.stderr)
        return 2
    except (RejectedError, UnsupportedError, ContextError, DimensionError) as err:
        print(f"REJECTED: {err}", file=sys.stderr)
        return 3
    except OSError as err:
        print(f"ERROR: {err}", file=sys.stderr)
        return 2
    if not args.out:
        sys.stdout.write(text)
    return report.status


if __name__ == "__main__":
    sys.exit(main())

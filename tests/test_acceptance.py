"""Acceptance criteria, one test per criterion, each printing a
pass/fail line and enforcing its stated runtime budget.

Run ``pytest tests/test_acceptance.py -s`` for the line-per-criterion
output, or execute this file directly.
"""

import pathlib
import random
import time

from obkit.chi import Cocycle, chi_eval, verify_cocycle
from obkit.cli import main as cli_main
from obkit.gmodules import GModule, ModuleMap
from obkit.groupring import ElementaryGen, build_invertible
from obkit.groups import (
    FactorSpec,
    GroupSpec,
    are_conjugate,
    conjugacy_canonical,
    enumerate_elements,
    inverse,
    multiply,
)
from obkit.intlinalg import IntMatrix, QuotientPresentation, smith_normal_form
from obkit.obstruction import involution, make_lens, stable_obstruction
from obkit.scenario import load_scenario
from obkit.wh1 import WhElement, oracle_wh_presentation
from support import (
    chi_naturality_check,
    coboundary,
    det,
    f2_spec,
    flat_table,
    invariant_factors,
    inverted_generators,
    mixed_spec,
    rand_element,
    rand_invertible,
    rand_unimodular,
    reference_inverse,
    suspend,
    trivial_module,
    zero_framing,
    zmod_spec,
    zz2_spec,
)

SCENARIOS = pathlib.Path(__file__).resolve().parent.parent / "scenarios"
PAPER_FILES = ("paper_f2.json", "paper_z2.json", "paper_z6.json")


class criterion:
    """Times a criterion body, enforces its budget, prints one line."""

    def __init__(self, number, description, budget=None):
        self.number = number
        self.description = description
        self.budget = budget

    def __enter__(self):
        self.start = time.perf_counter()
        return self

    def __exit__(self, exc_type, exc, tb):
        elapsed = time.perf_counter() - self.start
        verdict = "PASS" if exc_type is None else "FAIL"
        print(f"CRITERION {self.number} {verdict}: {self.description} "
              f"({elapsed:.2f}s)")
        if exc_type is None and self.budget is not None:
            assert elapsed < self.budget, (
                f"criterion {self.number} exceeded its {self.budget}s budget: "
                f"{elapsed:.2f}s"
            )
        return False


def run_report(path, out_path):
    status = cli_main(["--scenario", str(path), "--out", str(out_path), "report-paper"])
    assert status == 0
    lines = {}
    for line in out_path.read_text(encoding="utf-8").splitlines():
        key, _, value = line.partition(": ")
        lines[key] = value
    return lines


def expected_rho_values(scenario):
    """Independent construction of the headline values from the lens data."""
    z = scenario.modules["Z"]
    sigma = scenario.elements["sigma"]
    rho_g = WhElement.build(z, [((-1,), sigma)])
    rho_double = WhElement.build(z, [((-1,), sigma), ((-1,), inverse(sigma))])
    return rho_g, rho_double


def test_criterion_1_headline_values(tmp_path):
    with criterion(1, "paper headline values on F2, Z/2 and Z/6 scenarios"):
        for name in PAPER_FILES:
            path = SCENARIOS / name
            start = time.perf_counter()
            lines = run_report(path, tmp_path / (name + ".txt"))
            elapsed = time.perf_counter() - start
            assert elapsed < 1.0, f"{name}: report took {elapsed:.2f}s"
            scenario = load_scenario(path)
            rho_g, rho_double = expected_rho_values(scenario)
            assert lines["RHO_G"] == str(rho_g)
            assert lines["RHO_DOUBLE"] == str(rho_double)
        # spelled-out expectations, order-2 degeneration included
        f2 = run_report(SCENARIOS / "paper_f2.json", tmp_path / "f2.txt")
        assert f2["RHO_G"] == "-[u]"
        assert f2["RHO_DOUBLE"] == "-[u] - [u^-1]"
        z2 = run_report(SCENARIOS / "paper_z2.json", tmp_path / "z2.txt")
        assert z2["RHO_G"] == "-[s]"
        assert z2["RHO_DOUBLE"] == "-2[s]"
        z6 = run_report(SCENARIOS / "paper_z6.json", tmp_path / "z6.txt")
        assert z6["RHO_G"] == "-[s]"
        assert z6["RHO_DOUBLE"] == "-[s] - [s^5]"


def test_criterion_2_power_nontriviality(tmp_path):
    with criterion(2, "n * rho nonzero for 1 <= n <= 64 on every scenario"):
        for name in PAPER_FILES:
            start = time.perf_counter()
            scenario = load_scenario(SCENARIOS / name)
            _, rho_double = expected_rho_values(scenario)
            rho_g, _ = expected_rho_values(scenario)
            for rho in (rho_g, rho_double):
                for n in range(1, 65):
                    assert not rho.scale(n).is_zero
            lines = run_report(SCENARIOS / name, tmp_path / (name + ".p.txt"))
            assert lines["POWERS_NONTRIVIAL"] == "1..64"
            assert time.perf_counter() - start < 1.0


def test_criterion_3_oracle_equivalence():
    with criterion(3, "canonical forms agree with the SNF oracle", budget=30.0):
        rng = random.Random(2024)
        group_orders = [(2,), (3,), (4,), (6,), (2, 2)]
        for orders in group_orders:
            spec = zmod_spec(*orders)
            modules = [
                trivial_module(spec, 1, name="Z"),
                GModule(spec, QuotientPresentation(1, [(2,)]), name="Z2"),
                trivial_module(spec, 2, name="ZZ"),
            ]
            for module in modules:
                oracle = oracle_wh_presentation(spec, module)
                for _ in range(200):
                    x = _random_wh(rng, module)
                    y = _random_wh(rng, module)
                    assert (x == y) == (oracle.coords(x) == oracle.coords(y))
            z_oracle = oracle_wh_presentation(spec, modules[0])
            order = spec.order()
            assert z_oracle.free_rank == order - 1
            assert z_oracle.group_invariants() == (0,) * (order - 1)


def _random_wh(rng, module):
    terms = []
    for _ in range(rng.randint(0, 4)):
        coords = [rng.randint(-3, 3) for _ in range(module.rank)]
        terms.append((coords, rand_element(rng, module.spec, 2)))
    return WhElement.build(module, terms)


def _chi_fixture():
    spec = zz2_spec()
    swap = [[1, 0, 0], [0, 0, 1], [0, 1, 0]]
    pi2 = GModule(spec, QuotientPresentation(3), action={"s": swap}, name="pi2")
    qspec = GroupSpec((FactorSpec.abelian(("q",), torsion=[2]),))
    from obkit.chi import FiniteQuotient

    quotient = FiniteQuotient(spec, qspec,
                              {"t": qspec.identity(), "s": qspec.generator("q")})
    q = qspec.generator("q")
    cocycle = Cocycle(quotient, pi2, flat_table(quotient, pi2, {(q, q, q): (0, -1, 1)}),
                      q_action={"q": swap})
    return spec, pi2, quotient, cocycle, swap


def test_criterion_4_chi_identities():
    with criterion(4, "chi vanishing, naturality and inverse-independence",
                   budget=60.0):
        rng = random.Random(4096)
        spec, pi2, quotient, cocycle, swap = _chi_fixture()
        zero_c = Cocycle(quotient, pi2, flat_table(quotient, pi2, {}), q_action={"q": swap})
        for _ in range(50):
            n = rng.choice([1, 2, 3])
            ident = build_invertible(spec, n, ())
            assert chi_eval(cocycle, ident, ident, ident, ident).is_zero
            mats = [rand_invertible(rng, spec, n) for _ in range(3)]
            assert chi_eval(zero_c, *mats).is_zero
        # naturality on trivial-action coefficient maps over a quotient
        # reached by both generators
        a_mod = trivial_module(spec, 2, name="A")
        b_mod = trivial_module(spec, 1, name="B")
        from obkit.chi import FiniteQuotient

        qspec = quotient.target
        reach = FiniteQuotient(spec, qspec,
                               {"t": qspec.generator("q"), "s": qspec.generator("q")})
        elems = enumerate_elements(reach.target)
        for _ in range(50):
            two = {}
            for _ in range(rng.randint(1, 3)):
                two[(rng.choice(elems), rng.choice(elems))] = (
                    rng.randint(-2, 2), rng.randint(-2, 2))
            c = coboundary(reach, a_mod, two)
            phi = ModuleMap(a_mod, b_mod,
                            [[rng.randint(-2, 2), rng.randint(-2, 2)]])
            n = rng.choice([2, 3])
            mats = [rand_invertible(rng, spec, n) for _ in range(3)]
            assert chi_naturality_check(phi, c, *mats)
        # replacing the verified inverse with an independently constructed
        # verified inverse leaves the value unchanged
        for _ in range(10):
            n = rng.choice([2, 3])
            gens = rand_invertible(rng, spec, n).provenance
            pair = build_invertible(spec, n, gens)
            canceling = ElementaryGen(0, 1, {rand_element(rng, spec, 2): 1})
            padded = build_invertible(
                spec, n, list(gens) + [canceling, canceling.inverted()])
            assert padded.matrix == pair.matrix
            assert reference_inverse(padded) == reference_inverse(pair)
            ident = build_invertible(spec, n, ())
            via_pair = chi_eval(cocycle, pair, ident, ident,
                                build_invertible(spec, n, inverted_generators(pair)))
            via_padded = chi_eval(cocycle, padded, ident, ident,
                                  build_invertible(spec, n, inverted_generators(padded)))
            assert via_pair == via_padded


def test_criterion_5_cocycle_validation():
    with criterion(5, "shipped cocycles verify; +1 entry mutations rejected"):
        mutated = 0
        for name in PAPER_FILES:
            scenario = load_scenario(SCENARIOS / name)
            for cname, cocycle in scenario.cocycles.items():
                assert verify_cocycle(cocycle) is None
                reduce = cocycle.module.presentation.reduce
                for slot, value in enumerate(cocycle.values):
                    if not any(reduce(value)):
                        continue
                    for i in range(cocycle.module.rank):
                        values = list(cocycle.values)
                        bumped = list(value)
                        bumped[i] += 1
                        values[slot] = tuple(bumped)
                        bad = Cocycle(cocycle.quotient, cocycle.module, values,
                                      q_action=cocycle._q_matrices)
                        violated = verify_cocycle(bad)
                        assert violated is not None, (name, cname, slot, i)
                        assert len(violated) == 4
                        mutated += 1
        assert mutated > 0


def test_criterion_6_sign_calculus():
    with criterion(6, "involution and suspension sign identities"):
        rng = random.Random(606)
        spec = zz2_spec()
        mod = trivial_module(spec, 2)
        from test_obstruction import rand_lens

        for _ in range(100):
            lens = rand_lens(rng, spec, mod)
            assert involution(involution(lens)) == lens
            base = stable_obstruction(lens)
            assert stable_obstruction(suspend(lens, "+")) == base
            minus = stable_obstruction(suspend(lens, "-"))
            assert minus == (base[0].scale(-1), base[1].scale(-1))
        pi2 = GModule(spec, QuotientPresentation(2), elements={"alpha": (1, 0)})
        for _ in range(100):
            sigma = rand_element(rng, spec, 3)
            if sigma.is_identity:
                continue
            coords = (rng.randint(-3, 3), rng.randint(-3, 3))
            lens = make_lens(pi2, coords, sigma, zero_framing(spec))
            eps = involution(lens)
            assert eps.main == WhElement.build(
                pi2, [([-c for c in coords], inverse(sigma))])
            assert (eps.k, eps.n) == (2, 3)


def test_criterion_7_algebra_substrate():
    with criterion(7, "group laws, conjugacy, SNF and coset properties",
                   budget=60.0):
        rng = random.Random(707)
        assert invariant_factors(IntMatrix([[2, 4], [6, 8]])) == (2, 4)
        for spec in (f2_spec(), zz2_spec(), mixed_spec()):
            e = spec.identity()
            for _ in range(1000):
                g = rand_element(rng, spec)
                h = rand_element(rng, spec)
                k = rand_element(rng, spec)
                assert multiply(multiply(g, h), k) == multiply(g, multiply(h, k))
                assert multiply(g, e) == g
                assert multiply(g, inverse(g)).is_identity
            for _ in range(300):
                g = rand_element(rng, spec)
                c = rand_element(rng, spec)
                conj = multiply(multiply(c, g), inverse(c))
                assert are_conjugate(g, conj)
                assert conjugacy_canonical(conj) == conjugacy_canonical(g)
        for _ in range(200):
            r = rng.randint(1, 8)
            c = rng.randint(1, 8)
            m = IntMatrix([[rng.randint(-20, 20) for _ in range(c)]
                           for _ in range(r)])
            u, s, v = smith_normal_form(m)
            assert (u @ m @ v) == s
            assert abs(det(u)) == 1 and abs(det(v)) == 1
            diag = [s.entries[i][i] for i in range(min(r, c))]
            for a, b in zip(diag, diag[1:]):
                assert (a == 0 and b == 0) or (a != 0 and b % a == 0)
            left = rand_unimodular(rng, r)
            right = rand_unimodular(rng, c)
            assert invariant_factors(left @ m @ right) == tuple(diag)
        p = QuotientPresentation(3, [(2, 0, 4), (0, 6, 2)])
        for _ in range(200):
            x = [rng.randint(-30, 30) for _ in range(3)]
            y = [rng.randint(-30, 30) for _ in range(3)]
            combined = p.reduce([a + b for a, b in zip(p.reduce(x), p.reduce(y))])
            assert p.reduce([a + b for a, b in zip(x, y)]) == combined


if __name__ == "__main__":
    import sys
    import tempfile

    failures = 0
    with tempfile.TemporaryDirectory() as tmp:
        tmp_path = pathlib.Path(tmp)
        for test in (
            lambda: test_criterion_1_headline_values(tmp_path),
            lambda: test_criterion_2_power_nontriviality(tmp_path),
            test_criterion_3_oracle_equivalence,
            test_criterion_4_chi_identities,
            test_criterion_5_cocycle_validation,
            test_criterion_6_sign_calculus,
            test_criterion_7_algebra_substrate,
        ):
            try:
                test()
            except AssertionError:
                failures += 1
    sys.exit(1 if failures else 0)

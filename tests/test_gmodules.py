"""G-module actions, validation and coefficient maps."""

import math
import pathlib
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from obkit import gmodules
from obkit.errors import ContextError, DimensionError
from obkit.gmodules import GModule, ModuleMap
from obkit.groups import inverse, multiply
from obkit.intlinalg import IntMatrix, QuotientPresentation
from obkit.scenario import load_scenario
from support import (
    NON_SMITH_LATTICES,
    rand_element,
    trivial_module,
    tu_spec,
    zmod_spec,
    zz2_spec,
    zz6_spec,
)

SCENARIOS = pathlib.Path(__file__).resolve().parent.parent / "scenarios"
SWAP = [[0, 1], [1, 0]]


def swap_module(spec):
    return GModule(spec, QuotientPresentation(2), action={"s": SWAP}, name="swap")


def act(mod, g, a):
    """g.a reduced: the module element g sends a to."""
    return mod.presentation.reduce(mod.act_vec(g, a))


def test_trivial_action_act():
    spec = zz2_spec()
    mod = trivial_module(spec, 1)
    rng = random.Random(3)
    for _ in range(50):
        g = rand_element(rng, spec)
        assert mod.act_vec(g, (5,)) == (5,)


def test_swap_action():
    spec = zz2_spec()
    mod = swap_module(spec)
    assert mod.act_vec(spec.generator("s"), (1, 0)) == (0, 1)
    assert mod.act_vec(spec.generator("t"), (1, 0)) == (1, 0)


def test_action_composition_randomized():
    rng = random.Random(5)
    spec = zz6_spec()
    rotation = [[0, -1], [1, 1]]
    mod = GModule(spec, QuotientPresentation(2), action={"s": rotation})
    for _ in range(500):
        g = rand_element(rng, spec)
        h = rand_element(rng, spec)
        a = tuple(rng.randint(-4, 4) for _ in range(2))
        assert act(mod, multiply(g, h), a) == act(mod, g, act(mod, h, a))
        assert act(mod, inverse(g), act(mod, g, a)) == a
    assert mod.act_vec(spec.identity(), (1, 2)) == (1, 2)


def test_validate_examples():
    # A module is checked when it is built: it exists only if valid.
    spec = zz2_spec()
    assert trivial_module(spec, 1).trivial_action
    with pytest.raises(ValueError, match="invertible"):
        GModule(spec, QuotientPresentation(1), action={"s": [[2]]})
    negation = GModule(spec, QuotientPresentation(1), action={"s": [[-1]]})
    assert not negation.trivial_action


def test_validate_torsion_constraint():
    spec = zz2_spec()
    # order 3 matrix on a generator of order 2 violates the torsion rule
    with pytest.raises(ValueError, match="torsion"):
        GModule(spec, QuotientPresentation(2), action={"s": [[0, -1], [1, -1]]})


def test_torsion_law_power_squares(monkeypatch):
    m = IntMatrix([[1, 1], [0, 1]])
    expected = IntMatrix.identity(2)
    for n in range(12):
        assert gmodules._power(m, n) == expected
        expected = expected @ m
    matmul = IntMatrix.__matmul__
    calls = []
    monkeypatch.setattr(IntMatrix, "__matmul__",
                        lambda a, b: calls.append(1) or matmul(a, b))
    assert gmodules._power(m, 10**6) == IntMatrix([[1, 10**6], [0, 1]])
    assert len(calls) <= 2 * math.log2(10**6) + 1


def test_validate_inverts_mod_torsion():
    # multiplication by 2 is invertible on Z/5 even though det != +-1
    spec = zz2_spec()
    mod = GModule(spec, QuotientPresentation(1, [(5,)]), action={"t": [[2]]})
    t = spec.generator("t")
    assert act(mod, t, (1,)) == (2,)
    assert act(mod, inverse(t), act(mod, t, (1,))) == (1,)


MODULE_VIOLATIONS = [
    ("relations", zz2_spec(), QuotientPresentation(2, [(2, 0)]), {"s": SWAP},
     "action of 's' does not preserve the relation lattice"),
    ("invertibility", zz2_spec(), QuotientPresentation(1), {"s": [[2]]},
     "action of 's' is not invertible on the quotient"),
    ("torsion", zz2_spec(), QuotientPresentation(2), {"s": [[0, -1], [1, -1]]},
     "action of 's' violates the torsion constraint (order 2)"),
    ("torsion beside an identity", zmod_spec(2, 2), QuotientPresentation(2),
     {"s2": [[0, -1], [1, -1]]}, "action of 's2' violates the torsion constraint (order 2)"),
    ("commuting", zmod_spec(2, 2), QuotientPresentation(2), {"s1": [[-1, 0], [0, 1]], "s2": SWAP},
     "actions of 's1' and 's2' do not commute on the quotient"),
]


@pytest.mark.parametrize("spec, presentation, action, message",
                         [case[1:] for case in MODULE_VIOLATIONS],
                         ids=[case[0] for case in MODULE_VIOLATIONS])
def test_module_constructor_raises_each_violation(spec, presentation, action, message):
    with pytest.raises(ValueError) as err:
        GModule(spec, presentation, action=action)
    assert str(err.value) == message


@pytest.mark.parametrize("fixture, solves", [
    ("paper_f2.json", 0), ("paper_z2.json", 1), ("paper_z6.json", 1),
])
def test_identity_generators_take_no_solve(monkeypatch, fixture, solves):
    # Only s on pi2 acts by a matrix other than the identity.
    calls = []
    solve = gmodules.solve
    monkeypatch.setattr(gmodules, "solve", lambda *a: calls.append(1) or solve(*a))
    scenario = load_scenario(SCENARIOS / fixture)
    assert len(calls) == solves
    for module in scenario.modules.values():
        for gen, m in module.action.items():
            if m == IntMatrix.identity(module.rank):
                assert module._inverse[gen] is m


def test_identity_generators_take_no_reduce(monkeypatch):
    # A generator whose matrix is exactly the identity acts trivially with
    # no reduce, and two whose products are exactly equal commute with
    # none (Z/2 x Z/4 has two generators in one abelian factor); one
    # congruent to the identity on the quotient still takes them.
    ident = [[1, 0, 0], [0, 1, 0], [0, 0, 1]]
    cases = [(spec, QuotientPresentation(3, [(2, 0, 0), (0, 6, 3)]))
             for spec in (tu_spec(), zz6_spec(), zmod_spec(4), zmod_spec(2, 4))]
    mod2 = QuotientPresentation(1, [(2,)])
    calls = []
    reduce = QuotientPresentation.reduce
    monkeypatch.setattr(QuotientPresentation, "reduce",
                        lambda self, x: calls.append(1) or reduce(self, x))
    for spec, presentation in cases:
        action = {gen: ident for gen in spec.generator_names()}
        assert GModule(spec, presentation, action=action).trivial_action
    assert calls == []
    assert GModule(zz2_spec(), mod2, action={"s": [[-1]]}).trivial_action
    assert calls


def test_apply_map_examples():
    spec = zz2_spec()
    pi2 = GModule(spec, QuotientPresentation(2), elements={"alpha": (1, 0)})
    z = trivial_module(spec, 1, name="Z")
    r = ModuleMap(pi2, z, [[1, 0]], equivariant=True)
    assert r.matrix.apply(pi2.elements["alpha"]) == (1,)
    zero = ModuleMap(pi2, z, [[0, 0]])
    assert zero.matrix.apply(pi2.elements["alpha"]) == (0,)
    ident = ModuleMap(pi2, pi2, [[1, 0], [0, 1]])
    assert ident.matrix.apply(pi2.elements["alpha"]) == pi2.elements["alpha"]


def test_apply_map_additive():
    rng = random.Random(9)
    spec = zz2_spec()
    src = trivial_module(spec, 2)
    dst = trivial_module(spec, 1)
    phi = ModuleMap(src, dst, [[2, -1]])
    for _ in range(100):
        a = [rng.randint(-5, 5) for _ in range(2)]
        b = [rng.randint(-5, 5) for _ in range(2)]
        (fa,), (fb,) = phi.matrix.apply(a), phi.matrix.apply(b)
        assert phi.matrix.apply([x + y for x, y in zip(a, b)]) == (fa + fb,)


def test_check_equivariant():
    spec = zz2_spec()
    src = swap_module(spec)
    dst = trivial_module(spec, 1)
    total = ModuleMap(src, dst, [[1, 1]])
    assert total.is_equivariant
    projection = ModuleMap(src, dst, [[1, 0]])
    assert not projection.is_equivariant
    trivial_pair = ModuleMap(trivial_module(spec, 1), dst, [[3]])
    assert trivial_pair.is_equivariant


def test_equivariant_commutes_with_act():
    rng = random.Random(15)
    spec = zz2_spec()
    src = swap_module(spec)
    dst = trivial_module(spec, 1)
    phi = ModuleMap(src, dst, [[1, 1]], equivariant=True)
    for _ in range(100):
        g = rand_element(rng, spec)
        a = tuple(rng.randint(-4, 4) for _ in range(2))
        assert phi.matrix.apply(act(src, g, a)) == act(dst, g, phi.matrix.apply(a))


def test_map_well_definedness():
    spec = zz2_spec()
    z2 = GModule(spec, QuotientPresentation(1, [(2,)]))
    z = trivial_module(spec, 1)
    with pytest.raises(ValueError) as err:
        ModuleMap(z2, z, [[1]])
    assert str(err.value) == "map does not send relations into relations"
    good = ModuleMap(z, z2, [[1]])
    assert z2.presentation.reduce(good.matrix.apply((3,))) == (1,)
    # A map flagged equivariant is checked too; unflagged, it only reports.
    with pytest.raises(ValueError) as err:
        ModuleMap(swap_module(spec), z, [[1, 0]], equivariant=True)
    assert str(err.value) == "map is flagged equivariant but does not commute with the action"
    assert not ModuleMap(swap_module(spec), z, [[1, 0]]).is_equivariant


def test_context_and_dimension_errors():
    spec = zz2_spec()
    mod = trivial_module(spec, 2)
    with pytest.raises(DimensionError, match="coordinate length does not match module rank"):
        GModule(spec, QuotientPresentation(2), elements={"a": (1, 0, 0)})
    with pytest.raises(ContextError):
        mod.act_vec(zz6_spec().generator("s"), (1, 0))


def test_module_element_equality_in_quotient():
    spec = zz2_spec()
    mod = GModule(spec, QuotientPresentation(2, [(2, 0)]),
                  elements={"a": (3, 1), "b": (1, 1), "c": (0, 1), "d": (2, 0)})
    assert mod.elements["a"] == mod.elements["b"]
    assert mod.elements["a"] != mod.elements["c"]
    assert mod.elements["d"] == (0, 0)


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(st.sampled_from(NON_SMITH_LATTICES), st.data())
def test_module_element_holds_its_canonical_representative(lattice, data):
    rank, relations = lattice
    coords = data.draw(st.lists(st.integers(-20, 20), min_size=rank, max_size=rank))
    mod = GModule(zz2_spec(), QuotientPresentation(rank, relations), elements={"e": coords})
    e = mod.elements["e"]
    reduce = mod.presentation.reduce
    assert reduce(e) == e
    shift = data.draw(st.lists(st.integers(-3, 3), min_size=len(relations),
                               max_size=len(relations)))
    moved = [x + sum(c * r[i] for c, r in zip(shift, relations))
             for i, x in enumerate(coords)]
    assert reduce(moved) == e
    assert not any(reduce([x - y for x, y in zip(moved, e)]))


@st.composite
def _preserving_pairs(draw):
    """A relation lattice L = P*D*Z^k of rank k <= 3 (P unimodular, D
    diagonal) and a matrix m = P*N*P^-1 with N*D*Z^k inside D*Z^k, so
    that m preserves L."""
    k = draw(st.integers(1, 3))
    d = draw(st.lists(st.sampled_from([0, 1, 2, 3, 4, 6]), min_size=k, max_size=k))
    p = [[int(i == j) for j in range(k)] for i in range(k)]
    p_inv = [row[:] for row in p]
    for _ in range(draw(st.integers(0, 6)) if k > 1 else 0):
        i = draw(st.integers(0, k - 1))
        j = draw(st.integers(0, k - 1).filter(lambda x: x != i))
        c = draw(st.integers(-2, 2))
        # P <- (I + c*e_ij) P and P^-1 <- P^-1 (I - c*e_ij)
        p[i] = [a + c * b for a, b in zip(p[i], p[j])]
        for row in p_inv:
            row[j] -= c * row[i]
    n = [[0] * k for _ in range(k)]
    for i in range(k):
        for j in range(k):
            x = draw(st.integers(-3, 3))
            if d[j] and not d[i]:
                x = 0
            elif d[j]:
                x *= d[i] // math.gcd(d[i], d[j])
            n[i][j] = x
    relations = [tuple(p[i][j] * d[j] for i in range(k)) for j in range(k) if d[j]]
    if len(relations) > 1:
        relations.append(tuple(a + b for a, b in zip(relations[0], relations[1])))
    m = IntMatrix(p) @ IntMatrix(n) @ IntMatrix(p_inv)
    return k, relations, m


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(_preserving_pairs())
def test_inverse_on_quotient_is_two_sided(args):
    # m preserves the lattice, so an inverse with m @ inv = I on the quotient
    # is an inverse on both sides: action_violation checks only invertibility
    k, relations, m = args
    spec = tu_spec()
    lattice = trivial_module(spec, k, relations)
    assert all(lattice.presentation.is_zero(m.apply(r)) for r in relations)
    inv = lattice._invert_on_quotient(m)
    if inv is None:
        with pytest.raises(ValueError, match="not invertible on the quotient"):
            GModule(spec, QuotientPresentation(k, relations), action={"t": m})
        return
    mod = GModule(spec, QuotientPresentation(k, relations), action={"t": m})
    ident = IntMatrix.identity(k)
    assert mod._congruent(m @ inv, ident)
    assert mod._congruent(inv @ m, ident)
    assert mod._congruent(mod._inverse["t"] @ m, ident)

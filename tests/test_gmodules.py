"""G-module actions, validation and coefficient maps."""

import math
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from obkit.errors import ContextError, DimensionError
from obkit.gmodules import (
    GModule,
    ModuleElement,
    ModuleMap,
    check_equivariant,
)
from obkit.groups import inverse, multiply
from obkit.intlinalg import IntMatrix, QuotientPresentation
from support import (
    NON_SMITH_LATTICES,
    rand_element,
    trivial_module,
    tu_spec,
    zz2_spec,
    zz6_spec,
)

SWAP = [[0, 1], [1, 0]]


def swap_module(spec):
    return GModule(spec, QuotientPresentation(2), action={"s": SWAP}, name="swap")


def test_trivial_action_act():
    spec = zz2_spec()
    mod = trivial_module(spec, 1)
    a = mod.element((5,))
    rng = random.Random(3)
    for _ in range(50):
        g = rand_element(rng, spec)
        assert mod.act(g, a) == a


def test_swap_action():
    spec = zz2_spec()
    mod = swap_module(spec)
    a = mod.element((1, 0))
    assert mod.act(spec.generator("s"), a) == mod.element((0, 1))
    assert mod.act(spec.generator("t"), a) == a


def test_action_composition_randomized():
    rng = random.Random(5)
    spec = zz6_spec()
    rotation = [[0, -1], [1, 1]]
    mod = GModule(spec, QuotientPresentation(2), action={"s": rotation})
    assert mod.validate() is None
    for _ in range(500):
        g = rand_element(rng, spec)
        h = rand_element(rng, spec)
        a = mod.element([rng.randint(-4, 4) for _ in range(2)])
        assert mod.act(multiply(g, h), a) == mod.act(g, mod.act(h, a))
        assert mod.act(inverse(g), mod.act(g, a)) == a
    assert mod.act(spec.identity(), mod.element((1, 2))) == mod.element((1, 2))


def test_validate_examples():
    spec = zz2_spec()
    assert trivial_module(spec, 1).validate() is None
    doubling = GModule(spec, QuotientPresentation(1), action={"s": [[2]]})
    report = doubling.validate()
    assert report is not None and "invertible" in report
    negation = GModule(spec, QuotientPresentation(1), action={"s": [[-1]]})
    assert negation.validate() is None


def test_validate_torsion_constraint():
    spec = zz2_spec()
    # order 3 matrix on a generator of order 2 violates the torsion rule
    bad = GModule(spec, QuotientPresentation(2), action={"s": [[0, -1], [1, -1]]})
    report = bad.validate()
    assert report is not None and "torsion" in report


def test_validate_inverts_mod_torsion():
    # multiplication by 2 is invertible on Z/5 even though det != +-1
    spec = zz2_spec()
    mod = GModule(spec, QuotientPresentation(1, [(5,)]), action={"t": [[2]]})
    assert mod.validate() is None
    a = mod.element((1,))
    t = spec.generator("t")
    assert mod.act(t, a) == mod.element((2,))
    assert mod.act(inverse(t), mod.act(t, a)) == a


def test_apply_map_examples():
    spec = zz2_spec()
    pi2 = GModule(spec, QuotientPresentation(2), elements={"alpha": (1, 0)})
    z = trivial_module(spec, 1, name="Z")
    r = ModuleMap(pi2, z, [[1, 0]], equivariant=True)
    assert r.validate() is None
    assert r(pi2.elements["alpha"]) == z.element((1,))
    zero = ModuleMap(pi2, z, [[0, 0]])
    assert zero(pi2.elements["alpha"]).is_zero
    ident = ModuleMap(pi2, pi2, [[1, 0], [0, 1]])
    assert ident(pi2.elements["alpha"]) == pi2.elements["alpha"]


def test_apply_map_additive():
    rng = random.Random(9)
    spec = zz2_spec()
    src = trivial_module(spec, 2)
    dst = trivial_module(spec, 1)
    phi = ModuleMap(src, dst, [[2, -1]])
    for _ in range(100):
        a = src.element([rng.randint(-5, 5) for _ in range(2)])
        b = src.element([rng.randint(-5, 5) for _ in range(2)])
        assert phi(a + b) == phi(a) + phi(b)


def test_check_equivariant():
    spec = zz2_spec()
    src = swap_module(spec)
    dst = trivial_module(spec, 1)
    total = ModuleMap(src, dst, [[1, 1]])
    assert check_equivariant(total)
    projection = ModuleMap(src, dst, [[1, 0]])
    assert not check_equivariant(projection)
    trivial_pair = ModuleMap(trivial_module(spec, 1), dst, [[3]])
    assert check_equivariant(trivial_pair)


def test_equivariant_commutes_with_act():
    rng = random.Random(15)
    spec = zz2_spec()
    src = swap_module(spec)
    dst = trivial_module(spec, 1)
    phi = ModuleMap(src, dst, [[1, 1]], equivariant=True)
    assert phi.validate() is None
    for _ in range(100):
        g = rand_element(rng, spec)
        a = src.element([rng.randint(-4, 4) for _ in range(2)])
        assert phi(src.act(g, a)) == dst.act(g, phi(a))


def test_map_well_definedness():
    spec = zz2_spec()
    z2 = GModule(spec, QuotientPresentation(1, [(2,)]))
    z = trivial_module(spec, 1)
    bad = ModuleMap(z2, z, [[1]])
    assert bad.validate() is not None
    good = ModuleMap(z, z2, [[1]])
    assert good.validate() is None


def test_context_and_dimension_errors():
    spec = zz2_spec()
    mod = trivial_module(spec, 2)
    other = trivial_module(spec, 2)
    with pytest.raises(ContextError):
        mod.element((1, 0)) + other.element((0, 1))
    with pytest.raises(DimensionError):
        mod.element((1, 0, 0))
    with pytest.raises(ContextError):
        mod.act(zz6_spec().generator("s"), mod.element((1, 0)))


def test_module_element_equality_in_quotient():
    spec = zz2_spec()
    mod = GModule(spec, QuotientPresentation(2, [(2, 0)]))
    assert mod.element((3, 1)) == mod.element((1, 1))
    assert mod.element((3, 1)) != mod.element((0, 1))
    assert mod.element((2, 0)).is_zero


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(st.sampled_from(NON_SMITH_LATTICES), st.data())
def test_module_element_holds_its_canonical_representative(lattice, data):
    rank, relations = lattice
    mod = trivial_module(zz2_spec(), rank, relations)
    coords = st.lists(st.integers(-20, 20), min_size=rank, max_size=rank)
    e = ModuleElement(mod, data.draw(coords))
    assert e.coords == mod.presentation.reduce(e.coords)
    assert ModuleElement(mod, e.coords) == e
    assert hash(ModuleElement(mod, e.coords)) == hash(e)
    assert 1 * e == e and e + mod.zero() == e
    shift = data.draw(st.lists(st.integers(-3, 3), min_size=len(relations),
                               max_size=len(relations)))
    moved = [x + sum(c * r[i] for c, r in zip(shift, relations))
             for i, x in enumerate(e.coords)]
    assert ModuleElement(mod, moved).coords == e.coords
    assert (e - e).is_zero


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
    mod = GModule(spec, QuotientPresentation(k, relations), action={"t": m})
    assert all(mod.presentation.is_zero(m.apply(r)) for r in relations)
    inv = mod._invert_on_quotient(m)
    assert (mod.validate() is None) == (inv is not None)
    if inv is not None:
        ident = IntMatrix.identity(k)
        assert mod._congruent(m @ inv, ident)
        assert mod._congruent(inv @ m, ident)
        assert mod._congruent(mod._inverse["t"] @ m, ident)

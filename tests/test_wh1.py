"""Canonical forms, induced maps and the finite-group oracle for the
obstruction group."""

import random

import pytest

from obkit.errors import RejectedError
from obkit.gmodules import GModule, ModuleMap
from obkit.groups import enumerate_elements, inverse, multiply
from obkit.intlinalg import QuotientPresentation
from obkit.wh1 import (
    WhElement,
    detect_nontrivial,
    induced_map,
    oracle_wh_presentation,
    wh_equal,
    wh_normal_form,
)
from support import (
    f2_spec,
    rand_element,
    trivial_module,
    zmod_spec,
    zz2_spec,
    zz3_spec,
)


def test_identity_bracket_killed():
    spec = zz2_spec()
    mod = trivial_module(spec, 1)
    assert WhElement.build(mod, [((1,), spec.identity())]).is_zero


def test_trivial_action_merges_conjugates():
    spec = f2_spec()
    mod = trivial_module(spec, 1)
    x, y = spec.generator("x"), spec.generator("y")
    conj = multiply(multiply(x, y), inverse(x))
    merged = WhElement.build(mod, [((2,), y), ((3,), conj)])
    assert merged == WhElement.build(mod, [((5,), y)])


def test_order_two_degenerate_sum():
    # [sigma] + [sigma^-1] = 2[sigma] when sigma has order 2
    spec = zz2_spec()
    mod = trivial_module(spec, 1)
    s = spec.generator("s")
    total = WhElement.build(mod, [((1,), s), ((1,), inverse(s))])
    assert total == WhElement.build(mod, [((2,), s)])
    assert str(total) == "2[s]"


def test_normal_form_idempotent_and_congruence():
    rng = random.Random(43)
    spec = zz3_spec()
    mod = trivial_module(spec, 2)
    for _ in range(100):
        x = _random_raw(rng, mod)
        y = _random_raw(rng, mod)
        assert wh_normal_form(x) == x
        assert x + y == wh_normal_form(x) + wh_normal_form(y)


def _random_raw(rng, mod, n_terms=4):
    terms = []
    for _ in range(rng.randint(0, n_terms)):
        coords = [rng.randint(-3, 3) for _ in range(mod.rank)]
        terms.append((coords, rand_element(rng, mod.spec, 3)))
    return WhElement.build(mod, terms)


def test_add_neg_group_laws():
    rng = random.Random(47)
    spec = zz2_spec()
    mod = trivial_module(spec, 1)
    for _ in range(100):
        x = _random_raw(rng, mod)
        y = _random_raw(rng, mod)
        assert (x + (-x)).is_zero
        assert x + y == y + x
    s = spec.generator("s")
    alpha = (3,)
    doubled = WhElement.build(mod, [(alpha, s)]) + WhElement.build(mod, [(alpha, s)])
    assert doubled == WhElement.build(mod, [((6,), s)])


def test_nonconjugate_terms_stay_separate():
    spec = f2_spec()
    mod = trivial_module(spec, 1)
    x, y = spec.generator("x"), spec.generator("y")
    total = WhElement.build(mod, [((1,), x), ((1,), y)])
    assert len(total.terms) == 2


def test_induced_map_examples():
    spec = zz2_spec()
    pi2 = GModule(spec, QuotientPresentation(2), elements={"alpha": (1, 0)}, name="pi2")
    z = trivial_module(spec, 1, name="Z")
    r = ModuleMap(pi2, z, [[1, 0]], equivariant=True)
    s = spec.generator("s")
    alpha_sigma = WhElement.build(pi2, [((1, 0), s)])
    assert induced_map(r, alpha_sigma) == WhElement.build(z, [((1,), s)])
    zero_map = ModuleMap(pi2, z, [[0, 0]])
    assert induced_map(zero_map, alpha_sigma).is_zero
    both = WhElement.build(pi2, [((1, 0), s), ((1, 0), inverse(s))])
    assert induced_map(r, both) == WhElement.build(z, [((2,), s)])


def test_induced_map_requires_equivariance():
    spec = zz2_spec()
    swap = GModule(spec, QuotientPresentation(2), action={"s": [[0, 1], [1, 0]]})
    z = trivial_module(spec, 1)
    projection = ModuleMap(swap, z, [[1, 0]])
    x = WhElement.build(swap, [((1, 0), spec.generator("s"))])
    with pytest.raises(RejectedError):
        induced_map(projection, x)
    total = ModuleMap(swap, z, [[1, 1]])
    assert induced_map(total, x) == WhElement.build(z, [((1,), spec.generator("s"))])


def test_induced_map_naturality():
    rng = random.Random(53)
    spec = zz2_spec()
    a = trivial_module(spec, 2, name="A")
    b = trivial_module(spec, 2, name="B")
    c = trivial_module(spec, 1, name="C")
    phi = ModuleMap(a, b, [[1, 2], [0, 1]])
    psi = ModuleMap(b, c, [[3, -1]])
    composite = ModuleMap(a, c, [[3, 5]])
    # psi(phi(v)) = (3, -1) @ [[1,2],[0,1]] = (3, 5)
    for _ in range(100):
        x = _random_raw(rng, a)
        assert induced_map(composite, x) == induced_map(psi, induced_map(phi, x))


def test_detect_nontrivial():
    spec = zz2_spec()
    pi2 = GModule(spec, QuotientPresentation(2), elements={"alpha": (1, 0)})
    z = trivial_module(spec, 1)
    r = ModuleMap(pi2, z, [[1, 0]], equivariant=True)
    s = spec.generator("s")
    assert detect_nontrivial(WhElement.build(pi2, [((1, 0), s)]), r)
    assert not detect_nontrivial(WhElement.build(pi2, [((1, 0), spec.identity())]), r)
    x = WhElement.build(pi2, [((1, 0), s)])
    assert not detect_nontrivial(x - x, r)
    swap_target = GModule(spec, QuotientPresentation(2), action={"s": [[0, 1], [1, 0]]})
    with pytest.raises(RejectedError):
        detect_nontrivial(x, ModuleMap(pi2, swap_target, [[1, 0], [0, 1]]))


def test_oracle_known_ranks():
    z2 = zmod_spec(2)
    oracle = oracle_wh_presentation(z2, trivial_module(z2, 1))
    assert oracle.presentation.group_invariants() == (0,)
    z3 = zmod_spec(3)
    oracle3 = oracle_wh_presentation(z3, trivial_module(z3, 1))
    assert oracle3.presentation.group_invariants() == (0, 0)


def test_oracle_swap_action():
    # G = Z/2 acting on Z^2 by the swap: the fast path defers to the oracle
    spec = zmod_spec(2)
    swap = GModule(spec, QuotientPresentation(2), action={"s": [[0, 1], [1, 0]]})
    oracle = oracle_wh_presentation(spec, swap)
    s = spec.generator("s")
    # (a,b)[s] ~ (b,a)[s] under the action of s
    x = WhElement.build(swap, [((1, 0), s)])
    y = WhElement.build(swap, [((0, 1), s)])
    assert x.terms != y.terms
    assert oracle.coords(x) == oracle.coords(y)
    assert wh_equal(x, y) is True


def test_oracle_agreement_randomized():
    rng = random.Random(59)
    for orders in [(2,), (3,), (4,), (2, 2)]:
        spec = zmod_spec(*orders)
        for mod in (trivial_module(spec, 1),
                    GModule(spec, QuotientPresentation(1, [(2,)]))):
            oracle = oracle_wh_presentation(spec, mod)
            for _ in range(200):
                x = _random_raw(rng, mod)
                y = _random_raw(rng, mod)
                assert (x == y) == (oracle.coords(x) == oracle.coords(y))


def test_oracle_respects_manual_relation_moves():
    # applying the defining relation to raw terms must not change coordinates
    rng = random.Random(61)
    spec = zmod_spec(4)
    mod = trivial_module(spec, 1)
    oracle = oracle_wh_presentation(spec, mod)
    elements = enumerate_elements(spec)
    for _ in range(100):
        raw = [((rng.randint(-3, 3),), rng.choice(elements)) for _ in range(3)]
        x = WhElement.build(mod, raw)
        g = rng.choice(elements)
        moved = [
            (coords, multiply(multiply(g, h), inverse(g))) for coords, h in raw
        ]
        moved.append(((rng.randint(-3, 3),), spec.identity()))
        y = WhElement.build(mod, moved)
        assert x == y
        assert oracle.coords(x) == oracle.coords(y)


def test_wh_equal_regimes():
    # trivial action over an infinite group: complete via canonical forms
    spec = zz2_spec()
    mod = trivial_module(spec, 1)
    s = spec.generator("s")
    t = spec.generator("t")
    a = WhElement.build(mod, [((1,), s)])
    b = WhElement.build(mod, [((1,), t)])
    assert wh_equal(a, b) is False
    assert wh_equal(a, WhElement.build(mod, [((1,), inverse(s))])) is True
    # nontrivial action over an infinite group: sound reductions only
    swap = GModule(spec, QuotientPresentation(2), action={"s": [[0, 1], [1, 0]]})
    x = WhElement.build(swap, [((1, 0), t)])
    y = WhElement.build(swap, [((0, 1), t)])
    assert wh_equal(x, x) is True
    assert wh_equal(x, y) is None


def test_canonical_form_structure_trivial_action():
    # trivial action: canonical forms are exactly finite sums over distinct
    # nontrivial conjugacy representatives, sorted, with nonzero coefficients
    rng = random.Random(63)
    from obkit.groups import conjugacy_canonical, element_sort_key

    for spec in (f2_spec(), zz2_spec()):
        mod = trivial_module(spec, 1)
        for _ in range(200):
            x = _random_raw(rng, mod)
            keys = [element_sort_key(g) for _, g in x.terms]
            assert keys == sorted(keys)
            assert len(set(x.terms)) == len(x.terms)
            for coords, g in x.terms:
                assert not g.is_identity
                assert conjugacy_canonical(g) == g
                assert any(coords)


def test_rendering():
    spec = zz2_spec()
    mod1 = trivial_module(spec, 1)
    mod2 = trivial_module(spec, 2)
    s, t = spec.generator("s"), spec.generator("t")
    assert str(WhElement.zero(mod1)) == "0"
    x = WhElement.build(mod1, [((-1,), t), ((-1,), inverse(t))])
    assert str(x) == "-[t] - [t^-1]"
    # the bracket s*t canonicalizes to its syllable rotation t*s
    y = WhElement.build(mod2, [((1, 0), multiply(s, t)), ((0, 2), t)])
    assert str(y) == "(0,2)[t] + (1,0)[t*s]"

"""Canonical forms, induced maps and the finite-group oracle for the
obstruction group."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from sympy import Matrix

from obkit import groups, intlinalg, wh1
from obkit.cli import MAX_ORACLE_AMBIENT
from obkit.errors import RejectedError, UnsupportedError
from obkit.gmodules import GModule, ModuleMap
from obkit.groups import FactorSpec, GroupSpec, enumerate_elements, inverse, multiply
from obkit.intlinalg import IntMatrix, QuotientPresentation
from obkit.wh1 import (
    WhElement,
    detect_nontrivial,
    induced_map,
    oracle_wh_presentation,
    wh_equal,
)
from obkit.words import parse_wh
from support import (
    NON_SMITH_LATTICES,
    f2_spec,
    rand_element,
    rand_unimodular,
    reference_oracle_coords,
    reference_oracle_rows,
    trivial_module,
    wh_normal_form,
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
        assert (x + x.scale(-1)).is_zero
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
    assert not detect_nontrivial(x + x.scale(-1), r)
    swap_target = GModule(spec, QuotientPresentation(2), action={"s": [[0, 1], [1, 0]]})
    with pytest.raises(RejectedError):
        detect_nontrivial(x, ModuleMap(pi2, swap_target, [[1, 0], [0, 1]]))


def test_oracle_known_ranks():
    z2 = zmod_spec(2)
    oracle = oracle_wh_presentation(z2, trivial_module(z2, 1))
    assert oracle.group_invariants() == (0,)
    z3 = zmod_spec(3)
    oracle3 = oracle_wh_presentation(z3, trivial_module(z3, 1))
    assert oracle3.group_invariants() == (0, 0)


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


def test_oracle_presents_the_action_on_columns():
    # Z/2 acting on Z^2 by the shear involution s = [[1, 1], [0, -1]],
    # which is neither symmetric nor orthogonal: (s-1)e_2 = (1,-2), so
    # (1,0)[s] = (0,2)[s]; the rows of s-1 would give (1,0)[s] = (1,1)[s].
    spec = zmod_spec(2)
    module = GModule(spec, QuotientPresentation(2), action={"s": [[1, 1], [0, -1]]})
    elements = enumerate_elements(spec)
    ref = QuotientPresentation(4, reference_oracle_rows(spec, module))
    oracle = oracle_wh_presentation(spec, module)
    s = spec.generator("s")
    x, y, z = (WhElement.build(module, [(a, s)]) for a in ((1, 0), (0, 2), (1, 1)))
    for other, equal in ((y, True), (z, False)):
        assert wh_equal(x, other) is equal
        assert (reference_oracle_coords(ref, elements, x)
                == reference_oracle_coords(ref, elements, other)) is equal


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


# -- the generator-presented oracle against the all-elements relations ----

def _identity(k):
    return [[int(i == j) for j in range(k)] for i in range(k)]


def _swap(k):
    m = _identity(k)
    m[0], m[1] = m[1], m[0]
    return m


def _rot4(k):
    m = _identity(k)
    m[0][0], m[0][1], m[1][0], m[1][1] = 0, -1, 1, 0
    return m


def _sign(k):
    return [[-int(i == j) for j in range(k)] for i in range(k)]


def _cycle3(k):
    m = _identity(k)
    m[0], m[1], m[2] = m[1], m[2], m[0]
    return m


# Actions of the first generator; "min_rank" is the smallest rank they need.
ORACLE_ACTIONS = {"trivial": (_identity, 1), "swap": (_swap, 2), "rot4": (_rot4, 2),
                  "sign": (_sign, 1)}
ORACLE_RELATIONS = {
    "free": lambda k: [],
    "2e1": lambda k: [[2] + [0] * (k - 1)],
    "2all": lambda k: [[2 * int(i == j) for j in range(k)] for i in range(k)],
}


def _oracle_cases():
    """(id, orders, rank, relations, action) for every valid combination
    of group, rank, action of the first generator and relation lattice,
    plus actions of two generators and scalar actions on Z/n whose laws
    hold only modulo n (Z/2 on Z/4 by 3, Z/4 on Z/4 by 5, ...)."""
    cases = []
    groups = [(m,) for m in range(2, 7)] + [(2, 2), (2, 3)]
    for orders in groups:
        spec = zmod_spec(*orders)
        names = spec.generator_names()
        for rank in (1, 2, 3):
            for aname, (matrix, min_rank) in ORACLE_ACTIONS.items():
                if rank < min_rank:
                    continue
                for rname, rel in ORACLE_RELATIONS.items():
                    if rank == 1 and rname == "2all":  # the same lattice as 2e1
                        continue
                    cases.append((f"{'x'.join(f'Z{m}' for m in orders)}-k{rank}-{aname}-{rname}",
                                  orders, rank, rel(rank), {names[0]: matrix(rank)}))
    for rank in (2, 3):
        cases.append((f"Z2xZ2-k{rank}-sign,swap", (2, 2), rank, [],
                      {"s1": _sign(rank), "s2": _swap(rank)}))
    cases.append(("Z2xZ3-k3-sign,cycle3", (2, 3), 3, [],
                  {"s1": _sign(3), "s2": _cycle3(3)}))
    cases.append(("Z3-k3-cycle3", (3,), 3, [], {"s": _cycle3(3)}))
    cases += [
        ("Z2-Z/4-by3", (2,), 1, [[4]], {"s": [[3]]}),
        ("Z3-Z/7-by2", (3,), 1, [[7]], {"s": [[2]]}),
        ("Z6-Z/7-by3", (6,), 1, [[7]], {"s": [[3]]}),
        ("Z4-Z/4-by5", (4,), 1, [[4]], {"s": [[5]]}),
        ("Z2-Z/4+Z-by3", (2,), 2, [[4, 0]], {"s": [[3, 0], [0, 1]]}),
    ]
    valid = []
    for case in cases:
        _, orders, rank, relations, action = case
        try:
            GModule(zmod_spec(*orders), QuotientPresentation(rank, relations), action=action)
        except ValueError:
            continue
        valid.append(case)
    return valid


ORACLE_CASES = _oracle_cases()


@st.composite
def wh_pairs(draw, module, elements):
    """Two raw Wh elements: unrelated, or the second obtained from the
    first by coinvariance moves a[h] -> (g.a)[g h g^-1] plus an identity
    term, so that both verdicts occur."""
    spec = module.spec
    coeff = st.lists(st.integers(-3, 3), min_size=module.rank, max_size=module.rank)
    terms = st.lists(st.tuples(coeff, st.sampled_from(elements)), max_size=4)
    x = draw(terms)
    if draw(st.booleans()):
        y = draw(terms)
    else:
        y = []
        for a, h in x:
            g = draw(st.sampled_from(elements))
            y.append((module.act_vec(g, a), multiply(multiply(g, h), inverse(g))))
        y.append((draw(coeff), spec.identity()))
        if draw(st.booleans()):
            y.append((draw(coeff), draw(st.sampled_from(elements))))
    return WhElement.build(module, x), WhElement.build(module, y)


@pytest.mark.parametrize("case", ORACLE_CASES, ids=[c[0] for c in ORACLE_CASES])
def test_oracle_generators_span_reference_lattice(case):
    _, orders, rank, relations, action = case
    spec = zmod_spec(*orders)
    module = GModule(spec, QuotientPresentation(rank, relations), action=action)
    oracle = oracle_wh_presentation(spec, module)
    elements = enumerate_elements(spec)
    ref = QuotientPresentation(rank * len(elements), reference_oracle_rows(spec, module))
    assert (oracle.ambient, oracle.free_rank) == (ref.rank, ref.free_rank)
    assert oracle.group_invariants() == ref.group_invariants()
    # Both lattices, read in the dense ambient: every A_G relation in
    # every nonidentity slot is a dense relation, and every dense
    # relation, read as raw terms, has zero slot coordinates.
    for slot in range(1, len(elements)):
        for row in oracle.presentation.relations.entries:
            assert ref.is_zero((0,) * (slot * rank) + row
                               + (0,) * ((len(elements) - slot - 1) * rank))
    for row in ref.relations.entries:
        raw = [(row[i * rank:(i + 1) * rank], g) for i, g in enumerate(elements)]
        assert oracle.coords(WhElement(module, tuple(raw))) == {}

    @settings(max_examples=20, deadline=None, derandomize=True, database=None)
    @given(wh_pairs(module, elements))
    def check(pair):
        x, y = pair
        assert ((oracle.coords(x) == oracle.coords(y))
                == (reference_oracle_coords(ref, elements, x)
                    == reference_oracle_coords(ref, elements, y)))

    check()


def test_oracle_cost_per_generator(monkeypatch):
    # Z/16 x Z/4 acting on Z^3 / <(0,0,2)> by a quarter turn and a sign:
    # no group product, and at most r + k*|S| relation rows on k columns.
    calls = []
    real = groups.multiply
    for layer in (groups, wh1):
        monkeypatch.setattr(layer, "multiply", lambda g, h: calls.append(1) or real(g, h),
                            raising=False)
    spec = zmod_spec(16, 4)
    module = GModule(spec, QuotientPresentation(3, [(0, 0, 2)]),
                     action={"s1": _rot4(3), "s2": _sign(3)})
    oracle = oracle_wh_presentation(spec, module)
    gens, k, r = 2, 3, 1
    assert calls == []
    assert oracle.presentation.relations.rows <= r + k * gens
    assert oracle.presentation.rank == k


def _fail_enumerate(spec):
    raise AssertionError("enumerated the elements of an oversized group")


def test_oracle_presents_any_finite_group_without_enumerating(monkeypatch):
    # Z/4096 acting on Z by a sign: A_G = Z/2 in each of 4095 slots.
    monkeypatch.setattr(groups, "enumerate_elements", _fail_enumerate)
    spec = zmod_spec(4096)
    module = GModule(spec, QuotientPresentation(1), action={"s": [[-1]]})
    oracle = oracle_wh_presentation(spec, module)
    assert oracle.ambient == 4096
    assert oracle.presentation.group_invariants() == (2,)
    s = spec.generator("s")
    x = WhElement.build(module, [((1,), s)])
    assert wh_equal(x, WhElement.build(module, [((-1,), s)])) is True
    assert wh_equal(x, WhElement.build(module, [((1,), s * s)])) is False
    with pytest.raises(UnsupportedError, match="finite group"):
        oracle_wh_presentation(zz2_spec(), trivial_module(zz2_spec(), 1))


def test_oracle_at_the_size_limit():
    spec = zmod_spec(MAX_ORACLE_AMBIENT)
    oracle = oracle_wh_presentation(spec, trivial_module(spec, 1))
    assert oracle.ambient == MAX_ORACLE_AMBIENT
    assert oracle.free_rank == MAX_ORACLE_AMBIENT - 1
    assert oracle.group_invariants() == (0,) * (MAX_ORACLE_AMBIENT - 1)


def test_oracle_at_the_limit_needs_a_rank_k_smith_form(monkeypatch):
    # Z/128 acting on Z^4 by two quarter turns: each turn r has
    # Z^2 / (r - 1)Z^2 = Z/2, so A_G = (Z/2)^2 and the quotient (Z/2)^254.
    # A dense presentation would put 512 columns through Smith normal form.
    real = intlinalg.smith_normal_form

    def at_most_four_columns(m):
        assert m.cols <= 4, f"Smith normal form on {m.cols} columns"
        return real(m)

    monkeypatch.setattr(intlinalg, "smith_normal_form", at_most_four_columns)
    spec = zmod_spec(128)
    turns = [[0, -1, 0, 0], [1, 0, 0, 0], [0, 0, 0, -1], [0, 0, 1, 0]]
    module = GModule(spec, QuotientPresentation(4), action={"s": turns})
    oracle = oracle_wh_presentation(spec, module)
    assert oracle.ambient == MAX_ORACLE_AMBIENT
    assert oracle.group_invariants() == (2,) * 254
    s = spec.generator("s")
    x = WhElement.build(module, [((1, 0, 0, 0), s)])
    assert wh_equal(x, WhElement.build(module, [((0, 1, 0, 0), s)])) is True
    assert wh_equal(x, WhElement.build(module, [((0, 0, 1, 0), s)])) is False


# -- coefficients on lattices whose Smith basis is not the module's -------

def test_normal_form_reproducer_on_a_non_smith_lattice():
    # Z^3 / <(4,2,4), (-1,0,0)>: the Smith form needs a column operation,
    # so Smith coordinates (0,1,-13) are not a vector of the module.
    spec = GroupSpec((FactorSpec.free("t"),))
    module = trivial_module(spec, 3, [(4, 2, 4), (-1, 0, 0)])
    x = parse_wh(module, "(1,5,-3)[t]")
    assert str(x) == "(0,1,-11)[t]"
    assert x == x.scale(1)
    assert wh_normal_form(x) == x


def _element_by_seed(spec):
    return st.integers(0, 10**6).map(lambda seed: rand_element(random.Random(seed), spec))


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(st.sampled_from(NON_SMITH_LATTICES), st.data())
def test_normal_form_canonical_on_non_smith_lattices(lattice, data):
    rank, relations = lattice
    spec = zz2_spec()
    module = trivial_module(spec, rank, relations)
    coeff = st.lists(st.integers(-9, 9), min_size=rank, max_size=rank)
    raw = data.draw(st.lists(st.tuples(coeff, _element_by_seed(spec)), max_size=5))
    x = WhElement.build(module, raw)
    assert wh_normal_form(x) == x
    assert x.scale(1) == x
    assert parse_wh(module, str(x)) == x
    # A map onto the quotient by the image lattice is well defined;
    # mapping the normal form equals normalizing the mapped pairs.
    matrix = IntMatrix(data.draw(st.lists(coeff, min_size=rank, max_size=rank)))
    target = trivial_module(spec, rank, [matrix.apply(r) for r in relations], name="B")
    phi = ModuleMap(module, target, matrix)
    assert induced_map(phi, x) == WhElement.build(
        target, [(matrix.apply(c), g) for c, g in raw])


def _inverse(p: IntMatrix) -> IntMatrix:
    return IntMatrix([[int(x) for x in row] for row in Matrix(p.entries).inv().tolist()])


# (id, group orders, rank, relations, action): nontrivial actions on
# lattices with V != I.
NON_SMITH_ACTIONS = [
    ("Z2-swap", (2,), 2, [(2, 2)], {"s": _swap(2)}),
    ("Z3-cycle3", (3,), 3, [(1, 1, 1)], {"s": _cycle3(3)}),
    ("Z4-rot4", (4,), 2, [(2, 2), (2, -2)], {"s": _rot4(2)}),
    ("Z2xZ2-sign,swap", (2, 2), 2, [(4, 2), (2, 4)], {"s1": _sign(2), "s2": _swap(2)}),
]


@pytest.mark.parametrize("case", NON_SMITH_ACTIONS, ids=[c[0] for c in NON_SMITH_ACTIONS])
def test_normal_form_sound_against_the_oracle_on_non_smith_lattices(case):
    _, orders, rank, relations, action = case
    spec = zmod_spec(*orders)
    elements = enumerate_elements(spec)
    assert QuotientPresentation(rank, relations).v != IntMatrix.identity(rank)
    coeff = st.lists(st.integers(-9, 9), min_size=rank, max_size=rank)

    @settings(max_examples=40, deadline=None, derandomize=True, database=None)
    @given(st.integers(0, 10**6), st.data())
    def check(seed, data):
        # Seed 0 keeps the listed basis; any other writes the module in
        # the basis v -> P v for a random unimodular P.
        p = rand_unimodular(random.Random(seed), rank) if seed else IntMatrix.identity(rank)
        p_inv = _inverse(p)
        module = GModule(spec, QuotientPresentation(rank, [p.apply(r) for r in relations]),
                         action={g: p @ IntMatrix(m) @ p_inv for g, m in action.items()})
        oracle = oracle_wh_presentation(spec, module)
        raw = data.draw(st.lists(st.tuples(coeff, st.sampled_from(elements)), max_size=5))
        x = WhElement.build(module, raw)
        assert oracle.coords(WhElement(module, tuple(raw))) == oracle.coords(x)
        assert wh_normal_form(x) == x
        assert x.scale(1) == x
        assert parse_wh(module, str(x)) == x
        # A generator's action commutes with the abelian group's action.
        phi = ModuleMap(module, module, module.action[spec.generator_names()[0]],
                        equivariant=True)
        assert induced_map(phi, x) == WhElement.build(
            module, [(phi.matrix.apply(c), g) for c, g in raw])

    check()


# (id, group order, action of s, relations): Z/m acting through a rotation
# or reflection, on the free lattice and on one it preserves.  An order-6
# rotation of Z^2 has no coinvariants, so rot6 fixes a third axis.
_ROT6 = [[0, -1, 0], [1, 1, 0], [0, 0, 1]]
INVOLUTION_MODULES = [
    ("swap", 2, _swap(2), []),
    ("swap-mod", 2, _swap(2), [(2, 2)]),
    ("rot4", 4, _rot4(2), []),
    ("rot4-mod", 4, _rot4(2), [(2, 2), (2, -2)]),
    ("rot6", 6, _ROT6, []),
    ("rot6-mod", 6, _ROT6, [(3, 0, 0), (0, 3, 0), (0, 0, 3)]),
]


@pytest.mark.parametrize("case", INVOLUTION_MODULES, ids=[c[0] for c in INVOLUTION_MODULES])
def test_involution_readings_agree(case):
    # a[g] -> (-a)[g^-1] (dualize) and a[g] -> (-g^-1.a)[g^-1] differ by
    # the coinvariance move through g^-1, which centralizes g^-1, so the
    # oracle cannot tell them apart.
    _, order, matrix, relations = case
    spec = zmod_spec(order)
    rank = len(matrix)
    module = GModule(spec, QuotientPresentation(rank, relations), action={"s": matrix})
    oracle = oracle_wh_presentation(spec, module)
    coeff = st.lists(st.integers(-4, 4), min_size=rank, max_size=rank)

    @settings(max_examples=40, deadline=None, derandomize=True, database=None)
    @given(st.lists(st.tuples(coeff, st.sampled_from(enumerate_elements(spec))), max_size=4))
    def check(raw):
        x = WhElement.build(module, raw)
        acted = WhElement.build(module, [
            ([-c for c in module.act_vec(inverse(g), a)], inverse(g)) for a, g in x.terms])
        assert oracle.coords(x.dualize()) == oracle.coords(acted)

    check()

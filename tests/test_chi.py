"""Cocycle verification, the quotient-order limit, and the chain-level
chi map against its index-by-index reference."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from obkit import chi, groupring
from obkit.chi import (
    Cocycle,
    FiniteQuotient,
    MAX_QUOTIENT_ORDER,
    chi_eval,
    retraction_kills_chi,
    verify_cocycle,
)
from obkit.errors import RejectedError
from obkit.gmodules import GModule, ModuleMap
from obkit.groupring import DiagonalGen, InvertiblePair, RingElement, build_invertible
from obkit.groups import FactorSpec, GroupSpec
from obkit.intlinalg import IntMatrix, QuotientPresentation
from obkit.wh1 import WhElement, induced_map
from support import (
    NON_SMITH_LATTICES,
    chi_naturality_check,
    coboundary,
    flat_table,
    linearize_eval,
    pushforward,
    rand_invertible,
    rand_ring,
    reference_chi_eval,
    reference_verify_cocycle,
    ring_matmul,
    tu_spec,
    trivial_module,
    zz2_spec,
    zz6_spec,
)

SWAP3 = [[1, 0, 0], [0, 0, 1], [0, 1, 0]]
ROT4 = [[1, 0, 0], [0, 0, -1], [0, 1, 0]]
NEG3 = [[-1, 0, 0], [0, -1, 0], [0, 0, -1]]


def z2_quotient(spec):
    qspec = GroupSpec((FactorSpec.abelian(("q",), torsion=[2]),))
    return FiniteQuotient(spec, qspec, {"t": qspec.identity(), "s": qspec.generator("q")})


def z2_setup():
    spec = zz2_spec()
    pi2 = GModule(spec, QuotientPresentation(3), action={"s": SWAP3},
                  elements={"alpha": (1, 0, 0)}, name="pi2")
    z = trivial_module(spec, 1, name="Z")
    r = ModuleMap(pi2, z, [[1, 0, 0]], equivariant=True, name="r")
    quotient = z2_quotient(spec)
    q = quotient.target.generator("q")
    cocycle = Cocycle(quotient, pi2, flat_table(quotient, pi2, {(q, q, q): (0, -1, 1)}),
                      q_action={"q": SWAP3})
    return spec, pi2, z, r, quotient, q, cocycle


def test_zero_table_is_cocycle():
    spec, pi2, _, _, quotient, _, _ = z2_setup()
    zero = Cocycle(quotient, pi2, flat_table(quotient, pi2, {}), q_action={"q": SWAP3})
    assert verify_cocycle(zero) is None


def test_single_entry_trivial_coefficients_rejected():
    # c(s,s,s) = 1 with trivial Z coefficients: delta c at (s,s,s,s) is 2,
    # so the check must reject exactly there.
    spec, *_ , quotient, q, _ = z2_setup()
    z = trivial_module(spec, 1)
    c = Cocycle(quotient, z, flat_table(quotient, z, {(q, q, q): (1,)}))
    assert verify_cocycle(c) == (q, q, q, q)


def test_shipped_table_passes_and_mutations_fail():
    spec, pi2, _, _, quotient, q, cocycle = z2_setup()
    shipped = (0, -1, 1)
    assert cocycle.values == flat_table(quotient, pi2, {(q, q, q): shipped})
    assert verify_cocycle(cocycle) is None
    for i in range(3):
        mutated = list(shipped)
        mutated[i] += 1
        bad = Cocycle(quotient, pi2, flat_table(quotient, pi2, {(q, q, q): tuple(mutated)}),
                      q_action={"q": SWAP3})
        assert verify_cocycle(bad) is not None


def test_coboundary_always_verifies():
    rng = random.Random(67)
    spec, pi2, _, _, quotient, _, _ = z2_setup()
    elems = quotient.elements
    for _ in range(20):
        two = {}
        for _ in range(rng.randint(0, 4)):
            key = (rng.choice(elems), rng.choice(elems))
            two[key] = tuple(rng.randint(-2, 2) for _ in range(3))
        c = coboundary(quotient, pi2, two, q_action={"q": SWAP3})
        assert verify_cocycle(c) is None


def _torsion_setting(orders, matrix=None, rank=3, relations=()):
    """t * (Z/m_1 x ... x Z/m_r) onto the same finite group with t sent to
    1, and a module on which the first torsion generator acts by
    ``matrix`` (None: the trivial action)."""
    names = tuple(f"s{i}" for i in range(len(orders)))
    qnames = tuple(f"q{i}" for i in range(len(orders)))
    spec = GroupSpec((FactorSpec.free("t"), FactorSpec.abelian(names, torsion=orders)))
    qspec = GroupSpec((FactorSpec.abelian(qnames, torsion=orders),))
    images = {"t": qspec.identity()}
    images.update((s, qspec.generator(q)) for s, q in zip(names, qnames))
    quotient = FiniteQuotient(spec, qspec, images)
    if matrix is None:
        return quotient, GModule(spec, QuotientPresentation(rank, relations)), None
    module = GModule(spec, QuotientPresentation(rank, relations), action={names[0]: matrix})
    ident = [[int(i == j) for j in range(rank)] for i in range(rank)]
    q_action = {q: matrix if i == 0 else ident for i, q in enumerate(qnames)}
    return quotient, module, q_action


QUOTIENT_ACTIONS = {"trivial": None, "swap": SWAP3, "rot4": ROT4, "sign": NEG3}

# (quotient torsion orders, first generator's action, module rank, relations)
ORACLE_CASES = (
    [((m,), "trivial", 2, ()) for m in range(2, 7)]
    + [((m,), "swap", 3, ()) for m in (2, 4, 6)]
    + [((4,), "rot4", 3, ()), ((2, 2), "trivial", 2, ()), ((2, 2), "swap", 3, ())]
    + [((m,), "trivial", 1, ([2],)) for m in (2, 3, 4)]
    + [((), "trivial", 1, ())]
)


def _case_id(case):
    orders, action, _, relations = case
    group = "x".join(f"Z{m}" for m in orders) or "Z1"
    return group + f"-{action}" + ("-mod2" if relations else "")


def _added(values, shift):
    """Two flat tables added slot by slot."""
    return [tuple(a + b for a, b in zip(v, w)) for v, w in zip(values, shift)]


@st.composite
def oracle_cocycles(draw, orders, action, rank, relations):
    """A random table, a coboundary, or a coboundary with one entry
    changed, over one of ``ORACLE_CASES``."""
    quotient, module, q_action = _torsion_setting(orders, QUOTIENT_ACTIONS[action], rank,
                                                  relations)
    element = st.sampled_from(quotient.elements)
    vector = st.tuples(*[st.integers(-2, 2)] * rank)
    kind = draw(st.sampled_from(["random", "coboundary", "mutated"]))
    if kind == "random":
        table = draw(st.dictionaries(st.tuples(element, element, element), vector,
                                     max_size=6))
        return Cocycle(quotient, module, flat_table(quotient, module, table), q_action=q_action)
    two = draw(st.dictionaries(st.tuples(element, element), vector, max_size=6))
    c = coboundary(quotient, module, two, q_action=q_action)
    if kind == "coboundary":
        return c
    key = draw(st.tuples(element, element, element))
    bump = draw(vector.filter(any))
    return Cocycle(quotient, module, _added(c.values, flat_table(quotient, module, {key: bump})),
                   q_action=q_action)


@pytest.mark.parametrize("case", ORACLE_CASES, ids=_case_id)
def test_verify_cocycle_matches_reference(case):
    @settings(max_examples=15, deadline=None, derandomize=True, database=None)
    @given(oracle_cocycles(*case))
    def check(c):
        assert verify_cocycle(c) == reference_verify_cocycle(c)

    check()


def test_cocycle_check_multiplies_at_most_q_squared_times(monkeypatch):
    # Products come from the quotient's index, not from one multiply per
    # quadruple.
    calls = []
    multiply = chi.multiply
    monkeypatch.setattr(chi, "multiply", lambda g, h: calls.append(1) or multiply(g, h))
    quotient, module, q_action = _torsion_setting((8,), ROT4)
    q = quotient.target.generator("q0")
    c = coboundary(quotient, module, {(q, q): (0, 1, 0), (q, q * q): (1, 0, -1)},
                   q_action=q_action)
    assert any(map(any, c.values))
    assert verify_cocycle(c) is None
    assert len(calls) <= 8 ** 2


@pytest.mark.parametrize("orders, matrix, applies", [((8,), ROT4, 2 * 8 ** 3),
                                                     ((2, 2), SWAP3, 3 * 4 ** 3)])
def test_cocycle_check_reads_the_generator_rows_only(monkeypatch, orders, matrix, applies):
    # A passing table is decided on the rows g = 1 and g = a generator:
    # one action per quadruple, (1 + #generators)·|Q|^3 of them.
    quotient, module, q_action = _torsion_setting(orders, matrix)
    elems = quotient.elements
    rng = random.Random(0)
    two = {(g, h): tuple(rng.randint(-2, 2) for _ in range(3)) for g in elems for h in elems}
    c = coboundary(quotient, module, two, q_action=q_action)
    calls = []
    apply = IntMatrix.apply
    monkeypatch.setattr(IntMatrix, "apply", lambda m, v: calls.append(1) or apply(m, v))
    assert verify_cocycle(c) is None
    assert len(calls) == applies


def test_action_must_factor_through_quotient():
    spec = zz2_spec()
    # t acts nontrivially but maps to the identity of the quotient
    pi2 = GModule(spec, QuotientPresentation(3), action={"t": SWAP3})
    quotient = z2_quotient(spec)
    with pytest.raises(RejectedError):
        Cocycle(quotient, pi2, flat_table(quotient, pi2, {}),
                q_action={"q": [[1, 0, 0], [0, 1, 0], [0, 0, 1]]})
    with pytest.raises(RejectedError):
        Cocycle(quotient, pi2, flat_table(quotient, pi2, {}))


def _z2xz2_quotient(spec):
    qspec = GroupSpec((FactorSpec.abelian(("q1", "q2"), torsion=[2, 2]),))
    return FiniteQuotient(spec, qspec, {"t": qspec.generator("q1"), "s": qspec.generator("q2")})


@pytest.mark.parametrize("relations, quotient, q_action, match", [
    # the swap sends the relation (2,0) to (0,2), which is not a relation
    ([(2, 0)], z2_quotient, {"q": [[0, 1], [1, 0]]}, "relation"),
    # an order-3 matrix for a quotient generator of order 2
    ([], z2_quotient, {"q": [[0, -1], [1, -1]]}, "torsion"),
    # two involutions of Z^2 that do not commute
    ([], _z2xz2_quotient, {"q1": [[0, 1], [1, 0]], "q2": [[-1, 0], [0, 1]]}, "commute"),
])
def test_quotient_action_checks(relations, quotient, q_action, match):
    spec = zz2_spec()
    module = GModule(spec, QuotientPresentation(2, relations))
    q = quotient(spec)
    with pytest.raises(RejectedError, match=match):
        Cocycle(q, module, flat_table(q, module, {}), q_action=q_action)


def test_quotient_respects_torsion():
    spec = zz2_spec()
    qspec = GroupSpec((FactorSpec.abelian(("q",), torsion=[4]),))
    q = qspec.generator("q")
    with pytest.raises(ValueError):
        FiniteQuotient(spec, qspec, {"t": qspec.identity(), "s": q})
    # s has order 2; q^2 works
    FiniteQuotient(spec, qspec, {"t": qspec.identity(), "s": q * q})


def _fail_enumerate(spec):
    raise AssertionError("enumerated the elements of an oversized quotient")


@pytest.mark.parametrize("orders", [(10**3,), (10**9,), (10, 10, 10)])
def test_quotient_order_limit_rejects_before_enumerating(monkeypatch, orders):
    monkeypatch.setattr(chi, "enumerate_elements", _fail_enumerate)
    spec = zz2_spec()
    qspec = GroupSpec((FactorSpec.abelian(tuple(f"q{i}" for i in range(len(orders))),
                                          torsion=orders),))
    order = 1
    for m in orders:
        order *= m
    with pytest.raises(ValueError, match=f"quotient order {order} exceeds the limit 32"):
        FiniteQuotient(spec, qspec, {"t": qspec.identity(), "s": qspec.identity()})


def test_quotient_at_the_order_limit():
    spec = zz2_spec()
    qspec = GroupSpec((FactorSpec.abelian(("q",), torsion=[MAX_QUOTIENT_ORDER]),))
    quotient = FiniteQuotient(spec, qspec, {"t": qspec.generator("q"),
                                            "s": qspec.generator("q", MAX_QUOTIENT_ORDER // 2)})
    assert len(quotient.elements) == MAX_QUOTIENT_ORDER


def test_linearize_single_term_and_zero():
    spec, pi2, _, _, quotient, q, cocycle = z2_setup()
    s = spec.generator("s")
    t = spec.generator("t")
    one = RingElement.from_element(s)
    val = linearize_eval(cocycle, one, one, one)
    assert val == (0, -1, 1)
    zero_c = Cocycle(quotient, pi2, flat_table(quotient, pi2, {}), q_action={"q": SWAP3})
    assert linearize_eval(zero_c, one, one, one) == (0, 0, 0)
    # projection kills t: a bracket through t contributes the identity slot
    assert linearize_eval(cocycle, RingElement.from_element(t), one, one) == (0, 0, 0)


def test_linearize_trilinear():
    rng = random.Random(71)
    spec, pi2, _, _, _, _, cocycle = z2_setup()

    def add(u, v):
        return pi2.presentation.reduce([a + b for a, b in zip(u, v)])

    for _ in range(50):
        x1 = rand_ring(rng, spec, 2)
        x2 = rand_ring(rng, spec, 2)
        y = rand_ring(rng, spec, 2)
        z = rand_ring(rng, spec, 2)
        lhs = linearize_eval(cocycle, x1 + x2, y, z)
        assert lhs == add(linearize_eval(cocycle, x1, y, z), linearize_eval(cocycle, x2, y, z))
        mid = linearize_eval(cocycle, y, x1 + x2, z)
        assert mid == add(linearize_eval(cocycle, y, x1, z), linearize_eval(cocycle, y, x2, z))
        last = linearize_eval(cocycle, y, z, x1 + x2)
        assert last == add(linearize_eval(cocycle, y, z, x1), linearize_eval(cocycle, y, z, x2))


# (quotient torsion orders, first generator's action, module rank, relations):
# the quotients of ``ORACLE_CASES`` and a V != I lattice, trivially and by a sign.
CHI_CASES = (
    [((m,), "trivial", 3, ()) for m in range(2, 7)]
    + [((m,), "swap", 3, ()) for m in (2, 4, 6)]
    + [((4,), "rot4", 3, ()), ((2, 2), "trivial", 2, ()), ((2, 2), "swap", 3, ())]
    + [((2,), "trivial", 3, NON_SMITH_LATTICES[1][1]),
       ((4,), "sign", 3, NON_SMITH_LATTICES[1][1])]
)


@st.composite
def chi_inputs(draw, case):
    """A nonzero cocycle of ``oracle_cocycles``, a certified triple of
    size 1..3, and D: omitted, the bare inverse, or a certified pair
    holding the inverse as its matrix or as its inverse."""
    c = draw(oracle_cocycles(*case).filter(lambda c: any(map(any, c.values))))
    rng = random.Random(draw(st.integers(0, 2**32)))
    n = draw(st.integers(1, 3))
    spec = c.module.spec
    a, b, cm = (rand_invertible(rng, spec, n, max_gens=4, max_support=3) for _ in range(3))
    inv = ring_matmul(ring_matmul(cm.inverse, b.inverse), a.inverse)
    abc = ring_matmul(ring_matmul(a.matrix, b.matrix), cm.matrix)
    d = draw(st.sampled_from([None, inv, InvertiblePair(inv, abc), InvertiblePair(abc, inv)]))
    return c, a, b, cm, d


@pytest.mark.parametrize("case", CHI_CASES, ids=_case_id)
def test_chi_matches_the_reference(case):
    @settings(max_examples=15, deadline=None, derandomize=True, database=None)
    @given(chi_inputs(case))
    def check(inputs):
        assert chi_eval(*inputs) == reference_chi_eval(*inputs)

    check()


def _retraction_verdict(r, c):
    try:
        return retraction_kills_chi(r, c)
    except RejectedError as err:
        return str(err)


# Retractions out of the rank-1 Z/2 of the ``-mod2`` cases: onto Z/2,
# to zero, and doubling into Z/4.
MOD2_RETRACTIONS = (([(2,)], [[1]]), ([], [[0]]), ([(4,)], [[2]]))


@pytest.mark.parametrize("case", [case for case in ORACLE_CASES if case[3]], ids=_case_id)
def test_values_are_exact_up_to_relations(case):
    # Cocycle values are stored unreduced.  Adding relation vectors to
    # some slots, empty ones included, must change no verdict or value.
    orders, action, rank, relations = case
    quotient, _, _ = _torsion_setting(orders, QUOTIENT_ACTIONS[action], rank, relations)
    element = st.sampled_from(quotient.elements)
    relation = st.tuples(*[st.integers(-2, 2)] * len(relations)).filter(any).map(
        lambda coeffs: tuple(sum(a * row[i] for a, row in zip(coeffs, relations))
                             for i in range(rank)))
    empty_hits = []

    @settings(max_examples=15, deadline=None, derandomize=True, database=None)
    @given(oracle_cocycles(*case),
           st.dictionaries(st.tuples(element, element, element), relation,
                           min_size=1, max_size=8),
           st.integers(1, 2), st.integers(0, 2**32))
    def check(c, shift, n, seed):
        shift_values = flat_table(c.quotient, c.module, shift)
        shifted = Cocycle(c.quotient, c.module, _added(c.values, shift_values),
                          q_action=c._q_matrices)
        assert shifted.values != c.values
        empty_hits.extend(1 for v, w in zip(c.values, shift_values) if any(w) and not any(v))
        assert verify_cocycle(shifted) == verify_cocycle(c)
        rng = random.Random(seed)
        a, b, cm = (rand_invertible(rng, c.module.spec, n, max_gens=4, max_support=3)
                    for _ in range(3))
        assert chi_eval(shifted, a, b, cm) == chi_eval(c, a, b, cm)
        for target_relations, matrix in MOD2_RETRACTIONS:
            target = trivial_module(c.module.spec, 1, target_relations)
            r = ModuleMap(c.module, target, matrix)
            assert _retraction_verdict(r, shifted) == _retraction_verdict(r, c)

    check()
    assert empty_hits


def test_chi_projects_each_support_term_once(monkeypatch):
    # 49 support terms; one projection per nonzero (i, j, k, l) would
    # make 397 calls.
    rng = random.Random(62)
    spec, *_, cocycle = z2_setup()
    a, b, cm = (rand_invertible(rng, spec, 6, max_gens=12) for _ in range(3))
    terms = sum(len(x.terms) for m in (a, b, cm) for row in m.matrix.entries for x in row)
    assert terms == 49
    calls = []
    project = FiniteQuotient.project
    monkeypatch.setattr(FiniteQuotient, "project",
                        lambda self, g: calls.append(1) or project(self, g))
    value = chi_eval(cocycle, a, b, cm)
    assert len(calls) == terms
    monkeypatch.undo()
    assert not value.is_zero
    assert value == reference_chi_eval(cocycle, a, b, cm)


def test_chi_identity_matrices_and_zero_cocycle():
    rng = random.Random(73)
    spec, pi2, _, _, quotient, _, cocycle = z2_setup()
    ident = build_invertible(spec, 2, ())
    assert chi_eval(cocycle, ident, ident, ident, ident).is_zero
    zero_c = Cocycle(quotient, pi2, flat_table(quotient, pi2, {}), q_action={"q": SWAP3})
    for _ in range(10):
        a = rand_invertible(rng, spec, 2)
        b = rand_invertible(rng, spec, 2)
        c = rand_invertible(rng, spec, 2)
        assert chi_eval(zero_c, a, b, c).is_zero


def test_chi_single_index_expansion():
    # 1x1 matrices (s), (s), (s): D = (s) and chi = c(q,q,q)[s]
    spec, pi2, _, _, quotient, q, cocycle = z2_setup()
    s = spec.generator("s")
    m = build_invertible(spec, 1, [DiagonalGen(0, 1, s)])
    value = chi_eval(cocycle, m, m, m, m)
    assert value == WhElement.build(pi2, [((0, -1, 1), s)])


def test_chi_rejects_bad_inverse():
    spec, pi2, _, _, _, _, cocycle = z2_setup()
    s = spec.generator("s")
    t = spec.generator("t")
    m = build_invertible(spec, 1, [DiagonalGen(0, 1, s)])
    wrong = build_invertible(spec, 1, [DiagonalGen(0, 1, t)])
    for d in (wrong, wrong.matrix, wrong.inverse):
        with pytest.raises(RejectedError, match="not a two-sided inverse"):
            chi_eval(cocycle, m, m, m, d)


def test_chi_inverse_uniqueness():
    # an independently constructed verified inverse cannot change the value
    rng = random.Random(79)
    spec, pi2, _, _, _, _, cocycle = z2_setup()
    for _ in range(10):
        a = rand_invertible(rng, spec, 2)
        b = rand_invertible(rng, spec, 2)
        c = rand_invertible(rng, spec, 2)
        d1 = ring_matmul(ring_matmul(c.inverse, b.inverse), a.inverse)
        baseline = chi_eval(cocycle, a, b, c, d1)
        alt = chi_eval(cocycle, a, b, c)  # recomposed internally
        assert baseline == alt
        assert d1 == ring_matmul(c.inverse, ring_matmul(b.inverse, a.inverse))


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(st.sampled_from([zz2_spec(), zz6_spec(), tu_spec()]), st.integers(1, 4),
       st.integers(0, 2**32))
def test_composed_inverse_equals_the_product_of_inverses(spec, n, seed):
    rng = random.Random(seed)
    a, b, cm = (rand_invertible(rng, spec, n, max_gens=5, max_support=4) for _ in range(3))
    expected = ring_matmul(ring_matmul(cm.inverse, b.inverse), a.inverse)
    assert chi._resolve_inverse(a, b, cm, None) == expected


def test_composed_inverse_past_the_term_limit_is_rejected(monkeypatch):
    rng = random.Random(83)
    spec, _, _, _, _, _, cocycle = z2_setup()
    a, b, cm = (rand_invertible(rng, spec, 3, max_gens=6) for _ in range(3))
    composed = ring_matmul(ring_matmul(cm.inverse, b.inverse), a.inverse)
    terms = sum(len(x.terms) for row in composed.entries for x in row)
    monkeypatch.setattr(groupring, "MAX_MATRIX_TERMS", terms - 1)
    with pytest.raises(RejectedError, match=f"limit of {terms - 1} terms"):
        chi_eval(cocycle, a, b, cm)


def test_naturality_identity_and_zero():
    spec, pi2, z, r, quotient, _, cocycle = z2_setup()
    rng = random.Random(83)
    a = rand_invertible(rng, spec, 2)
    b = rand_invertible(rng, spec, 2)
    c = rand_invertible(rng, spec, 2)
    ident = ModuleMap(pi2, pi2, [[1, 0, 0], [0, 1, 0], [0, 0, 1]], equivariant=True)
    assert chi_naturality_check(ident, cocycle, a, b, c, q_action={"q": SWAP3})
    zero_map = ModuleMap(pi2, z, [[0, 0, 0]], equivariant=True)
    assert chi_naturality_check(zero_map, cocycle, a, b, c)


def test_naturality_randomized():
    rng = random.Random(89)
    spec = zz2_spec()
    a_mod = trivial_module(spec, 2, name="A")
    b_mod = trivial_module(spec, 1, name="B")
    qspec = GroupSpec((FactorSpec.abelian(("q",), torsion=[2]),))
    quotient = FiniteQuotient(spec, qspec,
                              {"t": qspec.generator("q"), "s": qspec.generator("q")})
    elems = quotient.elements
    for _ in range(25):
        two = {}
        for _ in range(rng.randint(1, 3)):
            two[(rng.choice(elems), rng.choice(elems))] = (
                rng.randint(-2, 2), rng.randint(-2, 2))
        c = coboundary(quotient, a_mod, two)
        phi = ModuleMap(a_mod, b_mod, [[rng.randint(-2, 2), rng.randint(-2, 2)]])
        mats = [rand_invertible(rng, spec, rng.choice([2, 3])) for _ in range(3)]
        n = mats[0].matrix.n
        mats = [m if m.matrix.n == n else rand_invertible(rng, spec, n) for m in mats]
        assert chi_naturality_check(phi, c, *mats)


def test_retraction_kills_chi():
    spec, pi2, z, r, quotient, q, cocycle = z2_setup()
    rng = random.Random(97)
    a = rand_invertible(rng, spec, 2)
    b = rand_invertible(rng, spec, 2)
    c = rand_invertible(rng, spec, 2)
    # all shipped table values lie in the kernel of r
    assert retraction_kills_chi(r, cocycle)
    assert chi_eval(pushforward(r, cocycle), a, b, c).is_zero
    # the zero map kills anything
    zero_map = ModuleMap(pi2, z, [[0, 0, 0]], equivariant=True)
    assert retraction_kills_chi(zero_map, cocycle)
    assert chi_eval(pushforward(zero_map, cocycle), a, b, c).is_zero
    # a map that does not kill the table is reported as uncovered
    leaky = ModuleMap(pi2, z, [[0, 1, 0]])
    with pytest.raises(RejectedError, match="pushed-forward table is nonzero"):
        retraction_kills_chi(leaky, cocycle)
    # a nontrivial-action target is refused as pushforward refuses it
    self_zero = ModuleMap(pi2, pi2, [[0] * 3] * 3, equivariant=True)
    with pytest.raises(RejectedError, match="nontrivial-action target"):
        retraction_kills_chi(self_zero, cocycle)
    with pytest.raises(RejectedError, match="nontrivial-action target"):
        pushforward(self_zero, cocycle)


def test_retraction_kills_chi_randomized():
    # whenever the table check passes, chi of the pushed cocycle vanishes
    rng = random.Random(101)
    spec = zz2_spec()
    a_mod = trivial_module(spec, 2, name="A")
    b_mod = trivial_module(spec, 1, name="B")
    qspec = GroupSpec((FactorSpec.abelian(("q",), torsion=[2]),))
    quotient = FiniteQuotient(spec, qspec,
                              {"t": qspec.generator("q"), "s": qspec.generator("q")})
    elems = quotient.elements
    killed = leaked = 0
    for _ in range(40):
        # 2-cochain values on the line through v, so the table lies on it
        v = (rng.randint(-2, 2), rng.randint(-2, 2))
        two = {}
        for _ in range(rng.randint(1, 3)):
            m = rng.randint(-2, 2)
            two[(rng.choice(elems), rng.choice(elems))] = (m * v[0], m * v[1])
        c = coboundary(quotient, a_mod, two)
        w = rng.randint(1, 2)
        row = [w * v[1], -w * v[0]] if rng.random() < 0.7 else [rng.randint(-2, 2),
                                                               rng.randint(-2, 2)]
        phi = ModuleMap(a_mod, b_mod, [row])
        n = rng.choice([2, 3])
        mats = [rand_invertible(rng, spec, n) for _ in range(3)]
        try:
            assert retraction_kills_chi(phi, c)
        except RejectedError:
            leaked += 1
            assert any(b_mod.presentation.reduce(phi.matrix.apply(val))
                       for val in c.values)
            continue
        killed += 1
        assert chi_eval(pushforward(phi, c), *mats).is_zero
    assert killed and leaked


def test_chi_consistency_with_retracted_evaluation():
    # r_* chi(c) must equal chi(r of c): the executable vanishing argument
    spec, pi2, z, r, quotient, q, cocycle = z2_setup()
    s = spec.generator("s")
    m = build_invertible(spec, 1, [DiagonalGen(0, 1, s)])
    value = chi_eval(cocycle, m, m, m, m)
    assert not value.is_zero
    assert induced_map(r, value).is_zero
    pushed = pushforward(r, cocycle)
    assert chi_eval(pushed, m, m, m, m).is_zero


def test_z6_sample_matches_frozen_value():
    spec = zz6_spec()
    rot = [[1, 0, 0], [0, 0, -1], [0, 1, 1]]
    pi2 = GModule(spec, QuotientPresentation(3), action={"s": rot}, name="pi2")
    qspec = GroupSpec((FactorSpec.abelian(("q",), torsion=[6]),))
    quotient = FiniteQuotient(spec, qspec,
                              {"t": qspec.identity(), "s": qspec.generator("q")})
    q = qspec.generator("q")
    c = coboundary(quotient, pi2, {(q, q): (0, 1, 0)}, q_action={"q": rot})
    assert verify_cocycle(c) is None
    i = quotient.index[q]
    assert c.values[(i * 6 + i) * 6 + i] == (0, -1, 1)
    assert sum(map(any, c.values)) == 17

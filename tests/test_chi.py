"""Cocycle verification, the quotient-order limit, and the chain-level
chi map against its index-by-index reference."""

import functools
import math
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from obkit import chi, groupring, groups
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
from obkit.groupring import DiagonalGen, InvertiblePair, build_invertible
from obkit.groups import FactorSpec, GroupElement, GroupSpec, enumerate_elements, multiply
from obkit.intlinalg import IntMatrix, QuotientPresentation
from obkit.wh1 import WhElement, induced_map
from support import (
    NON_SMITH_LATTICES,
    chi_naturality_check,
    coboundary,
    entry,
    flat_table,
    inverted_generators,
    linearize_eval,
    pushforward,
    rand_invertible,
    rand_ring,
    reference_chi_eval,
    reference_inverse,
    reference_project,
    reference_verify_cocycle,
    ring_add,
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
    elems = enumerate_elements(quotient.target)
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


# "kill" maps the second coordinate, zero in the module, to zero.
QUOTIENT_ACTIONS = {"trivial": None, "swap": SWAP3, "rot4": ROT4, "sign": NEG3,
                    "kill": [[1, 0], [0, 0]]}

# (quotient torsion orders, first generator's action, module rank, relations)
ORACLE_CASES = (
    [((m,), "trivial", 2, ()) for m in range(2, 7)]
    + [((m,), "swap", 3, ()) for m in (2, 4, 6)]
    + [((4,), "rot4", 3, ()), ((2, 2), "trivial", 2, ()), ((2, 2), "swap", 3, ())]
    + [((m,), "trivial", 1, ([2],)) for m in (2, 3, 4)]
    + [((), "trivial", 1, ())]
    + [((4,), "swap", 3, ([0, 2, 2],)), ((2, 3), "swap", 3, ()), ((2,), "kill", 2, ([0, 1],))]
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
    element = st.sampled_from(enumerate_elements(quotient.target))
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


def test_cocycle_check_and_chi_make_no_group_product(monkeypatch):
    # A quotient element is its index: neither the check nor chi forms a
    # product of group elements over the quotient, and the check forms
    # none at all.
    assert not hasattr(chi, "multiply")
    z8, module, q_action = _torsion_setting((8,), ROT4)
    q = z8.target.generator("q0")
    c8 = coboundary(z8, module, {(q, q): (0, 1, 0), (q, q * q): (1, 0, -1)}, q_action=q_action)
    assert any(map(any, c8.values))
    rng = random.Random(62)
    spec, *_, quotient, _, cocycle = z2_setup()
    a, b, cm = (rand_invertible(rng, spec, 3) for _ in range(3))
    products = []
    for layer in (groups, groupring):
        monkeypatch.setattr(layer, "multiply",
                            lambda g, h, real=layer.multiply: products.append(g.spec)
                            or real(g, h))
    assert verify_cocycle(c8) is None and verify_cocycle(cocycle) is None
    assert products == []
    value = chi_eval(cocycle, a, b, cm)
    # The products that compose the inverse lie in the source group.
    assert products and quotient.target not in products
    monkeypatch.undo()
    assert not value.is_zero
    assert value == reference_chi_eval(cocycle, a, b, cm)


@pytest.mark.parametrize("orders, matrix, quads", [((8,), ROT4, 2 * 8 ** 3),
                                                    ((2, 2), SWAP3, 3 * 4 ** 3)])
def test_cocycle_check_reads_the_generator_rows_only(orders, matrix, quads):
    # A passing table is decided on the rows g = 1 and g = a generator,
    # (1 + #generators)·|Q|^3 quadruples: past the identity row, the
    # check reads the matrix of each generator once, in index order.
    quotient, module, q_action = _torsion_setting(orders, matrix)
    elems = enumerate_elements(quotient.target)
    rng = random.Random(0)
    two = {(g, h): tuple(rng.randint(-2, 2) for _ in range(3)) for g in elems for h in elems}
    c = coboundary(quotient, module, two, q_action=q_action)
    read = []

    class Recording(dict):
        def __getitem__(self, name):
            read.append(name)
            return dict.__getitem__(self, name)

    c._q_matrices = Recording(c._q_matrices)
    assert verify_cocycle(c) is None
    target = quotient.target
    names = sorted(target.generator_names(), key=lambda q: elems.index(target.generator(q)))
    assert read == names
    assert (1 + len(read)) * len(elems) ** 3 == quads


def test_totals_in_the_relation_lattice_pass():
    # A total that is nonzero but lies in the relation lattice holds;
    # one outside it fails at the reference's witness.
    quotient, module, q_action = _torsion_setting((4,), SWAP3, 3, ([0, 2, 2],))
    _, free, _ = _torsion_setting((4,), SWAP3, 3)
    q = quotient.target.generator("q0")
    c = coboundary(quotient, module, {(q, q): (1, 0, -1), (q, q * q): (0, 1, 2)},
                   q_action=q_action)
    for bump, passes in (((0, 2, 2), True), ((0, 1, 0), False)):
        values = _added(c.values, flat_table(quotient, module, {(q, q, q): bump}))
        assert verify_cocycle(Cocycle(quotient, free, values, q_action=q_action)) is not None
        shifted = Cocycle(quotient, module, values, q_action=q_action)
        verdict = verify_cocycle(shifted)
        assert verdict == reference_verify_cocycle(shifted)
        assert (verdict is None) == passes


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
    assert quotient.order == len(quotient.sums) == MAX_QUOTIENT_ORDER


# Targets Z/6, Z/2 x Z/4 and (Z/2)^3, and torsion orders for the source's
# torsion generator: its image is drawn among those of that order.
INDEX_TARGETS = ((6,), (2, 4), (2, 2, 2))


@st.composite
def _quotient_and_element(draw):
    """A quotient of free[x,y] * (Z^2 x Z/o) onto one of ``INDEX_TARGETS``
    and a source element made of letters with exponents of both signs."""
    torsion = draw(st.sampled_from(INDEX_TARGETS))
    order = draw(st.sampled_from((2, 3, 4, 6)))
    spec = GroupSpec((FactorSpec.free("x", "y"),
                      FactorSpec.abelian(("a", "b", "s"), free_rank=2, torsion=[order])))
    qspec = GroupSpec((FactorSpec.abelian(tuple(f"q{i}" for i in range(len(torsion))),
                                          torsion=torsion),))

    def image(step):
        exps = tuple(draw(st.integers(0, m - 1)) * step(m) % m for m in torsion)
        return GroupElement(qspec, ((0, exps),)) if any(exps) else qspec.identity()

    images = {name: image(lambda m: 1) for name in ("x", "y", "a", "b")}
    images["s"] = image(lambda m: m // math.gcd(m, order))
    letters = draw(st.lists(st.tuples(st.sampled_from(("x", "y", "a", "b", "s")),
                                      st.integers(-5, 5)), max_size=8))
    g = functools.reduce(multiply, (spec.generator(n, e) for n, e in letters), spec.identity())
    return FiniteQuotient(spec, qspec, images), g


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(_quotient_and_element())
def test_index_of_matches_the_projection_by_products(case):
    quotient, g = case
    elements = enumerate_elements(quotient.target)
    assert quotient.index_of(g) == elements.index(reference_project(quotient, g))
    assert [quotient.target_index(q) for q in elements] == list(range(quotient.order))


def test_linearize_single_term_and_zero():
    spec, pi2, _, _, quotient, q, cocycle = z2_setup()
    s = spec.generator("s")
    t = spec.generator("t")
    one = {s: 1}
    val = linearize_eval(cocycle, one, one, one)
    assert val == (0, -1, 1)
    zero_c = Cocycle(quotient, pi2, flat_table(quotient, pi2, {}), q_action={"q": SWAP3})
    assert linearize_eval(zero_c, one, one, one) == (0, 0, 0)
    # projection kills t: a bracket through t contributes the identity slot
    assert linearize_eval(cocycle, {t: 1}, one, one) == (0, 0, 0)


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
        x12 = ring_add(x1, x2)
        lhs = linearize_eval(cocycle, x12, y, z)
        assert lhs == add(linearize_eval(cocycle, x1, y, z), linearize_eval(cocycle, x2, y, z))
        mid = linearize_eval(cocycle, y, x12, z)
        assert mid == add(linearize_eval(cocycle, y, x1, z), linearize_eval(cocycle, y, x2, z))
        last = linearize_eval(cocycle, y, z, x12)
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
    size 1..3, and D: omitted, or a certified pair that is the inverse
    or whose generators' inverse is, each matrix by full products."""
    c = draw(oracle_cocycles(*case).filter(lambda c: any(map(any, c.values))))
    rng = random.Random(draw(st.integers(0, 2**32)))
    n = draw(st.integers(1, 3))
    spec = c.module.spec
    a, b, cm = (rand_invertible(rng, spec, n, max_gens=4, max_support=3) for _ in range(3))
    inv = InvertiblePair(reference_inverse(a, b, cm), inverted_generators(a, b, cm))
    abc = InvertiblePair(ring_matmul(ring_matmul(a.matrix, b.matrix), cm.matrix),
                         a.provenance + b.provenance + cm.provenance)
    d = draw(st.sampled_from([None, inv, abc]))
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


@pytest.mark.parametrize("case", [case for case in ORACLE_CASES if case[3] and case[2] == 1],
                         ids=_case_id)
def test_values_are_exact_up_to_relations(case):
    # Cocycle values are stored unreduced.  Adding relation vectors to
    # some slots, empty ones included, must change no verdict or value.
    orders, action, rank, relations = case
    quotient, _, _ = _torsion_setting(orders, QUOTIENT_ACTIONS[action], rank, relations)
    element = st.sampled_from(enumerate_elements(quotient.target))
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
    terms = sum(len(x) for m in (a, b, cm) for col in m.matrix.cols for x in col.values())
    assert terms == 49
    calls = []
    index_of = FiniteQuotient.index_of
    monkeypatch.setattr(FiniteQuotient, "index_of",
                        lambda self, g: calls.append(1) or index_of(self, g))
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
    # The inverse of m^3 is (s): neither (t) nor (t^-1) is it, as its
    # matrix or as the inverse of its generators.
    for g in (t, t ** -1):
        d = build_invertible(spec, 1, [DiagonalGen(0, 1, g)])
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
        ci, bi, ai = map(reference_inverse, (c, b, a))
        d1 = ring_matmul(ring_matmul(ci, bi), ai)
        baseline = chi_eval(cocycle, a, b, c, InvertiblePair(d1, inverted_generators(a, b, c)))
        alt = chi_eval(cocycle, a, b, c)  # recomposed internally
        assert baseline == alt
        assert d1 == ring_matmul(ci, ring_matmul(bi, ai))


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(st.sampled_from([zz2_spec(), zz6_spec(), tu_spec()]), st.integers(1, 4),
       st.integers(0, 2**32))
def test_composed_inverse_equals_the_product_of_inverses(spec, n, seed):
    rng = random.Random(seed)
    a, b, cm = (rand_invertible(rng, spec, n, max_gens=5, max_support=4) for _ in range(3))
    expected = ring_matmul(ring_matmul(*map(reference_inverse, (cm, b))), reference_inverse(a))
    assert chi._inverse(a, b, cm) == expected


def test_composed_inverse_past_the_term_limit_is_rejected(monkeypatch):
    # The same nonzero value in every slot makes T that value times the
    # augmentation of ABC, an invertible integer matrix: no row of T is
    # zero, so chi reads, and composes, every column of D.
    rng = random.Random(83)
    spec, _, z, _, quotient, _, _ = z2_setup()
    constant = Cocycle(quotient, z, [(1,)] * quotient.order ** 3)
    a, b, cm = (rand_invertible(rng, spec, 3, max_gens=6) for _ in range(3))
    composed = ring_matmul(ring_matmul(*map(reference_inverse, (cm, b))), reference_inverse(a))
    terms = sum(len(x) for col in composed.cols for x in col.values())
    assert _read_rows(constant, a, b, cm) == [0, 1, 2]
    monkeypatch.setattr(groupring, "MAX_MATRIX_TERMS", terms - 1)
    with pytest.raises(RejectedError, match=f"limit of {terms - 1} terms"):
        chi_eval(constant, a, b, cm)
    monkeypatch.setattr(groupring, "MAX_MATRIX_TERMS", terms)
    assert chi_eval(constant, a, b, cm) == reference_chi_eval(constant, a, b, cm)


def test_term_limit_counts_only_the_columns_chi_reads(monkeypatch):
    # Against the one-slot table T has zero rows, so chi composes fewer
    # columns of D, and a limit that only its unread columns would pass
    # refuses nothing.  A supplied D is checked against all of it.
    rng = random.Random(66)
    spec, _, _, _, _, _, cocycle = z2_setup()
    a, b, cm = (rand_invertible(rng, spec, 3, max_gens=6) for _ in range(3))
    composed = reference_inverse(a, b, cm)
    read = _read_rows(cocycle, a, b, cm)
    assert 0 < len(read) < 3
    terms = sum(len(x) for col in composed.cols for x in col.values())
    read_terms = sum(len(x) for i in read for x in composed.cols[i].values())
    monkeypatch.setattr(groupring, "MAX_MATRIX_TERMS", read_terms)
    assert read_terms < terms
    assert chi_eval(cocycle, a, b, cm) == reference_chi_eval(cocycle, a, b, cm)
    with pytest.raises(RejectedError, match=f"limit of {read_terms} terms"):
        chi_eval(cocycle, a, b, cm, InvertiblePair(composed, inverted_generators(a, b, cm)))


def _read_rows(c, a, b, cm) -> list[int]:
    """The rows i of T, the table contracted with A, B and C, that hold a
    nonzero entry: T_il sums values[q(g), q(h), q(r)] * x*y*z over the
    terms x*g of a_ij, y*h of b_jk and z*r of c_kl, before reduction."""
    quotient, n = c.quotient, a.matrix.n
    order = quotient.order

    def index(g):
        return quotient.target_index(reference_project(quotient, g))

    rows = []
    for i in range(n):
        for l in range(n):
            total = [0] * c.module.rank
            for j in range(n):
                for k in range(n):
                    for g, x in entry(a.matrix, i, j).items():
                        for h, y in entry(b.matrix, j, k).items():
                            for r, z in entry(cm.matrix, k, l).items():
                                v = c.values[(index(g) * order + index(h)) * order + index(r)]
                                total = [t + x * y * z * w for t, w in zip(total, v)]
            if any(total):
                rows.append(i)
                break
    return rows


@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(st.sampled_from([zz2_spec(), zz6_spec(), tu_spec()]), st.integers(1, 4),
       st.integers(0, 2**32))
def test_composed_columns_equal_the_reference_inverse(spec, n, seed):
    # Any columns, in any order, each composed on its own from e_i.
    rng = random.Random(seed)
    a, b, cm = (rand_invertible(rng, spec, n, max_gens=5, max_support=4) for _ in range(3))
    expected = reference_inverse(a, b, cm)
    columns = rng.sample(range(n), rng.randint(0, n))
    assert groupring._inverse_columns((a, b, cm), columns) == [expected.cols[i] for i in columns]


def test_chi_composes_only_the_columns_and_products_it_reads(monkeypatch):
    # One composition per row of T with a nonzero entry, and A_q1 B_q2
    # only for a pair whose table row has a nonzero slot at some q3 of
    # C's split: the one-slot table has only (q, q).  Before, chi composed
    # all of D and formed A_q1 B_q2 for every pair of A's and B's parts.
    rng = random.Random(61)
    spec, _, _, _, quotient, _, cocycle = z2_setup()
    skipped_rows = skipped_pairs = 0
    for _ in range(12):
        a, b, cm = (rand_invertible(rng, spec, 3) for _ in range(3))
        composed, products = [], []
        monkeypatch.setattr(chi, "_inverse_columns",
                            lambda pairs, cols, real=chi._inverse_columns:
                            composed.append(list(cols)) or real(pairs, cols))
        monkeypatch.setattr(IntMatrix, "__matmul__",
                            lambda x, y, real=IntMatrix.__matmul__:
                            products.append(y) or real(x, y))
        value = chi_eval(cocycle, a, b, cm)
        monkeypatch.undo()
        read = _read_rows(cocycle, a, b, cm)
        assert composed == [read]
        a_parts, b_parts, c_parts = (chi._split(quotient, m.matrix) for m in (a, b, cm))
        slots = [(q1, q2, q3) for q1 in a_parts for q2 in b_parts for q3 in c_parts
                 if any(cocycle.values[(q1 * quotient.order + q2) * quotient.order + q3])]
        pairs = {(q1, q2) for q1, q2, _ in slots}
        assert len(products) == len(pairs) + len(slots)
        skipped_rows += 3 - len(read)
        skipped_pairs += len(a_parts) * len(b_parts) - len(pairs)
        assert value == reference_chi_eval(cocycle, a, b, cm)
    assert skipped_rows and skipped_pairs


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
    elems = enumerate_elements(quotient.target)
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
    elems = enumerate_elements(quotient.target)
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
    i = quotient.target_index(q)
    assert c.values[(i * 6 + i) * 6 + i] == (0, -1, 1)
    assert sum(map(any, c.values)) == 17

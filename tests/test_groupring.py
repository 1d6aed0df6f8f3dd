"""Group-ring arithmetic and certified invertible matrices.  A ring
element is its terms dict and a matrix its columns; sums and products
are the test suite's reference ``ring_add``, ``ring_mul`` and
``ring_matmul``, and ``RingMatrix`` defines no arithmetic."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from obkit import chi, groupring
from obkit.errors import ContextError, DimensionError, RejectedError
from obkit.groupring import (
    MAX_ENTRY_LETTERS,
    MAX_MATRIX_TERMS,
    DiagonalGen,
    ElementaryGen,
    RingMatrix,
    build_invertible,
)
from obkit.groups import FactorSpec, GroupSpec
from obkit.words import _parse_ring
from support import (
    entry,
    f2_spec,
    gen_matrix,
    is_two_sided_inverse,
    rand_element,
    rand_invertible,
    rand_ring,
    reference_build_invertible,
    reference_inverse,
    ring_add,
    ring_matmul,
    ring_mul,
    zz2_spec,
)


def ring(g, c=1):
    return {g: c}


def test_unit_inverse_product():
    spec = f2_spec()
    g = spec.generator("x") * spec.generator("y")
    assert ring_mul(ring(g), ring(g.inverse())) == ring(spec.identity())


def test_ring_classes_define_no_product():
    # chi and the builder form no full product; only the reference does.
    assert not hasattr(groupring, "RingElement")
    for name in ("__mul__", "__rmul__", "__add__", "__neg__", "__sub__", "__matmul__"):
        assert name not in vars(RingMatrix), name


def test_additive_cancellation():
    spec = f2_spec()
    g, h = ring(spec.generator("x")), ring(spec.generator("y"))
    assert ring_add(ring_add(g, h), {x: -c for x, c in g.items()}) == h


def test_expand_one_minus_t_squared():
    # (1+t)(1-t) = 1 - t^2 in Z[Z]: four products collected by hand
    spec = zz2_spec()
    t = spec.generator("t")
    one = ring(spec.identity())
    lhs = ring_mul(ring_add(one, ring(t)), ring_add(one, ring(t, -1)))
    assert lhs == ring_add(one, ring(t * t, -1))
    assert lhs == {spec.identity(): 1, t * t: -1}


def test_ring_axioms_randomized():
    rng = random.Random(31)
    spec = zz2_spec()
    one = ring(spec.identity())
    for _ in range(200):
        x = rand_ring(rng, spec, 5)
        y = rand_ring(rng, spec, 5)
        z = rand_ring(rng, spec, 5)
        assert ring_add(ring_add(x, y), z) == ring_add(x, ring_add(y, z))
        assert ring_add(x, y) == ring_add(y, x)
        assert ring_mul(ring_mul(x, y), z) == ring_mul(x, ring_mul(y, z))
        assert ring_mul(x, ring_add(y, z)) == ring_add(ring_mul(x, y), ring_mul(x, z))
        assert ring_mul(ring_add(y, z), x) == ring_add(ring_mul(y, x), ring_mul(z, x))
        assert ring_mul(x, one) == x and ring_mul(one, x) == x
        assert ring_add(x, {}) == x


def test_noncommutative_witness():
    spec = f2_spec()
    x, y = ring(spec.generator("x")), ring(spec.generator("y"))
    assert ring_mul(x, y) != ring_mul(y, x)


def test_mat_identity_and_elementary_law():
    spec = zz2_spec()
    t = spec.generator("t")
    ident = RingMatrix.identity(spec, 2)
    e1 = gen_matrix(ElementaryGen(0, 1, ring(t)), spec, 2)
    assert ring_matmul(e1, ident) == e1
    x = rand_ring(random.Random(1), spec, 2)
    y = rand_ring(random.Random(2), spec, 2)
    exy = gen_matrix(ElementaryGen(0, 1, ring_add(x, y)), spec, 2)
    assert ring_matmul(gen_matrix(ElementaryGen(0, 1, x), spec, 2),
                       gen_matrix(ElementaryGen(0, 1, y), spec, 2)) == exy


def test_mat_mul_matches_hand_expansion():
    rng = random.Random(37)
    spec = zz2_spec()
    for _ in range(20):
        mats = [rand_invertible(rng, spec, 2, max_gens=1).matrix for _ in range(3)]
        product = ring_matmul(ring_matmul(mats[0], mats[1]), mats[2])
        n = 2
        for i in range(n):
            for j in range(n):
                acc = {}
                for a in range(n):
                    for b in range(n):
                        acc = ring_add(acc, ring_mul(ring_mul(entry(mats[0], i, a),
                                                              entry(mats[1], a, b)),
                                                     entry(mats[2], b, j)))
                assert entry(product, i, j) == acc


def test_build_invertible_examples():
    spec = zz2_spec()
    t, s = spec.generator("t"), spec.generator("s")
    empty = build_invertible(spec, 2, [])
    assert empty.matrix == RingMatrix.identity(spec, 2)
    single = build_invertible(spec, 2, [ElementaryGen(0, 1, ring(t))])
    assert chi._inverse(single) == gen_matrix(ElementaryGen(0, 1, ring(t, -1)), spec, 2)
    tricky = build_invertible(spec, 2, [
        ElementaryGen(0, 1, ring(t)),
        DiagonalGen(0, -1, s),
        ElementaryGen(1, 0, ring_add(ring(spec.identity()), ring(s))),
    ])
    assert is_two_sided_inverse(tricky.matrix, chi._inverse(tricky))
    assert not is_two_sided_inverse(single.matrix, single.matrix)


def test_matrix_equality_follows_columns():
    # Zero entries are absent and no coefficient is 0, so == on the
    # columns decides equality; nothing hashes a matrix.
    spec = zz2_spec()
    t, s = spec.generator("t"), spec.generator("s")
    e = ElementaryGen(0, 1, ring(t))
    ident = RingMatrix.identity(spec, 2)
    built = ring_matmul(gen_matrix(e, spec, 2), gen_matrix(e.inverted(), spec, 2))
    assert built == ident and built.cols == ({0: {spec.identity(): 1}}, {1: {spec.identity(): 1}})
    assert build_invertible(spec, 2, [e, e.inverted()]).matrix.cols == ident.cols
    distinct = [
        ident,
        gen_matrix(e, spec, 2),
        gen_matrix(ElementaryGen(1, 0, ring(s)), spec, 2),
        gen_matrix(DiagonalGen(0, -1, s), spec, 2),
        gen_matrix(DiagonalGen(1, 1, t), spec, 2),
    ]
    assert all((a == b) == (i == j) for i, a in enumerate(distinct)
               for j, b in enumerate(distinct))
    with pytest.raises(TypeError):
        hash(ident)


def test_invertible_pairs_randomized():
    rng = random.Random(41)
    for spec in (f2_spec(), zz2_spec()):
        for _ in range(25):
            pair = rand_invertible(rng, spec, rng.choice([1, 2, 3]))
            assert is_two_sided_inverse(pair.matrix, chi._inverse(pair))


@st.composite
def _generator_sequences(draw):
    """A group, a size n in 1..4 and up to six generators: E_ij(x) with x
    a sum of up to three terms, the identity among them, and D_i(+-g)
    with either sign."""
    spec = draw(st.sampled_from([f2_spec(), zz2_spec()]))
    n = draw(st.integers(1, 4))
    element = st.one_of(
        st.just(spec.identity()),
        st.integers(0, 10**6).map(lambda seed: rand_element(random.Random(seed), spec, 2)))
    coeff = st.sampled_from([-2, -1, 1, 2])
    gens = []
    for _ in range(draw(st.integers(0, 6))):
        i = draw(st.integers(0, n - 1))
        if n > 1 and draw(st.booleans()):
            j = draw(st.integers(0, n - 2))
            terms = draw(st.lists(st.tuples(element, coeff), min_size=1, max_size=3))
            x = ring_add(*(ring(g, c) for g, c in terms))
            gens.append(ElementaryGen(i, j + (j >= i), x))
        else:
            gens.append(DiagonalGen(i, draw(st.sampled_from([1, -1])), draw(element)))
    return spec, n, gens


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(_generator_sequences())
def test_built_pairs_are_inverse_by_construction(case):
    # Nothing multiplies a certified matrix out; the inverse chi composes
    # from its generators must be exact on its own.
    spec, n, gens = case
    pair = build_invertible(spec, n, gens)
    assert is_two_sided_inverse(pair.matrix, chi._inverse(pair))
    assert pair.provenance == tuple(gens)


def test_build_invertible_runs_one_column_pass(monkeypatch):
    # A certified matrix is its matrix and its generators: building it
    # makes one column-operation pass, and no inverse is built or held.
    spec = zz2_spec()
    t, s = spec.generator("t"), spec.generator("s")
    column_ops = groupring._column_ops
    calls = []
    monkeypatch.setattr(groupring, "_column_ops",
                        lambda m, gens: calls.append(len(gens)) or column_ops(m, gens))
    sequences = ([], [DiagonalGen(0, -1, s)],
                 [ElementaryGen(0, 1, ring(t)), DiagonalGen(1, 1, t),
                  ElementaryGen(1, 0, ring(s))])
    for gens in sequences:
        pair = build_invertible(spec, 2, gens)
        assert not hasattr(pair, "inverse")
    assert calls == [len(gens) for gens in sequences]


def tu_z6_spec() -> GroupSpec:
    return GroupSpec((FactorSpec.free("t", "u"), FactorSpec.abelian(("s",), torsion=[6])))


@st.composite
def _powered_sequences(draw, count=1):
    """A group among t * Z/2, free[t,u] * Z/6 and F2, a size n in 1..4
    and ``count`` lists of up to eight generators whose elements include
    proper powers such as (t*s)^2 and t^3."""
    spec = draw(st.sampled_from([zz2_spec(), tu_z6_spec(), f2_spec()]))
    n = draw(st.integers(1, 4))
    seeds = st.integers(0, 10**6)
    element = st.one_of(
        st.just(spec.identity()),
        seeds.map(lambda seed: rand_element(random.Random(seed), spec, 2)),
        st.tuples(seeds, st.integers(2, 3)).map(
            lambda se: rand_element(random.Random(se[0]), spec, 2) ** se[1]))
    coeff = st.sampled_from([-2, -1, 1, 2])
    lists = []
    for _ in range(count):
        gens = []
        for _ in range(draw(st.integers(0, 8))):
            i = draw(st.integers(0, n - 1))
            if n > 1 and draw(st.booleans()):
                j = draw(st.integers(0, n - 2))
                terms = draw(st.lists(st.tuples(element, coeff), min_size=1, max_size=3))
                x = ring_add(*(ring(g, c) for g, c in terms))
                gens.append(ElementaryGen(i, j + (j >= i), x))
            else:
                gens.append(DiagonalGen(i, draw(st.sampled_from([1, -1])), draw(element)))
        lists.append(gens)
    return (spec, n, *lists)


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(_powered_sequences())
def test_column_build_matches_the_product_build(case):
    spec, n, gens = case
    pair = build_invertible(spec, n, gens)
    assert pair.matrix == reference_build_invertible(spec, n, gens)
    assert chi._inverse(pair) == reference_inverse(pair)


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(_powered_sequences(count=3))
def test_built_and_composed_matrices_hold_no_zero(case):
    # == on columns decides equality only while no entry is empty and no
    # coefficient is 0; chi's supplied-inverse check relies on that.
    spec, n, *lists = case
    a, b, cm = (build_invertible(spec, n, gens) for gens in lists)
    composed = chi._inverse(a, b, cm)
    for m in (a.matrix, b.matrix, cm.matrix, *map(chi._inverse, (a, b, cm)), composed):
        assert len(m.cols) == n
        for col in m.cols:
            assert set(col) <= set(range(n))
            assert all(terms and 0 not in terms.values() for terms in col.values())


def _cyclic(spec, n):
    """n generators E(i, i mod n + 1, "t - s"), whose entries grow fast."""
    x = _parse_ring(spec, "t - s")
    return [ElementaryGen(i, (i + 1) % n, x) for i in range(n)]


def test_term_limit_refuses_a_growing_sequence():
    spec = zz2_spec()
    pair = build_invertible(spec, 12, _cyclic(spec, 12))
    terms = sum(len(x) for col in pair.matrix.cols for x in col.values())
    assert 4000 < terms <= MAX_MATRIX_TERMS
    with pytest.raises(RejectedError, match=f"limit of {MAX_MATRIX_TERMS} terms"):
        build_invertible(spec, 24, _cyclic(spec, 24))


def test_term_limit_is_checked_before_each_generator(monkeypatch):
    # E(1,2,x) on the 2x2 identity forms |x| products; the limit admits
    # the matrix's two terms plus three products and no more.
    spec = zz2_spec()
    x = _parse_ring(spec, "t + s + t^2")
    monkeypatch.setattr(groupring, "MAX_MATRIX_TERMS", 5)
    assert entry(build_invertible(spec, 2, [ElementaryGen(0, 1, x)]).matrix, 0, 1) == x
    monkeypatch.setattr(groupring, "MAX_MATRIX_TERMS", 4)
    with pytest.raises(RejectedError):
        build_invertible(spec, 2, [ElementaryGen(0, 1, x)])


def test_letter_limit_is_checked_before_each_generator(monkeypatch):
    # A column's bound grows by the letters of each unit that scales it and
    # of the longest term multiplied into it, even where letters cancel.
    spec = zz2_spec()
    t = spec.generator("t")
    x = _parse_ring(spec, "s + t^2")
    monkeypatch.setattr(groupring, "MAX_ENTRY_LETTERS", 5)
    fits = [DiagonalGen(0, 1, t ** 3), ElementaryGen(0, 1, x)]
    assert entry(build_invertible(spec, 2, fits).matrix, 0, 1) == ring_mul(ring(t ** 3), x)
    for last in (DiagonalGen(0, 1, t ** -3), ElementaryGen(1, 0, ring(t))):
        with pytest.raises(RejectedError, match="limit of 5 letters"):
            build_invertible(spec, 2, fits + [last])
    monkeypatch.undo()
    count = MAX_ENTRY_LETTERS // 100
    gens = [DiagonalGen(0, 1, t ** 100)] * count
    assert entry(chi._inverse(build_invertible(spec, 1, gens)), 0, 0) == ring(t ** (-100 * count))
    with pytest.raises(RejectedError, match=f"limit of {MAX_ENTRY_LETTERS} letters"):
        build_invertible(spec, 1, gens + gens[:1])


def test_generator_checks_raise_dimension_errors():
    spec = zz2_spec()
    one = ring(spec.identity())
    for gen in (ElementaryGen(0, 0, one), ElementaryGen(0, 2, one),
                DiagonalGen(2, 1, spec.identity()), DiagonalGen(0, 2, spec.identity())):
        with pytest.raises(DimensionError):
            build_invertible(spec, 2, [gen])
    # An element of another group is refused by ``multiply``.
    x = f2_spec().generator("x")
    for gen in (DiagonalGen(0, 1, x), ElementaryGen(0, 1, ring(x))):
        with pytest.raises(ContextError):
            build_invertible(spec, 2, [gen])


def test_errors():
    spec = zz2_spec()
    with pytest.raises(ContextError):
        ring_mul(ring(spec.identity()), ring(f2_spec().identity()))
    with pytest.raises(DimensionError):
        ring_matmul(RingMatrix.identity(spec, 2), RingMatrix.identity(spec, 3))
    with pytest.raises(DimensionError):
        gen_matrix(ElementaryGen(0, 0, ring(spec.identity())), spec, 2)

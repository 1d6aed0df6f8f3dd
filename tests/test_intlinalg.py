"""Smith normal form and quotient presentations, exact over Z."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from sympy import ZZ, Matrix
from sympy.matrices.normalforms import smith_normal_form as smith_normal_form_sympy

from obkit.errors import DimensionError
from obkit.intlinalg import (
    IntMatrix,
    QuotientPresentation,
    _row_apply,
    smith_normal_form,
    solve,
)
from support import (
    NON_SMITH_LATTICES,
    det,
    invariant_factors,
    rand_unimodular,
    reference_row_apply,
)


def check_snf(m):
    u, s, v = smith_normal_form(m)
    assert (u @ m @ v) == s
    assert abs(det(u)) == 1
    assert abs(det(v)) == 1
    diag = [s.entries[i][i] for i in range(min(m.rows, m.cols))]
    for i in range(m.rows):
        for j in range(m.cols):
            if i != j:
                assert s.entries[i][j] == 0
    for d in diag:
        assert d >= 0
    for a, b in zip(diag, diag[1:]):
        if a == 0:
            assert b == 0
        else:
            assert b % a == 0
    return tuple(diag)


def test_snf_identity():
    assert check_snf(IntMatrix.identity(3)) == (1, 1, 1)


def test_snf_zero():
    m = IntMatrix([[0] * 3] * 2)
    _, s, _ = smith_normal_form(m)
    assert all(x == 0 for row in s.entries for x in row)


def test_snf_known_example():
    # d1 = gcd of entries = 2, d1*d2 = |det| = |16-24| = 8, so (2, 4)
    assert invariant_factors(IntMatrix([[2, 4], [6, 8]])) == (2, 4)


def test_snf_empty_and_thin():
    check_snf(IntMatrix([], cols=4))
    check_snf(IntMatrix([[5]]))
    check_snf(IntMatrix([[0, 0, 7]]))


def test_snf_randomized_properties():
    rng = random.Random(23)
    for _ in range(200):
        r = rng.randint(1, 8)
        c = rng.randint(1, 8)
        m = IntMatrix([[rng.randint(-20, 20) for _ in range(c)] for _ in range(r)])
        diag = check_snf(m)
        left = rand_unimodular(rng, r)
        right = rand_unimodular(rng, c)
        assert invariant_factors(left @ m @ right) == diag


def test_solve():
    a = IntMatrix([[2, 0], [0, 3]])
    b = IntMatrix([[4], [9]])
    x = solve(a, b)
    assert x is not None and a @ x == b
    assert solve(a, IntMatrix([[1], [0]])) is None
    assert solve(IntMatrix([[2, 3]]), IntMatrix([[1]])) is not None
    # every column from one Smith form; one unsolvable column is None
    b = IntMatrix([[4, 2, 0], [9, -3, 6]])
    assert a @ solve(a, b) == b
    assert solve(a, IntMatrix([[4, 1], [9, 3]])) is None


def test_coset_reduce_examples():
    p = QuotientPresentation(2, [(2, 0)])
    assert p.reduce((3, 5)) == (1, 5)
    assert p.reduce((0, 0)) == (0, 0)
    trivial = QuotientPresentation(2, [(1, 0), (0, 1)])
    assert trivial.reduce((7, -3)) == (0, 0)


class _Unreadable:
    def __getattr__(self, name):
        raise AssertionError(f"read V.{name}")


def test_reduce_without_torsion_coordinates_does_not_read_v():
    # No d_i != 0, so no y_i is formed and x is its own representative.
    for p in (QuotientPresentation(3), QuotientPresentation(2, [(0, 0)])):
        p.v = _Unreadable()
        x = [4, -1, 0][:p.rank]
        assert p.reduce(x) == tuple(x)
        assert p.reduce((0,) * p.rank) == (0,) * p.rank


def test_coset_membership():
    p = QuotientPresentation(1, [(2,)])
    assert p.is_zero((4,))
    assert not p.is_zero((3,))
    q = QuotientPresentation(2, [(1, 1), (0, 2)])
    assert q.is_zero((1, -1))


def test_coset_reduce_is_homomorphism():
    rng = random.Random(29)
    p = QuotientPresentation(3, [(2, 0, 4), (0, 6, 2)])
    for _ in range(300):
        x = [rng.randint(-30, 30) for _ in range(3)]
        y = [rng.randint(-30, 30) for _ in range(3)]
        combined = p.reduce([a + b for a, b in zip(p.reduce(x), p.reduce(y))])
        assert p.reduce([a + b for a, b in zip(x, y)]) == combined


def test_dimension_errors():
    p = QuotientPresentation(2, [(2, 0)])
    with pytest.raises(DimensionError):
        p.reduce((1, 2, 3))
    with pytest.raises(DimensionError):
        QuotientPresentation(2, [(1, 2, 3)])


def test_group_invariants():
    p = QuotientPresentation(3, [(2, 0, 0)])
    assert p.group_invariants() == (2, 0, 0)
    assert p.free_rank == 2
    assert p.torsion_factors == (2,)


def _matrices(max_rows=8, max_cols=8):
    """Dense integer matrices, or tall sparse ones shaped like Wh oracle
    relations: each row holds a 1 and at most two small entries."""
    dense = st.integers(1, max_rows).flatmap(lambda r: st.integers(1, max_cols).flatmap(
        lambda c: st.lists(st.lists(st.integers(-20, 20), min_size=c, max_size=c),
                           min_size=r, max_size=r)))

    @st.composite
    def sparse(draw):
        c = draw(st.integers(1, max_cols))
        r = draw(st.integers(c, max_rows))
        rows = []
        for _ in range(r):
            row = [0] * c
            row[draw(st.integers(0, c - 1))] += 1
            for _ in range(draw(st.integers(0, 2))):
                row[draw(st.integers(0, c - 1))] -= draw(st.integers(-3, 3))
            rows.append(row)
        return rows

    return st.one_of(dense, sparse()).map(IntMatrix)


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(_matrices())
def test_snf_matches_sympy(m):
    u, s, v = smith_normal_form(m)
    assert u @ m @ v == s
    assert abs(det(u)) == 1 and abs(det(v)) == 1
    expected = smith_normal_form_sympy(Matrix(m.entries), domain=ZZ)
    n = min(m.rows, m.cols)
    assert invariant_factors(m) == tuple(abs(expected[i, i]) for i in range(n))


@st.composite
def _row_products(draw):
    """A vector and a matrix with as many rows, either possibly empty."""
    r = draw(st.integers(0, 6))
    c = draw(st.integers(0, 6))
    entries = st.integers(-9, 9)
    rows = draw(st.lists(st.lists(entries, min_size=c, max_size=c), min_size=r, max_size=r))
    vec = draw(st.lists(entries, min_size=r, max_size=r))
    return vec, IntMatrix(rows, cols=c)


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(_row_products())
def test_row_apply_matches_dense_product(args):
    vec, m = args
    assert _row_apply(vec, m) == reference_row_apply(vec, m)
    assert _row_apply([0] * m.rows, m) == (0,) * m.cols


@settings(max_examples=100, deadline=None, derandomize=True, database=None)
@given(_matrices(6, 6), st.data())
def test_reduce_matches_dense_reference(m, data):
    p = QuotientPresentation(m.cols, m.entries)
    for _ in range(5):
        x = data.draw(st.lists(st.integers(-30, 30), min_size=m.cols, max_size=m.cols))
        y = list(reference_row_apply(x, p.v))
        for i, d in enumerate(p.diag):
            if d:
                y[i] %= d
        assert reference_row_apply(p.reduce(x), p.v) == tuple(y)
    assert p.reduce([0] * m.cols) == (0,) * m.cols


def test_fixed_lattices_need_column_operations():
    for rank, relations in NON_SMITH_LATTICES:
        assert QuotientPresentation(rank, relations).v != IntMatrix.identity(rank)


@st.composite
def _lattices(draw):
    """A relation lattice of rank at most 4: one of NON_SMITH_LATTICES or
    up to four random relations."""
    if draw(st.booleans()):
        rank, relations = draw(st.sampled_from(NON_SMITH_LATTICES))
    else:
        rank = draw(st.integers(1, 4))
        row = st.lists(st.integers(-6, 6), min_size=rank, max_size=rank)
        relations = draw(st.lists(row, max_size=4))
    return QuotientPresentation(rank, relations)


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(_lattices(), st.data())
def test_reduce_is_the_canonical_representative_in_the_original_basis(p, data):
    x = data.draw(st.lists(st.integers(-40, 40), min_size=p.rank, max_size=p.rank))
    smith = list(reference_row_apply(x, p.v))
    for i, d in enumerate(p.diag):
        if d:
            smith[i] %= d
    rep = p.reduce(x)
    # x @ V mod d names the coset and the representative maps onto it, so
    # rep lies in x's coset and is the one choice with reduced Smith
    # coordinates.
    assert reference_row_apply(rep, p.v) == tuple(smith)
    assert p.reduce(rep) == rep
    relation = data.draw(st.lists(st.integers(-3, 3), min_size=p.relations.rows,
                                  max_size=p.relations.rows))
    shifted = [a + b for a, b in zip(x, reference_row_apply(relation, p.relations))]
    assert p.reduce(shifted) == rep

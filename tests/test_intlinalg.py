"""Smith normal form and quotient presentations, exact over Z."""

import random

import pytest

from obkit.errors import DimensionError
from obkit.intlinalg import (
    IntMatrix,
    QuotientPresentation,
    invariant_factors,
    smith_normal_form,
    solve,
)
from support import rand_unimodular


def check_snf(m):
    u, s, v = smith_normal_form(m)
    assert (u @ m @ v) == s
    assert abs(u.det()) == 1
    assert abs(v.det()) == 1
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
    m = IntMatrix.zeros(2, 3)
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
    x = solve(a, (4, 9))
    assert x is not None and a.apply(x) == (4, 9)
    assert solve(a, (1, 0)) is None
    assert solve(IntMatrix([[2, 3]]), (1,)) is not None


def test_coset_reduce_examples():
    p = QuotientPresentation(2, [(2, 0)])
    assert p.reduce((3, 5)) == (1, 5)
    assert p.reduce((0, 0)) == (0, 0)
    trivial = QuotientPresentation(2, [(1, 0), (0, 1)])
    assert trivial.reduce((7, -3)) == (0, 0)


def test_coset_membership():
    p = QuotientPresentation(1, [(2,)])
    assert p.is_zero((4,))
    assert not p.is_zero((3,))
    q = QuotientPresentation(2, [(1, 1), (0, 2)])
    assert q.is_zero((1, -1))


def test_coset_reduce_is_homomorphism():
    rng = random.Random(29)
    p = QuotientPresentation(3, [(2, 0, 4), (0, 6, 2)])
    mods = []
    n = min(p.relations.rows, p.rank)
    for i in range(p.rank):
        d = p.diag[i] if i < n else 0
        mods.append(d)
    for _ in range(300):
        x = [rng.randint(-30, 30) for _ in range(3)]
        y = [rng.randint(-30, 30) for _ in range(3)]
        combined = []
        for a, b, d in zip(p.reduce(x), p.reduce(y), mods):
            combined.append((a + b) % d if d else a + b)
        assert p.reduce([a + b for a, b in zip(x, y)]) == tuple(combined)


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

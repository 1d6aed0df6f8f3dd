"""Word problem, normal forms and conjugacy in free products."""

import random

import pytest

from obkit.errors import ContextError, UnsupportedError
from obkit.groups import (
    FactorSpec,
    GroupElement,
    are_conjugate,
    conjugacy_canonical,
    conjugacy_canonical_with_conjugator,
    _cyclically_reduce,
    enumerate_elements,
    inverse,
    multiply,
)
from support import f2_spec, mixed_spec, rand_element, zmod_spec, zz2_spec, zz3_spec

ALL_SPECS = [f2_spec(), zz2_spec(), zz3_spec(), mixed_spec()]


def test_free_reduction():
    spec = f2_spec()
    x, y = spec.generator("x"), spec.generator("y")
    assert multiply(multiply(x, y), multiply(inverse(y), x)) == x * x
    assert str(x * x) == "x^2"


def test_torsion_exponents():
    spec = zmod_spec(3)
    s = spec.generator("s")
    assert (s * s) * (s * s) == s
    assert str(s ** 2) == "s^2"


def test_negative_free_rank_is_refused():
    # one name = -1 + two torsion orders would otherwise pass the name count
    with pytest.raises(ValueError, match="free_rank must be at least 0"):
        FactorSpec.abelian(["s"], free_rank=-1, torsion=[2, 3])


def test_cross_factor_cancellation():
    spec = zz2_spec()
    t, s = spec.generator("t"), spec.generator("s")
    assert multiply(t * s, s * inverse(t)).is_identity


def test_inverse_examples():
    spec = f2_spec()
    x, y = spec.generator("x"), spec.generator("y")
    assert inverse(spec.identity()).is_identity
    assert inverse(x * y) == inverse(y) * inverse(x)
    s = zz2_spec().generator("s")
    assert inverse(s) == s


def test_context_mismatch():
    with pytest.raises(ContextError):
        multiply(f2_spec().generator("x"), zz2_spec().generator("t"))


def test_cyclic_reduce_visible_conjugation():
    spec = zz3_spec()
    t, s = spec.generator("t"), spec.generator("s")
    core, conj = _cyclically_reduce(t * s * inverse(t))
    assert core == s and conj == t


def test_cyclic_reduce_identity():
    spec = f2_spec()
    core, conj = _cyclically_reduce(spec.identity())
    assert core.is_identity and conj.is_identity


def test_cyclic_reduce_fixed_point():
    # x*y*x^-1*x normalizes to x*y, which is already cyclically reduced:
    # one more rotation-reduction pass must not change the core.
    spec = f2_spec()
    x, y = spec.generator("x"), spec.generator("y")
    g = x * y * inverse(x) * x
    core, conj = _cyclically_reduce(g)
    assert core == x * y and conj.is_identity
    again, conj2 = _cyclically_reduce(core)
    assert again == core and conj2.is_identity


def test_reduce_decomposition_property():
    rng = random.Random(7)
    for spec in ALL_SPECS:
        for _ in range(200):
            g = rand_element(rng, spec)
            core, conj = _cyclically_reduce(g)
            assert multiply(multiply(conj, core), inverse(conj)) == g


def test_canonical_order_two():
    spec = zz2_spec()
    s = spec.generator("s")
    assert conjugacy_canonical(s) == conjugacy_canonical(inverse(s)) == s


def test_canonical_free_conjugate():
    spec = f2_spec()
    x, y = spec.generator("x"), spec.generator("y")
    assert conjugacy_canonical(x * y * inverse(x)) == conjugacy_canonical(y)


def test_canonical_against_quotient_and_rotations():
    # canonical(s*t*s^2*t^-1*s^2) in Z * Z/3: the image under killing t is
    # s^(1+2+2) = s^2, and rotation enumeration of the cyclic core must
    # contain the canonical form.
    spec = zz3_spec()
    t, s = spec.generator("t"), spec.generator("s")
    g = s * t * (s ** 2) * inverse(t) * (s ** 2)
    rep = conjugacy_canonical(g)
    assert rep == s ** 2

    exponent = sum(
        payload[0] for fi, payload in g.syllables if spec.factors[fi].kind == "abelian"
    )
    assert exponent % 3 == 2

    core, _ = _cyclically_reduce(g)
    syls = core.syllables
    rotations = [
        GroupElement(spec, syls[r:] + syls[:r]) for r in range(max(1, len(syls)))
    ]
    assert rep in rotations


def test_are_conjugate_examples():
    spec = zz2_spec()
    t, s = spec.generator("t"), spec.generator("s")
    assert are_conjugate(s, inverse(s))
    f2 = f2_spec()
    assert not are_conjugate(f2.generator("x"), f2.generator("y"))
    assert are_conjugate(t * s, s * t)
    # explicit conjugator: s * (t*s) * s^-1 = s*t
    assert multiply(multiply(s, t * s), inverse(s)) == s * t


def test_group_laws_randomized():
    rng = random.Random(11)
    for spec in ALL_SPECS:
        e = spec.identity()
        for _ in range(1000):
            g = rand_element(rng, spec)
            h = rand_element(rng, spec)
            k = rand_element(rng, spec)
            assert multiply(multiply(g, h), k) == multiply(g, multiply(h, k))
            assert multiply(g, e) == g and multiply(e, g) == g
            assert multiply(g, inverse(g)).is_identity


def test_normal_form_idempotent():
    rng = random.Random(13)
    for spec in ALL_SPECS:
        for _ in range(200):
            g = rand_element(rng, spec)
            rebuilt = spec.identity()
            for syl in g.syllables:
                rebuilt = multiply(rebuilt, GroupElement(spec, (syl,)))
            assert rebuilt == g


def test_conjugacy_soundness_randomized():
    rng = random.Random(17)
    for spec in ALL_SPECS:
        for _ in range(300):
            g = rand_element(rng, spec)
            c = rand_element(rng, spec)
            conjugated = multiply(multiply(c, g), inverse(c))
            assert are_conjugate(g, conjugated)
            assert conjugacy_canonical(conjugated) == conjugacy_canonical(g)
            rep = conjugacy_canonical(g)
            assert conjugacy_canonical(rep) == rep


def test_conjugacy_witness_and_bounded_search():
    # positive answers come with an explicit verified conjugator; negative
    # answers survive a brute-force search over short conjugators
    rng = random.Random(19)
    spec = zz3_spec()
    singles = [spec.generator(n, e) for n in spec.generator_names()
               for e in (-2, -1, 1, 2)]
    pool = [spec.identity()] + singles
    pool += [multiply(a, b) for a in singles for b in singles]
    for _ in range(150):
        g = rand_element(rng, spec, 3)
        h = rand_element(rng, spec, 3)
        if are_conjugate(g, h):
            rep_g, cg = conjugacy_canonical_with_conjugator(g)
            rep_h, ch = conjugacy_canonical_with_conjugator(h)
            assert rep_g == rep_h
            witness = multiply(ch, inverse(cg))
            assert multiply(multiply(witness, g), inverse(witness)) == h
        else:
            assert all(
                multiply(multiply(c, g), inverse(c)) != h for c in pool
            )


def test_conjugacy_completeness_small_finite_groups():
    for orders in [(2,), (3,), (4,), (6,), (2, 2), (8,), (12,), (2, 2, 2, 2)]:
        spec = zmod_spec(*orders)
        elements = enumerate_elements(spec)
        assert len(elements) <= 16
        for g in elements:
            for h in elements:
                brute = any(
                    multiply(multiply(c, g), inverse(c)) == h for c in elements
                )
                assert are_conjugate(g, h) == brute


def test_enumerate():
    assert len(enumerate_elements(zmod_spec(2))) == 2
    assert len(enumerate_elements(zmod_spec(2, 2))) == 4
    with pytest.raises(UnsupportedError):
        enumerate_elements(zz2_spec())


def test_enumerate_no_duplicates():
    elements = enumerate_elements(zmod_spec(2, 3))
    assert len(set(elements)) == 6
    assert elements[0].is_identity


def test_word_rendering_round_shape():
    # within one abelian factor the exponents merge into a single syllable,
    # rendered in generator order
    spec = mixed_spec()
    g = spec.generator("x", 2) * spec.generator("s", 3) * spec.generator("a", -1)
    assert str(g) == "x^2*a^-1*s^3"
    assert str(spec.identity()) == "1"

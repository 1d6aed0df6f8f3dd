"""The lens sign calculus: involution, suspension, stabilization, the
clam double, and the retraction value rho that decides the circle
conclusion and every power of it."""

import random

import pytest

from obkit.errors import ContextError, RejectedError
from obkit.gmodules import GModule, ModuleMap
from obkit.groups import inverse
from obkit.intlinalg import QuotientPresentation
from obkit.obstruction import (
    LensClass,
    clam_double,
    involution,
    make_lens,
    retraction_invariant,
    stable_obstruction,
    stable_sum,
)
from obkit.wh1 import WhElement
from support import (
    framing_module,
    rand_element,
    suspend,
    trivial_module,
    tu_spec,
    zero_framing,
    zz2_spec,
)


def paper_setup(spec=None):
    spec = spec or tu_spec()
    pi2 = GModule(spec, QuotientPresentation(2), elements={"alpha": (1, 0)}, name="pi2")
    z = trivial_module(spec, 1, name="Z")
    r = ModuleMap(pi2, z, [[1, 0]], equivariant=True, name="r")
    sigma = spec.generator(spec.generator_names()[-1])
    lens = make_lens(pi2, pi2.elements["alpha"], sigma, zero_framing(spec))
    return spec, pi2, z, r, sigma, lens


def rand_lens(rng, spec, mod):
    sigma = rand_element(rng, spec, 3)
    while sigma.is_identity:
        sigma = rand_element(rng, spec, 3)
    n = rng.randint(3, 6)
    k = rng.randint(1, n - 1)
    main_terms = [
        ([rng.randint(-3, 3) for _ in range(mod.rank)], rand_element(rng, spec, 3))
        for _ in range(rng.randint(0, 3))
    ]
    framing_terms = [((rng.randint(0, 1),), rand_element(rng, spec, 2))
                     for _ in range(rng.randint(0, 2))]
    return LensClass(
        n=n, k=k,
        framing=WhElement.build(framing_module(spec), framing_terms),
        main=WhElement.build(mod, main_terms),
    )


def test_make_lens_paper_value():
    _, pi2, _, _, sigma, lens = paper_setup()
    assert lens.main == WhElement.build(pi2, [((1, 0), sigma)])
    assert lens.framing.is_zero
    assert (lens.k, lens.n) == (1, 3)


def test_make_lens_rejections():
    spec, pi2, _, _, sigma, _ = paper_setup()
    with pytest.raises(RejectedError):
        make_lens(pi2, pi2.elements["alpha"], spec.identity(), zero_framing(spec))
    with pytest.raises(RejectedError):
        make_lens(pi2, pi2.elements["alpha"], sigma, zero_framing(spec), k=0, n=3)
    with pytest.raises(RejectedError):
        make_lens(pi2, pi2.elements["alpha"], sigma, zero_framing(spec), k=3, n=3)


def test_make_lens_linear_coefficient():
    spec, pi2, _, _, sigma, _ = paper_setup()
    doubled = make_lens(pi2, [2 * x for x in pi2.elements["alpha"]], sigma, zero_framing(spec))
    assert doubled.main == WhElement.build(pi2, [((2, 0), sigma)])


def test_involution_paper_case():
    _, pi2, _, _, sigma, lens = paper_setup()
    eps = involution(lens)
    assert eps.k == 2 and eps.n == 3
    assert eps.main == WhElement.build(pi2, [((-1, 0), inverse(sigma))])


def test_involution_zero_main():
    spec, pi2, _, _, sigma, _ = paper_setup()
    lens = LensClass(n=3, k=1, framing=zero_framing(spec), main=WhElement.zero(pi2))
    eps = involution(lens)
    assert eps.main.is_zero and eps.k == 2


def test_involution_is_involution_randomized():
    rng = random.Random(101)
    spec = zz2_spec()
    mod = trivial_module(spec, 2)
    for _ in range(100):
        lens = rand_lens(rng, spec, mod)
        assert involution(involution(lens)) == lens


def test_stable_obstruction_signs():
    _, pi2, _, _, sigma, lens = paper_setup()
    _, main = stable_obstruction(lens)
    assert main == WhElement.build(pi2, [((-1, 0), sigma)])
    even = LensClass(n=3, k=2, framing=lens.framing, main=lens.main)
    _, main_even = stable_obstruction(even)
    assert main_even == lens.main
    zero = LensClass(n=3, k=1, framing=lens.framing, main=WhElement.zero(pi2))
    assert stable_obstruction(zero)[1].is_zero


def test_suspension_signs_randomized():
    rng = random.Random(103)
    spec = zz2_spec()
    mod = trivial_module(spec, 2)
    for _ in range(100):
        lens = rand_lens(rng, spec, mod)
        base = stable_obstruction(lens)
        plus = stable_obstruction(suspend(lens, "+"))
        minus = stable_obstruction(suspend(lens, "-"))
        assert plus == base
        assert minus == (base[0].scale(-1), base[1].scale(-1))
        # sigma_- equals -sigma_+ on the stable level
        assert minus[1] == plus[1].scale(-1)
        double_minus = stable_obstruction(suspend(suspend(lens, "-"), "-"))
        assert double_minus == base


def test_suspend_dimension_bookkeeping():
    _, _, _, _, _, lens = paper_setup()
    assert suspend(lens, "+").n == 4 and suspend(lens, "+").k == 1
    assert suspend(lens, "-").n == 4 and suspend(lens, "-").k == 2
    with pytest.raises(ValueError):
        suspend(lens, "x")


def test_clam_double_paper_values():
    _, pi2, _, r, sigma, lens = paper_setup()
    double = clam_double(lens)
    assert double == (lens, involution(lens))
    _, main = stable_sum(double)
    expected = WhElement.build(pi2, [((-1, 0), sigma), ((-1, 0), inverse(sigma))])
    assert main == expected


def test_clam_double_rejects_other_configurations():
    _, _, _, _, _, lens = paper_setup()
    with pytest.raises(RejectedError):
        clam_double(suspend(lens, "+"))


def test_clam_double_zero_alpha():
    spec, pi2, _, r, sigma, _ = paper_setup()
    zero_lens = LensClass(n=3, k=1, framing=zero_framing(spec), main=WhElement.zero(pi2))
    _, main = stable_sum(clam_double(zero_lens))
    assert main.is_zero


def test_stable_sum_refuses_lenses_over_different_modules():
    spec, pi2, _, _, sigma, lens = paper_setup()
    other = GModule(spec, QuotientPresentation(2), name="other")
    stranger = make_lens(other, (1, 0), sigma, zero_framing(spec))
    with pytest.raises(ContextError, match="Wh elements over different contexts"):
        stable_sum((lens, stranger))
    framing = WhElement.zero(trivial_module(spec, 1, [(2,)], name="Z2b"))
    with pytest.raises(ContextError, match="Wh elements over different contexts"):
        stable_sum((lens, LensClass(n=3, k=1, framing=framing, main=lens.main)))


def test_order_two_sigma_combines():
    spec = zz2_spec()
    pi2 = GModule(spec, QuotientPresentation(2), elements={"alpha": (1, 0)}, name="pi2")
    lens = make_lens(pi2, pi2.elements["alpha"], spec.generator("s"), zero_framing(spec))
    _, main = stable_sum(clam_double(lens))
    assert main == WhElement.build(pi2, [((-2, 0), spec.generator("s"))])


def rho(lenses, r):
    """The retraction value of the stabilized sum of the lenses."""
    return retraction_invariant(stable_sum(lenses)[1], r)


def test_retraction_invariant_values():
    spec, pi2, z, r, sigma, lens = paper_setup()
    rho_g = rho((lens,), r)
    assert rho_g == WhElement.build(z, [((-1,), sigma)])
    assert str(rho_g) == "-[u]"
    assert rho_g == retraction_invariant(stable_obstruction(lens)[1], r)
    rho_d = rho(clam_double(lens), r)
    assert str(rho_d) == "-[u] - [u^-1]"


def test_retraction_requires_trivial_z_target():
    spec, pi2, z, r, sigma, lens = paper_setup()
    _, main = stable_obstruction(lens)
    z2 = GModule(spec, QuotientPresentation(1, [(2,)]))
    with pytest.raises(RejectedError, match="retraction target must be trivial-action Z"):
        retraction_invariant(main, ModuleMap(pi2, z2, [[1, 0]]))
    z_twisted = GModule(spec, QuotientPresentation(1), action={"t": [[-1]]})
    with pytest.raises(RejectedError, match="retraction target must be trivial-action Z"):
        retraction_invariant(main, ModuleMap(pi2, z_twisted, [[1, 0]]))
    z2_rank = trivial_module(spec, 2)
    with pytest.raises(RejectedError, match="retraction target must be trivial-action Z"):
        retraction_invariant(main, ModuleMap(pi2, z2_rank, [[1, 0], [0, 1]]))


def test_retraction_requires_its_source_and_equivariance():
    spec, pi2, z, r, sigma, lens = paper_setup()
    _, main = stable_obstruction(lens)
    other = GModule(spec, QuotientPresentation(2), name="other")
    with pytest.raises(ContextError,
                       match="retraction source does not match the coefficient module"):
        retraction_invariant(main, ModuleMap(other, z, [[1, 0]], equivariant=True))
    swap = GModule(spec, QuotientPresentation(2), action={"u": [[0, 1], [1, 0]]})
    lens = make_lens(swap, (1, 0), sigma, zero_framing(spec))
    with pytest.raises(RejectedError, match="retraction coefficient map must be equivariant"):
        retraction_invariant(lens.main, ModuleMap(swap, z, [[1, 0]]))


def test_retraction_additive_over_pieces():
    rng = random.Random(107)
    spec = zz2_spec()
    pi2 = GModule(spec, QuotientPresentation(2), elements={"alpha": (1, 0)}, name="pi2")
    z = trivial_module(spec, 1)
    r = ModuleMap(pi2, z, [[1, 0]], equivariant=True)
    for _ in range(50):
        lenses = [rand_lens(rng, spec, pi2) for _ in range(rng.randint(1, 3))]
        total = rho(lenses, r)
        by_parts = None
        for lens in lenses:
            part = rho((lens,), r)
            by_parts = part if by_parts is None else by_parts + part
        assert total == by_parts


def test_power_report():
    # the power verdict is read off rho; each power is checked here
    _, pi2, _, r, sigma, lens = paper_setup()
    rho_d = rho(clam_double(lens), r)
    assert not rho_d.is_zero
    assert all(not rho_d.scale(n).is_zero for n in range(1, 65))
    zero_lens = LensClass(n=3, k=1, framing=lens.framing,
                          main=WhElement.zero(pi2))
    zero_rho = rho(clam_double(zero_lens), r)
    assert zero_rho.is_zero
    assert all(zero_rho.scale(n).is_zero for n in range(1, 9))


def test_power_verdict_matches_every_power_randomized():
    # rho lies in a free abelian group, so n*rho vanishes exactly when rho does
    rng = random.Random(113)
    spec = zz2_spec()
    swap = GModule(spec, QuotientPresentation(3),
                   action={"s": [[1, 0, 0], [0, 0, 1], [0, 1, 0]]}, name="pi2")
    z = trivial_module(spec, 1)
    zeros = 0
    for _ in range(150):
        mod = rng.choice([swap, trivial_module(spec, 2)])
        if mod is swap:
            a, b = rng.randint(-2, 2), rng.randint(-2, 2)
            row = [a, b, b]
        else:
            row = [rng.randint(-2, 2), rng.randint(-2, 2)]
        r = ModuleMap(mod, z, [row], equivariant=True)
        lenses = tuple(rand_lens(rng, spec, mod) for _ in range(rng.randint(1, 2)))
        value = rho(lenses, r)
        for n in range(1, 65):
            assert value.scale(n).is_zero == value.is_zero
        zeros += value.is_zero
    assert 0 < zeros < 150


def test_power_scaling_torsion_free():
    spec, pi2, z, r, sigma, lens = paper_setup()
    rho_d = rho(clam_double(lens), r)
    for n in (1, 3, 17):
        assert not rho_d.scale(n).is_zero
    # order-2 sigma: rho = -2[s], so 3*rho = -6[s] != 0
    spec2 = zz2_spec()
    pi2b = GModule(spec2, QuotientPresentation(2), elements={"alpha": (1, 0)})
    zb = trivial_module(spec2, 1)
    rb = ModuleMap(pi2b, zb, [[1, 0]], equivariant=True)
    lens2 = make_lens(pi2b, pi2b.elements["alpha"], spec2.generator("s"), zero_framing(spec2))
    rho2 = rho(clam_double(lens2), rb)
    assert str(rho2) == "-2[s]"
    assert str(rho2.scale(3)) == "-6[s]"


def test_circle_conclusion():
    # the glued double is nontrivial exactly when its rho is nonzero
    spec, pi2, z, r, sigma, lens = paper_setup()
    assert rho(clam_double(lens), r) == WhElement.build(
        z, [((-1,), sigma), ((-1,), inverse(sigma))])
    zero_lens = LensClass(n=3, k=1, framing=lens.framing, main=WhElement.zero(pi2))
    assert rho(clam_double(zero_lens), r).is_zero
    # a retraction that kills alpha leaves the paper lens inconclusive
    killer = ModuleMap(pi2, z, [[0, 1]], equivariant=True)
    assert rho(clam_double(lens), killer).is_zero


def test_stable_involution_identity():
    # stable(involution(L)) main is termwise (-1)^(n-k) * (-a)[g^-1] of the raw main
    rng = random.Random(109)
    spec = zz2_spec()
    mod = trivial_module(spec, 2)
    for _ in range(100):
        lens = rand_lens(rng, spec, mod)
        _, got = stable_obstruction(involution(lens))
        sign = -1 if (lens.n - lens.k) % 2 else 1
        expected = lens.main.dualize().scale(sign)
        assert got == expected

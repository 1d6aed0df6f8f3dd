"""Index-tagged lens obstruction classes and their sign calculus: the
upside-down involution, the stabilized invariant (-1)^k * lambda, the
clam double of a lens with its upside-down copy, and the retraction
value rho of a stabilized sum.

The framing component (Z/2 coefficients) is carried through every
operation with the same sign rules but only ever set from scenario
input; it is dropped by the retraction invariant.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import ContextError, RejectedError
from .gmodules import GModule, ModuleMap
from .groups import GroupElement
from .wh1 import WhElement, induced_map

__all__ = [
    "LensClass",
    "make_lens",
    "involution",
    "stable_obstruction",
    "clam_double",
    "stable_sum",
    "retraction_invariant",
]


@dataclass(frozen=True)
class LensClass:
    """One marked lens with indices (k, k+1) on an n-manifold model."""

    n: int
    k: int
    framing: WhElement
    main: WhElement

    def __post_init__(self):
        if self.k < 1 or self.n - self.k < 1:
            raise RejectedError(
                f"index bounds violated: need 1 <= k and n-k >= 1, got k={self.k}, n={self.n}"
            )
        if self.framing.spec != self.main.spec:
            raise ContextError("framing and main parts over different groups")


def make_lens(module: GModule, alpha, sigma: GroupElement, framing: WhElement,
              k: int = 1, n: int = 3) -> LensClass:
    """A lens realizing the obstruction alpha[sigma] with the given framing
    part; alpha is a coordinate vector of ``module``."""
    if sigma.is_identity:
        raise RejectedError(
            "sigma must be nontrivial: the bracket at the identity vanishes by definition"
        )
    if sigma.spec != module.spec:
        raise ContextError("sigma and alpha live over different groups")
    main = WhElement.build(module, [(alpha, sigma)])
    return LensClass(n=n, k=k, framing=framing, main=main)


def involution(lens: LensClass) -> LensClass:
    """Turn the lens upside down: k -> n-k and termwise a[g] -> (-a)[g^-1]."""
    return LensClass(
        n=lens.n,
        k=lens.n - lens.k,
        framing=lens.framing.dualize(),
        main=lens.main.dualize(),
    )


def stable_obstruction(lens: LensClass) -> tuple[WhElement, WhElement]:
    """The stabilized invariant (-1)^k * lambda as (framing, main)."""
    sign = -1 if lens.k % 2 else 1
    return lens.framing.scale(sign), lens.main.scale(sign)


def clam_double(lens: LensClass) -> tuple[LensClass, LensClass]:
    """The lens and its upside-down copy, tops pasted to bottoms: identity
    on both ends, and pseudoisotopic to the identity by the positive
    suspension of the lens.

    Only the k=1, n=3 configuration is supported; the construction is
    specific to that case.
    """
    if (lens.k, lens.n) != (1, 3):
        raise RejectedError(
            "doubling is defined for the k=1, n=3 configuration only "
            f"(got k={lens.k}, n={lens.n})"
        )
    return lens, involution(lens)


def stable_sum(lenses) -> tuple[WhElement, WhElement]:
    """Sum of the stabilized invariants over a nonempty sequence of lenses
    over one pair of modules."""
    framing, main = stable_obstruction(lenses[0])
    for lens in lenses[1:]:
        f, m = stable_obstruction(lens)
        framing = framing + f
        main = main + m
    return framing, main


def retraction_invariant(main: WhElement, r: ModuleMap) -> WhElement:
    """rho: a stabilized main part pushed into trivial-action Z
    coefficients along the retraction r.

    Gluing the ends of a clam double gives a diffeomorphism of M x S^1;
    rho != 0 means it is not isotopic to the identity.  Its powers need
    no check of their own: the target is certified trivial-action Z, so
    rho lies in a free abelian group, where n*rho != 0 exactly when
    rho != 0, for every n >= 1.
    """
    if r.source is not main.module:
        raise ContextError("retraction source does not match the coefficient module")
    target = r.target
    if not (target.trivial_action and target.rank == 1
            and target.presentation.free_rank == 1):
        raise RejectedError("retraction target must be trivial-action Z")
    if not r.is_equivariant:
        raise RejectedError("retraction coefficient map must be equivariant")
    return induced_map(r, main)

"""Index-tagged lens obstruction classes and their sign calculus: the
upside-down involution, the stabilized invariant (-1)^k * lambda,
retraction values, and the mapping-circle conclusion rule with its
verdict on every power.

The framing component (Z/2 coefficients) is carried through every
operation with the same sign rules but only ever set from scenario
input; it is dropped by the retraction invariant.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .errors import ContextError, RejectedError
from .gmodules import GModule, ModuleMap
from .groups import GroupElement
from .wh1 import WhElement, induced_map

__all__ = [
    "LensClass",
    "PseudoisotopyClass",
    "make_lens",
    "involution",
    "stable_obstruction",
    "clam_double",
    "stable_sum",
    "retraction_invariant",
    "CircleReport",
    "circle_conclusion",
]

_EXTRAPOLATED = "paper-extrapolated: involution on nontrivial-action coefficients"


@dataclass(frozen=True)
class LensClass:
    """One marked lens with indices (k, k+1) on an n-manifold model."""

    n: int
    k: int
    framing: WhElement
    main: WhElement
    note: str = field(default="", compare=False)

    def __post_init__(self):
        if self.k < 1 or self.n - self.k < 1:
            raise RejectedError(
                f"index bounds violated: need 1 <= k and n-k >= 1, got k={self.k}, n={self.n}"
            )
        if self.framing.spec != self.main.spec:
            raise ContextError("framing and main parts over different groups")


@dataclass(frozen=True)
class PseudoisotopyClass:
    """An ordered union of lenses; the boundary flag records identity ends."""

    pieces: tuple[LensClass, ...]
    boundary: bool
    note: str = field(default="", compare=False)

    def __post_init__(self):
        if not self.pieces:
            raise RejectedError("a pseudoisotopy class needs at least one piece")
        first = self.pieces[0]
        for piece in self.pieces[1:]:
            if piece.main.module is not first.main.module:
                raise ContextError("pieces use different coefficient modules")
            if piece.framing.module is not first.framing.module:
                raise ContextError("pieces use different framing modules")


def make_lens(module: GModule, alpha, sigma: GroupElement, framing: WhElement,
              k: int = 1, n: int = 3, note: str = "") -> LensClass:
    """A lens realizing the obstruction alpha[sigma] with the given framing
    part; alpha is a coordinate vector of ``module``."""
    if sigma.is_identity:
        raise RejectedError(
            "sigma must be nontrivial: the bracket at the identity vanishes by definition"
        )
    if sigma.spec != module.spec:
        raise ContextError("sigma and alpha live over different groups")
    main = WhElement.build(module, [(alpha, sigma)])
    return LensClass(n=n, k=k, framing=framing, main=main, note=note)


def involution(lens: LensClass) -> LensClass:
    """Turn the lens upside down: k -> n-k and termwise a[g] -> (-a)[g^-1]."""
    note = lens.note
    if not lens.main.module.trivial_action and _EXTRAPOLATED not in note:
        note = f"{note} [{_EXTRAPOLATED}]".strip()
    return LensClass(
        n=lens.n,
        k=lens.n - lens.k,
        framing=lens.framing.dualize(),
        main=lens.main.dualize(),
        note=note,
    )


def stable_obstruction(lens: LensClass) -> tuple[WhElement, WhElement]:
    """The stabilized invariant (-1)^k * lambda as (framing, main)."""
    sign = -1 if lens.k % 2 else 1
    return lens.framing.scale(sign), lens.main.scale(sign)


def clam_double(lens: LensClass) -> PseudoisotopyClass:
    """The union of a lens with its upside-down copy, identity on both ends.

    Only the k=1, n=3 configuration is supported; the construction is
    specific to that case.
    """
    if (lens.k, lens.n) != (1, 3):
        raise RejectedError(
            "doubling is defined for the k=1, n=3 configuration only "
            f"(got k={lens.k}, n={lens.n})"
        )
    return PseudoisotopyClass(
        pieces=(lens, involution(lens)),
        boundary=True,
        note="pseudoisotopic to the identity: positive suspension of the lens",
    )


def stable_sum(p: PseudoisotopyClass) -> tuple[WhElement, WhElement]:
    """Sum of the stabilized invariants over the pieces."""
    framing, main = stable_obstruction(p.pieces[0])
    for piece in p.pieces[1:]:
        f, m = stable_obstruction(piece)
        framing = framing + f
        main = main + m
    return framing, main


def _check_retraction(p: PseudoisotopyClass, r: ModuleMap) -> None:
    if r.source is not p.pieces[0].main.module:
        raise ContextError("retraction source does not match the coefficient module")
    target = r.target
    if not (target.trivial_action and target.rank == 1
            and target.presentation.free_rank == 1):
        raise RejectedError("retraction target must be trivial-action Z")
    if not r.is_equivariant:
        raise RejectedError("retraction coefficient map must be equivariant")


def retraction_invariant(p: PseudoisotopyClass, r: ModuleMap) -> WhElement:
    """Push the stabilized sum into trivial-Z coefficients; framing dropped."""
    _check_retraction(p, r)
    _, main = stable_sum(p)
    return induced_map(r, main)


@dataclass(frozen=True)
class CircleReport:
    """Conclusion for the mapping circle obtained by gluing the ends."""

    status: str
    rho: WhElement
    all_powers_nontrivial: bool
    pseudoisotopic_to_identity: bool
    witness: str


def circle_conclusion(p: PseudoisotopyClass, r: ModuleMap) -> CircleReport:
    """Apply the gluing monomorphism rule to the retraction invariant.

    A nonzero invariant certifies a mapping class on the circle product
    that is nontrivial with all powers nontrivial, yet pseudoisotopic to
    the identity via the suspension witness.  The powers need no check of
    their own: the retraction target is certified trivial-action Z, so
    rho lies in a free abelian group, where n*rho != 0 exactly when
    rho != 0, for every n >= 1.
    """
    if not p.boundary:
        raise RejectedError("closing the ends requires the identity on both ends")
    rho = retraction_invariant(p, r)
    return CircleReport(
        status="inconclusive by this invariant" if rho.is_zero else "nontrivial",
        rho=rho,
        all_powers_nontrivial=not rho.is_zero,
        pseudoisotopic_to_identity=True,
        witness="positive suspension of the generating lens",
    )

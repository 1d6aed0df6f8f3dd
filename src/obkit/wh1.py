"""The second obstruction group (A[G]/A[1])_G.

Canonical form: terms at the identity are dropped, every bracket is a
conjugacy-class representative, coefficients at equal representatives
combine, and the term list is sorted.  Moving a bracket to its
representative conjugates the coefficient through the group action, an
instance of the defining coinvariance relation a[h] ~ (g.a)[g h g^-1].

For trivial coefficients the canonical form is complete: the group is a
direct sum of copies of A over nontrivial conjugacy classes.  Every
finite group obkit accepts is abelian, so there the coinvariant quotient
is one copy of A_G = A / <(g-1)a> per nontrivial element, and a
presentation of A_G by Smith normal form (``WhOracle``) decides equality
for any action without enumerating G.  Over an infinite group with
nontrivial action only the sound reductions of the canonical form apply,
and ``wh_equal`` answers None rather than guess.
"""

from __future__ import annotations

from .errors import ContextError, RejectedError, UnsupportedError
from .gmodules import GModule, ModuleMap
from .groups import (
    GroupElement,
    GroupSpec,
    conjugacy_canonical_with_conjugator,
    element_sort_key,
    inverse,
)
from .intlinalg import QuotientPresentation

__all__ = [
    "WhElement",
    "induced_map",
    "detect_nontrivial",
    "WhOracle",
    "oracle_wh_presentation",
    "wh_equal",
]

class WhElement:
    """A canonical-form element of (A[G]/A[1])_G.

    ``terms`` is a sorted tuple of (coefficient, conjugacy-canonical group
    element) pairs with nonzero coefficients and nonidentity brackets; each
    coefficient is its coset's canonical representative in the module's
    own basis (``QuotientPresentation.reduce``), so the action matrices
    apply to it directly.
    """

    __slots__ = ("module", "terms")

    def __init__(self, module: GModule, terms: tuple):
        self.module = module
        self.terms = terms

    @classmethod
    def build(cls, module: GModule, pairs) -> "WhElement":
        """Normalize raw (coefficient vector, group element) pairs."""
        acc: dict[GroupElement, list] = {}
        trivial = module.trivial_action
        for coeff, g in pairs:
            coords = tuple(int(x) for x in coeff)
            if g.spec != module.spec:
                raise ContextError("bracket over a different group")
            if g.is_identity:
                continue
            rep, conj = conjugacy_canonical_with_conjugator(g)
            if not trivial and not conj.is_identity:
                coords = module.act_vec(inverse(conj), coords)
            slot = acc.setdefault(rep, [0] * module.rank)
            for i, x in enumerate(coords):
                slot[i] += x
        terms = []
        for rep, coords in acc.items():
            red = module.presentation.reduce(coords)
            if any(red):
                terms.append((red, rep))
        terms.sort(key=lambda t: element_sort_key(t[1]))
        return cls(module, tuple(terms))

    @classmethod
    def zero(cls, module: GModule) -> "WhElement":
        return cls(module, ())

    @property
    def spec(self) -> GroupSpec:
        return self.module.spec

    @property
    def is_zero(self) -> bool:
        return not self.terms

    def _same(self, other) -> None:
        if self.module is not other.module:
            raise ContextError("Wh elements over different contexts")

    def __add__(self, other: "WhElement") -> "WhElement":
        self._same(other)
        return WhElement.build(self.module, list(self.terms) + list(other.terms))

    def scale(self, n: int) -> "WhElement":
        return WhElement.build(
            self.module, [([n * x for x in coords], g) for coords, g in self.terms]
        )

    def dualize(self) -> "WhElement":
        """Termwise a[g] -> (-a)[g^-1], then renormalize."""
        return WhElement.build(
            self.module, [([-x for x in coords], inverse(g)) for coords, g in self.terms]
        )

    def __eq__(self, other) -> bool:
        if not isinstance(other, WhElement):
            return NotImplemented
        return self.module is other.module and self.terms == other.terms

    def __hash__(self):
        return hash(self.terms)

    def __str__(self) -> str:
        if not self.terms:
            return "0"
        if self.module.rank == 1:
            parts = []
            for i, (coords, g) in enumerate(self.terms):
                c = coords[0]
                mag = "" if abs(c) == 1 else str(abs(c))
                body = f"{mag}[{g}]"
                if i == 0:
                    parts.append(body if c > 0 else f"-{body}")
                else:
                    parts.append(f"+ {body}" if c > 0 else f"- {body}")
            return " ".join(parts)
        parts = []
        for coords, g in self.terms:
            vec = ",".join(str(x) for x in coords)
            parts.append(f"({vec})[{g}]")
        return " + ".join(parts)

    def __repr__(self):
        return f"WhElement({self})"


def induced_map(phi: ModuleMap, x: WhElement) -> WhElement:
    """Apply phi to every coefficient: a[g] -> phi(a)[g], renormalized.

    For a nontrivial source action phi must be equivariant, otherwise the
    induced map is not well-defined on coinvariants.
    """
    if phi.source is not x.module:
        raise ContextError("map source does not match the element's module")
    if not phi.source.trivial_action and not phi.is_equivariant:
        raise RejectedError("induced map needs an equivariant coefficient map")
    return WhElement.build(
        phi.target, [(phi.matrix.apply(coords), g) for coords, g in x.terms]
    )


def detect_nontrivial(x: WhElement, phi: ModuleMap) -> bool:
    """Certify x != 0 by pushing coefficients into a trivial-action module."""
    if not phi.target.trivial_action:
        raise RejectedError("detection target must carry the trivial action")
    return not induced_map(phi, x).is_zero


class WhOracle:
    """The coinvariants (A[G]/A[1])_G of a finite abelian G: one copy of
    ``presentation``, A_G = A / <module relations, (g-1)a>, for each
    nonidentity element of G."""

    def __init__(self, module: GModule, presentation: QuotientPresentation):
        self.module = module
        self.presentation = presentation

    @property
    def ambient(self) -> int:
        return self.module.rank * self.module.spec.order()

    @property
    def free_rank(self) -> int:
        return (self.module.spec.order() - 1) * self.presentation.free_rank

    def group_invariants(self) -> tuple[int, ...]:
        """Those of A_G, each repeated once per nonidentity slot: d_1 | d_2
        | ... still holds, so this is the quotient's invariant-factor form."""
        copies = self.module.spec.order() - 1
        return tuple(d for d in self.presentation.group_invariants() for _ in range(copies))

    def coords(self, x: WhElement) -> dict:
        """Each nonidentity bracket's summed coefficient reduced in A_G,
        keyed by element, zeros omitted; the terms of x may be raw."""
        if x.module is not self.module:
            raise ContextError("element uses a different coefficient module")
        slots: dict[GroupElement, list] = {}
        for coords, g in x.terms:
            if not g.is_identity:
                slot = slots.setdefault(g, [0] * self.module.rank)
                for i, c in enumerate(coords):
                    slot[i] += c
        reduced = {g: self.presentation.reduce(vec) for g, vec in slots.items()}
        return {g: vec for g, vec in reduced.items() if any(vec)}


def oracle_wh_presentation(spec: GroupSpec, module: GModule) -> WhOracle:
    """Present (A tensor Z[G]) / <A[1], coinvariance> for finite G.

    A finite group here is a single abelian factor, so g h g^-1 = h and
    the relation a[h] ~ (g.a)[g h g^-1] is ((g-1)a)[h] = 0: it stays in
    the slot of h, the identity slot is killed by A[1], and every other
    slot is the same quotient A_G.  Its relations are the module's own
    rows and (g-1)e_j for every generator g and basis vector e_j.

    The generators span the same lattice as all of G: the relation of a
    product splits as (g1 g2 - 1)a = (g1 - 1)(g2 a) + (g2 - 1)a; (g-1)a
    is Z-linear in a, so (g1 - 1)(g2 a) is a sum of basis relations;
    every element of a finite group is a positive word in its
    generators; and the action laws (torsion orders, commuting
    generators) hold modulo the module relations, which A_G carries.
    So A_G, and every equality of ``coords``, are those of the
    all-elements presentation.

    The Smith form has k columns whatever |G| is, and no element of G is
    enumerated.  The module was checked when it was built, so the action
    laws hold; an infinite group raises UnsupportedError.
    """
    if module.spec != spec:
        raise ContextError("module is over a different group")
    if not spec.is_finite:
        raise UnsupportedError("the finite oracle needs a finite group")
    k = module.rank
    rows = list(module.presentation.relations.entries)
    for m in module.action.values():  # one matrix per generator
        for j in range(k):
            row = [m.entries[i][j] - (i == j) for i in range(k)]  # (g-1)e_j
            if any(row):
                rows.append(row)
    return WhOracle(module, QuotientPresentation(k, rows))


def wh_equal(x: WhElement, y: WhElement) -> bool | None:
    """Decide equality where possible; None means undecided.

    Complete for trivial actions (canonical forms) and for finite groups
    of any order (oracle coordinates); over an infinite group with
    nontrivial action, equal canonical forms certify equality and
    anything else is undecided.
    """
    if x.module is not y.module:
        raise ContextError("Wh elements over different contexts")
    if x.terms == y.terms:
        return True
    if x.module.trivial_action:
        return False
    try:
        oracle = oracle_wh_presentation(x.module.spec, x.module)
    except UnsupportedError:
        return None
    return oracle.coords(x) == oracle.coords(y)

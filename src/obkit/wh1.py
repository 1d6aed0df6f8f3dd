"""The second obstruction group (A[G]/A[1])_G.

Canonical form: terms at the identity are dropped, every bracket is a
conjugacy-class representative, coefficients at equal representatives
combine, and the term list is sorted.  Moving a bracket to its
representative conjugates the coefficient through the group action, an
instance of the defining coinvariance relation a[h] ~ (g.a)[g h g^-1].

For trivial coefficients the canonical form is complete: the group is a
direct sum of copies of A over nontrivial conjugacy classes.  Over a
finite group a literal presentation of the coinvariant quotient (via
Smith normal form, with coinvariance relations for the group's
generators only, which span the same lattice as those for all elements)
decides equality for any action, up to an ambient rank of
MAX_ORACLE_AMBIENT.  Over an infinite group with nontrivial action, or a
finite one past that limit, only these sound reductions apply, and
``wh_equal`` answers None rather than guess.
"""

from __future__ import annotations

from .errors import ContextError, RejectedError, UnsupportedError
from .gmodules import GModule, ModuleElement, ModuleMap
from .groups import (
    GroupElement,
    GroupSpec,
    conjugacy_canonical_with_conjugator,
    element_sort_key,
    enumerate_elements,
    inverse,
    multiply,
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

# Largest ambient rank k*|G| the finite oracle presents: its dense Smith
# normal form grows with the cube of this.
MAX_ORACLE_AMBIENT = 512


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
        """Normalize raw (coefficient, group element) pairs."""
        acc: dict[GroupElement, list] = {}
        trivial = module.trivial_action
        for coeff, g in pairs:
            if isinstance(coeff, ModuleElement):
                if coeff.module is not module:
                    raise ContextError("coefficient from a different module")
                coords = coeff.coords
            else:
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

    def __neg__(self) -> "WhElement":
        return self.scale(-1)

    def __sub__(self, other: "WhElement") -> "WhElement":
        return self + (-other)

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
    """Literal coinvariant presentation of (A[G]/A[1])_G for finite G."""

    def __init__(self, module: GModule, elements, presentation: QuotientPresentation):
        self.module = module
        self.elements = list(elements)
        self.index = {g: i for i, g in enumerate(self.elements)}
        self.presentation = presentation

    def coords(self, x: WhElement) -> tuple:
        """Canonical coordinates of a Wh element in the oracle quotient."""
        if x.module is not self.module:
            raise ContextError("element uses a different coefficient module")
        k = self.module.rank
        vec = [0] * (k * len(self.elements))
        for coords, g in x.terms:
            slot = self.index[g]
            for i, c in enumerate(coords):
                vec[slot * k + i] += c
        return self.presentation.reduce(vec)


def oracle_wh_presentation(spec: GroupSpec, module: GModule) -> WhOracle:
    """Present (A tensor Z[G]) / <A[1], coinvariance> by Smith normal form.

    Relations: the module's own relations in every group slot, the whole
    identity slot, and r(g, h, a) = a[h] - (g.a)[g h g^-1] for every
    generator g of G, every h and every basis vector a.

    The generators span the same lattice as all of G.  The relation of a
    product splits as r(g1 g2, h, a) = r(g2, h, a) + r(g1, g2 h g2^-1, g2.a);
    r is Z-linear in a, so r(g1, -, g2.a) is a sum of basis relations;
    every element of a finite group is a positive word in its generators;
    and the action laws (torsion orders, commuting generators) hold modulo
    the module relations, which every slot carries.  So the invariant
    factors and every equality of ``coords`` are those of the all-elements
    presentation; only the Smith basis differs.

    Raises UnsupportedError for an infinite group, or when the ambient
    rank k*|G| exceeds MAX_ORACLE_AMBIENT; the limit is checked from the
    group's order before the module is validated or any element is
    enumerated.
    """
    if module.spec != spec:
        raise ContextError("module is over a different group")
    k = module.rank
    if spec.is_finite and k * spec.order() > MAX_ORACLE_AMBIENT:
        raise UnsupportedError(
            f"oracle ambient rank {k * spec.order()} exceeds the limit {MAX_ORACLE_AMBIENT}"
        )
    report = module.validate()
    if report is not None:
        raise RejectedError(f"invalid module: {report}")
    elements = enumerate_elements(spec)  # raises UnsupportedError when infinite
    n = len(elements)
    ambient = k * n
    index = {g: i for i, g in enumerate(elements)}
    rows = []
    for slot in range(n):
        for rel in module.presentation.relations.entries:
            row = [0] * ambient
            for i, c in enumerate(rel):
                row[slot * k + i] = c
            rows.append(row)
    ident_slot = index[spec.identity()]
    for j in range(k):
        row = [0] * ambient
        row[ident_slot * k + j] = 1
        rows.append(row)
    basis = [tuple(1 if i == j else 0 for i in range(k)) for j in range(k)]
    for g in (spec.generator(name) for name in spec.generator_names()):
        ginv = inverse(g)
        acted = [module.act_vec(g, e) for e in basis]
        for h in elements:
            conj = multiply(multiply(g, h), ginv)
            tgt = index[conj]
            src = index[h]
            for j in range(k):
                row = [0] * ambient
                row[src * k + j] += 1
                for i, c in enumerate(acted[j]):
                    row[tgt * k + i] -= c
                if any(row):
                    rows.append(row)
    return WhOracle(module, elements, QuotientPresentation(ambient, rows))


def _oracle_for(module: GModule) -> WhOracle:
    oracle = getattr(module, "_wh_oracle", None)
    if oracle is None:
        oracle = oracle_wh_presentation(module.spec, module)
        module._wh_oracle = oracle
    return oracle


def wh_equal(x: WhElement, y: WhElement) -> bool | None:
    """Decide equality where possible; None means undecided.

    Complete for trivial actions (canonical forms) and for finite groups
    (oracle coordinates); otherwise equal canonical forms certify
    equality and anything else is undecided.
    """
    if x.module is not y.module:
        raise ContextError("Wh elements over different contexts")
    if x.terms == y.terms:
        return True
    if x.module.trivial_action:
        return False
    try:
        oracle = _oracle_for(x.module)
    except UnsupportedError:
        return None
    return oracle.coords(x) == oracle.coords(y)

"""Coefficient modules: finitely presented abelian groups carrying a
group action through integer matrices, plus maps between them.

The action of a word is the product of its generators' matrices; inverse
letters act through an inverse-on-the-quotient matrix found by integer
linear solving, so matrices need not be unimodular over Z as long as
they are invertible modulo the relation lattice.  A generator that acts
by the identity matrix is its own inverse and takes no solve.

A module element is a plain coordinate tuple in the module's own basis,
reduced to its coset's canonical representative by
``QuotientPresentation.reduce``; no element class wraps it.
"""

from __future__ import annotations

from functools import cached_property

from .errors import ContextError, DimensionError
from .groups import FactorSpec, GroupElement, GroupSpec
from .intlinalg import IntMatrix, QuotientPresentation, solve

__all__ = [
    "GModule",
    "ModuleMap",
]


class GModule:
    """A finitely presented abelian group with the group acting by matrices.

    ``action`` maps generator names to k x k integer matrices; omitted
    generators act as the identity.  Construction checks the action, one
    factor at a time (``action_violation``), and raises ValueError naming
    the first violated constraint, so every GModule is a valid module.
    It keeps each generator's inverse on the quotient for negative
    letters, and ``trivial_action`` is True when every generator acts as
    the identity on the quotient.  ``elements`` maps names to coordinate
    vectors, held reduced.
    """

    def __init__(self, spec: GroupSpec, presentation: QuotientPresentation,
                 action=None, elements=None, name: str = ""):
        self.spec = spec
        self.presentation = presentation
        self.name = name
        k = presentation.rank
        full = {}
        for gen in spec.generator_names():
            m = (action or {}).get(gen)
            if m is None:
                m = IntMatrix.identity(k)
            elif not isinstance(m, IntMatrix):
                m = IntMatrix(m)
            if m.rows != k or m.cols != k:
                raise DimensionError(f"action matrix for {gen!r} must be {k}x{k}")
            full[gen] = m
        for gen in (action or {}):
            if gen not in full:
                raise ValueError(f"action names unknown generator {gen!r}")
        self.action = full
        self.elements = {}
        for ename, coords in (elements or {}).items():
            if len(coords) != k:
                raise DimensionError("coordinate length does not match module rank")
            self.elements[ename] = presentation.reduce(coords)
        self._inverse = {}
        for factor in spec.factors:
            report = self.action_violation(factor, full, self._inverse)
            if report is not None:
                raise ValueError(report)
        ident = IntMatrix.identity(k)
        self.trivial_action = all(m == ident or self._congruent(m, ident) for m in full.values())

    @property
    def rank(self) -> int:
        return self.presentation.rank

    def _congruent(self, m1: IntMatrix, m2: IntMatrix) -> bool:
        """True iff two maps into this module agree on the quotient: each
        column of m1 - m2 lies in the relation lattice."""
        is_zero = self.presentation.is_zero
        return all(
            is_zero([a - b for a, b in zip(c1, c2)])
            for c1, c2 in zip(zip(*m1.entries), zip(*m2.entries))
        )

    def _invert_on_quotient(self, m: IntMatrix) -> IntMatrix | None:
        """A matrix x with m @ x congruent to the identity, or None.

        When m preserves the relation lattice, x @ m is congruent to the
        identity too: m is then a surjective endomorphism of a finitely
        generated abelian group, hence injective, so x is its inverse."""
        k = self.rank
        rel = self.presentation.relations.entries
        sys_rows = [
            list(m.entries[i]) + [r[i] for r in rel] for i in range(k)
        ]
        x = solve(IntMatrix(sys_rows, cols=k + len(rel)), IntMatrix.identity(k))
        return None if x is None else IntMatrix(x.entries[:k], cols=k)

    def action_violation(self, factor: FactorSpec, mats: dict,
                         inverses: dict | None = None) -> str | None:
        """The first constraint that ``mats`` (generator name to matrix)
        breaks as an action of ``factor`` on this module; None when all hold.

        Each generator in turn must preserve the relation lattice, be
        invertible on the quotient (checked only when ``inverses`` is given,
        which then receives the inverse), and, if it has torsion order m,
        have an m-th power congruent to the identity.  Then the generators
        of an abelian factor must commute on the quotient.  A generator whose
        matrix is exactly the identity meets every one of these constraints,
        so it is its own inverse and takes no solve and no power.
        """
        ident = IntMatrix.identity(self.rank)
        rel = self.presentation.relations.entries
        for gi, gen in enumerate(factor.names):
            m = mats[gen]
            if m == ident:
                if inverses is not None:
                    inverses[gen] = m
                continue
            if not all(self.presentation.is_zero(m.apply(r)) for r in rel):
                return f"action of {gen!r} does not preserve the relation lattice"
            if inverses is not None:
                inv = self._invert_on_quotient(m)
                if inv is None:
                    return f"action of {gen!r} is not invertible on the quotient"
                inverses[gen] = inv
            if factor.kind == "abelian" and gi >= factor.free_rank:
                order = factor.torsion[gi - factor.free_rank]
                if not self._congruent(_power(m, order), ident):
                    return (
                        f"action of {gen!r} violates the torsion constraint "
                        f"(order {order})"
                    )
        if factor.kind == "abelian":
            for i, x in enumerate(factor.names):
                for y in factor.names[i + 1:]:
                    a, b = mats[x], mats[y]
                    ab, ba = a @ b, b @ a
                    if not (ab == ba or self._congruent(ab, ba)):
                        return f"actions of {x!r} and {y!r} do not commute on the quotient"
        return None

    def act_vec(self, g: GroupElement, coords) -> tuple:
        """Raw coordinates of g acting on coords (left action), unreduced."""
        if g.spec != self.spec:
            raise ContextError("element and module live over different groups")
        letters = []
        for fi, payload in g.syllables:
            factor = self.spec.factors[fi]
            if factor.kind == "free":
                for x in payload:
                    letters.append((factor.names[abs(x) - 1], 1 if x > 0 else -1))
            else:
                for gi, e in enumerate(payload):
                    if e:
                        sign = 1 if e > 0 else -1
                        letters.extend([(factor.names[gi], sign)] * abs(e))
        v = tuple(coords)
        for name, sign in reversed(letters):
            m = self.action[name] if sign > 0 else self._inverse[name]
            v = m.apply(v)
        return v

    def __repr__(self):
        label = self.name or f"rank{self.rank}"
        return f"GModule({label}, invariants={self.presentation.group_invariants()})"


def _power(m: IntMatrix, n: int) -> IntMatrix:
    """m^n for n >= 0 by repeated squaring: at most 2*log2(n) + 1 products."""
    out = IntMatrix.identity(m.rows)
    while n:
        if n & 1:
            out = out @ m
        n >>= 1
        if n:
            m = m @ m
    return out


class ModuleMap:
    """An additive map between GModules given by an integer matrix.

    Construction raises ValueError for a matrix that does not send
    relations into relations, and for a map flagged ``equivariant`` that
    does not commute with the action.
    """

    def __init__(self, source: GModule, target: GModule, matrix, equivariant: bool = False,
                 name: str = ""):
        if source.spec != target.spec:
            raise ContextError("source and target modules live over different groups")
        self.source = source
        self.target = target
        self.name = name
        m = matrix if isinstance(matrix, IntMatrix) else IntMatrix(matrix)
        if m.rows != target.rank or m.cols != source.rank:
            raise DimensionError("map matrix must be target_rank x source_rank")
        self.matrix = m
        relations = source.presentation.relations.entries
        if not all(target.presentation.is_zero(m.apply(r)) for r in relations):
            raise ValueError("map does not send relations into relations")
        if equivariant and not self.is_equivariant:
            raise ValueError("map is flagged equivariant but does not commute with the action")

    @cached_property
    def is_equivariant(self) -> bool:
        """True iff the map commutes with every generator action on the
        quotients; checked once per map."""
        return all(
            self.target._congruent(self.matrix @ self.source.action[gen],
                                   self.target.action[gen] @ self.matrix)
            for gen in self.source.spec.generator_names()
        )

    def __repr__(self):
        return f"ModuleMap({self.name or 'phi'})"

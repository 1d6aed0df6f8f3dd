"""Three-cocycles pulled back from finite abelian quotients and the
chain-level chi functional on certified-invertible matrix triples,
computed as one contraction over the quotient.

A quotient has at most MAX_QUOTIENT_ORDER elements.  A cocycle table is
one flat tuple with a slot for each triple of quotient elements, in
index order; an empty slot holds the zero vector.
When the coefficient module carries a nontrivial action it must be
shown to factor through the quotient: the scenario supplies matrices
for the quotient generators and the pullback compatibility is checked
generator by generator, which makes the cocycle identity decidable.
It is decided on the rows whose first argument is 1 or a quotient
generator, (1 + #generators)·|Q|^3 quadruples; the first violated
quadruple among them is the first in full enumeration order, so a
failing table is reported without a separate full scan.
"""

from __future__ import annotations

import itertools
from functools import cached_property

from .errors import ContextError, DimensionError, RejectedError
from .gmodules import GModule, ModuleMap
from .groupring import InvertiblePair, RingMatrix, _right_multiply
from .groups import GroupElement, GroupSpec, enumerate_elements, multiply
from .intlinalg import IntMatrix
from .wh1 import WhElement

__all__ = [
    "FiniteQuotient",
    "Cocycle",
    "verify_cocycle",
    "chi_eval",
    "retraction_kills_chi",
]

# Largest quotient order accepted.  The cocycle check loops over
# (1 + #generators)·|Q|^3 quadruples: about 0.004 s at |Q| = 8 and
# 0.3 s at |Q| = 32 on a cyclic quotient (README).
MAX_QUOTIENT_ORDER = 32


class FiniteQuotient:
    """A homomorphism from the working group onto (into) a finite abelian group."""

    def __init__(self, source: GroupSpec, target: GroupSpec, images: dict):
        if not target.is_finite:
            raise ValueError("quotient target must be a finite abelian group")
        order = target.order()
        if order > MAX_QUOTIENT_ORDER:
            raise ValueError(f"quotient order {order} exceeds the limit {MAX_QUOTIENT_ORDER}")
        self.source = source
        self.target = target
        self.images = {}
        for factor in source.factors:
            for gi, name in enumerate(factor.names):
                if name not in images:
                    raise ValueError(f"missing image for generator {name!r}")
                img = images[name]
                if img.spec != target:
                    raise ValueError(f"image of {name!r} is not in the quotient group")
                if factor.kind == "abelian" and gi >= factor.free_rank:
                    order = factor.torsion[gi - factor.free_rank]
                    if not (img ** order).is_identity:
                        raise ValueError(
                            f"image of {name!r} does not satisfy its torsion relation"
                        )
                self.images[name] = img
        for name in images:
            if name not in self.images:
                raise ValueError(f"images name unknown generator {name!r}")

    def project(self, g: GroupElement) -> GroupElement:
        if g.spec != self.source:
            raise ContextError("element over a different group")
        out = self.target.identity()
        for fi, payload in g.syllables:
            factor = self.source.factors[fi]
            if factor.kind == "free":
                for x in payload:
                    img = self.images[factor.names[abs(x) - 1]]
                    out = multiply(out, img if x > 0 else img.inverse())
            else:
                for gi, e in enumerate(payload):
                    if e:
                        out = multiply(out, self.images[factor.names[gi]] ** e)
        return out

    @cached_property
    def elements(self) -> tuple[GroupElement, ...]:
        return tuple(enumerate_elements(self.target))

    @cached_property
    def index(self) -> dict[GroupElement, int]:
        """Position of each quotient element in ``elements``.

        Elements are enumerated by exponent vector in lexicographic order,
        so the position of (e_1, ..., e_r) is the mixed-radix number with
        digits e_i over the torsion orders.
        """
        return {g: i for i, g in enumerate(self.elements)}

    @cached_property
    def sums(self) -> tuple[tuple[int, ...], ...]:
        """``sums[i][j]`` is the index of the product of elements i and j."""
        torsion = self.target.factors[0].torsion
        digits = list(itertools.product(*(range(m) for m in torsion)))

        def position(a, b) -> int:
            out = 0
            for x, y, m in zip(a, b, torsion):
                out = out * m + (x + y) % m
            return out

        return tuple(tuple(position(a, b) for b in digits) for a in digits)


class Cocycle:
    """An inhomogeneous 3-cochain on a finite quotient, with coefficients
    in a module whose action factors through the quotient.

    ``values[(i*n + j)*n + l]`` is c(q_i, q_j, q_l) over the n elements
    of ``FiniteQuotient.elements``, the zero vector in an empty slot.
    Values are stored unreduced: each reader reduces only a linear
    combination of them, and the action preserves the relation lattice.

    Factorization is validated on construction: for a trivial action the
    quotient acts trivially; otherwise explicit matrices for the quotient
    generators are required and checked for compatibility.
    """

    def __init__(self, quotient: FiniteQuotient, module: GModule, values,
                 q_action=None, name: str = ""):
        if module.spec != quotient.source:
            raise ContextError("module and quotient disagree on the group")
        self.quotient = quotient
        self.module = module
        self.name = name
        self.values = values = tuple(values)
        if len(values) != len(quotient.elements) ** 3:
            raise DimensionError("table has the wrong number of slots")
        if any(len(v) != module.rank for v in values):
            raise DimensionError("table value has the wrong rank")
        self._resolve_q_action(q_action)

    def _resolve_q_action(self, q_action) -> None:
        module = self.module
        target = self.quotient.target
        k = module.rank
        names = target.generator_names()
        # ``_element_matrices`` reads the matrices while they are checked.
        mats = self._q_matrices = {n: IntMatrix.identity(k) for n in names}
        if q_action is None:
            if module.trivial_action:
                return
            raise RejectedError(
                "module action is nontrivial and no quotient action was supplied: "
                "cannot verify that the action factors through the quotient"
            )
        for n in names:
            if n not in q_action:
                raise RejectedError(f"quotient action is missing generator {n!r}")
            m = q_action[n]
            if not isinstance(m, IntMatrix):
                m = IntMatrix(m)
            if m.rows != k or m.cols != k:
                raise DimensionError("quotient action matrix has the wrong shape")
            mats[n] = m
        for n in q_action:
            if n not in mats:
                raise RejectedError(f"quotient action names unknown generator {n!r}")
        report = module.action_violation(target.factors[0], mats)
        if report is not None:
            raise RejectedError(f"quotient {report}")
        index = self.quotient.index
        for gen in self.quotient.source.generator_names():
            image = self._element_matrices[index[self.quotient.images[gen]]]
            if not module._congruent(module.action[gen], image):
                raise RejectedError(
                    f"action of {gen!r} does not factor through the quotient"
                )

    @cached_property
    def _element_matrices(self) -> tuple[IntMatrix, ...]:
        """The action matrix of each quotient element, by quotient index.

        For exponents (e_1, ..., e_r) it is M_r^e_r ... M_1^e_1, the
        generator matrices in the order they act, so applying it gives
        exactly the coordinates of acting generator by generator.
        """
        names = self.quotient.target.factors[0].names
        out = []
        for q in self.quotient.elements:
            m = IntMatrix.identity(self.module.rank)
            for _, exps in q.syllables:
                for name, e in zip(names, exps):
                    for _ in range(e):
                        m = self._q_matrices[name] @ m
            out.append(m)
        return tuple(out)


def verify_cocycle(c: Cocycle):
    """Decide the inhomogeneous 3-cocycle identity

        D(g,h,q,l) = g.c(h,q,l) - c(gh,q,l) + c(g,hq,l) - c(g,h,ql) + c(g,h,q) = 0

    in the coefficient module for every quadruple of quotient elements,
    by checking only the rows g = 1 and g = a quotient generator:
    (1 + #generators)·|Q|^3 quadruples instead of |Q|^4.

    This is exact.  D = δc, so δD = 0, and δD at (s, g, x, y, z) reads

        s.D(g,x,y,z) - D(sg,x,y,z) + D(s,gx,y,z) - D(s,g,xy,z)
            + D(s,g,x,yz) - D(s,g,x,y) = 0.

    When the row of s is zero this gives D(sg,...) = s.D(g,...).  Every
    element of a finite group is a positive word in its generators, so
    zero rows at 1 and at the generators of a subgroup force D to vanish
    on every row of that subgroup (K. S. Brown, Cohomology of Groups,
    GTM 87).  The identity row is what decides a trivial quotient, which
    has no generators.

    Returns None when the identity holds, else the first violated
    quadruple (g, h, q, l) in enumeration order: each coordinate runs
    over ``FiniteQuotient.elements``, g slowest and l fastest.  The
    scenario loader prints it in its E243 diagnostic, so the order is
    part of the contract.  The checked rows run in index order, and the
    first violation among them is that quadruple: elements are numbered
    in mixed radix over their exponent vectors, so the rows before the
    generator q_i are exactly the subgroup of the later generators,
    whose rows come earlier and held.  A failing table therefore costs
    no more than the scan up to its witness.

    The loop works on quotient indices: it reads ``Cocycle.values`` in
    place, products come from ``FiniteQuotient.sums`` and each g acts
    through one matrix.  The stored values are unreduced, so each total
    is reduced before it is judged; a total that is the zero vector is
    not reduced, which is exact because reduction is linear.
    """
    quotient = c.quotient
    elems = quotient.elements
    index = quotient.index
    sums = quotient.sums
    n = len(elems)
    vals = c.values
    target = quotient.target
    rows = sorted({index[target.identity()]}
                  | {index[target.generator(name)] for name in target.generator_names()})
    reduce = c.module.presentation.reduce
    # c(x, y, l) sits at row_xy + (index of l) in vals.
    for gi in rows:
        apply = c._element_matrices[gi].apply
        g_sums = sums[gi]
        for hi in range(n):
            h_sums = sums[hi]
            row_gh = (gi * n + hi) * n
            for qi in range(n):
                row_hq = (hi * n + qi) * n
                row_gh_q = (g_sums[hi] * n + qi) * n
                row_g_hq = (gi * n + h_sums[qi]) * n
                c_ghq = vals[row_gh + qi]
                for li, ql in enumerate(sums[qi]):
                    total = [
                        w - x + y - z + u
                        for w, x, y, z, u in zip(apply(vals[row_hq + li]), vals[row_gh_q + li],
                                                 vals[row_g_hq + li], vals[row_gh + ql], c_ghq)
                    ]
                    if any(total) and any(reduce(total)):
                        return (elems[gi], elems[hi], elems[qi], elems[li])
    return None


def _resolve_inverse(a: InvertiblePair, b: InvertiblePair, cm: InvertiblePair,
                     d) -> RingMatrix:
    inv = _right_multiply(cm.inverse, [gen.inverted() for p in (b, a)
                                       for gen in reversed(p.provenance)])
    if d is None or inv in ((d.matrix, d.inverse) if isinstance(d, InvertiblePair) else (d,)):
        return inv
    raise RejectedError("supplied matrix is not a two-sided inverse of A*B*C")


def _split(quotient: FiniteQuotient, m: RingMatrix) -> dict[int, IntMatrix]:
    """{i: the integer matrix of m's coefficients at terms that project to index i}."""
    n = m.n
    index = quotient.index
    out: dict[int, list] = {}
    for i, row in enumerate(m.entries):
        for j, x in enumerate(row):
            for g, a in x.terms.items():
                part = out.setdefault(index[quotient.project(g)], [[0] * n for _ in range(n)])
                part[i][j] += a
    return {q: IntMatrix(part) for q, part in out.items()}


def chi_eval(c: Cocycle, a: InvertiblePair, b: InvertiblePair, cm: InvertiblePair,
             d=None) -> WhElement:
    """The chain-level functional: sum of f(a_ij (x) b_jk (x) c_kl)[d_li].

    The bracket extends Z-bilinearly over the support of d_li.  A, B
    and C are pairs from ``build_invertible``, and C^-1 B^-1 A^-1 is
    built by applying the inverted generators of B and A to C's inverse,
    by column operations and without a check: each inverse is exact by
    construction.  It is rejected past ``MAX_MATRIX_TERMS`` terms.  A
    supplied inverse d (a matrix, or either reading of a pair) is
    accepted only when it equals that matrix, since a two-sided inverse
    is unique and matrices compare by canonical terms; any other d
    rejects the call.

    f is trilinear and sees an entry only through its image in the
    quotient, so each matrix is split once by quotient index and d_li
    carries T_il = sum of f(q1, q2, q3) (A_q1 B_q2 C_q3)_il over the
    nonzero slots of ``Cocycle.values``, unreduced: the action preserves
    the relation lattice, and ``WhElement.build`` sums each class before
    it reduces.
    """
    am, bm, cmm = a.matrix, b.matrix, cm.matrix
    spec = c.module.spec
    for m in (am, bm, cmm):
        if m.spec != spec:
            raise ContextError("matrix over a different group")
    if not (am.n == bm.n == cmm.n):
        raise DimensionError("matrix sizes differ")
    d_mat = _resolve_inverse(a, b, cm, d)
    n = am.n
    k = c.module.rank
    order = len(c.quotient.elements)
    a_parts, b_parts, c_parts = (_split(c.quotient, m) for m in (am, bm, cmm))
    t = [[[0] * k for _ in range(n)] for _ in range(n)]
    for q1, x in a_parts.items():
        for q2, y in b_parts.items():
            xy = x @ y
            row = (q1 * order + q2) * order
            for q3, z in c_parts.items():
                v = c.values[row + q3]
                if not any(v):
                    continue
                for t_row, p_row in zip(t, (xy @ z).entries):
                    for t_il, p in zip(t_row, p_row):
                        if p:
                            for r, w in enumerate(v):
                                t_il[r] += p * w
    raw = []
    for i, t_row in enumerate(t):
        for l, t_il in enumerate(t_row):
            if any(t_il):
                raw.extend(([coeff * w for w in t_il], h)
                           for h, coeff in d_mat.entries[l][i].terms.items())
    return WhElement.build(c.module, raw)


def retraction_kills_chi(r: ModuleMap, c: Cocycle) -> bool:
    """Execute the vanishing argument: the pushed table is zero, so chi is.

    Every table value must map to zero in the target; zero slots are
    skipped.  Then the pushed-forward table is all zero, and chi of it
    is zero on every matrix triple ``chi_eval`` accepts, so neither is
    built or run.  When the pushed table is not identically zero the
    chain-level check does not cover the scenario and the call is
    rejected; so is a nontrivial-action target, for which no quotient
    action of the pushed cocycle can be derived.
    """
    if r.source is not c.module:
        raise ContextError("map source does not match the cocycle module")
    reduce = r.target.presentation.reduce
    for val in c.values:
        if any(val) and any(reduce(r.matrix.apply(val))):
            raise RejectedError(
                "not covered by chain-level check: the pushed-forward table is nonzero"
            )
    if not r.target.trivial_action:
        raise RejectedError(
            "cannot derive a quotient action for a nontrivial-action target"
        )
    return True

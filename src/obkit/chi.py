"""Three-cocycles pulled back from finite abelian quotients and the
chain-level chi functional on triples of certified matrices, each held
as its matrix and its generators, computed as one contraction over the
quotient.

A quotient has at most MAX_QUOTIENT_ORDER elements, and an element is
its index, the mixed-radix number of its exponents; a source element's
is summed from its letters' images, with no group product.  A cocycle
table is one flat tuple with a slot for each triple of quotient
elements, in index order; an empty slot holds the zero vector.
When the coefficient module carries a nontrivial action it must be
shown to factor through the quotient: the scenario supplies matrices
for the quotient generators and the pullback compatibility is checked
generator by generator, which makes the cocycle identity decidable.
It is decided on the rows whose first argument is 1 or a quotient
generator, (1 + #generators)·|Q|^3 quadruples, each row formed whole
one coordinate column at a time; the first violated quadruple among
them is the first in full enumeration order, so a failing table is
reported without a separate full scan.
"""

from __future__ import annotations

import itertools
import math
from functools import cached_property

from .errors import ContextError, DimensionError, RejectedError
from .gmodules import GModule, ModuleMap
from .groupring import InvertiblePair, RingMatrix, _inverse_columns
from .groups import GroupElement, GroupSpec, enumerate_elements
from .intlinalg import IntMatrix
from .wh1 import WhElement

__all__ = [
    "FiniteQuotient",
    "Cocycle",
    "verify_cocycle",
    "chi_eval",
    "retraction_kills_chi",
]

# Largest quotient order accepted.  The cocycle check reads
# (1 + #generators)·|Q|^3 quadruples: about 0.0013 s at |Q| = 8 and
# 0.07 s at |Q| = 32 on a cyclic quotient (README).
MAX_QUOTIENT_ORDER = 32


class FiniteQuotient:
    """A homomorphism from the working group onto (into) a finite abelian
    group; each generator's image is its exponent vector over ``torsion``,
    and a quotient element is its index below ``order``, the mixed-radix
    number of its exponents, in the order of ``enumerate_elements``."""

    def __init__(self, source: GroupSpec, target: GroupSpec, images: dict):
        if not target.is_finite:
            raise ValueError("quotient target must be a finite abelian group")
        order = target.order()
        if order > MAX_QUOTIENT_ORDER:
            raise ValueError(f"quotient order {order} exceeds the limit {MAX_QUOTIENT_ORDER}")
        self.source = source
        self.target = target
        self.order = order
        torsion = self.torsion = target.factors[0].torsion
        self.images = {}
        for factor in source.factors:
            for gi, name in enumerate(factor.names):
                if name not in images:
                    raise ValueError(f"missing image for generator {name!r}")
                img = images[name]
                if img.spec != target:
                    raise ValueError(f"image of {name!r} is not in the quotient group")
                vec = img.syllables[0][1] if img.syllables else (0,) * len(torsion)
                if factor.kind == "abelian" and gi >= factor.free_rank:
                    order = factor.torsion[gi - factor.free_rank]
                    if any(order * e % m for e, m in zip(vec, torsion)):
                        raise ValueError(
                            f"image of {name!r} does not satisfy its torsion relation"
                        )
                self.images[name] = vec
        for name in images:
            if name not in self.images:
                raise ValueError(f"images name unknown generator {name!r}")

    def _position(self, exps) -> int:
        """The index of the element with exponents ``exps``, reduced mod ``torsion``."""
        out = 0
        for e, m in zip(exps, self.torsion):
            out = out * m + e % m
        return out

    def target_index(self, q: GroupElement) -> int:
        """The index of q, an element of the quotient group itself."""
        return self._position(q.syllables[0][1] if q.syllables else ())

    def index_of(self, g: GroupElement) -> int:
        """The index of g's image: each letter's exponent times its
        generator's image vector, summed, then positioned."""
        if g.spec != self.source:
            raise ContextError("element over a different group")
        total = [0] * len(self.torsion)
        for fi, payload in g.syllables:
            factor = self.source.factors[fi]
            if factor.kind == "free":
                payload = [payload.count(i) - payload.count(-i) for i in range(1, factor.rank + 1)]
            for name, e in zip(factor.names, payload):
                if e:
                    total = [t + e * v for t, v in zip(total, self.images[name])]
        return self._position(total)

    @cached_property
    def sums(self) -> tuple[tuple[int, ...], ...]:
        """``sums[i][j]`` is the index of the product of elements i and j."""
        digits = list(itertools.product(*map(range, self.torsion)))
        return tuple(tuple(self._position(x + y for x, y in zip(a, b)) for b in digits)
                     for a in digits)


class Cocycle:
    """An inhomogeneous 3-cochain on a finite quotient, with coefficients
    in a module whose action factors through the quotient.

    ``values[(i*n + j)*n + l]`` is c(q_i, q_j, q_l) over the n quotient
    elements by index, the zero vector in an empty slot.  Values are
    stored unreduced: each reader reduces only a linear combination of
    them, and the action preserves the relation lattice.

    Factorization is validated on construction: for a trivial action the
    quotient acts trivially; otherwise explicit matrices for the quotient
    generators, ``_q_matrices``, are required and checked for
    compatibility.  They are the quotient action: the element with
    exponents (e_1, ..., e_r) acts by M_r^e_r ... M_1^e_1.
    """

    def __init__(self, quotient: FiniteQuotient, module: GModule, values,
                 q_action=None, name: str = ""):
        if module.spec != quotient.source:
            raise ContextError("module and quotient disagree on the group")
        self.quotient = quotient
        self.module = module
        self.name = name
        self.values = values = tuple(values)
        if len(values) != quotient.order ** 3:
            raise DimensionError("table has the wrong number of slots")
        if any(len(v) != module.rank for v in values):
            raise DimensionError("table value has the wrong rank")
        self._resolve_q_action(q_action)

    def _resolve_q_action(self, q_action) -> None:
        module = self.module
        target = self.quotient.target
        k = module.rank
        names = target.generator_names()
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
        for gen, exps in self.quotient.images.items():
            image = IntMatrix.identity(k)
            for name, e in zip(names, exps):
                for _ in range(e):
                    image = mats[name] @ image
            if not module._congruent(module.action[gen], image):
                raise RejectedError(
                    f"action of {gen!r} does not factor through the quotient"
                )


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
    over the quotient's indices, g slowest and l fastest, and only the
    witness is decoded, by ``enumerate_elements``.  The scenario loader
    prints it in its E243 diagnostic, so the order is part of the
    contract.  The checked rows run in index order, and the first
    violation among them is that quadruple: elements are numbered in
    mixed radix over their exponent vectors, so the rows before the
    generator q_i are exactly the subgroup of the later generators,
    whose rows come earlier and held.  A failing table costs the scan
    up to the end of the row that holds its witness.

    Each checked row is formed whole, one coordinate at a time:
    ``Cocycle.values`` is transposed once into k columns, the slots each
    term reads are index arrays built from ``FiniteQuotient.sums``, and
    g, the identity or a ``Cocycle._q_matrices`` generator, acts on the
    whole table as k linear combinations of columns.  Only a row with a
    nonzero total is walked, in enumeration order.  The stored values
    are unreduced, so each nonzero total is reduced before it is judged;
    a zero total is not reduced, which is exact because reduction is
    linear.
    """
    quotient = c.quotient
    sums = quotient.sums
    n = quotient.order
    nn = n * n
    # The identity has index 0, and generator i the product of the later orders.
    torsion, names = quotient.torsion, quotient.target.generator_names()
    rows = [(0, IntMatrix.identity(c.module.rank))] + [
        (math.prod(torsion[i + 1:]), c._q_matrices[names[i]]) for i in reversed(range(len(names)))]
    reduce = c.module.presentation.reduce
    cols = list(zip(*c.values))
    zeros = [0] * (nn * n)
    # Quadruple t = (h*n + q)*n + l of a row g reads c(g,hq,l), c(g,h,ql)
    # and c(g,h,q) at these offsets into the row's n^2 slots c(g, ., .).
    hq_l = [s * n + l for h_sums in sums for s in h_sums for l in range(n)]
    h_ql = [h * n + s for h in range(n) for q_sums in sums for s in q_sums]
    h_q = [t // n for t in range(nn * n)]
    for gi, action in rows:
        # c(gh,q,l) lies in the row of gh: its slot in the whole table.
        gh_q_l = [s * nn + t for s in sums[gi] for t in range(nn)]
        d = []
        for coeffs, col in zip(action.entries, cols):
            # This coordinate of g.c(h,q,l) over the whole table.
            terms = [x if a == 1 else [a * v for v in x] for a, x in zip(coeffs, cols) if a]
            terms = terms or [zeros]
            acted = terms[0] if len(terms) == 1 else list(map(sum, zip(*terms)))
            get = col[gi * nn:(gi + 1) * nn].__getitem__
            d.append([w - x + y - z + u for w, x, y, z, u in zip(
                acted, map(col.__getitem__, gh_q_l), map(get, hq_l), map(get, h_ql), map(get, h_q))])
        if any(map(any, d)):
            for t, total in enumerate(zip(*d)):
                if any(total) and any(reduce(total)):
                    elems = enumerate_elements(quotient.target)
                    return (elems[gi], elems[t // nn], elems[t // n % n], elems[t % n])
    return None


def _inverse(*pairs: InvertiblePair) -> RingMatrix:
    """The inverse of the product of the pairs' matrices, every column of
    it composed by ``_inverse_columns``; exact, as E_ij(x) E_ij(-x) = I
    and D_i(+-g) D_i(+-g^-1) = I."""
    m = pairs[0].matrix
    return RingMatrix(m.spec, _inverse_columns(pairs, range(m.n)))


def _checked_inverse(a: InvertiblePair, b: InvertiblePair, cm: InvertiblePair,
                     d: InvertiblePair) -> RingMatrix:
    """D = C^-1 B^-1 A^-1 when the supplied pair d is it, as its matrix or
    as the inverse composed from its generators; else RejectedError."""
    inv = _inverse(a, b, cm)
    if d.matrix == inv or _inverse(d) == inv:
        return inv
    raise RejectedError("supplied matrix is not a two-sided inverse of A*B*C")


def _split(quotient: FiniteQuotient, m: RingMatrix) -> dict[int, IntMatrix]:
    """{i: the integer matrix of m's coefficients at terms whose image has index i}."""
    n = m.n
    index_of = quotient.index_of
    out: dict[int, list] = {}
    for j, col in enumerate(m.cols):
        for i, terms in col.items():
            for g, a in terms.items():
                part = out.setdefault(index_of(g), [[0] * n for _ in range(n)])
                part[i][j] += a
    return {q: IntMatrix(part) for q, part in out.items()}


def chi_eval(c: Cocycle, a: InvertiblePair, b: InvertiblePair, cm: InvertiblePair,
             d=None) -> WhElement:
    """The chain-level functional: sum of f(a_ij (x) b_jk (x) c_kl)[d_li].

    The bracket extends Z-bilinearly over the support of d_li.  A, B
    and C are pairs from ``build_invertible``.  f is trilinear and sees an
    entry only through its image in the quotient, so each matrix is split
    once by quotient index and d_li carries T_il = sum of
    f(q1, q2, q3) (A_q1 B_q2 C_q3)_il over the nonzero slots of
    ``Cocycle.values``, unreduced: the action preserves the relation
    lattice, and ``WhElement.build`` sums each class before it reduces.
    A_q1 B_q2 is formed only for a pair (q1, q2) whose table row holds a
    nonzero slot at some q3 of C's split.

    D = C^-1 B^-1 A^-1 is read only in its columns i for which row i of T
    holds a nonzero entry, and only those are composed, each from the
    unit vector by the inverted generators of A, B and C
    (``_inverse_columns``), without a check: it is exact by
    construction.  Those columns are rejected past ``MAX_MATRIX_TERMS``
    terms or ``MAX_ENTRY_LETTERS`` letters in an entry; a column chi does
    not read is never composed, so it is never refused.  A supplied
    inverse d, a pair, is checked against all of D: it is accepted when
    its matrix equals D, or failing that when the inverse composed from
    its generators does, since a two-sided inverse is unique and
    matrices compare by canonical terms; any other d rejects the call.
    """
    am, bm, cmm = a.matrix, b.matrix, cm.matrix
    spec = c.module.spec
    for m in (am, bm, cmm):
        if m.spec != spec:
            raise ContextError("matrix over a different group")
    if not (am.n == bm.n == cmm.n):
        raise DimensionError("matrix sizes differ")
    d_cols = None if d is None else _checked_inverse(a, b, cm, d).cols
    n = am.n
    k = c.module.rank
    order = c.quotient.order
    values = c.values
    a_parts, b_parts, c_parts = (_split(c.quotient, m) for m in (am, bm, cmm))
    t = [[[0] * k for _ in range(n)] for _ in range(n)]
    for q1, x in a_parts.items():
        for q2, y in b_parts.items():
            row = (q1 * order + q2) * order
            slots = [(v, z) for q3, z in c_parts.items() if any(v := values[row + q3])]
            if not slots:
                continue
            xy = x @ y
            for v, z in slots:
                for t_row, p_row in zip(t, (xy @ z).entries):
                    for t_il, p in zip(t_row, p_row):
                        if p:
                            for r, w in enumerate(v):
                                t_il[r] += p * w
    read = [i for i, t_row in enumerate(t) if any(map(any, t_row))]
    if d_cols is None:
        d_cols = dict(zip(read, _inverse_columns((a, b, cm), read)))
    raw = []
    for i in read:
        d_col = d_cols[i]
        for l, t_il in enumerate(t[i]):
            if any(t_il):
                raw.extend(([coeff * w for w in t_il], h)
                           for h, coeff in d_col.get(l, {}).items())
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

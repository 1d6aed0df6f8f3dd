"""Elements of the integral group ring Z[G] and square matrices over it.

An element adds and negates; the full Z[G] product of elements or of
matrices is not defined here, because nothing in obkit forms one.  It
exists only as the test suite's reference (``ring_mul``, ``ring_matmul``
in tests/support.py).  Module coefficients are not ring elements: a
module element is its reduced coordinate tuple (``gmodules``).

Matrix inverses are never computed: invertible matrices are built from
elementary and diagonal-unit generators, which invert symbolically, so
each certified pair is exact by construction and is not multiplied out
again.  A matrix is built by column operations, one per generator, and
holds at most MAX_MATRIX_TERMS terms over all its entries and at most
MAX_ENTRY_LETTERS free letters in each element of them.  Nothing
multiplies a supplied inverse out: ``chi_eval`` compares one with the
inverse it composes from the pairs' generators.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import ContextError, DimensionError, RejectedError
from .groups import GroupElement, GroupSpec, element_sort_key, inverse, multiply

__all__ = [
    "RingElement",
    "RingMatrix",
    "ElementaryGen",
    "DiagonalGen",
    "InvertiblePair",
    "build_invertible",
]

# Largest number of terms, summed over the entries, that a built matrix
# or its inverse may hold.  The fixtures and the benchmark stay under 20
# per matrix; n generators E(i, i mod n + 1, "t - s") reach the limit at
# n = 14, and without it one entry at n = 24 holds about 200,000 terms.
MAX_MATRIX_TERMS = 10_000
# Largest number of letters (``_letters``) an element of a built matrix
# may hold, as bounded per column before each generator: a product has
# at most the letters of its factors.  The benchmark's matrices and chi's
# composed inverses of them reach about 100; without the limit each of k
# generators D(1,"t^96") copies a longer element, O(k^2) work in all.
MAX_ENTRY_LETTERS = 400


class RingElement:
    """A finite Z-linear combination of group elements in normal form."""

    __slots__ = ("spec", "terms")

    def __init__(self, spec: GroupSpec, terms=None):
        self.spec = spec
        self.terms = {g: c for g, c in ((g, int(c)) for g, c in (terms or {}).items()) if c}

    @staticmethod
    def zero(spec: GroupSpec) -> "RingElement":
        return RingElement(spec)

    @staticmethod
    def one(spec: GroupSpec) -> "RingElement":
        return RingElement(spec, {spec.identity(): 1})

    @staticmethod
    def from_element(g: GroupElement, coeff: int = 1) -> "RingElement":
        return RingElement(g.spec, {g: coeff})

    @property
    def is_zero(self) -> bool:
        return not self.terms

    def items(self):
        """Terms in the fixed order: syllable count, then syllable comparison."""
        return sorted(self.terms.items(), key=lambda t: element_sort_key(t[0]))

    def _same(self, other) -> None:
        if self.spec != other.spec:
            raise ContextError("ring elements over different groups")

    def __add__(self, other: "RingElement") -> "RingElement":
        self._same(other)
        out = dict(self.terms)
        for g, c in other.terms.items():
            out[g] = out.get(g, 0) + c
        return RingElement(self.spec, out)

    def __neg__(self) -> "RingElement":
        return RingElement(self.spec, {g: -c for g, c in self.terms.items()})

    def __eq__(self, other) -> bool:
        if not isinstance(other, RingElement):
            return NotImplemented
        return self.spec == other.spec and self.terms == other.terms

    def __hash__(self):
        return hash(frozenset(self.terms.items()))

    def __str__(self) -> str:
        if not self.terms:
            return "0"
        parts = []
        for i, (g, c) in enumerate(self.items()):
            word = str(g)
            if abs(c) == 1:
                body = word
            elif g.is_identity:
                body = str(abs(c))
            else:
                body = f"{abs(c)}*{word}"
            if i == 0:
                parts.append(body if c > 0 else f"-{body}")
            else:
                parts.append(f"+ {body}" if c > 0 else f"- {body}")
        return " ".join(parts)

    def __repr__(self):
        return f"RingElement({self})"


class RingMatrix:
    """A square matrix over Z[G]."""

    __slots__ = ("spec", "n", "entries")

    def __init__(self, spec: GroupSpec, entries):
        n = len(entries)
        rows = []
        for row in entries:
            if len(row) != n:
                raise DimensionError("ring matrices must be square")
            for x in row:
                if x.spec != spec:
                    raise ContextError("matrix entry over a different group")
            rows.append(tuple(row))
        self.spec = spec
        self.n = n
        self.entries = tuple(rows)

    @staticmethod
    def identity(spec: GroupSpec, n: int) -> "RingMatrix":
        one = RingElement.one(spec)
        zero = RingElement.zero(spec)
        return RingMatrix(spec, [[one if i == j else zero for j in range(n)] for i in range(n)])

    def __eq__(self, other) -> bool:
        if not isinstance(other, RingMatrix):
            return NotImplemented
        return self.spec == other.spec and self.n == other.n and self.entries == other.entries

    def __hash__(self):
        return hash(self.entries)

    def __repr__(self):
        rows = "; ".join(", ".join(str(x) for x in row) for row in self.entries)
        return f"RingMatrix[{rows}]"


@dataclass(frozen=True)
class ElementaryGen:
    """E_ij(x): identity plus x in off-diagonal position (i, j); 0-based."""

    i: int
    j: int
    x: RingElement

    def inverted(self) -> "ElementaryGen":
        return ElementaryGen(self.i, self.j, -self.x)

    def __str__(self):
        return f'E({self.i + 1},{self.j + 1},"{self.x}")'


@dataclass(frozen=True)
class DiagonalGen:
    """D_i(+-g): identity with the unit +-g in diagonal position i; 0-based."""

    i: int
    sign: int
    g: GroupElement

    def inverted(self) -> "DiagonalGen":
        return DiagonalGen(self.i, self.sign, inverse(self.g))

    def __str__(self):
        word = str(self.g)
        return f'D({self.i + 1},"{word if self.sign > 0 else "-" + word}")'


class InvertiblePair:
    """A matrix with a two-sided inverse and its generator history.

    The pair is taken as given; ``build_invertible`` makes pairs that are
    inverse by construction.  ``provenance`` holds the generators whose
    product is the matrix.  ``chi_eval`` trusts it: it composes the
    inverse of A*B*C from the provenance of A and B and the inverse of C,
    and never multiplies a matrix out to check them."""

    __slots__ = ("matrix", "inverse", "provenance")

    def __init__(self, matrix: RingMatrix, inv: RingMatrix, provenance=()):
        self.matrix = matrix
        self.inverse = inv
        self.provenance = tuple(provenance)

    def __repr__(self):
        return f"InvertiblePair(n={self.matrix.n}, gens={len(self.provenance)})"


def _letters(g: GroupElement) -> int:
    """The letters of g's normal form: one per free-generator letter, and
    |e| per free-rank abelian exponent e, which a module acts on by |e|
    matrix applications."""
    factors = g.spec.factors
    out = 0
    for fi, payload in g.syllables:
        factor = factors[fi]
        if factor.kind == "free":
            out += len(payload)
        elif factor.free_rank:
            out += sum(map(abs, payload[:factor.free_rank]))
    return out


def _check_letters(bound: int) -> int:
    if bound > MAX_ENTRY_LETTERS:
        raise RejectedError(f"matrix would exceed the limit of {MAX_ENTRY_LETTERS} letters "
                            "in an entry")
    return bound


def _right_multiply(m: RingMatrix, gens) -> RingMatrix:
    """m times the generators in order, one column operation each.

    Right-multiplying by D_i(+-g) scales column i by +-g, and by E_ij(x)
    adds (column i)*x to column j.  Each column is one dict from row to
    that entry's terms, and one RingElement is built per entry at the
    end.  A generator is refused before it runs when the matrix's terms
    plus the products it would form exceed MAX_MATRIX_TERMS, or when its
    column's letter bound, the letters of the column's longest element
    at the start plus those of each unit or longest term multiplied in
    since, exceeds MAX_ENTRY_LETTERS.  So the result stays within both
    limits and no step costs more than they allow.
    """
    spec, n = m.spec, m.n
    cols = [{r: dict(m.entries[r][c].terms) for r in range(n) if m.entries[r][c].terms}
            for c in range(n)]
    total = sum(len(terms) for col in cols for terms in col.values())
    letters = [max((_letters(g) for terms in col.values() for g in terms), default=0)
               for col in cols]
    for gen in gens:
        i = gen.i
        if isinstance(gen, DiagonalGen):
            if not (0 <= i < n):
                raise DimensionError("diagonal generator index out of range")
            if gen.sign not in (1, -1):
                raise DimensionError("diagonal unit sign must be +1 or -1")
            g, sign = gen.g, gen.sign
            letters[i] = _check_letters(letters[i] + _letters(g))
            cols[i] = {r: {multiply(h, g): sign * c for h, c in terms.items()}
                       for r, terms in cols[i].items()}
            continue
        j, x = gen.j, gen.x.terms
        if i == j or not (0 <= i < n and 0 <= j < n):
            raise DimensionError("elementary generator indices out of range")
        source, target = cols[i], cols[j]
        if total + sum(map(len, source.values())) * len(x) > MAX_MATRIX_TERMS:
            raise RejectedError(f"matrix would exceed the limit of {MAX_MATRIX_TERMS} terms")
        grown = _check_letters(letters[i] + max(map(_letters, x), default=0))
        letters[j] = max(letters[j], grown)
        for r, terms in source.items():
            acc = target.get(r, {})
            total -= len(acc)
            for g, a in terms.items():
                for h, b in x.items():
                    gh = multiply(g, h)
                    acc[gh] = acc.get(gh, 0) + a * b
            acc = {g: c for g, c in acc.items() if c}
            total += len(acc)
            if acc:
                target[r] = acc
            else:
                target.pop(r, None)
    zero = RingElement.zero(spec)
    return RingMatrix(spec, [[RingElement(spec, col[r]) if r in col else zero for col in cols]
                             for r in range(n)])


def build_invertible(spec: GroupSpec, n: int, gens) -> InvertiblePair:
    """Product of generators in order, with the symbolically built inverse.

    Both are built from the identity by column operations: the matrix
    applies the generators, and the inverse applies the inverted
    generators in reverse order, which is exact: E_ij(x) E_ij(-x) = I and
    D_i(+-g) D_i(+-g^-1) = I.  Each holds at most MAX_MATRIX_TERMS terms
    and at most MAX_ENTRY_LETTERS free letters in an element
    (RejectedError past either, before the generator that would pass it
    runs).  The number of generators is bounded only by the length of the
    input, but both limits bound the work of each, so the cost grows
    linearly with their number.
    """
    gens = tuple(gens)
    ident = RingMatrix.identity(spec, n)
    m = _right_multiply(ident, gens)
    inv = _right_multiply(ident, [gen.inverted() for gen in reversed(gens)])
    return InvertiblePair(m, inv, gens)


"""Square matrices over the integral group ring Z[G].

An element of Z[G] is its terms, a dict {group element: nonzero
coefficient}, and a matrix is one dict per column from row to the terms
of that entry, with zero entries absent.  The full Z[G] product is not
defined here, because nothing in obkit forms one; it exists only as the
test suite's reference (``ring_mul``, ``ring_matmul`` in tests/support.py).

Matrix inverses are never computed: invertible matrices are built from
elementary and diagonal-unit generators, which invert symbolically, so
a certified matrix is held as its matrix and its generators, and
``chi_eval`` composes the columns of the inverse it reads from the
inverted generators, each column on its own (``_inverse_columns``).
A matrix is built by column operations, one per generator, and holds at
most MAX_MATRIX_TERMS terms over all its entries and at most
MAX_ENTRY_LETTERS free letters in each element of them; the columns of
an inverse are held to the same limits.  Nothing multiplies a supplied
inverse out: ``chi_eval`` compares one with the inverse it composes.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import DimensionError, RejectedError
from .groups import GroupElement, GroupSpec, inverse, multiply

__all__ = [
    "RingMatrix",
    "ElementaryGen",
    "DiagonalGen",
    "InvertiblePair",
    "build_invertible",
]

# Largest number of terms, summed over the entries, that a built matrix
# may hold: a certified matrix at load, and the columns of an inverse
# that chi composes, summed over those columns.
# The fixtures and the benchmark stay under 20 per matrix; n generators
# E(i, i mod n + 1, "t - s") reach the limit at n = 14, and without it
# one entry at n = 24 holds about 200,000 terms.
MAX_MATRIX_TERMS = 10_000
# Largest number of letters (``_letters``) an element of a built matrix
# may hold, as bounded per column (per entry of an inverse's column)
# before each generator: a product has at most the letters of its
# factors.  The benchmark's matrices and chi's composed inverses of them
# reach about 100; without the limit each of k
# generators D(1,"t^96") copies a longer element, O(k^2) work in all.
MAX_ENTRY_LETTERS = 400


class RingMatrix:
    """A square matrix over Z[G]: ``cols[j]`` maps each row i with a nonzero
    entry (i, j) to its terms.  ``_column_ops`` keeps no zero entry or
    coefficient, so equal matrices have equal columns."""

    __slots__ = ("spec", "n", "cols")

    def __init__(self, spec: GroupSpec, cols):
        self.spec = spec
        self.cols = tuple(cols)
        self.n = len(self.cols)

    @staticmethod
    def identity(spec: GroupSpec, n: int) -> "RingMatrix":
        return RingMatrix(spec, ({i: {spec.identity(): 1}} for i in range(n)))

    def __eq__(self, other) -> bool:
        if not isinstance(other, RingMatrix):
            return NotImplemented
        return self.spec == other.spec and self.cols == other.cols

    __hash__ = None


@dataclass(frozen=True)
class ElementaryGen:
    """E_ij(x): identity plus the terms x in off-diagonal position (i, j); 0-based."""

    i: int
    j: int
    x: dict

    def inverted(self) -> "ElementaryGen":
        return ElementaryGen(self.i, self.j, {g: -c for g, c in self.x.items()})


@dataclass(frozen=True)
class DiagonalGen:
    """D_i(+-g): identity with the unit +-g in diagonal position i; 0-based."""

    i: int
    sign: int
    g: GroupElement

    def inverted(self) -> "DiagonalGen":
        return DiagonalGen(self.i, self.sign, inverse(self.g))


class InvertiblePair:
    """A certified invertible matrix: the matrix and its generator history.

    ``provenance`` holds the generators whose product is the matrix;
    ``build_invertible`` makes the matrix from them, and the pair is taken
    as given.  No inverse is stored: ``chi_eval`` composes the columns it
    reads of the inverse of A*B*C from the inverted generators of A, B and
    C, and never multiplies a matrix out to check it."""

    __slots__ = ("matrix", "provenance")

    def __init__(self, matrix: RingMatrix, provenance):
        self.matrix = matrix
        self.provenance = tuple(provenance)


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


def _column_ops(m: RingMatrix, gens) -> RingMatrix:
    """m times the generators in order, one column operation each.

    Right-multiplying by D_i(+-g) scales column i by +-g, and by E_ij(x)
    adds (column i)*x to column j, on copies of m's columns; a cancelled
    term and an emptied entry are dropped.  A generator is refused before
    it runs when the matrix's terms plus the products it would form
    exceed MAX_MATRIX_TERMS, or when its column's letter bound, the
    letters of the column's longest element at the start plus those of
    each unit or longest term multiplied in since, exceeds
    MAX_ENTRY_LETTERS.  So the result stays within both limits and no
    step costs more than they allow.
    """
    n = m.n
    cols = [{r: dict(terms) for r, terms in col.items()} for col in m.cols]
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
        j, x = gen.j, gen.x
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
    return RingMatrix(m.spec, cols)


def build_invertible(spec: GroupSpec, n: int, gens) -> InvertiblePair:
    """The product of generators in order, with the generators.

    The matrix is built from the identity by column operations, one per
    generator.  It holds at most MAX_MATRIX_TERMS terms and at most
    MAX_ENTRY_LETTERS free letters in an element (RejectedError past
    either, before the generator that would pass it runs).  The number of
    generators is bounded only by the length of the input, but both
    limits bound the work of each, so the cost grows linearly with their
    number.  The inverse is not built here: ``chi_eval`` composes it.
    """
    gens = tuple(gens)
    return InvertiblePair(_column_ops(RingMatrix.identity(spec, n), gens), gens)


def _inverse_columns(pairs, columns) -> list[dict]:
    """Columns ``columns`` of the inverse of the product of the pairs'
    matrices, in that order, each held as ``RingMatrix.cols`` holds one.

    The inverse is L_1 ... L_k, each pair's inverted generators in
    reverse order, the last pair's first, so its column i is
    L_1(...(L_k e_i)).  On a column v, E_ab(x) acts by v_a += x*v_b and
    D_a(+-g) by v_a = +-g*v_a, multiplying on the left; a generator that
    meets a zero entry forms no product.  The pairs are built, so their
    generators' indices were checked.  As in ``_column_ops``, both limits
    are checked before each generator: the terms of the composed columns,
    summed, against MAX_MATRIX_TERMS, and each entry's letter bound (its
    units' letters, or an added entry's bound plus the longest term's
    letters) against MAX_ENTRY_LETTERS.
    """
    columns = list(columns)
    if not columns:
        return []
    steps = []
    for p in pairs:
        for gen in p.provenance:
            gen = gen.inverted()
            if isinstance(gen, DiagonalGen):
                steps.append((gen, _letters(gen.g)))
            else:
                steps.append((gen, max(map(_letters, gen.x), default=0)))
    identity = pairs[0].matrix.spec.identity()
    total = 0
    out = []
    for i in columns:
        v = {i: {identity: 1}}
        letters = {i: 0}
        total += 1
        for gen, grow in steps:
            a = gen.i
            if isinstance(gen, DiagonalGen):
                terms = v.get(a)
                if terms is not None:
                    letters[a] = _check_letters(letters[a] + grow)
                    g, sign = gen.g, gen.sign
                    v[a] = {multiply(g, h): sign * c for h, c in terms.items()}
                continue
            b = gen.j
            source = v.get(b)
            if source is None:
                continue
            x = gen.x
            if total + len(source) * len(x) > MAX_MATRIX_TERMS:
                raise RejectedError(f"matrix would exceed the limit of {MAX_MATRIX_TERMS} terms")
            grown = _check_letters(letters[b] + grow)
            acc = v.get(a, {})
            total -= len(acc)
            for h, y in x.items():
                for g, c in source.items():
                    hg = multiply(h, g)
                    acc[hg] = acc.get(hg, 0) + y * c
            acc = {g: c for g, c in acc.items() if c}
            total += len(acc)
            if acc:
                v[a] = acc
                letters[a] = max(letters.get(a, 0), grown)
            else:
                v.pop(a, None)
                letters.pop(a, None)
        out.append(v)
    return out

"""Exact integer linear algebra: Smith normal form, integer linear
solving, and quotient presentations of finitely presented abelian
groups.  All arithmetic is arbitrary precision; pivots may grow.
"""

from __future__ import annotations

from .errors import DimensionError

__all__ = [
    "IntMatrix",
    "smith_normal_form",
    "solve",
    "QuotientPresentation",
]


class IntMatrix:
    """An immutable integer matrix stored row-major."""

    __slots__ = ("rows", "cols", "entries")

    def __init__(self, entries, cols=None):
        rows = [tuple(int(x) for x in row) for row in entries]
        if rows:
            cols = len(rows[0])
            if any(len(r) != cols for r in rows):
                raise DimensionError("ragged rows")
        elif cols is None:
            cols = 0
        self.rows = len(rows)
        self.cols = cols
        self.entries = tuple(rows)

    @staticmethod
    def identity(n: int) -> "IntMatrix":
        return IntMatrix([[1 if i == j else 0 for j in range(n)] for i in range(n)])

    def __eq__(self, other) -> bool:
        if not isinstance(other, IntMatrix):
            return NotImplemented
        return (self.rows, self.cols, self.entries) == (other.rows, other.cols, other.entries)

    def __hash__(self):
        return hash((self.rows, self.cols, self.entries))

    def __matmul__(self, other: "IntMatrix") -> "IntMatrix":
        if self.cols != other.rows:
            raise DimensionError("matrix size mismatch")
        ot = list(zip(*other.entries)) if other.entries else [()] * other.cols
        out = [
            [sum(a * b for a, b in zip(row, col)) for col in ot]
            for row in self.entries
        ]
        return IntMatrix(out, cols=other.cols)

    def apply(self, vec) -> tuple:
        """Matrix times column vector."""
        if len(vec) != self.cols:
            raise DimensionError("vector length mismatch")
        return tuple(sum(a * x for a, x in zip(row, vec)) for row in self.entries)

    def __repr__(self):
        return f"IntMatrix({[list(r) for r in self.entries]!r})"


def _row_apply(vec, m: IntMatrix) -> tuple:
    """Row vector times matrix: the sum of the rows that vec's nonzero
    entries select, so a mostly-zero vector costs only its support."""
    if len(vec) != m.rows:
        raise DimensionError("vector length mismatch")
    out = [0] * m.cols
    for x, row in zip(vec, m.entries):
        if x:
            out = [a + x * b for a, b in zip(out, row)]
    return tuple(out)


def smith_normal_form(m: IntMatrix) -> tuple[IntMatrix, IntMatrix, IntMatrix]:
    """Return unimodular U, V and diagonal S with U @ m @ V == S.

    Diagonal entries are nonnegative and satisfy d1 | d2 | ... ; pivots are
    chosen by minimal nonzero absolute value.
    """
    R, C = m.rows, m.cols
    a = [list(row) for row in m.entries]
    u = [[1 if i == j else 0 for j in range(R)] for i in range(R)]
    v = [[1 if i == j else 0 for j in range(C)] for i in range(C)]
    t = 0
    while t < min(R, C):
        pivot = None
        for i in range(t, R):
            for j in range(t, C):
                x = a[i][j]
                if x and (pivot is None or abs(x) < abs(a[pivot[0]][pivot[1]])):
                    pivot = (i, j)
        if pivot is None:
            break
        pi, pj = pivot
        if pi != t:
            a[t], a[pi] = a[pi], a[t]
            u[t], u[pi] = u[pi], u[t]
        if pj != t:
            for row in a:
                row[t], row[pj] = row[pj], row[t]
            for row in v:
                row[t], row[pj] = row[pj], row[t]
        if a[t][t] < 0:
            a[t] = [-x for x in a[t]]
            u[t] = [-x for x in u[t]]
        d = a[t][t]
        dirty = False
        for i in range(t + 1, R):
            if a[i][t]:
                q = a[i][t] // d
                a[i] = [x - q * y for x, y in zip(a[i], a[t])]
                u[i] = [x - q * y for x, y in zip(u[i], u[t])]
                if a[i][t]:
                    dirty = True
        for j in range(t + 1, C):
            if a[t][j]:
                q = a[t][j] // d
                for row in a:
                    row[j] -= q * row[t]
                for row in v:
                    row[j] -= q * row[t]
                if a[t][j]:
                    dirty = True
        if dirty:
            continue
        offender = None
        for i in range(t + 1, R):
            for j in range(t + 1, C):
                if a[i][j] % d:
                    offender = i
                    break
            if offender is not None:
                break
        if offender is not None:
            a[t] = [x + y for x, y in zip(a[t], a[offender])]
            u[t] = [x + y for x, y in zip(u[t], u[offender])]
            continue
        t += 1
    return IntMatrix(u, cols=R), IntMatrix(a, cols=C), IntMatrix(v, cols=C)


def solve(a: IntMatrix, b: IntMatrix) -> IntMatrix | None:
    """An integer matrix x with a @ x == b, or None if some column of b has
    no integer solution.  One Smith form of a serves every column."""
    if b.rows != a.rows:
        raise DimensionError("right-hand side row count mismatch")
    u, s, v = smith_normal_form(a)
    y = [[0] * b.cols for _ in range(a.cols)]
    for i, row in enumerate((u @ b).entries):
        d = s.entries[i][i] if i < a.cols else 0
        if any(x % d for x in row) if d else any(row):
            return None
        if d:
            y[i] = [x // d for x in row]
    return v @ IntMatrix(y, cols=b.cols)


class QuotientPresentation:
    """Z^k modulo the lattice L spanned by the rows of a relation matrix R.

    Smith data U @ R @ V == S is computed once.  ``reduce`` names a coset by
    its canonical representative in the basis of x itself, y' @ V^-1, where
    y = x @ V and y' reduces each y_i with d_i != 0 into [0, d_i).  Vectors
    differ by a relation iff their representatives are equal, and matrices
    in the original basis act on a representative directly.  When V is the
    identity it is x with each torsion coordinate taken mod d_i.
    """

    def __init__(self, rank: int, relations=()):
        rows = [tuple(int(x) for x in r) for r in relations]
        for r in rows:
            if len(r) != rank:
                raise DimensionError("relation length does not match rank")
        self.rank = rank
        self.relations = IntMatrix(rows, cols=rank)
        self.u, self.s, self.v = smith_normal_form(self.relations)
        n = min(self.relations.rows, rank)
        self.diag = tuple(self.s.entries[i][i] for i in range(n))
        self._rows = {}

    @property
    def free_rank(self) -> int:
        return self.rank - sum(1 for d in self.diag if d)

    @property
    def torsion_factors(self) -> tuple[int, ...]:
        return tuple(d for d in self.diag if d > 1)

    def group_invariants(self) -> tuple[int, ...]:
        """Nontrivial invariant factors followed by one 0 per free rank."""
        return self.torsion_factors + (0,) * self.free_rank

    def _lattice_row(self, i: int) -> tuple:
        """The nonzero (j, entry) pairs of row i of U @ R == S @ V^-1, the
        lattice vector d_i times row i of V^-1; built on first use."""
        row = self._rows.get(i)
        if row is None:
            dense = _row_apply(self.u.entries[i], self.relations)
            row = self._rows[i] = tuple((j, b) for j, b in enumerate(dense) if b)
        return row

    def reduce(self, x) -> tuple:
        """The canonical representative of x + L, in the basis of x:
        x - sum_i floor(y_i / d_i) * (U @ R)_i with y = x @ V.  Only the y_i
        with d_i != 0 are formed, so V is read only in those columns, and
        a presentation without relations returns x unchanged."""
        if len(x) != self.rank:
            raise DimensionError("vector length does not match rank")
        out = list(x)
        for i, d in enumerate(self.diag):
            if not d:
                continue
            q = sum(a * row[i] for a, row in zip(x, self.v.entries) if a) // d
            if q:
                for j, b in self._lattice_row(i):
                    out[j] -= q * b
        return tuple(out)

    def is_zero(self, x) -> bool:
        return not any(self.reduce(x))

    def __repr__(self):
        return f"QuotientPresentation(rank={self.rank}, invariants={self.group_invariants()})"

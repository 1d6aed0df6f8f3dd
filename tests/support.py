"""Shared builders for the test suite: group specs, random elements,
trivial-action modules, framing modules, random certified matrices,
generator matrices, flat cocycle tables, coboundary cocycles,
pushed-forward cocycles, suspended lenses, reference implementations
(the full Z[G] product of elements and matrices, which obkit itself
never forms, with certified pairs and the two-sided inverse check built
on it; cocycle check; chi by one linearization per index quadruple; the
dense all-elements Wh oracle; dense row-vector product;
character-by-character JSON parser) that fast paths are checked
against, and the identities Wh normalization and chi must satisfy.  A module element is its reduced coordinate tuple, as in
obkit."""

from __future__ import annotations

import functools
import itertools
import random

from obkit.chi import Cocycle, FiniteQuotient, _resolve_inverse, chi_eval
from obkit.errors import ContextError, DimensionError, RejectedError
from obkit.gmodules import GModule, ModuleMap
from obkit.groupring import (
    DiagonalGen,
    ElementaryGen,
    InvertiblePair,
    RingElement,
    RingMatrix,
    build_invertible,
)
from obkit.groups import FactorSpec, GroupSpec, enumerate_elements, inverse, multiply
from obkit.intlinalg import IntMatrix, QuotientPresentation, smith_normal_form
from obkit.obstruction import LensClass
from obkit.restricted_json import MAX_DEPTH, MAX_INT_DIGITS, JsonError, Node
from obkit.wh1 import WhElement, induced_map


def f2_spec() -> GroupSpec:
    return GroupSpec((FactorSpec.free("x", "y"),))


def tu_spec() -> GroupSpec:
    return GroupSpec((FactorSpec.free("t"), FactorSpec.free("u")))


def zz2_spec() -> GroupSpec:
    return GroupSpec((FactorSpec.free("t"), FactorSpec.abelian(("s",), torsion=[2])))


def zz3_spec() -> GroupSpec:
    return GroupSpec((FactorSpec.free("t"), FactorSpec.abelian(("s",), torsion=[3])))


def zz6_spec() -> GroupSpec:
    return GroupSpec((FactorSpec.free("t"), FactorSpec.abelian(("s",), torsion=[6])))


def mixed_spec() -> GroupSpec:
    return GroupSpec((
        FactorSpec.free("x", "y"),
        FactorSpec.abelian(("a", "s"), free_rank=1, torsion=[4]),
    ))


def zmod_spec(*orders: int) -> GroupSpec:
    names = tuple(f"s{i + 1}" for i in range(len(orders))) if len(orders) > 1 else ("s",)
    return GroupSpec((FactorSpec.abelian(names, torsion=orders),))


def rand_element(rng: random.Random, spec: GroupSpec, max_syllables: int = 4):
    """A random normal-form element built from generator powers."""
    out = spec.identity()
    names = spec.generator_names()
    for _ in range(rng.randint(0, max_syllables)):
        name = rng.choice(names)
        fi, gi = spec.locate(name)
        factor = spec.factors[fi]
        if factor.kind == "abelian" and gi >= factor.free_rank:
            exp = rng.randint(1, factor.torsion[gi - factor.free_rank] - 1)
        else:
            exp = rng.choice([-2, -1, 1, 2])
        out = multiply(out, spec.generator(name, exp))
    return out


# Relation lattices whose Smith form needs column operations (V != I), so
# that Smith coordinates and coordinates in the module's own basis differ.
NON_SMITH_LATTICES = (
    (2, [(2, 2)]),
    (3, [(4, 2, 4), (-1, 0, 0)]),
    (3, [(2, 0, 4), (0, 6, 2)]),
    (4, [(3, 1, 0, 2), (0, 2, 2, -4)]),
)


def trivial_module(spec: GroupSpec, rank: int, relations=(), name: str = "A") -> GModule:
    return GModule(spec, QuotientPresentation(rank, relations), name=name)


@functools.cache
def framing_module(spec: GroupSpec) -> GModule:
    """One trivial-action Z/2 framing module per group spec, shared by the
    lenses a test builds over it."""
    return GModule(spec, QuotientPresentation(1, [(2,)]), name="Z2")


def zero_framing(spec: GroupSpec) -> WhElement:
    return WhElement.zero(framing_module(spec))


def wh_normal_form(x: WhElement) -> WhElement:
    """Renormalize; idempotent on already-canonical elements."""
    return WhElement.build(x.module, x.terms)


def flat_table(quotient: FiniteQuotient, module: GModule, table: dict) -> tuple:
    """The ``Cocycle.values`` of a {(g, h, l): value} dict: one slot per
    triple of ``enumerate_elements(quotient.target)``, g slowest and l
    fastest, holding the zero vector where the dict has no value."""
    keys = list(itertools.product(enumerate_elements(quotient.target), repeat=3))
    if not set(table) <= set(keys):
        raise ContextError("table key outside the quotient group")
    zero = (0,) * module.rank
    return tuple(tuple(table.get(key, zero)) for key in keys)


def coboundary(quotient: FiniteQuotient, module: GModule, two_cochain,
               q_action=None, name: str = "") -> Cocycle:
    """The 3-cocycle that is the coboundary of an explicit 2-cochain.

    Builds tables that pass ``verify_cocycle`` by construction.  The 2-cochain maps pairs of quotient elements to
    coordinate vectors; omitted pairs are zero.  A value that reduces to
    zero leaves its slot the zero vector.
    """
    k = module.rank
    index = quotient.index
    sums = quotient.sums
    n = len(quotient.elements)
    values = [(0,) * k] * (n * n * n)
    probe = Cocycle(quotient, module, values, q_action=q_action)
    b = [(0,) * k] * (n * n)
    for (q1, q2), coords in two_cochain.items():
        coords = tuple(int(x) for x in coords)
        if len(coords) != k:
            raise DimensionError("2-cochain value has the wrong rank")
        if q1 not in index or q2 not in index:
            raise ContextError("2-cochain key outside the quotient group")
        b[index[q1] * n + index[q2]] = coords

    for gi, act in enumerate(probe._element_matrices):
        g_sums = sums[gi]
        for hi in range(n):
            gh = g_sums[hi] * n
            b_gh = b[gi * n + hi]
            for ki, hk in enumerate(sums[hi]):
                total = [
                    x - y + z - w
                    for x, y, z, w in zip(act.apply(b[hi * n + ki]), b[gh + ki],
                                          b[gi * n + hk], b_gh)
                ]
                if any(total) and any(module.presentation.reduce(total)):
                    values[(gi * n + hi) * n + ki] = tuple(total)
    return Cocycle(quotient, module, values, q_action=q_action, name=name)


def pushforward(phi: ModuleMap, c: Cocycle, q_action=None, name: str = "") -> Cocycle:
    """Compose the table with a coefficient map, producing a target cocycle:
    the cocycle whose chi ``chi_naturality_check`` compares."""
    if phi.source is not c.module:
        raise ContextError("map source does not match the cocycle module")
    values = [phi.matrix.apply(val) for val in c.values]
    if q_action is None and not phi.target.trivial_action:
        raise RejectedError(
            "cannot derive a quotient action for a nontrivial-action target"
        )
    return Cocycle(c.quotient, phi.target, values, q_action=q_action, name=name)


def suspend(lens: LensClass, sign: str) -> LensClass:
    """Suspension: '+' keeps k, '-' shifts k by one (flipping the stable sign)."""
    if sign == "+":
        k = lens.k
    elif sign == "-":
        k = lens.k + 1
    else:
        raise ValueError("suspension sign must be '+' or '-'")
    return LensClass(n=lens.n + 1, k=k, framing=lens.framing, main=lens.main,
                     note=lens.note)


def chi_naturality_check(phi, c, a, b, cm, d=None, q_action=None) -> bool:
    """phi_* of chi for c equals chi for the pushed-forward cocycle.

    This holds identically at the chain level; a False return indicates
    a defect.
    """
    lhs = induced_map(phi, chi_eval(c, a, b, cm, d))
    rhs = chi_eval(pushforward(phi, c, q_action=q_action), a, b, cm, d)
    return lhs == rhs


def rand_ring(rng: random.Random, spec: GroupSpec, support: int = 2) -> RingElement:
    out = RingElement.zero(spec)
    for _ in range(rng.randint(1, support)):
        g = rand_element(rng, spec, 2)
        out = out + RingElement.from_element(g, rng.choice([-2, -1, 1, 2]))
    return out


def rand_invertible(rng: random.Random, spec: GroupSpec, n: int, max_gens: int = 6,
                    max_support: int = 4):
    """A certified invertible matrix whose entries keep small support."""
    while True:
        gens = []
        for _ in range(rng.randint(1, max_gens)):
            if n == 1 or rng.random() < 0.3:
                g = rand_element(rng, spec, 2)
                gens.append(DiagonalGen(rng.randrange(n), rng.choice([1, -1]), g))
            else:
                i = rng.randrange(n)
                j = rng.randrange(n)
                while j == i:
                    j = rng.randrange(n)
                x = RingElement.from_element(rand_element(rng, spec, 2),
                                             rng.choice([-1, 1]))
                gens.append(ElementaryGen(i, j, x))
        pair = build_invertible(spec, n, gens)
        supports = [len(e.terms) for row in pair.matrix.entries for e in row]
        supports += [len(e.terms) for row in pair.inverse.entries for e in row]
        if max(supports) <= max_support:
            return pair


def gen_matrix(gen, spec: GroupSpec, n: int) -> RingMatrix:
    """The n x n matrix of one generator: the identity plus x at (i, j) for
    E_ij(x), or with the unit +-g at (i, i) for D_i(+-g); 0-based."""
    m = [list(row) for row in RingMatrix.identity(spec, n).entries]
    if isinstance(gen, ElementaryGen):
        if gen.i == gen.j or not (0 <= gen.i < n and 0 <= gen.j < n):
            raise DimensionError("elementary generator indices out of range")
        m[gen.i][gen.j] = m[gen.i][gen.j] + gen.x
    else:
        if not (0 <= gen.i < n):
            raise DimensionError("diagonal generator index out of range")
        if gen.sign not in (1, -1):
            raise DimensionError("diagonal unit sign must be +1 or -1")
        m[gen.i][gen.i] = RingElement.from_element(gen.g, gen.sign)
    return RingMatrix(spec, m)


def ring_mul(x: RingElement, y: RingElement) -> RingElement:
    """The Z[G] product x*y, term by term.  obkit forms no such product;
    this is the reference its column-operation build is checked against."""
    if x.spec != y.spec:
        raise ContextError("ring elements over different groups")
    out: dict = {}
    for g, a in x.terms.items():
        for h, b in y.terms.items():
            gh = multiply(g, h)
            out[gh] = out.get(gh, 0) + a * b
    return RingElement(x.spec, out)


def ring_matmul(m: RingMatrix, n: RingMatrix) -> RingMatrix:
    """The full matrix product m n over Z[G], operand order kept."""
    if m.n != n.n:
        raise DimensionError("matrix size mismatch")
    idx, zero = range(m.n), RingElement.zero(m.spec)
    return RingMatrix(m.spec, [
        [sum((ring_mul(m.entries[i][k], n.entries[k][j]) for k in idx), zero) for j in idx]
        for i in idx])


def reference_build_invertible(spec: GroupSpec, n: int, gens) -> InvertiblePair:
    """``build_invertible`` by full matrix products: the generators'
    matrices multiplied in order, and the inverted generators' in
    reverse order."""
    gens = tuple(gens)
    m = RingMatrix.identity(spec, n)
    for gen in gens:
        m = ring_matmul(m, gen_matrix(gen, spec, n))
    inv = RingMatrix.identity(spec, n)
    for gen in reversed(gens):
        inv = ring_matmul(inv, gen_matrix(gen.inverted(), spec, n))
    return InvertiblePair(m, inv, gens)


def is_two_sided_inverse(m: RingMatrix, n: RingMatrix) -> bool:
    """m n == n m == identity, by full matrix products."""
    ident = RingMatrix.identity(m.spec, m.n)
    return ring_matmul(m, n) == ident and ring_matmul(n, m) == ident


def rand_unimodular(rng: random.Random, n: int, steps: int = 6) -> IntMatrix:
    """A random determinant +-1 integer matrix from elementary operations."""
    rows = [[1 if i == j else 0 for j in range(n)] for i in range(n)]
    for _ in range(steps):
        i = rng.randrange(n)
        if n > 1:
            j = rng.randrange(n)
            while j == i:
                j = rng.randrange(n)
            c = rng.choice([-2, -1, 1, 2])
            rows[i] = [a + c * b for a, b in zip(rows[i], rows[j])]
        if rng.random() < 0.3:
            rows[i] = [-a for a in rows[i]]
    return IntMatrix(rows)


def det(m: IntMatrix) -> int:
    """Exact determinant by fraction-free (Bareiss) elimination."""
    if m.rows != m.cols:
        raise DimensionError("determinant of a non-square matrix")
    n = m.rows
    if n == 0:
        return 1
    a = [list(r) for r in m.entries]
    sign = 1
    prev = 1
    for t in range(n - 1):
        if a[t][t] == 0:
            for i in range(t + 1, n):
                if a[i][t]:
                    a[t], a[i] = a[i], a[t]
                    sign = -sign
                    break
            else:
                return 0
        for i in range(t + 1, n):
            for j in range(t + 1, n):
                a[i][j] = (a[i][j] * a[t][t] - a[i][t] * a[t][j]) // prev
            a[i][t] = 0
        prev = a[t][t]
    return sign * a[n - 1][n - 1]


def invariant_factors(m: IntMatrix) -> tuple[int, ...]:
    """Diagonal of the Smith form, length min(rows, cols)."""
    _, s, _ = smith_normal_form(m)
    return tuple(s.entries[i][i] for i in range(min(m.rows, m.cols)))


def reference_verify_cocycle(c):
    """The cocycle identity checked quadruple by quadruple on group
    elements: an independent oracle for ``chi.verify_cocycle``.

    Products come from ``multiply``, values from the table keyed by
    element triples and a quotient element acts by applying its
    generators' matrices one at a time.  Returns None or the first
    violated (g, h, q, l), with g slowest and l fastest over the
    quotient's elements.
    """
    module = c.module
    k = module.rank
    names = c.quotient.target.factors[0].names
    elems = enumerate_elements(c.quotient.target)
    table = dict(zip(itertools.product(elems, repeat=3), c.values))

    def act(q, v):
        for _, exps in q.syllables:
            for name, e in zip(names, exps):
                for _ in range(e):
                    v = c._q_matrices[name].apply(v)
        return tuple(v)

    for g in elems:
        for h in elems:
            gh = multiply(g, h)
            for q in elems:
                hq = multiply(h, q)
                for l in elems:
                    ql = multiply(q, l)
                    acted = act(g, table[h, q, l])
                    total = [
                        acted[i]
                        - table[gh, q, l][i]
                        + table[g, hq, l][i]
                        - table[g, h, ql][i]
                        + table[g, h, q][i]
                        for i in range(k)
                    ]
                    if any(module.presentation.reduce(total)):
                        return (g, h, q, l)
    return None


def linearize_eval(c, x: RingElement, y: RingElement, z: RingElement) -> tuple:
    """Trilinear extension of the pulled-back table over Z[G] supports,
    projecting every support element of x, y and z afresh; the value's
    reduced coordinates."""
    module = c.module
    for w in (x, y, z):
        if w.spec != module.spec:
            raise ContextError("ring element over a different group")
    k = module.rank
    table = dict(zip(itertools.product(enumerate_elements(c.quotient.target), repeat=3),
                     c.values))
    total = [0] * k
    proj = c.quotient.project
    xs = [(proj(g), a) for g, a in x.terms.items()]
    ys = [(proj(g), a) for g, a in y.terms.items()]
    zs = [(proj(g), a) for g, a in z.terms.items()]
    for qg, a in xs:
        for qh, b in ys:
            ab = a * b
            for qk, cc in zs:
                coeff = ab * cc
                val = table[qg, qh, qk]
                for i in range(k):
                    total[i] += coeff * val[i]
    return module.presentation.reduce(total)


def reference_chi_eval(c, a, b, cm, d=None) -> WhElement:
    """chi summed index quadruple by index quadruple: one
    ``linearize_eval`` per nonzero (a_ij, b_jk, c_kl), each term of
    d_li bracketing the value.  The reference for ``chi.chi_eval``,
    which shares only its argument checks and inverse resolution."""
    am, bm, cmm = a.matrix, b.matrix, cm.matrix
    if not (am.n == bm.n == cmm.n):
        raise DimensionError("matrix sizes differ")
    d_mat = _resolve_inverse(a, b, cm, d)
    n = am.n
    raw = []
    for i in range(n):
        for j in range(n):
            xij = am.entries[i][j]
            if xij.is_zero:
                continue
            for k in range(n):
                yjk = bm.entries[j][k]
                if yjk.is_zero:
                    continue
                for l in range(n):
                    zkl = cmm.entries[k][l]
                    if zkl.is_zero:
                        continue
                    m = linearize_eval(c, xij, yjk, zkl)
                    if not any(m):
                        continue
                    for h, coeff in d_mat.entries[l][i].terms.items():
                        raw.append(([coeff * x for x in m], h))
    return WhElement.build(c.module, raw)


def reference_oracle_rows(spec: GroupSpec, module: GModule) -> list[list[int]]:
    """Relations of the Wh oracle with a coinvariance relation for every
    pair of group elements: an independent oracle for
    ``wh1.oracle_wh_presentation``, which presents one slot by the
    generators only.

    Rows live in the ambient Z^(k*|G|), slot i holding the coefficient at
    the i-th element of ``enumerate_elements(spec)``: the module's
    relations in every slot, the whole identity slot, and
    a[h] - (g.a)[g h g^-1] for all g, h and basis a.
    """
    elements = enumerate_elements(spec)
    k = module.rank
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
    for g in elements:
        ginv = inverse(g)
        acted = [module.act_vec(g, e) for e in basis]
        for h in elements:
            tgt = index[multiply(multiply(g, h), ginv)]
            src = index[h]
            for j in range(k):
                row = [0] * ambient
                row[src * k + j] += 1
                for i, c in enumerate(acted[j]):
                    row[tgt * k + i] -= c
                if any(row):
                    rows.append(row)
    return rows


def reference_oracle_coords(presentation: QuotientPresentation, elements, x: WhElement) -> tuple:
    """Coordinates of a Wh element in the dense quotient that
    ``reference_oracle_rows`` presents: its terms, raw or not, summed into
    the ambient Z^(k*|G|) slot of each bracket and reduced there."""
    k = x.module.rank
    index = {g: i for i, g in enumerate(elements)}
    vec = [0] * (k * len(elements))
    for coords, g in x.terms:
        slot = index[g]
        for i, c in enumerate(coords):
            vec[slot * k + i] += c
    return presentation.reduce(vec)


def reference_row_apply(vec, m: IntMatrix) -> tuple:
    """Row vector times matrix, one dense dot product per column: the
    reference for ``intlinalg._row_apply``."""
    return tuple(
        sum(vec[i] * m.entries[i][j] for i in range(m.rows)) for j in range(m.cols)
    )


_REFERENCE_ESCAPES = {'"': '"', "\\": "\\", "/": "/", "b": "\b", "f": "\f",
                      "n": "\n", "r": "\r", "t": "\t"}
_ASCII_DIGITS = frozenset("0123456789")


class _ReferenceParser:
    def __init__(self, text: str):
        self.text = text
        self.pos = 0
        self.depth = 0
        self.line_starts = [0]
        for i, ch in enumerate(text):
            if ch == "\n":
                self.line_starts.append(i + 1)

    def where(self, pos: int | None = None) -> tuple[int, int]:
        pos = self.pos if pos is None else pos
        lo, hi = 0, len(self.line_starts) - 1
        while lo < hi:
            mid = (lo + hi + 1) // 2
            if self.line_starts[mid] <= pos:
                lo = mid
            else:
                hi = mid - 1
        return lo + 1, pos - self.line_starts[lo] + 1

    def fail(self, message: str, pos: int | None = None):
        line, col = self.where(pos)
        raise JsonError(message, line, col)

    def skip_ws(self):
        while self.pos < len(self.text) and self.text[self.pos] in " \t\r\n":
            self.pos += 1

    def peek(self) -> str:
        return self.text[self.pos] if self.pos < len(self.text) else ""

    def parse(self) -> Node:
        self.skip_ws()
        node = self.parse_value()
        self.skip_ws()
        if self.pos != len(self.text):
            self.fail("trailing content after the document")
        return node

    def parse_value(self) -> Node:
        self.skip_ws()
        ch = self.peek()
        if ch in ("{", "["):
            self.depth += 1
            if self.depth > MAX_DEPTH:
                self.fail(f"containers nest deeper than {MAX_DEPTH} levels")
            node = self.parse_object() if ch == "{" else self.parse_array()
            self.depth -= 1
            return node
        if ch == '"':
            return self.parse_string()
        if ch == "-" or ch in _ASCII_DIGITS:
            return self.parse_int()
        if self.text.startswith(("true", "false", "null"), self.pos):
            self.fail("booleans and null are not allowed in this profile")
        if ch == "":
            self.fail("unexpected end of input")
        self.fail(f"unexpected character {ch!r}")

    def parse_object(self) -> Node:
        line, col = self.where()
        self.pos += 1
        items = []
        self.skip_ws()
        if self.peek() == "}":
            self.pos += 1
            return Node("object", items, line, col)
        while True:
            self.skip_ws()
            if self.peek() != '"':
                self.fail("object keys must be strings")
            key_node = self.parse_string()
            self.skip_ws()
            if self.peek() != ":":
                self.fail("expected ':' after object key")
            self.pos += 1
            value = self.parse_value()
            items.append((key_node.value, key_node.line, key_node.col, value))
            self.skip_ws()
            ch = self.peek()
            if ch == ",":
                self.pos += 1
                continue
            if ch == "}":
                self.pos += 1
                return Node("object", items, line, col)
            self.fail("expected ',' or '}' in object")

    def parse_array(self) -> Node:
        line, col = self.where()
        self.pos += 1
        items = []
        self.skip_ws()
        if self.peek() == "]":
            self.pos += 1
            return Node("array", items, line, col)
        while True:
            items.append(self.parse_value())
            self.skip_ws()
            ch = self.peek()
            if ch == ",":
                self.pos += 1
                continue
            if ch == "]":
                self.pos += 1
                return Node("array", items, line, col)
            self.fail("expected ',' or ']' in array")

    def parse_string(self) -> Node:
        line, col = self.where()
        start = self.pos
        self.pos += 1
        out = []
        while True:
            if self.pos >= len(self.text):
                self.fail("unterminated string", start)
            ch = self.text[self.pos]
            if ch == '"':
                self.pos += 1
                return Node("string", "".join(out), line, col)
            if ch == "\\":
                self.pos += 1
                esc = self.text[self.pos:self.pos + 1]
                if esc in _REFERENCE_ESCAPES:
                    out.append(_REFERENCE_ESCAPES[esc])
                    self.pos += 1
                elif esc == "u":
                    hexpart = self.text[self.pos + 1:self.pos + 5]
                    if len(hexpart) != 4 or any(c not in "0123456789abcdefABCDEF" for c in hexpart):
                        self.fail("invalid unicode escape")
                    out.append(chr(int(hexpart, 16)))
                    self.pos += 5
                else:
                    self.fail(f"invalid escape {esc!r}")
            elif ch == "\n":
                self.fail("unescaped newline in string", start)
            else:
                out.append(ch)
                self.pos += 1

    def parse_int(self) -> Node:
        line, col = self.where()
        start = self.pos
        if self.peek() == "-":
            self.pos += 1
        if self.peek() not in _ASCII_DIGITS:
            self.fail("expected digits")
        while self.peek() in _ASCII_DIGITS:
            self.pos += 1
        if self.peek() and self.peek() in ".eE":
            self.fail("non-integer numbers are not allowed in this profile", start)
        body = self.text[start:self.pos]
        digits = body[1:] if body.startswith("-") else body
        if len(digits) > 1 and digits.startswith("0"):
            self.fail("leading zeros are not allowed", start)
        if len(digits) > MAX_INT_DIGITS:
            self.fail(f"integer has more than {MAX_INT_DIGITS} digits", start)
        return Node("int", int(body), line, col)


def reference_parse_json(text: str) -> Node:
    """The restricted-JSON profile parsed one character per loop turn:
    the reference that ``restricted_json.parse_json`` must agree with,
    node for node and diagnostic for diagnostic."""
    return _ReferenceParser(text).parse()

"""Words, normal forms and conjugacy in free products of free and
finitely generated abelian factors.

An element is stored as an alternating-syllable normal form: a tuple of
``(factor index, payload)`` pairs in which adjacent syllables lie in
distinct factors and no payload is its factor's identity.  A free-factor
payload is a freely reduced word of signed generator letters
(``+(i+1)`` / ``-(i+1)`` for generator ``i``); an abelian payload is an
exponent vector with torsion exponents reduced into ``[0, order)``.
Normal forms are unique, so element equality is plain comparison.

Conjugacy uses the free-product structure theorem: every element is
conjugate to a cyclically reduced one, and cyclically reduced elements
with at least two syllables are conjugate exactly when one is a syllable
rotation of the other.  A fixed total order on syllables then picks a
canonical representative per class.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field

from .errors import ContextError, UnsupportedError

__all__ = [
    "FactorSpec",
    "GroupSpec",
    "GroupElement",
    "multiply",
    "inverse",
    "conjugacy_canonical",
    "conjugacy_canonical_with_conjugator",
    "are_conjugate",
    "enumerate_elements",
    "element_sort_key",
]


@dataclass(frozen=True)
class FactorSpec:
    """One free factor: a free group of finite rank or a f.g. abelian group."""

    kind: str
    names: tuple[str, ...]
    free_rank: int = 0
    torsion: tuple[int, ...] = ()

    def __post_init__(self):
        if self.kind not in ("free", "abelian"):
            raise ValueError(f"unknown factor kind {self.kind!r}")
        if len(set(self.names)) != len(self.names):
            raise ValueError("generator names within a factor must be distinct")
        if self.kind == "free":
            if not self.names:
                raise ValueError("a free factor needs positive rank")
            if self.torsion or self.free_rank not in (0, len(self.names)):
                raise ValueError("free factors carry no torsion data")
            object.__setattr__(self, "free_rank", len(self.names))
        else:
            if self.free_rank < 0:
                raise ValueError("free_rank must be at least 0")
            if any(m < 2 for m in self.torsion):
                raise ValueError("torsion orders must be at least 2")
            if len(self.names) != self.free_rank + len(self.torsion):
                raise ValueError("abelian factor needs one name per generator")

    @staticmethod
    def free(*names: str) -> "FactorSpec":
        return FactorSpec("free", tuple(names))

    @staticmethod
    def abelian(names, free_rank=0, torsion=()) -> "FactorSpec":
        return FactorSpec("abelian", tuple(names), free_rank, tuple(torsion))

    @property
    def rank(self) -> int:
        return len(self.names)

    def describe(self) -> str:
        if self.kind == "free":
            return f"free[{','.join(self.names)}]"
        orders = ",".join(str(m) for m in self.torsion)
        return f"abelian[{','.join(self.names)}|{orders}]"


@dataclass(frozen=True)
class GroupSpec:
    """A free product of factors; generator names are global and unique."""

    factors: tuple[FactorSpec, ...]

    def __post_init__(self):
        if not self.factors:
            raise ValueError("a group needs at least one factor")
        names = [n for f in self.factors for n in f.names]
        if len(set(names)) != len(names):
            raise ValueError("generator names must be unique across factors")

    def identity(self) -> "GroupElement":
        return GroupElement(self, ())

    def locate(self, name: str) -> tuple[int, int]:
        for fi, f in enumerate(self.factors):
            if name in f.names:
                return fi, f.names.index(name)
        raise ValueError(f"unknown generator {name!r}")

    def generator_names(self) -> tuple[str, ...]:
        return tuple(n for f in self.factors for n in f.names)

    def generator(self, name: str, exp: int = 1) -> "GroupElement":
        fi, gi = self.locate(name)
        f = self.factors[fi]
        if f.kind == "free":
            if exp == 0:
                return self.identity()
            letter = gi + 1 if exp > 0 else -(gi + 1)
            return GroupElement(self, ((fi, (letter,) * abs(exp)),))
        exps = [0] * f.rank
        exps[gi] = exp
        payload = _abelian_reduce(f, exps)
        if not any(payload):
            return self.identity()
        return GroupElement(self, ((fi, payload),))

    @property
    def is_finite(self) -> bool:
        if len(self.factors) != 1:
            return False
        f = self.factors[0]
        return f.kind == "abelian" and f.free_rank == 0

    def order(self) -> int:
        if not self.is_finite:
            raise UnsupportedError("group is infinite")
        out = 1
        for m in self.factors[0].torsion:
            out *= m
        return out

    def describe(self) -> str:
        return " * ".join(f.describe() for f in self.factors)


@dataclass(frozen=True)
class GroupElement:
    """A group element in alternating-syllable normal form."""

    spec: GroupSpec = field(hash=False)
    syllables: tuple

    @property
    def is_identity(self) -> bool:
        return not self.syllables

    def __mul__(self, other: "GroupElement") -> "GroupElement":
        return multiply(self, other)

    def inverse(self) -> "GroupElement":
        return inverse(self)

    def __pow__(self, exp: int) -> "GroupElement":
        """By repeated squaring: at most 2*log2(exp) + 1 products."""
        if exp < 0:
            return inverse(self) ** (-exp)
        out, base = self.spec.identity(), self
        while exp:
            if exp & 1:
                out = multiply(out, base)
            exp >>= 1
            if exp:
                base = multiply(base, base)
        return out

    def __str__(self) -> str:
        if not self.syllables:
            return "1"
        parts = []
        for fi, payload in self.syllables:
            f = self.spec.factors[fi]
            if f.kind == "free":
                for letter, run in _letter_runs(payload):
                    exp = run if letter > 0 else -run
                    name = f.names[abs(letter) - 1]
                    parts.append(name if exp == 1 else f"{name}^{exp}")
            else:
                for gi, e in enumerate(payload):
                    if e:
                        name = f.names[gi]
                        parts.append(name if e == 1 else f"{name}^{e}")
        return "*".join(parts)

    def __repr__(self) -> str:
        return f"<{self}>"


def _letter_runs(word):
    for letter, group in itertools.groupby(word):
        yield letter, sum(1 for _ in group)


def _abelian_reduce(factor: FactorSpec, exps) -> tuple:
    out = list(exps)
    for i, m in enumerate(factor.torsion):
        out[factor.free_rank + i] %= m
    return tuple(out)


def _free_concat(a, b) -> tuple:
    out = list(a)
    for x in b:
        if out and out[-1] == -x:
            out.pop()
        else:
            out.append(x)
    return tuple(out)


def _payload_combine(factor: FactorSpec, a, b):
    """Product of two nonidentity payloads in one factor, or None if trivial."""
    if factor.kind == "free":
        w = _free_concat(a, b)
        return w if w else None
    out = _abelian_reduce(factor, [x + y for x, y in zip(a, b)])
    return out if any(out) else None


def _push_syllable(factors, syls: list, fi: int, payload) -> None:
    while syls and syls[-1][0] == fi:
        prev = syls.pop()
        payload = _payload_combine(factors[fi], prev[1], payload)
        if payload is None:
            return
    syls.append((fi, payload))


def _same_spec(g: GroupElement, h: GroupElement) -> None:
    if g.spec != h.spec:
        raise ContextError("elements live over different group specs")


def multiply(g: GroupElement, h: GroupElement) -> GroupElement:
    """Normal form of g*h."""
    _same_spec(g, h)
    syls = list(g.syllables)
    for fi, payload in h.syllables:
        _push_syllable(g.spec.factors, syls, fi, payload)
    return GroupElement(g.spec, tuple(syls))


# Inverses and sort keys are tuples of lists, not of generators: CPython
# sizes tuple(<generator>) by resizing, and a freed resized tuple stays on
# its size's free list.  From generators, these filled the lists for word
# lengths 7 to 19 on chi-matrix: about 3.5 MB until a full collection.
def inverse(g: GroupElement) -> GroupElement:
    syls = []
    for fi, payload in reversed(g.syllables):
        f = g.spec.factors[fi]
        if f.kind == "free":
            p = tuple([-x for x in reversed(payload)])
        else:
            p = _abelian_reduce(f, [-e for e in payload])
        syls.append((fi, p))
    return GroupElement(g.spec, tuple(syls))


def _letter_key(letter: int) -> tuple[int, int]:
    return (abs(letter) - 1, 0 if letter > 0 else 1)


def _syllable_key(spec: GroupSpec, syl) -> tuple:
    fi, payload = syl
    if spec.factors[fi].kind == "free":
        return (fi, tuple([_letter_key(x) for x in payload]))
    return (fi, tuple(payload))


def element_sort_key(g: GroupElement) -> tuple:
    """Fixed total order: syllable count, then syllable-wise comparison."""
    return (len(g.syllables), tuple([_syllable_key(g.spec, s) for s in g.syllables]))


def _cyclically_reduce(g: GroupElement) -> tuple[GroupElement, GroupElement]:
    """Return (core, conjugator) with g = conjugator * core * conjugator^-1.

    The core is cyclically reduced: its first and last syllables neither
    merge nor cancel under rotation, and a single free-factor syllable is
    a cyclically reduced word.
    """
    spec = g.spec
    cur = list(g.syllables)
    conj = spec.identity()
    while len(cur) >= 2 and cur[0][0] == cur[-1][0]:
        fi, first_payload = cur[0]
        last_payload = cur[-1][1]
        conj = multiply(conj, GroupElement(spec, ((fi, first_payload),)))
        merged = _payload_combine(spec.factors[fi], last_payload, first_payload)
        cur = cur[1:-1]
        if merged is not None:
            cur.append((fi, merged))
    if len(cur) == 1 and spec.factors[cur[0][0]].kind == "free":
        fi, word = cur[0]
        w = list(word)
        while len(w) >= 2 and w[0] == -w[-1]:
            conj = multiply(conj, GroupElement(spec, ((fi, (w[0],)),)))
            w = w[1:-1]
        cur = [(fi, tuple(w))] if w else []
    return GroupElement(spec, tuple(cur)), conj


def conjugacy_canonical_with_conjugator(g: GroupElement) -> tuple[GroupElement, GroupElement]:
    """Canonical class representative plus c with g = c * rep * c^-1."""
    core, conj = _cyclically_reduce(g)
    spec = g.spec
    syls = core.syllables
    n = len(syls)
    if n >= 2:
        def rot_key(r):
            rotated = syls[r:] + syls[:r]
            return tuple([_syllable_key(spec, s) for s in rotated])

        best = min(range(n), key=rot_key)
        if best:
            prefix = GroupElement(spec, syls[:best])
            conj = multiply(conj, prefix)
            core = GroupElement(spec, syls[best:] + syls[:best])
    elif n == 1 and spec.factors[syls[0][0]].kind == "free":
        fi, word = syls[0]
        m = len(word)

        def word_key(r):
            return tuple([_letter_key(x) for x in word[r:] + word[:r]])

        best = min(range(m), key=word_key)
        if best:
            prefix = GroupElement(spec, ((fi, word[:best]),))
            conj = multiply(conj, prefix)
            core = GroupElement(spec, ((fi, word[best:] + word[:best]),))
    return core, conj


def conjugacy_canonical(g: GroupElement) -> GroupElement:
    """Canonical representative of the conjugacy class of g."""
    return conjugacy_canonical_with_conjugator(g)[0]


def are_conjugate(g: GroupElement, h: GroupElement) -> bool:
    _same_spec(g, h)
    return conjugacy_canonical(g) == conjugacy_canonical(h)


def enumerate_elements(spec: GroupSpec) -> list[GroupElement]:
    """All elements of a finite group, identity first; deterministic order."""
    if not spec.is_finite:
        raise UnsupportedError("cannot enumerate an infinite group")
    f = spec.factors[0]
    out = []
    for exps in itertools.product(*(range(m) for m in f.torsion)):
        if any(exps):
            out.append(GroupElement(spec, ((0, tuple(exps)),)))
        else:
            out.append(spec.identity())
    return out

"""Seeded inputs for the obkit benchmark.

A workload is one round of jobs plus the restricted-JSON scenario files
those jobs read.  A job is what a user would type: an argv for the
``obkit`` command line, naming the scenario file it reads.  The
generator does its own arithmetic (coboundary tables, action powers,
expected verdicts) and never imports obkit, so a defect in the program
cannot leak into the inputs or into the expected answers.

The same seed always gives the same bytes.  The seed changes content
only: the sweep points, the action on each point and the shape of every
matrix are fixed, so the cost of a round hardly depends on the seed.
The first job of every workload is its smallest point.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass, field

WORKLOADS = ("paper-report", "cocycle-torsion", "chi-matrix", "wh-finite")
DEFAULT_SEED = 1

FIXTURES = ("paper_f2.json", "paper_z2.json", "paper_z6.json")

# Rank-3 actions that fix e1 (first row and column), so the first
# coordinate of every slot is an invariant of the coinvariants.  Each is
# given with its order.
ACTIONS = {
    "swap": (((1, 0, 0), (0, 0, 1), (0, 1, 0)), 2),
    "rot4": (((1, 0, 0), (0, 0, -1), (0, 1, 0)), 4),
    "rot6": (((1, 0, 0), (0, 0, -1), (0, 1, 1)), 6),
}

# Sweep points: torsion order m (or matrix size n) and the action used
# there.  A round holds each point once per variant.  The heavier the
# round, the fewer variants, so that a run still times at least 100 jobs;
# chi-matrix has the most, because its cost depends most on the content.
TORSION_POINTS = {4: "rot4", 6: "rot6", 8: "rot4"}
TORSION_VARIANTS = 1
MATRIX_SIZES = (2, 3, 4, 5, 6)
MATRIX_VARIANTS = 6
WH_POINTS = {8: "rot4", 12: "rot6", 16: "rot4"}
WH_VARIANTS = 2

# The one-entry cocycle of the shipped Z/2 fixture.
Z2_ENTRY = {"args": ["q", "q", "q"], "value": [0, -1, 1]}

# Builtin oracle cases of the agree jobs, one per variant.
AGREE_CASES = (("Z2xZ2", "Z^3trivial"), ("Z2xZ3", "Z^2trivial"))
AGREE_PAIRS = 150


@dataclass(frozen=True)
class Job:
    """One command: its argv, the sweep point it belongs to, and the
    ``KEY: value`` lines its report must contain."""

    key: str
    point: str
    argv: tuple[str, ...]
    expect: tuple[tuple[str, str], ...]


@dataclass
class Inputs:
    """One round of jobs and the scenario files they read, by path."""

    jobs: list[Job] = field(default_factory=list)
    files: dict[str, str] = field(default_factory=dict)


# -- integer arithmetic ----------------------------------------------------


def mat_vec(m, v) -> tuple:
    return tuple(sum(a * b for a, b in zip(row, v)) for row in m)


def mat_pow_vec(m, e: int, v) -> tuple:
    for _ in range(e):
        v = mat_vec(m, v)
    return v


def coboundary_table(m: int, action, two_cochain) -> dict:
    """Nonzero values of db over Z/m for a 2-cochain b, given as a dict
    from pairs of exponents to rank-3 vectors:
    db(g,h,k) = g.b(h,k) - b(gh,k) + b(g,hk) - b(g,h)."""
    zero = (0, 0, 0)

    def b(p, q):
        return two_cochain.get((p, q), zero)

    table = {}
    for g in range(m):
        for h in range(m):
            for k in range(m):
                acted = mat_pow_vec(action, g, b(h, k))
                total = tuple(
                    acted[i] - b((g + h) % m, k)[i] + b(g, (h + k) % m)[i] - b(g, h)[i]
                    for i in range(3)
                )
                if any(total):
                    table[(g, h, k)] = total
    return table


def slot_sums(terms) -> dict:
    """Coefficient sums per bracket exponent, zero slots dropped."""
    sums = {}
    for a, h in terms:
        s = sums.setdefault(h, [0, 0, 0])
        for i in range(3):
            s[i] += a[i]
    return {h: tuple(s) for h, s in sums.items() if any(s)}


# -- rendering -------------------------------------------------------------


def power_word(name: str, e: int) -> str:
    if e == 0:
        return "1"
    return name if e == 1 else f"{name}^{e}"


def dump(obj) -> str:
    return json.dumps(obj, indent=1) + "\n"


def cyclic_factor(name: str, order: int) -> dict:
    return {"kind": "abelian", "names": [name], "free_rank": 0, "torsion": [order]}


def action_rows(name: str) -> list[list[int]]:
    return [list(row) for row in ACTIONS[name][0]]


def cocycle_scenario(name: str, order: int, action: str, entries, matrices) -> dict:
    """A scenario over t * Z/order with a rank-3 module, its quotient onto
    Z/order and one cocycle c: what the chi command needs."""
    return {
        "name": name,
        "group": {"factors": [{"kind": "free", "names": ["t"]}, cyclic_factor("s", order)]},
        "modules": {"pi2": {"rank": 3, "action": {"s": action_rows(action)}}},
        "quotients": {"Q": {"factors": [cyclic_factor("q", order)],
                            "images": {"t": "1", "s": "q"}}},
        "cocycles": {"c": {"quotient": "Q", "module": "pi2", "entries": entries,
                           "q_action": {"q": action_rows(action)}}},
        "matrices": matrices,
    }


# -- certified matrices ----------------------------------------------------


def random_unit(rng: random.Random, order: int, exp_range: int) -> str:
    """t^a * s^b with a drawn from [-exp_range, exp_range]."""
    parts = [power_word(n, e) for n, e in (("t", rng.randint(-exp_range, exp_range)),
                                          ("s", rng.randrange(order))) if e]
    return "*".join(parts) if parts else "1"


def random_ring(rng: random.Random, order: int, exp_range: int, support: int) -> str:
    words = []
    while len(words) < support:
        w = random_unit(rng, order, exp_range)
        if w not in words:
            words.append(w)
    coeffs = [rng.choice((-2, -1, 1, 2)) for _ in words]
    return " + ".join(str(c) if w == "1" else f"{c}*{w}" for c, w in zip(coeffs, words))


def block_sequence(rng: random.Random, n: int, order: int, upper: bool,
                   exp_range: int, support: int) -> str:
    """``D(i,"+-g") ; E(i,j,"x") ; ...``: a diagonal unit, then one
    elementary generator on every position of the off-diagonal block
    between the first ceil(n/2) indices and the rest (upper or lower).
    Positions of one block never chain (e_ij e_kl = 0), so entry supports
    stay bounded and the cost grows smoothly with n."""
    top = range(1, (n + 1) // 2 + 1)
    bottom = range((n + 1) // 2 + 1, n + 1)
    pairs = [(i, j) if upper else (j, i) for i in top for j in bottom]
    rng.shuffle(pairs)
    sign = rng.choice(("", "-"))
    items = [f'D({rng.randint(1, n)},"{sign}{random_unit(rng, order, exp_range)}")']
    for i, j in pairs:
        items.append(f'E({i},{j},"{random_ring(rng, order, exp_range, support)}")')
    return " ; ".join(items)


def certified_triple(rng: random.Random, n: int, order: int, exp_range: int,
                     support: int) -> dict:
    """Matrices A (upper block), B (lower block) and C (upper block)."""
    return {
        name: {"size": n,
               "generators": block_sequence(rng, n, order, upper, exp_range, support)}
        for name, upper in (("A", True), ("B", False), ("C", True))
    }


# -- workloads -------------------------------------------------------------


def paper_report(seed: int, workdir: str) -> Inputs:
    """report-paper on the three shipped fixtures, round-robin.  The
    inputs are the fixtures themselves, so the seed changes nothing."""
    inputs = Inputs()
    for name in FIXTURES:
        inputs.jobs.append(Job(
            key=name, point=name.removesuffix(".json"),
            argv=("--scenario", f"scenarios/{name}", "report-paper"),
            expect=(("COCYCLE_OK", "true"), ("POWERS_NONTRIVIAL", "1..64"),
                    ("CIRCLE", "nontrivial")),
        ))
    return inputs


def torsion_scenario(rng: random.Random, m: int, action: str) -> dict:
    """A dense coboundary table over Z/m from a seeded 2-cochain that is
    nonzero on every pair, and three certified 2 x 2 matrices."""
    two_cochain = {}
    for p in range(m):
        for q in range(m):
            v = (0, 0, 0)
            while not any(v):
                v = tuple(rng.randint(-2, 2) for _ in range(3))
            two_cochain[(p, q)] = v
    table = coboundary_table(m, ACTIONS[action][0], two_cochain)
    entries = [
        {"args": [power_word("q", g), power_word("q", h), power_word("q", k)],
         "value": list(v)}
        for (g, h, k), v in sorted(table.items())
    ]
    return cocycle_scenario(f"torsion-Z{m}", m, action, entries,
                            certified_triple(rng, 2, m, 3, 2))


def cocycle_torsion(seed: int, workdir: str) -> Inputs:
    """chi c A B C over t * Z/m; loading and the command each run the
    exhaustive |Q|^4 cocycle check."""
    inputs = Inputs()
    for v in range(TORSION_VARIANTS):
        for m, action in TORSION_POINTS.items():
            rng = random.Random(f"cocycle-torsion:{seed}:{m}:{v}")
            path = f"{workdir}/torsion_m{m}_v{v}.json"
            inputs.files[path] = dump(torsion_scenario(rng, m, action))
            inputs.jobs.append(Job(
                key=f"m{m}.v{v}", point=f"m{m}",
                argv=("--scenario", path, "chi", "c", "A", "B", "C"),
                expect=(("COCYCLE_OK", "true"),),
            ))
    return inputs


def chi_matrix(seed: int, workdir: str) -> Inputs:
    """chi c A B C on certified n x n matrices over t * Z/2 with the
    one-entry cocycle of the Z/2 fixture: Z[G] products dominate.  Entries
    are single terms t^a * s^b with a in [-24, 24]; two-term entries
    would make n = 6 cost over a second."""
    inputs = Inputs()
    for v in range(MATRIX_VARIANTS):
        for n in MATRIX_SIZES:
            rng = random.Random(f"chi-matrix:{seed}:{n}:{v}")
            path = f"{workdir}/chi_n{n}_v{v}.json"
            doc = cocycle_scenario(f"chi-n{n}", 2, "swap", [Z2_ENTRY],
                                   certified_triple(rng, n, 2, 24, 1))
            inputs.files[path] = dump(doc)
            inputs.jobs.append(Job(
                key=f"n{n}.v{v}", point=f"n{n}",
                argv=("--scenario", path, "chi", "c", "A", "B", "C"),
                expect=(("COCYCLE_OK", "true"),),
            ))
    return inputs


def wh_expr(terms) -> str:
    return " + ".join(f"({','.join(str(x) for x in a)})[{power_word('s', h)}]"
                      for a, h in terms)


def coinvariant_pair(rng: random.Random, m: int, action: str, equal: bool):
    """Two Wh expressions over Z/m.  The second moves every coefficient by
    a power of the action; in an abelian group a[h] ~ (g.a)[h], so the two
    are equal.  An unequal pair also gets a term that changes the first
    coordinate of one slot, which every action here leaves invariant."""
    matrix, order = ACTIONS[action]
    while True:
        terms = [(tuple(rng.randint(-3, 3) for _ in range(3)), rng.randint(1, m - 1))
                 for _ in range(rng.randint(2, 4))]
        moved = [(mat_pow_vec(matrix, rng.randrange(order), a), h) for a, h in terms]
        # Equal canonical forms would settle the pair without the oracle.
        if slot_sums(terms) != slot_sums(moved):
            break
    rng.shuffle(moved)
    if not equal:
        moved.append(((rng.choice((-2, -1, 1, 2)), 0, 0), rng.randint(1, m - 1)))
    return wh_expr(terms), wh_expr(moved)


def wh_finite(seed: int, workdir: str) -> Inputs:
    """wh equal over Z/m with a rank-3 action, where every job builds the
    SNF oracle, beside oracle agree jobs that build a small oracle once
    and reduce many pairs."""
    inputs = Inputs()
    for v in range(WH_VARIANTS):
        for m, action in WH_POINTS.items():
            rng = random.Random(f"wh-finite:{seed}:{m}:{v}")
            path = f"{workdir}/wh_m{m}_v{v}.json"
            inputs.files[path] = dump({
                "name": f"wh-Z{m}",
                "group": {"factors": [cyclic_factor("s", m)]},
                "modules": {"A": {"rank": 3, "action": {"s": action_rows(action)}}},
            })
            for equal in (True, False):
                x, y = coinvariant_pair(rng, m, action, equal)
                inputs.jobs.append(Job(
                    key=f"m{m}.v{v}.{'eq' if equal else 'ne'}", point=f"m{m}",
                    argv=("--scenario", path, "wh", "equal", x, y, "--module", "A"),
                    expect=(("RESULT", "true" if equal else "false"),),
                ))
        rng = random.Random(f"wh-finite:{seed}:agree:{v}")
        group, module = AGREE_CASES[v % len(AGREE_CASES)]
        inputs.jobs.append(Job(
            key=f"agree.v{v}", point="agree",
            argv=("--seed", str(rng.randrange(10**6)), "oracle", "agree", group,
                  module, "--pairs", str(AGREE_PAIRS)),
            expect=(("PAIRS", str(AGREE_PAIRS)), ("DISAGREEMENTS", "0"), ("RESULT", "ok")),
        ))
    return inputs


GENERATORS = {
    "paper-report": paper_report,
    "cocycle-torsion": cocycle_torsion,
    "chi-matrix": chi_matrix,
    "wh-finite": wh_finite,
}


def generate(workload: str, seed: int, workdir: str) -> Inputs:
    """One round of jobs.  Scenario paths are relative to the checkout
    root; generated files go under ``workdir``."""
    return GENERATORS[workload](seed, workdir)

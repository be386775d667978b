"""Seeded instance generators for the three benchmark workloads.

The program under test receives only the constraint text; the checker
uses the generator's own rows (``sum coeffs[v] * xv <= bound``), so it
never depends on the program's parser.  Instance k of a workload is drawn
from its own ``random.Random`` seeded by (workload, seed, k), so a run
that completes more instances sees a superset of a slower run's inputs.
The number of variables and, for ``cli-check``, the constraint count
and the verdict cycle through fixed sequences, which keeps the input mix
the same on every seed.  No generator looks at an instance's outcome.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction

Row = tuple[tuple[int, ...], Fraction]


@dataclass(frozen=True)
class Instance:
    index: int
    n: int
    text: str
    rows: tuple[Row, ...]


class _Recorder:
    """Collects constraint lines and their rows for one instance."""

    def __init__(self, rng: random.Random, n: int):
        self.rng = rng
        self.n = n
        self.lines: list[str] = []
        self.rows: list[tuple[dict[int, int], Fraction]] = []

    def add(self, pos: list[int], neg: list[int], k: Fraction) -> None:
        coeffs: dict[int, int] = {}
        for v in pos:
            coeffs[v] = coeffs.get(v, 0) + 1
        for v in neg:
            coeffs[v] = coeffs.get(v, 0) - 1
        terms = [f"x{v}" for v in pos]
        lhs = " + ".join(terms)
        for v in neg:
            lhs += f" - x{v}"
        self.lines.append(f"{lhs.strip()} <= {k}")
        self.rows.append((coeffs, Fraction(k)))

    def add_ge(self, v: int, k: Fraction) -> None:
        """xv >= k, written with the >= relation."""
        self.lines.append(f"x{v} >= {k}")
        self.rows.append(({v: -1}, -Fraction(k)))

    def instance(self, index: int) -> Instance:
        n = max(v for coeffs, _ in self.rows for v in coeffs)
        rows = []
        for coeffs, k in self.rows:
            vec = [0] * (n + 1)
            for v, a in coeffs.items():
                vec[v] = a
            rows.append((tuple(vec), k))
        return Instance(index, n, "\n".join(self.lines) + "\n", tuple(rows))


def _bound(rng: random.Random, lo: int, hi: int) -> Fraction:
    return Fraction(rng.randint(lo, hi), rng.choice((1, 1, 2)))


def _signed_pair(rng: random.Random, n: int) -> tuple[list[int], list[int]]:
    a, b = rng.sample(range(1, n + 1), 2)
    sa, sb = rng.choice(((1, 1), (1, -1), (-1, -1)))
    pos = [v for v, s in ((a, sa), (b, sb)) if s > 0]
    neg = [v for v, s in ((a, sa), (b, sb)) if s < 0]
    return pos, neg


def _upper(rng: random.Random, n: int) -> tuple[list[int], list[int]]:
    """xi - xj - xp (the UpperBound form xi - xj <= xp + k)."""
    i, j, p = rng.sample(range(1, n + 1), 3)
    return [i], [j, p]


def _lower(rng: random.Random, n: int) -> tuple[list[int], list[int]]:
    """xi + xq - xj (the LowerBound form xq <= xj - xi + k)."""
    i, q, j = rng.sample(range(1, n + 1), 3)
    return [i, q], [j]


def _general(rng: random.Random, n: int) -> tuple[list[int], list[int]]:
    """(xi - xj) - (xp - xq) with disjoint sides; at n = 3 one side
    repeats a variable (a coefficient-2 term)."""
    variables = rng.sample(range(1, n + 1), min(n, 4))
    if n >= 4:
        return variables[2:], variables[:2]
    return variables[1:], variables[:1] * 2


def _box(b: _Recorder) -> dict[int, tuple[int, int]]:
    box = {}
    for v in range(1, b.n + 1):
        box[v] = (-b.rng.randint(1, 10), b.rng.randint(1, 10))
        b.add([v], [], Fraction(box[v][1]))
        b.add_ge(v, Fraction(box[v][0]))
    return box


def octagon_solve(b: _Recorder) -> None:
    """Box plus +-xi +-xj <= k, feasible by construction: every bound is
    the value at a hidden point of the box plus a random slack >= 0, so
    each instance goes through witness extraction."""
    rng = b.rng
    point = {
        v: Fraction(rng.randint(2 * lo, 2 * hi), 2)
        for v, (lo, hi) in _box(b).items()
    }
    for _ in range(rng.randint(b.n, 2 * b.n)):
        pos, neg = _signed_pair(rng, b.n)
        value = sum(point[v] for v in pos) - sum(point[v] for v in neg)
        b.add(pos, neg, value + Fraction(rng.randint(0, 8), 2))


def general_solve(b: _Recorder) -> None:
    """Box plus two to n + 1 three- and four-variable constraints."""
    rng = b.rng
    _box(b)
    for _ in range(rng.randint(2, b.n + 1)):
        pos, neg = rng.choice((_general, _upper, _lower))(rng, b.n)
        b.add(pos, neg, _bound(rng, -6, 12))


def _cli_shape(rng: random.Random, n: int) -> tuple[list[int], list[int]]:
    kind = rng.randrange(4)
    if kind == 0:
        v = rng.randint(1, n)
        return ([v], []) if rng.random() < 0.5 else ([], [v])
    return (_signed_pair, _upper, _lower)[kind - 1](rng, n)


def cli_check(b: _Recorder, count: int, infeasible: bool) -> None:
    """``count`` single-variable, octagon, upper- and lower-bound-form
    constraints, no box, satisfied by a hidden point.  An infeasible
    instance swaps the last one for the reverse of a random member,
    tightened past it (a two-member contradiction among otherwise
    consistent constraints).  Lines are shuffled.

    The coefficient-2 shape (``x1 + x2 - 2 x3``, the only four-slot
    general form at n = 3) is left out: on about 1 feasible unboxed file
    in 200 its closure converges only geometrically and runs to the
    128-sweep cap, 3-4 s against a typical 0.1 s, so whether a run drew
    one would decide its throughput.  general-solve keeps the shape,
    boxed."""
    rng = b.rng
    point = {v: Fraction(rng.randint(-12, 12), 2) for v in range(1, b.n + 1)}
    members = []
    for _ in range(count - 1 if infeasible else count):
        pos, neg = _cli_shape(rng, b.n)
        value = sum(point[v] for v in pos) - sum(point[v] for v in neg)
        k = value + Fraction(rng.randint(0, 12), 2)
        members.append((pos, neg, k))
    if infeasible:
        pos, neg, k = rng.choice(members)
        members.append((neg, pos, -k - Fraction(rng.randint(1, 8), 2)))
    rng.shuffle(members)
    for pos, neg, k in members:
        if not pos and len(neg) == 1:
            b.add_ge(neg[0], -k)
        else:
            b.add(pos, neg, k)


WORKLOADS = ("octagon-solve", "general-solve", "cli-check")

#: Instance k of a workload has n = N_CYCLE[workload][k % len(cycle)].
#: The solve workloads take n = 3 four times in five so that a run
#: finishes the 100 instances its p90 needs.  cli-check stays at n = 3:
#: at n = 4 about 1 feasible unboxed file in 250 runs to the 313-sweep
#: cap, about 20 s.
N_CYCLE = {
    "octagon-solve": (3, 3, 3, 3, 4),
    "general-solve": (3, 3, 3, 3, 4),
    "cli-check": (3,),
}

#: cli-check instance k is infeasible when k is odd and has
#: CLI_COUNTS[k // 2 % 9] constraints: every 18 instances cover each
#: combination of verdict and count once.
CLI_COUNTS = (6, 7, 8, 9, 10, 11, 12, 13, 14)


def instance(workload: str, seed: int, index: int) -> Instance:
    rng = random.Random(f"{workload}/{seed}/{index}")
    ns = N_CYCLE[workload]
    b = _Recorder(rng, ns[index % len(ns)])
    if workload == "octagon-solve":
        octagon_solve(b)
    elif workload == "general-solve":
        general_solve(b)
    else:
        count = CLI_COUNTS[index // 2 % len(CLI_COUNTS)]
        cli_check(b, count, infeasible=index % 2 == 1)
    return b.instance(index)

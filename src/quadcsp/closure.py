"""Iterated tightening of a 2D bound matrix to (an approximation of) its
canonical form.

The closure applies the two composition laws

    M[i,j,p,q] <= M[i,j,k,l] + M[k,l,p,q]
    M[i,j,p,q] <= M[i,k,l,q] + M[k,j,p,l]

in rounds, each followed by coherence normalization (class equality and
doubled-cell coupling).  The first round of a close from scratch is a
full sweep: every cell (i,j,p,q) against every intermediate pair (k,l),
2(n+1)^6 candidates.  Every later round is semi-naive (delta-driven): it
recombines only the cells lowered in the previous round, each as either
operand of either law, 4(n+1)^2 candidates per lowered cell, and falls
back to a full sweep when more than half of the (n+1)^4 cells were
lowered.  A combination none of whose operands moved was already
evaluated, so a round that lowers nothing proves stationarity just as a
full sweep would.  A caller that lowered a few cells of a stationary
matrix (a witness pin) passes them in, and even the first round is then
delta-driven.

Rounds repeat until nothing changes, capped at ceil((n+1)^4 / 2).  A
zero-normal-vector cell dropping below zero is a derived contradiction
"0 <= negative": the verdict turns infeasible and the run stops at the
end of that round.

Arithmetic is exact and runs on plain ints.  On entry the finite cells
are scaled to one common denominator D, the lcm of their denominators,
and each is stored as the int v * D (+inf stays +inf); on exit every
finite cell turns back into Fraction(v, D), so callers only ever see
Fractions.  Sums and comparisons of scaled cells are those of the
rationals they stand for, so every round takes the same path as it would
on Fractions.  Two steps leave the integers, and each rescales the whole
matrix first: halving an odd doubled cell doubles D, and an accepted
acceleration jump whose values have denominator f (over D) multiplies D
by f.  The jump's own linear solve stays on Fractions.

Every update derives a valid consequence of the input constraints, so the
result never under-approximates the true tightest bounds.  On octagon
inputs the fixpoint is exactly the canonical form; otherwise it is an
upper approximation: some tightest bounds need a combination the laws
never form (a sum u + w = 2v where 2v is not a cell, or a coefficient 3;
see exactness_of).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from typing import Iterable

from .core import Constraint4
from .matrix2d import Matrix2D


class Subclass(Enum):
    """Syntactic shape of a constraint set, deciding closure exactness."""

    OCTAGON = "Octagon"
    UPPER_BOUND = "UpperBound"
    LOWER_BOUND = "LowerBound"
    GENERAL = "General"


class Exactness(Enum):
    EXACT = "Exact"
    UPPER_APPROX = "UpperApprox"


@dataclass(frozen=True)
class ClosureResult:
    matrix: Matrix2D
    feasible: bool
    sweeps_used: int
    exactness: Exactness
    #: The last round lowered nothing: no law applies any more.  False
    #: when the run stopped on infeasibility or at the round cap.
    stationary: bool = False


def sweep_cap(n: int) -> int:
    """Hard iteration backstop: ceil((n+1)^4 / 2)."""
    return ((n + 1) ** 4 + 1) // 2


def classify(constraints: Iterable[Constraint4]) -> Subclass:
    """Syntactic subclass of a canonical constraint list.

    Octagon: at most two nonzero occurrences per constraint
    (+-xi +-xj <= k).  UpperBound: q = 0 throughout (xi - xj <= xp + k).
    LowerBound: p = 0 throughout (xp <= xi - xj + k).  Anything else is
    General.
    """
    cs = list(constraints)
    if all(sum(1 for v in c.indices() if v) <= 2 for c in cs):
        return Subclass.OCTAGON
    if all(c.q == 0 for c in cs):
        return Subclass.UPPER_BOUND
    if all(c.p == 0 for c in cs):
        return Subclass.LOWER_BOUND
    return Subclass.GENERAL


def exactness_of(sub: Subclass) -> Exactness:
    """Whether the closure reaches the true canonical form on a subclass.

    Only Octagon inputs are guaranteed exact.  The three-variable
    UpperBound/LowerBound shapes admit systems whose tightest bounds
    need combinations that no sequence of pairwise compositions and
    halvings reaches:

    - a sum u + w = 2v where 2v is not a cell: 2x1 - x4 <= 7 plus
      2x2 - x4 <= -3/2 gives 2(x1 + x2 - x4) <= 11/2, but only the
      doubled differences 2xi - 2xj have a cell that halving reads;
    - a coefficient 3: adding x1 + x2 <= a to 2x2 - x1 <= b gives
      3x2 <= a + b, which no composition divides by 3.

    The closure is then stationary strictly above the canonical form
    (or leaves the class at +inf), so those classes are honestly
    reported as upper approximations.
    """
    if sub is Subclass.OCTAGON:
        return Exactness.EXACT
    return Exactness.UPPER_APPROX


def _sweep(cells: list[list], n: int, trace: dict | None = None) -> bool:
    """One full pass of both composition laws, in place.

    Row-major over cells, intermediates in index order; updated values
    are used immediately (the fixpoint is order-independent, the order
    only makes sweep counts reproducible).  With ``trace`` given, each
    changed cell maps to its winning term ("sum", cell_a, cell_b).
    """
    np1 = n + 1
    size = np1 * np1
    div = [s // np1 for s in range(size)]
    mod = [s % np1 for s in range(size)]
    base = [k * np1 for k in range(np1)]
    changed = False
    for r in range(size):
        p, q = div[r], mod[r]
        row_r = cells[r]
        rows_lq = [cells[base[l] + q] for l in range(np1)]
        rows_pl = [cells[base[p] + l] for l in range(np1)]
        for c in range(size):
            i, j = div[c], mod[c]
            ibase = base[i]
            original = row_r[c]
            best = original
            term = None
            for s in range(size):
                a = cells[s][c]
                if type(a) is not float:
                    b = row_r[s]
                    if type(b) is not float:
                        cand = a + b
                        if cand < best:
                            best = cand
                            term = ("sum", (s, c), (r, s))
                k, l = div[s], mod[s]
                a = rows_lq[l][ibase + k]
                if type(a) is not float:
                    b = rows_pl[l][base[k] + j]
                    if type(b) is not float:
                        cand = a + b
                        if cand < best:
                            best = cand
                            term = (
                                "sum",
                                (base[l] + q, ibase + k),
                                (base[p] + l, base[k] + j),
                            )
            if best < original:
                row_r[c] = best
                changed = True
                if trace is not None:
                    trace[(r, c)] = term
    return changed


def _delta_round(
    cells: list[list], n: int, lowered: Iterable[tuple[int, int]], trace: dict
) -> bool:
    """One semi-naive pass of both composition laws, in place.

    Recombines each cell of ``lowered`` as either operand of either law
    with the current value of the other operand; no other combination
    is evaluated.  Cells are taken in row-major order and updated values
    are used immediately, as in ``_sweep``.  Each changed cell maps in
    ``trace`` to the term of its last (lowest) update.
    """
    np1 = n + 1
    size = np1 * np1
    base = [k * np1 for k in range(np1)]
    changed = False
    for r0, c0 in sorted(lowered):
        v = cells[r0][c0]
        # law 1, v = M[i,j,k,l]: M[i,j,p,q] <= v + M[k,l,p,q], every (p,q)
        for r in range(size):
            b = cells[r][r0]
            if type(b) is not float:
                cand = v + b
                row_t = cells[r]
                if cand < row_t[c0]:
                    row_t[c0] = cand
                    changed = True
                    trace[(r, c0)] = ("sum", (r0, c0), (r, r0))
        # law 1, v = M[k,l,p,q]: M[i,j,p,q] <= M[i,j,k,l] + v, every (i,j)
        row_a = cells[c0]
        row_t = cells[r0]
        for c in range(size):
            a = row_a[c]
            if type(a) is not float:
                cand = a + v
                if cand < row_t[c]:
                    row_t[c] = cand
                    changed = True
                    trace[(r0, c)] = ("sum", (c0, c), (r0, c0))
        # law 2, v = M[i,k,l,q]: M[i,j,p,q] <= v + M[k,j,p,l], every p, j
        l, q = divmod(r0, np1)
        i, k = divmod(c0, np1)
        ibase, kbase = base[i], base[k]
        for p in range(np1):
            rb = base[p] + l
            row_b = cells[rb]
            row_t = cells[base[p] + q]
            for j in range(np1):
                b = row_b[kbase + j]
                if type(b) is not float:
                    cand = v + b
                    if cand < row_t[ibase + j]:
                        row_t[ibase + j] = cand
                        changed = True
                        trace[(base[p] + q, ibase + j)] = (
                            "sum", (r0, c0), (rb, kbase + j)
                        )
        # law 2, v = M[k,j,p,l]: M[i,j,p,q] <= M[i,k,l,q] + v, every q, i
        p, l = divmod(r0, np1)
        k, j = divmod(c0, np1)
        pbase, lbase = base[p], base[l]
        for q in range(np1):
            row_a = cells[lbase + q]
            row_t = cells[pbase + q]
            for i in range(np1):
                a = row_a[base[i] + k]
                if type(a) is not float:
                    cand = a + v
                    if cand < row_t[base[i] + j]:
                        row_t[base[i] + j] = cand
                        changed = True
                        trace[(pbase + q, base[i] + j)] = (
                            "sum", (lbase + q, base[i] + k), (r0, c0)
                        )
    return changed


# The plain iteration need not reach its own fixpoint in finitely many
# sweeps: compositions and halvings keep every derived value dyadic in
# the input denominators, while the limit can require others (a gain-1/2
# feedback loop converges to values like -1/3 geometrically).  When the
# set of still-changing cells settles into a pattern, the sweep's winning
# terms form an affine policy x = Ax + b; its exact fixpoint is a valid
# jump target (each policy iterate dominates the true iterate, so the
# policy fixpoint dominates the true limit), and a stationary matrix
# reached from above through such jumps *is* the true limit, because the
# greatest fixpoint below the starting matrix bounds every sound
# stationary point from above.  The jump is attempted sparingly and
# verified by the next sweep; the cap still backstops everything.

_ACCEL_START = 8
_ACCEL_EVERY = 4
_ACCEL_MAX_VARS = 1200


def _term_parts(term) -> list[tuple[tuple[int, int], Fraction]]:
    kind = term[0]
    if kind == "sum":
        return [(term[1], Fraction(1)), (term[2], Fraction(1))]
    if kind == "copy":
        return [(term[1], Fraction(1))]
    if kind == "half":
        return [(term[1], Fraction(1, 2))]
    return [(term[1], Fraction(2))]  # double


def _gauss_solve(a: list[list[Fraction]], b: list[Fraction]):
    """Unique exact solution of a x = b, or None when singular."""
    m = len(a)
    aug = [row[:] + [b[k]] for k, row in enumerate(a)]
    for col in range(m):
        pivot = next((r for r in range(col, m) if aug[r][col] != 0), None)
        if pivot is None:
            return None
        aug[col], aug[pivot] = aug[pivot], aug[col]
        inv = aug[col][col]
        aug[col] = [v / inv for v in aug[col]]
        for r in range(m):
            if r != col and aug[r][col] != 0:
                factor = aug[r][col]
                aug[r] = [v - factor * w for v, w in zip(aug[r], aug[col])]
    return [aug[k][m] for k in range(m)]


def _policy_fixpoint(eqs: dict, cells: list[list]):
    """Exact fixpoint of a recorded affine policy, or None.

    Variables determined acyclically from frozen cells are peeled off by
    substitution; the remainder is solved densely.  Rejected unless
    provably contracting and dominated by the current values: within the
    remainder no doubling edge and no cycle among gain-1 edges, a unique
    linear solution, and every component <= its current cell (jumps must
    remain valid upper bounds).
    """
    parts: dict = {}
    consts: dict = {}
    for cell, term in eqs.items():
        ps = []
        const = Fraction(0)
        for arg, gain in _term_parts(term):
            if arg in eqs:
                ps.append((arg, gain))
            else:
                frozen = cells[arg[0]][arg[1]]
                if isinstance(frozen, float):
                    return None
                const += gain * frozen
        parts[cell] = ps
        consts[cell] = const

    # substitution pass: resolve cells with no unresolved arguments
    resolved: dict = {}
    deps = {cell: {arg for arg, _ in ps} for cell, ps in parts.items()}
    users: dict = {}
    for cell, ds in deps.items():
        for d in ds:
            users.setdefault(d, set()).add(cell)
    ready = [cell for cell, ds in deps.items() if not ds]
    while ready:
        cell = ready.pop()
        resolved[cell] = consts[cell] + sum(
            (g * resolved[a] for a, g in parts[cell]), Fraction(0)
        )
        for user in users.get(cell, ()):
            ds = deps[user]
            ds.discard(cell)
            if not ds and user not in resolved:
                ready.append(user)

    core = [cell for cell in eqs if cell not in resolved]
    if core:
        if len(core) > _ACCEL_MAX_VARS:
            return None
        index = {cell: k for k, cell in enumerate(core)}
        m = len(core)
        unit_adj: list[list[int]] = [[] for _ in range(m)]
        for cell in core:
            k = index[cell]
            for arg, gain in parts[cell]:
                a = index.get(arg)
                if a is None:
                    continue
                if gain > 1:
                    return None
                if gain == 1:
                    unit_adj[k].append(a)
        state = [0] * m  # 0 new, 1 on stack, 2 done
        for start in range(m):
            if state[start]:
                continue
            stack = [(start, iter(unit_adj[start]))]
            state[start] = 1
            while stack:
                node, it = stack[-1]
                advanced = False
                for nxt in it:
                    if state[nxt] == 1:
                        return None  # gain-1 cycle: not a contraction
                    if state[nxt] == 0:
                        state[nxt] = 1
                        stack.append((nxt, iter(unit_adj[nxt])))
                        advanced = True
                        break
                if not advanced:
                    state[node] = 2
                    stack.pop()
        a_mat = [[Fraction(0)] * m for _ in range(m)]
        b_vec = [Fraction(0)] * m
        for cell in core:
            k = index[cell]
            a_mat[k][k] += Fraction(1)
            b_vec[k] = consts[cell]
            for arg, gain in parts[cell]:
                a = index.get(arg)
                if a is None:
                    b_vec[k] += gain * resolved[arg]
                else:
                    a_mat[k][a] -= gain
        solution = _gauss_solve(a_mat, b_vec)
        if solution is None:
            return None
        for cell, k in index.items():
            resolved[cell] = solution[k]

    for cell, value in resolved.items():
        if value > cells[cell[0]][cell[1]]:
            return None
    return resolved


def _scaled(cells: list[list]) -> tuple[list[list], int]:
    """Integer copy of ``cells`` over the lcm D of their denominators:
    each finite cell v becomes the int v * D, +inf stays."""
    denom = math.lcm(
        *{v.denominator for row in cells for v in row if type(v) is not float}
    )
    return [
        [
            v if type(v) is float else v.numerator * (denom // v.denominator)
            for v in row
        ]
        for row in cells
    ], denom


def _unscaled(cells: list[list], denom: int) -> list[list]:
    """Fraction cells v / D of an integer matrix over denominator D."""
    # the cells of one normal-vector class hold one value: build it once
    memo: dict = {}
    out = []
    for row in cells:
        new = []
        for v in row:
            if type(v) is not float:
                f = memo.get(v)
                if f is None:
                    f = memo[v] = Fraction(v, denom)
                v = f
            new.append(v)
        out.append(new)
    return out


def close(
    matrix: Matrix2D,
    subclass: Subclass | None = None,
    max_sweeps: int | None = None,
    lowered: Iterable[tuple[int, int]] | None = None,
) -> ClosureResult:
    """Tighten a copy of ``matrix`` to stationarity (or the round cap).

    ``subclass`` is the classification of the constraints the matrix was
    loaded from; without it the result is conservatively tagged as an
    upper approximation (the normalized matrix alone no longer determines
    the original syntactic shape).  ``max_sweeps`` overrides the default
    round cap.

    Rounds: the first is a full sweep, every later one recombines only
    the cells lowered by the round before (see the module docstring).
    ``lowered`` seeds the first round instead: the (row, col) cells
    lowered since ``matrix`` was last stationary, for instance by a
    witness pin.  Cells that the initial normalization lowers join it.
    ``sweeps_used`` counts rounds of either kind.

    An input whose zero-vector class is already negative returns
    immediately (sweeps_used = 0), which keeps close idempotent on its
    own outputs despite the early exit on infeasibility.

    The rounds run on ints over one common denominator (see the module
    docstring); the result's finite cells are Fractions again.
    """
    cells, denom = _scaled(matrix.cells)
    m = Matrix2D(matrix.n, cells)

    def rescale(factor: int) -> None:
        nonlocal denom
        denom *= factor
        for row in cells:
            row[:] = [v if type(v) is float else v * factor for v in row]

    trace: dict = {}
    m._normalize(trace, rescale)
    # a zero-vector class already negative: no round runs
    feasible = not m.has_negative_zero_cell()
    # cells lowered since the last stationary point; None: unknown
    delta = None if lowered is None else set(lowered) | trace.keys()
    full_above = (m.n + 1) ** 4 // 2
    cap = sweep_cap(m.n) if max_sweeps is None else max_sweeps
    sweeps = 0
    stationary = False
    recent: dict = {}
    while feasible and sweeps < cap:
        sweeps += 1
        trace = {}
        if delta is None or len(delta) > full_above:
            changed = _sweep(cells, m.n, trace)
        else:
            changed = _delta_round(cells, m.n, delta, trace)
        changed = m._normalize(trace, rescale) or changed
        if m.has_negative_zero_cell():
            feasible = False
            break
        if not changed:
            stationary = True
            break
        delta = set(trace)
        for cell, term in trace.items():
            recent[cell] = (sweeps, term)
        if sweeps >= _ACCEL_START and sweeps % _ACCEL_EVERY == 0:
            eqs = {
                cell: term
                for cell, (step, term) in recent.items()
                if step > sweeps - 2
            }
            if eqs:
                jump = _policy_fixpoint(eqs, cells)
                if jump:
                    lower = {
                        (r, c): value
                        for (r, c), value in jump.items()
                        if value < cells[r][c]
                    }
                    factor = math.lcm(*(v.denominator for v in lower.values()))
                    if factor > 1:
                        rescale(factor)
                    for (r, c), value in lower.items():
                        cells[r][c] = value.numerator * (
                            factor // value.denominator
                        )
                        delta.add((r, c))
                    jumped: dict = {}
                    m._normalize(jumped, rescale)
                    delta.update(jumped)
                    if m.has_negative_zero_cell():
                        feasible = False
                        break
    exact = (
        feasible
        and stationary
        and subclass is not None
        and exactness_of(subclass) is Exactness.EXACT
    )
    return ClosureResult(
        matrix=Matrix2D(m.n, _unscaled(cells, denom)),
        feasible=feasible,
        sweeps_used=sweeps,
        exactness=Exactness.EXACT if exact else Exactness.UPPER_APPROX,
        stationary=stationary,
    )

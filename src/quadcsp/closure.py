"""Iterated tightening of a 2D bound matrix to (an approximation of) its
canonical form.

The cell M[i,j,p,q] bounds a linear form with normal vector
e_i - e_j - e_p + e_q, and the cells of one normal vector (a class)
bound the same form, so the matrix stores, and the closure tightens,
one bound per class.  ``matrix2d._class_table`` numbers the classes by
their codes, the vectors' balanced base-9 digits; the entries of a sum
of two class vectors lie in [-4, 4], so its code is the sum of theirs.
The two composition laws

    M[i,j,p,q] <= M[i,j,k,l] + M[k,l,p,q]
    M[i,j,p,q] <= M[i,k,l,q] + M[k,j,p,l]

each add two cells whose normal vectors u and w sum to the target's v.
The pairs of classes they combine, in either order, are exactly the
pairs (u, w) whose sum u + w = v is itself a class (the tests check this
against both laws), so on classes they are one law,
bound(v) <= bound(u) + bound(w), read from a per-n table that lists, for
each class u, every such (w, v), found by adding codes; a row is built
when first read.  The
doubled differences couple with the plain ones in both directions:
bound(e_i - e_j) <= bound(2e_i - 2e_j) / 2, and the reverse doubling.

The matrix's coupling runs once on entry, then in rounds.  A round
recombines, through the table, the classes lowered in the round before
(each as either operand: the table is symmetric), then applies the
coupling to every pair i != j.  A combination none of whose operands
moved was already evaluated, so a round that lowers nothing proves
stationarity.  The first round of a close from scratch is that round
seeded with every class.  A caller that lowered a few cells of a
stationary matrix (a witness pin) passes them in, and the first round is
seeded with their classes and those the entry coupling lowered.

Rounds repeat until nothing changes, capped at ceil((n+1)^4 / 2).  The
zero normal vector's bound dropping below zero is a derived
contradiction "0 <= negative": the verdict turns infeasible and the run
stops at the end of that round.

Arithmetic is exact and runs on the matrix's own ints over one common
denominator (see ``matrix2d``): sums and comparisons of scaled bounds are
those of the rationals they stand for.  Two steps scale every bound up:
halving an odd doubled bound doubles the denominator, and an accepted
acceleration jump whose values have denominator f (over it) multiplies
it by f.  The jump solves its policy on Fractions, one strongly
connected component at a time.  The result divides its denominator and
bounds by their gcd.

Every update derives a valid consequence of the input constraints, so the
result never under-approximates the true tightest bounds.  On octagon
inputs the fixpoint is exactly the canonical form; otherwise it is an
upper approximation: some tightest bounds need a combination the laws
never form (a sum u + w = 2v where 2v is not a cell, or a coefficient 3;
see exactness_of).

Octagon inputs take another route to the same fixpoint, with no rounds
and no class-sum rows.  An octagonal class is a +-xi +-xj or +-xi form,
or the doubled class 2e_i - 2e_j of one.  When every finite class of the
matrix, after the entry coupling, is octagonal (the zero class aside),
the matrix is an octagon, whatever rows it was loaded from, and
``close`` computes the strong closure on the 2n-node difference-bound
matrix (node +xk and node -xk per variable; Miné, "The octagon abstract
domain", HOSC 2006): Floyd-Warshall, where a negative diagonal is a
derived 0 <= negative, then one strengthening pass
m[a][b] <= (m[a][a-bar] + m[b-bar][b]) / 2, which over the rationals
gives the strong closure (Bagnara, Hill & Zaffanella 2009).  The DBM
holds the bounds doubled, so that the halving stays on ints.  Node +xk
has the code of xk - x0, 9^k - 1, and node -xk its negation, so cell
(a, b) is the class of node b's code minus node a's; the octagonal
classes are these and both classes of each coupling.  The DBM's cells
are written back to their classes, the coupling fills the others, and
one pass lowers each non-octagonal class to the minimum over its splits
u + w = v into two octagonal classes (3 for a class on four variables),
listed per n by adding the codes of every pair.  The strong closure is the
tight bound of every octagonal form, which is what the rounds reach on
these classes.  Each split sum is one application of the law above, so
the pass never goes below the rounds' fixpoint.  That one split always
reaches it was measured: on 163 stationary feasible closed octagons,
each of 23,094 non-octagonal classes equalled one pairwise sum of closed
octagonal classes.  The tests check the route against the cell-level
full sweeps class for class.  The pass counts as one round, and a
feasible result of this route is the canonical form: the only one
tagged ``Exact``.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from functools import lru_cache
from typing import Iterable

from .core import INF, Constraint4
from .lindep import _kernel_basis
from .matrix2d import Matrix2D, _class_table, _couple, _lower


class Subclass(Enum):
    """Syntactic shape of a constraint set: the label of the ``subclass``
    command (the closure decides its own route from the matrix)."""

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


class _SumRows(dict):
    """uses[u]: every (w, v) with class u + class w == class v, in the
    class numbering of ``matrix2d._class_table``, from the sum of their
    codes.  A row is built on its first read and kept: ``_combine``
    reads only the rows of finite, lowered classes, often a small share
    of them."""

    def __init__(self, n: int):
        super().__init__()
        table = _class_table(n)
        self._codes, self._index = table.codes, table.index
        # one int object per class, shared by every entry that names it
        self._ids = list(range(len(table.codes)))

    def __missing__(self, u: int) -> tuple[tuple[int, int], ...]:
        index, cu = self._index, self._codes[u]
        row = self[u] = tuple(
            (w, v)
            for w, cw in zip(self._ids, self._codes)
            if (v := index.get(cu + cw)) is not None
        )
        return row


@lru_cache(maxsize=None)
def _sum_table(n: int) -> _SumRows:
    """The class-sum rows at n (see ``_SumRows``), one table per n, so
    that a witness pin reuses the rows of the closes before it."""
    return _SumRows(n)


def _combine(
    bounds: list, seeds: Iterable[int], uses: _SumRows, trace: dict
) -> None:
    """Recombine each class of ``seeds`` with every partner in ``uses``
    (see ``_sum_table``), in place; updated bounds are used immediately.
    Each lowered class maps in ``trace`` to the term of its last update."""
    for u in sorted(seeds):
        bu = bounds[u]
        if bu is INF:
            continue
        for w, v in uses[u]:
            bw = bounds[w]
            if bw is not INF:
                cand = bu + bw
                if cand < bounds[v]:
                    bounds[v] = cand
                    trace[v] = ("sum", u, w)


def _nodes(n: int) -> list[int]:
    """The code of each node of the 2n-node DBM: node 2k - 2 is +xk,
    the code of xk - x0, and node 2k - 1 is -xk, its negation."""
    return [s * (9**k - 1) for k in range(1, n + 1) for s in (1, -1)]


@lru_cache(maxsize=None)
def _octagonal(n: int) -> frozenset[int]:
    """The octagonal classes: the +-xi +-xj forms of the DBM cells and
    both classes of each coupling, which add +-xi and 2e_i - 2e_j."""
    table = _class_table(n)
    nodes = _nodes(n)
    cells = [table.index[b - a] for a in nodes for b in nodes if a != b]
    return frozenset(cells + [k for pair in table.couplings for k in pair])


@lru_cache(maxsize=None)
def _non_octagonal(n: int) -> tuple[int, ...]:
    """The classes that an octagon leaves at +inf: every class that is
    neither octagonal nor the zero class, in class order."""
    table = _class_table(n)
    octagonal = _octagonal(n) | {table.zero}
    return tuple(k for k in range(len(table.codes)) if k not in octagonal)


@lru_cache(maxsize=None)
def _octagon_layout(n: int) -> tuple[tuple, tuple]:
    """Per-n layout of the octagon route: (cells, splits).

    ``cells`` lists (k, a, b) for each class k in the 2n-node DBM: cell
    (a, b) bounds V_b - V_a, with node 2i - 2 for V = +xi and node
    2i - 1 for V = -xi, and its mirror cell (b ^ 1, a ^ 1) bounds the
    same form.  ``splits`` lists (v, ((u, w), ...)) for each
    non-octagonal class v: its splits u + w = v into two octagonal
    classes, each pair once, found by adding the codes of every pair.
    """
    table = _class_table(n)
    nodes = _nodes(n)
    splits: dict[int, list] = {v: [] for v in _non_octagonal(n)}
    octagonal = [(k, table.codes[k]) for k in sorted(_octagonal(n))]
    for a, (u, cu) in enumerate(octagonal):
        for w, cw in octagonal[a:]:
            if (v := table.index.get(cu + cw)) in splits:
                splits[v].append((u, w))
    cells = {
        (k := table.index[nodes[b] - nodes[a]]): (k, a, b)
        for a in range(2 * n)
        for b in range(2 * n)
        if a != b
    }
    return tuple(cells.values()), tuple(
        (v, tuple(pairs)) for v, pairs in splits.items()
    )


def _octagon_close(
    n: int, bounds: list, zero: int, couplings: tuple, cells, splits
) -> int:
    """Close octagonal ``bounds`` (every other class +inf) in place by
    strong closure on the 2n-node DBM and one split pass (see the module
    docstring).  Returns the factor by which the common denominator grew.

    The DBM holds each bound doubled, so that the strengthening halves
    exactly, and the bounds come back over twice the denominator.  When
    Floyd-Warshall leaves a negative diagonal, the zero class takes the
    most negative one, a derived 0 <= negative, and only the coupling
    runs after it.
    """
    size = 2 * n
    dbm = [[INF] * size for _ in range(size)]
    for a in range(size):
        dbm[a][a] = 0
    for k, a, b in cells:
        if (bound := bounds[k]) is not INF:
            dbm[a][b] = dbm[b ^ 1][a ^ 1] = 2 * bound
    for mid in range(size):
        row_mid = dbm[mid]
        for a, row in enumerate(dbm):
            d = row[mid]
            if d is not INF:
                dbm[a] = [
                    c if (c := d + y) < x else x for x, y in zip(row, row_mid)
                ]
    least = min(row[a] for a, row in enumerate(dbm))
    if least >= 0:
        # m[a][b] <= (m[a][a-bar] + m[b-bar][b]) / 2; every entry is even
        pair = [row[a ^ 1] for a, row in enumerate(dbm)]
        gain = [pair[b ^ 1] for b in range(size)]
        for a, row in enumerate(dbm):
            h = pair[a]
            if h is not INF:
                dbm[a] = [
                    c if g is not INF and (c := (h + g) >> 1) < x else x
                    for x, g in zip(row, gain)
                ]
    # Every octagonal class is a DBM class or coupled to one, and the
    # zero class is the diagonal: the rest stays +inf until the splits.
    bounds[:] = [INF] * len(bounds)
    for k, a, b in cells:
        bounds[k] = dbm[a][b]
    bounds[zero] = least
    factor = 2 * _couple(bounds, couplings, {})
    if least < 0:
        return factor
    for v, pairs in splits:
        best = min([bounds[u] + bounds[w] for u, w in pairs])
        bounds[v] = INF if best == INF else best
    return factor


# The plain iteration need not reach its own fixpoint in finitely many
# rounds: compositions and halvings keep every derived value dyadic in
# the input denominators, while the limit can require others (a gain-1/2
# feedback loop converges to values like -1/3 geometrically).  When the
# set of still-changing classes settles into a pattern, the rounds'
# winning terms form an affine policy x = Ax + b; its exact fixpoint is a
# valid jump target (each policy iterate dominates the true iterate, so
# the policy fixpoint dominates the true limit), and a stationary result
# reached from above through such jumps *is* the true limit, because the
# greatest fixpoint below the starting matrix bounds every sound
# stationary point from above.  The policy's cycles span a few classes,
# and the rest hangs acyclically below them, so it is solved one strongly
# connected component at a time.  The policy is the last term of each
# class lowered in the last _ACCEL_EVERY rounds, so that a feedback loop
# spread over several rounds (three halvings, say) is solved whole.  The
# jump is attempted sparingly and verified by the next round; the cap
# still backstops everything.  Earlier jumps save rounds but cost time:
# over 900 general-solve instances of seeds 1-5 and 60 boxed General
# draws at n = 6 and 8, closed once each, a start/period of 8/4 took
# 2.80 s and 3,730 rounds, 4/2 took 3.61 s and 3,067 rounds, and 2/1
# 5.82 s and 2,809 rounds, with the same verdicts and stationary
# matrices; only sweeps_used moved (on 183 and 233 of the 960 closes),
# which v1 output prints.

_ACCEL_START = 8
_ACCEL_EVERY = 4


def _term_parts(term) -> list[tuple[int, Fraction]]:
    kind, arg = term[0], term[1]
    if kind == "sum":
        if term[2] == arg:  # u + u doubles u: not a contraction
            return [(arg, Fraction(2))]
        return [(arg, Fraction(1)), (term[2], Fraction(1))]
    if kind == "half":
        return [(arg, Fraction(1, 2))]
    return [(arg, Fraction(2))]  # double


def _components(nodes: Iterable, edges: dict) -> list[list]:
    """The strongly connected components of the graph in which node v
    has the successors ``edges[v]``, each listed after every component it
    reaches: Tarjan's algorithm (SIAM J. Comput. 1972), iterative, since
    a policy reaches about 900 classes at n = 12."""
    index: dict = {}  # visit number; INF once the node's component is out
    low: dict = {}
    stack: list = []
    out: list = []
    for root in nodes:
        if root in index:
            continue
        work = [(root, iter(edges[root]), len(stack))]
        index[root] = low[root] = len(index)
        stack.append(root)
        while work:
            v, succ, height = work[-1]
            for w in succ:
                if w not in index:
                    work.append((w, iter(edges[w]), len(stack)))
                    index[w] = low[w] = len(index)
                    stack.append(w)
                    break
                low[v] = min(low[v], index[w])
            else:
                work.pop()
                if low[v] < index[v]:
                    parent = work[-1][0]
                    low[parent] = min(low[parent], low[v])
                else:
                    out.append(stack[height:])
                    del stack[height:]
                    index.update(dict.fromkeys(out[-1], INF))
    return out


def _policy_fixpoint(eqs: dict, bounds: list):
    """Exact fixpoint of a recorded affine policy, or None.

    The policy's strongly connected components are solved one at a time,
    each after every component holding one of its arguments, whose
    values it takes as constants: a class alone with no self-edge by
    substitution, any other component densely on its own block.  In that
    order I - A is block triangular, so it is invertible exactly when
    each diagonal block is, and the blocks' solutions make up the one
    solution of the dense system.

    Rejected unless provably contracting and dominated by the current
    values: each block holds no doubling edge and no cycle of gain-1
    edges (a cycle lies inside one component) and has a unique solution,
    and every value is <= its current bound (jumps must remain valid
    upper bounds).  A substituted class converges once its arguments do,
    whatever its gains.
    """
    parts = {cls: _term_parts(term) for cls, term in eqs.items()}
    values = {  # the frozen arguments, then the policy's classes
        a: bounds[a] for ps in parts.values() for a, _ in ps if a not in eqs
    }
    if INF in values.values():
        return None
    args = {cls: [a for a, _ in ps if a in eqs] for cls, ps in parts.items()}
    for comp in _components(eqs, args):
        cls = comp[0]
        if len(comp) == 1 and cls not in args[cls]:
            values[cls] = sum(
                (g * values[a] for a, g in parts[cls]), Fraction(0)
            )
            continue
        index = {c: k for k, c in enumerate(comp)}
        if any(g > 1 and a in index for c in comp for a, g in parts[c]):
            return None  # a doubling edge: not a contraction
        unit = {
            c: [a for a, g in parts[c] if g == 1 and a in index] for c in comp
        }
        if any(len(cycle) > 1 for cycle in _components(comp, unit)):
            return None  # a gain-1 cycle: not a contraction
        # the columns of [I - A | -b] on the block: it has a unique
        # solution x iff their kernel is one line, through (x, 1)
        m = len(comp)
        columns = [[Fraction(0)] * m for _ in range(m + 1)]
        for c, k in index.items():
            columns[k][k] += 1
            for arg, gain in parts[c]:
                if arg in index:
                    columns[index[arg]][k] -= gain
                else:
                    columns[m][k] -= gain * values[arg]
        basis = _kernel_basis(columns)
        if len(basis) != 1 or basis[0][m] == 0:
            return None
        values.update(zip(comp, (x / basis[0][m] for x in basis[0])))

    if any(values[cls] > bounds[cls] for cls in eqs):
        return None
    return {cls: values[cls] for cls in eqs}


def close(
    matrix: Matrix2D,
    max_sweeps: int | None = None,
    lowered: Iterable[tuple[int, int]] | None = None,
) -> ClosureResult:
    """Tighten a copy of ``matrix`` to stationarity (or the round cap).

    ``max_sweeps`` overrides the default round cap.  Rounds run over
    classes (see the module docstring); the first is seeded with every
    class.  ``lowered`` seeds it instead with the classes of the
    (row, col) cells lowered since ``matrix`` was last stationary, for
    instance by a witness pin (a cell out of range raises IndexError);
    the classes the initial coupling lowers join it.  ``sweeps_used``
    counts rounds.

    A matrix whose finite classes are all octagonal after the entry
    coupling takes the strong closure and split pass instead, seeded or
    not, under any positive cap.  They count as one round: stationary
    unless they find the input infeasible.  Their feasible results are
    tagged ``Exact``; every other result is an ``UpperApprox``.

    An input whose zero-vector class is already negative returns
    immediately (sweeps_used = 0), which keeps close idempotent on its
    own outputs despite the early exit on infeasibility.
    """
    n = matrix.n
    layout = _class_table(n)
    bounds = matrix.scaled[:]
    trace: dict = {}
    denom = matrix.denom * _couple(bounds, layout.couplings, trace)
    # a zero-vector class already negative: no round runs
    feasible = bounds[layout.zero] >= 0
    cap = sweep_cap(n) if max_sweeps is None else max_sweeps
    if lowered is None:
        delta = range(len(bounds))
    else:
        delta = {matrix.class_of_cell(r, c) for r, c in lowered}
        delta.update(trace)
    if (
        feasible
        and cap > 0
        and all(bounds[v] is INF for v in _non_octagonal(n))
    ):
        cells, splits = _octagon_layout(n)
        denom *= _octagon_close(
            n, bounds, layout.zero, layout.couplings, cells, splits
        )
        feasible = bounds[layout.zero] >= 0
        return _result(n, bounds, denom, feasible, 1, feasible, feasible)
    uses = _sum_table(n)
    sweeps = 0
    stationary = False
    pending: dict = {}
    while feasible and sweeps < cap:
        sweeps += 1
        trace = {}
        _combine(bounds, delta, uses, trace)
        denom *= _couple(bounds, layout.couplings, trace)
        if bounds[layout.zero] < 0:
            feasible = False
            break
        if not trace:
            stationary = True
            break
        delta = set(trace)
        pending.update(trace)
        if sweeps % _ACCEL_EVERY == 0:
            eqs, pending = pending, {}
            jump = sweeps >= _ACCEL_START and _policy_fixpoint(eqs, bounds)
            if jump:
                lower = {
                    cls: value
                    for cls, value in jump.items()
                    if value < bounds[cls]
                }
                denom *= _lower(bounds, lower.items())
                delta.update(lower)
                denom *= _couple(bounds, layout.couplings, trace)
                delta.update(trace)
                if bounds[layout.zero] < 0:
                    feasible = False
                    break
    return _result(n, bounds, denom, feasible, sweeps, stationary, False)


def _result(
    n: int,
    bounds: list,
    denom: int,
    feasible: bool,
    sweeps: int,
    stationary: bool,
    exact: bool,
) -> ClosureResult:
    return ClosureResult(
        matrix=Matrix2D(n, bounds, denom).reduce(),
        feasible=feasible,
        sweeps_used=sweeps,
        exactness=Exactness.EXACT if exact else Exactness.UPPER_APPROX,
        stationary=stationary,
    )

"""End-to-end pipeline: load, close, reduce domains, extract a witness.

A witness is one pin chain in two passes over x1, x2, ..., xn.  When a
witness is forced, pass 1 pins each unbounded variable to the point of
its interval closest to 0; pass 2 pins each variable left to the top of
its interval, so after n pins the solution set is a single valuation.
A pin only narrows the intervals after it, so the first unbounded
variable left is always a later one: one pass in index order pins the
chain's sequence of them.  Both passes read xk's interval off the
current matrix (the last three top pins of an ``UpperApprox`` closure
aside, see below): its upper end is min(M[xk], M[xk - xj] + cj,
M[xk + xj] - cj) over the pins xj = cj that the matrix does not hold,
its lower end the mirror image.  A pin either goes into the matrix,
which then re-closes, or only into that cut; two kinds of pin need no
more than the cut, and on an ``UpperApprox`` closure a third kind
needs neither.

Every pin of an ``Exact`` closure (an input whose loaded matrix is an
octagon; see closure.close) runs no close.  Take the pinned set S and
the next variable xk.  Octagons are closed under projection, and a
canonical form holds the tight bound of every octagonal form (Miné,
"The octagon abstract domain", HOSC 2006), so the projection onto S and
xk is the octagon of the closed bounds of the forms over at most two of
those variables.  The pins so far lie in the projection onto S, so the
fiber over them is a non-empty interval, cut only by the forms that
contain xk: the interval read above.  Re-closing the octagon plus the
pins would give the same interval, exactly so.

On any closure, a variable in no input constraint takes 0 with no close
(the trivial component of Singh, Püschel & Vechev, "Making numerical
program analysis fast", PLDI 2015).  Every class with a nonzero
coefficient on it starts at +inf, and the closure derives a class with
one only from classes with one, so it leaves them all +inf: the
variable's interval is unbounded both ways, its pin cuts no other
interval, and being 0 the pin reads the same in every ``denom`` a later
re-close picks.

On an ``UpperApprox`` closure reading bounds off the matrix would be
unsound: a closed bound may overshoot the true supremum, so a pin can
make the system genuinely infeasible, and every pin of a variable in
some input row is checked.  A top pin that leaves at most three such
variables unpinned, xa < xb < xc, is checked on the input rows alone,
with no close.  With every pin substituted, each row reads
a * xa + b * xb + c * xc <= r; pairing each row where c > 0 with each
where c < 0 eliminates xc, one Fourier-Motzkin step (Dantzig & Eaves,
"Fourier-Motzkin elimination and its dual", J. Comb. Theory A, 1973),
a second such step eliminates xb, and elimination projects exactly
(the oracle's own step, ``fmoracle._eliminate``, on ints).
So the rows left give xa's exact interval given the pins: empty
exactly when the pin is infeasible, and topped by xa's supremum, which
xa's pin then takes without reading the matrix; xb's top given xa, and
xc's given both, come from the rows in the same way.  When the top
pass starts with at most three such variables unpinned, the first of
them takes its top from the rows too, before any pin of pass 2, so it
never reads a closed bound that may overshoot (a top that the rows do
not give, empty or unbounded, leaves it to the matrix as before).  Each
of the last three top pins is thus the exact supremum of its variable
given the pins before it.  Wherever ``solve`` returns the witness of a
chain that re-closes for every pin, each of its top pins is that
supremum too: a closed bound that overshoots makes its re-close
infeasible and falls back to the oracle's supremum, and one that the
closure wrongly accepted would fail ``solve``'s substitution.  So the
exact tail gives the same witness, and does not need the closure to
catch an overshoot: a solve of at most three variables of the input
rows, none unbounded, runs one close and no oracle call.  Its two
steps stay well inside the oracle's row budget (see ``_free_top``).

Every other pin of an ``UpperApprox`` closure (every pass-1 pin, and
every top pin that leaves four or more variables of the input rows
free) adds xk <= v and -xk <= -v and re-closes.  The closure detects
an infeasible pin (its contradictions are always real).  An infeasible
pin, found either way, falls back to the oracle's exact supremum of
that variable (in pass 1, its point), which is attained, keeping the
chain sound on every input.  The oracle runs on the input constraints
plus the pins so far, the same polyhedron as the pinned matrix in far
fewer rows.  A pin lowers only the two cells of xk's bounds on a matrix
that was stationary, so its re-close is seeded with their two classes
(see closure.close) instead of every class.

``solve`` checks every witness against every input constraint by exact
substitution, on ints over the witness's common denominator.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

from .closure import ClosureResult, Exactness, close
from .core import (
    INF,
    Bound,
    Constraint4,
    is_finite,
    make_constraint,
)
from .fmoracle import (
    DEFAULT_ROW_CAP,
    LinearSystem,
    _eliminate,
    _ends,
    _tighten,
    fm_solution,
    fm_tight_bound,
)
from .matrix2d import Matrix2D, load

Interval = tuple[Bound, Bound]

#: An input row on ints, (((v, a), ...), r): sum(a * xv) <= r over one
#: common denominator, with x0 and zero coefficients left out.
IntRow = tuple[tuple[tuple[int, int], ...], int]


@dataclass(frozen=True)
class SolveReport:
    """Outcome of one solve: verdict, closed matrix, boxes, witness.

    ``domains[i - 1]`` is the interval of xi; ``witness`` (when present)
    is a full valuation (nu_0..nu_n) with nu_0 = 0 satisfying every
    original constraint exactly.
    """

    feasible: bool
    closed: ClosureResult
    domains: tuple[Interval, ...] | None
    witness: tuple[Fraction, ...] | None


def _interval(m: Matrix2D, k: int, cut: dict[int, int]) -> tuple:
    """xk's closed interval (lo, hi) on ``m``, cut by the pins xj = cj in
    ``cut`` (see the module docstring).  Pins and finite ends are in
    units of ``1 / m.denom``; an end with no bound is -inf or +inf."""
    bound, cls = m.scaled, m._class_of
    hi, neg_lo = bound[cls(k, 0, 0, 0)], bound[cls(0, k, 0, 0)]
    for j, c in cut.items():
        # an int plus +inf would overflow converting a huge int to float
        if (b := bound[cls(k, j, 0, 0)]) is not INF:
            hi = min(hi, b + c)
        if (b := bound[cls(k, 0, 0, j)]) is not INF:
            hi = min(hi, b - c)
        if (b := bound[cls(j, k, 0, 0)]) is not INF:
            neg_lo = min(neg_lo, b - c)
        if (b := bound[cls(0, k, j, 0)]) is not INF:
            neg_lo = min(neg_lo, b + c)
    return -neg_lo, hi


def reduce_domains(closed: Matrix2D) -> tuple[Interval, ...]:
    """Per-variable interval [-M(0,i,0,0), M(i,0,0,0)] for i = 1..n."""
    d = closed.denom
    return tuple(
        tuple(b if not is_finite(b) else Fraction(b, d) for b in ends)
        for ends in (_interval(closed, i, {}) for i in range(1, closed.n + 1))
    )


def _all_finite(domains: Sequence[Interval]) -> bool:
    return all(is_finite(lo) and is_finite(hi) for lo, hi in domains)


def is_bounded(closed: Matrix2D) -> bool:
    """True when every variable interval has two finite ends."""
    return _all_finite(reduce_domains(closed))


def _pin(
    m: Matrix2D,
    i: int,
    value: Fraction,
    max_sweeps: int | None,
    stationary: bool,
) -> ClosureResult:
    """Close ``m`` with xi pinned to ``value``.  On a stationary ``m``
    the classes of the two pinned cells (and what the coupling lowers
    with them) seed the closure; otherwise every class does."""
    trial = m.copy()
    trial.set_min(i, 0, 0, 0, value)
    trial.set_min(0, i, 0, 0, -value)
    np1 = m.n + 1
    lowered = [(0, i * np1), (0, i)] if stationary else None
    return close(trial, max_sweeps=max_sweeps, lowered=lowered)


def _pin_constraints(i: int, value: Fraction) -> list[Constraint4]:
    """xi <= value and -xi <= -value."""
    return [make_constraint([i], [], value), make_constraint([], [i], -value)]


def _oracle_point(system: LinearSystem, i: int) -> Fraction:
    """xi at the oracle's point of ``system``."""
    point = fm_solution(system)
    if point is None:
        raise RuntimeError(
            "internal error: oracle finds no point of a feasible system"
        )
    return point[i]


def _oracle_supremum(system: LinearSystem, i: int) -> Fraction:
    """The oracle's exact supremum of xi over ``system``."""
    objective = [0] * (system.n + 1)
    objective[i] = 1
    hi = fm_tight_bound(system, objective)
    if hi is None or not is_finite(hi):
        raise RuntimeError(
            f"internal error: oracle gives no finite supremum of x{i}: {hi}"
        )
    return hi


def _int_rows(constraints: Sequence[Constraint4]) -> tuple[list[IntRow], int]:
    """The finite input rows on ints, and their common denominator."""
    finite = [c for c in constraints if is_finite(c.m)]
    d = math.lcm(*(c.m.denominator for c in finite))
    rows = []
    for c in finite:
        coeffs: dict[int, int] = {}
        for v, a in ((c.i, 1), (c.j, -1), (c.p, -1), (c.q, 1)):
            coeffs[v] = coeffs.get(v, 0) + a
        terms = tuple((v, a) for v, a in coeffs.items() if v and a)
        rows.append((terms, c.m.numerator * (d // c.m.denominator)))
    return rows, d


def _free_top(
    rows: list[IntRow],
    d: int,
    pins: dict[int, Fraction],
    free: Sequence[int],
) -> Bound | None:
    """The exact top of free[0]'s interval over ``rows`` (from
    ``_int_rows``, over ``d``) with every pin substituted, or None when
    that system is infeasible.  Every variable of ``rows`` is pinned or
    in ``free``, which is sorted and holds at most three; +inf when no
    row bounds free[0] above, or when nothing is free.

    Substituted, a row reads sum(a_s * free[s]) <= r over ``scale``; a
    row with no free variable only checks the pins, and the others go
    into ``fmoracle``'s rows on ints (a primitive direction and its
    least bound).  Then ``fmoracle._eliminate``, the oracle's own
    Fourier-Motzkin step, eliminates free[-1], ..., free[1] in turn,
    and free[0]'s interval is read off what is left by the same
    ``fmoracle._ends`` that gives ``fm_tight_bound`` its supremum.
    Input coefficients lie in [-2, 2], so with three free there are at
    most 124 nonzero directions and 50 x 50 pairs, then at most 289
    (coefficients of magnitude at most 8), of which 17 have no free[1]
    and the rest pair as at most 136 x 136: fewer than 20,000 rows, so
    the tail never reaches the oracle's row budget.  About 5 ms when
    all 124 directions occur; rows of the form (xi - xj) - (xp - xq)
    reach only the 54 with at most two positive and two negative units
    (under 1 ms), and a few boxed rows take tens of microseconds.

    ``extract_witness`` calls it for each top pin that leaves at most
    three variables of the rows free, and for the first top when the
    top pass starts with at most three free; a top pin that leaves four
    or more free re-closes instead."""
    scale = math.lcm(d, *(v.denominator for v in pins.values()))
    at = {k: v.numerator * (scale // v.denominator) for k, v in pins.items()}
    slot = {v: s for s, v in enumerate(free)}
    up = scale // d
    least = {}
    for terms, r in rows:
        r *= up
        key = [0] * len(free)
        for v, c in terms:
            if v in slot:
                key[slot[v]] = c
            else:
                r -= c * at[v]
        if any(key):
            _tighten(least, tuple(key), r, 1)
        elif r < 0:
            return None  # the pins violate this row
    for s in range(len(free) - 1, 0, -1):
        least = _eliminate(least, s, DEFAULT_ROW_CAP)
    ends = _ends(least, 0)
    if ends is None:
        return None
    hi = ends[1]
    return INF if hi is None else Fraction(hi[0], hi[1] * scale)


def extract_witness(
    result: ClosureResult,
    constraints: Sequence[Constraint4],
    pin_unbounded_to_zero: bool = False,
    max_sweeps: int | None = None,
) -> tuple[Fraction, ...]:
    """A valuation of x0..xn (x0 = 0) in the polyhedron of a closed matrix.

    ``result`` is the closure of ``constraints``.  It must be feasible,
    and bounded unless ``pin_unbounded_to_zero`` is set, in which case
    each unbounded variable is first pinned to the point of its interval
    closest to 0 (oracle-assisted when the closed interval overshoots).
    Every other variable is then pinned to the top of its interval.
    A pin runs no close when ``result`` is ``Exact``, whose matrix it
    reads exactly, or when the variable is in no input constraint, whose
    pin is 0 and cuts nothing.  On an ``UpperApprox`` result, a top pin
    that leaves at most three variables of the input rows unpinned runs
    no close either: it substitutes the pins into the input rows and
    eliminates the last two of those variables, which gives the first
    its exact interval, the top of the next pin.  When the top pass
    starts with at most three of them unpinned, the first takes its top
    from the input rows in the same way, not from the closed matrix
    (unless the rows give it none, empty or unbounded).  Each of these
    costs at most two eliminations of bounded size (see ``_free_top``).
    Any other pin (a top pin that leaves four or more free, or any
    pass-1 pin) re-closes (see the module docstring).  When ``result``
    is stationary the first re-close starts from its pinned cells only.
    Oracle fallbacks run on ``constraints`` plus the pins so far: the
    polyhedron of the pinned matrix, in far fewer rows than its finite
    classes.  ``solve``
    verifies the valuation by exact substitution; this function does
    not.

    Raises RuntimeError when an oracle fallback does not yield an
    attainable value, which would be an internal error.
    """
    if not result.feasible:
        raise ValueError("cannot extract a witness from an infeasible matrix")
    m, stationary = result.matrix, result.stationary
    exact = result.exactness is Exactness.EXACT
    occurring = {v for c in constraints for v in (c.i, c.j, c.p, c.q)} - {0}
    cut: dict[int, int] = {}  # the pins m does not hold, over m.denom
    pins: dict[int, Fraction] = {}
    int_rows = None if exact else _int_rows(constraints)
    tops: dict[int, Bound] = {}  # exact tops that the input rows gave

    def pin(k: int, value: Fraction, top: bool) -> None:
        """Pin xk to ``value``, into ``cut`` when no close is needed.  A
        ``top`` pin (pass 2) that leaves at most three variables of the
        input rows unpinned is checked on those rows, which give the
        first of them its top; any other pin re-closes.  When the pin is
        infeasible (a closed bound that overshoots is not attained) xk
        is pinned to the oracle's supremum (``top``) or point of the
        input rows plus the pins so far instead."""
        nonlocal m, stationary
        if exact or k not in occurring:
            cut[k] = value.numerator * (m.denom // value.denominator)
            pins[k] = value
            return
        free = None  # the variables of the input rows left unpinned
        if top:
            left = occurring.difference(pins, (k,))
            free = sorted(left) if len(left) <= 3 else None

        def check(value: Fraction):
            """The top of free[0], or the re-closed result; None when
            the pin is infeasible."""
            if free is not None:
                return _free_top(*int_rows, {**pins, k: value}, free)
            trial = _pin(m, k, value, max_sweeps, stationary)
            return trial if trial.feasible else None

        found = check(value)
        if found is None:
            system = [*constraints]
            for p in pins.items():
                system += _pin_constraints(*p)
            fallback = _oracle_supremum if top else _oracle_point
            value = fallback(LinearSystem.from_constraints(system, m.n), k)
            found = check(value)
            if found is None:
                raise RuntimeError(
                    f"internal error: pinning x{k} to the oracle's "
                    f"{'supremum' if top else 'point'} {value} is infeasible"
                )
        if free is None:
            m, stationary = found.matrix, found.stationary
        elif free:
            tops[free[0]] = found
        pins[k] = value

    for k in range(1, m.n + 1):
        lo, hi = _interval(m, k, cut)
        if not (is_finite(lo) and is_finite(hi)):
            if not pin_unbounded_to_zero:
                raise ValueError(
                    "system is unbounded; enable pin_unbounded_to_zero to force"
                )
            pin(k, Fraction(max(lo, min(hi, 0)), m.denom), False)
    left = sorted(occurring.difference(pins))
    if not exact and 0 < len(left) <= 3:
        # the first top from the rows too: no closed bound that may overshoot
        first = _free_top(*int_rows, pins, left)
        if first is not None and is_finite(first):
            tops[left[0]] = first
    for k in range(1, m.n + 1):
        if k not in pins:
            hi = tops.pop(k, None)
            if hi is None:
                hi = _interval(m, k, cut)[1]
                if is_finite(hi):
                    hi = Fraction(hi, m.denom)
            if not is_finite(hi):
                raise RuntimeError(f"internal error: x{k} is unbounded above")
            pin(k, hi, True)
    return (Fraction(0), *(pins[k] for k in range(1, m.n + 1)))


def _violated(
    constraints: Sequence[Constraint4], witness: Sequence[Fraction]
) -> Constraint4 | None:
    """The first of ``constraints`` that ``witness`` violates, or None.

    Exact substitution on ints: with the witness over one denominator D,
    a row is violated when (D vi - D vj - D vp + D vq) * m.den >
    m.num * D.  A row bounded by +inf holds."""
    d = math.lcm(*(v.denominator for v in witness))
    w = [v.numerator * (d // v.denominator) for v in witness]
    for c in constraints:
        m = c.m
        if is_finite(m) and (
            (w[c.i] - w[c.j] - w[c.p] + w[c.q]) * m.denominator
            > m.numerator * d
        ):
            return c
    return None


def solve(
    constraints: Sequence[Constraint4],
    n: int,
    witness_anyway: bool = False,
    max_sweeps: int | None = None,
) -> SolveReport:
    """Load, close, and when feasible reduce domains and extract a witness.

    Witnesses are produced from stationary closures only: for bounded
    systems always, for unbounded ones only with ``witness_anyway``.  A
    closure stopped at its round cap (``max_sweeps``) gives none.  Every
    witness is verified against the original constraints by exact
    substitution (``_violated``) before being returned.
    """
    matrix = load(constraints, n)
    closed = close(matrix, max_sweeps=max_sweeps)
    if not closed.feasible:
        return SolveReport(
            feasible=False, closed=closed, domains=None, witness=None
        )
    domains = reduce_domains(closed.matrix)
    witness = None
    if closed.stationary and (_all_finite(domains) or witness_anyway):
        witness = extract_witness(
            closed, constraints, witness_anyway, max_sweeps=max_sweeps
        )
        bad = _violated(constraints, witness)
        if bad is not None:
            raise RuntimeError(f"internal error: witness violates {bad}")
    return SolveReport(
        feasible=True, closed=closed, domains=domains, witness=witness
    )

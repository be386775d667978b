"""End-to-end pipeline: load, close, reduce domains, extract a witness.

A witness is one pin chain in two passes over x1, x2, ..., xn.  When a
witness is forced, pass 1 pins each unbounded variable to the point of
its interval closest to 0; pass 2 pins each variable left to the top of
its interval, so after n pins the solution set is a single valuation.
A pin only narrows the intervals after it, so the first unbounded
variable left is always a later one: one pass in index order pins the
chain's sequence of them.  Both passes read xk's interval off the
current matrix: its upper end is min(M[xk], M[xk - xj] + cj,
M[xk + xj] - cj) over the pins xj = cj that the matrix does not hold,
its lower end the mirror image.  A pin either goes into the matrix,
which then re-closes, or only into that cut; two kinds of pin need no
more than the cut.

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

Every other pin, on an ``UpperApprox`` closure where reading bounds off
the matrix would be unsound, adds xk <= v and -xk <= -v and re-closes.
There the closed bound may overshoot the true supremum, so a pin can
make the system genuinely infeasible.  The closure detects this (its
contradictions are always real) and the pin falls back to the oracle's
exact supremum of that variable (in pass 1, its point), which is
attained, keeping the chain sound on every input.  The oracle runs on
the input constraints plus the pins so far, the same polyhedron as the
pinned matrix in far fewer rows.  A pin lowers only the two cells of
xk's bounds on a matrix that was stationary, so its re-close is seeded
with their two classes (see closure.close) instead of every class.

``solve`` checks every witness against every input constraint by exact
substitution.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Sequence

from .closure import ClosureResult, Exactness, close
from .core import Bound, Constraint4, is_finite, make_constraint, satisfies
from .fmoracle import LinearSystem, fm_solution, fm_tight_bound
from .matrix2d import Matrix2D, load

Interval = tuple[Bound, Bound]


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
        hi = min(hi, bound[cls(k, j, 0, 0)] + c, bound[cls(k, 0, 0, j)] - c)
        neg_lo = min(
            neg_lo, bound[cls(j, k, 0, 0)] - c, bound[cls(0, k, j, 0)] + c
        )
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
    A pin runs no close when ``result`` is ``Exact``, whose matrix it
    reads exactly, or when the variable is in no input constraint, whose
    pin is 0 and cuts nothing; any other pin re-closes (see the module
    docstring).  When ``result`` is stationary the first re-close starts
    from its pinned cells only.  Oracle fallbacks run on ``constraints``
    plus the pins so far: the polyhedron of the pinned matrix, in far
    fewer rows than its finite classes.  ``solve`` verifies the
    valuation by exact substitution; this function does not.

    Raises RuntimeError when an oracle fallback does not yield an
    attainable value, which would be an internal error.
    """
    if not result.feasible:
        raise ValueError("cannot extract a witness from an infeasible matrix")
    m, stationary = result.matrix, result.stationary
    exact = result.exactness is Exactness.EXACT
    occurring = {v for c in constraints for v in (c.i, c.j, c.p, c.q)}
    cut: dict[int, int] = {}  # the pins m does not hold, over m.denom
    pins: dict[int, Fraction] = {}

    def pin(
        k: int,
        scaled: int,
        fallback: Callable[[LinearSystem, int], Fraction],
        what: str,
    ) -> None:
        """Pin xk to ``scaled / m.denom``, into ``cut`` when no close is
        needed; otherwise re-close, and when the closure finds the pin
        infeasible (a closed bound that overshoots is not attained) pin
        xk to ``fallback(system, k)`` on the oracle's system instead."""
        nonlocal m, stationary
        value = Fraction(scaled, m.denom)
        if exact or k not in occurring:
            cut[k] = scaled
        else:
            trial = _pin(m, k, value, max_sweeps, stationary)
            if not trial.feasible:
                rows = [*constraints]
                for p in pins.items():
                    rows += _pin_constraints(*p)
                value = fallback(LinearSystem.from_constraints(rows, m.n), k)
                trial = _pin(m, k, value, max_sweeps, stationary)
                if not trial.feasible:
                    raise RuntimeError(
                        f"internal error: pinning x{k} to the oracle's "
                        f"{what} {value} is infeasible"
                    )
            m, stationary = trial.matrix, trial.stationary
        pins[k] = value

    for k in range(1, m.n + 1):
        lo, hi = _interval(m, k, cut)
        if not (is_finite(lo) and is_finite(hi)):
            if not pin_unbounded_to_zero:
                raise ValueError(
                    "system is unbounded; enable pin_unbounded_to_zero to force"
                )
            pin(k, max(lo, min(hi, 0)), _oracle_point, "point")
    for k in range(1, m.n + 1):
        if k not in pins:
            hi = _interval(m, k, cut)[1]
            if not is_finite(hi):
                raise RuntimeError(f"internal error: x{k} is unbounded above")
            pin(k, hi, _oracle_supremum, "supremum")
    return (Fraction(0), *(pins[k] for k in range(1, m.n + 1)))


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
    substitution before being returned.
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
        bad = [c for c in constraints if not satisfies(c, witness)]
        if bad:
            raise RuntimeError(
                f"internal error: witness violates {bad[0]}"
            )
    return SolveReport(
        feasible=True, closed=closed, domains=domains, witness=witness
    )

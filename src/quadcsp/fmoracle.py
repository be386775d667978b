"""Exact feasibility and tight-bound oracle via Fourier-Motzkin elimination.

Rows are kept on ints: a row ``a . x <= b`` is its direction ``a``
scaled to the primitive integer vector, mapped to the least bound
``r / g`` (ints, ``g > 0``) of the rows with that direction.  Two rows
share a primitive direction exactly when one is a positive multiple of
the other, so each step keeps one row per half-space direction, and the
row budget counts the same rows however the input is scaled.
Eliminating a variable combines each row with a positive coefficient on
it with each row with a negative one, which keeps the projection exact.
Intended for desk-scale systems (around eight variables); the budget
turns elimination blow-up into an explicit error rather than a wrong
answer.  ``solver._free_top`` runs the same step on the witness tail.

The entry points take rational rows ``(coeffs, bound)``, meaning
``coeffs . x <= bound`` with a fixed coefficient width; eliminated
columns simply become zero.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import gcd, lcm
from typing import Iterable, Sequence

from .core import INF, Bound, Constraint4, is_finite, normal_vector

Row = tuple[tuple[Fraction, ...], Fraction]

#: Rows on ints: each primitive direction a mapped to its least bound
#: (r, g), meaning a . x <= r / g with g > 0.
IntRows = dict[tuple[int, ...], tuple[int, int]]

#: Abort elimination when a step would leave more rows than this.
DEFAULT_ROW_CAP = 20_000


class ResourceLimitError(RuntimeError):
    """A work limit was reached before the answer: elimination's row
    budget here, the closure's round cap in the CLI; the answer is
    unknown."""


def _tighten(rows: IntRows, a: tuple[int, ...], r: int, g: int) -> None:
    """Add a . x <= r / g (ints, g > 0) to ``rows``: a is scaled to its
    primitive direction, which keeps the least of its bounds."""
    h = gcd(*a)
    if h > 1:
        a = tuple([c // h for c in a])
        g *= h
    if g > 1 and (t := gcd(r, g)) > 1:
        r //= t
        g //= t
    seen = rows.get(a)
    if seen is None or r * seen[1] < seen[0] * g:
        rows[a] = (r, g)


def _to_ints(rows: Iterable[Row], width: int) -> IntRows:
    """Rational rows of ``width`` coefficients, on ints."""
    out: IntRows = {}
    for coeffs, bound in rows:
        if len(coeffs) != width:
            raise ValueError(f"row width {len(coeffs)} != {width}")
        scale = lcm(*(c.denominator for c in coeffs))
        a = tuple([c.numerator * (scale // c.denominator) for c in coeffs])
        _tighten(out, a, bound.numerator * scale, bound.denominator)
    return out


def _eliminate(rows: IntRows, v: int, row_cap: int) -> IntRows:
    """Eliminate xv: pair each row with a positive coefficient on it
    with each row with a negative one."""
    pos, neg, keep = [], [], {}
    for a, bound in rows.items():
        c = a[v]
        if c > 0:
            pos.append((a, c, bound))
        elif c < 0:
            neg.append((a, -c, bound))
        else:
            keep[a] = bound
    if len(keep) + len(pos) * len(neg) > row_cap:
        raise ResourceLimitError(
            f"eliminating variable {v} would produce more than "
            f"{row_cap} rows"
        )
    for ap, cp, (rp, gp) in pos:
        for an, cn, (rn, gn) in neg:
            a = tuple([cn * x + cp * y for x, y in zip(ap, an)])
            _tighten(keep, a, cn * rp * gn + cp * rn * gp, gp * gn)
    return keep


def _run(
    rows: Iterable[Row],
    order: Iterable[int],
    width: int,
    row_cap: int,
    snapshots: list | None = None,
) -> tuple[IntRows, bool]:
    """Eliminate variables in order from rational rows of ``width``.

    Returns (final rows, feasible).  Appends to ``snapshots``, when
    given, each eliminated variable with the rows just before its
    elimination.  Stops early on a contradictory constant row.
    """
    rows, zero = _to_ints(rows, width), (0,) * width
    for v in order:
        if rows.get(zero, (0,))[0] < 0:
            return rows, False
        if snapshots is not None:
            snapshots.append((v, rows))
        rows = _eliminate(rows, v, row_cap)
    return rows, rows.get(zero, (0,))[0] >= 0


def _ends(rows: IntRows, v: int):
    """The interval of xv over ``rows``, where no other variable is
    left: (lo, hi), each an (r, g) pair meaning r / g, or None when that
    end is unbounded.  None when the rows are infeasible."""
    lo = hi = None
    for a, (r, g) in rows.items():  # primitive: at most +xv, -xv and 0
        if not any(a):
            if r < 0:
                return None
        elif a[v] > 0:
            hi = r, g
        else:
            lo = -r, g
    if lo is not None and hi is not None and lo[0] * hi[1] > hi[0] * lo[1]:
        return None
    return lo, hi


def _solution(
    rows: Iterable[Row], order: Sequence[int], width: int, row_cap: int
) -> tuple[Fraction, ...] | None:
    """``rows_solution`` over an elimination order."""
    snapshots: list[tuple[int, IntRows]] = []
    if not _run(rows, order, width, row_cap, snapshots)[1]:
        return None
    values = [Fraction(0)] * width
    for v, state in reversed(snapshots):
        lo: Fraction | None = None
        hi: Fraction | None = None
        for a, (r, g) in state.items():
            c = a[v]
            if c == 0:
                continue
            rest = sum(
                (x * values[u] for u, x in enumerate(a) if u != v and x),
                Fraction(0),
            )
            limit = (Fraction(r, g) - rest) / c
            if c > 0:
                hi = limit if hi is None else min(hi, limit)
            else:
                lo = limit if lo is None else max(lo, limit)
        if lo is not None and hi is not None and lo > hi:
            raise RuntimeError(
                "internal error: back-substitution interval is empty"
            )
        if lo is not None:
            values[v] = lo
        elif hi is not None:
            values[v] = min(hi, Fraction(0))
    return tuple(values)


def rows_feasible(
    rows: Iterable[Row], nvars: int, row_cap: int = DEFAULT_ROW_CAP
) -> bool:
    """Exact feasibility of a generic rational inequality system."""
    return _run(rows, range(nvars), nvars, row_cap)[1]


def rows_solution(
    rows: Iterable[Row], nvars: int, row_cap: int = DEFAULT_ROW_CAP
) -> tuple[Fraction, ...] | None:
    """A rational point satisfying every row, or None when infeasible.

    Back-substitutes through the elimination snapshots; each variable
    takes its lower bound when one exists, otherwise the smaller of its
    upper bound and 0 (deterministic).  The back-substitution runs on
    Fractions.
    """
    return _solution(rows, range(nvars), nvars, row_cap)


@dataclass(frozen=True)
class LinearSystem:
    """Constraint system over x0..xn with x0 pinned to zero.

    ``rows`` always contains the two inequalities encoding x0 = 0.
    """

    n: int
    rows: tuple[Row, ...]

    @classmethod
    def from_rows(cls, n: int, rows: Iterable[Row]) -> "LinearSystem":
        width = n + 1
        rest = (Fraction(0),) * n
        all_rows = [((Fraction(s), *rest), Fraction(0)) for s in (1, -1)]
        for coeffs, bound in rows:
            if len(coeffs) != width:
                raise ValueError(
                    f"row width {len(coeffs)} != {width} (n={n})"
                )
            all_rows.append(
                (tuple(Fraction(c) for c in coeffs), Fraction(bound))
            )
        return cls(n=n, rows=tuple(all_rows))

    @classmethod
    def from_constraints(
        cls, constraints: Iterable[Constraint4], n: int
    ) -> "LinearSystem":
        rows = [
            (normal_vector(c, n), c.m) for c in constraints if is_finite(c.m)
        ]
        return cls.from_rows(n, rows)

    def elimination_order(self) -> list[int]:
        # ascending variable index, x0 last
        return list(range(1, self.n + 1)) + [0]


def fm_feasible(sys: LinearSystem, row_cap: int = DEFAULT_ROW_CAP) -> bool:
    """True iff the rational polyhedron is nonempty."""
    return _run(sys.rows, sys.elimination_order(), sys.n + 1, row_cap)[1]


def fm_solution(
    sys: LinearSystem, row_cap: int = DEFAULT_ROW_CAP
) -> tuple[Fraction, ...] | None:
    """A valuation (nu_0..nu_n) with nu_0 = 0, or None when infeasible."""
    return _solution(sys.rows, sys.elimination_order(), sys.n + 1, row_cap)


def fm_tight_bound(
    sys: LinearSystem,
    objective: Sequence[int | Fraction],
    row_cap: int = DEFAULT_ROW_CAP,
) -> Bound:
    """Exact supremum of objective . x over the polyhedron (+inf if unbounded).

    Introduces z = objective . x, eliminates every variable but z, and
    reads the supremum off the remaining single-variable rows.  Raises
    ValueError when the system is infeasible.
    """
    width = sys.n + 1
    if len(objective) != width:
        raise ValueError(f"objective width {len(objective)} != {width}")
    rows = [(coeffs + (0,), bound) for coeffs, bound in sys.rows]
    rows.append((tuple(-c for c in objective) + (1,), 0))
    rows.append((tuple(objective) + (-1,), 0))
    final, ok = _run(rows, sys.elimination_order(), width + 1, row_cap)
    ends = _ends(final, width) if ok else None  # z is the last column
    if ends is None:
        raise ValueError("fm_tight_bound requires a feasible system")
    return INF if ends[1] is None else Fraction(*ends[1])

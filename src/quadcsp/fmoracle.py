"""Exact feasibility and tight-bound oracle via Fourier-Motzkin elimination.

Everything is computed over `fractions.Fraction`: eliminating a variable
combines each upper-bounding row with each lower-bounding row, which keeps
the projection of the polyhedron exact.  Intended for desk-scale systems
(around eight variables); a row-count budget turns elimination blow-up
into an explicit error rather than a wrong answer.

Rows are ``(coeffs, bound)`` meaning ``coeffs . x <= bound`` with a fixed
coefficient width; eliminated columns simply become zero.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Sequence

from .core import INF, Bound, Constraint4, is_finite, normal_vector

Row = tuple[tuple[Fraction, ...], Fraction]

#: Abort elimination when a step would leave more rows than this.
DEFAULT_ROW_CAP = 20_000


class ResourceLimitError(RuntimeError):
    """A work limit was reached before the answer: elimination's row
    budget here, the closure's round cap in the CLI; the answer is
    unknown."""


def _canonical(coeffs: Sequence[Fraction], bound: Fraction) -> Row:
    """Scale a row by a positive factor so equal half-spaces compare equal."""
    scale = max((abs(c) for c in coeffs if c), default=None)
    if scale is None or scale == 1:
        return tuple(coeffs), bound
    return tuple(c / scale for c in coeffs), bound / scale


def _prune(rows: Iterable[Row]) -> list[Row]:
    """Pairwise dominance: identical directions keep the smallest bound."""
    best: dict[tuple[Fraction, ...], Fraction] = {}
    for coeffs, bound in rows:
        seen = best.get(coeffs)
        if seen is None or bound < seen:
            best[coeffs] = bound
    return list(best.items())


def _contradiction(rows: Iterable[Row]) -> bool:
    return any(not any(coeffs) and bound < 0 for coeffs, bound in rows)


def _eliminate_variable(rows: list[Row], v: int, row_cap: int) -> list[Row]:
    pos: list[Row] = []
    neg: list[Row] = []
    keep: list[Row] = []
    for row in rows:
        a = row[0][v]
        if a > 0:
            pos.append(row)
        elif a < 0:
            neg.append(row)
        else:
            keep.append(row)
    if len(keep) + len(pos) * len(neg) > row_cap:
        raise ResourceLimitError(
            f"eliminating variable {v} would produce more than "
            f"{row_cap} rows"
        )
    out = keep
    for cp, bp in pos:
        ap = cp[v]
        for cn, bn in neg:
            an = -cn[v]
            coeffs = tuple(an * x + ap * y for x, y in zip(cp, cn))
            out.append(_canonical(coeffs, an * bp + ap * bn))
    return _prune(out)


def _run(
    rows: list[Row], order: Sequence[int], row_cap: int, record: bool
):
    """Eliminate variables in order.

    Returns (final rows, snapshots, feasible) where snapshots pairs each
    eliminated variable with the row state just before its elimination.
    Stops early on a contradictory constant row.
    """
    rows = _prune(_canonical(c, b) for c, b in rows)
    snapshots: list[tuple[int, list[Row]]] = []
    for v in order:
        if _contradiction(rows):
            return rows, snapshots, False
        if record:
            snapshots.append((v, rows))
        rows = _eliminate_variable(rows, v, row_cap)
    return rows, snapshots, not _contradiction(rows)


def rows_feasible(
    rows: Iterable[Row],
    nvars: int,
    order: Sequence[int] | None = None,
    row_cap: int = DEFAULT_ROW_CAP,
) -> bool:
    """Exact feasibility of a generic rational inequality system."""
    order = list(order) if order is not None else list(range(nvars))
    _, _, ok = _run(list(rows), order, row_cap, record=False)
    return ok


def rows_solution(
    rows: Iterable[Row],
    nvars: int,
    order: Sequence[int] | None = None,
    row_cap: int = DEFAULT_ROW_CAP,
) -> tuple[Fraction, ...] | None:
    """A rational point satisfying every row, or None when infeasible.

    Back-substitutes through the elimination snapshots; each variable
    takes its lower bound when one exists, otherwise the smaller of its
    upper bound and 0 (deterministic).
    """
    order = list(order) if order is not None else list(range(nvars))
    _, snapshots, ok = _run(list(rows), order, row_cap, record=True)
    if not ok:
        return None
    values: dict[int, Fraction] = {v: Fraction(0) for v in range(nvars)}
    for v, state in reversed(snapshots):
        lo: Fraction | None = None
        hi: Fraction | None = None
        for coeffs, bound in state:
            a = coeffs[v]
            if a == 0:
                continue
            rest = sum(
                (c * values[u] for u, c in enumerate(coeffs) if u != v and c),
                Fraction(0),
            )
            limit = (bound - rest) / a
            if a > 0:
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
        else:
            values[v] = Fraction(0)
    return tuple(values[v] for v in range(nvars))


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
        pin = [Fraction(0)] * width
        pin[0] = Fraction(1)
        all_rows = [(tuple(pin), Fraction(0))]
        pin[0] = Fraction(-1)
        all_rows.append((tuple(pin), Fraction(0)))
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
        rows = []
        for c in constraints:
            if not is_finite(c.m):
                continue
            coeffs = tuple(Fraction(v) for v in normal_vector(c, n))
            rows.append((coeffs, Fraction(c.m)))
        return cls.from_rows(n, rows)

    def elimination_order(self) -> list[int]:
        # ascending variable index, x0 last
        return list(range(1, self.n + 1)) + [0]


def fm_feasible(sys: LinearSystem, row_cap: int = DEFAULT_ROW_CAP) -> bool:
    """True iff the rational polyhedron is nonempty."""
    return rows_feasible(
        sys.rows, sys.n + 1, sys.elimination_order(), row_cap
    )


def fm_solution(
    sys: LinearSystem, row_cap: int = DEFAULT_ROW_CAP
) -> tuple[Fraction, ...] | None:
    """A valuation (nu_0..nu_n) with nu_0 = 0, or None when infeasible."""
    return rows_solution(
        sys.rows, sys.n + 1, sys.elimination_order(), row_cap
    )


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
    obj = [Fraction(v) for v in objective]
    z = width
    rows: list[Row] = [
        (coeffs + (Fraction(0),), bound) for coeffs, bound in sys.rows
    ]
    rows.append((tuple(-c for c in obj) + (Fraction(1),), Fraction(0)))
    rows.append((tuple(obj) + (Fraction(-1),), Fraction(0)))

    final, _, ok = _run(rows, sys.elimination_order(), row_cap, record=False)
    if not ok:
        raise ValueError("fm_tight_bound requires a feasible system")
    sup: Bound = INF
    for coeffs, bound in final:
        a = coeffs[z]
        if a > 0:
            limit = bound / a
            if limit < sup:
                sup = limit
    return sup

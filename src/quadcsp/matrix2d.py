"""Dense (n+1)^2 x (n+1)^2 bound matrix over variable pairs.

The cell at row ``p*(n+1)+q``, column ``i*(n+1)+j`` holds the upper bound
of ``(xi - xj) - (xp - xq)``: rows and columns are indexed by variable
differences rather than variables.  Many index quadruples denote the same
hyperplane direction (their normal vectors coincide); ``normalize`` pulls
every such equivalence class down to its minimum, and additionally couples
the doubled cells: the bound of ``2xi - 2xj`` is exactly twice the bound
of ``xi - xj``, enforced by mutual min in both directions.

Cells default to +inf ("no constraint"), except zero-normal-vector cells
which start at 0 (they bound the constant functional 0).  A zero-vector
cell going negative is the infeasibility signal consumed by the closure.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from typing import Iterable, Sequence

from .core import (
    INF,
    Bound,
    Constraint4,
    format_bound,
    is_finite,
    make_constraint,
    parse_rational,
)

#: Hard cap on n.  A matrix has (n+1)^4 cells; the closure's table of
#: class sums u + w = v grows like (n+1)^6 entries, a round reads the
#: entries of every class the round before lowered, and up to
#: ceil((n+1)^4 / 2) rounds may run.
MAX_VARIABLES = 32


@dataclass(frozen=True)
class _ClassTable:
    """Per-n index structure: cells grouped by normal vector."""

    n: int
    # (vector, [(row, col), ...]) in first-seen quadruple order
    classes: tuple[tuple[tuple[int, ...], tuple[tuple[int, int], ...]], ...]
    zero_cells: frozenset[tuple[int, int]]
    # (class index of e_i - e_j, (row, col) of the ijji cell), for i != j
    couplings: tuple[tuple[int, tuple[int, int]], ...]


@lru_cache(maxsize=None)
def _class_table(n: int) -> _ClassTable:
    np1 = n + 1
    order: list[tuple[int, ...]] = []
    groups: dict[tuple[int, ...], list[tuple[int, int]]] = {}
    for p in range(np1):
        for q in range(np1):
            r = p * np1 + q
            for i in range(np1):
                for j in range(np1):
                    c = i * np1 + j
                    v = [0] * np1
                    v[i] += 1
                    v[j] -= 1
                    v[p] -= 1
                    v[q] += 1
                    key = tuple(v)
                    if key not in groups:
                        groups[key] = []
                        order.append(key)
                    groups[key].append((r, c))
    class_index = {key: k for k, key in enumerate(order)}
    zero = frozenset(groups[tuple([0] * np1)])
    couplings = []
    for i in range(np1):
        for j in range(np1):
            if i == j:
                continue
            v = [0] * np1
            v[i], v[j] = 1, -1
            couplings.append(
                (class_index[tuple(v)], (j * np1 + i, i * np1 + j))
            )
    return _ClassTable(
        n=n,
        classes=tuple((key, tuple(groups[key])) for key in order),
        zero_cells=zero,
        couplings=tuple(couplings),
    )


class Matrix2D:
    """Mutable bound matrix; confine to one task while mutating."""

    __slots__ = ("n", "cells")

    def __init__(self, n: int, cells: list[list[Bound]]):
        self.n = n
        self.cells = cells

    # -- access ------------------------------------------------------------

    def _check(self, *idx: int) -> None:
        for v in idx:
            if not 0 <= v <= self.n:
                raise IndexError(f"variable index {v} out of range [0, {self.n}]")

    def get(self, i: int, j: int, p: int, q: int) -> Bound:
        """Bound of (xi - xj) - (xp - xq)."""
        self._check(i, j, p, q)
        np1 = self.n + 1
        return self.cells[p * np1 + q][i * np1 + j]

    def set_min(self, i: int, j: int, p: int, q: int, b: Bound) -> "Matrix2D":
        """Lower the cell to min(current, b).  Returns self."""
        self._check(i, j, p, q)
        if isinstance(b, float):
            if b != INF:
                raise ValueError(
                    f"bounds are exact rationals or +inf, got float {b!r}"
                )
            return self
        np1 = self.n + 1
        row = self.cells[p * np1 + q]
        col = i * np1 + j
        b = Fraction(b)
        if b < row[col]:
            row[col] = b
        return self

    def copy(self) -> "Matrix2D":
        return Matrix2D(self.n, [row[:] for row in self.cells])

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Matrix2D):
            return NotImplemented
        return self.n == other.n and self.cells == other.cells

    def __repr__(self) -> str:
        finite = sum(
            1 for row in self.cells for v in row if not isinstance(v, float)
        )
        return f"Matrix2D(n={self.n}, finite_cells={finite})"

    # -- coherence -----------------------------------------------------------

    def normalize(self) -> "Matrix2D":
        """Enforce class equality and the doubled-cell coupling; returns self."""
        self._normalize()
        return self

    def _normalize(self) -> bool:
        """In-place normalization; True when any cell changed."""
        cells = self.cells
        changed = False
        table = _class_table(self.n)
        for _, members in table.classes:
            if len(members) == 1:
                continue
            m = min(cells[r][c] for r, c in members)
            for r, c in members:
                if cells[r][c] != m:
                    cells[r][c] = m
                    changed = True
        for class2, (rjj, cjj) in table.couplings:
            _, members = table.classes[class2]
            r2, c2 = members[0]
            b2 = cells[r2][c2]
            bjj = cells[rjj][cjj]
            if not isinstance(bjj, float) and bjj < 2 * b2:
                b2 = bjj / 2
                for r, c in members:
                    cells[r][c] = b2
                changed = True
            elif not isinstance(b2, float):
                dbl = 2 * b2
                if dbl < bjj:
                    cells[rjj][cjj] = dbl
                    changed = True
        return changed

    # -- feasibility signal ---------------------------------------------------

    def has_negative_zero_cell(self) -> bool:
        """True when some zero-normal-vector cell is < 0 (infeasible)."""
        cells = self.cells
        for r, c in _class_table(self.n).zero_cells:
            v = cells[r][c]
            if not isinstance(v, float) and v < 0:
                return True
        return False


def new_matrix(n: int) -> Matrix2D:
    """Unconstrained matrix: +inf everywhere, 0 on zero-vector cells."""
    if n < 1:
        raise ValueError("n must be at least 1")
    if n > MAX_VARIABLES:
        raise ValueError(
            f"n={n} exceeds the supported maximum of {MAX_VARIABLES}"
        )
    size = (n + 1) * (n + 1)
    cells: list[list[Bound]] = [[INF] * size for _ in range(size)]
    zero = Fraction(0)
    for r, c in _class_table(n).zero_cells:
        cells[r][c] = zero
    return Matrix2D(n, cells)


def load(constraints: Iterable[Constraint4], n: int) -> Matrix2D:
    """Store each constraint's bound (duplicates keep the min), normalized."""
    m = new_matrix(n)
    for c in constraints:
        m.set_min(c.i, c.j, c.p, c.q, c.m)
    return m.normalize()


def from_dbm(dbm: Sequence[Sequence[Bound]]) -> Matrix2D:
    """Lift a difference-bound matrix: entry (k, l) bounds x_l - x_k.

    The input must be square with n+1 rows including the x0 row/column.
    Finite entries become two-variable constraints; a negative diagonal
    entry lands in the zero-vector class and flags infeasibility later.
    """
    size = len(dbm)
    if any(len(row) != size for row in dbm):
        raise ValueError("DBM must be square")
    if size < 2:
        raise ValueError("DBM needs at least the x0 row and one variable")
    n = size - 1
    m = new_matrix(n)
    for k in range(size):
        for l in range(size):
            b = dbm[k][l]
            if is_finite(b):
                m.set_min(l, k, 0, 0, b)
    return m.normalize()


def satisfies(m: Matrix2D, valuation: Sequence[Fraction]) -> bool:
    """Exact substitution of a valuation (indexed x0..xn) into every
    finite cell read as (vi - vj) - (vp - vq) <= cell."""
    np1 = m.n + 1
    if len(valuation) != np1:
        raise ValueError(f"valuation needs {np1} entries")
    diffs = [valuation[a] - valuation[b] for a in range(np1) for b in range(np1)]
    for r, row in enumerate(m.cells):
        for c, bound in enumerate(row):
            if isinstance(bound, float):
                continue
            if diffs[c] - diffs[r] > bound:
                return False
    return True


def to_constraints(m: Matrix2D) -> list[Constraint4]:
    """One canonical constraint per finite normal-vector class.

    The zero class is included only when negative (the contradiction
    0 <= m with m < 0).  The result describes exactly the same rational
    polyhedron as the matrix, deduplicated for oracle consumption.
    """
    out: list[Constraint4] = []
    cells = m.cells
    for vec, members in _class_table(m.n).classes:
        r, c = members[0]
        b = min(cells[rr][cc] for rr, cc in members)
        if isinstance(b, float):
            continue
        if not any(vec) and b >= 0:
            continue
        positives = [k for k, v in enumerate(vec) if v > 0 for _ in range(v)]
        negatives = [k for k, v in enumerate(vec) if v < 0 for _ in range(-v)]
        out.append(make_constraint(positives, negatives, b))
    return out


# -- serialization ------------------------------------------------------------


def to_json_obj(m: Matrix2D) -> dict:
    """{"n": int, "cells": [[row, col, "p/q"], ...]} of non-default cells."""
    zero = _class_table(m.n).zero_cells
    listed = []
    for r, row in enumerate(m.cells):
        for c, v in enumerate(row):
            if isinstance(v, float):
                continue
            if (r, c) in zero and v == 0:
                continue
            listed.append([r, c, format_bound(v)])
    return {"n": m.n, "cells": listed}


def from_json_obj(obj: dict) -> Matrix2D:
    n = obj["n"]
    m = new_matrix(n)
    size = (n + 1) * (n + 1)
    for r, c, text in obj["cells"]:
        if not (0 <= r < size and 0 <= c < size):
            raise ValueError(f"cell ({r}, {c}) out of range for n={n}")
        if text == "inf":
            continue
        np1 = n + 1
        p, q = divmod(r, np1)
        i, j = divmod(c, np1)
        m.set_min(i, j, p, q, parse_rational(text))
    return m


def to_json(m: Matrix2D) -> str:
    return json.dumps(to_json_obj(m), separators=(",", ":"))


def from_json(text: str) -> Matrix2D:
    return from_json_obj(json.loads(text))

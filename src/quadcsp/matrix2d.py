"""Bound matrix over variable pairs, stored one bound per normal-vector
class.

The cell at row ``p*(n+1)+q``, column ``i*(n+1)+j`` of the
(n+1)^2 x (n+1)^2 matrix bounds ``(xi - xj) - (xp - xq)``: rows and
columns are indexed by variable differences rather than variables.  Many
index quadruples denote the same hyperplane direction (their normal
vectors e_i - e_j - e_p + e_q coincide), so a matrix stores one bound
per such class and every cell reads its class's bound.  A per-n table
holds the layout: the class vectors, the class of each cell, the zero
class and the couplings.  ``normalize`` applies the couplings: the bound
of ``2xi - 2xj`` is exactly twice the bound of ``xi - xj``, enforced by
mutual min in both directions.

Classes default to +inf ("no constraint"), except the zero normal vector,
which starts at 0 (it bounds the constant functional 0).  The zero class
going negative is the infeasibility signal consumed by the closure.
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

#: Hard cap on n.  A matrix stores one bound per class (3,191 at
#: n = 10) and the layout table maps all (n+1)^4 cells to them; the
#: closure's table of class sums u + w = v grows like (n+1)^6 entries,
#: a round reads the entries of every class the round before lowered,
#: and up to ceil((n+1)^4 / 2) rounds may run.
MAX_VARIABLES = 32


@dataclass(frozen=True)
class _ClassTable:
    """Per-n layout: the normal-vector classes and the class of each cell."""

    #: the normal vector of each class, in first-seen quadruple order
    vectors: tuple[tuple[int, ...], ...]
    #: the class of each cell, at row * (n+1)^2 + col
    cell_class: tuple[int, ...]
    #: the class of the zero normal vector
    zero: int
    #: (class of e_i - e_j, class of 2e_i - 2e_j) for i != j
    couplings: tuple[tuple[int, int], ...]


@lru_cache(maxsize=None)
def _class_table(n: int) -> _ClassTable:
    np1 = n + 1
    index: dict[tuple[int, ...], int] = {}
    cell_class = []
    for p in range(np1):
        for q in range(np1):
            for i in range(np1):
                for j in range(np1):
                    v = [0] * np1
                    v[i] += 1
                    v[j] -= 1
                    v[p] -= 1
                    v[q] += 1
                    cell_class.append(index.setdefault(tuple(v), len(index)))

    def unit(i: int, j: int, k: int) -> int:
        v = [0] * np1
        v[i], v[j] = k, -k
        return index[tuple(v)]

    return _ClassTable(
        vectors=tuple(index),
        cell_class=tuple(cell_class),
        zero=index[(0,) * np1],
        couplings=tuple(
            (unit(i, j, 1), unit(i, j, 2))
            for i in range(np1)
            for j in range(np1)
            if i != j
        ),
    )


class Matrix2D:
    """Mutable bound matrix; confine to one task while mutating.

    ``bounds[k]`` is the bound of class k (see ``_class_table``), a
    Fraction or +inf.
    """

    __slots__ = ("n", "bounds")

    def __init__(self, n: int, bounds: list[Bound]):
        self.n = n
        self.bounds = bounds

    # -- access ------------------------------------------------------------

    def class_of_cell(self, row: int, col: int) -> int:
        """Index into ``bounds`` of the cell at (row, col)."""
        return _class_table(self.n).cell_class[row * (self.n + 1) ** 2 + col]

    def _class_of(self, i: int, j: int, p: int, q: int) -> int:
        np1 = self.n + 1
        for v in (i, j, p, q):
            if not 0 <= v < np1:
                raise IndexError(f"variable index {v} out of range [0, {self.n}]")
        return self.class_of_cell(p * np1 + q, i * np1 + j)

    def get(self, i: int, j: int, p: int, q: int) -> Bound:
        """Bound of (xi - xj) - (xp - xq)."""
        return self.bounds[self._class_of(i, j, p, q)]

    def set_min(self, i: int, j: int, p: int, q: int, b: Bound) -> "Matrix2D":
        """Lower the cell's class to min(current, b).  Returns self."""
        k = self._class_of(i, j, p, q)
        if isinstance(b, float):
            if b != INF:
                raise ValueError(
                    f"bounds are exact rationals or +inf, got float {b!r}"
                )
            return self
        b = Fraction(b)
        if b < self.bounds[k]:
            self.bounds[k] = b
        return self

    def copy(self) -> "Matrix2D":
        return Matrix2D(self.n, self.bounds[:])

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Matrix2D):
            return NotImplemented
        return self.n == other.n and self.bounds == other.bounds

    def __repr__(self) -> str:
        finite = sum(1 for v in self.bounds if not isinstance(v, float))
        return f"Matrix2D(n={self.n}, finite_classes={finite})"

    # -- coherence -----------------------------------------------------------

    def normalize(self) -> "Matrix2D":
        """Enforce the doubled-class coupling in place; returns self."""
        bounds = self.bounds
        for c1, c2 in _class_table(self.n).couplings:
            b1, b2 = bounds[c1], bounds[c2]
            if not isinstance(b2, float) and b2 < 2 * b1:
                bounds[c1] = b2 / 2
            elif not isinstance(b1, float) and 2 * b1 < b2:
                bounds[c2] = 2 * b1
        return self

    # -- feasibility signal ---------------------------------------------------

    def has_negative_zero_cell(self) -> bool:
        """True when the zero-normal-vector class is < 0 (infeasible)."""
        return self.bounds[_class_table(self.n).zero] < 0


def new_matrix(n: int) -> Matrix2D:
    """Unconstrained matrix: +inf everywhere, 0 on the zero class."""
    if n < 1:
        raise ValueError("n must be at least 1")
    if n > MAX_VARIABLES:
        raise ValueError(
            f"n={n} exceeds the supported maximum of {MAX_VARIABLES}"
        )
    table = _class_table(n)
    bounds: list[Bound] = [INF] * len(table.vectors)
    bounds[table.zero] = Fraction(0)
    return Matrix2D(n, bounds)


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


def to_constraints(m: Matrix2D) -> list[Constraint4]:
    """One canonical constraint per finite normal-vector class.

    The zero class is included only when negative (the contradiction
    0 <= m with m < 0).  The result describes exactly the same rational
    polyhedron as the matrix, deduplicated for oracle consumption.
    """
    out: list[Constraint4] = []
    for vec, b in zip(_class_table(m.n).vectors, m.bounds):
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
    """{"n": int, "cells": [[row, col, "p/q"], ...]} of non-default cells,
    row by row; every cell of a class carries the class's bound."""
    table = _class_table(m.n)
    texts = [
        None if isinstance(v, float) or (k == table.zero and v == 0)
        else format_bound(v)
        for k, v in enumerate(m.bounds)
    ]
    size = (m.n + 1) ** 2
    return {
        "n": m.n,
        "cells": [
            [*divmod(cell, size), texts[k]]
            for cell, k in enumerate(table.cell_class)
            if texts[k] is not None
        ],
    }


def from_json_obj(obj: dict) -> Matrix2D:
    """The matrix of a ``to_json_obj`` document.  Each listed cell
    lowers its class, so a class reads the minimum of its listed cells
    ("inf" lowers nothing)."""
    n = obj["n"]
    m = new_matrix(n)
    np1 = n + 1
    size = np1 * np1
    for r, c, text in obj["cells"]:
        if not (0 <= r < size and 0 <= c < size):
            raise ValueError(f"cell ({r}, {c}) out of range for n={n}")
        if text == "inf":
            continue
        p, q = divmod(r, np1)
        i, j = divmod(c, np1)
        m.set_min(i, j, p, q, parse_rational(text))
    return m


def to_json(m: Matrix2D) -> str:
    return json.dumps(to_json_obj(m), separators=(",", ":"))


def from_json(text: str) -> Matrix2D:
    return from_json_obj(json.loads(text))

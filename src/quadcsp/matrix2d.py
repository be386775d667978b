"""Bound matrix over variable pairs, stored one bound per normal-vector
class.

The cell at row ``p*(n+1)+q``, column ``i*(n+1)+j`` of the
(n+1)^2 x (n+1)^2 matrix bounds ``(xi - xj) - (xp - xq)``: rows and
columns are indexed by variable differences rather than variables.  Many
index quadruples denote the same hyperplane direction (their normal
vectors e_i - e_j - e_p + e_q coincide), so a matrix stores one bound
per such class and every cell reads its class's bound.  A class is named
by its code 9^i - 9^j - 9^p + 9^q, the normal vector's balanced base-9
digits (each in [-2, 2], x0 lowest), so the cell at (row, col) has the
code of its column's difference minus its row's.  A per-n table numbers
the codes in first-seen cell order, rows outer and columns inner, and
holds the zero class and the couplings; it is the only map from a code
or a cell to a class number.  ``normalize`` applies the couplings: the
bound of ``2xi - 2xj`` is exactly twice the bound of ``xi - xj``,
enforced by mutual min in both directions.

Classes default to +inf ("no constraint"), except the zero normal vector,
which starts at 0 (it bounds the constant functional 0).  The zero class
going negative is the infeasibility signal consumed by the closure.

A matrix stores each finite bound as a Python int over one common
denominator ``denom`` (the bound b is stored as b * denom; +inf stays
+inf), so the closure's sums and comparisons run on the ints directly.
Fractions are made only at the edges: ``get`` and ``bounds`` build one
per read, and a written value whose denominator ``denom`` lacks scales
every bound up first.  Halving an odd doubled bound doubles ``denom``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from typing import Iterable

from .core import (
    INF,
    Bound,
    Constraint4,
    format_bound,
    make_constraint,
)

#: Hard cap on n.  A matrix stores one bound per class (3,191 at
#: n = 10, 280,369 at n = 32), and the layout table numbers their codes
#: from one pass over the (n+1)^4 cells (about 0.3 s at n = 32).  The
#: closure's table of class sums u + w = v builds the row of a class on
#: its first read, when that class is finite and lowered; all rows
#: together hold about (n+1)^6 entries.  A round reads the rows of every
#: class the round before lowered, and up to ceil((n+1)^4 / 2) rounds
#: may run.  Octagon closes read no class-sum row: they run a strong
#: closure on 2n nodes and one pass over each class's few splits.
MAX_VARIABLES = 32


@dataclass(frozen=True)
class _ClassTable:
    """Per-n layout: the normal-vector classes, each named by its code."""

    #: the code of each class, in first-seen cell order
    codes: tuple[int, ...]
    #: the class of each code
    index: dict[int, int]
    #: the class of the zero normal vector
    zero: int
    #: (class of e_i - e_j, class of 2e_i - 2e_j) for i != j
    couplings: tuple[tuple[int, int], ...]


def _diffs(n: int) -> list[int]:
    """The code of xi - xj at row or column i*(n+1) + j."""
    return [9**i - 9**j for i in range(n + 1) for j in range(n + 1)]


@lru_cache(maxsize=None)
def _class_table(n: int) -> _ClassTable:
    diffs = _diffs(n)
    # cell (row, col) bounds a form whose code is diffs[col] - diffs[row]
    codes = tuple(dict.fromkeys([c - r for r in diffs for c in diffs]))
    index = dict(zip(codes, range(len(codes))))
    return _ClassTable(
        codes=codes,
        index=index,
        zero=index[0],
        couplings=tuple((index[d], index[2 * d]) for d in diffs if d),
    )


def _vector(code: int, n: int) -> tuple[int, ...]:
    """The normal vector of a code: its balanced base-9 digits, x0 first."""
    vec = []
    for _ in range(n + 1):
        digit = (code + 4) % 9 - 4
        vec.append(digit)
        code = (code - digit) // 9
    return tuple(vec)


def _exact(b: Bound) -> Fraction | None:
    """``b`` as a Fraction, or None for +inf; other floats are refused."""
    if isinstance(b, float):
        if b != INF:
            raise ValueError(
                f"bounds are exact rationals or +inf, got float {b!r}"
            )
        return None
    return b if type(b) is Fraction else Fraction(b)


def _rescale(scaled: list, factor: int) -> None:
    scaled[:] = [b if b is INF else b * factor for b in scaled]


def _lower(scaled: list, rows: Iterable[tuple[int, Fraction]]) -> int:
    """Lower class k to min(current, v) for each (k, v), in place, with v
    a rational in units of the stored ints (plain rationals on a fresh
    matrix, whose denominator is 1).  Every bound is first scaled by the
    lcm of the values' denominators, which is returned: the factor by
    which the common denominator grows."""
    rows = list(rows)
    factor = math.lcm(*(v.denominator for _, v in rows))
    if factor > 1:
        _rescale(scaled, factor)
    for k, v in rows:
        v = v.numerator * (factor // v.denominator)
        if v < scaled[k]:
            scaled[k] = v
    return factor


def _couple(scaled: list, couplings: tuple, trace: dict) -> int:
    """Halve 2e_i - 2e_j into e_i - e_j, or double the other way, in
    place; each lowered class maps in ``trace`` to ("half", c2) or
    ("double", c1).  An odd bound is halved after doubling every bound:
    returns the factor by which the common denominator grew."""
    factor = 1
    for c1, c2 in couplings:
        b2 = scaled[c2]
        if b2 is not INF and b2 < 2 * scaled[c1]:
            if b2 & 1:
                _rescale(scaled, 2)
                factor *= 2
                b2 = scaled[c2]
            scaled[c1] = b2 // 2
            trace[c1] = ("half", c2)
        else:
            b1 = scaled[c1]
            if b1 is not INF and 2 * b1 < b2:
                scaled[c2] = 2 * b1
                trace[c2] = ("double", c1)
    return factor


class Matrix2D:
    """Mutable bound matrix; confine to one task while mutating.

    ``scaled[k]`` is the bound of class k (see ``_class_table``) times
    ``denom``, an int, or +inf; ``bounds`` reads them as Fractions.
    """

    __slots__ = ("n", "scaled", "denom")

    def __init__(self, n: int, scaled: list, denom: int):
        self.n = n
        self.scaled = scaled
        self.denom = denom

    # -- access ------------------------------------------------------------

    @property
    def bounds(self) -> tuple[Bound, ...]:
        """The bound of each class, a Fraction or +inf (a read-only view)."""
        d = self.denom
        return tuple(b if b is INF else Fraction(b, d) for b in self.scaled)

    def class_of_cell(self, row: int, col: int) -> int:
        """Index into ``bounds`` of the cell at (row, col)."""
        size = (self.n + 1) ** 2
        if not (0 <= row < size and 0 <= col < size):
            raise IndexError(f"cell ({row}, {col}) out of range [0, {size})")
        return self._class_of(*divmod(col, self.n + 1), *divmod(row, self.n + 1))

    def _class_of(self, i: int, j: int, p: int, q: int) -> int:
        n = self.n
        if not (0 <= i <= n and 0 <= j <= n and 0 <= p <= n and 0 <= q <= n):
            raise IndexError(
                f"variable indices {(i, j, p, q)} out of range [0, {n}]"
            )
        return _class_table(n).index[9**i - 9**j - 9**p + 9**q]

    def get(self, i: int, j: int, p: int, q: int) -> Bound:
        """Bound of (xi - xj) - (xp - xq)."""
        b = self.scaled[self._class_of(i, j, p, q)]
        return b if b is INF else Fraction(b, self.denom)

    def set_min(self, i: int, j: int, p: int, q: int, b: Bound) -> "Matrix2D":
        """Lower the cell's class to min(current, b).  Returns self."""
        k = self._class_of(i, j, p, q)
        b = _exact(b)
        if b is not None and b * self.denom < self.scaled[k]:
            self.denom *= _lower(self.scaled, [(k, b * self.denom)])
        return self

    def copy(self) -> "Matrix2D":
        return Matrix2D(self.n, self.scaled[:], self.denom)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Matrix2D):
            return NotImplemented
        # INF times a denominator stays INF
        return self.n == other.n and [
            b * other.denom for b in self.scaled
        ] == [b * self.denom for b in other.scaled]

    def __repr__(self) -> str:
        finite = sum(1 for v in self.scaled if v is not INF)
        return f"Matrix2D(n={self.n}, finite_classes={finite})"

    # -- coherence -----------------------------------------------------------

    def normalize(self) -> "Matrix2D":
        """Enforce the doubled-class coupling in place; returns self."""
        self.denom *= _couple(self.scaled, _class_table(self.n).couplings, {})
        return self

    def reduce(self) -> "Matrix2D":
        """Divide ``denom`` and every finite bound by their gcd in place,
        so that ``denom`` is the lcm of the bounds' reduced denominators;
        returns self."""
        if self.denom > 1:
            g = math.gcd(self.denom, *(b for b in self.scaled if b is not INF))
            if g > 1:
                self.denom //= g
                self.scaled = [b if b is INF else b // g for b in self.scaled]
        return self


def new_matrix(n: int) -> Matrix2D:
    """Unconstrained matrix: +inf everywhere, 0 on the zero class."""
    if n < 1:
        raise ValueError("n must be at least 1")
    if n > MAX_VARIABLES:
        raise ValueError(
            f"n={n} exceeds the supported maximum of {MAX_VARIABLES}"
        )
    table = _class_table(n)
    scaled: list = [INF] * len(table.codes)
    scaled[table.zero] = 0
    return Matrix2D(n, scaled, 1)


def load(constraints: Iterable[Constraint4], n: int) -> Matrix2D:
    """Store each constraint's bound (duplicates keep the min), normalized."""
    m = new_matrix(n)
    rows = []
    for c in constraints:
        k = m._class_of(c.i, c.j, c.p, c.q)
        b = _exact(c.m)
        if b is not None:
            rows.append((k, b))
    m.denom *= _lower(m.scaled, rows)
    return m.normalize()


def to_constraints(m: Matrix2D) -> list[Constraint4]:
    """One canonical constraint per finite normal-vector class.

    The zero class is included only when negative (the contradiction
    0 <= m with m < 0).  The result describes exactly the same rational
    polyhedron as the matrix, deduplicated for oracle consumption.
    """
    out: list[Constraint4] = []
    for code, b in zip(_class_table(m.n).codes, m.bounds):
        if isinstance(b, float) or (code == 0 and b >= 0):
            continue
        vec = _vector(code, m.n)
        positives = [k for k, v in enumerate(vec) if v > 0 for _ in range(v)]
        negatives = [k for k, v in enumerate(vec) if v < 0 for _ in range(-v)]
        out.append(make_constraint(positives, negatives, b))
    return out


# -- serialization ------------------------------------------------------------


def to_json_obj(m: Matrix2D) -> dict:
    """{"n": int, "cells": [[row, col, "p/q"], ...]} of non-default cells,
    row by row; every cell of a class carries the class's bound."""
    texts = {
        code: format_bound(v)
        for code, v in zip(_class_table(m.n).codes, m.bounds)
        if not (isinstance(v, float) or (code == 0 and v == 0))
    }
    diffs = _diffs(m.n)
    return {
        "n": m.n,
        "cells": [
            [row, col, text]
            for row, r in enumerate(diffs)
            for col, c in enumerate(diffs)
            if (text := texts.get(c - r)) is not None
        ],
    }

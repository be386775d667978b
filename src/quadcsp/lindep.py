"""Simple hypercycles of a constraint list: ``explain``'s enumerator.

A family of distinct nonzero vectors is positively dependent when some
strictly positive combination of it vanishes; it is simple when no proper
subfamily is.  Constraint sets map to these families through their
normal vectors, and a simple positively dependent subset is a simple
hypercycle.  ``explain`` consumes the enumeration lazily and stops at the
first cycle of negative weight; ``closure`` reuses the exact kernel.

Subsets are walked by ascending size and every superset of a cycle
already found is skipped, so each subset that gets a dependence test has
no positively dependent proper subfamily.  Such a subset is positively
dependent only if its kernel is one line spanned by a strictly positive
vector: were x > 0 and y two independent kernel vectors, moving from x
along -y (or y) until the first coefficient reaches zero would give a
positive vanishing combination of a proper subfamily of at least two
members.  That subfamily holds a smaller simple cycle, found before this
subset and pruning it.  The test
is therefore one exact kernel computation, with no search; the line's
coprime positive integer generator is the cycle's unique coefficients.
Before it, a subset must pass a sign filter: a positive combination can
vanish only if every coordinate some member touches has both a positive
and a negative entry among the members.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Iterator, Mapping, Sequence

from .core import (
    Bound,
    Constraint4,
    INF,
    NormalVector,
    is_finite,
    normal_vector,
)

#: Default subset-size / constraint-list caps of the enumeration.
DEFAULT_MAX_SIZE = 6
DEFAULT_MAX_CONSTRAINTS = 16

Vector = tuple[Fraction, ...]


class SizeLimitError(ValueError):
    """Family or constraint list exceeds the configured enumeration cap."""


@dataclass(frozen=True)
class WeightedFamily:
    """Constraints with positive coefficients (a hypercycle when their
    weighted normal vectors cancel)."""

    members: tuple[Constraint4, ...]
    coeffs: tuple[Fraction, ...]


# --- exact kernel computation ----------------------------------------------


def _kernel_basis(vectors: Sequence[Sequence]) -> list[Vector]:
    """Basis of {lam : sum lam_k * V_k = 0}, exact over the rationals."""
    r = len(vectors)
    dim = len(vectors[0])
    # rows = coordinates, columns = family members
    a = [[Fraction(vectors[k][d]) for k in range(r)] for d in range(dim)]
    pivots: list[tuple[int, int]] = []
    row = 0
    for col in range(r):
        pivot = next(
            (rr for rr in range(row, dim) if a[rr][col] != 0), None
        )
        if pivot is None:
            continue
        a[row], a[pivot] = a[pivot], a[row]
        inv = a[row][col]
        a[row] = [v / inv for v in a[row]]
        for rr in range(dim):
            if rr != row and a[rr][col] != 0:
                factor = a[rr][col]
                a[rr] = [v - factor * w for v, w in zip(a[rr], a[row])]
        pivots.append((row, col))
        row += 1
        if row == dim:
            break
    pivot_cols = {col for _, col in pivots}
    basis = []
    for free in range(r):
        if free in pivot_cols:
            continue
        vec = [Fraction(0)] * r
        vec[free] = Fraction(1)
        for prow, pcol in pivots:
            vec[pcol] = -a[prow][free]
        basis.append(tuple(vec))
    return basis


def _to_coprime_ints(values: Sequence[Fraction]) -> tuple[int, ...]:
    mult = math.lcm(*(v.denominator for v in values))
    ints = [int(v * mult) for v in values]
    g = math.gcd(*ints)
    return tuple(v // g for v in ints)


# --- constraint-level enumeration -------------------------------------------


def _constraints_n(constraints: Iterable[Constraint4]) -> int:
    return max((max(c.indices()) for c in constraints), default=1) or 1


def _sign_masks(v: NormalVector) -> tuple[int, int]:
    """Bitmasks of the coordinates where v is positive / negative."""
    pos = neg = 0
    for d, x in enumerate(v):
        if x > 0:
            pos |= 1 << d
        elif x < 0:
            neg |= 1 << d
    return pos, neg


def _simple_dependent_subsets(
    vectors: Sequence[NormalVector], max_size: int
) -> Iterator[tuple[tuple[int, ...], tuple[int, ...]]]:
    """(indices, coprime coefficients) of every simple dependent subset.

    Ascending subset size, then ``itertools.combinations`` order, with
    minimal-dependent pruning: a dependent set found at size k certifies
    every superset as non-simple, so each surviving candidate needs
    exactly one dependence test, a kernel that is one strictly positive
    line (see the module docstring), and a dependent survivor is simple
    by construction.  Subsets whose members do not meet every touched
    coordinate with both signs cannot vanish and skip that test; since
    only dependent subsets enter the pruning list, the filter never
    changes what is yielded.
    """
    usable = [k for k, v in enumerate(vectors) if any(v)]
    masks = [_sign_masks(v) for v in vectors]
    minimal: list[frozenset[int]] = []
    for size in range(2, max_size + 1):
        for subset in itertools.combinations(usable, size):
            pos = neg = 0
            for k in subset:
                pos |= masks[k][0]
                neg |= masks[k][1]
            if pos != neg:
                continue
            sset = set(subset)
            if any(dep <= sset for dep in minimal):
                continue
            vecs = [vectors[k] for k in subset]
            if len(set(vecs)) != len(vecs):
                continue
            basis = _kernel_basis(vecs)
            if len(basis) != 1:
                continue
            line = basis[0]
            if line[0] < 0:
                line = tuple(-x for x in line)
            if all(x > 0 for x in line):
                minimal.append(frozenset(subset))
                yield subset, _to_coprime_ints(line)


def _check_list_cap(constraints: Sequence[Constraint4], cap: int) -> None:
    if len(constraints) > cap:
        raise SizeLimitError(
            f"{len(constraints)} constraints exceed the enumeration cap "
            f"of {cap}"
        )


def enumerate_simple_hcycles(
    constraints: Sequence[Constraint4],
    max_size: int = DEFAULT_MAX_SIZE,
    max_constraints: int = DEFAULT_MAX_CONSTRAINTS,
) -> Iterator[WeightedFamily]:
    """Yield every subset up to max_size generating a simple hypercycle,
    in ascending size and then input order.

    The list cap is checked when the function is called, not on the
    first ``next``.  Constraints with a zero normal vector never join a
    family; duplicate normal vectors invalidate a subset (family vectors
    must be distinct).
    """
    _check_list_cap(constraints, max_constraints)
    members = tuple(constraints)
    n = _constraints_n(members)
    vectors = [normal_vector(c, n) for c in members]
    return (
        WeightedFamily(
            members=tuple(members[k] for k in subset),
            coeffs=tuple(Fraction(v) for v in coeffs),
        )
        for subset, coeffs in _simple_dependent_subsets(vectors, max_size)
    )


def cycle_weight(
    family: WeightedFamily,
    bounds: Mapping[Constraint4, Bound] | None = None,
) -> Bound:
    """Coefficient-weighted bound sum; +inf as soon as a member has one.

    With ``bounds`` given, members absent from the mapping count as +inf
    (the "not part of the system" extension); otherwise each member's own
    bound field is used.
    """
    total = Fraction(0)
    for member, lam in zip(family.members, family.coeffs):
        b = member.m if bounds is None else bounds.get(member, INF)
        if not is_finite(b):
            return INF
        total += lam * b
    return total

"""Positive linear dependence and brute-force hypercycle enumeration.

A family of distinct nonzero vectors is positively dependent when some
strictly positive combination of it vanishes; it is simple when no proper
subfamily is.  Simple families have a unique vanishing combination up to
scale, which this module normalizes to coprime positive integers.

Constraint sets map to these families through their normal vectors: a
subset generating a vanishing positive combination is a hypercycle, and a
hypercycle through the complement of a target constraint is a hyperpath
of that target.  Everything here enumerates subsets exhaustively, within
desk-scale caps; the tests use it as a ground-truth oracle.

``explain`` consumes the hypercycle enumeration lazily and stops at the
first cycle of negative weight.  Before any exact dependence test, a
subset must pass a sign filter: a positive combination can vanish only
if every coordinate some member touches has both a positive and a
negative entry among the members.
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
    complement,
    is_finite,
    normal_vector,
)
from .fmoracle import rows_solution

#: Default subset-size / constraint-list caps for the enumerators.
DEFAULT_MAX_SIZE = 6
DEFAULT_MAX_CONSTRAINTS = 16

Vector = tuple[Fraction, ...]


class SizeLimitError(ValueError):
    """Family or constraint list exceeds the configured enumeration cap."""


class NotSimpleError(ValueError):
    """unique_coeffs was given a family without a unique positive solution."""


@dataclass(frozen=True)
class WeightedFamily:
    """Constraints with positive coefficients (a hypercycle when their
    weighted normal vectors cancel)."""

    members: tuple[Constraint4, ...]
    coeffs: tuple[Fraction, ...]


@dataclass(frozen=True)
class HyperPath:
    """A hypercycle through the complement of ``target``, normalized so the
    complement carries coefficient 1; ``path.coeffs`` are the remaining
    rational ratios."""

    path: WeightedFamily
    target: Constraint4

    def weight(self, bounds: Mapping[Constraint4, Bound] | None = None) -> Bound:
        return cycle_weight(self.path, bounds)


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


def _validate_family(vectors: Sequence[Sequence], max_family: int) -> list[Vector]:
    if len(vectors) > max_family:
        raise SizeLimitError(
            f"family of {len(vectors)} exceeds the cap of {max_family}"
        )
    vecs = [tuple(Fraction(x) for x in v) for v in vectors]
    if not vecs:
        raise ValueError("empty family")
    width = len(vecs[0])
    if any(len(v) != width for v in vecs):
        raise ValueError("family vectors must share one dimension")
    if any(not any(v) for v in vecs):
        raise ValueError("zero vectors cannot be family members")
    if len(set(vecs)) != len(vecs):
        raise ValueError("family vectors must be distinct")
    return vecs


def _positive_point(vecs: Sequence[Sequence]) -> tuple[Fraction, ...] | None:
    """Some strictly positive vanishing combination, or None."""
    basis = _kernel_basis(vecs)
    if not basis:
        return None
    if len(basis) == 1:
        b = basis[0]
        if any(x == 0 for x in b):
            return None
        if b[0] < 0:
            b = tuple(-x for x in b)
        if any(x < 0 for x in b):
            return None
        return b
    # Search the kernel for a point with every coefficient >= 1:
    # lam = sum_d t_d * basis_d, constraints -(B t)_k <= -1.
    r = len(vecs)
    d = len(basis)
    rows = []
    for k in range(r):
        rows.append(
            (tuple(-basis[dd][k] for dd in range(d)), Fraction(-1))
        )
    t = rows_solution(rows, d)
    if t is None:
        return None
    return tuple(
        sum((t[dd] * basis[dd][k] for dd in range(d)), Fraction(0))
        for k in range(r)
    )


def positive_dependence(
    vectors: Sequence[Sequence], max_family: int = 12
) -> tuple[int, ...] | None:
    """Strictly positive coefficients cancelling the family, or None.

    Coefficients are scaled to coprime positive integers.  The family
    must consist of distinct nonzero vectors of one dimension.
    """
    vecs = _validate_family(vectors, max_family)
    point = _positive_point(vecs)
    if point is None:
        return None
    return _to_coprime_ints(point)


def is_simple(vectors: Sequence[Sequence], max_family: int = 12) -> bool:
    """No proper subfamily is positively dependent (subset enumeration)."""
    vecs = _validate_family(vectors, max_family)
    r = len(vecs)
    for size in range(2, r):
        for subset in itertools.combinations(range(r), size):
            if _positive_point([vecs[k] for k in subset]) is not None:
                return False
    return True


def unique_coeffs(
    vectors: Sequence[Sequence], max_family: int = 12
) -> tuple[int, ...]:
    """The minimal positive-integer solution of a simple dependent family.

    Simple families have a one-dimensional kernel spanned by a strictly
    positive vector; anything else raises NotSimpleError.
    """
    vecs = _validate_family(vectors, max_family)
    basis = _kernel_basis(vecs)
    if len(basis) == 1:
        b = basis[0]
        if b[0] < 0:
            b = tuple(-x for x in b)
        if all(x > 0 for x in b):
            return _to_coprime_ints(b)
    if _positive_point(vecs) is None:
        raise NotSimpleError("family is not positively dependent")
    raise NotSimpleError("family is positively dependent but not simple")


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
    exactly one dependence test, and a dependent survivor is simple by
    construction.  Subsets whose members do not meet every touched
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
            point = _positive_point(vecs)
            if point is not None:
                minimal.append(frozenset(subset))
                yield subset, _to_coprime_ints(point)


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


def simple_hyperpaths(
    target: Constraint4,
    constraints: Sequence[Constraint4],
    max_size: int = DEFAULT_MAX_SIZE,
    max_constraints: int = DEFAULT_MAX_CONSTRAINTS,
) -> list[HyperPath]:
    """All simple hyperpaths of ``target`` through the given constraints.

    A subset P qualifies when P plus the target's complement forms a
    simple hypercycle; coefficients are normalized so the complement
    carries 1.
    """
    _check_list_cap(constraints, max_constraints)
    bar = complement(target)
    extended = list(constraints) + [bar]
    n = _constraints_n(extended)
    vectors = [normal_vector(c, n) for c in extended]
    bar_index = len(constraints)
    out = []
    for subset, coeffs in _simple_dependent_subsets(vectors, max_size + 1):
        if bar_index not in subset:
            continue
        lam = dict(zip(subset, coeffs))
        scale = Fraction(lam[bar_index])
        members = tuple(extended[k] for k in subset if k != bar_index)
        ratios = tuple(
            Fraction(lam[k]) / scale for k in subset if k != bar_index
        )
        out.append(
            HyperPath(
                path=WeightedFamily(members=members, coeffs=ratios),
                target=target,
            )
        )
    return out


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


def min_weight_bruteforce(
    target: Constraint4,
    constraints: Sequence[Constraint4],
    max_size: int = DEFAULT_MAX_SIZE,
    max_constraints: int = DEFAULT_MAX_CONSTRAINTS,
) -> Bound:
    """Minimum weight over all simple hyperpaths of ``target``.

    This is the ground-truth tightest derivable upper bound on the
    target's functional; +inf when no hyperpath exists within the caps.
    """
    best: Bound = INF
    for hp in simple_hyperpaths(target, constraints, max_size, max_constraints):
        w = hp.weight()
        if w < best:
            best = w
    return best

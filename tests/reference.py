"""Reference code kept for the tests, outside the package.

None of this runs on a CLI path.  The tests use it as ground truth or as
a convenient way to build inputs:

- single-family positive dependence decided by a general search:
  ``positive_dependence``, ``is_simple`` and ``unique_coeffs``, whose
  ``_positive_point`` runs the elimination oracle's LP whenever the
  kernel has dimension 2 or more;
- hyperpaths of a target constraint and their least weight
  (``simple_hyperpaths``, ``min_weight_bruteforce``);
- the class layout built cell by cell from normal vectors
  (``reference_layout``), against which the tests check the code-keyed
  ``matrix2d._class_table``;
- matrices built from a difference-bound matrix or read back from the
  JSON of ``to_json_obj`` (``from_dbm``, ``from_json``), and the
  infeasibility signal of a matrix (``has_negative_zero_cell``);
- ``parse_rational``, the reader of a single ``k`` or ``p/q`` literal;
- ``reference_policy_fixpoint``, the acceleration's policy solved as one
  dense system over every class that a substitution pass leaves, against
  which the tests check ``closure._policy_fixpoint``.  It keeps the
  older admission rule (no doubling edge anywhere in that remainder) and
  its size cap.
"""

from __future__ import annotations

import itertools
import json
import re
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from typing import Mapping, Sequence

from quadcsp.closure import _term_parts
from quadcsp.core import (
    INF,
    Bound,
    Constraint4,
    ParseError,
    _literal,
    complement,
    is_finite,
    normal_vector,
)
from quadcsp.fmoracle import rows_solution
from quadcsp.lindep import (
    DEFAULT_MAX_CONSTRAINTS,
    DEFAULT_MAX_SIZE,
    SizeLimitError,
    Vector,
    WeightedFamily,
    _check_list_cap,
    _constraints_n,
    _kernel_basis,
    _simple_dependent_subsets,
    _to_coprime_ints,
    cycle_weight,
)
from quadcsp.matrix2d import (
    Matrix2D,
    _class_table,
    _exact,
    _lower,
    new_matrix,
    to_json_obj,
)


# --- positive dependence of one family --------------------------------------


class NotSimpleError(ValueError):
    """unique_coeffs was given a family without a unique positive solution."""


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


# --- hyperpaths ---------------------------------------------------------------


@dataclass(frozen=True)
class HyperPath:
    """A hypercycle through the complement of ``target``, normalized so the
    complement carries coefficient 1; ``path.coeffs`` are the remaining
    rational ratios."""

    path: WeightedFamily
    target: Constraint4

    def weight(self, bounds: Mapping[Constraint4, Bound] | None = None) -> Bound:
        return cycle_weight(self.path, bounds)


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


# --- the class layout ---------------------------------------------------------


@dataclass(frozen=True)
class ReferenceLayout:
    """The normal-vector classes and the class of each cell at one n."""

    #: the normal vector of each class, in first-seen quadruple order
    vectors: tuple[tuple[int, ...], ...]
    #: the class of each cell, at row * (n+1)^2 + col
    cell_class: tuple[int, ...]
    #: the class of the zero normal vector
    zero: int
    #: (class of e_i - e_j, class of 2e_i - 2e_j) for i != j
    couplings: tuple[tuple[int, int], ...]


@lru_cache(maxsize=None)
def reference_layout(n: int) -> ReferenceLayout:
    """The layout from each cell's vector e_i - e_j - e_p + e_q, classes
    numbered in first-seen order, rows outer and columns inner."""
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

    return ReferenceLayout(
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


# --- matrices and literals ----------------------------------------------------


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
    m = new_matrix(size - 1)
    rows = [
        (m._class_of(l, k, 0, 0), _exact(b))
        for k in range(size)
        for l, b in enumerate(dbm[k])
        if is_finite(b)
    ]
    m.denom *= _lower(m.scaled, rows)
    return m.normalize()


def from_json_obj(obj: dict) -> Matrix2D:
    """The matrix of a ``to_json_obj`` document.  Each listed cell
    lowers its class, so a class reads the minimum of its listed cells
    ("inf" lowers nothing)."""
    n = obj["n"]
    m = new_matrix(n)
    size = (n + 1) ** 2
    rows = []
    for r, c, text in obj["cells"]:
        if not (0 <= r < size and 0 <= c < size):
            raise ValueError(f"cell ({r}, {c}) out of range for n={n}")
        if text == "inf":
            continue
        rows.append((m.class_of_cell(r, c), parse_rational(text)))
    m.denom *= _lower(m.scaled, rows)
    return m


def to_json(m: Matrix2D) -> str:
    return json.dumps(to_json_obj(m), separators=(",", ":"))


def from_json(text: str) -> Matrix2D:
    return from_json_obj(json.loads(text))


def has_negative_zero_cell(m: Matrix2D) -> bool:
    """True when the zero-normal-vector class is < 0 (infeasible)."""
    return m.scaled[_class_table(m.n).zero] < 0


def parse_rational(text: str) -> Fraction:
    """Parse an integer or p/q literal into an exact Fraction."""
    text = text.strip()
    if not re.fullmatch(r"-?\d+(/\d+)?", text):
        raise ParseError(
            f"not a rational literal: {text!r} (use integers or p/q)"
        )
    return Fraction(_literal(text, text))


# --- the acceleration policy, solved densely --------------------------------

#: The largest remainder the dense solve takes on; a larger one rejects.
_ACCEL_MAX_VARS = 1200


def reference_policy_fixpoint(eqs: dict, bounds: list):
    """Exact fixpoint of a recorded affine policy, or None.

    Variables determined acyclically from frozen classes are peeled off
    by substitution; the remainder is solved densely.  Rejected unless
    provably contracting and dominated by the current values: within the
    remainder no doubling edge and no cycle among gain-1 edges, a unique
    linear solution, and every component <= its current bound (jumps
    must remain valid upper bounds).
    """
    parts: dict = {}
    consts: dict = {}
    for cls, term in eqs.items():
        ps = []
        const = Fraction(0)
        for arg, gain in _term_parts(term):
            if arg in eqs:
                ps.append((arg, gain))
            else:
                frozen = bounds[arg]
                if frozen is INF:
                    return None
                const += gain * frozen
        parts[cls] = ps
        consts[cls] = const

    # substitution pass: resolve classes with no unresolved arguments
    resolved: dict = {}
    deps = {cls: {arg for arg, _ in ps} for cls, ps in parts.items()}
    users: dict = {}
    for cls, ds in deps.items():
        for d in ds:
            users.setdefault(d, set()).add(cls)
    ready = [cls for cls, ds in deps.items() if not ds]
    while ready:
        cls = ready.pop()
        resolved[cls] = consts[cls] + sum(
            (g * resolved[a] for a, g in parts[cls]), Fraction(0)
        )
        for user in users.get(cls, ()):
            ds = deps[user]
            ds.discard(cls)
            if not ds and user not in resolved:
                ready.append(user)

    core = [cls for cls in eqs if cls not in resolved]
    if core:
        if len(core) > _ACCEL_MAX_VARS:
            return None
        index = {cls: k for k, cls in enumerate(core)}
        m = len(core)
        unit_adj: list[list[int]] = [[] for _ in range(m)]
        for cls in core:
            k = index[cls]
            for arg, gain in parts[cls]:
                a = index.get(arg)
                if a is None:
                    continue
                if gain > 1:
                    return None
                if gain == 1:
                    unit_adj[k].append(a)
        state = [0] * m  # 0 new, 1 on stack, 2 done
        for start in range(m):
            if state[start]:
                continue
            stack = [(start, iter(unit_adj[start]))]
            state[start] = 1
            while stack:
                node, it = stack[-1]
                advanced = False
                for nxt in it:
                    if state[nxt] == 1:
                        return None  # gain-1 cycle: not a contraction
                    if state[nxt] == 0:
                        state[nxt] = 1
                        stack.append((nxt, iter(unit_adj[nxt])))
                        advanced = True
                        break
                if not advanced:
                    state[node] = 2
                    stack.pop()
        a_mat = [[Fraction(0)] * m for _ in range(m)]
        b_vec = [Fraction(0)] * m
        for cls in core:
            k = index[cls]
            a_mat[k][k] += Fraction(1)
            b_vec[k] = consts[cls]
            for arg, gain in parts[cls]:
                a = index.get(arg)
                if a is None:
                    b_vec[k] += gain * resolved[arg]
                else:
                    a_mat[k][a] -= gain
        # a_mat x = b_vec has a unique solution iff the kernel of
        # [a_mat | -b_vec] is one line, off the last coordinate's zero
        basis = _kernel_basis(list(zip(*a_mat)) + [[-v for v in b_vec]])
        if len(basis) != 1 or basis[0][m] == 0:
            return None
        (kernel,) = basis
        for cls, k in index.items():
            resolved[cls] = kernel[k] / kernel[m]

    for cls, value in resolved.items():
        if value > bounds[cls]:
            return None
    return resolved

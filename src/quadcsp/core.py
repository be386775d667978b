"""Constraint model and text format.

Variables are x0..xn where x0 is reserved and always equal to zero.  A
constraint relates at most four variable occurrences:

    (xi - xj) - (xp - xq) <= m

with m an exact rational.  Degenerate forms (single variables, plain
differences, sums) are written by putting x0 in the unused slots, e.g.
``x2 >= 3`` becomes ``(x0 - x2) - (x0 - x0) <= -3``.  Bounds are
`fractions.Fraction`; +infinity (`math.inf`) is reserved for the "no
constraint" sentinel inside matrices and never appears in a
user-supplied constraint.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Sequence, Union

INF = math.inf

#: A bound is a finite exact rational or +infinity (math.inf).  The only
#: floats ever stored are +/-inf; Fraction comparisons/additions with them
#: are exact.
Bound = Union[Fraction, float]

#: Variable index in [0, n]; index 0 is the pinned zero variable.
VarId = int

#: Integer vector of length n+1: e_i - e_j - e_p + e_q for a constraint.
NormalVector = tuple[int, ...]


class ParseError(ValueError):
    """Raised for malformed constraint text."""


def is_finite(b: Bound) -> bool:
    """True for a finite rational bound, False for +/-inf."""
    return not isinstance(b, float)


def format_bound(b: Bound) -> str:
    """Render a bound as reduced 'p/q', plain integer, 'inf' or '-inf'."""
    if isinstance(b, float):
        return "inf" if b > 0 else "-inf"
    return str(b)


def _literal(text: str, where: str) -> int | Fraction:
    """The value of a ``k`` or ``p/q`` literal: an int, or a Fraction
    when there is a denominator.  A zero q is a ParseError naming
    ``where``."""
    if "/" not in text:
        return int(text)
    p, q = text.split("/")
    if int(q) == 0:
        raise ParseError(f"zero denominator in {where!r}")
    return Fraction(int(p), int(q))


@dataclass(frozen=True)
class Constraint4:
    """One canonical constraint (xi - xj) - (xp - xq) <= m.

    All four slots are always present; unused positions hold variable 0.
    The relation is always <=.  Instances are immutable and hashable.
    """

    i: VarId
    j: VarId
    p: VarId
    q: VarId
    m: Bound

    def indices(self) -> tuple[VarId, VarId, VarId, VarId]:
        return (self.i, self.j, self.p, self.q)

    def __str__(self) -> str:
        return format_constraint(self)


def _canonical(occ: dict[VarId, int], m: Bound) -> Constraint4:
    """``sum(c * xv for v, c in occ.items()) <= m`` in canonical form:
    each side's occurrences ascending, padded with x0, positives in
    (i, q) and negatives in (j, p).  ValueError when a side keeps more
    than two occurrences."""
    pos: list[VarId] = []
    neg: list[VarId] = []
    for v, c in occ.items():
        if c > 0:
            pos += [v] * c
        elif c < 0:
            neg += [v] * -c
    for side in (pos, neg):
        side.sort()
        if len(side) > 2:
            raise ValueError(f"more than two variable occurrences: {side}")
    pos += (0, 0)
    neg += (0, 0)
    if type(m) is not Fraction and not isinstance(m, float):
        m = Fraction(m)
    return Constraint4(pos[0], neg[0], neg[1], pos[1], m)


def make_constraint(
    positives: Iterable[VarId], negatives: Iterable[VarId], m: Bound
) -> Constraint4:
    """Build the canonical constraint with the given signed occurrences.

    `positives` / `negatives` list variable indices with multiplicity
    (zeros allowed and ignored).  Occurrences of the same variable on
    both sides cancel first, so there is exactly one canonical quadruple
    per functional; slot order is deterministic so equal constraints
    compare equal.
    """
    occ: dict[VarId, int] = {}
    for v in positives:
        if v:
            occ[v] = occ.get(v, 0) + 1
    for v in negatives:
        if v:
            occ[v] = occ.get(v, 0) - 1
    return _canonical(occ, m)


def complement(c: Constraint4) -> Constraint4:
    """Swap the constraint's orientation: (i,j,p,q) -> (j,i,q,p).

    Only the index quadruple is permuted; the bound field is carried
    along unchanged (bounds of complements are looked up separately).
    """
    return Constraint4(c.j, c.i, c.q, c.p, c.m)


def normal_vector(c: Constraint4, n: int) -> NormalVector:
    """e_i - e_j - e_p + e_q as an integer vector over x0..xn."""
    v = [0] * (n + 1)
    v[c.i] += 1
    v[c.j] -= 1
    v[c.p] -= 1
    v[c.q] += 1
    return tuple(v)


def satisfies(c: Constraint4, valuation: Sequence[Fraction]) -> bool:
    """Exact substitution check of one constraint: (vi - vj) - (vp - vq)
    <= m for a valuation indexed x0..xn."""
    v = valuation
    return (v[c.i] - v[c.j]) - (v[c.p] - v[c.q]) <= c.m


# --- text format ----------------------------------------------------------
#
# line     := side rel side
# side     := ['+'|'-'] term (('+'|'-') term)*
# term     := 'x'K (K >= 1)  |  integer  |  integer '/' integer
# rel      := '<=' | '>='
#
# '#' starts a comment; blank lines are skipped.  At most two positive and
# two negative variable occurrences may remain after moving variables left
# and constants right.

_TOKEN = re.compile(r"\s*(<=|>=|x\d+|\d+/\d+|\d+|[+\-])")


def _tokenize(text: str) -> list[str]:
    tokens = []
    pos = 0
    while pos < len(text):
        m = _TOKEN.match(text, pos)
        if m is None:
            rest = text[pos:].strip()
            raise ParseError(f"syntax error at {rest!r} in {text.strip()!r}")
        tokens.append(m.group(1))
        pos = m.end()
    return tokens


def _parse_line(line: str, n: int | None) -> tuple[Constraint4, VarId]:
    """A stripped, comment-free, nonempty line -> (its constraint, the
    largest index written, 0 if none).  One token pass moves variables
    left into one occurrence map and constants right into one bound (an
    int unless a p/q term makes it a Fraction).  Cancelled variables
    still count as written, also for the range check (none if n is None).
    """
    tokens = _tokenize(line)
    if tokens.count("<=") + tokens.count(">=") != 1:
        raise ParseError(f"expected exactly one <= or >= in {line!r}")
    occ: dict[VarId, int] = {}
    bound: int | Fraction = 0
    side = -1 if ">=" in tokens else 1  # the left side's sign; flips at the relation
    sign = 0  # the pending sign of the next term, 0 when there is none
    seen_term = False  # on the current side
    for tok in tokens:
        if tok == "+" or tok == "-":
            if sign:
                raise ParseError(f"two consecutive signs in {line!r}")
            sign = -1 if tok == "-" else 1
        elif tok == "<=" or tok == ">=":
            if sign or not seen_term:
                raise ParseError(f"empty or incomplete side in {line!r}")
            side = -side
            seen_term = False
        else:
            if seen_term and not sign:
                raise ParseError(f"missing operator before {tok!r} in {line!r}")
            coeff = -side if sign < 0 else side
            if tok[0] == "x":
                k = int(tok[1:])
                if k == 0:
                    raise ParseError(f"x0 is reserved and cannot appear in {line!r}")
                occ[k] = occ.get(k, 0) + coeff
            else:
                bound -= coeff * _literal(tok, line)
            sign = 0
            seen_term = True
    if sign or not seen_term:
        raise ParseError(f"empty or incomplete side in {line!r}")
    if n is not None:
        for k in occ:
            if k > n:
                raise ParseError(f"variable x{k} out of range (n={n}) in {line!r}")
    try:
        c = _canonical(occ, bound)
    except ValueError:
        raise ParseError(
            f"more than two positive or two negative occurrences in {line!r}"
        ) from None
    return c, max(occ, default=0)


def parse_atomic(text: str, n: int) -> Constraint4:
    """Parse one constraint line into canonical form.

    A >= relation is rewritten by negating both sides.  Raises ParseError
    on syntax errors, indices above ``n``, non-rational bounds, or more
    than two positive / two negative occurrences after normalization.
    """
    line = text.split("#", 1)[0].strip()
    if not line:
        raise ParseError("empty constraint")
    return _parse_line(line, n)[0]


def parse_constraints(
    text: str, n: int | None = None
) -> tuple[list[Constraint4], int]:
    """Parse a constraint file body (one constraint per line, '#' comments).

    When ``n`` is None it is inferred as the largest variable index
    written (at least 1), also when that variable's occurrences cancel.
    Returns the constraint list and the n used.
    """
    constraints = []
    top = 1
    for raw in text.splitlines():
        line = raw.split("#", 1)[0].strip()
        if line:
            c, k = _parse_line(line, n)
            constraints.append(c)
            top = max(top, k)
    return constraints, top if n is None else n


def format_constraint(c: Constraint4) -> str:
    """Canonical text for a constraint; re-parsing it yields ``c`` back."""
    if not is_finite(c.m):
        raise ValueError("cannot format the absent-constraint sentinel (+inf)")
    pos = [v for v in (c.i, c.q) if v != 0]
    neg = [v for v in (c.j, c.p) if v != 0]
    if not pos and not neg:
        lhs = "0"
    else:
        parts = []
        for k, v in enumerate(pos):
            parts.append(f"x{v}" if k == 0 else f"+ x{v}")
        for v in neg:
            parts.append(f"- x{v}")
        lhs = " ".join(parts)
    return f"{lhs} <= {c.m}"

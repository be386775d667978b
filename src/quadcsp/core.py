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


def parse_rational(text: str) -> Fraction:
    """Parse an integer or p/q literal into an exact Fraction."""
    text = text.strip()
    if not re.fullmatch(r"-?\d+(/\d+)?", text):
        raise ParseError(
            f"not a rational literal: {text!r} (use integers or p/q)"
        )
    return Fraction(_literal(text, text))


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


def _canonical_pair(indices: Iterable[VarId]) -> tuple[VarId, VarId]:
    """Order a 2-slot index multiset: nonzero ascending, zeros last."""
    nonzero = sorted(v for v in indices if v != 0)
    if len(nonzero) > 2:
        raise ValueError(f"more than two variable occurrences: {nonzero}")
    nonzero += [0] * (2 - len(nonzero))
    return nonzero[0], nonzero[1]


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
    net: dict[int, int] = {}
    for v in positives:
        net[v] = net.get(v, 0) + 1
    for v in negatives:
        net[v] = net.get(v, 0) - 1
    pos = [v for v, c in net.items() for _ in range(c) if c > 0]
    neg = [v for v, c in net.items() for _ in range(-c) if c < 0]
    i, q = _canonical_pair(pos)
    j, p = _canonical_pair(neg)
    if type(m) is not Fraction and not isinstance(m, float):
        m = Fraction(m)
    return Constraint4(i, j, p, q, m)


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


def functional_value(c: Constraint4, valuation: Sequence[Fraction]) -> Fraction:
    """(vi - vj) - (vp - vq) for a valuation indexed x0..xn."""
    v = valuation
    return (v[c.i] - v[c.j]) - (v[c.p] - v[c.q])


def satisfies(c: Constraint4, valuation: Sequence[Fraction]) -> bool:
    """Exact substitution check of one constraint."""
    return functional_value(c, valuation) <= c.m


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


def _parse_side(tokens: list[str], line: str):
    """One inequality side -> (variable coefficient map, constant).  The
    constant stays an int unless a p/q term makes it a Fraction."""
    coeffs: dict[int, int] = {}
    const: int | Fraction = 0
    pending_sign: int | None = None
    seen_term = False
    for tok in tokens:
        if tok in ("+", "-"):
            if pending_sign is not None:
                raise ParseError(f"two consecutive signs in {line!r}")
            pending_sign = -1 if tok == "-" else 1
        else:
            if seen_term and pending_sign is None:
                raise ParseError(f"missing operator before {tok!r} in {line!r}")
            sign = 1 if pending_sign is None else pending_sign
            if tok.startswith("x"):
                k = int(tok[1:])
                if k == 0:
                    raise ParseError(
                        f"x0 is reserved and cannot appear in {line!r}"
                    )
                coeffs[k] = coeffs.get(k, 0) + sign
            else:
                const += sign * _literal(tok, line)
            pending_sign = None
            seen_term = True
    if pending_sign is not None or not seen_term:
        raise ParseError(f"empty or incomplete side in {line!r}")
    return coeffs, const


def parse_atomic(text: str, n: int) -> Constraint4:
    """Parse one constraint line into canonical form.

    A >= relation is rewritten by negating both sides.  Raises ParseError
    on syntax errors, indices above ``n``, non-rational bounds, or more
    than two positive / two negative occurrences after normalization.
    """
    line = text.split("#", 1)[0].strip()
    if not line:
        raise ParseError("empty constraint")
    tokens = _tokenize(line)
    rel_positions = [k for k, t in enumerate(tokens) if t in ("<=", ">=")]
    if len(rel_positions) != 1:
        raise ParseError(f"expected exactly one <= or >= in {line!r}")
    split = rel_positions[0]
    lhs, rel, rhs = tokens[:split], tokens[split], tokens[split + 1 :]
    lcoef, lconst = _parse_side(lhs, line)
    rcoef, rconst = _parse_side(rhs, line)

    # move variables left, constants right; flip >= into <=
    net: dict[int, int] = {}
    for k, v in lcoef.items():
        net[k] = net.get(k, 0) + v
    for k, v in rcoef.items():
        net[k] = net.get(k, 0) - v
    bound = rconst - lconst
    if rel == ">=":
        net = {k: -v for k, v in net.items()}
        bound = -bound

    positives: list[int] = []
    negatives: list[int] = []
    for k, v in net.items():
        if k > n:
            raise ParseError(f"variable x{k} out of range (n={n}) in {line!r}")
        if v > 0:
            positives += [k] * v
        elif v < 0:
            negatives += [k] * (-v)
    if len(positives) > 2 or len(negatives) > 2:
        raise ParseError(
            f"more than two positive or two negative occurrences in {line!r}"
        )
    return make_constraint(positives, negatives, bound)


def parse_constraints(
    text: str, n: int | None = None
) -> tuple[list[Constraint4], int]:
    """Parse a constraint file body (one constraint per line, '#' comments).

    When ``n`` is None it is inferred as the largest variable index seen
    (at least 1).  Returns the constraint list and the n used.
    """
    lines = []
    for raw in text.splitlines():
        stripped = raw.split("#", 1)[0].strip()
        if stripped:
            lines.append(stripped)
    if n is None:
        seen = [int(m) for line in lines for m in re.findall(r"x(\d+)", line)]
        n = max(seen, default=1)
        n = max(n, 1)
    return [parse_atomic(line, n) for line in lines], n


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

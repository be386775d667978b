"""Output checker, run outside the timed region.

Every verdict is compared with the Fourier-Motzkin oracle on the
generator's own rows, every witness is substituted exactly into those
rows, every finite variable bound is compared with the oracle's
supremum, and every ``explain`` certificate is re-added from its printed
constraints.  A failed check is counted, never dropped.
"""

from __future__ import annotations

import json
import re
from collections import Counter
from dataclasses import dataclass, field
from fractions import Fraction

from quadcsp.core import INF
from quadcsp.fmoracle import LinearSystem, fm_feasible, fm_tight_bound

from workloads import Instance


class Reference:
    """Oracle facts about one instance: the verdict, and suprema computed
    on first use."""

    def __init__(self, inst: Instance):
        self._n = inst.n
        self._system = LinearSystem.from_rows(inst.n, inst.rows)
        self._sups: dict[tuple[int, int], Fraction | float] = {}
        self.feasible = fm_feasible(self._system)

    def sup(self, v: int, sign: int) -> Fraction | float:
        """Supremum of sign * xv over a feasible system."""
        if (v, sign) not in self._sups:
            objective = [0] * (self._n + 1)
            objective[v] = sign
            self._sups[v, sign] = fm_tight_bound(self._system, objective)
        return self._sups[v, sign]


@dataclass
class Tally:
    """Counts behind the correctness and quality metrics of one run."""

    attempted: int = 0
    failed: int = 0
    reasons: Counter = field(default_factory=Counter)
    oracle_infeasible: int = 0
    incomplete_verdicts: int = 0
    finite_bounds: int = 0
    gap_bounds: int = 0
    explain_runs: int = 0
    certificates: int = 0

    def fail(self, reason: str) -> None:
        self.failed += 1
        self.reasons[reason] += 1


class CheckError(Exception):
    """An output that contradicts the oracle or the input."""


class Refused(Exception):
    """The CLI declined the input with its error exit code."""


def _parse_bound(text: str) -> Fraction | float:
    if text == "inf":
        return INF
    if text == "-inf":
        return -INF
    return Fraction(text)


def _check_witness(inst: Instance, witness) -> None:
    if witness is None or len(witness) != inst.n + 1 or witness[0] != 0:
        raise CheckError("witness missing or malformed")
    for vec, bound in inst.rows:
        if sum(a * Fraction(w) for a, w in zip(vec, witness)) > bound:
            raise CheckError("witness violates an input constraint")


def _check_domains(inst, ref: Reference, domains, exact: bool, tally) -> None:
    if len(domains) != inst.n:
        raise CheckError("wrong number of domains")
    for v, (lo, hi) in enumerate(domains, start=1):
        for got, sign in ((hi, 1), (-lo, -1)):
            if got == INF:
                if exact and ref.sup(v, sign) != INF:
                    raise CheckError("infinite bound where the oracle is finite")
                continue
            tally.finite_bounds += 1
            sup = ref.sup(v, sign)
            if got < sup:
                raise CheckError("bound below the oracle's supremum")
            if got > sup:
                if exact:
                    raise CheckError("octagon bound above the oracle's supremum")
                tally.gap_bounds += 1


def _check_verdict(feasible: bool, ref: Reference, tally: Tally) -> None:
    if not ref.feasible:
        tally.oracle_infeasible += 1
        if feasible:
            tally.incomplete_verdicts += 1
    elif not feasible:
        raise CheckError("infeasible verdict on a feasible system")


def check_solve(inst, ref: Reference, report, exact: bool, tally: Tally) -> None:
    """One ``solve`` report: verdict, domains and witness."""
    _check_verdict(report.feasible, ref, tally)
    if report.feasible and ref.feasible:
        _check_domains(inst, ref, report.domains, exact, tally)
        _check_witness(inst, report.witness)


_TERM = re.compile(r"([+-]?)\s*x(\d+)")


def _certificate_row(text: str, n: int) -> tuple[tuple[int, ...], Fraction]:
    lhs, rhs = text.split("<=")
    vec = [0] * (n + 1)
    for sign, v in _TERM.findall(lhs):
        vec[int(v)] += -1 if sign == "-" else 1
    return tuple(vec), Fraction(rhs.strip())


def _check_certificate(inst: Instance, cycle: dict) -> None:
    rows = set(inst.rows)
    total_vec = [Fraction(0)] * (inst.n + 1)
    weight = Fraction(0)
    for text, coeff in zip(cycle["constraints"], cycle["coeffs"], strict=True):
        vec, bound = _certificate_row(text, inst.n)
        lam = Fraction(coeff)
        if lam <= 0:
            raise CheckError("certificate coefficient not positive")
        if (vec, bound) not in rows:
            raise CheckError("certificate member is not an input constraint")
        for v, a in enumerate(vec):
            total_vec[v] += lam * a
        weight += lam * bound
    if any(total_vec):
        raise CheckError("certificate vectors do not cancel")
    if weight >= 0 or weight != Fraction(cycle["weight"]):
        raise CheckError("certificate weight not negative or misreported")


def check_cli(inst: Instance, ref: Reference, out, tally: Tally) -> None:
    """``bounds --format json`` and, when infeasible, ``explain``."""
    rc, text, explain = out
    if rc not in (0, 1):
        raise Refused(f"bounds exit {rc}")
    doc = json.loads(text)
    if rc != (0 if doc["feasible"] else 1):
        raise CheckError(f"bounds exit code {rc}")
    _check_verdict(doc["feasible"], ref, tally)
    if doc["feasible"]:
        if ref.feasible:
            domains = [tuple(map(_parse_bound, d)) for d in doc["domains"]]
            _check_domains(inst, ref, domains, False, tally)
        return
    rc, text = explain
    if rc not in (0, 1):
        raise Refused(f"explain exit {rc}")
    doc = json.loads(text)
    if rc != 1 or doc["feasible"]:
        raise CheckError(f"explain disagrees with bounds (exit {rc})")
    tally.explain_runs += 1
    if doc["cycle"] is not None:
        _check_certificate(inst, doc["cycle"])
        tally.certificates += 1

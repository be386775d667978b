"""Pipeline: domains, boundedness, witness extraction, full solve."""

import dataclasses
import random
from fractions import Fraction

import pytest

import quadcsp.closure as closure_module
import quadcsp.solver as solver_module
from quadcsp.closure import Exactness, close
from quadcsp.core import (
    INF,
    Constraint4,
    make_constraint,
    parse_constraints,
    satisfies,
)
from quadcsp.fmoracle import LinearSystem, fm_feasible, fm_tight_bound
from quadcsp.matrix2d import load, new_matrix
from quadcsp.solver import extract_witness, is_bounded, reduce_domains, solve
from gen import (
    box_constraints,
    random_bound,
    random_general_constraint,
    random_lower_bound_constraint,
    random_octagon_constraint,
    random_upper_bound_constraint,
)
from reference import (
    reference_extract_witness,
    reference_fm_feasible,
    reference_fm_tight_bound,
    reference_rows_solution,
)

SEVEN = """
x1 - x2 - x3 <= 3
x2 - x1 - x4 <= -4
x4 + x3 <= 5
x2 <= 3
x3 <= 1
x4 <= 5
x1 <= 6
"""


def closed_matrix(text, n=None, extra=()):
    cs, n = parse_constraints(text, n)
    cs = list(cs) + list(extra)
    result = close(load(cs, n))
    return result, cs, n


def count_closes(monkeypatch):
    """The ``lowered`` argument of each ``solver.close`` call, from now on."""
    original = solver_module.close
    calls = []

    def counting(*args, **kwargs):
        calls.append(kwargs.get("lowered"))
        return original(*args, **kwargs)

    monkeypatch.setattr(solver_module, "close", counting)
    return calls


class TestReduceDomains:
    def test_seven_system_x3_upper_end(self):
        result, _, _ = closed_matrix(SEVEN)
        domains = reduce_domains(result.matrix)
        assert domains[2][1] <= 1

    def test_empty_matrix_all_infinite(self):
        assert reduce_domains(new_matrix(3)) == ((-INF, INF),) * 3

    def test_pinned_variable(self):
        result, _, _ = closed_matrix("x1 <= 4\nx1 >= 4")
        assert reduce_domains(result.matrix) == ((Fraction(4), Fraction(4)),)


class TestIsBounded:
    def test_boxed_system_is_bounded(self):
        result, _, _ = closed_matrix(
            SEVEN, extra=box_constraints(4, 10)[1::2]
        )
        assert is_bounded(result.matrix)

    def test_upper_bound_alone_is_not(self):
        result, _, _ = closed_matrix("x1 <= 4")
        assert not is_bounded(result.matrix)

    def test_empty_matrix_is_not(self):
        assert not is_bounded(new_matrix(2))


class TestExtractWitness:
    def test_seven_system_with_floor(self):
        floors = [make_constraint([], [i], Fraction(100)) for i in range(1, 5)]
        result, cs, n = closed_matrix(SEVEN, extra=floors)
        nu = extract_witness(result, cs)
        assert nu[0] == 0
        assert all(satisfies(c, nu) for c in cs)

    def test_pinned_variable_witness(self):
        result, cs, _ = closed_matrix("x1 <= 4\nx1 >= 4")
        assert extract_witness(result, cs) == (Fraction(0), Fraction(4))

    def test_first_pin_hits_closed_upper_bound(self):
        rng = random.Random(71)
        done = 0
        while done < 6:
            n = rng.randint(1, 3)
            cs = [
                random_octagon_constraint(rng, n) for _ in range(rng.randint(1, 5))
            ] + box_constraints(n, 20)
            sys = LinearSystem.from_constraints(cs, n)
            if not fm_feasible(sys):
                continue
            result = close(load(cs, n))
            nu = extract_witness(result, cs)
            assert all(satisfies(c, nu) for c in cs)
            objective = [0] * (n + 1)
            objective[1] = 1
            assert nu[1] == result.matrix.get(1, 0, 0, 0)
            assert nu[1] == fm_tight_bound(sys, objective)
            done += 1

    def test_rejects_infeasible(self):
        cs, n = parse_constraints("x1 - x2 <= 1\nx2 - x1 <= -2")
        result = close(load(cs, n))
        with pytest.raises(ValueError):
            extract_witness(result, cs)

    def test_rejects_unbounded_by_default(self):
        result, cs, _ = closed_matrix("x1 <= 4")
        with pytest.raises(ValueError):
            extract_witness(result, cs)

    def test_pin_unbounded_to_zero(self):
        result, cs, n = closed_matrix("x1 - x2 <= 3\nx1 >= 5", n=2)
        nu = extract_witness(result, cs, pin_unbounded_to_zero=True)
        assert all(satisfies(c, nu) for c in cs)

    def test_seeded_pins_match_full_pins(self):
        # A stationary base lets each pin re-close from its pinned
        # cells only; the witness is the one full re-closes give.
        rng = random.Random(89)
        done = 0
        while done < 6:
            n = rng.randint(2, 4)
            cs = [
                random_octagon_constraint(rng, n) for _ in range(rng.randint(1, 6))
            ] + box_constraints(n, 12)
            result = close(load(cs, n))
            if not result.feasible:
                continue
            assert result.stationary
            # re-tagged, so that both witnesses come from pin chains
            seeded = dataclasses.replace(result, exactness=Exactness.UPPER_APPROX)
            full = dataclasses.replace(seeded, stationary=False)
            assert extract_witness(seeded, cs) == extract_witness(full, cs)
            done += 1

    def test_exact_read_off_matches_pin_chains(self):
        # An Exact closure's witness is read off its matrix; re-tagged
        # UpperApprox, the same closure goes through the seeded pin
        # chain, and also through full re-closes when not stationary.
        rng = random.Random(97)
        done = sparse = 0
        while done < 240:
            n = rng.randint(1, 5)
            cs = [
                random_octagon_constraint(rng, n, -6, 10)
                for _ in range(rng.randint(1, 2 * n + 1))
            ]
            if done % 2:
                cs += box_constraints(n, rng.randint(3, 12))
            if done % 3 == 2:
                # rows over a random subset of the variables: the others
                # occur in no row and take 0 with no close
                keep = {0, *rng.sample(range(1, n + 1), rng.randint(1, n))}
                cs = [c for c in cs if {c.i, c.j, c.p, c.q} <= keep]
            result = close(load(cs, n))
            if not result.feasible:
                continue
            occurring = {v for c in cs for v in (c.i, c.j, c.p, c.q)}
            sparse += len(occurring - {0}) < n
            assert result.exactness is Exactness.EXACT
            seeded = dataclasses.replace(result, exactness=Exactness.UPPER_APPROX)
            full = dataclasses.replace(seeded, stationary=False)
            for anyway in (False, True):
                witnesses = []
                for r in (result, seeded, full):
                    try:
                        witnesses.append(extract_witness(r, cs, anyway))
                    except ValueError as exc:
                        witnesses.append(str(exc))
                assert witnesses[0] == witnesses[1] == witnesses[2]
                if not isinstance(witnesses[0], str):
                    assert all(satisfies(c, witnesses[0]) for c in cs)
            done += 1
        # 79 of the 240 draws leave a variable out of every row
        assert sparse >= 60

    def test_exact_witness_runs_no_closure(self, monkeypatch):
        # x1's pin on the UpperApprox closure of five variables leaves
        # four free, so it re-closes
        exact, octagon_cs, _ = closed_matrix(OCTAGON_PINS)
        general, general_cs, _ = closed_matrix(
            BOXED_FIVE, extra=box_constraints(5, 10)
        )
        assert exact.exactness is Exactness.EXACT
        assert general.exactness is Exactness.UPPER_APPROX

        def no_close(*args, **kwargs):
            raise LookupError("close called")

        monkeypatch.setattr(solver_module, "close", no_close)
        assert extract_witness(exact, octagon_cs) == (
            Fraction(0), Fraction(4), Fraction(1), Fraction(9, 2)
        )
        with pytest.raises(LookupError, match="close called"):
            extract_witness(general, general_cs)

    def test_doubled_difference_runs_no_pin_close(self, monkeypatch):
        """A doubled difference 2x1 - 2x2 <= 4 loads as the octagon of
        x1 - x2 <= 2, so solve reads the witness off its one close."""
        calls = count_closes(monkeypatch)
        cs, n = parse_constraints(
            "x1 <= 3\n-x2 <= 1\nx2 <= 5\n-x1 <= 7\nx1 + x1 - x2 - x2 <= 4"
        )
        report = solve(cs, n)
        assert report.closed.exactness is Exactness.EXACT
        assert calls == [None]
        assert report.witness == (Fraction(0), Fraction(3), Fraction(5))

    def test_unbounded_pin_is_not_pinned_again(self, monkeypatch):
        """x1 is unbounded below, so pass 1 pins it to 0 with one
        re-close; pass 2 then pins x2 and x3 only, each leaving at most
        two variables free, so on the input rows with no close: two
        closes in all."""
        calls = count_closes(monkeypatch)
        cs, n = parse_constraints(
            "x1 - x2 - x3 <= 3\nx2 <= 1\nx3 >= 0\nx3 <= 2"
        )
        report = solve(cs, n, witness_anyway=True)
        assert report.closed.exactness is Exactness.UPPER_APPROX
        assert len(calls) == 2
        assert report.witness == (0, 0, 1, 2)

    def test_variable_in_no_constraint_runs_no_pin_close(self, monkeypatch):
        """x3..x7 occur in no row (fixtures/sparse_general.txt): their
        zero pins run no close, and x1, x2 and x8 one re-close each."""
        calls = count_closes(monkeypatch)
        cs, n = parse_constraints("x1 + x8 - x2 <= 3\nx2 <= 2\n-x1 <= 4")
        report = solve(cs, n, witness_anyway=True)
        assert report.closed.exactness is Exactness.UPPER_APPROX
        assert len(calls) == 4
        assert report.witness == (0,) * 9

    def test_octagon_solve_builds_no_class_sum_table(self, monkeypatch):
        def no_table(n):
            raise LookupError("class-sum table built")

        monkeypatch.setattr(closure_module, "_sum_table", no_table)
        cs, n = parse_constraints(OCTAGON_PINS)
        report = solve(cs, n)
        assert report.closed.exactness is Exactness.EXACT
        assert report.witness == (
            Fraction(0), Fraction(4), Fraction(1), Fraction(9, 2)
        )
        general, gn = parse_constraints(OVERSHOOT)
        with pytest.raises(LookupError, match="class-sum table built"):
            solve(general, gn)


# Pinning x1 to its closed upper bound 4 cuts x2 below its closed upper
# bound 13/4, and x2 = 1 cuts x3 (fixtures/octagon_pins.txt).
OCTAGON_PINS = """
x1 <= 4
x1 >= -3
x2 <= 4
x2 >= -3
x1 + x2 <= 5
x2 - x3 <= 1
x3 <= 6
x3 >= 0
x1 - x3 >= -1/2
"""

# x1's closed upper bound 9/4 overshoots the true supremum 1/3; with
# three variables x1 takes its top from the input rows instead.
OVERSHOOT = (
    "x2 <= 2\nx2 - x1 <= 3\nx1 + x2 <= -4\nx1 + x1 - x2 <= 5\n"
    "x1 >= -20\nx2 >= -20"
)

# Pinning x1 to 0 in witness_anyway mode overshoots; the oracle's point
# is used instead.
UNBOUNDED_OVERSHOOT = "x1 - x2 - x2 <= 6\nx1 + x2 <= -1\nx1 - x2 - x2 <= -4"

# A general-form system whose oracle fallback, run on every finite class
# of the closed matrix (about 130 rows), exceeded the elimination row
# budget; the 13 input rows plus the pins eliminate easily.
ROW_BUDGET_CASE = """
x1 <= 8
x1 >= -7
x2 <= 5
x2 >= -1
x3 <= 8
x3 >= -5
x4 <= 5
x4 >= -2
x4 + x1 - x3 - x2 <= 3/2
x2 + x1 - x4 <= 0
x3 - x1 - x2 <= -3/2
x1 + x3 - x2 <= 3
x4 + x2 - x3 - x1 <= 9
"""


# x1's closed upper bound 2 overshoots the true supremum 4/3, and with
# four variables x1 takes that closed bound as its top, so the pin of x1
# falls back to the oracle (general-solve seed 6, instance 124).
X1_OVERSHOOT = """
x1 <= 2
x1 >= -5
x2 <= 2
x2 >= -5
x3 <= 8
x3 >= -1
x4 <= 6
x4 >= -7
x4 + x3 - x2 <= 11/2
x3 + x2 - x4 <= 7
x1 + x3 - x4 - x2 <= 12
x1 + x4 - x3 <= -5
x3 + x1 - x4 - x2 <= 7
"""

# Eight random_general_constraint(rng, 5, -6, 10) rows of
# random.Random(29102), boxed by box_constraints(5, 10): pinning x1 to 10
# re-closes (four variables left free), and x2's re-closed interval
# [7, 17/2] overshoots its supremum 25/3, so the supremum's oracle runs
# after an earlier pin.
BOXED_FIVE = """
x3 - x1 - x4 <= 9/2
x2 + x2 - x3 - x5 <= 1/2
x2 + x5 - x3 - x3 <= 5
x2 + x3 - x5 <= 5
x1 + x1 - x2 - x5 <= 3
x5 - x4 <= 0
x3 + x4 - x1 <= 10
x1 + x3 - x5 - x5 <= 0
"""

# Pinning x1 to the top of its interval, x2's closed interval is
# [-6, 35/4], whose top overshoots; the input rows give x2 its exact top
# once x1 is pinned.
PINNED_OVERSHOOT = [
    "x1 <= 7",
    "x1 >= -6",
    "x2 <= 10",
    "x2 >= -9",
    "x3 <= 1",
    "x3 >= -5",
    "x4 <= 10",
    "x4 >= -5",
    "x3 + x2 - x1 - x4 <= 0",
    "x4 - x3 - x1 <= 11",
    "x4 - x3 - x2 <= 0",
    "x4 + x2 - x1 <= 0",
    "x2 - x3 - x1 <= 2",
]


def record_oracle(monkeypatch):
    """The (system, objective) of each ``solver.fm_tight_bound`` call,
    from now on."""
    original = solver_module.fm_tight_bound
    calls = []

    def recording(system, objective):
        calls.append((system, objective))
        return original(system, objective)

    monkeypatch.setattr(solver_module, "fm_tight_bound", recording)
    return calls


class TestOracleFallback:
    def test_fallback_runs_on_input_rows_and_pins(self, monkeypatch):
        calls = record_oracle(monkeypatch)
        # x1's closed top overshoots, but at n = 3 the rows give its top
        cs, n = parse_constraints(OVERSHOOT)
        report = solve(cs, n)
        assert report.witness == (Fraction(0), Fraction(1, 3), Fraction(-13, 3))
        assert calls == []
        cs, n = parse_constraints(X1_OVERSHOOT)
        report = solve(cs, n)
        assert report.domains[0] == (-5, 2)
        assert report.witness == (
            0, Fraction(4, 3), Fraction(2, 3), Fraction(25, 4), Fraction(-1, 12)
        )
        [(system, objective)] = calls
        assert objective == [0, 1, 0, 0, 0]
        # the input rows plus the two that fix x0 = 0; no pin precedes x1
        assert len(system.rows) == len(cs) + 2

    def test_fallback_after_a_pin_holds_the_pin(self, monkeypatch):
        calls = record_oracle(monkeypatch)
        # x2's closed top overshoots, but x1's pin leaves three free
        cs, n = parse_constraints("\n".join(PINNED_OVERSHOOT))
        report = solve(cs, n)
        assert report.domains[1] == (-6, Fraction(35, 4))
        assert report.witness == (
            0,
            7,
            Fraction(23, 3),
            Fraction(-4, 3),
            Fraction(-2, 3),
        )
        assert calls == []
        cs, n = parse_constraints(BOXED_FIVE)
        cs += box_constraints(n, 10)
        report = solve(cs, n)
        assert report.witness == (
            0, 10, Fraction(25, 3), Fraction(20, 3), 10, 10
        )
        [(system, objective)] = calls
        assert objective == [0, 0, 1, 0, 0, 0]
        # the two rows that fix x0 = 0, the 18 input rows and the pin
        # x1 = 10, as x1 - x0 <= 10 and x0 - x1 <= -10
        assert len(system.rows) == 22
        assert system.rows[-2:] == (
            ((-1, 1, 0, 0, 0, 0), 10),
            ((1, -1, 0, 0, 0, 0), -10),
        )

    def test_row_budget_case_solves(self):
        cs, n = parse_constraints(ROW_BUDGET_CASE)
        report = solve(cs, n)
        assert report.feasible
        assert report.witness is not None
        assert all(satisfies(c, report.witness) for c in cs)

    @pytest.mark.parametrize("answer", [None, INF, Fraction(2)])
    def test_failed_supremum_is_internal_error(self, monkeypatch, answer):
        # None and +inf are no supremum; 2 is the overshooting closed
        # bound itself, so the re-pin stays infeasible.
        monkeypatch.setattr(
            solver_module, "fm_tight_bound", lambda system, objective: answer
        )
        cs, n = parse_constraints(X1_OVERSHOOT)
        with pytest.raises(RuntimeError, match="internal error"):
            solve(cs, n)

    def test_failed_point_is_internal_error(self, monkeypatch):
        monkeypatch.setattr(solver_module, "fm_solution", lambda system: None)
        cs, n = parse_constraints(UNBOUNDED_OVERSHOOT)
        with pytest.raises(RuntimeError, match="internal error"):
            solve(cs, n, witness_anyway=True)

    def test_unbounded_fallback_witness(self):
        cs, n = parse_constraints(UNBOUNDED_OVERSHOOT)
        report = solve(cs, n, witness_anyway=True)
        assert all(satisfies(c, report.witness) for c in cs)


def distinct_variable_constraint(rng, n, lo=-10, hi=10):
    """xa + xb - xc - xd, xa - xb - xc, xa + xb - xc or xa + xb - 2 xc
    over distinct variables (n >= 3), the rows on which closed bounds
    overshoot most often."""
    v = rng.sample(range(1, n + 1), rng.choice((3, 4)) if n > 3 else 3)
    pos, neg = rng.choice(
        [(v[:2], v[2:])]
        if len(v) == 4
        else [(v[:1], v[1:]), (v[:2], v[2:]), (v[1:], v[:1] * 2)]
    )
    return make_constraint(pos, neg, random_bound(rng, lo, hi))


SHAPES = (
    random_general_constraint,
    random_upper_bound_constraint,
    random_lower_bound_constraint,
    random_octagon_constraint,
    distinct_variable_constraint,
)


def _outcome(extract, result, cs, anyway):
    """The witness, or the type and message of what ``extract`` raised."""
    try:
        return extract(result, cs, anyway)
    except (ValueError, RuntimeError) as exc:
        return type(exc), str(exc)


def _tail_draws():
    """Seeded mixes of the five row shapes at n = 3-6, boxed every other
    draw; every third draw keeps only the rows over 2-4 of the
    variables.  Then a boxed three-variable system of 200 rows, which
    x = 0 satisfies, where many rows share a direction once x1 is
    pinned.  Last, boxed mixes at n = 4-6 with at least n rows, where a
    re-closed top more often overshoots."""
    rng = random.Random(2800)
    for draw in range(300):
        n = rng.randint(3, 6)
        cs = [
            rng.choice(SHAPES)(rng, n, -6, 10)
            for _ in range(rng.randint(2, 2 * n + 2))
        ]
        keep = set(range(n + 1))
        if draw % 3 == 2:
            keep = {0, *rng.sample(range(1, n + 1), rng.randint(2, min(4, n)))}
            cs = [c for c in cs if set(c.indices()) <= keep]
        if draw % 2:
            box = box_constraints(n, rng.randint(3, 12))
            cs += [c for c in box if set(c.indices()) <= keep]
        yield n, cs
    cs = [random_general_constraint(rng, 3, 0, 20) for _ in range(200)]
    yield 3, cs + box_constraints(3, 12)
    for _ in range(160):
        n = rng.randint(4, 6)
        cs = [
            rng.choice(SHAPES)(rng, n, -6, 10)
            for _ in range(rng.randint(n, 2 * n + 2))
        ]
        yield n, cs + box_constraints(n, rng.randint(3, 12))


class TestExactTail:
    """Top pins that leave at most three variables of the input rows free
    read exact intervals off those rows instead of re-closing."""

    def test_free_top_by_hand(self):
        # x1 + x2 <= 3, x1 - x2 <= 1, -x1 <= 0 over denominator 2
        rows, d = solver_module._int_rows(
            parse_constraints("x1 + x2 <= 3/2\nx1 - x2 <= 1/2\n-x1 <= 0")[0]
        )
        assert d == 2
        free_top = solver_module._free_top
        # eliminating x2 leaves 2 x1 <= 2
        assert free_top(rows, d, {}, [1, 2]) == 1
        # x1 = 1/2 leaves x2 in [0, 1]; x1 = 1 leaves [1/2, 1/2]
        assert free_top(rows, d, {1: Fraction(1, 2)}, [2]) == 1
        assert free_top(rows, d, {1: Fraction(1)}, [2]) == Fraction(1, 2)
        # x1 = 3/2 leaves x2 <= 0 and x2 >= 1: infeasible
        assert free_top(rows, d, {1: Fraction(3, 2)}, [2]) is None
        # nothing free: a check of the pins
        pins = {1: Fraction(1), 2: Fraction(1, 2)}
        assert free_top(rows, d, pins, []) == INF
        assert free_top(rows, d, {**pins, 2: Fraction(1)}, []) is None
        # x1 >= 0 tops x2 at 3/2; alone, it leaves x1 unbounded above
        assert free_top(rows, d, {}, [2, 1]) == Fraction(3, 2)
        assert free_top(rows[2:], d, {}, [1]) == INF
        # three free: x3 goes first, then x2
        rows, d = solver_module._int_rows(
            parse_constraints(
                "x1 + x2 - x3 <= 2\nx3 - x2 <= 1/2\nx3 <= 4\n-x2 <= 0"
            )[0]
        )
        # eliminating x3 leaves x1 <= 5/2 and x1 + x2 <= 6, then x2 >= 0
        # turns the second into x1 <= 6
        assert free_top(rows, d, {}, [1, 2, 3]) == Fraction(5, 2)
        # x1 = 5/2 forces x3 = x2 + 1/2, and x3 <= 4 tops x2 at 7/2
        assert free_top(rows, d, {1: Fraction(5, 2)}, [2, 3]) == Fraction(7, 2)
        # x1 = 3 asks x3 - x2 >= 1 and x3 - x2 <= 1/2: infeasible
        assert free_top(rows, d, {1: Fraction(3)}, [2, 3]) is None
        # nothing bounds x2 above
        assert free_top(rows, d, {}, [2, 1, 3]) == INF

    def test_free_top_three_free_matches_oracle(self):
        # x4 pinned at the oracle's point (or at 0, maybe infeasibly),
        # x1..x3 free: the top is the oracle's supremum of x1, None
        # exactly when the oracle finds the pinned system empty
        rng = random.Random(2901)
        tops = empties = 0
        for draw in range(150):
            n = rng.randint(3, 4)
            cs = [
                rng.choice(SHAPES)(rng, n, -6, 10)
                for _ in range(rng.randint(n, 3 * n))
            ] + box_constraints(n, rng.randint(3, 12))[: 2 * n - draw % 2]
            unpinned = LinearSystem.from_constraints(cs, n)
            point = reference_rows_solution(
                unpinned.rows, n + 1, unpinned.elimination_order()
            )
            pins = {
                k: Fraction(0) if point is None or draw % 3 == 0 else point[k]
                for k in range(4, n + 1)
            }
            pinned = [*cs]
            for k, v in pins.items():
                pinned += solver_module._pin_constraints(k, v)
            system = LinearSystem.from_constraints(pinned, n)
            got = solver_module._free_top(
                *solver_module._int_rows(cs), pins, [1, 2, 3]
            )
            if not reference_fm_feasible(system):
                assert got is None
                empties += 1
            else:
                objective = [0, 1] + [0] * (n - 1)
                assert got == reference_fm_tight_bound(system, objective)
                tops += got != INF
        assert tops >= 40 and empties >= 20

    def test_boxed_three_variables_run_one_close(self, monkeypatch):
        calls = count_closes(monkeypatch)
        cs, n = parse_constraints("x1 + x2 - x3 <= 2")
        report = solve(cs + box_constraints(n, 5), n)
        assert report.closed.exactness is Exactness.UPPER_APPROX
        assert report.witness is not None
        assert calls == [None]

    def test_boxed_four_variables_run_one_close(self, monkeypatch):
        # x1's pin leaves three variables free: no close
        calls = count_closes(monkeypatch)
        cs, n = parse_constraints("\n".join(PINNED_OVERSHOOT))
        report = solve(cs, n)
        assert report.closed.exactness is Exactness.UPPER_APPROX
        assert report.witness == (
            0, 7, Fraction(23, 3), Fraction(-4, 3), Fraction(-2, 3)
        )
        assert calls == [None]

    def test_boxed_five_variables_run_two_closes(self, monkeypatch):
        # x1's pin leaves four free and re-closes from its two cells;
        # x2's overshoots, and its oracle fallback, x3, x4 and x5 run
        # no close
        calls = count_closes(monkeypatch)
        cs, n = parse_constraints(BOXED_FIVE)
        report = solve(cs + box_constraints(n, 10), n)
        assert report.closed.exactness is Exactness.UPPER_APPROX
        assert report.witness == (
            0, 10, Fraction(25, 3), Fraction(20, 3), 10, 10
        )
        assert calls == [None, [(0, 6), (0, 1)]]

    def test_matches_reclosing_chain(self, monkeypatch):
        infeasible = []
        free_top = solver_module._free_top

        def recording(*args):
            top = free_top(*args)
            infeasible.append(top is None)
            return top

        monkeypatch.setattr(solver_module, "_free_top", recording)
        witnesses = raised = 0
        for n, cs in _tail_draws():
            result = close(load(cs, n))
            if not (result.feasible and result.stationary):
                continue
            for anyway in (False, True):
                got = _outcome(extract_witness, result, cs, anyway)
                assert got == _outcome(
                    reference_extract_witness, result, cs, anyway
                )
                if isinstance(got[0], type):
                    raised += 1
                else:
                    assert all(satisfies(c, got) for c in cs)
                    witnesses += 1
        # 544 witnesses, and 154 ValueErrors of unbounded draws without
        # witness_anyway; the input rows find 3 of 1,621 tail pins and
        # first tops infeasible, and those fall back to the oracle
        assert witnesses >= 300 and raised >= 100
        assert sum(infeasible) >= 3


class TestViolated:
    """``solve``'s substitution check, on ints over the witness's common
    denominator."""

    def test_mixed_denominators(self):
        witness = (Fraction(0), Fraction(1, 2), Fraction(1, 3), Fraction(3, 4))
        cs, _ = parse_constraints(
            "x1 + x2 <= 5/6\nx1 - x2 <= 1/6\nx3 - x1 - x2 <= -1/12\n"
            "x1 + x3 - x2 - x2 <= 7/12"
        )
        # each row holds with equality
        assert solver_module._violated(cs, witness) is None
        assert all(satisfies(c, witness) for c in cs)

    def test_violation_by_a_sixth(self):
        witness = (Fraction(0), Fraction(1, 2), Fraction(1, 3))
        cs, _ = parse_constraints("x1 + x2 <= 1\nx1 - x2 <= 0\nx2 <= 0")
        # x1 - x2 = 1/6 > 0 is the first violated row; x2 <= 0 is the next
        assert solver_module._violated(cs, witness) == cs[1]
        assert solver_module._violated(cs[2:], witness) == cs[2]
        assert solver_module._violated(cs[:1], witness) is None

    def test_infinite_bound_holds(self):
        witness = (Fraction(0), Fraction(10**9), Fraction(-7, 3))
        rows = [
            Constraint4(1, 0, 0, 0, INF),
            Constraint4(1, 2, 0, 0, INF),
            make_constraint([2], [], Fraction(-7, 3)),
        ]
        assert solver_module._violated(rows, witness) is None
        rows.append(make_constraint([1], [2], Fraction(10**9)))
        assert solver_module._violated(rows, witness) == rows[-1]


class TestSolve:
    def test_seven_system_report(self):
        cs, n = parse_constraints(SEVEN)
        report = solve(cs, n)
        assert report.feasible
        assert report.domains is not None and len(report.domains) == 4
        assert report.witness is None  # unbounded below
        assert all(hi != INF for _, hi in report.domains)

    def test_infeasible_report(self):
        cs, n = parse_constraints("x1 - x2 <= 1\nx2 - x1 <= -2")
        report = solve(cs, n)
        assert not report.feasible
        assert report.domains is None and report.witness is None

    def test_empty_constraints(self):
        report = solve([], 3)
        assert report.feasible
        assert report.domains == ((-INF, INF),) * 3
        assert report.witness is None

    def test_witness_anyway_mode(self):
        cs, n = parse_constraints("x1 - x2 <= 3")
        report = solve(cs, n, witness_anyway=True)
        assert report.witness is not None
        assert all(satisfies(c, report.witness) for c in cs)

    def test_witness_soundness_random(self):
        rng = random.Random(73)
        done = 0
        while done < 10:
            n = rng.randint(1, 3)
            cs = [
                random_general_constraint(rng, n, lo=-4, hi=10)
                for _ in range(rng.randint(0, 5))
            ] + box_constraints(n, 15)
            report = solve(cs, n)
            if not report.feasible:
                continue
            assert report.witness is not None
            assert all(satisfies(c, report.witness) for c in cs)
            done += 1

    def test_domains_contain_oracle_solutions(self):
        rng = random.Random(79)
        done = 0
        while done < 8:
            n = rng.randint(1, 3)
            cs = [
                random_general_constraint(rng, n, lo=-4, hi=10)
                for _ in range(rng.randint(1, 5))
            ]
            report = solve(cs, n)
            if not report.feasible:
                continue
            unpinned = LinearSystem.from_constraints(cs, n)
            point = reference_rows_solution(
                unpinned.rows, n + 1, unpinned.elimination_order()
            )
            assert point is not None
            for i in range(1, n + 1):
                lo, hi = report.domains[i - 1]
                assert lo <= point[i] <= hi
            done += 1

    def test_domain_tightness_on_subclasses(self):
        rng = random.Random(83)
        done = 0
        while done < 6:
            n = rng.randint(1, 3)
            cs = [
                random_octagon_constraint(rng, n) for _ in range(rng.randint(1, 5))
            ]
            sys = LinearSystem.from_constraints(cs, n)
            if not fm_feasible(sys):
                continue
            report = solve(cs, n)
            assert report.feasible
            for i in range(1, n + 1):
                lo, hi = report.domains[i - 1]
                up = [0] * (n + 1)
                up[i] = 1
                down = [0] * (n + 1)
                down[i] = -1
                want_hi = fm_tight_bound(sys, up)
                want_neg_lo = fm_tight_bound(sys, down)
                assert hi == want_hi
                assert (
                    lo == -want_neg_lo
                    if want_neg_lo != INF
                    else lo == -INF
                )
            done += 1

    def test_capped_closure_gives_no_witness(self):
        # Two rounds close this system; one leaves it not stationary, so
        # its matrix is not pinned for a witness.
        cs, n = parse_constraints(SEVEN)
        cs += box_constraints(n, 10)
        assert solve(cs, n).witness is not None
        report = solve(cs, n, max_sweeps=1)
        assert not report.closed.stationary
        assert report.witness is None

    def test_determinism(self):
        cs, n = parse_constraints(SEVEN)
        a = solve(cs, n)
        b = solve(cs, n)
        assert a == b
        assert a.closed.matrix == b.closed.matrix

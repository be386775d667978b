"""Fourier-Motzkin oracle: exact feasibility, witnesses, tight bounds."""

import random
from collections import Counter
from fractions import Fraction

import pytest

from quadcsp.core import INF, make_constraint, normal_vector, parse_constraints
from quadcsp.fmoracle import (
    LinearSystem,
    ResourceLimitError,
    fm_feasible,
    fm_solution,
    fm_tight_bound,
    rows_feasible,
    rows_solution,
)
from gen import (
    box_constraints,
    random_general_constraint,
    random_lower_bound_constraint,
    random_octagon_constraint,
    random_upper_bound_constraint,
)
from reference import (
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

DBM_EXAMPLE = """
x1 <= 4
x2 <= 3
x2 >= 5
x2 - x1 <= 8
x2 - x1 >= 6
"""


def system(text, n=None):
    cs, n = parse_constraints(text, n)
    return LinearSystem.from_constraints(cs, n), cs, n


class TestFeasible:
    def test_seven_constraint_system(self):
        sys, _, _ = system(SEVEN)
        assert fm_feasible(sys)

    def test_contradictory_bounds(self):
        sys, _, _ = system(DBM_EXAMPLE)
        assert not fm_feasible(sys)

    def test_empty_system(self):
        sys = LinearSystem.from_constraints([], 2)
        assert fm_feasible(sys)

    def test_zero_vector_contradiction(self):
        c = make_constraint([], [], Fraction(-1))
        sys = LinearSystem.from_constraints([c], 1)
        assert not fm_feasible(sys)

    def test_negative_difference_cycle(self):
        sys, _, _ = system("x1 - x2 <= 1\nx2 - x1 <= -2")
        assert not fm_feasible(sys)

    def test_row_cap_is_loud(self):
        rng = random.Random(3)
        cs = [random_general_constraint(rng, 4) for _ in range(12)]
        sys = LinearSystem.from_constraints(cs, 4)
        with pytest.raises(ResourceLimitError):
            fm_feasible(sys, row_cap=4)


class TestSolution:
    def test_witness_satisfies_rows(self):
        rng = random.Random(11)
        solved = 0
        for _ in range(40):
            n = rng.randint(1, 4)
            cs = [
                random_general_constraint(rng, n)
                for _ in range(rng.randint(0, 6))
            ]
            sys = LinearSystem.from_constraints(cs, n)
            point = fm_solution(sys)
            if point is None:
                assert not fm_feasible(sys)
                continue
            solved += 1
            assert point[0] == 0
            for coeffs, bound in sys.rows:
                value = sum(c * x for c, x in zip(coeffs, point))
                assert value <= bound
        assert solved >= 10

    def test_agrees_with_feasibility(self):
        sys, _, _ = system(DBM_EXAMPLE)
        assert fm_solution(sys) is None

    def test_pins_x0(self):
        sys, _, _ = system(SEVEN)
        point = fm_solution(sys)
        assert point is not None and point[0] == 0


class TestTightBound:
    def test_single_bound_attained(self):
        sys, _, n = system("x1 <= 4")
        assert fm_tight_bound(sys, (0, 1)) == 4

    def test_transitive_sum(self):
        sys, _, n = system("x1 - x2 <= 1\nx2 - x3 <= 2")
        objective = [0] * (n + 1)
        objective[1], objective[3] = 1, -1
        assert fm_tight_bound(sys, objective) == 3

    def test_unconstrained_direction(self):
        cs, _ = parse_constraints("x1 <= 4", n=2)
        sys = LinearSystem.from_constraints(cs, 2)
        assert fm_tight_bound(sys, (0, 0, 1)) == INF

    def test_rejects_infeasible(self):
        sys, _, _ = system(DBM_EXAMPLE)
        with pytest.raises(ValueError):
            fm_tight_bound(sys, (0, 1, 0))

    def test_rational_optimum(self):
        sys, _, _ = system("x1 + x1 <= 5")
        assert fm_tight_bound(sys, (0, 1)) == Fraction(5, 2)

    def test_attainability_on_random_instances(self):
        # Whenever the supremum B of an objective is finite, adding
        # objective . x >= B keeps the system feasible.
        rng = random.Random(23)
        checked = 0
        for _ in range(30):
            n = rng.randint(1, 3)
            cs = [
                random_general_constraint(rng, n)
                for _ in range(rng.randint(1, 5))
            ] + box_constraints(n, 25)
            sys = LinearSystem.from_constraints(cs, n)
            if not fm_feasible(sys):
                continue
            quad = [rng.randint(0, n) for _ in range(4)]
            target = make_constraint(quad[:2], quad[2:], Fraction(0))
            objective = normal_vector(target, n)
            bound = fm_tight_bound(sys, objective)
            assert bound != INF  # boxed system: every direction bounded
            forced = (
                tuple(Fraction(-v) for v in objective),
                Fraction(-bound),
            )
            tight = LinearSystem(n=n, rows=sys.rows + (forced,))
            assert fm_feasible(tight)
            checked += 1
        assert checked >= 10


class TestDualityWithEnumeration:
    def test_tight_bound_equals_min_weight_bruteforce(self):
        # The supremum of a constraint's functional equals the minimum
        # weight over its simple hyperpaths when the subset caps do not
        # bind (exact rational duality).
        from reference import min_weight_bruteforce

        rng = random.Random(41)
        done = 0
        while done < 12:
            n = rng.randint(1, 3)
            cs = [
                random_general_constraint(rng, n, lo=-3, hi=8)
                for _ in range(rng.randint(1, 5))
            ]
            sys = LinearSystem.from_constraints(cs, n)
            if not fm_feasible(sys):
                continue
            quad = [rng.randint(0, n) for _ in range(4)]
            target = make_constraint(quad[:2], quad[2:], Fraction(0))
            objective = normal_vector(target, n)
            if not any(objective):
                continue
            sup = fm_tight_bound(sys, objective)
            weight = min_weight_bruteforce(
                target, cs, max_size=len(cs), max_constraints=len(cs)
            )
            assert sup == weight
            done += 1


class TestGenericRows:
    def test_plain_rows_roundtrip(self):
        # t1 >= 1, t2 >= 1, t1 + t2 <= 3
        rows = [
            ((Fraction(-1), Fraction(0)), Fraction(-1)),
            ((Fraction(0), Fraction(-1)), Fraction(-1)),
            ((Fraction(1), Fraction(1)), Fraction(3)),
        ]
        assert rows_feasible(rows, 2)
        point = rows_solution(rows, 2)
        assert point is not None
        assert all(v >= 1 for v in point) and sum(point) <= 3

    def test_infeasible_rows(self):
        rows = [
            ((Fraction(1),), Fraction(0)),
            ((Fraction(-1),), Fraction(-1)),
        ]
        assert not rows_feasible(rows, 1)
        assert rows_solution(rows, 1) is None

    def test_every_variable_is_eliminated(self):
        # x1 <= -1 and -x1 <= -1: no elimination order can skip x1
        rows = [((1,), -1), ((-1,), -1)]
        assert not rows_feasible(rows, 1)
        assert rows_solution(rows, 1) is None
        with pytest.raises(TypeError):
            rows_feasible(rows, 1, order=[])


def _outcome(f, *args):
    """What ``f`` returns, or the type and message of what it raised."""
    try:
        return f(*args)
    except (ResourceLimitError, ValueError) as exc:
        return type(exc), str(exc)


class TestAgainstFractionElimination:
    def test_same_answers_and_budget_errors(self):
        # the elimination on ints keeps the same rows as the one on
        # Fractions (tests/reference.py), so every verdict, point and
        # supremum, and every row-budget error, must be the same
        shapes = (
            random_general_constraint,
            random_upper_bound_constraint,
            random_lower_bound_constraint,
            random_octagon_constraint,
        )
        rng = random.Random(3001)
        seen = Counter()
        for draw in range(1000):
            n = rng.randint(2, 6)
            count = rng.randint(n, 3 * n)
            cs = [rng.choice(shapes)(rng, n) for _ in range(count)]
            if draw % 2:
                cs += box_constraints(n, rng.randint(3, 12))
            cap = (50, 200, 1000, 20_000)[draw // 2 % 4]
            sys = LinearSystem.from_constraints(cs, n)
            quad = [rng.randint(0, n) for _ in range(4)]
            target = make_constraint(quad[:2], quad[2:], Fraction(0))
            objective = normal_vector(target, n)
            got = (
                _outcome(fm_feasible, sys, cap),
                _outcome(fm_solution, sys, cap),
                _outcome(fm_tight_bound, sys, objective, cap),
            )
            assert got == (
                _outcome(reference_fm_feasible, sys, cap),
                _outcome(
                    reference_rows_solution,
                    sys.rows, n + 1, sys.elimination_order(), cap,
                ),
                _outcome(reference_fm_tight_bound, sys, objective, cap),
            )
            for answer in got:
                if isinstance(answer, tuple) and isinstance(answer[0], type):
                    seen[answer[0], cap] += 1
                else:
                    seen[type(answer)] += 1
        # 431 points and 560 infeasible draws; 292 finite suprema and 134
        # unbounded; 51 budget errors: 39 at a cap of 50, 9 at 200, 2 at
        # 1000 and 1 at 20000
        assert seen[tuple] >= 400 and seen[type(None)] >= 500
        assert seen[Fraction] >= 250 and seen[float] >= 100
        for cap in (50, 200, 1000, 20_000):
            assert seen[ResourceLimitError, cap] >= 1

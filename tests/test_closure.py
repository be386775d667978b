"""Closure: tightening, verdicts, subclass classification, exactness."""

import random
from fractions import Fraction
from functools import lru_cache

import pytest

import quadcsp.closure as closure_module
from quadcsp.closure import (
    Exactness,
    Subclass,
    _octagon_layout,
    _sum_table,
    classify,
    close,
    exactness_of,
    sweep_cap,
)
from quadcsp.core import parse_constraints, satisfies as satisfies_one
from quadcsp.fmoracle import LinearSystem, fm_feasible, fm_tight_bound
from quadcsp.matrix2d import Matrix2D, load, new_matrix
from quadcsp.solver import solve
from gen import (
    box_constraints,
    random_general_constraint,
    random_lower_bound_constraint,
    random_matrix,
    random_octagon_constraint,
    random_potential_dbm,
    random_upper_bound_constraint,
)
from oracles import cell_grid, floyd_warshall, satisfies
from reference import from_dbm, has_negative_zero_cell, reference_layout

SEVEN = """
x1 - x2 - x3 <= 3
x2 - x1 - x4 <= -4
x4 + x3 <= 5
x2 <= 3
x3 <= 1
x4 <= 5
x1 <= 6
"""


def closed_seven():
    cs, n = parse_constraints(SEVEN)
    return close(load(cs, n)), cs, n


class TestClose:
    def test_seven_constraint_system_feasible(self):
        result, cs, n = closed_seven()
        assert result.feasible
        assert result.matrix.get(1, 0, 0, 0) <= 6
        nu = [Fraction(v) for v in (0, 6, 3, 1, 2)]
        assert satisfies(result.matrix, nu)

    def test_negative_difference_cycle_infeasible(self):
        cs, n = parse_constraints("x1 - x2 <= 1\nx2 - x1 <= -2")
        result = close(load(cs, n))
        assert not result.feasible
        assert has_negative_zero_cell(result.matrix)
        assert not fm_feasible(LinearSystem.from_constraints(cs, n))

    def test_empty_matrix_is_fixpoint(self):
        result = close(new_matrix(3))
        assert result.feasible and result.sweeps_used == 1

    def test_positive_hypercycle_stays_feasible(self):
        # weight 3 - 4 + 5 = 4 >= 0: no contradiction derivable
        cs, n = parse_constraints(
            "x1 - x2 - x3 <= 3\nx2 - x1 - x4 <= -4\nx4 + x3 <= 5", n=4
        )
        result = close(load(cs, n))
        assert result.feasible
        assert result.matrix.get(0, 0, 0, 0) >= 0
        assert not has_negative_zero_cell(result.matrix)

    def test_infeasible_dbm_pair(self):
        dbm = [
            [Fraction(0), Fraction(1)],
            [Fraction(-2), Fraction(0)],
        ]
        result = close(from_dbm(dbm))
        assert not result.feasible
        cs, n = parse_constraints("x1 <= 1\nx1 >= 2")
        assert not fm_feasible(LinearSystem.from_constraints(cs, n))

    def test_sweep_override(self):
        cs, n = parse_constraints(SEVEN)
        result = close(load(cs, n), max_sweeps=1)
        assert result.sweeps_used == 1
        assert result.exactness is Exactness.UPPER_APPROX


class TestClassify:
    def test_octagon(self):
        cs, _ = parse_constraints("x1 + x2 <= 5\nx1 - x2 <= 3")
        assert classify(cs) is Subclass.OCTAGON

    def test_upper_bound(self):
        cs, _ = parse_constraints("x1 - x2 - x3 <= 8")
        assert classify(cs) is Subclass.UPPER_BOUND

    def test_lower_bound(self):
        cs, _ = parse_constraints("x1 + x2 - x3 <= 2", n=3)
        assert classify(cs) is Subclass.LOWER_BOUND

    def test_general(self):
        cs, _ = parse_constraints(SEVEN)
        assert classify(cs) is Subclass.GENERAL

    def test_doubled_variable_is_not_octagon(self):
        cs, _ = parse_constraints("x1 + x1 - x2 - x2 <= 1")
        assert classify(cs) is not Subclass.OCTAGON

    def test_exactness_mapping(self):
        # Only the octagon shape closes exactly; the three-variable
        # shapes admit canonical bounds needing coefficient-3
        # combinations, out of reach of pairwise composition + halving
        # (see the counterexample tests below).
        assert exactness_of(Subclass.OCTAGON) is Exactness.EXACT
        assert exactness_of(Subclass.UPPER_BOUND) is Exactness.UPPER_APPROX
        assert exactness_of(Subclass.LOWER_BOUND) is Exactness.UPPER_APPROX
        assert exactness_of(Subclass.GENERAL) is Exactness.UPPER_APPROX


class TestThreeVariableInexactness:
    """Stationary counterexamples: the closure laws stop strictly above
    the true supremum on lower/upper-bound-form systems."""

    def test_doubled_occurrence_counterexample(self):
        # (x1 + x2 <= -4) + (2x2 - x1 <= 5) gives 3x2 <= 1, so
        # sup x2 = 1/3; the laws are stationary at 9/4.
        text = "x1 <= 2\nx1 - x2 <= 3\nx1 + x2 <= -4\nx2 + x2 - x1 <= 5"
        cs, n = parse_constraints(text)
        assert classify(cs) is Subclass.LOWER_BOUND
        result = close(load(cs, n))
        assert result.feasible
        assert result.exactness is Exactness.UPPER_APPROX
        closed_bound = result.matrix.get(2, 0, 0, 0)
        true_bound = fm_tight_bound(
            LinearSystem.from_constraints(cs, n), (0, 0, 1)
        )
        assert true_bound == Fraction(1, 3)
        assert closed_bound > true_bound

    def test_distinct_variable_counterexample(self):
        # All constraints use pairwise distinct variables, yet the
        # tightest bound on x3 is -4/3 (a coefficient-3 combination)
        # while the laws are stationary at -1.
        text = (
            "x3 - x2 <= 5\nx1 + x4 <= -5\nx3 - x1 <= -6\nx2 - x4 <= 6\n"
            "x2 + x3 - x4 <= 2\nx2 + x4 <= -5/2\nx3 + x4 <= -2\n"
            "x2 <= 0\nx2 - x4 <= 4"
        )
        cs, n = parse_constraints(text)
        assert classify(cs) is Subclass.LOWER_BOUND
        system = LinearSystem.from_constraints(cs, n)
        result = close(load(cs, n))
        assert result.feasible
        true_bound = fm_tight_bound(system, (0, 0, 0, 1, 0))
        assert true_bound == Fraction(-4, 3)
        closed_bound = result.matrix.get(3, 0, 0, 0)
        assert closed_bound > true_bound
        # the oracle bound is attained, so the gap is real
        forced = (
            tuple(Fraction(v) for v in (0, 0, 0, -1, 0)),
            Fraction(4, 3),
        )
        assert fm_feasible(LinearSystem(n=n, rows=system.rows + (forced,)))
        # re-closing confirms stationarity: this is the laws' fixpoint
        again = close(result.matrix)
        assert again.matrix == result.matrix
        assert again.sweeps_used == 1


class TestProperties:
    def test_monotone_and_idempotent(self):
        rng = random.Random(41)
        for _ in range(25):
            n = rng.randint(1, 3)
            m = random_matrix(rng, n)
            first = close(m)
            before, after = cell_grid(m), cell_grid(first.matrix)
            for r in range(len(before)):
                for c in range(len(before)):
                    assert after[r][c] <= before[r][c]
            second = close(first.matrix)
            assert second.matrix == first.matrix
            assert second.sweeps_used == (1 if first.feasible else 0)
            assert second.feasible == first.feasible

    def test_sweep_cap_respected(self):
        rng = random.Random(43)
        for _ in range(25):
            n = rng.randint(1, 3)
            result = close(random_matrix(rng, n))
            assert result.sweeps_used <= sweep_cap(n)

    def test_sound_tightening_never_below_oracle(self):
        rng = random.Random(47)
        for _ in range(10):
            n = rng.randint(1, 3)
            cs = [
                random_general_constraint(rng, n)
                for _ in range(rng.randint(1, 6))
            ]
            sys = LinearSystem.from_constraints(cs, n)
            if not fm_feasible(sys):
                continue
            result = close(load(cs, n))
            assert result.feasible
            for vec, value in zip(
                reference_layout(n).vectors, result.matrix.bounds
            ):
                if isinstance(value, float):
                    continue
                assert value >= fm_tight_bound(sys, vec)

    def test_octagon_instances_are_exact(self):
        rng = random.Random(53)
        done = 0
        while done < 8:
            n = rng.randint(1, 3)
            cs = [
                random_octagon_constraint(rng, n)
                for _ in range(rng.randint(1, 6))
            ]
            sys = LinearSystem.from_constraints(cs, n)
            if not fm_feasible(sys):
                continue
            result = close(load(cs, n))
            assert result.exactness is Exactness.EXACT
            for vec, value in zip(
                reference_layout(n).vectors, result.matrix.bounds
            ):
                if isinstance(value, float):
                    continue
                assert value == fm_tight_bound(sys, vec)
            done += 1

    def test_three_variable_forms_stay_sound(self):
        # Upper/lower-bound-form closures may over-approximate but must
        # never drop below the oracle's supremum.
        rng = random.Random(54)
        done = 0
        while done < 8:
            n = rng.randint(2, 3)
            kind = rng.choice(
                [random_upper_bound_constraint, random_lower_bound_constraint]
            )
            cs = [kind(rng, n) for _ in range(rng.randint(1, 6))]
            sys = LinearSystem.from_constraints(cs, n)
            if not fm_feasible(sys):
                continue
            result = close(load(cs, n))
            assert result.feasible
            for vec, value in zip(
                reference_layout(n).vectors, result.matrix.bounds
            ):
                if isinstance(value, float):
                    continue
                assert value >= fm_tight_bound(sys, vec)
            done += 1

    def test_dbm_degeneration_matches_floyd_warshall(self):
        rng = random.Random(59)
        for _ in range(10):
            n = rng.randint(1, 4)
            dbm = random_potential_dbm(rng, n)
            result = close(from_dbm(dbm))
            dist, negative = floyd_warshall(dbm)
            assert result.feasible == (not negative)
            if not negative:
                for k in range(n + 1):
                    for l in range(n + 1):
                        got = result.matrix.get(l, k, 0, 0)
                        want = dist[k][l]
                        if k == l:
                            want = Fraction(0)
                        assert got == want

    def test_infeasible_verdicts_confirmed_by_oracle(self):
        rng = random.Random(61)
        seen = 0
        for _ in range(40):
            n = rng.randint(1, 3)
            cs = [
                random_general_constraint(rng, n, lo=-6, hi=6)
                for _ in range(rng.randint(2, 6))
            ]
            result = close(load(cs, n))
            if result.feasible:
                continue
            seen += 1
            assert not fm_feasible(LinearSystem.from_constraints(cs, n))
        assert seen >= 3


# Feasible systems whose plain rounds never settle: a feedback loop
# through several halvings improves some classes forever.  Each once ran
# to the round cap of 313 without a verdict.
ROUND_CAP_SYSTEMS = {
    "seed 2350": [
        "x3 - x1 - x4 <= 0",
        "x1 - x3 - x3 <= -5",
        "x3 + x4 - x1 - x2 <= 4",
        "x4 - x2 - x3 <= -5",
        "x2 + x4 - x3 <= 1",
        "x2 - x4 <= 4",
        "x1 + x2 - x4 <= 2",
    ],
    "seed 3513": [
        "x2 - x1 - x3 <= 10",
        "x4 + x4 - x3 <= 6",
        "x1 + x3 - x4 <= -10",
        "- x1 - x2 <= 19",
        "- x2 - x4 <= -3",
        "x3 - x4 <= 3",
        "x2 + x2 - x3 - x3 <= 10",
        "x1 - x3 - x3 <= -3",
        *(f"{sign}x{i} <= 12" for i in range(1, 5) for sign in ("", "- ")),
    ],
}


class TestRoundCapSystems:
    @pytest.mark.parametrize("name", sorted(ROUND_CAP_SYSTEMS))
    def test_stationary_sound_with_witness(self, name):
        cs, n = parse_constraints("\n".join(ROUND_CAP_SYSTEMS[name]))
        result = close(load(cs, n))
        assert result.feasible and result.stationary
        system = LinearSystem.from_constraints(cs, n)
        vectors = reference_layout(n).vectors
        for vec, value in zip(vectors, result.matrix.bounds):
            if not isinstance(value, float):
                assert value >= fm_tight_bound(system, vec)
        witness = solve(cs, n).witness
        assert witness is not None
        assert all(satisfies_one(c, witness) for c in cs)


class TestClosureLaws:
    def test_all_five_relations_at_fixpoint(self):
        cs, n = parse_constraints(
            "x1 - x2 <= 1\nx1 + x2 <= 4\nx2 - x1 <= 3\nx1 + x2 - x1 - x2 <= 9"
        )
        result = close(load(cs, n))
        assert result.feasible
        m = result.matrix
        np1 = n + 1
        quads = [
            (i, j, p, q)
            for i in range(np1)
            for j in range(np1)
            for p in range(np1)
            for q in range(np1)
        ]
        for i, j, p, q in quads:
            v = m.get(i, j, p, q)
            assert v == m.get(q, p, j, i)
            assert v == m.get(i, p, j, q)
            for k in range(np1):
                assert m.get(i, j, k, k) == m.get(i, j, 0, 0)
            assert m.get(i, j, j, i) == 2 * m.get(i, j, 0, 0)
            for k in range(np1):
                for l in range(np1):
                    assert v <= m.get(i, j, k, l) + m.get(k, l, p, q)
                    assert v <= m.get(i, k, l, q) + m.get(k, j, p, l)


def _sweep(cells: list[list], n: int, trace: dict | None = None) -> bool:
    """One full pass of both composition laws, in place.

    Row-major over cells, intermediates in index order; updated values
    are used immediately (the fixpoint is order-independent, the order
    only makes sweep counts reproducible).  With ``trace`` given, each
    changed cell maps to its winning term ("sum", cell_a, cell_b).
    """
    np1 = n + 1
    size = np1 * np1
    div = [s // np1 for s in range(size)]
    mod = [s % np1 for s in range(size)]
    base = [k * np1 for k in range(np1)]
    changed = False
    for r in range(size):
        p, q = div[r], mod[r]
        row_r = cells[r]
        rows_lq = [cells[base[l] + q] for l in range(np1)]
        rows_pl = [cells[base[p] + l] for l in range(np1)]
        for c in range(size):
            i, j = div[c], mod[c]
            ibase = base[i]
            original = row_r[c]
            best = original
            term = None
            for s in range(size):
                a = cells[s][c]
                if type(a) is not float:
                    b = row_r[s]
                    if type(b) is not float:
                        cand = a + b
                        if cand < best:
                            best = cand
                            term = ("sum", (s, c), (r, s))
                k, l = div[s], mod[s]
                a = rows_lq[l][ibase + k]
                if type(a) is not float:
                    b = rows_pl[l][base[k] + j]
                    if type(b) is not float:
                        cand = a + b
                        if cand < best:
                            best = cand
                            term = (
                                "sum",
                                (base[l] + q, ibase + k),
                                (base[p] + l, base[k] + j),
                            )
            if best < original:
                row_r[c] = best
                changed = True
                if trace is not None:
                    trace[(r, c)] = term
    return changed


@lru_cache(maxsize=None)
def _vector_classes(n: int) -> dict:
    """The (row, col) cells of each normal vector e_i - e_j - e_p + e_q."""
    np1 = n + 1
    groups: dict = {}
    for r in range(np1 * np1):
        p, q = divmod(r, np1)
        for c in range(np1 * np1):
            i, j = divmod(c, np1)
            v = [0] * np1
            v[i] += 1
            v[j] -= 1
            v[p] -= 1
            v[q] += 1
            groups.setdefault(tuple(v), []).append((r, c))
    return groups


def _normalize(cells: list[list], n: int) -> bool:
    """Cell-level coherence, in place: pull every cell of a normal
    vector down to the minimum of its cells, then couple each doubled
    cell M[i,j,j,i] with the class of e_i - e_j by mutual min (halving
    into the class, doubling into the cell).  True when a cell changed."""
    groups = _vector_classes(n)
    changed = False
    for members in groups.values():
        low = min(cells[r][c] for r, c in members)
        for r, c in members:
            if cells[r][c] != low:
                cells[r][c] = low
                changed = True
    np1 = n + 1
    for i in range(np1):
        for j in range(np1):
            if i == j:
                continue
            unit = [0] * np1
            unit[i], unit[j] = 1, -1
            members = groups[tuple(unit)]
            r1, c1 = members[0]
            b1 = cells[r1][c1]
            rjj, cjj = j * np1 + i, i * np1 + j
            bjj = cells[rjj][cjj]
            if not isinstance(bjj, float) and bjj < 2 * b1:
                for r, c in members:
                    cells[r][c] = bjj / 2
                changed = True
            elif not isinstance(b1, float) and 2 * b1 < bjj:
                cells[rjj][cjj] = 2 * b1
                changed = True
    return changed


def _from_grid(cells: list[list], n: int) -> Matrix2D:
    """A matrix holding every cell of ``cells`` (set_min cell by cell)."""
    m = new_matrix(n)
    np1 = n + 1
    for r, row in enumerate(cells):
        p, q = divmod(r, np1)
        for c, v in enumerate(row):
            i, j = divmod(c, np1)
            m.set_min(i, j, p, q, v)
    return m


def reference_close(matrix, cap):
    """Plain iteration of full sweeps and normalization on the cell
    grid, no acceleration: (matrix, feasible, stationary) after at most
    ``cap`` sweeps.  The cells of a normal vector agree after each
    ``_normalize``, so cell (0, 0), of the zero vector, reads its class."""
    n = matrix.n
    cells = cell_grid(matrix)
    _normalize(cells, n)
    if cells[0][0] < 0:
        return _from_grid(cells, n), False, False
    for _ in range(cap):
        changed = _sweep(cells, n)
        changed = _normalize(cells, n) or changed
        if cells[0][0] < 0:
            return _from_grid(cells, n), False, False
        if not changed:
            return _from_grid(cells, n), True, True
    return _from_grid(cells, n), True, False


GENERATORS = {
    "octagon": random_octagon_constraint,
    "upper": random_upper_bound_constraint,
    "lower": random_lower_bound_constraint,
    "general": random_general_constraint,
}


def differential_cases(seed, per_n):
    """(label, matrix) over every generator and n = 1..4."""
    rng = random.Random(seed)
    for n in range(1, 5):
        for _ in range(per_n):
            yield f"matrix n={n}", random_matrix(rng, n)
            for name, make in GENERATORS.items():
                cs = [make(rng, n) for _ in range(rng.randint(1, 2 * n))]
                if rng.random() < 0.5:
                    cs += box_constraints(n, 12)
                yield f"{name} n={n} {cs}", load(cs, n)


class TestSemiNaiveRounds:
    """Delta-driven rounds against full sweeps, cell for cell."""

    def test_close_matches_full_sweep_reference(self):
        stationary_seen = 0
        for label, matrix in differential_cases(seed=101, per_n=3):
            result = close(matrix)
            assert result.sweeps_used <= sweep_cap(matrix.n), label
            want, feasible, stationary = reference_close(matrix, cap=40)
            if not feasible:
                assert not result.feasible, label
            elif stationary:
                stationary_seen += 1
                assert result.feasible and result.stationary, label
                assert result.matrix == want, label
            again = close(result.matrix)
            assert again.matrix == result.matrix, label
            assert again.sweeps_used == (1 if result.feasible else 0), label
        assert stationary_seen >= 40

    def test_seeded_pin_matches_unseeded(self):
        rng = random.Random(103)
        compared = 0
        for label, matrix in differential_cases(seed=107, per_n=3):
            base = close(matrix)
            if not base.stationary:
                continue
            n = matrix.n
            i = rng.randint(1, n)
            hi = base.matrix.get(i, 0, 0, 0)
            neg_lo = base.matrix.get(0, i, 0, 0)
            if isinstance(hi, float):
                hi = Fraction(rng.randint(-10, 10))
            # the closed upper end, or a value outside the interval
            value = hi if rng.random() < 0.7 else hi + 1
            if not isinstance(neg_lo, float) and rng.random() < 0.2:
                value = -neg_lo - 1
            trial = base.matrix.copy()
            trial.set_min(i, 0, 0, 0, value)
            trial.set_min(0, i, 0, 0, -value)
            np1 = n + 1
            seeded = close(trial, lowered=[(0, i * np1), (0, i)])
            full = close(trial)
            assert seeded.feasible == full.feasible, label
            assert seeded.exactness is full.exactness, label
            assert seeded.stationary == full.stationary, label
            if full.stationary:
                assert seeded.matrix == full.matrix, label
                compared += 1
        assert compared >= 30

    def test_seed_from_closed_input_is_one_round(self):
        result, _, _ = closed_seven()
        again = close(result.matrix, lowered=[])
        assert again.sweeps_used == 1 and again.stationary
        assert again.matrix == result.matrix


class TestClassSumTable:
    def test_table_matches_both_cell_laws(self):
        """The closure's table lists, for each class u, every (w, v) with
        u + w = v; the two cell laws must combine exactly those pairs.
        Pairs are compared unordered: the sum commutes, while a law may
        take two classes in one operand order only.

        Checking n = 1..5 covers every n: a triple u + w = v touches at
        most 6 indices (u and w have at most 4 nonzero entries each, and
        every index of both that does not cancel is one of v's at most
        4), a law instance names 6 indices i, j, k, l, p, q, and both
        sets are invariant under relabelling the indices, so any triple
        at a larger n maps onto one at n = 5.
        """
        for n in range(1, 6):
            np1 = n + 1
            size = np1 * np1
            m = new_matrix(n)
            cls = [
                [m.class_of_cell(r, c) for c in range(size)]
                for r in range(size)
            ]
            # the index pattern of _sweep
            base = [k * np1 for k in range(np1)]
            laws = set()
            for r in range(size):
                p, q = divmod(r, np1)
                for c in range(size):
                    i, j = divmod(c, np1)
                    v = cls[r][c]
                    for s in range(size):
                        k, l = divmod(s, np1)
                        law1 = (cls[s][c], cls[r][s])
                        law2 = (
                            cls[base[l] + q][base[i] + k],
                            cls[base[p] + l][base[k] + j],
                        )
                        laws.add((*sorted(law1), v))
                        laws.add((*sorted(law2), v))
            # rows are built on first read: read every class's row
            uses = _sum_table(n)
            table = {
                (*sorted((u, w)), v)
                for u in range(len(m.scaled))
                for w, v in uses[u]
            }
            assert table == laws, n


#: The box of the doubled-difference fixture, one row per line.
DOUBLED_BOX = "x1 <= 3\n-x2 <= 1\nx2 <= 5\n-x1 <= 7\n"


def octagon_cases(seed):
    """(label, matrix) over seeded octagon systems, n = 1..6, half of
    them boxed, and lifted random potential DBMs."""
    rng = random.Random(seed)
    for n in range(1, 7):
        for _ in range(12 if n <= 4 else 4):
            cs = [
                random_octagon_constraint(rng, n, -4, 10)
                for _ in range(rng.randint(1, 2 * n + 2))
            ]
            if rng.random() < 0.5:
                cs += box_constraints(n, rng.randint(3, 12))
            yield f"octagon n={n} {cs}", load(cs, n)
        if n <= 4:
            for _ in range(4):
                dbm = random_potential_dbm(rng, n)
                yield f"dbm n={n} {dbm}", from_dbm(dbm)


class TestOctagonRoute:
    """close(m) takes the strong closure and split pass when every
    finite class of m is octagonal; reference_close, the cell-level full
    sweeps, is the reference."""

    def test_matches_general_rounds(self):
        verdicts = set()
        compared = 0
        for label, matrix in octagon_cases(seed=181):
            route = close(matrix)
            want, feasible, stationary = reference_close(matrix, cap=40)
            assert route.feasible == feasible, label
            assert route.sweeps_used == 1, label
            assert route.stationary == route.feasible, label
            verdicts.add(route.feasible)
            if route.feasible:
                assert stationary, label
                assert route.exactness is Exactness.EXACT, label
                assert route.matrix == want, label
                compared += 1
            else:
                assert route.exactness is Exactness.UPPER_APPROX, label
                assert has_negative_zero_cell(route.matrix), label
        assert verdicts == {True, False}
        assert compared >= 50  # 53 of the 72 cases at seed 181

    def test_doubled_difference_closes_as_its_octagon(self):
        """2x1 - 2x2 <= 4 is not an octagonal row, but the entry coupling
        halves it into x1 - x2 <= 2: the loaded matrix is that octagon,
        and it closes exactly, in one round, to the same matrix."""
        doubled, n = parse_constraints(DOUBLED_BOX + "x1 + x1 - x2 - x2 <= 4")
        plain, _ = parse_constraints(DOUBLED_BOX + "x1 - x2 <= 2")
        assert classify(doubled) is Subclass.GENERAL
        result = close(load(doubled, n))
        assert result.feasible and result.stationary
        assert result.sweeps_used == 1
        assert result.exactness is Exactness.EXACT
        assert result.matrix == close(load(plain, n)).matrix

    def test_seeded_close_takes_the_route(self, monkeypatch):
        cs, n = parse_constraints("x1 <= 4\nx2 - x1 <= 1\nx1 + x2 <= 5")
        loaded = load(cs, n)
        want = close(loaded)

        def no_table(n):
            raise LookupError("class-sum table built")

        monkeypatch.setattr(closure_module, "_sum_table", no_table)
        # the cell of x1 <= 4, as a witness pin passes it
        seeded = close(loaded, lowered=[(0, n + 1)])
        assert seeded.sweeps_used == 1 and seeded.stationary
        assert seeded.exactness is Exactness.EXACT
        assert seeded.matrix == want.matrix

    def test_general_close_builds_no_octagon_layout(self, monkeypatch):
        """The route test reads the per-n list of non-octagonal classes,
        not the octagon layout, so a General close at an n no other close
        used builds no layout."""

        def no_layout(n):
            raise LookupError("octagon layout built")

        non_octagonal = closure_module._non_octagonal
        read = []

        def recording(n):
            read.append(n)
            return non_octagonal(n)

        monkeypatch.setattr(closure_module, "_octagon_layout", no_layout)
        monkeypatch.setattr(closure_module, "_non_octagonal", recording)
        cs, n = parse_constraints("x1 + x7 - x2 <= 3\nx2 <= 2\n- x1 <= 4")
        result = close(load(cs, n))
        assert read == [7]
        assert result.feasible and result.stationary
        assert result.exactness is Exactness.UPPER_APPROX
        # x7 <= 3 + x2 - x1 <= 3 + 2 + 4
        assert result.matrix.get(7, 0, 0, 0) == 9

    def test_feasible_octagon_is_one_stationary_round(self):
        cs, n = parse_constraints(
            "x1 <= 4\nx1 >= -3\nx2 - x1 <= 1\nx1 + x2 <= 5\nx3 - x2 <= 2"
        )
        result = close(load(cs, n))
        assert result.feasible and result.stationary
        assert result.sweeps_used == 1
        assert result.exactness is Exactness.EXACT
        # x3 <= x2 + 2 and 2x2 <= (x2 - x1) + (x1 + x2) <= 6
        assert result.matrix.get(3, 0, 0, 0) == 5
        # the three-variable class x1 - x2 + x3, from one split, is
        # tight: x1 + 2 <= 6
        assert result.matrix.get(1, 2, 0, 3) == 6
        system = LinearSystem.from_constraints(cs, n)
        assert fm_tight_bound(system, [0, 1, -1, 1]) == 6

    def test_infeasible_in_the_pass(self):
        cs, n = parse_constraints(
            "x1 - x2 <= 1/2\nx2 + x3 <= 1\n- x3 - x1 <= -2"
        )
        assert classify(cs) is Subclass.OCTAGON
        result = close(load(cs, n))
        assert not result.feasible and not result.stationary
        assert result.sweeps_used == 1
        assert result.exactness is Exactness.UPPER_APPROX
        assert has_negative_zero_cell(result.matrix)
        again = close(result.matrix)
        assert not again.feasible and again.sweeps_used == 0
        assert again.matrix == result.matrix

    def test_negative_zero_class_on_entry(self):
        cs, n = parse_constraints("x1 - x1 <= -1\nx1 <= 3")
        result = close(load(cs, n))
        assert not result.feasible and not result.stationary
        assert result.sweeps_used == 0

    def test_no_round_under_max_sweeps_zero(self):
        cs, n = parse_constraints("x1 - x2 <= 1\nx2 <= 3\nx2 + x3 <= 0")
        loaded = load(cs, n)
        result = close(loaded, max_sweeps=0)
        assert result.feasible and not result.stationary
        assert result.sweeps_used == 0
        assert result.exactness is Exactness.UPPER_APPROX
        assert result.matrix == loaded

    def test_splits_are_every_octagonal_pair(self):
        """The layout's splits of each non-octagonal class are exactly
        the unordered pairs of octagonal classes whose vectors sum to
        its vector; a class on four variables has 3.  The route's
        octagonal classes are those of the digit rule below."""

        def is_octagonal(vec):
            # a +-xi +-xj or +-xi form (at most two units over x1..xn),
            # or the doubled class 2e_i - 2e_j of one
            units = sum(map(abs, vec[1:]))
            return 0 < units <= 2 or sorted(x for x in vec if x) == [-2, 2]

        for n in range(1, 6):
            vectors = reference_layout(n).vectors
            octagonal = [
                k for k, vec in enumerate(vectors) if is_octagonal(vec)
            ]
            assert closure_module._octagonal(n) == set(octagonal), n
            want: dict = {}
            for a, u in enumerate(octagonal):
                for w in octagonal[a:]:
                    vec = tuple(x + y for x, y in zip(vectors[u], vectors[w]))
                    want.setdefault(vec, set()).add((u, w))
            _, splits = _octagon_layout(n)
            for v, pairs in splits:
                assert not is_octagonal(vectors[v]) and any(vectors[v])
                assert set(pairs) == want[vectors[v]], (n, vectors[v])
                if sum(1 for x in vectors[v][1:] if x) == 4:
                    assert len(pairs) == 3
            listed = {v for v, _ in splits}
            others = {
                k for k, vec in enumerate(vectors)
                if any(vec) and not is_octagonal(vec)
            }
            assert listed == others, n

"""Closure arithmetic: integer rounds over one common denominator.

``close`` runs on the matrix's own ints; halving an odd cell and
accepting a fixpoint jump with a new denominator rescale them on the
way.  These tests check each rescaling path cell for cell (against the
Fraction-only ``reference_close`` where that reaches stationarity, else
against values pinned from the Fraction closure), that every result
cell reads as a Fraction on every exit, and a hypothesis-drawn
differential against ``reference_close``.  They also check the
acceleration's policy solve: its rejections on hand-built policies, its
fixpoints against the dense ``reference_policy_fixpoint`` on every policy
met on seeded boxed General draws, and the size of the blocks it solves.
"""

import random
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import HealthCheck, assume, given, settings
from hypothesis import strategies as st

from quadcsp import closure
from quadcsp.closure import (
    _components,
    _policy_fixpoint,
    _term_parts,
    close,
)
from quadcsp.core import INF, make_constraint, parse_constraints
from quadcsp.lindep import _kernel_basis
from quadcsp.matrix2d import load, new_matrix
from gen import box_constraints, random_general_constraint
from oracles import cell_grid
from reference import from_json, reference_policy_fixpoint
from test_closure import reference_close


def closed(text, **kwargs):
    cs, n = parse_constraints(text)
    matrix = load(cs, n)
    return close(matrix, **kwargs), matrix


def assert_fraction_cells(matrix):
    for row in cell_grid(matrix):
        for v in row:
            assert type(v) is Fraction or (type(v) is float and v == INF), v


def assert_matches_reference(result, matrix):
    want, feasible, stationary = reference_close(matrix, cap=40)
    assert feasible and stationary
    assert result.matrix == want
    assert_fraction_cells(result.matrix)


class TestRescaling:
    def test_odd_halving_from_unit_denominator(self):
        # 2x1 - 2x2 <= 1 halves to x1 - x2 <= 1/2: D = 1 doubles to 2.
        # Stored unnormalized (load would halve it before close).
        matrix = new_matrix(2).set_min(1, 2, 2, 1, Fraction(1))
        result = close(matrix)
        assert result.stationary and result.sweeps_used == 1
        assert result.matrix.get(1, 2, 0, 0) == Fraction(1, 2)
        assert_matches_reference(result, matrix)

    def test_odd_halving_of_a_derived_cell(self):
        # (x1 - x2 - x3 <= 0) + (x1 - x2 + x3 <= 1) gives 2x1 - 2x2 <= 1
        # in the first round, from D = 1
        result, loaded = closed("x1 - x2 - x3 <= 0\nx1 - x2 + x3 <= 1")
        assert result.stationary
        assert result.matrix.get(1, 2, 0, 0) == Fraction(1, 2)
        assert_matches_reference(result, loaded)

    def test_mixed_input_denominators(self):
        # D = lcm(3, 5, 2) = 30; 2x1 <= 23/6 is 115/30, odd, so the
        # halving to x1 <= 23/12 doubles D to 60
        result, loaded = closed(
            "x1 + x2 <= 1/3\nx1 - x2 <= 7/2\nx2 - x3 - x1 <= 1/5\n"
            "x3 <= 1\n- x3 <= 2"
        )
        assert result.stationary and result.sweeps_used == 3
        assert result.matrix.get(1, 0, 0, 0) == Fraction(23, 12)
        assert result.matrix.get(2, 0, 0, 0) == Fraction(23, 30)
        assert_matches_reference(result, loaded)

    def test_non_dyadic_acceleration_jump(self):
        # Compositions and halvings keep every value dyadic over the
        # input's denominator 2, so the plain rounds only approach the
        # limit; the policy-fixpoint jump lands on thirds and multiplies
        # D by 3.  The full-sweep reference is not stationary here, so
        # the matrix is pinned from the Fraction closure.
        result, loaded = closed(JUMP_TEXT)
        assert result.feasible and result.stationary
        assert result.sweeps_used == 9
        assert result.matrix.get(0, 1, 0, 0) == Fraction(8, 3)
        assert result.matrix.get(0, 2, 0, 0) == Fraction(11, 6)
        assert result.matrix == from_json(JUMP_CLOSED)
        assert_fraction_cells(result.matrix)
        assert not reference_close(loaded, cap=40)[2]
        again = close(result.matrix)
        assert again.sweeps_used == 1 and again.matrix == result.matrix


JUMP_TEXT = (
    "x2 - x1 - x1 <= 7/2\nx1 - x2 - x2 <= 1\n- x1 - x2 <= 1/2\n- x1 <= 7"
)
JUMP_CLOSED = (
    '{"n":2,"cells":[[0,1,"8/3"],[0,2,"11/6"],[3,0,"8/3"],[3,1,"16/3"],'
    '[3,2,"1/2"],[3,4,"8/3"],[3,5,"11/6"],[3,7,"7/2"],[3,8,"8/3"],'
    '[4,1,"8/3"],[4,2,"11/6"],[5,1,"7/2"],[5,2,"8/3"],[6,0,"11/6"],'
    '[6,1,"1/2"],[6,2,"11/3"],[6,4,"11/6"],[6,5,"1"],[6,7,"8/3"],'
    '[6,8,"11/6"],[7,1,"11/6"],[7,2,"1"],[8,1,"8/3"],[8,2,"11/6"]]}'
)


class TestFractionBoundary:
    """Every finite result cell is a Fraction, never an int: Fraction(3)
    == 3, so no equality test would notice a leaked int."""

    def test_negative_zero_class_on_entry(self):
        first, _ = closed("x1 - x2 <= 1/2\nx2 - x1 <= -2")
        again = close(first.matrix)
        assert not again.feasible and again.sweeps_used == 0
        assert_fraction_cells(again.matrix)

    def test_infeasible_mid_run(self):
        result, _ = closed("x1 - x2 <= 1/2\nx2 - x1 <= -2")
        assert not result.feasible and result.sweeps_used >= 1
        assert_fraction_cells(result.matrix)

    def test_stationary(self):
        result, _ = closed("x1 + x2 <= 3\nx1 - x2 <= 1/3\n- x1 <= 2")
        assert result.stationary
        assert_fraction_cells(result.matrix)
        # the zero-vector cells are finite too
        assert type(result.matrix.get(1, 1, 0, 0)) is Fraction

    def test_stopped_by_max_sweeps(self):
        for cap in (1, 8):
            result, _ = closed(JUMP_TEXT, max_sweeps=cap)
            assert result.sweeps_used == cap and not result.stationary
            assert_fraction_cells(result.matrix)

    def test_empty_matrix(self):
        result = close(new_matrix(2))
        assert result.stationary
        assert_fraction_cells(result.matrix)


# -- hypothesis differential -------------------------------------------------

bounds = st.builds(
    Fraction, st.integers(-10, 10), st.sampled_from([1, 1, 2, 3, 4, 5])
)


@st.composite
def constraint_sets(draw):
    n = draw(st.integers(1, 3))
    index = st.integers(0, n)
    cs = []
    for _ in range(draw(st.integers(1, 2 * n + 1))):
        quad = [draw(index) for _ in range(4)]
        c = make_constraint(quad[:2], quad[2:], draw(bounds))
        if any(c.indices()):
            cs.append(c)
    return cs, n


@st.composite
def matrices(draw):
    n = draw(st.integers(1, 3))
    index = st.integers(0, n)
    m = new_matrix(n)
    for _ in range(draw(st.integers(0, 8))):
        i, j, p, q = (draw(index) for _ in range(4))
        m.set_min(i, j, p, q, draw(bounds))
    return m.normalize()


DIFFERENTIAL = settings(
    derandomize=True,
    database=None,
    deadline=None,
    max_examples=150,
    suppress_health_check=[HealthCheck.too_slow],
)


def check_against_reference(matrix):
    result = close(matrix)
    assert_fraction_cells(result.matrix)
    want, feasible, stationary = reference_close(matrix, cap=25)
    if not feasible:
        assert not result.feasible
    elif stationary:
        assert result.feasible and result.stationary
        assert result.matrix == want


class TestDifferential:
    @DIFFERENTIAL
    @given(constraint_sets())
    def test_constraint_sets(self, drawn):
        cs, n = drawn
        assume(cs)
        check_against_reference(load(cs, n))

    @DIFFERENTIAL
    @given(matrices())
    def test_matrices(self, matrix):
        check_against_reference(matrix)


# -- the acceleration's policy -----------------------------------------------

FIXTURES = Path(__file__).resolve().parent.parent / "fixtures"
ACCELERATED = FIXTURES / "accelerated_general.txt"


def plus(u, w):
    return ("sum", u, w)


def half(c):
    return ("half", c)


def double(c):
    return ("double", c)


def policy_bounds(frozen):
    """Bounds of 8 classes: +inf, except the ``frozen`` values."""
    out = [INF] * 8
    for cls, value in frozen.items():
        out[cls] = value
    return out


class TestPolicyFixpoint:
    """``_policy_fixpoint`` on hand-built policies: each class maps to its
    term, and ``bounds`` holds the frozen values (classes outside the
    policy).  Every rejection keeps the rounds going instead of a jump."""

    @pytest.mark.parametrize(
        "eqs, frozen, want",
        [
            # x0 = x1 + x2, x1 = x0 + x3: a gain-1 cycle
            ({0: plus(1, 2), 1: plus(0, 3)}, {2: -1, 3: -1}, None),
            # x0 = x1 + x2 with x1 = x2 = x0 / 2: no unique solution
            ({0: plus(1, 2), 1: half(0), 2: half(0)}, {}, None),
            # x0 = x1 + x1, x1 = x0 / 2: u + u doubles u, and inside a
            # cycle that is a doubling edge
            ({0: plus(1, 1), 1: half(0)}, {}, None),
            ({0: plus(1, 3), 1: half(0)}, {3: -1}, {0: -2, 1: -1}),
            # two cycles, each solved on its own, and a sum of both below
            (
                {
                    0: plus(1, 4),
                    1: half(0),
                    2: plus(3, 4),
                    3: half(2),
                    5: plus(0, 2),
                },
                {4: -1},
                {0: -2, 1: -1, 2: -2, 3: -1, 5: -4},
            ),
            # a frozen argument at +inf
            ({0: plus(1, 3), 1: half(0)}, {}, None),
            # a value above its current bound: x0 = -2 > -3
            ({0: plus(1, 3), 1: half(0)}, {0: -3, 3: -1}, None),
            # a doubling inside a cycle
            ({0: double(1), 1: plus(0, 2)}, {2: -1}, None),
            # u + u of a frozen class, substituted: a constant
            ({0: plus(1, 1)}, {1: -1}, {0: -2}),
        ],
    )
    def test_hand_built(self, eqs, frozen, want):
        bounds = policy_bounds(frozen)
        assert _policy_fixpoint(eqs, bounds) == want
        assert reference_policy_fixpoint(eqs, bounds) == want

    @pytest.mark.parametrize("below", [double(1), plus(1, 1)])
    def test_doubling_below_a_cycle(self, below):
        # Only the blocks must contract: x2 = 2 x1, substituted after the
        # cycle, converges once the cycle does.  The dense reference
        # keeps the older rule, no doubling edge on any class that
        # reaches a cycle, and rejects the policy.
        eqs = {0: plus(1, 3), 1: half(0), 2: below}
        bounds = policy_bounds({3: -1})
        assert _policy_fixpoint(eqs, bounds) == {0: -2, 1: -1, 2: -2}
        assert reference_policy_fixpoint(eqs, bounds) is None

    def test_each_cycle_is_solved_on_its_own_block(self, monkeypatch):
        # The fixture's one accepted policy has 32 equations and two
        # cyclic components of 4 classes; every other class is
        # substituted, so the solve never builds a 32 x 32 system.
        sizes = []

        def recording(columns):
            sizes.append(len(columns) - 1)
            return _kernel_basis(columns)

        monkeypatch.setattr(closure, "_kernel_basis", recording)
        result, _ = closed(ACCELERATED.read_text())
        assert result.stationary and result.sweeps_used == 9
        assert sizes == [4, 4]


def reach_sets(succ):
    """Each node's set of nodes reachable by one or more edges."""
    reaches = {}
    for start in succ:
        seen, todo = set(), [start]
        while todo:
            for nxt in set(succ[todo.pop()]) - seen:
                seen.add(nxt)
                todo.append(nxt)
        reaches[start] = seen
    return reaches


def largest_cycle(eqs):
    """The number of classes in the policy graph's largest strongly
    connected component with an edge inside it (0 when acyclic)."""
    reaches = reach_sets(
        {
            cls: [arg for arg, _ in _term_parts(term) if arg in eqs]
            for cls, term in eqs.items()
        }
    )
    return max(
        sum(1 for other in reach if cls in reaches[other])
        for cls, reach in reaches.items()
    )


class TestComponents:
    def test_random_graphs(self):
        # Each component is a maximal set of mutually reachable nodes,
        # and every component a node reaches is listed before its own.
        rng = random.Random(1972)
        for _ in range(300):
            size = rng.randint(1, 12)
            succ = {
                v: [rng.randrange(size) for _ in range(rng.randint(0, 3))]
                for v in range(size)
            }
            reaches = reach_sets(succ)
            comps = _components(range(size), succ)
            assert sorted(sum(comps, [])) == list(range(size))
            listed: set = set()
            for comp in comps:
                for v in comp:
                    mutual = {w for w in reaches[v] if v in reaches[w]}
                    assert set(comp) == mutual | {v}
                    assert reaches[v] <= listed | set(comp)
                listed.update(comp)


class TestPolicyDifferential:
    def test_boxed_general_draws(self, monkeypatch):
        # Every policy that the closes of these draws try must give the
        # dense reference's fixpoint (or rejection) exactly.
        met = []

        def checked(eqs, bounds):
            got = _policy_fixpoint(eqs, bounds)
            assert got == reference_policy_fixpoint(eqs, bounds)
            met.append(eqs)
            return got

        monkeypatch.setattr(closure, "_policy_fixpoint", checked)
        for n in (4, 5, 6):
            for seed in range(30):
                rng = random.Random(7000 + 100 * n + seed)
                rows = [
                    random_general_constraint(rng, n, 0, 10)
                    for _ in range(2 * n)
                ]
                close(load(rows + box_constraints(n, 12), n))
        assert len(met) >= 20
        assert max(largest_cycle(eqs) for eqs in met) >= 5

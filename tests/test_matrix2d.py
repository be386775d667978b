"""2D bound matrix: construction, normalization, serialization."""

import math
import random
from fractions import Fraction

import pytest

from quadcsp.closure import close
from quadcsp.core import INF, make_constraint, normal_vector, parse_constraints
from quadcsp.matrix2d import (
    _class_table,
    _vector,
    load,
    new_matrix,
    to_constraints,
)
from gen import random_matrix
from oracles import cell_grid
from reference import from_dbm, from_json, reference_layout, to_json

# The running seven-constraint example: three multi-variable constraints
# plus four single-variable upper bounds.
SEVEN = """
x1 - x2 - x3 <= 3
x2 - x1 - x4 <= -4
x4 + x3 <= 5
x2 <= 3
x3 <= 1
x4 <= 5
x1 <= 6
"""


def _quadruples(n):
    r = range(n + 1)
    return [(i, j, p, q) for i in r for j in r for p in r for q in r]


def _cell_vector(i, j, p, q, n):
    """Normal vector e_i - e_j - e_p + e_q of a cell, over x0..xn."""
    v = [0] * (n + 1)
    v[i] += 1
    v[j] -= 1
    v[p] -= 1
    v[q] += 1
    return tuple(v)


def seven_system():
    cs, n = parse_constraints(SEVEN)
    assert n == 4
    return cs, n


class TestNewMatrix:
    def test_zero_cell_at_origin(self):
        m = new_matrix(1)
        assert len(cell_grid(m)) == 4
        assert m.get(0, 0, 0, 0) == 0

    def test_zero_vector_cell_elsewhere(self):
        m = new_matrix(1)
        assert m.get(0, 1, 0, 1) == 0

    def test_unconstrained_cell_is_inf(self):
        m = new_matrix(1)
        assert m.get(1, 0, 0, 0) == INF

    def test_rejects_bad_n(self):
        with pytest.raises(ValueError):
            new_matrix(0)
        with pytest.raises(ValueError):
            new_matrix(33)


class TestLoad:
    def test_seven_constraint_cells(self):
        cs, n = seven_system()
        m = load(cs, n)
        assert m.get(1, 2, 3, 0) == 3
        assert m.get(2, 1, 4, 0) == -4
        assert m.get(3, 0, 0, 4) == 5
        assert m.get(2, 0, 0, 0) == 3
        assert m.get(3, 0, 0, 0) == 1
        assert m.get(4, 0, 0, 0) == 5
        assert m.get(1, 0, 0, 0) == 6

    def test_classmate_orientations_filled(self):
        cs, n = seven_system()
        m = load(cs, n)
        # (1,2,3,0) -> (q,p,j,i), (i,p,j,q), (q,j,p,i)
        assert m.get(0, 3, 2, 1) == 3
        assert m.get(1, 3, 2, 0) == 3
        assert m.get(0, 2, 3, 1) == 3

    def test_unrelated_cell_stays_inf(self):
        cs, n = seven_system()
        m = load(cs, n)
        assert m.get(2, 3, 0, 1) == INF

    def test_duplicates_keep_min(self):
        cs, n = parse_constraints("x1 <= 4\nx1 <= 3", n=1)
        assert load(cs, n).get(1, 0, 0, 0) == 3


class TestFromDbm:
    def test_small_dbm_cells(self):
        dbm = [
            [Fraction(0), Fraction(4), Fraction(3)],
            [Fraction(0), Fraction(0), Fraction(8)],
            [Fraction(-5), Fraction(-6), Fraction(0)],
        ]
        m = from_dbm(dbm)
        assert m.get(1, 0, 0, 0) == 4
        assert m.get(2, 0, 0, 0) == 3
        assert m.get(2, 1, 0, 0) == 8
        assert m.get(0, 2, 0, 0) == -5
        assert m.get(1, 2, 0, 0) == -6
        assert m.get(0, 1, 0, 0) == 0

    def test_identity_dbm_is_new_matrix(self):
        dbm = [[Fraction(0), INF], [INF, Fraction(0)]]
        assert from_dbm(dbm) == new_matrix(1)

    def test_rejects_non_square(self):
        with pytest.raises(ValueError):
            from_dbm([[Fraction(0), INF]])


class TestNormalize:
    def test_spreads_to_class(self):
        m = new_matrix(3)
        m.set_min(1, 0, 2, 3, Fraction(3)).normalize()
        assert m.get(3, 2, 0, 1) == 3
        assert m.get(1, 2, 0, 3) == 3
        assert m.get(3, 0, 2, 1) == 3

    def test_halving_fills_single_difference(self):
        m = new_matrix(2)
        m.set_min(1, 2, 2, 1, Fraction(4)).normalize()
        assert m.get(1, 2, 0, 0) == 2

    def test_doubling_fills_doubled_cell(self):
        m = new_matrix(2)
        m.set_min(1, 2, 0, 0, Fraction(3)).normalize()
        assert m.get(1, 2, 2, 1) == 6

    def test_kk_cells_unify_with_00(self):
        m = new_matrix(3)
        m.set_min(1, 2, 0, 0, Fraction(5))
        m.set_min(1, 2, 3, 3, Fraction(7))
        m.normalize()
        assert m.get(1, 2, 0, 0) == 5
        assert m.get(1, 2, 3, 3) == 5

    def test_idempotent_on_random_matrices(self):
        rng = random.Random(7)
        for _ in range(40):
            m = random_matrix(rng, rng.randint(1, 3))
            again = m.copy()
            again.normalize()
            assert again == m

    def test_never_increases_cells(self):
        rng = random.Random(8)
        for _ in range(40):
            n = rng.randint(1, 3)
            m = new_matrix(n)
            for _ in range(8):
                i, j, p, q = (rng.randint(0, n) for _ in range(4))
                m.set_min(i, j, p, q, Fraction(rng.randint(-10, 10)))
            before = cell_grid(m)
            m.normalize()
            after = cell_grid(m)
            for r in range(len(after)):
                for c in range(len(after)):
                    assert after[r][c] <= before[r][c]

    def test_orientations_agree_after_normalize(self):
        rng = random.Random(9)
        for _ in range(30):
            n = rng.randint(1, 3)
            m = random_matrix(rng, n)
            for _ in range(10):
                i, j, p, q = (rng.randint(0, n) for _ in range(4))
                v = m.get(i, j, p, q)
                assert v == m.get(q, p, j, i)
                assert v == m.get(i, p, j, q)
                assert v == m.get(q, j, p, i)


class TestAccess:
    def test_get_inf_default(self):
        assert new_matrix(2).get(1, 0, 0, 0) == INF

    def test_set_min_then_get(self):
        m = new_matrix(2)
        m.set_min(1, 0, 0, 0, Fraction(5))
        m.set_min(1, 0, 0, 0, Fraction(7))
        assert m.get(1, 0, 0, 0) == 5

    def test_set_min_lowers_the_whole_class(self):
        # no normalize(): a class holds one bound, so every cell of the
        # class of x1 - x0 - (x2 - x3) reads it at once
        m = new_matrix(3)
        m.set_min(1, 0, 2, 3, Fraction(3))
        fresh = new_matrix(3)
        vec = _cell_vector(1, 0, 2, 3, 3)
        seen = 0
        for i, j, p, q in _quadruples(3):
            if _cell_vector(i, j, p, q, 3) == vec:
                assert m.get(i, j, p, q) == 3
                seen += 1
            else:
                assert m.get(i, j, p, q) == fresh.get(i, j, p, q)
        assert seen > 1

    def test_index_out_of_range(self):
        m = new_matrix(2)
        with pytest.raises(IndexError):
            m.get(3, 0, 0, 0)
        with pytest.raises(IndexError):
            m.set_min(0, 0, 0, -1, Fraction(0))

    def test_rejects_finite_floats(self):
        m = new_matrix(1)
        with pytest.raises(ValueError):
            m.set_min(1, 0, 0, 0, 2.5)
        with pytest.raises(ValueError):
            m.set_min(1, 0, 0, 0, -INF)
        m.set_min(1, 0, 0, 0, INF)  # no-op, allowed
        assert m.get(1, 0, 0, 0) == INF


class TestScaledStorage:
    """Bounds are stored as ints over one common denominator ``denom``;
    every read is a Fraction of the stored rational."""

    def test_equal_over_different_denominators(self):
        a = new_matrix(2).set_min(1, 0, 0, 0, Fraction(1, 3))
        a.set_min(1, 0, 0, 0, Fraction(0)).set_min(2, 1, 0, 0, Fraction(5))
        b = new_matrix(2).set_min(2, 1, 0, 0, Fraction(5))
        b.set_min(1, 0, 0, 0, Fraction(0))
        assert a.denom == 3 and b.denom == 1
        assert a == b and b == a
        b.set_min(2, 1, 0, 0, Fraction(14, 3))
        assert a != b

    def test_equal_over_a_huge_denominator(self):
        # 10^400 times +inf would overflow converting the int to float
        tiny = Fraction(1, 10**400)
        a = new_matrix(2).set_min(1, 2, 0, 0, tiny)
        b = a.copy().set_min(2, 0, 0, 0, Fraction(3))
        assert a.denom == 10**400
        assert a == a.copy() and a != b and b != a

    def test_set_min_with_a_new_denominator_reads_back_exactly(self):
        m = new_matrix(2).set_min(1, 0, 0, 0, Fraction(1, 2))
        m.set_min(2, 0, 0, 0, Fraction(-7, 3))
        m.set_min(1, 2, 0, 0, Fraction(5, 4))
        assert m.denom == 12
        for cell, want in (
            ((1, 0, 0, 0), Fraction(1, 2)),
            ((2, 0, 0, 0), Fraction(-7, 3)),
            ((1, 2, 0, 0), Fraction(5, 4)),
            ((0, 0, 0, 0), Fraction(0)),
        ):
            got = m.get(*cell)
            assert got == want and type(got) is Fraction
        assert m.get(0, 1, 0, 0) == INF

    def test_close_stores_the_lcm_of_the_reduced_denominators(self):
        rng = random.Random(71)
        cases = [parse_constraints("x1 <= 1/3\nx1 <= 0\n- x1 <= 5")]
        for _ in range(40):
            n = rng.randint(1, 3)
            cases.append((
                [
                    make_constraint(
                        [rng.randint(0, n) for _ in range(2)],
                        [rng.randint(0, n) for _ in range(2)],
                        Fraction(rng.randint(-12, 12), rng.choice([1, 2, 3, 4, 6])),
                    )
                    for _ in range(rng.randint(1, 2 * n + 2))
                ],
                n,
            ))
        for cs, n in cases:
            result = close(load(cs, n))
            finite = [b for b in result.matrix.bounds if b != INF]
            assert result.matrix.denom == math.lcm(
                *(b.denominator for b in finite)
            )
        # x1 <= 1/3 is dropped for x1 <= 0, so the loaded thirds go
        assert close(load(*cases[0])).matrix.denom == 1

    def test_bounds_is_read_only(self):
        m = load(*seven_system())
        view = m.bounds
        assert isinstance(view, tuple)
        with pytest.raises(TypeError):
            m.bounds[0] = Fraction(1)
        with pytest.raises(AttributeError):
            m.bounds = list(view)
        assert m.bounds == view


class TestClassTable:
    def test_matches_reference_layout(self):
        """Classes numbered by code match the cell-by-cell vector layout:
        the same numbering, zero class, couplings and class of each cell,
        and each code decodes to its class's vector."""
        for n in range(1, 9):
            table, want = _class_table(n), reference_layout(n)
            assert [_vector(code, n) for code in table.codes] == list(
                want.vectors
            ), n
            assert table.index == {c: k for k, c in enumerate(table.codes)}
            assert table.zero == want.zero
            assert table.couplings == want.couplings
            m = new_matrix(n)
            size = (n + 1) ** 2
            assert [
                m.class_of_cell(row, col)
                for row in range(size)
                for col in range(size)
            ] == list(want.cell_class), n

    def test_cell_out_of_range(self):
        m = new_matrix(2)
        for row, col in [(0, 9), (-1, 0), (9, 0), (0, -1)]:
            with pytest.raises(IndexError):
                m.class_of_cell(row, col)
        # a lowered cell is checked before its class seeds a round, on
        # either route
        for text in ["x1 + x1 - x2 <= 1\nx2 <= 3", "x1 - x2 <= 1\nx2 <= 3"]:
            with pytest.raises(IndexError):
                close(load(*parse_constraints(text)), lowered=[(0, 9)])


class TestToConstraints:
    def test_roundtrips_loaded_system(self):
        cs, n = seven_system()
        m = load(cs, n)
        derived = to_constraints(m)
        vecs = {normal_vector(c, n): c.m for c in derived}
        for c in cs:
            assert vecs[normal_vector(c, n)] == c.m

    def test_includes_negative_zero_class(self):
        m = new_matrix(1)
        m.set_min(0, 0, 0, 0, Fraction(-1))
        zero = [c for c in to_constraints(m) if not any(c.indices())]
        assert zero and zero[0].m == -1


class TestValuationSemantics:
    def test_load_preserves_satisfaction(self):
        # a valuation satisfies the constraint list iff it satisfies
        # every finite cell of the loaded (normalized) matrix
        from quadcsp.core import satisfies as c_satisfies
        from oracles import satisfies as m_satisfies
        from gen import random_general_constraint

        rng = random.Random(13)
        for _ in range(30):
            n = rng.randint(1, 3)
            cs = [
                random_general_constraint(rng, n)
                for _ in range(rng.randint(0, 6))
            ]
            m = load(cs, n)
            valuation = [Fraction(0)] + [
                Fraction(rng.randint(-12, 12), rng.choice([1, 2]))
                for _ in range(n)
            ]
            assert m_satisfies(m, valuation) == all(
                c_satisfies(c, valuation) for c in cs
            )


class TestSerialization:
    def test_roundtrip_bit_exact(self):
        cs, n = seven_system()
        m = load(cs, n)
        m.set_min(1, 0, 0, 0, Fraction(11, 3))
        m.normalize()
        assert from_json(to_json(m)) == m

    def test_default_matrix_serializes_empty(self):
        obj = to_json(new_matrix(2))
        assert from_json(obj) == new_matrix(2)
        assert '"cells":[]' in obj

    def test_negative_zero_cells_survive(self):
        m = new_matrix(1)
        m.set_min(1, 1, 0, 0, Fraction(-3, 7))
        m.normalize()
        assert from_json(to_json(m)) == m

    def test_inf_cells_accepted_on_load(self):
        text = '{"n": 1, "cells": [[0, 2, "inf"], [0, 2, "3/2"]]}'
        m = from_json(text)
        assert m.get(1, 0, 0, 0) == Fraction(3, 2)

    def test_partial_class_reads_its_minimum(self):
        # the class of x1 - x0 has the cells (row, col) (0, 2), (3, 2),
        # (1, 0) and (1, 3), i.e. (i, j, p, q) = (1, 0, 0, 0),
        # (1, 0, 1, 1), (0, 0, 0, 1) and (1, 1, 0, 1): listed or not,
        # each reads the minimum of the listed ones
        m = from_json('{"n": 1, "cells": [[0, 2, "5"], [3, 2, "3"]]}')
        grid = cell_grid(m)
        assert [grid[0][2], grid[3][2], grid[1][0], grid[1][3]] == [3] * 4
        assert from_json(to_json(m)) == m

    def test_bad_cells_rejected(self):
        import pytest
        from quadcsp.core import ParseError
        from reference import from_json_obj

        with pytest.raises(ValueError):
            from_json_obj({"n": 1, "cells": [[99, 0, "1"]]})
        with pytest.raises(ParseError):
            from_json_obj({"n": 1, "cells": [[0, 2, "1.5"]]})

"""Positive dependence, hypercycles, hyperpaths, weights."""

import random
from fractions import Fraction

import pytest

from quadcsp.core import (
    INF,
    complement,
    make_constraint,
    normal_vector,
    parse_constraints,
)
from quadcsp.fmoracle import LinearSystem, fm_feasible, rows_feasible
from quadcsp.lindep import (
    SizeLimitError,
    WeightedFamily,
    _kernel_basis,
    cycle_weight,
    enumerate_simple_hcycles,
)
from gen import (
    box_constraints,
    random_bound,
    random_general_constraint,
    random_lower_bound_constraint,
    random_octagon_constraint,
    random_upper_bound_constraint,
)
from oracles import bellman_ford, simple_hcycles_bruteforce
from reference import (
    NotSimpleError,
    is_simple,
    min_weight_bruteforce,
    positive_dependence,
    simple_hyperpaths,
    unique_coeffs,
)

# Two running hypercycle examples over x1..x4.
CYCLE_A = """
x1 - x2 - x3 <= 3
x2 - x1 - x4 <= -4
x4 + x3 <= 5
"""

CYCLE_B = """
x1 - x2 - x3 <= 3
x1 + x2 - x3 <= -4
x3 - x1 <= 5
"""


def family(text):
    cs, n = parse_constraints(text, n=4)
    return cs, [normal_vector(c, n) for c in cs], n


class TestPositiveDependence:
    def test_unit_coefficients_cycle(self):
        _, vectors, _ = family(CYCLE_A)
        assert positive_dependence(vectors) == (1, 1, 1)

    def test_doubled_coefficient_cycle(self):
        _, vectors, _ = family(CYCLE_B)
        assert positive_dependence(vectors) == (1, 1, 2)

    def test_vector_and_its_negation(self):
        v = (1, -1, 0, 2)
        w = tuple(-x for x in v)
        assert positive_dependence([v, w]) == (1, 1)

    def test_independent_family(self):
        assert positive_dependence([(1, 0), (0, 1)]) is None

    def test_mixed_sign_kernel_is_not_positive(self):
        # V1 - V2 = 0 has no strictly positive solution
        assert positive_dependence([(1, 1), (2, 2)]) is None

    def test_rejects_zero_vector_member(self):
        with pytest.raises(ValueError):
            positive_dependence([(0, 0), (1, -1)])

    def test_rejects_duplicates(self):
        with pytest.raises(ValueError):
            positive_dependence([(1, 0), (1, 0)])

    def test_family_size_cap(self):
        vecs = [(1, k) for k in range(13)]
        with pytest.raises(SizeLimitError):
            positive_dependence(vecs)


class TestIsSimple:
    def test_three_cycle_is_simple(self):
        _, vectors, _ = family(CYCLE_A)
        assert is_simple(vectors)

    def test_union_of_two_cycles_is_not(self):
        v, w = (1, 0, -1), (0, 2, 1)
        vectors = [v, tuple(-x for x in v), w, tuple(-x for x in w)]
        assert not is_simple(vectors)

    def test_pairs_are_always_simple(self):
        v = (3, -2, 1)
        assert is_simple([v, tuple(-x for x in v)])


class TestUniqueCoeffs:
    def test_doubled_cycle(self):
        _, vectors, _ = family(CYCLE_B)
        assert unique_coeffs(vectors) == (1, 1, 2)

    def test_pair(self):
        assert unique_coeffs([(2, -4), (-2, 4)]) == (1, 1)

    def test_permutation_gives_proportional_solutions(self):
        rng = random.Random(5)
        _, vectors, _ = family(CYCLE_B)
        for _ in range(10):
            perm = list(range(len(vectors)))
            rng.shuffle(perm)
            shuffled = [vectors[k] for k in perm]
            coeffs = unique_coeffs(shuffled)
            base = unique_coeffs(vectors)
            assert coeffs == tuple(base[k] for k in perm)

    def test_rejects_non_simple(self):
        v, w = (1, 0), (0, 1)
        vectors = [v, (-1, 0), w, (0, -1)]
        with pytest.raises(NotSimpleError):
            unique_coeffs(vectors)

    def test_rejects_independent(self):
        with pytest.raises(NotSimpleError):
            unique_coeffs([(1, 0), (0, 1)])


class TestEnumerateCycles:
    def test_single_cycle_family(self):
        cs, _, _ = family(CYCLE_A)
        cycles = list(enumerate_simple_hcycles(cs))
        assert len(cycles) == 1
        assert cycles[0].coeffs == (1, 1, 1)
        assert cycles[0].members == tuple(cs)

    def test_constraint_and_complement(self):
        c = make_constraint([1], [2, 3], Fraction(2))
        cycles = list(enumerate_simple_hcycles([c, complement(c)]))
        assert len(cycles) == 1
        assert cycles[0].coeffs == (1, 1)

    def test_empty_input(self):
        assert list(enumerate_simple_hcycles([])) == []

    def test_zero_vector_members_excluded(self):
        zero = make_constraint([], [], Fraction(-1))
        c = make_constraint([1], [2], Fraction(0))
        assert list(enumerate_simple_hcycles([zero, c, complement(c)])) != []
        for cyc in enumerate_simple_hcycles([zero, c, complement(c)]):
            assert zero not in cyc.members

    def test_weighted_vectors_cancel_exactly(self):
        rng = random.Random(17)
        for _ in range(20):
            n = rng.randint(2, 4)
            cs = [random_general_constraint(rng, n) for _ in range(6)]
            for cyc in enumerate_simple_hcycles(cs, max_size=4):
                total = [Fraction(0)] * (n + 1)
                for member, lam in zip(cyc.members, cyc.coeffs):
                    for k, v in enumerate(normal_vector(member, n)):
                        total[k] += lam * v
                assert not any(total)

    def test_list_cap(self):
        c = make_constraint([1], [2], Fraction(0))
        with pytest.raises(SizeLimitError):
            enumerate_simple_hcycles([c] * 17)

    def test_order_matches_bruteforce(self):
        # The lazy, sign-filtered, pruned walk yields exactly the subset
        # walk's simple hypercycles, in the same order, with the same
        # coefficients.  Each draw mixes every shape with a
        # coefficient-2 constraint, a complement pair, a duplicate
        # normal vector and a zero vector.
        rng = random.Random(53)
        makers = (
            random_general_constraint,
            random_octagon_constraint,
            random_upper_bound_constraint,
            random_lower_bound_constraint,
        )
        found = doubled = 0
        for k in range(25):
            n = rng.randint(2, 4)
            cs = [
                rng.choice(makers)(rng, n, lo=-4, hi=4)
                for _ in range(rng.randint(4, 6))
            ]
            a, b = rng.sample(range(1, n + 1), 2)
            cs.append(make_constraint([a, a], [b], random_bound(rng)))
            cs.append(complement(rng.choice(cs)))
            twin = rng.choice(cs)
            cs.append(make_constraint([], [], random_bound(rng)))
            cs.append(
                make_constraint([twin.i, twin.q], [twin.j, twin.p], 11)
            )
            rng.shuffle(cs)
            max_size = 2 + k % 5
            got = [
                (cyc.members, cyc.coeffs)
                for cyc in enumerate_simple_hcycles(cs, max_size=max_size)
            ]
            expected = simple_hcycles_bruteforce(cs, max_size)
            assert got == expected
            found += len(expected)
            doubled += sum(max(coeffs) >= 2 for _, coeffs in expected)
        assert found > 100 and doubled > 20
        # Two families whose kernel has dimension 2.  The box is
        # positively dependent but not simple: only its complement pairs
        # are cycles.  The other has no positive point, and no proper
        # subfamily is positively dependent, so the walk tests it whole.
        for lines, pairs in (
            (
                ["x1 <= 1", "- x1 <= 1", "x2 <= 1", "- x2 <= 1"],
                [(0, 1), (2, 3)],
            ),
            (
                [
                    "x3 <= 1",
                    "- x2 - x3 <= 1",
                    "x3 - x1 - x2 <= 1",
                    "x1 + x2 <= 1",
                    "x1 <= 1",
                ],
                [],
            ),
        ):
            cs, n = parse_constraints("\n".join(lines))
            assert len(_kernel_basis([normal_vector(c, n) for c in cs])) == 2
            got = [
                (cyc.members, cyc.coeffs)
                for cyc in enumerate_simple_hcycles(cs)
            ]
            assert got == simple_hcycles_bruteforce(cs, len(cs))
            assert got == [((cs[a], cs[b]), (1, 1)) for a, b in pairs]


class TestCycleWeight:
    def test_running_example_weight(self):
        cs, vectors, _ = family(CYCLE_A)
        fam = WeightedFamily(
            members=tuple(cs), coeffs=(Fraction(1),) * 3
        )
        assert cycle_weight(fam) == 4

    def test_pair_weight_adds(self):
        c = make_constraint([1], [2], Fraction(3))
        d = complement(make_constraint([1], [2], Fraction(5)))
        fam = WeightedFamily((c, d), (Fraction(1), Fraction(1)))
        assert cycle_weight(fam) == 8

    def test_doubled_coefficient_arithmetic(self):
        cs, _, _ = family(CYCLE_A)
        fam = WeightedFamily(
            members=tuple(cs),
            coeffs=(Fraction(1), Fraction(1), Fraction(2)),
        )
        assert cycle_weight(fam) == 3 - 4 + 10

    def test_missing_bound_is_inf(self):
        cs, _, _ = family(CYCLE_A)
        fam = WeightedFamily(tuple(cs), (Fraction(1),) * 3)
        assert cycle_weight(fam, bounds={cs[0]: Fraction(1)}) == INF


class TestHyperPaths:
    def test_path_completes_to_cycle(self):
        cs, _, n = family(CYCLE_A)
        target = make_constraint([], [3, 4], Fraction(6))
        paths = simple_hyperpaths(target, cs[:2])
        assert len(paths) == 1
        (path,) = paths
        # path plus the complement (coefficient 1) cancels exactly
        total = [Fraction(0)] * (n + 1)
        for member, lam in zip(path.path.members, path.path.coeffs):
            for k, v in enumerate(normal_vector(member, n)):
                total[k] += lam * v
        for k, v in enumerate(normal_vector(complement(target), n)):
            total[k] += v
        assert not any(total)

    def test_self_path_recovers_own_bound(self):
        c = make_constraint([1], [2, 3], Fraction(7))
        target = make_constraint([1], [2, 3], Fraction(100))
        paths = simple_hyperpaths(target, [c])
        assert [p.weight() for p in paths] == [7]

    def test_path_coefficients_unique_under_reordering(self):
        rng = random.Random(43)
        checked = 0
        for _ in range(15):
            n = rng.randint(2, 3)
            cs = [random_general_constraint(rng, n) for _ in range(5)]
            quad = [rng.randint(0, n) for _ in range(4)]
            target = make_constraint(quad[:2], quad[2:], Fraction(0))
            base = {
                (frozenset(p.path.members), tuple(sorted(p.path.coeffs)))
                for p in simple_hyperpaths(target, cs)
            }
            perm = list(range(len(cs)))
            rng.shuffle(perm)
            shuffled = [cs[k] for k in perm]
            again = {
                (frozenset(p.path.members), tuple(sorted(p.path.coeffs)))
                for p in simple_hyperpaths(target, shuffled)
            }
            assert base == again
            checked += len(base)
        assert checked > 0


class TestMinWeight:
    def test_two_step_path(self):
        cs, _, _ = family(CYCLE_A)
        target = make_constraint([], [3, 4], Fraction(6))
        assert min_weight_bruteforce(target, cs[:2]) == -1

    def test_no_path_gives_inf(self):
        c = make_constraint([1], [2], Fraction(1))
        target = make_constraint([3], [4], Fraction(0))
        assert min_weight_bruteforce(target, [c]) == INF

    def test_matches_shortest_path_on_difference_systems(self):
        rng = random.Random(29)
        for _ in range(15):
            n = rng.randint(2, 3)
            arcs = []
            cs = []
            for u in range(n + 1):
                for v in range(n + 1):
                    if u != v and rng.random() < 0.5:
                        w = Fraction(rng.randint(0, 9))
                        # x_v - x_u <= w is the arc u -> v
                        cs.append(make_constraint([v], [u], w))
                        arcs.append((u, v, w))
            for source in range(n + 1):
                dist, negative = bellman_ford(n + 1, arcs, source)
                assert not negative
                for sink in range(n + 1):
                    if sink == source:
                        continue
                    target = make_constraint([sink], [source], Fraction(0))
                    got = min_weight_bruteforce(
                        target, cs, max_size=len(cs), max_constraints=len(cs)
                    )
                    assert got == dist[sink]


class TestTheoremChecks:
    def _has_negative_hcycle_fm(self, cs, n, max_size):
        """Independent check: some positively-weighted subset with
        vanishing vectors and negative weight, via FM feasibility of
        {sum lam V = 0, lam >= 1, sum lam b <= -1} per subset."""
        import itertools

        vectors = [normal_vector(c, n) for c in cs]
        for size in range(2, max_size + 1):
            for subset in itertools.combinations(range(len(cs)), size):
                vecs = [vectors[k] for k in subset]
                if any(not any(v) for v in vecs):
                    continue
                if len(set(vecs)) != len(vecs):
                    continue
                r = len(subset)
                rows = []
                for d in range(n + 1):
                    coeffs = tuple(Fraction(vecs[k][d]) for k in range(r))
                    rows.append((coeffs, Fraction(0)))
                    rows.append((tuple(-c for c in coeffs), Fraction(0)))
                for k in range(r):
                    unit = [Fraction(0)] * r
                    unit[k] = Fraction(-1)
                    rows.append((tuple(unit), Fraction(-1)))
                weights = tuple(Fraction(cs[k].m) for k in subset)
                rows.append((weights, Fraction(-1)))
                if rows_feasible(rows, r):
                    return True
        return False

    def test_simple_cycles_decide_all_cycles(self):
        # negative simple cycle exists iff negative cycle exists
        rng = random.Random(31)
        for _ in range(12):
            n = rng.randint(2, 3)
            cs = [
                random_general_constraint(rng, n, lo=-4, hi=4)
                for _ in range(rng.randint(2, 5))
            ]
            simple_negative = any(
                cycle_weight(cyc) < 0
                for cyc in enumerate_simple_hcycles(
                    cs, max_size=len(cs), max_constraints=len(cs)
                )
            )
            any_negative = self._has_negative_hcycle_fm(cs, n, len(cs))
            assert simple_negative == any_negative

    def test_feasibility_matches_min_weight_cycle_sign(self):
        # all simple cycles over min-weight bounds nonnegative iff feasible
        rng = random.Random(37)
        for _ in range(8):
            n = 2
            cs = [
                random_general_constraint(rng, n, lo=-3, hi=6)
                for _ in range(rng.randint(1, 3))
            ] + box_constraints(n, 8)
            cs = list(dict.fromkeys(cs))
            min_bounds = {
                c: min(
                    c.m,
                    min_weight_bruteforce(
                        c, cs, max_size=len(cs), max_constraints=len(cs)
                    ),
                )
                for c in cs
            }
            cycles = enumerate_simple_hcycles(
                cs, max_size=len(cs), max_constraints=len(cs)
            )
            all_nonneg = all(
                cycle_weight(cyc, min_bounds) >= 0 for cyc in cycles
            )
            feasible = fm_feasible(LinearSystem.from_constraints(cs, n))
            assert all_nonneg == feasible

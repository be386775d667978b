"""Constraint model, parsing and canonicalization."""

from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from quadcsp.core import (
    INF,
    Constraint4,
    ParseError,
    complement,
    format_bound,
    format_constraint,
    make_constraint,
    normal_vector,
    parse_atomic,
    parse_constraints,
)
from reference import parse_rational


class TestParseAtomic:
    def test_three_variable_upper_form(self):
        c = parse_atomic("x1 - x2 - x3 <= 8", 4)
        assert c == Constraint4(i=1, j=2, p=3, q=0, m=Fraction(8))

    def test_lower_bound_rewritten_by_negation(self):
        c = parse_atomic("x2 >= 5", 4)
        assert c == Constraint4(i=0, j=2, p=0, q=0, m=Fraction(-5))

    def test_single_variable_upper_bound(self):
        c = parse_atomic("x1 <= 4", 4)
        assert c == Constraint4(i=1, j=0, p=0, q=0, m=Fraction(4))

    def test_full_four_variable_constraint(self):
        c = parse_atomic("x1 + x2 - x3 - x4 <= 4", 4)
        assert c == Constraint4(i=1, j=3, p=4, q=2, m=Fraction(4))
        # Fraction(4) == 4: only the type shows an int bound leaking out
        assert type(c.m) is Fraction

    def test_rational_bound_and_geq(self):
        c = parse_atomic("x2 - x1 >= -3/2", 2)
        assert c == Constraint4(i=1, j=2, p=0, q=0, m=Fraction(3, 2))

    def test_variables_on_both_sides(self):
        c = parse_atomic("x1 - x2 <= x3 + 1", 3)
        assert c == Constraint4(i=1, j=2, p=3, q=0, m=Fraction(1))

    def test_constants_on_both_sides(self):
        c = parse_atomic("x1 + 2 <= 5 - 1/2", 1)
        assert c == Constraint4(i=1, j=0, p=0, q=0, m=Fraction(5, 2))
        c = parse_atomic("x1 + 2 - 1/2 <= 5 + 1/3 - 1", 1)
        assert c == Constraint4(i=1, j=0, p=0, q=0, m=Fraction(17, 6))

    def test_repeated_variable_doubles(self):
        c = parse_atomic("x1 + x1 <= 4", 1)
        assert c == Constraint4(i=1, j=0, p=0, q=1, m=Fraction(4))

    def test_cancellation(self):
        c = parse_atomic("x1 + x2 - x1 <= 3", 2)
        assert c == Constraint4(i=2, j=0, p=0, q=0, m=Fraction(3))

    def test_variable_free_line(self):
        c = parse_atomic("0 <= -1", 1)
        assert c == Constraint4(0, 0, 0, 0, Fraction(-1))

    @pytest.mark.parametrize(
        "bad",
        [
            "x1 <= 1.5",           # decimal literal: not in the grammar
            "x1 + x2 + x3 <= 1",   # three positive occurrences
            "x1 <=",               # missing bound
            "x1 < 4",              # strict relations unsupported
            "x0 <= 1",             # x0 reserved
            "x1 x2 <= 1",          # missing operator
            "x1 + - x2 <= 1",      # doubled sign
            "",                    # blank
            "x1 <= 2 <= 3",        # two relations
        ],
    )
    def test_rejects(self, bad):
        with pytest.raises(ParseError):
            parse_atomic(bad, 4)

    def test_index_out_of_range(self):
        with pytest.raises(ParseError):
            parse_atomic("x5 <= 1", 4)


# Recorded from the parser before its single-pass rewrite: each line's
# exact canonical fields, or the exact ParseError text.  When a line has
# several faults the first of these wins: the tokenizer, the relation
# count, the left side (its tokens in order, then completeness), the
# right side, the range against n (first variable written), the
# occurrence count.
PARSE_TABLE = [
    ("x1 - x2 - x3 <= 8", 4, (1, 2, 3, 0, Fraction(8))),
    ("x2 >= 5", 4, (0, 2, 0, 0, Fraction(-5))),
    ("x1 + x2 - x3 - x4 <= 4", 4, (1, 3, 4, 2, Fraction(4))),
    ("- x1 - x2 >= -3/2", 2, (1, 0, 0, 2, Fraction(3, 2))),
    ("x1 + 2 >= 5 - x2 + 1/3", 2, (0, 1, 2, 0, Fraction(-10, 3))),
    ("3 - x1 >= x2 - 7", 2, (1, 0, 0, 2, Fraction(10))),
    ("x1 + x1 <= 4", 1, (1, 0, 0, 1, Fraction(4))),
    ("x2 + x2 - x1 - x1 <= 0", 2, (2, 1, 1, 2, Fraction(0))),
    ("x3 + x2 - x3 <= 1", 3, (2, 0, 0, 0, Fraction(1))),
    ("x1 - x1 <= 2", 1, (0, 0, 0, 0, Fraction(2))),
    ("2/4 <= x1", 1, (0, 1, 0, 0, Fraction(-1, 2))),
    ("x2 - x1 <= 4/2", 2, (2, 1, 0, 0, Fraction(2))),
    ("x4 - x3 >= x2 - x1 + 0", 4, (2, 1, 4, 3, Fraction(0))),
    ("+ x1 <= + 3  # note", 1, (1, 0, 0, 0, Fraction(3))),
    ("0 <= -1", 1, (0, 0, 0, 0, Fraction(-1))),
    ("x1 + y <= 3", 2, "syntax error at 'y <= 3' in 'x1 + y <= 3'"),
    ("x1 <= 2 <= 1.5", 2, "syntax error at '.5' in 'x1 <= 2 <= 1.5'"),
    ("x1 <= 2 <= 3", 2, "expected exactly one <= or >= in 'x1 <= 2 <= 3'"),
    ("x1 + 2", 2, "expected exactly one <= or >= in 'x1 + 2'"),
    ("x1 + + x2 <= 2 >= 1", 2,
     "expected exactly one <= or >= in 'x1 + + x2 <= 2 >= 1'"),
    ("x1 + - x2 <= 1", 2, "two consecutive signs in 'x1 + - x2 <= 1'"),
    ("x1 x2 <= 1", 2, "missing operator before 'x2' in 'x1 x2 <= 1'"),
    ("x1 3 <= 1", 2, "missing operator before '3' in 'x1 3 <= 1'"),
    ("x0 <= 1", 2, "x0 is reserved and cannot appear in 'x0 <= 1'"),
    ("x1 <= 1/0", 2, "zero denominator in 'x1 <= 1/0'"),
    ("1/0 + x0 <= 1", 2, "zero denominator in '1/0 + x0 <= 1'"),
    ("x1 x2 <= 1/0", 2, "missing operator before 'x2' in 'x1 x2 <= 1/0'"),
    ("x1 + <= x0", 2, "empty or incomplete side in 'x1 + <= x0'"),
    ("x1 <= x2 x3", 3, "missing operator before 'x3' in 'x1 <= x2 x3'"),
    ("x1 <= -", 2, "empty or incomplete side in 'x1 <= -'"),
    ("x1 >=", 2, "empty or incomplete side in 'x1 >='"),
    ("# only a comment", 2, "empty constraint"),
    ("x9 <= -", 4, "empty or incomplete side in 'x9 <= -'"),
    ("x1 + x2 + x7 <= 1", 4,
     "variable x7 out of range (n=4) in 'x1 + x2 + x7 <= 1'"),
    ("x6 + x5 <= 1", 4, "variable x6 out of range (n=4) in 'x6 + x5 <= 1'"),
    ("x1 + x5 - x5 <= 2", 4,
     "variable x5 out of range (n=4) in 'x1 + x5 - x5 <= 2'"),
    ("x1 + x2 + x3 <= 1", 4,
     "more than two positive or two negative occurrences in "
     "'x1 + x2 + x3 <= 1'"),
    ("x1 + x2 + x3 >= 1", 4,
     "more than two positive or two negative occurrences in "
     "'x1 + x2 + x3 >= 1'"),
]


@pytest.mark.parametrize("text,n,want", PARSE_TABLE)
def test_parse_table(text, n, want):
    if isinstance(want, str):
        with pytest.raises(ParseError) as info:
            parse_atomic(text, n)
        assert str(info.value) == want
    else:
        c = parse_atomic(text, n)
        assert (c.i, c.j, c.p, c.q, c.m) == want
        assert type(c.m) is Fraction


@pytest.mark.parametrize(
    "positives,negatives,want",
    [
        ([3, 1, 2], [], "[1, 2, 3]"),
        ([], [3, 0, 1, 2], "[1, 2, 3]"),
    ],
)
def test_make_constraint_overfull_side(positives, negatives, want):
    with pytest.raises(ValueError) as info:
        make_constraint(positives, negatives, 1)
    assert str(info.value) == f"more than two variable occurrences: {want}"


def test_make_constraint_cancels_and_ignores_x0():
    c = make_constraint([1, 2, 3, 0], [1, 2, 3, 4, 0], 1)
    assert c == Constraint4(0, 4, 0, 0, Fraction(1))
    assert type(c.m) is Fraction
    assert make_constraint([2], [], INF).m is INF


class TestComplement:
    def test_permutes_indices(self):
        c = Constraint4(1, 2, 3, 4, Fraction(0))
        assert complement(c).indices() == (2, 1, 4, 3)

    def test_involution(self):
        c = Constraint4(1, 2, 3, 4, Fraction(7))
        assert complement(complement(c)) == c

    def test_negates_normal_vector(self):
        c = Constraint4(1, 2, 3, 0, Fraction(0))
        v = normal_vector(c, 4)
        w = normal_vector(complement(c), 4)
        assert tuple(-x for x in v) == w


class TestNormalVector:
    def test_direct_evaluation(self):
        c = Constraint4(1, 2, 3, 0, Fraction(0))
        assert normal_vector(c, 4) == (1, 1, -1, -1, 0)

    def test_with_x0_in_negative_slot(self):
        c = Constraint4(1, 0, 2, 3, Fraction(0))
        assert normal_vector(c, 4) == (-1, 1, -1, 1, 0)

    def test_all_zero_indices(self):
        c = Constraint4(0, 0, 0, 0, Fraction(0))
        assert normal_vector(c, 3) == (0, 0, 0, 0)

    def test_doubled_entries(self):
        c = Constraint4(1, 2, 2, 1, Fraction(0))
        assert normal_vector(c, 2) == (0, 2, -2)


class TestParseConstraints:
    def test_comments_and_blank_lines(self):
        text = "# header\nx1 <= 4\n\nx2 - x1 <= 3  # trailing\n"
        cs, n = parse_constraints(text)
        assert len(cs) == 2 and n == 2

    def test_infers_n(self):
        cs, n = parse_constraints("x7 <= 0")
        assert n == 7

    def test_explicit_n_validates(self):
        with pytest.raises(ParseError):
            parse_constraints("x7 <= 0", n=3)

    def test_empty_text_gives_minimum_n(self):
        cs, n = parse_constraints("# nothing\n")
        assert cs == [] and n == 1

    def test_cancelled_variable_still_sets_n(self):
        cs, n = parse_constraints("x1 + x5 - x5 <= 2\nx3 - x3 <= 0  # x9\n")
        assert n == 5
        assert cs == [
            Constraint4(1, 0, 0, 0, Fraction(2)),
            Constraint4(0, 0, 0, 0, Fraction(0)),
        ]

    def test_explicit_n_names_first_out_of_range_variable(self):
        with pytest.raises(ParseError) as info:
            parse_constraints("x1 <= 1\nx7 + x6 <= 2", n=5)
        assert str(info.value) == (
            "variable x7 out of range (n=5) in 'x7 + x6 <= 2'"
        )

    def test_first_bad_line_wins(self):
        with pytest.raises(ParseError) as info:
            parse_constraints("x1 + x2 + x3 <= 1\nx1 + y <= 2")
        assert str(info.value) == (
            "more than two positive or two negative occurrences in "
            "'x1 + x2 + x3 <= 1'"
        )


# --- canonical form properties --------------------------------------------

_vars = st.integers(min_value=0, max_value=5)
_bounds = st.fractions(
    min_value=Fraction(-100), max_value=Fraction(100), max_denominator=12
)


@st.composite
def constraints(draw):
    pos = draw(st.lists(_vars, min_size=0, max_size=2))
    neg = draw(st.lists(_vars, min_size=0, max_size=2))
    return make_constraint(pos, neg, draw(_bounds))


@given(constraints())
@settings(deadline=None)
def test_roundtrip_identity(c):
    assert parse_atomic(format_constraint(c), 5) == c


@given(constraints())
@settings(deadline=None)
def test_normal_vector_coordinates_sum_to_zero(c):
    assert sum(normal_vector(c, 5)) == 0


@given(constraints())
@settings(deadline=None)
def test_complement_vectors_cancel(c):
    v = normal_vector(c, 5)
    w = normal_vector(complement(c), 5)
    assert all(a + b == 0 for a, b in zip(v, w))


def test_bound_formatting():
    assert format_bound(Fraction(-3, 2)) == "-3/2"
    assert format_bound(Fraction(4, 2)) == "2"
    assert format_bound(INF) == "inf"
    assert format_bound(-INF) == "-inf"
    assert parse_rational("-3/2") == Fraction(-3, 2)
    with pytest.raises(ParseError):
        parse_rational("1.5")


def test_zero_denominator_is_a_parse_error():
    for text in ("1/0", "-7/0", "0/0"):
        with pytest.raises(ParseError, match="zero denominator"):
            parse_rational(text)
    with pytest.raises(ParseError, match="zero denominator in 'x1 <= 1/0'"):
        parse_atomic("x1 <= 1/0", 1)
    with pytest.raises(ParseError, match="zero denominator"):
        parse_constraints("x1 <= 2\n3/0 + x2 >= x1\n")

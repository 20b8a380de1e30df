from fractions import Fraction as F

import pytest
from hypothesis import given
from hypothesis import strategies as st

from kspoly.algebra import (
    ONE,
    X,
    Y,
    BivariatePoly,
    format_rational,
    parse_rational,
    rising_factorial,
)

rationals = st.fractions(min_value=-10, max_value=10, max_denominator=12)
exponents = st.tuples(st.integers(0, 4), st.integers(0, 4))
polys = st.builds(
    BivariatePoly, st.dictionaries(exponents, rationals, max_size=6)
)


# -- parsing ---------------------------------------------------------------


def test_parse_rational_roundtrip():
    for text in ("-2/9", "3", "0", "17/4", "-5"):
        assert format_rational(parse_rational(text)) == text


def test_parse_rational_normalizes():
    assert parse_rational("4/6") == F(2, 3)
    assert format_rational(F(4, 6)) == "2/3"


@pytest.mark.parametrize("bad", ["3.5", "1e3", "x", "1/0", "2/-3", ""])
def test_parse_rational_rejects_inexact(bad):
    with pytest.raises(ValueError):
        parse_rational(bad)


# -- polynomial arithmetic ---------------------------------------------------


def test_add_cancellation():
    assert (X + ONE) + (-1 * X) == ONE


def test_add_identity():
    p = X * X * Y - 3 * Y
    assert p + BivariatePoly.zero() == p


def test_add_like_terms():
    p = BivariatePoly.monomial(2, 1)
    assert p + p == BivariatePoly.monomial(2, 1, 2)


def test_mul_difference_of_squares():
    assert (X + Y) * (X - Y) == X * X - Y * Y


def test_mul_identity():
    p = 5 * X * Y - ONE
    assert p * ONE == p


def test_mul_binomial_square():
    # (x + kappa1/beta)^2 with beta=2, kappa1=1
    p = X + F(1, 2) * ONE
    assert p * p == X * X + X + F(1, 4) * ONE


def test_diff_basic():
    assert (X**3 * Y).diff("x") == 3 * X * X * Y
    assert (Y * Y).diff("y", 2) == 2 * ONE
    assert BivariatePoly.constant(7).diff("x") == BivariatePoly.zero()


def test_diff_order_zero_and_negative():
    p = X * Y
    assert p.diff("x", 0) == p
    with pytest.raises(ValueError):
        p.diff("x", -1)


def test_degree_conventions():
    assert BivariatePoly.zero().degree == -1
    assert ONE.degree == 0
    assert (X * Y * Y).degree == 3


def test_halve_even_exponents():
    # x^2 - 1/(1+beta) at beta=3 maps to x - 1/4
    p = X * X - F(1, 4) * ONE
    assert p.halve_even_exponents() == X - F(1, 4) * ONE
    assert ONE.halve_even_exponents() == ONE
    assert (X * X * Y**4).halve_even_exponents() == X * Y * Y


def test_halve_rejects_odd_exponent():
    with pytest.raises(ValueError):
        (X * Y * Y).halve_even_exponents()


def test_negate_and_swap():
    p = X * X * Y - 2 * X + ONE
    assert p.negate_var("x") == X * X * Y + 2 * X + ONE
    assert p.negate_var("y") == -1 * X * X * Y - 2 * X + ONE
    assert p.swap_vars() == Y * Y * X - 2 * Y + ONE


def test_canonical_record_order():
    p = X * X - F(1, 4) * ONE + 3 * X * Y
    recs = p.to_records()
    # degree ascending, x-exponent descending within a degree
    assert recs == [
        {"i": 0, "j": 0, "c": "-1/4"},
        {"i": 2, "j": 0, "c": "1"},
        {"i": 1, "j": 1, "c": "3"},
    ]
    assert BivariatePoly.from_records(recs) == p


def test_rejects_negative_exponent():
    with pytest.raises(ValueError):
        BivariatePoly({(-1, 0): F(1)})


# -- rising factorial --------------------------------------------------------


def test_rising_factorial_values():
    assert rising_factorial(F(7, 3), 0) == 1
    assert rising_factorial(F(1, 2), 2) == F(3, 4)
    # (beta-1)/2 at beta=3, one factor
    assert rising_factorial(F(3 - 1, 2), 1) == 1
    assert rising_factorial(F(-2), 3) == 0


# -- ring properties -----------------------------------------------------------


@given(polys, polys, polys)
def test_add_mul_axioms(a, b, c):
    assert (a + b) + c == a + (b + c)
    assert a + b == b + a
    assert (a * b) * c == a * (b * c)
    assert a * b == b * a
    assert a * (b + c) == a * b + a * c


@given(polys)
def test_diff_commutes(p):
    assert p.diff("x").diff("y") == p.diff("y").diff("x")


@given(rationals, rationals)
def test_fraction_inverse(a, b):
    if a and b:
        assert (a / b) * (b / a) == 1


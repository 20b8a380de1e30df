from fractions import Fraction as F
from math import gcd, perm

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
    assert BivariatePoly.zero() + p == p
    assert (BivariatePoly.zero() - BivariatePoly.zero()).is_zero()


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


def test_is_monic():
    p = X * X * Y - F(1, 2) * Y + F(1, 3) * X
    assert p.is_monic(2, 1)
    assert not p.is_monic(1, 2)  # no x y^2 term
    assert not (2 * p).is_monic(2, 1)  # leading coefficient 2
    assert not (F(1, 2) * p).is_monic(2, 1)
    assert not (p + X * Y * Y).is_monic(2, 1)  # a second term of degree 3
    assert not (p + X**4).is_monic(2, 1)
    assert not BivariatePoly.zero().is_monic(0, 0)
    assert ONE.is_monic(0, 0)


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


@pytest.mark.parametrize(
    "make",
    [
        lambda: BivariatePoly({(0, 0): 0.1}),
        lambda: BivariatePoly.constant(0.5),
        lambda: BivariatePoly.monomial(2, 1, 0.25),
    ],
)
def test_rejects_float_coefficients(make):
    # Fraction(0.1) would store the binary expansion 3602879701896397/2**55
    with pytest.raises(ValueError, match="not an int or a Fraction"):
        make()


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



# -- the integer kernel against Fraction reference loops -------------------------
#
# The kernel stores integer numerators over one reduced denominator.  These
# loops are the Fraction-dict arithmetic it replaced; the kernel must give
# exactly their coefficients, in canonical storage.  Ring axioms alone would
# not catch a normalisation that is wrong the same way on both sides.


def assert_canonical(t):
    """Storage invariant: positive denominator, no common factor with the
    numerators, no zero numerators, denominator 1 for the zero map."""
    assert type(t._den) is int and t._den > 0
    assert all(type(c) is int and c for c in t._num.values())
    assert gcd(t._den, *t._num.values()) == 1
    if not t._num:
        assert t._den == 1


def coeffs(t):
    """A polynomial or operator as a plain {key: Fraction} dict."""
    out = dict(t.items())
    assert all(type(c) is F for c in out.values())
    return out


def accumulate(out, key, inc):
    """out[key] += inc in place, dropping a sum that cancels to zero."""
    tot = out.get(key, F(0)) + inc
    if tot:
        out[key] = tot
    else:
        out.pop(key, None)


def ref_add(a, b):
    out = dict(a)
    for key, c in b.items():
        accumulate(out, key, c)
    return out


def ref_scale(a, c):
    return {key: v * c for key, v in a.items()} if c else {}


def ref_mul(a, b):
    out = {}
    for (i1, j1), c1 in a.items():
        for (i2, j2), c2 in b.items():
            accumulate(out, (i1 + i2, j1 + j2), c1 * c2)
    return out


def ref_diff(a, var, order):
    out = {}
    for (i, j), c in a.items():
        e = i if var == "x" else j
        if e >= order:
            key = (i - order, j) if var == "x" else (i, j - order)
            out[key] = c * perm(e, order)
    return out


# denominators 15 and 7 are coprime; 6, 4 and 12 share factors
COPRIME = (
    BivariatePoly({(1, 0): F(1, 3), (0, 0): F(-2, 5)}),
    BivariatePoly({(1, 0): F(1, 7), (2, 1): F(3)}),
)
SHARED = (
    BivariatePoly({(1, 0): F(1, 6), (0, 2): F(5, 4)}),
    BivariatePoly({(1, 0): F(-1, 6), (0, 2): F(-1, 12), (3, 0): F(7, 4)}),
)
SCALARS = (0, 1, -1, 3, F(-3, 4), F(5, 6), F(-12, 5))


def check_linear_ops(a, b, c):
    """+, -, neg and scalar * of the kernel against the reference, a whole
    cancellation (a - a) and a partial one (a + (b - a)) included."""
    ta, tb = coeffs(a), coeffs(b)
    cases = [
        (a + b, ref_add(ta, tb)),
        (a - b, ref_add(ta, ref_scale(tb, -1))),
        (-a, ref_scale(ta, -1)),
        (a - a, {}),
        (a + (b - a), ref_add(ta, ref_add(tb, ref_scale(ta, -1)))),
        (a * c, ref_scale(ta, F(c))),
        (c * a, ref_scale(ta, F(c))),
    ]
    for got, want in cases:
        assert_canonical(got)
        assert coeffs(got) == want


@pytest.mark.parametrize("a, b", [COPRIME, SHARED, COPRIME[::-1], (SHARED[0], COPRIME[1])])
@pytest.mark.parametrize("c", SCALARS)
def test_linear_ops_match_reference_examples(a, b, c):
    check_linear_ops(a, b, c)


@given(polys, polys, rationals)
def test_linear_ops_match_reference(a, b, c):
    check_linear_ops(a, b, c)


def check_mul_and_diff(a, b):
    ta, tb = coeffs(a), coeffs(b)
    cases = [
        (a * b, ref_mul(ta, tb)),
        (a * (b - b), {}),
        (a * (-b), ref_mul(ta, ref_scale(tb, -1))),
    ]
    cases += [(a.diff(v, k), ref_diff(ta, v, k)) for v in "xy" for k in range(4)]
    cases += [
        (a.negate_var("x"), {(i, j): (-c if i % 2 else c) for (i, j), c in ta.items()}),
        (a.swap_vars(), {(j, i): c for (i, j), c in ta.items()}),
        ((a * a).scaled_part(2, F(-4, 9)),
         {k: c * F(-4, 9) for k, c in ref_mul(ta, ta).items() if sum(k) == 2}),
        (a.scaled_part(1, 0), {}),
    ]
    even = BivariatePoly({(2 * i, 2 * j): c for (i, j), c in ta.items()})
    cases.append((even.halve_even_exponents(), ta))
    for got, want in cases:
        assert_canonical(got)
        assert coeffs(got) == want


@pytest.mark.parametrize("a, b", [COPRIME, SHARED, (SHARED[1], SHARED[1])])
def test_mul_and_diff_match_reference_examples(a, b):
    check_mul_and_diff(a, b)


@given(polys, polys)
def test_mul_and_diff_match_reference(a, b):
    check_mul_and_diff(a, b)


@given(polys, rationals)
def test_equal_values_have_equal_storage(p, c):
    z = BivariatePoly.zero()
    assert_canonical(z)
    assert (z._num, z._den) == ({}, 1)
    for q in ((p * F(2, 3)) * F(3, 2), (p + p) * F(1, 2), p - z, (p + X) - X):
        assert q == p and hash(q) == hash(p)
    assert p - p == z and hash(p - p) == hash(z)
    assert p * 0 == z and hash(p * 0) == hash(z)
    if c:
        assert (p * c) * (1 / c) == p and hash((p * c) * (1 / c)) == hash(p)


def test_constructor_reduces_to_canonical_storage():
    p = BivariatePoly({(0, 0): F(2, 4), (1, 0): 3, (0, 1): F(-5, 6), (2, 2): 0})
    assert_canonical(p)
    assert (p._num, p._den) == ({(0, 0): 3, (1, 0): 18, (0, 1): -5}, 6)
    assert BivariatePoly({(0, 0): F(4, 6)}) == BivariatePoly({(0, 0): F(2, 3)})
    assert coeffs(p) == {(0, 0): F(1, 2), (1, 0): F(3), (0, 1): F(-5, 6)}
    assert p.coefficient(0, 1) == F(-5, 6) and p.coefficient(3, 3) == 0

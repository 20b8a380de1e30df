from fractions import Fraction as F
from math import comb, perm
from random import Random

import pytest
from hypothesis import given
from hypothesis import strategies as st

from kspoly.algebra import ONE, X, Y, BivariatePoly
from kspoly.catalog import CASES, operator_L, sample_params
from kspoly.weyl import DiffOp
from test_algebra import (
    COPRIME,
    SHARED,
    accumulate,
    assert_canonical,
    coeffs,
    ref_add,
    ref_scale,
)

rationals = st.fractions(min_value=-6, max_value=6, max_denominator=8)
poly_exponents = st.tuples(st.integers(0, 3), st.integers(0, 3))
polys = st.builds(
    BivariatePoly, st.dictionaries(poly_exponents, rationals, max_size=5)
)


def op_keys(max_order):
    return st.tuples(
        st.integers(0, 2),
        st.integers(0, 2),
        st.integers(0, max_order),
        st.integers(0, max_order),
    ).filter(lambda k: k[2] + k[3] <= max_order)


def ops(max_order=2):
    return st.builds(
        DiffOp, st.dictionaries(op_keys(max_order), rationals, max_size=4)
    )


DX = DiffOp.partial(1, 0)
MX = DiffOp.from_poly(X)


# -- application ---------------------------------------------------------------


def test_euler_operator():
    euler = DiffOp.coeff_term(X, 1, 0)
    assert euler.apply(X**3) == 3 * X**3


def test_apply_to_zero():
    anything = DiffOp({(1, 2, 2, 1): F(3, 7), (0, 0, 1, 0): 2})
    assert anything.apply(BivariatePoly.zero()) == BivariatePoly.zero()


def test_apply_kills_low_degree():
    assert DiffOp.partial(2, 0).apply(X) == BivariatePoly.zero()


# -- composition -----------------------------------------------------------------


def test_canonical_commutation():
    assert DX @ MX == DiffOp({(1, 0, 1, 0): 1, (0, 0, 0, 0): 1})


def test_leibniz_second_order():
    assert DiffOp.partial(2, 0) @ MX == DiffOp(
        {(1, 0, 2, 0): 1, (0, 0, 1, 0): 2}
    )


def test_commutator_dx_x():
    assert DX.commutator(MX) == DiffOp.identity()


def test_self_commutator_vanishes():
    a = DiffOp({(1, 1, 1, 0): F(2, 3), (0, 0, 0, 2): -1})
    assert a.commutator(a).is_zero()


def test_left_mul_example():
    two_x_minus_one = 2 * X - ONE
    # p * op as an operator is the composition from_poly(p) @ op
    assert DiffOp.from_poly(two_x_minus_one) @ DiffOp.identity() == DiffOp.from_poly(
        two_x_minus_one
    )


def test_scale_and_add_cancel():
    a = DiffOp({(0, 1, 1, 1): F(5, 2), (2, 0, 0, 0): 1})
    assert (a + (-1) * a).is_zero()


def test_order_property():
    assert DiffOp.zero().order == -1
    assert DiffOp.identity().order == 0
    assert DiffOp({(0, 0, 2, 1): 1, (5, 5, 1, 0): 1}).order == 3


def test_records_roundtrip_and_order():
    a = DiffOp({(1, 0, 1, 0): 2, (0, 0, 0, 0): F(-1, 3), (0, 1, 0, 2): 1})
    recs = a.to_records()
    assert [(r["k"], r["l"]) for r in recs] == [(0, 0), (1, 0), (0, 2)]
    assert DiffOp.from_records(recs) == a


# -- properties -------------------------------------------------------------------


@given(ops(), ops(), polys)
def test_composition_is_application(a, b, p):
    assert (a @ b).apply(p) == a.apply(b.apply(p))


@given(ops(), ops(), ops())
def test_composition_associative(a, b, c):
    assert (a @ b) @ c == a @ (b @ c)


@given(ops(), ops())
def test_commutator_antisymmetric(a, b):
    assert a.commutator(b) == (-1) * b.commutator(a)


@given(ops(), ops(), ops())
def test_commutator_bilinear(a, b, c):
    assert a.commutator(b + c) == a.commutator(b) + a.commutator(c)
    assert (2 * a).commutator(b) == 2 * a.commutator(b)


@given(ops(max_order=1), ops(max_order=1), ops(max_order=1))
def test_jacobi_identity(a, b, c):
    total = (
        a.commutator(b.commutator(c))
        + b.commutator(c.commutator(a))
        + c.commutator(a.commutator(b))
    )
    assert total.is_zero()


def test_rejects_negative_indices():
    with pytest.raises(ValueError):
        DiffOp({(0, 0, -1, 0): F(1)})


# -- the integer kernel against Fraction reference loops -------------------------
#
# The Fraction-dict loops the integer-numerator kernel replaced; apply, @ and
# left multiplication by a polynomial (from_poly(p) @ op) must give exactly
# their coefficients, in canonical storage.


def ref_apply(op, p):
    out = {}
    for (i, j, k, l), c in op.items():
        for (a, b), pc in p.items():
            if a >= k and b >= l:
                inc = c * pc * perm(a, k) * perm(b, l)
                accumulate(out, (a - k + i, b - l + j), inc)
    return out


def ref_compose(left, right):
    out = {}
    for (i1, j1, k1, l1), c1 in left.items():
        for (i2, j2, k2, l2), c2 in right.items():
            for r in range(min(k1, i2) + 1):
                for s in range(min(l1, j2) + 1):
                    inc = c1 * c2 * comb(k1, r) * perm(i2, r) * comb(l1, s) * perm(j2, s)
                    key = (i1 + i2 - r, j1 + j2 - s, k1 - r + k2, l1 - s + l2)
                    accumulate(out, key, inc)
    return out


def ref_left_mul(op, p):
    out = {}
    for (a, b), pc in p.items():
        for (i, j, k, l), c in op.items():
            accumulate(out, (i + a, j + b, k, l), pc * c)
    return out


def check_kernel(a, b, p):
    ta, tb, tp = coeffs(a), coeffs(b), coeffs(p)
    cases = [
        (a.apply(p), ref_apply(ta, tp)),
        (a @ b, ref_compose(ta, tb)),
        (DiffOp.from_poly(p) @ a, ref_left_mul(ta, tp)),
        (a.commutator(b), ref_add(ref_compose(ta, tb), ref_scale(ref_compose(tb, ta), -1))),
        (a + b, ref_add(ta, tb)),
        (a - a, {}),
        (a * F(-3, 4), ref_scale(ta, F(-3, 4))),
        (DiffOp.coeff_term(p, 1, 2), {(i, j, 1, 2): c for (i, j), c in tp.items()}),
    ]
    for got, want in cases:
        assert_canonical(got)
        assert coeffs(got) == want


@given(ops(), ops(), polys)
def test_kernel_matches_reference(a, b, p):
    check_kernel(a, b, p)


EULER_MINUS_3 = DiffOp({(1, 0, 1, 0): 1, (0, 1, 0, 1): 1, (0, 0, 0, 0): -3})


@pytest.mark.parametrize("case", CASES)
def test_catalog_kernel_matches_reference(case):
    # the catalog's own L: coefficients with shared and coprime denominators
    L = operator_L(sample_params(case, Random(case)))
    for p in (*COPRIME, *SHARED, X * X * Y - F(2, 9) * Y):
        check_kernel(L, L, p)
        check_kernel(L, DiffOp.from_poly(p), p)


def test_kernel_cancellation_matches_reference():
    # x Dx + y Dy - 3 kills every homogeneous cubic
    cubic = X * X * Y * F(2, 7) - Y * Y * Y * F(5, 3)
    assert EULER_MINUS_3.apply(cubic).is_zero()
    check_kernel(EULER_MINUS_3, DX, cubic)
    check_kernel(DX @ MX, MX @ DX, cubic - ONE * F(1, 6))
    assert_canonical(DX.commutator(MX) - DiffOp.identity())

from fractions import Fraction as F
from math import comb, perm
import sys
import threading
from random import Random

import pytest
from hypothesis import given
from hypothesis import strategies as st

from kspoly.algebra import ONE, X, Y, BivariatePoly
from kspoly.catalog import CASES, CaseParams, generic_operators, operator_L, sample_params
from kspoly.weyl import DiffOp, GenericOp
from test_algebra import (
    COPRIME,
    SHARED,
    accumulate,
    assert_canonical,
    coeffs,
    ref_add,
    ref_apply,
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


def mul_op(p):
    """The multiplication operator f -> p*f."""
    return DiffOp({(i, j, 0, 0): c for (i, j), c in p.items()})


DX = DiffOp.partial(1, 0)
MX = DiffOp({(1, 0, 0, 0): 1})


# -- application ---------------------------------------------------------------


def test_euler_operator():
    euler = MX @ DX
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
    # p * op as an operator is the composition mul_op(p) @ op
    assert mul_op(two_x_minus_one) @ DiffOp.identity() == mul_op(two_x_minus_one)


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
# The Fraction-dict loops the integer-numerator kernel replaced (ref_apply,
# shared with test_algebra's combination references, and the two below);
# apply, @ and left multiplication by a polynomial (mul_op(p) @ op) must
# give exactly their coefficients, in canonical storage.


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
        (mul_op(p) @ a, ref_left_mul(ta, tp)),
        (a.commutator(b), ref_add(ref_compose(ta, tb), ref_scale(ref_compose(tb, ta), -1))),
        (a + b, ref_add(ta, tb)),
        (a - a, {}),
        (a * F(-3, 4), ref_scale(ta, F(-3, 4))),
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
        check_kernel(L, mul_op(p), p)


def test_kernel_cancellation_matches_reference():
    # x Dx + y Dy - 3 kills every homogeneous cubic
    cubic = X * X * Y * F(2, 7) - Y * Y * Y * F(5, 3)
    assert EULER_MINUS_3.apply(cubic).is_zero()
    check_kernel(EULER_MINUS_3, DX, cubic)
    check_kernel(DX @ MX, MX @ DX, cubic - ONE * F(1, 6))
    assert_canonical(DX.commutator(MX) - DiffOp.identity())


# -- the memo of monomial images ------------------------------------------------
#
# apply reuses each operator's images of x^a y^b across calls; a cache of exact
# values, so every result must still be the reference rule's, in canonical
# storage, whatever the order of the calls and whichever operator is derived
# from a used one.


def assert_applies(op, p):
    got = op.apply(p)
    assert_canonical(got)
    assert coeffs(got) == ref_apply(coeffs(op), coeffs(p))


@given(ops(), st.lists(polys, min_size=1, max_size=6))
def test_memo_matches_reference_in_any_call_order(op, ps):
    for p in ps + ps[::-1]:
        assert_applies(op, p)


@given(ops(), st.lists(polys, max_size=4))
def test_memo_leaves_equality_and_hash_alone(op, ps):
    fresh = DiffOp.from_records(op.to_records())
    assert op == fresh and hash(op) == hash(fresh)
    for p in ps:
        op.apply(p)
    assert op == fresh and hash(op) == hash(fresh)


@given(ops(), ops(), polys)
def test_operators_derived_from_a_used_one_apply_correctly(op, q, p):
    op.apply(p)
    for derived in (op + q, op * F(-3, 4), op * 2, -op, op - op, q - op):
        assert_applies(derived, p)
    assert_applies(op, p)


def test_subtracting_zero_returns_the_used_operator():
    L = operator_L(sample_params("I", Random(3)))
    p = X * X * Y - F(2, 9) * Y + ONE
    assert_applies(L, p)
    same = L - DiffOp.zero()
    assert same is L
    assert DiffOp.zero() + L is L
    assert_applies(same, p * F(5, 3) + X**3)


def test_second_apply_computes_no_new_image(monkeypatch):
    images = []
    true_image = DiffOp._image

    def counted(num, a, b):
        images.append((a, b))
        return true_image(num, a, b)

    monkeypatch.setattr(DiffOp, "_image", counted)
    L = operator_L(sample_params("III", Random(5)))
    p = X**3 * Y - F(4, 7) * X * Y + Y * Y + ONE
    first = L.apply(p)
    assert sorted(images) == [(0, 0), (0, 2), (1, 1), (3, 1)]
    assert L.apply(p) == first
    assert L.apply(p * F(-2, 3)) == first * F(-2, 3)
    assert len(images) == 4
    L.apply(X**4)  # a new monomial is computed once
    assert images[4:] == [(4, 0)]


def test_threads_sharing_one_operator_get_reference_results():
    # threads may fill the same memo entry, or the memo itself, at once; each
    # fill stores equal values, so no interleaving can change a result
    params = sample_params("III", Random(11))
    ps = [(X + Y * F(k, 3)) ** (k % 5 + 2) - X * Y * k for k in range(1, 13)]
    want = [operator_L(params).apply(p) for p in ps]
    shared = operator_L(params)
    wrong = []

    def work(order):
        for k in order:
            if shared.apply(ps[k]) != want[k]:
                wrong.append(k)

    old = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        orders = [list(range(shift, 12)) + list(range(shift)) for shift in (0, 3, 6, 9, 1, 7)]
        threads = [threading.Thread(target=work, args=(o,)) for o in orders]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=30)
    finally:
        sys.setswitchinterval(old)
    assert not any(t.is_alive() for t in threads)
    assert wrong == []


# -- operators over Q[beta, kappa1, kappa2, N] ------------------------------------


def generic_ops(max_order=2):
    keys = st.tuples(op_keys(max_order), st.tuples(*[st.integers(0, 2)] * 4))
    return st.builds(
        GenericOp,
        st.dictionaries(keys.map(lambda pair: pair[0] + pair[1]), rationals, max_size=4),
    )


params = st.builds(CaseParams, st.just("I"), rationals, rationals, rationals)


@given(generic_ops(), generic_ops(), params, rationals)
def test_generic_ops_specialise_term_by_term(a, b, q, N):
    # at() maps the parameter ring onto Q, so it respects every operation
    for got, want in [
        (a @ b, a.at(q, N) @ b.at(q, N)),
        (a.commutator(b), a.at(q, N).commutator(b.at(q, N))),
        (a + b, a.at(q, N) + b.at(q, N)),
        (a * F(-3, 4), a.at(q, N) * F(-3, 4)),
    ]:
        assert_canonical(got)
        assert got.at(q, N) == want


def test_generic_generators():
    x, y, dx, dy, beta, k1, k2, n = (GenericOp.generator(index) for index in range(8))
    one = GenericOp({(0,) * 8: 1})
    assert dx @ x - x @ dx == one
    assert dy @ y - y @ dy == one
    for p in (beta, k1, k2, n):  # the parameters and N are central
        for g in (x, y, dx, dy):
            assert p.commutator(g).is_zero()
    term = beta @ beta @ k2 @ x @ dy
    assert term == GenericOp({(1, 0, 0, 1, 2, 0, 1, 0): 1})
    q = CaseParams("I", F(3, 2), F(-1, 3), F(5))
    assert term.at(q) == F(45, 4) * DiffOp({(1, 0, 0, 1): 1})
    assert [r["c"] for r in (term - beta).to_records()] == ["-1", "1"]
    # N enters like a parameter; an operator without it ignores N
    assert (n @ n @ beta @ dx).at(q, F(2, 3)) == F(2, 3) * DiffOp.partial(1, 0)
    assert term.at(q, 7) == term.at(q)
    with pytest.raises(ValueError, match="depends on N"):
        (n @ dx).at(q)


@pytest.mark.parametrize("N", [0.1, 0.5])
def test_generic_at_rejects_a_float_level(N):
    # a float is its binary expansion, not the level it displays: 0.1 would
    # enter as 3602879701896397/36028797018963968
    q = CaseParams("I", F(3, 2), F(-1, 3), F(5))
    for op in (generic_operators("I").raising[0], GenericOp.generator(4)):
        with pytest.raises(ValueError, match=f"^N must be an int or a Fraction, not {N!r}$"):
            op.at(q, N)


@pytest.mark.parametrize("N", [True, False])
def test_generic_at_rejects_a_bool_level(N):
    # True is an int to isinstance, but no level: it would enter as N = 1
    q = CaseParams("I", F(3, 2), F(-1, 3), F(5))
    for op in (generic_operators("I").raising[0], GenericOp.generator(4)):
        with pytest.raises(ValueError, match=f"^N must be an int or a Fraction, not {N!r}$"):
            op.at(q, N)

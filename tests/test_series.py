import random
import re
from fractions import Fraction as F
from math import factorial, gcd

import pytest

from kspoly.algebra import ONE, X, Y, BivariatePoly
from kspoly.catalog import CaseParams, sample_params
from kspoly.errors import ParameterError
from kspoly.series import (
    Series2,
    binomial_series,
    extract_polys,
    genfun,
    genfun_derivative_residuals,
    normalization,
)
from kspoly.triangle import build_oracle

S = lambda order: Series2.term(order, 1, 0, ONE)
T = lambda order: Series2.term(order, 0, 1, ONE)


# -- reference: series as dicts (a, b) -> BivariatePoly -------------------------
#
# Plain loops over polynomial coefficients, independent of Series2's integer
# numerators; every Series2 operation must equal them exactly.


def lift(order, coeffs):
    return Series2(
        order,
        {(a, b, i, j): c for (a, b), p in coeffs.items() for (i, j), c in p.items()},
    )


def ref_add(f, g):
    out = dict(f)
    for key, p in g.items():
        out[key] = out.get(key, BivariatePoly.zero()) + p
    return {key: p for key, p in out.items() if not p.is_zero()}


def ref_scale(f, c):
    return ref_add({}, {key: p * c for key, p in f.items()})


def ref_mul(order, f, g):
    out = {}
    for (a1, b1), p1 in f.items():
        for (a2, b2), p2 in g.items():
            key = (a1 + a2, b1 + b2)
            if key[0] + key[1] <= order:
                out = ref_add(out, {key: p1 * p2})
    return out


def ref_exp(order, f):
    acc = power = {(0, 0): ONE}
    for k in range(1, order + 1):
        power = ref_mul(order, power, f)
        if not power:
            break
        acc = ref_add(acc, ref_scale(power, F(1, factorial(k))))
    return acc


def ref_diff(f, var):
    out = {}
    for (a, b), p in f.items():
        if var == "s" and a > 0:
            out[(a - 1, b)] = p * a
        elif var == "t" and b > 0:
            out[(a, b - 1)] = p * b
    return out


def ref_truncated(order, f):
    return {key: p for key, p in f.items() if key[0] + key[1] <= order}


def expect(f, order, ref):
    """f is the series ref at the given order, stored canonically."""
    assert f.order == order
    assert f._den > 0
    assert gcd(f._den, *f._num.values()) == 1
    assert all(f._num.values())
    if not f._num:
        assert f._den == 1
    assert f.coefficients() == ref
    assert all(f.coefficient(a, b) == p for (a, b), p in ref.items())
    assert f == lift(order, ref)


# shared: every coefficient over 6; coprime: denominators from distinct primes
DENOMINATORS = {"integer": (1,), "shared": (6,), "coprime": (2, 3, 5, 7)}


def random_coeffs(rng, order, dens, constant=True):
    out = {}
    for _ in range(rng.randrange(6)):
        a = rng.randrange(order + 1)
        b = rng.randrange(order + 1 - a)
        if (a, b) == (0, 0) and not constant:
            continue
        c = F(rng.randrange(-5, 6), rng.choice(dens))
        out = ref_add(out, {(a, b): BivariatePoly.monomial(rng.randrange(3), rng.randrange(3), c)})
    return out


@pytest.mark.parametrize("dens", DENOMINATORS.values(), ids=DENOMINATORS)
def test_ring_operations_match_reference(dens):
    rng = random.Random(len(dens) * 31 + dens[0])
    for _ in range(40):
        order = rng.randrange(5)
        f_ref = random_coeffs(rng, order, dens)
        g_ref = random_coeffs(rng, order, dens)
        f, g = lift(order, f_ref), lift(order, g_ref)
        expect(f, order, f_ref)
        expect(f + g, order, ref_add(f_ref, g_ref))
        expect(f - g, order, ref_add(f_ref, ref_scale(g_ref, -1)))
        expect(-f, order, ref_scale(f_ref, -1))
        expect(f * g, order, ref_mul(order, f_ref, g_ref))
        # full and partial cancellation, in sums and in products
        expect(f - f, order, {})
        h_ref = ref_add(g_ref, {k: -p for k, p in f_ref.items() if rng.random() < 0.5})
        expect(f + lift(order, h_ref), order, ref_add(f_ref, h_ref))
        expect((f + g) * (f - g), order, ref_add(ref_mul(order, f_ref, f_ref),
                                                 ref_scale(ref_mul(order, g_ref, g_ref), -1)))
        for c in (0, -1, F(-3, 4), F(5, 6), 6):
            expect(f * c, order, ref_scale(f_ref, c))
            expect(c * f, order, ref_scale(f_ref, c))


@pytest.mark.parametrize("dens", DENOMINATORS.values(), ids=DENOMINATORS)
def test_exp_diff_truncated_match_reference(dens):
    rng = random.Random(len(dens) * 17 + dens[0])
    for _ in range(15):
        order = rng.randrange(1, 5)
        f_ref = random_coeffs(rng, order, dens, constant=False)
        f = lift(order, f_ref)
        expect(f.exp(), order, ref_exp(order, f_ref))
        for var in ("s", "t"):
            expect(f.diff(var), order - 1, ref_diff(f_ref, var))
        for k in range(order + 1):
            expect(f.truncated(k), k, ref_truncated(k, f_ref))
        assert f.truncated(order) is f


# -- ring operations -----------------------------------------------------------


def test_mul_truncates():
    one_plus_s = Series2.one(2) + S(2)
    one_minus_s = Series2.one(2) - S(2)
    assert one_plus_s * one_minus_s == Series2(2, {(0, 0, 0, 0): 1, (2, 0, 0, 0): -1})


def test_mul_identity():
    f = Series2(3, {(1, 0, 1, 0): 1, (0, 2, 0, 2): 1, (3, 0, 0, 0): 1})
    assert f * Series2.one(3) == f


def test_square_of_sum():
    st = S(2) + T(2)
    assert st * st == Series2(2, {(2, 0, 0, 0): 1, (1, 1, 0, 0): 2, (0, 2, 0, 0): 1})


def test_scale_by_scalar_and_poly():
    f = Series2(2, {(1, 0, 1, 0): 1, (0, 1, 0, 0): 1})
    assert 2 * f == Series2(2, {(1, 0, 1, 0): 2, (0, 1, 0, 0): 2})
    assert f * Series2.term(2, 0, 0, Y) == Series2(2, {(1, 0, 1, 1): 1, (0, 1, 0, 1): 1})
    # a polynomial enters a product only lifted by Series2.term
    with pytest.raises(TypeError):
        f * Y


def test_order_mismatch_rejected():
    with pytest.raises(ValueError):
        Series2.one(2) + Series2.one(3)
    with pytest.raises(ValueError):
        Series2.one(2) - Series2.one(3)
    with pytest.raises(ValueError):
        Series2.one(2) * Series2.one(3)


def test_series_hash_agrees_with_eq():
    # equal series built two ways hash equal; the order is part of both
    built = Series2.one(2) + S(2)
    direct = Series2(2, {(0, 0, 0, 0): 1, (1, 0, 0, 0): 1})
    assert built == direct and hash(built) == hash(direct)
    assert {built, direct, Series2.one(2)} == {direct, Series2.one(2)}
    assert Series2.one(2) != Series2.one(3)
    assert len({Series2.one(2), Series2.one(3)}) == 2


def test_coefficient_beyond_order_rejected():
    with pytest.raises(ValueError):
        Series2(1, {(2, 0, 0, 0): 1})


@pytest.mark.parametrize(
    "order, terms",
    [(-1, {}), (2, {(1, -1, 0, 0): 1}), (2, {(1, 0, 0, 0): X}), (2, {(1, 0): 1})],
    ids=["negative-order", "negative-index", "polynomial-value", "two-indices"],
)
def test_constructor_rejects_malformed_terms(order, terms):
    with pytest.raises(ValueError):
        Series2(order, terms)


def test_truncation_rejects_a_negative_or_larger_order():
    # a negative order gets the constructor's message
    with pytest.raises(ValueError, match="^truncation order must be nonnegative, not -1$"):
        Series2.one(3).truncated(-1)
    with pytest.raises(ValueError, match="cannot extend a truncation from order 3 to 4"):
        Series2.one(3).truncated(4)


@pytest.mark.parametrize("order", [True, False, 1.5, 2.0])
def test_order_must_be_an_int(order):
    # a bool or a float order once made a series of order True or 1.5
    message = re.escape(f"truncation order must be an int, not {order!r}") + "$"
    with pytest.raises(ValueError, match=message):
        Series2(order)
    with pytest.raises(ValueError, match=message):
        Series2.one(2).truncated(order)
    with pytest.raises(ValueError, match=message):
        genfun(CaseParams("IX", F(7, 3)), order)


def test_series_records_round_trip():
    g = Series2(1, {(0, 0, 0, 0): 1, (1, 0, 1, 0): F(-1, 2)})
    assert g.to_records() == [
        {"a": 0, "b": 0, "i": 0, "j": 0, "c": "1"},
        {"a": 1, "b": 0, "i": 1, "j": 0, "c": "-1/2"},
    ]
    assert Series2.from_records(1, g.to_records()) == g
    assert str(g) == "1 - 1/2*sx"
    assert str(Series2.zero(3)) == "0"


# -- exp ------------------------------------------------------------------------


def test_exp_zero():
    assert Series2.zero(4).exp() == Series2.one(4)


def test_exp_of_sx():
    g = Series2.term(3, 1, 0, X).exp()
    assert g == Series2(
        3,
        {
            (0, 0, 0, 0): 1,
            (1, 0, 1, 0): 1,
            (2, 0, 2, 0): F(1, 2),
            (3, 0, 3, 0): F(1, 6),
        },
    )


def test_exp_requires_zero_constant():
    with pytest.raises(ValueError):
        Series2.one(3).exp()


def test_exp_inverse_property():
    rng = random.Random(4)
    for _ in range(5):
        coeffs = {
            (a, b): BivariatePoly(
                {(rng.randrange(3), rng.randrange(3)): F(rng.randrange(-4, 5))}
            )
            for a, b in [(1, 0), (0, 1), (1, 1), (2, 0)]
        }
        f = lift(4, coeffs)
        assert f.exp() * (-f).exp() == Series2.one(4)


# -- binomial series ---------------------------------------------------------------


def test_binomial_power_zero():
    u = Series2.term(4, 1, 0, X)
    assert binomial_series(u, 0) == Series2.one(4)


def test_binomial_first_order_term():
    # (1 - t/beta)^(-kappa2): t-coefficient is kappa2/beta
    beta, kappa2 = F(7, 2), F(3, 5)
    u = Series2.term(3, 0, 1, BivariatePoly.constant(-1 / beta))
    g = binomial_series(u, -kappa2)
    assert g.coefficient(0, 1) == BivariatePoly.constant(kappa2 / beta)


def test_binomial_sqrt_squares_back():
    u = Series2(6, {(1, 0, 1, 0): 1, (0, 1, 0, 1): -2, (1, 1, 0, 0): 1})
    half = binomial_series(u, F(1, 2))
    assert half * half == Series2.one(6) + u


def test_binomial_integer_power_is_the_product():
    # (1 + u)^r is a polynomial in u for an integer r >= 0, while u^(r+1)
    # does not vanish at this order: the recurrence's higher parts cancel
    u = Series2(
        6, {(1, 0, 1, 0): F(2, 3), (0, 1, 0, 1): -2, (1, 1, 0, 0): 1, (0, 2, 0, 0): F(-1, 5)}
    )
    one_plus_u = Series2.one(6) + u
    assert not (u * u * u * u).is_zero()
    assert binomial_series(u, 2) == one_plus_u * one_plus_u
    assert binomial_series(u, 3) == one_plus_u * one_plus_u * one_plus_u


@pytest.mark.parametrize("r", [0.1, True, False])
def test_binomial_rejects_a_float_or_a_bool_exponent(r):
    # 0.1 entered as its binary expansion, 3602879701896397/36028797018963968
    message = f"^binomial exponent must be an int or a Fraction, not {r}$"
    with pytest.raises(ValueError, match=message):
        binomial_series(Series2.term(3, 1, 0, X), r)


def test_binomial_requires_zero_constant():
    with pytest.raises(ValueError):
        binomial_series(Series2.one(3), F(1, 2))


# -- the theta-recurrence against the power sum -----------------------------------


def power_sum(u, ratio):
    # a reference independent of the theta-recurrence: sum c_k u^k up to u's
    # order, c_0 = 1 and c_k = c_(k-1) * ratio(k), with one truncated product
    # per power; it stops once the power or c_k vanishes
    if not u.coefficient(0, 0).is_zero():
        raise ValueError("the series must have a zero constant term")
    acc = power = Series2.one(u.order)
    c = F(1)
    for k in range(1, u.order + 1):
        power = power * u
        c *= ratio(k)
        if power.is_zero() or not c:
            break
        acc = acc + power * c
    return acc


def theta_operand(order, dens):
    # s and t terms with x, y coefficients, one mixed and one cubic term,
    # over the given denominators, truncated at order
    d = lambda k: dens[k % len(dens)]
    terms = {
        (1, 0, 1, 0): F(2, d(0)), (1, 0, 0, 0): F(-1, d(1)),
        (0, 1, 0, 1): F(-3, d(2)), (0, 1, 1, 1): F(1, d(3)),
        (1, 1, 0, 0): F(5, d(1)), (0, 3, 0, 1): F(-1, d(0)),
    }
    return Series2(order, {k: c for k, c in terms.items() if k[0] + k[1] <= order})


@pytest.mark.parametrize("dens", DENOMINATORS.values(), ids=DENOMINATORS)
def test_exp_matches_the_power_sum(dens):
    for order in range(9):
        u = theta_operand(order, dens)
        expect(u.exp(), order, power_sum(u, lambda k: F(1, k)).coefficients())


@pytest.mark.parametrize("dens", DENOMINATORS.values(), ids=DENOMINATORS)
@pytest.mark.parametrize("r", [0, 1, 3, -1, F(1, 2), F(-7, 3)], ids=str)
def test_binomial_matches_the_power_sum(r, dens):
    for order in range(9):
        u = theta_operand(order, dens)
        ref = power_sum(u, lambda k: (r - k + 1) / F(k))
        expect(binomial_series(u, r), order, ref.coefficients())


def test_diff_shift_and_scale():
    f = Series2(3, {(2, 1, 1, 0): 1, (1, 0, 0, 1): 1})
    assert f.diff("s") == Series2(2, {(1, 1, 1, 0): 2, (0, 0, 0, 1): 1})
    assert f.diff("t") == Series2(2, {(2, 0, 1, 0): 1})


# -- generating functions ------------------------------------------------------------


def test_genfun_case_v_left_edge_reduction():
    # at t = 0 the expansion is exp(s(x + kappa1/beta))
    p = CaseParams("V", F(5, 2), F(1, 3), F(-2, 7))
    g = genfun(p, 5)
    base = X + (p.kappa1 / p.beta) * ONE
    fact = 1
    for m in range(6):
        if m:
            fact *= m
        assert g.coefficient(m, 0) == F(1, fact) * base**m


def test_genfun_case_v_right_edge_is_laguerre_family():
    p = CaseParams("V", F(5, 2), F(1, 3), F(-2, 7))
    table = extract_polys(genfun(p, 5), p)
    oracle = build_oracle(p, 5)
    for n in range(6):
        assert table[(0, n)] == oracle.entry(0, n)


def test_genfun_case_viii_first_t_coefficient():
    p = CaseParams("VIII", F(7, 2), F(2, 3), F(-1, 5))
    g = genfun(p, 4)
    assert g.coefficient(0, 1) == Y + (p.kappa2 / p.beta) * ONE


def test_genfun_case_ix_first_s_coefficient():
    for beta in (F(3), F(9, 4)):
        p = CaseParams("IX", beta)
        g = genfun(p, 4)
        assert g.coefficient(1, 0) == (beta - 1) * X


def test_genfun_unsupported_case():
    with pytest.raises(ParameterError):
        genfun(CaseParams("II", F(5, 2), F(1, 3), F(1, 5)), 4)


def test_normalization_values():
    p = CaseParams("IX", F(3))
    assert normalization(p, 1, 0) == 2  # 2 * (beta-1)/2
    assert normalization(p, 1, 1) == 8  # 4 * (1)(2)
    assert normalization(CaseParams("V", F(2), F(1), F(1)), 3, 2) == 1


@pytest.mark.parametrize("case", ("V", "VIII", "IX"))
def test_extraction_matches_oracle(case):
    rng = random.Random(len(case) + 40)
    p = sample_params(case, rng)
    table = extract_polys(genfun(p, 6), p)
    oracle = build_oracle(p, 6)
    for node in oracle.nodes():
        assert table[node] == oracle.entry(*node)


def test_extraction_detects_wrong_normalization():
    # expanding at one beta and normalizing at another cannot stay monic
    g = genfun(CaseParams("IX", F(3)), 4)
    with pytest.raises(ParameterError):
        extract_polys(g, CaseParams("IX", F(7, 2)))


def test_case_v_derivative_identities():
    rng = random.Random(90)
    p = sample_params("V", rng)
    r1, r2 = genfun_derivative_residuals(p, genfun(p, 7))
    assert r1.is_zero()
    assert r2.is_zero()


def residuals_by_products(params, expansion):
    # a reference independent of the shifted accumulation: the residuals as
    # products and differences of whole series
    b, k1, k2 = params.beta, params.kappa1, params.kappa2
    order = expansion.order - 1
    g = expansion.truncated(order)
    dgs = expansion.diff("s")
    dgt = expansion.diff("t")
    bt = Series2(order, {(0, 0, 0, 0): b, (0, 1, 0, 0): -1})
    bt2 = bt * bt
    first = bt2 * dgs - (Series2(order, {(0, 0, 1, 0): b * b}) + bt * k1) * g
    second = (
        bt2 * dgt
        - Series2(order, {(1, 0, 0, 0): 2}) * bt * dgs
        - (
            Series2(order, {(0, 0, 0, 1): b * b})
            + bt * k2
            - Series2(order, {(1, 0, 0, 0): k1})
        )
        * g
    )
    return (first, second)


@pytest.mark.parametrize("seed", range(3))
def test_derivative_residuals_match_the_product_form(seed):
    p = sample_params("V", random.Random(seed))
    for order in range(2, 7):
        g = genfun(p, order)
        residuals = genfun_derivative_residuals(p, g)
        assert residuals == residuals_by_products(p, g)
        assert all(r.is_zero() and r.order == order - 1 for r in residuals)
        # +1 on the first stored term at each (a, b): nonzero residuals,
        # still term for term the product form's
        for a, b in [(0, 0), (1, 0), (0, 1), (1, 1), (order, 0), (0, order)]:
            key = min(k for k in g._num if k[:2] == (a, b))
            terms = dict(g.items())
            terms[key] += 1
            wrong = Series2(order, terms)
            residuals = genfun_derivative_residuals(p, wrong)
            assert residuals == residuals_by_products(p, wrong)
            assert not all(r.is_zero() for r in residuals), (order, key)


def test_derivative_residuals_reject_an_order_0_expansion():
    # the expansion's own diff message, not that of an order -1 truncation
    p = CaseParams("V", F(7, 2), F(1, 3), F(-2, 5))
    with pytest.raises(ValueError, match="^an order-0 truncation determines no derivative terms$"):
        genfun_derivative_residuals(p, genfun(p, 0))


def full_coeffs(rng, order, dens):
    # a nonzero polynomial at every (a, b) up to order
    return {
        (a, n - a): BivariatePoly.monomial(
            rng.randrange(3), rng.randrange(3), F(rng.choice([-2, -1, 1, 3]), rng.choice(dens))
        )
        for n in range(order + 1)
        for a in range(n + 1)
    }


@pytest.mark.parametrize("dens", DENOMINATORS.values(), ids=DENOMINATORS)
def test_mul_matches_reference_for_short_and_full_operands(dens):
    # one operand of 1-3 terms, either side, and two full series
    rng = random.Random(7 * len(dens) + dens[0])
    for order in range(1, 6):
        full_ref = full_coeffs(rng, order, dens)
        full = lift(order, full_ref)
        for size in (1, 2, 3):
            short_ref = {
                key: BivariatePoly.monomial(
                    rng.randrange(2), rng.randrange(2), F(rng.randrange(1, 5), rng.choice(dens))
                )
                for key in rng.sample(sorted(full_ref), size)
            }
            short = lift(order, short_ref)
            expect(short * full, order, ref_mul(order, short_ref, full_ref))
            expect(full * short, order, ref_mul(order, full_ref, short_ref))
        other_ref = full_coeffs(rng, order, dens)
        expect(full * lift(order, other_ref), order, ref_mul(order, full_ref, other_ref))


def test_derivative_identities_belong_to_case_v():
    p = CaseParams("VIII", F(7, 2), F(1, 3), F(-2, 5))
    with pytest.raises(ParameterError, match="^derivative identity case must be one of V, not 'VIII'$"):
        genfun_derivative_residuals(p, genfun(p, 3))


def test_diff_rejects_an_unknown_variable_and_an_order_zero_truncation():
    with pytest.raises(ParameterError, match="^series variable must be one of s, t, not 'x'$"):
        Series2.one(2).diff("x")
    with pytest.raises(ValueError, match="^an order-0 truncation determines no derivative terms$"):
        Series2.one(0).diff("s")


@pytest.mark.parametrize(
    "a, b, message",
    [
        (True, 0, "an int, not True"),
        (0, False, "an int, not False"),
        (1.0, 0, "an int, not 1.0"),
        (0, F(1), "an int, not Fraction(1, 1)"),
        (-1, 0, "nonnegative, not -1"),
        (0, -2, "nonnegative, not -2"),
    ],
)
def test_coefficient_rejects_an_inexact_or_negative_exponent(a, b, message):
    # coefficient(True, 0) and coefficient(1.0, 0) once read s^1, and
    # coefficient(-1, 0) read 0
    f = Series2(3, {(1, 0, 1, 0): 2, (0, 0, 0, 0): 1})
    with pytest.raises(ValueError, match="^series exponent must be " + re.escape(message) + "$"):
        f.coefficient(a, b)


def test_coefficient_reads_one_group_canonically():
    f = Series2(3, {(1, 0, 0, 0): F(1, 6), (1, 0, 1, 1): F(-1, 3), (0, 2, 0, 0): F(5, 4)})
    c = f.coefficient(1, 0)
    assert c == BivariatePoly({(0, 0): F(1, 6), (1, 1): F(-1, 3)})
    assert (c._den, c._num) == (6, {(0, 0): 1, (1, 1): -2})  # reduced from f's 12
    assert f.coefficient(2, 1).is_zero() and f.coefficient(2, 1)._den == 1


@pytest.mark.parametrize(
    "params",
    [
        CaseParams("V", F(7, 2), F(1, 3), F(-2, 5)),
        CaseParams("VIII", F(-5, 3), F(1, 3), F(-2, 5)),
        CaseParams("IX", F(9, 4)),
    ],
)
def test_extract_polys_scales_each_coefficient_once(params):
    g = genfun(params, 5)
    table = extract_polys(g, params)
    coeffs = g.coefficients()
    for (m, n), p in table.items():
        scale = factorial(m) * factorial(n) / normalization(params, m, n)
        assert p == coeffs[(m, n)] * scale
        assert gcd(p._den, *p._num.values()) == 1

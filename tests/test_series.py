import random
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
        Series2.one(2) * Series2.one(3)


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


def test_binomial_requires_zero_constant():
    with pytest.raises(ValueError):
        binomial_series(Series2.one(3), F(1, 2))


def test_diff_shift_and_scale():
    f = Series2(3, {(2, 1, 1, 0): 1, (1, 0, 0, 1): 1})
    assert f.diff("s") == Series2(2, {(1, 1, 1, 0): 2, (0, 0, 0, 1): 1})
    assert f.diff("t") == Series2(2, {(2, 0, 1, 0): 1})


# -- generating functions ------------------------------------------------------------


def test_genfun_case_v_left_edge_reduction():
    # at t = 0 the expansion is exp(s(x + kappa1/beta))
    p = CaseParams("V", F(5, 2), F(1, 3), F(-2, 7), 5)
    g = genfun(p, 5)
    base = X + (p.kappa1 / p.beta) * ONE
    fact = 1
    for m in range(6):
        if m:
            fact *= m
        assert g.coefficient(m, 0) == F(1, fact) * base**m


def test_genfun_case_v_right_edge_is_laguerre_family():
    p = CaseParams("V", F(5, 2), F(1, 3), F(-2, 7), 5)
    table = extract_polys(genfun(p, 5), p)
    oracle = build_oracle(p, 5)
    for n in range(6):
        assert table[(0, n)] == oracle.entry(0, n)


def test_genfun_case_viii_first_t_coefficient():
    p = CaseParams("VIII", F(7, 2), F(2, 3), F(-1, 5), 4)
    g = genfun(p, 4)
    assert g.coefficient(0, 1) == Y + (p.kappa2 / p.beta) * ONE


def test_genfun_case_ix_first_s_coefficient():
    for beta in (F(3), F(9, 4)):
        p = CaseParams("IX", beta, nmax_hint=4)
        g = genfun(p, 4)
        assert g.coefficient(1, 0) == (beta - 1) * X


def test_genfun_unsupported_case():
    with pytest.raises(ParameterError):
        genfun(CaseParams("II", F(5, 2), F(1, 3), F(1, 5), 4), 4)


def test_normalization_values():
    p = CaseParams("IX", F(3), nmax_hint=4)
    assert normalization(p, 1, 0) == 2  # 2 * (beta-1)/2
    assert normalization(p, 1, 1) == 8  # 4 * (1)(2)
    assert normalization(CaseParams("V", F(2), F(1), F(1), 4), 3, 2) == 1


@pytest.mark.parametrize("case", ("V", "VIII", "IX"))
def test_extraction_matches_oracle(case):
    rng = random.Random(len(case) + 40)
    p = sample_params(case, rng, nmax_hint=6)
    table = extract_polys(genfun(p, 6), p)
    oracle = build_oracle(p, 6)
    for node in oracle.nodes():
        assert table[node] == oracle.entry(*node)


def test_extraction_detects_wrong_normalization():
    # expanding at one beta and normalizing at another cannot stay monic
    g = genfun(CaseParams("IX", F(3), nmax_hint=4), 4)
    with pytest.raises(ParameterError):
        extract_polys(g, CaseParams("IX", F(7, 2), nmax_hint=4))


def test_case_v_derivative_identities():
    rng = random.Random(90)
    p = sample_params("V", rng, nmax_hint=6)
    r1, r2 = genfun_derivative_residuals(p, 6)
    assert r1.is_zero()
    assert r2.is_zero()

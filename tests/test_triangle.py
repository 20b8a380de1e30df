import contextlib
import copy
import json
import random
from fractions import Fraction as F
from itertools import product
from math import comb, factorial, lcm

import pytest
from hypothesis import given
from hypothesis import strategies as st

from kspoly import catalog, triangle
from kspoly.algebra import ONE, BivariatePoly, X, Y, _Unreduced, rising_factorial
from kspoly.catalog import (
    CASES,
    STENCILS,
    CaseParams,
    RecurrenceStep,
    alpha,
    commuting_ops,
    eigenvalue,
    generic_operators,
    operator_L,
    raising_denominators,
    raising_ops,
    recurrence_step,
    sample_params,
)
from kspoly.errors import (
    AdmissibilityError,
    KspolyError,
    ParameterError,
    StencilError,
    TransferError,
)
from kspoly.triangle import (
    _apply_step,
    build_ladder,
    build_oracle,
    build_recurrence,
    build_transfer,
    dumps_json,
    stencil_sum,
    triangle_from_json,
    triangle_to_csv,
    triangle_to_json,
    triangle_to_latex,
)
from kspoly.verify import (
    check_action_formulas,
    check_operators,
    full_suite,
    mutated_operator_set,
    perturb_term,
)
from kspoly.weyl import DiffOp, _Family, _Level

BUILDER_LIST = (build_oracle, build_recurrence, build_ladder, build_transfer)


# -- frozen low-degree values -------------------------------------------------


def test_oracle_degree_one_seeds():
    rng = random.Random(2)
    for case in CASES:
        for _ in range(5):
            p = sample_params(case, rng)
            t = build_oracle(p, 1)
            assert t.entry(0, 0) == ONE
            assert t.entry(1, 0) == X + (p.kappa1 / p.beta) * ONE
            assert t.entry(0, 1) == Y + (p.kappa2 / p.beta) * ONE


def test_oracle_case_ix_low_degree_table():
    for beta in (F(3), F(7, 2), F(9, 4)):
        p = CaseParams("IX", beta)
        t = build_oracle(p, 3)
        c1 = F(1) / (1 + beta)
        c3 = F(1) / (3 + beta)
        assert t.entry(2, 0) == X * X - c1 * ONE
        assert t.entry(1, 1) == X * Y
        assert t.entry(0, 2) == Y * Y - c1 * ONE
        assert t.entry(3, 0) == X * (X * X - 3 * c3 * ONE)
        assert t.entry(2, 1) == Y * (X * X - c3 * ONE)
        assert t.entry(1, 2) == X * (Y * Y - c3 * ONE)
        assert t.entry(0, 3) == Y * (Y * Y - 3 * c3 * ONE)


def test_oracle_case_v_known_p11():
    p = CaseParams("V", F(2), F(1), F(1))
    t = build_oracle(p, 2)
    expected = (X + F(1, 2) * ONE) * (Y + F(1, 2) * ONE) + (X + F(1, 4) * ONE)
    assert t.entry(1, 1) == expected


def test_recurrence_case_v_left_edge_powers():
    p = CaseParams("V", F(7, 3), F(2, 5), F(-3, 4))
    t = build_recurrence(p, 6)
    base = X + (p.kappa1 / p.beta) * ONE
    for m in range(7):
        assert t.entry(m, 0) == base**m


def test_ladder_case_viii_right_edge_powers():
    p = CaseParams("VIII", F(5, 2), F(1, 3), F(-2, 7))
    t = build_ladder(p, 6)
    base = Y + (p.kappa2 / p.beta) * ONE
    for n in range(7):
        assert t.entry(0, n) == base**n


def test_ladder_case_ix_first_step():
    t = build_ladder(CaseParams("IX", F(3)), 1)
    assert t.entry(1, 0) == X


# -- cross-method agreement ---------------------------------------------------


def test_recurrence_case_ii_matches_oracle():
    p = CaseParams("II", F(5, 2), F(1, 3), F(2, 7))
    assert build_recurrence(p, 6).same_polys(build_oracle(p, 6))


def test_ladder_case_iii_matches_oracle():
    p = CaseParams("III", F(7, 2), F(1, 3), F(-2, 7))
    assert build_ladder(p, 5).same_polys(build_oracle(p, 5))


@pytest.mark.parametrize("case", CASES)
def test_all_builders_agree(case):
    rng = random.Random(hash(case) & 0xFFFF)
    p = sample_params(case, rng)
    oracle = build_oracle(p, 5)
    for builder in (build_recurrence, build_ladder, build_transfer):
        assert builder(p, 5).same_polys(oracle), builder.__name__


@pytest.mark.parametrize("case", CASES)
def test_recurrence_route_reads_both_axes_off_the_edges(case, monkeypatch):
    # every case takes one route, y to the targets with m < n and x to the
    # rest, so the table runs a y-step from m >= 1 and an x-step from n >= 1
    steps = []
    true_apply = triangle._apply_step

    def spy(step, entries):
        steps.append(step)
        return true_apply(step, entries)

    monkeypatch.setattr(triangle, "_apply_step", spy)
    build_recurrence(sample_params(case, random.Random(0)), 6)
    y_sources = [s.source for s in steps if s.target[1] > s.source[1]]
    x_sources = [s.source for s in steps if s.target[0] > s.source[0]]
    assert any(m >= 1 for m, _ in y_sources), y_sources
    assert any(n >= 1 for _, n in x_sources), x_sources


@pytest.mark.parametrize("case", ("III", "VIII"))
def test_check_reads_the_y_relation_off_the_right_edge(case, monkeypatch):
    # the y-tail coefficient at offset (-1, 0) carries a factor m, so it
    # vanishes on the right edge: doubled, it breaks only the steps off it
    true_tail = catalog._recurrence_tail

    def mutant(case_id, axis, *args):
        tail = true_tail(case_id, axis, *args)
        if (case_id, axis) != (case, "y"):
            return tail
        return tuple((dm, dn, 2 * c if (dm, dn) == (-1, 0) else c) for dm, dn, c in tail)

    monkeypatch.setattr(catalog, "_recurrence_tail", mutant)
    report = full_suite(sample_params(case, random.Random(0)), 6)
    assert "agreement[recurrence]" in [r.name for r in report.failures()]


@pytest.mark.parametrize("case", CASES)
def test_monicity_and_eigen_invariant(case):
    rng = random.Random(len(case))
    p = sample_params(case, rng)
    L = operator_L(p)
    for builder in BUILDER_LIST:
        t = builder(p, 4)
        for m, n in t.nodes():
            poly = t.entry(m, n)
            assert poly.coefficient(m, n) == 1
            assert all(
                i + j < m + n for (i, j), _ in poly.items() if (i, j) != (m, n)
            )
            assert L.apply(poly) == eigenvalue(p, m + n) * poly


@pytest.mark.parametrize("case", CASES)
def test_edge_ode(case):
    from kspoly.catalog import edge_operators

    rng = random.Random(ord(case[0]))
    p = sample_params(case, rng)
    t = build_oracle(p, 5)
    lx, ly = edge_operators(p)
    for k in range(5):
        lam = eigenvalue(p, k)
        if lx is not None:
            assert lx.apply(t.entry(k, 0)) == lam * t.entry(k, 0)
        if ly is not None:
            assert ly.apply(t.entry(0, k)) == lam * t.entry(0, k)


# -- the oracle against closed forms and maps between the families --------------


def closed_form(params, m, n, s_shift=-1):
    """P_{m,n} of case I, II, V or IX from its closed form, s = m + n + beta - 1:

        P_{m,n} = sum_{i<=m, j<=n} C(m,i) C(n,j) (-1)^(m+n-i-j)
                  [(-k1)_m/(-k1)_i] [(-k2)_n/(-k2)_j] [(s)_(i+j)/(s)_(m+n)] x^i y^j

    for case I (Appell's polynomials on the triangle).  Case II, the limit
    x -> x/eps, k1 -> k1/eps, eps -> 0, has k1^(m-i) in place of
    (-1)^(m-i) (-k1)_m/(-k1)_i and keeps (-1)^(n-j).  Case V, read off its
    generating function, has, with s = m + k2 instead,

        C(m,i) C(n,j) k1^(m-i) beta^(i+j-m-n) (s + i + j)_(n-j).

    Case IX, by its parity blocks, is x^e1 y^e2 times case I's form at
    (m // 2, n // 2), beta_e = (beta + 1)/2 + e1 + e2 and kappa_e =
    (-1/2 - e1, -1/2 - e2), read in x^2, y^2, where (e1, e2) = (m % 2, n % 2).

    ``s_shift`` moves s, for a mutant: s_shift = 0 adds 1 to s."""
    b, k1, k2 = params.beta, params.kappa1, params.kappa2
    if params.case_id == "IX":
        e1, e2 = m % 2, n % 2
        image = CaseParams("I", (b + 1) / 2 + e1 + e2, F(-1, 2) - e1, F(-1, 2) - e2)
        terms = closed_form(image, m // 2, n // 2, s_shift).items()
        return BivariatePoly({(2 * i + e1, 2 * j + e2): c for (i, j), c in terms})
    terms = {}
    if params.case_id == "V":
        s = m + k2 + 1 + s_shift
        for i, j in product(range(m + 1), range(n + 1)):
            power = k1 ** (m - i) * b ** (i + j - m - n)
            terms[(i, j)] = comb(m, i) * comb(n, j) * power * rising_factorial(s + i + j, n - j)
        return BivariatePoly(terms)
    s = m + n + b + s_shift
    for i in range(m + 1):
        if params.case_id == "I":
            xi = (-1) ** (m - i) * rising_factorial(-k1, m) / rising_factorial(-k1, i)
        else:
            xi = k1 ** (m - i)
        for j in range(n + 1):
            yj = (-1) ** (n - j) * rising_factorial(-k2, n) / rising_factorial(-k2, j)
            s_ratio = rising_factorial(s, i + j) / rising_factorial(s, m + n)
            terms[(i, j)] = comb(m, i) * comb(n, j) * xi * yj * s_ratio
    return BivariatePoly(terms)


CLOSED_FORM_PARAMS = [
    sample_params(case, random.Random(f"closed-form/{case}/{k}"))
    for case in ("I", "II")
    for k in range(3)
] + [CaseParams("I", F(-7, 2), F(1, 3), F(2, 7))]

CASE_V_CLOSED_FORM_PARAMS = [sample_params("V", random.Random(f"closed-form/V/{k}")) for k in range(3)] + [
    CaseParams("V", F(-7, 2), F(1, 3), F(2, 7)),
    CaseParams("V", F(2), F(1), F(-3)),
]


CASE_IX_CLOSED_FORM_PARAMS = [
    sample_params("IX", random.Random(f"closed-form/IX/{k}")) for k in range(3)
] + [CaseParams("IX", F(3)), CaseParams("IX", F(-7, 2))]


def assert_oracle_matches_the_closed_form(params):
    t = build_oracle(params, 8)
    for m, n in t.nodes():
        assert t.entry(m, n) == closed_form(params, m, n), (m, n)
    # a mutant with s + 1: beta + 1 in I and II (beta_e + 1 in IX), kappa2 + 1 in V
    assert any(t.entry(m, n) != closed_form(params, m, n, s_shift=0) for m, n in t.nodes())


@pytest.mark.parametrize(
    "params", CLOSED_FORM_PARAMS, ids=lambda p: f"{p.case_id}:{p.beta},{p.kappa1},{p.kappa2}"
)
def test_oracle_matches_the_closed_forms_of_cases_i_and_ii(params):
    assert_oracle_matches_the_closed_form(params)


@pytest.mark.parametrize(
    "params", CASE_V_CLOSED_FORM_PARAMS, ids=lambda p: f"{p.case_id}:{p.beta},{p.kappa1},{p.kappa2}"
)
def test_oracle_matches_the_closed_form_of_case_v(params):
    assert_oracle_matches_the_closed_form(params)


@pytest.mark.parametrize(
    "params", CASE_IX_CLOSED_FORM_PARAMS, ids=lambda p: f"{p.case_id}:{p.beta}"
)
def test_oracle_matches_the_closed_form_of_case_ix(params):
    assert_oracle_matches_the_closed_form(params)


def case_viii_closed_form(params, m, n, mutant=None):
    """P_{m,n} of case VIII, read off the exponent s a + t c + s t / beta +
    s^2 q + s^3 r of its generating function:

        P_{m,n} = m! n! sum_{j,k,l} a^i c^(n-j) q^k r^l / (i! (n-j)! j! k! l! beta^j)

    over i = m - j - 2k - 3l >= 0 and j <= n, where a = x + k1/beta,
    c = y + k2/beta, q = y/beta + k2/(2 beta^2) and r = 2/(3 beta^2).

    ``mutant`` "r" takes r = 1/(3 beta^2), and "q" takes k2/beta^2 in q."""
    b, k1, k2 = params.beta, params.kappa1, params.kappa2
    a = X + (k1 / b) * ONE
    c = Y + (k2 / b) * ONE
    q = (1 / b) * Y + (k2 / (b * b if mutant == "q" else 2 * b * b)) * ONE
    r = F(1 if mutant == "r" else 2, 3) / (b * b)
    total = BivariatePoly({})
    for j, k, l in product(range(n + 1), range(m // 2 + 1), range(m // 3 + 1)):
        i = m - j - 2 * k - 3 * l
        if i < 0:
            continue
        scale = r**l / (factorial(i) * factorial(n - j) * factorial(j) * factorial(k)
                        * factorial(l) * b**j)
        total = total + scale * (a**i * c ** (n - j) * q**k)
    return factorial(m) * factorial(n) * total


@pytest.mark.parametrize(
    "params",
    [sample_params("VIII", random.Random(f"viii/{k}")) for k in range(3)]
    + [CaseParams("VIII", F(-5, 3), F(1, 3), F(2, 7)), CaseParams("VIII", F(2), F(1), F(-3))],
    ids=lambda p: f"{p.case_id}:{p.beta},{p.kappa1},{p.kappa2}",
)
def test_oracle_matches_the_multiple_sum_closed_form_of_case_viii(params):
    t = build_oracle(params, 8)
    for m, n in t.nodes():
        assert t.entry(m, n) == case_viii_closed_form(params, m, n), (m, n)
    for mutant in ("r", "q"):
        assert any(t.entry(m, n) != case_viii_closed_form(params, m, n, mutant) for m, n in t.nodes())


def moments(params, degree, shift=0):
    """The moments u(x^i y^j), i + j <= degree, of the functional with u(1) = 1
    for which the family is orthogonal, as integers over one denominator:
    (-k1)_i (-k2)_j / (beta)_{i+j} for case I; for case II, its limit,
    (-k1)^i in place of (-k1)_i; for case V, (-k1/beta)^i (-1/beta)^j
    (k2 + i)_j; for case IX, case I's at the block e = 00 in the squares,
    (1/2)_a (1/2)_b / ((beta + 1)/2)_{a+b} at (i, j) = (2a, 2b), and 0 at
    an odd exponent.  ``shift`` moves the Pochhammer index of beta (of k2 + i
    in case V, of (beta + 1)/2 in case IX), for a mutant."""
    b, k1, k2 = params.beta, params.kappa1, params.kappa2
    mu = {}
    for i in range(degree + 1):
        xi = rising_factorial(-k1, i) if params.case_id == "I" else (-k1) ** i
        for j in range(degree + 1 - i):
            if params.case_id == "IX":
                a, c = i // 2, j // 2
                half = rising_factorial(F(1, 2), a) * rising_factorial(F(1, 2), c)
                even = i % 2 == j % 2 == 0
                mu[i, j] = half / rising_factorial((b + 1) / 2, a + c + shift) if even else F(0)
            elif params.case_id == "V":
                mu[i, j] = (-k1 / b) ** i * (-1 / b) ** j * rising_factorial(k2 + i + shift, j)
            else:
                mu[i, j] = xi * rising_factorial(-k2, j) / rising_factorial(b, i + j + shift)
    return over_one_denominator(mu)


def over_one_denominator(mu):
    """The rational moments mu as integers over one common denominator."""
    den = lcm(*(v.denominator for v in mu.values()))
    return {key: v.numerator * (den // v.denominator) for key, v in mu.items()}


def pearson_equations(params, i, j):
    """Cases III's and VIII's Pearson equations at (i, j), each a list of
    (c, (i', j')) terms of sum c mu_{i'j'} = 0, led by its highest moment:
    the x equation, led by mu_{i+1,j}, then the y equation, led by
    mu_{i,j+1}.  A term at a negative index has coefficient 0."""
    b, k1, k2 = params.beta, params.kappa1, params.kappa2
    if params.case_id == "III":  # a11 = x^2, a12 = xy, a22 = y^2 + x
        return (
            [(b + i + j, (i + 1, j)), (k1, (i, j))],
            [(b + i + j, (i, j + 1)), (k2, (i, j)), (j, (i + 1, j - 1))],
        )
    # case VIII: a11 = y, a12 = 1, a22 = 0
    return (
        [(b, (i + 1, j)), (k1, (i, j)), (i, (i - 1, j + 1)), (j, (i, j - 1))],
        [(b, (i, j + 1)), (k2, (i, j)), (i, (i - 1, j))],
    )


def pearson_sum(terms, mu):
    return sum(c * mu[key] for c, key in terms if min(key) >= 0)


def pearson_moments(params, degree):
    """The moments u(x^i y^j), i + j <= degree, of the functional with u(1) = 1
    for which a case III or VIII family is orthogonal; neither has a closed
    form.  Degree by degree, the x equation at (d - 1, 0) fills mu_{d,0} and
    the y equation at each (i, j) with i + j = d - 1 fills mu_{i,j+1}."""
    mu = {(0, 0): F(1)}
    for d in range(1, degree + 1):
        fills = [pearson_equations(params, d - 1, 0)[0]]
        fills += [pearson_equations(params, i, d - 1 - i)[1] for i in range(d)]
        for (c, key), *rest in fills:
            mu[key] = -pearson_sum(rest, mu) / c
    return mu


def nonorthogonal_pairings(t, mu):
    """The count of pairs (P_{m,n}, x^a y^b) with a + b < m + n and
    u(x^a y^b P_{m,n}) != 0, by integer dot products."""
    count = 0
    for m, n in t.nodes():
        terms = list(t.entry(m, n).items())
        den = lcm(*(c.denominator for _, c in terms))
        coeffs = [(i, j, c.numerator * (den // c.denominator)) for (i, j), c in terms]
        for a in range(m + n):
            for b in range(m + n - a):
                count += sum(c * mu[i + a, j + b] for i, j, c in coeffs) != 0
    return count


@pytest.mark.parametrize(
    "params",
    CLOSED_FORM_PARAMS + CASE_V_CLOSED_FORM_PARAMS + CASE_IX_CLOSED_FORM_PARAMS,
    ids=lambda p: f"{p.case_id}:{p.beta},{p.kappa1},{p.kappa2}",
)
def test_oracle_is_orthogonal_for_the_closed_form_moments_of_cases_i_and_ii(params):
    # each P_{m,n} is orthogonal to every monomial of lower degree; the
    # inputs include case V's and case IX's draws, whose moments are closed
    # forms too
    t = build_oracle(params, 6)
    assert nonorthogonal_pairings(t, moments(params, 2 * t.nmax)) == 0
    # a mutant with (beta)_{i+j+1}, (k2 + i + 1)_j in case V, or
    # ((beta + 1)/2)_{i+j+1} in case IX
    assert nonorthogonal_pairings(t, moments(params, 2 * t.nmax, shift=1)) > 0


PEARSON_PARAMS = [
    sample_params(case, random.Random(f"moments/{case}/{k}")) for k in range(3)
    for case in ("III", "VIII")
] + [CaseParams(case, *point) for point in ((F(2), F(1), F(-3)), (F(-5, 3), F(1, 3), F(2, 7)))
     for case in ("III", "VIII")]


@pytest.mark.parametrize(
    "params", PEARSON_PARAMS, ids=lambda p: f"{p.case_id}:{p.beta},{p.kappa1},{p.kappa2}"
)
def test_oracle_is_orthogonal_for_the_pearson_moments_of_cases_iii_and_viii(params):
    # the moments filled by one equation of each degree satisfy the other,
    # the x equation off the row j = 0, at every (i, j) with i + j < 16
    t = build_oracle(params, 8)
    mu = pearson_moments(params, 2 * t.nmax)
    for i, j in product(range(2 * t.nmax), repeat=2):
        if i + j < 2 * t.nmax:
            assert pearson_sum(pearson_equations(params, i, j)[0], mu) == 0, (i, j)
    assert nonorthogonal_pairings(t, over_one_denominator(mu)) == 0
    # a mutant: the moments at kappa2 + 1
    shifted = CaseParams(params.case_id, params.beta, params.kappa1, params.kappa2 + 1)
    mutant = pearson_moments(shifted, 2 * t.nmax)
    assert nonorthogonal_pairings(t, over_one_denominator(mutant)) > 0


# (case, axis) -> (d beta, d kappa1, d kappa2): the derivative along the axis
# maps P_{m,n}(p) to m P_{m-1,n}(p') (n P_{m,n-1}(p') for y), p' = p + shift
DERIVATIVE_SHIFTS = {
    ("I", "x"): (2, -1, 0),
    ("I", "y"): (2, 0, -1),
    ("II", "x"): (2, 0, 0),
    ("II", "y"): (2, 0, -1),
    ("III", "y"): (2, 0, 0),
    ("V", "x"): (0, 0, 2),
    ("V", "y"): (0, 0, 1),
    ("VIII", "x"): (0, 0, 0),
    ("IX", "x"): (2, 0, 0),
    ("IX", "y"): (2, 0, 0),
}


@pytest.mark.parametrize("case, axis", DERIVATIVE_SHIFTS)
def test_derivative_maps_each_family_to_itself_at_shifted_parameters(case, axis):
    db, dk1, dk2 = DERIVATIVE_SHIFTS[case, axis]
    d = DiffOp.partial(1, 0) if axis == "x" else DiffOp.partial(0, 1)
    rng = random.Random(f"derivative/{case}/{axis}")
    for _ in range(2):
        p = sample_params(case, rng)
        q = CaseParams(case, p.beta + db, p.kappa1 + dk1, p.kappa2 + dk2)
        t, shifted = build_oracle(p, 8), build_oracle(q, 7)
        for m, n in t.nodes():
            k, below = (m, (m - 1, n)) if axis == "x" else (n, (m, n - 1))
            expected = k * shifted.entry(*below) if k else BivariatePoly.zero()
            assert d.apply(t.entry(m, n)) == expected, (p, m, n)


def test_case_ix_parity_blocks_are_case_i_in_the_squares():
    # P^IX_{2a+e1, 2b+e2}(x, y) = x^e1 y^e2 P^I_{a,b}(x^2, y^2), the case I
    # table at beta_e = (beta + 1)/2 + e1 + e2, kappa_e = (-1/2 - e1, -1/2 - e2)
    rng = random.Random("ix-parity")
    for _ in range(3):
        p = sample_params("IX", rng)
        t9 = build_oracle(p, 10)
        seen = set()
        for e1, e2 in product((0, 1), repeat=2):
            pe = CaseParams("I", (p.beta + 1) / 2 + e1 + e2, F(-1, 2) - e1, F(-1, 2) - e2)
            t1 = build_oracle(pe, (t9.nmax - e1 - e2) // 2)
            for a, b in t1.nodes():
                node = (2 * a + e1, 2 * b + e2)
                terms = t1.entry(a, b).items()
                image = BivariatePoly({(2 * i + e1, 2 * j + e2): c for (i, j), c in terms})
                assert t9.entry(*node) == image, (p, node)
                seen.add(node)
        assert seen == set(t9.nodes())  # the four blocks tile the table


# -- transfer specifics ---------------------------------------------------------


def test_transfer_annihilation_identities():
    rng = random.Random(31)
    p1 = sample_params("I", rng)
    t1 = build_transfer(p1, 4)
    i1 = commuting_ops(p1)[0]
    for n in range(5):
        assert i1.apply(t1.entry(0, n)).is_zero()
    p5 = sample_params("V", rng)
    t5 = build_transfer(p5, 4)
    i2 = commuting_ops(p5)[1]
    for m in range(5):
        assert i2.apply(t5.entry(m, 0)).is_zero()


@pytest.mark.parametrize("case", CASES)
def test_transfer_recurrence_edges_are_the_records_edge_operators(case, monkeypatch):
    # III has no one-variable operator on the m = 0 edge and VIII none on the
    # n = 0 edge; every edge that has one is built by one step per level
    axes = []
    true_step = triangle.recurrence_step

    def spy(params, axis, m, n):
        axes.append(axis)
        return true_step(params, axis, m, n)

    monkeypatch.setattr(triangle, "recurrence_step", spy)
    build_transfer(sample_params(case, random.Random(0)), 5)
    edges = {"III": "x", "VIII": "y"}.get(case, "xy")
    assert sorted(axes) == sorted(edges * 4)


def test_transfer_case_ix_level_two_path():
    p = CaseParams("IX", F(3))
    t = build_transfer(p, 2)
    i3 = commuting_ops(p)[2]
    # I3 P_{2,0} = -2 P_{1,1}, solved during the sweep
    assert t.entry(1, 1) == F(-1, 2) * i3.apply(t.entry(2, 0))
    assert t.entry(1, 1) == X * Y


DEGENERATE_BETAS = (F(1), F(2), F(1, 2), F(3, 2))
DEGENERATE_KAPPAS = (F(0), F(1), F(-1, 2))


def degenerate_error(builder, p):
    """The error class a builder raises at a degenerate lattice point, or None.

    kappa1 = 1 (case I) or 0 (II, III) zeroes a transfer division coefficient,
    which the transfer builder finds before any recurrence step; otherwise
    beta = 1 meets a vanishing recurrence factor (beta+2N-3 at N = 1) or, in
    the ladder, beta+2N-1 at N = 0.  Cases V and VIII build everywhere.
    """
    if builder is build_transfer and p.kappa1 == {"I": 1, "II": 0, "III": 0}.get(p.case_id):
        return TransferError
    if p.beta == 1 and p.case_id not in ("V", "VIII"):
        return ParameterError
    return None


# builder runs that raise per case, 111 of 552: I-III recurrence and ladder at
# beta = 1 (18 each) and transfer (12 TransferError, 6 ParameterError each),
# and case IX once per builder
DEGENERATE_RAISES = {"I": 36, "II": 36, "III": 36, "V": 0, "VIII": 0, "IX": 3}


@pytest.mark.parametrize("case", CASES)
def test_builders_match_oracle_or_raise_on_degenerate_lattice(case):
    # integer and half-integer parameters, where the recurrence coefficients
    # can meet 0/0 limits (beta = 1) that random sampling never reaches; each
    # builder either returns the oracle's table or raises exactly the error
    # pinned for the point
    kappas = [(F(0), F(0))] if case == "IX" else product(DEGENERATE_KAPPAS, repeat=2)
    raised = 0
    for beta, (k1, k2) in product(DEGENERATE_BETAS, kappas):
        p = CaseParams(case, beta, k1, k2)
        oracle = build_oracle(p, 4)
        for builder in (build_recurrence, build_ladder, build_transfer):
            expected = degenerate_error(builder, p)
            try:
                table = builder(p, 4)
            except KspolyError as exc:
                assert type(exc) is expected, (builder.__name__, p, exc)
                raised += 1
            else:
                assert expected is None, (builder.__name__, p)
                assert table.same_polys(oracle), (builder.__name__, p)
    assert raised == DEGENERATE_RAISES[case]


SWEEP_BETAS = (F(1), F(2), F(1, 2))
SWEEP_KAPPAS = (F(-1), F(0), F(1, 2), F(1))


@pytest.mark.parametrize("case", CASES)
def test_no_builder_returns_a_wrong_table_on_a_degenerate_lattice(case):
    # a wider kappa set than the pinned lattice above, with the refusals left
    # unpinned: the oracle builds every point, and each other builder returns
    # the oracle's table or raises a KspolyError, never a different table
    kappas = [(F(0), F(0))] if case == "IX" else product(SWEEP_KAPPAS, repeat=2)
    for beta, (k1, k2) in product(SWEEP_BETAS, kappas):
        p = CaseParams(case, beta, k1, k2)
        oracle = build_oracle(p, 4)
        for builder in (build_recurrence, build_ladder, build_transfer):
            with contextlib.suppress(KspolyError):
                assert builder(p, 4).same_polys(oracle), (builder.__name__, p)


@pytest.mark.parametrize("builder", BUILDER_LIST)
def test_negative_nmax_is_a_parameter_error(builder):
    with pytest.raises(ParameterError, match="nmax must be nonnegative, not -1"):
        builder(CaseParams("I", F(5, 2), F(1, 3), F(2, 7)), -1)


@pytest.mark.parametrize("builder", BUILDER_LIST)
@pytest.mark.parametrize("nmax", [True, 2.0])
def test_non_int_nmax_is_a_parameter_error(builder, nmax):
    # True once built the nmax-1 table and wrote "nmax": true; 2.0 failed
    # with a bare TypeError
    with pytest.raises(ParameterError, match=f"^nmax must be an int, not {nmax!r}$"):
        builder(CaseParams("I", F(5, 2), F(1, 3), F(2, 7)), nmax)


@pytest.mark.parametrize("case", ("I", "II", "III", "IX"))
def test_beta_one_fails_before_any_recurrence_step(case, monkeypatch):
    # the 0/0 limit over beta + 2N - 3 is met while the catalog forms the
    # first level-2 step (the ladder meets beta + 2N - 1 = 0 while forming
    # its N = 0 operators), so no table arithmetic runs before the error
    steps = []
    monkeypatch.setattr(triangle, "_apply_step", lambda *args: steps.append(args))
    kappas = (F(0), F(0)) if case == "IX" else (F(1, 3), F(2, 7))
    p = CaseParams(case, F(1), *kappas)
    for builder in (build_recurrence, build_transfer, build_ladder):
        with pytest.raises(ParameterError):
            builder(p, 4)
    assert steps == []


def test_recurrence_forms_each_levels_denominators_once(monkeypatch):
    # case I's steps divide by two structural denominators, both fixed by
    # the source level: a table at nmax 8 reads 42 steps from levels 1..7
    calls = []
    true_denominator = catalog._denominator

    def spy(b, N, offsets, context):
        calls.append((N, offsets))
        return true_denominator(b, N, offsets, context)

    monkeypatch.setattr(catalog, "_denominator", spy)
    p = CaseParams("I", F(5, 2), F(1, 3), F(2, 7))
    t = build_recurrence(p, 8)
    assert len(calls) == 14 and sorted(set(calls)) == sorted(calls)
    assert {N for N, _ in calls} == set(range(1, 8))
    monkeypatch.undo()
    assert t.same_polys(build_oracle(p, 8))


def test_oracle_guard_rejects_degree_raising_operator(monkeypatch):
    true_L = triangle.operator_L
    x = DiffOp({(1, 0, 0, 0): 1})  # multiplication by x raises the degree
    monkeypatch.setattr(triangle, "operator_L", lambda p: true_L(p) + x)
    p = CaseParams("I", F(5, 2), F(1, 3), F(2, 7))
    with pytest.raises(AdmissibilityError, match="did not drop below"):
        build_oracle(p, 3)


@pytest.mark.parametrize("beta, d", [(F(-1), 0), (F(-2), 1)])
def test_oracle_guard_rejects_coinciding_eigenvalues(beta, d, monkeypatch):
    # lambda_2 - lambda_d = (2 - d)(beta + 1 + d) vanishes; the validity rule
    # rejects such a beta, so it is switched off to reach the guard
    monkeypatch.setattr(triangle, "_check_nmax", lambda params, nmax: None)
    p = CaseParams("I", beta, F(1, 3), F(2, 7))
    with pytest.raises(AdmissibilityError, match=rf"degrees {d} and 2 coincide at \(m,n\)=\(2,0\)"):
        build_oracle(p, 3)
    assert oracle_outcome(build_oracle, p, 3) == oracle_outcome(ref_oracle, p, 3)


# -- the oracle against its Fraction-arithmetic reference --------------------------


def ref_oracle(params, nmax):
    """The oracle's back-substitution on BivariatePoly values: L - lambda_N
    formed per level and applied to each layer, the layer taken as the
    residual's degree-d terms times -1 / (lambda_d - lambda_N)."""
    triangle._check_nmax(params, nmax)
    L = triangle.operator_L(params)
    lams = [eigenvalue(params, N) for N in range(nmax + 1)]
    entries = {}
    for N, lam in enumerate(lams):
        shifted = L - DiffOp({(0, 0, 0, 0): lam})
        factors = [-1 / (mu - lam) if mu != lam else None for mu in lams[:N]]
        for m in range(N, -1, -1):
            n = N - m
            layers = [BivariatePoly.monomial(m, n)]
            residual = shifted.apply(layers[0])
            while not residual.is_zero():
                d = residual.degree
                if d >= N:
                    raise AdmissibilityError(
                        f"residual degree {d} did not drop below {N} at "
                        f"(m,n)=({m},{n}) for {params}"
                    )
                factor = factors[d]
                if factor is None:
                    raise AdmissibilityError(
                        f"eigenvalues of degrees {d} and {N} coincide at "
                        f"(m,n)=({m},{n}) for {params}"
                    )
                top = BivariatePoly(
                    {key: factor * c for key, c in residual.items() if sum(key) == d}
                )
                layers.append(top)
                residual = residual + shifted.apply(top)
            entries[(m, n)] = BivariatePoly.combination((1, p) for p in layers)
    return entries


def oracle_outcome(build, params, nmax):
    """Each entry's storage, or the error's type and message."""
    try:
        entries = build(params, nmax)
    except KspolyError as err:
        return type(err), str(err)
    if isinstance(entries, triangle.Triangle):
        entries = entries.entries
    return {node: (p._num, p._den) for node, p in entries.items()}


def assert_oracle_matches_reference(params, nmax):
    want = oracle_outcome(ref_oracle, params, nmax)
    assert oracle_outcome(build_oracle, params, nmax) == want, params
    return want


@pytest.mark.parametrize("case", CASES)
def test_oracle_matches_reference_at_nmax_12(case):
    rng = random.Random(f"ref/{case}")
    for _ in range(2):
        assert isinstance(assert_oracle_matches_reference(sample_params(case, rng), 12), dict)


@pytest.mark.parametrize("case", ["III", "VIII"])
def test_oracle_matches_reference_at_nmax_20(case):
    # the cases of largest coefficient growth, where the oracle's level
    # denominators D_N, and the numerators its exact divisions take over
    # them, grow fastest
    params = sample_params(case, random.Random(f"ref/{case}"))
    assert isinstance(assert_oracle_matches_reference(params, 20), dict)


@pytest.mark.parametrize("case", CASES)
@pytest.mark.parametrize("beta", [F(7), F(15, 2)])
def test_oracle_matches_reference_at_integer_and_half_integer_beta(case, beta):
    # the fd_d of -1 / (lambda_d - lambda_N) share prime factors with each
    # other here, and with L's denominator (except IX at beta = 7, where it
    # is 1), so a level denominator too small for one of the oracle's exact
    # divisions would floor a value here first
    kappas = (F(0), F(0)) if case == "IX" else (F(2, 5), F(-3, 7))
    assert isinstance(assert_oracle_matches_reference(CaseParams(case, beta, *kappas), 12), dict)


@pytest.mark.parametrize("case", CASES)
def test_oracle_matches_reference_on_degenerate_lattice(case):
    kappas = [(F(0), F(0))] if case == "IX" else product(DEGENERATE_KAPPAS, repeat=2)
    for beta, (k1, k2) in product(DEGENERATE_BETAS, kappas):
        assert_oracle_matches_reference(CaseParams(case, beta, k1, k2), 4)


MUTANT_TERMS = {
    "x": (1, 0, 0, 0),
    "x*Dy": (1, 0, 0, 1),
    "y*Dx": (0, 1, 1, 0),
    "Dx": (0, 0, 1, 0),
    "x^2*Dx*Dy": (2, 0, 1, 1),
    # images reaching 3 degrees down, one more than any catalog L's
    "Dx^3": (0, 0, 3, 0),
    "y*Dx*Dy^2": (0, 1, 1, 2),
    # admissible below level 3, then a wrong own-key coefficient at (3,0)
    "x^3*Dx^3": (3, 0, 3, 0),
    # degree-preserving but off the diagonal: fails at (0,2)
    "x*y*Dy^2": (1, 1, 0, 2),
}


@pytest.mark.parametrize("case", CASES)
def test_oracle_matches_reference_on_mutated_operators(case, monkeypatch):
    params = sample_params(case, random.Random(f"mutant/{case}"))
    L = operator_L(params)
    mutants = [L + DiffOp({key: 1}) for key in MUTANT_TERMS.values()]
    mutants += [perturb_term(L, index) for index in range(len(L))]
    errors = 0
    for mutant in mutants:
        monkeypatch.setattr(triangle, "operator_L", lambda p, op=mutant: op)
        errors += isinstance(assert_oracle_matches_reference(params, 6), tuple)
    assert errors  # the degree-raising mutants reach a guard


@pytest.mark.parametrize("name, m, n, d", [("x^3*Dx^3", 3, 0, 3), ("x*y*Dy^2", 0, 2, 2)])
def test_oracle_checks_each_image_at_its_own_level(name, m, n, d, monkeypatch):
    params = sample_params("I", random.Random("mutant/I"))
    mutant = operator_L(params) + DiffOp({MUTANT_TERMS[name]: 1})
    monkeypatch.setattr(triangle, "operator_L", lambda p: mutant)
    with pytest.raises(AdmissibilityError) as err:
        build_oracle(params, 6)
    assert str(err.value).startswith(
        f"residual degree {d} did not drop below {m + n} at (m,n)=({m},{n}) for "
    )


def test_oracle_computes_each_image_of_L_once(monkeypatch):
    images = []
    true_image = DiffOp._image

    def counted(num, a, b):
        images.append((a, b))
        return true_image(num, a, b)

    monkeypatch.setattr(DiffOp, "_image", counted)
    for case in CASES:
        images.clear()
        t = build_oracle(sample_params(case, random.Random(case)), 12)
        assert len(images) == len(t.entries) == 91, case
        assert set(images) == set(t.entries), case


def test_ladder_forms_each_image_once_per_table_and_evaluates_it_once_per_level(monkeypatch):
    # each raising axis of a table keeps one memo of images whose weights are
    # polynomials in N, and each level evaluates at N exactly the images its
    # entries read: every entry of the level for R+x, the entry (0, N) for R+y
    axes, formed, evaluated = {}, [], []
    true_init, true_form, true_evaluate = _Family.__init__, _Family.__missing__, _Level.__missing__

    def init(family, op, params):
        axes[id(family)] = "x" if op is generic_operators(params.case_id).raising[0] else "y"
        true_init(family, op, params)

    def form(family, mono):
        formed.append((axes[id(family)], *mono))
        return true_form(family, mono)

    def evaluate(level, mono):
        evaluated.append((level._N, axes[id(level._family)], *mono))
        return true_evaluate(level, mono)

    monkeypatch.setattr(_Family, "__init__", init)
    monkeypatch.setattr(_Family, "__missing__", form)
    monkeypatch.setattr(_Level, "__missing__", evaluate)
    for case in CASES:
        formed.clear()
        evaluated.clear()
        t = build_ladder(sample_params(case, random.Random(case)), 8)
        want = set()
        for N in range(8):
            for m in range(N + 1):
                want |= {(N, "x", *mono) for mono in t.entries[(m, N - m)]._num}
            want |= {(N, "y", *mono) for mono in t.entries[(0, N)]._num}
        assert len(evaluated) == len(set(evaluated)) == len(want), case
        assert set(evaluated) == want, case
        assert len(formed) == len(set(formed)), case
        assert set(formed) == {(axis, a, b) for _, axis, a, b in want}, case


# a raising denominator below zero at some levels: d(4) = (beta+8)(beta+7)
# at beta = -15/2 for I-III, d(N) = beta+2N-1 for N <= 2 at beta = -9/2 for
# IX, and R+y's d = beta for V and VIII
NEGATIVE_DENOMINATORS = [
    CaseParams("I", F(-15, 2), F(1, 3), F(2, 7)),
    CaseParams("II", F(-15, 2), F(1, 3), F(2, 7)),
    CaseParams("III", F(-15, 2), F(1, 3), F(2, 7)),
    CaseParams("IX", F(-9, 2)),
    CaseParams("V", F(-7, 3), F(1, 3), F(2, 7)),
    CaseParams("VIII", F(-5, 3), F(1, 3), F(2, 7)),
]


@pytest.mark.parametrize("params", NEGATIVE_DENOMINATORS, ids=lambda p: p.case_id)
def test_ladder_matches_oracle_where_a_raising_denominator_is_negative(params):
    dens = [d for N in range(10) for d in raising_denominators(params, N)]
    assert min(dens) < 0 < max(dens)
    assert build_ladder(params, 10).same_polys(build_oracle(params, 10))


def _family_params():
    rng = random.Random("family")
    for case in CASES:
        kappas = () if case == "IX" else (F(1, 3), F(-2, 5))
        yield sample_params(case, rng)
        yield sample_params(case, rng)
        yield CaseParams(case, F(1, 2), *kappas)
        yield CaseParams(case, F(3, 2), *kappas)


def test_raising_family_at_each_level_is_raising_ops():
    # the table's family of each axis, evaluated at level N and divided by
    # d(N), has the images of raising_ops(params, N), as exact values
    def values(image, den):
        return {key: F(w, den) for key, w in image}

    monos = [(a, d - a) for d in range(12) for a in range(d + 1)]
    for params in _family_params():
        families = [_Family(op, params) for op in generic_operators(params.case_id).raising]
        for N in range(11):
            ops = raising_ops(params, N)
            for family, d, op in zip(families, raising_denominators(params, N), ops):
                level = _Level(family, N, d)
                for mono in monos:
                    got = values(level[mono], level.den)
                    assert got == values(op.images[mono], op._den), (params, N, mono)


def test_transfer_precondition_zero_kappa1():
    p = CaseParams("II", F(5, 2), F(0), F(1, 3))
    with pytest.raises(TransferError) as err:
        build_transfer(p, 4)
    assert "(m,n)" in str(err.value)


def test_transfer_precondition_integer_kappa1_case_i():
    # kappa1 = 2 makes the divisor m(kappa1 - m + 1) vanish at m = 3
    p = CaseParams("I", F(5, 2), F(2), F(1, 3))
    with pytest.raises(TransferError):
        build_transfer(p, 4)


# the lattice again at nmax 8, for the two builders whose steps are one
# accumulation each, with beta = 5/2 and 7 added and beta = -3, which the
# validity rule of I, II, III and IX rejects before any work; V and VIII
# (alpha = 0) build there
DEEP_BETAS = (F(1), F(2), F(5, 2), F(7), F(-3))


@pytest.mark.parametrize("case", CASES)
def test_degenerate_parameters_at_nmax_8_give_the_oracle_table_or_a_named_error(case):
    kappas = [(F(0), F(0))] if case == "IX" else list(product(DEGENERATE_KAPPAS, repeat=2))
    for beta, (k1, k2) in product(DEEP_BETAS, kappas):
        p = CaseParams(case, beta, k1, k2)
        if beta < 0 and alpha(case):
            for builder in (build_oracle, build_recurrence, build_transfer):
                with pytest.raises(ParameterError, match="violates the rule"):
                    builder(p, 8)
            continue
        oracle = build_oracle(p, 8)
        for builder in (build_recurrence, build_transfer):
            expected = degenerate_error(builder, p)
            if expected is None:
                assert builder(p, 8).same_polys(oracle), (builder.__name__, p)
            else:
                with pytest.raises(expected):
                    builder(p, 8)


def test_alpha_zero_cases_build_at_negative_integer_beta():
    # V and VIII have alpha = 0, the x^2 d_x^2 coefficient of L: lambda_N = N beta
    # is distinct for every beta != 0 and their steps divide only by beta, so
    # the integer-beta rule of the alpha = 1 cases leaves them alone
    for case in CASES:
        assert generic_operators(case).L.coefficient(2, 0, 2, 0, 0, 0, 0, 0) == alpha(case)
    for case, beta in product(("V", "VIII"), (F(-1), F(-3), F(-7))):
        p = CaseParams(case, beta, F(1, 3), F(2, 7))
        oracle = build_oracle(p, 6)
        for builder in (build_recurrence, build_ladder, build_transfer):
            assert builder(p, 6).same_polys(oracle), (builder.__name__, p)
        report = full_suite(p, 6)
        assert report.passed, (p, [r.name for r in report.failures()])


# -- stencil behavior ------------------------------------------------------------


def test_boundary_coefficient_vanishes_at_n1():
    # the P_{m+1,n-2} point leaves the triangle at n=1 with zero coefficient
    p = CaseParams("I", F(5, 2), F(1, 3), F(2, 7))
    for m in range(1, 4):
        step = recurrence_step(p, "x", m, 1)
        coeff = {(mm, nn): c for mm, nn, c in step.tail}[(m + 1, -1)]
        assert coeff == 0


@pytest.mark.parametrize("case", CASES)
def test_recurrence_touches_only_stencil_offsets(case, monkeypatch):
    # a witness of the builder's own reads: each step's source and its
    # nonzero tail points, as offsets from its target
    reads = set()

    def spy(step, entries):
        (tm, tn), (sm, sn) = step.target, step.source
        axis = "x" if (tm - sm, tn - sn) == (1, 0) else "y"
        points = [step.source] + [(mm, nn) for mm, nn, c in step.tail if c]
        reads.update((axis, (mm - tm, nn - tn)) for mm, nn in points)
        return _apply_step(step, entries)

    monkeypatch.setattr(triangle, "_apply_step", spy)
    p = sample_params(case, random.Random(17))
    assert build_recurrence(p, 6).same_polys(build_oracle(p, 6))
    assert {axis for axis, _ in reads} == {"x", "y"}
    for axis, offset in reads:
        assert offset in STENCILS[(case, axis)], (axis, offset)


def test_out_of_range_nonzero_coefficient_raises():
    fake = RecurrenceStep((1, 0), (0, 0), ((-1, 0, F(1)),))
    with pytest.raises(StencilError):
        _apply_step(fake, {(0, 0): ONE})
    with pytest.raises(StencilError, match=r"coefficient 1 multiplies out-of-range entry \(-1,0\)"):
        stencil_sum({(0, 0): ONE}, ((0, 0, F(2)), (-1, 0, F(1))))
    # an unreduced pair, as build_recurrence passes, is named by its value
    with pytest.raises(StencilError, match=r"coefficient -1/2 multiplies out-of-range entry \(-1,0\)$"):
        stencil_sum({(0, 0): ONE}, ((0, 0, F(2)), (-1, 0, _Unreduced(2, -4))))
    # a zero coefficient outside the triangle is skipped
    assert stencil_sum({(0, 0): ONE}, ((0, 0, F(2)), (-1, 0, F(0)))) == 2 * ONE


@pytest.mark.parametrize("scale", [1, F(-2, 3), _Unreduced(3, -5), _Unreduced(-4, 6)])
def test_stencil_sum_scales_its_terms_and_adds_the_extra_operands(scale):
    # scale * (3/4 P_(1,0) - 2 P_(0,1)) + 5 x P_(1,0) - (1/7) A(P_(0,1)); a
    # negative denominator, as 1/c_u has for a negative c_u, is exact too
    p = CaseParams("I", F(7, 2), F(1, 3), F(-1, 5))
    entries = build_oracle(p, 2).entries
    op = commuting_ops(p)[0]
    terms = ((1, 0, F(3, 4)), (0, 1, -2), (1, -1, 0))
    extra = [(5, entries[(1, 0)], (1, 0)), (F(-1, 7), entries[(0, 1)], op)]
    got = stencil_sum(entries, terms, extra, scale)
    s = F(scale.numerator, scale.denominator)
    want = (
        s * (F(3, 4) * entries[(1, 0)] - 2 * entries[(0, 1)])
        + 5 * (X * entries[(1, 0)]) - F(1, 7) * op.apply(entries[(0, 1)])
    )
    assert got == want and got._den > 0
    # the StencilError names the coefficient as given, not its scaled value
    with pytest.raises(StencilError, match=r"coefficient 3/4 multiplies out-of-range entry \(1,-1\)"):
        stencil_sum(entries, ((1, -1, F(3, 4)),), extra, scale)


@pytest.mark.parametrize("case", CASES)
def test_no_zero_coefficient_operand_reaches_combination(case, monkeypatch):
    # the transfer route's self coefficient is 0 at every node for I2 of
    # case V and I3 of case IX, at m = 0 for I2 of VIII, and at m = 4 for I1
    # of this draw of II (beta + kappa2 = -3); stencil_sum drops such an
    # operand from its extra operands as it does from its stencil terms;
    # the action-formula audit meets such operands in every case
    zeros = []
    true_combination = BivariatePoly.combination.__func__

    def spy(cls, operands):
        operands = list(operands)
        zeros.extend(operand for operand in operands if not operand[0])
        return true_combination(cls, operands)

    p = sample_params(case, random.Random(f"zero/{case}"))
    oracle = build_oracle(p, 8)
    monkeypatch.setattr(BivariatePoly, "combination", classmethod(spy))
    transfer = build_transfer(p, 8)
    assert len(zeros) == 0, "build_transfer"
    report = check_action_formulas(oracle, commuting_ops(p))
    assert len(zeros) == 0, "check_action_formulas"
    assert transfer.same_polys(oracle)
    assert report.passed


# -- serialization -----------------------------------------------------------------


def test_json_roundtrip():
    p = CaseParams("V", F(7, 2), F(1, 3), F(-2, 5))
    t = build_oracle(p, 3)
    doc = triangle_to_json(t)
    back = triangle_from_json(doc)
    assert back.same_polys(t)
    assert back.params == t.params


@pytest.mark.parametrize(
    "corrupt, message",
    [
        (lambda d: {k: v for k, v in d.items() if k != "nmax"}, "^triangle JSON lacks 'nmax'$"),
        (lambda d: {**d, "polys": [{"m": 0, "n": 0}]},
         r"^malformed polys record \{'m': 0, 'n': 0\}$"),
        (lambda d: {**d, "polys": ["x"]}, "^malformed polys record 'x'$"),
    ],
    ids=["missing-key", "record-without-terms", "record-not-an-object"],
)
def test_json_rejects_a_missing_key_or_a_malformed_record(corrupt, message):
    # documents read from disk: a KeyError or TypeError inside a record is
    # reported as the ValueError that names it
    doc = triangle_to_json(build_oracle(CaseParams("IX", F(3)), 2))
    with pytest.raises(ValueError, match=message):
        triangle_from_json(corrupt(doc))


def test_json_deterministic_bytes():
    p = CaseParams("IX", F(3))
    a = dumps_json(triangle_to_json(build_oracle(p, 3)))
    b = dumps_json(triangle_to_json(build_oracle(p, 3)))
    assert a == b


def test_csv_layout():
    p = CaseParams("IX", F(3))
    text = triangle_to_csv(build_oracle(p, 2))
    lines = text.strip().splitlines()
    assert lines[0] == "m,n,i,j,c"
    assert "2,0,0,0,-1/4" in lines
    assert "2,0,2,0,1" in lines


def test_latex_contains_entries():
    p = CaseParams("IX", F(3))
    text = triangle_to_latex(build_oracle(p, 2))
    assert "x^{2} - \\frac{1}{4}" in text
    assert text.startswith("% case IX")


def test_builders_agree_past_the_old_default_hint():
    # validity belongs to (params, nmax): every builder reaches any nmax the
    # rule on beta allows, here 12
    draws = (CaseParams("I", F(17, 7), F(2, 5), F(-3, 11)), sample_params("IX", random.Random(12)))
    for p in draws:
        oracle = build_oracle(p, 12)
        assert len(oracle.entries) == 91
        for build in BUILDER_LIST[1:]:
            assert build(p, 12).same_polys(oracle), build.__name__


def test_nodes_order():
    p = CaseParams("IX", F(3))
    t = build_oracle(p, 2)
    assert t.nodes() == [(0, 0), (1, 0), (0, 1), (2, 0), (1, 1), (0, 2)]


# -- the JSON writer against the stdlib --------------------------------------------

# every kind of value json.dumps accepts, nested; text includes non-ASCII,
# quotes, backslashes and control characters, keys are not only strings
json_text = st.text(alphabet=st.one_of(st.characters(), st.sampled_from('"\\\n\t\x00\x1f é')))
json_scalars = st.one_of(
    json_text,
    st.integers(min_value=-(10**40), max_value=10**40),
    st.booleans(),
    st.none(),
    st.floats(),
)
json_docs = st.recursive(
    json_scalars,
    lambda inner: st.one_of(
        st.lists(inner, max_size=4),
        st.lists(inner, max_size=4).map(tuple),
        st.dictionaries(json_text, inner, max_size=4),
        st.dictionaries(st.one_of(st.integers(), st.booleans(), st.none()), inner, max_size=3),
    ),
    max_leaves=20,
)


def assert_stdlib_layout(doc):
    assert dumps_json(doc) == json.dumps(doc, indent=2) + "\n"


@given(json_docs)
def test_dumps_json_matches_stdlib(doc):
    assert_stdlib_layout(doc)


@pytest.mark.parametrize(
    "doc", [{}, [], (), {"a": {}, "b": [], "c": [[], {}]}, [-(2**70), 0.5], [{}, {}], ({},)]
)
def test_dumps_json_matches_stdlib_examples(doc):
    assert_stdlib_layout(doc)


# lists of dicts with one tuple of keys, which dumps_json writes as record
# lists, and near misses of them, which it must write item by item
class Record(dict):
    # json.dumps writes a dict subclass through its own items()
    def items(self):
        return reversed(list(super().items()))


record_keys = st.lists(
    st.one_of(json_text, st.sampled_from(["", "%", "%s", "%(c)s", '"', "\\", "é", "\x00", "\x1f"])),
    min_size=1,
    max_size=4,
    unique=True,
)
record_columns = st.sampled_from([
    st.integers(min_value=-(10**40), max_value=10**40),
    json_text,
    st.one_of(st.integers(), json_text),
    "dicts",
])
# a dict column's values: empty or not, with lists and dicts inside
dict_values = st.dictionaries(
    st.one_of(json_text, st.sampled_from(["", "%", "%s", '"', "é", "\x00"])),
    st.one_of(json_docs, st.sampled_from(["%", "%(c)s", '"', "é", "\x00"])),
    max_size=3,
)
odd_values = st.one_of(
    st.booleans(),
    st.none(),
    st.floats(),
    st.sampled_from([10**1000, -(10**4000)]),
    st.lists(st.integers(), max_size=2),
    st.dictionaries(json_text, st.integers(), max_size=2),
    st.dictionaries(json_text, st.integers(), max_size=2).map(Record),
)


@st.composite
def dict_column(draw, size):
    # one dict object in every record, equal but distinct copies, or drawn dicts
    first = draw(dict_values)
    sharing = draw(st.sampled_from(["one object", "equal copies", "drawn"]))
    if sharing == "one object":
        return [first] * size
    if sharing == "equal copies":
        return [first] + [copy.deepcopy(first) for _ in range(size - 1)]
    return [first] + [draw(dict_values) for _ in range(size - 1)]


@st.composite
def record_lists(draw):
    keys = draw(record_keys)
    size = draw(st.integers(1, 5))
    columns = [draw(record_columns) for _ in keys]
    columns = [
        draw(dict_column(size)) if column == "dicts" else [draw(column) for _ in range(size)]
        for column in columns
    ]
    records = [dict(zip(keys, row)) for row in zip(*columns)]
    index = draw(st.integers(0, len(records) - 1))
    change = draw(st.sampled_from(["none", "reorder", "add", "drop", "odd value", "subclass"]))
    record = records[index]
    if change == "reorder":
        records[index] = dict(reversed(record.items()))
    elif change == "add":
        record[draw(json_text)] = draw(st.integers())
    elif change == "drop":
        del record[draw(st.sampled_from(keys))]
    elif change == "odd value":
        record[draw(st.sampled_from(keys))] = draw(odd_values)
    elif change == "subclass":
        records[index] = Record(record)
    # at the top level and nested, as a list or as a tuple
    records = draw(st.sampled_from([list, tuple]))(records)
    return draw(st.sampled_from([records, {"terms": records}, [[records], records]]))


@given(record_lists())
def test_dumps_json_matches_stdlib_on_record_lists(doc):
    assert_stdlib_layout(doc)


def test_dumps_json_record_templates_follow_keys_and_depth():
    # the same keys at two depths, and the same key set in another order at
    # one depth
    ij = [{"i": 1, "j": "a"}, {"i": 2, "j": "b"}]
    ji = [{"j": "c", "i": 3}]
    assert_stdlib_layout({"a": ij, "b": [ij, ji], "c": ji, "d": [{"i": True, "j": "d"}]})


def test_table_terms_are_written_as_record_lists():
    terms = build_oracle(CaseParams("I", F(7, 2), F(1, 3), F(-1, 5)), 3).entry(2, 1).to_records()
    assert len(terms) > 1
    assert triangle._record_list(terms, "\n  ") == json.dumps(terms, indent=2).replace(
        "\n", "\n  "
    )
    assert triangle._record_list(terms + [{"i": 0, "j": 0, "c": 1.0}], "\n") is None


# a column of dicts, as a check report's params
SHARED = {"beta": "7/2", "%s": ['"é\x00', {"%": {}}], "é": {"k": [1, {"\x00": "%d"}]}}
DICT_COLUMNS = {
    "one object": [SHARED] * 3,
    "equal copies": [SHARED, copy.deepcopy(SHARED), copy.deepcopy(SHARED)],
    "unequal": [SHARED, {"beta": "1"}, {}],
    "empty": [{}, {}],
}


def _dict_column_records(values):
    return [{"check": f"c{k}%s", "params": value, "n": k} for k, value in enumerate(values)]


@pytest.mark.parametrize("values", DICT_COLUMNS.values(), ids=list(DICT_COLUMNS))
def test_dict_columns_are_written_through_the_record_template(values):
    records = _dict_column_records(values)
    for newline in ("\n", "\n    "):
        text = triangle._record_list(records, newline)
        assert text == json.dumps(records, indent=2).replace("\n", newline)
    assert_stdlib_layout({"checks": records, "again": records})


def test_each_distinct_dict_is_written_once(monkeypatch):
    written = []
    write = triangle._write_json

    def spy(value, out, newline):
        written.append(value)
        write(value, out, newline)

    monkeypatch.setattr(triangle, "_write_json", spy)
    values = [SHARED, SHARED, copy.deepcopy(SHARED), SHARED]
    assert triangle._record_list(_dict_column_records(values), "\n") is not None
    column = {id(SHARED), id(values[2])}
    assert [id(v) for v in written if id(v) in column] == [id(SHARED), id(values[2])]


@pytest.mark.parametrize("odd", [[1], [], Record({"beta": "1", "kappa1": "2"})])
def test_a_dict_column_with_another_value_falls_back(odd):
    records = _dict_column_records(DICT_COLUMNS["one object"])
    records[1]["params"] = odd
    assert triangle._record_list(records, "\n") is None
    assert_stdlib_layout({"checks": records})


def test_check_reports_take_the_record_template_when_they_pass():
    # a passing report's entries share their keys, a failing one's do not
    params = sample_params("II", random.Random(6))
    checks = full_suite(params, nmax=3).to_json()["checks"]
    assert {entry["status"] for entry in checks} == {"pass"}
    assert triangle._record_list(checks, "\n") == json.dumps(checks, indent=2)
    mutant, _ = mutated_operator_set("II", random.Random(2))
    failing = check_operators(build_oracle(params, 3), mutant).to_json()["checks"]
    assert any("residual" in entry for entry in failing)
    assert triangle._record_list(failing, "\n") is None
    assert_stdlib_layout({"checks": failing})


@pytest.mark.parametrize("case", CASES)
def test_dumps_json_matches_stdlib_on_tables_and_reports(case):
    params = sample_params(case, random.Random(f"json/{case}"))
    for build in triangle.BUILDERS.values():
        with contextlib.suppress(TransferError):
            assert_stdlib_layout(triangle_to_json(build(params, 4)))
    assert_stdlib_layout(full_suite(params, 3).to_json())
    # failing reports carry residual records in their details
    ops, _ = mutated_operator_set(case, random.Random(case))
    report = check_operators(build_oracle(params, 3), ops)
    assert not report.passed
    assert_stdlib_layout({"reports": [report.to_json()], "passed": False})

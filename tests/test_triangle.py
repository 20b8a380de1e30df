import random
from fractions import Fraction as F
from itertools import product

import pytest

from kspoly import triangle
from kspoly.algebra import ONE, X, Y
from kspoly.catalog import (
    CASES,
    STENCILS,
    CaseParams,
    RecurrenceStep,
    commuting_ops,
    eigenvalue,
    operator_L,
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
from kspoly.weyl import DiffOp

BUILDER_LIST = (build_oracle, build_recurrence, build_ladder, build_transfer)


# -- frozen low-degree values -------------------------------------------------


def test_oracle_degree_one_seeds():
    rng = random.Random(2)
    for case in CASES:
        for _ in range(5):
            p = sample_params(case, rng, nmax_hint=2)
            t = build_oracle(p, 1)
            assert t.entry(0, 0) == ONE
            assert t.entry(1, 0) == X + (p.kappa1 / p.beta) * ONE
            assert t.entry(0, 1) == Y + (p.kappa2 / p.beta) * ONE


def test_oracle_case_ix_low_degree_table():
    for beta in (F(3), F(7, 2), F(9, 4)):
        p = CaseParams("IX", beta, nmax_hint=4)
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
    p = CaseParams("V", F(2), F(1), F(1), 4)
    t = build_oracle(p, 2)
    expected = (X + F(1, 2) * ONE) * (Y + F(1, 2) * ONE) + (X + F(1, 4) * ONE)
    assert t.entry(1, 1) == expected


def test_recurrence_case_v_left_edge_powers():
    p = CaseParams("V", F(7, 3), F(2, 5), F(-3, 4), 6)
    t = build_recurrence(p, 6)
    base = X + (p.kappa1 / p.beta) * ONE
    for m in range(7):
        assert t.entry(m, 0) == base**m


def test_ladder_case_viii_right_edge_powers():
    p = CaseParams("VIII", F(5, 2), F(1, 3), F(-2, 7), 6)
    t = build_ladder(p, 6)
    base = Y + (p.kappa2 / p.beta) * ONE
    for n in range(7):
        assert t.entry(0, n) == base**n


def test_ladder_case_ix_first_step():
    t = build_ladder(CaseParams("IX", F(3), nmax_hint=2), 1)
    assert t.entry(1, 0) == X


# -- cross-method agreement ---------------------------------------------------


def test_recurrence_case_ii_matches_oracle():
    p = CaseParams("II", F(5, 2), F(1, 3), F(2, 7), 6)
    assert build_recurrence(p, 6).same_polys(build_oracle(p, 6))


def test_ladder_case_iii_matches_oracle():
    p = CaseParams("III", F(7, 2), F(1, 3), F(-2, 7), 5)
    assert build_ladder(p, 5).same_polys(build_oracle(p, 5))


@pytest.mark.parametrize("case", CASES)
def test_all_builders_agree(case):
    rng = random.Random(hash(case) & 0xFFFF)
    p = sample_params(case, rng, nmax_hint=5)
    oracle = build_oracle(p, 5)
    for builder in (build_recurrence, build_ladder, build_transfer):
        assert builder(p, 5).same_polys(oracle), builder.__name__


@pytest.mark.parametrize("case", CASES)
def test_monicity_and_eigen_invariant(case):
    rng = random.Random(len(case))
    p = sample_params(case, rng, nmax_hint=4)
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
def test_edge_ode_and_edge_ladders(case):
    from kspoly.catalog import edge_ladder, edge_operators

    rng = random.Random(ord(case[0]))
    p = sample_params(case, rng, nmax_hint=5)
    t = build_oracle(p, 5)
    lx, ly = edge_operators(p)
    for k in range(5):
        lam = eigenvalue(p, k)
        if lx is not None:
            assert lx.apply(t.entry(k, 0)) == lam * t.entry(k, 0)
            rx = edge_ladder(p, "x", k)
            assert rx.apply(t.entry(k, 0)) == t.entry(k + 1, 0)
        if ly is not None:
            assert ly.apply(t.entry(0, k)) == lam * t.entry(0, k)
            ry = edge_ladder(p, "y", k)
            assert ry.apply(t.entry(0, k)) == t.entry(0, k + 1)
    if case == "III":
        assert edge_ladder(p, "y", 2) is None
    if case == "VIII":
        assert edge_ladder(p, "x", 2) is None


# -- transfer specifics ---------------------------------------------------------


def test_transfer_annihilation_identities():
    rng = random.Random(31)
    p1 = sample_params("I", rng, nmax_hint=4)
    t1 = build_transfer(p1, 4)
    i1 = commuting_ops(p1)[0]
    for n in range(5):
        assert i1.apply(t1.entry(0, n)).is_zero()
    p5 = sample_params("V", rng, nmax_hint=4)
    t5 = build_transfer(p5, 4)
    i2 = commuting_ops(p5)[1]
    for m in range(5):
        assert i2.apply(t5.entry(m, 0)).is_zero()


def test_transfer_case_ix_level_two_path():
    p = CaseParams("IX", F(3), nmax_hint=3)
    t = build_transfer(p, 2)
    i3 = commuting_ops(p)[2]
    # I3 P_{2,0} = -2 P_{1,1}, solved during the sweep
    assert t.entry(1, 1) == F(-1, 2) * i3.apply(t.entry(2, 0))
    assert t.entry(1, 1) == X * Y


DEGENERATE_BETAS = (F(1), F(2), F(1, 2), F(3, 2))
DEGENERATE_KAPPAS = (F(0), F(1), F(-1, 2))


@pytest.mark.parametrize("case", CASES)
def test_builders_match_oracle_or_raise_on_degenerate_lattice(case):
    # integer and half-integer parameters, where the recurrence coefficients
    # can meet 0/0 limits (beta = 1) that random sampling never reaches
    kappas = [(F(0), F(0))] if case == "IX" else product(DEGENERATE_KAPPAS, repeat=2)
    for beta, (k1, k2) in product(DEGENERATE_BETAS, kappas):
        p = CaseParams(case, beta, k1, k2, 4)
        oracle = build_oracle(p, 4)
        for builder in (build_recurrence, build_ladder, build_transfer):
            try:
                table = builder(p, 4)
            except KspolyError:
                continue
            assert table.same_polys(oracle), (builder.__name__, p)


@pytest.mark.parametrize("case", ("I", "II", "III", "IX"))
def test_beta_one_fails_before_any_recurrence_step(case, monkeypatch):
    # the 0/0 limit over beta + 2N - 3 is met while the catalog forms the
    # first level-2 step (the ladder meets beta + 2N - 1 = 0 while forming
    # its N = 0 operators), so no table arithmetic runs before the error
    steps = []
    monkeypatch.setattr(triangle, "_apply_step", lambda *args: steps.append(args))
    kappas = (F(0), F(0)) if case == "IX" else (F(1, 3), F(2, 7))
    p = CaseParams(case, F(1), *kappas, 4)
    for builder in (build_recurrence, build_transfer, build_ladder):
        with pytest.raises(ParameterError):
            builder(p, 4)
    assert steps == []


def test_oracle_guard_rejects_degree_raising_operator(monkeypatch):
    true_L = triangle.operator_L
    monkeypatch.setattr(
        triangle, "operator_L", lambda p: true_L(p) + DiffOp.from_poly(X)
    )
    p = CaseParams("I", F(5, 2), F(1, 3), F(2, 7), 3)
    with pytest.raises(AdmissibilityError, match="did not drop below"):
        build_oracle(p, 3)


def test_transfer_precondition_zero_kappa1():
    p = CaseParams("II", F(5, 2), F(0), F(1, 3), 4)
    with pytest.raises(TransferError) as err:
        build_transfer(p, 4)
    assert "(m,n)" in str(err.value)


def test_transfer_precondition_integer_kappa1_case_i():
    # kappa1 = 2 makes the divisor m(kappa1 - m + 1) vanish at m = 3
    p = CaseParams("I", F(5, 2), F(2), F(1, 3), 4)
    with pytest.raises(TransferError):
        build_transfer(p, 4)


# -- stencil behavior ------------------------------------------------------------


def test_boundary_coefficient_vanishes_at_n1():
    # the P_{m+1,n-2} point leaves the triangle at n=1 with zero coefficient
    p = CaseParams("I", F(5, 2), F(1, 3), F(2, 7), 6)
    for m in range(1, 4):
        step = recurrence_step(p, "x", m, 1)
        coeff = {(mm, nn): c for mm, nn, c in step.tail}[(m + 1, -1)]
        assert coeff == 0


@pytest.mark.parametrize("case", CASES)
def test_recurrence_touches_only_stencil_offsets(case):
    rng = random.Random(17)
    p = sample_params(case, rng, nmax_hint=6)
    log = []
    build_recurrence(p, 6, access_log=log)
    for axis, offset in log:
        assert offset in STENCILS[(case, axis)], (axis, offset)


def test_recurrence_rejects_a_route_to_the_wrong_target(monkeypatch):
    # a route table that names the mirror target's source must raise, not
    # write that step's polynomial under this target (an assert would be
    # stripped by python -O)
    true_route = triangle._recurrence_route
    monkeypatch.setattr(triangle, "_recurrence_route", lambda case, a, c: true_route(case, c, a))
    p = CaseParams("I", F(5, 2), F(1, 3), F(2, 7), 4)
    with pytest.raises(StencilError, match=r"route to \(2,0\) reads the step \(0, 1\) -> \(0, 2\)"):
        build_recurrence(p, 4)


def test_out_of_range_nonzero_coefficient_raises():
    fake = RecurrenceStep((1, 0), (0, 0), X, ((-1, 0, F(1)),))
    with pytest.raises(StencilError):
        _apply_step(fake, {(0, 0): ONE}, "x", None)
    with pytest.raises(StencilError, match=r"coefficient 1 multiplies out-of-range entry \(-1,0\)"):
        stencil_sum({(0, 0): ONE}, ((0, 0, F(2)), (-1, 0, F(1))))
    # a zero coefficient outside the triangle is skipped
    assert stencil_sum({(0, 0): ONE}, ((0, 0, F(2)), (-1, 0, F(0)))) == 2 * ONE


# -- serialization -----------------------------------------------------------------


def test_json_roundtrip():
    p = CaseParams("V", F(7, 2), F(1, 3), F(-2, 5), 3)
    t = build_oracle(p, 3)
    doc = triangle_to_json(t)
    back = triangle_from_json(doc)
    assert back.same_polys(t)
    assert back.params == t.params


def test_json_deterministic_bytes():
    p = CaseParams("IX", F(3), nmax_hint=3)
    a = dumps_json(triangle_to_json(build_oracle(p, 3)))
    b = dumps_json(triangle_to_json(build_oracle(p, 3)))
    assert a == b


def test_csv_layout():
    p = CaseParams("IX", F(3), nmax_hint=2)
    text = triangle_to_csv(build_oracle(p, 2))
    lines = text.strip().splitlines()
    assert lines[0] == "m,n,i,j,c"
    assert "2,0,0,0,-1/4" in lines
    assert "2,0,2,0,1" in lines


def test_latex_contains_entries():
    p = CaseParams("IX", F(3), nmax_hint=2)
    text = triangle_to_latex(build_oracle(p, 2))
    assert "x^{2} - \\frac{1}{4}" in text
    assert text.startswith("% case IX")


def test_nmax_must_fit_hint():
    p = CaseParams("I", F(5, 2), F(1, 3), F(2, 7), 3)
    with pytest.raises(ValueError):
        build_oracle(p, 4)


def test_nodes_order():
    p = CaseParams("IX", F(3), nmax_hint=2)
    t = build_oracle(p, 2)
    assert t.nodes() == [(0, 0), (1, 0), (0, 1), (2, 0), (1, 1), (0, 2)]

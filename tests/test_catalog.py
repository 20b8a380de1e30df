"""Golden tests: the cataloged operators, written out independently term by
term with the parameters as symbols and at fixed parameter values, plus spot
checks of the known identities."""

import random
import re
from fractions import Fraction as F
from itertools import product

import pytest

from kspoly.algebra import ONE, X, Y
from kspoly.catalog import (
    CASES,
    CaseParams,
    commuting_ops,
    edge_ladder,
    edge_operators,
    eigenvalue,
    generic_commuting_ops,
    generic_operator_L,
    operator_L,
    raising_commutator_rhs,
    raising_ops,
    recurrence_step,
    sample_params,
)
from kspoly.errors import ParameterError
from kspoly.triangle import _check_nmax, build_oracle
from kspoly.weyl import DiffOp, GenericOp

P2 = {
    c: CaseParams(c, F(2), F(1), F(1)) for c in ("I", "II", "III", "V", "VIII")
}
P9 = CaseParams("IX", F(3))


# -- golden operator terms (beta=2, kappa1=kappa2=1; case IX at beta=3) ------

GOLDEN_L = {
    "I": {
        (2, 0, 2, 0): 1, (1, 0, 2, 0): -1, (1, 1, 1, 1): 2,
        (0, 2, 0, 2): 1, (0, 1, 0, 2): -1,
        (1, 0, 1, 0): 2, (0, 0, 1, 0): 1, (0, 1, 0, 1): 2, (0, 0, 0, 1): 1,
    },
    "II": {
        (2, 0, 2, 0): 1, (1, 1, 1, 1): 2, (0, 2, 0, 2): 1, (0, 1, 0, 2): -1,
        (1, 0, 1, 0): 2, (0, 0, 1, 0): 1, (0, 1, 0, 1): 2, (0, 0, 0, 1): 1,
    },
    "III": {
        (2, 0, 2, 0): 1, (1, 1, 1, 1): 2, (0, 2, 0, 2): 1, (1, 0, 0, 2): 1,
        (1, 0, 1, 0): 2, (0, 0, 1, 0): 1, (0, 1, 0, 1): 2, (0, 0, 0, 1): 1,
    },
    "V": {
        (1, 0, 1, 1): 2, (0, 1, 0, 2): 1,
        (1, 0, 1, 0): 2, (0, 0, 1, 0): 1, (0, 1, 0, 1): 2, (0, 0, 0, 1): 1,
    },
    "VIII": {
        (0, 1, 2, 0): 1, (0, 0, 1, 1): 2,
        (1, 0, 1, 0): 2, (0, 0, 1, 0): 1, (0, 1, 0, 1): 2, (0, 0, 0, 1): 1,
    },
    "IX": {
        (2, 0, 2, 0): 1, (0, 0, 2, 0): -1, (1, 1, 1, 1): 2,
        (0, 2, 0, 2): 1, (0, 0, 0, 2): -1,
        (1, 0, 1, 0): 3, (0, 1, 0, 1): 3,
    },
}

GOLDEN_COMMUTING = {
    "I": (
        {(1, 0, 2, 0): 1, (2, 0, 2, 0): -1, (1, 1, 2, 0): -1,
         (0, 1, 1, 0): 1, (0, 0, 1, 0): -1, (1, 0, 1, 0): -3},
        {(0, 1, 0, 2): 1, (0, 2, 0, 2): -1, (1, 1, 0, 2): -1,
         (1, 0, 0, 1): 1, (0, 0, 0, 1): -1, (0, 1, 0, 1): -3},
        {(1, 1, 2, 0): 1, (1, 1, 1, 1): -2, (1, 1, 0, 2): 1,
         (1, 0, 1, 0): 1, (0, 1, 1, 0): -1, (1, 0, 0, 1): -1, (0, 1, 0, 1): 1},
    ),
    "II": (
        {(2, 0, 2, 0): 1, (1, 0, 1, 0): 3, (0, 0, 1, 0): 1, (0, 1, 1, 0): -1},
        {(1, 1, 0, 2): 1, (0, 1, 0, 1): 1, (1, 0, 0, 1): -1},
    ),
    "III": (
        {(2, 0, 1, 1): 2, (1, 1, 0, 2): 1, (1, 0, 1, 0): 1, (0, 1, 1, 0): -1,
         (1, 0, 0, 1): 2, (0, 0, 0, 1): 1},
        {(2, 0, 0, 2): 1, (1, 0, 0, 1): 1, (0, 1, 0, 1): -1},
    ),
    "V": (
        {(2, 0, 2, 0): 1, (1, 0, 1, 0): 1, (0, 1, 1, 0): -1},
        {(1, 0, 0, 2): 1, (1, 0, 0, 1): 2, (0, 0, 0, 1): 1},
    ),
    "VIII": (
        {(0, 0, 2, 0): 1, (0, 1, 1, 0): 2, (0, 0, 1, 0): 1},
        {(0, 2, 2, 0): 1, (1, 0, 2, 0): -1, (0, 1, 1, 1): 2, (0, 0, 0, 2): 1,
         (0, 1, 1, 0): 1, (1, 0, 1, 0): -1, (1, 0, 0, 1): 2, (0, 0, 0, 1): 1},
    ),
    "IX": (
        {(0, 0, 2, 0): 1, (2, 0, 2, 0): -1, (0, 2, 2, 0): -1, (1, 0, 1, 0): -2},
        {(0, 0, 0, 2): 1, (2, 0, 0, 2): -1, (0, 2, 0, 2): -1, (0, 1, 0, 1): -2},
        {(1, 0, 0, 1): 1, (0, 1, 1, 0): -1},
        {(0, 0, 1, 1): 2, (2, 0, 1, 1): -2, (0, 2, 1, 1): -2,
         (1, 0, 0, 1): -2, (0, 1, 1, 0): -2},
    ),
}


def _params(case):
    return P9 if case == "IX" else P2[case]


@pytest.mark.parametrize("case", CASES)
def test_operator_L_golden(case):
    assert operator_L(_params(case)) == DiffOp(GOLDEN_L[case])


@pytest.mark.parametrize("case", CASES)
def test_commuting_ops_golden(case):
    ops = commuting_ops(_params(case))
    assert len(ops) == len(GOLDEN_COMMUTING[case])
    for op, expected in zip(ops, GOLDEN_COMMUTING[case]):
        assert op == DiffOp(expected)


# -- golden generic terms: (i, j, k, l, p, q, r) for ------------------------------
# x^i y^j d_x^k d_y^l beta^p kappa1^q kappa2^r; unlike the numeric goldens,
# these tell kappa1 from kappa2

GOLDEN_GENERIC_L = {
    "I": {
        (2, 0, 2, 0, 0, 0, 0): 1, (1, 0, 2, 0, 0, 0, 0): -1, (1, 1, 1, 1, 0, 0, 0): 2,
        (0, 2, 0, 2, 0, 0, 0): 1, (0, 1, 0, 2, 0, 0, 0): -1,
        (1, 0, 1, 0, 1, 0, 0): 1, (0, 0, 1, 0, 0, 1, 0): 1,
        (0, 1, 0, 1, 1, 0, 0): 1, (0, 0, 0, 1, 0, 0, 1): 1,
    },
    "II": {
        (2, 0, 2, 0, 0, 0, 0): 1, (1, 1, 1, 1, 0, 0, 0): 2,
        (0, 2, 0, 2, 0, 0, 0): 1, (0, 1, 0, 2, 0, 0, 0): -1,
        (1, 0, 1, 0, 1, 0, 0): 1, (0, 0, 1, 0, 0, 1, 0): 1,
        (0, 1, 0, 1, 1, 0, 0): 1, (0, 0, 0, 1, 0, 0, 1): 1,
    },
    "III": {
        (2, 0, 2, 0, 0, 0, 0): 1, (1, 1, 1, 1, 0, 0, 0): 2,
        (0, 2, 0, 2, 0, 0, 0): 1, (1, 0, 0, 2, 0, 0, 0): 1,
        (1, 0, 1, 0, 1, 0, 0): 1, (0, 0, 1, 0, 0, 1, 0): 1,
        (0, 1, 0, 1, 1, 0, 0): 1, (0, 0, 0, 1, 0, 0, 1): 1,
    },
    "V": {
        (1, 0, 1, 1, 0, 0, 0): 2, (0, 1, 0, 2, 0, 0, 0): 1,
        (1, 0, 1, 0, 1, 0, 0): 1, (0, 0, 1, 0, 0, 1, 0): 1,
        (0, 1, 0, 1, 1, 0, 0): 1, (0, 0, 0, 1, 0, 0, 1): 1,
    },
    "VIII": {
        (0, 1, 2, 0, 0, 0, 0): 1, (0, 0, 1, 1, 0, 0, 0): 2,
        (1, 0, 1, 0, 1, 0, 0): 1, (0, 0, 1, 0, 0, 1, 0): 1,
        (0, 1, 0, 1, 1, 0, 0): 1, (0, 0, 0, 1, 0, 0, 1): 1,
    },
    "IX": {
        (2, 0, 2, 0, 0, 0, 0): 1, (0, 0, 2, 0, 0, 0, 0): -1, (1, 1, 1, 1, 0, 0, 0): 2,
        (0, 2, 0, 2, 0, 0, 0): 1, (0, 0, 0, 2, 0, 0, 0): -1,
        (1, 0, 1, 0, 1, 0, 0): 1, (0, 1, 0, 1, 1, 0, 0): 1,
    },
}

GOLDEN_GENERIC_COMMUTING = {
    "I": (
        {(1, 0, 2, 0, 0, 0, 0): 1, (2, 0, 2, 0, 0, 0, 0): -1, (1, 1, 2, 0, 0, 0, 0): -1,
         (0, 1, 1, 0, 0, 1, 0): 1, (0, 0, 1, 0, 0, 1, 0): -1,
         (1, 0, 1, 0, 1, 0, 0): -1, (1, 0, 1, 0, 0, 0, 1): -1},
        {(0, 1, 0, 2, 0, 0, 0): 1, (0, 2, 0, 2, 0, 0, 0): -1, (1, 1, 0, 2, 0, 0, 0): -1,
         (1, 0, 0, 1, 0, 0, 1): 1, (0, 0, 0, 1, 0, 0, 1): -1,
         (0, 1, 0, 1, 1, 0, 0): -1, (0, 1, 0, 1, 0, 1, 0): -1},
        {(1, 1, 2, 0, 0, 0, 0): 1, (1, 1, 1, 1, 0, 0, 0): -2, (1, 1, 0, 2, 0, 0, 0): 1,
         (1, 0, 1, 0, 0, 0, 1): 1, (0, 1, 1, 0, 0, 1, 0): -1,
         (1, 0, 0, 1, 0, 0, 1): -1, (0, 1, 0, 1, 0, 1, 0): 1},
    ),
    "II": (
        {(2, 0, 2, 0, 0, 0, 0): 1, (1, 0, 1, 0, 1, 0, 0): 1, (1, 0, 1, 0, 0, 0, 1): 1,
         (0, 0, 1, 0, 0, 1, 0): 1, (0, 1, 1, 0, 0, 1, 0): -1},
        {(1, 1, 0, 2, 0, 0, 0): 1, (0, 1, 0, 1, 0, 1, 0): 1, (1, 0, 0, 1, 0, 0, 1): -1},
    ),
    "III": (
        {(2, 0, 1, 1, 0, 0, 0): 2, (1, 1, 0, 2, 0, 0, 0): 1,
         (1, 0, 1, 0, 0, 0, 1): 1, (0, 1, 1, 0, 0, 1, 0): -1,
         (1, 0, 0, 1, 1, 0, 0): 1, (0, 0, 0, 1, 0, 1, 0): 1},
        {(2, 0, 0, 2, 0, 0, 0): 1, (1, 0, 0, 1, 0, 0, 1): 1, (0, 1, 0, 1, 0, 1, 0): -1},
    ),
    "V": (
        {(2, 0, 2, 0, 0, 0, 0): 1, (1, 0, 1, 0, 0, 0, 1): 1, (0, 1, 1, 0, 0, 1, 0): -1},
        {(1, 0, 0, 2, 0, 0, 0): 1, (1, 0, 0, 1, 1, 0, 0): 1, (0, 0, 0, 1, 0, 1, 0): 1},
    ),
    "VIII": (
        {(0, 0, 2, 0, 0, 0, 0): 1, (0, 1, 1, 0, 1, 0, 0): 1, (0, 0, 1, 0, 0, 0, 1): 1},
        {(0, 2, 2, 0, 0, 0, 0): 1, (1, 0, 2, 0, 0, 0, 0): -1, (0, 1, 1, 1, 0, 0, 0): 2,
         (0, 0, 0, 2, 0, 0, 0): 1, (0, 1, 1, 0, 0, 1, 0): 1, (1, 0, 1, 0, 0, 0, 1): -1,
         (1, 0, 0, 1, 1, 0, 0): 1, (0, 0, 0, 1, 0, 1, 0): 1},
    ),
    "IX": (
        {(0, 0, 2, 0, 0, 0, 0): 1, (2, 0, 2, 0, 0, 0, 0): -1, (0, 2, 2, 0, 0, 0, 0): -1,
         (1, 0, 1, 0, 0, 0, 0): 1, (1, 0, 1, 0, 1, 0, 0): -1},
        {(0, 0, 0, 2, 0, 0, 0): 1, (2, 0, 0, 2, 0, 0, 0): -1, (0, 2, 0, 2, 0, 0, 0): -1,
         (0, 1, 0, 1, 0, 0, 0): 1, (0, 1, 0, 1, 1, 0, 0): -1},
        {(1, 0, 0, 1, 0, 0, 0): 1, (0, 1, 1, 0, 0, 0, 0): -1},
        {(0, 0, 1, 1, 0, 0, 0): 2, (2, 0, 1, 1, 0, 0, 0): -2, (0, 2, 1, 1, 0, 0, 0): -2,
         (0, 1, 1, 0, 0, 0, 0): 1, (0, 1, 1, 0, 1, 0, 0): -1,
         (1, 0, 0, 1, 0, 0, 0): 1, (1, 0, 0, 1, 1, 0, 0): -1},
    ),
}


@pytest.mark.parametrize("case", CASES)
def test_generic_operators_golden(case):
    assert generic_operator_L(case) == GenericOp(GOLDEN_GENERIC_L[case])
    ops = generic_commuting_ops(case)
    assert len(ops) == len(GOLDEN_GENERIC_COMMUTING[case])
    for k, (op, expected) in enumerate(zip(ops, GOLDEN_GENERIC_COMMUTING[case]), start=1):
        assert op == GenericOp(expected), f"I{k}"


def _golden_at(terms, params):
    """A generic golden evaluated at params term by term, in Fractions."""
    b, k1, k2 = params.beta, params.kappa1, params.kappa2
    out = {}
    for (i, j, k, l, p, q, r), c in terms.items():
        out[(i, j, k, l)] = out.get((i, j, k, l), 0) + c * b**p * k1**q * k2**r
    return DiffOp(out)


def assert_catalog_matches_generic_goldens(params):
    case = params.case_id
    assert operator_L(params) == _golden_at(GOLDEN_GENERIC_L[case], params), params
    ops = commuting_ops(params)
    assert len(ops) == len(GOLDEN_GENERIC_COMMUTING[case])
    for k, (op, terms) in enumerate(zip(ops, GOLDEN_GENERIC_COMMUTING[case]), start=1):
        assert op == _golden_at(terms, params), (params, f"I{k}")


@pytest.mark.parametrize("case", CASES)
def test_generic_operators_match_catalog_at_samples(case):
    rng = random.Random(sum(map(ord, case)) + 41)
    for _ in range(12):
        assert_catalog_matches_generic_goldens(sample_params(case, rng))


@pytest.mark.parametrize("case", CASES)
def test_generic_operators_match_catalog_on_degenerate_lattice(case):
    betas = (F(1), F(2), F(1, 2), F(-1, 2), F(3, 2))
    kappas = [(F(0), F(0))] if case == "IX" else product((F(0), F(1), F(-1), F(1, 2)), repeat=2)
    for beta, (k1, k2) in product(betas, kappas):
        assert_catalog_matches_generic_goldens(CaseParams(case, beta, k1, k2))


@pytest.mark.parametrize("case", CASES)
def test_generic_commuting_ops_commute_with_L(case):
    # [L, I_k] = 0 for every parameter triple: one exact composition each
    L = generic_operator_L(case)
    for k, ik in enumerate(generic_commuting_ops(case), start=1):
        assert L.commutator(ik).is_zero(), f"I{k}"


def test_generic_operators_reject_unknown_case():
    for build in (generic_operator_L, generic_commuting_ops):
        with pytest.raises(ParameterError, match="unknown case 'IV'"):
            build("IV")


# -- eigenvalues ---------------------------------------------------------------


def test_eigenvalue_values():
    assert eigenvalue(P2["I"], 0) == 0
    assert eigenvalue(CaseParams("IX", F(2)), 3) == 12
    assert eigenvalue(CaseParams("V", F(5), F(1, 3), F(1, 7)), 2) == 10
    # alpha = 1 for the curved cases: 2(1 + 7/2) = 9
    assert eigenvalue(CaseParams("I", F(7, 2), F(1, 3), F(-1, 5)), 2) == 9


def test_L_annihilates_constants():
    for case in CASES:
        assert operator_L(_params(case)).apply(ONE).is_zero()


def test_L_case_ix_on_known_eigenfunction():
    # P_{1,1} = xy at beta=3 has eigenvalue 2(beta+1) = 8
    assert operator_L(P9).apply(X * Y) == 8 * X * Y


def test_commutators_vanish_spot():
    params = CaseParams("I", F(7, 2), F(1, 3), F(-1, 5))
    L = operator_L(params)
    for ik in commuting_ops(params):
        assert L.commutator(ik).is_zero()


def test_commutators_vanish_random():
    rng = random.Random(19)
    for case in CASES:
        for _ in range(10):
            params = sample_params(case, rng)
            L = operator_L(params)
            for ik in commuting_ops(params):
                assert L.commutator(ik).is_zero()


def test_shifted_scaled_L_expansion():
    # (L - lambda_1)/(beta + 2N - 1) for case I, N=1, beta=2: written out by hand
    params = CaseParams("I", F(2), F(1, 3), F(-1, 5))
    L = operator_L(params)
    third = F(1, 3)
    expected = DiffOp(
        {
            (2, 0, 2, 0): third, (1, 0, 2, 0): -third,
            (1, 1, 1, 1): F(2, 3),
            (0, 2, 0, 2): third, (0, 1, 0, 2): -third,
            (1, 0, 1, 0): F(2, 3), (0, 0, 1, 0): F(1, 9),
            (0, 1, 0, 1): F(2, 3), (0, 0, 0, 1): F(-1, 15),
            (0, 0, 0, 0): F(-2, 3),
        }
    )
    assert third * (L - eigenvalue(params, 1) * DiffOp.identity()) == expected


# -- raising operators ------------------------------------------------------------


def test_raising_viii_golden():
    # R+y = (y + kappa2/beta) + (1/beta) d_x, independent of N
    params = P2["VIII"]
    for N in (0, 3):
        _, ry = raising_ops(params, N)
        assert ry == DiffOp(
            {(0, 1, 0, 0): 1, (0, 0, 0, 0): F(1, 2), (0, 0, 1, 0): F(1, 2)}
        )


def test_raising_ix_n0_golden():
    rx, _ = raising_ops(P9, 0)
    assert rx == DiffOp(
        {
            (1, 1, 0, 1): F(1, 2),
            (2, 0, 1, 0): F(1, 2),
            (0, 0, 1, 0): F(-1, 2),
            (1, 0, 0, 0): 1,
        }
    )


def test_raising_from_constant_gives_degree_one():
    rng = random.Random(5)
    for case in CASES:
        params = sample_params(case, rng)
        rx, ry = raising_ops(params, 0)
        assert rx.apply(ONE) == X + (params.kappa1 / params.beta) * ONE
        assert ry.apply(ONE) == Y + (params.kappa2 / params.beta) * ONE


def test_raising_denominator_guard():
    # beta = 1 is a valid parameter set, but R(N=0) has a vanishing prefactor
    params = CaseParams("IX", F(1))
    with pytest.raises(ParameterError):
        raising_ops(params, 0)


def test_negative_raising_degree_is_a_parameter_error():
    with pytest.raises(ParameterError, match="N must be nonnegative, not -1"):
        raising_ops(P2["I"], -1)


@pytest.mark.parametrize("axis", ["x", "y"])
def test_negative_edge_ladder_index_is_a_parameter_error(axis):
    with pytest.raises(ParameterError, match="k must be nonnegative, not -1"):
        edge_ladder(CaseParams("I", F(7, 2)), axis, -1)


def test_commutator_rhs_viii_is_scaled_raising():
    params = P2["VIII"]
    L = operator_L(params)
    for N in range(4):
        rx, ry = raising_ops(params, N)
        assert raising_commutator_rhs(params, N, "x", L, rx) == 2 * rx
        assert raising_commutator_rhs(params, N, "y", L, ry) == 2 * ry


def test_raising_commutators_hold():
    rng = random.Random(23)
    for case in CASES:
        params = sample_params(case, rng)
        L = operator_L(params)
        for N in range(7):
            rx, ry = raising_ops(params, N)
            for axis, r in (("x", rx), ("y", ry)):
                rhs = raising_commutator_rhs(params, N, axis, L, r)
                assert L.commutator(r) == rhs, (case, N, axis)


# -- edge operators ------------------------------------------------------------


def test_edge_operator_golden():
    lx, _ = edge_operators(P2["II"])
    assert lx == DiffOp({(2, 0, 2, 0): 1, (1, 0, 1, 0): 2, (0, 0, 1, 0): 1})
    lx5, ly5 = edge_operators(P2["V"])
    assert lx5 == DiffOp({(1, 0, 1, 0): 2, (0, 0, 1, 0): 1})
    assert ly5 == DiffOp({(0, 1, 0, 2): 1, (0, 1, 0, 1): 2, (0, 0, 0, 1): 1})


def test_edge_absences():
    assert edge_operators(P2["III"])[1] is None
    assert edge_operators(P2["VIII"])[0] is None


def test_edge_operator_ix_is_restriction_of_L():
    lx, ly = edge_operators(P9)
    assert lx == DiffOp({(2, 0, 2, 0): 1, (0, 0, 2, 0): -1, (1, 0, 1, 0): 3})
    assert ly == DiffOp({(0, 2, 0, 2): 1, (0, 0, 0, 2): -1, (0, 1, 0, 1): 3})


# -- parameter validation ----------------------------------------------------------


def test_params_reject_bad_beta():
    # the rule on beta belongs to the levels built, and holds even at nmax 0
    with pytest.raises(ParameterError):
        build_oracle(CaseParams("I", F(-2), F(1), F(1)), 0)
    with pytest.raises(ParameterError):
        CaseParams("V", F(0), F(1), F(1))


def test_beta_rule_matches_the_loop_over_k():
    # reference: the rule as stated, beta + k != 0 for 0 <= k <= 2*nmax + 2
    for q in (1, 2, 3):
        for p in range(-40, 41):
            params = CaseParams("I", F(p, q))
            for nmax in range(12):
                bad = [k for k in range(2 * nmax + 3) if params.beta + k == 0]
                if not bad:
                    _check_nmax(params, nmax)
                    continue
                message = (
                    f"beta = {params.beta} violates the rule beta + k != 0 for "
                    f"0 <= k <= {2 * nmax + 2} (fails at k = {bad[0]})"
                )
                with pytest.raises(ParameterError, match=re.escape(message) + "$"):
                    _check_nmax(params, nmax)


def test_params_reject_floats():
    with pytest.raises(ParameterError, match="beta"):
        CaseParams("IX", 2.5)
    with pytest.raises(ParameterError, match="kappa2"):
        CaseParams("I", F(5, 2), F(1, 3), 0.5)


def test_params_reject_unknown_case():
    with pytest.raises(ParameterError):
        CaseParams("IV", F(2), F(0), F(0))


def test_params_reject_kappa_for_ix():
    with pytest.raises(ParameterError):
        CaseParams("IX", F(3), F(1, 2), F(0))


def test_sampled_params_are_valid():
    rng = random.Random(1)
    for case in CASES:
        for _ in range(20):
            params = sample_params(case, rng)
            assert params.beta > 0
            assert params.beta.denominator > 1


def test_eigenvalues_distinct_up_to_hint():
    rng = random.Random(6)
    for case in CASES:
        for _ in range(5):
            params = sample_params(case, rng)
            values = [eigenvalue(params, N) for N in range(9)]
            assert len(set(values)) == len(values)


# -- recurrence denominators ---------------------------------------------------------


def params_at(case, beta):
    # CaseParams takes an integer beta that makes a level factor vanish: the
    # rule that rejects it is applied by the builders, for their nmax
    kappas = () if case == "IX" else (F(1, 3), F(2, 7))
    return CaseParams(case, F(beta), *kappas)


@pytest.mark.parametrize(
    "case, beta, N, factor",
    [
        # only an A factor (beta+2N, beta+2N-2) vanishes
        ("I", -2, 1, "beta+2N"),
        ("II", -4, 2, "beta+2N"),
        # only a B factor (beta+2N-1, beta+2N-2 twice, beta+2N-3) vanishes
        ("III", -1, 1, "beta+2N-1"),
        ("I", -1, 2, "beta+2N-3"),
        # case IX: a C factor (beta+2N-1, beta+2N-3) vanishes
        ("IX", -3, 2, "beta+2N-1"),
        ("IX", -1, 2, "beta+2N-3"),
    ],
)
@pytest.mark.parametrize("axis", ("x", "y"))
def test_recurrence_step_names_the_vanishing_factor(case, beta, N, factor, axis):
    m, n = (N, 0) if axis == "x" else (0, N)
    message = f"case {case} recurrence at (m,n)=({m},{n}): denominator {factor} vanishes"
    with pytest.raises(ParameterError, match=re.escape(message) + "$"):
        recurrence_step(params_at(case, beta), axis, m, n)


@pytest.mark.parametrize("case", ("I", "II", "III", "IX"))
@pytest.mark.parametrize("axis", ("x", "y"))
def test_zero_numerator_over_a_vanishing_factor_still_raises(case, axis):
    # beta = 1 is valid, and at N = 1 every tail numerator over beta+2N-3 is
    # zero: a 0/0 limit, not a zero coefficient
    kappas = () if case == "IX" else (F(1, 3), F(2, 7))
    m, n = (1, 0) if axis == "x" else (0, 1)
    with pytest.raises(ParameterError, match=re.escape("denominator beta+2N-3 vanishes")):
        recurrence_step(CaseParams(case, F(1), *kappas), axis, m, n)

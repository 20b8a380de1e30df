"""Golden tests: the cataloged operators, written out independently term by
term with the parameters as symbols and at fixed parameter values, plus spot
checks of the known identities."""

import copy
import importlib
import pickle
import random
import re
from fractions import Fraction as F
from itertools import product
from math import comb, prod
from operator import add, itemgetter

import pytest

import kspoly
from kspoly.algebra import ONE, X, Y, Terms, _Unreduced
from kspoly.catalog import (
    CASES,
    CaseParams,
    action_relations,
    alpha,
    commuting_ops,
    edge_operators,
    eigenvalue,
    generic_operators,
    operator_L,
    quadratic_relations,
    raising_ops,
    raising_relation,
    recurrence_step,
    sample_params,
    _SYMBOLS,
    _action_rows,
    _recurrence_tail,
)
from kspoly.errors import ParameterError
from kspoly.verify import perturb_term
from kspoly.triangle import _check_nmax, build_oracle
from kspoly.weyl import DiffOp, GenericOp
from test_triangle import DERIVATIVE_SHIFTS

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


# -- golden generic terms: (i, j, k, l, p, q, r, s) for ---------------------------
# x^i y^j d_x^k d_y^l beta^p kappa1^q kappa2^r N^s; unlike the numeric
# goldens, these tell kappa1 from kappa2

GOLDEN_GENERIC_L = {
    "I": {
        (2, 0, 2, 0, 0, 0, 0, 0): 1, (1, 0, 2, 0, 0, 0, 0, 0): -1, (1, 1, 1, 1, 0, 0, 0, 0): 2,
        (0, 2, 0, 2, 0, 0, 0, 0): 1, (0, 1, 0, 2, 0, 0, 0, 0): -1,
        (1, 0, 1, 0, 1, 0, 0, 0): 1, (0, 0, 1, 0, 0, 1, 0, 0): 1,
        (0, 1, 0, 1, 1, 0, 0, 0): 1, (0, 0, 0, 1, 0, 0, 1, 0): 1,
    },
    "II": {
        (2, 0, 2, 0, 0, 0, 0, 0): 1, (1, 1, 1, 1, 0, 0, 0, 0): 2,
        (0, 2, 0, 2, 0, 0, 0, 0): 1, (0, 1, 0, 2, 0, 0, 0, 0): -1,
        (1, 0, 1, 0, 1, 0, 0, 0): 1, (0, 0, 1, 0, 0, 1, 0, 0): 1,
        (0, 1, 0, 1, 1, 0, 0, 0): 1, (0, 0, 0, 1, 0, 0, 1, 0): 1,
    },
    "III": {
        (2, 0, 2, 0, 0, 0, 0, 0): 1, (1, 1, 1, 1, 0, 0, 0, 0): 2,
        (0, 2, 0, 2, 0, 0, 0, 0): 1, (1, 0, 0, 2, 0, 0, 0, 0): 1,
        (1, 0, 1, 0, 1, 0, 0, 0): 1, (0, 0, 1, 0, 0, 1, 0, 0): 1,
        (0, 1, 0, 1, 1, 0, 0, 0): 1, (0, 0, 0, 1, 0, 0, 1, 0): 1,
    },
    "V": {
        (1, 0, 1, 1, 0, 0, 0, 0): 2, (0, 1, 0, 2, 0, 0, 0, 0): 1,
        (1, 0, 1, 0, 1, 0, 0, 0): 1, (0, 0, 1, 0, 0, 1, 0, 0): 1,
        (0, 1, 0, 1, 1, 0, 0, 0): 1, (0, 0, 0, 1, 0, 0, 1, 0): 1,
    },
    "VIII": {
        (0, 1, 2, 0, 0, 0, 0, 0): 1, (0, 0, 1, 1, 0, 0, 0, 0): 2,
        (1, 0, 1, 0, 1, 0, 0, 0): 1, (0, 0, 1, 0, 0, 1, 0, 0): 1,
        (0, 1, 0, 1, 1, 0, 0, 0): 1, (0, 0, 0, 1, 0, 0, 1, 0): 1,
    },
    "IX": {
        (2, 0, 2, 0, 0, 0, 0, 0): 1, (0, 0, 2, 0, 0, 0, 0, 0): -1, (1, 1, 1, 1, 0, 0, 0, 0): 2,
        (0, 2, 0, 2, 0, 0, 0, 0): 1, (0, 0, 0, 2, 0, 0, 0, 0): -1,
        (1, 0, 1, 0, 1, 0, 0, 0): 1, (0, 1, 0, 1, 1, 0, 0, 0): 1,
    },
}

GOLDEN_GENERIC_COMMUTING = {
    "I": (
        {(1, 0, 2, 0, 0, 0, 0, 0): 1, (2, 0, 2, 0, 0, 0, 0, 0): -1, (1, 1, 2, 0, 0, 0, 0, 0): -1,
         (0, 1, 1, 0, 0, 1, 0, 0): 1, (0, 0, 1, 0, 0, 1, 0, 0): -1,
         (1, 0, 1, 0, 1, 0, 0, 0): -1, (1, 0, 1, 0, 0, 0, 1, 0): -1},
        {(0, 1, 0, 2, 0, 0, 0, 0): 1, (0, 2, 0, 2, 0, 0, 0, 0): -1, (1, 1, 0, 2, 0, 0, 0, 0): -1,
         (1, 0, 0, 1, 0, 0, 1, 0): 1, (0, 0, 0, 1, 0, 0, 1, 0): -1,
         (0, 1, 0, 1, 1, 0, 0, 0): -1, (0, 1, 0, 1, 0, 1, 0, 0): -1},
        {(1, 1, 2, 0, 0, 0, 0, 0): 1, (1, 1, 1, 1, 0, 0, 0, 0): -2, (1, 1, 0, 2, 0, 0, 0, 0): 1,
         (1, 0, 1, 0, 0, 0, 1, 0): 1, (0, 1, 1, 0, 0, 1, 0, 0): -1,
         (1, 0, 0, 1, 0, 0, 1, 0): -1, (0, 1, 0, 1, 0, 1, 0, 0): 1},
    ),
    "II": (
        {(2, 0, 2, 0, 0, 0, 0, 0): 1, (1, 0, 1, 0, 1, 0, 0, 0): 1, (1, 0, 1, 0, 0, 0, 1, 0): 1,
         (0, 0, 1, 0, 0, 1, 0, 0): 1, (0, 1, 1, 0, 0, 1, 0, 0): -1},
        {(1, 1, 0, 2, 0, 0, 0, 0): 1, (0, 1, 0, 1, 0, 1, 0, 0): 1, (1, 0, 0, 1, 0, 0, 1, 0): -1},
    ),
    "III": (
        {(2, 0, 1, 1, 0, 0, 0, 0): 2, (1, 1, 0, 2, 0, 0, 0, 0): 1,
         (1, 0, 1, 0, 0, 0, 1, 0): 1, (0, 1, 1, 0, 0, 1, 0, 0): -1,
         (1, 0, 0, 1, 1, 0, 0, 0): 1, (0, 0, 0, 1, 0, 1, 0, 0): 1},
        {(2, 0, 0, 2, 0, 0, 0, 0): 1, (1, 0, 0, 1, 0, 0, 1, 0): 1, (0, 1, 0, 1, 0, 1, 0, 0): -1},
    ),
    "V": (
        {(2, 0, 2, 0, 0, 0, 0, 0): 1, (1, 0, 1, 0, 0, 0, 1, 0): 1, (0, 1, 1, 0, 0, 1, 0, 0): -1},
        {(1, 0, 0, 2, 0, 0, 0, 0): 1, (1, 0, 0, 1, 1, 0, 0, 0): 1, (0, 0, 0, 1, 0, 1, 0, 0): 1},
    ),
    "VIII": (
        {(0, 0, 2, 0, 0, 0, 0, 0): 1, (0, 1, 1, 0, 1, 0, 0, 0): 1, (0, 0, 1, 0, 0, 0, 1, 0): 1},
        {(0, 2, 2, 0, 0, 0, 0, 0): 1, (1, 0, 2, 0, 0, 0, 0, 0): -1, (0, 1, 1, 1, 0, 0, 0, 0): 2,
         (0, 0, 0, 2, 0, 0, 0, 0): 1, (0, 1, 1, 0, 0, 1, 0, 0): 1, (1, 0, 1, 0, 0, 0, 1, 0): -1,
         (1, 0, 0, 1, 1, 0, 0, 0): 1, (0, 0, 0, 1, 0, 1, 0, 0): 1},
    ),
    "IX": (
        {(0, 0, 2, 0, 0, 0, 0, 0): 1, (2, 0, 2, 0, 0, 0, 0, 0): -1, (0, 2, 2, 0, 0, 0, 0, 0): -1,
         (1, 0, 1, 0, 0, 0, 0, 0): 1, (1, 0, 1, 0, 1, 0, 0, 0): -1},
        {(0, 0, 0, 2, 0, 0, 0, 0): 1, (2, 0, 0, 2, 0, 0, 0, 0): -1, (0, 2, 0, 2, 0, 0, 0, 0): -1,
         (0, 1, 0, 1, 0, 0, 0, 0): 1, (0, 1, 0, 1, 1, 0, 0, 0): -1},
        {(1, 0, 0, 1, 0, 0, 0, 0): 1, (0, 1, 1, 0, 0, 0, 0, 0): -1},
        {(0, 0, 1, 1, 0, 0, 0, 0): 2, (2, 0, 1, 1, 0, 0, 0, 0): -2, (0, 2, 1, 1, 0, 0, 0, 0): -2,
         (0, 1, 1, 0, 0, 0, 0, 0): 1, (0, 1, 1, 0, 1, 0, 0, 0): -1,
         (1, 0, 0, 1, 0, 0, 0, 0): 1, (1, 0, 0, 1, 1, 0, 0, 0): -1},
    ),
}


# The raising operators, each cleared of its structural denominator, and the
# edge operators; s is the exponent of N.

GOLDEN_GENERIC_RAISING = {
    "I": (
        {(1, 0, 0, 0, 2, 0, 0, 0): 1, (1, 0, 0, 0, 1, 0, 0, 1): 3, (1, 0, 0, 0, 0, 0, 0, 2): 2,
         (1, 0, 0, 0, 1, 0, 0, 0): -1, (1, 0, 0, 0, 0, 0, 0, 1): -2,
         (0, 0, 0, 0, 1, 1, 0, 0): 1, (0, 0, 0, 0, 1, 0, 0, 1): -1, (0, 0, 0, 0, 0, 1, 0, 1): 1,
         (0, 0, 0, 0, 0, 0, 0, 2): -1, (0, 0, 0, 0, 0, 1, 0, 0): -1, (0, 0, 0, 0, 0, 0, 0, 1): 1,
         (2, 0, 1, 0, 1, 0, 0, 0): 1, (2, 0, 1, 0, 0, 0, 0, 1): 2,
         (1, 0, 1, 0, 1, 0, 0, 0): -1, (1, 0, 1, 0, 0, 0, 0, 1): -2,
         (1, 1, 0, 1, 1, 0, 0, 0): 1, (1, 1, 0, 1, 0, 0, 0, 1): 2, (0, 1, 0, 1, 1, 0, 0, 0): 1,
         (0, 1, 0, 1, 0, 1, 0, 0): 1, (0, 0, 0, 1, 0, 0, 1, 0): 1, (1, 0, 0, 1, 0, 0, 1, 0): -1,
         (1, 1, 0, 2, 0, 0, 0, 0): 1, (0, 2, 0, 2, 0, 0, 0, 0): 1, (0, 1, 0, 2, 0, 0, 0, 0): -1},
        {(0, 1, 0, 0, 2, 0, 0, 0): 1, (0, 1, 0, 0, 1, 0, 0, 1): 3, (0, 1, 0, 0, 0, 0, 0, 2): 2,
         (0, 1, 0, 0, 1, 0, 0, 0): -1, (0, 1, 0, 0, 0, 0, 0, 1): -2,
         (0, 0, 0, 0, 1, 0, 1, 0): 1, (0, 0, 0, 0, 1, 0, 0, 1): -1, (0, 0, 0, 0, 0, 0, 1, 1): 1,
         (0, 0, 0, 0, 0, 0, 0, 2): -1, (0, 0, 0, 0, 0, 0, 1, 0): -1, (0, 0, 0, 0, 0, 0, 0, 1): 1,
         (0, 2, 0, 1, 1, 0, 0, 0): 1, (0, 2, 0, 1, 0, 0, 0, 1): 2,
         (0, 1, 0, 1, 1, 0, 0, 0): -1, (0, 1, 0, 1, 0, 0, 0, 1): -2,
         (1, 1, 1, 0, 1, 0, 0, 0): 1, (1, 1, 1, 0, 0, 0, 0, 1): 2, (1, 0, 1, 0, 1, 0, 0, 0): 1,
         (1, 0, 1, 0, 0, 0, 1, 0): 1, (0, 0, 1, 0, 0, 1, 0, 0): 1, (0, 1, 1, 0, 0, 1, 0, 0): -1,
         (1, 1, 2, 0, 0, 0, 0, 0): 1, (2, 0, 2, 0, 0, 0, 0, 0): 1, (1, 0, 2, 0, 0, 0, 0, 0): -1},
    ),
    "II": (
        {(1, 0, 0, 0, 2, 0, 0, 0): 1, (1, 0, 0, 0, 1, 0, 0, 1): 3, (1, 0, 0, 0, 0, 0, 0, 2): 2,
         (1, 0, 0, 0, 1, 0, 0, 0): -1, (1, 0, 0, 0, 0, 0, 0, 1): -2,
         (0, 0, 0, 0, 1, 1, 0, 0): 1, (0, 0, 0, 0, 0, 1, 0, 1): 1, (0, 0, 0, 0, 0, 1, 0, 0): -1,
         (2, 0, 1, 0, 1, 0, 0, 0): 1, (2, 0, 1, 0, 0, 0, 0, 1): 2,
         (1, 1, 0, 1, 1, 0, 0, 0): 1, (1, 1, 0, 1, 0, 0, 0, 1): 2,
         (0, 1, 0, 1, 0, 1, 0, 0): 1, (1, 0, 0, 1, 0, 0, 1, 0): -1,
         (1, 1, 0, 2, 0, 0, 0, 0): 1},
        {(0, 1, 0, 0, 2, 0, 0, 0): 1, (0, 1, 0, 0, 1, 0, 0, 1): 3, (0, 1, 0, 0, 0, 0, 0, 2): 2,
         (0, 1, 0, 0, 1, 0, 0, 0): -1, (0, 1, 0, 0, 0, 0, 0, 1): -2,
         (0, 0, 0, 0, 1, 0, 1, 0): 1, (0, 0, 0, 0, 1, 0, 0, 1): -1, (0, 0, 0, 0, 0, 0, 1, 1): 1,
         (0, 0, 0, 0, 0, 0, 0, 2): -1, (0, 0, 0, 0, 0, 0, 1, 0): -1, (0, 0, 0, 0, 0, 0, 0, 1): 1,
         (1, 1, 1, 0, 1, 0, 0, 0): 1, (1, 1, 1, 0, 0, 0, 0, 1): 2, (1, 0, 1, 0, 1, 0, 0, 0): 1,
         (1, 0, 1, 0, 0, 0, 1, 0): 1, (0, 0, 1, 0, 0, 1, 0, 0): 1, (0, 1, 1, 0, 0, 1, 0, 0): -1,
         (0, 2, 0, 1, 1, 0, 0, 0): 1, (0, 2, 0, 1, 0, 0, 0, 1): 2,
         (0, 1, 0, 1, 1, 0, 0, 0): -1, (0, 1, 0, 1, 0, 0, 0, 1): -2,
         (2, 0, 2, 0, 0, 0, 0, 0): 1},
    ),
    "III": (
        {(1, 0, 0, 0, 2, 0, 0, 0): 1, (1, 0, 0, 0, 1, 0, 0, 1): 3, (1, 0, 0, 0, 0, 0, 0, 2): 2,
         (1, 0, 0, 0, 1, 0, 0, 0): -1, (1, 0, 0, 0, 0, 0, 0, 1): -2,
         (0, 0, 0, 0, 1, 1, 0, 0): 1, (0, 0, 0, 0, 0, 1, 0, 1): 1, (0, 0, 0, 0, 0, 1, 0, 0): -1,
         (2, 0, 1, 0, 1, 0, 0, 0): 1, (2, 0, 1, 0, 0, 0, 0, 1): 2,
         (1, 1, 0, 1, 1, 0, 0, 0): 1, (1, 1, 0, 1, 0, 0, 0, 1): 2,
         (0, 1, 0, 1, 0, 1, 0, 0): 1, (1, 0, 0, 1, 0, 0, 1, 0): -1,
         (2, 0, 0, 2, 0, 0, 0, 0): -1},
        {(0, 1, 0, 0, 2, 0, 0, 0): 1, (0, 1, 0, 0, 1, 0, 0, 1): 3, (0, 1, 0, 0, 0, 0, 0, 2): 2,
         (0, 1, 0, 0, 1, 0, 0, 0): -1, (0, 1, 0, 0, 0, 0, 0, 1): -2,
         (0, 0, 0, 0, 1, 0, 1, 0): 1, (0, 0, 0, 0, 0, 0, 1, 1): 1, (0, 0, 0, 0, 0, 0, 1, 0): -1,
         (1, 1, 1, 0, 1, 0, 0, 0): 1, (1, 1, 1, 0, 0, 0, 0, 1): 2,
         (1, 0, 1, 0, 0, 0, 1, 0): 1, (0, 1, 1, 0, 0, 1, 0, 0): -1,
         (0, 2, 0, 1, 1, 0, 0, 0): 1, (0, 2, 0, 1, 0, 0, 0, 1): 2,
         (1, 0, 0, 1, 1, 0, 0, 0): 2, (1, 0, 0, 1, 0, 0, 0, 1): 2, (0, 0, 0, 1, 0, 1, 0, 0): 1,
         (2, 0, 1, 1, 0, 0, 0, 0): 2, (1, 1, 0, 2, 0, 0, 0, 0): 1},
    ),
    "V": (
        {(1, 0, 0, 2, 0, 0, 0, 0): 1, (1, 0, 0, 1, 1, 0, 0, 0): 2, (0, 0, 0, 1, 0, 1, 0, 0): 1,
         (1, 0, 0, 0, 2, 0, 0, 0): 1, (0, 0, 0, 0, 1, 1, 0, 0): 1},
        {(1, 0, 1, 0, 0, 0, 0, 0): 1, (0, 1, 0, 1, 0, 0, 0, 0): 1, (0, 1, 0, 0, 1, 0, 0, 0): 1,
         (0, 0, 0, 0, 0, 0, 0, 1): 1, (0, 0, 0, 0, 0, 0, 1, 0): 1},
    ),
    "VIII": (
        {(1, 0, 0, 0, 2, 0, 0, 0): 1, (0, 0, 0, 0, 1, 1, 0, 0): 1, (0, 0, 0, 1, 1, 0, 0, 0): 1,
         (0, 1, 1, 0, 1, 0, 0, 0): 2, (0, 0, 1, 0, 0, 0, 1, 0): 1, (0, 0, 2, 0, 0, 0, 0, 0): 1},
        {(0, 1, 0, 0, 1, 0, 0, 0): 1, (0, 0, 0, 0, 0, 0, 1, 0): 1, (0, 0, 1, 0, 0, 0, 0, 0): 1},
    ),
    "IX": (
        {(1, 1, 0, 1, 0, 0, 0, 0): 1, (2, 0, 1, 0, 0, 0, 0, 0): 1, (0, 0, 1, 0, 0, 0, 0, 0): -1,
         (1, 0, 0, 0, 1, 0, 0, 0): 1, (1, 0, 0, 0, 0, 0, 0, 1): 1, (1, 0, 0, 0, 0, 0, 0, 0): -1},
        {(1, 1, 1, 0, 0, 0, 0, 0): 1, (0, 2, 0, 1, 0, 0, 0, 0): 1, (0, 0, 0, 1, 0, 0, 0, 0): -1,
         (0, 1, 0, 0, 1, 0, 0, 0): 1, (0, 1, 0, 0, 0, 0, 0, 1): 1, (0, 1, 0, 0, 0, 0, 0, 0): -1},
    ),
}

GOLDEN_GENERIC_EDGE_OPERATORS = {
    "I": (
        {(2, 0, 2, 0, 0, 0, 0, 0): 1, (1, 0, 2, 0, 0, 0, 0, 0): -1,
         (1, 0, 1, 0, 1, 0, 0, 0): 1, (0, 0, 1, 0, 0, 1, 0, 0): 1},
        {(0, 2, 0, 2, 0, 0, 0, 0): 1, (0, 1, 0, 2, 0, 0, 0, 0): -1,
         (0, 1, 0, 1, 1, 0, 0, 0): 1, (0, 0, 0, 1, 0, 0, 1, 0): 1},
    ),
    "II": (
        {(2, 0, 2, 0, 0, 0, 0, 0): 1, (1, 0, 1, 0, 1, 0, 0, 0): 1, (0, 0, 1, 0, 0, 1, 0, 0): 1},
        {(0, 2, 0, 2, 0, 0, 0, 0): 1, (0, 1, 0, 2, 0, 0, 0, 0): -1,
         (0, 1, 0, 1, 1, 0, 0, 0): 1, (0, 0, 0, 1, 0, 0, 1, 0): 1},
    ),
    "III": (
        {(2, 0, 2, 0, 0, 0, 0, 0): 1, (1, 0, 1, 0, 1, 0, 0, 0): 1, (0, 0, 1, 0, 0, 1, 0, 0): 1},
        None,
    ),
    "V": (
        {(1, 0, 1, 0, 1, 0, 0, 0): 1, (0, 0, 1, 0, 0, 1, 0, 0): 1},
        {(0, 1, 0, 2, 0, 0, 0, 0): 1, (0, 1, 0, 1, 1, 0, 0, 0): 1, (0, 0, 0, 1, 0, 0, 1, 0): 1},
    ),
    "VIII": (
        None,
        {(0, 1, 0, 1, 1, 0, 0, 0): 1, (0, 0, 0, 1, 0, 0, 1, 0): 1},
    ),
    "IX": (
        {(2, 0, 2, 0, 0, 0, 0, 0): 1, (0, 0, 2, 0, 0, 0, 0, 0): -1, (1, 0, 1, 0, 1, 0, 0, 0): 1},
        {(0, 2, 0, 2, 0, 0, 0, 0): 1, (0, 0, 0, 2, 0, 0, 0, 0): -1, (0, 1, 0, 1, 1, 0, 0, 0): 1},
    ),
}

def raising_denominators(case, beta, N):
    """The structural denominators of R+x(N) and R+y(N)."""
    if case in ("I", "II", "III"):
        return ((beta + 2 * N) * (beta + 2 * N - 1),) * 2
    if case == "IX":
        return (beta + 2 * N - 1,) * 2
    return (beta * beta, beta)


@pytest.mark.parametrize("case", CASES)
def test_generic_operators_golden(case):
    source = generic_operators(case)
    assert source.L == GenericOp(GOLDEN_GENERIC_L[case])
    ops = source.commuting
    assert len(ops) == len(GOLDEN_GENERIC_COMMUTING[case])
    for k, (op, expected) in enumerate(zip(ops, GOLDEN_GENERIC_COMMUTING[case]), start=1):
        assert op == GenericOp(expected), f"I{k}"
    for ops, goldens in (
        (source.raising, GOLDEN_GENERIC_RAISING[case]),
        (source.edge_operators, GOLDEN_GENERIC_EDGE_OPERATORS[case]),
    ):
        assert ops == tuple(None if terms is None else GenericOp(terms) for terms in goldens)


def _golden_at(terms, params, N=0):
    """A generic golden evaluated at params and N term by term, in Fractions."""
    b, k1, k2 = params.beta, params.kappa1, params.kappa2
    out = {}
    for (i, j, k, l, p, q, r, s), c in terms.items():
        out[(i, j, k, l)] = out.get((i, j, k, l), 0) + c * b**p * k1**q * k2**r * F(N) ** s
    return DiffOp(out)


def _cleared_golden_at(terms, den, params, N):
    # None where the case has no such operator
    return None if terms is None else _golden_at(terms, params, N) * (1 / den)


def assert_catalog_matches_generic_goldens(params):
    case = params.case_id
    assert operator_L(params) == _golden_at(GOLDEN_GENERIC_L[case], params), params
    ops = commuting_ops(params)
    assert len(ops) == len(GOLDEN_GENERIC_COMMUTING[case])
    for k, (op, terms) in enumerate(zip(ops, GOLDEN_GENERIC_COMMUTING[case]), start=1):
        assert op == _golden_at(terms, params), (params, f"I{k}")
    expected = tuple(
        None if terms is None else _golden_at(terms, params)
        for terms in GOLDEN_GENERIC_EDGE_OPERATORS[case]
    )
    assert edge_operators(params) == expected, params
    for N in range(5):
        dens = raising_denominators(case, params.beta, N)
        if 0 in dens:
            with pytest.raises(ParameterError, match="vanishes"):
                raising_ops(params, N)
        else:
            expected = tuple(
                _cleared_golden_at(terms, den, params, N)
                for terms, den in zip(GOLDEN_GENERIC_RAISING[case], dens)
            )
            assert raising_ops(params, N) == expected, (params, N)


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
    source = generic_operators(case)
    for k, ik in enumerate(source.commuting, start=1):
        assert source.L.commutator(ik).is_zero(), f"I{k}"


def _swap(op):
    """sigma: x <-> y, d_x <-> d_y and kappa1 <-> kappa2 on every term."""
    return GenericOp({(j, i, l, k, p, r, q, s): c for (i, j, k, l, p, q, r, s), c in op.items()})


@pytest.mark.parametrize("case", ["I", "IX"])
def test_swap_is_a_symmetry_of_the_whole_operator_record(case):
    # for every parameter triple: sigma fixes L, permutes the commuting
    # family (IX's I3 changes sign), and exchanges R+x with R+y and the two
    # edge operators; check_swap_symmetry compares sampled tables only
    ops = generic_operators(case)
    i1, i2, *rest = ops.commuting
    assert _swap(ops.L) == ops.L
    swapped = (i2, i1, *rest) if case == "I" else (i2, i1, -rest[0], rest[1])
    assert tuple(map(_swap, ops.commuting)) == swapped
    rx, ry = ops.raising
    assert (_swap(rx), _swap(ry)) == (ry, rx)
    assert tuple(map(_swap, ops.edge_operators)) == ops.edge_operators[::-1]
    # a +1 on any of R+x's 24 (IX: 6) stored terms breaks sigma(R+x) = R+y
    assert (len(rx), len(ops.L)) == {"I": (24, 9), "IX": (6, 7)}[case]
    assert all(_swap(perturb_term(rx, index)) != ry for index in range(len(rx)))
    # and on any of L's 9 (IX: 7) breaks sigma L = L, except on 2xy d_x d_y,
    # which sigma fixes: that mutant is equivalent for this identity
    mutants = [perturb_term(ops.L, index) for index in range(len(ops.L))]
    fixed = [key for (key, _), mutant in zip(ops.L.items(), mutants) if _swap(mutant) == mutant]
    assert fixed == [(1, 1, 1, 1, 0, 0, 0, 0)]
    assert ops.L.coefficient(*fixed[0]) == 2


def test_case_i_operators_satisfy_l_plus_i1_plus_i2_plus_i3_zero():
    # the linear relation behind action_relations' missing row for I3 and
    # behind commuting[L,I3] following from the other two entries, exact
    # over Q[beta, kappa1, kappa2]; I3 stays hand-written, as a witness
    ops = generic_operators("I")
    sources = [ops.L, *ops.commuting]
    assert sum(sources[1:], sources[0]).is_zero()
    # a +1 on any stored term of L or an I_k breaks it
    for position, op in enumerate(sources):
        for index in range(len(op)):
            mutated = sources[:position] + [perturb_term(op, index)] + sources[position + 1:]
            assert not sum(mutated[1:], mutated[0]).is_zero(), (position, index)


# 1 and beta over Q[beta, kappa1, kappa2, N]
G_ONE, G_BETA = GenericOp({(0,) * 8: 1}), GenericOp.generator(4)


@pytest.mark.parametrize("case", CASES)
def test_raising_relations_hold_for_all_parameters_and_N(case):
    # one composition over Q[beta, kappa1, kappa2, N] per relation; +1 on
    # any term of the cleared operator breaks it
    L = generic_operators(case).L
    for axis, r in zip("xy", generic_operators(case).raising):
        assert raising_relation(case, axis, L, r).is_zero(), axis
        for index in range(len(r)):
            mutant = perturb_term(r, index)
            assert not raising_relation(case, axis, L, mutant).is_zero(), (axis, index)


def test_ix_quadratic_relations_hold_for_all_beta():
    # each relation is one composition over Q[beta]; +1 on any stored term of
    # L or an I_k breaks at least one of them
    source = generic_operators("IX")
    ops = (source.L, *source.commuting)
    assert all(residual.is_zero() for residual in quadratic_relations("IX", ops[0], ops[1:]))
    mutants = 0
    for position, op in enumerate(ops):
        for index in range(len(op)):
            mutated = ops[:position] + (perturb_term(op, index),) + ops[position + 1:]
            residuals = quadratic_relations("IX", mutated[0], mutated[1:])
            assert not all(r.is_zero() for r in residuals), (position, index)
            mutants += 1
    assert mutants == 26


# x, y, d_x, d_y, beta, kappa1, kappa2 and N over Q[beta, kappa1, kappa2, N]
G_X, G_Y, G_DX, G_DY, _, G_K1, G_K2, G_N = map(GenericOp.generator, range(8))

# the front factor Q_C of each ladder square D_C = Q_C (L - lambda_N), by
# hand; it is first order, has no N, and is zero for V, VIII and IX
LADDER_SQUARE_FACTORS = {
    "I": 2 * (G_ONE - G_X - G_Y) @ (G_X @ G_DX - G_Y @ G_DY)
    - (G_BETA + 2 * G_K2) @ G_X
    + (G_BETA + 2 * G_K1) @ G_Y
    + G_K2
    - G_K1,
    "II": 2 * G_X @ G_Y @ G_DY
    - 2 * G_X @ G_X @ G_DX
    - (G_BETA + 2 * G_K2) @ G_X
    + 2 * G_K1 @ G_Y
    - G_K1,
    "III": -4 * G_X @ G_X @ G_DY - 2 * G_K2 @ G_X + 2 * G_K1 @ G_Y,
}

# the R+ mutants (field, term index) that leave the V, VIII and IX squares zero
LADDER_SQUARE_BLIND = {
    "V": [("R+y", 1)],
    "VIII": [("R+x", 0), ("R+x", 3), ("R+x", 4), ("R+x", 5), ("R+y", 0)],
    "IX": [("R+x", 3), ("R+y", 3)],
}


def _next_level(op):
    """op with N -> N + 1: each N^s term expanded binomially."""
    out = {}
    for (*key, s), c in op.items():
        for e in range(s + 1):
            shifted = (*key, e)
            out[shifted] = out.get(shifted, 0) + c * comb(s, e)
    return GenericOp(out)


def _ladder_square_residual(case, L, rx, ry, q):
    """r_y(N+1) r_x(N) - r_x(N+1) r_y(N) - Q_C (L - lambda_N), cleared."""
    lam = G_N @ ((G_N - G_ONE) * alpha(case) + G_BETA)
    return _next_level(ry) @ rx - _next_level(rx) @ ry - q @ (L - lam)


@pytest.mark.parametrize("case", CASES)
def test_ladder_squares_hold_for_all_parameters_and_N(case):
    # raising x then y equals raising y then x, up to a multiple of L - lambda_N:
    # one composition over Q[beta, kappa1, kappa2, N] per case
    source = generic_operators(case)
    q = LADDER_SQUARE_FACTORS.get(case, GenericOp())
    fields = {"L": source.L, "R+x": source.raising[0], "R+y": source.raising[1], "Q": q}
    assert _ladder_square_residual(case, *fields.values()).is_zero()
    # a +1 on any term of L, R+x, R+y or Q_C breaks it, except where Q_C = 0:
    # there L does not enter, and the R+ mutants it misses break raising_relation
    blind = []
    for name, op in fields.items():
        for index in range(len(op)):
            mutated = dict(fields, **{name: perturb_term(op, index)})
            if _ladder_square_residual(case, *mutated.values()).is_zero():
                blind.append((name, index))
    if case in LADDER_SQUARE_FACTORS:
        assert blind == []
        assert sum(map(len, fields.values())) == {"I": 69, "II": 51, "III": 45}[case]
        return
    assert [b for b in blind if b[0] != "L"] == LADDER_SQUARE_BLIND[case]
    assert len(blind) == len(LADDER_SQUARE_BLIND[case]) + len(source.L)
    for name, index in LADDER_SQUARE_BLIND[case]:
        mutant = perturb_term(fields[name], index)
        assert not raising_relation(case, name[-1], source.L, mutant).is_zero(), (name, index)


# R_X = [L,[L,X]] - 2 alpha (LX + XL) - (beta^2 - 2 alpha beta) X is
# sum_k d_k I_k + e L + f, with f = (beta - 2 alpha) kappa1 for X = x,
# (beta - 2 alpha) kappa2 for y and 0 for IX: the (d, e) below, by hand.
# Case I also has I1 + I2 + I3 + L = 0, so a second solution; this pins one
QUADRATIC_WITNESSES = {
    "I": {"x": ((2, 0, 2), 0), "y": ((0, 2, 2), 0)},
    "II": {"x": ((0, 2), 0), "y": ((2, 0), -2)},
    "III": {"x": ((0, -2), 0), "y": ((2, 0), 0)},
    "V": {"x": ((0, 2), 0), "y": ((0, 0), 2)},
    "VIII": {"x": ((2, 0), 0), "y": ((0, 0), 0)},
    "IX": {"x": ((0, 0, 0, 0), 0), "y": ((0, 0, 0, 0), 0)},
}


def _quadratic_residual(case, axis, L, commuting):
    """R_X - sum_k d_k I_k - e L - f for X = x (axis x) or y, by the witness."""
    a = alpha(case)
    X, kappa = (G_X, G_K1) if axis == "x" else (G_Y, G_K2)
    r_x = L.commutator(L.commutator(X)) - 2 * a * (L @ X + X @ L)
    r_x = r_x - (G_BETA @ G_BETA - 2 * a * G_BETA) @ X
    d, e = QUADRATIC_WITNESSES[case][axis]
    f = GenericOp() if case == "IX" else (G_BETA - 2 * a * G_ONE) @ kappa
    return r_x - sum((dk * ik for dk, ik in zip(d, commuting)), e * L + f)


def test_quadratic_relation_of_l_with_x_and_y():
    # the relation behind the three-level recurrences, over Q[beta, kappa1,
    # kappa2]: (L - lambda_{N+1})(L - lambda_{N-1}) X P_{m,n} = R_X P_{m,n}.
    # A +1 on any term of an L breaks a witness identity, except IX's
    # constant d_x^2 and d_y^2 terms, which break [L, I_k] = 0 instead
    blind, mutants = [], 0
    for case in CASES:
        source = generic_operators(case)
        for axis in "xy":
            assert _quadratic_residual(case, axis, source.L, source.commuting).is_zero(), axis
        for index, (key, _) in enumerate(source.L.items()):
            mutant = perturb_term(source.L, index)
            mutants += 1
            if all(_quadratic_residual(case, axis, mutant, source.commuting).is_zero()
                   for axis in "xy"):
                blind.append((case, key))
                assert not any(mutant.commutator(ik).is_zero() for ik in source.commuting)
    assert mutants == 44
    assert sorted(blind) == [("IX", (0, 0, 0, 2, 0, 0, 0, 0)), ("IX", (0, 0, 2, 0, 0, 0, 0, 0))]


def _limit_weight(key, shift):
    """The power of eps on eps^shift x^i d_x^k kappa1^q (key (i, j, k, l, p,
    q, r, s)) under x -> x/eps and kappa1 -> kappa1/eps."""
    i, _, k, _, _, q, _, _ = key
    return shift + k - i - q


def _graded_limit(op, shift):
    """The eps -> 0 limit of eps^shift op under x -> x/eps, kappa1 -> kappa1/eps:
    its weight-0 terms; a term of negative weight diverges."""
    for key, _ in op.items():
        if _limit_weight(key, shift) < 0:
            raise ValueError(f"term {key} diverges in the limit")
    return GenericOp({key: c for key, c in op.items() if _limit_weight(key, shift) == 0})


def test_case_ii_operators_are_the_case_i_limit():
    # the confluent limit takes case I's hand-written operators to case II's
    one, two = generic_operators("I"), generic_operators("II")
    limits = [
        (one.L, 0, two.L),
        (one.raising[0], 1, two.raising[0]),
        (one.raising[1], 0, two.raising[1]),
    ]
    for source, shift, target in limits:
        assert _graded_limit(source, shift) == target
    i1, i2, i3 = one.commuting
    assert _graded_limit(i1, 0) == -two.commuting[0]
    assert _graded_limit(i2, 1) == -two.commuting[1]
    assert _graded_limit(i3, 1) == two.commuting[1]
    # a +1 on any term of II's L, R+x or R+y fails; of I's, exactly the
    # mutants of terms of positive weight, which vanish in the limit, survive
    caught = survivors = 0
    for source, shift, target in limits:
        limit = _graded_limit(source, shift)
        caught += sum(limit != perturb_term(target, index) for index in range(len(target)))
        for index, (key, _) in enumerate(source.items()):
            survives = _graded_limit(perturb_term(source, index), shift) == target
            assert survives == (_limit_weight(key, shift) > 0), (key, shift)
            survivors += survives
    assert caught == sum(len(target) for _, _, target in limits) == 45
    assert (survivors, sum(len(source) for source, _, _ in limits)) == (12, 57)
    with pytest.raises(ValueError, match="diverges"):
        _graded_limit(one.L, -1)


def test_derivative_shifts_are_operator_identities_for_all_parameters():
    # d L(p) = (L(p') + beta) d over Q[beta, kappa1, kappa2], with p' = p +
    # the shift: L's parameter terms are beta (x dx + y dy) + kappa1 dx +
    # kappa2 dy, so L(p') - L(p) is the shift's part of them, and the bracket
    # [d, L] = (L(p') - L(p) + beta) d
    _, x, y, dx, dy, b, k1, k2, _ = _SYMBOLS
    euler = x @ dx + y @ dy
    for case in CASES:
        L = generic_operators(case).L
        parameter_terms = GenericOp({key: c for key, c in L.items() if any(key[4:])})
        kappa_terms = GenericOp() if case == "IX" else k1 @ dx + k2 @ dy
        assert parameter_terms == b @ euler + kappa_terms, case

    def bracket(shift, d):
        db, dk1, dk2 = shift
        return (db * euler + dk1 * dx + dk2 * dy + b) @ d

    moves = 0
    for (case, axis), shift in DERIVATIVE_SHIFTS.items():
        d = dx if axis == "x" else dy
        commutator = d.commutator(generic_operators(case).L)
        assert commutator == bracket(shift, d), (case, axis)
        for index, step in product(range(3), (-1, 1)):  # a wrong shift fails
            moved = list(shift)
            moved[index] += step
            assert commutator != bracket(moved, d), (case, axis, moved)
            moves += 1
    assert moves == 60
    # III along x and VIII along y have no such shift: their bracket has a
    # term free of that axis's derivative, so it is no operator times it
    for case, axis, free in (("III", "x", dy @ dy), ("VIII", "y", dx @ dx)):
        assert (case, axis) not in DERIVATIVE_SHIFTS
        d, slot = (dx, 2) if axis == "x" else (dy, 3)  # slot: d's exponent in a key
        commutator = d.commutator(generic_operators(case).L)
        assert GenericOp({key: c for key, c in commutator.items() if not key[slot]}) == free


def test_generic_operators_reject_unknown_case():
    # the one generic source and CaseParams raise through the same check
    messages = []
    for build in (generic_operators, lambda case: CaseParams(case, F(2))):
        with pytest.raises(ParameterError) as caught:
            build("IV")
        messages.append(str(caught.value))
    assert messages == ["case must be one of I, II, III, V, VIII, IX, not 'IV'"] * 2


def test_public_api_binds_exactly_all(monkeypatch):
    # every exported name resolves, a star import binds exactly those names,
    # and the generic operators are exported through their one source
    assert len(set(kspoly.__all__)) == len(kspoly.__all__)
    for name in kspoly.__all__:
        assert hasattr(kspoly, name), name
    namespace = {}
    exec("from kspoly import *", namespace)
    del namespace["__builtins__"]
    assert sorted(namespace) == sorted(kspoly.__all__)
    assert kspoly.generic_operators is generic_operators
    assert [name for name in dir(kspoly) if name.startswith("generic_")] == ["generic_operators"]
    assert set(kspoly.__all__) <= set(dir(kspoly))
    # the audit layer's names resolve on each access to the submodule's
    # current object, so a rebound entry point (as a tracer installs) shows
    for name, module in kspoly._LAZY.items():
        assert getattr(kspoly, name) is getattr(importlib.import_module(f"kspoly.{module}"), name)
    verify = importlib.import_module("kspoly.verify")
    original = verify.full_suite

    def traced(*args, **kwargs):
        return original(*args, **kwargs)

    monkeypatch.setattr(verify, "full_suite", traced)
    assert kspoly.full_suite is traced
    with pytest.raises(AttributeError, match="^module 'kspoly' has no attribute 'no_such_name'$"):
        kspoly.no_such_name


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

# R+x(N) and R+y(N) at the _params points (beta=2, kappa1=kappa2=1; case IX
# at beta=3)

GOLDEN_RAISING = {
    "I": {
        0: (
            {(0, 0, 0, 0): F(1, 2), (1, 0, 0, 0): 1, (0, 0, 0, 1): F(1, 2),
             (0, 1, 0, 1): F(3, 2), (1, 0, 0, 1): F(-1, 2), (1, 0, 1, 0): -1,
             (1, 1, 0, 1): 1, (2, 0, 1, 0): 1, (0, 1, 0, 2): F(-1, 2), (0, 2, 0, 2): F(1, 2),
             (1, 1, 0, 2): F(1, 2)},
            {(0, 0, 0, 0): F(1, 2), (0, 1, 0, 0): 1, (0, 0, 1, 0): F(1, 2),
             (0, 1, 0, 1): -1, (0, 1, 1, 0): F(-1, 2), (1, 0, 1, 0): F(3, 2),
             (0, 2, 0, 1): 1, (1, 1, 1, 0): 1, (1, 0, 2, 0): F(-1, 2), (1, 1, 2, 0): F(1, 2),
             (2, 0, 2, 0): F(1, 2)},
        ),
        3: (
            {(0, 0, 0, 0): F(-1, 7), (1, 0, 0, 0): F(4, 7), (0, 0, 0, 1): F(1, 56),
             (0, 1, 0, 1): F(3, 56), (1, 0, 0, 1): F(-1, 56), (1, 0, 1, 0): F(-1, 7),
             (1, 1, 0, 1): F(1, 7), (2, 0, 1, 0): F(1, 7), (0, 1, 0, 2): F(-1, 56),
             (0, 2, 0, 2): F(1, 56), (1, 1, 0, 2): F(1, 56)},
            {(0, 0, 0, 0): F(-1, 7), (0, 1, 0, 0): F(4, 7), (0, 0, 1, 0): F(1, 56),
             (0, 1, 0, 1): F(-1, 7), (0, 1, 1, 0): F(-1, 56), (1, 0, 1, 0): F(3, 56),
             (0, 2, 0, 1): F(1, 7), (1, 1, 1, 0): F(1, 7), (1, 0, 2, 0): F(-1, 56),
             (1, 1, 2, 0): F(1, 56), (2, 0, 2, 0): F(1, 56)},
        ),
    },
    "II": {
        0: (
            {(0, 0, 0, 0): F(1, 2), (1, 0, 0, 0): 1, (0, 1, 0, 1): F(1, 2),
             (1, 0, 0, 1): F(-1, 2), (1, 1, 0, 1): 1, (2, 0, 1, 0): 1,
             (1, 1, 0, 2): F(1, 2)},
            {(0, 0, 0, 0): F(1, 2), (0, 1, 0, 0): 1, (0, 0, 1, 0): F(1, 2),
             (0, 1, 0, 1): -1, (0, 1, 1, 0): F(-1, 2), (1, 0, 1, 0): F(3, 2),
             (0, 2, 0, 1): 1, (1, 1, 1, 0): 1, (2, 0, 2, 0): F(1, 2)},
        ),
        3: (
            {(0, 0, 0, 0): F(1, 14), (1, 0, 0, 0): F(4, 7), (0, 1, 0, 1): F(1, 56),
             (1, 0, 0, 1): F(-1, 56), (1, 1, 0, 1): F(1, 7), (2, 0, 1, 0): F(1, 7),
             (1, 1, 0, 2): F(1, 56)},
            {(0, 0, 0, 0): F(-1, 7), (0, 1, 0, 0): F(4, 7), (0, 0, 1, 0): F(1, 56),
             (0, 1, 0, 1): F(-1, 7), (0, 1, 1, 0): F(-1, 56), (1, 0, 1, 0): F(3, 56),
             (0, 2, 0, 1): F(1, 7), (1, 1, 1, 0): F(1, 7), (2, 0, 2, 0): F(1, 56)},
        ),
    },
    "III": {
        0: (
            {(0, 0, 0, 0): F(1, 2), (1, 0, 0, 0): 1, (0, 1, 0, 1): F(1, 2),
             (1, 0, 0, 1): F(-1, 2), (1, 1, 0, 1): 1, (2, 0, 1, 0): 1,
             (2, 0, 0, 2): F(-1, 2)},
            {(0, 0, 0, 0): F(1, 2), (0, 1, 0, 0): 1, (0, 0, 0, 1): F(1, 2),
             (0, 1, 1, 0): F(-1, 2), (1, 0, 0, 1): 2, (1, 0, 1, 0): F(1, 2), (0, 2, 0, 1): 1,
             (1, 1, 1, 0): 1, (1, 1, 0, 2): F(1, 2), (2, 0, 1, 1): 1},
        ),
        3: (
            {(0, 0, 0, 0): F(1, 14), (1, 0, 0, 0): F(4, 7), (0, 1, 0, 1): F(1, 56),
             (1, 0, 0, 1): F(-1, 56), (1, 1, 0, 1): F(1, 7), (2, 0, 1, 0): F(1, 7),
             (2, 0, 0, 2): F(-1, 56)},
            {(0, 0, 0, 0): F(1, 14), (0, 1, 0, 0): F(4, 7), (0, 0, 0, 1): F(1, 56),
             (0, 1, 1, 0): F(-1, 56), (1, 0, 0, 1): F(5, 28), (1, 0, 1, 0): F(1, 56),
             (0, 2, 0, 1): F(1, 7), (1, 1, 1, 0): F(1, 7), (1, 1, 0, 2): F(1, 56),
             (2, 0, 1, 1): F(1, 28)},
        ),
    },
    "V": {
        0: (
            {(0, 0, 0, 0): F(1, 2), (1, 0, 0, 0): 1, (0, 0, 0, 1): F(1, 4), (1, 0, 0, 1): 1,
             (1, 0, 0, 2): F(1, 4)},
            {(0, 0, 0, 0): F(1, 2), (0, 1, 0, 0): 1, (0, 1, 0, 1): F(1, 2),
             (1, 0, 1, 0): F(1, 2)},
        ),
        3: (
            {(0, 0, 0, 0): F(1, 2), (1, 0, 0, 0): 1, (0, 0, 0, 1): F(1, 4), (1, 0, 0, 1): 1,
             (1, 0, 0, 2): F(1, 4)},
            {(0, 0, 0, 0): 2, (0, 1, 0, 0): 1, (0, 1, 0, 1): F(1, 2),
             (1, 0, 1, 0): F(1, 2)},
        ),
    },
    "VIII": {
        0: (
            {(0, 0, 0, 0): F(1, 2), (1, 0, 0, 0): 1, (0, 0, 0, 1): F(1, 2),
             (0, 0, 1, 0): F(1, 4), (0, 1, 1, 0): 1, (0, 0, 2, 0): F(1, 4)},
            {(0, 0, 0, 0): F(1, 2), (0, 1, 0, 0): 1, (0, 0, 1, 0): F(1, 2)},
        ),
        3: (
            {(0, 0, 0, 0): F(1, 2), (1, 0, 0, 0): 1, (0, 0, 0, 1): F(1, 2),
             (0, 0, 1, 0): F(1, 4), (0, 1, 1, 0): 1, (0, 0, 2, 0): F(1, 4)},
            {(0, 0, 0, 0): F(1, 2), (0, 1, 0, 0): 1, (0, 0, 1, 0): F(1, 2)},
        ),
    },
    "IX": {
        0: (
            {(1, 0, 0, 0): 1, (0, 0, 1, 0): F(-1, 2), (1, 1, 0, 1): F(1, 2),
             (2, 0, 1, 0): F(1, 2)},
            {(0, 1, 0, 0): 1, (0, 0, 0, 1): F(-1, 2), (0, 2, 0, 1): F(1, 2),
             (1, 1, 1, 0): F(1, 2)},
        ),
        3: (
            {(1, 0, 0, 0): F(5, 8), (0, 0, 1, 0): F(-1, 8), (1, 1, 0, 1): F(1, 8),
             (2, 0, 1, 0): F(1, 8)},
            {(0, 1, 0, 0): F(5, 8), (0, 0, 0, 1): F(-1, 8), (0, 2, 0, 1): F(1, 8),
             (1, 1, 1, 0): F(1, 8)},
        ),
    },
}

@pytest.mark.parametrize("case", CASES)
@pytest.mark.parametrize("N", (0, 3))
def test_raising_ops_golden(case, N):
    rx, ry = raising_ops(_params(case), N)
    want_x, want_y = GOLDEN_RAISING[case][N]
    assert rx == DiffOp(want_x)
    assert ry == DiffOp(want_y)


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


@pytest.mark.parametrize("case", CASES)
def test_raising_y_reaches_every_interior_node(case):
    # build_ladder applies R+y only on the m = 0 edge; off it, R+y(N) must
    # still map each P_{m,n} (m >= 1, m + n = N <= 8) to P_{m,n+1}
    params = sample_params(case, random.Random(3))
    oracle = build_oracle(params, 9).entries
    for N in range(9):
        _, ry = raising_ops(params, N)
        for m in range(1, N + 1):
            assert ry.apply(oracle[(m, N - m)]) == oracle[(m, N - m + 1)], (m, N - m)


def test_raising_denominator_guard():
    # beta = 1 is a valid parameter set, but R(N=0) has a vanishing prefactor
    params = CaseParams("IX", F(1))
    with pytest.raises(ParameterError):
        raising_ops(params, 0)


def test_negative_raising_degree_is_a_parameter_error():
    with pytest.raises(ParameterError, match="N must be nonnegative, not -1"):
        raising_ops(P2["I"], -1)


@pytest.mark.parametrize("axis", ["x", "y"])
@pytest.mark.parametrize("m, n", [(-1, 0), (0, -1)])
def test_negative_recurrence_node_is_a_parameter_error(axis, m, n):
    # no step produces P_{0,0} from a P_{-1,0} that does not exist
    p = CaseParams("I", F(7, 2), F(1, 3), F(1, 5))
    name, value = ("m", m) if m < 0 else ("n", n)
    with pytest.raises(ParameterError, match=f"^{name} must be nonnegative, not {value}$"):
        recurrence_step(p, axis, m, n)


def test_negative_eigenvalue_level_is_a_parameter_error():
    with pytest.raises(ParameterError, match="^N must be nonnegative, not -1$"):
        eigenvalue(P2["I"], -1)


# a bool passes every `< 0` test and indexes like 1; a float reaches the
# formulas and returns a float, or fails later with an unrelated error
NON_INT_INDICES = [True, False, 1.0, 1.5, "1"]


@pytest.mark.parametrize("N", NON_INT_INDICES)
def test_eigenvalue_rejects_a_non_int_level(N):
    with pytest.raises(ParameterError, match=re.escape(f"N must be an int, not {N!r}") + "$"):
        eigenvalue(P2["I"], N)


@pytest.mark.parametrize("axis", ["x", "y"])
@pytest.mark.parametrize("bad", NON_INT_INDICES)
def test_recurrence_step_rejects_a_non_int_node(axis, bad):
    p = CaseParams("I", F(7, 2), F(1, 3), F(1, 5))
    for name, m, n in (("m", bad, 0), ("n", 0, bad)):
        with pytest.raises(ParameterError, match=re.escape(f"{name} must be an int, not {bad!r}")):
            recurrence_step(p, axis, m, n)


@pytest.mark.parametrize("case", CASES)
@pytest.mark.parametrize("N", NON_INT_INDICES)
def test_raising_ops_reject_a_non_int_level(case, N):
    # up front, before the denominator check and GenericOp.at
    params = sample_params(case, random.Random(3))
    for f in (raising_ops, kspoly.catalog.raising_denominators):
        with pytest.raises(ParameterError, match=re.escape(f"N must be an int, not {N!r}")):
            f(params, N)


def test_commutator_rhs_viii_is_scaled_raising():
    # case VIII's relations are homogeneous in R+: they hold for the cleared
    # raising operators and for any constant multiple of them
    source = generic_operators("VIII")
    for axis, r in zip("xy", source.raising):
        for scale in (1, 3, F(-2, 7)):
            assert raising_relation("VIII", axis, source.L, scale * r).is_zero(), (axis, scale)
    # the cleared form of the other cases is not homogeneous
    source = generic_operators("I")
    assert not raising_relation("I", "x", source.L, 3 * source.raising[0]).is_zero()


def test_raising_commutators_hold():
    # raising_ops times the denominators above is the record's cleared R+ at
    # (params, N), whose relation's residual vanishes there and everywhere
    rng = random.Random(23)
    for case in CASES:
        params = sample_params(case, rng)
        source = generic_operators(case)
        residuals = [raising_relation(case, axis, source.L, r) for axis, r in zip("xy", source.raising)]
        for N in range(7):
            pair = zip("xy", raising_ops(params, N), raising_denominators(case, params.beta, N))
            for (axis, r, den), cleared, residual in zip(pair, source.raising, residuals):
                assert den * r == cleared.at(params, N), (case, N, axis)
                assert residual.is_zero() and residual.at(params, N).is_zero(), (case, N, axis)


def test_relations_reject_an_unknown_axis_and_a_non_ix_quadratic_call():
    source = generic_operators("I")
    with pytest.raises(ParameterError, match="^axis must be one of x, y, not 'z'$"):
        raising_relation("I", "z", source.L, source.raising[0])
    with pytest.raises(ParameterError, match="^quadratic relation case must be one of IX, not 'I'$"):
        quadratic_relations("I", source.L, source.commuting)
    # an unknown case is refused as generic_operators refuses it, not read
    # as case I-III
    for bad in ("IV", "Z", None):
        with pytest.raises(ParameterError, match=f"^case must be one of .*, not {re.escape(repr(bad))}$"):
            raising_relation(bad, "x", source.L, source.raising[0])


@pytest.mark.parametrize("case", CASES)
def test_action_rows_reject_a_node_as_recurrence_step_does(case):
    # up front, before the formula: unchecked, (True, 2) reads as (1, 2),
    # (-1, 2) gives a value off the triangle and (1.5, 2) an AttributeError
    for rel, f in product(action_relations(_params(case)), ("self_coeff", "neighbors")):
        row = getattr(rel, f)
        for bad in NON_INT_INDICES:
            for name, m, n in (("m", bad, 0), ("n", 0, bad)):
                with pytest.raises(ParameterError, match=re.escape(f"{name} must be an int, not {bad!r}")):
                    row(m, n)
        for m, n in ((-1, 0), (0, -1), (-1, 2), (2, -3)):
            name, value = ("m", m) if m < 0 else ("n", n)
            with pytest.raises(ParameterError, match=f"^{name} must be nonnegative, not {value}$"):
                row(m, n)


def test_recurrence_step_rejects_an_unknown_axis():
    with pytest.raises(ParameterError, match="^axis must be one of x, y, not 'z'$"):
        recurrence_step(P2["I"], "z", 0, 0)


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


def test_params_reject_bools():
    # True is an int to isinstance, but no parameter value: it would enter as 1
    with pytest.raises(ParameterError, match="beta"):
        CaseParams("I", True)
    with pytest.raises(ParameterError, match="kappa1"):
        CaseParams("I", F(5, 2), False)


def test_params_reject_unknown_case():
    with pytest.raises(ParameterError):
        CaseParams("IV", F(2), F(0), F(0))


def test_params_reject_kappa_for_ix():
    with pytest.raises(ParameterError):
        CaseParams("IX", F(3), F(1, 2), F(0))


# -- CaseParams as a value ------------------------------------------------------

FIELDS_V = ("V", F(-1, 3), F(2, 7), F(-5))


def test_params_repr_is_fixed():
    # error texts embed {params}
    assert repr(CaseParams("V", F(-1, 3), F(2, 7), -5)) == (
        "CaseParams(case_id='V', beta=Fraction(-1, 3), kappa1=Fraction(2, 7), kappa2=Fraction(-5, 1))"
    )
    assert str(CaseParams("IX", 3)) == (
        "CaseParams(case_id='IX', beta=Fraction(3, 1), kappa1=Fraction(0, 1), kappa2=Fraction(0, 1))"
    )


def test_params_compare_and_hash_as_their_fields():
    params = CaseParams(*FIELDS_V)
    assert params == CaseParams("V", F(-1, 3), F(2, 7), -5)
    assert params != CaseParams("V", F(-1, 3), F(2, 7), F(5))
    assert hash(params) == hash(FIELDS_V)
    assert params != FIELDS_V
    assert params.__eq__(FIELDS_V) is NotImplemented
    assert len({params, CaseParams(*FIELDS_V)}) == 1


def test_params_are_immutable():
    params = CaseParams(*FIELDS_V)
    for name in ("case_id", "beta", "kappa1", "kappa2", "other"):
        with pytest.raises(AttributeError):
            setattr(params, name, F(1))
        with pytest.raises(AttributeError):
            delattr(params, name)
    assert (params.case_id, params.beta, params.kappa1, params.kappa2) == FIELDS_V


def test_params_pickle_and_copy_round_trip():
    params = CaseParams(*FIELDS_V)
    assert params.__reduce__() == (CaseParams, FIELDS_V)
    for other in (pickle.loads(pickle.dumps(params)), copy.copy(params), copy.deepcopy(params)):
        assert type(other) is CaseParams
        assert other == params and repr(other) == repr(params)


def test_params_validate_once_per_construction(monkeypatch):
    calls = []
    validate = CaseParams.__post_init__
    monkeypatch.setattr(CaseParams, "__post_init__", lambda self: calls.append(1) or validate(self))
    params = CaseParams("I", F(7, 2))
    assert calls == [1]
    # a copy is constructed again, so validated again
    copy.copy(params)
    assert calls == [1, 1]


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


# -- recurrence steps --------------------------------------------------------------

# recurrence_step at the _params points (beta=2, kappa1=kappa2=1; case IX at
# beta=3): the target and every tail triple in order, at N = 1, at an edge
# node (out-of-range tail points carry 0) and inside the triangle; P_source's
# own coefficient is the tail triple at (m, n)
STEP_NODES = ((1, 0), (0, 2), (2, 3))

GOLDEN_STEPS = {
    ("I", "x", 1, 0): (
        (2, 0),
        ((1, 0, "-1/2"), (2, -1, "0"), (0, 0, "1/4"), (1, -1, "0"), (2, -2, "0")),
    ),
    ("I", "x", 0, 2): (
        (1, 2),
        ((0, 2, "1/6"), (1, 1, "0"), (-1, 2, "0"), (0, 1, "0"), (1, 0, "0")),
    ),
    ("I", "x", 2, 3): (
        (3, 3),
        ((2, 3, "-1/4"), (3, 2, "1/20"), (1, 3, "0"), (2, 2, "9/1100"), (3, 1, "0")),
    ),
    ("I", "y", 1, 0): (
        (1, 1),
        ((1, 0, "1/4"), (0, 1, "-1/4"), (1, -1, "0"), (0, 0, "1/12"), (-1, 1, "0")),
    ),
    ("I", "y", 0, 2): (
        (0, 3),
        ((0, 2, "-1/2"), (-1, 3, "0"), (0, 1, "0"), (-1, 2, "0"), (-2, 3, "0")),
    ),
    ("I", "y", 2, 3): (
        (2, 4),
        ((2, 3, "-11/30"), (1, 4, "0"), (2, 2, "-21/1100"), (1, 3, "0"), (0, 4, "0")),
    ),
    ("II", "x", 1, 0): (
        (2, 0),
        ((1, 0, "0"), (2, -1, "0"), (0, 0, "1/12"), (1, -1, "0"), (2, -2, "0")),
    ),
    ("II", "x", 0, 2): (
        (1, 2),
        ((0, 2, "1/6"), (1, 1, "0"), (-1, 2, "0"), (0, 1, "0"), (1, 0, "0")),
    ),
    ("II", "x", 2, 3): (
        (3, 3),
        ((2, 3, "1/20"), (3, 2, "1/20"), (1, 3, "4/2475"), (2, 2, "-1/660"), (3, 1, "0")),
    ),
    ("II", "y", 1, 0): (
        (1, 1),
        ((1, 0, "1/4"), (0, 1, "-1/4"), (1, -1, "0"), (0, 0, "1/12"), (-1, 1, "0")),
    ),
    ("II", "y", 0, 2): (
        (0, 3),
        ((0, 2, "-1/2"), (-1, 3, "0"), (0, 1, "0"), (-1, 2, "0"), (-2, 3, "0")),
    ),
    ("II", "y", 2, 3): (
        (2, 4),
        ((2, 3, "-11/30"), (1, 4, "-1/30"), (2, 2, "-21/1100"), (1, 3, "-13/1650"),
         (0, 4, "-1/4950")),
    ),
    ("III", "x", 1, 0): (
        (2, 0),
        ((1, 0, "0"), (2, -1, "0"), (3, -2, "0"), (0, 0, "1/12"), (1, -1, "0"),
         (2, -2, "0"), (3, -3, "0"), (4, -4, "0")),
    ),
    ("III", "x", 0, 2): (
        (1, 2),
        ((0, 2, "1/6"), (1, 1, "-1/6"), (2, 0, "-1/6"), (-1, 2, "0"), (0, 1, "1/40"),
         (1, 0, "1/120"), (2, -1, "0"), (3, -2, "0")),
    ),
    ("III", "x", 2, 3): (
        (3, 3),
        ((2, 3, "1/20"), (3, 2, "-1/20"), (4, 1, "-1/10"), (1, 3, "4/2475"),
         (2, 2, "1/660"), (3, 1, "1/550"), (4, 0, "-1/825"), (5, -1, "0")),
    ),
    ("III", "y", 1, 0): (
        (1, 1),
        ((1, 0, "1/4"), (2, -1, "0"), (0, 1, "-1/4"), (3, -3, "0"), (2, -2, "0"),
         (1, -1, "0"), (0, 0, "1/12"), (-1, 1, "0")),
    ),
    ("III", "y", 0, 2): (
        (0, 3),
        ((0, 2, "0"), (1, 1, "1/2"), (-1, 3, "0"), (2, -1, "0"), (1, 0, "3/40"),
         (0, 1, "-11/120"), (-1, 2, "0"), (-2, 3, "0")),
    ),
    ("III", "y", 2, 3): (
        (2, 4),
        ((2, 3, "1/30"), (3, 2, "2/5"), (1, 4, "-1/30"), (4, 0, "3/275"), (3, 1, "1/66"),
         (2, 2, "-19/1100"), (1, 3, "1/1650"), (0, 4, "-1/4950")),
    ),
    ("V", "x", 1, 0): (
        (2, 0),
        ((1, 0, "1/2"), (2, -1, "0"), (2, -2, "0"), (1, -1, "0")),
    ),
    ("V", "x", 0, 2): (
        (1, 2),
        ((0, 2, "1/2"), (1, 1, "2"), (1, 0, "-1/2"), (0, 1, "-1/2")),
    ),
    ("V", "x", 2, 3): (
        (3, 3),
        ((2, 3, "1/2"), (3, 2, "3"), (3, 1, "-3/2"), (2, 2, "-3/4")),
    ),
    ("V", "y", 1, 0): (
        (1, 1),
        ((1, 0, "3/2"), (1, -1, "0"), (0, 0, "-1/4")),
    ),
    ("V", "y", 0, 2): (
        (0, 3),
        ((0, 2, "5/2"), (0, 1, "-1"), (-1, 2, "0")),
    ),
    ("V", "y", 2, 3): (
        (2, 4),
        ((2, 3, "11/2"), (2, 2, "-21/4"), (1, 3, "-1/2")),
    ),
    ("VIII", "x", 1, 0): (
        (2, 0),
        ((1, 0, "1/2"), (0, 1, "1"), (1, -1, "0"), (0, 0, "-1/4")),
    ),
    ("VIII", "x", 0, 2): (
        (1, 2),
        ((0, 2, "1/2"), (-1, 3, "0"), (0, 1, "1"), (-1, 2, "0")),
    ),
    ("VIII", "x", 2, 3): (
        (3, 3),
        ((2, 3, "1/2"), (1, 4, "2"), (2, 2, "3/2"), (1, 3, "-1/2")),
    ),
    ("VIII", "y", 1, 0): (
        (1, 1),
        ((1, 0, "1/2"), (0, 0, "1/2")),
    ),
    ("VIII", "y", 0, 2): (
        (0, 3),
        ((0, 2, "1/2"), (-1, 2, "0")),
    ),
    ("VIII", "y", 2, 3): (
        (2, 4),
        ((2, 3, "1/2"), (1, 3, "1")),
    ),
    ("IX", "x", 1, 0): (
        (2, 0),
        ((2, -2, "0"), (0, 0, "-1/4")),
    ),
    ("IX", "x", 0, 2): (
        (1, 2),
        ((1, 0, "1/12"), (-1, 2, "0")),
    ),
    ("IX", "x", 2, 3): (
        (3, 3),
        ((3, 1, "1/20"), (1, 3, "-3/20")),
    ),
    ("IX", "y", 1, 0): (
        (1, 1),
        ((-1, 1, "0"), (1, -1, "0")),
    ),
    ("IX", "y", 0, 2): (
        (0, 3),
        ((-2, 3, "0"), (0, 1, "-1/4")),
    ),
    ("IX", "y", 2, 3): (
        (2, 4),
        ((0, 4, "1/60"), (2, 2, "-1/5")),
    ),
}


@pytest.mark.parametrize("case", CASES)
@pytest.mark.parametrize("axis", ("x", "y"))
def test_recurrence_step_golden(case, axis):
    for m, n in STEP_NODES:
        target, tail = GOLDEN_STEPS[(case, axis, m, n)]
        step = recurrence_step(_params(case), axis, m, n)
        assert (step.target, step.source) == (target, (m, n))
        assert step.tail == tuple((mm, nn, F(c)) for mm, nn, c in tail)
        assert all(type(c) is F for _, _, c in step.tail)


def test_every_recurrence_step_matches_the_oracle():
    # the builders run only the steps on their one route (never an x-step
    # with m + 1 < n, nor a y-step with m > n): here every step on both
    # axes is formed with the plain polynomial product and sum
    rng = random.Random(31)
    for case in CASES:
        params = sample_params(case, rng)
        oracle = build_oracle(params, 7).entries
        for m, n, (axis, v) in product(range(7), range(7), (("x", X), ("y", Y))):
            if m + n >= 7:
                continue
            step = recurrence_step(params, axis, m, n)
            got = v * oracle[step.source]
            for mm, nn, c in step.tail:
                if c:
                    got = got + c * oracle[(mm, nn)]
            assert got == oracle[step.target], (case, axis, m, n)


def _multiplication_columns(params, nmax):
    """x * P_(m,n) and y * P_(m,n) in the P basis, read from recurrence_step
    alone: P_target minus the tail, keyed by (axis, (m, n)) for m + n < nmax."""
    columns = {}
    for axis, N in product("xy", range(nmax)):
        for m in range(N + 1):
            step = recurrence_step(params, axis, m, N - m)
            column = {step.target: F(1)}
            for mm, nn, c in step.tail:
                if c:
                    column[(mm, nn)] = column.get((mm, nn), 0) - c
            columns[axis, (m, N - m)] = column
    return columns


def _times(columns, axis, vector):
    # the multiplication by x or y on a vector {node: coefficient} of P's
    out = {}
    for node, a in vector.items():
        for key, c in columns[axis, node].items():
            out[key] = out.get(key, 0) + a * c
    return {key: c for key, c in out.items() if c}


def _noncommuting_columns(columns, levels):
    # the nodes, at the given levels, whose P_(m,n) has x(y P) != y(x P)
    out = []
    for N in levels:
        for m in range(N + 1):
            e = {(m, N - m): 1}
            xy = _times(columns, "x", _times(columns, "y", e))
            if xy != _times(columns, "y", _times(columns, "x", e)):
                out.append((m, N - m))
    return out


@pytest.mark.parametrize("case", CASES)
def test_recurrence_matrices_commute(case):
    # xy = yx, so the two recurrences' matrices commute on every column with
    # m + n <= 8, whose images stay within nmax = 10; this reads every step
    # up to level 9, past the oracle test above and off the builders' routes
    params = sample_params(case, random.Random(0))
    columns = _multiplication_columns(params, 10)
    assert _noncommuting_columns(columns, range(9)) == []
    # a +1 on any in-range tail coefficient of either step at (4, 4) breaks
    # a column; only the columns at levels 7 and 8 read a level-8 step
    for axis in "xy":
        for mm, nn, _ in recurrence_step(params, axis, 4, 4).tail:
            if mm < 0 or nn < 0:
                continue
            mutant = dict(columns)
            column = mutant[axis, (4, 4)] = dict(columns[axis, (4, 4)])
            column[(mm, nn)] = column.get((mm, nn), 0) - 1
            assert _noncommuting_columns(mutant, (7, 8)), (axis, mm, nn)


# -- action relations ----------------------------------------------------------------

# action_relations at the _params points (beta=2, kappa1=kappa2=1; case IX at
# beta=3): per relation, self_coeff and the neighbor triples in order at every
# node with m + n <= 3, by level and m ascending
ACTION_NODES = [(m, N - m) for N in range(4) for m in range(N + 1)]

GOLDEN_ACTIONS = {
    "I": (
        (  # I1
            ("0", ((-1, 1, "0"),)),
            ("0", ((-1, 1, "0"),)),
            ("3", ((-1, 1, "1"),)),
            ("0", ((-1, 1, "0"),)),
            ("3", ((-1, 1, "1"),)),
            ("8", ((-1, 1, "0"),)),
            ("0", ((-1, 1, "0"),)),
            ("3", ((-1, 1, "1"),)),
            ("8", ((-1, 1, "0"),)),
            ("15", ((-1, 1, "-3"),)),
        ),
        (  # I2
            ("0", ((1, -1, "0"),)),
            ("3", ((1, -1, "1"),)),
            ("0", ((1, -1, "0"),)),
            ("8", ((1, -1, "0"),)),
            ("3", ((1, -1, "1"),)),
            ("0", ((1, -1, "0"),)),
            ("15", ((1, -1, "-3"),)),
            ("8", ((1, -1, "0"),)),
            ("3", ((1, -1, "1"),)),
            ("0", ((1, -1, "0"),)),
        ),
    ),
    "II": (
        (  # I1
            ("0", ((-1, 1, "0"),)),
            ("0", ((-1, 1, "0"),)),
            ("-3", ((-1, 1, "-1"),)),
            ("0", ((-1, 1, "0"),)),
            ("-3", ((-1, 1, "-1"),)),
            ("-8", ((-1, 1, "-2"),)),
            ("0", ((-1, 1, "0"),)),
            ("-3", ((-1, 1, "-1"),)),
            ("-8", ((-1, 1, "-2"),)),
            ("-15", ((-1, 1, "-3"),)),
        ),
        (  # I2
            ("0", ((1, -1, "0"),)),
            ("-1", ((1, -1, "-1"),)),
            ("0", ((1, -1, "0"),)),
            ("-2", ((1, -1, "0"),)),
            ("-1", ((1, -1, "-1"),)),
            ("0", ((1, -1, "0"),)),
            ("-3", ((1, -1, "3"),)),
            ("-2", ((1, -1, "0"),)),
            ("-1", ((1, -1, "-1"),)),
            ("0", ((1, -1, "0"),)),
        ),
    ),
    "III": (
        (  # I1
            ("0", ((-1, 1, "0"), (1, -1, "0"))),
            ("0", ((-1, 1, "0"), (1, -1, "2"))),
            ("-1", ((-1, 1, "-1"), (1, -1, "0"))),
            ("0", ((-1, 1, "0"), (1, -1, "6"))),
            ("-1", ((-1, 1, "-1"), (1, -1, "4"))),
            ("-2", ((-1, 1, "-2"), (1, -1, "0"))),
            ("0", ((-1, 1, "0"), (1, -1, "12"))),
            ("-1", ((-1, 1, "-1"), (1, -1, "10"))),
            ("-2", ((-1, 1, "-2"), (1, -1, "6"))),
            ("-3", ((-1, 1, "-3"), (1, -1, "0"))),
        ),
        (  # I2
            ("0", ((1, -1, "0"), (2, -2, "0"))),
            ("1", ((1, -1, "1"), (2, -2, "0"))),
            ("0", ((1, -1, "0"), (2, -2, "0"))),
            ("2", ((1, -1, "2"), (2, -2, "2"))),
            ("1", ((1, -1, "1"), (2, -2, "0"))),
            ("0", ((1, -1, "0"), (2, -2, "0"))),
            ("3", ((1, -1, "3"), (2, -2, "6"))),
            ("2", ((1, -1, "2"), (2, -2, "2"))),
            ("1", ((1, -1, "1"), (2, -2, "0"))),
            ("0", ((1, -1, "0"), (2, -2, "0"))),
        ),
    ),
    "V": (
        (  # I1
            ("0", ((-1, 1, "0"),)),
            ("0", ((-1, 1, "0"),)),
            ("-1", ((-1, 1, "-1"),)),
            ("0", ((-1, 1, "0"),)),
            ("-1", ((-1, 1, "-1"),)),
            ("-4", ((-1, 1, "-2"),)),
            ("0", ((-1, 1, "0"),)),
            ("-1", ((-1, 1, "-1"),)),
            ("-4", ((-1, 1, "-2"),)),
            ("-9", ((-1, 1, "-3"),)),
        ),
        (  # I2
            ("0", ((1, -1, "0"),)),
            ("0", ((1, -1, "2"),)),
            ("0", ((1, -1, "0"),)),
            ("0", ((1, -1, "4"),)),
            ("0", ((1, -1, "2"),)),
            ("0", ((1, -1, "0"),)),
            ("0", ((1, -1, "6"),)),
            ("0", ((1, -1, "4"),)),
            ("0", ((1, -1, "2"),)),
            ("0", ((1, -1, "0"),)),
        ),
    ),
    "VIII": (
        (  # I1
            ("0", ((-1, 1, "0"),)),
            ("0", ((-1, 1, "0"),)),
            ("0", ((-1, 1, "2"),)),
            ("0", ((-1, 1, "0"),)),
            ("0", ((-1, 1, "2"),)),
            ("0", ((-1, 1, "4"),)),
            ("0", ((-1, 1, "0"),)),
            ("0", ((-1, 1, "2"),)),
            ("0", ((-1, 1, "4"),)),
            ("0", ((-1, 1, "6"),)),
        ),
        (  # I2
            ("0", ((1, -1, "0"), (-1, 1, "0"), (-2, 2, "0"))),
            ("0", ((1, -1, "2"), (-1, 1, "0"), (-2, 2, "0"))),
            ("1", ((1, -1, "0"), (-1, 1, "1"), (-2, 2, "0"))),
            ("0", ((1, -1, "4"), (-1, 1, "0"), (-2, 2, "0"))),
            ("1", ((1, -1, "2"), (-1, 1, "1"), (-2, 2, "0"))),
            ("2", ((1, -1, "0"), (-1, 1, "2"), (-2, 2, "2"))),
            ("0", ((1, -1, "6"), (-1, 1, "0"), (-2, 2, "0"))),
            ("1", ((1, -1, "4"), (-1, 1, "1"), (-2, 2, "0"))),
            ("2", ((1, -1, "2"), (-1, 1, "2"), (-2, 2, "2"))),
            ("3", ((1, -1, "0"), (-1, 1, "3"), (-2, 2, "6"))),
        ),
    ),
    "IX": (
        (  # I1
            ("0", ((-2, 2, "0"),)),
            ("0", ((-2, 2, "0"),)),
            ("2", ((-2, 2, "0"),)),
            ("0", ((-2, 2, "0"),)),
            ("2", ((-2, 2, "0"),)),
            ("6", ((-2, 2, "-2"),)),
            ("0", ((-2, 2, "0"),)),
            ("2", ((-2, 2, "0"),)),
            ("6", ((-2, 2, "-2"),)),
            ("12", ((-2, 2, "-6"),)),
        ),
        (  # I2
            ("0", ((2, -2, "0"),)),
            ("2", ((2, -2, "0"),)),
            ("0", ((2, -2, "0"),)),
            ("6", ((2, -2, "-2"),)),
            ("2", ((2, -2, "0"),)),
            ("0", ((2, -2, "0"),)),
            ("12", ((2, -2, "-6"),)),
            ("6", ((2, -2, "-2"),)),
            ("2", ((2, -2, "0"),)),
            ("0", ((2, -2, "0"),)),
        ),
        (  # I3
            ("0", ((1, -1, "0"), (-1, 1, "0"))),
            ("0", ((1, -1, "1"), (-1, 1, "0"))),
            ("0", ((1, -1, "0"), (-1, 1, "-1"))),
            ("0", ((1, -1, "2"), (-1, 1, "0"))),
            ("0", ((1, -1, "1"), (-1, 1, "-1"))),
            ("0", ((1, -1, "0"), (-1, 1, "-2"))),
            ("0", ((1, -1, "3"), (-1, 1, "0"))),
            ("0", ((1, -1, "2"), (-1, 1, "-1"))),
            ("0", ((1, -1, "1"), (-1, 1, "-2"))),
            ("0", ((1, -1, "0"), (-1, 1, "-3"))),
        ),
        (  # I4
            ("0", ((1, -1, "0"), (-1, 1, "0"))),
            ("0", ((1, -1, "-2"), (-1, 1, "0"))),
            ("0", ((1, -1, "0"), (-1, 1, "-2"))),
            ("0", ((1, -1, "-4"), (-1, 1, "0"))),
            ("0", ((1, -1, "-4"), (-1, 1, "-4"))),
            ("0", ((1, -1, "0"), (-1, 1, "-4"))),
            ("0", ((1, -1, "-6"), (-1, 1, "0"))),
            ("0", ((1, -1, "-8"), (-1, 1, "-6"))),
            ("0", ((1, -1, "-6"), (-1, 1, "-8"))),
            ("0", ((1, -1, "0"), (-1, 1, "-6"))),
        ),
    ),
}


@pytest.mark.parametrize("case", CASES)
def test_action_relations_golden(case):
    params = _params(case)
    relations = action_relations(params)
    assert len(relations) == len(GOLDEN_ACTIONS[case])
    for rel, rows in zip(relations, GOLDEN_ACTIONS[case]):
        for (m, n), (coeff, neighbors) in zip(ACTION_NODES, rows):
            assert rel.self_coeff(m, n) == F(coeff), (m, n)
            assert rel.neighbors(m, n) == tuple((dm, dn, F(c)) for dm, dn, c in neighbors)


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


# -- the formula bodies over a symbolic ring ------------------------------------


class Poly(Terms):
    """A polynomial over Q in (beta, kappa1, kappa2, m, n): the ring that the
    catalog's formula bodies need, run on _Unreduced pairs of these.  Terms
    gives + of two Polys, -, scalar *, the records and str; this adds scalar
    lifting, the product and evaluation."""

    __slots__ = ()
    FIELDS = ("beta", "kappa1", "kappa2", "m", "n")
    _order = staticmethod(itemgetter(0))

    @staticmethod
    def lift(value):
        return value if isinstance(value, Poly) else Poly({(0,) * 5: value})

    def __add__(self, other):
        return Terms.__add__(self, Poly.lift(other))

    __radd__ = __add__

    def __sub__(self, other):
        return self + -Poly.lift(other)

    def __rsub__(self, other):
        return -self + other

    def __mul__(self, other):
        if not isinstance(other, Poly):
            return Terms.__mul__(self, other)
        out = {}
        for (k1, c1), (k2, c2) in product(self.items(), other.items()):
            key = tuple(map(add, k1, k2))
            out[key] = out.get(key, 0) + c1 * c2
        return Poly(out)

    def __pow__(self, k):
        return prod([self] * k, start=Poly.lift(1))

    def __eq__(self, other):
        return Terms.__eq__(self, Poly.lift(other))

    def at(self, point):
        # a point of numbers gives a Fraction; one with Polys in it, a Poly
        return sum((c * prod(v**e for v, e in zip(point, key)) for key, c in self.items()), F(0))


SYM_B, SYM_K1, SYM_K2, SYM_M, SYM_N = (Poly({tuple(int(i == k) for i in range(5)): 1}) for k in range(5))


def symbolic_scalars(case):
    """beta, kappa1, kappa2, m and n as _Unreduced pairs of Polys (for IX,
    zero kappas)."""
    kappas = (Poly({}), Poly({})) if case == "IX" else (SYM_K1, SYM_K2)
    return tuple(_Unreduced(v, 1) for v in (SYM_B, *kappas, SYM_M, SYM_N))


def symbolic_tail(case, axis):
    b, k1, k2, m, n = symbolic_scalars(case)

    def den(offsets):
        # the product of the structural factors, none of them checked
        return prod(b + 2 * (m + n) + c for c in offsets)

    return _recurrence_tail(case, axis, b, k1, k2, m, n, den)


def evaluate(v, point):
    """An _Unreduced pair of Polys, a Poly or an int at a point of numbers."""
    if isinstance(v, _Unreduced):
        return evaluate(v.numerator, point) / evaluate(v.denominator, point)
    return Poly.lift(v).at(point)


@pytest.mark.parametrize("case", CASES)
def test_recurrence_tail_over_a_symbolic_ring_gives_recurrence_step(case):
    # one formula text: the tail formed once over Q[beta, kappa1, kappa2, m,
    # n] and evaluated at a sample is the numeric step there
    tails = {axis: symbolic_tail(case, axis) for axis in "xy"}
    rng = random.Random(f"symbolic/{case}")
    for k in range(3):
        params = sample_params(case, rng)
        for axis, (m, n) in product("xy", ((3 + k, 4), (4, k))):
            point = (params.beta, params.kappa1, params.kappa2, m, n)
            expected = tuple((m + dm, n + dn, evaluate(q, point)) for dm, dn, q in tails[axis])
            assert recurrence_step(params, axis, m, n).tail == expected, (params, axis, m, n)


@pytest.mark.parametrize("case", CASES)
def test_action_rows_over_a_symbolic_ring_give_action_relations(case):
    b, k1, k2, m, n = symbolic_scalars(case)
    rows = [(s(m, n), nb(m, n)) for s, nb in _action_rows(case, b, k1, k2)]
    rng = random.Random(f"symbolic/{case}")
    for k in range(3):
        params = sample_params(case, rng)
        relations = action_relations(params)
        assert len(relations) == len(rows)
        for (rel, (s, nb)), node in product(zip(relations, rows), ACTION_NODES + [(3 + k, 4)]):
            point = (params.beta, params.kappa1, params.kappa2, *node)
            assert rel.self_coeff(*node) == evaluate(s, point), (params, node)
            assert rel.neighbors(*node) == tuple((dm, dn, evaluate(c, point)) for dm, dn, c in nb)


def test_beta_plus_2n_minus_3_cancels_at_beta_one_on_level_one():
    # recurrence_step refuses beta = 1 at N = 1 (the test above): over the
    # symbolic ring, each coefficient there whose denominator vanishes at
    # beta = 1 has a numerator that vanishes at beta = 1 for all kappa1 and
    # kappa2, so the factor beta+2N-3 cancels
    vanishing = []
    for case, axis, (m, n) in product(("I", "II", "III", "IX"), "xy", ((1, 0), (0, 1))):
        for dm, dn, q in symbolic_tail(case, axis):
            num, den = Poly.lift(q.numerator), Poly.lift(q.denominator)
            if den.at((1, 0, 0, m, n)) == 0:
                assert num.at((1, SYM_K1, SYM_K2, m, n)) == 0, (case, axis, m, n, dm, dn)
                if Poly.lift(num.at((SYM_B, SYM_K1, SYM_K2, m, n))):
                    vanishing.append((case, axis, m, n, dm, dn))
    # the coefficients that are not zero outright: four steps of I, II and
    # III have one each, and the x-step at (1,0) and y-step at (0,1) of IX
    assert len(vanishing) == 14, vanishing

"""Acceptance criteria, one test per criterion, each printing a pass/fail
line.  Every comparison is exact (Fraction equality, zero tolerance).

Run with:  pytest tests/test_acceptance.py -v -s
"""

import random
import time
from fractions import Fraction as F

import pytest

from kspoly.algebra import ONE, X, Y
from kspoly.catalog import (
    CASES,
    CaseParams,
    commuting_ops,
    eigenvalue,
    generic_operators,
    operator_L,
    quadratic_relations,
    raising_denominators,
    raising_ops,
    raising_relation,
    recurrence_step,
    sample_params,
)
from kspoly.series import extract_polys, genfun, genfun_derivative_residuals
from kspoly.triangle import (
    build_ladder,
    build_oracle,
    build_recurrence,
    build_transfer,
)
from kspoly.verify import (
    check_action_formulas,
    check_ix_to_i_map,
    check_recurrence_stencil,
    mutated_operator_set,
    mutation_battery,
)

ALL_BUILDERS = (
    ("oracle", build_oracle),
    ("recurrence", build_recurrence),
    ("ladder", build_ladder),
    ("transfer", build_transfer),
)


def announce(number: int, description: str):
    def hook(outcome: str):
        print(f"\n[criterion {number}] {outcome} - {description}")

    return hook


def run_criterion(number, description, body):
    line = announce(number, description)
    try:
        body()
    except BaseException:
        line("FAIL")
        raise
    line("PASS")


# ---------------------------------------------------------------------------


def test_criterion_1_closed_form_values():
    def body():
        start = time.monotonic()
        rng = random.Random(101)
        for case in CASES:
            for _ in range(5):
                p = sample_params(case, rng)
                for _, builder in ALL_BUILDERS:
                    t = builder(p, 3)
                    assert t.entry(1, 0) == X + (p.kappa1 / p.beta) * ONE
                    assert t.entry(0, 1) == Y + (p.kappa2 / p.beta) * ONE
        # case IX degree <= 3 table, every builder
        for _ in range(5):
            p = sample_params("IX", rng)
            b = p.beta
            expected = {
                (2, 0): X * X - (1 / (1 + b)) * ONE,
                (1, 1): X * Y,
                (0, 2): Y * Y - (1 / (1 + b)) * ONE,
                (3, 0): X * (X * X - (3 / (3 + b)) * ONE),
                (2, 1): Y * (X * X - (1 / (3 + b)) * ONE),
                (1, 2): X * (Y * Y - (1 / (3 + b)) * ONE),
                (0, 3): Y * (Y * Y - (3 / (3 + b)) * ONE),
            }
            for _, builder in ALL_BUILDERS:
                t = builder(p, 3)
                for node, value in expected.items():
                    assert t.entry(*node) == value
        # case V closed-form P_{1,1} and left-edge powers
        for _ in range(5):
            p = sample_params("V", rng)
            b, k1, k2 = p.beta, p.kappa1, p.kappa2
            p11 = (X + (k1 / b) * ONE) * (Y + (k2 / b) * ONE) + (2 / b) * (
                X + (k1 / (2 * b)) * ONE
            )
            edge = X + (k1 / b) * ONE
            for _, builder in ALL_BUILDERS:
                t = builder(p, 4)
                assert t.entry(1, 1) == p11
                for m in range(5):
                    assert t.entry(m, 0) == edge**m
        # case VIII right-edge powers
        for _ in range(5):
            p = sample_params("VIII", rng)
            edge = Y + (p.kappa2 / p.beta) * ONE
            for _, builder in ALL_BUILDERS:
                t = builder(p, 4)
                for n in range(5):
                    assert t.entry(0, n) == edge**n
        elapsed = time.monotonic() - start
        assert elapsed < 5.0, f"runtime target missed: {elapsed:.2f}s"

    run_criterion(1, "known low-degree closed forms match every builder", body)


@pytest.fixture(scope="module")
def deep_triangles():
    """nmax=8 triangles for criteria 2 and 3: {case: [(params, {method: Triangle})]}
    plus the wall-clock seconds the builds took."""
    rng = random.Random(202)
    store = {}
    start = time.monotonic()
    for case in CASES:
        runs = []
        for _ in range(3):
            p = sample_params(case, rng)
            runs.append((p, {name: builder(p, 8) for name, builder in ALL_BUILDERS}))
        store[case] = runs
    return store, time.monotonic() - start


def test_criterion_2_oracle_equivalence(deep_triangles):
    def body():
        store, build_seconds = deep_triangles
        start = time.monotonic()
        for case in CASES:
            for _, triangles in store[case]:
                oracle = triangles["oracle"]
                for method in ("recurrence", "ladder", "transfer"):
                    assert triangles[method].same_polys(oracle), (case, method)
        elapsed = build_seconds + (time.monotonic() - start)
        assert elapsed < 60.0, f"runtime target missed: {elapsed:.2f}s"

    run_criterion(2, "all builders equal the exact eigen-solve at nmax=8", body)


def test_criterion_3_eigen_invariant(deep_triangles):
    def body():
        store, _ = deep_triangles
        for case in CASES:
            for p, triangles in store[case]:
                L = operator_L(p)
                for t in triangles.values():
                    for m, n in t.nodes():
                        poly = t.entry(m, n)
                        assert L.apply(poly) == eigenvalue(p, m + n) * poly

    run_criterion(3, "L P = lambda_{m+n} P exactly for every built entry", body)


def test_criterion_4_operator_identities():
    def body():
        rng = random.Random(404)
        for case in CASES:
            g = generic_operators(case)
            raising = [raising_relation(case, axis, g.L, r) for axis, r in zip("xy", g.raising)]
            for _ in range(10):
                p = sample_params(case, rng)
                L = operator_L(p)
                for ik in commuting_ops(p):
                    assert L.commutator(ik).is_zero()
                for N in range(7):
                    # the relations are cleared: R+ times its denominator is
                    # the record's R+ at (p, N), whose relation holds for all
                    # parameters and N, so here too
                    pair = zip(("x", "y"), raising_ops(p, N), raising_denominators(p, N))
                    for (axis, r, den), cleared, residual in zip(pair, g.raising, raising):
                        assert den * r == cleared.at(p, N), (case, N, axis)
                        assert residual.is_zero() and residual.at(p, N).is_zero(), (case, N, axis)
                if case == "IX":
                    q1, q2 = quadratic_relations(case, g.L, g.commuting)
                    assert q1.at(p).is_zero() and q2.at(p).is_zero()

    run_criterion(4, "commuting, raising and quadratic identities are exact zero", body)


def test_criterion_5_action_formulas():
    def body():
        rng = random.Random(505)
        for case in CASES:
            p = sample_params(case, rng)
            t = build_oracle(p, 6)
            report = check_action_formulas(t, commuting_ops(p))
            assert report.passed, report.failures()[:3]
            # the stated annihilations on the edges
            i1 = commuting_ops(p)[0]
            if case in ("I", "II", "V", "VIII"):
                for n in range(7):
                    assert i1.apply(t.entry(0, n)).is_zero()
            if case == "V":
                i2 = commuting_ops(p)[1]
                for m in range(7):
                    assert i2.apply(t.entry(m, 0)).is_zero()
            if case == "III":
                i2 = commuting_ops(p)[1]
                for m in range(7):
                    assert i2.apply(t.entry(m, 0)).is_zero()

    run_criterion(5, "every in-level action formula holds at every node", body)


def test_criterion_6_generating_functions():
    def body():
        rng = random.Random(606)
        for case in ("V", "VIII", "IX"):
            for _ in range(3):
                p = sample_params(case, rng)
                table = extract_polys(genfun(p, 6), p)
                oracle = build_oracle(p, 6)
                for node in oracle.nodes():
                    assert table[node] == oracle.entry(*node), (case, node)
        for _ in range(3):
            p = sample_params("V", rng)
            r1, r2 = genfun_derivative_residuals(p, genfun(p, 7))
            assert r1.is_zero() and r2.is_zero()

    run_criterion(6, "generating functions reproduce the tables to order 6", body)


def test_criterion_7_ix_to_i_map():
    def body():
        report = check_ix_to_i_map(build_oracle(CaseParams("IX", F(3)), 8))
        assert report.passed, report.failures()[:3]
        checked = [r for r in report.results if r.name.startswith("ix-to-i[")]
        assert len(checked) == 45  # one entry per node up to degree 8, in four parity blocks

    run_criterion(7, "each parity block maps onto the companion family exactly", body)


def test_criterion_8_parity_and_stencil():
    def body():
        # parity in x and y through the four parity blocks: the odd blocks'
        # entries are x^e1 y^e2 times a polynomial in x^2, y^2
        rng = random.Random(808)
        for p9 in (CaseParams("IX", F(3)), sample_params("IX", rng)):
            report = check_ix_to_i_map(build_oracle(p9, 8))
            assert report.passed
            odd = [r for r in report.results if not r.name.startswith("ix-to-i[00]")]
            assert len(odd) == 30 and all(r.passed for r in odd)
        # every point a recurrence formula reads, source and tail, zero
        # coefficients included, lies in its documented stencil
        for case in CASES:
            report = check_recurrence_stencil(sample_params(case, rng))
            assert [r.name for r in report.results] == ["stencil-x", "stencil-y"]
            assert report.passed, (case, report.failures())
        # boundary behavior: the out-of-range stencil point at n=1 carries
        # an exactly-zero coefficient
        p = sample_params("I", rng)
        for m in range(1, 6):
            step = recurrence_step(p, "x", m, 1)
            tail = {(mm, nn): c for mm, nn, c in step.tail}
            assert tail[(m + 1, -1)] == 0

    run_criterion(8, "parity at nmax=8 and recurrences confined to their stencils", body)


def test_criterion_9_mutation_sensitivity():
    def body():
        rng = random.Random(909)
        for _ in range(20):
            case = rng.choice(CASES)
            p = sample_params(case, rng)
            ops, description = mutated_operator_set(case, rng)
            assert mutation_battery(p, 4, [ops]) == [True], description

    run_criterion(9, "a +1 coefficient perturbation always trips a check", body)

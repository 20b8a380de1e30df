import dataclasses
import random
from fractions import Fraction as F

import pytest

import kspoly.verify
from kspoly import triangle
from kspoly.algebra import Y
from kspoly.catalog import (
    CASES,
    STENCILS,
    CaseParams,
    commuting_ops,
    operator_L,
    sample_params,
)
from kspoly.errors import ParameterDegreeError, StencilError
from kspoly.triangle import build_oracle, build_recurrence, build_transfer
from kspoly.verify import (
    catalog_operator_set,
    certify_commutator,
    certify_parameter_polynomial_identity,
    check_action_formulas,
    check_eigen,
    check_genfun_agreement,
    check_ix_to_i_map,
    check_monic,
    check_parity_ix,
    check_recurrence_stencil,
    check_swap_symmetry,
    full_suite,
    mutated_operator_set,
    mutation_battery,
    parameter_degrees,
    perturb_term,
)
from kspoly.weyl import DiffOp
from kspoly.series import extract_polys, genfun


@pytest.mark.parametrize("case", CASES)
def test_full_suite_passes(case):
    rng = random.Random(len(case) * 7 + 1)
    params = sample_params(case, rng, nmax_hint=4)
    report = full_suite(params, nmax=4, order=4)
    assert report.passed, report.failures()[:3]


@pytest.mark.parametrize("case", CASES)
def test_full_suite_ten_triples_nmax_six(case):
    # every listed check, exactly, at ten random valid parameter triples
    rng = random.Random(sum(map(ord, case)))
    for _ in range(10):
        params = sample_params(case, rng, nmax_hint=6)
        report = full_suite(params, nmax=6, order=6)
        assert report.passed, (params, report.failures()[:3])


def test_action_formulas_need_depth():
    p = CaseParams("IX", F(3), nmax_hint=4)
    with pytest.raises(ValueError):
        check_action_formulas(build_oracle(p, 1), commuting_ops(p))


def test_action_formula_trivial_rows():
    # relations whose coefficients all carry a factor n reduce to 0 = 0 on n = 0
    p = CaseParams("I", F(7, 2), F(1, 3), F(-1, 5), 4)
    t = build_oracle(p, 4)
    report = check_action_formulas(t, commuting_ops(p))
    names = {r.name for r in report.results}
    assert "action-I2(3,0)" in names
    assert report.passed


def leaky_relations(true_relations):
    """action_relations whose first relation also reads P_{m+1,n-1}, with a
    coefficient that is nonzero exactly where that point leaves the triangle."""

    def relations(params, ops):
        first, *rest = true_relations(params, ops)
        leak = lambda m, n: first.neighbors(m, n) + ((1, -1, F(int(n == 0))),)
        return (dataclasses.replace(first, neighbors=leak), *rest)

    return relations


def test_transfer_raises_on_out_of_range_action_neighbor(monkeypatch):
    monkeypatch.setattr(triangle, "action_relations", leaky_relations(triangle.action_relations))
    p = CaseParams("I", F(7, 2), F(1, 3), F(-1, 5), 4)
    # the sweep's first source (2,0) reads (3,-1)
    with pytest.raises(StencilError, match=r"out-of-range entry \(3,-1\)"):
        build_transfer(p, 4)


def test_action_audit_records_out_of_range_neighbor(monkeypatch):
    monkeypatch.setattr(
        kspoly.verify, "action_relations", leaky_relations(kspoly.verify.action_relations)
    )
    p = CaseParams("I", F(7, 2), F(1, 3), F(-1, 5), 4)
    report = check_action_formulas(build_oracle(p, 4), commuting_ops(p))
    failed = report.failures()
    assert [r.name for r in failed] == [f"action-I1({m},0)" for m in range(5)]
    assert all("out-of-range" in r.detail["error"] for r in failed)
    assert len(report.results) == 2 * 15  # every other node still passes


def test_parity_examples():
    p = CaseParams("IX", F(3), nmax_hint=4)
    t = build_oracle(p, 4)
    assert check_parity_ix(t).passed
    # direct statements: P_{1,1} odd/odd, P_{0,0} even/even, P_{3,0} odd in x
    p11 = t.entry(1, 1)
    assert p11.negate_var("x") == -1 * p11
    assert p11.negate_var("y") == -1 * p11
    p30 = t.entry(3, 0)
    assert p30.negate_var("x") == -1 * p30
    assert p30.negate_var("y") == p30


def test_parity_rejects_other_cases():
    p = CaseParams("I", F(7, 2), F(1, 3), F(-1, 5), 4)
    with pytest.raises(ValueError):
        check_parity_ix(build_oracle(p, 2))


def test_ix_to_i_map_beta3():
    t9 = build_oracle(CaseParams("IX", F(3), nmax_hint=6), 6)
    t1 = build_oracle(
        CaseParams("I", F(2), F(-1, 2), F(-1, 2), nmax_hint=3), 3
    )
    report = check_ix_to_i_map(t9, t1)
    assert report.passed
    # the first nontrivial image: x^2 - 1/(1+beta9) halves to x - 1/4
    assert t9.entry(2, 0).halve_even_exponents() == t1.entry(1, 0)


def test_ix_to_i_map_validates_parameters():
    t9 = build_oracle(CaseParams("IX", F(3), nmax_hint=4), 4)
    bad = build_oracle(CaseParams("I", F(2), F(1, 3), F(-1, 2), 2), 2)
    with pytest.raises(ValueError):
        check_ix_to_i_map(t9, bad)


def test_swap_symmetry_case_i():
    p = CaseParams("I", F(7, 2), F(1, 3), F(-1, 5), 4)
    swapped = CaseParams("I", F(7, 2), F(-1, 5), F(1, 3), 4)
    report = check_swap_symmetry(build_oracle(p, 4), build_oracle(swapped, 4))
    assert report.passed


def test_genfun_agreement_report():
    p = CaseParams("VIII", F(7, 2), F(1, 3), F(-2, 5), 4)
    t = build_oracle(p, 4)
    table = extract_polys(genfun(p, 4), p)
    assert check_genfun_agreement(t, table).passed


def test_stencil_check_all_cases():
    rng = random.Random(77)
    for case in CASES:
        params = sample_params(case, rng, nmax_hint=5)
        log = []
        build_recurrence(params, 5, access_log=log)
        assert check_recurrence_stencil(params, log).passed


@pytest.mark.parametrize("case", CASES)
def test_full_suite_builds_the_recurrence_table_once(case, monkeypatch):
    calls = []

    def counted(*args, **kwargs):
        calls.append(args)
        return build_recurrence(*args, **kwargs)

    # count builds made through the registry and through a module-level name
    monkeypatch.setitem(triangle.BUILDERS, "recurrence", counted)
    monkeypatch.setattr(kspoly.verify, "build_recurrence", counted, raising=False)
    params = sample_params(case, random.Random(5), nmax_hint=3)
    assert full_suite(params, nmax=3, order=3).passed
    assert len(calls) == 1


@pytest.mark.parametrize("case", CASES)
@pytest.mark.parametrize("axis, lead", [("x", (-1, 0)), ("y", (0, -1))])
def test_full_suite_audits_the_recurrence_access_log(case, axis, lead, monkeypatch):
    # every recurrence step reads its source at the lead offset, so a
    # stencil without it must fail the audit of full_suite's own build
    monkeypatch.setitem(STENCILS, (case, axis), STENCILS[(case, axis)] - {lead})
    params = sample_params(case, random.Random(5), nmax_hint=3)
    failures = full_suite(params, nmax=3, order=3).failures()
    assert [f.name for f in failures] == [f"stencil-{axis}"]
    assert failures[0].detail == {"unexpected_offsets": [lead]}


@pytest.mark.parametrize("case", CASES)
def test_full_suite_audits_one_operator_set(case, monkeypatch):
    # a perturbed I1 must reach the action-formula checks as well as the
    # commutator checks: every check audits the same operator set
    def perturbed(params):
        ops = commuting_ops(params)
        return (perturb_term(ops[0], 0),) + ops[1:]

    monkeypatch.setattr(kspoly.verify, "commuting_ops", perturbed)
    params = sample_params(case, random.Random(5), nmax_hint=3)
    failed = {f.name for f in full_suite(params, nmax=3, order=3).failures()}
    assert "commuting[L,I1]" in failed
    assert any(name.startswith("action-I1(") for name in failed), failed


@pytest.mark.parametrize("case", CASES)
def test_full_suite_builds_operator_L_once(case, monkeypatch):
    calls = []

    def counted(params):
        calls.append(params)
        return operator_L(params)

    monkeypatch.setattr(kspoly.verify, "operator_L", counted)
    params = sample_params(case, random.Random(5), nmax_hint=3)
    assert full_suite(params, nmax=3, order=3).passed
    assert len(calls) == 1


def test_report_json_shape():
    p = CaseParams("IX", F(3), nmax_hint=4)
    report = check_monic(build_oracle(p, 2))
    doc = report.to_json()
    assert doc["passed"] is True
    entry = doc["checks"][0]
    assert entry["case"] == "IX"
    assert entry["status"] == "pass"
    assert entry["params"]["beta"] == "3"


def test_monic_failure_carries_the_entry():
    p = CaseParams("IX", F(3), nmax_hint=4)
    t = build_oracle(p, 2)
    t.entries[(1, 1)] = t.entries[(1, 1)] + Y * Y
    report = check_monic(t)
    [failure] = report.failures()
    assert failure.name == "monic[oracle](1,1)"
    assert failure.detail == {"node": [1, 1], "residual": t.entries[(1, 1)].to_records()}


def test_failure_carries_residual():
    p = CaseParams("IX", F(3), nmax_hint=4)
    t = build_oracle(p, 3)
    corrupted = perturb_term(operator_L(p), 0)
    report = check_eigen(t, L=corrupted)
    assert not report.passed
    failure = report.failures()[0]
    assert failure.detail["residual"]  # full residual polynomial is recorded


# -- certification --------------------------------------------------------------


def test_certify_commuting_identity():
    result = certify_parameter_polynomial_identity(
        lambda q: operator_L(q).commutator(commuting_ops(q)[0]),
        "II",
        "[L,I1]=0",
        degree_bound=8,
    )
    assert result.status == "pass"


def test_certify_detects_perturbation():
    def perturbed(q):
        i1 = perturb_term(commuting_ops(q)[0], 1)
        return operator_L(q).commutator(i1)

    result = certify_parameter_polynomial_identity(
        perturbed, "II", "[L,I1+e]=0", degree_bound=8
    )
    assert result.status == "fail"
    assert result.detail["residual"]


def test_certify_case_ix_quadratic():
    from kspoly.catalog import quadratic_relation_residuals

    result = certify_parameter_polynomial_identity(
        lambda q: quadratic_relation_residuals(q, operator_L(q), commuting_ops(q))[1],
        "IX",
        "quadratic-2",
        degree_bound=8,
    )
    assert result.status == "pass"


# -- certification on the derived grid ------------------------------------------


def _operands(case):
    """operator_L and every commuting_ops member, as maps of the parameters."""
    count = len(commuting_ops(sample_params(case, random.Random(0))))
    return [operator_L] + [lambda q, k=k: commuting_ops(q)[k] for k in range(count)]


def _i1(q):
    return commuting_ops(q)[0]


@pytest.fixture
def certify_calls(monkeypatch):
    """Record the grid and every grid point each certify call evaluates."""
    calls = []
    true_certify = kspoly.verify.certify_parameter_polynomial_identity

    def spy(identity, *args, **kwargs):
        call = {"kwargs": kwargs, "points": 0}
        calls.append(call)

        def counted(q):
            call["points"] += 1
            return identity(q)

        return true_certify(counted, *args, **kwargs)

    monkeypatch.setattr(kspoly.verify, "certify_parameter_polynomial_identity", spy)
    return calls


@pytest.mark.parametrize("case", CASES)
def test_catalog_operands_are_affine_in_the_parameters(case):
    # the premise of the certify bound, by the helper and by direct second
    # differences at random points and steps the helper never uses
    axes = ("beta",) if case == "IX" else ("beta", "kappa1", "kappa2")
    rng = random.Random(sum(map(ord, case)) + 5)
    for operand in _operands(case):
        degrees = parameter_degrees(operand, case)
        assert len(degrees) == len(axes) and max(degrees) <= 1
        for _ in range(3):
            q = sample_params(case, rng)
            h = F(rng.randrange(1, 9), rng.choice((2, 3, 5)))
            for axis in axes:
                value = getattr(q, axis)
                a, b, c = (
                    operand(dataclasses.replace(q, **{axis: value + t * h}))
                    for t in (0, 1, 2)
                )
                assert (a - 2 * b + c).is_zero(), (case, axis)


@pytest.mark.parametrize("case", CASES)
def test_commutator_certified_on_degree_two_grid(case, certify_calls):
    result = certify_commutator(operator_L, _i1, case, "[L,I1]=0")
    assert result.passed
    (call,) = certify_calls
    assert call["kwargs"]["degree_bound"] == 2
    assert call["points"] == (3 if case == "IX" else 27)


def test_rational_operand_is_rejected(certify_calls):
    def with_reciprocal(q):
        return operator_L(q) + DiffOp({(0, 0, 1, 0): 1 / q.beta})

    for case in ("II", "IX"):
        with pytest.raises(ParameterDegreeError, match="beta"):
            parameter_degrees(with_reciprocal, case)
        with pytest.raises(ParameterDegreeError):
            certify_commutator(with_reciprocal, _i1, case, "[L',I1]=0")
    assert certify_calls == []


@pytest.mark.parametrize("case", CASES)
def test_derived_grid_detects_perturbations(case):
    for i in range(4):
        result = certify_commutator(
            operator_L, lambda q: perturb_term(_i1(q), i), case, f"[L,I1+e{i}]=0"
        )
        assert result.status == "fail", i
        assert result.detail["residual"]


@pytest.mark.parametrize("case", CASES)
def test_derived_grid_detects_degree_two_perturbation(case, certify_calls):
    # x d_x commutes with no catalog L, so I1 + w x d_x breaks [L, I1] = 0
    # for any weight w != 0.  With w = beta^2 the derived grid must grow to
    # 4 beta values; w = beta kappa1 is still affine in each parameter, and
    # the 3-value grid must catch it.
    euler = DiffOp({(1, 0, 1, 0): 1})
    assert not operator_L(sample_params(case, random.Random(1))).commutator(euler).is_zero()
    perturbations = [lambda q: q.beta * q.beta]
    if case != "IX":
        perturbations.append(lambda q: q.beta * q.kappa1)
    for weight in perturbations:
        result = certify_commutator(
            operator_L, lambda q: _i1(q) + weight(q) * euler, case, "[L,I1+e]=0"
        )
        assert result.status == "fail"
    bounds = [call["kwargs"]["degree_bound"] for call in certify_calls]
    assert bounds == [3, 2][: len(perturbations)]


# -- mutation sensitivity -----------------------------------------------------------


def test_unmutated_battery_is_clean():
    rng = random.Random(13)
    for case in CASES:
        params = sample_params(case, rng, nmax_hint=3)
        assert not mutation_battery(params, 3, catalog_operator_set(params))


def test_mutations_are_detected():
    rng = random.Random(99)
    for _ in range(12):
        case = rng.choice(CASES)
        params = sample_params(case, rng, nmax_hint=3)
        ops, description = mutated_operator_set(params, rng, 3)
        assert mutation_battery(params, 3, ops), description

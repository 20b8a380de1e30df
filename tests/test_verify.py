import hashlib
import inspect
import pickle
import random
from fractions import Fraction as F

import pytest

import kspoly.cli
import kspoly.verify
from kspoly import catalog, triangle
from kspoly.algebra import ONE, BivariatePoly, Terms, X, Y, _Unreduced
from kspoly.catalog import (
    CASES,
    STENCILS,
    CaseParams,
    GenericOperators,
    commuting_ops,
    generic_operators,
    operator_L,
    params_to_json,
    sample_params,
)
from kspoly.errors import ParameterError, StencilError
from kspoly.triangle import build_oracle, build_recurrence, build_transfer
from kspoly.verify import (
    IDENTITY_CACHE_SIZE,
    CheckResult,
    certify_parameter_polynomial_identity,
    certify_record,
    check_action_formulas,
    check_eigen,
    check_genfun_agreement,
    check_ix_to_i_map,
    check_monic,
    check_operator_identities,
    check_operators,
    check_recurrence_stencil,
    check_swap_symmetry,
    full_suite,
    identity_residuals,
    mutated_operator_set,
    mutation_battery,
    perturb_source,
    perturb_term,
)
from kspoly.weyl import DiffOp, GenericOp
from kspoly.series import GENFUN_CASES, Series2, extract_polys, genfun


@pytest.mark.parametrize("case", CASES)
def test_full_suite_passes(case):
    rng = random.Random(len(case) * 7 + 1)
    params = sample_params(case, rng)
    report = full_suite(params, nmax=4)
    assert report.passed, report.failures()[:3]


@pytest.mark.parametrize("case", CASES)
def test_full_suite_ten_triples_nmax_six(case):
    # every listed check, exactly, at ten random valid parameter triples
    rng = random.Random(sum(map(ord, case)))
    for _ in range(10):
        params = sample_params(case, rng)
        report = full_suite(params, nmax=6)
        assert report.passed, (params, report.failures()[:3])


@pytest.mark.parametrize("case", GENFUN_CASES)
def test_full_suite_audits_the_generating_function_to_nmax(case):
    # the generating function is expanded to the table's own order: every
    # node of the nmax-8 table is compared, not only the levels <= 6
    params = sample_params(case, random.Random(8))
    report = full_suite(params, nmax=8)
    assert report.passed, report.failures()[:3]
    genfun_entries = [r for r in report.results if r.name.startswith("genfun(")]
    assert len(genfun_entries) == 45
    assert list(inspect.signature(full_suite).parameters) == ["params", "nmax"]


@pytest.mark.parametrize("nmax", [True, 2.0])
def test_full_suite_reports_a_non_int_nmax(nmax):
    checks = full_suite(sample_params("V", random.Random(1)), nmax).to_json()["checks"]
    assert [(c["check"], c["status"], c["error"]) for c in checks] == [
        ("build-oracle", "fail", f"nmax must be an int, not {nmax!r}")
    ]


@pytest.mark.parametrize(
    "nmax, message",
    [
        (-1, "nmax must be nonnegative, not -1"),
        (True, "nmax must be an int, not True"),
        (2.0, "nmax must be an int, not 2.0"),
    ],
)
def test_operator_identities_refuse_a_bad_nmax(nmax, message):
    # a negative nmax would leave a passing report of the commuting entries
    # alone, and True would read as the level 1
    params = sample_params("I", random.Random(1))
    with pytest.raises(ParameterError) as caught:
        check_operator_identities(params, nmax, generic_operators("I"))
    assert str(caught.value) == message


@pytest.mark.parametrize("nmax", [0, 1])
@pytest.mark.parametrize("case", CASES)
def test_full_suite_passes_on_one_or_two_levels(case, nmax):
    # every check, the action formulas included, holds from level 0 up
    for seed in range(2):
        report = full_suite(sample_params(case, random.Random(seed)), nmax)
        assert report.passed, report.failures()[:3]
        assert any(r.name.startswith("action-I1(") for r in report.results)


def test_action_formula_trivial_rows():
    # relations whose coefficients all carry a factor n reduce to 0 = 0 on n = 0
    p = CaseParams("I", F(7, 2), F(1, 3), F(-1, 5))
    t = build_oracle(p, 4)
    report = check_action_formulas(t, commuting_ops(p))
    names = {r.name for r in report.results}
    assert "action-I2(3,0)" in names
    assert report.passed


def leaky_relations(true_relations):
    """action_relations whose first relation also reads P_{m+1,n-1}, with a
    coefficient that is nonzero exactly where that point leaves the triangle."""

    def relations(params):
        first, *rest = true_relations(params)
        leak = lambda m, n: first.neighbors(m, n) + ((1, -1, F(int(n == 0))),)
        return (first._replace(neighbors=leak), *rest)

    return relations


def test_transfer_raises_on_out_of_range_action_neighbor(monkeypatch):
    monkeypatch.setattr(triangle, "action_relations", leaky_relations(triangle.action_relations))
    p = CaseParams("I", F(7, 2), F(1, 3), F(-1, 5))
    # the sweep's first source (2,0) reads (3,-1)
    with pytest.raises(StencilError, match=r"out-of-range entry \(3,-1\)"):
        build_transfer(p, 4)


def test_action_audit_records_out_of_range_neighbor(monkeypatch):
    monkeypatch.setattr(
        kspoly.verify, "action_relations", leaky_relations(kspoly.verify.action_relations)
    )
    p = CaseParams("I", F(7, 2), F(1, 3), F(-1, 5))
    report = check_action_formulas(build_oracle(p, 4), commuting_ops(p))
    failed = report.failures()
    # each a {node, error} entry naming the coefficient as the relation states it
    assert [(r.name, r.detail) for r in failed] == [
        (f"action-I1({m},0)", {
            "node": [m, 0],
            "error": f"nonzero coefficient 1 multiplies out-of-range entry ({m + 1},-1)",
        })
        for m in range(5)
    ]
    assert len(report.results) == 2 * 15  # every other node still passes


def action_failures_by_parts(t, commuting):
    """The failing entries of check_action_formulas with each residual formed
    by parts: op.apply(p) + s * p minus stencil_sum of the neighbours."""
    out = []
    for k, rel in enumerate(catalog.action_relations(t.params)):
        for m, n in t.nodes():
            p = t.entry(m, n)
            terms = [(m + dm, n + dn, c) for dm, dn, c in rel.neighbors(m, n)]
            residual = commuting[k].apply(p) + rel.self_coeff(m, n) * p - triangle.stencil_sum(
                t.entries, terms
            )
            if residual:
                detail = {"node": [m, n], "residual": residual.to_records()}
                out.append((f"action-I{k + 1}({m},{n})", detail))
    return out


@pytest.mark.parametrize("case", CASES)
def test_action_failure_details_match_the_formula_formed_by_parts(case):
    # a +1 on one term of each I_k in turn: the failing entries and their
    # residual records are those of the chained construction
    params = sample_params(case, random.Random(case))
    t = build_oracle(params, 4)
    ops = commuting_ops(params)
    for k in range(len(catalog.action_relations(params))):
        for index in range(3):
            mutated = tuple(perturb_term(op, index) if j == k else op for j, op in enumerate(ops))
            got = [(r.name, r.detail) for r in check_action_formulas(t, mutated).failures()]
            assert got and got == action_failures_by_parts(t, mutated), (k, index)


def squares(p):
    """p(x^2, y^2), formed forward."""
    return BivariatePoly({(2 * i, 2 * j): c for (i, j), c in p.items()})


def test_ix_to_i_map_beta3():
    t9 = build_oracle(CaseParams("IX", F(3)), 6)
    t1 = build_oracle(
        CaseParams("I", F(2), F(-1, 2), F(-1, 2)), 3
    )
    report = check_ix_to_i_map(t9)
    assert report.passed
    # the first nontrivial image: x - 1/4 in the squares is x^2 - 1/(1+beta9)
    assert squares(t1.entry(1, 0)) == t9.entry(2, 0) == X * X - F(1, 4) * ONE


def test_ix_to_i_map_validates_parameters():
    image = build_oracle(CaseParams("I", F(2), F(-1, 2), F(-1, 2)), 2)
    with pytest.raises(ParameterError, match="^ix-to-i case must be one of IX, not 'I'$"):
        check_ix_to_i_map(image)


IX_BLOCKS = ("00", "01", "10", "11")


def test_full_suite_skips_an_ix_to_i_image_that_breaks_the_validity_rule():
    # beta = -15 builds at nmax 6, but the case I image table of block 00
    # (beta_e = -7 at nmax 3) fails beta_e + 7 != 0, and each other block's
    # fails its own rule: each block is skipped, as a transfer table that
    # misses its preconditions is, instead of aborting the suite
    report = full_suite(CaseParams("IX", F(-15)), 6)
    assert report.passed
    names = [r.name for r in report.results if r.name.startswith("ix-to-i")]
    assert names == [f"ix-to-i[{block}](skipped)" for block in IX_BLOCKS]
    names = [r.name for r in full_suite(CaseParams("IX", F(3)), 6).results]
    assert not any(name.startswith("ix-to-i") and "skipped" in name for name in names)


def ix_to_i_entries(beta, nmax):
    """block -> the names of its ix-to-i entries, in a check of the oracle."""
    report = check_ix_to_i_map(build_oracle(CaseParams("IX", beta), nmax))
    assert report.passed
    blocks = {}
    for r in report.results:
        blocks.setdefault(r.name[8:10], []).append(r.name)
    return blocks


@pytest.mark.parametrize(
    "beta, skipped", [(-15, IX_BLOCKS), (-17, ("00", "11")), (-19, ())], ids=["-15", "-17", "-19"]
)
def test_ix_to_i_map_skips_exactly_the_blocks_whose_image_breaks_its_rule(beta, skipped):
    # at nmax 6, beta = -15 = -(2 nmax + 3) breaks every block's case I rule,
    # -17 = -(2 nmax + 5) those of the blocks with nmax - e1 - e2 even, -19 none
    blocks = ix_to_i_entries(F(beta), 6)
    assert sorted(blocks) == list(IX_BLOCKS)
    for block, names in blocks.items():
        if block in skipped:
            assert names == [f"ix-to-i[{block}](skipped)"]
        else:
            e1, e2 = int(block[0]), int(block[1])
            nodes = [(m, n) for m in range(7) for n in range(7 - m) if (m % 2, n % 2) == (e1, e2)]
            assert sorted(names) == sorted(f"ix-to-i[{block}]({m},{n})" for m, n in nodes)


@pytest.mark.parametrize("nmax", [0, 1])
def test_ix_to_i_map_writes_no_entry_for_a_block_without_a_node(nmax):
    blocks = ix_to_i_entries(F(3), nmax)
    names = sorted(name for block in blocks.values() for name in block)
    nodes = [(m, n) for m in range(nmax + 1) for n in range(nmax + 1 - m)]
    assert names == sorted(f"ix-to-i[{m % 2}{n % 2}]({m},{n})" for m, n in nodes)


def test_a_wrong_ix_table_fails_ix_to_i_entries_and_check_exits_one(monkeypatch):
    # L + d/dx does not preserve parity, so the oracle's table has odd
    # exponents in even blocks: the forward image fails them, and never raises
    true_source = catalog.generic_operators

    def corrupted(case):
        ops = true_source(case)
        dx = GenericOp.generator(2)
        return ops._replace(L=ops.L + dx) if case == "IX" else ops

    monkeypatch.setattr(catalog, "generic_operators", corrupted)
    report = full_suite(CaseParams("IX", F(3)), 4)
    failing = [r.name for r in report.failures() if r.name.startswith("ix-to-i[")]
    assert "ix-to-i[00](2,0)" in failing
    code = kspoly.cli.main(["check", "--case", "IX", "--trials", "1", "--seed", "0"])
    assert code == 1


@pytest.mark.parametrize("case", CASES)
def test_full_suite_reports_at_beta_one(case):
    # beta = 1 passes the validity rule, so the oracle builds; the raising
    # operators of level 0 divide by beta+2N-1 = 0 (I-III, IX), and IX's
    # generating-function normalization vanishes at (1,0).  Each is a failing
    # entry with its error, next to the failing build-* entries, never an
    # exception, here or in the mutation battery, which catches no mutation
    # in the unmutated record and still catches one in the last term of L
    expected = {"raising[L,R+x(N=0)]", "raising[L,R+y(N=0)]"}
    if case == "IX":
        expected.add("genfun")
    kappas = [()] if case == "IX" else [(F(0), F(0)), (F(1, 3), F(-1, 5))]
    for k in kappas:
        params = CaseParams(case, F(1), *k)
        report = full_suite(params, nmax=3)
        failed = report.failures()
        assert all("error" in f.detail for f in failed)
        named = {f.name for f in failed if not f.name.startswith("build-")}
        source = generic_operators(case)
        assert mutation_battery(params, 3, [source, perturb_source(source, 0, -1)]) == [False, True]
        if case in ("V", "VIII"):
            assert report.passed
        else:
            assert named == expected


def test_swap_symmetry_case_i():
    p = CaseParams("I", F(7, 2), F(1, 3), F(-1, 5))
    swapped = CaseParams("I", F(7, 2), F(-1, 5), F(1, 3))
    report = check_swap_symmetry(build_oracle(p, 4))
    assert report.passed
    assert check_swap_symmetry(build_oracle(swapped, 4)).passed
    t8 = build_oracle(CaseParams("VIII", F(7, 2), F(1, 3), F(-2, 5)), 2)
    with pytest.raises(ParameterError, match="^swap symmetry case must be one of I, IX, not 'VIII'$"):
        check_swap_symmetry(t8)


def test_genfun_agreement_report():
    p = CaseParams("VIII", F(7, 2), F(1, 3), F(-2, 5))
    report = check_genfun_agreement(build_oracle(p, 2))
    assert report.passed
    assert [r.name for r in report.results] == [
        "genfun(0,0)", "genfun(1,0)", "genfun(0,1)", "genfun(2,0)", "genfun(1,1)", "genfun(0,2)"
    ]


def test_genfun_agreement_rejects_other_cases():
    t = build_oracle(CaseParams("I", F(7, 2), F(1, 3), F(-1, 5)), 2)
    with pytest.raises(ParameterError, match="^genfun case must be one of V, VIII, IX, not 'I'$"):
        check_genfun_agreement(t)


def test_swap_symmetry_is_its_own_reference_when_the_kappas_agree(monkeypatch):
    # IX, and case I with kappa1 = kappa2, swap onto themselves: no table is built
    tables = [
        build_oracle(CaseParams("I", F(7, 2), F(1, 3), F(1, 3)), 3),
        build_oracle(CaseParams("IX", F(3)), 3),
    ]

    def refuse(*args):
        raise AssertionError("a reference table was built")

    monkeypatch.setattr(kspoly.verify, "build_oracle", refuse)
    assert [len(check_swap_symmetry(t).results) for t in tables] == [10, 10]
    assert all(check_swap_symmetry(t).passed for t in tables)


def test_stencil_check_all_cases():
    rng = random.Random(77)
    for case in CASES:
        params = sample_params(case, rng)
        report = check_recurrence_stencil(params)
        assert [r.name for r in report.results] == ["stencil-x", "stencil-y"]
        assert report.passed


@pytest.mark.parametrize("beta", [F(1), F(-3), F(-5)], ids=str)
def test_stencil_check_reads_no_denominator(beta):
    # the formula's offsets do not depend on the parameters: a triple whose
    # structural denominators vanish, which every builder refuses, passes
    for case in ("I", "II", "III", "IX"):
        kappas = () if case == "IX" else (F(1, 3), F(2, 7))
        assert check_recurrence_stencil(CaseParams(case, beta, *kappas)).passed


@pytest.mark.parametrize("case", CASES)
def test_full_suite_builds_the_recurrence_table_once(case, monkeypatch):
    calls = []

    def counted(*args, **kwargs):
        calls.append(args)
        return build_recurrence(*args, **kwargs)

    # count builds made through the registry and through a module-level name
    monkeypatch.setitem(triangle.BUILDERS, "recurrence", counted)
    monkeypatch.setattr(kspoly.verify, "build_recurrence", counted, raising=False)
    params = sample_params(case, random.Random(5))
    assert full_suite(params, nmax=3).passed
    assert len(calls) == 1


@pytest.mark.parametrize("case", CASES)
@pytest.mark.parametrize("axis, lead", [("x", (-1, 0)), ("y", (0, -1))])
def test_full_suite_audits_the_recurrence_stencil(case, axis, lead, monkeypatch):
    # every recurrence step reads its source at the lead offset, so a
    # stencil without it must fail full_suite's audit
    monkeypatch.setitem(STENCILS, (case, axis), STENCILS[(case, axis)] - {lead})
    params = sample_params(case, random.Random(5))
    failures = full_suite(params, nmax=3).failures()
    assert [f.name for f in failures] == [f"stencil-{axis}"]
    assert failures[0].detail == {"unexpected_offsets": [lead]}


@pytest.mark.parametrize("case", CASES)
def test_full_suite_audits_a_zero_coefficient_off_the_stencil(case, monkeypatch):
    # a tail entry at an undocumented offset fails the audit even where its
    # coefficient is zero: the builder skips it, so the tables still agree
    true_tail = catalog._recurrence_tail

    def widened(case_id, axis, *args):
        tail = true_tail(case_id, axis, *args)
        return tail + ((3, 3, _Unreduced(0)),) if axis == "x" else tail

    monkeypatch.setattr(catalog, "_recurrence_tail", widened)
    monkeypatch.setattr(kspoly.verify, "_recurrence_tail", widened)
    params = sample_params(case, random.Random(5))
    failures = full_suite(params, nmax=3).failures()
    assert [f.name for f in failures] == ["stencil-x"]
    assert failures[0].detail == {"unexpected_offsets": [(2, 3)]}


@pytest.mark.parametrize("case", CASES)
def test_full_suite_audits_one_operator_set(case, monkeypatch):
    # a perturbed I1 must reach the action-formula checks as well as the
    # commutator checks: every check audits the same operator record
    def perturbed(c):
        ops = generic_operators(c).commuting
        return generic_operators(c)._replace(commuting=(perturb_term(ops[0], 0),) + ops[1:])

    monkeypatch.setattr(kspoly.verify, "generic_operators", perturbed)
    params = sample_params(case, random.Random(5))
    failed = {f.name for f in full_suite(params, nmax=3).failures()}
    assert "commuting[L,I1]" in failed
    assert any(name.startswith("action-I1(") for name in failed), failed


@pytest.mark.parametrize("case", CASES)
def test_full_suite_runs_the_generic_operators(case, monkeypatch):
    # L and the I_k have one source: a perturbed generic operator reaches
    # every builder through operator_L and commuting_ops, and every check
    # through the record the audit specialises
    true_source = catalog.generic_operators
    params = sample_params(case, random.Random(5))

    def perturbed_L(c):
        # perturb a term that lowers degree: L keeps its eigenvalues, so the
        # oracle still builds a table, now from the wrong operator
        L = true_source(c).L
        terms = L.items()
        index = next(n for n, ((i, j, k, l, *_), _) in enumerate(terms) if i + j < k + l)
        return true_source(c)._replace(L=perturb_term(L, index))

    def perturbed_i1(c):
        ops = true_source(c).commuting
        return true_source(c)._replace(commuting=(perturb_term(ops[0], 0),) + ops[1:])

    for module in (catalog, kspoly.verify):
        monkeypatch.setattr(module, "generic_operators", perturbed_L)
    failed = {f.name for f in full_suite(params, nmax=3).failures()}
    assert any(name.startswith(("agreement[", "eigen[")) for name in failed), failed

    for module in (catalog, kspoly.verify):
        monkeypatch.setattr(module, "generic_operators", perturbed_i1)
    failed = {f.name for f in full_suite(params, nmax=3).failures()}
    assert any(name.startswith("action-I1(") for name in failed), failed

    # the generic operators are built once per case; each specialisation is
    # a fresh DiffOp with its own memo
    assert true_source(case) is true_source(case)
    assert operator_L(params) is not operator_L(params)


@pytest.mark.parametrize("case", CASES)
def test_full_suite_specialises_the_audited_record(case, monkeypatch):
    # the audit builds no catalog operator: it specialises the record's L and
    # each I_k once, at the suite's parameters, for the table checks, and
    # evaluates each identity residual formed from the record once per level
    calls = []
    true_at = GenericOp.at

    def counted(self, params, N=None):
        calls.append((self, params, N))
        return true_at(self, params, N)

    source = generic_operators(case)
    record = source._replace(
        L=GenericOp(dict(source.L.items())),
        commuting=tuple(GenericOp(dict(op.items())) for op in source.commuting),
        raising=tuple(GenericOp(dict(op.items())) for op in source.raising),
    )
    monkeypatch.setattr(kspoly.verify, "generic_operators", lambda c: record)
    monkeypatch.setattr(GenericOp, "at", counted)
    params = sample_params(case, random.Random(5))
    assert full_suite(params, nmax=3).passed
    # the builders specialise the catalog's own operators (IX's also case I's)
    built = {id(op) for c in CASES for field in generic_operators(c) for op in
             (field if isinstance(field, tuple) else (field,))}
    audited = [(op, p, N) for op, p, N in calls if id(op) not in built]
    assert all(p is params for _, p, _ in audited)
    fields = [id(op) for op in (record.L, *record.commuting)]
    assert sorted(id(op) for op, _, _ in audited if id(op) in fields) == sorted(fields)
    levels: dict[int, list] = {}
    for op, _, N in audited:
        if id(op) not in fields:
            levels.setdefault(id(op), []).append(N)
    # [L, I_k] and IX's quadratic residuals hold no N; R+x, R+y at N = 0..3
    expected = [[None]] * (len(source.commuting) + 2 * (case == "IX")) + [[0, 1, 2, 3]] * 2
    assert sorted(levels.values(), key=repr) == sorted(expected, key=repr)


@pytest.mark.parametrize("case", CASES)
def test_full_suite_composes_no_diffop(case, monkeypatch):
    # every identity is formed once over the generic ring and evaluated at
    # the sample, so no specialised operator is ever composed
    def refuse(self, other):
        raise AssertionError("a DiffOp was composed")

    monkeypatch.setattr(DiffOp, "__matmul__", refuse)
    params = sample_params(case, random.Random(5))
    assert full_suite(params, nmax=3).passed


def test_report_json_shape():
    p = CaseParams("IX", F(3))
    report = check_monic(build_oracle(p, 2))
    doc = report.to_json()
    assert doc["passed"] is True
    entry = doc["checks"][0]
    assert entry["case"] == "IX"
    assert entry["status"] == "pass"
    assert entry["params"]["beta"] == "3"


def test_report_entries_share_one_params_dict():
    # the parameters are formatted once per report, and every entry holds
    # that one dict
    params = sample_params("II", random.Random(6))
    checks = full_suite(params, nmax=3).to_json()["checks"]
    assert len(checks) > 1
    assert len({id(entry["params"]) for entry in checks}) == 1
    assert checks[0]["params"] == params_to_json(params)


def test_monic_failure_carries_the_entry():
    p = CaseParams("IX", F(3))
    t = build_oracle(p, 2)
    t.entries[(1, 1)] = t.entries[(1, 1)] + Y * Y
    report = check_monic(t)
    [failure] = report.failures()
    assert failure.name == "monic[oracle](1,1)"
    assert failure.detail == {"node": [1, 1], "residual": t.entries[(1, 1)].to_records()}


def test_failure_carries_residual():
    p = CaseParams("IX", F(3))
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
    assert set(result.detail) == {"point", "residual"}


def test_certify_case_ix_quadratic():
    from kspoly.catalog import quadratic_relations

    g = generic_operators("IX")
    second = quadratic_relations("IX", g.L, g.commuting)[1]
    result = certify_parameter_polynomial_identity(
        lambda q: second.at(q),
        "IX",
        "quadratic-2",
        degree_bound=8,
    )
    assert result.status == "pass"


# -- symbolic certification ----------------------------------------------------


def _operands(case):
    """operator_L and every commuting_ops member, as maps of the parameters."""
    count = len(commuting_ops(sample_params(case, random.Random(0))))
    return [operator_L] + [lambda q, k=k: commuting_ops(q)[k] for k in range(count)]


def _generic_i1(case):
    return generic_operators(case).commuting[0]


def _with_i1(case, i1):
    """The case's generic record with i1 in place of its I_1."""
    record = generic_operators(case)
    return record._replace(commuting=(i1, *record.commuting[1:]))


# 1, x, d_x, beta and kappa1 over Q[beta, kappa1, kappa2, N]
G_ONE = GenericOp({(0,) * 8: 1})
G_X, G_DX, G_BETA, G_K1 = (GenericOp.generator(index) for index in (0, 2, 4, 5))


@pytest.mark.parametrize("case", CASES)
def test_catalog_operands_are_affine_in_the_parameters(case):
    # every coefficient of the catalog's L and I_k is affine in each
    # parameter: second differences vanish at random points and steps
    axes = ("beta",) if case == "IX" else ("beta", "kappa1", "kappa2")
    rng = random.Random(sum(map(ord, case)) + 5)
    for operand in _operands(case):
        for _ in range(3):
            q = sample_params(case, rng)
            h = F(rng.randrange(1, 9), rng.choice((2, 3, 5)))
            for axis in axes:
                fields = {name: getattr(q, name) for name in ("case_id", "beta", "kappa1", "kappa2")}
                a, b, c = (
                    operand(CaseParams(**{**fields, axis: fields[axis] + t * h}))
                    for t in (0, 1, 2)
                )
                assert (a - 2 * b + c).is_zero(), (case, axis)


@pytest.mark.parametrize("case", CASES)
def test_certify_evaluates_no_grid_point(case, monkeypatch):
    # the proof is one composition over Q[beta, kappa1, kappa2]: no
    # parameter triple is formed and no catalog operator is built
    def forbidden(*args, **kwargs):
        raise AssertionError("certify must not evaluate at parameter points")

    monkeypatch.setattr(CaseParams, "__post_init__", forbidden)
    monkeypatch.setattr(catalog, "operator_L", forbidden)
    monkeypatch.setattr(catalog, "commuting_ops", forbidden)
    monkeypatch.setattr(GenericOp, "at", forbidden)
    monkeypatch.setattr(kspoly.verify, "certify_parameter_polynomial_identity", forbidden)
    monkeypatch.setattr(DiffOp, "__matmul__", forbidden)
    identity_residuals.cache_clear()  # so the composition runs under the patches
    result = certify_record(case, generic_operators(case))
    assert result.passed
    assert result.detail is None


def test_rational_operand_is_rejected():
    # a 1/beta coefficient cannot be written: parameter exponents are
    # nonnegative indices, and a GenericOp is not divisible by a symbol
    with pytest.raises(ValueError, match="nonnegative"):
        GenericOp({(0, 0, 1, 0, -1, 0, 0, 0): 1})
    with pytest.raises(TypeError):
        1 / G_BETA


def _assert_fails_with_residual(result):
    assert result.status == "fail"
    assert result.detail["residual"]
    assert set(result.detail["residual"][0]) == {"i", "j", "k", "l", "p", "q", "r", "s", "c"}


@pytest.mark.parametrize("case", CASES)
def test_derived_grid_detects_perturbations(case):
    # +1 on each stored term of the generic I1 breaks [L, I1] = 0
    i1 = _generic_i1(case)
    for index in range(len(i1)):
        result = certify_record(case, _with_i1(case, perturb_term(i1, index)))
        _assert_fails_with_residual(result)


@pytest.mark.parametrize("case", CASES)
def test_derived_grid_detects_degree_two_perturbation(case):
    # x d_x commutes with no catalog L, so I1 + w x d_x breaks [L, I1] = 0
    # for any weight w != 0, whatever its degree in the parameters
    euler = G_X @ G_DX
    q = sample_params(case, random.Random(1))
    assert not operator_L(q).commutator(euler.at(q)).is_zero()
    weights = [G_BETA @ G_BETA] + ([] if case == "IX" else [G_BETA @ G_K1])
    for weight in weights:
        result = certify_record(case, _with_i1(case, _generic_i1(case) + weight @ euler))
        _assert_fails_with_residual(result)


def test_certify_rejects_a_perturbation_that_vanishes_on_sample_lines():
    # (kappa1 - 2/5)(beta - 3/2)(beta - 5/2)(beta - 7/2) x d_x vanishes on the
    # line kappa1 = 2/5 and at beta in {3/2, 5/2, 7/2}, where a sampled degree
    # probe and a 3-point beta grid look; [L, I1'] is still nonzero
    weight = G_K1 - F(2, 5) * G_ONE
    for root in (F(3, 2), F(5, 2), F(7, 2)):
        weight = weight @ (G_BETA - root * G_ONE)
    probe = _generic_i1("I") + weight @ G_X @ G_DX
    result = certify_record("I", _with_i1("I", probe))
    _assert_fails_with_residual(result)
    point = CaseParams("I", F(9, 4), F(1, 3), F(1, 7))
    assert not operator_L(point).commutator(probe.at(point)).is_zero()


# -- mutation sensitivity -----------------------------------------------------------


def test_unmutated_battery_is_clean():
    rng = random.Random(13)
    for case in CASES:
        params = sample_params(case, rng)
        assert mutation_battery(params, 3, [generic_operators(case)]) == [False]


def test_mutations_are_detected():
    rng = random.Random(99)
    for _ in range(12):
        case = rng.choice(CASES)
        params = sample_params(case, rng)
        ops, description = mutated_operator_set(case, rng)
        assert mutation_battery(params, 3, [ops]) == [True], description


def test_mutant_census():
    # every single-term +1 mutant of every generic L, I_k, R+x and R+y, at
    # one fixed sample per case, fails an entry the catalog's record passes
    # (one battery per case, so its oracle and baseline are built once)
    mutants = 0
    for case in CASES:
        params = sample_params(case, random.Random(f"census/{case}"))
        source = generic_operators(case)
        labels = [
            (case, position, index)
            for position, op in enumerate((source.L, *source.commuting, *source.raising))
            for index in range(len(op))
        ]
        caught = mutation_battery(params, 3, [perturb_source(source, p, i) for _, p, i in labels])
        assert len(caught) == len(labels)
        assert [label for label, hit in zip(labels, caught) if not hit] == []
        mutants += len(caught)
    assert mutants == 268


@pytest.mark.parametrize("case", CASES)
def test_edge_operator_mutants_fail_an_edge_entry(case):
    # check_operators reads the edge operators of the record it is given,
    # so every single-term +1 mutant of either one fails an edge entry
    params = sample_params(case, random.Random(f"edges/{case}"))
    oracle = build_oracle(params, 3)
    source = generic_operators(case)
    assert check_operators(oracle, source).passed
    for axis, op in zip("xy", source.edge_operators):
        if op is None:
            continue
        for index in range(len(op)):
            edges = list(source.edge_operators)
            edges[axis == "y"] = perturb_term(op, index)
            report = check_operators(oracle, source._replace(edge_operators=tuple(edges)))
            failed = {r.name for r in report.failures()}
            assert failed and all(name.startswith(f"edge-{axis}(") for name in failed), (axis, index)


@pytest.mark.parametrize("case", CASES)
def test_every_record_field_reaches_a_check(case):
    # a field that no check reads holds witnesses nothing tests: a +1 on the
    # first or second stored term of any operator, in any field, must fail an
    # entry that the catalog's own record passes
    source = generic_operators(case)
    records, labels = [], []
    for field in GenericOperators._fields:
        value = getattr(source, field)
        members = value if isinstance(value, tuple) else (value,)
        for position, op in enumerate(members):
            if op is None:
                continue
            for index in (0, 1):
                mutant = perturb_term(op, index)
                if isinstance(value, tuple):
                    mutant = value[:position] + (mutant,) + value[position + 1:]
                records.append(source._replace(**{field: mutant}))
                labels.append((field, position, index))
    caught = mutation_battery(sample_params(case, random.Random(5)), 3, records)
    assert [label for label, hit in zip(labels, caught) if not hit] == []
    assert {field for field, _, _ in labels} == set(GenericOperators._fields)


def test_swap_failure_carries_the_residual():
    p = CaseParams("I", F(7, 2), F(1, 3), F(-1, 5))
    swapped = CaseParams("I", F(7, 2), F(-1, 5), F(1, 3))
    t = build_oracle(p, 3)
    t.entries[(2, 1)] = t.entries[(2, 1)] + F(1, 4) * X
    [failure] = check_swap_symmetry(t).failures()
    assert failure.name == "swap(2,1)"
    assert failure.detail == {"node": [2, 1], "residual": [{"i": 0, "j": 1, "c": "1/4"}]}


def _agreement_inputs():
    """(check, its table) for a passing swap, ix-to-i and genfun call."""
    p1 = CaseParams("I", F(7, 2), F(1, 3), F(-1, 5))
    p8 = CaseParams("VIII", F(7, 2), F(1, 3), F(-2, 5))
    return [
        (check_swap_symmetry, build_oracle(p1, 4)),
        (check_ix_to_i_map, build_oracle(CaseParams("IX", F(3)), 6)),
        (check_genfun_agreement, build_oracle(p8, 4)),
    ]


def test_agreement_checks_form_no_difference_when_they_pass(monkeypatch):
    # each entry is decided by ==; a passing call subtracts no polynomial
    inputs = _agreement_inputs()

    def refuse(*args):
        raise AssertionError("a polynomial difference was formed")

    monkeypatch.setattr(Terms, "__sub__", refuse)
    monkeypatch.setattr(Terms, "__neg__", refuse)
    counts = []
    for check, t in inputs:
        report = check(t)
        assert report.passed and report.failures() == []
        counts.append(len(report.results))
    assert counts == [15, 28, 15]


def test_a_failing_agreement_entry_carries_the_residual_of_its_sides():
    # one perturbed entry per check: its entry is _zero's of (a - b) at the node,
    # with the check's own reference table on the side the check reads it
    (swap, t1), (ix, t9), (gf, t8) = _agreement_inputs()
    swapped = build_oracle(CaseParams("I", F(7, 2), F(-1, 5), F(1, 3)), 4)
    image = build_oracle(CaseParams("I", F(2), F(-1, 2), F(-1, 2)), 3)
    table = extract_polys(genfun(t8.params, 4), t8.params)
    t1.entries[(2, 1)] = t1.entries[(2, 1)] + F(1, 4) * X
    t9.entries[(2, 2)] = t9.entries[(2, 2)] + F(1, 3) * X * X
    t8.entries[(1, 2)] = t8.entries[(1, 2)] + F(2, 3) * Y
    expected = [
        kspoly.verify._zero("swap(2,1)", t1.entry(2, 1).swap_vars() - swapped.entry(1, 2), (2, 1)),
        kspoly.verify._zero(
            "ix-to-i[00](2,2)", t9.entry(2, 2) - squares(image.entry(1, 1)), (2, 2)
        ),
        kspoly.verify._zero("genfun(1,2)", table[(1, 2)] - t8.entry(1, 2), (1, 2)),
    ]
    failures = [swap(t1).failures(), ix(t9).failures(), gf(t8).failures()]
    assert failures == [[entry] for entry in expected]
    assert [entry.detail for entry in expected] == [
        {"node": [2, 1], "residual": [{"i": 0, "j": 1, "c": "1/4"}]},
        {"node": [2, 2], "residual": [{"i": 2, "j": 0, "c": "1/3"}]},
        {"node": [1, 2], "residual": [{"i": 0, "j": 1, "c": "-2/3"}]},
    ]


def test_genfun_diff_failure_carries_the_residual(monkeypatch):
    p = CaseParams("V", F(7, 2), F(1, 3), F(-2, 5))
    true_residuals = kspoly.verify.genfun_derivative_residuals

    def broken(params, expansion):
        r1, r2 = true_residuals(params, expansion)
        return r1 + Series2(r1.order, {(1, 0, 0, 1): F(1, 3)}), r2

    monkeypatch.setattr(kspoly.verify, "genfun_derivative_residuals", broken)
    report = full_suite(p, nmax=3)
    [failure] = report.failures()
    assert failure.name == "genfun-diff-s"
    assert failure.detail == {"residual": [{"a": 1, "b": 0, "i": 0, "j": 1, "c": "1/3"}]}
    [entry] = [c for c in report.to_json()["checks"] if c["check"] == "genfun-diff-s"]
    assert entry["status"] == "fail"
    assert entry["residual"] == failure.detail["residual"]


def test_case_v_extraction_failure_keeps_the_derivative_entries(monkeypatch):
    # the derivative identities read the expansion, not the extracted table
    p = CaseParams("V", F(7, 2), F(1, 3), F(-2, 5))

    def broken(expansion, params):
        raise ParameterError("extraction broken")

    monkeypatch.setattr(kspoly.verify, "extract_polys", broken)
    report = full_suite(p, nmax=3)
    [failure] = report.failures()
    assert failure.name == "genfun"
    assert failure.detail == {"error": "extraction broken"}
    names = [c.name for c in report.results]
    assert "genfun-diff-s" in names and "genfun-diff-t" in names
    assert not any(name.startswith("genfun[") for name in names)


def test_case_v_expansion_failure_skips_the_derivative_entries(monkeypatch):
    p = CaseParams("V", F(7, 2), F(1, 3), F(-2, 5))

    def broken(params, order):
        raise ParameterError("expansion broken")

    monkeypatch.setattr(kspoly.verify, "genfun", broken)
    report = full_suite(p, nmax=3)
    [failure] = report.failures()
    assert failure.name == "genfun"
    assert not any(c.name.startswith("genfun-diff") for c in report.results)


def test_failure_details_shadow_no_entry_key(monkeypatch):
    # every kind of failure detail is written into its report entry as is,
    # beside (never over) check, case, params and status
    params = CaseParams("I", F(7, 2), F(1, 3), F(-1, 5))
    ops = generic_operators("I")._replace(L=perturb_term(generic_operators("I").L, 0))
    failures = check_operators(build_oracle(params, 3), ops).failures()
    with monkeypatch.context() as patched:
        patched.setitem(STENCILS, ("I", "x"), STENCILS[("I", "x")] - {(-1, 0)})
        failures += check_recurrence_stencil(params).failures()
    failures.append(certify_parameter_polynomial_identity(
        lambda q: operator_L(q).commutator(perturb_term(commuting_ops(q)[0], 1)), "II", "c", 8
    ))

    def broken(*args, **kwargs):
        raise StencilError("broken")

    monkeypatch.setitem(kspoly.verify.BUILDERS, "ladder", broken)
    monkeypatch.setattr(kspoly.verify, "stencil_sum", broken)
    failures += full_suite(params, nmax=3).failures()
    point = {"beta": "7/2", "kappa1": "1/3", "kappa2": "-1/5"}
    kinds = set()
    for result in failures:
        entry = result.to_json("I", params_to_json(params))
        head = {"check": result.name, "case": "I", "params": point, "status": "fail"}
        assert not set(result.detail) & set(head), result.name
        assert entry == {**head, **result.detail}
        kinds.add(frozenset(result.detail))
    assert kinds == {
        frozenset(k) for k in
        (("node", "residual"), ("residual",), ("unexpected_offsets",), ("point", "residual"),
         ("error",), ("node", "error"))
    }


# sha256 of dumps_json of the entries of check_operator_identities(params, 3,
# record), in report order: the byte identity of failing entries, which no
# CLI digest reaches.  Each record perturbs (perturb_source, index 1) a term
# of L, of R+x or, in case IX, of I3, whose residual reaches the quadratic
# relations; at beta = 1 the catalog's own record fails its level-0 raising
# relations with the denominator's error.
IDENTITY_POINTS = {
    "I": CaseParams("I", F(7, 2), F(1, 3), F(-1, 5)),
    "II": CaseParams("II", F(7, 2), F(1, 3), F(-1, 5)),
    "III": CaseParams("III", F(7, 2), F(1, 3), F(-1, 5)),
    "V": CaseParams("V", F(7, 2), F(1, 3), F(-2, 5)),
    "VIII": CaseParams("VIII", F(7, 2), F(1, 3), F(-2, 5)),
    "IX": CaseParams("IX", F(7, 3)),
}
FAILING_IDENTITY_DIGESTS = {
    ("I", "L"): (11, "298cdda01bc4daa06f096f043d24ea7e989eb58559020fb18612773fdcffdbe5"),
    ("I", "R+x"): (4, "83e24f56cbc34a25669b7a69ab211cc16e75862cd7f4b48b451a019d64f1ce3f"),
    ("II", "L"): (10, "f1af8e864172c878d932353b645da151dc7e9b0e16de714c156f40880a67a437"),
    ("II", "R+x"): (3, "41c9ec94b349d061bf58cade36168afc6ede71a4ebf64c5e2019afeb7ee24b94"),
    ("III", "L"): (10, "368badb6ad296696e61490133e7f89b516d58354f8b0e73343cfc9a3c0661bb1"),
    ("III", "R+x"): (3, "679b6e2a093def752d3c47f7df77ba83729db5bea2c62aea95a8aeaff7b6541e"),
    ("V", "L"): (6, "744a836d988687f6af5974f0f80acb4b014f7cb215fde676eabff7620aa940d9"),
    ("V", "R+x"): (4, "00bdc4ce8b533338d17cb91ed5099f271702ef120ff10b44172ce5e4d329894e"),
    ("VIII", "L"): (5, "4a664b2b1a9b79a5634ac65d2a088a36cdf0f7da4ad3c98094d9f096b77cf01c"),
    ("VIII", "R+x"): (4, "4fb4384309ab39bd10f5c6fcc7ff6e28e4d1e543c83619264fea1d077e4fabc0"),
    ("IX", "L"): (14, "04b6966c5a1b659b69c0ae3b38cf3ddd552ed223ed559cf1afe27d27473d1d78"),
    ("IX", "R+x"): (3, "603fc83472c1c3c269af21babadf06021e8dd59303556b2900f2eb3b6abf3ee4"),
    ("IX", "I3"): (2, "a1df89ee5ba5e202a164f3c10c4fba0c014721394e35b90c56f11105edb568cf"),
    ("I", "beta=1"): (2, "732d38946afbd6195bbb39b7aa2c8da1ecc6807efb0269d10758ac3057e8d9e9"),
    ("II", "beta=1"): (2, "5781ed449e27457d7311646d58db304ed94a6605324afe3ddc6d2252c4df9851"),
    ("III", "beta=1"): (2, "72d2fdaaf5eab6d25f8075da295889a1a1bf663d274a5b3f478e0edfd96e57b0"),
    ("IX", "beta=1"): (2, "d35b1e6554263db8ba49270385b8bed5e0aee4f24d1b9bc307dff4301df6f5c7"),
}


@pytest.mark.parametrize("case, source", sorted(FAILING_IDENTITY_DIGESTS))
def test_failing_identity_entries_keep_their_bytes(case, source):
    record = generic_operators(case)
    if source == "beta=1":
        params = CaseParams(case, F(1), *(() if case == "IX" else (F(1, 3), F(-1, 5))))
    else:
        params = IDENTITY_POINTS[case]
        position = {"L": 0, "I3": 3, "R+x": 1 + len(record.commuting)}[source]
        record = perturb_source(record, position, 1)
    report = check_operator_identities(params, 3, record)
    failures = report.failures()
    if source == "beta=1":
        assert [f.name for f in failures] == ["raising[L,R+x(N=0)]", "raising[L,R+y(N=0)]"]
        assert all(set(f.detail) == {"error"} for f in failures)
    if source == "I3":
        assert [f.name for f in failures] == ["commuting[L,I3]", "quadratic-1"]
    entries = [r.to_json(case, params_to_json(params)) for r in report.results]
    digest = hashlib.sha256(triangle.dumps_json(entries).encode("utf-8")).hexdigest()
    assert (len(failures), digest) == FAILING_IDENTITY_DIGESTS[(case, source)]


@pytest.mark.parametrize("case", CASES)
def test_passing_checks_serialise_no_residual(case, monkeypatch):
    # a residual is written out only for a failing check
    def refuse(self):
        raise AssertionError("to_records called on a passing check")

    monkeypatch.setattr(Terms, "to_records", refuse)
    params = sample_params(case, random.Random(3))
    assert full_suite(params, nmax=3).passed
    assert certify_record(case, generic_operators(case)).passed


# -- the identity residual cache -------------------------------------------------


def _identity_failures(params, record):
    return [r.to_json(params.case_id, params_to_json(params)) for r in
            check_operator_identities(params, 3, record).failures()]


@pytest.mark.parametrize("case", CASES)
def test_identity_cache_gives_a_mutant_its_own_residuals(case):
    # after the catalog's record has warmed the cache, each one-term mutant
    # fails exactly the entries it fails with the cache cold, and the
    # catalog's record passes again afterwards
    params = IDENTITY_POINTS[case]
    record = generic_operators(case)
    mutants = [perturb_source(record, position, 1) for position in (0, 1, -2, -1)]
    cold = []
    for mutant in mutants:
        identity_residuals.cache_clear()
        cold.append(_identity_failures(params, mutant))
    identity_residuals.cache_clear()
    assert check_operator_identities(params, 3, record).passed
    for mutant, failures in zip(mutants, cold):
        assert failures
        assert _identity_failures(params, mutant) == failures
        assert check_operator_identities(params, 3, record).passed


def test_identity_cache_is_keyed_by_value():
    # an equal copy of the record is served the record's residuals; a copy
    # with one coefficient changed is not
    record = generic_operators("II")
    copy = GenericOp._wrap(dict(record.L._num), record.L._den)
    assert copy == record.L and copy is not record.L
    identity_residuals.cache_clear()
    first = identity_residuals("II", record)
    assert identity_residuals("II", record._replace(L=copy)) is first
    mutant = perturb_term(record.L, 2)
    other = identity_residuals("II", record._replace(L=mutant))
    assert other is not first and other.commuting[0] == mutant.commutator(record.commuting[0])
    info = identity_residuals.cache_info()
    assert (info.hits, info.misses, info.currsize) == (1, 2, 2)


def test_generic_op_hash_survives_pickling():
    # the memoised hash travels with a pickle and reads only ints, so an
    # unpickled record is still served its residuals; a perturbed copy of
    # that record is still a miss
    record = generic_operators("III")
    identity_residuals.cache_clear()
    first = identity_residuals("III", record)
    copy = pickle.loads(pickle.dumps(record.L))
    assert copy == record.L and hash(copy) == hash(record.L)
    assert identity_residuals("III", record._replace(L=copy)) is first
    mutant = perturb_term(copy, 4)
    assert mutant != record.L
    assert identity_residuals("III", record._replace(L=mutant)) is not first
    info = identity_residuals.cache_info()
    assert (info.hits, info.misses) == (1, 2)


def test_mutation_battery_verdicts_do_not_depend_on_the_cache():
    # more mutants than the cache holds, so the battery evicts as it runs
    params = sample_params("I", random.Random(41))
    source = generic_operators("I")
    records = [source] + [
        perturb_source(source, position, index)
        for position in range(1 + len(source.commuting) + 2)
        for index in (0, 5, 9)
    ]
    assert len(records) > IDENTITY_CACHE_SIZE
    identity_residuals.cache_clear()
    cold = mutation_battery(params, 3, records)
    warm = mutation_battery(params, 3, records)
    assert cold == warm == [False] + [True] * (len(records) - 1)
    info = identity_residuals.cache_info()
    assert info.maxsize == IDENTITY_CACHE_SIZE
    assert info.currsize == IDENTITY_CACHE_SIZE


@pytest.mark.parametrize("case", CASES)
def test_certify_record_is_certify_commutator(case):
    # the entry is the record's [L, I1], failing ones too: a perturbed I1
    # fails with the commutator of L and that I1 as its residual
    name = f"certify[{case}] [L,I1]=0"
    record = generic_operators(case)
    assert certify_record(case, record) == CheckResult(name, "pass")
    i1 = perturb_term(record.commuting[0], 0)
    residual = record.L.commutator(i1)
    assert not residual.is_zero()
    expected = CheckResult(name, "fail", {"residual": residual.to_records()})
    assert certify_record(case, _with_i1(case, i1)) == expected

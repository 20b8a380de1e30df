"""Executable audit of every algebraic claim against constructed tables.

Each check returns entries in a VerificationReport; a report that is all
pass means every listed identity held to exact zero.  Failures carry the
offending node and the full residual so a coefficient typo in the catalog
is diagnosable from the report alone.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from itertools import product
from random import Random
from typing import Callable, Iterable, NamedTuple, Optional, Sequence

from .algebra import BivariatePoly, Terms, _check_choice, _check_index, _Unreduced
from .catalog import (
    CaseParams,
    GenericOperators,
    STENCILS,
    _recurrence_tail,
    _unreduced_params,
    action_relations,
    eigenvalue,
    generic_operators,
    params_to_json,
    quadratic_relations,
    raising_denominators,
    raising_relation,
)
from .errors import KspolyError, ParameterError, StencilError, TransferError
from .series import (
    GENFUN_CASES,
    extract_polys,
    genfun,
    genfun_derivative_residuals,
)
from .triangle import BUILDERS, Triangle, build_oracle, stencil_sum
from .weyl import DiffOp, GenericOp, Op


class CheckResult(NamedTuple):
    name: str
    status: str  # "pass" or "fail"
    detail: Optional[dict] = None

    @property
    def passed(self) -> bool:
        return self.status == "pass"

    def to_json(self, case: str, params: Optional[dict] = None) -> dict:
        """The report entry: check, case, params (a params_to_json dict, held
        as given), status, and on failure the detail's own keys (node,
        residual, error, unexpected_offsets or point), none of which names
        an entry key."""
        entry: dict = {"check": self.name, "case": case}
        if params is not None:
            entry["params"] = params
        entry["status"] = self.status
        if self.detail is not None:
            entry.update(self.detail)
        return entry


def _poly_detail(node, p: BivariatePoly) -> dict:
    return {"node": list(node), "residual": p.to_records()}


def _zero(name: str, residual: Terms, node: Optional[tuple[int, int]] = None) -> CheckResult:
    """Pass exactly when residual is zero; a failure records the residual,
    and the node it belongs to when there is one."""
    if residual.is_zero():
        return CheckResult(name, "pass")
    if node is None:
        return CheckResult(name, "fail", {"residual": residual.to_records()})
    return CheckResult(name, "fail", _poly_detail(node, residual))


class VerificationReport:
    def __init__(self, params: CaseParams):
        self.params = params
        self.results: list[CheckResult] = []

    def add(self, name: str, ok: bool, detail: Optional[dict] = None) -> None:
        self.results.append(
            CheckResult(name, "pass" if ok else "fail", None if ok else detail)
        )

    def expect_zero(
        self, name: str, residual: Terms, node: Optional[tuple[int, int]] = None
    ) -> None:
        self.results.append(_zero(name, residual, node))

    def extend(self, other: "VerificationReport") -> None:
        self.results.extend(other.results)

    @property
    def passed(self) -> bool:
        return all(r.passed for r in self.results)

    def failures(self) -> list[CheckResult]:
        return [r for r in self.results if not r.passed]

    def to_json(self) -> dict:
        """The report document; its entries share one params dict, so it is
        to be read (or written), not mutated."""
        case, params = self.params.case_id, params_to_json(self.params)
        checks = [r.to_json(case, params) for r in sorted(self.results, key=lambda r: r.name)]
        return {"checks": checks, "passed": self.passed}


# ---------------------------------------------------------------------------
# Triangle-level checks
# ---------------------------------------------------------------------------


def _relation_entries(t: Triangle, op: DiffOp, relation: tuple, names: dict) -> VerificationReport:
    """The one relation rule, op P + s P = sum of c P_nb for a (s, neighbors)
    pair as catalog.ActionRelation's, formed as one stencil_sum at each node of
    names and recorded under its name, a StencilError as its failing entry."""
    report = VerificationReport(t.params)
    self_coeff, neighbors = relation
    for (m, n), name in names.items():
        p = t.entry(m, n)
        terms = ((m + dm, n + dn, c) for dm, dn, c in neighbors(m, n))
        try:
            residual = stencil_sum(t.entries, terms, [(self_coeff(m, n), p), (1, p, op)], -1)
        except StencilError as err:
            report.add(name, False, {"node": [m, n], "error": str(err)})
        else:
            report.expect_zero(name, residual, (m, n))
    return report


def _eigen_relation(t: Triangle) -> tuple:
    """op P = lambda_{m+n} P as a relation: s = -lambda_{m+n}, no neighbor."""
    lams = [-eigenvalue(t.params, N) for N in range(t.nmax + 1)]
    return lambda m, n: lams[m + n], lambda m, n: ()


def check_eigen(t: Triangle, L: DiffOp) -> VerificationReport:
    """L P_{m,n} = lambda_{m+n} P_{m,n}, exactly, at every entry."""
    names = {(m, n): f"eigen[{t.method}]({m},{n})" for m, n in t.nodes()}
    return _relation_entries(t, L, _eigen_relation(t), names)


def check_monic(t: Triangle) -> VerificationReport:
    """Leading term x^m y^n with coefficient 1; everything else lower degree."""
    report = VerificationReport(t.params)
    for m, n in t.nodes():
        p = t.entry(m, n)
        ok = p.is_monic(m, n)
        report.add(f"monic[{t.method}]({m},{n})", ok, None if ok else _poly_detail((m, n), p))
    return report


def check_action_formulas(
    t: Triangle, commuting: tuple[DiffOp, ...]
) -> VerificationReport:
    """Every in-level shift relation at every node, relation k on commuting[k]."""
    report = VerificationReport(t.params)
    for k, rel in enumerate(action_relations(t.params)):
        names = {(m, n): f"action-I{k + 1}({m},{n})" for m, n in t.nodes()}
        report.extend(_relation_entries(t, commuting[k], rel, names))
    return report


def _agreement(params: CaseParams, prefix: str, pairs: Iterable[tuple]) -> VerificationReport:
    """One entry prefix(m,n) per (node, a, b) triple, passing when a == b;
    only a failing entry forms a - b, its residual detail, through _zero."""
    report = VerificationReport(params)
    for node, a, b in pairs:
        name = f"{prefix}({node[0]},{node[1]})"
        report.results.append(CheckResult(name, "pass") if a == b else _zero(name, a - b, node))
    return report


def check_swap_symmetry(t: Triangle) -> VerificationReport:
    """Swapping (x,y) and the kappas maps P_{m,n} to P_{n,m} (cases I, IX):
    t is compared with the oracle table at the swapped kappas, which is t
    itself when the swap leaves the parameters unchanged."""
    p = t.params
    _check_choice("swap symmetry case", p.case_id, ("I", "IX"))
    swapped = CaseParams(p.case_id, p.beta, p.kappa2, p.kappa1)
    t_swapped = t if swapped == p else build_oracle(swapped, t.nmax)
    pairs = (((m, n), t.entry(m, n).swap_vars(), t_swapped.entry(n, m)) for m, n in t.nodes())
    return _agreement(p, "swap", pairs)


def check_ix_to_i_map(t9: Triangle) -> VerificationReport:
    """Each parity block of a case IX table is a case I table in the squares,
    which implies the parity in x and y: for e1, e2 in {0, 1},
    P^IX_{2a+e1, 2b+e2}(x, y) = x^e1 y^e2 P^I_{a,b}(x^2, y^2), P^I the case I
    oracle at beta_e = (beta + 1)/2 + e1 + e2, kappa_e = (-1/2 - e1, -1/2 - e2)
    to level (nmax - e1 - e2) // 2.  One entry ix-to-i[e1e2](m,n) per node,
    its image formed forward, so a wrong table fails entries and never raises.
    A block whose case I table breaks its validity rule is one passing
    ix-to-i[e1e2](skipped) entry, its parity unchecked: every block at beta =
    -(2 nmax + 3), and at -(2 nmax + 5) those with e1 + e2 = nmax mod 2 (00
    and 11 at an even nmax).  A block with no node (e1 + e2 > nmax) has no
    entry."""
    p9 = t9.params
    _check_choice("ix-to-i case", p9.case_id, ("IX",))
    report = VerificationReport(p9)
    for e1, e2 in product((0, 1), repeat=2):
        if e1 + e2 > t9.nmax:
            continue
        prefix = f"ix-to-i[{e1}{e2}]"
        b1, k1, k2 = (p9.beta + 1) / 2 + e1 + e2, Fraction(-1, 2) - e1, Fraction(-1, 2) - e2
        try:
            t1 = build_oracle(CaseParams("I", b1, k1, k2), (t9.nmax - e1 - e2) // 2)
        except KspolyError:
            report.add(f"{prefix}(skipped)", True)
            continue
        pairs = []
        for a, b in t1.nodes():
            node = (2 * a + e1, 2 * b + e2)
            terms = t1.entry(a, b).items()
            image = BivariatePoly({(2 * i + e1, 2 * j + e2): c for (i, j), c in terms})
            pairs.append((node, t9.entry(*node), image))
        report.extend(_agreement(p9, prefix, pairs))
    return report


def check_genfun_agreement(t: Triangle) -> VerificationReport:
    """Exact equality of every entry of t with the generating function's,
    expanded to t.nmax: an expansion or extraction that raises is the one,
    failing, genfun entry.  Case V's derivative identities, genfun-diff-s
    and genfun-diff-t, read one order more of the same expansion."""
    params = t.params
    _check_choice("genfun case", params.case_id, GENFUN_CASES)
    derivatives = params.case_id == "V"
    report = VerificationReport(params)
    expansion = None
    try:
        expansion = genfun(params, t.nmax + 1 if derivatives else t.nmax)
        table = extract_polys(expansion.truncated(t.nmax), params)
    except KspolyError as exc:
        report.add("genfun", False, {"error": str(exc)})
    else:
        pairs = (((m, n), table[(m, n)], t.entry(m, n)) for m, n in t.nodes())
        report.extend(_agreement(params, "genfun", pairs))
    if derivatives and expansion is not None:
        r1, r2 = genfun_derivative_residuals(params, expansion)
        report.expect_zero("genfun-diff-s", r1)
        report.expect_zero("genfun-diff-t", r2)
    return report


def check_recurrence_stencil(params: CaseParams) -> VerificationReport:
    """Each recurrence reads only its documented stencil: the source and every
    tail point of the catalog's formula, zero coefficients included, lie at
    offsets from the target in STENCILS.

    The formula text fixes the offsets, the same at every node and for every
    parameter triple, so each axis's tail runs once, at (0, 0), on the
    triple's unreduced parameters.  Its structural denominators are taken as 1,
    unchecked: only the offsets are read, and no triple then meets a
    vanishing factor."""
    report = VerificationReport(params)
    b, k1, k2 = _unreduced_params(params)
    for axis, (tm, tn) in (("x", (1, 0)), ("y", (0, 1))):
        tail = _recurrence_tail(
            params.case_id, axis, b, k1, k2, 0, 0, lambda offsets: _Unreduced(1)
        )
        reads = {(0, 0)} | {(dm, dn) for dm, dn, _ in tail}
        extra = {(dm - tm, dn - tn) for dm, dn in reads} - STENCILS[(params.case_id, axis)]
        report.add(f"stencil-{axis}", not extra, {"unexpected_offsets": sorted(extra)})
    return report


# ---------------------------------------------------------------------------
# Operator-level checks
# ---------------------------------------------------------------------------


# The six catalog records with room to spare: a mutation battery's records
# are each formed once and then evicted in turn.
IDENTITY_CACHE_SIZE = 16


class IdentityResiduals(NamedTuple):
    """The all-parameter residuals of one operator record, over
    Q[beta, kappa1, kappa2, N]: [L, I_k] for each commuting I_k, the
    raising relations of R+x and R+y, and case IX's quadratic relations
    (empty for the other cases)."""

    commuting: tuple[GenericOp, ...]
    raising: tuple[GenericOp, GenericOp]
    quadratic: tuple[GenericOp, ...]


@lru_cache(maxsize=IDENTITY_CACHE_SIZE)
def identity_residuals(case_id: str, ops: GenericOperators) -> IdentityResiduals:
    """The residuals of the record ops, formed once per process: they depend
    on no sample.  The cache is keyed by the record's value, so a perturbed
    record gets its own residuals."""
    return IdentityResiduals(
        tuple(ops.L.commutator(ik) for ik in ops.commuting),
        tuple(raising_relation(case_id, axis, ops.L, r) for axis, r in zip("xy", ops.raising)),
        quadratic_relations(case_id, ops.L, ops.commuting) if case_id == "IX" else (),
    )


def check_operator_identities(
    params: CaseParams, nmax: int, ops: GenericOperators
) -> VerificationReport:
    """The commuting relations, the raising relations for N = 0..nmax and the
    case IX quadratic relations of the record ops, each an identity_residuals
    residual evaluated at params (and N), all as exact zero Weyl elements.
    A level whose raising operators do not exist (a vanishing structural
    denominator) records its two raising entries as failing, with
    raising_ops' error."""
    _check_index("nmax", nmax)
    report = VerificationReport(params)
    residuals = identity_residuals(params.case_id, ops)
    for idx, residual in enumerate(residuals.commuting, start=1):
        report.expect_zero(f"commuting[L,I{idx}]", residual.at(params))
    for N in range(nmax + 1):
        try:
            raising_denominators(params, N)
        except ParameterError as exc:
            for axis in "xy":
                report.add(f"raising[L,R+{axis}(N={N})]", False, {"error": str(exc)})
            continue
        for axis, residual in zip("xy", residuals.raising):
            report.expect_zero(f"raising[L,R+{axis}(N={N})]", residual.at(params, N))
    for k, residual in enumerate(residuals.quadratic, start=1):
        report.expect_zero(f"quadratic-{k}", residual.at(params))
    return report


def check_operators(t: Triangle, ops: GenericOperators) -> VerificationReport:
    """Every check that audits an operator record: the eigen, action and edge-ODE
    relations of its L, I_k and edge operators at t.params on the table t, one
    relation loop for all (an edge ODE is the eigen relation on an edge's
    nodes), and its identities up to t.nmax; full_suite and mutation_battery run it."""
    report = check_eigen(t, ops.L.at(t.params))
    report.extend(check_action_formulas(t, tuple(op.at(t.params) for op in ops.commuting)))
    for axis, op in zip("xy", ops.edge_operators):
        if op is not None:
            nodes = [(k, 0) if axis == "x" else (0, k) for k in range(t.nmax + 1)]
            names = {node: f"edge-{axis}({sum(node)})" for node in nodes}
            report.extend(_relation_entries(t, op.at(t.params), _eigen_relation(t), names))
    report.extend(check_operator_identities(t.params, t.nmax, ops))
    return report


def certify_parameter_polynomial_identity(
    identity: Callable[[CaseParams], DiffOp],
    case_id: str,
    name: str,
    degree_bound: int,
) -> CheckResult:
    """Certify an identity polynomial in (beta, kappa1, kappa2).

    The identity callable maps parameters to a residual operator of degree
    at most degree_bound in each parameter.  Vanishing on a grid with
    degree_bound + 1 distinct values per parameter certifies it as a
    polynomial identity in the parameters.
    """
    sample_count = degree_bound + 1
    betas = [Fraction(2 * j + 3, 2) for j in range(sample_count)]  # 3/2, 5/2, ...
    kappas = [Fraction(3 * (j - sample_count // 2) * 2 + 1, 3) for j in range(sample_count)]
    if case_id == "IX":
        grid = [(b, Fraction(0), Fraction(0)) for b in betas]
    else:
        grid = [(b, k1, k2) for b in betas for k1 in kappas for k2 in kappas]
    for b, k1, k2 in grid:
        params = CaseParams(case_id, b, k1, k2)
        residual = identity(params)
        if not residual.is_zero():
            return CheckResult(
                name,
                "fail",
                {
                    "point": {"beta": str(b), "kappa1": str(k1), "kappa2": str(k2)},
                    "residual": residual.to_records(),
                },
            )
    return CheckResult(name, "pass")


def certify_record(case_id: str, ops: GenericOperators) -> CheckResult:
    """Certify [L, I_1] = 0 for every parameter triple, as the entry
    `certify[C] [L,I1]=0`: the record's [L, I_1], read from its cached
    identity_residuals, is one element of the Weyl algebra over Q[beta,
    kappa1, kappa2], zero exactly when the identity holds everywhere."""
    residuals = identity_residuals(case_id, ops)
    return _zero(f"certify[{case_id}] [L,I1]=0", residuals.commuting[0])


# ---------------------------------------------------------------------------
# Mutation sensitivity
# ---------------------------------------------------------------------------


def perturb_term(op: Op, index: int) -> Op:
    """Add 1 to the coefficient of one stored term (by canonical index) of a
    DiffOp or a GenericOp."""
    items = list(op.items())
    key, _ = items[index % len(items)]
    return op + type(op)({key: 1})


def perturb_source(ops: GenericOperators, position: int, index: int) -> GenericOperators:
    """The record ops with perturb_term(op, index) in place of the op at
    position in (L, I_1, ..., I_k, R+x, R+y)."""
    sources = [ops.L, *ops.commuting, *ops.raising]
    sources[position] = perturb_term(sources[position], index)
    return ops._replace(L=sources[0], commuting=tuple(sources[1:-2]), raising=tuple(sources[-2:]))


def mutated_operator_set(case_id: str, rng: Random) -> tuple[GenericOperators, str]:
    """The case's generic record with a single +1 coefficient perturbation of
    L, an I_k, R+x or R+y, which then reaches every level it is specialised at."""
    base = generic_operators(case_id)
    names = ["L", *(f"I{k + 1}" for k in range(len(base.commuting))), "R+x", "R+y"]
    position = rng.randrange(len(names))
    mutated = perturb_source(base, position, rng.randrange(100))
    return mutated, f"{names[position]} term perturbed ({case_id})"


def mutation_battery(
    params: CaseParams, nmax: int, records: Sequence[GenericOperators]
) -> list[bool]:
    """One bool per (possibly perturbed) operator record: True if
    check_operators, against the oracle table, fails some entry for it that
    it passes for the catalog's own record.  An entry that cannot be formed
    (at beta = 1, the level-0 raising relations) catches no mutant.  The
    oracle and the catalog's baseline are built once for all the records."""
    oracle = build_oracle(params, nmax)
    baseline = check_operators(oracle, generic_operators(params.case_id))
    passing = {r.name for r in baseline.results if r.passed}
    return [
        any(r.name in passing for r in check_operators(oracle, ops).failures())
        for ops in records
    ]


# ---------------------------------------------------------------------------
# Full suite
# ---------------------------------------------------------------------------


def full_suite(params: CaseParams, nmax: int = 6) -> VerificationReport:
    """Everything: builder agreement, eigen/monic/edge invariants, action
    formulas, operator identities, stencils, symmetry checks, generating
    functions to order nmax.  Used by the command-line `check`.
    An oracle that cannot be built is the one, failing, build-oracle entry."""
    report = VerificationReport(params)
    try:
        oracle = build_oracle(params, nmax)
    except KspolyError as exc:
        report.add("build-oracle", False, {"error": str(exc)})
        return report
    for name, build in BUILDERS.items():
        if name == "oracle":
            continue
        try:
            t = build(params, nmax)
        except TransferError:
            # documented precondition miss: fall back silently to other builders
            report.add(f"build-{name}(skipped)", True)
        except KspolyError as exc:
            report.add(f"build-{name}", False, {"error": str(exc)})
        else:
            report.add(f"agreement[{name}]", t.same_polys(oracle))
    report.extend(check_operators(oracle, generic_operators(params.case_id)))
    report.extend(check_monic(oracle))
    report.extend(check_recurrence_stencil(params))
    if params.case_id == "IX":
        report.extend(check_swap_symmetry(oracle))
        report.extend(check_ix_to_i_map(oracle))
    if params.case_id == "I":
        report.extend(check_swap_symmetry(oracle))
    if params.case_id in GENFUN_CASES:
        report.extend(check_genfun_agreement(oracle))
    return report

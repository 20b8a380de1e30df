"""Executable audit of every algebraic claim against constructed tables.

Each check returns entries in a VerificationReport; a report that is all
pass means every listed identity held to exact zero.  Failures carry the
offending node and the full residual so a coefficient typo in the catalog
is diagnosable from the report alone.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from fractions import Fraction
from random import Random
from typing import Callable, Optional

from .algebra import BivariatePoly
from .catalog import (
    CaseParams,
    STENCILS,
    action_relations,
    commuting_ops,
    edge_operators,
    eigenvalue,
    operator_L,
    quadratic_relation_residuals,
    raising_commutator_rhs,
    raising_ops,
)
from .errors import KspolyError, ParameterDegreeError, StencilError, TransferError
from .series import (
    GENFUN_CASES,
    extract_polys,
    genfun,
    genfun_derivative_residuals,
)
from .triangle import BUILDERS, AccessLog, Triangle, build_oracle, stencil_sum
from .weyl import DiffOp


@dataclass
class CheckResult:
    name: str
    status: str  # "pass" or "fail"
    detail: Optional[dict] = None

    @property
    def passed(self) -> bool:
        return self.status == "pass"


@dataclass
class VerificationReport:
    params: CaseParams
    results: list[CheckResult] = field(default_factory=list)

    def add(self, name: str, ok: bool, detail: Optional[dict] = None) -> None:
        self.results.append(
            CheckResult(name, "pass" if ok else "fail", None if ok else detail)
        )

    def extend(self, other: "VerificationReport") -> None:
        self.results.extend(other.results)

    @property
    def passed(self) -> bool:
        return all(r.passed for r in self.results)

    def failures(self) -> list[CheckResult]:
        return [r for r in self.results if not r.passed]

    def to_json(self) -> dict:
        out = []
        for r in sorted(self.results, key=lambda r: r.name):
            entry = {
                "check": r.name,
                "case": self.params.case_id,
                "params": {
                    "beta": str(self.params.beta),
                    "kappa1": str(self.params.kappa1),
                    "kappa2": str(self.params.kappa2),
                },
                "status": r.status,
            }
            if r.detail is not None:
                entry["residual"] = r.detail
            out.append(entry)
        return {"checks": out, "passed": self.passed}


@dataclass(frozen=True)
class OperatorSet:
    """The operators one verification run audits: the catalog's, or a
    perturbed copy of them for mutation tests."""

    L: DiffOp
    commuting: tuple[DiffOp, ...]
    raising: Callable[[int], tuple[DiffOp, DiffOp]]


def catalog_operator_set(params: CaseParams) -> OperatorSet:
    return OperatorSet(
        operator_L(params),
        commuting_ops(params),
        lambda N: raising_ops(params, N),
    )


def _poly_detail(node, residual: BivariatePoly) -> dict:
    return {"node": list(node), "residual": residual.to_records()}


def _op_detail(residual: DiffOp) -> dict:
    return {"residual": residual.to_records()}


# ---------------------------------------------------------------------------
# Triangle-level checks
# ---------------------------------------------------------------------------


def check_eigen(t: Triangle, L: DiffOp) -> VerificationReport:
    """L P_{m,n} = lambda_{m+n} P_{m,n}, exactly, at every entry."""
    report = VerificationReport(t.params)
    for m, n in t.nodes():
        p = t.entry(m, n)
        residual = L.apply(p) - eigenvalue(t.params, m + n) * p
        report.add(
            f"eigen[{t.method}]({m},{n})",
            residual.is_zero(),
            _poly_detail((m, n), residual),
        )
    return report


def check_monic(t: Triangle) -> VerificationReport:
    """Leading term x^m y^n with coefficient 1; everything else lower degree."""
    report = VerificationReport(t.params)
    for m, n in t.nodes():
        p = t.entry(m, n)
        ok = p.is_monic(m, n)
        report.add(f"monic[{t.method}]({m},{n})", ok, None if ok else _poly_detail((m, n), p))
    return report


def check_edge_ode(t: Triangle) -> VerificationReport:
    """Edge polynomials solve the one-variable restrictions of L."""
    report = VerificationReport(t.params)
    lx, ly = edge_operators(t.params)
    for k in range(t.nmax + 1):
        lam = eigenvalue(t.params, k)
        if lx is not None:
            p = t.entry(k, 0)
            residual = lx.apply(p) - lam * p
            report.add(f"edge-x({k})", residual.is_zero(), _poly_detail((k, 0), residual))
        if ly is not None:
            p = t.entry(0, k)
            residual = ly.apply(p) - lam * p
            report.add(f"edge-y({k})", residual.is_zero(), _poly_detail((0, k), residual))
    return report


def check_action_formulas(
    t: Triangle, commuting: tuple[DiffOp, ...]
) -> VerificationReport:
    """Every in-level shift relation of the commuting operators, at every node."""
    if t.nmax < 2:
        raise ValueError("action-formula checks need a triangle with nmax >= 2")
    report = VerificationReport(t.params)
    for rel in action_relations(t.params, commuting):
        for m, n in t.nodes():
            p = t.entry(m, n)
            name = f"action-{rel.name}({m},{n})"
            terms = ((m + dm, n + dn, c) for dm, dn, c in rel.neighbors(m, n))
            try:
                rhs = stencil_sum(t.entries, terms)
            except StencilError as err:
                report.add(name, False, {"node": [m, n], "error": str(err)})
                continue
            residual = rel.op.apply(p) + rel.self_coeff(m, n) * p - rhs
            report.add(name, residual.is_zero(), _poly_detail((m, n), residual))
    return report


def check_parity_ix(t: Triangle) -> VerificationReport:
    """P_{m,n}(-x,y) = (-1)^m P_{m,n}(x,y) and the y counterpart."""
    if t.params.case_id != "IX":
        raise ValueError("parity checks apply to case IX triangles")
    report = VerificationReport(t.params)
    for m, n in t.nodes():
        p = t.entry(m, n)
        sx = -p if m % 2 else p
        sy = -p if n % 2 else p
        report.add(
            f"parity({m},{n})",
            p.negate_var("x") == sx and p.negate_var("y") == sy,
            _poly_detail((m, n), p),
        )
    return report


def check_swap_symmetry(t: Triangle, t_swapped: Triangle) -> VerificationReport:
    """Swapping (x,y) and the kappas maps P_{m,n} to P_{n,m} (cases I, IX)."""
    report = VerificationReport(t.params)
    if t.params.case_id not in ("I", "IX"):
        raise ValueError("the swap symmetry holds for cases I and IX")
    for m, n in t.nodes():
        residual = t.entry(m, n).swap_vars() - t_swapped.entry(n, m)
        report.add(f"swap({m},{n})", residual.is_zero(), _poly_detail((m, n), residual))
    return report


def check_ix_to_i_map(t9: Triangle, t1: Triangle) -> VerificationReport:
    """Even-even case IX entries, with exponents halved, are case I entries
    at kappa1 = kappa2 = -1/2 and beta1 = (beta9 + 1)/2."""
    if t9.params.case_id != "IX":
        raise ValueError("first triangle must be case IX")
    p1 = t1.params
    if p1.case_id != "I":
        raise ValueError("second triangle must be case I")
    if (
        p1.kappa1 != Fraction(-1, 2)
        or p1.kappa2 != Fraction(-1, 2)
        or p1.beta != (t9.params.beta + 1) / 2
    ):
        raise ValueError(
            "case I parameters must be kappa1 = kappa2 = -1/2 and "
            "beta = (beta9 + 1)/2"
        )
    if t1.nmax < t9.nmax // 2:
        raise ValueError("case I triangle too small for the even-even image")
    report = VerificationReport(t9.params)
    for a in range(t9.nmax // 2 + 1):
        for b in range(t9.nmax // 2 - a + 1):
            residual = t9.entry(2 * a, 2 * b).halve_even_exponents() - t1.entry(a, b)
            report.add(
                f"ix-to-i({2 * a},{2 * b})",
                residual.is_zero(),
                _poly_detail((2 * a, 2 * b), residual),
            )
    return report


def check_genfun_agreement(
    t: Triangle, table: dict[tuple[int, int], BivariatePoly]
) -> VerificationReport:
    """Exact equality of every generating-function entry with the triangle."""
    report = VerificationReport(t.params)
    order = max(m + n for (m, n) in table)
    for m, n in t.nodes():
        if m + n > order:
            continue
        residual = table[(m, n)] - t.entry(m, n)
        report.add(f"genfun({m},{n})", residual.is_zero(), _poly_detail((m, n), residual))
    return report


def check_recurrence_stencil(params: CaseParams, log: AccessLog) -> VerificationReport:
    """The recurrence builder touched only the documented stencil offsets:
    log is the access_log of a build_recurrence run for these params."""
    report = VerificationReport(params)
    seen: dict[str, set] = {"x": set(), "y": set()}
    for axis, offset in log:
        seen[axis].add(offset)
    for axis in ("x", "y"):
        allowed = STENCILS[(params.case_id, axis)]
        extra = seen[axis] - allowed
        report.add(
            f"stencil-{axis}",
            not extra,
            {"unexpected_offsets": sorted(extra)},
        )
    return report


# ---------------------------------------------------------------------------
# Operator-level checks
# ---------------------------------------------------------------------------


def check_operator_identities(
    params: CaseParams, nmax: int, ops: OperatorSet
) -> VerificationReport:
    """Commuting relations, raising commutators for N = 0..nmax, and the
    case IX quadratic relations, all as exact zero Weyl elements."""
    report = VerificationReport(params)
    L = ops.L
    for idx, ik in enumerate(ops.commuting, start=1):
        residual = L.commutator(ik)
        report.add(f"commuting[L,I{idx}]", residual.is_zero(), _op_detail(residual))
    for N in range(nmax + 1):
        for axis, r in zip(("x", "y"), ops.raising(N)):
            rhs = raising_commutator_rhs(params, N, axis, L, r)
            residual = L.commutator(r) - rhs
            report.add(
                f"raising[L,R+{axis}(N={N})]",
                residual.is_zero(),
                _op_detail(residual),
            )
    if params.case_id == "IX":
        q1, q2 = quadratic_relation_residuals(params, L, ops.commuting)
        report.add("quadratic-1", q1.is_zero(), _op_detail(q1))
        report.add("quadratic-2", q2.is_zero(), _op_detail(q2))
    return report


def check_operators(t: Triangle, ops: OperatorSet) -> VerificationReport:
    """Every check that audits an operator set: eigen and action formulas on
    the table t, and the operator identities up to t.nmax.  full_suite runs
    it on the catalog's set, mutation_battery on perturbed ones."""
    report = check_eigen(t, ops.L)
    report.extend(check_action_formulas(t, ops.commuting))
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
                    "params": {"beta": str(b), "kappa1": str(k1), "kappa2": str(k2)},
                    "residual": residual.to_records(),
                },
            )
    return CheckResult(name, "pass")


# Where parameter_degrees samples: every parameter nonzero and none a value
# of the certify grid (beta a half-integer, kappa = 1/3 mod 2), so no
# catalog coefficient's leading part in one parameter vanishes there.
DEGREE_BASE = (Fraction(17, 7), Fraction(2, 5), Fraction(-3, 11))
DEGREE_STEP = Fraction(1, 3)
DEGREE_CAP = 4


def parameter_degrees(operand: Callable[[CaseParams], DiffOp], case_id: str) -> tuple[int, ...]:
    """Degree of operand(params) in each parameter: (beta, kappa1, kappa2),
    or (beta,) for case IX, which has no kappas.

    Along each axis the operand is sampled at DEGREE_CAP + 2 points spaced
    DEGREE_STEP apart from DEGREE_BASE; the degree is the least
    d <= DEGREE_CAP whose (d+1)-th finite differences all vanish there.
    Raises ParameterDegreeError when none does, e.g. for a 1/beta
    coefficient.
    """
    base = DEGREE_BASE if case_id != "IX" else (DEGREE_BASE[0], Fraction(0), Fraction(0))
    degrees = []
    for axis in range(1 if case_id == "IX" else 3):
        point = list(base)
        diffs = []
        for t in range(DEGREE_CAP + 2):
            point[axis] = base[axis] + t * DEGREE_STEP
            diffs.append(operand(CaseParams(case_id, *point)))
        degree = 0
        while True:
            diffs = [b - a for a, b in zip(diffs, diffs[1:])]
            if all(d.is_zero() for d in diffs):
                break
            degree += 1
            if degree > DEGREE_CAP:
                raise ParameterDegreeError(
                    f"case {case_id}: operand is not polynomial of degree <= {DEGREE_CAP} "
                    f"in {('beta', 'kappa1', 'kappa2')[axis]}"
                )
        degrees.append(degree)
    return tuple(degrees)


def certify_commutator(
    A: Callable[[CaseParams], DiffOp],
    B: Callable[[CaseParams], DiffOp],
    case_id: str,
    name: str,
) -> CheckResult:
    """Certify [A, B] = 0 for every parameter triple.

    In each parameter, deg [A, B] <= deg A + deg B, so the identity holds
    everywhere once it holds on a tensor grid with one value more than the
    largest such sum per parameter (Schwartz 1980, J. ACM 27).
    """
    degrees = zip(parameter_degrees(A, case_id), parameter_degrees(B, case_id))
    bound = max(a + b for a, b in degrees)
    return certify_parameter_polynomial_identity(
        lambda q: A(q).commutator(B(q)),
        case_id,
        name,
        degree_bound=bound,
    )


# ---------------------------------------------------------------------------
# Mutation sensitivity
# ---------------------------------------------------------------------------


def perturb_term(op: DiffOp, index: int) -> DiffOp:
    """Add 1 to the coefficient of one stored term (by canonical index)."""
    items = list(op.items())
    key, _ = items[index % len(items)]
    return op + DiffOp({key: 1})


def mutated_operator_set(
    params: CaseParams, rng: Random, nmax: int
) -> tuple[OperatorSet, str]:
    """A catalog operator set with a single +1 coefficient perturbation."""
    base = catalog_operator_set(params)
    targets = ["L"] + [f"I{k + 1}" for k in range(len(base.commuting))] + ["Rx", "Ry"]
    choice = rng.choice(targets)
    if choice == "L":
        mutated = replace(base, L=perturb_term(base.L, rng.randrange(100)))
    elif choice.startswith("I"):
        commuting = list(base.commuting)
        idx = int(choice[1:]) - 1
        commuting[idx] = perturb_term(commuting[idx], rng.randrange(100))
        mutated = replace(base, commuting=tuple(commuting))
    else:
        n0 = rng.randrange(nmax + 1)
        axis = 0 if choice == "Rx" else 1
        term_index = rng.randrange(100)

        def raising(N: int):
            pair = list(base.raising(N))
            if N == n0:
                pair[axis] = perturb_term(pair[axis], term_index)
            return tuple(pair)

        mutated = replace(base, raising=raising)
        choice = f"R+{choice[1]}(N={n0})"
    return mutated, f"{choice} term perturbed ({params.case_id})"


def mutation_battery(params: CaseParams, nmax: int, ops: OperatorSet) -> bool:
    """True if check_operators fails for the (possibly perturbed) operator
    set ops against the oracle table."""
    return not check_operators(build_oracle(params, nmax), ops).passed


# ---------------------------------------------------------------------------
# Full suite
# ---------------------------------------------------------------------------


def full_suite(params: CaseParams, nmax: int = 6, order: int = 6) -> VerificationReport:
    """Everything: builder agreement, eigen/monic/edge invariants, action
    formulas, operator identities, stencils, parity and symmetry checks,
    generating functions.  Used by the command-line `check`."""
    report = VerificationReport(params)
    oracle = build_oracle(params, nmax)
    triangles = {"oracle": oracle}
    stencil_log: AccessLog = []
    for name, build in BUILDERS.items():
        if name == "oracle":
            continue
        extra = {"access_log": stencil_log} if name == "recurrence" else {}
        try:
            triangles[name] = build(params, nmax, **extra)
        except TransferError:
            # documented precondition miss: fall back silently to other builders
            report.add(f"build-{name}(skipped)", True)
        except KspolyError as exc:
            report.add(f"build-{name}", False, {"error": str(exc)})
    for name, t in triangles.items():
        if name == "oracle":
            continue
        report.add(f"agreement[{name}]", t.same_polys(oracle))
    report.extend(check_operators(oracle, catalog_operator_set(params)))
    report.extend(check_monic(oracle))
    report.extend(check_edge_ode(oracle))
    report.extend(check_recurrence_stencil(params, stencil_log))
    if params.case_id == "IX":
        report.extend(check_parity_ix(oracle))
        report.extend(check_swap_symmetry(oracle, oracle))
        beta1 = (params.beta + 1) / 2
        t1 = build_oracle(
            CaseParams("I", beta1, Fraction(-1, 2), Fraction(-1, 2), params.nmax_hint),
            nmax // 2,
        )
        report.extend(check_ix_to_i_map(oracle, t1))
    if params.case_id == "I":
        swapped = build_oracle(
            CaseParams(
                "I", params.beta, params.kappa2, params.kappa1, params.nmax_hint
            ),
            nmax,
        )
        report.extend(check_swap_symmetry(oracle, swapped))
    if params.case_id in GENFUN_CASES:
        table = extract_polys(genfun(params, order), params)
        report.extend(check_genfun_agreement(oracle, table))
        if params.case_id == "V":
            r1, r2 = genfun_derivative_residuals(params, order)
            report.add("genfun-diff-s", r1.is_zero())
            report.add("genfun-diff-t", r2.is_zero())
    return report

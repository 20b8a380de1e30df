"""Executable audit of every algebraic claim against constructed tables.

Each check returns entries in a VerificationReport; a report that is all
pass means every listed identity held to exact zero.  Failures carry the
offending node and the full residual so a coefficient typo in the catalog
is diagnosable from the report alone.
"""

from __future__ import annotations

from dataclasses import dataclass, field
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
from .errors import KspolyError, TransferError
from .series import (
    GENFUN_CASES,
    extract_polys,
    genfun,
    genfun_derivative_residuals,
)
from .triangle import BUILDERS, Triangle, build_oracle, build_recurrence
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
    case_id: str
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
                "case": self.case_id,
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
    """The operators a verification run audits; overridable for mutation tests."""

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


def check_eigen(t: Triangle, L: Optional[DiffOp] = None) -> VerificationReport:
    """L P_{m,n} = lambda_{m+n} P_{m,n}, exactly, at every entry."""
    report = VerificationReport(t.params.case_id, t.params)
    if L is None:
        L = operator_L(t.params)
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
    report = VerificationReport(t.params.case_id, t.params)
    for m, n in t.nodes():
        p = t.entry(m, n)
        ok = p.coefficient(m, n) == 1 and all(
            i + j < m + n for (i, j), _ in p.items() if (i, j) != (m, n)
        )
        report.add(f"monic[{t.method}]({m},{n})", ok, _poly_detail((m, n), p))
    return report


def check_edge_ode(t: Triangle) -> VerificationReport:
    """Edge polynomials solve the one-variable restrictions of L."""
    report = VerificationReport(t.params.case_id, t.params)
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
    t: Triangle, ops: Optional[OperatorSet] = None
) -> VerificationReport:
    """Every in-level shift relation of the commuting operators, at every node."""
    if t.nmax < 2:
        raise ValueError("action-formula checks need a triangle with nmax >= 2")
    report = VerificationReport(t.params.case_id, t.params)
    commuting = ops.commuting if ops is not None else None
    for rel in action_relations(t.params, commuting):
        for m, n in t.nodes():
            p = t.entry(m, n)
            lhs = rel.op.apply(p) + rel.self_coeff(m, n) * p
            rhs = BivariatePoly.zero()
            out_of_range = False
            for dm, dn, c in rel.neighbors(m, n):
                if c == 0:
                    continue
                mm, nn = m + dm, n + dn
                if mm < 0 or nn < 0:
                    out_of_range = True
                    continue
                rhs = rhs + c * t.entry(mm, nn)
            residual = lhs - rhs
            report.add(
                f"action-{rel.name}({m},{n})",
                residual.is_zero() and not out_of_range,
                _poly_detail((m, n), residual),
            )
    return report


def check_parity_ix(t: Triangle) -> VerificationReport:
    """P_{m,n}(-x,y) = (-1)^m P_{m,n}(x,y) and the y counterpart."""
    if t.params.case_id != "IX":
        raise ValueError("parity checks apply to case IX triangles")
    report = VerificationReport("IX", t.params)
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
    report = VerificationReport(t.params.case_id, t.params)
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
    report = VerificationReport("IX", t9.params)
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
    report = VerificationReport(t.params.case_id, t.params)
    order = max(m + n for (m, n) in table)
    for m, n in t.nodes():
        if m + n > order:
            continue
        residual = table[(m, n)] - t.entry(m, n)
        report.add(f"genfun({m},{n})", residual.is_zero(), _poly_detail((m, n), residual))
    return report


def check_recurrence_stencil(params: CaseParams, nmax: int) -> VerificationReport:
    """The recurrence builder touches only the documented stencil offsets."""
    report = VerificationReport(params.case_id, params)
    log: list = []
    build_recurrence(params, nmax, access_log=log)
    seen: dict[str, set] = {"x": set(), "y": set()}
    for axis, _, offset in log:
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
    params: CaseParams, nmax: int, ops: Optional[OperatorSet] = None
) -> VerificationReport:
    """Commuting relations, raising commutators for N = 0..nmax, and the
    case IX quadratic relations, all as exact zero Weyl elements."""
    report = VerificationReport(params.case_id, params)
    if ops is None:
        ops = catalog_operator_set(params)
    L = ops.L
    for idx, ik in enumerate(ops.commuting, start=1):
        residual = L.commutator(ik)
        report.add(f"commuting[L,I{idx}]", residual.is_zero(), _op_detail(residual))
    for N in range(nmax + 1):
        pair = ops.raising(N)
        for axis, r in zip(("x", "y"), pair):
            rhs = raising_commutator_rhs(params, N, axis, L=L, raising=pair)
            residual = L.commutator(r) - rhs
            report.add(
                f"raising[L,R+{axis}(N={N})]",
                residual.is_zero(),
                _op_detail(residual),
            )
    if params.case_id == "IX":
        q1, q2 = quadratic_relation_residuals(params, L=L, ops=ops.commuting)
        report.add("quadratic-1", q1.is_zero(), _op_detail(q1))
        report.add("quadratic-2", q2.is_zero(), _op_detail(q2))
    return report


def certify_parameter_polynomial_identity(
    identity: Callable[[CaseParams], DiffOp],
    case_id: str,
    name: str,
    sample_count: int = 9,
    degree_bound: int = 8,
    nmax_hint: int = 8,
) -> CheckResult:
    """Certify an identity polynomial in (beta, kappa1, kappa2).

    The identity callable maps parameters to a residual operator.  Vanishing
    on a grid with more than degree_bound distinct values per parameter
    certifies the identity as a polynomial identity in the parameters.
    """
    if sample_count <= degree_bound:
        raise ValueError(
            f"sample_count={sample_count} must exceed degree_bound={degree_bound}"
        )
    betas = [Fraction(2 * j + 3, 2) for j in range(sample_count)]  # 3/2, 5/2, ...
    kappas = [Fraction(3 * (j - sample_count // 2) * 2 + 1, 3) for j in range(sample_count)]
    if case_id == "IX":
        grid = [(b, Fraction(0), Fraction(0)) for b in betas]
    else:
        grid = [(b, k1, k2) for b in betas for k1 in kappas for k2 in kappas]
    for b, k1, k2 in grid:
        params = CaseParams(case_id, b, k1, k2, nmax_hint)
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


# ---------------------------------------------------------------------------
# Mutation sensitivity
# ---------------------------------------------------------------------------


def perturb_term(op: DiffOp, index: int, delta: int = 1) -> DiffOp:
    """Add delta to the coefficient of one stored term (by canonical index)."""
    items = list(op.items())
    key, _ = items[index % len(items)]
    return op + DiffOp({key: Fraction(delta)})


def mutated_operator_set(
    params: CaseParams, rng: Random, nmax: int
) -> tuple[OperatorSet, str]:
    """A catalog operator set with a single +1 coefficient perturbation."""
    base = catalog_operator_set(params)
    targets = ["L"] + [f"I{k + 1}" for k in range(len(base.commuting))] + ["Rx", "Ry"]
    choice = rng.choice(targets)
    if choice == "L":
        mutated = perturb_term(base.L, rng.randrange(100))
        return (
            OperatorSet(mutated, base.commuting, base.raising),
            f"L term perturbed ({params.case_id})",
        )
    if choice.startswith("I"):
        idx = int(choice[1:]) - 1
        ops = list(base.commuting)
        ops[idx] = perturb_term(ops[idx], rng.randrange(100))
        return (
            OperatorSet(base.L, tuple(ops), base.raising),
            f"{choice} term perturbed ({params.case_id})",
        )
    n0 = rng.randrange(nmax + 1)
    axis = 0 if choice == "Rx" else 1
    term_index = rng.randrange(100)

    def raising(N: int):
        pair = list(base.raising(N))
        if N == n0:
            pair[axis] = perturb_term(pair[axis], term_index)
        return tuple(pair)

    return (
        OperatorSet(base.L, base.commuting, raising),
        f"R+{'x' if axis == 0 else 'y'}(N={n0}) term perturbed ({params.case_id})",
    )


def mutation_battery(params: CaseParams, nmax: int, ops: OperatorSet) -> bool:
    """Run the eigen, operator-identity and action checks against a
    (possibly perturbed) operator set; True if some check fails."""
    t = build_oracle(params, nmax)
    report = VerificationReport(params.case_id, params)
    report.extend(check_eigen(t, L=ops.L))
    report.extend(check_operator_identities(params, nmax, ops))
    report.extend(check_action_formulas(t, ops))
    return not report.passed


# ---------------------------------------------------------------------------
# Full suite
# ---------------------------------------------------------------------------


def full_suite(params: CaseParams, nmax: int = 6, order: int = 6) -> VerificationReport:
    """Everything: builder agreement, eigen/monic/edge invariants, action
    formulas, operator identities, stencils, parity and symmetry checks,
    generating functions.  Used by the command-line `check`."""
    report = VerificationReport(params.case_id, params)
    oracle = build_oracle(params, nmax)
    triangles = {"oracle": oracle}
    for name, build in BUILDERS.items():
        if name == "oracle":
            continue
        try:
            triangles[name] = build(params, nmax)
        except TransferError as exc:
            # documented precondition miss: fall back silently to other builders
            report.add(f"build-{name}(skipped)", True, {"note": str(exc)})
        except KspolyError as exc:
            report.add(f"build-{name}", False, {"error": str(exc)})
    for name, t in triangles.items():
        if name == "oracle":
            continue
        report.add(f"agreement[{name}]", t.same_polys(oracle))
    report.extend(check_eigen(oracle))
    report.extend(check_monic(oracle))
    report.extend(check_edge_ode(oracle))
    report.extend(check_action_formulas(oracle))
    report.extend(check_operator_identities(params, nmax))
    report.extend(check_recurrence_stencil(params, nmax))
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

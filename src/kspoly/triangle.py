"""The triangular table of monic eigenfunctions, built four independent ways.

Builders:
  oracle     - exact linear solve of (L - lambda) P = 0 per entry,
  recurrence - three-level recurrence tables, level by level,
  ladder     - repeated application of the raising operators,
  transfer   - edge recurrences plus in-level commuting-operator shifts.

All four must agree term for term; the verification module enforces that.
"""

from __future__ import annotations

import csv
import io
import json
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable

from .algebra import ONE, BivariatePoly, parse_rational, signed_sum
from .catalog import (
    CaseParams,
    RecurrenceStep,
    action_relations,
    commuting_ops,
    eigenvalue,
    operator_L,
    raising_ops,
    recurrence_step,
    seed_polys,
)
from .errors import AdmissibilityError, StencilError, TransferError

AccessLog = list[tuple[str, tuple[int, int]]]  # (axis, offset)


@dataclass
class Triangle:
    """All P_{m,n} with m+n <= nmax for one case and parameter choice."""

    params: CaseParams
    nmax: int
    method: str
    entries: dict[tuple[int, int], BivariatePoly]

    def entry(self, m: int, n: int) -> BivariatePoly:
        return self.entries[(m, n)]

    def nodes(self) -> list[tuple[int, int]]:
        """Lattice points in canonical order: by level, left to right."""
        return [
            (m, N - m) for N in range(self.nmax + 1) for m in range(N, -1, -1)
        ]

    def same_polys(self, other: "Triangle") -> bool:
        return self.entries == other.entries


def _check_nmax(params: CaseParams, nmax: int) -> None:
    if nmax < 0:
        raise ValueError("nmax must be nonnegative")
    if nmax > params.nmax_hint:
        raise ValueError(
            f"nmax={nmax} exceeds nmax_hint={params.nmax_hint}; enlarge the hint "
            "so parameter validity covers every level"
        )


# ---------------------------------------------------------------------------
# Oracle: exact eigen-solve
# ---------------------------------------------------------------------------


def build_oracle(params: CaseParams, nmax: int) -> Triangle:
    """Solve (L - lambda_N) P = 0 for the monic representative of each (m, n).

    With P = x^m y^n + lower terms, the residual of the monomial ansatz has
    degree < N and (L - lambda_N) acts on a degree-d monomial as
    (lambda_d - lambda_N) times itself plus lower-degree terms, so the system
    is triangular by total degree and solved exactly by back-substitution.

    Each step adds the degree-d layer ``top`` to P, and the residual is
    updated by (L - lambda_N) applied to ``top`` alone.  L is linear and the
    arithmetic is exact, so (L - lambda_N)(P + top) equals the old residual
    plus (L - lambda_N) top term for term: every intermediate residual, and
    hence every guard below, is the same as if L were re-applied to all of P.
    """
    _check_nmax(params, nmax)
    L = operator_L(params)
    entries: dict[tuple[int, int], BivariatePoly] = {}
    for N in range(nmax + 1):
        lam = eigenvalue(params, N)
        for m in range(N, -1, -1):
            n = N - m
            P = BivariatePoly.monomial(m, n)
            residual = L.apply(P) - lam * P
            while not residual.is_zero():
                d = residual.degree
                if d >= N:
                    raise AdmissibilityError(
                        f"residual degree {d} did not drop below {N} at "
                        f"(m,n)=({m},{n}) for {params}"
                    )
                denom = eigenvalue(params, d) - lam
                if denom == 0:
                    raise AdmissibilityError(
                        f"eigenvalues of degrees {d} and {N} coincide at "
                        f"(m,n)=({m},{n}) for {params}"
                    )
                top = residual.scaled_part(d, -1 / denom)
                P = P + top
                residual = residual + (L.apply(top) - lam * top)
            entries[(m, n)] = P
    return Triangle(params, nmax, "oracle", entries)


# ---------------------------------------------------------------------------
# Recurrence: three-level stencils
# ---------------------------------------------------------------------------


def _recurrence_route(case_id: str, a: int, c: int) -> tuple[str, tuple[int, int]]:
    """Which recurrence produces target (a, c), and from which source."""
    if case_id in ("III", "VIII"):
        if a == 0:
            return ("y", (0, c - 1))
        return ("x", (a - 1, c))
    # cases I, II, V, IX: advance from both edges toward the middle
    if a == 0:
        return ("y", (0, c - 1))
    if c == 0:
        return ("x", (a - 1, 0))
    if a >= c:
        return ("x", (a - 1, c))
    return ("y", (a, c - 1))


def stencil_sum(
    entries: dict[tuple[int, int], BivariatePoly],
    terms: Iterable[tuple[int, int, Fraction]],
) -> BivariatePoly:
    """Sum of c * P_(mm,nn) over a relation's (mm, nn, c) terms.

    The one place the stencil rule is enforced: zero coefficients are
    skipped, and a nonzero one on a point outside the triangle is a
    coefficient-table bug, raised as StencilError.
    """
    total = BivariatePoly.zero()
    for mm, nn, c in terms:
        if c == 0:
            continue
        if mm < 0 or nn < 0:
            raise StencilError(
                f"nonzero coefficient {c} multiplies out-of-range entry ({mm},{nn})"
            )
        total = total + c * entries[(mm, nn)]
    return total


def _apply_step(
    step: RecurrenceStep,
    entries: dict[tuple[int, int], BivariatePoly],
    axis: str,
    access_log: AccessLog | None,
) -> BivariatePoly:
    """Evaluate one recurrence step against already-built entries."""
    P = step.lead * entries[step.source] + stencil_sum(entries, step.tail)
    if access_log is not None:
        tm, tn = step.target
        reads = [step.source] + [(mm, nn) for mm, nn, c in step.tail if c]
        access_log.extend((axis, (mm - tm, nn - tn)) for mm, nn in reads)
    return P


def build_recurrence(
    params: CaseParams, nmax: int, access_log: AccessLog | None = None
) -> Triangle:
    """Fill the triangle level by level from the degree <= 1 seeds.

    Cases III and VIII use their x-relation for every target off the right
    edge (III's right edge and VIII's left edge have no one-variable
    reduction); the other cases advance from both edges.  The optional
    access_log records every (axis, offset) read for stencil audits.
    """
    _check_nmax(params, nmax)
    entries = {
        key: p for key, p in seed_polys(params).items() if key[0] + key[1] <= nmax
    }
    for T in range(2, nmax + 1):
        for a in range(T, -1, -1):
            c = T - a
            axis, source = _recurrence_route(params.case_id, a, c)
            step = recurrence_step(params, axis, *source)
            if step.target != (a, c):
                raise StencilError(f"route to ({a},{c}) reads the step {source} -> {step.target}")
            entries[(a, c)] = _apply_step(step, entries, axis, access_log)
    return Triangle(params, nmax, "recurrence", entries)


# ---------------------------------------------------------------------------
# Ladder: raising operators
# ---------------------------------------------------------------------------


def build_ladder(params: CaseParams, nmax: int) -> Triangle:
    """Climb the right edge with R+y, then cross each row with R+x."""
    _check_nmax(params, nmax)
    ops = [raising_ops(params, N) for N in range(nmax)]  # (R+x, R+y) by degree
    entries: dict[tuple[int, int], BivariatePoly] = {(0, 0): ONE}
    for n in range(nmax):
        entries[(0, n + 1)] = ops[n][1].apply(entries[(0, n)])
    for n in range(nmax + 1):
        for m in range(1, nmax - n + 1):
            entries[(m, n)] = ops[m - 1 + n][0].apply(entries[(m - 1, n)])
    return Triangle(params, nmax, "ladder", entries)


# ---------------------------------------------------------------------------
# Transfer: edge recurrences + in-level shifts
# ---------------------------------------------------------------------------

# case -> (relation index, unknown neighbor offset, edges built by recurrence)
_TRANSFER_ROUTE: dict[str, tuple[int, tuple[int, int], tuple[str, ...]]] = {
    "I": (0, (-1, 1), ("left", "right")),
    "II": (0, (-1, 1), ("left", "right")),
    "III": (0, (-1, 1), ("left",)),
    "V": (1, (1, -1), ("left", "right")),
    "VIII": (1, (1, -1), ("right",)),
    "IX": (2, (-1, 1), ("left", "right")),
}


def _transfer_sources(case_id: str, T: int) -> list[tuple[int, int]]:
    """Sweep order: level-T sources whose unknown neighbor must be solved for.

    The sweep starts at the corner the unknown offset points away from and
    stops before the target leaves the triangle; targets that are edge
    entries already produced by the edge recurrences are skipped.
    """
    _, (du, dv), edges = _TRANSFER_ROUTE[case_id]
    return [
        (m, T - m)
        for m in (range(T, 0, -1) if du < 0 else range(T))
        if not (T - m + dv == 0 and "left" in edges or m + du == 0 and "right" in edges)
    ]


def build_transfer(params: CaseParams, nmax: int) -> Triangle:
    """Build edges by their 3-point recurrences, then solve the in-level
    action formula of one commuting operator for the missing neighbor.

    The sweep (each source with its neighbor coefficients) is laid out
    once, and every division coefficient on it is checked before any work;
    vanishing ones raise TransferError naming each node (the recurrence
    builder is the documented fallback).
    """
    _check_nmax(params, nmax)
    rel_index, (du, dv), edges = _TRANSFER_ROUTE[params.case_id]
    rel = action_relations(params, commuting_ops(params))[rel_index]
    sweep = []  # per level: (m, n, unknown's coefficient, known neighbor terms)
    for T in range(2, nmax + 1):
        level = []
        for m, n in _transfer_sources(params.case_id, T):
            known = {(m + dm, n + dn): c for dm, dn, c in rel.neighbors(m, n)}
            coeff_u = known.pop((m + du, n + dv), 0)
            level.append((m, n, coeff_u, [(mm, nn, c) for (mm, nn), c in known.items()]))
        sweep.append(level)
    bad = [f"(m,n)=({m},{n})" for level in sweep for m, n, coeff_u, _ in level if not coeff_u]
    if bad:
        raise TransferError(
            f"case {params.case_id} transfer route divides by zero at {', '.join(bad)}; "
            "fall back to the recurrence builder"
        )
    entries = {
        key: p for key, p in seed_polys(params).items() if key[0] + key[1] <= nmax
    }
    for T, level in enumerate(sweep, start=2):
        if "left" in edges:
            step = recurrence_step(params, "x", T - 1, 0)
            entries[(T, 0)] = _apply_step(step, entries, "x", None)
        if "right" in edges:
            step = recurrence_step(params, "y", 0, T - 1)
            entries[(0, T)] = _apply_step(step, entries, "y", None)
        for m, n, coeff_u, known in level:
            P = rel.op.apply(entries[(m, n)]) + rel.self_coeff(m, n) * entries[(m, n)]
            entries[(m + du, n + dv)] = (1 / coeff_u) * (P - stencil_sum(entries, known))
    return Triangle(params, nmax, "transfer", entries)


BUILDERS = {
    "oracle": build_oracle,
    "recurrence": build_recurrence,
    "ladder": build_ladder,
    "transfer": build_transfer,
}


# ---------------------------------------------------------------------------
# Serialization
# ---------------------------------------------------------------------------


def triangle_to_json(t: Triangle) -> dict:
    return {
        "case": t.params.case_id,
        "beta": str(t.params.beta),
        "kappa1": str(t.params.kappa1),
        "kappa2": str(t.params.kappa2),
        "nmax": t.nmax,
        "method": t.method,
        "polys": [
            {"m": m, "n": n, "terms": t.entry(m, n).to_records()}
            for (m, n) in t.nodes()
        ],
    }


def triangle_from_json(doc: object) -> Triangle:
    """Read a triangle_to_json document back, rejecting a malformed one with a
    ValueError that names the problem."""
    if not isinstance(doc, dict):
        raise ValueError("a triangle JSON document must be an object")
    for key in ("case", "beta", "kappa1", "kappa2", "nmax", "polys"):
        if key not in doc:
            raise ValueError(f"triangle JSON lacks {key!r}")
    for key in ("beta", "kappa1", "kappa2"):
        if not isinstance(doc[key], str):
            raise ValueError(f"{key} must be a rational string like \"7/2\", not {doc[key]!r}")
    nmax = doc["nmax"]
    if type(nmax) is not int or nmax < 0:
        raise ValueError(f"nmax must be a nonnegative integer, not {nmax!r}")
    if not isinstance(doc["polys"], list):
        raise ValueError("polys must be a list of {m, n, terms} objects")
    method = doc.get("method", "oracle")
    if not isinstance(method, str) or method not in BUILDERS:
        raise ValueError(f"method must name a builder ({', '.join(BUILDERS)}), not {method!r}")
    params = CaseParams(
        doc["case"],
        parse_rational(doc["beta"]),
        parse_rational(doc["kappa1"]),
        parse_rational(doc["kappa2"]),
        nmax,
    )
    t = Triangle(params, nmax, method, {})
    for rec in doc["polys"]:
        try:
            node = (rec["m"], rec["n"])
            if not all(type(e) is int for e in node):
                raise ValueError(f"m and n must be integers, not {node}")
            if node in t.entries:
                raise ValueError(f"duplicate entry for (m,n)={node}")
            t.entries[node] = BivariatePoly.from_records(rec["terms"])
        except (KeyError, TypeError):
            raise ValueError(f"malformed polys record {rec!r}") from None
    nodes = t.nodes()
    if set(t.entries) != set(nodes):
        missing = [node for node in nodes if node not in t.entries]
        extra = [node for node in t.entries if node not in nodes]
        raise ValueError(
            f"entries do not match nmax={nmax}: missing {missing}, outside {extra}"
        )
    return t


def dumps_json(doc: dict) -> str:
    """Deterministic JSON text: fixed key order, fixed layout."""
    return json.dumps(doc, indent=2) + "\n"


def triangle_to_csv(t: Triangle) -> str:
    out = io.StringIO()
    writer = csv.writer(out, lineterminator="\n")
    writer.writerow(["m", "n", "i", "j", "c"])
    for m, n in t.nodes():
        for (i, j), c in t.entry(m, n).items():
            writer.writerow([m, n, i, j, str(c)])
    return out.getvalue()


def latex_rational(q: Fraction) -> str:
    if q.denominator == 1:
        return str(q.numerator)
    sign = "-" if q < 0 else ""
    return f"{sign}\\frac{{{abs(q.numerator)}}}{{{q.denominator}}}"


def latex_poly(p: BivariatePoly) -> str:
    return signed_sum(reversed(list(p.items())), "xy", latex_rational, " ", power="{}^{{{}}}")


def triangle_to_latex(t: Triangle) -> str:
    p = t.params
    lines = [
        f"% case {p.case_id}, beta={p.beta}, kappa1={p.kappa1}, "
        f"kappa2={p.kappa2}, method={t.method}",
        "\\begin{array}{ll}",
        "(m,n) & P_{m,n} \\\\",
        "\\hline",
    ]
    for m, n in t.nodes():
        lines.append(f"({m},{n}) & {latex_poly(t.entry(m, n))} \\\\")
    lines.append("\\end{array}")
    return "\n".join(lines) + "\n"


FORMATTERS = {
    "json": lambda t: dumps_json(triangle_to_json(t)),
    "csv": triangle_to_csv,
    "latex": triangle_to_latex,
}

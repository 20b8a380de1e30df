"""Case data for the six nontrivial Krall-Sheffer families.

Each case (I, II, III, V, VIII, IX) carries a second-order operator L whose
monic polynomial eigenfunctions P_{m,n} live on a triangular lattice, a set
of second-order operators commuting with L, a pair of degree-raising
operators, edge reductions, three-level recurrence tables, and the in-level
action formulas of the commuting operators.  This module is the single
place where those formulas exist as code; everything else consumes it.

Cases IV, VI and VII factor into products of classical one-variable
polynomials and are intentionally not covered.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from random import Random
from typing import Callable, Optional, Sequence

from .algebra import ONE, X, Y, BivariatePoly
from .errors import ParameterError
from .weyl import DiffOp

CASES = ("I", "II", "III", "V", "VIII", "IX")

_ct = DiffOp.coeff_term


@dataclass(frozen=True)
class CaseParams:
    """Parameters selecting one polynomial family.

    Validity: beta + k must be nonzero for every integer 0 <= k <= 2*nmax_hint + 2,
    which keeps all eigenvalues up to degree nmax_hint distinct and guards the
    gamma-type denominators appearing in the recurrences.  Case IX carries no
    kappa parameters; they are stored as 0.
    """

    case_id: str
    beta: Fraction
    kappa1: Fraction = Fraction(0)
    kappa2: Fraction = Fraction(0)
    nmax_hint: int = 8

    def __post_init__(self):
        if self.case_id not in CASES:
            raise ParameterError(
                f"unknown case {self.case_id!r}; supported cases: {', '.join(CASES)}"
            )
        for name in ("beta", "kappa1", "kappa2"):
            value = getattr(self, name)
            if not isinstance(value, (int, Fraction)):
                raise ParameterError(f"{name} must be an int or a Fraction, not {value!r}")
            object.__setattr__(self, name, Fraction(value))
        if self.nmax_hint < 0:
            raise ParameterError("nmax_hint must be nonnegative")
        bound = 2 * self.nmax_hint + 2
        if self.beta.denominator == 1 and -bound <= self.beta <= 0:
            raise ParameterError(
                f"beta = {self.beta} violates the rule beta + k != 0 for "
                f"0 <= k <= {bound} (fails at k = {-self.beta})"
            )
        if self.case_id in ("V", "VIII") and self.beta == 0:
            raise ParameterError(f"beta must be nonzero for case {self.case_id}")
        if self.case_id == "IX" and (self.kappa1 or self.kappa2):
            raise ParameterError("case IX takes no kappa parameters (pass 0)")


def alpha(case_id: str) -> int:
    """Coefficient of the quadratic part of L (read off its x^2 Dx^2 term)."""
    return 0 if case_id in ("V", "VIII") else 1


def eigenvalue(params: CaseParams, N: int) -> Fraction:
    """lambda_N = N((N-1)alpha + beta), the eigenvalue shared by level N."""
    return N * ((N - 1) * alpha(params.case_id) + params.beta)


def _nonzero(value: Fraction, name: str, context: str) -> Fraction:
    if value == 0:
        raise ParameterError(f"{context}: denominator {name} vanishes")
    return value


def _ratio(num: Fraction, factors: Sequence[tuple[str, Fraction]], context: str) -> Fraction:
    """num / prod(factors), every factor checked even when num is zero.

    A zero numerator over a vanishing factor is a 0/0 limit (beta = 1 at
    N = 1, where beta+2N-3 vanishes); taking it as zero gives a wrong table.
    """
    den = Fraction(1)
    for name, f in factors:
        den *= _nonzero(f, name, context)
    return num / den


# ---------------------------------------------------------------------------
# Operators
# ---------------------------------------------------------------------------


def operator_L(params: CaseParams) -> DiffOp:
    """The case's second-order operator with polynomial eigenfunctions."""
    b, k1, k2 = params.beta, params.kappa1, params.kappa2
    c = params.case_id
    if c == "I":
        return (
            _ct(X * X - X, 2, 0)
            + _ct(2 * X * Y, 1, 1)
            + _ct(Y * Y - Y, 0, 2)
            + _ct(b * X + k1 * ONE, 1, 0)
            + _ct(b * Y + k2 * ONE, 0, 1)
        )
    if c == "II":
        return (
            _ct(X * X, 2, 0)
            + _ct(2 * X * Y, 1, 1)
            + _ct(Y * Y - Y, 0, 2)
            + _ct(b * X + k1 * ONE, 1, 0)
            + _ct(b * Y + k2 * ONE, 0, 1)
        )
    if c == "III":
        return (
            _ct(X * X, 2, 0)
            + _ct(2 * X * Y, 1, 1)
            + _ct(Y * Y + X, 0, 2)
            + _ct(b * X + k1 * ONE, 1, 0)
            + _ct(b * Y + k2 * ONE, 0, 1)
        )
    if c == "V":
        return (
            _ct(2 * X, 1, 1)
            + _ct(Y, 0, 2)
            + _ct(b * X + k1 * ONE, 1, 0)
            + _ct(b * Y + k2 * ONE, 0, 1)
        )
    if c == "VIII":
        return (
            _ct(Y, 2, 0)
            + _ct(2 * ONE, 1, 1)
            + _ct(b * X + k1 * ONE, 1, 0)
            + _ct(b * Y + k2 * ONE, 0, 1)
        )
    # IX
    return (
        _ct(X * X - ONE, 2, 0)
        + _ct(2 * X * Y, 1, 1)
        + _ct(Y * Y - ONE, 0, 2)
        + _ct(b * X, 1, 0)
        + _ct(b * Y, 0, 1)
    )


def commuting_ops(params: CaseParams) -> tuple[DiffOp, ...]:
    """The case's commuting family ([L, I_k] = 0), in conventional order."""
    b, k1, k2 = params.beta, params.kappa1, params.kappa2
    c = params.case_id
    if c == "I":
        i1 = _ct(X * (ONE - X - Y), 2, 0) + _ct(k1 * (Y - ONE) - (b + k2) * X, 1, 0)
        i2 = _ct(Y * (ONE - X - Y), 0, 2) + _ct(k2 * (X - ONE) - (b + k1) * Y, 0, 1)
        i3 = (
            _ct(X * Y, 2, 0)
            + _ct(-2 * X * Y, 1, 1)
            + _ct(X * Y, 0, 2)
            + _ct(k2 * X - k1 * Y, 1, 0)
            + _ct(-(k2 * X - k1 * Y), 0, 1)
        )
        return (i1, i2, i3)
    if c == "II":
        i1 = _ct(X * X, 2, 0) + _ct((b + k2) * X + k1 * (ONE - Y), 1, 0)
        i2 = _ct(X * Y, 0, 2) + _ct(k1 * Y - k2 * X, 0, 1)
        return (i1, i2)
    if c == "III":
        i1 = (
            _ct(2 * X * X, 1, 1)
            + _ct(X * Y, 0, 2)
            + _ct(k2 * X - k1 * Y, 1, 0)
            + _ct(b * X + k1 * ONE, 0, 1)
        )
        i2 = _ct(X * X, 0, 2) + _ct(k2 * X - k1 * Y, 0, 1)
        return (i1, i2)
    if c == "V":
        i1 = _ct(X * X, 2, 0) + _ct(k2 * X - k1 * Y, 1, 0)
        i2 = _ct(X, 0, 2) + _ct(b * X + k1 * ONE, 0, 1)
        return (i1, i2)
    if c == "VIII":
        i1 = _ct(ONE, 2, 0) + _ct(b * Y + k2 * ONE, 1, 0)
        i2 = (
            _ct(Y * Y - X, 2, 0)
            + _ct(2 * Y, 1, 1)
            + _ct(ONE, 0, 2)
            + _ct(k1 * Y - k2 * X, 1, 0)
            + _ct(b * X + k1 * ONE, 0, 1)
        )
        return (i1, i2)
    # IX
    w = ONE - X * X - Y * Y
    i1 = _ct(w, 2, 0) + _ct((1 - b) * X, 1, 0)
    i2 = _ct(w, 0, 2) + _ct((1 - b) * Y, 0, 1)
    i3 = _ct(X, 0, 1) + _ct(-1 * Y, 1, 0)
    i4 = _ct(2 * w, 1, 1) + _ct((1 - b) * Y, 1, 0) + _ct((1 - b) * X, 0, 1)
    return (i1, i2, i3, i4)


def raising_ops(params: CaseParams, N: int) -> tuple[DiffOp, DiffOp]:
    """The degree-N members (R+x, R+y) of the raising families.

    R+x maps P_{m,n} with m+n = N to P_{m+1,n}, and R+y to P_{m,n+1}.
    """
    if N < 0:
        raise ValueError("N must be nonnegative")
    b, k1, k2 = params.beta, params.kappa1, params.kappa2
    c = params.case_id
    ctx = f"case {c} raising operator at N={N}"
    if c in ("I", "II", "III", "IX"):
        g2n1 = _nonzero(b + 2 * N - 1, "beta+2N-1", ctx)
    if c in ("I", "II", "III"):
        g2n = _nonzero(b + 2 * N, "beta+2N", ctx)
        pref = 1 / (g2n * g2n1)
    if c == "I":
        rx = pref * (
            _ct((b + N - 1) * (g2n * X + (k1 - N) * ONE), 0, 0)
            + _ct(g2n * X * (X - ONE), 1, 0)
            + _ct(g2n * X * Y + (b + k1) * Y + k2 * (ONE - X), 0, 1)
            + _ct(Y * (X + Y - ONE), 0, 2)
        )
        ry = pref * (
            _ct((b + N - 1) * (g2n * Y + (k2 - N) * ONE), 0, 0)
            + _ct(g2n * Y * (Y - ONE), 0, 1)
            + _ct(g2n * X * Y + (b + k2) * X + k1 * (ONE - Y), 1, 0)
            + _ct(X * (X + Y - ONE), 2, 0)
        )
        return (rx, ry)
    if c == "II":
        rx = pref * (
            _ct((b + N - 1) * (g2n * X + k1 * ONE), 0, 0)
            + _ct(g2n * X * X, 1, 0)
            + _ct(g2n * X * Y + k1 * Y - k2 * X, 0, 1)
            + _ct(X * Y, 0, 2)
        )
        ry = pref * (
            _ct((b + N - 1) * (g2n * Y + (k2 - N) * ONE), 0, 0)
            + _ct(g2n * X * Y + (b + k2) * X + k1 * (ONE - Y), 1, 0)
            + _ct(g2n * Y * (Y - ONE), 0, 1)
            + _ct(X * X, 2, 0)
        )
        return (rx, ry)
    if c == "III":
        gn1 = b + N - 1
        gn = b + N
        rx = pref * (
            _ct(gn1 * (g2n * X + k1 * ONE), 0, 0)
            + _ct(g2n * X * X, 1, 0)
            + _ct(g2n * X * Y + k1 * Y - k2 * X, 0, 1)
            + _ct(-1 * X * X, 0, 2)
        )
        ry = pref * (
            _ct(gn1 * (g2n * Y + k2 * ONE), 0, 0)
            + _ct(g2n * X * Y + k2 * X - k1 * Y, 1, 0)
            + _ct(g2n * Y * Y + 2 * gn * X + k1 * ONE, 0, 1)
            + _ct(2 * X * X, 1, 1)
            + _ct(X * Y, 0, 2)
        )
        return (rx, ry)
    if c == "V":
        rx = (1 / b**2) * (
            _ct(X, 0, 2) + _ct(2 * b * X + k1 * ONE, 0, 1) + _ct(b * (b * X + k1 * ONE), 0, 0)
        )
        ry = (1 / b) * (
            _ct(X, 1, 0) + _ct(Y, 0, 1) + _ct(b * Y + (N + k2) * ONE, 0, 0)
        )
        return (rx, ry)
    if c == "VIII":
        rx = (
            _ct(X + (k1 / b) * ONE, 0, 0)
            + (1 / b) * _ct(ONE, 0, 1)
            + (1 / b**2) * (_ct(2 * b * Y + k2 * ONE, 1, 0) + _ct(ONE, 2, 0))
        )
        ry = _ct(Y + (k2 / b) * ONE, 0, 0) + (1 / b) * _ct(ONE, 1, 0)
        return (rx, ry)
    # IX
    rx = (1 / g2n1) * (
        _ct(X * Y, 0, 1) + _ct(X * X - ONE, 1, 0) + _ct((b + N - 1) * X, 0, 0)
    )
    ry = (1 / g2n1) * (
        _ct(X * Y, 1, 0) + _ct(Y * Y - ONE, 0, 1) + _ct((b + N - 1) * Y, 0, 0)
    )
    return (rx, ry)


def raising_commutator_rhs(
    params: CaseParams, N: int, axis: str, L: DiffOp, r: DiffOp
) -> DiffOp:
    """Right-hand side of the commutation relation satisfied by [L, r], where
    L and r are the audited L and R+axis(N)."""
    if axis not in ("x", "y"):
        raise ValueError(f"unknown axis {axis!r}")
    b = params.beta
    c = params.case_id
    lam = eigenvalue(params, N)
    dlam = eigenvalue(params, N + 1) - lam
    shifted = L - lam * DiffOp.identity()
    if c == "VIII":
        return b * r
    if c == "V":
        if axis == "x":
            return b * r
        return (1 / b) * shifted + b * r
    front = {
        ("I", "x"): 2 * X - ONE,
        ("I", "y"): 2 * Y - ONE,
        ("II", "x"): 2 * X,
        ("II", "y"): 2 * Y - ONE,
        ("III", "x"): 2 * X,
        ("III", "y"): 2 * Y,
        ("IX", "x"): 2 * X,
        ("IX", "y"): 2 * Y,
    }[(c, axis)]
    den = _nonzero(b + 2 * N - 1, "beta+2N-1", f"case {c} commutator rhs at N={N}")
    return (1 / den) * (DiffOp.from_poly(front) @ shifted) + dlam * r


def edge_operators(params: CaseParams) -> tuple[Optional[DiffOp], Optional[DiffOp]]:
    """One-variable restrictions of L on the n=0 and m=0 edges, where they exist.

    Case III has no right-edge reduction (its right-edge polynomials involve
    both variables) and case VIII no left-edge one.  Each operator returned
    satisfies op(P_edge) = lambda_k * P_edge with the case's eigenvalue.
    """
    b, k1, k2 = params.beta, params.kappa1, params.kappa2
    c = params.case_id
    if c == "I":
        lx = _ct(X * (X - ONE), 2, 0) + _ct(b * X + k1 * ONE, 1, 0)
        ly = _ct(Y * (Y - ONE), 0, 2) + _ct(b * Y + k2 * ONE, 0, 1)
        return (lx, ly)
    if c == "II":
        lx = _ct(X * X, 2, 0) + _ct(b * X + k1 * ONE, 1, 0)
        ly = _ct(Y * (Y - ONE), 0, 2) + _ct(b * Y + k2 * ONE, 0, 1)
        return (lx, ly)
    if c == "III":
        lx = _ct(X * X, 2, 0) + _ct(b * X + k1 * ONE, 1, 0)
        return (lx, None)
    if c == "V":
        lx = _ct(b * X + k1 * ONE, 1, 0)
        ly = _ct(Y, 0, 2) + _ct(b * Y + k2 * ONE, 0, 1)
        return (lx, ly)
    if c == "VIII":
        ly = _ct(b * Y + k2 * ONE, 0, 1)
        return (None, ly)
    # IX
    lx = _ct(X * X - ONE, 2, 0) + _ct(b * X, 1, 0)
    ly = _ct(Y * Y - ONE, 0, 2) + _ct(b * Y, 0, 1)
    return (lx, ly)


def edge_ladder(params: CaseParams, axis: str, k: int) -> Optional[DiffOp]:
    """One-variable ladder on an edge: maps P_{k,0} to P_{k+1,0} (axis x)
    or P_{0,k} to P_{0,k+1} (axis y); None where no reduction exists.

    The case II y-ladder is the restriction of R+y to the right edge, whose
    prefactor involves the edge index k (not its x-side counterpart).
    """
    if axis not in ("x", "y"):
        raise ValueError(f"unknown axis {axis!r}")
    b, k1, k2 = params.beta, params.kappa1, params.kappa2
    c = params.case_id
    ctx = f"case {c} edge ladder at k={k}"
    if c in ("I", "II", "III"):
        if c == "III" and axis == "y":
            return None
        g2k = _nonzero(b + 2 * k, "beta+2k", ctx)
        g2k1 = _nonzero(b + 2 * k - 1, "beta+2k-1", ctx)
        pref = 1 / (g2k * g2k1)
        if axis == "x":
            if c == "I":
                return pref * (
                    _ct((b + k - 1) * (g2k * X + (k1 - k) * ONE), 0, 0)
                    + _ct(g2k * X * (X - ONE), 1, 0)
                )
            return pref * (
                _ct((b + k - 1) * (g2k * X + k1 * ONE), 0, 0)
                + _ct(g2k * X * X, 1, 0)
            )
        return pref * (
            _ct((b + k - 1) * (g2k * Y + (k2 - k) * ONE), 0, 0)
            + _ct(g2k * Y * (Y - ONE), 0, 1)
        )
    if c == "V":
        if axis == "x":
            return _ct(X + (k1 / b) * ONE, 0, 0)
        return (1 / b) * (_ct(Y, 0, 1) + _ct(b * Y + (k + k2) * ONE, 0, 0))
    if c == "VIII":
        if axis == "x":
            return None
        return _ct(Y + (k2 / b) * ONE, 0, 0)
    # IX: restriction of the raising operators to the edges
    g2k1 = _nonzero(b + 2 * k - 1, "beta+2k-1", ctx)
    if axis == "x":
        return (1 / g2k1) * (_ct(X * X - ONE, 1, 0) + _ct((b + k - 1) * X, 0, 0))
    return (1 / g2k1) * (_ct(Y * Y - ONE, 0, 1) + _ct((b + k - 1) * Y, 0, 0))


# ---------------------------------------------------------------------------
# Three-level recurrences
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class RecurrenceStep:
    """One application of a three-level recurrence.

    P_target = lead * P_source + sum of c * P_(mm,nn) over tail.  The tail
    keeps every stencil point, including those whose coefficient
    evaluates to zero and those with out-of-range indices;
    triangle.stencil_sum, the one place the rule is enforced, raises
    StencilError when an out-of-range point carries a nonzero coefficient.
    """

    target: tuple[int, int]
    source: tuple[int, int]
    lead: BivariatePoly
    tail: tuple[tuple[int, int, Fraction], ...]


def recurrence_step(params: CaseParams, axis: str, m: int, n: int) -> RecurrenceStep:
    """The recurrence producing P_{m+1,n} (axis x) or P_{m,n+1} (axis y)
    from levels m+n and m+n-1."""
    if axis not in ("x", "y"):
        raise ValueError(f"unknown axis {axis!r}")
    b, k1, k2 = params.beta, params.kappa1, params.kappa2
    c = params.case_id
    N = m + n
    ctx = f"case {c} recurrence at (m,n)=({m},{n})"
    target = (m + 1, n) if axis == "x" else (m, n + 1)
    lead = X if axis == "x" else Y

    if c in ("I", "II", "III"):
        A = (("beta+2N", b + 2 * N), ("beta+2N-2", b + 2 * N - 2))
        B = (
            ("beta+2N-1", b + 2 * N - 1),
            ("beta+2N-2", b + 2 * N - 2),
            ("beta+2N-2", b + 2 * N - 2),
            ("beta+2N-3", b + 2 * N - 3),
        )

        def ra(num):
            return _ratio(num, A, ctx)

        def rb(num):
            return _ratio(num, B, ctx)

    if c == "I":
        if axis == "x":
            tail = (
                (m, n, ra((b + 2 * n - 2) * (k1 - 2 * m) - 2 * m * (m + 1))),
                (m + 1, n - 1, ra(2 * n * (n - k2 - 1))),
                (m - 1, n, rb(m * (b + m + 2 * n - 2) * (k1 - m + 1) * (b + k1 + m + 2 * n - 1))),
                (m, n - 1, rb(n * (k2 - n + 1) * ((b + 2 * n - 3) * (k1 - 2 * m) - 2 * m * (m + 1)))),
                (m + 1, n - 2, rb(-n * (n - 1) * (k2 - n + 1) * (k2 - n + 2))),
            )
        else:
            tail = (
                (m, n, ra((b + 2 * m - 2) * (k2 - 2 * n) - 2 * n * (n + 1))),
                (m - 1, n + 1, ra(2 * m * (m - k1 - 1))),
                (m, n - 1, rb(n * (b + 2 * m + n - 2) * (k2 - n + 1) * (b + k2 + 2 * m + n - 1))),
                (m - 1, n, rb(m * (k1 - m + 1) * ((b + 2 * m - 3) * (k2 - 2 * n) - 2 * n * (n + 1)))),
                (m - 2, n + 1, rb(-m * (m - 1) * (k1 - m + 1) * (k1 - m + 2))),
            )
        return RecurrenceStep(target, (m, n), lead, tail)

    if c == "II":
        if axis == "x":
            tail = (
                (m, n, ra(k1 * (b + 2 * n - 2))),
                (m + 1, n - 1, ra(2 * n * (n - k2 - 1))),
                (m - 1, n, rb(m * k1 * k1 * (b + m + 2 * n - 2))),
                (m, n - 1, rb(n * k1 * (b + 2 * n - 3) * (k2 - n + 1))),
                (m + 1, n - 2, rb(-n * (n - 1) * (k2 - n + 1) * (k2 - n + 2))),
            )
        else:
            tail = (
                (m, n, ra((b + 2 * m - 2) * (k2 - 2 * n) - 2 * n * (n + 1))),
                (m - 1, n + 1, ra(-2 * m * k1)),
                (m, n - 1, rb(n * (b + 2 * m + n - 2) * (k2 - n + 1) * (b + k2 + 2 * m + n - 1))),
                (m - 1, n, rb(m * k1 * ((b + 2 * m - 3) * (k2 - 2 * n) - 2 * n * (n + 1)))),
                (m - 2, n + 1, rb(-m * (m - 1) * k1 * k1)),
            )
        return RecurrenceStep(target, (m, n), lead, tail)

    if c == "III":
        if axis == "x":
            tail = (
                (m, n, ra(k1 * (b + 2 * n - 2))),
                (m + 1, n - 1, ra(-2 * n * k2)),
                (m + 2, n - 2, ra(-2 * n * (n - 1))),
                (m - 1, n, rb(m * k1 * k1 * (b + m + 2 * n - 2))),
                (m, n - 1, rb(n * k1 * k2 * (b + 2 * n - 3))),
                (m + 1, n - 2, rb(n * (n - 1) * (k1 * (b + 2 * n - 4) - k2 * k2))),
                (m + 2, n - 3, rb(-2 * n * (n - 1) * (n - 2) * k2)),
                (m + 3, n - 4, rb(-n * (n - 1) * (n - 2) * (n - 3))),
            )
        else:
            tail = (
                (m, n, ra(k2 * (b + 2 * m - 2))),
                (m + 1, n - 1, ra(2 * n * (b + 2 * m + n - 1))),
                (m - 1, n + 1, ra(-2 * m * k1)),
                (m + 2, n - 3, rb(n * (n - 1) * (n - 2) * (2 * b + 4 * m + 3 * n - 3))),
                # the beta coefficient here is 3, pinned by oracle equivalence
                (m + 1, n - 2, rb(n * (n - 1) * (3 * b + 6 * m + 4 * n - 5) * k2)),
                (m, n - 1, rb(n * ((b + 2 * m + n - 2) * (k2 * k2 - k1 * (b + 3 * n - 3)) + k1 * (1 - n * n)))),
                (m - 1, n, rb(m * k1 * k2 * (b + 2 * m - 3))),
                (m - 2, n + 1, rb(-m * (m - 1) * k1 * k1)),
            )
        return RecurrenceStep(target, (m, n), lead, tail)

    if c == "V":
        if axis == "x":
            lead = X + (k1 / b) * ONE
            tail = (
                (m + 1, n - 1, Fraction(2 * n) / b),
                (m + 1, n - 2, -n * (n - 1) / b**2),
                (m, n - 1, -n * k1 / b**2),
            )
        else:
            lead = Y + ((k2 + 2 * N) / b) * ONE
            tail = (
                (m, n - 1, -n * (k2 + 2 * m + n - 1) / b**2),
                (m - 1, n, -m * k1 / b**2),
            )
        return RecurrenceStep(target, (m, n), lead, tail)

    if c == "VIII":
        if axis == "x":
            lead = X + (k1 / b) * ONE
            tail = (
                (m - 1, n + 1, Fraction(2 * m) / b),
                (m, n - 1, Fraction(n) / b),
                (m - 1, n, -m * k2 / b**2),
            )
        else:
            lead = Y + (k2 / b) * ONE
            tail = ((m - 1, n, Fraction(m) / b),)
        return RecurrenceStep(target, (m, n), lead, tail)

    # IX
    C = (("beta+2N-1", b + 2 * N - 1), ("beta+2N-3", b + 2 * N - 3))

    def rc(num):
        return _ratio(num, C, ctx)

    if axis == "x":
        tail = (
            (m + 1, n - 2, rc(Fraction(n * (n - 1)))),
            (m - 1, n, rc(-m * (b + m + 2 * n - 2))),
        )
    else:
        tail = (
            (m - 2, n + 1, rc(Fraction(m * (m - 1)))),
            (m, n - 1, rc(-n * (b + 2 * m + n - 2))),
        )
    return RecurrenceStep(target, (m, n), lead, tail)


# Allowed in-range access offsets (reference minus target) of each recurrence,
# matching the bullet patterns of the stencil diagrams.
_S6 = frozenset({(-1, 0), (0, -1), (-2, 0), (-1, -1), (0, -2)})
_S9 = frozenset(
    {(-1, 0), (0, -1), (1, -2), (-2, 0), (-1, -1), (0, -2), (1, -3), (2, -4)}
)
STENCILS: dict[tuple[str, str], frozenset[tuple[int, int]]] = {
    ("I", "x"): _S6,
    ("I", "y"): _S6,
    ("II", "x"): _S6,
    ("II", "y"): _S6,
    ("III", "x"): _S9,
    ("III", "y"): _S9,
    ("V", "x"): frozenset({(-1, 0), (0, -1), (-1, -1), (0, -2)}),
    ("V", "y"): frozenset({(0, -1), (-1, -1), (0, -2)}),
    ("VIII", "x"): frozenset({(-1, 0), (-2, 1), (-1, -1), (-2, 0)}),
    ("VIII", "y"): frozenset({(0, -1), (-1, -1)}),
    ("IX", "x"): frozenset({(-1, 0), (-2, 0), (0, -2)}),
    ("IX", "y"): frozenset({(0, -1), (-2, 0), (0, -2)}),
}


def seed_polys(params: CaseParams) -> dict[tuple[int, int], BivariatePoly]:
    """P_{0,0}, P_{1,0}, P_{0,1}: the monic degree <= 1 eigenfunctions."""
    b, k1, k2 = params.beta, params.kappa1, params.kappa2
    return {
        (0, 0): ONE,
        (1, 0): X + (k1 / b) * ONE,
        (0, 1): Y + (k2 / b) * ONE,
    }


# ---------------------------------------------------------------------------
# In-level action formulas of the commuting operators
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ActionRelation:
    """op P_{m,n} + self_coeff(m,n) P_{m,n} = sum c * P_{m+dm,n+dn}.

    The neighbor offsets keep the level m+n fixed; coefficients vanish
    whenever a neighbor would leave the triangle.  triangle.stencil_sum
    enforces that rule for the transfer builder and the action-formula
    audit alike.
    """

    name: str
    op: DiffOp
    self_coeff: Callable[[int, int], Fraction]
    neighbors: Callable[[int, int], tuple[tuple[int, int, Fraction], ...]]


def action_relations(
    params: CaseParams, ops: Sequence[DiffOp]
) -> tuple[ActionRelation, ...]:
    """The in-level shift relations of the commuting operators ops (the
    catalog's commuting_ops, or an audited variant of them)."""
    b, k1, k2 = params.beta, params.kappa1, params.kappa2
    c = params.case_id
    zero = Fraction(0)

    if c == "I":
        return (
            ActionRelation(
                "I1", ops[0],
                lambda m, n: m * (b + k2 + m - 1),
                lambda m, n: ((-1, 1, m * (k1 - m + 1)),),
            ),
            ActionRelation(
                "I2", ops[1],
                lambda m, n: n * (b + k1 + n - 1),
                lambda m, n: ((1, -1, n * (k2 - n + 1)),),
            ),
        )
    if c == "II":
        return (
            ActionRelation(
                "I1", ops[0],
                lambda m, n: -m * (b + k2 + m - 1),
                lambda m, n: ((-1, 1, -m * k1),),
            ),
            ActionRelation(
                "I2", ops[1],
                lambda m, n: -n * k1,
                lambda m, n: ((1, -1, -n * (k2 - n + 1)),),
            ),
        )
    if c == "III":
        return (
            ActionRelation(
                "I1", ops[0],
                lambda m, n: -m * k2,
                lambda m, n: ((-1, 1, -m * k1), (1, -1, n * (b + 2 * m + n - 1))),
            ),
            ActionRelation(
                "I2", ops[1],
                lambda m, n: n * k1,
                lambda m, n: ((1, -1, n * k2), (2, -2, Fraction(n * (n - 1)))),
            ),
        )
    if c == "V":
        return (
            ActionRelation(
                "I1", ops[0],
                lambda m, n: -m * (k2 + m - 1),
                lambda m, n: ((-1, 1, -m * k1),),
            ),
            # I2 has no diagonal part: its top-degree action on x^m y^n
            # is the single shift n*b*x^(m+1)y^(n-1)
            ActionRelation(
                "I2", ops[1],
                lambda m, n: Fraction(0),
                lambda m, n: ((1, -1, n * b),),
            ),
        )
    if c == "VIII":
        return (
            ActionRelation(
                "I1", ops[0],
                lambda m, n: zero,
                lambda m, n: ((-1, 1, m * b),),
            ),
            ActionRelation(
                "I2", ops[1],
                lambda m, n: m * k2,
                lambda m, n: ((1, -1, n * b), (-1, 1, m * k1), (-2, 2, Fraction(m * (m - 1)))),
            ),
        )
    # IX
    return (
        ActionRelation(
            "I1", ops[0],
            lambda m, n: m * (b + m - 2),
            lambda m, n: ((-2, 2, Fraction(-m * (m - 1))),),
        ),
        ActionRelation(
            "I2", ops[1],
            lambda m, n: n * (b + n - 2),
            lambda m, n: ((2, -2, Fraction(-n * (n - 1))),),
        ),
        ActionRelation(
            "I3", ops[2],
            lambda m, n: zero,
            lambda m, n: ((1, -1, Fraction(n)), (-1, 1, Fraction(-m))),
        ),
        ActionRelation(
            "I4", ops[3],
            lambda m, n: zero,
            lambda m, n: ((1, -1, (1 - b - 2 * m) * n), (-1, 1, (1 - b - 2 * n) * m)),
        ),
    )


def quadratic_relation_residuals(
    params: CaseParams, L: DiffOp, ops: Sequence[DiffOp]
) -> tuple[DiffOp, DiffOp]:
    """The two case IX quadratic relations of L and the commuting operators
    ops, each returned as a residual operator that must be the zero element
    of the Weyl algebra."""
    if params.case_id != "IX":
        raise ValueError("quadratic relations apply to case IX only")
    b = params.beta
    i1, i2, i3, i4 = ops
    first = i1 + i2 + (i3 @ i3) + L
    second = (
        2 * ((i1 @ i2) + (i2 @ i1))
        - (b * b - 4 * b - 1) * (i1 + i2)
        - (b - 1) * (b - 5) * L
        - (i4 @ i4)
    )
    return (first, second)


# ---------------------------------------------------------------------------
# Parameter sampling
# ---------------------------------------------------------------------------


def sample_params(case_id: str, rng: Random, nmax_hint: int = 8) -> CaseParams:
    """Draw a random valid parameter triple.

    beta is a positive non-integer rational, so every beta + k (k integer)
    is nonzero; the kappas are non-integer, which keeps all transfer-route
    division coefficients nonzero.
    """

    def non_integer(lo_num: int, hi_num: int) -> Fraction:
        den = rng.choice((2, 3, 4, 5, 7))
        num = rng.randrange(lo_num * den, hi_num * den + 1)
        while num % den == 0:
            num = rng.randrange(lo_num * den, hi_num * den + 1)
        return Fraction(num, den)

    beta = non_integer(1, 12)
    if case_id == "IX":
        return CaseParams("IX", beta, Fraction(0), Fraction(0), nmax_hint)
    return CaseParams(case_id, beta, non_integer(-9, 9), non_integer(-9, 9), nmax_hint)

"""Truncated bivariate power series in s, t over polynomial coefficients.

Series2 is exact modulo the truncation ideal: the truncated product of two
truncations equals the truncation of the exact product.  The generating
functions of cases V, VIII and IX are expanded here and their coefficient
tables are normalized back to the monic eigenfunctions.
"""

from __future__ import annotations

from fractions import Fraction
from math import factorial
from typing import Mapping, Union

from .algebra import ONE, X, Y, BivariatePoly, Scalar, add_terms, rising_factorial, term_order
from .catalog import CaseParams
from .errors import ParameterError


class Series2:
    """Polynomial-coefficient power series in s, t, truncated in total degree."""

    __slots__ = ("order", "_coeffs")

    def __init__(
        self,
        order: int,
        coeffs: Mapping[tuple[int, int], BivariatePoly] | None = None,
    ):
        if order < 0:
            raise ValueError("truncation order must be nonnegative")
        self.order = order
        clean: dict[tuple[int, int], BivariatePoly] = {}
        if coeffs:
            for (a, b), p in coeffs.items():
                if a < 0 or b < 0:
                    raise ValueError(f"negative series exponent ({a}, {b})")
                if a + b > order:
                    raise ValueError(
                        f"coefficient at ({a}, {b}) lies beyond truncation order {order}"
                    )
                if not p.is_zero():
                    clean[(a, b)] = p
        self._coeffs = clean

    # -- constructors ------------------------------------------------------

    @classmethod
    def zero(cls, order: int) -> "Series2":
        return cls(order)

    @classmethod
    def one(cls, order: int) -> "Series2":
        return cls(order, {(0, 0): ONE})

    @classmethod
    def term(cls, order: int, a: int, b: int, p: BivariatePoly) -> "Series2":
        return cls(order, {(a, b): p})

    # -- inspection ----------------------------------------------------------

    def coefficient(self, a: int, b: int) -> BivariatePoly:
        return self._coeffs.get((a, b), BivariatePoly.zero())

    def items(self):
        return iter(sorted(self._coeffs.items(), key=term_order))

    def is_zero(self) -> bool:
        return not self._coeffs

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Series2):
            return NotImplemented
        return self.order == other.order and self._coeffs == other._coeffs

    def truncated(self, order: int) -> "Series2":
        if order > self.order:
            raise ValueError(
                f"cannot extend a truncation from order {self.order} to {order}"
            )
        return _truncation(order, self._coeffs)

    # -- ring operations -------------------------------------------------------

    def _match(self, other: "Series2") -> None:
        if self.order != other.order:
            raise ValueError(
                f"truncation order mismatch: {self.order} vs {other.order}"
            )

    def __add__(self, other: "Series2") -> "Series2":
        if not isinstance(other, Series2):
            return NotImplemented
        self._match(other)
        return Series2(self.order, add_terms(self._coeffs, other._coeffs))

    def __neg__(self) -> "Series2":
        return Series2(self.order, {k: -p for k, p in self._coeffs.items()})

    def __sub__(self, other: "Series2") -> "Series2":
        return self + (-other)

    def __mul__(
        self, other: Union["Series2", BivariatePoly, Scalar]
    ) -> "Series2":
        if isinstance(other, Series2):
            self._match(other)
            out: dict[tuple[int, int], BivariatePoly] = {}
            for (a1, b1), p1 in self._coeffs.items():
                for (a2, b2), p2 in other._coeffs.items():
                    key = (a1 + a2, b1 + b2)
                    if key[0] + key[1] <= self.order:
                        q = out.get(key)
                        out[key] = p1 * p2 if q is None else q + p1 * p2
            return Series2(self.order, out)  # drops the sums that cancelled
        if isinstance(other, (BivariatePoly, int, Fraction)):
            return Series2(
                self.order, {k: p * other for k, p in self._coeffs.items()}
            )
        return NotImplemented

    def __rmul__(self, other: Union[BivariatePoly, Scalar]) -> "Series2":
        return self.__mul__(other)

    def exp(self) -> "Series2":
        """sum f^k / k! up to the truncation order; f must have no constant term."""
        if not self.coefficient(0, 0).is_zero():
            raise ValueError("exp requires a series with zero constant term")
        acc = Series2.one(self.order)
        power = Series2.one(self.order)
        for k in range(1, self.order + 1):
            power = power * self
            if power.is_zero():
                break
            acc = acc + power * Fraction(1, factorial(k))
        return acc

    def diff(self, var: str) -> "Series2":
        """d/ds or d/dt: shift-and-scale; the result truncates one order lower."""
        if var not in ("s", "t"):
            raise ValueError(f"unknown series variable {var!r}")
        if self.order == 0:
            raise ValueError("an order-0 truncation determines no derivative terms")
        out = {}
        for (a, b), p in self._coeffs.items():
            if var == "s" and a > 0:
                out[(a - 1, b)] = p * a
            elif var == "t" and b > 0:
                out[(a, b - 1)] = p * b
        return Series2(self.order - 1, out)

    def to_json(self) -> dict:
        return {
            "order": self.order,
            "coeffs": [
                {"a": a, "b": b, "terms": p.to_records()}
                for (a, b), p in self.items()
            ],
        }

    def __str__(self) -> str:
        if not self._coeffs:
            return "0"
        return " + ".join(
            f"({p})*s^{a}*t^{b}" for (a, b), p in self.items()
        )


def binomial_series(u: Series2, r: Fraction | int) -> Series2:
    """(1 + u)^r for a series u with zero constant term, truncated exactly.

    Computed incrementally: the k-th term is the previous one times
    u * (r - k + 1) / k, which is the generalized binomial coefficient.
    """
    if not u.coefficient(0, 0).is_zero():
        raise ValueError("binomial series requires a zero constant term")
    r = Fraction(r)
    acc = Series2.one(u.order)
    term = Series2.one(u.order)
    for k in range(1, u.order + 1):
        term = term * u * ((r - k + 1) / k)
        if term.is_zero():
            break
        acc = acc + term
    return acc


# ---------------------------------------------------------------------------
# Generating functions
# ---------------------------------------------------------------------------

GENFUN_CASES = ("V", "VIII", "IX")


def _truncation(
    order: int, terms: Mapping[tuple[int, int], BivariatePoly]
) -> Series2:
    # construct the order-truncation of a known series, dropping higher terms
    return Series2(
        order, {k: p for k, p in terms.items() if k[0] + k[1] <= order}
    )


def genfun(params: CaseParams, order: int) -> Series2:
    """Truncated generating function G(x, y, s, t) for cases V, VIII, IX.

    IX:   (1 - 2sx - 2ty + s^2 + t^2)^((1-beta)/2)
    V:    exp((beta^2 s x + (kappa1 s + beta t y)(beta - t)) / (beta - t)^2)
          * (1 - t/beta)^(-kappa2)
    VIII: exp((4 s^3 + 3(2 beta y + kappa2) s^2 + 6 beta s t
          + 6 beta((beta x + kappa1) s + (beta y + kappa2) t)) / (6 beta^2))
    """
    c = params.case_id
    if c not in GENFUN_CASES:
        raise ParameterError(
            f"no generating function is available for case {c}; "
            f"supported cases: {', '.join(GENFUN_CASES)}"
        )
    b, k1, k2 = params.beta, params.kappa1, params.kappa2
    if c == "IX":
        u = _truncation(
            order,
            {(1, 0): -2 * X, (0, 1): -2 * Y, (2, 0): ONE, (0, 2): ONE},
        )
        return binomial_series(u, (1 - b) / 2)
    if c == "V":
        # 1/(beta - t) as a truncated geometric series
        minus_t_over_b = _truncation(order, {(0, 1): BivariatePoly.constant(-1 / b)})
        inv = binomial_series(minus_t_over_b, -1) * Fraction(1, b)
        exponent = (
            _truncation(order, {(1, 0): b * b * X}) * inv * inv
            + _truncation(order, {(1, 0): k1 * ONE, (0, 1): b * Y}) * inv
        )
        return exponent.exp() * binomial_series(minus_t_over_b, -k2)
    # VIII
    exponent = _truncation(
        order,
        {
            (1, 0): (b * X + k1 * ONE) * (1 / b),
            (0, 1): (b * Y + k2 * ONE) * (1 / b),
            (1, 1): (1 / b) * ONE,
            (2, 0): (2 * b * Y + k2 * ONE) * (1 / (2 * b * b)),
            (3, 0): BivariatePoly.constant(Fraction(2, 3) / (b * b)),
        },
    )
    return exponent.exp()


def normalization(params: CaseParams, m: int, n: int) -> Fraction:
    """A_{m,n}: the factor relating the raw s^m t^n coefficient to the monic
    polynomial; 1 for cases V and VIII, 2^N ((beta-1)/2)_N for case IX."""
    if params.case_id != "IX":
        return Fraction(1)
    N = m + n
    return 2**N * rising_factorial((params.beta - 1) / 2, N)


def extract_polys(
    g: Series2, params: CaseParams
) -> dict[tuple[int, int], BivariatePoly]:
    """Read P_{m,n} = m! n! coeff(s^m t^n) / A_{m,n} out of the expansion.

    A non-monic result means the normalization is wrong for the case and is
    reported immediately rather than propagated.
    """
    table: dict[tuple[int, int], BivariatePoly] = {}
    for N in range(g.order + 1):
        for m in range(N, -1, -1):
            n = N - m
            A = normalization(params, m, n)
            if A == 0:
                raise ParameterError(
                    f"vanishing normalization at (m,n)=({m},{n}) for beta="
                    f"{params.beta}"
                )
            p = g.coefficient(m, n) * (Fraction(factorial(m) * factorial(n)) / A)
            if p.coefficient(m, n) != 1 or p.degree != N or any(
                i + j >= N for (i, j), _ in p.items() if (i, j) != (m, n)
            ):
                raise ParameterError(
                    f"extracted entry at (m,n)=({m},{n}) is not monic; "
                    "normalization mismatch"
                )
            table[(m, n)] = p
    return table


def genfun_derivative_residuals(
    params: CaseParams, order: int
) -> tuple[Series2, Series2]:
    """Residuals of the two case V differentiation identities, truncated at
    the given order; both must be identically zero.

      (beta-t)^2 dG/ds - (beta^2 x + kappa1 (beta-t)) G
      (beta-t)^2 dG/dt - 2s(beta-t) dG/ds - (beta^2 y + kappa2 (beta-t)
                                             - kappa1 s) G
    """
    if params.case_id != "V":
        raise ParameterError("the derivative identities belong to case V")
    b, k1, k2 = params.beta, params.kappa1, params.kappa2
    g_hi = genfun(params, order + 1)
    g = g_hi.truncated(order)
    dgs = g_hi.diff("s")
    dgt = g_hi.diff("t")
    bt = _truncation(order, {(0, 0): BivariatePoly.constant(b), (0, 1): -1 * ONE})
    bt2 = bt * bt
    first = bt2 * dgs - (_truncation(order, {(0, 0): b * b * X}) + bt * k1) * g
    second = (
        bt2 * dgt
        - _truncation(order, {(1, 0): 2 * ONE}) * bt * dgs
        - (
            _truncation(order, {(0, 0): b * b * Y})
            + bt * k2
            - _truncation(order, {(1, 0): k1 * ONE})
        )
        * g
    )
    return (first, second)

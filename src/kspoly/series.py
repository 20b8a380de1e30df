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

from .algebra import BivariatePoly, Scalar, Terms, drop_zeros, rising_factorial, signed_sum
from .catalog import CaseParams
from .errors import ParameterError


class Series2(Terms):
    """Polynomial-coefficient power series in s, t, truncated in total degree.

    A term (a, b, i, j) -> c stands for c s^a t^b x^i y^j, and ``order``
    bounds a + b.  Every result keeps its operands' order.
    """

    __slots__ = ("order",)

    FIELDS = ("a", "b", "i", "j")

    @staticmethod
    def _order(item: tuple[tuple[int, int, int, int], Fraction]) -> tuple[int, ...]:
        # by total degree in (s, t), then in (x, y); s before t, x before y
        (a, b, i, j), _ = item
        return (a + b, -a, i + j, -i)

    def __init__(self, order: int, terms: Mapping[tuple[int, ...], Scalar] | None = None):
        if order < 0:
            raise ValueError("truncation order must be nonnegative")
        super().__init__(terms)
        for a, b, _, _ in terms or ():
            if a + b > order:
                raise ValueError(f"term at s^{a} t^{b} lies beyond truncation order {order}")
        self.order = order

    def _wrap(self, num: dict, den: int = 1, order: int | None = None) -> "Series2":
        # internal: as Terms._wrap, at this series' order unless one is given
        out = super()._wrap(num, den)
        out.order = self.order if order is None else order
        return out

    # -- constructors ------------------------------------------------------

    @classmethod
    def zero(cls, order: int) -> "Series2":
        return cls(order)

    @classmethod
    def one(cls, order: int) -> "Series2":
        return cls(order, {(0, 0, 0, 0): 1})

    @classmethod
    def term(cls, order: int, a: int, b: int, p: BivariatePoly) -> "Series2":
        """p(x, y) s^a t^b: the way to lift a polynomial into a series."""
        return cls(order, {(a, b, i, j): c for (i, j), c in p.items()})

    @classmethod
    def from_records(cls, order: int, records: list[dict[str, object]]) -> "Series2":
        """Inverse of ``to_records`` at the given truncation order."""
        return cls(order, cls._record_terms(records))

    # -- inspection ----------------------------------------------------------

    def coefficients(self) -> dict[tuple[int, int], BivariatePoly]:
        """The nonzero polynomial coefficients, keyed by their (s, t) exponents."""
        num: dict[tuple[int, int], dict] = {}
        for (a, b, i, j), c in self._num.items():
            num.setdefault((a, b), {})[(i, j)] = c
        return {key: BivariatePoly._wrap(n, self._den) for key, n in num.items()}

    def coefficient(self, a: int, b: int) -> BivariatePoly:
        """The polynomial multiplying s^a t^b."""
        return self.coefficients().get((a, b), BivariatePoly.zero())

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Series2):
            return NotImplemented
        return self.order == other.order and Terms.__eq__(self, other)

    def truncated(self, order: int) -> "Series2":
        if order > self.order:
            raise ValueError(f"cannot extend a truncation from order {self.order} to {order}")
        num = {k: c for k, c in self._num.items() if k[0] + k[1] <= order}
        return self._wrap(num, self._den, order)

    # -- ring operations -------------------------------------------------------

    def _match(self, other: "Series2") -> None:
        if self.order != other.order:
            raise ValueError(f"truncation order mismatch: {self.order} vs {other.order}")

    def __add__(self, other: "Series2") -> "Series2":
        if not isinstance(other, Series2):
            return NotImplemented
        self._match(other)
        return Terms._add(self, other)

    def __mul__(self, other: Union["Series2", Scalar]) -> "Series2":
        if not isinstance(other, Series2):
            return Terms.__mul__(self, other)
        self._match(other)
        order = self.order
        out: dict[tuple[int, int, int, int], int] = {}
        for (a1, b1, i1, j1), c1 in self._num.items():
            for (a2, b2, i2, j2), c2 in other._num.items():
                if a1 + a2 + b1 + b2 <= order:
                    key = (a1 + a2, b1 + b2, i1 + i2, j1 + j2)
                    out[key] = out.get(key, 0) + c1 * c2
        return self._wrap(drop_zeros(out), self._den * other._den)

    def exp(self) -> "Series2":
        """sum f^k / k! up to the truncation order; f must have no constant term."""
        if not self.coefficient(0, 0).is_zero():
            raise ValueError("exp requires a series with zero constant term")
        acc = power = Series2.one(self.order)
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
        if var == "s":
            out = {(a - 1, b, i, j): c * a for (a, b, i, j), c in self._num.items() if a}
        else:
            out = {(a, b - 1, i, j): c * b for (a, b, i, j), c in self._num.items() if b}
        return self._wrap(out, self._den, self.order - 1)

    def __str__(self) -> str:
        return signed_sum(self.items(), "stxy")


def binomial_series(u: Series2, r: Fraction | int) -> Series2:
    """(1 + u)^r for a series u with zero constant term, truncated exactly.

    Computed incrementally: the k-th term is the previous one times
    u * (r - k + 1) / k, which is the generalized binomial coefficient.
    """
    if not u.coefficient(0, 0).is_zero():
        raise ValueError("binomial series requires a zero constant term")
    r = Fraction(r)
    acc = term = Series2.one(u.order)
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


def _truncation(order: int, terms: Mapping[tuple[int, ...], Scalar]) -> Series2:
    # construct the order-truncation of a known series, dropping higher terms
    return Series2(order, {k: c for k, c in terms.items() if k[0] + k[1] <= order})


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
        u = {(1, 0, 1, 0): -2, (0, 1, 0, 1): -2, (2, 0, 0, 0): 1, (0, 2, 0, 0): 1}
        return binomial_series(_truncation(order, u), (1 - b) / 2)
    if c == "V":
        # 1/(beta - t) as a truncated geometric series
        minus_t_over_b = _truncation(order, {(0, 1, 0, 0): -1 / b})
        inv = binomial_series(minus_t_over_b, -1) * Fraction(1, b)
        exponent = (
            _truncation(order, {(1, 0, 1, 0): b * b}) * inv * inv
            + _truncation(order, {(1, 0, 0, 0): k1, (0, 1, 0, 1): b}) * inv
        )
        return exponent.exp() * binomial_series(minus_t_over_b, -k2)
    # VIII
    exponent = {
        (1, 0, 1, 0): 1, (1, 0, 0, 0): k1 / b,
        (0, 1, 0, 1): 1, (0, 1, 0, 0): k2 / b,
        (1, 1, 0, 0): 1 / b,
        (2, 0, 0, 1): 1 / b, (2, 0, 0, 0): k2 / (2 * b * b),
        (3, 0, 0, 0): Fraction(2, 3) / (b * b),
    }
    return _truncation(order, exponent).exp()


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
    coeffs = g.coefficients()
    for N in range(g.order + 1):
        for m in range(N, -1, -1):
            n = N - m
            A = normalization(params, m, n)
            if A == 0:
                raise ParameterError(
                    f"vanishing normalization at (m,n)=({m},{n}) for beta="
                    f"{params.beta}"
                )
            p = coeffs.get((m, n), BivariatePoly.zero()) * (factorial(m) * factorial(n) / A)
            if not p.is_monic(m, n):
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
    bt = _truncation(order, {(0, 0, 0, 0): b, (0, 1, 0, 0): -1})
    bt2 = bt * bt
    first = bt2 * dgs - (_truncation(order, {(0, 0, 1, 0): b * b}) + bt * k1) * g
    second = (
        bt2 * dgt
        - _truncation(order, {(1, 0, 0, 0): 2}) * bt * dgs
        - (
            _truncation(order, {(0, 0, 0, 1): b * b})
            + bt * k2
            - _truncation(order, {(1, 0, 0, 0): k1})
        )
        * g
    )
    return (first, second)

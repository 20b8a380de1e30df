"""Truncated bivariate power series in s, t over polynomial coefficients.

Series2 is exact modulo the truncation ideal: the truncated product of two
truncations equals the truncation of the exact product.  The generating
functions of cases V, VIII and IX are expanded here and their coefficient
tables are normalized back to the monic eigenfunctions.
"""

from __future__ import annotations

from fractions import Fraction
from math import factorial, lcm
from typing import Callable, Iterable, Mapping, Union

from .algebra import (
    BivariatePoly, Scalar, Terms, _check_choice, _check_exact, _check_index, _sum,
    rising_factorial, signed_sum,
)
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
        _check_index("truncation order", order)
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

    def _grouped(self) -> dict[tuple[int, int], dict[tuple[int, int], int]]:
        # the stored numerators of each nonzero coefficient, over self._den
        num: dict[tuple[int, int], dict] = {}
        for (a, b, i, j), c in self._num.items():
            num.setdefault((a, b), {})[(i, j)] = c
        return num

    def coefficients(self) -> dict[tuple[int, int], BivariatePoly]:
        """The nonzero polynomial coefficients, keyed by their (s, t) exponents."""
        return {key: BivariatePoly._wrap(n, self._den) for key, n in self._grouped().items()}

    def coefficient(self, a: int, b: int) -> BivariatePoly:
        """The polynomial multiplying s^a t^b, read from its terms alone."""
        for e in (a, b):
            _check_index("series exponent", e)
        num = {(i, j): c for (s, t, i, j), c in self._num.items() if s == a and t == b}
        return BivariatePoly._wrap(num, self._den)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Series2):
            return NotImplemented
        return self.order == other.order and Terms.__eq__(self, other)

    def __hash__(self) -> int:
        return hash((self.order, Terms.__hash__(self)))

    def truncated(self, order: int) -> "Series2":
        _check_index("truncation order", order)
        if order > self.order:
            raise ValueError(f"cannot extend a truncation from order {self.order} to {order}")
        if order == self.order:
            return self
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
        return Terms.__add__(self, other)

    def __mul__(self, other: Union["Series2", Scalar]) -> "Series2":
        if not isinstance(other, Series2):
            return Terms.__mul__(self, other)
        self._match(other)
        # shifted copies of the longer operand, one per term of the shorter
        long, short = (self, other) if len(self) >= len(other) else (other, self)
        return self._wrap(*_shift_sum(_shifted_copies(short, long, _levels(long))))

    def exp(self) -> "Series2":
        """exp(f) up to the truncation order; f must have no constant term.
        g = exp(f) solves theta g = (theta f) g, theta = s d/ds + t d/dt, so
        its part of degree n is g_n = sum_k k f_k g_(n-k) / n."""
        return _theta_solve(self, lambda n, k: k)

    def diff(self, var: str) -> "Series2":
        """d/ds or d/dt: shift-and-scale; the result truncates one order lower."""
        _check_choice("series variable", var, ("s", "t"))
        if self.order == 0:
            raise ValueError("an order-0 truncation determines no derivative terms")
        if var == "s":
            out = {(a - 1, b, i, j): c * a for (a, b, i, j), c in self._num.items() if a}
        else:
            out = {(a, b - 1, i, j): c * b for (a, b, i, j), c in self._num.items() if b}
        return self._wrap(out, self._den, self.order - 1)

    def __str__(self) -> str:
        return signed_sum(self.lowest_terms(), "stxy")


def _levels(f: Series2) -> list[dict[tuple[int, int, int, int], int]]:
    # f's numerators grouped by total (s, t)-degree, one dict per degree 0..order
    levels: list[dict] = [{} for _ in range(f.order + 1)]
    for key, c in f._num.items():
        levels[key[0] + key[1]][key] = c
    return levels


def _shift_sum(
    parts: list[tuple[int, int, Iterable[dict], tuple[int, int, int, int]]]
) -> tuple[dict, int]:
    # the one product rule of Series2, as algebra._sum's key shift is the
    # polynomial product's: the sum of c * s^a t^b x^i y^j * num / den over
    # (c, den, nums, (a, b, i, j)) parts and each num of nums, every part
    # brought over one lcm of the denominators; the caller passes only the
    # nums whose shifted keys stay within its order, and its _wrap drops the
    # keys that cancelled and reduces the sum with one gcd
    den = lcm(*[d for _, d, _, _ in parts])
    out: dict[tuple[int, int, int, int], int] = {}
    get = out.get
    for c, d, nums, (da, db, di, dj) in parts:
        f = c * (den // d)
        for num in nums:
            for (a, b, i, j), x in num.items():
                key = (a + da, b + db, i + di, j + dj)
                out[key] = get(key, 0) + x * f
    return out, den


def _shifted_copies(m: Series2, f: Series2, levels: list[dict]) -> list[tuple]:
    # the _shift_sum parts of the truncated product m * f at m's order, f's
    # numerators by degree in levels: one copy of f per term of m, shifted by
    # its key, reading only the degrees that the shift keeps within the order
    order, den = m.order, m._den * f._den
    return [
        (c, den, levels[: order + 1 - a - b], (a, b, i, j))
        for (a, b, i, j), c in m._num.items()
    ]


def _theta_solve(u: Series2, weight: Callable[[int, int], int], q: int = 1) -> Series2:
    # the g with g_0 = 1 and n g_n = sum_{k=1..n} weight(n, k) / q u_k g_(n-k),
    # u_k and g_n the parts of total (s, t)-degree k and n, up to u's order
    # (J. C. P. Miller's recurrence, Knuth TAOCP Vol. 2, 4.7): each g_n is
    # one shifted accumulation over one denominator, reduced once, and the
    # parts, whose keys are disjoint, are joined by one plain sum
    levels = _levels(u)
    if levels[0]:
        raise ValueError("the series must have a zero constant term")
    g = [u._wrap({(0, 0, 0, 0): 1})]
    for n in range(1, u.order + 1):
        parts = []
        for k in range(1, n + 1):
            w, prev = weight(n, k), g[n - k]
            den = n * q * u._den * prev._den
            parts += [(w * c, den, (prev._num,), key) for key, c in levels[k].items()]
        g.append(u._wrap(*_shift_sum(parts)))
    return u._wrap(*_sum([(1, p._den, p._num, None) for p in g]))


def binomial_series(u: Series2, r: Fraction | int) -> Series2:
    """(1 + u)^r for a series u with zero constant term, truncated exactly.
    g = (1 + u)^r solves (1 + u) theta g = r (theta u) g, so its part of
    degree n is g_n = sum_k ((r + 1) k - n) u_k g_(n-k) / n."""
    _check_exact("binomial exponent", r)
    p, q = r.numerator, r.denominator
    # q ((r + 1) k - n), over q
    return _theta_solve(u, lambda n, k: (p + q) * k - q * n, q)


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
    _check_choice("genfun case", c, GENFUN_CASES)
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
    groups = g._grouped()
    for N in range(g.order + 1):
        for m in range(N, -1, -1):
            n = N - m
            A = normalization(params, m, n)
            if A == 0:
                raise ParameterError(
                    f"vanishing normalization at (m,n)=({m},{n}) for beta="
                    f"{params.beta}"
                )
            # scale the raw numerators first, so each entry is reduced once
            scale = factorial(m) * factorial(n) / A
            num = {key: c * scale.numerator for key, c in groups.get((m, n), {}).items()}
            p = BivariatePoly._wrap(num, g._den * scale.denominator)
            if not p.is_monic(m, n):
                raise ParameterError(
                    f"extracted entry at (m,n)=({m},{n}) is not monic; "
                    "normalization mismatch"
                )
            table[(m, n)] = p
    return table


def genfun_derivative_residuals(
    params: CaseParams, expansion: Series2
) -> tuple[Series2, Series2]:
    """Residuals of the two case V differentiation identities on expansion,
    genfun(params, order + 1), truncated at order; both must be identically
    zero.

      (beta-t)^2 dG/ds - (beta^2 x + kappa1 (beta-t)) G
      (beta-t)^2 dG/dt - 2s(beta-t) dG/ds - (beta^2 y + kappa2 (beta-t)
                                             - kappa1 s) G
    """
    _check_choice("derivative identity case", params.case_id, ("V",))
    # an order-0 expansion raises here, before any other work
    dgs, dgt = expansion.diff("s"), expansion.diff("t")
    b, k1, k2 = params.beta, params.kappa1, params.kappa2
    order = dgs.order
    g, gs, gt = _levels(expansion), _levels(dgs), _levels(dgt)
    # each multiplier as its terms, truncated at order; every residual is one
    # shifted accumulation of its products, reduced once
    # (beta - t)^2 = beta^2 - 2 beta t + t^2
    square = _truncation(order, {(0, 0, 0, 0): b * b, (0, 1, 0, 0): -2 * b, (0, 2, 0, 0): 1})
    # -(beta^2 x + kappa1 (beta - t)) = -beta^2 x - kappa1 beta + kappa1 t
    first_g = _truncation(order, {(0, 0, 1, 0): -b * b, (0, 0, 0, 0): -k1 * b, (0, 1, 0, 0): k1})
    # -2s(beta - t) = -2 beta s + 2 s t
    second_s = _truncation(order, {(1, 0, 0, 0): -2 * b, (1, 1, 0, 0): 2})
    # -(beta^2 y + kappa2 (beta - t) - kappa1 s)
    #   = -beta^2 y - kappa2 beta + kappa2 t + kappa1 s
    second_g = _truncation(
        order,
        {(0, 0, 0, 1): -b * b, (0, 0, 0, 0): -k2 * b, (0, 1, 0, 0): k2, (1, 0, 0, 0): k1}
    )
    first = _shift_sum(_shifted_copies(square, dgs, gs) + _shifted_copies(first_g, expansion, g))
    second = _shift_sum(
        _shifted_copies(square, dgt, gt)
        + _shifted_copies(second_s, dgs, gs)
        + _shifted_copies(second_g, expansion, g)
    )
    return (dgs._wrap(*first), dgs._wrap(*second))

"""Normal-ordered linear differential operators in two variables.

A term (i, j, k, l) -> c stands for c * x^i y^j d_x^k d_y^l, with every
multiplication operator to the left of every derivative.  The normal form
is unique, and so is the stored form (integer numerators over one reduced
common denominator), so two operators are equal exactly when their storage
is equal; all identity checks in this package reduce to that comparison.
"""

from __future__ import annotations

from fractions import Fraction
from math import comb, perm

from .algebra import BivariatePoly, Terms, drop_zeros, signed_sum

Key = tuple[int, int, int, int]


def _op_key(item: tuple[Key, Fraction]) -> tuple[int, ...]:
    # graded: derivative order, then coefficient degree, then lexicographic
    (i, j, k, l), _ = item
    return (k + l, i + j, i, j, k, l)


class DiffOp(Terms):
    """An element of the Weyl algebra in x, y with rational coefficients."""

    __slots__ = ()

    FIELDS = ("i", "j", "k", "l")
    _order = staticmethod(_op_key)

    # -- constructors ------------------------------------------------------

    @classmethod
    def identity(cls) -> "DiffOp":
        return cls({(0, 0, 0, 0): 1})

    @classmethod
    def from_poly(cls, p: BivariatePoly) -> "DiffOp":
        """The multiplication operator f -> p*f."""
        return cls._wrap({(i, j, 0, 0): c for (i, j), c in p._num.items()}, p._den)

    @classmethod
    def partial(cls, k: int, l: int) -> "DiffOp":
        """d_x^k d_y^l."""
        return cls({(0, 0, k, l): 1})

    @classmethod
    def coeff_term(cls, p: BivariatePoly, k: int, l: int) -> "DiffOp":
        """p(x, y) * d_x^k d_y^l, the building block for assembling operators."""
        return cls._wrap({(i, j, k, l): c for (i, j), c in p._num.items()}, p._den)

    @property
    def order(self) -> int:
        """Maximal derivative order; -1 for the zero operator."""
        if not self._num:
            return -1
        return max(k + l for (_, _, k, l) in self._num)

    __add__ = Terms._add

    # -- composition ---------------------------------------------------------

    def __matmul__(self, other: "DiffOp") -> "DiffOp":
        """Normal-ordered product self o other.

        Derivatives of the left factor pass the coefficients of the right one
        via the Leibniz rule:
          d_x^k (x^i .) = sum_r C(k, r) * i!/(i-r)! * x^(i-r) d_x^(k-r)
        and independently in y.
        """
        if not isinstance(other, DiffOp):
            return NotImplemented
        out: dict[Key, int] = {}
        for (i1, j1, k1, l1), c1 in self._num.items():
            for (i2, j2, k2, l2), c2 in other._num.items():
                base = c1 * c2
                for r in range(min(k1, i2) + 1):
                    cr = comb(k1, r) * perm(i2, r)
                    for s in range(min(l1, j2) + 1):
                        cs = comb(l1, s) * perm(j2, s)
                        key = (i1 + i2 - r, j1 + j2 - s, k1 - r + k2, l1 - s + l2)
                        out[key] = out.get(key, 0) + base * cr * cs
        return self._wrap(drop_zeros(out), self._den * other._den)

    def commutator(self, other: "DiffOp") -> "DiffOp":
        return (self @ other) - (other @ self)

    # -- action ---------------------------------------------------------------

    def apply(self, p: BivariatePoly) -> BivariatePoly:
        """Apply the operator to a polynomial, exactly."""
        p_terms = p._num.items()
        out: dict[tuple[int, int], int] = {}
        for (i, j, k, l), c in self._num.items():
            for (a, b), pc in p_terms:
                if a < k or b < l:
                    continue
                key = (a - k + i, b - l + j)
                out[key] = out.get(key, 0) + c * pc * (perm(a, k) * perm(b, l))
        return BivariatePoly._wrap(drop_zeros(out), self._den * p._den)

    def __str__(self) -> str:
        return signed_sum(self.items(), ("x", "y", "Dx", "Dy"), join="*")

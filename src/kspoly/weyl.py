"""Normal-ordered linear differential operators in two variables.

A term (i, j, k, l) -> c stands for c * x^i y^j d_x^k d_y^l, with every
multiplication operator to the left of every derivative.  The normal form
is unique, and so is the stored form (integer numerators over one reduced
common denominator), so two operators are equal exactly when their storage
is equal; all identity checks in this package reduce to that comparison.

Each operator memoises its action on monomials, read through its one
accessor ``DiffOp.images`` by ``algebra._sum`` (``apply`` is one ``_sum``,
and so is a ``BivariatePoly.combination`` with operator operands) and by the
oracle's back-substitution: ``images[(a, b)]`` is the image of x^a y^b as integer numerators over the
operator's denominator, computed on the first lookup.  The memo is a cache
of exact values, so results and their storage are those of the term-by-term
rule, and equality and hashing ignore it.

``GenericOp`` is the same algebra with coefficients in Q[beta, kappa1,
kappa2, N]: the parameters and the level index N are central, so an
identity that holds for every parameter triple and every N is one exact
composition over that ring.  Its product is the one Leibniz product: a
``DiffOp`` is composed as a ``GenericOp`` with no parameter in it.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from math import comb, perm
from typing import TYPE_CHECKING, Optional, TypeVar

from .algebra import BivariatePoly, Scalar, Terms, _check_exact, _sum, signed_sum

if TYPE_CHECKING:
    from .catalog import CaseParams

Key = tuple[int, int, int, int]


@lru_cache(maxsize=None)
def leibniz(k: int, l: int, i: int, j: int) -> tuple[tuple[int, int, int], ...]:
    """d_x^k d_y^l o x^i y^j in normal order, as (r, s, w) triples: the term
    w * x^(i-r) y^(j-s) d_x^(k-r) d_y^(l-s), by the Leibniz rule
      d_x^k (x^i .) = sum_r C(k, r) * i!/(i-r)! * x^(i-r) d_x^(k-r)
    and independently in y."""
    return tuple(
        (r, s, comb(k, r) * perm(i, r) * comb(l, s) * perm(j, s))
        for r in range(min(k, i) + 1)
        for s in range(min(l, j) + 1)
    )


def _op_key(item: tuple[Key, Fraction]) -> tuple[int, ...]:
    # graded: derivative order, then coefficient degree, then lexicographic
    (i, j, k, l), _ = item
    return (k + l, i + j, i, j, k, l)


class _Images(dict):
    """(a, b) -> the image of x^a y^b under the operator whose terms are
    ``num``, computed by ``DiffOp._image`` on first lookup.  It holds the
    terms, not the operator, so the two form no reference cycle."""

    __slots__ = ("_num",)

    def __init__(self, num: dict[Key, int]):
        self._num = num

    def __missing__(self, mono: tuple[int, int]) -> tuple[tuple[tuple[int, int], int], ...]:
        image = self[mono] = DiffOp._image(self._num, *mono)
        return image


class DiffOp(Terms):
    """An element of the Weyl algebra in x, y with rational coefficients."""

    __slots__ = ("_images",)  # the memo behind images, set on first use

    FIELDS = ("i", "j", "k", "l")
    _order = staticmethod(_op_key)

    # -- constructors ------------------------------------------------------

    @classmethod
    def identity(cls) -> "DiffOp":
        return cls({(0, 0, 0, 0): 1})

    @classmethod
    def partial(cls, k: int, l: int) -> "DiffOp":
        """d_x^k d_y^l."""
        return cls({(0, 0, k, l): 1})

    @property
    def order(self) -> int:
        """Maximal derivative order; -1 for the zero operator."""
        if not self._num:
            return -1
        return max(k + l for (_, _, k, l) in self._num)

    __add__ = Terms.__add__  # see Terms.__add__

    # -- composition ---------------------------------------------------------

    def __matmul__(self, other: "DiffOp") -> "DiffOp":
        """Normal-ordered product self o other: the ``GenericOp`` product of
        the two operators with every parameter exponent 0, read back."""
        if not isinstance(other, DiffOp):
            return NotImplemented
        tail = (0, 0, 0, 0)
        a = GenericOp._wrap({key + tail: c for key, c in self._num.items()}, self._den)
        b = GenericOp._wrap({key + tail: c for key, c in other._num.items()}, other._den)
        product = a @ b
        return DiffOp._wrap({key[:4]: c for key, c in product._num.items()}, product._den)

    def commutator(self, other: "DiffOp") -> "DiffOp":
        return (self @ other) - (other @ self)

    # -- action ---------------------------------------------------------------

    @property
    def images(self) -> _Images:
        """The memo: ``images[(a, b)]`` is the operator applied to x^a y^b."""
        try:
            return self._images
        except AttributeError:  # _wrap and __init__ leave the slot unset
            images = self._images = _Images(self._num)
            return images

    def apply(self, p: BivariatePoly) -> BivariatePoly:
        """Apply the operator to a polynomial, exactly: each term pc * x^a y^b
        of p adds pc times the memoised image of x^a y^b, in one ``_sum``."""
        return BivariatePoly._wrap(*_sum([(1, self._den * p._den, p._num, self.images)]))

    @staticmethod
    def _image(num: dict[Key, int], a: int, b: int) -> tuple[tuple[tuple[int, int], int], ...]:
        """The operator with term numerators ``num`` applied to x^a y^b, as
        nonzero integer numerators over its denominator:  x^i y^j d_x^k d_y^l
        x^a y^b = a!/(a-k)! b!/(b-l)! x^(a-k+i) y^(b-l+j), with terms sharing
        the shift (i-k, j-l) summed."""
        out: dict[tuple[int, int], int] = {}
        for (i, j, k, l), c in num.items():
            if a < k or b < l:
                continue
            key = (a - k + i, b - l + j)
            out[key] = out.get(key, 0) + c * (perm(a, k) * perm(b, l))
        return tuple((key, w) for key, w in out.items() if w)

    def __str__(self) -> str:
        return signed_sum(self.lowest_terms(), ("x", "y", "Dx", "Dy"), join="*")


GenericKey = tuple[int, int, int, int, int, int, int, int]


def _generic_key(item: tuple[GenericKey, Fraction]) -> tuple[int, ...]:
    # as _op_key, then the exponents of beta, kappa1, kappa2 and N
    (i, j, k, l, p, q, r, s), _ = item
    return (k + l, i + j, i, j, k, l, p + q + r + s, p, q, r, s)


class GenericOp(Terms):
    """A Weyl-algebra element with coefficients in Q[beta, kappa1, kappa2, N].

    The term (i, j, k, l, p, q, r, s) -> c stands for
    c * x^i y^j beta^p kappa1^q kappa2^r N^s d_x^k d_y^l.  The parameters and
    N are central, so composition runs the Weyl product rule on the first
    four indices and adds the last four; ``at`` specialises to a DiffOp.
    """

    __slots__ = ("_hash",)  # Terms.__hash__, memoised on first use

    FIELDS = ("i", "j", "k", "l", "p", "q", "r", "s")
    _order = staticmethod(_generic_key)

    def __hash__(self) -> int:
        # identity_residuals hashes the same operators on every cache hit
        try:
            return self._hash
        except AttributeError:  # _wrap and __init__ leave the slot unset
            value = self._hash = Terms.__hash__(self)
            return value

    @classmethod
    def generator(cls, index: int) -> "GenericOp":
        """The symbol whose key has a 1 at ``index`` of FIELDS (x, y, d_x,
        d_y, beta, kappa1, kappa2, N for index 0..7)."""
        return cls._wrap({tuple(int(f == index) for f in range(8)): 1})

    def __matmul__(self, other: "GenericOp") -> "GenericOp":
        """Normal-ordered product self o other, by ``leibniz``."""
        if not isinstance(other, GenericOp):
            return NotImplemented
        out: dict[GenericKey, int] = {}
        get = out.get
        for (i1, j1, k1, l1, p1, q1, r1, s1), c1 in self._num.items():
            for (i2, j2, k2, l2, p2, q2, r2, s2), c2 in other._num.items():
                base = c1 * c2
                p, q, r, s = p1 + p2, q1 + q2, r1 + r2, s1 + s2
                for dr, ds, w in leibniz(k1, l1, i2, j2):
                    key = (i1 + i2 - dr, j1 + j2 - ds, k1 - dr + k2, l1 - ds + l2, p, q, r, s)
                    out[key] = get(key, 0) + base * w
        return self._wrap(out, self._den * other._den)

    commutator = DiffOp.commutator

    def at(self, params: "CaseParams", N: Optional[Scalar] = None) -> DiffOp:
        """The DiffOp at one parameter triple and, for an operator with N in
        its coefficients, one value of N.  A value n/d whose highest exponent
        here is top enters its e-th power as n^e d^(top-e) over d^top, so
        the terms sum as integers over one denominator."""
        if N is not None:
            _check_exact("N", N)
        den = self._den
        powers = []
        tops = [max(column) for column in zip(*self._num)][4:] or [0] * 4
        for top, v in zip(tops, (params.beta, params.kappa1, params.kappa2, N)):
            if top and v is None:
                raise ValueError("the operator depends on N: pass a value of N")
            n, d = (v or 0).as_integer_ratio()
            powers.append([n**e * d ** (top - e) for e in range(top + 1)])
            den *= d**top
        bs, k1s, k2s, ns = powers
        out: dict[Key, int] = {}
        get = out.get
        for (i, j, k, l, p, q, r, s), c in self._num.items():
            key = (i, j, k, l)
            out[key] = get(key, 0) + c * bs[p] * k1s[q] * k2s[r] * ns[s]
        return DiffOp._wrap(out, den)

    def __str__(self) -> str:
        symbols = ("x", "y", "Dx", "Dy", "beta", "kappa1", "kappa2", "N")
        return signed_sum(self.lowest_terms(), symbols, join="*")


# an operator over either coefficient ring
Op = TypeVar("Op", DiffOp, GenericOp)

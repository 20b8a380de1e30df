"""Exact rational scalars and sparse bivariate polynomials.

Every coefficient in this package is exact: a ``fractions.Fraction`` in
lowest terms at the API, whose ``str()`` round-trips through the "p/q" wire
format used by the exporters.  The sparse kernel ``Terms`` stores integer
numerators over one common denominator, so its arithmetic runs on ints and
reduces each result with one gcd (fraction-free, after Bareiss 1968).
"""

from __future__ import annotations

import re
from fractions import Fraction
from math import gcd, lcm, perm
from typing import Callable, Iterable, Iterator, Mapping, Sequence, Union

Scalar = Union[Fraction, int]

_RATIONAL_RE = re.compile(r"^[+-]?\d+(?:/\d+)?$")

def parse_rational(text: str) -> Fraction:
    """Parse "p" or "p/q". Decimals and non-strings are rejected: exactness end to end."""
    s = text.strip() if isinstance(text, str) else ""
    if not _RATIONAL_RE.match(s):
        raise ValueError(f"not an exact rational: {text!r} (use 'p' or 'p/q')")
    try:
        return Fraction(s)
    except ZeroDivisionError:
        raise ValueError(f"zero denominator in rational {text!r}") from None


def format_rational(q: Scalar) -> str:
    """Inverse of parse_rational: "3", "-2/9", ..."""
    return str(Fraction(q))


def rising_factorial(z: Scalar, n: int) -> Fraction:
    """z(z+1)...(z+n-1); the empty product (n=0) is 1."""
    if n < 0:
        raise ValueError("rising factorial order must be nonnegative")
    out = Fraction(1)
    z = Fraction(z)
    for i in range(n):
        out *= z + i
    return out


def term_order(item: tuple[tuple[int, int], object]) -> tuple[int, int]:
    """Canonical order of (i, j) terms: total degree ascending, then
    x-exponent descending."""
    (i, j), _ = item
    return (i + j, -i)


def add_terms(a: Mapping, b: Mapping) -> dict:
    """Sparse sum of two maps of nonzero numerators; a key whose sum vanishes
    is dropped."""
    out = dict(a)
    for key, c in b.items():
        s = out.get(key)
        if s is None:
            out[key] = c
        else:
            s = s + c
            if s:
                out[key] = s
            else:
                del out[key]
    return out


def _scaled(num: dict, s: int) -> dict:
    return num if s == 1 else {key: c * s for key, c in num.items()}


def drop_zeros(num: dict) -> dict:
    return {key: c for key, c in num.items() if c}


def signed_sum(
    items: Iterable[tuple[tuple[int, ...], Fraction]],
    symbols: Sequence[str],
    coeff: Callable[[Fraction], str] = str,
    times: str = "*",
    join: str = "",
    power: str = "{}^{}",
) -> str:
    """Display terms as "a - b + c" in the given order; "0" when empty.

    A term is its absolute coefficient (written by ``coeff``, left out when
    it is 1 and a monomial follows) and the product of ``symbols`` raised to
    the key's exponents, factors joined by ``join``.
    """
    text = ""
    for key, c in items:
        mono = join.join(
            s if e == 1 else power.format(s, e) for s, e in zip(symbols, key) if e
        )
        a = abs(c)
        if not mono:
            body = coeff(a)
        elif a == 1:
            body = mono
        else:
            body = coeff(a) + times + mono
        if text:
            text += (" - " if c < 0 else " + ") + body
        else:
            text = ("-" if c < 0 else "") + body
    return text or "0"


class Terms:
    """Sparse map from index tuples to nonzero rational coefficients.

    The shared linear structure of polynomials, differential operators and
    truncated series, stored as int numerators ``_num`` over one denominator
    ``_den`` in lowest terms (``_den > 0``, ``gcd(_den, *_num.values()) == 1``,
    ``_den == 1`` for zero), so equal values have equal storage.  A subclass
    names its indices in FIELDS (used by the records) and gives the canonical
    term order in ``_order``, a sort key on (key, coefficient) items.
    Instances are immutable: every operation returns a fresh object.
    """

    __slots__ = ("_num", "_den")

    FIELDS: tuple[str, ...]
    _order: Callable[[tuple[tuple[int, ...], Fraction]], tuple]

    def __init__(self, terms: Mapping[tuple[int, ...], Scalar] | None = None):
        clean: dict[tuple[int, ...], Fraction] = {}
        if terms:
            arity = len(self.FIELDS)
            for key, c in terms.items():
                if len(key) != arity or min(key) < 0:
                    raise ValueError(f"term {key} needs {arity} nonnegative indices")
                if not isinstance(c, (int, Fraction)):
                    raise ValueError(f"coefficient {c!r} of term {key} is not an int or a Fraction")
                c = Fraction(c)
                if c:
                    clean[key] = c
        # lowest-terms Fractions over the lcm of their denominators: canonical
        den = lcm(*(c.denominator for c in clean.values()))
        self._num = {key: c.numerator * (den // c.denominator) for key, c in clean.items()}
        self._den = den

    @classmethod
    def _wrap(cls, num: dict, den: int = 1):
        # internal: num / den with nonzero ints under valid keys and den > 0
        g = gcd(den, *num.values())
        if g != 1:
            num = {key: c // g for key, c in num.items()}
            den //= g
        obj = cls.__new__(cls)
        obj._num = num
        obj._den = den
        return obj

    @classmethod
    def zero(cls):
        return cls()

    # -- inspection --------------------------------------------------------

    def items(self) -> Iterator[tuple[tuple[int, ...], Fraction]]:
        """Terms in canonical order."""
        den = self._den
        return ((key, Fraction(c, den)) for key, c in sorted(self._num.items(), key=self._order))

    def coefficient(self, *key: int) -> Fraction:
        return Fraction(self._num.get(key, 0), self._den)

    def is_zero(self) -> bool:
        return not self._num

    def __len__(self) -> int:
        return len(self._num)

    def __bool__(self) -> bool:
        return bool(self._num)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, type(self)):
            return NotImplemented
        return self._den == other._den and self._num == other._num

    def __hash__(self) -> int:
        return hash((self._den, frozenset(self._num.items())))

    # -- linear structure --------------------------------------------------

    def _add(self, other):
        # bound as __add__ in each subclass body, where the benchmark's
        # tracer looks the method up
        if not isinstance(other, type(self)):
            return NotImplemented
        if not other._num or not self._num:  # x + 0
            return self if self._num else other
        a, b, da, db = self._num, other._num, self._den, other._den
        if da != db:  # both over lcm(da, db)
            g = gcd(da, db)
            a, b, da = _scaled(a, db // g), _scaled(b, da // g), da * (db // g)
        return self._wrap(add_terms(a, b), da)

    def __neg__(self):
        return self._wrap({key: -c for key, c in self._num.items()}, self._den)

    def __sub__(self, other):
        return self + (-other)

    def __mul__(self, other: Scalar):
        if not isinstance(other, (int, Fraction)):
            return NotImplemented
        if not other:
            return self._wrap({})
        return self._wrap(_scaled(self._num, other.numerator), self._den * other.denominator)

    def __rmul__(self, other: Scalar):
        return self.__mul__(other)

    # -- serialization -----------------------------------------------------

    def to_records(self) -> list[dict[str, object]]:
        fields = self.FIELDS
        return [dict(zip(fields, key), c=str(c)) for key, c in self.items()]

    @classmethod
    def from_records(cls, records: list[dict[str, object]]):
        return cls(cls._record_terms(records))

    @classmethod
    def _record_terms(cls, records: list[dict[str, object]]) -> dict[tuple[int, ...], Fraction]:
        terms: dict[tuple[int, ...], Fraction] = {}
        for r in records:
            key = tuple(r[f] for f in cls.FIELDS)
            if not all(type(e) is int for e in key) or key in terms:
                raise ValueError(f"record {r}: indices must be unique integers")
            terms[key] = parse_rational(r["c"])
        return terms

    def __repr__(self) -> str:
        return f"{type(self).__name__}({self})"


class BivariatePoly(Terms):
    """Sparse polynomial in x and y over the rationals.

    Terms map exponent pairs (i, j) to nonzero rational coefficients; the
    zero polynomial stores nothing and reports degree -1.
    """

    __slots__ = ()

    FIELDS = ("i", "j")
    _order = staticmethod(term_order)

    # -- constructors ------------------------------------------------------

    @classmethod
    def constant(cls, c: Scalar) -> "BivariatePoly":
        return cls({(0, 0): c})

    @classmethod
    def variable(cls, name: str) -> "BivariatePoly":
        if name == "x":
            return cls({(1, 0): Fraction(1)})
        if name == "y":
            return cls({(0, 1): Fraction(1)})
        raise ValueError(f"unknown variable {name!r}")

    @classmethod
    def monomial(cls, i: int, j: int, c: Scalar = 1) -> "BivariatePoly":
        return cls({(i, j): c})

    @property
    def degree(self) -> int:
        """Total degree; -1 for the zero polynomial."""
        if not self._num:
            return -1
        return max(i + j for (i, j) in self._num)

    def is_monic(self, m: int, n: int) -> bool:
        """Leading term x^m y^n with coefficient 1, every other term of lower
        total degree; read from the stored numerators."""
        return self._num.get((m, n)) == self._den and all(
            i + j < m + n for (i, j) in self._num if (i, j) != (m, n)
        )

    # -- arithmetic --------------------------------------------------------

    __add__ = Terms._add

    def __mul__(self, other: Union["BivariatePoly", Scalar]) -> "BivariatePoly":
        if not isinstance(other, BivariatePoly):
            return Terms.__mul__(self, other)
        out: dict[tuple[int, int], int] = {}
        for (i1, j1), c1 in self._num.items():
            for (i2, j2), c2 in other._num.items():
                key = (i1 + i2, j1 + j2)
                out[key] = out.get(key, 0) + c1 * c2
        return self._wrap(drop_zeros(out), self._den * other._den)

    def __pow__(self, n: int) -> "BivariatePoly":
        if n < 0:
            raise ValueError("negative power of a polynomial")
        out = BivariatePoly.constant(1)
        for _ in range(n):
            out = out * self
        return out

    def diff(self, var: str, order: int = 1) -> "BivariatePoly":
        """Exact partial derivative of the given order with respect to x or y."""
        if var not in ("x", "y"):
            raise ValueError(f"unknown variable {var!r}")
        if order < 0:
            raise ValueError("derivative order must be nonnegative")
        if order == 0:
            return self
        out: dict[tuple[int, int], int] = {}
        for (i, j), c in self._num.items():
            e = i if var == "x" else j
            if e < order:
                continue
            scale = perm(e, order)  # e(e-1)...(e-order+1)
            key = (i - order, j) if var == "x" else (i, j - order)
            out[key] = c * scale
        return self._wrap(out, self._den)

    # -- structural maps ---------------------------------------------------

    def scaled_part(self, d: int, c: Scalar) -> "BivariatePoly":
        """c times the terms of total degree d, in one pass over the numerators."""
        num = {(i, j): a * c.numerator for (i, j), a in self._num.items() if i + j == d and c}
        return self._wrap(num, self._den * c.denominator)

    def negate_var(self, var: str) -> "BivariatePoly":
        """p(-x, y) for var 'x', p(x, -y) for var 'y'."""
        if var not in ("x", "y"):
            raise ValueError(f"unknown variable {var!r}")
        pos = 0 if var == "x" else 1
        return self._wrap(
            {key: (-c if key[pos] % 2 else c) for key, c in self._num.items()}, self._den
        )

    def swap_vars(self) -> "BivariatePoly":
        """p(y, x)."""
        return self._wrap({(j, i): c for (i, j), c in self._num.items()}, self._den)

    def halve_even_exponents(self) -> "BivariatePoly":
        """q with q(u, v) = p(sqrt(u), sqrt(v)); every exponent must be even."""
        out: dict[tuple[int, int], int] = {}
        for (i, j), c in self._num.items():
            if i % 2 or j % 2:
                raise ValueError(f"odd exponent ({i}, {j}) cannot be halved")
            out[(i // 2, j // 2)] = c
        return self._wrap(out, self._den)

    def __str__(self) -> str:
        # display with the highest degree first
        return signed_sum(reversed(list(self.items())), "xy")


X = BivariatePoly.variable("x")
Y = BivariatePoly.variable("y")
ONE = BivariatePoly.constant(1)

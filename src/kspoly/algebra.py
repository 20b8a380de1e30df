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
from math import gcd, lcm
from typing import Callable, Iterable, Iterator, Mapping, Sequence, Union

from .errors import ParameterError

Scalar = Union[Fraction, int]

_RATIONAL_RE = re.compile(r"^[+-]?\d+(?:/\d+)?$", re.ASCII)

def parse_rational(text: str) -> Fraction:
    """Parse "p" or "p/q". Decimals and non-strings are rejected: exactness end to end."""
    s = text.strip(" \t\n\r\f\v") if isinstance(text, str) else ""  # ASCII whitespace only
    if not _RATIONAL_RE.match(s):
        raise ValueError(f"not an exact rational: {text!r} (use 'p' or 'p/q')")
    try:
        return Fraction(s)
    except ZeroDivisionError:
        raise ValueError(f"zero denominator in rational {text!r}") from None


def _is_exact(value: object) -> bool:
    """An exact scalar: an int or a Fraction, not a bool (which would read as
    0 or 1) nor a float (whose Fraction is its binary expansion)."""
    return isinstance(value, (int, Fraction)) and not isinstance(value, bool)


def _check_exact(name: str, value: object) -> None:
    """The package's one exact-scalar rule, for a coefficient or parameter."""
    if not _is_exact(value):
        raise ParameterError(f"{name} must be an int or a Fraction, not {value!r}")


def _check_index(name: str, value: object) -> None:
    """The package's one index rule, for an order, exponent, level, node or
    table size: a nonnegative int, not a bool."""
    if type(value) is not int:
        raise ParameterError(f"{name} must be an int, not {value!r}")
    if value < 0:
        raise ParameterError(f"{name} must be nonnegative, not {value}")


def _check_choice(name: str, value: object, choices: tuple[str, ...]) -> None:
    """The package's one choice rule, for a case, axis, variable or builder:
    one of a tuple of names, compared by ==, so an unhashable value is
    refused by this rule too."""
    if value not in choices:
        raise ParameterError(f"{name} must be one of {', '.join(choices)}, not {value!r}")


def rising_factorial(z: Scalar, n: int) -> Fraction:
    """z(z+1)...(z+n-1); the empty product (n=0) is 1."""
    _check_exact("rising factorial argument", z)
    _check_index("rising factorial order", n)
    out = Fraction(1)
    z = Fraction(z)
    for i in range(n):
        out *= z + i
    return out


class _Unreduced:
    """An exact rational numerator/denominator (denominator nonzero, either
    sign) that no operation reduces: a short formula runs on ints with no
    gcd, and fraction() reduces its value once."""

    __slots__ = ("numerator", "denominator")

    def __init__(self, numerator: int, denominator: int = 1):
        self.numerator = numerator
        self.denominator = denominator

    def fraction(self) -> Fraction:
        return Fraction(self.numerator, self.denominator)

    def __str__(self) -> str:
        return str(self.fraction())

    def __bool__(self) -> bool:
        return self.numerator != 0

    def __neg__(self) -> _Unreduced:
        return _Unreduced(-self.numerator, self.denominator)

    def __add__(self, other: Union[_Unreduced, int]) -> _Unreduced:
        n, d = self.numerator, self.denominator
        return _Unreduced(n * other.denominator + other.numerator * d, d * other.denominator)

    __radd__ = __add__

    def __sub__(self, other: Union[_Unreduced, int]) -> _Unreduced:
        n, d = self.numerator, self.denominator
        return _Unreduced(n * other.denominator - other.numerator * d, d * other.denominator)

    def __rsub__(self, other: int) -> _Unreduced:
        return _Unreduced(other * self.denominator - self.numerator, self.denominator)

    def __mul__(self, other: Union[_Unreduced, int]) -> _Unreduced:
        return _Unreduced(self.numerator * other.numerator, self.denominator * other.denominator)

    __rmul__ = __mul__

    def __truediv__(self, other: Union[_Unreduced, int]) -> _Unreduced:
        if not other:
            raise ZeroDivisionError("division by zero")
        return _Unreduced(self.numerator * other.denominator, self.denominator * other.numerator)

    def __rtruediv__(self, other: int) -> _Unreduced:
        if not self.numerator:
            raise ZeroDivisionError("division by zero")
        return _Unreduced(other * self.denominator, self.numerator)

    def __pow__(self, k: int) -> _Unreduced:
        _check_index("power", k)
        return _Unreduced(self.numerator**k, self.denominator**k)


def term_order(item: tuple[tuple[int, int], object]) -> tuple[int, int]:
    """Canonical order of (i, j) terms: total degree ascending, then
    x-exponent descending."""
    (i, j), _ = item
    return (i + j, -i)


def rational_text(p: int, q: int) -> str:
    """p/q, in lowest terms with q > 0, as str(Fraction(p, q)) writes it."""
    return str(p) if q == 1 else f"{p}/{q}"


def signed_sum(
    items: Iterable[tuple[tuple[int, ...], int, int]],
    symbols: Sequence[str],
    coeff: Callable[[int, int], str] = rational_text,
    times: str = "*",
    join: str = "",
    power: str = "{}^{}",
) -> str:
    """Display (key, p, q) terms, p/q in lowest terms, as "a - b + c" in the
    given order; "0" when empty.

    A term is its absolute coefficient (written by ``coeff(abs(p), q)``, left
    out when it is 1 and a monomial follows) and the product of ``symbols``
    raised to the key's exponents, factors joined by ``join``.
    """
    text = ""
    for key, p, q in items:
        mono = join.join(
            s if e == 1 else power.format(s, e) for s, e in zip(symbols, key) if e
        )
        a = abs(p)
        if not mono:
            body = coeff(a, q)
        elif a == q:  # the coefficient is +-1
            body = mono
        else:
            body = coeff(a, q) + times + mono
        if text:
            text += (" - " if p < 0 else " + ") + body
        else:
            text = ("-" if p < 0 else "") + body
    return text or "0"


def _sum(parts: list[tuple[int, int, dict, object]]) -> tuple[dict, int]:
    # the one linear rule, behind +, scalar *, DiffOp.apply, combination
    # and the polynomial product: sum of c * num / den over (c, den, num,
    # via) parts, num read as is (via None), with its (i, j) keys shifted
    # by via (a tuple), or mapped through the monomial images via: every
    # part is brought over one lcm of the denominators (either sign), the
    # integer numerators accumulate in one dict, and the caller's _wrap
    # drops the keys that cancelled and reduces the sum with one gcd
    den = lcm(*[d for _, d, _, _ in parts])
    out: dict[tuple[int, ...], int] = {}
    get = out.get
    for c, d, num, via in parts:
        f = c * (den // d)
        if via is None:
            for key, a in num.items():
                out[key] = get(key, 0) + a * f
        elif type(via) is tuple:
            di, dj = via
            for (i, j), a in num.items():
                key = (i + di, j + dj)
                out[key] = get(key, 0) + a * f
        else:
            if f != 1:
                num = {mono: a * f for mono, a in num.items()}
            known = via.get  # a hit costs one lookup; via[mono] fills a miss
            for mono, a in num.items():
                for key, w in known(mono) or via[mono]:
                    out[key] = get(key, 0) + a * w
    return out, den


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
                if (
                    type(key) is not tuple
                    or len(key) != arity
                    or not all(type(e) is int and e >= 0 for e in key)
                ):
                    raise ValueError(f"term {key!r} needs {arity} nonnegative int indices")
                _check_exact(f"coefficient of term {key}", c)
                c = Fraction(c)
                if c:
                    clean[key] = c
        # lowest-terms Fractions over the lcm of their denominators: canonical
        den = lcm(*(c.denominator for c in clean.values()))
        self._num = {key: c.numerator * (den // c.denominator) for key, c in clean.items()}
        self._den = den

    @classmethod
    def _wrap(cls, num: dict, den: int = 1):
        # internal: num / den with int numerators under valid keys, den > 0;
        # the gcd ignores zeros (it is den when all are 0), so one pass drops
        # them and divides, and a reduced num with no zeros is kept as it is
        g = gcd(den, *num.values())
        if g != 1 or 0 in num.values():
            num = {key: c // g for key, c in num.items() if c}
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

    def lowest_terms(self) -> Iterator[tuple[tuple[int, ...], int, int]]:
        """(key, p, q) per term in canonical order, the coefficient p/q in
        lowest terms (q > 0), read from the stored numerators."""
        den = self._den
        for key, c in sorted(self._num.items(), key=self._order):
            g = gcd(c, den)
            yield key, c // g, den // g

    def coefficient(self, *key: int) -> Fraction:
        """The coefficient of the term with indices key, one per FIELDS entry."""
        if len(key) != len(self.FIELDS):
            raise ValueError(f"coefficient of {key!r} needs {len(self.FIELDS)} indices")
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

    def __add__(self, other):
        # BivariatePoly and DiffOp bind this again in their own bodies, where
        # the benchmark's tracer looks up the methods it wraps
        if not isinstance(other, type(self)):
            return NotImplemented
        if not other._num or not self._num:  # x + 0
            return self if self._num else other
        parts = [(1, self._den, self._num, None), (1, other._den, other._num, None)]
        return self._wrap(*_sum(parts))

    def __neg__(self):
        return self._wrap({key: -c for key, c in self._num.items()}, self._den)

    def __sub__(self, other):
        return self + (-other)

    def __mul__(self, other: Scalar):
        if not _is_exact(other):
            return NotImplemented
        den = self._den * other.denominator
        return self._wrap(*_sum([(other.numerator, den, self._num, None)]))

    def __rmul__(self, other: Scalar):
        return self.__mul__(other)

    # -- serialization -----------------------------------------------------

    def to_records(self) -> list[dict[str, object]]:
        """One {field: index, ..., "c": "p/q"} record per term in canonical
        order; "c" is the coefficient in lowest terms, as str(Fraction)."""
        fields = self.FIELDS
        return [dict(zip(fields, key), c=rational_text(p, q)) for key, p, q in self.lowest_terms()]

    @classmethod
    def from_records(cls, records: list[dict[str, object]]):
        return cls(cls._record_terms(records))

    @classmethod
    def _record_terms(cls, records: list[dict[str, object]]) -> dict[tuple[int, ...], Fraction]:
        terms: dict[tuple[int, ...], Fraction] = {}
        fields = (*cls.FIELDS, "c")
        for r in records:
            if not isinstance(r, dict) or not all(f in r for f in fields):
                raise ValueError(f"record {r!r}: must be an object with keys {', '.join(fields)}")
            key = tuple(r[f] for f in cls.FIELDS)
            if not all(type(e) is int for e in key) or key in terms:
                raise ValueError(f"record {r}: indices must be unique integers")
            terms[key] = parse_rational(r["c"])
        return terms

    def __str__(self) -> str:
        # the subclasses of this package write their own symbols
        return signed_sum(self.lowest_terms(), self.FIELDS, join="*")

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
        _check_choice("variable", name, ("x", "y"))
        return cls({(1, 0) if name == "x" else (0, 1): Fraction(1)})

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

    def to_records(self) -> list[dict[str, object]]:
        """Terms.to_records for the table entries, with literal records, which
        the shared dict(zip(...), c=...) construction cannot give; the order
        of term_order, sorted on decorated (i + j, j) tuples."""
        den = self._den
        return [
            {"i": i, "j": j, "c": str(c // g) if g == den else f"{c // g}/{den // g}"}
            for _, j, i, c in sorted([(i + j, j, i, c) for (i, j), c in self._num.items()])
            for g in (gcd(c, den),)
        ]

    # -- arithmetic --------------------------------------------------------

    __add__ = Terms.__add__  # see Terms.__add__

    def __mul__(self, other: Union["BivariatePoly", Scalar]) -> "BivariatePoly":
        if not isinstance(other, BivariatePoly):
            return Terms.__mul__(self, other)
        den, num = self._den * other._den, self._num
        return self._wrap(*_sum([(c, den, num, key) for key, c in other._num.items()]))

    def __pow__(self, n: int) -> "BivariatePoly":
        _check_index("polynomial power", n)
        out = BivariatePoly.constant(1)
        for _ in range(n):
            out = out * self
        return out

    @classmethod
    def combination(cls, operands: Iterable[tuple]) -> "BivariatePoly":
        """The sum of the operands, as one polynomial.  (c, p) stands for
        c * p, (c, p, (i, j)) for c * x^i y^j * p and (c, p, A) for c * A(p),
        A a DiffOp whose memo ``A.images`` is read by the same accumulation
        as ``A.apply``, which is this sum of one operand.  A coefficient c is
        any exact scalar with an integer numerator and a nonzero integer
        denominator of either sign (an int, a Fraction or an _Unreduced);
        zero coefficients and zero operands contribute nothing, and an empty
        sum is zero."""
        parts = []
        for operand in operands:
            c, p = operand[0], operand[1]
            via = operand[2] if len(operand) > 2 else None
            d = c.denominator * p._den
            if via is None or type(via) is tuple:
                parts.append((c.numerator, d, p._num, via))
            else:
                parts.append((c.numerator, d * via._den, p._num, via.images))
        return cls._wrap(*_sum(parts))

    # -- structural maps ---------------------------------------------------

    def swap_vars(self) -> "BivariatePoly":
        """p(y, x)."""
        return self._wrap({(j, i): c for (i, j), c in self._num.items()}, self._den)

    def __str__(self) -> str:
        # display with the highest degree first
        return signed_sum(reversed(list(self.lowest_terms())), "xy")


X = BivariatePoly.variable("x")
Y = BivariatePoly.variable("y")
ONE = BivariatePoly.constant(1)

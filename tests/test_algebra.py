import re
from fractions import Fraction as F
from math import gcd, perm

import pytest
from hypothesis import given
from hypothesis import strategies as st

from kspoly.algebra import (
    ONE,
    X,
    Y,
    BivariatePoly,
    Terms,
    _check_choice,
    _check_exact,
    _check_index,
    _Unreduced,
    parse_rational,
    rational_text,
    rising_factorial,
)
from kspoly.catalog import (
    CaseParams,
    generic_operators,
    quadratic_relations,
    raising_relation,
    recurrence_step,
)
from kspoly.cli import build_parser, cmd_check
from kspoly.errors import KspolyError, ParameterError
from kspoly.series import Series2, genfun, genfun_derivative_residuals
from kspoly.triangle import build_oracle, triangle_from_json, triangle_to_json
from kspoly.verify import check_genfun_agreement, check_ix_to_i_map, check_swap_symmetry
from kspoly.weyl import DiffOp, GenericOp

rationals = st.fractions(min_value=-10, max_value=10, max_denominator=12)
exponents = st.tuples(st.integers(0, 4), st.integers(0, 4))
polys = st.builds(
    BivariatePoly, st.dictionaries(exponents, rationals, max_size=6)
)


# -- parsing ---------------------------------------------------------------


def test_parse_rational_roundtrip():
    for text in ("-2/9", "3", "0", "17/4", "-5"):
        assert str(parse_rational(text)) == text


def test_parse_rational_normalizes():
    assert parse_rational("4/6") == F(2, 3)
    assert str(parse_rational("4/6")) == "2/3"


@pytest.mark.parametrize(
    "bad",
    ["3.5", "1e3", "x", "1/0", "2/-3", "", "٣/٤", "３", "1/２", "\u30003", "3\u2003", "\x1c3"],
)
def test_parse_rational_rejects_inexact(bad):
    with pytest.raises(ValueError):
        parse_rational(bad)


@pytest.mark.parametrize(
    "text, value", [(" 3 ", 3), ("3\n", 3), ("\t-2/9\r\n", F(-2, 9)), ("\x0b\x0c3", 3)]
)
def test_parse_rational_strips_ascii_whitespace(text, value):
    assert parse_rational(text) == value


# -- polynomial arithmetic ---------------------------------------------------


def test_add_cancellation():
    assert (X + ONE) + (-1 * X) == ONE


def test_add_identity():
    p = X * X * Y - 3 * Y
    assert p + BivariatePoly.zero() == p
    assert BivariatePoly.zero() + p == p
    assert (BivariatePoly.zero() - BivariatePoly.zero()).is_zero()


def test_add_like_terms():
    p = BivariatePoly.monomial(2, 1)
    assert p + p == BivariatePoly.monomial(2, 1, 2)


def test_mul_difference_of_squares():
    assert (X + Y) * (X - Y) == X * X - Y * Y


def test_mul_identity():
    p = 5 * X * Y - ONE
    assert p * ONE == p


def test_mul_binomial_square():
    # (x + kappa1/beta)^2 with beta=2, kappa1=1
    p = X + F(1, 2) * ONE
    assert p * p == X * X + X + F(1, 4) * ONE


def partial(var, order=1):
    """The partial derivative of the given order in x or y, as an operator."""
    return DiffOp.partial(order, 0) if var == "x" else DiffOp.partial(0, order)


def test_diff_basic():
    assert partial("x").apply(X**3 * Y) == 3 * X * X * Y
    assert partial("y", 2).apply(Y * Y) == 2 * ONE
    assert partial("x").apply(BivariatePoly.constant(7)) == BivariatePoly.zero()


def test_diff_order_zero_and_negative():
    p = X * Y
    assert partial("x", 0).apply(p) == p
    with pytest.raises(ValueError):
        partial("x", -1).apply(p)


def test_degree_conventions():
    assert BivariatePoly.zero().degree == -1
    assert ONE.degree == 0
    assert (X * Y * Y).degree == 3


def test_is_monic():
    p = X * X * Y - F(1, 2) * Y + F(1, 3) * X
    assert p.is_monic(2, 1)
    assert not p.is_monic(1, 2)  # no x y^2 term
    assert not (2 * p).is_monic(2, 1)  # leading coefficient 2
    assert not (F(1, 2) * p).is_monic(2, 1)
    assert not (p + X * Y * Y).is_monic(2, 1)  # a second term of degree 3
    assert not (p + X**4).is_monic(2, 1)
    assert not BivariatePoly.zero().is_monic(0, 0)
    assert ONE.is_monic(0, 0)


def test_negate_and_swap():
    p = X * X * Y - 2 * X + ONE
    assert p.swap_vars() == Y * Y * X - 2 * Y + ONE


def test_canonical_record_order():
    p = X * X - F(1, 4) * ONE + 3 * X * Y
    recs = p.to_records()
    # degree ascending, x-exponent descending within a degree
    assert recs == [
        {"i": 0, "j": 0, "c": "-1/4"},
        {"i": 2, "j": 0, "c": "1"},
        {"i": 1, "j": 1, "c": "3"},
    ]
    assert BivariatePoly.from_records(recs) == p


@pytest.mark.parametrize(
    "record",
    [{"i": 0, "j": 0}, {"i": 0, "c": "1"}, "x", ["i", "j", "c"], None],
    ids=["no-c", "no-index", "string", "list", "null"],
)
def test_from_records_rejects_a_record_without_its_keys(record):
    # records read from disk: the ValueError that names the record, not a
    # KeyError or a TypeError
    message = f"^record {re.escape(repr(record))}: must be an object with keys "
    for read in (BivariatePoly.from_records, lambda records: Series2.from_records(2, records)):
        with pytest.raises(ValueError, match=message):
            read([record])


def test_rejects_negative_exponent():
    with pytest.raises(ValueError):
        BivariatePoly({(-1, 0): F(1)})


@pytest.mark.parametrize("cls", [BivariatePoly, DiffOp, GenericOp, Series2])
@pytest.mark.parametrize(
    "bad",
    [
        lambda n: (F(1, 2),) + (1,) * (n - 1),  # x^0.5 y would print and export
        lambda n: (True,) + (0,) * (n - 1),  # would be exported as "i": true
        lambda n: (0,) * (n - 1) + (2.0,),
        lambda n: "abcdefgh"[:n],
        lambda n: n,
    ],
    ids=["fraction", "bool", "float", "str", "int"],
)
def test_constructor_rejects_non_int_indices(cls, bad):
    key = bad(len(cls.FIELDS))
    with pytest.raises(ValueError, match=re.escape(f"term {key!r} needs")):
        cls(4, {key: 1}) if cls is Series2 else cls({key: 1})


@pytest.mark.parametrize(
    "make",
    [
        lambda: BivariatePoly({(0, 0): 0.1}),
        lambda: BivariatePoly.constant(0.5),
        lambda: BivariatePoly.monomial(2, 1, 0.25),
        lambda: BivariatePoly({(0, 0): True}),
        lambda: BivariatePoly.constant(True),
        lambda: DiffOp({(0, 0, 0, 0): False}),
    ],
)
def test_rejects_float_coefficients(make):
    # Fraction(0.1) would store the binary expansion 3602879701896397/2**55,
    # and a bool would be read as the int 1 or 0
    with pytest.raises(ValueError, match=r"^coefficient of term \(.*\) must be an int or a Fraction, not "):
        make()


@pytest.mark.parametrize("cls", [BivariatePoly, DiffOp, GenericOp, Series2])
@pytest.mark.parametrize("flag", [True, False])
def test_scalar_product_rejects_a_bool(cls, flag):
    # the constructor rejects a bool coefficient, so a bool scale is no scalar
    p = cls(2, {(0,) * 4: 1}) if cls is Series2 else cls({(0,) * len(cls.FIELDS): 1})
    assert p.__mul__(flag) is NotImplemented
    with pytest.raises(TypeError):
        p * flag
    with pytest.raises(TypeError):
        flag * p


# -- the argument rules -------------------------------------------------------


def test_one_index_rule_and_one_exact_scalar_rule():
    # a ParameterError is a KspolyError and, as a bad value, a ValueError
    assert issubclass(ParameterError, KspolyError) and issubclass(ParameterError, ValueError)
    for bad, rule in [(True, "an int, not True"), (2.0, "an int, not 2.0"), (-1, "nonnegative, not -1")]:
        with pytest.raises(ParameterError, match=f"^k must be {rule}$"):
            _check_index("k", bad)
    for bad in (True, 0.5, "1", None):
        with pytest.raises(ParameterError, match=f"^c must be an int or a Fraction, not {bad!r}$"):
            _check_exact("c", bad)
    for good in (0, 3, F(-1, 2)):
        _check_exact("c", good)
    _check_index("k", 0)
    _check_choice("axis", "y", ("x", "y"))


def _table(case, nmax=2):
    kappas = () if case == "IX" else (F(1, 3), F(-1, 5))
    return build_oracle(CaseParams(case, F(7, 2), *kappas), nmax)


def _relation(check, *args):
    source = generic_operators("I")
    return check(*args, source.L, source.raising[0])


CASE_LIST = "I, II, III, V, VIII, IX"

# every site that picks an object by name: (call with a bad value, its message)
CHOICE_SITES = {
    "CaseParams": (lambda: CaseParams("IV", F(2)), f"case must be one of {CASE_LIST}, not 'IV'"),
    "CaseParams-unhashable": (
        lambda: CaseParams({"x": [1]}, F(2)),
        f"case must be one of {CASE_LIST}, not {{'x': [1]}}",
    ),
    "generic_operators": (
        lambda: generic_operators("IV"),
        f"case must be one of {CASE_LIST}, not 'IV'",
    ),
    # refused by the rule before the cache hashes the argument
    "generic_operators-list": (
        lambda: generic_operators(["I"]),
        f"case must be one of {CASE_LIST}, not ['I']",
    ),
    "generic_operators-unhashable": (
        lambda: generic_operators({"x": [1]}),
        f"case must be one of {CASE_LIST}, not {{'x': [1]}}",
    ),
    "raising_relation-case": (
        lambda: _relation(raising_relation, "IV", "x"),
        f"case must be one of {CASE_LIST}, not 'IV'",
    ),
    "raising_relation-axis": (
        lambda: _relation(raising_relation, "I", "z"),
        "axis must be one of x, y, not 'z'",
    ),
    "recurrence_step": (
        lambda: recurrence_step(CaseParams("I", F(7, 2)), "xy", 0, 0),
        "axis must be one of x, y, not 'xy'",
    ),
    "quadratic_relations": (
        lambda: quadratic_relations("I", ONE, ()),
        "quadratic relation case must be one of IX, not 'I'",
    ),
    "Series2.diff": (
        lambda: Series2.one(2).diff("x"),
        "series variable must be one of s, t, not 'x'",
    ),
    "genfun": (
        lambda: genfun(CaseParams("II", F(7, 2)), 2),
        "genfun case must be one of V, VIII, IX, not 'II'",
    ),
    "genfun_derivative_residuals": (
        lambda: genfun_derivative_residuals(CaseParams("IX", F(7, 2)), Series2.one(2)),
        "derivative identity case must be one of V, not 'IX'",
    ),
    "check_swap_symmetry": (
        lambda: check_swap_symmetry(_table("II")),
        "swap symmetry case must be one of I, IX, not 'II'",
    ),
    "check_ix_to_i_map": (
        lambda: check_ix_to_i_map(_table("I")),
        "ix-to-i case must be one of IX, not 'I'",
    ),
    "check_genfun_agreement": (
        lambda: check_genfun_agreement(_table("I")),
        "genfun case must be one of V, VIII, IX, not 'I'",
    ),
    "BivariatePoly.variable": (
        lambda: BivariatePoly.variable("z"),
        "variable must be one of x, y, not 'z'",
    ),
    "triangle_from_json": (
        lambda: triangle_from_json({**triangle_to_json(_table("IX", 1)), "method": {"x": [1]}}),
        "method must be one of oracle, recurrence, ladder, transfer, not {'x': [1]}",
    ),
    "cmd_check": (
        lambda: cmd_check(build_parser().parse_args(["check", "--case", "IV"])),
        f"--case must be one of {CASE_LIST}, all, not 'IV'",
    ),
}


@pytest.mark.parametrize("site", CHOICE_SITES)
def test_one_choice_rule_refuses_a_bad_choice_at_every_site(site):
    call, message = CHOICE_SITES[site]
    with pytest.raises(ParameterError) as caught:
        call()
    assert str(caught.value) == message


# every kernel site that reads an index: (call with a bad index, its message);
# a bool or float would read as the int it equals, and a generator index past
# the eight symbols as the constant 1
INDEX_SITES = {
    "generator-8": (lambda: GenericOp.generator(8), "generator index must be below 8, not 8"),
    "generator-negative": (
        lambda: GenericOp.generator(-1),
        "generator index must be nonnegative, not -1",
    ),
    "generator-bool": (lambda: GenericOp.generator(True), "generator index must be an int, not True"),
    "generator-float": (lambda: GenericOp.generator(2.0), "generator index must be an int, not 2.0"),
    "coefficient-bool": (lambda: X.coefficient(True, 0), "index i must be an int, not True"),
    "coefficient-float": (lambda: X.coefficient(1.0, 0), "index i must be an int, not 1.0"),
    "coefficient-negative": (
        lambda: DiffOp.partial(1, 0).coefficient(0, 0, -1, 0),
        "index k must be nonnegative, not -1",
    ),
    "coefficient-arity": (lambda: X.coefficient(1), "coefficient of (1,) needs 2 indices"),
    "constructor-key": (
        lambda: BivariatePoly({(True, 0): 1}),
        "term (True, 0) needs 2 nonnegative int indices",
    ),
}


@pytest.mark.parametrize("site", INDEX_SITES)
def test_one_index_rule_refuses_a_bad_index_at_every_kernel_site(site):
    call, message = INDEX_SITES[site]
    with pytest.raises(ParameterError) as caught:
        call()
    assert str(caught.value) == message


# -- rising factorial --------------------------------------------------------


def test_rising_factorial_values():
    assert rising_factorial(F(7, 3), 0) == 1
    assert rising_factorial(F(1, 2), 2) == F(3, 4)
    # (beta-1)/2 at beta=3, one factor
    assert rising_factorial(F(3 - 1, 2), 1) == 1
    assert rising_factorial(F(-2), 3) == 0


def test_rising_factorial_rejects_a_negative_order():
    with pytest.raises(ValueError, match="^rising factorial order must be nonnegative, not -1$"):
        rising_factorial(F(1, 2), -1)


@pytest.mark.parametrize(
    "z, n, message",
    [
        # a float entered as its binary expansion (0.5 gave 3/4), a bool as 0 or 1
        (0.5, 2, "^rising factorial argument must be an int or a Fraction, not 0.5$"),
        (True, 2, "^rising factorial argument must be an int or a Fraction, not True$"),
        (2, True, "^rising factorial order must be an int, not True$"),
        (2, 2.0, "^rising factorial order must be an int, not 2.0$"),
    ],
    ids=["float-z", "bool-z", "bool-n", "float-n"],
)
def test_rising_factorial_rejects_a_float_or_a_bool(z, n, message):
    with pytest.raises(ValueError, match=message):
        rising_factorial(z, n)


def test_polynomials_reject_an_unknown_variable_and_a_negative_power():
    with pytest.raises(ParameterError, match="^variable must be one of x, y, not 'z'$"):
        BivariatePoly.variable("z")
    with pytest.raises(ValueError, match="^polynomial power must be nonnegative, not -1$"):
        X**-1


@pytest.mark.parametrize("n", [True, 2.0, F(2)], ids=["bool", "float", "fraction"])
def test_polynomial_power_rejects_a_non_int_exponent(n):
    # a bool would be read as 0 or 1; a float or a Fraction counts no factors
    message = f"^polynomial power must be an int, not {re.escape(repr(n))}$"
    with pytest.raises(ValueError, match=message):
        X**n


def test_operands_of_another_type_are_not_implemented():
    # __eq__, __add__ and __matmul__ answer NotImplemented for a value of
    # another type: == falls back to identity, + and @ raise TypeError
    G = GenericOp.generator(0)
    for a, b in ((X, 1), (X, DiffOp.identity()), (Series2.one(2), 1), (Series2.one(2), ONE)):
        assert (a == b) is False and (b == a) is False
        name = f"'{type(a).__name__}' and '{type(b).__name__}'"
        with pytest.raises(TypeError, match=rf"^unsupported operand type\(s\) for \+: {name}$"):
            a + b
    for a, b in ((DiffOp.identity(), X), (DiffOp.identity(), G), (G, DiffOp.identity())):
        name = f"'{type(a).__name__}' and '{type(b).__name__}'"
        with pytest.raises(TypeError, match=rf"^unsupported operand type\(s\) for @: {name}$"):
            a @ b


# -- the unreduced formula scalar ----------------------------------------------

# a rational as an unreduced pair: numerator and denominator both scaled by a
# nonzero int of either sign, so the pair is neither reduced nor positive
unreduced = st.builds(
    lambda q, s: _Unreduced(q.numerator * s, q.denominator * s),
    rationals,
    st.integers(-6, 6).filter(bool),
)


@given(unreduced, unreduced, st.integers(-20, 20))
def test_unreduced_matches_fraction(a, b, k):
    fa, fb = a.fraction(), b.fraction()
    results = [
        (a + b, fa + fb), (a + k, fa + k), (k + a, k + fa),
        (a - b, fa - fb), (a - k, fa - k), (k - a, k - fa),
        (a * b, fa * fb), (a * k, fa * k), (k * a, k * fa),
        (-a, -fa), (a**0, F(1)), (a**3, fa**3),
    ]
    for num, den, fnum, fden in ((a, b, fa, fb), (a, k, fa, k), (k, a, k, fa)):
        if fden:
            results.append((num / den, fnum / fden))
        else:
            with pytest.raises(ZeroDivisionError):
                num / den
    for got, expected in results:
        assert type(got) is _Unreduced
        assert type(got.fraction()) is F
        assert got.fraction() == expected
        assert bool(got) == bool(expected)
        assert str(got) == str(expected)  # a pair is written by its reduced value


def test_a_terms_subclass_without_its_own_str_prints():
    # Terms.__repr__ formats str(self); with no Terms.__str__ that was
    # object.__str__, which calls __repr__ again, until RecursionError
    class Single(Terms):
        __slots__ = ()
        FIELDS = ("t",)
        _order = staticmethod(lambda item: item[0])

    s = Single({(2,): F(-3, 4), (0,): 1, (1,): -1})
    assert repr(s) == "Single(1 - t - 3/4*t^2)"
    assert str(Single()) == "0"


def test_unreduced_zero_divisor_and_sign():
    zero = _Unreduced(0, -3)
    for divide in (lambda: _Unreduced(1, 2) / zero, lambda: 5 / zero, lambda: _Unreduced(1) / 0):
        with pytest.raises(ZeroDivisionError):
            divide()
    assert not zero and (zero**0).fraction() == 1
    assert str(_Unreduced(6, -4).fraction()) == "-3/2"


@pytest.mark.parametrize(
    "k, message",
    [(2.0, "an int, not 2.0"), (True, "an int, not True"), (-1, "nonnegative, not -1")],
    ids=["float", "bool", "negative"],
)
def test_unreduced_power_takes_an_index(k, message):
    # unchecked, 2.0 gives float parts that fraction() cannot read, and True reads as 1
    with pytest.raises(ParameterError, match=f"^power must be {message}$"):
        _Unreduced(2, 3) ** k


# -- ring properties -----------------------------------------------------------


@given(polys, polys, polys)
def test_add_mul_axioms(a, b, c):
    assert (a + b) + c == a + (b + c)
    assert a + b == b + a
    assert (a * b) * c == a * (b * c)
    assert a * b == b * a
    assert a * (b + c) == a * b + a * c


@given(polys)
def test_diff_commutes(p):
    dx, dy = partial("x"), partial("y")
    assert dx.apply(dy.apply(p)) == dy.apply(dx.apply(p))


@given(rationals, rationals)
def test_fraction_inverse(a, b):
    if a and b:
        assert (a / b) * (b / a) == 1



# -- the integer kernel against Fraction reference loops -------------------------
#
# The kernel stores integer numerators over one reduced denominator.  These
# loops are the Fraction-dict arithmetic it replaced; the kernel must give
# exactly their coefficients, in canonical storage.  Ring axioms alone would
# not catch a normalisation that is wrong the same way on both sides.


def assert_canonical(t):
    """Storage invariant: positive denominator, no common factor with the
    numerators, no zero numerators, denominator 1 for the zero map."""
    assert type(t._den) is int and t._den > 0
    assert all(type(c) is int and c for c in t._num.values())
    assert gcd(t._den, *t._num.values()) == 1
    if not t._num:
        assert t._den == 1


def coeffs(t):
    """A polynomial or operator as a plain {key: Fraction} dict."""
    out = dict(t.items())
    assert all(type(c) is F for c in out.values())
    return out


def accumulate(out, key, inc):
    """out[key] += inc in place, dropping a sum that cancels to zero."""
    tot = out.get(key, F(0)) + inc
    if tot:
        out[key] = tot
    else:
        out.pop(key, None)


def ref_add(a, b):
    out = dict(a)
    for key, c in b.items():
        accumulate(out, key, c)
    return out


def ref_scale(a, c):
    return {key: v * c for key, v in a.items()} if c else {}


def ref_mul(a, b):
    out = {}
    for (i1, j1), c1 in a.items():
        for (i2, j2), c2 in b.items():
            accumulate(out, (i1 + i2, j1 + j2), c1 * c2)
    return out


def ref_apply(op, p):
    out = {}
    for (i, j, k, l), c in op.items():
        for (a, b), pc in p.items():
            if a >= k and b >= l:
                inc = c * pc * perm(a, k) * perm(b, l)
                accumulate(out, (a - k + i, b - l + j), inc)
    return out


def ref_diff(a, var, order):
    out = {}
    for (i, j), c in a.items():
        e = i if var == "x" else j
        if e >= order:
            key = (i - order, j) if var == "x" else (i, j - order)
            out[key] = c * perm(e, order)
    return out


# denominators 15 and 7 are coprime; 6, 4 and 12 share factors
COPRIME = (
    BivariatePoly({(1, 0): F(1, 3), (0, 0): F(-2, 5)}),
    BivariatePoly({(1, 0): F(1, 7), (2, 1): F(3)}),
)
SHARED = (
    BivariatePoly({(1, 0): F(1, 6), (0, 2): F(5, 4)}),
    BivariatePoly({(1, 0): F(-1, 6), (0, 2): F(-1, 12), (3, 0): F(7, 4)}),
)
SCALARS = (0, 1, -1, 3, F(-3, 4), F(5, 6), F(-12, 5))


def check_linear_ops(a, b, c):
    """+, -, neg and scalar * of the kernel against the reference, a whole
    cancellation (a - a) and a partial one (a + (b - a)) included."""
    ta, tb = coeffs(a), coeffs(b)
    cases = [
        (a + b, ref_add(ta, tb)),
        (a - b, ref_add(ta, ref_scale(tb, -1))),
        (-a, ref_scale(ta, -1)),
        (a - a, {}),
        (a + (b - a), ref_add(ta, ref_add(tb, ref_scale(ta, -1)))),
        (a * c, ref_scale(ta, F(c))),
        (c * a, ref_scale(ta, F(c))),
    ]
    for got, want in cases:
        assert_canonical(got)
        assert coeffs(got) == want


@pytest.mark.parametrize("a, b", [COPRIME, SHARED, COPRIME[::-1], (SHARED[0], COPRIME[1])])
@pytest.mark.parametrize("c", SCALARS)
def test_linear_ops_match_reference_examples(a, b, c):
    check_linear_ops(a, b, c)


@given(polys, polys, rationals)
def test_linear_ops_match_reference(a, b, c):
    check_linear_ops(a, b, c)


def check_mul_and_diff(a, b):
    ta, tb = coeffs(a), coeffs(b)
    cases = [
        (a * b, ref_mul(ta, tb)),
        (a * (b - b), {}),
        (a * (-b), ref_mul(ta, ref_scale(tb, -1))),
    ]
    cases += [(partial(v, k).apply(a), ref_diff(ta, v, k)) for v in "xy" for k in range(4)]
    cases.append((a.swap_vars(), {(j, i): c for (i, j), c in ta.items()}))
    for got, want in cases:
        assert_canonical(got)
        assert coeffs(got) == want


@pytest.mark.parametrize("a, b", [COPRIME, SHARED, (SHARED[1], SHARED[1])])
def test_mul_and_diff_match_reference_examples(a, b):
    check_mul_and_diff(a, b)


@given(polys, polys)
def test_mul_and_diff_match_reference(a, b):
    check_mul_and_diff(a, b)


@given(polys, rationals)
def test_equal_values_have_equal_storage(p, c):
    z = BivariatePoly.zero()
    assert_canonical(z)
    assert (z._num, z._den) == ({}, 1)
    for q in ((p * F(2, 3)) * F(3, 2), (p + p) * F(1, 2), p - z, (p + X) - X):
        assert q == p and hash(q) == hash(p)
    assert p - p == z and hash(p - p) == hash(z)
    assert p * 0 == z and hash(p * 0) == hash(z)
    if c:
        assert (p * c) * (1 / c) == p and hash((p * c) * (1 / c)) == hash(p)


def test_constructor_reduces_to_canonical_storage():
    p = BivariatePoly({(0, 0): F(2, 4), (1, 0): 3, (0, 1): F(-5, 6), (2, 2): 0})
    assert_canonical(p)
    assert (p._num, p._den) == ({(0, 0): 3, (1, 0): 18, (0, 1): -5}, 6)
    assert BivariatePoly({(0, 0): F(4, 6)}) == BivariatePoly({(0, 0): F(2, 3)})
    assert coeffs(p) == {(0, 0): F(1, 2), (1, 0): F(3), (0, 1): F(-5, 6)}
    assert p.coefficient(0, 1) == F(-5, 6) and p.coefficient(3, 3) == 0


@pytest.mark.parametrize(
    "op, key",
    [
        (X * X, (2,)),
        (X * X, (2, 0, 0)),
        (X, ()),
        (DiffOp.partial(1, 0), (0, 0)),
        (DiffOp.partial(1, 0), (0, 0, 1, 0, 0)),
        (GenericOp.generator(4), (0, 0, 0, 0)),
    ],
    ids=["poly-short", "poly-long", "poly-empty", "diffop-short", "diffop-long", "generic-short"],
)
def test_coefficient_rejects_a_key_of_the_wrong_length(op, key):
    # a short or long key names no term: an error, not a missing term read as 0
    arity = len(op.FIELDS)
    with pytest.raises(ValueError, match=f"needs {arity} indices$"):
        op.coefficient(*key)
    assert op.coefficient(*(0,) * arity) == 0 and op.coefficient(*next(iter(op.items()))[0]) == 1


@pytest.mark.parametrize(
    "num, den, want",
    [
        ({(1, 0): 0, (0, 1): 3, (2, 0): -2}, 5, ({(0, 1): 3, (2, 0): -2}, 5)),  # gcd 1
        ({(1, 0): 0, (0, 1): 4, (2, 0): -6}, 10, ({(0, 1): 2, (2, 0): -3}, 5)),  # gcd 2
        ({(1, 0): 0, (0, 1): 0}, 7, ({}, 1)),
        ({(1, 0): 0}, 1, ({}, 1)),
        ({}, 9, ({}, 1)),
    ],
    ids=["zero-coprime", "zero-common-factor", "all-zero", "all-zero-over-1", "empty"],
)
def test_wrap_drops_zero_numerators_and_reduces(num, den, want):
    # the one internal constructor: numerators accumulated on ints may
    # cancel to 0, and the result is canonical storage either way
    p = BivariatePoly._wrap(dict(num), den)
    assert_canonical(p)
    assert (p._num, p._den) == want


def test_wrap_keeps_reduced_numerators_as_they_are():
    num = {(0, 0): 3, (1, 2): -4}
    p = BivariatePoly._wrap(num, 5)
    assert_canonical(p)
    assert p._num is num and p._den == 5


# -- one-pass linear combinations and Fraction-free records ----------------------


def chained(pairs):
    """sum of c * p, one ref_add and one ref_scale at a time, as a Fraction
    dict: independent of the accumulation combination, + and * share."""
    total = {}
    for c, p in pairs:
        total = ref_add(total, ref_scale(coeffs(p), F(c)))
    return total


COMBINATIONS = [
    [],
    [(1, COPRIME[0])],
    [(3, COPRIME[0]), (F(-2, 9), COPRIME[1])],  # coprime denominators
    [(F(5, 6), SHARED[0]), (-4, SHARED[1]), (F(1, 12), SHARED[0])],  # shared ones
    [(0, COPRIME[0]), (F(7, 5), SHARED[1]), (0, SHARED[0])],  # zero coefficients
    [(F(2, 3), SHARED[0]), (F(-2, 3), SHARED[0])],  # full cancellation
    [(F(1, 6), SHARED[0]), (F(1, 6), SHARED[1]), (-1, BivariatePoly({(3, 0): F(7, 24)}))],
    [(5, BivariatePoly.zero()), (F(-1, 3), COPRIME[1])],  # a zero operand
]


@pytest.mark.parametrize("pairs", COMBINATIONS)
def test_combination_matches_chained_sums(pairs):
    got = BivariatePoly.combination(pairs)
    assert_canonical(got)
    assert got == BivariatePoly(chained(pairs))


@given(st.lists(st.tuples(st.one_of(st.integers(-5, 5), rationals), polys), max_size=5))
def test_combination_matches_chained_sums_property(pairs):
    got = BivariatePoly.combination(iter(pairs))  # any iterable of pairs
    assert_canonical(got)
    assert coeffs(got) == chained(pairs)


# -- shifted and operator operands: c * x^i y^j * p and c * A(p) in the same sum --


OPS = (
    DiffOp({(1, 0, 1, 0): F(1, 2), (0, 0, 0, 0): 3, (0, 1, 2, 0): F(-2, 7)}),
    DiffOp({(0, 0, 1, 0): 1}),  # d_x: kills every polynomial in y alone
    DiffOp({(2, 0, 2, 0): F(5, 3), (0, 0, 0, 1): F(-1, 4), (1, 1, 1, 1): 2}),
)


def reference(operands):
    """The chained construction a combination replaces, as a Fraction dict:
    each operand formed as its own term map (x^i y^j * p by ref_mul, A(p) by
    ref_apply, or p), times c, then added."""
    total = {}
    for c, p, *via in operands:
        if isinstance(c, _Unreduced):
            c = c.fraction()
        if not via:
            term = coeffs(p)
        elif isinstance(via[0], tuple):
            term = ref_mul({via[0]: F(1)}, coeffs(p))
        else:
            term = ref_apply(coeffs(via[0]), coeffs(p))
        total = ref_add(total, ref_scale(term, F(c)))
    return total


P, Q = COPRIME[0], SHARED[1]
OPERAND_SUMS = [
    [],
    [(1, P, (1, 0))],
    [(-3, P, (0, 2)), (F(-2, 9), Q, (2, 1))],  # negative coefficients
    [(_Unreduced(6, -4), P, (1, 1)), (_Unreduced(-10, 15), Q)],  # unreduced, either sign
    [(0, P, (1, 0)), (_Unreduced(0, 7), Q, OPS[0]), (F(0), Q)],  # zero coefficients
    [(5, BivariatePoly.zero(), (1, 0)), (2, BivariatePoly.zero(), OPS[0])],  # zero operands
    [(F(3, 4), P, (1, 0)), (F(-3, 4), X * P)],  # the shift cancels a product
    [(F(1, 2), Q, OPS[0]), (F(-1, 2), OPS[0].apply(Q))],  # the image cancels apply
    [(7, Y * Y, OPS[1]), (_Unreduced(1, -3), Q, OPS[2])],  # an image that is zero
    [(F(5, 6), Q, OPS[2]), (-1, P, (0, 0)), (_Unreduced(4, 6), Q), (F(1, 3), P, (3, 1))],
]


@pytest.mark.parametrize("operands", OPERAND_SUMS)
def test_combination_operands_match_the_chained_reference(operands):
    got = BivariatePoly.combination(operands)
    assert_canonical(got)
    assert got == BivariatePoly(reference(operands))


def test_combination_of_operands_that_cancel_is_the_zero_polynomial():
    for operands in (OPERAND_SUMS[6], OPERAND_SUMS[7], OPERAND_SUMS[5], []):
        got = BivariatePoly.combination(operands)
        assert got.is_zero() and got == BivariatePoly.zero()
        assert_canonical(got)


def test_combination_reads_the_operator_memo_as_apply_does():
    a, b = DiffOp(dict(OPS[2].items())), DiffOp(dict(OPS[2].items()))
    got = BivariatePoly.combination([(1, Q, a)])
    assert got == b.apply(Q) and dict(a.images) == dict(b.images)
    assert BivariatePoly.combination([(1, Q, a)]) == got  # from the filled memo


unreduced = st.builds(
    _Unreduced, st.integers(-20, 20), st.integers(1, 12) | st.integers(-12, -1)
)
operands = st.tuples(
    st.one_of(st.integers(-5, 5), rationals, unreduced),
    polys,
    st.one_of(st.none(), st.tuples(st.integers(0, 3), st.integers(0, 3)), st.sampled_from(OPS)),
).map(lambda op: op[:2] if op[2] is None else op)


@given(st.lists(operands, max_size=5))
def test_combination_operands_match_the_chained_reference_property(operands):
    got = BivariatePoly.combination(operands)
    assert_canonical(got)
    assert coeffs(got) == reference(operands)


def test_records_print_coefficients_as_str_fraction():
    # stored over 12: -9/12 -> -3/4, 24/12 -> 2, -36/12 -> -3; the x^2 terms cancel
    p = BivariatePoly({(0, 0): F(-3, 4), (1, 0): 2, (0, 1): -3, (2, 0): F(5, 6)})
    q = p + BivariatePoly({(2, 0): F(-5, 6), (1, 1): F(1, 12)})
    assert q._den == 12
    assert q.to_records() == [
        {"i": 0, "j": 0, "c": "-3/4"},
        {"i": 1, "j": 0, "c": "2"},
        {"i": 0, "j": 1, "c": "-3"},
        {"i": 1, "j": 1, "c": "1/12"},
    ]
    assert (p - p).to_records() == []


@given(polys)
def test_records_match_str_of_fraction(p):
    assert [r["c"] for r in p.to_records()] == [str(c) for _, c in p.items()]
    assert BivariatePoly.from_records(p.to_records()) == p


# integer, negative and zero coefficients, and sums that cancel to zero
record_coeffs = st.one_of(rationals, st.integers(-(10**30), 10**30), st.just(0))


def terms_of(cls, arity, build=None):
    keys = st.tuples(*[st.integers(0, 3)] * arity)
    maps = st.dictionaries(keys, record_coeffs, max_size=6)
    values = maps.map(build or cls)
    return st.one_of(values, st.tuples(values, values).map(lambda ab: ab[0] - ab[1]))


@given(
    st.one_of(
        terms_of(BivariatePoly, 2),
        terms_of(DiffOp, 4),
        terms_of(GenericOp, 8),
        terms_of(Series2, 4, lambda terms: Series2(6, terms)),
    )
)
def test_records_are_the_lowest_terms_records(value):
    # the reference construction of the records, which a subclass's faster
    # to_records must reproduce, dict key order included
    want = [dict(zip(value.FIELDS, key), c=rational_text(p, q)) for key, p, q in value.lowest_terms()]
    got = value.to_records()
    assert got == want
    assert [list(r) for r in got] == [list(r) for r in want]
    if isinstance(value, Series2):
        assert Series2.from_records(value.order, got) == value
    else:
        assert type(value).from_records(got) == value


@pytest.mark.parametrize(
    "value, text",
    [
        (X * X - F(1, 2) * Y, "BivariatePoly(x^2 - 1/2*y)"),
        (DiffOp({(1, 0, 1, 0): 2, (0, 0, 0, 2): -1}), "DiffOp(2*x*Dx - Dy^2)"),
        (GenericOp({(1, 0, 1, 0, 1, 0, 0, 0): 1, (0, 0, 1, 0, 0, 1, 0, 0): F(-1, 3)}),
         "GenericOp(-1/3*Dx*kappa1 + x*Dx*beta)"),
        (Series2(2, {(1, 0, 0, 1): 3}), "Series2(3*sy)"),
    ],
    ids=["poly", "diffop", "genericop", "series"],
)
def test_repr_of_every_terms_type(value, text):
    # Terms.__repr__ formats str(self): a type without __str__ recurses
    assert repr(value) == text

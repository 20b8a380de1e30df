"""Case data for the six nontrivial Krall-Sheffer families.

Each case (I, II, III, V, VIII, IX) carries a second-order operator L whose
monic polynomial eigenfunctions P_{m,n} live on a triangular lattice, a set
of second-order operators commuting with L, a pair of degree-raising
operators, edge reductions, three-level recurrence tables, and the in-level
action formulas of the commuting operators.  This module is the single
place where those formulas exist as code; everything else consumes it.
Every operator is written once, with beta, kappa1, kappa2 and the level N
as symbols: generic_operators(case) holds one case's L, commuting family,
raising operators and edge operators in one cached record, and each
parameter triple (and N) specialises that one formula.  The recurrence
tails and action rows are each written once too, by ring operations on
whatever scalars the caller passes; action_relations is the rows' checked
numeric wrapper, and recurrence_step the checked wrapper of one table's
_recurrence_steps, whose unreduced pairs build_recurrence reads directly.

Cases IV, VI and VII factor into products of classical one-variable
polynomials and are intentionally not covered.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from random import Random
from typing import Callable, NamedTuple, Optional, Sequence

from .algebra import ONE, X, Y, BivariatePoly, _check_exact, _check_index, _Unreduced
from .errors import ParameterError
from .weyl import DiffOp, GenericOp

CASES = ("I", "II", "III", "V", "VIII", "IX")


def _check_case(case_id: str) -> None:
    if case_id not in CASES:
        raise ParameterError(f"unknown case {case_id!r}; supported cases: {', '.join(CASES)}")


class CaseParams:
    """Parameters selecting one polynomial family.

    Only the checks that hold at every degree are made here.  Validity up to
    degree nmax (beta + k nonzero for every integer 0 <= k <= 2*nmax + 2,
    which keeps the eigenvalues of levels 0..nmax distinct and guards the
    gamma-type denominators of the recurrences) belongs to the table being
    built, and each builder checks it.  Case IX carries no kappa parameters;
    they are stored as 0.

    An immutable value: equal, hashed and printed by its four fields, and
    pickled or copied by constructing it again, so a copy is validated too.
    """

    __slots__ = ("case_id", "beta", "kappa1", "kappa2")

    case_id: str
    beta: Fraction
    kappa1: Fraction
    kappa2: Fraction

    def __init__(
        self,
        case_id: str,
        beta: Fraction,
        kappa1: Fraction = Fraction(0),
        kappa2: Fraction = Fraction(0),
    ):
        setter = object.__setattr__
        setter(self, "case_id", case_id)
        setter(self, "beta", beta)
        setter(self, "kappa1", kappa1)
        setter(self, "kappa2", kappa2)
        # looked up on the class, where the benchmark's tracer wraps it
        self.__post_init__()

    def __post_init__(self):
        _check_case(self.case_id)
        for name in ("beta", "kappa1", "kappa2"):
            value = getattr(self, name)
            _check_exact(name, value)
            object.__setattr__(self, name, Fraction(value))
        if self.case_id in ("V", "VIII") and self.beta == 0:
            raise ParameterError(f"beta must be nonzero for case {self.case_id}")
        if self.case_id == "IX" and (self.kappa1 or self.kappa2):
            raise ParameterError("case IX takes no kappa parameters (pass 0)")

    def _fields(self) -> tuple[str, Fraction, Fraction, Fraction]:
        return (self.case_id, self.beta, self.kappa1, self.kappa2)

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._fields() == other._fields()

    def __hash__(self) -> int:
        return hash(self._fields())

    def __repr__(self) -> str:
        return (
            f"CaseParams(case_id={self.case_id!r}, beta={self.beta!r}, "
            f"kappa1={self.kappa1!r}, kappa2={self.kappa2!r})"
        )

    def __reduce__(self):
        return (CaseParams, self._fields())


def params_to_json(params: CaseParams) -> dict[str, str]:
    """The wire form of the parameter triple, each value as str(Fraction)."""
    return {"beta": str(params.beta), "kappa1": str(params.kappa1), "kappa2": str(params.kappa2)}


def alpha(case_id: str) -> int:
    """Coefficient of the quadratic part of L (read off its x^2 Dx^2 term)."""
    return 0 if case_id in ("V", "VIII") else 1


def _check_node(m: object, n: object) -> tuple[int, int]:
    """The lattice node (m, n), rejected unless both are indices."""
    _check_index("m", m)
    _check_index("n", n)
    return m, n


def eigenvalue(params: CaseParams, N: int) -> Fraction:
    """lambda_N = N((N-1)alpha + beta), the eigenvalue shared by level N."""
    _check_index("N", N)
    return N * ((N - 1) * alpha(params.case_id) + params.beta)


def _denominator(
    b: Fraction | _Unreduced, N: int, offsets: Sequence[int], context: str
) -> Fraction | _Unreduced:
    """prod(b + 2N + c for c in offsets), each factor checked in order (and
    named beta+2N{c}) before any numerator, over Fractions or, in
    recurrence_step, unreduced integer pairs.

    The check does not depend on the numerators it divides: a zero numerator
    over a vanishing factor is a 0/0 limit (beta = 1 at N = 1, where
    beta+2N-3 vanishes); taking it as zero gives a wrong table.
    """
    den = 1
    for c in offsets:
        f = b + (2 * N + c)
        if not f:
            name = "beta+2N" + (f"{c:+d}" if c else "")
            raise ParameterError(f"{context}: denominator {name} vanishes")
        den *= f
    return den


# ---------------------------------------------------------------------------
# Operators
# ---------------------------------------------------------------------------
#
# Each case's operators are written once, side by side, over Q[beta, kappa1,
# kappa2, N], so that an identity among them is proved for all parameters and
# all N by one exact composition; a raising operator is written times its
# structural denominator.  The numeric functions check that denominator and
# specialise the one record, so the builders run exactly the operators the
# proofs cover, and a sampled identity is its proof's residual evaluated at
# the sample.  Each case's record is built once and never changed; the edge
# operators stay witnesses, never derived from L.


class GenericOperators(NamedTuple):
    """One case's operators with beta, kappa1, kappa2 and N left as symbols.

    L has the polynomial eigenfunctions; commuting is the family with
    [L, I_k] = 0, in conventional order; raising is (R+x(N), R+y(N)), each
    times its structural denominator: (beta+2N)(beta+2N-1) for I-III,
    beta+2N-1 for IX, beta^2 for V and VIII's R+x and beta for their R+y.
    edge_operators are the one-variable restrictions of L to the n=0 and m=0
    edges; None marks an edge with no reduction.

    raising_relation and quadratic_relations state the identities among L,
    the I_k and the cleared R+ once, over this ring, and verify evaluates
    each residual at its sample.  verify reads a record itself, so one with
    L, an I_k, an R+ or an edge operator replaced (a mutant) reaches every
    check and every level.
    """

    L: GenericOp
    commuting: tuple[GenericOp, ...]
    raising: tuple[GenericOp, GenericOp]
    edge_operators: tuple[Optional[GenericOp], Optional[GenericOp]]


# 1, x, y, dx, dy, beta, kappa1, kappa2 and N: the symbols of every generic formula
_SYMBOLS = (GenericOp({(0,) * 8: 1}), *map(GenericOp.generator, range(8)))


@lru_cache(maxsize=None)
def generic_operators(case_id: str) -> GenericOperators:
    """The case's operators, built once from its formulas (see GenericOperators)."""
    _check_case(case_id)
    one, x, y, dx, dy, b, k1, k2, n = _SYMBOLS
    g, g1 = b + 2 * n, b + n - one
    if case_id == "I":
        L = (
            (x @ x - x) @ dx @ dx
            + 2 * x @ y @ dx @ dy
            + (y @ y - y) @ dy @ dy
            + (b @ x + k1) @ dx
            + (b @ y + k2) @ dy
        )
        i1 = x @ (one - x - y) @ dx @ dx + (k1 @ (y - one) - (b + k2) @ x) @ dx
        i2 = y @ (one - x - y) @ dy @ dy + (k2 @ (x - one) - (b + k1) @ y) @ dy
        i3 = (
            x @ y @ dx @ dx
            - 2 * x @ y @ dx @ dy
            + x @ y @ dy @ dy
            + (k2 @ x - k1 @ y) @ dx
            - (k2 @ x - k1 @ y) @ dy
        )
        commuting = (i1, i2, i3)
        rx = (
            g1 @ (g @ x + k1 - n)
            + g @ x @ (x - one) @ dx
            + (g @ x @ y + (b + k1) @ y + k2 @ (one - x)) @ dy
            + y @ (x + y - one) @ dy @ dy
        )
        ry = (
            g1 @ (g @ y + k2 - n)
            + g @ y @ (y - one) @ dy
            + (g @ x @ y + (b + k2) @ x + k1 @ (one - y)) @ dx
            + x @ (x + y - one) @ dx @ dx
        )
        ex = x @ (x - one) @ dx @ dx + (b @ x + k1) @ dx
        ey = y @ (y - one) @ dy @ dy + (b @ y + k2) @ dy
    elif case_id == "II":
        L = (
            x @ x @ dx @ dx
            + 2 * x @ y @ dx @ dy
            + (y @ y - y) @ dy @ dy
            + (b @ x + k1) @ dx
            + (b @ y + k2) @ dy
        )
        i1 = x @ x @ dx @ dx + ((b + k2) @ x + k1 @ (one - y)) @ dx
        i2 = x @ y @ dy @ dy + (k1 @ y - k2 @ x) @ dy
        commuting = (i1, i2)
        rx = (
            g1 @ (g @ x + k1)
            + g @ x @ x @ dx
            + (g @ x @ y + k1 @ y - k2 @ x) @ dy
            + x @ y @ dy @ dy
        )
        ry = (
            g1 @ (g @ y + k2 - n)
            + (g @ x @ y + (b + k2) @ x + k1 @ (one - y)) @ dx
            + g @ y @ (y - one) @ dy
            + x @ x @ dx @ dx
        )
        ex = x @ x @ dx @ dx + (b @ x + k1) @ dx
        ey = y @ (y - one) @ dy @ dy + (b @ y + k2) @ dy
    elif case_id == "III":
        L = (
            x @ x @ dx @ dx
            + 2 * x @ y @ dx @ dy
            + (y @ y + x) @ dy @ dy
            + (b @ x + k1) @ dx
            + (b @ y + k2) @ dy
        )
        i1 = (
            2 * x @ x @ dx @ dy
            + x @ y @ dy @ dy
            + (k2 @ x - k1 @ y) @ dx
            + (b @ x + k1) @ dy
        )
        i2 = x @ x @ dy @ dy + (k2 @ x - k1 @ y) @ dy
        commuting = (i1, i2)
        rx = (
            g1 @ (g @ x + k1)
            + g @ x @ x @ dx
            + (g @ x @ y + k1 @ y - k2 @ x) @ dy
            - x @ x @ dy @ dy
        )
        ry = (
            g1 @ (g @ y + k2)
            + (g @ x @ y + k2 @ x - k1 @ y) @ dx
            + (g @ y @ y + 2 * (b + n) @ x + k1) @ dy
            + 2 * x @ x @ dx @ dy
            + x @ y @ dy @ dy
        )
        ex, ey = x @ x @ dx @ dx + (b @ x + k1) @ dx, None
    elif case_id == "V":
        L = (
            2 * x @ dx @ dy
            + y @ dy @ dy
            + (b @ x + k1) @ dx
            + (b @ y + k2) @ dy
        )
        commuting = (
            x @ x @ dx @ dx + (k2 @ x - k1 @ y) @ dx,
            x @ dy @ dy + (b @ x + k1) @ dy,
        )
        rx = x @ dy @ dy + (2 * b @ x + k1) @ dy + b @ (b @ x + k1)
        ry = x @ dx + y @ dy + b @ y + n + k2
        ex = (b @ x + k1) @ dx
        ey = y @ dy @ dy + (b @ y + k2) @ dy
    elif case_id == "VIII":
        L = (
            y @ dx @ dx
            + 2 * dx @ dy
            + (b @ x + k1) @ dx
            + (b @ y + k2) @ dy
        )
        i1 = dx @ dx + (b @ y + k2) @ dx
        i2 = (
            (y @ y - x) @ dx @ dx
            + 2 * y @ dx @ dy
            + dy @ dy
            + (k1 @ y - k2 @ x) @ dx
            + (b @ x + k1) @ dy
        )
        commuting = (i1, i2)
        rx = b @ b @ x + b @ k1 + b @ dy + (2 * b @ y + k2) @ dx + dx @ dx
        ry = b @ y + k2 + dx
        ex, ey = None, (b @ y + k2) @ dy
    else:  # IX
        L = (
            (x @ x - one) @ dx @ dx
            + 2 * x @ y @ dx @ dy
            + (y @ y - one) @ dy @ dy
            + b @ x @ dx
            + b @ y @ dy
        )
        w = one - x @ x - y @ y
        commuting = (
            w @ dx @ dx + (one - b) @ x @ dx,
            w @ dy @ dy + (one - b) @ y @ dy,
            x @ dy - y @ dx,
            2 * w @ dx @ dy + (one - b) @ y @ dx + (one - b) @ x @ dy,
        )
        rx = x @ y @ dy + (x @ x - one) @ dx + g1 @ x
        ry = x @ y @ dx + (y @ y - one) @ dy + g1 @ y
        ex = (x @ x - one) @ dx @ dx + b @ x @ dx
        ey = (y @ y - one) @ dy @ dy + b @ y @ dy
    return GenericOperators(L, commuting, (rx, ry), (ex, ey))


def operator_L(params: CaseParams) -> DiffOp:
    """The case's second-order operator with polynomial eigenfunctions: a
    fresh DiffOp, with its own memo of monomial images, on every call."""
    return generic_operators(params.case_id).L.at(params)


def commuting_ops(params: CaseParams) -> tuple[DiffOp, ...]:
    """The case's commuting family ([L, I_k] = 0), in conventional order."""
    return tuple(op.at(params) for op in generic_operators(params.case_id).commuting)


def raising_denominators(params: CaseParams, N: int) -> tuple[Fraction, Fraction]:
    """The structural denominators of (R+x(N), R+y(N)) (see GenericOperators),
    each checked: a vanishing one raises raising_ops' ParameterError."""
    _check_index("N", N)
    b, c = params.beta, params.case_id
    if c in ("V", "VIII"):
        return b * b, b  # beta != 0 is a rule of CaseParams
    offsets = (-1,) if c == "IX" else (-1, 0)
    return (_denominator(b, N, offsets, f"case {c} raising operator at N={N}"),) * 2


def raising_ops(params: CaseParams, N: int) -> tuple[DiffOp, DiffOp]:
    """The degree-N members (R+x, R+y) of the raising families.

    R+x maps P_{m,n} with m+n = N to P_{m+1,n}, and R+y to P_{m,n+1}.
    """
    ops = generic_operators(params.case_id).raising
    return tuple(op.at(params, N) * (1 / d) for op, d in zip(ops, raising_denominators(params, N)))


def raising_relation(case_id: str, axis: str, L: GenericOp, r: GenericOp) -> GenericOp:
    """The residual of the commutation relation of L and r = R+axis(N) times
    its structural denominator (see GenericOperators), with nothing divided:
    [L, r] is a front factor times L - lambda_N plus (lambda_{N+1} - lambda_N) r,
    both cleared of the denominator.  It vanishes for every parameter triple
    and N exactly when the relation holds; its .at(params, N) is the relation
    at one sample."""
    _check_case(case_id)
    if axis not in ("x", "y"):
        raise ValueError(f"unknown axis {axis!r}")
    one, x, y, _, _, b, _, _, n = _SYMBOLS
    if case_id == "VIII" or (case_id, axis) == ("V", "x"):
        return L.commutator(r) - b @ r
    shifted = L - n @ ((n - one) * alpha(case_id) + b)
    g, v = b + 2 * n, x if axis == "x" else y
    if case_id == "V":
        rhs = shifted + b @ r
    elif case_id == "IX":
        rhs = 2 * v @ shifted + g @ r
    else:
        front = 2 * v - one if (case_id, axis) in (("I", "x"), ("I", "y"), ("II", "y")) else 2 * v
        rhs = g @ (front @ shifted + r)
    return L.commutator(r) - rhs


def quadratic_relations(
    case_id: str, L: GenericOp, commuting: Sequence[GenericOp]
) -> tuple[GenericOp, GenericOp]:
    """The residuals of the two case IX quadratic relations among L and
    I_1..I_4, zero for every beta exactly when the relations hold."""
    if case_id != "IX":
        raise ValueError("quadratic relations apply to case IX only")
    one, _, _, _, _, b, *_ = _SYMBOLS
    i1, i2, i3, i4 = commuting
    first = i1 + i2 + i3 @ i3 + L
    second = (
        2 * (i1 @ i2 + i2 @ i1)
        - (b @ b - 4 * b - one) @ (i1 + i2)
        - (b - one) @ (b - 5 * one) @ L
        - i4 @ i4
    )
    return first, second


def edge_operators(params: CaseParams) -> tuple[Optional[DiffOp], Optional[DiffOp]]:
    """One-variable restrictions of L on the n=0 and m=0 edges, where they exist.

    Case III has no right-edge reduction (its right-edge polynomials involve
    both variables) and case VIII no left-edge one.  Each operator returned
    satisfies op(P_edge) = lambda_k * P_edge with the case's eigenvalue.
    """
    ops = generic_operators(params.case_id).edge_operators
    return tuple(None if op is None else op.at(params) for op in ops)


# ---------------------------------------------------------------------------
# Three-level recurrences
# ---------------------------------------------------------------------------


class RecurrenceStep(NamedTuple):
    """One application of a three-level recurrence.

    P_target = v * P_source + sum of c * P_(mm,nn) over tail, v being x or y
    as target - source is (1, 0) or (0, 1).  The tail keeps every stencil
    point, zero coefficients and out-of-range indices included;
    triangle.stencil_sum, the one place the rule is enforced, raises
    StencilError when an out-of-range point carries a nonzero coefficient.
    The coefficients are Fractions, or inside build_recurrence unreduced
    pairs (algebra._Unreduced).
    """

    target: tuple[int, int]
    source: tuple[int, int]
    tail: tuple[tuple[int, int, Fraction | _Unreduced], ...]


def _unreduced_params(params: CaseParams) -> tuple[_Unreduced, _Unreduced, _Unreduced]:
    """(beta, kappa1, kappa2) as algebra._Unreduced, the numeric wrappers' scalars."""
    values = (params.beta, params.kappa1, params.kappa2)
    return tuple(_Unreduced(v.numerator, v.denominator) for v in values)


def recurrence_step(params: CaseParams, axis: str, m: int, n: int) -> RecurrenceStep:
    """The recurrence producing P_{m+1,n} (axis x) or P_{m,n+1} (axis y)
    from levels m+n and m+n-1.

    It checks the axis and the node, takes the step from one table's
    _recurrence_steps, and reduces each coefficient to a Fraction once."""
    if axis not in ("x", "y"):
        raise ValueError(f"unknown axis {axis!r}")
    _check_node(m, n)
    target, source, tail = _recurrence_steps(params)(axis, m, n)
    return RecurrenceStep(target, source, tuple((mm, nn, q.fraction()) for mm, nn, q in tail))


def _recurrence_steps(params: CaseParams) -> Callable[[str, int, int], RecurrenceStep]:
    """One table's steps: step(axis, m, n) is recurrence_step's step, axis
    and node unchecked, its coefficients left unreduced pairs.  Each (N,
    offsets) denominator is checked once, by the first step that needs it."""
    case_id = params.case_id
    b, k1, k2 = _unreduced_params(params)
    dens: dict[tuple[int, tuple[int, ...]], _Unreduced] = {}

    def step(axis: str, m: int, n: int) -> RecurrenceStep:
        N = m + n

        def den(offsets: tuple[int, ...]) -> _Unreduced:
            d = dens.get((N, offsets))
            if d is None:
                ctx = f"case {case_id} recurrence at (m,n)=({m},{n})"
                d = dens[(N, offsets)] = _denominator(b, N, offsets, ctx)
            return d

        tail = _recurrence_tail(case_id, axis, b, k1, k2, m, n, den)
        target = (m + 1, n) if axis == "x" else (m, n + 1)
        return RecurrenceStep(target, (m, n), tuple((m + dm, n + dn, q) for dm, dn, q in tail))

    return step


def _recurrence_tail(case_id: str, axis: str, b, k1, k2, m, n, den) -> tuple:
    """The tail of recurrence_step as (dm, dn, coefficient) offsets from (m, n),
    by ring operations only: b, k1, k2, m and n are any scalars that support
    + - * / ** with ints, and den(offsets) is the structural denominator
    prod(b + 2N + c for c in offsets), N = m + n, formed by the caller."""
    if case_id in ("I", "II", "III"):
        da = den((0, -2))
        db = den((-1, -2, -2, -3))

    if case_id == "I":
        if axis == "x":
            return (
                (0, 0, ((b + 2 * n - 2) * (k1 - 2 * m) - 2 * m * (m + 1)) / da),
                (1, -1, 2 * n * (n - k2 - 1) / da),
                (-1, 0, m * (b + m + 2 * n - 2) * (k1 - m + 1) * (b + k1 + m + 2 * n - 1) / db),
                (0, -1, n * (k2 - n + 1) * ((b + 2 * n - 3) * (k1 - 2 * m) - 2 * m * (m + 1)) / db),
                (1, -2, -n * (n - 1) * (k2 - n + 1) * (k2 - n + 2) / db),
            )
        else:
            return (
                (0, 0, ((b + 2 * m - 2) * (k2 - 2 * n) - 2 * n * (n + 1)) / da),
                (-1, 1, 2 * m * (m - k1 - 1) / da),
                (0, -1, n * (b + 2 * m + n - 2) * (k2 - n + 1) * (b + k2 + 2 * m + n - 1) / db),
                (-1, 0, m * (k1 - m + 1) * ((b + 2 * m - 3) * (k2 - 2 * n) - 2 * n * (n + 1)) / db),
                (-2, 1, -m * (m - 1) * (k1 - m + 1) * (k1 - m + 2) / db),
            )
    elif case_id == "II":
        if axis == "x":
            return (
                (0, 0, k1 * (b + 2 * n - 2) / da),
                (1, -1, 2 * n * (n - k2 - 1) / da),
                (-1, 0, m * k1 * k1 * (b + m + 2 * n - 2) / db),
                (0, -1, n * k1 * (b + 2 * n - 3) * (k2 - n + 1) / db),
                (1, -2, -n * (n - 1) * (k2 - n + 1) * (k2 - n + 2) / db),
            )
        else:
            return (
                (0, 0, ((b + 2 * m - 2) * (k2 - 2 * n) - 2 * n * (n + 1)) / da),
                (-1, 1, -2 * m * k1 / da),
                (0, -1, n * (b + 2 * m + n - 2) * (k2 - n + 1) * (b + k2 + 2 * m + n - 1) / db),
                (-1, 0, m * k1 * ((b + 2 * m - 3) * (k2 - 2 * n) - 2 * n * (n + 1)) / db),
                (-2, 1, -m * (m - 1) * k1 * k1 / db),
            )
    elif case_id == "III":
        if axis == "x":
            return (
                (0, 0, k1 * (b + 2 * n - 2) / da),
                (1, -1, -2 * n * k2 / da),
                (2, -2, -2 * n * (n - 1) / da),
                (-1, 0, m * k1 * k1 * (b + m + 2 * n - 2) / db),
                (0, -1, n * k1 * k2 * (b + 2 * n - 3) / db),
                (1, -2, n * (n - 1) * (k1 * (b + 2 * n - 4) - k2 * k2) / db),
                (2, -3, -2 * n * (n - 1) * (n - 2) * k2 / db),
                (3, -4, -n * (n - 1) * (n - 2) * (n - 3) / db),
            )
        else:
            return (
                (0, 0, k2 * (b + 2 * m - 2) / da),
                (1, -1, 2 * n * (b + 2 * m + n - 1) / da),
                (-1, 1, -2 * m * k1 / da),
                (2, -3, n * (n - 1) * (n - 2) * (2 * b + 4 * m + 3 * n - 3) / db),
                # the beta coefficient here is 3, pinned by oracle equivalence
                (1, -2, n * (n - 1) * (3 * b + 6 * m + 4 * n - 5) * k2 / db),
                (0, -1,
                 n * ((b + 2 * m + n - 2) * (k2 * k2 - k1 * (b + 3 * n - 3)) + k1 * (1 - n * n)) / db),
                (-1, 0, m * k1 * k2 * (b + 2 * m - 3) / db),
                (-2, 1, -m * (m - 1) * k1 * k1 / db),
            )
    elif case_id == "V":
        if axis == "x":
            return (
                (0, 0, k1 / b),
                (1, -1, 2 * n / b),
                (1, -2, -n * (n - 1) / b**2),
                (0, -1, -n * k1 / b**2),
            )
        else:
            return (
                (0, 0, (k2 + 2 * (m + n)) / b),
                (0, -1, -n * (k2 + 2 * m + n - 1) / b**2),
                (-1, 0, -m * k1 / b**2),
            )
    elif case_id == "VIII":
        if axis == "x":
            return (
                (0, 0, k1 / b),
                (-1, 1, 2 * m / b),
                (0, -1, n / b),
                (-1, 0, -m * k2 / b**2),
            )
        else:
            return ((0, 0, k2 / b), (-1, 0, m / b))
    else:  # IX
        dc = den((-1, -3))
        if axis == "x":
            return (
                (1, -2, n * (n - 1) / dc),
                (-1, 0, -m * (b + m + 2 * n - 2) / dc),
            )
        else:
            return (
                (-2, 1, m * (m - 1) / dc),
                (0, -1, -n * (b + 2 * m + n - 2) / dc),
            )


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


class ActionRelation(NamedTuple):
    """I_k P_{m,n} + self_coeff(m,n) P_{m,n} = sum c * P_{m+dm,n+dn}.

    The neighbor offsets keep the level m+n fixed; coefficients vanish
    whenever a neighbor would leave the triangle.  triangle.stencil_sum
    enforces that rule for the transfer builder and the action-formula
    audit alike.
    """

    self_coeff: Callable[[int, int], Fraction | int]
    neighbors: Callable[[int, int], tuple[tuple[int, int, Fraction | int], ...]]


def _reduced(v: _Unreduced | int) -> Fraction | int:
    return v.fraction() if type(v) is _Unreduced else v


def action_relations(params: CaseParams) -> tuple[ActionRelation, ...]:
    """The in-level shift relations of the commuting operators, one
    (self_coeff, neighbors) row each: the k-th belongs to I_k, the k-th
    operator of commuting_ops, and case I states none for I3.  Each row
    checks its node as recurrence_step does, runs on unreduced pairs and
    reduces each value once: a value with a parameter in it is a Fraction,
    any other an int."""
    return tuple(
        ActionRelation(
            lambda m, n, s=s: _reduced(s(*_check_node(m, n))),
            lambda m, n, nb=nb: tuple((dm, dn, _reduced(c)) for dm, dn, c in nb(*_check_node(m, n))),
        )
        for s, nb in _action_rows(params.case_id, *_unreduced_params(params))
    )


def _action_rows(case_id: str, b, k1, k2) -> tuple:
    """The (self_coeff, neighbors) row functions of action_relations, by ring
    operations only on the scalars b, k1, k2 and the node the caller passes."""
    if case_id == "I":
        return (
            (lambda m, n: m * (b + k2 + m - 1), lambda m, n: ((-1, 1, m * (k1 - m + 1)),)),
            (lambda m, n: n * (b + k1 + n - 1), lambda m, n: ((1, -1, n * (k2 - n + 1)),)),
        )
    elif case_id == "II":
        return (
            (lambda m, n: -m * (b + k2 + m - 1), lambda m, n: ((-1, 1, -m * k1),)),
            (lambda m, n: -n * k1, lambda m, n: ((1, -1, -n * (k2 - n + 1)),)),
        )
    elif case_id == "III":
        return (
            (lambda m, n: -m * k2, lambda m, n: ((-1, 1, -m * k1), (1, -1, n * (b + 2 * m + n - 1)))),
            (lambda m, n: n * k1, lambda m, n: ((1, -1, n * k2), (2, -2, n * (n - 1)))),
        )
    elif case_id == "V":
        return (
            (lambda m, n: -m * (k2 + m - 1), lambda m, n: ((-1, 1, -m * k1),)),
            # I2 has no diagonal part: its top-degree action on x^m y^n
            # is the single shift n*b*x^(m+1)y^(n-1)
            (lambda m, n: 0, lambda m, n: ((1, -1, n * b),)),
        )
    elif case_id == "VIII":
        return (
            (lambda m, n: 0, lambda m, n: ((-1, 1, m * b),)),
            (lambda m, n: m * k2, lambda m, n: ((1, -1, n * b), (-1, 1, m * k1), (-2, 2, m * (m - 1)))),
        )
    else:  # IX
        return (
            (lambda m, n: m * (b + m - 2), lambda m, n: ((-2, 2, -m * (m - 1)),)),
            (lambda m, n: n * (b + n - 2), lambda m, n: ((2, -2, -n * (n - 1)),)),
            (lambda m, n: 0, lambda m, n: ((1, -1, n), (-1, 1, -m))),
            (lambda m, n: 0, lambda m, n: ((1, -1, (1 - b - 2 * m) * n), (-1, 1, (1 - b - 2 * n) * m))),
        )


# ---------------------------------------------------------------------------
# Parameter sampling
# ---------------------------------------------------------------------------


def sample_params(case_id: str, rng: Random, nmax_hint: int = 8) -> CaseParams:
    """Draw a random parameter triple, valid at every nmax.

    beta is a positive non-integer rational, so every beta + k (k integer)
    is nonzero; the kappas are non-integer, which keeps all transfer-route
    division coefficients nonzero.  nmax_hint has no effect; it is accepted
    for callers that still pass it.
    """

    def non_integer(lo_num: int, hi_num: int) -> Fraction:
        den = rng.choice((2, 3, 4, 5, 7))
        num = rng.randrange(lo_num * den, hi_num * den + 1)
        while num % den == 0:
            num = rng.randrange(lo_num * den, hi_num * den + 1)
        return Fraction(num, den)

    beta = non_integer(1, 12)
    if case_id == "IX":
        return CaseParams("IX", beta)
    return CaseParams(case_id, beta, non_integer(-9, 9), non_integer(-9, 9))

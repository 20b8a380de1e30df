"""The triangular table of monic eigenfunctions, built four independent ways.

Builders:
  oracle     - exact linear solve of (L - lambda) P = 0 per entry,
  recurrence - three-level recurrence tables, level by level,
  ladder     - repeated application of the raising operators,
  transfer   - edge recurrences plus in-level commuting-operator shifts.

All four must agree term for term; the verification module enforces that.
"""

from __future__ import annotations

import json
from itertools import chain, islice
from json.encoder import encode_basestring_ascii as _encode_str  # as json.dumps escapes
from math import gcd, lcm, prod
from typing import Iterable, Iterator, NamedTuple

from .algebra import (
    ONE, BivariatePoly, Scalar, _check_choice, _check_index, _Unreduced, parse_rational, signed_sum
)
from .catalog import (
    CaseParams,
    RecurrenceStep,
    _recurrence_steps,
    action_relations,
    alpha,
    commuting_ops,
    eigenvalue,
    generic_operators,
    operator_L,
    params_to_json,
    raising_denominators,
    recurrence_step,
    seed_polys,
)
from .errors import AdmissibilityError, ParameterError, StencilError, TransferError
from .weyl import _Family, _Level


class Triangle(NamedTuple):
    """All P_{m,n} with m+n <= nmax for one case and parameter choice."""

    params: CaseParams
    nmax: int
    method: str
    entries: dict[tuple[int, int], BivariatePoly]

    def entry(self, m: int, n: int) -> BivariatePoly:
        return self.entries[(m, n)]

    def nodes(self) -> list[tuple[int, int]]:
        """Lattice points in canonical order: by level, left to right."""
        return list(_lattice(self.nmax))

    def same_polys(self, other: "Triangle") -> bool:
        return self.entries == other.entries


def _lattice(nmax: int) -> Iterator[tuple[int, int]]:
    return ((m, N - m) for N in range(nmax + 1) for m in range(N, -1, -1))


def _check_nmax(params: CaseParams, nmax: int) -> None:
    """The validity rule of a table up to degree nmax.  Where alpha = 1 (I,
    II, III, IX) it is beta + k != 0 for 0 <= k <= 2*nmax + 2, which keeps
    lambda_N != lambda_d for d < N <= nmax and guards the factors
    beta + 2N + c.  V and VIII (alpha = 0) need only beta != 0, a rule of
    CaseParams: lambda_N = N beta, and their steps divide only by beta."""
    _check_index("nmax", nmax)
    bound = 2 * nmax + 2
    if alpha(params.case_id) and params.beta.denominator == 1 and -bound <= params.beta <= 0:
        raise ParameterError(
            f"beta = {params.beta} violates the rule beta + k != 0 for "
            f"0 <= k <= {bound} (fails at k = {-params.beta})"
        )


# ---------------------------------------------------------------------------
# Oracle: exact eigen-solve
# ---------------------------------------------------------------------------


def build_oracle(params: CaseParams, nmax: int) -> Triangle:
    """Solve (L - lambda_N) P = 0 for the monic representative of each (m, n).

    An admissible L sends each degree-d monomial to lambda_d times itself
    plus terms of lower degree.  When (m, n) is solved at level N = m + n,
    the image of x^m y^n is read once from L's memo (``DiffOp.images``),
    checked for that, and its lower terms are kept.  So (L - lambda_N) acts
    on a degree-d monomial as (lambda_d - lambda_N) times itself plus its
    lower terms, and with P = x^m y^n + lower terms the system is triangular
    by total degree and solved exactly by back-substitution.

    Each level fixes one denominator before it solves its entries, as
    fraction-free elimination with exact division does (Bareiss 1968).
    Write -1 / (lambda_d - lambda_N) = fn_d / fd_d in lowest terms and let
    dL be the denominator of L's images; then D_N is dL^N times the product
    of fd_d over the d < N with lambda_d != lambda_N.  Once per table, x^i
    y^j is numbered (i+j)(i+j+1)/2 + j, so degree d is one slice, and the
    lower image terms are kept as (number, weight) pairs.  The residual,
    (L - lambda_N) applied to the partial P, is held as integer numerators
    over D_N on one list indexed by that number.  The head is D_N x^m y^n,
    and from degree N - 1 down, layer d of P is the degree-d slice times
    fn_d, divided by fd_d: it cancels that slice.  The head and each layer
    add, for each of their terms c x^a y^b, c * w divided by dL at each
    lower term w x^i y^j of the image of x^a y^b.  Every layer goes straight
    into the entry's one dict over D_N, which is reduced once.

    Every division is exact.  A layer reached from the head through layers
    d_1 > ... > d_k has a denominator that divides dL^k fd_(d_1)...fd_(d_k),
    and its contributions to the slices below have one that divides
    dL^(k+1) fd_(d_1)...fd_(d_k).  Both divide D_N, because k + 1 <= N: a
    layer with lower terms has degree at least 1, and the layers above it
    have distinct degrees below N.  As D_N takes all of dL^N, a contribution
    to a slice whose eigenvalue coincides with lambda_N is exact, and so
    nonzero if its value is, and the coincidence is still raised.
    """
    _check_nmax(params, nmax)
    L = operator_L(params)
    images, dL = L.images, L._den
    lams = [eigenvalue(params, N) for N in range(nmax + 1)]
    # lambda_N = e[N] / q, so -1 / (lambda_d - lambda_N) = q / (e[N] - e[d])
    q = lcm(*(lam.denominator for lam in lams))
    e = [lam.numerator * (q // lam.denominator) for lam in lams]
    # keys[k] is monomial number k; lower[k] its image less lambda x^i y^j,
    # as (number, numerator over dL) pairs
    keys = list(_lattice(nmax))
    lower: list[list[tuple[int, int]]] = []
    entries: dict[tuple[int, int], BivariatePoly] = {}
    for N, eN in enumerate(e):
        # (fn_d, fd_d) for d < N, fd_d > 0, None where lambda_d = lambda_N
        factors: list[tuple[int, int] | None] = []
        for ed in e[:N]:
            diff = eN - ed
            g = gcd(q, diff) if diff > 0 else -gcd(q, diff)
            factors.append((q // g, diff // g) if diff else None)
        D = dL**N * prod(fd for _, fd in filter(None, factors))
        pdL = eN * dL
        head = D // dL  # the head's numerator D over dL (no lower terms at N = 0)
        for m in range(N, -1, -1):
            n = N - m
            image = dict(images[(m, n)])
            own = image.pop((m, n), 0)
            d = max((i + j for i, j in image), default=-1)
            if own * q != pdL:  # the residual keeps a multiple of x^m y^n
                d = max(d, N)
            if d >= N:
                raise AdmissibilityError(
                    f"residual degree {d} did not drop below {N} at "
                    f"(m,n)=({m},{n}) for {params}"
                )
            rest = [((i + j) * (i + j + 1) // 2 + j, w) for (i, j), w in image.items()]
            lower.append(rest)
            # numerators over D: residual[k] the residual's term at number k
            # (all of degree below N), out the head and the layers of P
            residual = [0] * (N * (N + 1) // 2)
            for k, w in rest:
                residual[k] = head * w
            out: dict[tuple[int, int], int] = {(m, n): D}
            for d in range(N - 1, -1, -1):
                start, stop = d * (d + 1) // 2, (d + 1) * (d + 2) // 2
                if not any(residual[start:stop]):
                    continue
                factor = factors[d]
                if factor is None:
                    raise AdmissibilityError(
                        f"eigenvalues of degrees {d} and {N} coincide at "
                        f"(m,n)=({m},{n}) for {params}"
                    )
                fn, fd = factor
                for k in range(start, stop):
                    c = residual[k]
                    if not c:
                        continue
                    c = out[keys[k]] = c * fn // fd
                    c //= dL  # exact wherever lower[k] is not empty
                    for k2, w in lower[k]:
                        residual[k2] += c * w
            entries[(m, n)] = BivariatePoly._wrap(out, D)
    return Triangle(params, nmax, "oracle", entries)


# ---------------------------------------------------------------------------
# Recurrence: three-level stencils
# ---------------------------------------------------------------------------


def stencil_sum(
    entries: dict[tuple[int, int], BivariatePoly],
    terms: Iterable[tuple[int, int, Scalar | _Unreduced]],
    extra: Iterable[tuple] = (),
    scale: Scalar | _Unreduced = 1,
) -> BivariatePoly:
    """Sum of scale * c * P_(mm,nn) over a relation's (mm, nn, c) terms,
    plus the extra operands of BivariatePoly.combination (c * p,
    c * x^i y^j * p or c * A(p)), formed as one combination: one common
    denominator, one integer accumulation and one gcd.

    The one place the stencil rule is enforced: an operand with a zero
    coefficient is skipped, in terms and in extra alike, and a nonzero
    coefficient on a point outside the triangle is a coefficient-table bug,
    raised as StencilError naming c as given, an unreduced pair by its
    reduced value.
    """
    operands = [operand for operand in extra if operand[0]]
    sn, sd = scale.numerator, scale.denominator
    for mm, nn, c in terms:
        if not c:
            continue
        if mm < 0 or nn < 0:
            raise StencilError(
                f"nonzero coefficient {c} multiplies out-of-range entry ({mm},{nn})"
            )
        if sd != 1 or sn != 1:
            c = _Unreduced(c.numerator * sn, c.denominator * sd)
        operands.append((c, entries[(mm, nn)]))
    return BivariatePoly.combination(operands)


def _apply_step(
    step: RecurrenceStep, entries: dict[tuple[int, int], BivariatePoly]
) -> BivariatePoly:
    """Evaluate one recurrence step against already-built entries: v * P_source
    enters as one key shift by target - source."""
    (tm, tn), (sm, sn) = step.target, step.source
    return stencil_sum(entries, step.tail, [(1, entries[step.source], (tm - sm, tn - sn))])


def build_recurrence(params: CaseParams, nmax: int) -> Triangle:
    """Fill the triangle level by level from the degree <= 1 seeds.

    The route names only an axis, and the step to target (a, c) is read from
    (a - 1, c) on x or from (a, c - 1) on y, so it is that target's step by
    construction.  Both relations hold at every node, and every case takes
    one route: y where a < c (the right edge, a = 0, included), x elsewhere,
    so the table reads each case's relations on both axes off the edges.
    The steps are the unreduced pairs of one catalog._recurrence_steps.
    """
    _check_nmax(params, nmax)
    entries = {
        key: p for key, p in seed_polys(params).items() if key[0] + key[1] <= nmax
    }
    steps = _recurrence_steps(params)
    for T in range(2, nmax + 1):
        for a in range(T, -1, -1):
            c = T - a
            step = steps("y", a, c - 1) if a < c else steps("x", a - 1, c)
            entries[(a, c)] = _apply_step(step, entries)
    return Triangle(params, nmax, "recurrence", entries)


# ---------------------------------------------------------------------------
# Ladder: raising operators
# ---------------------------------------------------------------------------


def build_ladder(params: CaseParams, nmax: int) -> Triangle:
    """Raise level N into level N + 1: every (m, n) of level N to (m+1, n)
    with R+x(N), and (0, N) to (0, N+1) with R+y(N).

    Each raising family of the record is specialised once per table, at the
    table's parameters with N free, and keeps one memo of monomial images
    whose weights are polynomials in N.  Each level checks its structural
    denominators d(N) before any arithmetic, then reads R+(N) = family(N) /
    d(N) through a memo of its own, which evaluates each image it is asked
    for once, at N.
    """
    _check_nmax(params, nmax)
    entries: dict[tuple[int, int], BivariatePoly] = {(0, 0): ONE}
    families = [_Family(op, params) for op in generic_operators(params.case_id).raising]
    for N in range(nmax):
        rx, ry = map(_Level, families, (N, N), raising_denominators(params, N))
        for m in range(N, -1, -1):
            entries[(m + 1, N - m)] = rx.apply(entries[(m, N - m)])
        entries[(0, N + 1)] = ry.apply(entries[(0, N)])
    return Triangle(params, nmax, "ladder", entries)


# ---------------------------------------------------------------------------
# Transfer: edge recurrences + in-level shifts
# ---------------------------------------------------------------------------

# case -> (relation index, unknown neighbor offset)
_TRANSFER_ROUTE: dict[str, tuple[int, tuple[int, int]]] = {
    "I": (0, (-1, 1)),
    "II": (0, (-1, 1)),
    "III": (0, (-1, 1)),
    "V": (1, (1, -1)),
    "VIII": (1, (1, -1)),
    "IX": (2, (-1, 1)),
}


def build_transfer(params: CaseParams, nmax: int) -> Triangle:
    """Build by its 3-point recurrence each edge that has a one-variable
    operator in the case's record (GenericOperators.edge_operators: the
    n = 0 edge by x, the m = 0 edge by y), then solve the in-level action
    formula of one commuting operator for the missing neighbor.

    The sweep (each source with its neighbor coefficients) is laid out
    once: it starts at the corner the unknown offset points away from,
    stops before the target leaves the triangle and skips the targets the
    edges hold.  Every division coefficient on it is checked before any
    work; vanishing ones raise TransferError naming each node (the
    recurrence builder is the documented fallback).
    """
    _check_nmax(params, nmax)
    rel_index, (du, dv) = _TRANSFER_ROUTE[params.case_id]
    left, right = (op is not None for op in generic_operators(params.case_id).edge_operators)
    rel = action_relations(params)[rel_index]
    op = commuting_ops(params)[rel_index]
    sweep = []  # per level: (m, n, unknown's coefficient, known neighbor terms)
    for T in range(2, nmax + 1):
        level = []
        for m in range(T, 0, -1) if du < 0 else range(T):
            n = T - m
            if left and n + dv == 0 or right and m + du == 0:
                continue
            known = {(m + dm, n + dn): c for dm, dn, c in rel.neighbors(m, n)}
            coeff_u = known.pop((m + du, n + dv), 0)
            level.append((m, n, coeff_u, [(mm, nn, c) for (mm, nn), c in known.items()]))
        sweep.append(level)
    bad = [f"(m,n)=({m},{n})" for level in sweep for m, n, coeff_u, _ in level if not coeff_u]
    if bad:
        raise TransferError(
            f"case {params.case_id} transfer route divides by zero at {', '.join(bad)}; "
            "fall back to the recurrence builder"
        )
    entries = {
        key: p for key, p in seed_polys(params).items() if key[0] + key[1] <= nmax
    }
    for T, level in enumerate(sweep, start=2):
        if left:
            entries[(T, 0)] = _apply_step(recurrence_step(params, "x", T - 1, 0), entries)
        if right:
            entries[(0, T)] = _apply_step(recurrence_step(params, "y", 0, T - 1), entries)
        for m, n, coeff_u, known in level:
            # P_u = (op P + s P - sum of the known neighbors) / c_u, with 1/c_u
            # as an unreduced integer pair (its denominator may be negative)
            P = entries[(m, n)]
            inv = _Unreduced(coeff_u.denominator, coeff_u.numerator)
            extra = [(inv * rel.self_coeff(m, n), P), (inv, P, op)]
            entries[(m + du, n + dv)] = stencil_sum(entries, known, extra, -inv)
    return Triangle(params, nmax, "transfer", entries)


BUILDERS = {
    "oracle": build_oracle,
    "recurrence": build_recurrence,
    "ladder": build_ladder,
    "transfer": build_transfer,
}


# ---------------------------------------------------------------------------
# Serialization
# ---------------------------------------------------------------------------


def triangle_to_json(t: Triangle) -> dict:
    return {
        "case": t.params.case_id,
        **params_to_json(t.params),
        "nmax": t.nmax,
        "method": t.method,
        "polys": [
            {"m": m, "n": n, "terms": t.entry(m, n).to_records()}
            for (m, n) in t.nodes()
        ],
    }


def triangle_from_json(doc: object) -> Triangle:
    """Read a triangle_to_json document back, rejecting a malformed one with a
    ValueError that names the problem."""
    if not isinstance(doc, dict):
        raise ValueError("a triangle JSON document must be an object")
    for key in ("case", "beta", "kappa1", "kappa2", "nmax", "polys"):
        if key not in doc:
            raise ValueError(f"triangle JSON lacks {key!r}")
    for key in ("beta", "kappa1", "kappa2"):
        if not isinstance(doc[key], str):
            raise ValueError(f"{key} must be a rational string like \"7/2\", not {doc[key]!r}")
    if not isinstance(doc["polys"], list):
        raise ValueError("polys must be a list of {m, n, terms} objects")
    method = doc.get("method", "oracle")
    _check_choice("method", method, tuple(BUILDERS))
    params = CaseParams(
        doc["case"],
        parse_rational(doc["beta"]),
        parse_rational(doc["kappa1"]),
        parse_rational(doc["kappa2"]),
    )
    nmax = doc["nmax"]
    _check_nmax(params, nmax)
    t = Triangle(params, nmax, method, {})
    for rec in doc["polys"]:
        try:
            node = (rec["m"], rec["n"])
            if not all(type(e) is int for e in node):
                raise ValueError(f"m and n must be integers, not {node}")
            if node in t.entries:
                raise ValueError(f"duplicate entry for (m,n)={node}")
            t.entries[node] = BivariatePoly.from_records(rec["terms"])
        except (KeyError, TypeError):
            raise ValueError(f"malformed polys record {rec!r}") from None
    # linear in the document: the walk to the first missing nodes passes
    # only nodes that are entries, and a message names at most five of each
    outside = [node for node in t.entries if min(node) < 0 or sum(node) > nmax]
    size = (nmax + 1) * (nmax + 2) // 2
    if outside or len(t.entries) != size:
        missing = (node for node in _lattice(nmax) if node not in t.entries)
        raise ValueError(
            f"entries do not match nmax={nmax}: missing "
            f"{_first_five(missing, size - len(t.entries) + len(outside))}, "
            f"outside {_first_five(outside, len(outside))}"
        )
    return t


def _first_five(nodes: Iterable[tuple[int, int]], count: int) -> str:
    # str(list(nodes)) for count <= 5 nodes, else the first five and the count
    first = list(islice(nodes, 5))
    return str(first) if count <= 5 else f"{str(first)[:-1]}, ...] ({count} nodes)"


def dumps_json(doc: dict) -> str:
    """Deterministic JSON text: fixed key order, fixed layout.

    The text is json.dumps(doc, indent=2) + "\\n", byte for byte, written
    directly (with indent set, the stdlib runs its pure-Python encoder).
    A record list, a non-empty list or tuple of plain dicts that all have
    the same str keys in the same order, where each key's values are all
    str, all int (not bool) or all plain dicts, such as the terms of a table
    entry, is written in one step through a %-template for one record; a
    dict value is written once per distinct object.  Any other list, and
    every other value, falls back to the item-by-item writer.
    """
    chunks: list[str] = []
    _write_json(doc, chunks, "\n")
    chunks.append("\n")
    return "".join(chunks)


_JSON_CONSTANTS = {None: "null", True: "true", False: "false"}


def _write_json(value: object, out: list[str], newline: str) -> None:
    # newline is "\n" plus the indent of value's own level; str, int, bool,
    # None, lists, tuples and str-keyed dicts are written here, anything else
    # by the stdlib, re-indented to this level
    kind = type(value)
    if kind is str:
        out.append(_encode_str(value))
    elif kind is int:
        out.append(int.__repr__(value))
    elif value is None or kind is bool:
        out.append(_JSON_CONSTANTS[value])
    elif (kind is list or kind is tuple) and value:
        text = _record_list(value, newline) if type(value[0]) is dict else None
        if text is not None:
            out.append(text)
            return
        inner = newline + "  "
        sep = "[" + inner
        for item in value:
            out.append(sep)
            _write_json(item, out, inner)
            sep = "," + inner
        out.append(newline + "]")
    elif kind is dict and value:
        start = len(out)
        inner = newline + "  "
        sep = "{" + inner
        for key, item in value.items():
            if type(key) is not str:  # the stdlib converts such keys
                del out[start:]
                out.append(json.dumps(value, indent=2).replace("\n", newline))
                return
            out.append(sep + _encode_str(key) + ": ")
            _write_json(item, out, inner)
            sep = "," + inner
        out.append(newline + "}")
    else:  # empty containers, floats, subclasses
        out.append(json.dumps(value, indent=2).replace("\n", newline))


def _record_list(records: list | tuple, newline: str) -> str | None:
    # the text of a record list (see dumps_json), or None for any other list
    if set(map(type, records)) != {dict}:
        return None
    keys = tuple(records[0])
    # no dict repeats a key, so when the keys of all records, end to end,
    # repeat the first record's, every record has exactly those, in order
    if list(chain.from_iterable(records)) != list(keys) * len(records):
        return None
    width = len(keys)
    values = list(chain.from_iterable(map(dict.values, records)))
    inner = newline + "  "
    for index in range(width):  # %s writes an int as JSON does; a str is encoded
        column = values[index::width]
        kinds = set(map(type, column))
        if kinds == {str}:
            values[index::width] = map(_encode_str, column)
        elif kinds == {dict}:  # each distinct dict object written once, at its depth
            texts = {id(item): item for item in column}
            for key, item in texts.items():
                chunks: list[str] = []
                _write_json(item, chunks, inner + "  ")
                texts[key] = "".join(chunks)
            values[index::width] = map(texts.__getitem__, map(id, column))
        elif kinds != {int}:
            return None
    if set(map(type, keys)) != {str}:
        return None
    field = "," + inner + "  "
    record = (
        "{" + inner + "  "
        + field.join([_encode_str(key).replace("%", "%%") + ": %s" for key in keys])
        + inner + "}"
    )
    return ("[" + inner + ("," + inner).join([record] * len(records)) + newline + "]") % tuple(values)


def triangle_to_csv(t: Triangle) -> str:
    # records carry the "p/q" text, built without a Fraction; a field holds
    # only digits, "-" and "/", so none needs quoting
    records = ((m, n, r) for m, n in t.nodes() for r in t.entry(m, n).to_records())
    return "m,n,i,j,c\n" + "".join([f"{m},{n},{r['i']},{r['j']},{r['c']}\n" for m, n, r in records])


def latex_rational(p: int, q: int) -> str:
    """p/q, in lowest terms with q > 0, in LaTeX."""
    sign = "-" if p < 0 else ""
    return str(p) if q == 1 else f"{sign}\\frac{{{abs(p)}}}{{{q}}}"


def latex_poly(p: BivariatePoly) -> str:
    terms = reversed(list(p.lowest_terms()))
    return signed_sum(terms, "xy", latex_rational, " ", power="{}^{{{}}}")


def triangle_to_latex(t: Triangle) -> str:
    p = t.params
    lines = [
        f"% case {p.case_id}, beta={p.beta}, kappa1={p.kappa1}, "
        f"kappa2={p.kappa2}, method={t.method}",
        "\\begin{array}{ll}",
        "(m,n) & P_{m,n} \\\\",
        "\\hline",
    ]
    for m, n in t.nodes():
        lines.append(f"({m},{n}) & {latex_poly(t.entry(m, n))} \\\\")
    lines.append("\\end{array}")
    return "\n".join(lines) + "\n"


FORMATTERS = {
    "json": lambda t: dumps_json(triangle_to_json(t)),
    "csv": triangle_to_csv,
    "latex": triangle_to_latex,
}

"""In-memory span tracer and the wrappers that time kspoly's layers from outside.

``install(tracer)`` patches class methods on their classes and rebinds
module-level functions in every kspoly module, and in every module-level
dict, that holds them (``operator_L`` is bound in catalog, triangle, verify
and cli; ``build_oracle`` also sits in ``triangle.BUILDERS``).  The callable
it returns undoes every patch.  No file of the package is edited.

A span is (id, parent id, name, start, end).  Spans stay in arrays in
memory and are written out once, by ``Tracer.write``, when the run ends.
Alongside the spans the tracer keeps per-name totals:

* ``calls``  - spans opened with that name;
* ``wall_s`` - duration of the outermost spans of that name (a span nested
  in another of the same name is not counted twice);
* ``self_s`` - span duration minus the time its child spans cover.
"""

from __future__ import annotations

import gzip
import json
from array import array
from collections import Counter, defaultdict
from fractions import Fraction
from functools import wraps
from time import perf_counter

# (metric, unit) in the order the traced run prints them.
PER_LAYER = (
    ("algebra.poly_add.calls", "count"),
    ("algebra.poly_add.self_s", "s"),
    ("algebra.poly_scale.calls", "count"),
    ("algebra.poly_scale.self_s", "s"),
    ("algebra.poly_mul.calls", "count"),
    ("algebra.poly_mul.term_pairs", "count"),
    ("algebra.poly_mul.self_s", "s"),
    ("algebra.coeff_bits_max", "bits"),
    ("weyl.apply.calls", "count"),
    ("weyl.apply.term_pairs", "count"),
    ("weyl.apply.self_s", "s"),
    ("weyl.compose.calls", "count"),
    ("weyl.compose.term_pairs", "count"),
    ("weyl.compose.self_s", "s"),
    ("weyl.add.calls", "count"),
    ("weyl.add.self_s", "s"),
    ("catalog.params.calls", "count"),
    ("catalog.params.self_s", "s"),
    ("catalog.operators.calls", "count"),
    ("catalog.operators.self_s", "s"),
    ("catalog.raising_ops.calls", "count"),
    ("catalog.recurrence_step.calls", "count"),
    ("catalog.recurrence_step.self_s", "s"),
    ("catalog.action_relations.calls", "count"),
    ("catalog.action_relations.self_s", "s"),
    ("triangle.oracle.wall_s", "s"),
    ("triangle.oracle.self_s", "s"),
    ("triangle.oracle.apply_calls", "count"),
    ("triangle.recurrence.wall_s", "s"),
    ("triangle.ladder.wall_s", "s"),
    ("triangle.transfer.wall_s", "s"),
    ("triangle.serialize.wall_s", "s"),
    ("triangle.serialize.bytes", "bytes"),
    ("series.genfun.wall_s", "s"),
    ("series.mul.calls", "count"),
    ("series.mul.self_s", "s"),
    ("series.exp.wall_s", "s"),
    ("series.extract.wall_s", "s"),
    ("series.derivative_residuals.wall_s", "s"),
    ("verify.full_suite.wall_s", "s"),
    ("verify.full_suite.self_s", "s"),
    ("verify.certify.wall_s", "s"),
    ("verify.certify.grid_points", "count"),
    ("verify.operator_identities.wall_s", "s"),
    ("verify.action_formulas.wall_s", "s"),
    ("verify.eigen.wall_s", "s"),
    ("verify.checks.count", "count"),
    ("verify.checks.failed", "count"),
    ("cli.check.wall_s", "s"),
    ("cli.check.self_s", "s"),
    ("cli.output.bytes", "bytes"),
    ("trace.overhead_ratio", "ratio"),
)

# Counted metrics that must repeat exactly across traced runs of one seed.
COUNT_UNITS = ("count", "bytes", "bits")


class Tracer:
    def __init__(self) -> None:
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.span_name = array("i")
        self.span_parent = array("q")
        self.span_start = array("d")
        self.span_end = array("d")
        self._stack: list[list] = []  # open spans: [span id, child seconds]
        self._open = Counter()  # name -> open spans with that name
        self.calls = Counter()
        self.wall_s: defaultdict[str, float] = defaultdict(float)
        self.self_s: defaultdict[str, float] = defaultdict(float)
        self.counts = Counter()
        self.coeff_bits_max = 0
        self._pending: list = []  # outputs inspected after the job, off the clock
        self._origin = perf_counter()

    def inside(self, name: str) -> bool:
        return self._open[name] > 0

    def add(self, name: str, n: int = 1) -> None:
        self.counts[name] += n

    def call(self, name: str, fn, args, kwargs):
        """Run fn(*args, **kwargs) inside a span called name."""
        sid = len(self.span_name)
        nid = self._name_ids.get(name)
        if nid is None:
            nid = self._name_ids[name] = len(self.names)
            self.names.append(name)
        stack = self._stack
        self.span_name.append(nid)
        self.span_parent.append(stack[-1][0] if stack else -1)
        self.span_start.append(0.0)  # set when the span closes
        self.span_end.append(0.0)
        frame = [sid, 0.0]
        stack.append(frame)
        self._open[name] += 1
        start = perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            end = perf_counter()
            stack.pop()
            self._open[name] -= 1
            duration = end - start
            self.span_start[sid] = start - self._origin
            self.span_end[sid] = end - self._origin
            self.calls[name] += 1
            self.self_s[name] += duration - frame[1]
            if not self._open[name]:
                self.wall_s[name] += duration
            if stack:
                stack[-1][1] += duration

    def inspect_later(self, kind: str, value) -> None:
        self._pending.append((kind, value))

    def drain(self) -> None:
        """Fold the outputs held since the last drain into the counters."""
        for kind, value in self._pending:
            if kind == "table":
                bits = self.coeff_bits_max
                for p in value.values():
                    for _, c in p.items():
                        bits = max(bits, c.numerator.bit_length(), c.denominator.bit_length())
                self.coeff_bits_max = bits
            elif kind == "report":
                self.counts["verify.checks.count"] += len(value.results)
                self.counts["verify.checks.failed"] += len(value.failures())
            else:  # a certify CheckResult
                self.counts["verify.checks.count"] += 1
                self.counts["verify.checks.failed"] += 0 if value.passed else 1
        self._pending.clear()

    def layer_metrics(self) -> dict[str, float]:
        """Every PER_LAYER metric but trace.overhead_ratio, which needs an
        untraced run to compare with."""
        spans = {
            "calls": self.calls,
            "wall_s": self.wall_s,
            "self_s": self.self_s,
        }
        out: dict[str, float] = {}
        for metric, _ in PER_LAYER:
            if metric == "trace.overhead_ratio":
                continue
            span, _, field = metric.rpartition(".")
            if metric == "algebra.coeff_bits_max":
                out[metric] = self.coeff_bits_max
            elif field in spans:
                out[metric] = spans[field].get(span, 0)
            else:
                out[metric] = self.counts.get(metric, 0)
        return out

    def summary(self) -> dict[str, dict[str, float]]:
        """calls / wall_s / self_s for every span name seen."""
        return {
            name: {
                "calls": self.calls[name],
                "wall_s": self.wall_s[name],
                "self_s": self.self_s[name],
            }
            for name in sorted(self.calls)
        }

    def write(self, path) -> int:
        """Write the spans as gzipped JSON lines; returns the span count."""
        names = self.names
        with gzip.open(path, "wt", compresslevel=1, encoding="utf-8") as fh:
            fh.write(json.dumps({"fields": ["id", "parent", "name", "start_s", "end_s"]}) + "\n")
            for sid, (nid, parent, start, end) in enumerate(
                zip(self.span_name, self.span_parent, self.span_start, self.span_end)
            ):
                fh.write(f'[{sid},{parent},"{names[nid]}",{start:.9f},{end:.9f}]\n')
        return len(self.span_name)


def _spanned(tracer: Tracer, name: str, fn, after=None):
    """fn inside a span; after(result) runs once the span has closed."""

    @wraps(fn)
    def wrapper(*args, **kwargs):
        result = tracer.call(name, fn, args, kwargs)
        if after is not None:
            after(result)
        return result

    return wrapper


def install(tracer: Tracer):
    """Wrap kspoly's public entry points in spans; returns the undo callable."""
    import kspoly
    from kspoly import algebra, catalog, cli, series, triangle, verify, weyl

    modules = (kspoly, algebra, weyl, catalog, triangle, series, verify, cli)
    undo: list = []

    def patch(cls, attr, make):
        original = cls.__dict__[attr]
        setattr(cls, attr, make(original))
        undo.append(lambda: setattr(cls, attr, original))

    def rebind(module, attr, make):
        original = getattr(module, attr)
        wrapper = make(original)
        for mod in modules:
            for key, value in list(vars(mod).items()):
                if key.startswith("__"):
                    continue
                if value is original:
                    setattr(mod, key, wrapper)
                    undo.append(lambda m=mod, k=key: setattr(m, k, original))
                elif isinstance(value, dict):
                    for dkey, dvalue in list(value.items()):
                        if dvalue is original:
                            value[dkey] = wrapper
                            undo.append(lambda d=value, k=dkey: d.__setitem__(k, original))

    def span(name, after=None):
        return lambda fn: _spanned(tracer, name, fn, after)

    def table_out(t):
        tracer.inspect_later("table", t.entries)

    # -- algebra ---------------------------------------------------------
    Poly = algebra.BivariatePoly
    patch(Poly, "__add__", span("algebra.poly_add"))

    def poly_mul(fn):
        @wraps(fn)
        def wrapper(self, other):
            if isinstance(other, Poly):
                tracer.add("algebra.poly_mul.term_pairs", len(self) * len(other))
                return tracer.call("algebra.poly_mul", fn, (self, other), {})
            if isinstance(other, (int, Fraction)):
                return tracer.call("algebra.poly_scale", fn, (self, other), {})
            return fn(self, other)

        return wrapper

    patch(Poly, "__mul__", poly_mul)

    # -- weyl --------------------------------------------------------------
    def term_pairs(name, in_oracle=None):
        def make(fn):
            @wraps(fn)
            def wrapper(self, other):
                tracer.add(name + ".term_pairs", len(self) * len(other))
                if in_oracle and tracer.inside("triangle.oracle"):
                    tracer.add(in_oracle)
                return tracer.call(name, fn, (self, other), {})

            return wrapper

        return make

    patch(weyl.DiffOp, "apply", term_pairs("weyl.apply", "triangle.oracle.apply_calls"))
    patch(weyl.DiffOp, "__matmul__", term_pairs("weyl.compose"))
    patch(weyl.DiffOp, "__add__", span("weyl.add"))

    # -- catalog -----------------------------------------------------------
    patch(catalog.CaseParams, "__post_init__", span("catalog.params"))
    rebind(catalog, "operator_L", span("catalog.operators"))
    rebind(catalog, "commuting_ops", span("catalog.operators"))
    rebind(catalog, "raising_ops", span("catalog.raising_ops"))
    rebind(catalog, "recurrence_step", span("catalog.recurrence_step"))
    rebind(catalog, "action_relations", span("catalog.action_relations"))

    # -- triangle ----------------------------------------------------------
    for method in ("oracle", "recurrence", "ladder", "transfer"):
        rebind(triangle, f"build_{method}", span(f"triangle.{method}", table_out))
    rebind(triangle, "triangle_to_json", span("triangle.serialize"))
    rebind(
        triangle,
        "dumps_json",  # ASCII JSON text: one byte per character
        span("triangle.serialize", lambda text: tracer.add("triangle.serialize.bytes", len(text))),
    )

    # -- series ------------------------------------------------------------
    patch(series.Series2, "__mul__", span("series.mul"))
    patch(series.Series2, "exp", span("series.exp"))
    rebind(series, "genfun", span("series.genfun"))
    rebind(series, "extract_polys", span("series.extract", lambda t: tracer.inspect_later("table", t)))
    rebind(series, "genfun_derivative_residuals", span("series.derivative_residuals"))

    # -- verify ------------------------------------------------------------
    rebind(verify, "full_suite", span("verify.full_suite", lambda r: tracer.inspect_later("report", r)))
    rebind(verify, "check_operator_identities", span("verify.operator_identities"))
    rebind(verify, "check_action_formulas", span("verify.action_formulas"))
    rebind(verify, "check_eigen", span("verify.eigen"))

    def certify(fn):
        @wraps(fn)
        def wrapper(identity, *args, **kwargs):
            def counted(params):
                tracer.add("verify.certify.grid_points")
                return identity(params)

            result = tracer.call("verify.certify", fn, (counted, *args), kwargs)
            tracer.inspect_later("certify", result)
            return result

        return wrapper

    rebind(verify, "certify_parameter_polynomial_identity", certify)

    # -- cli -----------------------------------------------------------------
    rebind(cli, "cmd_check", span("cli.check"))

    def uninstall():
        while undo:
            undo.pop()()

    return uninstall

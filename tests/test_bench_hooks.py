"""The benchmark's tracer (bench/tracer.py) still finds the methods it patches.

The tracer wraps methods looked up in each class's own namespace, so a
method that moves into a shared base class silently drops out of the
per-layer metrics.  This runs a tiny traced job and checks every kernel
counter the benchmark reports.
"""

from fractions import Fraction as F
from pathlib import Path

from kspoly import series, triangle
from kspoly.algebra import BivariatePoly
from kspoly.catalog import CaseParams, commuting_ops, operator_L
from kspoly.series import Series2
from kspoly.weyl import DiffOp

BENCH = Path(__file__).resolve().parents[1] / "bench"

PATCHED = [
    (BivariatePoly, "__add__"),
    (BivariatePoly, "__mul__"),
    (DiffOp, "__add__"),
    (DiffOp, "apply"),
    (DiffOp, "__matmul__"),
    (Series2, "__mul__"),
    (Series2, "exp"),
]


def test_tracer_counts_kernel_calls_and_uninstalls(monkeypatch):
    monkeypatch.syspath_prepend(str(BENCH))
    from tracer import Tracer, install

    originals = {(cls, attr): cls.__dict__[attr] for cls, attr in PATCHED}
    build_oracle = triangle.build_oracle
    tracer = Tracer()
    uninstall = install(tracer)
    try:
        params = CaseParams("I", F(7, 2), F(1, 3), F(-1, 5), 3)
        triangle.build_oracle(params, 3)
        operator_L(params).commutator(commuting_ops(params)[0])
        series.genfun(CaseParams("V", F(7, 2), F(1, 3), F(-2, 5), 3), 3)
    finally:
        uninstall()
    for name in (
        "algebra.poly_add",
        "algebra.poly_mul",
        "weyl.apply",
        "weyl.compose",
        "weyl.add",
        "series.mul",
    ):
        assert tracer.calls[name] > 0, name
    for (cls, attr), original in originals.items():
        assert cls.__dict__[attr] is original, (cls.__name__, attr)
    assert triangle.build_oracle is build_oracle
    assert triangle.BUILDERS["oracle"] is build_oracle

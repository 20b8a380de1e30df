"""The benchmark's tracer (bench/tracer.py) still finds the methods it patches.

The tracer wraps methods looked up in each class's own namespace, so a
method that moves into a shared base class silently drops out of the
per-layer metrics.  This runs a tiny traced job and checks every kernel
counter the benchmark reports, and the builder and catalog spans it reaches.
"""

from fractions import Fraction as F
from pathlib import Path

from kspoly import series, triangle, verify
from kspoly.algebra import BivariatePoly
from kspoly.catalog import CaseParams, commuting_ops, generic_operators, operator_L
from kspoly.series import Series2
from kspoly.weyl import DiffOp

BENCH = Path(__file__).resolve().parents[1] / "bench"

PATCHED = [
    (BivariatePoly, "__add__"),
    (BivariatePoly, "__mul__"),
    (CaseParams, "__post_init__"),
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
    dumps_json = triangle.dumps_json
    tracer = Tracer()
    uninstall = install(tracer)
    try:
        params = CaseParams("I", F(7, 2), F(1, 3), F(-1, 5))
        oracle = triangle.build_oracle(params, 3)
        # the table text, through the two names the tracer rebinds
        text = triangle.dumps_json(triangle.triangle_to_json(oracle))
        # the oracle reads L's memo directly, so apply is called here
        operator_L(params).apply(oracle.entry(2, 1))
        operator_L(params).commutator(commuting_ops(params)[0])
        # the catalog's operators are specialised from their generic forms
        # without polynomial arithmetic, and the recurrence builder forms
        # each step in one accumulation, with no BivariatePoly product; a
        # polynomial product, through the method the tracer patches
        oracle.entry(1, 0) * oracle.entry(0, 1)
        triangle.build_recurrence(params, 3)
        # the transfer builder reads the action relations by position
        triangle.build_transfer(params, 3)
        series.genfun(CaseParams("V", F(7, 2), F(1, 3), F(-2, 5)), 3)
        # the operator audit calls the checks by the names the tracer rebinds
        assert verify.check_operators(oracle, generic_operators("I")).passed
    finally:
        uninstall()
    for name in (
        "catalog.params",
        "algebra.poly_add",
        "algebra.poly_mul",
        "weyl.apply",
        "weyl.compose",
        "weyl.add",
        "series.mul",
    ):
        assert tracer.calls[name] > 0, name
    # the builder and operator-audit spans, and the catalog functions the
    # builders call by the names the tracer rebinds: moving or inlining one
    # would read 0 there
    for name in (
        "catalog.recurrence_step",
        "catalog.operators",
        "catalog.action_relations",
        "triangle.oracle",
        "triangle.recurrence",
        "triangle.transfer",
        "verify.eigen",
        "verify.action_formulas",
        "verify.operator_identities",
    ):
        assert tracer.calls[name] > 0, name
    # one span each for triangle_to_json and dumps_json, and the benchmark's
    # byte count is the text's length: a serializer that escaped the
    # rebinding would read 0 here without any error
    assert tracer.calls["triangle.serialize"] == 2
    assert tracer.layer_metrics()["triangle.serialize.bytes"] == len(text)
    for (cls, attr), original in originals.items():
        assert cls.__dict__[attr] is original, (cls.__name__, attr)
    assert triangle.build_oracle is build_oracle
    assert triangle.dumps_json is dumps_json
    assert triangle.BUILDERS["oracle"] is build_oracle

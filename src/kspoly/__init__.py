"""Exact construction and verification of the bivariate Krall-Sheffer
polynomial eigenfunction families (cases I, II, III, V, VIII, IX)."""

import importlib

from .algebra import (
    ONE,
    X,
    Y,
    BivariatePoly,
    parse_rational,
    rising_factorial,
)
from .catalog import (
    CASES,
    CaseParams,
    action_relations,
    commuting_ops,
    edge_operators,
    eigenvalue,
    generic_operators,
    operator_L,
    quadratic_relations,
    raising_ops,
    raising_relation,
    recurrence_step,
    sample_params,
)
from .errors import (
    AdmissibilityError,
    KspolyError,
    ParameterError,
    StencilError,
    TransferError,
)
from .triangle import (
    Triangle,
    build_ladder,
    build_oracle,
    build_recurrence,
    build_transfer,
    triangle_from_json,
    triangle_to_csv,
    triangle_to_json,
    triangle_to_latex,
)
from .weyl import DiffOp, GenericOp

__version__ = "0.1.0"

# The audit layer loads on first use (PEP 562), so the table builders and
# `kspoly gen` never compile it.  Each access reads the submodule's current
# attribute: nothing is cached here, so a rebound verify.full_suite is what
# kspoly.full_suite returns.
_LAZY = {
    "Series2": "series",
    "binomial_series": "series",
    "extract_polys": "series",
    "genfun": "series",
    "VerificationReport": "verify",
    "certify_parameter_polynomial_identity": "verify",
    "check_action_formulas": "verify",
    "check_genfun_agreement": "verify",
    "check_ix_to_i_map": "verify",
    "check_operator_identities": "verify",
    "full_suite": "verify",
}

__all__ = [
    "ONE",
    "X",
    "Y",
    "BivariatePoly",
    "parse_rational",
    "rising_factorial",
    "CASES",
    "CaseParams",
    "action_relations",
    "commuting_ops",
    "edge_operators",
    "eigenvalue",
    "generic_operators",
    "operator_L",
    "quadratic_relations",
    "raising_ops",
    "raising_relation",
    "recurrence_step",
    "sample_params",
    "AdmissibilityError",
    "KspolyError",
    "ParameterError",
    "StencilError",
    "TransferError",
    "Triangle",
    "build_ladder",
    "build_oracle",
    "build_recurrence",
    "build_transfer",
    "triangle_from_json",
    "triangle_to_csv",
    "triangle_to_json",
    "triangle_to_latex",
    "DiffOp",
    "GenericOp",
    *_LAZY,
    "__version__",
]


def __getattr__(name: str):
    if name not in _LAZY:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(importlib.import_module(f".{_LAZY[name]}", __name__), name)


def __dir__() -> list[str]:
    return sorted({*globals(), *_LAZY})

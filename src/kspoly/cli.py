"""Command-line front end: generate tables, audit identities, expand
generating functions, convert artifacts between formats.

Exit codes: 0 success, 1 verification failure, 2 invalid input.

`check` and `gf` import the audit layer (`verify`, `series`) themselves, so
`gen` and `export` compile neither.
"""

from __future__ import annotations

import argparse
import json
import sys
from functools import lru_cache
from pathlib import Path
from random import Random

from .algebra import _check_choice, _check_index, parse_rational
from .catalog import (
    CASES,
    CaseParams,
    generic_operators,
    params_to_json,
    sample_params,
)
from .errors import KspolyError, ParameterError
from .triangle import BUILDERS, FORMATTERS, dumps_json, triangle_from_json

EXIT_OK = 0
EXIT_VERIFICATION = 1
EXIT_INVALID = 2


def _add_param_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--case", required=True, help="case id: " + ", ".join(CASES))
    parser.add_argument(
        "--beta", required=True, help="rational, e.g. 7/2 (write --beta=-7/2 for negatives)"
    )
    parser.add_argument(
        "--k1", default="0", help="kappa1 (rational; write --k1=-1/3 for negatives)"
    )
    parser.add_argument(
        "--k2", default="0", help="kappa2 (rational; write --k2=-1/3 for negatives)"
    )


def _params_from(args: argparse.Namespace) -> CaseParams:
    return CaseParams(
        args.case, parse_rational(args.beta), parse_rational(args.k1), parse_rational(args.k2)
    )


def _emit(text: str, output: str | None) -> None:
    if output:
        Path(output).write_text(text, encoding="utf-8")
    else:
        sys.stdout.write(text)


@lru_cache(maxsize=1)
def build_parser() -> argparse.ArgumentParser:
    """The command-line parser, built once per process: parse_args keeps no
    state between calls, and each call returns a fresh namespace."""
    parser = argparse.ArgumentParser(
        prog="kspoly",
        description="Exact bivariate Krall-Sheffer polynomial tables and "
        "verification of their operator identities.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    gen = sub.add_parser("gen", help="generate a polynomial table")
    _add_param_flags(gen)
    gen.add_argument("--nmax", type=int, default=6)
    gen.add_argument("--method", choices=sorted(BUILDERS), default="oracle")
    gen.add_argument("--format", choices=sorted(FORMATTERS), default="json")
    gen.add_argument("--output", help="output path (default: stdout)")

    check = sub.add_parser("check", help="run the verification suite")
    check.add_argument("--case", default="all", help="case id or 'all'")
    check.add_argument("--nmax", type=int, default=6)
    check.add_argument("--trials", type=int, default=3, help="random parameter triples per case")
    check.add_argument("--seed", type=int, default=0)
    check.add_argument("--output", help="write the JSON report here")

    gf = sub.add_parser("gf", help="expand a generating function and compare")
    _add_param_flags(gf)
    gf.add_argument("--order", type=int, default=6)
    gf.add_argument("--output", help="output path (default: stdout)")

    export = sub.add_parser("export", help="convert a JSON table to csv or latex")
    export.add_argument("--input", required=True, help="triangle JSON file")
    export.add_argument("--format", choices=("csv", "latex"), required=True)
    export.add_argument("--output", help="output path (default: stdout)")
    return parser


def cmd_gen(args: argparse.Namespace) -> int:
    _check_index("--nmax", args.nmax)
    params = _params_from(args)
    triangle = BUILDERS[args.method](params, args.nmax)
    _emit(FORMATTERS[args.format](triangle), args.output)
    return EXIT_OK


def cmd_check(args: argparse.Namespace) -> int:
    from .verify import certify_record, full_suite

    if args.trials < 1:
        raise ParameterError(f"--trials must be at least 1, not {args.trials}")
    _check_index("--nmax", args.nmax)
    _check_choice("--case", args.case, (*CASES, "all"))
    cases = list(CASES) if args.case == "all" else [args.case]
    rng = Random(args.seed)
    documents = []
    all_passed = True
    for case in cases:
        for trial in range(args.trials):
            params = sample_params(case, rng)
            report = full_suite(params, nmax=args.nmax)
            failures = report.failures()
            all_passed &= not failures
            print(
                f"case {case} trial {trial} beta={params.beta} "
                f"kappa1={params.kappa1} kappa2={params.kappa2}: "
                + (f"FAIL ({len(failures)} failing checks)" if failures else "PASS")
            )
            for failure in failures:
                print(f"  FAIL {failure.name}: {failure.detail}")
            documents.append(report.to_json())
        result = certify_record(case, generic_operators(case))
        all_passed &= result.passed
        print(f"{result.name}: {result.status.upper()}")
        documents.append({"checks": [result.to_json(case)], "passed": result.passed})
    if args.output:
        Path(args.output).write_text(
            dumps_json({"reports": documents, "passed": all_passed}), encoding="utf-8"
        )
    return EXIT_OK if all_passed else EXIT_VERIFICATION


def cmd_gf(args: argparse.Namespace) -> int:
    from .series import extract_polys, genfun

    _check_index("--order", args.order)
    params = _params_from(args)
    # the oracle first: it applies the validity rule at this order
    oracle = BUILDERS["oracle"](params, args.order)
    table = extract_polys(genfun(params, args.order), params)
    entries = []
    diffs = 0
    for m, n in oracle.nodes():
        equal = table[(m, n)] == oracle.entry(m, n)
        diffs += 0 if equal else 1
        entries.append(
            {
                "m": m,
                "n": n,
                "genfun": table[(m, n)].to_records(),
                "oracle": oracle.entry(m, n).to_records(),
                "equal": equal,
            }
        )
    doc = {
        "case": params.case_id,
        **params_to_json(params),
        "order": args.order,
        "entries": entries,
        "diffs": diffs,
    }
    _emit(dumps_json(doc), args.output)
    return EXIT_OK if diffs == 0 else EXIT_VERIFICATION


def cmd_export(args: argparse.Namespace) -> int:
    try:
        doc = json.loads(Path(args.input).read_text(encoding="utf-8"))
    except RecursionError:
        raise ValueError(f"{args.input}: JSON nested too deeply to read") from None
    triangle = triangle_from_json(doc)
    _emit(FORMATTERS[args.format](triangle), args.output)
    return EXIT_OK


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    handler = {
        "gen": cmd_gen,
        "check": cmd_check,
        "gf": cmd_gf,
        "export": cmd_export,
    }[args.command]
    try:
        return handler(args)
    except (KspolyError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INVALID


if __name__ == "__main__":
    sys.exit(main())

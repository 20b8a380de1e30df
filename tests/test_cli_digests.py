"""Byte-identity gate: a fixed corpus of CLI runs must reproduce the sha256
digests in tests/data/cli_digests.json.

The digests pin every byte kspoly writes (tables in all formats at nmax 5,
JSON tables of every builder at the benchmark's nmax 12, check reports and
their stdout, generating-function comparisons, exports), so a
change to the arithmetic underneath cannot alter an output unnoticed.  Only
a change that means to alter an output may record them again, with

    PYTHONPATH=src python tests/test_cli_digests.py
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import tempfile
from pathlib import Path

from kspoly.catalog import CASES
from kspoly.cli import main
from kspoly.triangle import BUILDERS, FORMATTERS

DIGESTS = Path(__file__).parent / "data" / "cli_digests.json"

# non-integer kappas keep every transfer division coefficient nonzero
PARAMS = ["--beta", "7/3", "--k1=2/5", "--k2=-3/7"]
IX_PARAMS = ["--beta", "7/3"]


def _run(argv: list[str], out: Path) -> bytes:
    """The exit code, stdout and output file of one in-process CLI run."""
    stdout = io.StringIO()
    with contextlib.redirect_stdout(stdout):
        code = main([*argv, "--output", str(out)])
    text = f"exit {code}\n{stdout.getvalue()}\n--- output ---\n"
    return (text + out.read_text(encoding="utf-8")).encode("utf-8")


def corpus_digests() -> dict[str, str]:
    runs: dict[str, str] = {}
    with tempfile.TemporaryDirectory() as tmp:
        out = Path(tmp) / "out"

        def record(name: str, argv: list[str]) -> None:
            runs[name] = hashlib.sha256(_run(argv, out)).hexdigest()

        for case in CASES:
            params = ["--case", case] + (IX_PARAMS if case == "IX" else PARAMS)
            for method in sorted(BUILDERS):
                for fmt in sorted(FORMATTERS):
                    record(f"gen {case} {method} {fmt}",
                           ["gen", *params, "--nmax", "5", "--method", method, "--format", fmt])
                # the benchmark's table size, where every builder runs its full sweep
                record(f"gen {case} {method} json nmax 12",
                       ["gen", *params, "--nmax", "12", "--method", method, "--format", "json"])
        record("check all", ["check", "--case", "all", "--trials", "1", "--seed", "7",
                             "--nmax", "4"])
        for case in ("V", "VIII", "IX"):
            record(f"gf {case}", ["gf", "--case", case,
                                  *(IX_PARAMS if case == "IX" else PARAMS), "--order", "5"])
        table = Path(tmp) / "table.json"
        main(["gen", "--case", "II", *PARAMS, "--nmax", "5", "--output", str(table)])
        for fmt in ("csv", "latex"):
            record(f"export {fmt}", ["export", "--input", str(table), "--format", fmt])
    return runs


def test_cli_outputs_match_recorded_digests():
    recorded = json.loads(DIGESTS.read_text(encoding="utf-8"))
    assert corpus_digests() == recorded


if __name__ == "__main__":
    DIGESTS.parent.mkdir(exist_ok=True)
    DIGESTS.write_text(json.dumps(corpus_digests(), indent=1, sort_keys=True) + "\n",
                       encoding="utf-8")

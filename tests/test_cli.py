import json
import os
import re
import subprocess
import sys
import time
from pathlib import Path

import pytest

import kspoly.cli
import kspoly.verify
from kspoly import catalog
from kspoly.cli import main
from kspoly.errors import ParameterError
from kspoly.verify import identity_residuals, perturb_term
from kspoly.weyl import GenericOp


def run(*argv):
    return main(list(argv))


def test_gen_json_contains_known_entry(tmp_path):
    out = tmp_path / "t.json"
    code = run("gen", "--case", "IX", "--beta", "3", "--nmax", "4",
               "--method", "oracle", "--output", str(out))
    assert code == 0
    doc = json.loads(out.read_text())
    by_node = {(p["m"], p["n"]): p["terms"] for p in doc["polys"]}
    assert by_node[(2, 0)] == [
        {"i": 0, "j": 0, "c": "-1/4"},
        {"i": 2, "j": 0, "c": "1"},
    ]


def test_main_calls_in_a_row_parse_independently(tmp_path):
    # the parser is built once per process; no option of one call reaches
    # the next, whatever its subcommand
    assert kspoly.cli.build_parser() is kspoly.cli.build_parser()
    first, second, third = (tmp_path / name for name in ("a.csv", "report.json", "b.json"))
    assert run("gen", "--case", "V", "--beta", "2", "--k1=-1/3", "--nmax", "2",
               "--method", "recurrence", "--format", "csv", "--output", str(first)) == 0
    assert run("check", "--case", "IX", "--trials", "1", "--nmax", "2",
               "--output", str(second)) == 0
    assert run("gen", "--case", "V", "--beta", "2", "--nmax", "2", "--output", str(third)) == 0
    assert first.read_text().startswith("m,n,i,j,c\n")
    assert json.loads(second.read_text())["passed"] is True
    doc = json.loads(third.read_text())
    assert (doc["kappa1"], doc["method"], doc["nmax"]) == ("0", "oracle", 2)


def test_gen_recurrence_row_powers(tmp_path):
    out = tmp_path / "t.json"
    code = run("gen", "--case", "V", "--beta", "2", "--k1", "0", "--k2", "0",
               "--nmax", "3", "--method", "recurrence", "--output", str(out))
    assert code == 0
    doc = json.loads(out.read_text())
    by_node = {(p["m"], p["n"]): p["terms"] for p in doc["polys"]}
    # kappa1 = 0 turns the left edge into plain powers of x
    assert by_node[(2, 0)] == [{"i": 2, "j": 0, "c": "1"}]
    assert by_node[(3, 0)] == [{"i": 3, "j": 0, "c": "1"}]


def test_gen_rejects_invalid_beta(capsys):
    assert run("gen", "--case", "I", "--beta", "-2", "--nmax", "3") == 2
    assert "beta + k != 0" in capsys.readouterr().err


def test_gen_reads_a_negative_fraction_beta_written_with_equals(tmp_path, capsys):
    # argparse reads "-7/2" after a space as an option, so the help names the
    # --beta=-7/2 form, and that form builds the table
    with pytest.raises(SystemExit):
        run("gen", "--help")
    assert "--beta=-7/2" in capsys.readouterr().out
    with pytest.raises(SystemExit):
        run("gen", "--case", "I", "--beta", "-7/2", "--nmax", "3")
    assert "expected one argument" in capsys.readouterr().err
    out = tmp_path / "t.json"
    assert run("gen", "--case", "I", "--beta=-7/2", "--nmax", "3", "--output", str(out)) == 0
    doc = json.loads(out.read_text())
    assert (doc["beta"], len(doc["polys"])) == ("-7/2", 10)


def test_gen_rejects_negative_nmax(tmp_path, capsys):
    out = tmp_path / "t.json"
    assert run("gen", "--case", "I", "--beta", "7/2", "--nmax", "-1",
               "--output", str(out)) == 2
    stdout, err = capsys.readouterr()
    assert "error: --nmax must be nonnegative, not -1" in err
    assert stdout == ""
    assert not out.exists()


def test_gen_rejects_float_parameter(capsys):
    assert run("gen", "--case", "I", "--beta", "2.5", "--nmax", "3") == 2
    assert "exact rational" in capsys.readouterr().err


def test_gen_transfer_precondition_failure(capsys):
    code = run("gen", "--case", "II", "--beta", "5/2", "--k1", "0",
               "--nmax", "4", "--method", "transfer")
    assert code == 2
    assert "fall back" in capsys.readouterr().err


def test_gen_recurrence_rejects_beta_one(capsys):
    # at beta = 1 the recurrence meets a 0/0 limit; it must not print x^2
    # for P_{2,0}, whose true value is x^2 - 1/2
    code = run("gen", "--case", "IX", "--beta", "1", "--method", "recurrence")
    assert code == 2
    assert "beta+2N-3 vanishes" in capsys.readouterr().err


def test_gen_deterministic_bytes(tmp_path):
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    for path in (a, b):
        assert run("gen", "--case", "I", "--beta", "7/2", "--k1", "1/3",
                   "--k2=-1/5", "--nmax", "4", "--output", str(path)) == 0
    assert a.read_bytes() == b.read_bytes()


def test_check_single_case(tmp_path):
    report = tmp_path / "report.json"
    code = run("check", "--case", "V", "--nmax", "4",
               "--trials", "2", "--seed", "7", "--output", str(report))
    assert code == 0
    doc = json.loads(report.read_text())
    assert doc["passed"] is True
    assert len(doc["reports"]) == 3  # two trials, then the certify entry


def test_check_with_certification():
    assert run("check", "--case", "VIII", "--nmax", "3",
               "--trials", "1", "--seed", "3") == 0


def test_check_all_cases_with_certification(tmp_path):
    report = tmp_path / "report.json"
    assert run("check", "--case", "all", "--trials", "1", "--seed", "7",
               "--output", str(report)) == 0
    doc = json.loads(report.read_text())
    certify = [c for r in doc["reports"] for c in r["checks"]
               if c["check"].startswith("certify[")]
    assert [(c["case"], c["status"]) for c in certify] == [
        (case, "pass") for case in ("I", "II", "III", "V", "VIII", "IX")
    ]


def test_check_certify_failure(monkeypatch, tmp_path, capsys):
    # corrupt only the I1 that certify sees; full_suite keeps the true catalog
    true_source = kspoly.cli.generic_operators

    def perturbed_i1(case):
        ops = true_source(case).commuting
        return true_source(case)._replace(commuting=(perturb_term(ops[0], 0),) + ops[1:])

    monkeypatch.setattr(kspoly.cli, "generic_operators", perturbed_i1)
    report = tmp_path / "report.json"
    assert run("check", "--case", "V", "--nmax", "3",
               "--trials", "1", "--output", str(report)) == 1
    assert capsys.readouterr().out == (
        "case V trial 0 beta=53/5 kappa1=-12/5 kappa2=-1/7: PASS\n"
        "certify[V] [L,I1]=0: FAIL\n"
    )
    doc = json.loads(report.read_text())
    assert doc["passed"] is False
    [entry] = doc["reports"][-1]["checks"]
    assert (entry["check"], entry["case"], entry["status"]) == ("certify[V] [L,I1]=0", "V", "fail")
    records = entry["residual"]  # the symbolic [L, I1]
    assert records and all(set(r) == set("ijklpqrsc") for r in records)


def test_warm_check_composes_no_operator(monkeypatch, tmp_path):
    # the identity residuals are formed once per process: a second check of
    # every case forms none of them again, and neither does its certify entry
    argv = ["check", "--case", "all", "--trials", "3", "--seed", "7",
            "--output", str(tmp_path / "report.json")]
    true_matmul = GenericOp.__matmul__
    calls = []

    def counted(self, other):
        calls.append(1)
        return true_matmul(self, other)

    monkeypatch.setattr(GenericOp, "__matmul__", counted)
    identity_residuals.cache_clear()
    assert run(*argv) == 0
    assert calls  # the cold run composes, so the counter sees compositions
    calls.clear()
    assert run(*argv) == 0
    assert calls == []


def test_check_report_bytes_do_not_depend_on_the_cache(tmp_path, capsys):
    argv = ["check", "--case", "all", "--trials", "2", "--seed", "7"]
    outputs = []
    for clear in (True, False):
        if clear:
            identity_residuals.cache_clear()
        report = tmp_path / f"report-{clear}.json"
        assert run(*argv, "--output", str(report)) == 0
        outputs.append((capsys.readouterr().out, report.read_bytes()))
    assert outputs[0] == outputs[1]


def test_check_reports_an_inadmissible_oracle(monkeypatch, tmp_path, capsys):
    # 2*beta*y*d_y in case IX's L (its first term, beta*y*d_y, plus 1) leaves
    # no admissible table: the failure is an entry of a written report, and
    # the other cases keep their results
    true_source = catalog.generic_operators

    def perturbed_L(case):
        source = true_source(case)
        return source._replace(L=perturb_term(source.L, 0)) if case == "IX" else source

    monkeypatch.setattr(catalog, "generic_operators", perturbed_L)
    report = tmp_path / "report.json"
    assert run("check", "--case", "all", "--trials", "1", "--seed", "0",
               "--nmax", "3", "--output", str(report)) == 1
    assert "FAIL build-oracle:" in capsys.readouterr().out
    doc = json.loads(report.read_text())
    assert doc["passed"] is False
    by_case = {r["checks"][0]["case"]: r for r in doc["reports"] if "params" in r["checks"][0]}
    assert [case for case, r in by_case.items() if not r["passed"]] == ["IX"]
    [entry] = by_case["IX"]["checks"]
    assert (entry["check"], entry["status"]) == ("build-oracle", "fail")
    assert entry["error"]

def test_check_ix_reports_quadratic_relations(tmp_path):
    report = tmp_path / "report.json"
    assert run("check", "--case", "IX", "--nmax", "3",
               "--trials", "1", "--seed", "5", "--output", str(report)) == 0
    doc = json.loads(report.read_text())
    names = {c["check"] for r in doc["reports"] for c in r["checks"]}
    assert {"quadratic-1", "quadratic-2"} <= names


@pytest.mark.parametrize("trials", ["0", "-2"])
def test_check_rejects_vacuous_run(tmp_path, capsys, trials):
    report = tmp_path / "r.json"
    assert run("check", "--case", "I", "--trials", trials,
               "--output", str(report)) == 2
    assert "--trials must be at least 1" in capsys.readouterr().err
    assert not report.exists()


@pytest.mark.parametrize("trials", [0, -1])
def test_check_refuses_a_vacuous_run_as_a_parameter_error(trials):
    args = kspoly.cli.build_parser().parse_args(["check", "--case", "I", "--trials", str(trials)])
    with pytest.raises(ParameterError) as caught:
        kspoly.cli.cmd_check(args)
    assert str(caught.value) == f"--trials must be at least 1, not {trials}"


@pytest.mark.parametrize("case", ["I", "all"])
def test_check_rejects_negative_order(tmp_path, capsys, case):
    # check has no --order: the generating functions are audited to --nmax,
    # so the parser refuses the option before any case runs
    report = tmp_path / "r.json"
    with pytest.raises(SystemExit) as exc:
        run("check", "--case", case, "--trials", "1", "--order", "-1",
            "--output", str(report))
    assert exc.value.code == 2
    out, err = capsys.readouterr()
    assert "unrecognized arguments: --order -1" in err
    assert out == ""
    assert not report.exists()


def test_check_rejects_a_negative_nmax(tmp_path, capsys):
    # rejected up front, not as a failing build-oracle entry of the suite
    report = tmp_path / "r.json"
    assert run("check", "--case", "I", "--trials", "1", "--nmax=-1",
               "--output", str(report)) == 2
    out, err = capsys.readouterr()
    assert "error: --nmax must be nonnegative, not -1" in err
    assert out == ""
    assert not report.exists()


@pytest.mark.parametrize("nmax", ["0", "1"])
def test_check_runs_every_case_on_one_or_two_levels(tmp_path, capsys, nmax):
    # the raising operators and action formulas start at level 0
    report = tmp_path / "r.json"
    assert run("check", "--case", "all", "--trials", "1", "--seed", "0", "--nmax", nmax,
               "--output", str(report)) == 0
    assert "FAIL" not in capsys.readouterr().out
    assert json.loads(report.read_text())["passed"] is True


def test_check_unknown_case(capsys):
    assert run("check", "--case", "VII", "--trials", "1") == 2
    assert "--case must be one of I, II, III, V, VIII, IX, all, not 'VII'" in capsys.readouterr().err


def test_check_detects_corrupted_catalog(monkeypatch):
    # corrupt the L the verifier audits; the builders keep the true tables
    true_source = kspoly.verify.generic_operators
    monkeypatch.setattr(
        kspoly.verify,
        "generic_operators",
        lambda case: true_source(case)._replace(L=perturb_term(true_source(case).L, 0)),
    )
    code = run("check", "--case", "I", "--nmax", "3",
               "--trials", "1", "--seed", "1")
    assert code == 1


def test_internal_key_error_is_not_invalid_input(monkeypatch):
    # a KeyError from inside a builder is a bug, not exit 2 "invalid input"
    def broken(params, nmax):
        raise KeyError((0, 3))

    monkeypatch.setitem(kspoly.cli.BUILDERS, "oracle", broken)
    with pytest.raises(KeyError):
        main(["gen", "--case", "I", "--beta", "7/2", "--nmax", "3"])


def test_gf_zero_diffs(tmp_path):
    out = tmp_path / "gf.json"
    code = run("gf", "--case", "VIII", "--beta", "7/2", "--k1", "1/3",
               "--k2=-2/5", "--order", "5", "--output", str(out))
    assert code == 0
    doc = json.loads(out.read_text())
    assert doc["diffs"] == 0
    assert all(e["equal"] for e in doc["entries"])


def test_gf_order_zero(tmp_path):
    out = tmp_path / "gf.json"
    assert run("gf", "--case", "IX", "--beta", "3", "--order", "0",
               "--output", str(out)) == 0
    doc = json.loads(out.read_text())
    assert doc["entries"] == [
        {"m": 0, "n": 0, "genfun": [{"i": 0, "j": 0, "c": "1"}],
         "oracle": [{"i": 0, "j": 0, "c": "1"}], "equal": True}
    ]


def test_gf_rejects_negative_order(tmp_path, capsys):
    # the message names the flag
    out = tmp_path / "gf.json"
    assert run("gf", "--case", "V", "--beta", "7/2", "--order", "-1",
               "--output", str(out)) == 2
    stdout, err = capsys.readouterr()
    assert "error: --order must be nonnegative, not -1" in err
    assert stdout == ""
    assert not out.exists()


def test_gf_rejects_invalid_beta_by_the_rule(capsys):
    # the rule is applied at the order before the expansion, whose own
    # failure would be a vanishing normalization at (m,n)=(2,0)
    assert run("gf", "--case", "IX", "--beta", "-1", "--order", "2") == 2
    stdout, err = capsys.readouterr()
    assert err == (
        "error: beta = -1 violates the rule beta + k != 0 for 0 <= k <= 6 (fails at k = 1)\n"
    )
    assert stdout == ""


def test_gf_unsupported_case(capsys):
    assert run("gf", "--case", "II", "--beta", "3", "--order", "3") == 2
    err = capsys.readouterr().err
    assert "genfun case must be one of V, VIII, IX, not 'II'" in err


def test_export_roundtrip(tmp_path):
    src = tmp_path / "t.json"
    run("gen", "--case", "IX", "--beta", "3", "--nmax", "3",
        "--output", str(src))
    csv_out = tmp_path / "t.csv"
    assert run("export", "--input", str(src), "--format", "csv",
               "--output", str(csv_out)) == 0
    assert csv_out.read_text().splitlines()[0] == "m,n,i,j,c"
    tex_out = tmp_path / "t.tex"
    assert run("export", "--input", str(src), "--format", "latex",
               "--output", str(tex_out)) == 0
    assert "\\frac{1}{4}" in tex_out.read_text()


def test_export_missing_file(capsys, tmp_path):
    assert run("export", "--input", str(tmp_path / "nope.json"),
               "--format", "csv") == 2
    assert "error:" in capsys.readouterr().err


def test_export_rejects_malformed_json(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text('{"case": "IX",')
    assert run("export", "--input", str(bad), "--format", "csv") == 2
    assert capsys.readouterr().err.startswith("error: ")


def _drop_entry(doc):
    doc["polys"] = [p for p in doc["polys"] if (p["m"], p["n"]) != (0, 3)]
    return doc


def _retype_m(kind):
    # the record for (m, n) = (1, 0) gets m of another type but an equal
    # value: (1.0, 0) == (True, 0) == (1, 0) must not pass for an index
    def corrupt(doc):
        doc["polys"][1]["m"] = kind(doc["polys"][1]["m"])
        return doc
    return corrupt


def _numeric_coefficient(doc):
    doc["polys"][1]["terms"][0]["c"] = 3
    return doc


def _fractional_exponent(doc):
    # must be rejected, not truncated to x^1
    doc["polys"][1]["terms"][0]["i"] = 1.5
    return doc


@pytest.mark.parametrize(
    "corrupt, message",
    [
        (_drop_entry, "missing [(0, 3)]"),
        (lambda d: {**d, "nmax": -1}, "nmax must be nonnegative, not -1"),
        (lambda d: {**d, "nmax": 2}, "outside [(3, 0), (2, 1), (1, 2), (0, 3)]"),
        (lambda d: {**d, "nmax": 0},
         "missing [], outside [(1, 0), (0, 1), (2, 0), (1, 1), (0, 2), ...] (9 nodes)"),
        (lambda d: {**d, "polys": d["polys"] + d["polys"][:1]}, "duplicate entry"),
        (lambda d: {**d, "polys": "x"}, "polys must be a list"),
        (_fractional_exponent, "indices must be unique integers"),
        (lambda d: {**d, "beta": 3}, "beta must be a rational string"),
        (lambda d: [d], "must be an object"),
        (_retype_m(float), "m and n must be integers"),
        (_retype_m(bool), "m and n must be integers"),
        (lambda d: {**d, "method": {"x": [1]}},
         "method must be one of oracle, recurrence, ladder, transfer, not {'x': [1]}"),
        (lambda d: {**d, "method": "guess"},
         "method must be one of oracle, recurrence, ladder, transfer, not 'guess'"),
        (_numeric_coefficient, "not an exact rational: 3"),
        (lambda d: {**d, "beta": "-3"}, "violates the rule"),
    ],
    ids=["missing", "negative-nmax", "short-nmax", "zero-nmax", "duplicate", "polys-string",
         "fractional-exponent", "numeric-beta", "list", "float-m", "bool-m",
         "object-method", "unknown-method", "numeric-c", "rule-beta"],
)
def test_export_rejects_malformed_table(tmp_path, capsys, corrupt, message):
    src = tmp_path / "t.json"
    assert run("gen", "--case", "IX", "--beta", "3", "--nmax", "3",
               "--output", str(src)) == 0
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(corrupt(json.loads(src.read_text()))))
    assert run("export", "--input", str(bad), "--format", "csv") == 2
    assert message in capsys.readouterr().err


def test_export_rejects_an_empty_table_of_large_nmax_at_once(tmp_path, capsys):
    # the entries are matched against nmax in time linear in the document,
    # and the message names only the first few of the 4504501 missing nodes
    bad = tmp_path / "big.json"
    bad.write_text(json.dumps({"case": "I", "beta": "7/2", "kappa1": "1/3",
                               "kappa2": "-1/5", "nmax": 3000, "polys": []}))
    start = time.perf_counter()
    assert run("export", "--input", str(bad), "--format", "csv") == 2
    assert time.perf_counter() - start < 1.0
    err = capsys.readouterr().err
    assert "missing [(0, 0), (1, 0), (0, 1), (2, 0), (1, 1), ...] (4504501 nodes)" in err
    assert len(err) < 200


def test_export_rejects_deeply_nested_json(tmp_path, capsys):
    # malformed JSON exits 2, as for any unreadable input; 1 means a failed check
    deep = tmp_path / "deep.json"
    deep.write_text("[" * 200_000)
    assert run("export", "--input", str(deep), "--format", "csv") == 2
    assert "JSON nested too deeply to read" in capsys.readouterr().err


def _fresh_run(code, cwd=None):
    """Runs code in a fresh interpreter that imports kspoly from this
    checkout; returns the modules it loaded."""
    src = Path(kspoly.cli.__file__).resolve().parents[1]
    code = (
        "import sys\n"
        "before = set(sys.modules)\n"
        + code + "\n"
        "import kspoly\n"
        "print(kspoly.__file__)\n"
        "print(' '.join(sorted(set(sys.modules) - before)))\n"
    )
    proc = subprocess.run(
        [sys.executable, "-c", code],
        env={**os.environ, "PYTHONPATH": str(src)},
        cwd=cwd,
        capture_output=True,
        text=True,
        check=True,
    )
    where, added = proc.stdout.splitlines()[-2:]
    assert Path(where).resolve().parent.parent == src
    return set(added.split())


def test_import_loads_neither_dataclasses_nor_inspect():
    # every command imports the package first; dataclasses alone would
    # bring in inspect, ast, dis and tokenize
    assert not {"dataclasses", "inspect"} & _fresh_run("import kspoly, kspoly.cli")


AUDIT_LAYER = {"kspoly.verify", "kspoly.series", "csv"}

ALL_TABLES = """
from random import Random
from kspoly import CASES, sample_params
from kspoly.triangle import BUILDERS, dumps_json, triangle_to_json
for case in CASES:
    params = sample_params(case, Random(case))
    tables = [BUILDERS[method](params, 4) for method in BUILDERS]
    assert all(t.entries == tables[0].entries for t in tables)
    dumps_json(triangle_to_json(tables[0]))
"""

GEN_AND_EXPORT = """
from kspoly.cli import main
assert main(["gen", "--case", "I", "--beta", "7/2", "--nmax", "3", "--output", "t.json"]) == 0
for fmt in ("csv", "latex"):
    assert main(["export", "--input", "t.json", "--format", fmt, "--output", "t." + fmt]) == 0
"""

GF = """
from kspoly.cli import main
assert main(["gf", "--case", "VIII", "--beta", "7/2", "--order", "3", "--output", "gf.json"]) == 0
"""


@pytest.mark.parametrize(
    "code, loaded",
    [
        ("import kspoly, kspoly.cli", set()),
        ("from kspoly import *", {"kspoly.verify", "kspoly.series"}),
        (ALL_TABLES, set()),
        (GEN_AND_EXPORT, set()),
        (GF, {"kspoly.series"}),
    ],
    ids=["import", "star-import", "all-tables", "gen-export", "gf"],
)
def test_entry_points_load_only_the_layers_they_run(code, loaded, tmp_path):
    # the table builders never compile the audit layer; check and gf load
    # it on first use, and no entry point loads csv
    assert AUDIT_LAYER & _fresh_run(code, cwd=tmp_path) == loaded


def test_readme_python_blocks_run():
    # README's Library examples, in order and in one namespace, as a reader
    # would paste them, so they cannot drift from the package
    text = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    blocks = re.findall(r"^```python\n(.*?)^```$", text, re.DOTALL | re.MULTILINE)
    assert len(blocks) >= 2
    namespace = {}
    for block in blocks:
        exec(compile(block, "README.md", "exec"), namespace)

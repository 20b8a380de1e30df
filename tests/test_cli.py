import json

import pytest

import kspoly.cli
import kspoly.verify
from kspoly.cli import main
from kspoly.verify import perturb_term


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
    code = run("check", "--case", "V", "--nmax", "4", "--order", "4",
               "--trials", "2", "--seed", "7", "--skip-certify",
               "--output", str(report))
    assert code == 0
    doc = json.loads(report.read_text())
    assert doc["passed"] is True
    assert len(doc["reports"]) == 2


def test_check_with_certification():
    assert run("check", "--case", "VIII", "--nmax", "3", "--order", "3",
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
    true_ops = kspoly.cli.commuting_ops
    monkeypatch.setattr(
        kspoly.cli, "commuting_ops",
        lambda p: (perturb_term(true_ops(p)[0], 0),) + true_ops(p)[1:],
    )
    report = tmp_path / "report.json"
    assert run("check", "--case", "V", "--nmax", "3", "--order", "3",
               "--trials", "1", "--output", str(report)) == 1
    out = capsys.readouterr().out
    assert "PASS" in out.splitlines()[0]
    assert "certify[V] [L,I1]=0: FAIL" in out
    assert json.loads(report.read_text())["passed"] is False


def test_check_ix_reports_quadratic_relations(tmp_path):
    report = tmp_path / "report.json"
    assert run("check", "--case", "IX", "--nmax", "3", "--order", "3",
               "--trials", "1", "--seed", "5", "--skip-certify",
               "--output", str(report)) == 0
    doc = json.loads(report.read_text())
    names = {c["check"] for r in doc["reports"] for c in r["checks"]}
    assert {"quadratic-1", "quadratic-2"} <= names


@pytest.mark.parametrize("trials", ["0", "-2"])
def test_check_rejects_vacuous_run(tmp_path, capsys, trials):
    report = tmp_path / "r.json"
    assert run("check", "--case", "I", "--trials", trials, "--skip-certify",
               "--output", str(report)) == 2
    assert "--trials must be at least 1" in capsys.readouterr().err
    assert not report.exists()


@pytest.mark.parametrize("case, certify", [("I", "--skip-certify"), ("all", None)])
def test_check_rejects_negative_order(tmp_path, capsys, case, certify):
    # at the parent, case I printed PASS and 'all' failed late in case V
    report = tmp_path / "r.json"
    argv = ["check", "--case", case, "--trials", "1", "--order", "-1", "--output", str(report)]
    assert run(*argv, *([certify] if certify else [])) == 2
    out, err = capsys.readouterr()
    assert "--order must be nonnegative" in err
    assert out == ""
    assert not report.exists()


@pytest.mark.parametrize("nmax", ["1", "0", "-1"])
def test_check_rejects_shallow_nmax(tmp_path, capsys, nmax):
    # rejected up front, not by the action-formula check inside the suite
    report = tmp_path / "r.json"
    assert run("check", "--case", "I", "--trials", "1", "--nmax", nmax,
               "--output", str(report)) == 2
    out, err = capsys.readouterr()
    assert f"error: --nmax must be at least 2, not {nmax}" in err
    assert out == ""
    assert not report.exists()


def test_check_unknown_case(capsys):
    assert run("check", "--case", "VII", "--trials", "1") == 2
    assert "unknown case" in capsys.readouterr().err


def test_check_detects_corrupted_catalog(monkeypatch):
    # corrupt the L the verifier audits; the builders keep the true tables
    true_L = kspoly.verify.operator_L
    monkeypatch.setattr(
        kspoly.verify, "operator_L", lambda p: perturb_term(true_L(p), 0)
    )
    code = run("check", "--case", "I", "--nmax", "3", "--order", "3",
               "--trials", "1", "--seed", "1", "--skip-certify")
    assert code == 1


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
    # the message names the flag, not the internal field nmax_hint
    out = tmp_path / "gf.json"
    assert run("gf", "--case", "V", "--beta", "7/2", "--order", "-1",
               "--output", str(out)) == 2
    stdout, err = capsys.readouterr()
    assert "error: --order must be nonnegative, not -1" in err
    assert stdout == ""
    assert not out.exists()


def test_gf_unsupported_case(capsys):
    assert run("gf", "--case", "II", "--beta", "3", "--order", "3") == 2
    err = capsys.readouterr().err
    assert "no generating function" in err and "II" in err


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
        (lambda d: {**d, "nmax": -1}, "nmax must be a nonnegative integer"),
        (lambda d: {**d, "nmax": 2}, "outside [(3, 0), (2, 1), (1, 2), (0, 3)]"),
        (lambda d: {**d, "polys": d["polys"] + d["polys"][:1]}, "duplicate entry"),
        (lambda d: {**d, "polys": "x"}, "polys must be a list"),
        (_fractional_exponent, "indices must be unique integers"),
        (lambda d: {**d, "beta": 3}, "beta must be a rational string"),
        (lambda d: [d], "must be an object"),
        (_retype_m(float), "m and n must be integers"),
        (_retype_m(bool), "m and n must be integers"),
        (lambda d: {**d, "method": {"x": [1]}}, "method must name a builder"),
        (lambda d: {**d, "method": "guess"}, "method must name a builder"),
        (_numeric_coefficient, "not an exact rational: 3"),
    ],
    ids=["missing", "negative-nmax", "short-nmax", "duplicate", "polys-string",
         "fractional-exponent", "numeric-beta", "list", "float-m", "bool-m",
         "object-method", "unknown-method", "numeric-c"],
)
def test_export_rejects_malformed_table(tmp_path, capsys, corrupt, message):
    src = tmp_path / "t.json"
    assert run("gen", "--case", "IX", "--beta", "3", "--nmax", "3",
               "--output", str(src)) == 0
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(corrupt(json.loads(src.read_text()))))
    assert run("export", "--input", str(bad), "--format", "csv") == 2
    assert message in capsys.readouterr().err

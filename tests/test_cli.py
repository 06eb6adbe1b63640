import collections
import io
import json
import math
import re
import signal
import subprocess
import sys
import weakref
from contextlib import contextmanager, redirect_stderr, redirect_stdout
from pathlib import Path

import pytest

import anchorcalc as ac
from anchorcalc import cli, field_models, forms, linop, numeric, ode
from anchorcalc.modelfile import (
    ModelFileError,
    format_model,
    parse_model,
    parse_model_text,
)

FIXTURES = Path(__file__).parent / "fixtures"
GOLDEN = Path(__file__).parent / "golden"
OSCILLATOR = FIXTURES / "oscillator.ini"
LAYOUT = FIXTURES / "oscillator_layout.ini"


def run_cli(*argv):
    buf = io.StringIO()
    with redirect_stdout(buf):
        code = cli.main(list(argv))
    return code, buf.getvalue()


# --- model files --------------------------------------------------------------


def test_parse_oscillator_fixture():
    model = parse_model(OSCILLATOR)
    assert model.n == 2
    assert [ac.to_text(c) for c in model.system.v] == ["-x2", "x1"]
    assert model.alpha is not None
    assert model.f is not None and model.w is not None and model.hamiltonian is not None


def test_parse_round_trip_is_identity_on_canonical_files():
    model = parse_model(OSCILLATOR)
    once = format_model(model)
    twice = format_model(parse_model_text(once))
    assert once == twice


def test_missing_ode_section():
    with pytest.raises(ModelFileError, match=r"missing \[ode\] section"):
        parse_model_text("")


def test_malformed_expression_is_positioned():
    text = "[ode]\nn = 1\nv = [x1 +]\n"
    with pytest.raises(ModelFileError, match="column"):
        parse_model_text(text)


def test_dimension_mismatch():
    with pytest.raises(ModelFileError, match="components"):
        parse_model_text("[ode]\nn = 2\nv = [x1]\n")


def test_unknown_section():
    with pytest.raises(ModelFileError, match="unknown section"):
        parse_model_text("[ode]\nn = 1\nv = [x1]\n\n[extra]\nq = 1\n")


def test_anchor_key_validation():
    with pytest.raises(ModelFileError, match="alpha"):
        parse_model_text("[ode]\nn = 2\nv = [x1, x2]\n\n[anchor]\nbeta_12 = 1\n")
    with pytest.raises(ModelFileError, match="1 <= i < j"):
        parse_model_text("[ode]\nn = 2\nv = [x1, x2]\n\n[anchor]\nalpha_21 = 1\n")


@pytest.mark.parametrize(
    "first, second",
    [
        ("alpha_12 = 1", "alpha_1_2 = x1"),
        ("alpha_1_2 = x1", "alpha_12 = 1"),
        ("alpha_1_2 = 1", "alpha_01_2 = 1"),
    ],
)
def test_anchor_entry_named_twice_exits_2(tmp_path, capsys, first, second):
    # each spelling once named the same entry, and the last one silently won
    model = tmp_path / "twice.ini"
    model.write_text(f"[ode]\nn = 2\nv = [-x2, x1]\n\n[anchor]\n{first}\n{second}\n")
    code, out = run_cli("check", str(model))
    assert code == 2 and out == ""
    keys = " and ".join(line.split(" = ")[0] for line in (first, second))
    assert capsys.readouterr().err == f"error: [anchor] {keys} both set alpha_1_2 (line 7)\n"


def test_check_refuses_the_log_of_a_negative_constant(tmp_path, capsys):
    # log(-2) once stayed an opaque atom, and this model passed its
    # characteristic check, while the oracle refused it; the refusal names
    # its section, key and file line, as every other error in a value does
    model = tmp_path / "log_negative.ini"
    model.write_text("[ode]\nn = 1\nv = [0]\n\n[characteristic]\nf = x1*log(-2)\n")
    code, out = run_cli("check", str(model))
    assert code == 2 and out == ""
    assert capsys.readouterr().err == "error: [characteristic] f: log(-2) is undefined (line 6)\n"


@pytest.mark.parametrize(
    "f, digits",
    [
        # the flat reading and the grammar each once computed the power
        # first, for 16 s at 3^30000000, and then failed to print it
        ("3^30000000*x1", "integer power exceeds the digit budget (14313638 digits > 4300)"),
        ("(3)^30000000*x1", "integer power exceeds the digit budget (14313638 digits > 4300)"),
        ("x1/(-3)^-9013", "integer power exceeds the digit budget (4301 digits > 4300)"),
        # an exponent past a float's range
        (
            "3^1" + "0" * 400 + "*x1",
            "integer power exceeds the digit budget (over 10^299 digits > 4300)",
        ),
        ("7" * 4301 + "*x1", "integer literal exceeds the digit budget (4301 digits > 4300)"),
        ("x1^" + "1" * 4301, "integer literal exceeds the digit budget (4301 digits > 4300)"),
    ],
)
def test_check_refuses_an_integer_past_the_digit_budget(tmp_path, capsys, f, digits):
    model = tmp_path / "integer_power.ini"
    model.write_text(f"[ode]\nn = 1\nv = [x1]\n\n[characteristic]\nf = {f}\n")
    code, out = run_cli("check", str(model))
    assert code == 2 and out == ""
    assert capsys.readouterr().err == f"resource limit: {digits}\n"


def test_check_reports_a_residual_past_the_digit_budget_as_error(tmp_path):
    # the literals stay under the budget, but the characteristic residual
    # -x1*df/dx1 holds 2*10^8000: printing it once raised Python's
    # ValueError out of the run, and the whole report was lost; f is a
    # product, as the power (10^4000*x1 + 1)^2 is refused while it is read
    model = tmp_path / "large_coefficient.ini"
    model.write_text(
        "[ode]\nn = 1\nv = [x1]\n\n[characteristic]\nf = (10^4000*x1 + 1)*(10^4000*x1 + 1)\n\n"
        "[symmetry]\nw = [x1]\n"
    )
    code, out = run_cli("check", str(model), "--json")
    assert code == 2
    records = {c["name"]: c for c in json.loads(out)["checks"]}
    assert records["characteristic"]["status"] == "ERROR"
    assert records["characteristic"]["residual"] == (
        "printed integer exceeds the digit budget (8001 digits > 4300)"
    )
    assert records["symmetry"]["status"] == "PASS"


# --- run_checks ----------------------------------------------------------------


def test_run_checks_oscillator_all_pass():
    model = parse_model(OSCILLATOR)
    report = cli.run_checks(model)
    assert {c.status for c in report.checks} == {"PASS"}
    assert report.exit_code() == 0
    names = [c.name for c in report.sorted_checks()]
    assert names == sorted(cli.ODE_CHECKS)


def test_run_checks_records_failure_with_residual():
    text = OSCILLATOR.read_text().replace("f = (x1^2 + x2^2)/2", "f = x1")
    model = parse_model_text(text)
    report = cli.run_checks(model)
    by_name = {c.name: c for c in report.checks}
    assert by_name["characteristic"].status == "FAIL"
    assert by_name["characteristic"].residual == "x2"
    assert report.exit_code() == 1


def test_run_checks_skips_missing_sections():
    model = parse_model_text("[ode]\nn = 2\nv = [-x2, x1]\n")
    report = cli.run_checks(model)
    assert {c.status for c in report.checks} == {"SKIP"}
    assert report.exit_code() == 0


def test_run_checks_selection_and_unknown_name():
    model = parse_model(OSCILLATOR)
    report = cli.run_checks(model, ["anchor", "characteristic"])
    assert len(report.checks) == 2
    with pytest.raises(ValueError, match="unknown checks"):
        cli.run_checks(model, ["bogus"])


def test_every_check_appears_exactly_once():
    model = parse_model(OSCILLATOR)
    report = cli.run_checks(model)
    names = [c.name for c in report.checks]
    assert len(names) == len(set(names))


_SHARING_MODELS = [pytest.param(str(p), id=p.name) for p in sorted(FIXTURES.glob("*.ini"))] + [
    # f is no characteristic, and alpha df differs from w
    pytest.param(OSCILLATOR.read_text().replace("(x1^2 + x2^2)/2\n\n[sym", f"{f}\n\n[sym"), id=f)
    for f in ("x2", "x1*x2")
]


@pytest.mark.parametrize("model", _SHARING_MODELS)
def test_each_check_alone_gives_its_record_of_the_full_run(tmp_path, model):
    # the results that checks share within a run leak nothing into a record
    if "\n" in model:
        (tmp_path / "model.ini").write_text(model)
        model = str(tmp_path / "model.ini")
    _, out = run_cli("check", model, "--json")
    full = {c["name"]: c for c in json.loads(out)["checks"]}
    assert list(full) == sorted(cli.ODE_CHECKS)
    for name in cli.ODE_CHECKS:
        _, out = run_cli("check", model, "--only", name, "--json")
        assert json.loads(out)["checks"] == [full[name]]


def test_full_check_computes_each_shared_result_once(monkeypatch):
    # alpha df equals w in the oscillator, so noether_map and symmetry
    # bracket one distinct vector once; characteristic and twist_invariance
    # read one residual of f, and twist_invariance applies alpha to dH once
    calls = collections.Counter()
    for name in ("_lie_bracket", "_characteristic", "_anchor_apply"):
        real = getattr(ode, name)
        monkeypatch.setattr(
            ode, name, lambda *a, name=name, real=real, **k: calls.update([name]) or real(*a, **k)
        )
    report = cli.run_checks(parse_model(OSCILLATOR))
    assert {c.status for c in report.checks} == {"PASS"}
    # _characteristic: f once, and once the conserved f - g of the deformed
    # system; _anchor_apply: alpha df for noether_map and alpha dH
    assert calls == {"_lie_bracket": 1, "_characteristic": 2, "_anchor_apply": 2}
    calls.clear()
    cli.run_checks(parse_model(OSCILLATOR))  # a second run shares nothing with the first
    assert calls == {"_lie_bracket": 1, "_characteristic": 2, "_anchor_apply": 2}


def _count_form_builds(monkeypatch, vector, forms_of_interest):
    """Patch forms.interior and forms.exterior_d to count, per name in
    forms_of_interest, the interior products with the vector and the
    exterior derivatives of that form."""
    calls = collections.Counter()
    interior, exterior_d = forms.interior, forms.exterior_d

    def which(a):
        return next((n for n, f in forms_of_interest.items() if a.components == f.components), "")

    def counted_interior(xi, a):
        if xi.components == vector.components and which(a):
            calls.update([f"i_xi {which(a)}"])
        return interior(xi, a)

    def counted_exterior_d(a):
        if which(a):
            calls.update([f"d {which(a)}"])
        return exterior_d(a)

    monkeypatch.setattr(forms, "interior", counted_interior)
    monkeypatch.setattr(forms, "exterior_d", counted_exterior_d)
    return calls


def test_catalog_builds_each_derived_form_once(monkeypatch):
    # the characteristic, the current and L_xi H share one i_xi H, and
    # L_xi H reads the residual dH
    space = forms.lorentzian(6)
    H = forms.selfdual_project(forms.field_form(space, "H", 3))[0]
    calls = _count_form_builds(monkeypatch, forms.dilation(space), {"H": H})
    assert run_cli("catalog", "selfdual", "--n", "6", "--xi", "dil")[0] == 0
    assert calls == {"i_xi H": 1, "d H": 1}
    monkeypatch.undo()
    # the characteristic, the current and L_xi F share i_xi F, the first
    # two share i_xi *F, and L_xi F reads the residual dF (d*F is the other)
    space = forms.lorentzian(4)
    F = forms.field_form(space, "F", 2)
    r01 = forms.rotation(space, 0, 1)
    calls = _count_form_builds(monkeypatch, r01, {"F": F, "*F": forms.hodge(F)})
    assert run_cli("catalog", "pform", "--n", "4", "--p", "2", "--xi", "r01")[0] == 0
    assert calls == {"i_xi F": 1, "i_xi *F": 1, "d F": 1, "d *F": 1}


def test_cli_import_loads_no_dataclasses():
    # the report records are plain slotted classes: dataclasses would load
    # inspect, ast and dis at every start of the command
    code = "import sys, anchorcalc.cli; print(sorted({'dataclasses', 'inspect'} & set(sys.modules)))"
    result = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    assert result.returncode == 0, result.stderr
    assert result.stdout == "[]\n"


# --- CLI entry points ------------------------------------------------------------


def test_cli_check_human_and_exit_code():
    code, out = run_cli("check", str(OSCILLATOR))
    assert code == 0
    assert "characteristic" in out and "PASS" in out


def test_cli_check_json_matches_golden():
    code, out = run_cli("check", str(OSCILLATOR), "--json")
    assert code == 0
    golden = (GOLDEN / "oscillator_report.json").read_text()
    got = json.loads(out)
    want = json.loads(golden)
    want["model"] = str(OSCILLATOR)
    assert got == want


def test_cli_check_layout_fixture_matches_oscillator():
    # comment lines, the ':' delimiter and a continuation line change no check
    reports = [run_cli("check", str(path), "--json") for path in (OSCILLATOR, LAYOUT)]
    assert [code for code, _ in reports] == [0, 0]
    assert len({json.dumps(json.loads(out)["checks"]) for _, out in reports}) == 1


def test_cli_check_failure_exit_code(tmp_path):
    bad = tmp_path / "bad.ini"
    bad.write_text(OSCILLATOR.read_text().replace("f = (x1^2 + x2^2)/2", "f = x1"))
    code, out = run_cli("check", str(bad))
    assert code == 1
    assert "FAIL" in out


def test_cli_usage_errors():
    code, _ = run_cli("check", "no_such_file.ini")
    assert code == 2
    code, _ = run_cli("check", str(OSCILLATOR), "--only", "bogus")
    assert code == 2


@pytest.mark.parametrize("only", ["", "anchor,", ",anchor", "anchor,,symmetry", " , "])
def test_only_with_an_empty_entry_exits_2(only):
    # an empty entry names no check: it is a usage error of its own, neither
    # a request for every check nor an unknown check
    err = io.StringIO()
    with redirect_stderr(err):
        code, out = run_cli("check", str(OSCILLATOR), "--only", only)
    assert (code, out) == (2, "")
    assert err.getvalue() == f"error: --only has an empty entry: {only!r}\n"


def test_cli_convention_sheet():
    code, out = run_cli("--convention")
    assert code == 0
    assert "Hodge star" in out and "Twist sign" in out
    # the Budgets block is the table of budgets, one row per line
    rows = [f"      {name}: {limit} {unit}\n" for name, (limit, unit) in ac.expr.BUDGETS.items()]
    head = "  * Budgets, all constants; a run that would pass one exits 2:\n"
    assert head + "".join(rows) + "\nODE bivector calculus" in out


def test_conventions_md_describes_every_budget_row():
    # CONVENTIONS.md gives each row of expr.BUDGETS a bullet of its own,
    # which names the row in its head, "Step budget:", or in parentheses,
    # "Search budget (the column budget):"; no bullet names another row
    text = (Path(__file__).parents[1] / "CONVENTIONS.md").read_text()
    block = text.split("\n* Budgets:", 1)[1].split("\n## ", 1)[0]
    named = []
    for bullet in block.split("\n* ")[1:]:
        head = bullet.split(":", 1)[0]
        inner = re.fullmatch(r"[^(]*\(the ([^)]+)\)", head)
        named.append(inner.group(1) if inner else head.lower())
    assert sorted(named) == sorted(ac.expr.BUDGETS)


@pytest.mark.parametrize(
    "argv",
    [
        ("check", str(OSCILLATOR)),
        ("catalog", "pform", "--n", "3", "--p", "1"),
        ("oracle", str(OSCILLATOR), "--t-end", "1"),
    ],
)
def test_timings_change_only_the_ms_fields(argv):
    code, plain = run_cli(*argv, "--json")
    timed_code, timed = run_cli(*argv, "--json", "--timings")
    assert code == timed_code
    plain, timed = json.loads(plain), json.loads(timed)
    assert all(c["ms"] == 0 for c in plain["checks"])
    assert all(isinstance(c["ms"], (int, float)) and c["ms"] >= 0 for c in timed["checks"])
    for c in timed["checks"]:
        c["ms"] = 0
    assert timed == plain


def test_cli_catalog_pform_small():
    code, out = run_cli("catalog", "pform", "--n", "2", "--p", "1", "--a", "1", "--b", "0", "--xi", "t0")
    assert code == 0
    assert "anchor_identity" in out


def test_cli_catalog_selfdual_json():
    code, out = run_cli("catalog", "selfdual", "--n", "2", "--json")
    assert code == 0
    doc = json.loads(out)
    assert all(c["status"] == "PASS" for c in doc["checks"])


def test_cli_catalog_chiral():
    code, out = run_cli("catalog", "chiral", "--g", "1", "--epsilon", "1,0,0", "--xi", "t0")
    assert code == 0


@pytest.mark.parametrize(
    "argv, model, method, wrong, failed",
    [
        (
            ("selfdual", "--n", "2"),
            field_models.SelfDualModel,
            "characteristic",
            lambda psi, xi: psi.scale(2),
            {f"certificates[{x}]": "current_residual: (" for x in ("t0", "t1", "dil")},
        ),
        (
            ("chiral",),
            field_models.ChiralModel,
            "internal_characteristic",
            lambda psi, eps: ([form.scale(2) for form in psi[0]], psi[1]),
            {"internal_certificates": "transform_residual[1]: ("},
        ),
        (
            # each multiplet component's residuals, in parentheses
            ("chiral",),
            field_models.SelfDualModel,
            "characteristic",
            lambda psi, xi: psi.scale(2),
            {
                f"spacetime_certificates[{x}]": "H1: (current_residual: ("
                for x in ("t0", "t1", "dil")
            },
        ),
        # energy_momentum reads the translation currents and does not
        # certify them again, so it passes beside their failed certificates
        (
            ("pform", "--n", "2", "--p", "1", "--xi", "t0"),
            field_models.PFormModel,
            "killing_characteristic",
            lambda psi, xi: (psi[0].scale(2), psi[1]),
            {
                "current_certificate[t0]": "current_residual: (",
                "proper_symmetry[t0]": "transform_residual: (",
            },
        ),
        (
            ("pform",),
            field_models.PFormModel,
            "killing_characteristic",
            lambda psi, xi: (psi[0].scale(2), psi[1]),
            {
                f"{check}[t{mu}]": f"{residual}: ("
                for mu in range(4)
                for check, residual in (
                    ("current_certificate", "current_residual"),
                    ("proper_symmetry", "transform_residual"),
                )
            },
        ),
    ],
)
def test_catalog_fail_lists_each_nonzero_residual(monkeypatch, argv, model, method, wrong, failed):
    code, out = run_cli("catalog", *argv, "--json")
    assert code == 0
    clean = {c["name"]: c["status"] for c in json.loads(out)["checks"]}
    original = getattr(model, method)
    monkeypatch.setattr(model, method, lambda self, arg: wrong(original(self, arg), arg))
    code, out = run_cli("catalog", *argv, "--json")
    assert code == 1
    records = {c["name"]: c for c in json.loads(out)["checks"]}
    assert records.keys() == clean.keys()
    for name, record in records.items():
        if name in failed:
            assert record["status"] == "FAIL", name
            assert record["residual"].startswith(failed[name]), record
            assert ") dx" in record["residual"], record
        else:
            assert record["status"] == clean[name], name


@pytest.mark.parametrize(
    "argv, message",
    [
        (("selfdual", "--n", "2"), "self-dual fields need Lorentzian R^{4k+2}"),
        (("selfdual", "--n", "6"), "self-dual fields need Lorentzian R^{4k+2}"),
        (("chiral",), "the chiral model lives on Lorentzian R^2"),
        (("chiral", "--algebra", "abelian1", "--epsilon", "1"), "the chiral model lives on Lorentzian R^2"),
    ],
)
def test_cli_catalog_euclidean_is_refused_by_lorentzian_families(argv, message, capsys):
    # --euclidean was once ignored here, and the Lorentzian model PASSed
    code, out = run_cli("catalog", *argv, "--euclidean", "--json")
    assert code == 2 and out == ""
    assert capsys.readouterr().err == f"error: {message}\n"


@pytest.mark.parametrize(
    "argv",
    [("catalog", "selfdual", "--n", "3"), ("catalog", "pform", "--n", "2", "--p", "5")],
)
def test_cli_catalog_construction_error_exits_2(argv, capsys):
    code, out = run_cli(*argv)
    err = capsys.readouterr().err
    assert code == 2 and out == ""
    assert err.startswith("error: ") and err.count("\n") == 1


@pytest.mark.parametrize("model", ["pform", "selfdual"])
@pytest.mark.parametrize("value", ["0", "-3", "two"])
def test_cli_catalog_dimension_below_one_exits_2(model, value, capsys):
    # n < 1 once built a 1-dimensional space and named p=1, n=1 in its error
    with pytest.raises(SystemExit) as stop:
        cli.main(["catalog", model, "--n", value, "--p", "1"])
    assert stop.value.code == 2
    err = capsys.readouterr().err
    assert f"argument --n: expected an integer >= 1, got '{value}'" in err


def test_cli_out_of_memory_exits_2_with_one_line(monkeypatch, capsys):
    def exhausted(args):
        raise MemoryError

    monkeypatch.setattr(cli, "catalog_report", exhausted)
    code, out = run_cli("catalog", "pform", "--json")
    assert code == 2 and out == ""
    assert capsys.readouterr().err == "resource limit: out of memory\n"


@pytest.mark.parametrize(
    "argv",
    [
        ("pform", "--a", "1/0"),
        ("pform", "--b", "1/0"),
        ("chiral", "--g", "1/0"),
        ("chiral", "--epsilon", "1,1/0"),
        ("chiral", "--epsilon", "1,1"),  # su2 has three generators
    ],
)
def test_cli_catalog_bad_option_value_exits_2(argv, capsys):
    code, out = run_cli("catalog", *argv)
    err = capsys.readouterr().err
    assert code == 2 and out == ""
    assert err.startswith(f"error: {argv[1]} ") and err.count("\n") == 1


def test_cli_main_calls_share_no_state(capsys):
    assert cli.build_parser() is cli.build_parser()
    code, out = run_cli("check", str(OSCILLATOR), "--json")
    assert code == 0 and json.loads(out)["checks"]
    code, out = run_cli("check", str(OSCILLATOR))
    assert code == 0 and not out.startswith("{") and "PASS" in out
    # a usage error goes to the stderr of its own call
    with redirect_stderr(io.StringIO()) as earlier:
        with pytest.raises(SystemExit):
            cli.main(["oracle", str(OSCILLATOR), "--step=0"])
    capsys.readouterr()
    with pytest.raises(SystemExit) as stop:
        cli.main(["oracle", str(OSCILLATOR), "--points=0"])
    assert stop.value.code == 2
    assert "argument --step" in earlier.getvalue()
    err = capsys.readouterr().err
    assert "argument --points" in err and "argument --step" not in err


def test_cli_deep_nesting_exits_2(tmp_path, capsys):
    model = tmp_path / "deep.ini"
    model.write_text("[ode]\nn = 1\nv = [" + "(" * 5000 + "x1" + ")" * 5000 + "]\n")
    code, out = run_cli("check", str(model))
    err = capsys.readouterr().err
    assert code == 2 and out == ""
    assert err.startswith("error: ") and err.count("\n") == 1 and "nested" in err


@pytest.mark.parametrize(
    "v, found",
    [
        ("[sin(x1_t), x1]", "x1_t"),  # only inside a function atom's argument
        ("[x1 + exp(t*x2), x2_tt*cos(x1_t)]", "x1_t, x2_tt"),
    ],
)
def test_cli_jet_derivative_in_v_exits_2(tmp_path, capsys, v, found):
    model = tmp_path / "jet.ini"
    model.write_text(f"[ode]\nn = 2\nv = {v}\n")
    code, out = run_cli("check", str(model))
    assert code == 2 and out == ""
    assert capsys.readouterr().err == (
        f"error: v must depend on (t, x) only, found {found}; "
        "use linop.ShellRules to reduce derivatives on shell first\n"
    )


def test_cli_nested_power_exits_2(tmp_path, capsys):
    # the expansion has 31,465 monomials, under the cap, but its last product
    # would take 7315 x 715 term products, over it: refused before its loop
    model = tmp_path / "nested.ini"
    model.write_text("[ode]\nn = 3\nv = [(((x1 + x2 + x3 + t + 1)^3)^3)^3, x1, x2]\n")
    code, out = run_cli("check", str(model))
    err = capsys.readouterr().err
    assert code == 2 and out == ""
    assert err.startswith("resource limit: ") and err.count("\n") == 1
    assert "7315 x 715 term products" in err


def test_check_over_the_check_budget_is_an_error_record(monkeypatch):
    # the dense-anchor square at n = 12 forms 605 term products; under a
    # budget of 604 its record is an ERROR that names the budget and the
    # count, every other record is as before, and the run exits 2
    dense = str(FIXTURES / "dense_anchor.ini")
    code, out = run_cli("check", dense, "--json")
    before = {c["name"]: c for c in json.loads(out)["checks"]}
    monkeypatch.setitem(ac.expr.BUDGETS, "check budget", (604, "term products"))
    code_refused, out = run_cli("check", dense, "--json")
    after = {c["name"]: c for c in json.loads(out)["checks"]}
    assert (code, code_refused) == (1, 2)
    assert after.pop("schouten_square") == {
        "name": "schouten_square",
        "status": "ERROR",
        "residual": "the Schouten square exceeds the check budget (605 term products > 604)",
        "ms": 0,
    }
    del before["schouten_square"]
    assert after == before


def _counting(counts, key, fn):
    def wrapper(*args, **kwargs):
        counts[key] += 1
        return fn(*args, **kwargs)

    return wrapper


@pytest.mark.parametrize(
    "argv, adjoints",
    [
        # one V in anchor_ops, one J* in anchor_verify
        (("catalog", "pform", "--n", "4", "--p", "2"), 2),
        (("catalog", "selfdual", "--n", "2"), 1),
        (("catalog", "pform", "--n", "4", "--p", "2", "--xi", "r01"), 2),
    ],
)
def test_catalog_builds_model_artifacts_once(monkeypatch, argv, adjoints):
    counts = collections.Counter()
    monkeypatch.setattr(
        linop.ShellRules, "__init__", _counting(counts, "shell", linop.ShellRules.__init__)
    )
    monkeypatch.setattr(
        linop.LinDiffOp,
        "formal_adjoint",
        _counting(counts, "adjoint", linop.LinDiffOp.formal_adjoint),
    )
    # Every current j(xi) is built from wedge terms of one table, and so is
    # every certificate's pairing density; energy-momentum only reads the
    # translation currents, and builds those that the report has not built
    # before it.
    in_emt = []

    def counted(self, *args, fn=forms._Sum.add_wedge):
        if in_emt:
            counts["wedge in energy_momentum"] += 1
        return fn(self, *args)

    monkeypatch.setattr(forms._Sum, "add_wedge", counted)
    for model in (field_models.PFormModel, field_models.SelfDualModel):

        def emt(self, original=model.energy_momentum):
            in_emt.append(True)
            try:
                return original(self)
            finally:
                in_emt.pop()

        monkeypatch.setattr(model, "energy_momentum", emt)
    code, _ = run_cli(*argv)
    assert code == 0
    expected = {"shell": 1, "adjoint": adjoints}
    if "--xi" in argv:
        # the report builds no translation current: two wedge terms for each of the four
        expected["wedge in energy_momentum"] = 8
    assert counts == expected


def test_cli_search():
    code, out = run_cli("search", str(OSCILLATOR), "--degree", "2")
    assert code == 0
    assert out.strip() == "x2^2 + x1^2"
    code, out = run_cli("search", str(OSCILLATOR), "--degree", "1")
    assert code == 0
    assert "no polynomial characteristics" in out


def test_cli_entry_point_subprocess():
    result = subprocess.run(
        [sys.executable, "-m", "anchorcalc.cli", "check", str(OSCILLATOR), "--json"],
        capture_output=True,
        text=True,
    )
    assert result.returncode == 0
    assert json.loads(result.stdout)["version"] == "1"


def test_package_runs_with_mpmath_blocked():
    # the package has no runtime dependency: every module imports, a check
    # of a model with function atoms runs, and a transitivity rank over
    # function atoms is exact, all with mpmath unimportable
    code = (
        "import importlib, pkgutil, sys\n"
        "sys.modules['mpmath'] = None\n"
        "import anchorcalc\n"
        "for m in pkgutil.iter_modules(anchorcalc.__path__):\n"
        "    importlib.import_module('anchorcalc.' + m.name)\n"
        "from fractions import Fraction\n"
        "from anchorcalc import cli, ode\n"
        "from anchorcalc import expr as ex\n"
        f"assert cli.main(['check', {str(FIXTURES / 'pendulum.ini')!r}, '--json']) == 0\n"
        "x1 = ex.jet('x1')\n"
        "alpha = ode.Bivector(2, {(0, 1): ex.sin(x1)**2 + ex.cos(x1)**2 - 1})\n"
        "assert ode.transitivity_rank(alpha, [0, Fraction(1, 3), 2]) == 0\n"
    )
    result = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    assert result.returncode == 0, result.stderr


def test_cross_process_byte_determinism():
    def run_once():
        out = []
        for argv in (
            ["check", str(OSCILLATOR), "--json"],
            ["catalog", "selfdual", "--n", "2", "--json"],
        ):
            result = subprocess.run(
                [sys.executable, "-m", "anchorcalc.cli", *argv],
                capture_output=True,
                text=True,
            )
            assert result.returncode == 0
            out.append(result.stdout)
        return "".join(out)

    assert run_once() == run_once()


# --- numeric oracle ----------------------------------------------------------------


def test_oracle_oscillator_drift_small():
    code, out = run_cli("oracle", str(OSCILLATOR), "--json", "--seed", "3")
    assert code == 0
    doc = json.loads(out)
    (check,) = doc["checks"]
    drift = float(check["residual"].split("=")[1].split()[0])
    assert drift < 1e-6


def test_oracle_zero_field_zero_drift():
    model = parse_model_text(
        "[ode]\nn = 2\nv = [0, 0]\n\n[characteristic]\nf = x1*x2\n"
    )
    records = numeric.integrate_drift(model.system, [("f", model.f)], t_end=1.0, step=0.01)
    assert records[0].drift == 0.0


def test_oracle_advisory_for_non_characteristicezi(tmp_path):
    bad = tmp_path / "bad.ini"
    bad.write_text(OSCILLATOR.read_text().replace("f = (x1^2 + x2^2)/2", "f = x1"))
    code, out = run_cli("oracle", str(bad), "--t-end", "1", "--json")
    assert code == 0
    doc = json.loads(out)
    (check,) = doc["checks"]
    assert check["status"] == "SKIP"
    assert "advisory" in check["residual"]
    drift = float(check["residual"].split("=")[1].split()[0])
    assert drift > 1e-2  # order-one drift, reported but not failed


def test_oracle_requires_characteristic(tmp_path):
    plain = tmp_path / "plain.ini"
    plain.write_text("[ode]\nn = 2\nv = [-x2, x1]\n")
    code, _ = run_cli("oracle", str(plain))
    assert code == 2


def test_oracle_blowup_flagged(tmp_path):
    runaway = tmp_path / "runaway.ini"
    runaway.write_text("[ode]\nn = 1\nv = [-x1^3]\n\n[characteristic]\nf = x1\n")
    code, out = run_cli("oracle", str(runaway), "--t-end", "50", "--step", "1.0", "--json")
    assert code == 2
    doc = json.loads(out)
    assert "blow-up" in doc["checks"][0]["residual"]


@pytest.mark.parametrize(
    "flag, value",
    [
        ("--step", "0"),
        ("--step", "-1e-3"),
        ("--step", "nan"),
        ("--t-end", "0"),
        ("--t-end", "inf"),
        ("--t-end", "ten"),
        ("--points", "0"),
        ("--points", "2.5"),
        ("--tolerance", "nan"),
        ("--tolerance", "-1"),
        ("--tolerance", "inf"),
    ],
)
def test_oracle_rejects_bad_numbers(flag, value, capsys):
    with pytest.raises(SystemExit) as stop:
        cli.main(["oracle", str(OSCILLATOR), f"{flag}={value}"])
    assert stop.value.code == 2
    assert f"argument {flag}" in capsys.readouterr().err


def test_oracle_domain_error_is_an_error_record(tmp_path):
    # log(-x1^2) is undefined at every start point
    model = tmp_path / "log.ini"
    model.write_text("[ode]\nn = 1\nv = [x1]\n\n[characteristic]\nf = log(-x1^2)\n")
    code, out = run_cli("oracle", str(model), "--t-end", "0.01", "--json")
    assert code == 2
    (check,) = json.loads(out)["checks"]
    assert check["name"] == "drift[f]" and check["status"] == "ERROR"


@pytest.mark.parametrize("seed", ["1", "3"])
def test_oracle_mid_trajectory_domain_error_is_an_error_record(tmp_path, seed):
    # x1 starts positive and falls at unit speed: log(x1) leaves its domain before t = 20
    model = tmp_path / "log.ini"
    model.write_text("[ode]\nn = 1\nv = [1]\n\n[characteristic]\nf = log(x1)\n")
    code, out = run_cli(
        "oracle", str(model), "--t-end", "20", "--points", "1", "--seed", seed, "--json"
    )
    assert code == 2
    (check,) = json.loads(out)["checks"]
    assert check["name"] == "drift[f]" and check["status"] == "ERROR"
    assert float(check["residual"].split("=")[1].split()[0]) > 0  # drifted before it stopped


@pytest.mark.parametrize(
    "v, f, argv, drifted, cause",
    [
        # x1 falls at unit speed until log(x1) is undefined
        ("1", "log(x1)", ["--t-end", "20", "--points", "1", "--seed", "1"], True, "f = log(x1)"),
        # undefined at every start point
        ("x1", "log(-x1^2)", ["--t-end", "0.01"], False, "f = log(-x1^2)"),
        # the vector field itself leaves its domain
        ("log(x1)", "x1", ["--t-end", "5", "--seed", "0"], True, "v = [log(x1)]"),
    ],
)
def test_oracle_domain_error_names_the_expression(tmp_path, v, f, argv, drifted, cause):
    model = tmp_path / "domain.ini"
    model.write_text(f"[ode]\nn = 1\nv = [{v}]\n\n[characteristic]\nf = {f}\n")
    code, out = run_cli("oracle", str(model), *argv, "--json")
    assert code == 2
    (check,) = json.loads(out)["checks"]
    assert check["status"] == "ERROR"
    assert check["residual"].endswith(f" (domain error in {cause}, partial)")
    assert "blow-up" not in check["residual"]
    assert (float(check["residual"].split()[2]) > 0) == drifted


class _Deadline(Exception):
    pass


@contextmanager
def _deadline(seconds):
    """Raise _Deadline in the main thread if the block runs longer."""

    def stop(signum, frame):
        raise _Deadline(f"still running after {seconds} s")

    previous = signal.signal(signal.SIGALRM, stop)
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)


@pytest.mark.parametrize(
    "argv", [["--step", "1e-300"], ["--t-end", "1e308", "--step", "1e-300"]]
)
def test_oracle_step_budget_exits_2_at_once(argv, capsys):
    with _deadline(5):
        code = cli.main(["oracle", str(OSCILLATOR), *argv])
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith("resource limit:") and err.count("\n") == 1


@pytest.mark.parametrize("t_end", ["0.0004", "0.0005"])
def test_oracle_run_without_a_step_exits_2_before_any_work(t_end, monkeypatch, capsys):
    # t_end / step rounds to 0: no RK4 step would run, and a drift of 0
    # would pass; the model file is not even read.  From 0.0006 on, one step
    assert run_cli("oracle", str(OSCILLATOR), "--t-end", "0.0006")[0] == 0
    capsys.readouterr()
    monkeypatch.setattr(cli, "parse_model", lambda path: pytest.fail("the model was read"))
    code = cli.main(["oracle", str(OSCILLATOR), "--t-end", t_end])
    assert code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error:") and "no RK4 step" in captured.err
    assert captured.err.count("\n") == 1


@pytest.mark.parametrize("points", [1, 3])
def test_oracle_step_budget_boundary(points):
    model = parse_model(OSCILLATOR)
    t_end = float(ac.expr.BUDGETS["step budget"][0] // points + 1)
    with pytest.raises(ac.ResourceLimitError):
        numeric.integrate_drift(model.system, [("f", model.f)], t_end=t_end, step=1.0, points=points)


def test_oracle_coefficient_past_float_range_is_an_error(tmp_path, capsys):
    model = tmp_path / "huge.ini"
    model.write_text("[ode]\nn = 1\nv = [10^400*x1]\n\n[characteristic]\nf = x1\n")
    with _deadline(5):
        code = cli.main(["oracle", str(model)])
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and "float" in err and err.count("\n") == 1


@pytest.mark.parametrize("degree", ["-3", "-1", "2.5", "two"])
def test_search_rejects_bad_degree(degree, capsys):
    with pytest.raises(SystemExit) as stop:
        cli.main(["search", str(OSCILLATOR), f"--degree={degree}"])
    assert stop.value.code == 2
    assert "argument --degree" in capsys.readouterr().err


def test_search_degree_zero_has_no_solutions():
    code, out = run_cli("search", str(OSCILLATOR), "--degree", "0")
    assert code == 0
    assert "no polynomial characteristics up to degree 0" in out


@pytest.mark.parametrize("n, degree", [(4, 9), (6, 12)])
def test_search_column_budget_exits_2_at_once(tmp_path, capsys, n, degree):
    # 2002 and 50388 monomials: just over the budget, and far over it
    assert math.comb(n + 1 + degree, degree) > ac.expr.BUDGETS["column budget"][0]
    rotations = ", ".join(f"-x{i + 2}, x{i + 1}" for i in range(0, n, 2))
    model = tmp_path / "rotations.ini"
    model.write_text(f"[ode]\nn = {n}\nv = [{rotations}]\n")
    with _deadline(5):
        code = cli.main(["search", str(model), "--degree", str(degree)])
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith("resource limit:") and err.count("\n") == 1


def test_catalog_over_the_work_budget_builds_no_form(monkeypatch, capsys):
    builds = []

    def counted(init):
        return lambda *a, **k: builds.append(1) or init(*a, **k)

    for cls in (forms.Form, forms.FlatSpace):
        monkeypatch.setattr(cls, "__init__", counted(cls.__init__))
    for argv in (("pform", "--n", "40", "--p", "20"), ("selfdual", "--n", "14")):
        with _deadline(5):
            code = cli.main(["catalog", *argv])
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("resource limit:") and err.count("\n") == 1
    assert builds == []


@pytest.mark.parametrize(
    "argv, work", [(("pform", "--n", "4", "--p", "2"), 6 * 16), (("selfdual", "--n", "2"), 2 * 4)]
)
def test_catalog_work_budget_boundary(monkeypatch, capsys, argv, work):
    # the work estimate is C(n, p) * n^2, with p = n/2 for the self-dual field
    unit = ac.expr.BUDGETS["catalog budget"][1]
    monkeypatch.setitem(ac.expr.BUDGETS, "catalog budget", (work, unit))
    assert run_cli("catalog", *argv)[0] == 0
    monkeypatch.setitem(ac.expr.BUDGETS, "catalog budget", (work - 1, unit))
    assert run_cli("catalog", *argv)[0] == 2
    assert capsys.readouterr().err.startswith("resource limit:")


@pytest.mark.parametrize(
    "budget, argv",
    [
        ("node limit", ["check", "{model}"]),
        ("column budget", ["search", "{model}", "--degree", "12"]),
        ("step budget", ["oracle", "{model}", "--step", "1e-300"]),
        ("catalog budget", ["catalog", "pform", "--n", "40", "--p", "20"]),
    ],
)
def test_every_refusal_names_its_budget_and_limit(tmp_path, capsys, monkeypatch, budget, argv):
    v = "x2"
    if budget == "node limit":  # (x1 + x2 + x3 + x4)^2 has 10 monomials
        v = "(x1 + x2 + x3 + x4)^2"
        monkeypatch.setattr(ac.expr, "NODE_LIMIT", 9)
    model = tmp_path / "refused.ini"
    model.write_text(f"[ode]\nn = 4\nv = [{v}, x1, x4, x3]\n\n[characteristic]\nf = x3 - x4\n")
    with _deadline(5):
        code = cli.main([a.format(model=model) for a in argv])
    assert code == 2
    limit = ac.expr.NODE_LIMIT if budget == "node limit" else ac.expr.BUDGETS[budget][0]
    err = capsys.readouterr().err
    assert err.startswith("resource limit: ") and err.count("\n") == 1
    assert f" exceeds the {budget} (" in err and err.endswith(f" > {limit})\n")


def test_catalog_work_budget_admits_the_pinned_reports():
    # CI pins pform n = 10 (p = 2 and 5) and selfdual n = 10; the benchmark
    # stops at n = 6
    for n, p in ((10, 2), (10, 5), (8, 4), (6, 3)):
        assert math.comb(n, p) * n * n <= ac.expr.BUDGETS["catalog budget"][0]


def test_rk4_convergence_order():
    # halving the step should shrink oscillator drift ~16x (4th order)
    model = parse_model(OSCILLATOR)
    d1 = numeric.integrate_drift(model.system, [("f", model.f)], t_end=10.0, step=0.02, points=1)
    d2 = numeric.integrate_drift(model.system, [("f", model.f)], t_end=10.0, step=0.01, points=1)
    assert d2[0].drift < d1[0].drift / 8


# --- determinism ---------------------------------------------------------------------


def test_reports_byte_identical_across_runs():
    first = run_cli("check", str(OSCILLATOR), "--json")
    second = run_cli("check", str(OSCILLATOR), "--json")
    assert first == second
    o1 = run_cli("oracle", str(OSCILLATOR), "--seed", "11", "--t-end", "5", "--json")
    o2 = run_cli("oracle", str(OSCILLATOR), "--seed", "11", "--t-end", "5", "--json")
    assert o1 == o2


def test_seed_changes_oracle_samples():
    m = parse_model(OSCILLATOR)
    p1 = numeric.random_initial_points(2, 1)
    p2 = numeric.random_initial_points(2, 2)
    assert p1 != p2
    assert p1 == numeric.random_initial_points(2, 1)


def test_euler_top_fixture_full_suite():
    top = FIXTURES / "euler_top.ini"
    code, out = run_cli("check", str(top))
    assert code == 0 and "FAIL" not in out
    code, out = run_cli("search", str(top), "--degree", "2")
    assert code == 0
    lines = out.strip().splitlines()
    assert len(lines) == 2  # quadratic invariants of the asymmetric top
    model = parse_model(top)
    for line in lines:
        f = ac.parse_expr(line, model.context())
        assert ode.check_characteristic(model.system, f)[0]


PENDULUM_CHECKS = (
    "anchor", "characteristic", "noether_map", "proper_symmetry",
    "schouten_square", "symmetry", "twist_invariance",
)


def test_pendulum_fixture_verdicts(tmp_path):
    # function atoms in every section.  v = -alpha dH with alpha = 1 and
    # H = x2^2/2 - cos(x1): v . grad f = 0, div v = 0 with alpha constant,
    # w = alpha df = -v, psi = df is closed with psi . v = 0, and {f, H} = 0
    pendulum = FIXTURES / "pendulum.ini"
    code, out = run_cli("check", str(pendulum), "--json")
    assert code == 0
    assert {c["name"]: c["status"] for c in json.loads(out)["checks"]} == dict.fromkeys(
        PENDULUM_CHECKS, "PASS"
    )
    # f = x2^2/2 + cos(x1) is no longer conserved: v . grad f = 2*x2*sin(x1)
    mutant = tmp_path / "mutant.ini"
    mutant.write_text(pendulum.read_text().replace("f = x2^2/2 - cos(x1)", "f = x2^2/2 + cos(x1)"))
    code, out = run_cli("check", str(mutant), "--json")
    assert code == 1
    checks = {c["name"]: c for c in json.loads(out)["checks"]}
    failing = {"characteristic", "noether_map", "proper_symmetry", "twist_invariance"}
    assert {name: c["status"] for name, c in checks.items()} == {
        name: "FAIL" if name in failing else "PASS" for name in PENDULUM_CHECKS
    }
    assert checks["characteristic"]["residual"] == "-2*x2*sin(x1)"


def test_pendulum_identity_fixture_verdicts(tmp_path):
    # the pendulum with w = [x2*(sin(x1)^2 + cos(x1)^2), -sin(x1)], equal to
    # its w: the symmetry residual is zero modulo sin^2 + cos^2 - 1
    identity = FIXTURES / "pendulum_identity.ini"
    code, out = run_cli("check", str(identity), "--json")
    assert code == 0
    assert {c["name"]: c["status"] for c in json.loads(out)["checks"]} == dict.fromkeys(
        PENDULUM_CHECKS, "PASS"
    )
    # a true nonzero stays a FAIL, with the residual of the plain pendulum
    mutant = tmp_path / "mutant.ini"
    mutant.write_text(identity.read_text().replace("f = x2^2/2 - cos(x1)", "f = x2^2/2 + cos(x1)"))
    code, out = run_cli("check", str(mutant), "--json", "--only", "characteristic,symmetry")
    assert code == 1
    checks = {c["name"]: c for c in json.loads(out)["checks"]}
    assert checks["symmetry"]["status"] == "PASS"
    assert checks["characteristic"]["residual"] == "-2*x2*sin(x1)"


def test_trig_quotient_fixture_verdicts(tmp_path):
    # f = t*(tan(x1)^2 - cos(x1)^(-2) + 1): d_t f is zero only after the
    # residual is cleared of its inverse powers of cos(x1)
    quotient = FIXTURES / "trig_quotient.ini"
    code, out = run_cli("check", str(quotient), "--json")
    assert code == 0
    statuses = {c["name"]: c["status"] for c in json.loads(out)["checks"]}
    assert statuses.pop("characteristic") == "PASS"
    assert set(statuses.values()) == {"SKIP"}
    # a true nonzero stays a FAIL, printed with its inverse powers
    mutant = tmp_path / "mutant.ini"
    mutant.write_text(quotient.read_text().replace("+ 1)", "- 1)"))
    code, out = run_cli("check", str(mutant), "--json", "--only", "characteristic")
    assert code == 1
    (check,) = json.loads(out)["checks"]
    assert check["residual"] == "cos(x1)^(-2)*sin(x1)^2 - 1 - cos(x1)^(-2)"


@pytest.mark.parametrize("value", ["1", "abc"])
def test_node_limit_is_not_read_from_the_environment(monkeypatch, value):
    expected = run_cli("check", str(OSCILLATOR), "--json")
    monkeypatch.setenv("ANCHORCALC_NODE_LIMIT", value)
    assert run_cli("check", str(OSCILLATOR), "--json") == expected
    assert expected[0] == 0


def test_oracle_time_dependent_characteristic(tmp_path):
    rotating = tmp_path / "rotating.ini"
    rotating.write_text(
        "[ode]\nn = 2\nv = [-x2, x1]\n\n[characteristic]\nf = x1*cos(t) - x2*sin(t)\n"
    )
    model = parse_model(rotating)
    assert ode.check_characteristic(model.system, model.f)[0]
    records = numeric.integrate_drift(
        model.system, [("f", model.f)], t_end=20.0, step=1e-3, points=2
    )
    assert records[0].drift < 1e-4  # symbolic pass implies small drift


def test_run_checks_resource_cap_gives_error_record(monkeypatch):
    model = parse_model_text(
        "[ode]\nn = 2\nv = [(x1 + x2 + 1)^4, 0]\n\n"
        "[characteristic]\nf = (x1 + x2)^4\n"
    )
    monkeypatch.setattr(ac.expr, "NODE_LIMIT", 10)
    report = cli.run_checks(model, ["characteristic"])
    assert report.checks[0].status == "ERROR"
    assert "node limit" in report.checks[0].residual
    assert report.exit_code() == 2


@pytest.mark.parametrize("limit", [None, 2])
def test_a_runs_code_table_dies_with_the_run(monkeypatch, limit):
    # the checks of a run share one monomial-code table, and nothing keeps
    # it once run_checks returns, also when a check ends in an ERROR record
    tables, shared_results = [], cli._shared_results

    def shared(model):
        shared = shared_results(model)
        tables.append(weakref.ref(shared.codes))
        return shared

    monkeypatch.setattr(cli, "_shared_results", shared)
    model = parse_model(FIXTURES / "euler_top.ini")
    if limit is not None:
        monkeypatch.setattr(ac.expr, "NODE_LIMIT", limit)
    report = cli.run_checks(model)
    assert (report.exit_code() == 2) == (limit is not None)
    assert len(tables) == 1 and tables[0]() is None

import collections
import io
import json
import signal
import subprocess
import sys
from contextlib import contextmanager, redirect_stdout
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


def test_cli_convention_sheet():
    code, out = run_cli("--convention")
    assert code == 0
    assert "Hodge star" in out and "Twist sign" in out


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
    "argv",
    [("catalog", "selfdual", "--n", "3"), ("catalog", "pform", "--n", "2", "--p", "5")],
)
def test_cli_catalog_construction_error_exits_2(argv, capsys):
    code, out = run_cli(*argv)
    err = capsys.readouterr().err
    assert code == 2 and out == ""
    assert err.startswith("error: ") and err.count("\n") == 1


def test_cli_deep_nesting_exits_2(tmp_path, capsys):
    model = tmp_path / "deep.ini"
    model.write_text("[ode]\nn = 1\nv = [" + "(" * 5000 + "x1" + ")" * 5000 + "]\n")
    code, out = run_cli("check", str(model))
    err = capsys.readouterr().err
    assert code == 2 and out == ""
    assert err.startswith("error: ") and err.count("\n") == 1 and "nested" in err


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
    # Every current j(xi) is built with a wedge; energy-momentum only reads
    # the translation currents, which the report has verified before it.
    in_emt = []
    wedge = forms.wedge

    def counted_wedge(a, b):
        if in_emt:
            counts["wedge in energy_momentum"] += 1
        return wedge(a, b)

    monkeypatch.setattr(forms, "wedge", counted_wedge)
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
    assert counts == {"shell": 1, "adjoint": adjoints}


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


@pytest.mark.parametrize("points", [1, 3])
def test_oracle_step_budget_boundary(points):
    model = parse_model(OSCILLATOR)
    t_end = float(numeric.MAX_RK4_STEPS // points + 1)
    with pytest.raises(ac.ResourceLimitError):
        numeric.integrate_drift(model.system, [("f", model.f)], t_end=t_end, step=1.0, points=points)


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
    monkeypatch.setenv("ANCHORCALC_NODE_LIMIT", "10")
    report = cli.run_checks(model, ["characteristic"])
    assert report.checks[0].status == "ERROR"
    assert "node limit" in report.checks[0].residual
    assert report.exit_code() == 2

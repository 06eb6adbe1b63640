"""Exit-code contract of cli.main under random input.

0 = every record PASS or SKIP, 1 = some record FAIL (and none ERROR),
2 = an ERROR record or a usage problem; no input may raise out of main.
"""

import io
import json
from contextlib import redirect_stderr, redirect_stdout

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from anchorcalc import cli

_SETTINGS = settings(
    max_examples=250,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)


def _expressions(n):
    """Small expressions in t, x1..xn.  Powers sit on atoms only: a power of
    a power of a sum grows past any small size, and the size cap bounds
    size, not time."""
    atoms = st.sampled_from(["t", "1", "2", "3", "0"] + [f"x{i}" for i in range(1, n + 1)])
    leaves = st.one_of(
        atoms, st.tuples(atoms, st.integers(-2, 3)).map(lambda p: f"{p[0]}^{p[1]}")
    )

    def extend(inner):
        return st.one_of(
            st.tuples(inner, st.sampled_from("+-*/"), inner).map(lambda p: f"({p[0]} {p[1]} {p[2]})"),
            st.tuples(st.sampled_from(["sin", "cos", "exp", "log"]), inner).map(
                lambda p: f"{p[0]}({p[1]})"
            ),
            inner.map(lambda e: f"-{e}"),
        )

    return st.recursive(leaves, extend, max_leaves=5)


@st.composite
def _models(draw):
    """Grammar-valid model files with n <= 3 and any subset of sections."""
    n = draw(st.integers(1, 3))
    expr = _expressions(n)
    lines = ["[ode]", f"n = {n}", f"v = [{', '.join(draw(st.lists(expr, min_size=n, max_size=n)))}]"]
    pairs = [(i, j) for i in range(1, n + 1) for j in range(i + 1, n + 1)]
    if pairs and draw(st.booleans()):
        lines.append("[anchor]")
        for i, j in draw(st.lists(st.sampled_from(pairs), min_size=1, unique=True)):
            lines.append(f"alpha_{i}_{j} = {draw(expr)}")
    if draw(st.booleans()):
        lines += ["[characteristic]", f"f = {draw(expr)}"]
    if draw(st.booleans()):
        lines += ["[symmetry]", f"w = [{', '.join(draw(st.lists(expr, min_size=n, max_size=n)))}]"]
    if draw(st.booleans()):
        lines += ["[hamiltonian]", f"H = {draw(expr)}"]
    return "\n".join(lines) + "\n"


_noise = st.one_of(
    st.text(st.characters(blacklist_categories=("Cs",)), max_size=80),
    st.text(alphabet="[]=,()+-*/^ \nodenvxt123alphaHfw_", max_size=80).map(
        lambda s: "[ode]\n" + s
    ),
)

_commands = st.one_of(
    st.just(["check"]),
    st.integers(0, 2).map(lambda d: ["search", "--degree", str(d)]),
    st.integers(0, 3).map(
        lambda s: ["oracle", "--points", "1", "--t-end", "0.5", "--step", "0.05", "--seed", str(s)]
    ),
)


def _assert_contract(path, text, command):
    path.write_text(text, encoding="utf-8")
    _assert_report_contract([command[0], str(path), *command[1:], "--json"], text)


def _assert_report_contract(argv, text=None):
    out = io.StringIO()
    with redirect_stdout(out), redirect_stderr(io.StringIO()):
        code = cli.main(argv)
    assert code in (0, 1, 2), (text, argv, code)
    if not out.getvalue():
        assert code == 2, (text, argv, code)
        return
    doc = json.loads(out.getvalue())
    statuses = {c["status"] for c in doc.get("checks", [])}
    if code == 0:
        assert statuses <= {"PASS", "SKIP"}, (text, argv, statuses)
    elif code == 1:
        assert "FAIL" in statuses and "ERROR" not in statuses, (text, argv, statuses)
    else:
        assert "ERROR" in statuses, (text, argv, statuses)


@_SETTINGS
@given(text=_models(), command=_commands)
def test_grammar_valid_models_keep_exit_contract(tmp_path_factory, text, command):
    _assert_contract(tmp_path_factory.getbasetemp() / "fuzz.ini", text, command)


@_SETTINGS
@given(text=_noise, command=_commands)
def test_random_model_text_keeps_exit_contract(tmp_path_factory, text, command):
    _assert_contract(tmp_path_factory.getbasetemp() / "noise.ini", text, command)


# catalog arguments per family, as (valid values, bad values) per option;
# n <= 5 keeps every run far below the work budget.  Values go in as
# --option=value, so that argparse reads -1/2 as a value, not as an option.
_CATALOG_OPTIONS = {
    "pform": {
        "--n": (["2", "3", "4", "5"], ["0", "-1", "x"]),
        "--p": (["1", "2", "3", "4"], ["0", "-1", "5", "x", "2.5"]),
        "--a": (["1", "0", "-1/2", "3"], ["x", "1/0", ""]),
        "--b": (["0", "1", "2/3"], ["x", "1/0"]),
        "--xi": (["t0", "t1", "r01", "r12", "dil"], ["t9", "r10", "r00", "r0", "r012", "q", "t", ""]),
    },
    "selfdual": {
        "--n": (["2"], ["1", "3", "4", "5", "0", "x"]),
        "--xi": (["t0", "t1", "r01", "dil"], ["t9", "r10", "r12", "q", ""]),
    },
    "chiral": {
        "--g": (["1", "0", "-2", "1/2"], ["x", "1/0", ""]),
        "--algebra": (["su2", "abelian3", "abelian1"], ["so3", ""]),
        "--epsilon": (["1,1,1", "1,0,0", "0,0,0", "1/2,-1,2"], ["1", "1,1", "1,x,1", "1,1/0,1", ""]),
        "--xi": (["t0", "t1", "r01", "dil"], ["t9", "r10", "r12", "q", ""]),
    },
}


@st.composite
def _catalog_argv(draw):
    """A family, some of its options at valid values and, in half of the
    cases, one option at a bad value, so that the bad value is reached."""
    model = draw(st.sampled_from(sorted(_CATALOG_OPTIONS)))
    options = _CATALOG_OPTIONS[model]
    chosen = {o: draw(st.sampled_from(good)) for o, (good, _) in options.items() if draw(st.booleans())}
    if draw(st.booleans()):
        option = draw(st.sampled_from(sorted(options)))
        chosen[option] = draw(st.sampled_from(options[option][1]))
    argv = ["catalog", model, *(f"{o}={v}" for o, v in chosen.items())]
    if draw(st.booleans()):  # every family reads it; selfdual and chiral refuse it
        argv.append("--euclidean")
    return argv + ["--json"]


def _assert_catalog_contract(argv):
    try:
        _assert_report_contract(argv)
    except SystemExit as stop:  # argparse refuses a value with a usage line
        assert stop.code == 2, (argv, stop.code)


@settings(max_examples=100, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(argv=_catalog_argv())
def test_catalog_arguments_keep_exit_contract(argv):
    _assert_catalog_contract(argv)


@pytest.mark.parametrize(
    "model, option, value",
    [
        (model, option, value)
        for model, options in _CATALOG_OPTIONS.items()
        for option, (_, bad) in options.items()
        for value in bad
    ],
)
def test_each_bad_catalog_value_keeps_exit_contract(model, option, value):
    # every bad value once, with the other options at their defaults
    _assert_catalog_contract(["catalog", model, f"{option}={value}", "--json"])

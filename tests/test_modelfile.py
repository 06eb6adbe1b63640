"""The model-file reader against configparser, its reference, and the
model-level checks that run before any expression is parsed."""

import configparser
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from anchorcalc import modelfile
from anchorcalc.modelfile import ModelFileError, parse_model_text
from anchorcalc.parser import VarContext

FIXTURES = Path(__file__).parent / "fixtures"
OSCILLATOR = FIXTURES / "oscillator.ini"


def _reference(text):
    """[(section, [(key, value), ...]), ...] as configparser reads text, or
    None when it rejects it."""
    cp = configparser.ConfigParser(interpolation=None, strict=True)
    cp.optionxform = str
    try:
        cp.read_string(text)
    except configparser.Error:
        return None
    return [(section, list(cp[section].items())) for section in cp.sections()]


def _ours(text):
    try:
        sections, _ = modelfile._read_sections(text, "model")
    except ModelFileError:
        return None
    return [(section, list(keys.items())) for section, keys in sections.items()]


_INDENTS = st.sampled_from(["", "", " ", "\t"])
# Values and continuations hold delimiters, comment characters and
# brackets; none starts with "[" unless it also ends with "]", and no
# header is [DEFAULT]: those are the divergences the reader documents.
_TEXTS = st.sampled_from(
    ["1", "[x2, -x1]", "[-x2,", "x1]", "a = b", "c: d", "1 # no inline comment", "x ; y", ""]
)
_HEADERS = st.sampled_from(["ode", "anchor", "symmetry", "a b", "x]y", "=", "H", "h"]).map(
    lambda name: f"[{name}]"
)
_KEYS = st.tuples(
    _INDENTS,
    st.sampled_from(["n", "v", "f", "w", "H", "h", "alpha_12", "k 1"]),
    st.sampled_from(["=", ":", " = ", " : ", "= ", " :"]),
    _TEXTS,
).map("".join)
_COMMENTS = st.tuples(_INDENTS, st.sampled_from(["#", ";"]), _TEXTS).map("".join)
_BLANKS = st.sampled_from(["", " ", "\t"])
_CONTINUATIONS = st.tuples(st.sampled_from([" ", "  ", "    ", "\t"]), _TEXTS).map("".join)
_JUNK = st.sampled_from(["junk", "= 1", ": x", "[", "[]"])
# one_of picks a branch uniformly, so a branch named k times is drawn k
# times as often: mostly key and continuation lines, now and then any other
_BODY = st.one_of(
    *[_KEYS] * 3, *[_CONTINUATIONS] * 3, _COMMENTS, _COMMENTS, _BLANKS, _BLANKS, _HEADERS, _JUNK
)
# sections with distinct names that open with a key line, so that most
# files are accepted; the body lines repeat names and break the rules
_FILES = st.tuples(
    st.lists(st.one_of(_COMMENTS, _COMMENTS, _BLANKS, _BLANKS, _KEYS), max_size=2),
    st.lists(
        st.tuples(_HEADERS, _KEYS, st.lists(_BODY, max_size=5)), max_size=4, unique_by=lambda s: s[0]
    ),
).map(lambda parts: parts[0] + [line for h, k, body in parts[1] for line in [h, k, *body]])


@settings(max_examples=500, deadline=None)
@given(_FILES, st.sampled_from(["\n", "\r\n"]))
def test_reader_matches_configparser(lines, newline):
    # the same sections, keys and values in the same order, or both reject
    text = newline.join(lines)
    assert _ours(text) == _reference(text)


def test_reader_accepts_the_whole_subset():
    text = (
        "# comment\n; comment\n\n[ode]\nn: 2\nv = [-x2,\n\n    x1]\n"
        "  # a comment line inside the value is dropped\n  ]\n[anchor]\nalpha_12 = 1 # kept\n"
    )
    assert _ours(text) == _reference(text) == [
        ("ode", [("n", "2"), ("v", "[-x2,\n\nx1]\n]")]),
        ("anchor", [("alpha_12", "1 # kept")]),
    ]


@pytest.mark.parametrize(
    "text, line, message",
    [
        ("[ode]\nn = 2\n\n[ode]\n", 4, r"section \[ode\] is repeated"),
        ("[ode]\nn = 2\nn = 3\n", 3, "key 'n' is repeated"),
        ("n = 2\n", 1, r"expected a \[section\] header"),
        ("[ode]\nn = 2\nv\n", 3, "expected key = value"),
        ("[ode]\n= 2\n", 2, "expected key = value"),
    ],
)
def test_reader_rejects_with_the_line_number(text, line, message):
    with pytest.raises(ModelFileError, match=f"model, line {line}: {message}"):
        parse_model_text(text)


@pytest.mark.parametrize(
    "text", ["[DEFAULT]\nn = 2\n", "[symmetry] w = [x1]\n", "[symmetry]\n[x = 1\n"]
)
def test_reader_divergences_from_configparser(text):
    # configparser accepts each of these; the model-file reader does not
    text = "[ode]\nn = 1\nv = [x1]\n" + text
    assert _reference(text) is not None
    with pytest.raises(ModelFileError):
        parse_model_text(text)


def test_wrong_arity_builds_no_context(monkeypatch):
    # the arity is compared before the n names of the context are built,
    # so a huge n with a short v exits at once
    built = []
    real = modelfile._context
    monkeypatch.setattr(modelfile, "_context", lambda n: built.append(n) or real(n))
    with pytest.raises(ModelFileError, match="v has 1 components, expected 1000000"):
        parse_model_text("[ode]\nn = 1000000\nv = [x1]\n")
    assert built == []
    parse_model_text("[ode]\nn = 2\nv = [x2, x1]\n")
    assert built == [2]


def test_duplicate_context_names_still_raise():
    with pytest.raises(ValueError, match=r"unique within a model: \['t', 'x1'\]"):
        VarContext(indep=("t",), fields=("x1", "t", "x2", "x1"))
    assert VarContext(fields=[f"x{i}" for i in range(1, 1001)]).lookup("x1000") is not None


def test_check_reads_its_model_file_without_configparser():
    # configparser is the tests' reference only: the program reads the
    # model-file layout in one pass of its own
    code = (
        "import sys\n"
        "from anchorcalc import cli\n"
        f"assert cli.main(['check', {str(OSCILLATOR)!r}]) == 0\n"
        "assert 'configparser' not in sys.modules\n"
    )
    result = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    assert result.returncode == 0, result.stderr


# --- expression errors point into the file ----------------------------------------


@pytest.mark.parametrize(
    "text, message",
    [
        ("[ode]\nn = 2\nv = [x1,\n    x2 +]\n", r"\[ode\] v: expected a value \(line 4, column 9\)"),
        (
            "[ode]\n  v :  [ q ]\n  n = 1\n",
            r"\[ode\] v: unknown identifier 'q' \(line 2, column 10\)",
        ),
        (
            "[ode]\nn = 1\nv = [x1]\n[characteristic]\nf = x1 +\n  ; comment\n\n  x1 +\n",
            r"\[characteristic\] f: expected a value \(line 8, column 7\)",
        ),
        (
            "[ode]\r\nn = 2\r\nv = [x1, x2]\r\n[symmetry]\r\nw = [x2,\r\n\t(x1 $ 1)]\r\n",
            r"\[symmetry\] w: unexpected character '\$' \(line 6, column 6\)",
        ),
        (
            "[ode]\nn = 2\nv = [x1, x2]\n[anchor]\nalpha_12 = x1 *\n     x2 ^ y\n",
            r"\[anchor\] alpha_12: exponent must be an integer \(line 6, column 11\)",
        ),
        (
            "[ode]\nn = 1\nv = [x1]\n[hamiltonian]\nH = x1^2\n  # comment\n  + x1_y",
            r"\[hamiltonian\] H: cannot read .* suffix 'y' .* \(line 7, column 5\)",
        ),
    ],
)
def test_expression_error_names_its_file_line_and_column(text, message):
    with pytest.raises(ModelFileError, match=message):
        parse_model_text(text)


@pytest.mark.parametrize(
    "text, message",
    [
        ("[ode]\nn = 2\nv = [x1]\n", "[ode] v has 1 components, expected 2 (line 3)"),
        ("[ode]\nn = 2\nv = [x1,\n    ]\n", "[ode] v: empty expression (line 4)"),
        ("[ode]\n\nn = two\nv = [x1]\n", "[ode] n must be an integer (line 3)"),
        (
            "[ode]\nn = 2\nv = [x1, x2]\n[anchor]\n  # note\nbeta_12 = 1\n",
            "[anchor] keys must look like alpha_12 or alpha_1_2, got 'beta_12' (line 6)",
        ),
    ],
)
def test_value_error_names_its_file_line(text, message):
    with pytest.raises(ModelFileError) as err:
        parse_model_text(text)
    assert str(err.value) == message


_DIVISION = "division is only supported by nonzero constants and single monomials"


@pytest.mark.parametrize(
    "text, message",
    [
        (
            "[ode]\nn = 1\nv = [0]\n\n[characteristic]\nf = x1*log(-2)\n",
            "[characteristic] f: log(-2) is undefined (line 6)",
        ),
        (
            "[ode]\nn = 1\nv = [0]\n\n[characteristic]\nf = log(0)\n",
            "[characteristic] f: log(0) is undefined (line 6)",
        ),
        (
            "[ode]\nn = 2\nv = [x1, x2]\n[characteristic]\nf = x1/(x2 - x2)\n",
            f"[characteristic] f: {_DIVISION} (line 5)",
        ),
        ("[ode]\nn = 2\nv = [1/(x1+x2), x1]\n", f"[ode] v: {_DIVISION} (line 3)"),
        # a list item on a continuation line names its own line
        ("[ode]\nn = 2\nv = [x1,\n    1/(x1+x2)]\n", f"[ode] v: {_DIVISION} (line 4)"),
    ],
)
def test_kernel_refusal_names_its_file_line(text, message):
    with pytest.raises(ModelFileError) as err:
        parse_model_text(text)
    assert str(err.value) == message


@pytest.mark.parametrize(
    "text, message",
    [
        # the line of the first unknown key in the file, past a comment line
        (
            "[ode]\nn = 2\n# note\nv = [-x2, x1]\nm = 2\nk = 1\n",
            "unknown keys in [ode]: ['k', 'm'] (line 5)",
        ),
        (
            "[ode]\nn = 1\nv = [x1]\n\n[symmetry]\nw = [x1]\nf = x1\n",
            "unknown keys in [symmetry]: ['f'] (line 7)",
        ),
        # the line of the header, past a blank line, or indented
        ("[ode]\nn = 2\nv = [-x2, x1]\n\n[odes]\nf = 1\n", "unknown section [odes] (line 5)"),
        (
            "# model\n\n [DEFAULT]\nk = 1\n[ode]\nn = 1\nv = [x1]\n",
            "unknown section [DEFAULT] (line 3)",
        ),
    ],
)
def test_section_and_key_errors_name_their_file_line(text, message):
    with pytest.raises(ModelFileError) as err:
        parse_model_text(text)
    assert str(err.value) == message


_ITEMS = st.sampled_from([["x1"], ["-", "x1"], ["(", "x1", "+", "1", ")"], ["2", "*", "x1"]])
_BAD_ITEMS = st.sampled_from([["q"], ["x1", "+", "q"], ["(", "x1", "-", "q", ")"]])
# what stands between two tokens of a value: nothing, spaces, or a line
# break into a continuation line, maybe past comment and blank lines
_GAPS = st.sampled_from(["", " ", "  ", "\n    ", "\n\t", "\n  # note\n   ", "\n\n  ", "\n  ;\n\n  "])


@st.composite
def _misplaced_files(draw):
    """A model file whose [ode] v list or [characteristic] f value holds
    the one unknown identifier q, its tokens laid out over continuation,
    comment and blank lines; and the (section, key) that holds q."""
    n = draw(st.integers(1, 3))
    in_list = draw(st.booleans())
    bad = draw(_BAD_ITEMS)
    if in_list:
        items = [draw(_ITEMS) for _ in range(n)]
        items[draw(st.integers(0, n - 1))] = bad
        tokens = ["["] + [t for item in items for t in item + [","]][:-1] + ["]"]
    else:
        tokens = draw(_ITEMS) + ["*"] + bad
    value = "".join(draw(_GAPS) + token for token in tokens)
    key = draw(st.sampled_from([" = ", "=", ": ", " :"]))
    v = "[" + ", ".join(["x1"] * n) + "]"
    if in_list:
        text = f"[ode]\nn = {n}\nv{key}{value}\n"
        where = "[ode] v"
    else:
        text = f"[ode]\nn = {n}\nv = {v}\n\n[characteristic]\nf{key}{value}\n"
        where = "[characteristic] f"
    return text.replace("\n", draw(st.sampled_from(["\n", "\r\n"]))), where


@settings(max_examples=300, deadline=None)
@given(_misplaced_files())
def test_expression_error_points_at_the_token_in_the_file(case):
    text, where = case
    at = text.index("q")
    line = text.count("\n", 0, at) + 1
    column = at - text.rfind("\n", 0, at)
    with pytest.raises(ModelFileError) as err:
        parse_model_text(text)
    assert str(err.value) == f"{where}: unknown identifier 'q' (line {line}, column {column})"


def _upper(model):
    return {} if model.alpha is None else model.alpha.upper


@pytest.mark.parametrize("path", sorted(FIXTURES.glob("*.ini")), ids=lambda path: path.name)
def test_format_round_trip_over_every_fixture(path):
    """parse(format(m)) gives m's v, anchor entries, f, w and H, and
    formatting it again gives the same bytes."""
    model = modelfile.parse_model(path)
    once = modelfile.format_model(model)
    again = parse_model_text(once)
    assert again.system.v == model.system.v
    assert _upper(again) == _upper(model)
    assert (again.f, again.w, again.hamiltonian) == (model.f, model.w, model.hamiltonian)
    assert modelfile.format_model(again) == once

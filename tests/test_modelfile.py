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

OSCILLATOR = Path(__file__).parent / "fixtures" / "oscillator.ini"


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
        sections = modelfile._read_sections(text, "model")
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

import configparser
import math
import re
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import anchorcalc as ac
from anchorcalc import expr as ex
from anchorcalc.modelfile import _split_list
from anchorcalc.parser import MAX_DEPTH, ParseError, VarContext, parse_expr, tokenize

FIXTURES = Path(__file__).parent / "fixtures"

CTX = VarContext(indep=("t",), fields=("x1", "x2"), params=("a", "b"))


def parses_to(text, expected):
    assert ac.canonicalize(parse_expr(text, CTX)) == ac.canonicalize(expected)


def test_numbers_and_rationals():
    parses_to("3", ac.rational(3))
    parses_to("1/2", ac.rational(1, 2))
    parses_to("2/4", ac.rational(1, 2))


def test_precedence():
    x1, x2 = ac.jet("x1"), ac.jet("x2")
    parses_to("x1 + x2 * x1", x1 + x2 * x1)
    parses_to("(x1 + x2) * x1", (x1 + x2) * x1)
    parses_to("x1 - x2 - x1", -x2)
    parses_to("x1 / 2 / 2", x1 / 4)


def test_power_right_associative_and_unary():
    x1 = ac.jet("x1")
    parses_to("-x1^2", -(x1**2))
    parses_to("x1^(-1)", x1**-1)
    parses_to("-x1^2 + x1^2", ac.ZERO)


def test_jet_suffixes():
    parses_to("x1_t", ac.jet("x1", {"t": 1}))
    parses_to("x1_tt", ac.jet("x1", {"t": 2}))


def test_jet_suffix_multichar_names():
    ctx = VarContext(indep=("x0", "x1"), fields=("F01",))
    e = parse_expr("F01_x0x0x1", ctx)
    assert ac.canonicalize(e) == ac.canonicalize(ac.jet("F01", {"x0": 2, "x1": 1}))


def test_functions():
    t = ac.indep("t")
    parses_to("sin(t)*cos(t)", ac.sin(t) * ac.cos(t))
    parses_to("exp(x1 + x2)", ac.exp(ac.jet("x1") + ac.jet("x2")))
    parses_to("log(t^2)", ac.log(t**2))


def test_params():
    parses_to("a*b - b*a", ac.ZERO)


def test_whitespace_insensitive():
    parses_to(" x1   +\tx2 ", ac.jet("x1") + ac.jet("x2"))


def test_error_positions():
    with pytest.raises(ParseError) as err:
        parse_expr("x1 +", CTX)
    assert err.value.column == 5

    with pytest.raises(ParseError):
        parse_expr("x1 ++ x2 )", CTX)
    with pytest.raises(ParseError):
        parse_expr("(x1", CTX)
    with pytest.raises(ParseError):
        parse_expr("x1 x2", CTX)


@pytest.mark.parametrize(
    "text",
    [
        "(" * 5000 + "x1" + ")" * 5000,
        "-" * 5000 + "x1",
        "sin(" * 5000 + "x1" + ")" * 5000,
        "x1^" + "(" * 5000 + "2" + ")" * 5000,
    ],
    ids=["parentheses", "signs", "calls", "exponent"],
)
def test_nesting_depth_is_capped(text):
    with pytest.raises(ParseError, match=f"more than {MAX_DEPTH} levels") as err:
        parse_expr(text, CTX)
    assert err.value.line == 1


def test_nesting_below_the_cap_parses():
    depth = MAX_DEPTH - 1
    parses_to("(" * depth + "x1" + ")" * depth, ac.jet("x1"))


def test_unknown_identifier():
    with pytest.raises(ParseError, match="unknown identifier"):
        parse_expr("x1 + q", CTX)


def test_unknown_jet_field():
    with pytest.raises(ParseError, match="unknown field"):
        parse_expr("q_t", CTX)


def test_bad_jet_suffix():
    with pytest.raises(ParseError, match="derivative suffix"):
        parse_expr("x1_q", CTX)


def test_non_integer_exponent():
    with pytest.raises(ParseError, match="exponent"):
        parse_expr("x1^x2", CTX)


def test_function_name_shadowing_rejected():
    with pytest.raises(ValueError):
        VarContext(indep=("t",), fields=("sin",))


def test_duplicate_names_rejected():
    with pytest.raises(ValueError):
        VarContext(indep=("t",), fields=("t",))


# --- reference: the parser that folds Expr operators, one value per operator ----
#
# The parser builds polynomial pairs on the layer below Expr.  This reference is
# the grammar as it was written before that change: the tokenizer reads named
# groups one match at a time, and every rule applies the Expr operators.  The
# properties below hold the parser to it, values and error texts alike.

_REF_TOKEN = re.compile(
    r"\s*(?:(?P<num>[0-9]+)|(?P<ident>[a-zA-Z][a-zA-Z0-9]*(?:_[a-zA-Z0-9]+)?)"
    r"|(?P<op>[-+*/^()]))"
)


def _reference_tokenize(text):
    tokens = []
    pos = 0
    while pos < len(text):
        m = _REF_TOKEN.match(text, pos)
        if not m or m.end() == m.start():
            stripped = text[pos:].lstrip()
            if not stripped:
                break
            where = len(text) - len(stripped)
            raise ParseError(f"unexpected character {text[where]!r}", where, text)
        kind = m.lastgroup
        tokens.append((kind, m.group(kind), m.start(kind)))
        pos = m.end()
    tokens.append(("end", "", len(text)))
    return tokens


class _ReferenceParser:
    def __init__(self, text, context):
        self.text, self.context = text, context
        self.tokens = _reference_tokenize(text)
        self.k = self.depth = 0

    def peek(self):
        return self.tokens[self.k]

    def advance(self):
        self.k += 1
        return self.tokens[self.k - 1]

    def expect(self, value):
        kind, val, pos = self.peek()
        if kind != "op" or val != value:
            raise ParseError(f"expected {value!r}", pos, self.text)
        return self.advance()

    def descend(self):
        self.depth += 1
        if self.depth > MAX_DEPTH:
            _, _, pos = self.peek()
            raise ParseError(f"expression is nested more than {MAX_DEPTH} levels deep", pos, self.text)

    def expr(self):
        node = self.term()
        while self.peek()[0] == "op" and self.peek()[1] in "+-":
            val = self.advance()[1]
            rhs = self.term()
            node = node + rhs if val == "+" else node - rhs
        return node

    def term(self):
        node = self.unary()
        while self.peek()[0] == "op" and self.peek()[1] in "*/":
            val = self.advance()[1]
            rhs = self.unary()
            node = node * rhs if val == "*" else node / rhs
        return node

    def unary(self):
        self.descend()
        kind, val, _ = self.peek()
        if kind == "op" and val in "-+":
            self.advance()
            node = -self.unary() if val == "-" else self.unary()
        else:
            node = self.atom()
            if self.peek()[:2] == ("op", "^"):
                self.advance()
                node = node ** self.exponent()
        self.depth -= 1
        return node

    def exponent(self):
        self.descend()
        kind, val, pos = self.peek()
        if kind == "op" and val == "(":
            self.advance()
            value = self.exponent()
            self.expect(")")
        elif kind == "op" and val == "-":
            self.advance()
            value = -self.exponent()
        elif kind == "num":
            self.advance()
            value = int(val)
        else:
            raise ParseError("exponent must be an integer", pos, self.text)
        self.depth -= 1
        return value

    def atom(self):
        kind, val, pos = self.peek()
        if kind == "num":
            self.advance()
            return ac.rational(int(val))
        if kind == "op" and val == "(":
            self.advance()
            inner = self.expr()
            self.expect(")")
            return inner
        if kind != "ident":
            raise ParseError("expected a value", pos, self.text)
        self.advance()
        if val in ex.FUNCTIONS:
            self.expect("(")
            arg = self.expr()
            self.expect(")")
            return ex.fun(val, arg)
        if "_" in val:
            head, suffix = val.split("_", 1)
            if head not in self.context.fields:
                raise ParseError(f"unknown field {head!r} in jet symbol", pos, self.text)
            counts = self.context.split_jet_suffix(suffix)
            if counts is None:
                raise ParseError(
                    f"cannot read derivative suffix {suffix!r} as independent variables",
                    pos,
                    self.text,
                )
            return ac.jet(head, counts)
        atom = self.context.lookup(val)
        if atom is None:
            raise ParseError(f"unknown identifier {val!r}", pos, self.text)
        return ex.Sym(atom)


def _reference_parse(text, context):
    p = _ReferenceParser(text, context)
    node = p.expr()
    kind, val, pos = p.peek()
    if kind != "end":
        raise ParseError(f"unexpected trailing input {val!r}", pos, text)
    return node


def _outcome(function, text):
    """The value, or the type and text of the kernel error raised."""
    try:
        return function(text)
    except ex.ExprError as exc:
        return type(exc).__name__, str(exc)


def _assert_same_as_reference(text):
    assert _outcome(tokenize, text) == _outcome(_reference_tokenize, text)
    value = _outcome(lambda s: parse_expr(s, CTX), text)
    assert value == _outcome(lambda s: _reference_parse(s, CTX), text)
    if isinstance(value, ex.Expr):
        c, d = value._poly
        assert d > 0 and math.gcd(d, *c.values()) == 1


def _fixture_texts():
    """Every expression of the model-file fixtures."""
    texts = []
    for path in sorted(FIXTURES.glob("*.ini")):
        cp = configparser.ConfigParser()
        cp.optionxform = str
        cp.read(path, encoding="utf-8")
        for section in cp.sections():
            for value in cp[section].values():
                if value.startswith("["):
                    texts.extend(_split_list(value, section))
                elif section != "ode":  # [ode] n is a count, not an expression
                    texts.append(value)
    return texts


def test_tokenize_matches_reference_on_the_fixtures():
    texts = _fixture_texts()
    # euler_top 11, oscillator and oscillator_layout 7 each, pendulum 7,
    # pendulum_identity 7, trig_quotient 2
    assert len(texts) == 41
    for text in texts:
        assert tokenize(text) == _reference_tokenize(text)
        _assert_same_as_reference(text)


_IDENTIFIERS = ["t", "x1", "x2", "a", "b", "x1_t", "x2_tt", "x1_tt"]


def _grow(children):
    binary = st.tuples(children, st.sampled_from(["+", "-", "*", "/", " + ", " - ", " * "]), children)
    return st.one_of(
        binary.map("".join),
        st.tuples(st.sampled_from(["-", "+", "- "]), children).map("".join),
        children.map(lambda c: f"({c})"),
        st.tuples(st.sampled_from(ex.FUNCTIONS), children).map(lambda p: f"{p[0]}({p[1]})"),
        st.tuples(children, st.sampled_from(["0", "1", "2", "-1", "(-2)", "(2)", "-(1)"])).map(
            "^".join
        ),
    )


_GRAMMAR_TEXTS = st.recursive(
    st.one_of(st.integers(0, 12).map(str), st.sampled_from(_IDENTIFIERS)), _grow, max_leaves=10
)


@st.composite
def _malformed_texts(draw):
    """A grammar text with one to three characters inserted or deleted."""
    text = draw(_GRAMMAR_TEXTS)
    for _ in range(draw(st.integers(1, 3))):
        i = draw(st.integers(0, len(text)))
        if i < len(text) and draw(st.booleans()):
            text = text[:i] + text[i + 1 :]
        else:
            text = text[:i] + draw(st.sampled_from(list("()+-*/^_$ 1x.,é\t\n"))) + text[i:]
    return text


@settings(max_examples=200, deadline=None)
@given(_GRAMMAR_TEXTS)
def test_parser_matches_expr_operator_reference(text):
    _assert_same_as_reference(text)


@settings(max_examples=200, deadline=None)
@given(_malformed_texts())
def test_parser_errors_match_expr_operator_reference(text):
    _assert_same_as_reference(text)


@pytest.mark.parametrize(
    "text",
    [
        "",
        "   ",
        "x1 +",
        "x1 x2",
        "x1 ++ x2 )",
        "x1 $ x2",
        "x1_\n+ 2",
        "1/2 + 1/2",
        "x1/4 + x1/4 - x2/6 + x2/3",
        "1/(x1 + x2)",
        "(x1 + 1)^(-1)",
        "log(x1 - x1)",
        "0^0 + 0^2",
        "x1^--2",
        "(" * MAX_DEPTH + "x1" + ")" * MAX_DEPTH,
        "-" * (MAX_DEPTH + 1) + "x1",
        "x1^" + "(" * MAX_DEPTH + "2" + ")" * MAX_DEPTH,
        "x1 + x2   \t\n",
        "1/2/3*x1/x2^2",
        "0*x1",
        "x1*0/2",
        "2*(x1+x2)*x1^-1",
        "1/(x1-x1)",
    ],
)
def test_parser_matches_reference_on_edge_texts(text):
    _assert_same_as_reference(text)

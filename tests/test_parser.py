import pytest

import anchorcalc as ac
from anchorcalc.parser import MAX_DEPTH, ParseError, VarContext, parse_expr

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

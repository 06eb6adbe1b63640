import copy
import math
import pickle
import random
import sys
import threading
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import anchorcalc as ac
from anchorcalc import expr as ex
from anchorcalc import forms as fo
from anchorcalc import linop as lo
from anchorcalc import ode
from tests_helpers_oracle import RAND_EVAL_THRESHOLD, EvaluationError, evaluate, rand_eval

t = ac.indep("t")
x1 = ac.jet("x1")
x2 = ac.jet("x2")
x1t = ac.jet("x1", {"t": 1})
x2t = ac.jet("x2", {"t": 1})
x1tt = ac.jet("x1", {"t": 2})


def canon_zero(e):
    return ac.is_identically_zero(e)


# --- canonicalization -------------------------------------------------------


def test_ring_identity():
    assert canon_zero((x1 + x2) - (x2 + x1))


def test_expansion():
    lhs = ac.canonicalize((x1 + x2) ** 2)
    rhs = ac.canonicalize(x1**2 + 2 * x1 * x2 + x2**2)
    assert lhs == rhs


def test_atom_commutativity():
    assert canon_zero(ac.sin(t) * ac.exp(x1) - ac.exp(x1) * ac.sin(t))


def test_canonical_zero_detection():
    e = (x1 + x2) ** 3 - x1**3 - 3 * x1**2 * x2 - 3 * x1 * x2**2 - x2**3
    assert canon_zero(e)


def test_opaque_function_atoms_stay_opaque():
    # no trig rewriting: this is nonzero in the polynomial-in-atoms class
    assert not canon_zero(ac.sin(t) ** 2 + ac.cos(t) ** 2 - 1)


def test_rational_arithmetic():
    e = ac.rational(1, 3) * x1 + ac.rational(1, 6) * x1
    assert ac.canonicalize(e) == ac.canonicalize(ac.rational(1, 2) * x1)


def test_laurent_division():
    assert canon_zero(x1 / x1 - 1)
    assert canon_zero((x1**2 * x2) / (x1 * x2) - x1)


def test_division_by_sum_rejected():
    with pytest.raises(ex.UnsupportedInputError):
        ac.canonicalize(1 / (x1 + x2))


def test_noninteger_power_rejected():
    with pytest.raises(ex.UnsupportedInputError):
        x1 ** "2"  # type: ignore[operator]


def test_node_limit(monkeypatch):
    monkeypatch.setattr(ex, "NODE_LIMIT", 50)
    atoms = sum((ac.jet(f"u{i}") for i in range(10)), ac.ZERO)
    with pytest.raises(ex.ResourceLimitError):
        ac.canonicalize(atoms**4)


def test_log_special_values():
    assert canon_zero(ac.log(ac.rational(1)))
    with pytest.raises(ex.UnsupportedInputError):
        ac.canonicalize(ac.log(ac.rational(0)))


@pytest.mark.parametrize("value, text", [(-2, "-2"), (Fraction(-1, 2), "-1/2"), (0, "0")])
def test_log_of_a_constant_at_most_zero_is_undefined(value, text):
    with pytest.raises(ex.UnsupportedInputError) as err:
        ac.log(ac.rational(value))
    assert str(err.value) == f"log({text}) is undefined"
    # the log of a non-constant stays an atom, whatever the sign it takes
    assert ac.to_text(ac.log(-(x1**2))) == "log(-x1^2)"
    # and a point where its argument is a constant <= 0 is a singular one
    alpha = ode.Bivector(2, {(0, 1): ac.log(x1)})
    with pytest.raises(ex.UnsupportedInputError, match="^singular point, pick another one: "):
        ode.transitivity_rank(alpha, [0, value, 1])


# --- total derivative -------------------------------------------------------


def test_jet_raise():
    assert ac.total_derivative(x1, "t") == ac.canonicalize(x1t)


def test_product_rule():
    assert ac.total_derivative(t * x1, "t") == ac.canonicalize(x1 + t * x1t)


def test_chain_rule():
    assert ac.total_derivative(x1**2, "t") == ac.canonicalize(2 * x1 * x1t)


def test_function_chain_rule():
    d = ac.total_derivative(ac.sin(x1), "t")
    assert d == ac.canonicalize(ac.cos(x1) * x1t)


def test_param_derivative_vanishes():
    assert canon_zero(ac.total_derivative(ac.param("a") * t, "t") - ac.param("a"))


def test_total_derivatives_commute():
    e = ac.jet("u", {}) ** 2 * ac.indep("x") + ac.sin(ac.jet("u"))
    dxdy = ac.total_derivative(ac.total_derivative(e, "x"), "y")
    dydx = ac.total_derivative(ac.total_derivative(e, "y"), "x")
    assert dxdy == dydx


# --- euler derivative -------------------------------------------------------


def test_euler_single_ibp():
    assert ac.euler_derivative(x1t**2 / 2, "x1") == ac.canonicalize(-x1tt)


def test_euler_two_ibp_terms():
    # d/dx1 - D_t d/dx1_t of (x1 x2_t - x2 x1_t) = x2_t + x2_t
    result = ac.euler_derivative(x1 * x2t - x2 * x1t, "x1")
    assert result == ac.canonicalize(2 * x2t)


def test_euler_annihilates_divergences():
    rng = random.Random(42)
    for _ in range(20):
        j = _random_poly(rng, max_order=2)
        d = ac.total_derivative(j, "t")
        for field in ("x1", "x2"):
            assert canon_zero(ac.euler_derivative(d, field))


def test_euler_linearity():
    rng = random.Random(7)
    for _ in range(10):
        e1 = _random_poly(rng, max_order=1)
        e2 = _random_poly(rng, max_order=1)
        a, b = Fraction(3, 2), Fraction(-5)
        lhs = ac.euler_derivative(ac.rational(a) * e1 + ac.rational(b) * e2, "x1")
        rhs = ac.rational(a) * ac.euler_derivative(e1, "x1") + ac.rational(
            b
        ) * ac.euler_derivative(e2, "x1")
        assert canon_zero(lhs - rhs)


def _random_poly(rng, max_order=2, fields=("x1", "x2"), n_terms=4):
    gens = [ac.indep("t")]
    for f in fields:
        for k in range(max_order + 1):
            gens.append(ac.jet(f, {"t": k} if k else {}))
    e = ac.rational(rng.randint(-3, 3))
    for _ in range(n_terms):
        term = ac.rational(rng.randint(-4, 4))
        for _ in range(rng.randint(1, 3)):
            term = term * gens[rng.randrange(len(gens))]
        e = e + term
    return e


# --- divergence splitting ---------------------------------------------------


def test_divergence_identity():
    assert ac.divergence_split(x1t) == ac.canonicalize(x1)


def test_divergence_chain():
    j = ac.divergence_split(2 * x1 * x1t)
    assert canon_zero(ac.total_derivative(j, "t") - 2 * x1 * x1t)
    assert j == ac.canonicalize(x1**2)


def test_divergence_rejects_non_divergence():
    assert ac.divergence_split(x1 * x1t**2) is None


def test_divergence_round_trip():
    rng = random.Random(13)
    for _ in range(25):
        j = _random_poly(rng, max_order=2)
        d = ac.total_derivative(j, "t")
        recovered = ac.divergence_split(d)
        assert recovered is not None
        assert canon_zero(ac.total_derivative(recovered, "t") - d)


def test_divergence_with_time_coefficients():
    dens = ac.sin(t) * x1t + ac.cos(t) * x1
    j = ac.divergence_split(dens)
    assert canon_zero(ac.total_derivative(j, "t") - dens)


def test_divergence_pure_time_tail():
    dens = x1t + t**2 + 1
    j = ac.divergence_split(dens)
    assert canon_zero(ac.total_derivative(j, "t") - dens)


def test_divergence_unsupported_function_of_jets():
    with pytest.raises(ex.UnsupportedInputError):
        ac.divergence_split(ac.cos(x1) * x1t)


# --- randomized evaluation --------------------------------------------------


def test_rand_eval_zero():
    for seed in (0, 1, 17):
        assert rand_eval(ac.rational(0), seed) == 0


def test_rand_eval_cancellation():
    for seed in range(8):
        assert rand_eval(x1 - x1, seed) == 0


def test_rand_eval_expanded_identity():
    e = (x1 + x2) ** 2 - x1**2 - 2 * x1 * x2 - x2**2
    for seed in range(32):
        assert rand_eval(e, seed) == 0


def test_rand_eval_deterministic():
    e = x1**2 * t + ac.sin(t) * x2
    assert rand_eval(e, 5) == rand_eval(e, 5)
    assert rand_eval(e, 5) != rand_eval(e, 6)


def test_rand_eval_log_resamples():
    # log argument must be positive; resampling should find a valid draw
    value = rand_eval(ac.log(x1**2), 3)
    assert isinstance(value, Fraction)


def test_rand_eval_domain_exhaustion():
    # the argument is negative at every sample, so resampling gives up
    with pytest.raises(EvaluationError):
        rand_eval(ac.log(-1 - x1**2), 0)


def test_threaded_canonicalization_is_consistent():
    import threading

    e = (x1 + x2 + ac.sin(t)) ** 3 - x1**3
    results = []

    def work():
        results.append(ac.canonicalize(e))

    threads = [threading.Thread(target=work) for _ in range(8)]
    for th in threads:
        th.start()
    for th in threads:
        th.join()
    assert all(r == results[0] for r in results)


# --- the Pythagorean normal form ---------------------------------------------

# two arguments: each has its own relation, and none links the two
_U, _V = x1, t + 2 * x2
_TRIG_FACTORS = [x1, x2, ac.sin(_U), ac.cos(_U), ac.sin(_V), ac.cos(_V)]
_INVERSE_FACTORS = _TRIG_FACTORS + [1 / f for f in _TRIG_FACTORS[2:]]


def _nf(e):
    return ex._expr(ex._pythagorean_normal(e._poly))


def test_pythagorean_normal_form_examples():
    s, c = ac.sin(x1), ac.cos(x1)
    assert _nf(c**4) == 1 - 2 * s**2 + s**4
    assert _nf(x2 * c**3) == x2 * c - x2 * c * s**2
    assert _nf(s**2 + c**2 - 1) == ac.ZERO
    assert _nf(s**2 - c**2) == 2 * s**2 - 1
    # relations between different arguments stay undecided
    double = ac.sin(2 * x1) - 2 * s * c
    assert _nf(double) == double
    # inverse powers: tan^2 + 1 = sec^2 and cot^2 + 1 = csc^2 are decided,
    # and a nonzero value keeps its inverse powers
    assert _nf(s**2 / c**2 + 1 - 1 / c**2) == ac.ZERO
    assert _nf(c**2 / s**2 + 1 - 1 / s**2 + x1) == x1
    assert _nf((s**2 + c**2 - 1) / (s * ac.cos(_V) ** 3)) == ac.ZERO
    tan_minus_sec = s**2 / c**2 - 1 - 1 / c**2
    assert _nf(tan_minus_sec) == tan_minus_sec


@st.composite
def _trig_polys(draw, factors=_TRIG_FACTORS):
    """Sums of up to four terms, each a small integer times up to four
    factors drawn from x1, x2 and sin, cos of two arguments (and their
    inverses, with factors=_INVERSE_FACTORS)."""
    e = ac.ZERO
    for _ in range(draw(st.integers(0, 4))):
        term = ac.rational(draw(st.integers(-3, 3)))
        for f in draw(st.lists(st.sampled_from(factors), max_size=4)):
            term = term * f
        e = e + term
    return e


@settings(max_examples=60, deadline=None)
@given(
    _trig_polys(), _trig_polys(), _trig_polys(_INVERSE_FACTORS), _trig_polys(_INVERSE_FACTORS),
    st.sampled_from([_U, _V]),
)
def test_pythagorean_normal_form(p, q, r, s, u):
    relation = ac.sin(u) ** 2 + ac.cos(u) ** 2 - 1
    nf = _nf(p)
    assert _nf(p + relation * q) == nf
    assert _nf(nf) == nf
    for seed in range(3):
        assert abs(rand_eval(nf - p, seed)) <= RAND_EVAL_THRESHOLD
    # with inverse powers the form is not unique, but zero is decided
    nf = _nf(r)
    assert _nf(relation * s) == ac.ZERO
    assert (_nf(r + relation * s) == ac.ZERO) == (nf == ac.ZERO)
    assert _nf(nf) == nf
    for seed in range(3):
        assert abs(rand_eval(nf - r, seed)) <= RAND_EVAL_THRESHOLD


def _cos_atom(u):
    (((atom, _),),) = ac.cos(u)._poly[0]
    return atom


def test_cos_power_is_the_binomial_expansion():
    cos_u, one_minus_sin2 = _cos_atom(x1), (1 - ac.sin(x1) ** 2)._poly
    for k in range(61):
        expected = ex._ppow(one_minus_sin2, k // 2)
        if k % 2:
            expected = ex._pmul(expected, ac.cos(x1)._poly)
        assert ex._cos_power(cos_u, k) == expected, k


def test_cos_power_refused_before_any_term(monkeypatch):
    calls = []
    mono_mul = ex._mono_mul
    monkeypatch.setattr(ex, "_mono_mul", lambda m1, m2: calls.append(1) or mono_mul(m1, m2))
    monkeypatch.setattr(ex, "NODE_LIMIT", 100)
    cos_u = _cos_atom(x1)
    # q = k // 2 = 9: (q + 1)^2 = 100 is at the limit; q = 10 is over it
    for k in (20, 21):
        with pytest.raises(ex.ResourceLimitError, match="cos power"):
            ex._cos_power(cos_u, k)
    assert calls == []
    for k in (18, 19):
        assert len(ex._cos_power(cos_u, k)[0]) == 10
    assert len(calls) == 2 * 9


def test_integer_power_refused_past_the_digit_budget():
    # 3^9012 has 4300 digits, the budget, and 10^4300 has 4301
    assert len(str(ex._int_pow(3, 9012))) == 4300
    assert len(str(ex._int_pow(-10, 4299))) == 4301  # the sign and 4300 digits
    for base, e in ((3, 9013), (10, 4300), (-10, 4300), (2**7200, 2)):
        with pytest.raises(ex.ResourceLimitError, match="digit budget"):
            ex._int_pow(base, e)
    assert ex._int_pow(1, 10**9) == 1 and ex._int_pow(-1, 10**9 + 1) == -1
    assert ex._int_pow(0, 10**9) == 0 and ex._int_pow(10**5000, 1) == 10**5000
    # the kernel's power of a monomial takes the same helper
    with pytest.raises(ex.ResourceLimitError, match=r"\(4301 digits > 4300\)"):
        (ac.rational(1, 3) * x1) ** -9013
    assert (ac.rational(1, 3) * x1) ** -9012 == 3**9012 * x1**-9012


@pytest.mark.parametrize(
    "base, e, digits",
    [
        # the lexicographically greatest exponent vector, x1, once ran 5.6 s
        (lambda: 1000000 * x1 + 1, 999, 5995),
        (lambda: x1 + 1000000, 999, 5995),  # the least, the constant term
        (lambda: x1 + x2 / 1000000, 999, 5995),  # the denominator
        (lambda: x1**-1 - 1000000 * x2 + t, 999, 5995),  # a Laurent vertex
        (lambda: 10**2150 * x1 + x2, 2, 4301),  # the boundary: 4300 digits
    ],
    ids=["greatest", "least", "denominator", "laurent", "boundary"],
)
def test_power_of_a_sum_refused_before_any_term_product(monkeypatch, base, e, digits):
    base = base()
    calls = []
    mono_mul = ex._mono_mul
    monkeypatch.setattr(ex, "_mono_mul", lambda m1, m2: calls.append(1) or mono_mul(m1, m2))
    with pytest.raises(ex.ResourceLimitError) as refused:
        base**e
    assert calls == []
    assert str(refused.value) == f"power of a sum exceeds the digit budget ({digits} digits > 4300)"


def test_power_of_a_sum_under_the_digit_budget_runs():
    # 10^4298 has 4299 digits; an inner coefficient may grow past the vertex
    # ones, such as the binomials of (x1 + 1)^k, and the exact test misses it
    square = (10**2149 * x1 + x2) ** 2
    assert square == 10**4298 * x1**2 + 2 * 10**2149 * x1 * x2 + x2**2
    assert (x1 + 1) ** 20 == sum((math.comb(20, k) * x1**k for k in range(21)), ac.ZERO)
    assert (x1 + 1) ** 1 == x1 + 1 and ac.ZERO**5 == ac.ZERO


def test_to_text_refuses_an_integer_past_the_digit_budget(monkeypatch):
    below = 10**4300 - 1  # 4300 digits
    assert ac.to_text(below * x1 - ac.rational(1, below)) == f"{below}*x1 - 1/{below}"
    assert ac.to_text(x1**below) == f"x1^{below}" and ac.to_text(x1**-below) == f"x1^(-{below})"
    for value in (10**4300 * x1, ac.rational(1, 10**4300) * x1, -(10**4300), x1 ** (10**4300)):
        with pytest.raises(ex.ResourceLimitError, match=r"digit budget \(4301 digits > 4300\)"):
            ac.to_text(value)
    # the limit is read when the text is made
    monkeypatch.setitem(ex.BUDGETS, "digit budget", (3, "digits"))
    assert ac.to_text(2**9 * x1) == "512*x1"  # under 2^(3 * 3) bits: no test
    assert ac.to_text(999 * x1) == "999*x1"
    with pytest.raises(ex.ResourceLimitError, match=r"\(4 digits > 3\)"):
        ac.to_text(1000 * x1)


def test_evaluate_exact():
    e = x1**2 + ac.rational(1, 2) * x2
    point = {ex.JetVar("x1"): Fraction(2), ex.JetVar("x2"): Fraction(3)}
    assert evaluate(e, point) == Fraction(11, 2)
    with pytest.raises(EvaluationError):
        evaluate(e, {ex.JetVar("x1"): Fraction(1)})


# --- property-based invariants ---------------------------------------------

_LEAVES = st.one_of(
    st.integers(-4, 4).map(ac.rational),
    st.sampled_from([t, x1, x2, x1t, x2t]),
)


def _combine(children):
    return st.one_of(
        st.tuples(children, children).map(lambda p: p[0] + p[1]),
        st.tuples(children, children).map(lambda p: p[0] * p[1]),
        st.tuples(children, st.integers(0, 3)).map(lambda p: p[0] ** p[1]),
        children.map(ac.sin),
    )


_EXPRS = st.recursive(_LEAVES, _combine, max_leaves=10)


@settings(max_examples=40, deadline=None)
@given(_EXPRS)
def test_canonicalize_idempotent(e):
    c = ac.canonicalize(e)
    assert ac.canonicalize(c) == c


@settings(max_examples=40, deadline=None)
@given(_EXPRS)
def test_oracle_soundness(e):
    if ac.is_identically_zero(e):
        for seed in range(4):
            assert rand_eval(e, seed) == 0


@settings(max_examples=30, deadline=None)
@given(_EXPRS, _EXPRS)
def test_derivative_is_linear(e1, e2):
    lhs = ac.total_derivative(e1 + e2, "t")
    rhs = ac.total_derivative(e1, "t") + ac.total_derivative(e2, "t")
    assert ac.is_identically_zero(lhs - rhs)


@settings(max_examples=30, deadline=None)
@given(_EXPRS, _EXPRS)
def test_derivative_product_rule(e1, e2):
    lhs = ac.total_derivative(e1 * e2, "t")
    rhs = ac.total_derivative(e1, "t") * e2 + e1 * ac.total_derivative(e2, "t")
    assert ac.is_identically_zero(lhs - rhs)


@settings(max_examples=40, deadline=None)
@given(_EXPRS, _EXPRS)
def test_equality_is_mathematical(e1, e2):
    # values compare and hash equal exactly when their difference is zero
    rebuilt = (e1 + e2) * 3 / 3 - e2
    expansion = (x1**2 + 2 * x1 * x2 + x2**2, (x1 + x2) ** 2)
    for a, b in ((e1, e2), (e1, rebuilt), expansion):
        assert (a == b) == ac.is_identically_zero(a - b)
        assert a != b or hash(a) == hash(b)
    assert e1 == rebuilt


def test_multiindex_arithmetic():
    a = ex.MultiIndex({"t": 2, "x": 1})
    b = ex.MultiIndex({"t": 1})
    assert (a + b).order() == 4
    assert a.get("t") == 2 and a.get("y") == 0
    assert a.step("y").order() == 4
    with pytest.raises(ValueError):
        ex.MultiIndex({"t": -1})


def test_to_text_round_trip_via_parser():
    ctx = ac.VarContext(indep=("t",), fields=("x1", "x2"), params=("a",))
    e = ac.canonicalize(
        ac.rational(-3, 4) * x1**2 * ac.sin(t) + ac.param("a") / x2 - 2
    )
    back = ac.parse_expr(ac.to_text(e), ctx)
    assert ac.canonicalize(back) == e


# --- size cap on products ------------------------------------------------------


def test_product_refused_before_any_term_product(monkeypatch):
    calls = []
    mono_mul = ex._mono_mul
    monkeypatch.setattr(ex, "_mono_mul", lambda m1, m2: calls.append(1) or mono_mul(m1, m2))
    five = sum((ac.jet(f"u{i}") for i in range(5)), ac.ZERO)
    monkeypatch.setattr(ex, "NODE_LIMIT", 24)
    # 5 x 5 = 25 term products: refused, although the square has 15 monomials
    for attempt in (lambda: five * five, lambda: five**2, lambda: five**3):
        with pytest.raises(ex.ResourceLimitError, match="term products"):
            attempt()
    assert calls == []
    monkeypatch.setattr(ex, "NODE_LIMIT", 25)
    assert len((five * five).poly()) == 15
    assert len(calls) == 25


def test_accumulated_product_refused_before_any_term_product(monkeypatch):
    # the same cap where a product goes straight into a sum: v * d f/d x1 in
    # the characteristic residual, on monomial codes, and the coefficient
    # product of a wedge, on monomial tuples
    calls, coded = [], []
    mono_mul, mul_into = ex._mono_mul, ode._mul_into

    def counted(acc, p, q, k=1):
        before = dict(acc[0])
        try:
            mul_into(acc, p, q, k)
        except ex.ResourceLimitError:
            assert acc[0] == before  # refused before any term product
            raise
        coded.append(len(p[0]) * len(q[0]))

    monkeypatch.setattr(ex, "_mono_mul", lambda m1, m2: calls.append(1) or mono_mul(m1, m2))
    monkeypatch.setattr(ode, "_mul_into", counted)
    five = sum((x1**k for k in range(1, 6)), ac.ZERO)
    f = sum((x1**k for k in range(2, 7)), ac.ZERO)  # d f/d x1 has five terms too
    system = ode.OdeSystem([five])
    e2 = fo.euclidean(2)
    dx0, dx1 = fo.basis_form(e2, 0).scale(five), fo.basis_form(e2, 1).scale(five)
    residual, square = -five * ex.diff(f, x1), five * five
    calls.clear()
    monkeypatch.setattr(ex, "NODE_LIMIT", 24)
    for attempt in (lambda: ode.check_characteristic(system, f), lambda: fo.wedge(dx0, dx1)):
        with pytest.raises(ex.ResourceLimitError, match="5 x 5 term products"):
            attempt()
    assert calls == [] and coded == []
    monkeypatch.setattr(ex, "NODE_LIMIT", 25)
    assert ode.check_characteristic(system, f) == (False, residual)
    assert fo.wedge(dx0, dx1).component((0, 1)) == square
    assert len(calls) == 25 and coded == [25]


# --- fraction-free kernel against a Fraction reference ----------------------------
#
# The reference holds a polynomial as a dict monomial -> nonzero Fraction, with
# the kernel's monomials (atom-sorted (atom, exponent) tuples), and computes
# every operation term by term.

a_par = ac.param("a")
_ARG = x1 + t / 2  # the argument of the one function atom
_SIN = ac.sin(_ARG)


def _atom_of(e):
    return ex._atom_key(e, "take the atom of")


_REF_ARG = {((ex.JetVar("x1"), 1),): Fraction(1), ((ex.IndepVar("t"), 1),): Fraction(1, 2)}


def _rmono(exponents):
    return tuple(sorted((a, e) for a, e in exponents.items() if e))


def _rmono_mul(m1, m2):
    exponents = dict(m1)
    for a, e in m2:
        exponents[a] = exponents.get(a, 0) + e
    return _rmono(exponents)


def _raccum(out, mono, c):
    v = out.get(mono, 0) + c
    if v:
        out[mono] = v
    else:
        out.pop(mono, None)


def _radd(p, q, k=1):
    out = dict(p)
    for m, c in q.items():
        _raccum(out, m, k * c)
    return out


def _rmul(p, q):
    out = {}
    for m1, c1 in p.items():
        for m2, c2 in q.items():
            _raccum(out, _rmono_mul(m1, m2), c1 * c2)
    return out


def _rinv(p):
    ((mono, c),) = p.items()
    return {tuple((a, -e) for a, e in mono): 1 / c}


def _rpow(p, n):
    if n < 0:
        p, n = _rinv(p), -n
    out = {(): Fraction(1)}
    for _ in range(n):
        out = _rmul(out, p)
    return out


def _rderive(p, rule):
    out = {}
    for mono, c in p.items():
        for a, e in mono:
            rest = dict(mono)
            rest[a] = e - 1
            for m2, c2 in rule(a).items():
                _raccum(out, _rmono_mul(_rmono(rest), m2), c * e * c2)
    return out


def _rchain(atom, inner):
    outer = {
        "sin": {((ex.FunAtom("cos", atom.arg), 1),): Fraction(1)},
        "cos": {((ex.FunAtom("sin", atom.arg), 1),): Fraction(-1)},
    }[atom.fn]
    return _rmul(outer, inner)


def _rtotal(p, d):
    def rule(a):
        if isinstance(a, ex.JetVar):
            return {((ex.JetVar(a.field, a.index.step(d)), 1),): Fraction(1)}
        if isinstance(a, ex.FunAtom):
            return _rchain(a, _rtotal(_REF_ARG, d))
        return {(): Fraction(1)} if a == ex.IndepVar(d) else {}

    return _rderive(p, rule)


def _rdiff(p, sym):
    def rule(a):
        if a == sym:
            return {(): Fraction(1)}
        if isinstance(a, ex.FunAtom):
            return _rchain(a, _rdiff(_REF_ARG, sym))
        return {}

    return _rderive(p, rule)


def _rsubst(p, table):
    out = {}
    for mono, c in p.items():
        term = {(): c}
        for a, e in mono:
            term = _rmul(term, _rpow(table[a], e) if a in table else {((a, e),): Fraction(1)})
        for m, v in term.items():
            _raccum(out, m, v)
    return out


def _rantiderivative(p, name):
    t_atom, log_t = ex.IndepVar(name), _atom_of(ac.log(ac.indep(name)))
    out = {}
    for mono, c in p.items():
        k = dict(mono).get(t_atom, 0)
        if k == -1:
            _raccum(out, _rmono_mul(_rmono_mul(mono, ((t_atom, 1),)), ((log_t, 1),)), c)
        else:
            _raccum(out, _rmono_mul(mono, ((t_atom, 1),)), c / (k + 1))
    return out


def _rtext(p):
    """The input-grammar rendering, largest monomial first."""
    out = ""
    for mono, c in sorted(p.items(), key=lambda mc: (sum(e for _, e in mc[0]), mc[0]), reverse=True):
        factors = [
            a.display() if e == 1 else f"{a.display()}^{e if e > 0 else f'({e})'}"
            for a, e in mono
        ]
        size = abs(c)
        if size != 1 or not factors:
            factors.insert(0, str(size))  # str(Fraction) is "n" or "n/d"
        sign = "-" if c < 0 else "+"
        out += (sign if not out and sign == "-" else f" {sign} " if out else "") + "*".join(factors)
    return out or "0"


def _check(e, ref):
    """e is the reference value, in the kernel's normal form."""
    assert e.poly() == ref
    assert ac.to_text(e) == _rtext(ref)
    c, d = e._poly
    assert d > 0 and math.gcd(d, *c.values()) == 1
    assert all(type(v) is int for v in c.values())
    assert isinstance(e, ex.Rat) == all(m == () for m in ref)


def _pair(e):
    return e, {((_atom_of(e), 1),): Fraction(1)}


_RATIONALS = st.builds(Fraction, st.integers(-6, 6), st.integers(1, 6))
_CONSTANTS = _RATIONALS.map(lambda q: (ac.rational(q), {(): q} if q else {}))
_NONZERO = _RATIONALS.filter(bool).map(lambda q: (ac.rational(q), {(): q}))
_UNITS = st.one_of(_NONZERO, st.sampled_from([t, x1t]).map(_pair))  # divisors
_RLEAVES = st.one_of(
    _CONSTANTS,
    st.sampled_from([t, x1, x2, x1t, a_par, _SIN]).map(_pair),
    st.tuples(_UNITS, st.integers(-2, -1)).map(lambda p: (p[0][0] ** p[1], _rpow(p[0][1], p[1]))),
)


def _combiner(units):
    return lambda children: st.one_of(
        st.tuples(children, children).map(lambda p: (p[0][0] + p[1][0], _radd(p[0][1], p[1][1]))),
        st.tuples(children, children).map(
            lambda p: (p[0][0] - p[1][0], _radd(p[0][1], p[1][1], -1))
        ),
        st.tuples(children, children).map(lambda p: (p[0][0] * p[1][0], _rmul(p[0][1], p[1][1]))),
        st.tuples(children, units).map(
            lambda p: (p[0][0] / p[1][0], _rmul(p[0][1], _rinv(p[1][1])))
        ),
        st.tuples(children, st.integers(0, 2)).map(lambda p: (p[0][0] ** p[1], _rpow(p[0][1], p[1]))),
    )


_REF_PAIRS = st.recursive(_RLEAVES, _combiner(_UNITS), max_leaves=8)


@settings(max_examples=60, deadline=None)
@given(_REF_PAIRS)
def test_kernel_arithmetic_matches_fraction_reference(pair):
    _check(*pair)


@settings(max_examples=40, deadline=None)
@given(_REF_PAIRS, st.sampled_from([t, x1, x1t, x2, _SIN]))
def test_kernel_derivatives_match_fraction_reference(pair, sym):
    e, ref = pair
    _check(ac.total_derivative(e, "t"), _rtotal(ref, "t"))
    _check(ex.diff(e, sym), _rdiff(ref, _atom_of(sym)))


@settings(max_examples=40, deadline=None)
@given(_REF_PAIRS, _REF_PAIRS, _REF_PAIRS)
def test_kernel_substitution_matches_fraction_reference(pair, q1, q2):
    # x2 and a carry no negative exponents and do not occur in the function argument
    (e, ref), (f1, r1), (f2, r2) = pair, q1, q2
    table = {_atom_of(x2): r1, _atom_of(a_par): r2}
    _check(ac.substitute(e, {x2: f1, a_par: f2}), _rsubst(ref, table))


_T_LEAVES = st.one_of(
    _CONSTANTS,
    st.sampled_from([t, a_par]).map(_pair),
    st.integers(-3, -1).map(lambda n: (t**n, _rpow(_pair(t)[1], n))),
)
_T_UNITS = st.one_of(_NONZERO, st.just(t).map(_pair))


@settings(max_examples=40, deadline=None)
@given(st.recursive(_T_LEAVES, _combiner(_T_UNITS), max_leaves=6))
def test_kernel_antiderivative_matches_fraction_reference(pair):
    e, ref = pair
    _check(ex.antiderivative(e, "t"), _rantiderivative(ref, "t"))


# --- fast paths and the memoised jet step --------------------------------------


def _general_pmul(p, q):
    """The term-by-term loop of _pmul, without its monomial path."""
    out = {}
    for m1, c1 in p[0].items():
        for m2, c2 in q[0].items():
            m = ex._mono_mul(m1, m2)
            v = out.get(m, 0) + c1 * c2
            if v:
                out[m] = v
            else:
                out.pop(m, None)
    return ex._normal(out, p[1] * q[1])


_MONOMIALS = st.builds(
    lambda q, exps: ac.rational(q) * t ** exps[0] * x1 ** exps[1] * x1t ** exps[2] * _SIN ** exps[3],
    _RATIONALS.filter(bool),
    st.lists(st.integers(-2, 2), min_size=4, max_size=4),
)


@settings(max_examples=60, deadline=None)
@given(_MONOMIALS, st.one_of(_MONOMIALS, _REF_PAIRS.map(lambda pair: pair[0])))
def test_monomial_product_path_matches_general_loop(m, other):
    for p, q in ((m._poly, other._poly), (other._poly, m._poly)):
        assert ex._pmul(p, q) == _general_pmul(p, q)
    # division by a monomial: every exponent cancels, down to the monomial ()
    quotient = ex._pmul(m._poly, ex._pinv(m._poly))
    assert quotient == _general_pmul(m._poly, ex._pinv(m._poly)) == ({(): 1}, 1)


def test_monomial_product_cancels_some_exponents():
    p, q = (x1 * t**2 / 3)._poly, (x1 ** -1 * t * 6)._poly
    assert ex._pmul(p, q) == _general_pmul(p, q) == (t**3 * 2)._poly


# --- the fused multiply-accumulate ---------------------------------------------
#
# Operands: sums with rational denominators and function atoms, Laurent
# monomials, and constants (zero included).  The start of the accumulator may
# be unrelated, cancel part of the added product, or cancel all of it.  The
# references form the product, with _pmul and with the term-by-term loop
# above, and add it.

_FUSED_OPERANDS = st.one_of(
    _REF_PAIRS.map(lambda pair: pair[0]), _MONOMIALS, _RATIONALS.map(ac.rational)
)


@settings(max_examples=120, deadline=None)
@given(
    _FUSED_OPERANDS,
    _FUSED_OPERANDS,
    _FUSED_OPERANDS,
    st.sampled_from([-3, -1, 1, 2]),
    st.sampled_from(["other", "cancel some", "cancel all"]),
)
def test_fused_multiply_accumulate_matches_product_then_add(start, p, q, k, mode):
    if mode != "other":
        start = (start if mode == "cancel some" else 0) - k * p * q
    fused = ex._acc(start._poly)
    ex._paddmul_into(fused, p._poly, q._poly, k)
    for product in (ex._pmul(p._poly, q._poly), _general_pmul(p._poly, q._poly)):
        reference = ex._acc(start._poly)
        ex._padd_into(reference, product, k)
        assert ex._normal(*fused) == ex._normal(*reference)
    if mode == "cancel all":
        assert ex._normal(*fused) == ({}, 1)


@settings(max_examples=30, deadline=None)
@given(_REF_PAIRS)
def test_total_derivatives_do_not_depend_on_the_jet_step_cache(pair):
    e, ref = pair
    warm = [ac.total_derivative(e, d) for d in ("t", "s")]
    ex._jet_step.cache_clear()
    cold = [ac.total_derivative(e, d) for d in ("t", "s")]
    assert [w._poly for w in warm] == [c._poly for c in cold]
    assert warm[0].poly() == _rtotal(ref, "t")
    assert ex._jet_step.cache_info().maxsize is not None  # bounded


def test_multiindex_sum_with_empty_side_is_the_other_operand():
    a = ex.MultiIndex({"t": 2, "x": 1})
    assert ex.EMPTY_INDEX + a is a and a + ex.EMPTY_INDEX is a
    assert a + a == ex.MultiIndex({"t": 4, "x": 2})


def test_values_reached_by_different_routes_are_equal():
    for lhs, rhs in (
        ((x1 / 2) * 2, x1),
        (x1 / 4 + x1 / 4, x1 / 2),
        (ac.rational(3, 4) * x1 - x1 / 4, x1 / 2),
        ((x1 / 2 + x2 / 2) * 2 - x2, x1),
        (ac.total_derivative(x1**2 / 2, "t"), x1 * x1t),
        (x1 / 3 - x1 / 3, ac.ZERO),
    ):
        assert lhs == rhs and hash(lhs) == hash(rhs)
        assert lhs._poly == rhs._poly
    zero = x1 / 3 - x1 / 3
    assert isinstance(zero, ex.Rat) and zero._poly == ({}, 1)
    assert isinstance((x1 / 2) / x1, ex.Rat) and ((x1 / 2) / x1).value == Fraction(1, 2)


# --- the memoised gradient -----------------------------------------------------

_GRAD_LEAVES = st.one_of(
    _RATIONALS.map(ac.rational),
    st.sampled_from([t, x1, x2, x1t, a_par, t**-1, x1**-2]),
)


def _apply(fn, e):
    # the log of a constant <= 0 is undefined
    undefined = fn is ac.log and isinstance(e, ex.Rat) and e.value <= 0
    return e if ac.is_identically_zero(e) or undefined else fn(e)


def _grad_exprs(functions):
    def extend(children):
        grown = [
            st.tuples(children, children).map(lambda p: p[0] + p[1]),
            st.tuples(children, children).map(lambda p: p[0] - p[1]),
            st.tuples(children, children).map(lambda p: p[0] * p[1]),
            st.tuples(children, st.integers(0, 3)).map(lambda p: p[0] ** p[1]),
        ]
        if functions:
            fns = st.sampled_from([ac.sin, ac.exp, ac.log])
            grown.append(st.tuples(fns, children).map(lambda p: _apply(*p)))
        return st.one_of(grown)

    return st.recursive(_GRAD_LEAVES, extend, max_leaves=8)


def _partial_or_error(function):
    try:
        return function()
    except ex.UnsupportedInputError as exc:  # d log(arg) needs a monomial arg
        return str(exc)


# Reference: the product-rule partial derivative that the memoised gradient
# replaced, kept as it was written apart from the ex. prefixes; like the
# kernel, it reads the node limit as a constant.


def _derive_poly(p, atom_rule):
    """Product rule over monomials; atom_rule(atom) is the derivative of
    one atom as a polynomial, looked up once per atom and call.  An atom
    seldom repeats inside one call, so the jet step of a total derivative
    is memoised across calls as well, in _jet_step."""
    c, d = p
    acc = {}
    den = 1  # lcm of the denominators of the atom derivatives met so far
    rules = {}
    for mono, coeff in c.items():
        for k, (a, e) in enumerate(mono):
            da = rules.get(a)
            if da is None:
                da = rules[a] = atom_rule(a)
            dc, dd = da
            if not dc:
                continue
            if den % dd:
                f = dd // math.gcd(den, dd)
                for m in acc:
                    acc[m] *= f
                den *= f
            if e == 1:
                rest = mono[:k] + mono[k + 1 :]
            else:
                rest = mono[:k] + ((a, e - 1),) + mono[k + 1 :]
            scale = coeff * e * (den // dd)
            for m2, c2 in dc.items():
                m = ex._mono_mul(rest, m2)
                nc = acc.get(m, 0) + scale * c2
                if nc:
                    acc[m] = nc
                else:
                    del acc[m]
        ex._check_size(len(acc))
    return ex._normal(acc, d * den)


def _chain(atom, inner):
    """d fn(arg) = fn'(arg) * d arg, with d arg given as `inner`."""
    if not inner[0]:
        return {}, 1
    fn, arg = atom[1], atom[3]
    if fn == "sin":
        outer = ex._fun_poly("cos", arg)
    elif fn == "cos":
        outer = ex._pscale(ex._fun_poly("sin", arg), -1)
    elif fn == "exp":
        outer = {((atom, 1),): 1}, 1
    else:
        outer = ex._pinv(arg._poly)
    return ex._pmul(outer, inner)


def _partial_poly(p, sym):
    def rule(a):
        if a == sym:
            return {(): 1}, 1
        if isinstance(a, ex.FunAtom):
            return _chain(a, _partial_poly(a[3]._poly, sym))
        return {}, 1

    return _derive_poly(p, rule)


def reference_diff(e, atom):
    """d e / d atom by the reference product rule."""
    return ex._expr(_partial_poly(ex._coerce(e)._poly, atom))


def _gradient_matches_reference(e):
    probes = ex.atoms(e) | {_atom_of(x2), _atom_of(ac.param("b")), _atom_of(_SIN)}
    for _ in range(2):  # computed, then read back from the memo
        for atom in sorted(probes):
            expected = _partial_or_error(lambda: reference_diff(e, atom))
            assert _partial_or_error(lambda: ex._expr(ex._gradient(e, atom))) == expected
            assert _partial_or_error(lambda: ex.diff(e, atom)) == expected


@settings(max_examples=60, deadline=None)
@given(_grad_exprs(functions=False))
def test_gradient_matches_diff_on_polynomials(e):
    _gradient_matches_reference(e)


@settings(max_examples=60, deadline=None)
@given(_grad_exprs(functions=True))
def test_gradient_matches_diff_with_function_atoms(e):
    _gradient_matches_reference(e)


def test_nested_function_atoms_differentiate_by_the_chain_rule():
    s = ac.sin(x1)
    e = x1 * s + ac.exp(s) + ac.log(x1 * t) * s
    for atom in (_atom_of(x1), _atom_of(t), _atom_of(s), _atom_of(ac.exp(s))):
        assert ex.diff(e, atom) == reference_diff(e, atom)
    assert ex.diff(e, x1) == s + x1 * ac.cos(x1) + ac.cos(x1) * (ac.exp(s) + ac.log(x1 * t)) + s / x1


def _counting_chain(monkeypatch):
    calls = []
    chain = ex._chain
    monkeypatch.setattr(ex, "_chain", lambda *a: calls.append(a) or chain(*a))
    return calls


def test_chain_rule_partials_are_memoised_on_the_value(monkeypatch):
    calls = _counting_chain(monkeypatch)
    e = x2**2 / 2 - ac.cos(x1) + x1 * x2
    atom = _atom_of(x1)
    first = ex._gradient(e, atom)
    assert calls and ex._expr(first) == x2 + ac.sin(x1)
    calls.clear()
    assert ex._gradient(e, atom) is first
    assert calls == []


def test_raising_chain_rule_partial_stores_nothing(monkeypatch):
    # d log(x1 + x2) / d x1 needs 1 / (x1 + x2), which the kernel refuses;
    # the atoms that do not reach the argument still get their partials
    e = x2 * ac.log(x1 + x2) + t**2
    for _ in range(2):
        with pytest.raises(ex.UnsupportedInputError, match="division"):
            ex._gradient(e, _atom_of(x1))
    calls = _counting_chain(monkeypatch)
    assert ex._gradient(e, _atom_of(t)) == ex._gradient(e, _atom_of(t)) == (2 * t)._poly
    assert len(calls) == 1  # the chain rule through log, with a zero inner partial
    with pytest.raises(ex.UnsupportedInputError, match="division"):
        ex._gradient(e, _atom_of(x1))
    assert len(calls) == 2


@pytest.mark.parametrize(
    "sym", [x1 + x2, 2 * x1, "x1", ac.ONE, ac.sin(x1) + 1],
    ids=["sum", "multiple", "name", "constant", "function plus one"],
)
def test_diff_refuses_what_is_not_an_atom(sym):
    with pytest.raises(TypeError, match="not an atom"):
        ex.diff(x1 * x2, sym)


@pytest.mark.parametrize(
    "key", [x1 + x2, 2 * x1, "x1", ac.ONE, ac.sin(x1) + 1],
    ids=["sum", "multiple", "name", "constant", "function plus one"],
)
def test_substitute_and_evaluate_refuse_what_is_not_an_atom(key):
    with pytest.raises(TypeError, match="not an atom"):
        ac.substitute(x1 * x2, {key: 2})
    # an atom, or its one-atom expression, is still a key
    assert ac.substitute(x1 * x2, {ex.JetVar("x1"): 2, x2: x1}) == 2 * x1


@pytest.mark.parametrize("d", [x1 + x2, 2, x1, 2 * t], ids=["sum", "integer", "jet", "multiple"])
def test_divergence_split_refuses_a_bad_direction(d):
    with pytest.raises(TypeError, match="direction must be an independent variable or its name"):
        ac.divergence_split(x1t * x1, d=d)
    assert ac.divergence_split(x1t * x1, d=t) == ac.divergence_split(x1t * x1, d="t") == x1**2 / 2


def _count_fills(monkeypatch):
    fills = []
    shift = ex._shift_gradient
    monkeypatch.setattr(ex, "_shift_gradient", lambda p: fills.append(p) or shift(p))
    return fills


def test_one_gradient_fill_per_value(monkeypatch):
    fills = _count_fills(monkeypatch)
    e = x1**2 * x2 + t * x1t - ac.param("a") * x2
    partials = [ex.diff(e, s) for s in (x1, x2, t, x1t, ac.param("a"), x1tt) * 2]
    assert len(fills) == 1
    assert partials[:6] == [2 * x1 * x2, x1**2 - ac.param("a"), x1t, t, -x2, ac.ZERO]
    assert partials[6:] == partials[:6]


def test_linearize_fills_one_gradient_per_component(monkeypatch):
    fills = _count_fills(monkeypatch)
    comps = [x1 * x1t + x2, x2t * x1 - x1tt, x1**3]
    first = lo.linearize(comps, ["x1", "x2"])
    second = lo.linearize(comps, ["x1", "x2"])
    assert len(fills) == len(comps)
    assert first == second


# --- interned atoms ---------------------------------------------------------------

_ARG_TWIN = ac.rational(1, 2) * (t + 2 * x1)  # equal to _ARG, built apart
_ATOM_KINDS = [
    ex.JetVar("x1"),
    ex.JetVar("x1", {"t": 2, "s": 1}),
    ex.IndepVar("t"),
    ex.Param("a"),
    ex.FunAtom("sin", _ARG),
    ex.FunAtom("exp", ac.cos(x1) * t),
]


def _registered(atom):
    return ex._ATOMS[tuple(atom)] is atom


def test_equal_atoms_are_one_object():
    jet = ex.JetVar("x1", {"t": 2})
    assert ex.JetVar("x1", ex.MultiIndex({"t": 2})) is jet
    assert ex.JetVar("x1", [("t", 1), ("t", 1)]) is jet
    assert ex.IndepVar("t") is not ex.Param("t") and ex.IndepVar("t") != ex.Param("t")
    assert _ARG_TWIN is not _ARG and _ARG_TWIN == _ARG
    assert ex.FunAtom("sin", _ARG_TWIN) is ex.FunAtom("sin", _ARG)
    assert all(_registered(a) for a in _ATOM_KINDS)


def test_atoms_keep_their_value_order_and_hash_by_identity():
    assert sorted(_ATOM_KINDS, reverse=True) == sorted(map(tuple, _ATOM_KINDS), reverse=True)
    assert [hash(a) for a in _ATOM_KINDS] == [object.__hash__(a) for a in _ATOM_KINDS]


def test_parsed_and_derived_atoms_are_registered():
    from anchorcalc.parser import VarContext, parse_expr

    ctx = VarContext(indep=("t",), fields=("x1",), params=("a",))
    parsed = ex.atoms(parse_expr("a*x1_tt + sin(x1 + t/2)*t", ctx))
    assert ex.JetVar("x1", {"t": 2}) in parsed and ex.FunAtom("sin", _ARG) in parsed
    step = ex._jet_step(ex.JetVar("x1", {"t": 1}), "s")
    iterated = ex._iterated_poly(x1._poly, ex.MultiIndex({"t": 2, "s": 1}))
    derived = [a for p in (step, iterated) for mono in p[0] for a, _ in mono]
    assert derived == [ex.JetVar("x1", {"t": 1, "s": 1}), ex.JetVar("x1", {"t": 2, "s": 1})]
    assert all(_registered(a) for a in parsed | set(derived))


@pytest.mark.parametrize("atom", _ATOM_KINDS, ids=repr)
def test_copied_and_unpickled_atoms_are_the_interned_object(atom):
    assert copy.copy(atom) is atom and copy.deepcopy(atom) is atom
    for protocol in range(pickle.HIGHEST_PROTOCOL + 1):
        assert pickle.loads(pickle.dumps(atom, protocol)) is atom


def test_expressions_and_indices_survive_copy_and_pickle():
    index = ex.MultiIndex({"t": 2, "s": 1})
    for e in (x1**2 * x1t / 3 - ac.sin(_ARG) * ac.param("a"), ac.rational(-7, 2), ac.ZERO):
        for twin in (copy.copy(e), copy.deepcopy(e), pickle.loads(pickle.dumps(e))):
            assert twin._hash is None  # the hash reads atom addresses: none is carried over
            assert type(twin) is type(e) and twin == e and hash(twin) == hash(e)
    for protocol in range(pickle.HIGHEST_PROTOCOL + 1):
        assert pickle.loads(pickle.dumps(index, protocol)) == index
    assert copy.copy(index) == copy.deepcopy(index) == index


def test_racing_constructors_build_one_atom():
    names = [f"race{k}" for k in range(300)]
    built = [[] for _ in range(8)]  # more threads than cores

    def work(out):
        for name in names:
            out.append(ex.JetVar(name, {"t": 1}))

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=work, args=(out,)) for out in built]
        for th in threads:
            th.start()
        for th in threads:
            th.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(th.is_alive() for th in threads)
    for atoms in zip(*built, strict=True):
        assert all(a is atoms[0] for a in atoms) and _registered(atoms[0])


def _reference_mono_mul(m1, m2):
    """The merge of two atom-sorted monomials that tests atoms with ==."""
    if not m2:
        return m1
    if not m1:
        return m2
    out = []
    i = j = 0
    n1, n2 = len(m1), len(m2)
    while i < n1 and j < n2:
        a, ea = m1[i]
        b, eb = m2[j]
        if a == b:
            if ea + eb:
                out.append((a, ea + eb))
            i += 1
            j += 1
        elif a < b:
            out.append(m1[i])
            i += 1
        else:
            out.append(m2[j])
            j += 1
    return tuple(out) + m1[i:] + m2[j:]


_MERGE_ATOMS = _ATOM_KINDS + [
    ex.JetVar("x10"),
    ex.JetVar("x2"),
    ex.JetVar("x1", {"t": 1}),
    ex.IndepVar("s"),
    ex.Param("t"),
    ex.FunAtom("sin", _ARG + 1),
    ex.FunAtom("cos", _ARG),
]
_EXPONENTS = st.integers(-3, 3).filter(bool)


@st.composite
def _monomial_pairs(draw):
    """Two atom-sorted monomials of 0-5 atoms; the second shares some atoms
    of the first, some with the negated exponent, so that they cancel."""
    atoms = draw(st.lists(st.sampled_from(_MERGE_ATOMS), unique=True, max_size=5))
    m1 = {a: draw(_EXPONENTS) for a in atoms}
    shared = draw(st.lists(st.sampled_from(atoms), unique=True) if atoms else st.just([]))
    others = draw(st.lists(st.sampled_from(_MERGE_ATOMS), unique=True, max_size=5))
    m2 = {a: draw(st.sampled_from([-m1[a], draw(_EXPONENTS)])) for a in shared}
    for a in others[: 5 - len(m2)]:
        m2.setdefault(a, draw(_EXPONENTS))
    return tuple(sorted(m1.items())), tuple(sorted(m2.items()))


@settings(max_examples=300, deadline=None)
@given(_monomial_pairs())
def test_monomial_product_matches_the_equality_merge(pair):
    m1, m2 = pair
    for a, b in ((m1, m2), (m2, m1)):
        product = ex._mono_mul(a, b)
        assert product == _reference_mono_mul(a, b)
        assert list(product) == sorted(product) and all(e for _, e in product)

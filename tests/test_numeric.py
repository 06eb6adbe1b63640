"""The generated RK4 oracle against a list-based reference loop.

A drift is a difference of near-equal floats that reports print to 7
significant digits, so the oracle must reproduce the reference's float
operations exactly, not merely closely: the property compares the bits.
"""

import math
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from anchorcalc import expr as ex
from anchorcalc import numeric, ode

# --- reference: the list-based RK4 loop, one lambda per component --------------


def _reference_compile(e, n: int):
    e = ex.canonicalize(ex._coerce(e))
    names = {ex.IndepVar(ode.TIME): "t"}
    for i in range(n):
        names[ex.JetVar(ode.field_name(i))] = f"x[{i}]"

    def emit(e) -> str:
        terms = []
        # smallest monomial first: the order of the float sum fixes the drift bits
        for mono, coeff in reversed(ex.terms(e)):
            factors = [repr(float(coeff))]
            for atom, power in mono:
                factors.append(f"({emit_atom(atom)})**{power}")
            terms.append("*".join(factors))
        return " + ".join(terms) or "0.0"

    def emit_atom(atom) -> str:
        if isinstance(atom, ex.FunAtom):
            return f"_f_{atom.fn}({emit(atom.arg)})"
        if atom in names:
            return names[atom]
        raise ex.UnsupportedInputError(
            f"cannot evaluate {atom.display()} numerically in an ODE trajectory"
        )

    source = f"lambda t, x: {emit(e)}"
    env = {f"_f_{k}": v for k, v in numeric._FUNCS.items()}
    return eval(source, env)  # noqa: S307 - source built from canonical forms


def _reference_drift(system, tracked, seed, t_end, step, points, seen=None):
    """The records of integrate_drift, one point after another.  A point
    stops at a blow-up or a domain error and the next one starts; the
    drifts it reached stay.  seen, if given, collects every tracked value."""
    n = system.n
    v_fns = [_reference_compile(c, n) for c in system.v]
    tracked_fns = [(name, _reference_compile(f, n)) for name, f in tracked]

    def rhs(t, x):
        return [-fn(t, x) for fn in v_fns]

    records = {name: numeric.DriftRecord(name, 0.0) for name, _ in tracked_fns}
    steps = int(round(t_end / step))
    for point in numeric.random_initial_points(n, seed, points):
        x = [float(c) for c in point]
        t = 0.0
        stop = None
        try:
            start = {name: fn(t, x) for name, fn in tracked_fns}
            if seen is not None:
                seen += start.values()
        except (OverflowError, ValueError, ZeroDivisionError):
            # undefined at the start point: the point takes no step
            stop = numeric.TRACKED_DOMAIN
        for _ in range(steps if stop is None else 0):
            try:
                k1 = rhs(t, x)
                x2 = [xi + 0.5 * step * k for xi, k in zip(x, k1)]
                k2 = rhs(t + 0.5 * step, x2)
                x3 = [xi + 0.5 * step * k for xi, k in zip(x, k2)]
                k3 = rhs(t + 0.5 * step, x3)
                x4 = [xi + step * k for xi, k in zip(x, k3)]
                k4 = rhs(t + step, x4)
            except OverflowError:
                stop = numeric.BLOWUP
                break
            except (ValueError, ZeroDivisionError):
                stop = numeric.FIELD_DOMAIN
                break
            x = [
                xi + step / 6.0 * (a + 2 * b + 2 * c + d)
                for xi, a, b, c, d in zip(x, k1, k2, k3, k4)
            ]
            t += step
            if any(abs(c) > numeric.BLOWUP_NORM or c != c for c in x):
                stop = numeric.BLOWUP
                break
            try:
                values = {name: fn(t, x) for name, fn in tracked_fns}
            except (OverflowError, ValueError, ZeroDivisionError):
                stop = numeric.TRACKED_DOMAIN
                break
            if seen is not None:
                seen += values.values()
            for name, value in values.items():
                drift = abs(value - start[name])
                if drift > records[name].drift:
                    records[name].drift = drift
        for record in records.values():
            record.stop = record.stop or stop
    return list(records.values())


# --- random small systems -------------------------------------------------------

_T = ex.indep(ode.TIME)
_BIG = ex.rational(10**300)


def _x(i):
    return ex.jet(ode.field_name(i))


@st.composite
def _terms(draw, n):
    """coeff * (monomial of degree <= 3 in x) * (1, t, 1/x1 or a cos atom)."""
    coeff = Fraction(draw(st.integers(-9, 9)), draw(st.integers(1, 4)))
    term = ex.rational(coeff.numerator, coeff.denominator)
    for i in draw(st.lists(st.integers(0, n - 1), max_size=3)):
        term = term * _x(i)
    extra = draw(st.sampled_from(["", "t", "laurent", "cos"]))
    if extra == "t":
        term = term * _T
    elif extra == "laurent":
        term = term * _x(0) ** -1
    elif extra == "cos":
        inner = draw(st.sampled_from([_T] + [_x(i) for i in range(n)]))
        term = term * ex.cos(inner + draw(st.integers(-2, 2)))
    return term


def _polys(n):
    return st.lists(_terms(n), min_size=1, max_size=4).map(lambda ts: sum(ts, ex.ZERO))


@st.composite
def _oracle_inputs(draw):
    n = draw(st.integers(1, 3))
    system = ode.OdeSystem(draw(st.lists(_polys(n), min_size=n, max_size=n)))
    fs = draw(st.lists(_polys(n), min_size=1, max_size=2))
    tracked = [(f"f{j}", f) for j, f in enumerate(fs)]
    step = draw(st.sampled_from([0.01, 0.02, 0.05]))
    t_end = draw(st.floats(0.1, 0.6))
    # up to 3 points, so that the largest drift is carried across points
    return system, tracked, draw(st.integers(0, 100)), t_end, step, draw(st.integers(1, 3))


def _bits(records):
    return [(r.name, r.drift.hex(), r.stop) for r in records]


@settings(max_examples=150, deadline=None)
@given(_oracle_inputs())
def test_generated_oracle_is_bit_identical_to_reference(case):
    # partial drifts too: ERROR records print them
    system, tracked, seed, t_end, step, points = case
    records = numeric.integrate_drift(system, tracked, seed, t_end, step, points)
    assert _bits(records) == _bits(_reference_drift(system, tracked, seed, t_end, step, points))


@pytest.mark.parametrize(
    "v, f, special",
    [
        # x1 grows at unit speed until 10^300*x1^40 overflows to +inf, or
        # -inf; some start points are already past it
        ([-1], _BIG * _x(0) ** 40, math.inf),
        ([-1], -_BIG * _x(0) ** 40, -math.inf),
        # inf - inf once both terms overflow
        ([-1, -1], _BIG * _x(0) ** 40 - _BIG * _x(1) ** 40, math.nan),
        # 10^-400 is 0.0 in floats, so f is 0.0 or -0.0 with the sign of x1,
        # which crosses zero
        ([-1], ex.rational(1, 10**400) * _x(0), -0.0),
        # -t is -0.0 at the start point
        ([0], -_T, -0.0),
    ],
)
def test_drift_bits_on_special_values_of_f(v, f, special):
    system = ode.OdeSystem([ex.rational(c) for c in v])
    tracked = [("f", f)]
    seen = []
    expected = _reference_drift(system, tracked, 5, 20.0, 0.5, 3, seen)
    assert any(value.hex() == special.hex() for value in seen)
    assert _bits(numeric.integrate_drift(system, tracked, 5, 20.0, 0.5, 3)) == _bits(expected)


def test_power_one_and_unit_coefficients_are_exact():
    # the emitter writes y for 1.0*y and y**1; check the values those keep
    samples = [0.0, 5e-324, 2.0**-1022, 1.0, 2.0**1023, math.pi, 1e308, math.inf, math.nan]
    samples += [math.ldexp(1.0 + k / 977.0, e) for k in range(977) for e in (-600, -7, 0, 9, 700)]
    for y in samples + [-y for y in samples]:
        assert (y**1).hex() == y.hex() and (1.0 * y).hex() == y.hex()

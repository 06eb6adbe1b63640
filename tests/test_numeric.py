"""The generated RK4 oracle against a list-based reference loop.

A drift is a difference of near-equal floats that reports print to 7
significant digits, so the oracle must reproduce the reference's float
operations exactly, not merely closely: the property compares the bits.
"""

import math
from fractions import Fraction

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


def _reference_drift(system, tracked, seed, t_end, step, points):
    n = system.n
    v_fns = [_reference_compile(c, n) for c in system.v]
    tracked_fns = [(name, _reference_compile(f, n)) for name, f in tracked]

    def rhs(t, x):
        return [-fn(t, x) for fn in v_fns]

    records = {name: numeric.DriftRecord(name, 0.0, False) for name, _ in tracked_fns}
    steps = int(round(t_end / step))
    for point in numeric.random_initial_points(n, seed, points):
        x = [float(c) for c in point]
        t = 0.0
        try:
            start = {name: fn(t, x) for name, fn in tracked_fns}
        except (OverflowError, ValueError, ZeroDivisionError):
            # the tracked function is undefined at the start point
            for record in records.values():
                record.blowup = True
            continue
        blowup = False
        for _ in range(steps):
            try:
                k1 = rhs(t, x)
                x2 = [xi + 0.5 * step * k for xi, k in zip(x, k1)]
                k2 = rhs(t + 0.5 * step, x2)
                x3 = [xi + 0.5 * step * k for xi, k in zip(x, k2)]
                k3 = rhs(t + 0.5 * step, x3)
                x4 = [xi + step * k for xi, k in zip(x, k3)]
                k4 = rhs(t + step, x4)
                x = [
                    xi + step / 6.0 * (a + 2 * b + 2 * c + d)
                    for xi, a, b, c, d in zip(x, k1, k2, k3, k4)
                ]
            except (OverflowError, ValueError, ZeroDivisionError):
                blowup = True
                break
            t += step
            if any(abs(c) > numeric.BLOWUP_NORM or c != c for c in x):
                blowup = True
                break
            for name, fn in tracked_fns:
                drift = abs(fn(t, x) - start[name])
                if drift > records[name].drift:
                    records[name].drift = drift
        if blowup:
            for name, _ in tracked_fns:
                records[name].blowup = True
    return list(records.values())


# --- random small systems -------------------------------------------------------

_T = ex.indep(ode.TIME)


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
    return system, tracked, draw(st.integers(0, 100)), t_end, step, draw(st.integers(1, 2))


def _bits(records):
    return [(r.name, r.drift.hex(), r.blowup) for r in records]


@settings(max_examples=150, deadline=None)
@given(_oracle_inputs())
def test_generated_oracle_is_bit_identical_to_reference(case):
    system, tracked, seed, t_end, step, points = case
    records = numeric.integrate_drift(system, tracked, seed, t_end, step, points)
    try:
        expected = _reference_drift(system, tracked, seed, t_end, step, points)
    except (OverflowError, ValueError, ZeroDivisionError):
        # the reference stops on a tracked function that leaves its domain
        # mid-trajectory; the oracle flags that trajectory instead
        assert all(r.blowup for r in records)
        return
    assert _bits(records) == _bits(expected)


def test_power_one_and_unit_coefficients_are_exact():
    # the emitter writes y for 1.0*y and y**1; check the values those keep
    samples = [0.0, 5e-324, 2.0**-1022, 1.0, 2.0**1023, math.pi, 1e308, math.inf, math.nan]
    samples += [math.ldexp(1.0 + k / 977.0, e) for k in range(977) for e in (-600, -7, 0, 9, 700)]
    for y in samples + [-y for y in samples]:
        assert (y**1).hex() == y.hex() and (1.0 * y).hex() == y.hex()

"""Numeric trajectory oracle: RK4 integration with invariant-drift tracking.

Independent confirmation of symbolic conservation checks: integrate the
system xdot = -v(t, x) from seeded random rational initial points and
report the worst drift of each tracked function along the trajectory.
Everything is deterministic for a fixed seed.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from fractions import Fraction

from . import expr as ex
from . import ode

BLOWUP_NORM = 1e12
DEFAULT_STEP = 1e-3
DEFAULT_T_END = 100.0
DEFAULT_POINTS = 3
DRIFT_TOLERANCE = 1e-6

_FUNCS = {"sin": math.sin, "cos": math.cos, "exp": math.exp, "log": math.log}


def compile_scalar(e, n: int):
    """Compile an expression over (t, x1..xn) into a float-valued callable
    f(t, xs)."""
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
    env = {f"_f_{k}": v for k, v in _FUNCS.items()}
    return eval(source, env)  # noqa: S307 - source built from canonical forms


@dataclass
class DriftRecord:
    name: str
    drift: float
    blowup: bool


def random_initial_points(n: int, seed: int, count: int = DEFAULT_POINTS):
    rng = random.Random(900001 * (seed + 1))
    points = []
    for _ in range(count):
        points.append(
            [Fraction(rng.randint(-8, 8), rng.randint(1, 8)) for _ in range(n)]
        )
    return points


def integrate_drift(
    system: ode.OdeSystem,
    tracked,
    seed: int = 0,
    t_end: float = DEFAULT_T_END,
    step: float = DEFAULT_STEP,
    points: int = DEFAULT_POINTS,
):
    """Max |f(t, x(t)) - f(0, x(0))| along RK4 trajectories of xdot = -v,
    for each named tracked function.  Returns a list of DriftRecord."""
    n = system.n
    v_fns = [compile_scalar(c, n) for c in system.v]
    tracked_fns = [(name, compile_scalar(f, n)) for name, f in tracked]

    def rhs(t, x):
        return [-fn(t, x) for fn in v_fns]

    records = {name: DriftRecord(name, 0.0, False) for name, _ in tracked_fns}
    steps = int(round(t_end / step))
    for point in random_initial_points(n, seed, points):
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
            if any(abs(c) > BLOWUP_NORM or c != c for c in x):
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

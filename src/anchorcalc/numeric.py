"""Numeric trajectory oracle: RK4 integration with invariant-drift tracking.

Independent confirmation of symbolic conservation checks: integrate the
system xdot = -v(t, x) from seeded random rational initial points and
report the worst drift of each tracked function along the trajectory.
Everything is deterministic for a fixed seed.

The trajectory loop of a system is generated as one Python function over
local float scalars, from the canonical polynomials, by the same term
emitter as `compile_scalar`.  The float operations and their order are
fixed: a drift is a difference of near-equal numbers that reports print
to 7 significant digits, so one reassociated rounding changes the report
bytes and the report digests the benchmark compares.  The emitter sums the
terms of a polynomial smallest monomial first, left to right, raises atoms
with ``**`` (never ``x*x``), and rewrites only what is exact in IEEE
arithmetic: ``1.0*y`` and ``y**1`` as ``y``, ``a + (-c)*y`` as
``a - c*y``, and an atom power used twice in one evaluation point as one
local computed once.
"""

from __future__ import annotations

import math
import random
from fractions import Fraction

from . import expr as ex
from . import ode

BLOWUP_NORM = 1e12
DEFAULT_STEP = 1e-3
DEFAULT_T_END = 100.0
DEFAULT_POINTS = 3
DRIFT_TOLERANCE = 1e-6

_FUNCS = {"sin": math.sin, "cos": math.cos, "exp": math.exp, "log": math.log}
# what float arithmetic and the math functions raise outside their domain
_ERRORS = (OverflowError, ValueError, ZeroDivisionError)
# why a trajectory stopped early (DriftRecord.stop): the state left the norm
# ball or overflowed, or a tracked function or the vector field was
# evaluated outside its domain
BLOWUP, TRACKED_DOMAIN, FIELD_DOMAIN = "blow-up", "tracked", "field"


def _emit(exprs, names, lines, tag):
    """Float source of each expression, with the atoms t and x_i named by
    `names`.  Each function atom and each atom power other than 1 becomes
    one assignment, appended to `lines` and shared by all of `exprs`;
    `tag` keeps the names of those locals apart between calls."""
    local = {}

    def bind(key, source):
        if key not in local:
            local[key] = f"{tag}{len(local)}"
            lines.append(f"{local[key]} = {source}")
        return local[key]

    def atom_value(atom):
        if atom in names:
            return names[atom]
        if isinstance(atom, ex.FunAtom):
            return bind(atom, f"_f_{atom.fn}({poly(atom.arg)})")
        raise ex.UnsupportedInputError(
            f"cannot evaluate {atom.display()} numerically in an ODE trajectory"
        )

    def factor(atom, power):
        base = atom_value(atom)
        return base if power == 1 else bind((atom, power), f"{base}**{power}")

    def poly(e):
        source = ""
        # smallest monomial first: the order of the float sum fixes the drift bits
        for mono, coeff in reversed(ex.terms(e)):
            try:
                c = float(coeff)
            except OverflowError:
                raise ex.UnsupportedInputError(
                    "a coefficient is too large for float arithmetic in an ODE trajectory"
                ) from None
            negative = math.copysign(1.0, c) < 0
            factors = [factor(atom, power) for atom, power in mono]
            if abs(c) != 1.0 or not factors:
                factors.insert(0, repr(abs(c)))
            term = "*".join(factors)
            if source:
                source += (" - " if negative else " + ") + term
            else:
                source = ("-" if negative else "") + term
        return source or "0.0"

    return [poly(e) for e in exprs]


def _point(t: str, xs) -> dict:
    """Source names of the atoms t, x1..xn at one evaluation point."""
    names = {ex.IndepVar(ode.TIME): t}
    names.update((ex.JetVar(ode.field_name(i)), x) for i, x in enumerate(xs))
    return names


def _define(source: str, name: str):
    env = {f"_f_{k}": v for k, v in _FUNCS.items()}
    env["_ERRORS"] = _ERRORS
    exec(source, env)  # noqa: S102 - source built from canonical forms
    return env[name]


def compile_scalar(e, n: int):
    """Compile an expression over (t, x1..xn) into a float-valued callable
    f(t, xs)."""
    xs = [f"x{i}" for i in range(n)]
    lines = [f"{x} = x[{i}]" for i, x in enumerate(xs)]
    (value,) = _emit([e], _point("t", xs), lines, "_a")
    body = "".join(f"    {line}\n" for line in lines + [f"return {value}"])
    return _define(f"def scalar(t, x):\n{body}", "scalar")


class DriftRecord:
    __slots__ = ("name", "drift", "blowup", "stop")

    def __init__(self, name: str, drift: float, blowup: bool, stop: str | None = None):
        self.name = name
        self.drift = drift
        self.blowup = blowup
        self.stop = stop


def random_initial_points(n: int, seed: int, count: int = DEFAULT_POINTS):
    rng = random.Random(900001 * (seed + 1))
    points = []
    for _ in range(count):
        points.append(
            [Fraction(rng.randint(-8, 8), rng.randint(1, 8)) for _ in range(n)]
        )
    return points


def _trajectory(system: ode.OdeSystem, fs):
    """Generate run(steps, step, x0..x{n-1}, m0..m{k-1}): RK4 on xdot = -v
    from the start point x, tracking the largest |f_j(t, x) - f_j(0, x0)|,
    which starts from m_j.  It returns (stop, m0, .., m{k-1}); stop is
    None after every step, else BLOWUP, TRACKED_DOMAIN or FIELD_DOMAIN, and
    the m_j are then partial.  A tracked function is evaluated only at the
    start point and at states inside the norm ball, so an error there is
    its own; an overflow while evaluating v counts as a blow-up."""
    n, k = system.n, len(fs)
    x = [f"x{i}" for i in range(n)]
    m = [f"m{j}" for j in range(k)]
    start, stages, tracked = [], [], []

    def evaluate(exprs, t, point, tag, out, lines):
        values = _emit(exprs, _point(t, point), lines, tag)
        lines += [f"{o} = {value}" for o, value in zip(out, values)]

    evaluate(fs, "t", x, "_s", [f"f{j}_start" for j in range(k)], start)
    # stage s evaluates v at (t_s, x_s); x + h*(-v) is x - h*v exactly
    stages += ["th = t + h2", "tf = t + step"]
    vs, point = [], x
    for s, (t, h) in enumerate((("t", "h2"), ("th", "h2"), ("th", "step"), ("tf", None)), 1):
        v = [f"v{s}_{i}" for i in range(n)]
        evaluate(system.v, t, point, f"_{s}_", v, stages)
        vs.append(v)
        if h is not None:
            point = [f"x{i}_{s + 1}" for i in range(n)]
            stages += [f"{p} = {xi} - {h}*{vi}" for p, xi, vi in zip(point, x, v)]
    update = [
        f"{xi} = {xi} - h6*({a} + 2.0*{b} + 2.0*{c} + {d})"
        for xi, a, b, c, d in zip(x, *vs)
    ]
    update.append("t += step")
    result = ", ".join(m)
    # also true for NaN
    inside = " and ".join(f"abs({xi}) <= {BLOWUP_NORM!r}" for xi in x) or "True"
    update += [f"if not ({inside}):", f"    return ({BLOWUP!r}, {result})"]
    evaluate(fs, "t", x, "_e", [f"f{j}" for j in range(k)], tracked)
    drifts = []
    for j in range(k):
        drifts += [f"d = abs(f{j} - f{j}_start)", f"if d > m{j}:", f"    m{j} = d"]

    def guarded(lines, indent, handlers):
        pad = " " * indent
        out = [f"{pad}try:", *(f"{pad}    {line}" for line in lines)]
        for error, stop in handlers:
            out += [f"{pad}except {error}:", f"{pad}    return ({stop!r}, {result})"]
        return out

    tracked_error = [("_ERRORS", TRACKED_DOMAIN)]
    source = "\n".join(
        [
            f"def run(steps, step, {', '.join(x + m)}):",
            "    h2 = 0.5 * step",
            "    h6 = step / 6.0",
            "    t = 0.0",
            *guarded(start, 4, tracked_error),
            "    for _ in range(steps):",
            *guarded(stages, 8, [("OverflowError", BLOWUP), ("_ERRORS", FIELD_DOMAIN)]),
            *(f"        {line}" for line in update),
            *guarded(tracked, 8, tracked_error),
            *(f"        {line}" for line in drifts),
            f"    return (None, {result})",
            "",
        ]
    )
    return _define(source, "run")


def integrate_drift(
    system: ode.OdeSystem,
    tracked,
    seed: int = 0,
    t_end: float = DEFAULT_T_END,
    step: float = DEFAULT_STEP,
    points: int = DEFAULT_POINTS,
):
    """Max |f(t, x(t)) - f(0, x(0))| along RK4 trajectories of xdot = -v,
    for each named tracked function.  Returns a list of DriftRecord.
    Raises ResourceLimitError before any step when points x steps, which
    bounds its time (the defaults take 3 x 10^5), passes the step budget."""
    ratio = t_end / step
    if not math.isfinite(ratio) or points * round(ratio) > ex.BUDGETS["step budget"][0]:
        ex.refuse("the oracle", f"{points} x {ratio:.6g} RK4 steps", "step budget")
    run = _trajectory(system, [f for _, f in tracked])
    records = [DriftRecord(name, 0.0, False) for name, _ in tracked]
    for point in random_initial_points(system.n, seed, points):
        stop, *drifts = run(
            round(ratio), step, *map(float, point), *(r.drift for r in records)
        )
        for record, drift in zip(records, drifts):
            record.drift = drift
            record.blowup = record.blowup or stop is not None
            record.stop = record.stop or stop
    return records

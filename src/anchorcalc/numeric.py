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

One step makes no builtin call of its own: it evaluates v at the four RK4
stages, updates x, tests each coordinate as ``-1e12 <= x_i <= 1e12``
(false for NaN and for +-inf, like ``abs(x_i) <= 1e12``), evaluates the
tracked f_j and updates their running extrema hi_j and lo_j by comparison
alone.  Each trajectory then folds them into the drift once, as
max(m_j, hi_j - s_j, s_j - lo_j) with s_j the start value.  That is the
largest |f_j - s_j| of the steps bit for bit: IEEE rounding is monotone
and s_j is fixed, so the largest and smallest fl(f - s_j) come from the
largest and smallest f, and fl(s_j - lo) = -fl(lo - s_j).  A NaN f_j
passes neither comparison, just as its NaN difference never raised the
drift.  The stage times t + h/2 and t + h are computed only when v reads
t, and t is advanced only when v or f reads it.
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
    __slots__ = ("name", "drift", "stop")

    def __init__(self, name: str, drift: float, stop: str | None = None):
        self.name = name
        self.drift = drift
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
    its own; an overflow while evaluating v counts as a blow-up.  Every
    stop leaves the loop with break, and the running extrema of each f_j
    are folded into m_j once after it (module docstring)."""
    n, k = system.n, len(fs)
    x = [f"x{i}" for i in range(n)]
    m, f, hi, lo = ([f"{name}{j}" for j in range(k)] for name in ("m", "f", "hi", "lo"))
    f_start = [f"f{j}_start" for j in range(k)]
    t_atom = ex.IndepVar(ode.TIME)
    v_reads_t = any(t_atom in ex.atoms(c) for c in system.v)
    reads_t = v_reads_t or any(t_atom in ex.atoms(e) for e in fs)
    start, stages, tracked = [], [], []

    def evaluate(exprs, t, point, tag, out, lines):
        values = _emit(exprs, _point(t, point), lines, tag)
        lines += [f"{o} = {value}" for o, value in zip(out, values)]

    evaluate(fs, "t", x, "_s", f_start, start)
    # stage s evaluates v at (t_s, x_s); x + h*(-v) is x - h*v exactly
    if v_reads_t:
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
    if reads_t:
        update.append("t += step")
    # a chained comparison, like abs(x) <= norm, is false for NaN and +-inf
    inside = " and ".join(f"{-BLOWUP_NORM!r} <= {xi} <= {BLOWUP_NORM!r}" for xi in x)
    update += [f"if not ({inside or 'True'}):", f"    stop = {BLOWUP!r}", "    break"]
    evaluate(fs, "t", x, "_e", f, tracked)
    extrema, fold = [], []
    for mj, sj, fj, hj, lj in zip(m, f_start, f, hi, lo):
        extrema += [f"if {fj} > {hj}:", f"    {hj} = {fj}"]
        extrema += [f"elif {fj} < {lj}:", f"    {lj} = {fj}"]
        fold.append(f"{mj} = max({mj}, {hj} - {sj}, {sj} - {lj})")

    def guarded(lines, handlers):
        out = ["try:", *(f"    {line}" for line in lines)]
        for error, stop in handlers:
            out += [f"except {error}:", f"    stop = {stop!r}", "    break"]
        return out

    result = ", ".join(m)
    loop = [
        *guarded(stages, [("OverflowError", BLOWUP), ("_ERRORS", FIELD_DOMAIN)]),
        *update,
        *guarded(tracked, [("_ERRORS", TRACKED_DOMAIN)]),
        *extrema,
    ]
    source = "\n".join(
        [
            f"def run(steps, step, {', '.join(x + m)}):",
            "    h2 = 0.5 * step",
            "    h6 = step / 6.0",
            "    t = 0.0",
            "    try:",
            *(f"        {line}" for line in start),
            "    except _ERRORS:",
            f"        return ({TRACKED_DOMAIN!r}, {result})",
            *(f"    {hj} = {lj} = {sj}" for hj, lj, sj in zip(hi, lo, f_start)),
            "    stop = None",
            "    for _ in range(steps):",
            *(f"        {line}" for line in loop),
            *(f"    {line}" for line in fold),
            f"    return (stop, {result})",
            "",
        ]
    )
    return _define(source, "run")


def step_count(t_end: float, step: float, points: int) -> int:
    """The RK4 steps of each trajectory, round(t_end / step).  Raises
    ResourceLimitError when points x steps, which bounds the time (the
    defaults take 3 x 10^5), passes the step budget, and ValueError when
    the run would take no step."""
    ratio = t_end / step
    if not math.isfinite(ratio) or points * round(ratio) > ex.BUDGETS["step budget"][0]:
        ex.refuse("the oracle", f"{points} x {ratio:.6g} RK4 steps", "step budget")
    if round(ratio) < 1:
        raise ValueError(f"the oracle takes no RK4 step: t_end / step = {ratio:.6g} rounds to 0")
    return round(ratio)


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
    step_count refuses a run before any step."""
    steps = step_count(t_end, step, points)
    run = _trajectory(system, [f for _, f in tracked])
    records = [DriftRecord(name, 0.0) for name, _ in tracked]
    for point in random_initial_points(system.n, seed, points):
        stop, *drifts = run(steps, step, *map(float, point), *(r.drift for r in records))
        for record, drift in zip(records, drifts):
            record.drift = drift
            record.stop = record.stop or stop
    return records

"""Seeded job generators for the anchorcalc benchmark, with known answers.

Every job is one ``anchorcalc.cli.main(argv)`` call.  Its expected exit
code and verdicts come from the construction of its input (and the
theorems of the paper), never from anchorcalc's own output.  The
derivation of each answer is written next to the family that produces it.

One *pass* is the list of jobs a seed generates.  A pass has a fixed
structure (which families, which sizes, how many of each); the seed draws
the coefficients, the indices and the job order.  That keeps the cost of a
pass nearly the same for every seed, so the timings of two seeds are
comparable, while the inputs themselves differ.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from fractions import Fraction
from pathlib import Path

PASS, FAIL, SKIP = "PASS", "FAIL", "SKIP"


@dataclass
class Job:
    """One CLI call and its known answer.

    ``checks`` maps each check name to its expected status (and is the
    exact set of names the report must hold); ``residuals`` pins the
    detail text of chosen checks; ``solutions`` is the expected solution
    count of a ``search`` job.  ``report`` is False for jobs whose
    contracted answer is an error exit without a report.
    """

    family: str
    argv: list
    exit_code: int
    checks: dict = field(default_factory=dict)
    residuals: dict = field(default_factory=dict)
    solutions: int | None = None
    report: bool = True


# ---------------------------------------------------------------------------
# a small exact polynomial type, independent of anchorcalc
#
# A polynomial is a dict {exponent tuple: Fraction} over x1..xn.


def _var(n, i):
    e = [0] * n
    e[i] = 1
    return {tuple(e): Fraction(1)}


def _add(*polys):
    out = {}
    for p in polys:
        for m, c in p.items():
            s = out.get(m, 0) + c
            if s:
                out[m] = s
            else:
                out.pop(m, None)
    return out


def _scale(p, c):
    c = Fraction(c)
    return {m: v * c for m, v in p.items()} if c else {}


def _mul(p, q):
    out = {}
    for m1, c1 in p.items():
        for m2, c2 in q.items():
            m = tuple(a + b for a, b in zip(m1, m2))
            s = out.get(m, 0) + c1 * c2
            if s:
                out[m] = s
            else:
                out.pop(m, None)
    return out


def _diff(p, i):
    out = {}
    for m, c in p.items():
        if m[i]:
            d = list(m)
            d[i] -= 1
            out[tuple(d)] = c * m[i]
    return out


def _text(p):
    """Render in the anchorcalc model-file grammar; largest degree first."""
    if not p:
        return "0"
    parts = []
    for m in sorted(p, key=lambda m: (-sum(m), tuple(-e for e in m))):
        c = p[m]
        factors = [f"x{i + 1}" + (f"^{e}" if e > 1 else "") for i, e in enumerate(m) if e]
        mag = abs(c)
        if not factors:
            body = str(mag)
        elif mag == 1:
            body = "*".join(factors)
        else:
            body = "*".join([str(mag)] + factors)
        if not parts:
            parts.append(body if c > 0 else "-" + body)
        else:
            parts.append(("+ " if c > 0 else "- ") + body)
    return " ".join(parts)


def _rat(rng, lo=-9, hi=9, dens=(1, 2, 3, 4)):
    """A nonzero rational with a small numerator and denominator."""
    num = 0
    while num == 0:
        num = rng.randint(lo, hi)
    return Fraction(num, rng.choice(dens))


def calibration_work(a, b):
    """Reference work for the machine-speed calibration: three truncated
    products of exact rational polynomials, the kind of dict, tuple and
    Fraction work anchorcalc's kernel does, but in benchmark code that no
    change to anchorcalc can alter."""
    p = a
    for _ in range(3):
        p = dict(list(_mul(p, b).items())[:40])
    return p


def calibration_inputs():
    rng = random.Random(0)
    return _hamiltonian(rng, 4, 4, 12), _hamiltonian(rng, 4, 4, 12)


# ---------------------------------------------------------------------------
# Hamiltonian systems v = -alpha dH


def _canonical_alpha(n):
    """Canonical Poisson bivector: alpha^{2i-1, 2i} = 1 on each pair."""
    return {(i, i + 1): {(0,) * n: Fraction(1)} for i in range(0, n, 2)}


def _so3_alpha():
    """Lie-Poisson bivector of so(3): alpha^12 = x3, alpha^13 = -x2, alpha^23 = x1."""
    return {
        (0, 1): _var(3, 2),
        (0, 2): _scale(_var(3, 1), -1),
        (1, 2): _var(3, 0),
    }


def _alpha_entry(alpha, i, j):
    if i < j:
        return alpha.get((i, j), {})
    if i > j:
        return _scale(alpha.get((j, i), {}), -1)
    return {}


def _alpha_apply(alpha, n, f):
    """w^i = alpha^{ij} d_j f."""
    return [
        _add(*(_mul(_alpha_entry(alpha, i, j), _diff(f, j)) for j in range(n)))
        for i in range(n)
    ]


def _hamiltonian(rng, n, degree, extra):
    """H = sum_j h_j x_j^2 + `extra` further monomials of the given degree.

    Every pure square x_j^2 keeps a nonzero coefficient (the extra
    monomials are never pure squares of degree 2), so d_j H is never
    constant and d_j^2 H has the nonzero constant term 2 h_j; the mutation
    answers below rely on this.
    """
    h = {}
    for j in range(n):
        e = [0] * n
        e[j] = 2
        h[tuple(e)] = Fraction(rng.randint(1, 5))
    added = 0
    while added < extra:
        e = [0] * n
        for _ in range(degree):
            e[rng.randrange(n)] += 1
        m = tuple(e)
        if m in h or (degree == 2 and max(m) == 2):
            continue
        h[m] = _rat(rng)
        added += 1
    return h


def _model_text(n, v, alpha=None, f=None, w=None, ham=None):
    out = ["[ode]", f"n = {n}", "v = [" + ", ".join(_text(c) for c in v) + "]"]
    if alpha is not None:
        out += ["", "[anchor]"]
        out += [f"alpha_{i + 1}_{j + 1} = {_text(p)}" for (i, j), p in sorted(alpha.items())]
    if f is not None:
        out += ["", "[characteristic]", f"f = {_text(f)}"]
    if w is not None:
        out += ["", "[symmetry]", "w = [" + ", ".join(_text(c) for c in w) + "]"]
    if ham is not None:
        out += ["", "[hamiltonian]", f"H = {_text(ham)}"]
    return "\n".join(out) + "\n"


class _Files:
    """Writes generated model files under one directory, numbered in order."""

    def __init__(self, directory: Path):
        self.directory = directory
        self.count = 0

    def write(self, text: str) -> str:
        path = self.directory / f"m{self.count:04d}.ini"
        self.count += 1
        path.write_text(text, encoding="utf-8")
        return str(path)


ODE_CHECKS = (
    "anchor",
    "characteristic",
    "noether_map",
    "proper_symmetry",
    "schouten_square",
    "symmetry",
    "twist_invariance",
)


def _hamiltonian_model(rng, n, degree, extra):
    """(alpha, v, H, f, w) for a Hamiltonian system on n = 3 (so(3)) or even n."""
    if n == 3:
        alpha = _so3_alpha()
        ham = _hamiltonian(rng, 3, degree, extra)
        casimir = _add(*(_mul(_var(3, j), _var(3, j)) for j in range(3)))
        f = _add(ham, _scale(casimir, _rat(rng)))
    else:
        alpha = _canonical_alpha(n)
        ham = _hamiltonian(rng, n, degree, extra)
        f = ham
    v = [_scale(c, -1) for c in _alpha_apply(alpha, n, ham)]
    w = _alpha_apply(alpha, n, f)
    return alpha, v, ham, f, w


def _check_job(rng, files, n, degree, extra):
    """All seven checks on v = -alpha dH with f = H (+ c C on so(3)), w = alpha df.

    Known answer: exit 0, every check PASS.
    - characteristic: v . grad H = -alpha^{ij} d_i H d_j H = 0 (antisymmetry);
      the so(3) Casimir C = |x|^2 has alpha dC = 0, so v . grad C = 0 too.
    - symmetry: w = alpha df = alpha dH = -v, and [v, -v] = 0.
    - anchor: L_v alpha = 0 for a Hamiltonian field of a Poisson bivector.
    - schouten_square: both bivectors are Poisson (constant; Lie-Poisson).
    - noether_map: alpha df = w, as for symmetry.
    - proper_symmetry: psi = df is closed and psi . v = v . grad f = 0.
    - twist_invariance: {f, H} = {H, H} + c {C, H} = 0, so g = 0 and f is
      conserved by the deformed field v - alpha dH = 2 v.
    """
    alpha, v, ham, f, w = _hamiltonian_model(rng, n, degree, extra)
    path = files.write(_model_text(n, v, alpha, f, w, ham))
    return Job(
        f"check_n{n}", ["check", path, "--json"], 0, {c: PASS for c in ODE_CHECKS}
    )


def _mutant_job(rng, files, n, degree, extra):
    """The model of _check_job with f' = f + c x_k, where v_k != 0.

    Known answer: exit 1.
    - characteristic FAIL: v . grad f' = c v_k != 0.
    - twist_invariance FAIL: its first step is the characteristic check.
    - symmetry and anchor PASS: they do not read f.
    On the canonical bivector (even n), with k' the partner of k, v_k =
    -+ d_k' H is not constant, so also:
    - noether_map FAIL: alpha d(c x_k) = +-c e_k' and
      [v, e_k']_k = -d_k' v_k = +-d_k'^2 H, whose constant term 2 h_k' != 0.
    - proper_symmetry FAIL: psi . v = c v_k, and the transport condition
      is -c alpha dv_k, nonzero since alpha is invertible and v_k not constant.
    """
    alpha, v, ham, f, w = _hamiltonian_model(rng, n, degree, extra)
    k = rng.choice([i for i in range(n) if v[i]])
    f_bad = _add(f, _scale(_var(n, k), _rat(rng)))
    path = files.write(_model_text(n, v, alpha, f_bad, w, ham))
    if n == 3:
        checks = {"anchor": PASS, "characteristic": FAIL, "twist_invariance": FAIL}
    else:
        checks = {
            "characteristic": FAIL,
            "noether_map": FAIL,
            "proper_symmetry": FAIL,
            "symmetry": PASS,
            "twist_invariance": FAIL,
        }
    return Job(
        f"mutant_n{n}",
        ["check", path, "--json", "--only", ",".join(sorted(checks))],
        1,
        checks,
    )


def _rotation_search_job(rng, files, degree):
    """v = omega (-x2, x1), omega != 0: a rotation with period 2 pi / omega.

    Known answer: floor(d/2) solutions.  A polynomial f(t, x) conserved
    along periodic orbits is periodic, hence constant, in t; the
    t-independent invariants are the polynomials in r^2 = x1^2 + x2^2, and
    r^2, ..., r^(2 floor(d/2)) span them up to degree d (constant removed).
    """
    omega = _rat(rng, -3, 3, (1,))
    v = [_scale(_var(2, 1), -omega), _scale(_var(2, 0), omega)]
    path = files.write(_model_text(2, v))
    return Job(
        "search_rotation",
        ["search", path, "--degree", str(degree), "--json"],
        0,
        solutions=degree // 2,
    )


def _euler_moments(rng, top):
    """Distinct moments a1, a2, a3 in 1..top for H = (a1 x1^2 + a2 x2^2 + a3 x3^2)/2."""
    return rng.sample(range(1, top + 1), 3)


def _euler_field(moments):
    """v = -alpha_so3 dH = ((a3-a2) x2 x3, (a1-a3) x1 x3, (a2-a1) x1 x2)."""
    a1, a2, a3 = moments
    x1, x2, x3 = (_var(3, i) for i in range(3))
    return [
        _scale(_mul(x2, x3), a3 - a2),
        _scale(_mul(x1, x3), a1 - a3),
        _scale(_mul(x1, x2), a2 - a1),
    ]


def _euler_search_job(rng, files, degree):
    """Euler top with distinct moments.

    Known answer: (k+1)(k+2)/2 - 1 solutions for d in {2k, 2k+1}.  Generic
    orbits are periodic, so invariants are t-independent; the polynomial
    invariants are the polynomials in the two quadratics C = |x|^2 and H,
    and the monomials C^a H^b with 1 <= a + b <= k form a basis.
    """
    v = _euler_field(_euler_moments(rng, 6))
    path = files.write(_model_text(3, v))
    k = degree // 2
    return Job(
        "search_euler",
        ["search", path, "--degree", str(degree), "--json"],
        0,
        solutions=(k + 1) * (k + 2) // 2 - 1,
    )


def _invalid_jobs(rng, files):
    """Malformed inputs whose contracted answer is exit 2 with no report.

    Each is rejected by the model-file reader or the check selection, which
    the CLI maps to exit 2 (README exit-code contract).
    """
    a, b = rng.sample(range(1, 10), 2)
    texts = [
        ("invalid_bracket", f"[ode]\nn = 2\nv = [{a}*x2, x1\n"),
        ("invalid_syntax", f"[ode]\nn = 2\nv = [{a}*x2 +* x1, x1]\n"),
        ("invalid_arity", f"[ode]\nn = 3\nv = [x2, {b}*x1]\n"),
        ("invalid_section", f"[ode]\nn = 2\nv = [x2, x1]\n\n[extra]\nk = {a}\n"),
        ("invalid_name", f"[ode]\nn = 2\nv = [y{a}, x1]\n"),
    ]
    jobs = [
        Job(name, ["check", files.write(text), "--json"], 2, report=False)
        for name, text in texts
    ]
    good = files.write(_model_text(2, [_scale(_var(2, 1), -a), _var(2, 0)]))
    jobs.append(
        Job("invalid_only", ["check", good, "--json", "--only", "energy"], 2, report=False)
    )
    return jobs


# ---------------------------------------------------------------------------
# workloads


def _catalog(rng, files):
    """Built-in field-model certificates; every verdict PASS, exit 0.

    Known answers (PAPER.md and the convention sheet): the current
    certificate, the proper-symmetry certificate, the energy-momentum
    symmetry, the anchor identity and the Noether identity hold for every
    a, b and every Killing vector (and for the dilation when n = 2p); the
    triviality witness fires exactly when a == b.  The self-dual and chiral
    certificates hold for every translation, rotation and (n = 4k+2 being
    critical) the dilation, for every g and epsilon.
    """
    jobs = []

    def xi(kind, n):
        """A drawn selector of the kind, or the fixed selector given."""
        if kind not in ("t", "r", "dil"):
            return kind
        if kind == "t":
            return f"t{rng.randrange(n)}"
        if kind == "r":
            mu, nu = sorted(rng.sample(range(n), 2))
            return f"r{mu}{nu}"
        return "dil"

    def pform(n, p, euclidean, kind, equal):
        a = _rat(rng)
        b = a if equal else _rat(rng)
        while b == a and not equal:
            b = _rat(rng)
        argv = ["catalog", "pform", "--n", str(n), "--p", str(p), f"--a={a}", f"--b={b}"]
        if euclidean:
            argv.append("--euclidean")
        if kind is None:
            names = [f"t{mu}" for mu in range(n)]
        else:
            names = [xi(kind, n)]
            argv += ["--xi", names[0]]
        checks = {"noether_identity": PASS, "energy_momentum": PASS, "anchor_identity": PASS}
        for name in names:
            checks[f"current_certificate[{name}]"] = PASS
            checks[f"proper_symmetry[{name}]"] = PASS
        checks["triviality_witness"] = PASS
        witness = f"fires: G = {a} * Id" if equal else "does not fire (a != b)"
        jobs.append(
            Job(
                f"pform_n{n}_p{p}",
                argv + ["--json"],
                0,
                checks,
                {"triviality_witness": witness},
            )
        )

    def selfdual(n, kind):
        argv = ["catalog", "selfdual", "--n", str(n)]
        if kind is None:
            names = [f"t{mu}" for mu in range(n)] + ["dil"]
        else:
            names = [xi(kind, n)]
            argv += ["--xi", names[0]]
        checks = {"noether_identity": PASS, "energy_momentum": PASS}
        checks.update({f"certificates[{name}]": PASS for name in names})
        jobs.append(Job(f"selfdual_n{n}", argv + ["--json"], 0, checks))

    def chiral(algebra, size):
        g = _rat(rng)
        eps = ",".join(str(_rat(rng)) for _ in range(size))
        checks = {"internal_certificates": PASS}
        checks.update({f"spacetime_certificates[{x}]": PASS for x in ("t0", "t1", "dil")})
        jobs.append(
            Job(
                f"chiral_{algebra}",
                ["catalog", "chiral", "--algebra", algebra, f"--g={g}", f"--epsilon={eps}", "--json"],
                0,
                checks,
            )
        )

    # (n, p, euclidean, xi kind, a == b); dilations only where n = 2p.  The
    # heavy slots (n >= 5) use a fixed selector: their cost depends on the
    # vector field, and drawing it would move the top decile between seeds.
    for spec in (
        (2, 1, False, "dil", False),
        (2, 1, True, "r", True),
        (3, 1, False, "t", False),
        (3, 2, True, "r", False),
        (4, 1, False, "r", True),
        (4, 2, False, "dil", False),
        (4, 2, False, "r", False),
        (4, 2, True, "t", True),
        (4, 2, True, "dil", False),
        (4, 3, True, "t", False),
        (5, 2, False, "r12", False),
        (6, 2, False, "t1", False),
        (6, 3, False, "dil", True),
        (6, 3, True, "r12", False),
        (4, 2, False, None, False),
        (2, 1, False, "t", False),
        (3, 1, True, "r", False),
    ):
        pform(*spec)
    for spec in ((2, None), (2, None), (2, None), (6, "t1"), (6, "r12"), (6, "dil")):
        selfdual(*spec)
    for algebra, size in (
        ("su2", 3),
        ("su2", 3),
        ("abelian1", 1),
        ("abelian1", 1),
        ("abelian3", 3),
        ("abelian3", 3),
    ):
        chiral(algebra, size)
    return jobs


def _odecheck(rng, files):
    """Many small ODE jobs.  The sizes are chosen in three cost bands so that
    the median job falls inside a band of similar checks (30-60 ms) and the
    90th percentile inside the band of degree-5 Euler searches (about
    230 ms), not on the edge between two bands, where it would jump between
    seeds."""
    jobs = _invalid_jobs(rng, files)
    # Below the median band: 6 invalid inputs and 14 jobs on n <= 3.
    # The median band: 32 checks on n = 3, 4 and mutants on n = 4, 6.
    # Above it: 5 checks on n = 6 and 15 searches.
    # (n, degree of H, extra monomials in H, copies)
    for n, degree, extra, copies in (
        (2, 2, 1, 4),
        (2, 4, 3, 4),
        (3, 3, 3, 8),
        (3, 4, 3, 4),
        (4, 3, 4, 8),
        (6, 4, 4, 5),
    ):
        jobs += [_check_job(rng, files, n, degree, extra) for _ in range(copies)]
    for n, degree, extra, copies in ((2, 4, 3, 3), (3, 3, 3, 3), (4, 3, 4, 6), (6, 3, 3, 6)):
        jobs += [_mutant_job(rng, files, n, degree, extra) for _ in range(copies)]
    # The 90th percentile falls among the eight degree-5 Euler searches.
    jobs += [_rotation_search_job(rng, files, d) for d in (6, 7, 7, 7, 8)]
    jobs += [_euler_search_job(rng, files, d) for d in (4, 5, 5, 5, 5, 5, 5, 5, 5, 6)]
    return jobs


def _oscillator(rng, n):
    """Positive-definite quadratic H = sum_j h_j x_j^2 + small cross terms.

    h_j in {1, 2, 3}, and n cross terms of +-1/(2n) each, so the cross
    coefficients sum to at most 1/2 in absolute value.  The symmetric
    matrix of H is then strictly diagonally dominant with a positive
    diagonal, hence positive definite: orbits stay on a bounded ellipsoid.
    """
    ham = {}
    for j in range(n):
        e = [0] * n
        e[j] = 2
        ham[tuple(e)] = Fraction(rng.randint(1, 3))
    for _ in range(n):
        i, j = rng.sample(range(n), 2)
        e = [0] * n
        e[i] += 1
        e[j] += 1
        ham[tuple(e)] = ham.get(tuple(e), 0) + Fraction(rng.choice((-1, 1)), 2 * n)
    return {m: c for m, c in ham.items() if c}


def _oracle(rng, files):
    """RK4 drift oracle on bounded flows.

    Known answers (exit 0 for all):
    - oscillator, f = H: PASS.  The flow is linear with frequencies at most
      2 * (3 + 1/4) < 7, and RK4 changes the energy of a linear oscillator
      by a relative (omega h)^6 / 72 per step: at h = 1e-3 over at most 16e3
      steps that is below 4e-11 of H <= 3.25 * 6 * 64, so the drift stays
      under 6e-8, far below the 1e-6 tolerance.
    - oscillator, f = x_k with v_k != 0: SKIP (not a symbolic
      characteristic, so the drift is advisory; the flow is bounded).
    - Euler top, f = H or the Casimir C = |x|^2: PASS.  Both are conserved
      exactly; with moments in 1..4 and t_end = 12 the RK4 drift measured
      over 240 seeded trajectories was at most 1.4e-8, a margin above 70x.
    - Euler top, f = x_k: SKIP, as above (v_k = (a_i - a_j) x_i x_j != 0).
    """
    jobs = []

    def job(family, n, v, f, status, t_end):
        path = files.write(_model_text(n, v, f=f))
        argv = ["oracle", path, "--json", f"--t-end={t_end}", "--points=1", f"--seed={rng.randrange(1000)}"]
        jobs.append(Job(family, argv, 0, {"drift[f]": status}))

    # Horizons chosen so that every job costs about the same (~150 ms on a
    # 2-core VM with CPython 3.11):
    # the percentiles then sit inside one band instead of between bands.
    # They are long enough for RK4 to do about 95% of the work and short
    # enough for 100 jobs in a 20 s run.
    for n, t_end, copies in ((2, 16, 3), (4, 10, 3), (6, 8, 3)):
        for c in range(copies):
            ham = _oscillator(rng, n)
            v = [_scale(x, -1) for x in _alpha_apply(_canonical_alpha(n), n, ham)]
            if c == copies - 1:
                job(f"oscillator_n{n}", n, v, _var(n, rng.randrange(n)), SKIP, t_end)
            else:
                job(f"oscillator_n{n}", n, v, ham, PASS, t_end)
    for c in range(4):
        moments = _euler_moments(rng, 4)
        v = _euler_field(moments)
        if c == 0:
            job("euler_top", 3, v, _var(3, rng.randrange(3)), SKIP, 12)
        elif c == 1:
            casimir = _add(*(_mul(_var(3, j), _var(3, j)) for j in range(3)))
            job("euler_top", 3, v, casimir, PASS, 12)
        else:
            ham = {
                tuple(2 if i == j else 0 for i in range(3)): Fraction(a, 2)
                for j, a in enumerate(moments)
            }
            job("euler_top", 3, v, ham, PASS, 12)
    return jobs


WORKLOADS = {"catalog": _catalog, "odecheck": _odecheck, "oracle": _oracle}


def generate(workload: str, seed: int, directory: Path):
    """The jobs of one pass, in a seeded order, with their model files
    written under `directory`."""
    rng = random.Random(f"{workload}:{seed}")
    directory.mkdir(parents=True, exist_ok=True)
    jobs = WORKLOADS[workload](rng, _Files(directory))
    rng.shuffle(jobs)
    return jobs


# ROADMAP item 4 inputs: the contracted answer is exit 2 with a one-line
# message.  At the seed commit most of them end in a traceback instead, so
# they run once per odecheck run, outside the timed passes, and their
# outcome is printed (see README.md).
def probe_jobs(directory: Path):
    directory.mkdir(parents=True, exist_ok=True)
    files = _Files(directory)
    nested = "(" * 5000 + "x1" + ")" * 5000
    log_model = files.write("[ode]\nn = 1\nv = [x1]\n\n[characteristic]\nf = log(-x1^2)\n")
    return [
        Job("probe_rational_v", ["check", files.write("[ode]\nn = 2\nv = [1/(x1+x2), x1]\n")], 2, report=False),
        Job("probe_jet_in_v", ["check", files.write("[ode]\nn = 2\nv = [x1_t, x1]\n")], 2, report=False),
        Job("probe_deep_parens", ["check", files.write(f"[ode]\nn = 1\nv = [{nested}]\n")], 2, report=False),
        Job("probe_selfdual_n3", ["catalog", "selfdual", "--n", "3"], 2, report=False),
        Job("probe_pform_p5", ["catalog", "pform", "--n", "2", "--p", "5"], 2, report=False),
        Job("probe_step_zero", ["oracle", log_model, "--step", "0"], 2, report=False),
        Job("probe_log_domain", ["oracle", log_model, "--t-end", "0.01"], 2, report=False),
    ]

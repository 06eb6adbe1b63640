"""Command-line front end.

Commands:
  check <model-file> [--only a,b,...]   symbolic check suite for an ODE model
  catalog <model-id> [flags]            built-in field-model verifications
  oracle <model-file> [flags]           RK4 invariant-drift oracle
  search <model-file> --degree d        polynomial characteristic search

Exit codes: 0 all PASS/SKIP, 1 some FAIL, 2 ERROR or usage problem.
"""

from __future__ import annotations

import argparse
import functools
import math
import sys
import time
import types
from fractions import Fraction

from . import expr as ex
from . import field_models as fm
from . import forms as fo
from . import numeric, ode
from .conventions import CONVENTION_SHEET
from .linop import LinDiffOp
from .modelfile import SECTIONS, ModelFile, ModelFileError, parse_model
from .report import ERROR, FAIL, PASS, SKIP, CheckRecord, ModelReport


def _residual_text(residual) -> str:
    if isinstance(residual, ex.Expr):
        return ex.to_text(residual)
    if isinstance(residual, fo.Form):
        return fo.form_text(residual)
    if isinstance(residual, LinDiffOp):
        return residual.describe()
    if isinstance(residual, dict):
        # a residual per name; a nested dict is parenthesised
        return "; ".join(
            f"{k}: ({_residual_text(v)})" if isinstance(v, dict) else f"{k}: {_residual_text(v)}"
            for k, v in sorted(residual.items())
        )
    if isinstance(residual, (list, tuple)):
        return "(" + ", ".join(ex.to_text(r) for r in residual) + ")"
    return str(residual)


def _verdict(ok, residual):
    """(ok, detail) of a check that returns (flag, residual): the residual
    is reported on FAIL only."""
    return ok, None if ok else _residual_text(residual)


def _run(report: ModelReport, checks) -> ModelReport:
    """Run (name, thunk) checks in order and add one timed record each.  A
    thunk returns (ok, detail), with ok None for a skipped check; an
    ExprError becomes an ERROR record, and FAIL never aborts the run."""
    for name, thunk in checks:
        start = time.perf_counter()
        try:
            ok, detail = thunk()
            status = SKIP if ok is None else PASS if ok else FAIL
            record = CheckRecord(name, status, detail)
        except ex.ExprError as exc:
            record = CheckRecord(name, ERROR, residual=str(exc))
        record.ms = (time.perf_counter() - start) * 1000.0
        report.add(record)
    return report


# ---------------------------------------------------------------------------
# ODE model-file checks


def _schouten_square(model: ModelFile):
    square = ode.schouten_square(model.alpha)
    inside = "; ".join(
        f"S{i + 1}{j + 1}{k + 1}: {ex.to_text(v)}"
        for (i, j, k), v in sorted(square.upper.items())
    )
    return square.is_zero(), inside or None


def _shared_results(system: ode.OdeSystem):
    """The results that two checks of one run both use, each computed once
    and keyed by its canonical value: the characteristic residual of f,
    which `characteristic` and the first step of `twist_invariance` read,
    and the symmetry residual of each distinct vector, a tuple, which
    `noether_map` and `symmetry` share when alpha df equals w.  Each run
    makes its own, so nothing is kept from one run to the next."""
    return types.SimpleNamespace(
        characteristic=functools.cache(lambda f: ode.check_characteristic(system, f)),
        symmetry=functools.cache(lambda w: ode.check_symmetry(system, w)),
    )


# name -> (model-file sections it needs, check of the model and the run's
# shared results); a check with a section missing is skipped.
ODE_CHECKS = {
    "anchor": (("anchor",), lambda m, s: _verdict(*ode.check_anchor(m.system, m.alpha))),
    "characteristic": (("characteristic",), lambda m, s: _verdict(*s.characteristic(m.f))),
    "noether_map": (
        ("anchor", "characteristic"),
        lambda m, s: _verdict(*s.symmetry(ode.anchor_apply(m.alpha, m.f))),
    ),
    "proper_symmetry": (
        ("anchor", "characteristic"),
        lambda m, s: _verdict(
            *ode.proper_symmetry_conditions(m.system, m.alpha, ode.differential(m.f, m.system.n))
        ),
    ),
    "schouten_square": (("anchor",), lambda m, s: _schouten_square(m)),
    "symmetry": (("symmetry",), lambda m, s: _verdict(*s.symmetry(tuple(m.w)))),
    "twist_invariance": (
        ("anchor", "characteristic", "hamiltonian"),
        lambda m, s: _verdict(
            *ode.twist_invariance_check(
                m.system, m.alpha, m.f, m.hamiltonian, s.characteristic(m.f)[0]
            )
        ),
    ),
}

def _skip_text(sections) -> str:
    names = [f"[{s}]" for s in sections]
    if len(names) == 1:
        return f"no {names[0]} section"
    return f"needs {', '.join(names[:-1])} and {names[-1]}"


def _ode_check(model: ModelFile, shared, name: str):
    sections, check = ODE_CHECKS[name]
    if any(getattr(model, SECTIONS[s][2]) is None for s in sections):
        return None, _skip_text(sections)
    return check(model, shared)


def run_checks(model: ModelFile, selection=None) -> ModelReport:
    """Run the named checks (default: all known) against an ODE model file;
    FAIL never aborts the run."""
    if selection is None:
        selection = ODE_CHECKS
    unknown = [name for name in selection if name not in ODE_CHECKS]
    if unknown:
        raise ValueError(f"unknown checks: {', '.join(unknown)}")
    shared = _shared_results(model.system)
    checks = [(name, lambda name=name: _ode_check(model, shared, name)) for name in selection]
    return _run(ModelReport(model=model.name), checks)


# ---------------------------------------------------------------------------
# catalog


def _parse_xi(space, text):
    if text == "dil":
        return fo.dilation(space)
    if text.startswith("t") and text[1:].isdigit():
        mu = int(text[1:])
        if mu >= space.n:
            raise ValueError(f"translation index {mu} out of range")
        return fo.translation(space, mu)
    if text.startswith("r") and text[1:].isdigit() and len(text) == 3:
        mu, nu = int(text[1]), int(text[2])
        if not (mu < nu < space.n):
            raise ValueError(f"rotation indices {mu}{nu} out of range")
        return fo.rotation(space, mu, nu)
    raise ValueError(f"cannot read vector selector {text!r} (use t0, r01 or dil)")


def _xis(space, selector, dilation: bool):
    """(name, vector field) pairs of a catalog run: the one --xi selects,
    or else every translation, then the dilation when it is asked for."""
    if selector:
        return [(selector, _parse_xi(space, selector))]
    xis = [(f"t{mu}", fo.translation(space, mu)) for mu in range(space.n)]
    return xis + [("dil", fo.dilation(space))] if dilation else xis


def _check_catalog_work(n: int, grade: int):
    """Refuse a run over the catalog budget before any space or form is
    built; a grade outside 0..n is left to the model's own check.  The work
    of a catalog run, counted as C(n, p) * n^2 for a p-form field on R^n,
    tracks its wall time over the n default vector fields (README.md has
    the timings the budget was sized from)."""
    work = math.comb(n, grade) * n * n if 0 <= grade <= n else 0
    if work > ex.BUDGETS["catalog budget"][0]:
        ex.refuse(f"a {grade}-form field on n = {n}", f"{work} units of work", "catalog budget")


def _space(args, n: int):
    """The flat space of a catalog run on R^n, of the signature --euclidean
    asks for; a model refuses a signature it does not live on."""
    return fo.euclidean(n) if args.euclidean else fo.lorentzian(n)


def _pform_checks(args):
    _check_catalog_work(args.n, args.p)
    space = _space(args, args.n)
    a, b = _fraction(args.a, "--a"), _fraction(args.b, "--b")
    model = fm.PFormModel(space, args.p, a, b)
    sig = "euclidean" if args.euclidean else "lorentzian"
    name = f"pform(n={args.n},p={args.p},a={args.a},b={args.b},{sig})"
    checks = [("noether_identity", lambda: _verdict(*model.noether_identity_check()))]
    for xi_name, xi in _xis(space, args.xi, dilation=False):
        checks += [
            (
                f"current_certificate[{xi_name}]",
                lambda xi=xi: _verdict(*model.current_certificate(xi)),
            ),
            (f"proper_symmetry[{xi_name}]", lambda xi=xi: _verdict(*model.proper_symmetry(xi))),
        ]
    witness = {False: "does not fire (a != b)", True: f"fires: G = {args.a} * Id"}
    checks += [
        # energy_momentum returns T, or raises on asymmetry or trace
        ("energy_momentum", lambda: (model.energy_momentum() is not None, None)),
        ("anchor_identity", lambda: _verdict(*model.anchor_verify())),
        ("triviality_witness", lambda: (True, witness[model.triviality_witness() is not None])),
    ]
    return name, checks


def _selfdual_checks(args):
    _check_catalog_work(args.n, args.n // 2)
    space = _space(args, args.n)
    model = fm.SelfDualModel(space)
    checks = [("noether_identity", lambda: _verdict(*model.noether_identity_check()))]
    checks += [
        (f"certificates[{name}]", lambda xi=xi: _verdict(*model.verify(xi)))
        for name, xi in _xis(space, args.xi, dilation=True)
    ]
    checks.append(("energy_momentum", lambda: (model.energy_momentum() is not None, None)))
    return f"selfdual(n={args.n})", checks


def _chiral_checks(args):
    space = _space(args, 2)
    if args.algebra not in fm.ALGEBRAS:
        raise ValueError(f"unknown algebra {args.algebra!r} (have {sorted(fm.ALGEBRAS)})")
    algebra = fm.ALGEBRAS[args.algebra]()
    model = fm.ChiralModel(space, algebra, _fraction(args.g, "--g"))
    epsilon = [_fraction(part, "--epsilon") for part in args.epsilon.split(",")]
    if len(epsilon) != algebra.n:
        raise ValueError(
            f"--epsilon needs one value per generator of {args.algebra} "
            f"({algebra.n}), got {len(epsilon)}"
        )
    checks = [("internal_certificates", lambda: _verdict(*model.verify(epsilon)))]
    checks += [
        (f"spacetime_certificates[{name}]", lambda xi=xi: _verdict(*model.spacetime_verify(xi)))
        for name, xi in _xis(space, args.xi, dilation=True)
    ]
    return f"chiral(N={algebra.n},algebra={args.algebra},g={args.g})", checks


# model id -> builder of (report name, checks) for the catalog
_CATALOG = {"pform": _pform_checks, "selfdual": _selfdual_checks, "chiral": _chiral_checks}


def catalog_report(args) -> ModelReport:
    name, checks = _CATALOG[args.model](args)
    return _run(ModelReport(model=name), checks)


# ---------------------------------------------------------------------------
# oracle and search


def oracle_report(args) -> ModelReport:
    numeric.step_count(args.t_end, args.step, args.points)  # refuse before any work
    model = parse_model(args.model_file)
    if model.f is None:
        raise ModelFileError("the oracle needs a [characteristic] section")
    report = ModelReport(model=model.name, seed=args.seed)
    tracked = [("f", model.f)]
    start = time.perf_counter()
    symbolic_ok, _ = ode.check_characteristic(model.system, model.f)
    records = numeric.integrate_drift(
        model.system,
        tracked,
        seed=args.seed,
        t_end=args.t_end,
        step=args.step,
        points=args.points,
    )
    elapsed = (time.perf_counter() - start) * 1000.0
    for rec in records:
        drift_text = f"drift = {rec.drift:.6e}"
        if rec.stop is not None:
            if rec.stop == numeric.TRACKED_DOMAIN:
                cause = f"domain error in {rec.name} = {ex.to_text(model.f)}"
            elif rec.stop == numeric.FIELD_DOMAIN:
                v = ", ".join(ex.to_text(c) for c in model.system.v)
                cause = f"domain error in v = [{v}]"
            else:
                cause = "trajectory blow-up"
            record = CheckRecord(
                f"drift[{rec.name}]", ERROR, f"{drift_text} ({cause}, partial)"
            )
        elif not symbolic_ok:
            record = CheckRecord(
                f"drift[{rec.name}]",
                SKIP,
                drift_text + " (advisory: not a symbolic characteristic)",
            )
        elif rec.drift <= args.tolerance:
            record = CheckRecord(f"drift[{rec.name}]", PASS, drift_text)
        else:
            record = CheckRecord(f"drift[{rec.name}]", FAIL, drift_text)
        record.ms = elapsed
        report.add(record)
    return report


def search_output(args):
    model = parse_model(args.model_file)
    solutions = ode.search_characteristics(model.system, args.degree)
    texts = [ex.to_text(s) for s in solutions]
    doc = {
        "version": "1",
        "model": model.name,
        "degree": args.degree,
        "solutions": texts,
    }
    return doc, texts


# ---------------------------------------------------------------------------
# entry point


def _fraction(text: str, option: str) -> Fraction:
    """An exact rational option value such as 3 or -1/2; a bad one is a
    ValueError, so it exits 2 with an error line."""
    try:
        return Fraction(text)
    except (ValueError, ZeroDivisionError):
        raise ValueError(f"{option} expects a rational number, got {text!r}") from None


def _finite_float(positive: bool):
    wording = "positive" if positive else "non-negative"

    def parse(text: str) -> float:
        try:
            value = float(text)
        except ValueError:
            value = math.nan
        if not (math.isfinite(value) and (value > 0 if positive else value >= 0)):
            raise argparse.ArgumentTypeError(f"expected a {wording} finite number, got {text!r}")
        return value

    return parse


def _int_at_least(low: int):
    def parse(text: str) -> int:
        try:
            value = int(text)
        except ValueError:
            value = low - 1
        if value < low:
            raise argparse.ArgumentTypeError(f"expected an integer >= {low}, got {text!r}")
        return value

    return parse


@functools.cache  # parse_args leaves the parser unchanged; one per process
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="anchorcalc",
        description="Symbolic checks for Lagrange anchors, characteristics and conservation laws.",
    )
    parser.add_argument(
        "--convention",
        action="store_true",
        help="print the frozen sign/Hodge convention sheet and exit",
    )
    sub = parser.add_subparsers(dest="command")

    p_check = sub.add_parser("check", help="run the symbolic check suite on a model file")
    p_check.add_argument("model_file")
    p_check.add_argument("--only", help="comma-separated subset of checks")
    p_check.add_argument("--json", action="store_true", help="machine-readable output")
    p_check.add_argument("--timings", action="store_true", help="include wall times in JSON")

    p_cat = sub.add_parser("catalog", help="verify a built-in field model")
    p_cat.add_argument("model", choices=_CATALOG)
    p_cat.add_argument("--n", type=_int_at_least(1), default=4)
    p_cat.add_argument("--p", type=int, default=2)
    p_cat.add_argument("--a", default="1")
    p_cat.add_argument("--b", default="0")
    p_cat.add_argument("--g", default="1")
    p_cat.add_argument("--algebra", default="su2")
    p_cat.add_argument("--epsilon", default="1,1,1", help="constant algebra element")
    p_cat.add_argument("--xi", help="vector selector: t<mu>, r<mu><nu> or dil")
    p_cat.add_argument(
        "--euclidean", action="store_true", help="Euclidean signature (p-form family only)"
    )
    p_cat.add_argument("--json", action="store_true")
    p_cat.add_argument("--timings", action="store_true")

    p_oracle = sub.add_parser("oracle", help="numeric invariant-drift oracle")
    p_oracle.add_argument("model_file")
    p_oracle.add_argument("--t-end", type=_finite_float(True), default=numeric.DEFAULT_T_END)
    p_oracle.add_argument("--step", type=_finite_float(True), default=numeric.DEFAULT_STEP)
    p_oracle.add_argument("--seed", type=int, default=0)
    p_oracle.add_argument("--points", type=_int_at_least(1), default=numeric.DEFAULT_POINTS)
    p_oracle.add_argument("--tolerance", type=_finite_float(False), default=numeric.DRIFT_TOLERANCE)
    p_oracle.add_argument("--json", action="store_true")
    p_oracle.add_argument("--timings", action="store_true")

    p_search = sub.add_parser("search", help="polynomial characteristic search")
    p_search.add_argument("model_file")
    p_search.add_argument("--degree", type=_int_at_least(0), required=True)
    p_search.add_argument("--json", action="store_true")
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.convention:
        print(CONVENTION_SHEET, end="")
        return 0
    if args.command is None:
        parser.print_help()
        return 2
    try:
        if args.command == "check":
            selection = None
            if args.only is not None:
                selection = [part.strip() for part in args.only.split(",")]
                if not all(selection):
                    raise ValueError(f"--only has an empty entry: {args.only!r}")
            report = run_checks(parse_model(args.model_file), selection)
        elif args.command == "catalog":
            report = catalog_report(args)
        elif args.command == "oracle":
            report = oracle_report(args)
        elif args.command == "search":
            import json as _json

            doc, texts = search_output(args)
            if args.json:
                sys.stdout.write(
                    _json.dumps(doc, sort_keys=True, separators=(",", ":")) + "\n"
                )
            elif texts:
                for t in texts:
                    print(t)
            else:
                print("no polynomial characteristics up to degree", args.degree)
            return 0
    except (ModelFileError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except ex.ResourceLimitError as exc:
        print(f"resource limit: {exc}", file=sys.stderr)
        return 2
    except ex.ExprError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except MemoryError:
        # last resort: the size caps should refuse such inputs before this
        print("resource limit: out of memory", file=sys.stderr)
        return 2
    if args.json:
        sys.stdout.write(report.to_json(include_timings=args.timings))
    else:
        sys.stdout.write(report.human())
    return report.exit_code()


if __name__ == "__main__":
    sys.exit(main())

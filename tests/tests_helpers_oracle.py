"""The randomized evaluation oracle, the tests' reference for the exact kernel.

No check consults it: zero testing of elementary expressions by sampling
cannot be exact (Richardson 1968), so it lives here, beside the tests that
compare the kernel's reductions and the exact transitivity rank against it.
Samples are rationals with numerator in [-1000, 1000] and denominator in
[1, 1000]; function atoms are evaluated with 256-bit binary arithmetic and
converted back to exact rationals.
"""

import random
from fractions import Fraction

import mpmath

from anchorcalc import expr as ex

RAND_EVAL_PRECISION = 256
RAND_EVAL_THRESHOLD = Fraction(1, 10**40)
_RESAMPLE_LIMIT = 8


class EvaluationError(ex.ExprError):
    """Randomized evaluation could not produce a sample."""


def rand_eval(e, seed: int) -> Fraction:
    """Evaluate at a seeded random rational point (numerators and
    denominators bounded by 1000).  Elementary functions are evaluated in
    256-bit binary arithmetic and converted back to exact rationals, so the
    result is deterministic for a fixed seed."""
    e = ex._coerce(e)
    symbols = sorted(a for a in ex.atoms(e) if not isinstance(a, ex.FunAtom))
    last = None
    for attempt in range(_RESAMPLE_LIMIT):
        rng = random.Random(1000003 * (seed + 1) + attempt)
        assignment = {
            a: Fraction(rng.randint(-1000, 1000), rng.randint(1, 1000))
            for a in symbols
        }
        try:
            return _eval_poly(e._poly, assignment)
        except (_DomainViolation, ZeroDivisionError) as exc:
            last = exc
    raise EvaluationError(f"no valid sample after {_RESAMPLE_LIMIT} attempts: {last}")


class _DomainViolation(Exception):
    pass


def _eval_poly(p, assignment) -> Fraction:
    c, d = p
    total = Fraction(0)
    for mono, coeff in c.items():
        value = coeff
        for a, e in mono:
            base = _eval_atom(a, assignment)
            if base == 0 and e < 0:
                raise _DomainViolation("negative power at zero sample")
            value *= base**e
        total += value
    return total / d


def _eval_atom(a, assignment) -> Fraction:
    if isinstance(a, ex.FunAtom):
        x = _eval_poly(a[3]._poly, assignment)
        if a.fn == "log" and x <= 0:
            raise _DomainViolation("log of a non-positive sample")
        with mpmath.workprec(RAND_EVAL_PRECISION):
            mx = mpmath.mpf(x.numerator) / mpmath.mpf(x.denominator)
            fn = getattr(mpmath, a.fn)
            return _mpf_to_fraction(fn(mx))
    return assignment[a]


def _mpf_to_fraction(x) -> Fraction:
    sign, man, exponent, _ = x._mpf_
    if man == 0:
        return Fraction(0)
    value = Fraction(man)
    value = value * Fraction(2) ** exponent
    return -value if sign else value


def evaluate(e, assignment) -> Fraction:
    """Exact evaluation at a rational point (atom -> Fraction); elementary
    functions go through the 256-bit route of rand_eval."""
    table = {ex._atom_key(k, "assign a value to"): Fraction(v) for k, v in assignment.items()}
    missing = [
        a for a in ex.atoms(ex._coerce(e)) if not isinstance(a, ex.FunAtom) and a not in table
    ]
    if missing:
        names = ", ".join(sorted(a.display() for a in missing))
        raise EvaluationError(f"no value supplied for: {names}")
    try:
        return _eval_poly(ex._coerce(e)._poly, table)
    except (_DomainViolation, ZeroDivisionError) as exc:
        raise EvaluationError(str(exc)) from exc

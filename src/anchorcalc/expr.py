"""Exact symbolic kernel over jet variables.

An expression is an immutable sparse polynomial: a dict from monomials to
nonzero exact coefficients.  The atoms are independent variables, jet
variables, parameters and applications sin/cos/exp/log(arg) of the four
elementary kernels.  A monomial is a tuple of (atom, exponent) pairs sorted
by atom, with nonzero integer exponents (Laurent monomials).  Coefficients
are ints until a division makes them Fractions.

Every operation, the arithmetic operators included, expands eagerly, so
every value is in canonical form and equality of values is mathematical
equality within this class.  Function applications are opaque atoms (no
trigonometric rewriting), so identities that mix them are decided by the
randomized evaluation oracle instead.

An atom is a tuple that is its own sort key, built from names and numbers
only: hashing and ordering run in C, and the printed order, graded-
lexicographic with the largest monomial first, is the same in every
process.  Each public operation reads ANCHORCALC_NODE_LIMIT once and raises
ResourceLimitError when an intermediate polynomial holds more monomials.

Everything here is a pure function over immutable values and is safe for
concurrent use; the cached hash of an expression is a write-once slot
whose value is deterministic, so a racing recomputation is harmless.
"""

from __future__ import annotations

import os
import random
from fractions import Fraction
from operator import itemgetter

import mpmath

FUNCTIONS = ("sin", "cos", "exp", "log")

_DEFAULT_NODE_LIMIT = 10**6


class ExprError(Exception):
    """Base class for kernel errors."""


class ResourceLimitError(ExprError):
    """A computation would pass a resource budget: the node limit of an
    expression, or the step budget of the numeric oracle."""


class UnsupportedInputError(ExprError):
    """Input is outside the supported expression class."""


class EvaluationError(ExprError):
    """Randomized evaluation could not produce a sample."""


def node_limit() -> int:
    try:
        return int(os.environ.get("ANCHORCALC_NODE_LIMIT", _DEFAULT_NODE_LIMIT))
    except ValueError:
        return _DEFAULT_NODE_LIMIT


def _check_size(n: int, limit: int) -> None:
    if n > limit:
        raise ResourceLimitError(
            f"expression exceeds node limit ({n} monomials > {limit}); "
            "set ANCHORCALC_NODE_LIMIT to raise the cap"
        )


# ---------------------------------------------------------------------------
# multi-indices


class MultiIndex(tuple):
    """Derivative counts per independent variable, stored sparse.

    The value is the tuple (order, ((name, count), ...)) with the names
    sorted, which is also its sort key.
    """

    __slots__ = ()

    def __new__(cls, items=()):
        if isinstance(items, MultiIndex):
            return items
        if isinstance(items, dict):
            items = items.items()
        cleaned = {}
        for name, count in items:
            count = int(count)
            if count < 0:
                raise ValueError("derivative counts must be non-negative")
            if count:
                cleaned[name] = cleaned.get(name, 0) + count
        return _index(cleaned)

    items = property(itemgetter(1))

    def order(self) -> int:
        return self[0]

    def get(self, name: str) -> int:
        for n, c in self[1]:
            if n == name:
                return c
        return 0

    def step(self, name: str) -> "MultiIndex":
        d = dict(self[1])
        d[name] = d.get(name, 0) + 1
        return _index(d)

    def unstep(self, name: str) -> "MultiIndex":
        d = dict(self[1])
        if d.get(name, 0) <= 0:
            raise ValueError(f"cannot lower derivative count for {name}")
        d[name] -= 1
        return MultiIndex(d)

    def __add__(self, other: "MultiIndex") -> "MultiIndex":
        d = dict(self[1])
        for n, c in other[1]:
            d[n] = d.get(n, 0) + c
        return _index(d)

    def names(self):
        return tuple(n for n, _ in self[1])

    def suffix(self) -> str:
        return "".join(n * c for n, c in self[1])

    def __repr__(self):
        return f"MultiIndex({dict(self[1])!r})"

    def sort_key(self):
        return self


def _index(counts) -> MultiIndex:
    """The multi-index of a dict of positive counts."""
    return tuple.__new__(MultiIndex, (sum(counts.values()), tuple(sorted(counts.items()))))


EMPTY_INDEX = MultiIndex()


# ---------------------------------------------------------------------------
# atoms: tuples whose first entry ranks the kind (jet < indep < param < fun)


class JetVar(tuple):
    """Jet coordinate of a field component; order 0 is the field itself."""

    __slots__ = ()

    def __new__(cls, field: str, index=EMPTY_INDEX):
        return tuple.__new__(cls, (0, field, MultiIndex(index)))

    field = property(itemgetter(1))
    index = property(itemgetter(2))

    def display(self) -> str:
        if not self[2][0]:
            return self[1]
        return f"{self[1]}_{self[2].suffix()}"

    def __repr__(self):
        return f"JetVar({self[1]!r}, {dict(self[2][1])!r})"


class _NamedAtom(tuple):
    __slots__ = ()
    _RANK = None

    def __new__(cls, name: str):
        return tuple.__new__(cls, (cls._RANK, name))

    name = property(itemgetter(1))

    def display(self) -> str:
        return self[1]

    def __repr__(self):
        return f"{type(self).__name__}({self[1]!r})"


class IndepVar(_NamedAtom):
    __slots__ = ()
    _RANK = 1


class Param(_NamedAtom):
    __slots__ = ()
    _RANK = 2


class FunAtom(tuple):
    """An application sin/cos/exp/log(arg) treated as an opaque atom.

    The tuple is (3, fn, key, arg), where the key is the structure of the
    printed argument: it orders function atoms, and equal applications
    compare and hash equal.
    """

    __slots__ = ()

    def __new__(cls, fn: str, arg: "Expr"):
        return tuple.__new__(cls, (3, fn, _poly_key(arg._poly), arg))

    fn = property(itemgetter(1))
    arg = property(itemgetter(3))

    def display(self) -> str:
        return f"{self[1]}({to_text(self[3])})"

    def __repr__(self):
        return f"FunAtom({self[1]!r}, {self[3]!r})"


def _term_order(term):
    # graded-lexicographic: total degree first, then the atom/exponent pairs
    mono = term[0]
    return (sum(e for _, e in mono), mono)


def _sorted_terms(p):
    return sorted(p.items(), key=_term_order, reverse=True)


def _poly_key(p):
    """Structural key of the printed form of p (names and numbers only)."""
    keys = [_term_key(m, c) for m, c in _sorted_terms(p)] or [("r", 0)]
    return keys[0] if len(keys) == 1 else ("+",) + tuple(keys)


def _term_key(mono, coeff):
    factors = tuple(_factor_key(a) if e == 1 else ("^", _factor_key(a), e) for a, e in mono)
    if not factors:
        return ("r", coeff)
    if coeff != 1:
        return ("*", ("r", coeff)) + factors
    return factors[0] if len(factors) == 1 else ("*",) + factors


def _factor_key(atom):
    return ("f", atom[1], atom[2]) if isinstance(atom, FunAtom) else ("s", atom)


# ---------------------------------------------------------------------------
# expressions


class Expr:
    """An immutable expanded polynomial in the atoms.

    ``poly()`` is the read-only dict monomial -> nonzero coefficient.  Every
    constant value is an instance of the subclass Rat.
    """

    __slots__ = ("_poly", "_hash")

    def poly(self):
        return self._poly

    # -- arithmetic -----------------------------------------------------
    def __add__(self, other):
        acc = dict(self._poly)
        _padd_into(acc, _coerce(other)._poly, node_limit())
        return _expr(acc)

    __radd__ = __add__

    def __sub__(self, other):
        acc = dict(self._poly)
        _padd_into(acc, _pscale(_coerce(other)._poly, -1), node_limit())
        return _expr(acc)

    def __rsub__(self, other):
        return _coerce(other) - self

    def __mul__(self, other):
        return _expr(_pmul(self._poly, _coerce(other)._poly, node_limit()))

    __rmul__ = __mul__

    def __truediv__(self, other):
        return _expr(_pmul(self._poly, _pinv(_coerce(other)._poly), node_limit()))

    def __rtruediv__(self, other):
        return _coerce(other) / self

    def __pow__(self, exponent):
        if not isinstance(exponent, int):
            raise UnsupportedInputError("only integer powers are supported")
        return _expr(_ppow(self._poly, exponent, node_limit()))

    def __neg__(self):
        return _expr(_pscale(self._poly, -1))

    def __pos__(self):
        return self

    # -- comparisons ----------------------------------------------------
    def __eq__(self, other):
        if not isinstance(other, Expr):
            return NotImplemented
        return self is other or self._poly == other._poly

    def __hash__(self):
        h = self._hash
        if h is None:
            h = self._hash = hash(frozenset(self._poly.items()))
        return h

    def equals(self, other) -> bool:
        """Mathematical equality within the canonical class."""
        return is_identically_zero(self - _coerce(other))

    def __repr__(self):
        return f"Expr[{to_text(self)}]"


class Rat(Expr):
    """A constant expression; build one with rational()."""

    __slots__ = ()

    @property
    def value(self) -> Fraction:
        return Fraction(self._poly.get((), 0))


def _expr(p) -> Expr:
    e = object.__new__(Rat if not p or (len(p) == 1 and () in p) else Expr)
    e._poly = p
    e._hash = None
    return e


def _num(c):
    """An exact rational as an int when it is integral."""
    return c.numerator if c.denominator == 1 else c


def _coerce(x) -> Expr:
    if isinstance(x, Expr):
        return x
    if isinstance(x, (int, Fraction)):
        return _expr({(): _num(x)} if x else {})
    raise TypeError(f"cannot interpret {x!r} as an expression")


def _atom(x):
    """The atom of a one-atom expression such as indep("t"); other values
    are returned unchanged."""
    if isinstance(x, Expr) and len(x._poly) == 1:
        ((mono, coeff),) = x._poly.items()
        if coeff == 1 and len(mono) == 1 and mono[0][1] == 1:
            return mono[0][0]
    return x


# ---------------------------------------------------------------------------
# polynomial layer (dict monomial -> coefficient); `limit` is the node limit
# read once by the public operation that called in


def _mono_mul(m1, m2):
    """Product of two monomials: a merge of two atom-sorted tuples."""
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


def _padd_into(acc, p, limit):
    for m, c in p.items():
        nc = acc.get(m, 0) + c
        if nc:
            acc[m] = nc
        else:
            del acc[m]
    _check_size(len(acc), limit)


def _pmul(p, q, limit):
    if len(p) < len(q):
        p, q = q, p
    if len(q) == 1 and () in q:
        return _pscale(p, q[()])
    out = {}
    for m1, c1 in p.items():
        for m2, c2 in q.items():
            m = _mono_mul(m1, m2)
            nc = out.get(m, 0) + c1 * c2
            if nc:
                out[m] = nc
            else:
                del out[m]
        _check_size(len(out), limit)
    return out


def _pinv(p):
    if len(p) != 1:
        raise UnsupportedInputError(
            "division is only supported by nonzero constants and single monomials"
        )
    ((mono, coeff),) = p.items()
    return {tuple((a, -e) for a, e in mono): _num(1 / Fraction(coeff))}


def _ppow(p, n: int, limit):
    if n < 0:
        p, n = _pinv(p), -n
    if n == 0:
        return {(): 1}
    if len(p) == 1:
        ((mono, coeff),) = p.items()
        return {tuple((a, e * n) for a, e in mono): coeff**n}
    result = {(): 1}
    base = p
    while n:
        if n & 1:
            result = _pmul(result, base, limit)
        n >>= 1
        if n:
            base = _pmul(base, base, limit)
    return result


def _pscale(p, c):
    if not c:
        return {}
    return {m: v * c for m, v in p.items()}


# ---------------------------------------------------------------------------
# public constructors


def Sym(atom) -> Expr:
    """The expression of a single atom."""
    return _expr({((atom, 1),): 1})


def Add(terms) -> Expr:
    """The sum of the given terms."""
    acc = {}
    limit = node_limit()
    for t in terms:
        _padd_into(acc, _coerce(t)._poly, limit)
    return _expr(acc)


def indep(name: str) -> Expr:
    return Sym(IndepVar(name))


def jet(field: str, index=EMPTY_INDEX) -> Expr:
    return Sym(JetVar(field, index))


def param(name: str) -> Expr:
    return Sym(Param(name))


def rational(p, q=1) -> Expr:
    if q == 1 and isinstance(p, int):
        return _coerce(p)
    return _coerce(Fraction(p, q))


def fun(fn: str, arg) -> Expr:
    """The application fn(arg) for fn in FUNCTIONS."""
    if fn not in FUNCTIONS:
        raise UnsupportedInputError(f"unknown function {fn!r}")
    return _expr(_fun_poly(fn, _coerce(arg)))


def _fun_poly(fn, arg):
    p = arg._poly
    if not p:
        # exact values at zero argument
        if fn == "sin":
            return {}
        if fn == "cos" or fn == "exp":
            return {(): 1}
        raise UnsupportedInputError("log(0) is undefined")
    if fn == "log" and p == {(): 1}:
        return {}
    return {((FunAtom(fn, arg), 1),): 1}


def sin(e) -> Expr:
    return fun("sin", e)


def cos(e) -> Expr:
    return fun("cos", e)


def exp(e) -> Expr:
    return fun("exp", e)


def log(e) -> Expr:
    return fun("log", e)


ZERO = _expr({})
ONE = _expr({(): 1})


# ---------------------------------------------------------------------------
# canonicalization and queries


def canonicalize(e: Expr) -> Expr:
    """Return the canonical expanded form, which every value already is."""
    return _coerce(e)


def is_identically_zero(e: Expr) -> bool:
    return not _coerce(e)._poly


def terms(e: Expr):
    """The (monomial, coefficient) pairs of e, largest first in graded-
    lexicographic order."""
    return _sorted_terms(_coerce(e)._poly)


def atoms(e: Expr, nested: bool = True):
    """All atoms of the canonical form; with nested=True descends into
    function-application arguments as well."""
    out = set()
    _collect_atoms(_coerce(e)._poly, out, nested)
    return out


def _collect_atoms(p, out, nested):
    for mono in p:
        for a, _ in mono:
            out.add(a)
            if nested and isinstance(a, FunAtom):
                _collect_atoms(a[3]._poly, out, nested)


def jet_atoms(e: Expr, field=None):
    return {
        a
        for a in atoms(e)
        if isinstance(a, JetVar) and (field is None or a[1] == field)
    }


def max_jet_order(e: Expr, field=None) -> int:
    orders = [a.index.order() for a in jet_atoms(e, field)]
    return max(orders, default=0)


# ---------------------------------------------------------------------------
# differentiation


def _derive_poly(p, atom_rule, limit):
    """Product rule over monomials; atom_rule(atom) is the derivative of
    one atom as a polynomial, computed once per atom and call."""
    acc = {}
    rules = {}
    for mono, coeff in p.items():
        for k, (a, e) in enumerate(mono):
            da = rules.get(a)
            if da is None:
                da = rules[a] = atom_rule(a)
            if not da:
                continue
            if e == 1:
                rest = mono[:k] + mono[k + 1 :]
            else:
                rest = mono[:k] + ((a, e - 1),) + mono[k + 1 :]
            c = coeff * e
            for m2, c2 in da.items():
                m = _mono_mul(rest, m2)
                nc = acc.get(m, 0) + c * c2
                if nc:
                    acc[m] = nc
                else:
                    del acc[m]
        _check_size(len(acc), limit)
    return acc


def _chain(atom: FunAtom, inner, limit):
    """d fn(arg) = fn'(arg) * d arg, with d arg given as `inner`."""
    if not inner:
        return {}
    fn, arg = atom[1], atom[3]
    if fn == "sin":
        outer = _fun_poly("cos", arg)
    elif fn == "cos":
        outer = _pscale(_fun_poly("sin", arg), -1)
    elif fn == "exp":
        outer = {((atom, 1),): 1}
    else:
        outer = _pinv(arg._poly)
    return _pmul(outer, inner, limit)


def _total_derivative_poly(p, d: str, limit):
    def rule(a):
        if isinstance(a, JetVar):
            return {((JetVar(a[1], a[2].step(d)), 1),): 1}
        if isinstance(a, IndepVar):
            return {(): 1} if a[1] == d else {}
        if isinstance(a, FunAtom):
            return _chain(a, _total_derivative_poly(a[3]._poly, d, limit), limit)
        return {}

    return _derive_poly(p, rule, limit)


def _partial_poly(p, sym, limit):
    def rule(a):
        if a == sym:
            return {(): 1}
        if isinstance(a, FunAtom):
            return _chain(a, _partial_poly(a[3]._poly, sym, limit), limit)
        return {}

    return _derive_poly(p, rule, limit)


def _iterated_poly(p, index: MultiIndex, limit):
    for name, count in index.items:
        for _ in range(count):
            p = _total_derivative_poly(p, name, limit)
    return p


def total_derivative(e: Expr, d) -> Expr:
    """Total derivative D_d: raises jet orders in direction d by the chain
    rule, differentiates the independent variable d to 1, parameters to 0."""
    d = _atom(d)
    name = d.name if isinstance(d, IndepVar) else d if isinstance(d, str) else None
    if name is None:
        raise TypeError("direction must be an independent variable or its name")
    return _expr(_total_derivative_poly(_coerce(e)._poly, name, node_limit()))


def diff(e: Expr, sym) -> Expr:
    """Partial derivative with respect to one symbol atom (chain rule is
    applied through function applications)."""
    return _expr(_partial_poly(_coerce(e)._poly, _atom(sym), node_limit()))


def iterated_total_derivative(e: Expr, index: MultiIndex) -> Expr:
    return _expr(_iterated_poly(_coerce(e)._poly, index, node_limit()))


def euler_derivative(density: Expr, field: str) -> Expr:
    """Variational derivative with respect to one field:
    sum over jet orders of (-1)^|a| D^a (d density / d u_a)."""
    density = _coerce(density)
    limit = node_limit()
    out = {}
    for a in jet_atoms(density, field):
        term = _iterated_poly(_partial_poly(density._poly, a, limit), a.index, limit)
        _padd_into(out, _pscale(term, (-1) ** a.index.order()), limit)
    return _expr(out)


# ---------------------------------------------------------------------------
# substitution


def substitute(e: Expr, mapping) -> Expr:
    """Substitute atoms by expressions (single simultaneous pass)."""
    table = {_atom(k): _coerce(v)._poly for k, v in mapping.items()}
    return _expr(_subst_poly(_coerce(e)._poly, table, node_limit()))


def _subst_poly(p, table, limit):
    acc = {}
    replaced = {}  # atom -> new polynomial, or None when it stays
    powers = {}  # (atom, exponent) -> power of its replacement
    for mono, coeff in p.items():
        kept = []
        factors = []
        for pair in mono:
            a, e = pair
            if a not in replaced:
                if isinstance(a, FunAtom):
                    arg = _subst_poly(a[3]._poly, table, limit)
                    rep = None if arg == a[3]._poly else _fun_poly(a[1], _expr(arg))
                else:
                    rep = table.get(a)
                replaced[a] = rep
            rep = replaced[a]
            if rep is None:
                kept.append(pair)
                continue
            if pair not in powers:
                powers[pair] = _ppow(rep, e, limit)
            factors.append(powers[pair])
        term = {tuple(kept): coeff}
        for f in factors:
            term = _pmul(term, f, limit)
        _padd_into(acc, term, limit)
    return acc


# ---------------------------------------------------------------------------
# divergence splitting (single independent variable homotopy operator)


def divergence_split(density: Expr, d=None):
    """Invert a total t-derivative: return j with D_t j = density, or None
    when the density fails the Euler test (is not a total derivative).

    Supported class: polynomial in all jet variables, with coefficients
    polynomial in the independent variable and parameters (function atoms
    may depend on the independent variable only).  Violations raise
    UnsupportedInputError; the answer, when produced, is verified.
    """
    density = _coerce(density)
    name = _divergence_direction(density, d)
    fields = sorted({a.field for a in jet_atoms(density)})
    for a in atoms(density):
        if isinstance(a, FunAtom) and jet_atoms(a.arg):
            raise UnsupportedInputError(
                "density is not polynomial in the jet variables "
                f"(found {a.display()})"
            )
    for mono in density._poly:
        for a, e in mono:
            if isinstance(a, JetVar) and e < 0:
                raise UnsupportedInputError(
                    f"density is not polynomial in {a.display()}"
                )
    for f in fields:
        if not is_identically_zero(euler_derivative(density, f)):
            return None

    limit = node_limit()
    # integration-by-parts collector: for every field u and order k >= 1,
    #   u^(k) dL/du^(k) = u E(L)-part + D_t [ sum_j (-1)^j u^(k-1-j) D^j dL/du^(k) ]
    collected = {}
    for a in jet_atoms(density):
        k = a.index.order()
        if k == 0:
            continue
        deriv = _partial_poly(density._poly, a, limit)
        for j in range(k):
            lowered = ((JetVar(a.field, MultiIndex({name: k - 1 - j})), 1),)
            _padd_into(collected, _pmul({lowered: (-1) ** j}, deriv, limit), limit)
            deriv = _total_derivative_poly(deriv, name, limit)

    # scale integral over the field-rescaling ray: each monomial of total
    # jet degree m contributes with weight 1/m
    ray = {}
    for mono, coeff in collected.items():
        degree = sum(e for a, e in mono if isinstance(a, JetVar))
        if degree <= 0:
            raise UnsupportedInputError("homotopy collector lost field degree")
        ray[mono] = _num(Fraction(coeff, degree))

    # pure (t, parameter) remainder integrates termwise
    remainder = {m: c for m, c in density._poly.items()
                 if not any(isinstance(a, JetVar) for a, _ in m)}
    _padd_into(ray, _poly_antiderivative(remainder, name, limit), limit)

    j = _expr(ray)
    if not is_identically_zero(total_derivative(j, name) - density):
        raise UnsupportedInputError("homotopy inversion failed on this input")
    return j


def _divergence_direction(density, d):
    if d is not None:
        d = _atom(d)
        return d.name if isinstance(d, IndepVar) else str(d)
    names = set()
    for a in atoms(density):
        if isinstance(a, IndepVar):
            names.add(a.name)
        elif isinstance(a, JetVar):
            names.update(a.index.names())
    if len(names) > 1:
        raise UnsupportedInputError(
            "divergence splitting supports a single independent variable; "
            f"found {sorted(names)}"
        )
    return names.pop() if names else "t"


def antiderivative(e: Expr, name: str) -> Expr:
    """Termwise antiderivative in the independent variable `name` of an
    expression in independent variables and parameters (t^-1 gives log t)."""
    return _expr(_poly_antiderivative(_coerce(e)._poly, name, node_limit()))


def _poly_antiderivative(p, name, limit):
    out = {}
    t = IndepVar(name)
    for mono, coeff in p.items():
        k = 0
        rest = []
        for a, e in mono:
            if a == t:
                k = e
            elif isinstance(a, (IndepVar, Param)):
                rest.append((a, e))
            else:
                raise UnsupportedInputError(
                    "cannot integrate the derivative-free remainder "
                    f"(term contains {a.display()})"
                )
        if k == -1:
            lifted = _pmul({tuple(rest): coeff}, _fun_poly("log", Sym(t)), limit)
            _padd_into(out, lifted, limit)
            continue
        rest.append((t, k + 1))
        _padd_into(out, {tuple(sorted(rest)): _num(Fraction(coeff, k + 1))}, limit)
    return out


# ---------------------------------------------------------------------------
# randomized evaluation oracle


RAND_EVAL_SEEDS = 32
RAND_EVAL_PRECISION = 256
RAND_EVAL_THRESHOLD = Fraction(1, 10**40)
_RESAMPLE_LIMIT = 8


def rand_eval(e: Expr, seed: int) -> Fraction:
    """Evaluate at a seeded random rational point (numerators and
    denominators bounded by 1000).  Elementary functions are evaluated in
    256-bit binary arithmetic and converted back to exact rationals, so the
    result is deterministic for a fixed seed."""
    e = _coerce(e)
    symbols = sorted(a for a in atoms(e) if not isinstance(a, FunAtom))
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
    total = Fraction(0)
    for mono, coeff in p.items():
        value = coeff
        for a, e in mono:
            base = _eval_atom(a, assignment)
            if base == 0 and e < 0:
                raise _DomainViolation("negative power at zero sample")
            value *= base**e
        total += value
    return total


def _eval_atom(a, assignment) -> Fraction:
    if isinstance(a, FunAtom):
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


def evaluate(e: Expr, assignment) -> Fraction:
    """Exact evaluation at a rational point (atom -> Fraction); elementary
    functions go through the 256-bit route of rand_eval."""
    table = {_atom(k): Fraction(v) for k, v in assignment.items()}
    missing = [
        a for a in atoms(_coerce(e)) if not isinstance(a, FunAtom) and a not in table
    ]
    if missing:
        names = ", ".join(sorted(a.display() for a in missing))
        raise EvaluationError(f"no value supplied for: {names}")
    try:
        return _eval_poly(_coerce(e)._poly, table)
    except (_DomainViolation, ZeroDivisionError) as exc:
        raise EvaluationError(str(exc)) from exc


def probably_zero(e: Expr, seeds: int = RAND_EVAL_SEEDS) -> bool:
    """Randomized zero test: exact when no function atoms are present,
    otherwise 32-seed evaluation against the mismatch threshold."""
    e = _coerce(e)
    if not any(isinstance(a, FunAtom) for a in atoms(e, nested=False)):
        return is_identically_zero(e)
    for s in range(seeds):
        if abs(rand_eval(e, s)) > RAND_EVAL_THRESHOLD:
            return False
    return True


# ---------------------------------------------------------------------------
# printing


def to_text(e: Expr) -> str:
    """Render in the input grammar, largest monomial first."""
    parts = []
    for mono, coeff in terms(e):
        s = _term_text(mono, coeff)
        if not parts:
            parts.append(s)
        elif s.startswith("-"):
            parts.append(" - " + s[1:])
        else:
            parts.append(" + " + s)
    return "".join(parts) or "0"


def _term_text(mono, coeff) -> str:
    factors = [
        a.display() if e == 1 else f"{a.display()}^{e if e > 0 else f'({e})'}"
        for a, e in mono
    ]
    if not factors:
        return _rational_text(coeff)
    if abs(coeff) != 1:
        factors.insert(0, _rational_text(abs(coeff)))
    return ("-" if coeff < 0 else "") + "*".join(factors)


def _rational_text(v) -> str:
    if v.denominator == 1:
        return str(v.numerator)
    return f"{v.numerator}/{v.denominator}"

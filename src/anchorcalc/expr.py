"""Exact symbolic kernel over jet variables.

An expression is an immutable sparse polynomial with rational coefficients,
held as integer numerators over one common denominator: the pair
(numerators, denominator) of a dict from monomials to nonzero ints and a
positive int.  Every value is in normal form: the gcd of the numerators and
the denominator is 1, so the denominator is 1 exactly when every coefficient
is an integer, and zero is ({}, 1).  Equality and hashing are structural.
``poly()`` and ``terms()`` give the rational view, monomial -> int or
Fraction.  The atoms are independent variables, jet variables, parameters
and applications sin/cos/exp/log(arg) of the four elementary kernels.  A
monomial is a tuple of (atom, exponent) pairs sorted by atom, with nonzero
integer exponents (Laurent monomials).

Every operation, the arithmetic operators included, expands eagerly, so
every value is in canonical form and equality of values is mathematical
equality within this class.  Function applications are opaque atoms of
the canonical form, with no trigonometric or logarithmic rewriting.  So a
canonical zero is a true zero, and a check that PASSes is sound.  The ODE
checks reduce a nonzero residual modulo sin(u)^2 + cos(u)^2 - 1 for each
argument u (_pythagorean_normal) before they test and print it, clearing
negative powers of cos(u) for the zero test, so a residual that is still
nonzero is a true nonzero when it is a Laurent polynomial in jets,
variables, parameters and sin(u), cos(u).  Relations between different
arguments, such as sin(2u) = 2 sin(u) cos(u) or exp(a + b) =
exp(a) exp(b), stay undecided, and such an identity FAILs falsely; zero
testing of elementary expressions is undecidable in general (Richardson
1968).

An atom is interned: its constructor returns the one object of its value,
so equal atoms are the same object, and an atom hashes by identity, which
makes hashing a monomial one pointer hash per atom.  Such hashes differ
from process to process, so no printed order may follow a hash order.
Equality and order stay those of the atom's value, a tuple built from names and numbers that
is its own sort key: ordering runs in C, and the printed order, graded-
lexicographic with the largest monomial first, is the same in every
process.  Every operation raises ResourceLimitError when an intermediate
polynomial holds more than NODE_LIMIT monomials, or when a multiplication
would form more term products (len(p) * len(q)) than NODE_LIMIT; a product
is refused before its loop runs, whether it is formed or accumulated
straight into a sum, so the cap bounds time as well as size; the
reduction refuses cos(u)^k when (k // 2 + 1)^2 exceeds it.  That holds
for the parser, the operator and form layers and the ODE checks and
characteristic search too, as they run on the polynomial layer below.
NODE_LIMIT is the node-limit row of BUDGETS, the one table of resource
budgets, and each size test reads it when it runs.

Everything here is a pure function over immutable values and is safe for
concurrent use.  The registry of atoms only grows, one entry per distinct
atom, and a constructor adds to it with one dict.setdefault, so two
threads that build the same atom at once still get one object.  The
cached hash and the memoised gradient of an expression, its chain-rule
partials included, are slots filled lazily with deterministic values, so
a racing recomputation is harmless.  The jet steps of total derivatives
sit in one plain table per direction, bounded by a constant and cleared
when full (_STEPS); a step is a pure value, so a racing insert or clear
only recomputes it.  That gradient is the one partial
derivative: diff, the Euler operator, the homotopy, linearization, shell
elimination and the ODE checks all read it.
"""

from __future__ import annotations

import math
from fractions import Fraction
from operator import itemgetter

FUNCTIONS = ("sin", "cos", "exp", "log")

# Every resource budget: name -> (limit, the unit it counts).  A run that
# would pass one is refused before the work it bounds, and exits 2; the
# convention sheet prints these rows.
BUDGETS = {
    "node limit": (10**6, "monomials or term products per kernel operation"),
    "column budget": (2000, "monomials in a characteristic search"),
    "step budget": (10**7, "RK4 steps in a drift-oracle run"),
    "catalog budget": (50_000, "units of work, C(n, p) * n^2, in a catalog run"),
    "digit budget": (4300, "decimal digits of an integer in a model value or a printed residual"),
    "check budget": (100_000, "term products of one ODE check, counted before any is formed"),
    "bracket budget": (100_000, "Lie brackets, or their term products, in one level of a transitivity rank"),
}
NODE_LIMIT = BUDGETS["node limit"][0]


class ExprError(Exception):
    """Base class for kernel errors."""


class ResourceLimitError(ExprError):
    """A computation would pass a resource budget, a row of BUDGETS."""


class UnsupportedInputError(ExprError):
    """Input is outside the supported expression class."""


def refuse(what: str, count: str, budget: str, limit: int | None = None):
    """Raise the ResourceLimitError of every budget: `what` would take
    `count`, more than the limit that applied, the table's unless given."""
    if limit is None:
        limit = BUDGETS[budget][0]
    raise ResourceLimitError(f"{what} exceeds the {budget} ({count} > {limit})")


def _check_size(n: int) -> None:
    if n > NODE_LIMIT:
        refuse("expression", f"{n} monomials", "node limit", NODE_LIMIT)


def _int_pow(base: int, e: int) -> int:
    """base ** e for e >= 0, refused before it is computed when it would
    have more decimal digits than the digit budget: a literal power such as
    3^2000000 would otherwise take seconds and then fail to print."""
    _check_digits("integer power", base, e)
    return base**e


def _check_digits(what: str, base: int, e: int) -> None:
    """Refuse `what`, which holds the integer base ** e, e >= 0, when that
    integer would have more decimal digits than the digit budget."""
    if e > 1 and abs(base) > 1:
        limit = BUDGETS["digit budget"][0]
        # an exponent past a float's range is past the budget too
        digits = e * math.log10(abs(base)) if e < 1e300 else math.inf
        if digits >= limit:
            count = f"{int(digits) + 1} digits" if digits < math.inf else "over 10^299 digits"
            refuse(what, count, "digit budget", limit)


def _int_text(n: int) -> str:
    """str(n), refused past the digit budget; 2^(3 limit) < 10^limit, so
    the bit length rules out nearly every integer at once."""
    limit = BUDGETS["digit budget"][0]
    if n.bit_length() > 3 * limit and abs(n) >= 10**limit:
        digits = int(math.log10(abs(n))) + 1
        refuse("printed integer", f"{digits} digits", "digit budget", limit)
    return str(n)


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

    def __add__(self, other: "MultiIndex") -> "MultiIndex":
        if not other[0]:
            return self
        if not self[0]:
            return other
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

    def __reduce__(self):
        return MultiIndex, (self[1],)

    def sort_key(self):
        return self


def _index(counts) -> MultiIndex:
    """The multi-index of a dict of positive counts."""
    return tuple.__new__(MultiIndex, (sum(counts.values()), tuple(sorted(counts.items()))))


EMPTY_INDEX = MultiIndex()


# ---------------------------------------------------------------------------
# atoms: tuples whose first entry ranks the kind (jet < indep < param < fun),
# interned in _ATOMS and hashed by identity.  Each reduces to its
# constructor call, so a copy or an unpickled atom is the interned object:
# an equal twin built around the constructor would miss every dict lookup.

_ATOMS = {}  # value tuple -> the one atom of that value


def _intern(cls, value):
    atom = _ATOMS.get(value)
    if atom is None:
        atom = _ATOMS.setdefault(value, tuple.__new__(cls, value))
    return atom


class JetVar(tuple):
    """Jet coordinate of a field component; order 0 is the field itself."""

    __slots__ = ()
    __hash__ = object.__hash__

    def __new__(cls, field: str, index=EMPTY_INDEX):
        return _intern(cls, (0, field, MultiIndex(index)))

    def __reduce__(self):
        return JetVar, (self[1], self[2])

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
    __hash__ = object.__hash__
    _RANK = None

    def __new__(cls, name: str):
        return _intern(cls, (cls._RANK, name))

    def __reduce__(self):
        return type(self), (self[1],)

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
    __hash__ = object.__hash__

    def __new__(cls, fn: str, arg: "Expr"):
        return _intern(cls, (3, fn, _poly_key(arg.poly()), arg))

    def __reduce__(self):
        return FunAtom, (self[1], self[3])

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

    ``poly()`` is the rational view, a dict monomial -> nonzero int or
    Fraction, to be read only.  Every constant value is an instance of the
    subclass Rat.
    """

    __slots__ = ("_poly", "_hash", "_grad")

    def poly(self):
        c, d = self._poly
        if d == 1:
            return c
        return {m: v // d if v % d == 0 else Fraction(v, d) for m, v in c.items()}

    # -- arithmetic -----------------------------------------------------
    def __add__(self, other):
        return _expr(_psum(self._poly, _coerce(other)._poly))

    __radd__ = __add__

    def __sub__(self, other):
        return _expr(_psum(self._poly, _coerce(other)._poly, -1))

    def __rsub__(self, other):
        return _coerce(other) - self

    def __mul__(self, other):
        return _expr(_pmul(self._poly, _coerce(other)._poly))

    __rmul__ = __mul__

    def __truediv__(self, other):
        return _expr(_pmul(self._poly, _pinv(_coerce(other)._poly)))

    def __rtruediv__(self, other):
        return _coerce(other) / self

    def __pow__(self, exponent):
        if not isinstance(exponent, int):
            raise UnsupportedInputError("only integer powers are supported")
        return _expr(_ppow(self._poly, exponent))

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
            c, d = self._poly
            h = self._hash = hash((frozenset(c.items()), d))
        return h

    def __repr__(self):
        return f"Expr[{to_text(self)}]"

    def __reduce__(self):
        # the hash reads atom addresses, so a copy starts with empty slots
        return _expr, (self._poly,)


class Rat(Expr):
    """A constant expression; build one with rational()."""

    __slots__ = ()

    @property
    def value(self) -> Fraction:
        c, d = self._poly
        return Fraction(c.get((), 0), d)


def _expr(p) -> Expr:
    """The value of a polynomial pair in normal form."""
    c = p[0]
    e = object.__new__(Rat if not c or (len(c) == 1 and () in c) else Expr)
    e._poly = p
    e._hash = None
    return e


def _expr_sum(acc) -> Expr:
    """The value of a sum accumulated by _padd_into."""
    return _expr(_normal(*acc))


def _coerce(x) -> Expr:
    if isinstance(x, Expr):
        return x
    if isinstance(x, (int, Fraction)):
        return _expr(({(): x.numerator}, x.denominator) if x else ({}, 1))
    raise TypeError(f"cannot interpret {x!r} as an expression")


def _atom(x):
    """The atom of a one-atom expression such as indep("t"); other values
    are returned unchanged."""
    if isinstance(x, Expr) and len(x._poly[0]) == 1 and x._poly[1] == 1:
        ((mono, coeff),) = x._poly[0].items()
        if coeff == 1 and len(mono) == 1 and mono[0][1] == 1:
            return mono[0][0]
    return x


def _atom_key(x, action: str):
    """The atom of x, an atom or its one-atom expression; anything else
    raises TypeError, with `action` naming what the atom was wanted for."""
    atom = _atom(x)
    if not isinstance(atom, (JetVar, _NamedAtom, FunAtom)):
        raise TypeError(f"cannot {action} {x!r}: not an atom")
    return atom


# ---------------------------------------------------------------------------
# polynomial layer.  A polynomial is a pair (numerators, denominator) in the
# normal form of _normal, and is never mutated.  A sum is accumulated in a
# list [numerators, denominator] by _padd_into and _paddmul_into and
# normalised once, at the end.


def _normal(c, d):
    """The pair of c / d with the gcd of the numerators and d divided out."""
    if d != 1:
        g = math.gcd(d, *c.values())
        if g != 1:
            c = {m: v // g for m, v in c.items()}
            d //= g
    return c, d


def _acc(p=({}, 1)):
    """A fresh accumulator that starts at the polynomial p (zero by default)."""
    return [dict(p[0]), p[1]]


def _from_rationals(view):
    """The normal-form pair of a dict monomial -> nonzero int or Fraction."""
    d = math.lcm(*(v.denominator for v in view.values()))
    return _normal({m: v.numerator * (d // v.denominator) for m, v in view.items()}, d)


def _mono_mul(m1, m2):
    """Product of two monomials: a merge of two atom-sorted tuples, whose
    equal atoms are one object.  A one-atom factor is placed with one scan
    of the other factor and one slice."""
    if not m2:
        return m1
    if not m1:
        return m2
    if len(m1) == 1:
        m1, m2 = m2, m1
    if len(m2) == 1:
        ((b, eb),) = m2
        i = 0  # a counter: enumerate costs more on these short tuples
        for a, ea in m1:
            if a is b:
                if ea + eb:
                    return m1[:i] + ((a, ea + eb),) + m1[i + 1 :]
                return m1[:i] + m1[i + 1 :]
            if b < a:
                return m1[:i] + m2 + m1[i:]
            i += 1
        return m1 + m2
    out = []
    i = j = 0
    n1, n2 = len(m1), len(m2)
    while i < n1 and j < n2:
        a, ea = m1[i]
        b, eb = m2[j]
        if a is b:
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


def _align(acc, d: int) -> int:
    """Move the accumulator acc to the lcm of its denominator and d, and
    return the factor lcm // d of a numerator over d."""
    den = acc[1]
    lcm = math.lcm(den, d)
    if lcm != den:
        f = lcm // den
        out = acc[0]
        for m in out:
            out[m] *= f
        acc[1] = lcm
    return lcm // d


def _padd_into(acc, p, k=1):
    """acc += k * p for an accumulator acc and an int k.  The accumulator
    moves to the lcm of the two denominators only when they differ."""
    c, d = p
    out = acc[0]
    if d != acc[1]:
        k *= _align(acc, d)
    get = out.get
    for m, v in c.items():
        nv = get(m, 0) + k * v
        if nv:
            out[m] = nv
        else:
            del out[m]
    _check_size(len(out))


def _psum(p, q, k=1):
    """p + k * q."""
    acc = _acc(p)
    _padd_into(acc, q, k)
    return _normal(*acc)


def _paddmul_into(acc, p, q, k=1):
    """acc += k * p * q for an accumulator acc and an int k, without forming
    the product: each term product goes straight into the sum.  The product
    is refused before any term product when it would form more than
    NODE_LIMIT of them, and the accumulator's size is checked after."""
    (pc, pd), (qc, qd) = p, q
    if len(pc) < len(qc):
        pc, pd, qc, qd = qc, qd, pc, pd
    n1, n2 = len(pc), len(qc)
    if not n2:  # a zero factor
        return
    if n1 * n2 > NODE_LIMIT:
        refuse("product", f"{n1} x {n2} term products", "node limit", NODE_LIMIT)
    out = acc[0]
    d = pd * qd
    if d != acc[1]:
        k *= _align(acc, d)
    get = out.get
    mono_mul = _mono_mul
    if n2 == 1:
        ((m2, c2),) = qc.items()
        k *= c2
        for m1, c1 in pc.items():
            m = mono_mul(m1, m2) if m2 else m1
            nv = get(m, 0) + k * c1
            if nv:
                out[m] = nv
            else:
                del out[m]
    else:
        for m1, c1 in pc.items():
            kc = k * c1
            for m2, c2 in qc.items():
                m = mono_mul(m1, m2)
                nv = get(m, 0) + kc * c2
                if nv:
                    out[m] = nv
                else:
                    del out[m]
    _check_size(len(out))


def _pmul(p, q):
    """p * q by _paddmul_into, which refuses it before any term product."""
    if len(p[0]) < len(q[0]):
        p, q = q, p
    qc, qd = q
    if len(qc) == 1 and () in qc:
        return _pscale(p, qc[()], qd)
    acc = _acc()
    _paddmul_into(acc, p, q)
    return _normal(*acc)


def _pinv(p):
    c, d = p
    if len(c) != 1:
        raise UnsupportedInputError(
            "division is only supported by nonzero constants and single monomials"
        )
    ((mono, coeff),) = c.items()
    return {tuple((a, -e) for a, e in mono): d if coeff > 0 else -d}, abs(coeff)


def _ppow(p, n: int):
    if n < 0:
        p, n = _pinv(p), -n
    if n == 0:
        return {(): 1}, 1
    c, d = p
    if n == 1 or not c:
        return p
    if len(c) == 1:
        ((mono, coeff),) = c.items()
        return {tuple((a, e * n) for a, e in mono): _int_pow(coeff, n)}, _int_pow(d, n)
    # (c / d)^n = c^n / d^n in normal form, and c^n holds coeff(m)^n at m^n
    # for each vertex m of the Newton polytope of c, such as the
    # lexicographically greatest and least exponent vectors: refuse before
    # the first squaring when one of these integers passes the digit budget
    atoms = sorted({a for mono in c for a, _ in mono})
    exponents = {mono: [dict(mono).get(a, 0) for a in atoms] for mono in c}
    vertices = (max(c, key=exponents.get), min(c, key=exponents.get))
    _check_digits("power of a sum", max(d, *(abs(c[m]) for m in vertices)), n)
    result = ({(): 1}, 1)
    base = p
    while n:
        if n & 1:
            result = _pmul(result, base)
        n >>= 1
        if n:
            base = _pmul(base, base)
    return result


def _pscale(p, num, den=1):
    """p * num / den for ints num and den > 0."""
    if not num:
        return {}, 1
    c, d = p
    if den == 1:
        # the numerators of p are coprime to d, so only num can share a factor
        g = math.gcd(num, d)
        if g != 1:
            num //= g
            d //= g
        if num == 1:
            return c, d
        return {m: v * num for m, v in c.items()}, d
    return _normal({m: v * num for m, v in c.items()}, d * den)


def _pythagorean_normal(p):
    """p modulo sin(u)^2 + cos(u)^2 - 1 for every argument u.  Rewriting
    cos(u)^k, k >= 2, as cos(u)^(k-2) * (1 - sin(u)^2) until no such power
    is left gives cos(u)^(k mod 2) * (1 - sin(u)^2)^(k // 2), expanded here
    in one step.  This is the normal form modulo a one-element Groebner
    basis per argument (Cox, Little & O'Shea, ch. 2): for polynomials in
    sin(u), cos(u) and other atoms it is zero exactly when p lies in the
    ideal of these relations, and it never makes a nonzero value zero.
    The rewriting leaves sin(u) free, so negative powers of sin(u) need
    nothing.  Negative powers of cos(u) are not rewritten, but p is zero
    when its product with the monomial of the largest inverse power of each
    cos(u) in it reduces to zero, as cos(u) is nonzero wherever p is
    defined.  Returns p itself when it holds no power to rewrite."""
    c, d = p
    inverse = {}
    for mono in c:
        for a, e in mono:
            if e < 0 and type(a) is FunAtom and a[1] == "cos":
                inverse[a] = max(inverse.get(a, 0), -e)
    if inverse:
        cleared = _pmul(p, ({tuple(sorted(inverse.items())): 1}, 1))
        if not _pythagorean_normal(cleared)[0]:  # one level deep: cleared holds no inverse power
            return {}, 1
    if not any(_is_cos_power(*f) for mono in c for f in mono):
        return p
    acc = _acc()
    for mono, coeff in c.items():
        q = {tuple(f for f in mono if not _is_cos_power(*f)): coeff}, 1
        for a, e in mono:
            if _is_cos_power(a, e):
                q = _pmul(q, _cos_power(a, e))
        _padd_into(acc, q)
    return _normal(acc[0], d)


def _is_cos_power(a, e) -> bool:
    return e >= 2 and type(a) is FunAtom and a[1] == "cos"


def _cos_power(a, e):
    """cos(u)^(e mod 2) * (1 - sin(u)^2)^(e // 2) for a = cos(u), expanded.
    Its q + 1 = e // 2 + 1 binomials have about q bits each, so it is
    refused before any term is built when (q + 1)^2 exceeds NODE_LIMIT."""
    s, q = FunAtom("sin", a[3]), e // 2
    if (q + 1) ** 2 > NODE_LIMIT:
        refuse("cos power", f"({q + 1} binomials)^2", "node limit", NODE_LIMIT)
    base = ((a, 1),) if e % 2 else ()
    terms, c = {}, 1
    for i in range(1, q + 1):  # c = (-1)^i C(q, i), one running product
        c = -c * (q - i + 1) // i
        terms[_mono_mul(base, ((s, 2 * i),))] = c
    terms[base] = 1
    return terms, 1


# ---------------------------------------------------------------------------
# sparse tables: dicts from keys that their owner validated (form indices,
# operator entries) to nonzero values.  Every sum, difference, scaling and
# coefficient map of forms and operators is one of these helpers, and its
# result is such a table again, which its owner takes without re-validation.


def _table_sums(table):
    """The table of a dict from keys to accumulators, zero sums dropped."""
    return {key: _expr_sum(acc) for key, acc in table.items() if acc[0]}


def _table_plus(a, b, k):
    """a + k * b for k = +-1: each value of b is added once, to the value of
    its key in a if there is one."""
    out = dict(a)
    for key, v in b.items():
        u = out.pop(key, None)
        if u is None:
            out[key] = v if k == 1 else -v
            continue
        acc = _acc(u._poly)
        _padd_into(acc, v._poly, k)
        if acc[0]:
            out[key] = _expr_sum(acc)
    return out


def _table_scale(table, p):
    """Every value times the polynomial p; a product of nonzero polynomials
    is nonzero, so every key stays unless p is zero."""
    if not p[0]:
        return {}
    return {key: _expr(_pmul(p, v._poly)) for key, v in table.items()}


def _table_map(table, fn):
    """fn of every value, coerced to an expression, zero results dropped."""
    out = {key: _coerce(fn(v)) for key, v in table.items()}
    return {key: v for key, v in out.items() if v._poly[0]}


# ---------------------------------------------------------------------------
# public constructors


def Sym(atom) -> Expr:
    """The expression of a single atom."""
    return _expr(({((atom, 1),): 1}, 1))


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
    if fn == "log" and type(arg) is Rat and p[0].get((), 0) <= 0:
        raise UnsupportedInputError(f"log({to_text(arg)}) is undefined")
    if not p[0]:
        # exact values at zero argument
        return ({}, 1) if fn == "sin" else ({(): 1}, 1)
    if fn == "log" and p == ({(): 1}, 1):
        return {}, 1
    return {((FunAtom(fn, arg), 1),): 1}, 1


def sin(e) -> Expr:
    return fun("sin", e)


def cos(e) -> Expr:
    return fun("cos", e)


def exp(e) -> Expr:
    return fun("exp", e)


def log(e) -> Expr:
    return fun("log", e)


ZERO = _expr(({}, 1))
ONE = _expr(({(): 1}, 1))


# ---------------------------------------------------------------------------
# canonicalization and queries


def canonicalize(e: Expr) -> Expr:
    """Return the canonical expanded form, which every value already is."""
    return _coerce(e)


def is_identically_zero(e: Expr) -> bool:
    return not _coerce(e)._poly[0]


def terms(e: Expr):
    """The (monomial, coefficient) pairs of e, largest first in graded-
    lexicographic order."""
    return _sorted_terms(_coerce(e).poly())


def atoms(e: Expr):
    """All atoms of the canonical form, those of function-application
    arguments included."""
    out = set()
    _collect_atoms(_coerce(e)._poly, out)
    return out


def _collect_atoms(p, out):
    for mono in p[0]:
        for a, _ in mono:
            out.add(a)
            if isinstance(a, FunAtom):
                _collect_atoms(a[3]._poly, out)


def jet_atoms(e: Expr, field=None):
    return {
        a
        for a in atoms(e)
        if isinstance(a, JetVar) and (field is None or a[1] == field)
    }


def max_jet_order(e: Expr, field=None) -> int:
    return _max_jet_order(_coerce(e)._poly, field)


def _max_jet_order(p, field=None) -> int:
    """The highest jet order in p, function-atom arguments included: one
    scan of the monomials, with no atom set."""
    top = 0
    for mono in p[0]:
        for a, _ in mono:
            if type(a) is JetVar:
                if a[2][0] > top and (field is None or a[1] == field):
                    top = a[2][0]
            elif type(a) is FunAtom:
                top = max(top, _max_jet_order(a[3]._poly, field))
    return top


# ---------------------------------------------------------------------------
# differentiation


def _total_derivative_poly(p, d: str):
    """D_d p, by _total_derivative_into."""
    acc = _acc()
    _total_derivative_into(acc, p, d)
    return _normal(*acc)


def _total_derivative_into(acc, p, d: str, k=1):
    """acc += k * D_d p for an accumulator acc and an int k, by the product
    rule over monomials, each term going straight into the sum.  D_d of a
    jet, or of d itself, is its step from the table of d (_steps): one
    monomial with coefficient 1, so its term needs no denominator of its
    own.  Only a function atom takes the chain rule, once per atom and
    call, and its derivative may carry a denominator, to which the
    accumulator then moves.  The sum's size is checked after each monomial
    of p."""
    c, pd = p
    if not c:
        return
    out = acc[0]
    kd = k * _align(acc, pd) if pd != acc[1] else k  # k over acc's denominator
    get = out.get
    mono_mul = _mono_mul
    steps = _steps(d)
    step_of = steps.get
    chained = {}
    for mono, coeff in c.items():
        kc = kd * coeff
        for i, (a, e) in enumerate(mono):
            s = step_of(a)
            if s is None and type(a) is not FunAtom:
                s = _new_step(steps, a, d)
            if s is False:
                continue
            if e == 1:
                rest = mono[:i] + mono[i + 1 :]
            else:
                rest = mono[:i] + ((a, e - 1),) + mono[i + 1 :]
            if s is not None:  # a step, the empty monomial for d itself
                m = mono_mul(rest, s) if s else rest
                nv = get(m, 0) + kc * e
                if nv:
                    out[m] = nv
                else:
                    del out[m]
                continue
            da = chained.get(a)
            if da is None:
                da = chained[a] = _chain(a, _total_derivative_poly(a[3]._poly, d))
            dc, dd = da
            if not dc:
                continue
            kf = k * coeff * e * _align(acc, pd * dd)
            for m2, c2 in dc.items():
                m = mono_mul(rest, m2)
                nv = get(m, 0) + kf * c2
                if nv:
                    out[m] = nv
                else:
                    del out[m]
            kd = k * (acc[1] // pd)
            kc = kd * coeff
        _check_size(len(out))


def _chain(atom: FunAtom, inner):
    """d fn(arg) = fn'(arg) * d arg, with d arg given as `inner`."""
    if not inner[0]:
        return {}, 1
    fn, arg = atom[1], atom[3]
    if fn == "sin":
        outer = _fun_poly("cos", arg)
    elif fn == "cos":
        outer = _pscale(_fun_poly("sin", arg), -1)
    elif fn == "exp":
        outer = {((atom, 1),): 1}, 1
    else:
        outer = _pinv(arg._poly)
    return _pmul(outer, inner)


# The steps met so far, one plain table per direction d: an atom -> the
# monomial of D_d atom for a jet (the jet one order higher in d) or for d
# itself (the empty monomial), or False for an atom whose D_d is zero;
# a function atom is never stored.  A table is cleared when it is full,
# and so is the whole when it holds _STEP_DIRECTIONS directions, so both
# stay bounded; a step is a pure function of its atom and direction, so a
# racing insert or clear only recomputes one.
_STEPS = {}
_STEP_CAP = 4096
_STEP_DIRECTIONS = 64


def _steps(d: str):
    """The step table of direction d."""
    steps = _STEPS.get(d)
    if steps is None:
        if len(_STEPS) >= _STEP_DIRECTIONS:
            _STEPS.clear()
        steps = _STEPS.setdefault(d, {})
    return steps


def _new_step(steps, atom, d: str):
    """The step in direction d of an atom that is not a function atom,
    stored in its table."""
    if type(atom) is JetVar:
        step = ((JetVar(atom[1], atom[2].step(d)), 1),)
    else:
        step = () if type(atom) is IndepVar and atom[1] == d else False
    if len(steps) >= _STEP_CAP:
        steps.clear()
    steps[atom] = step
    return step


_ZERO_POLY = {}, 1


def _gradient(e: Expr, atom):
    """d e / d atom as a polynomial: the kernel's one partial derivative.
    The exponent shifts of e are memoised on e in its _grad slot like its
    hash, so every operation on the same value shares them; a shared
    partial is read only, and callers copy it before adding to it.  A
    function atom of e adds the chain rule through its argument, whose
    gradient is memoised in turn, and each partial so completed is
    memoised too, one per atom.  A chain-rule partial that raises, such as
    one through the log of a sum, stores nothing; only the atoms that
    reach that argument raise."""
    try:
        table, funs, chained = e._grad
    except AttributeError:  # the slot stays unset until the first lookup
        table, funs, chained = e._grad = _shift_gradient(e._poly)
    p = chained.get(atom) if funs else table.get(atom, _ZERO_POLY)
    if p is None:
        acc = _acc(table.get(atom, _ZERO_POLY))
        for f in funs:
            _paddmul_into(acc, table[f], _chain(f, _gradient(f[3], atom)))
        p = chained[atom] = _normal(*acc)
    return p


def _support(e: Expr):
    """The atoms outside which every partial of e is zero: those of e and,
    by the chain rule, those of its function atoms' arguments."""
    try:
        table, funs, _ = e._grad
    except AttributeError:
        table, funs, _ = e._grad = _shift_gradient(e._poly)
    return set(table).union(*(_support(f[3]) for f in funs)) if funs else table


def _shift_gradient(p):
    """(table, funs, chained) of the gradient of p with every atom opaque:
    table maps each atom to its partial, funs lists the function atoms,
    which need the chain rule, and chained starts empty, to memoise the
    partials that go through it.  The partial of a monomial in one of its
    atoms is its exponent shift, and distinct monomials shift to distinct
    monomials: one pass fills the whole table, with no products and no
    sums, and an atom outside it has partial zero."""
    c, d = p
    table = {}
    funs = []
    for mono, coeff in c.items():
        for k, (a, e) in enumerate(mono):
            out = table.get(a)
            if out is None:
                out = table[a] = {}
                if type(a) is FunAtom:
                    funs.append(a)
            if e == 1:
                out[mono[:k] + mono[k + 1 :]] = coeff
            else:
                out[mono[:k] + ((a, e - 1),) + mono[k + 1 :]] = coeff * e
    return {a: _normal(out, d) for a, out in table.items()}, funs, {}


def _iterated_poly(p, index: MultiIndex):
    for name, count in index.items:
        for _ in range(count):
            p = _total_derivative_poly(p, name)
    return p


def _direction(d) -> str:
    """The name of a direction given as an independent variable or a name."""
    d = _atom(d)
    name = d.name if isinstance(d, IndepVar) else d if isinstance(d, str) else None
    if name is None:
        raise TypeError("direction must be an independent variable or its name")
    return name


def total_derivative(e: Expr, d) -> Expr:
    """Total derivative D_d: raises jet orders in direction d by the chain
    rule, differentiates the independent variable d to 1, parameters to 0."""
    return _expr(_total_derivative_poly(_coerce(e)._poly, _direction(d)))


def diff(e: Expr, sym) -> Expr:
    """Partial derivative with respect to one atom or its one-atom
    expression (chain rule is applied through function applications)."""
    atom = _atom_key(sym, "differentiate with respect to")
    return _expr(_gradient(_coerce(e), atom))


def euler_derivative(density: Expr, field: str) -> Expr:
    """Variational derivative with respect to one field:
    sum over jet orders of (-1)^|a| D^a (d density / d u_a)."""
    density = _coerce(density)
    out = _acc()
    for a in jet_atoms(density, field):
        term = _iterated_poly(_gradient(density, a), a.index)
        _padd_into(out, term, (-1) ** a.index.order())
    return _expr_sum(out)


# ---------------------------------------------------------------------------
# substitution


def substitute(e: Expr, mapping) -> Expr:
    """Substitute atoms by expressions (single simultaneous pass)."""
    table = {_atom_key(k, "substitute for"): _coerce(v)._poly for k, v in mapping.items()}
    return _expr(_subst_poly(_coerce(e)._poly, table))


def _subst_poly(p, table):
    """p with the atoms of the table replaced by their polynomials.  The
    monomials that hold no replaced atom are added to the sum at once, and
    p itself is returned when no monomial holds one.  Each atom is looked
    up once per monomial that holds it."""
    c, d = p
    acc = _acc()
    unchanged = {}
    replaced = {}  # atom -> new polynomial, or None when it stays
    powers = {}  # (atom, exponent) -> power of its replacement
    for mono, coeff in c.items():
        kept = []
        factors = []
        for pair in mono:
            a, e = pair
            rep = replaced.get(a, replaced)  # the dict itself: not seen yet
            if rep is replaced:
                if type(a) is FunAtom:
                    arg = _subst_poly(a[3]._poly, table)
                    rep = None if arg == a[3]._poly else _fun_poly(a[1], _expr(arg))
                else:
                    rep = table.get(a)
                replaced[a] = rep
            if rep is None:
                kept.append(pair)
                continue
            power = powers.get(pair)
            if power is None:
                power = powers[pair] = _ppow(rep, e)
            factors.append(power)
        if not factors:
            unchanged[mono] = coeff
            continue
        term = {tuple(kept): coeff}, 1
        last = factors.pop()
        for f in factors:
            term = _pmul(term, f)
        _paddmul_into(acc, term, last)
    if len(unchanged) == len(c):
        return p
    _padd_into(acc, (unchanged, 1))
    return _normal(acc[0], acc[1] * d)


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
    for mono in density._poly[0]:
        for a, e in mono:
            if isinstance(a, JetVar) and e < 0:
                raise UnsupportedInputError(
                    f"density is not polynomial in {a.display()}"
                )
    for f in fields:
        if not is_identically_zero(euler_derivative(density, f)):
            return None

    # integration-by-parts collector: for every field u and order k >= 1,
    #   u^(k) dL/du^(k) = u E(L)-part + D_t [ sum_j (-1)^j u^(k-1-j) D^j dL/du^(k) ]
    collected = _acc()
    for a in jet_atoms(density):
        k = a.index.order()
        if k == 0:
            continue
        deriv = _gradient(density, a)
        for j in range(k):
            lowered = ((JetVar(a.field, MultiIndex({name: k - 1 - j})), 1),)
            _paddmul_into(collected, ({lowered: 1}, 1), deriv, (-1) ** j)
            deriv = _total_derivative_poly(deriv, name)

    # scale integral over the field-rescaling ray: each monomial of total
    # jet degree m contributes with weight 1/m
    degrees = {}
    for mono in collected[0]:
        degree = sum(e for a, e in mono if isinstance(a, JetVar))
        if degree <= 0:
            raise UnsupportedInputError("homotopy collector lost field degree")
        degrees[mono] = degree
    lcm = math.lcm(*degrees.values())
    ray = [{m: v * (lcm // degrees[m]) for m, v in collected[0].items()}, collected[1] * lcm]

    # pure (t, parameter) remainder integrates termwise
    c, d = density._poly
    remainder = _normal({m: v for m, v in c.items()
                         if not any(isinstance(a, JetVar) for a, _ in m)}, d)
    _padd_into(ray, _poly_antiderivative(remainder, name))

    j = _expr_sum(ray)
    if not is_identically_zero(total_derivative(j, name) - density):
        raise UnsupportedInputError("homotopy inversion failed on this input")
    return j


def _divergence_direction(density, d):
    if d is not None:
        return _direction(d)
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
    return _expr(_poly_antiderivative(_coerce(e)._poly, name))


def _poly_antiderivative(p, name):
    c, d = p
    out = _acc()
    t = IndepVar(name)
    for mono, coeff in c.items():
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
            _paddmul_into(out, ({tuple(rest): coeff}, 1), _fun_poly("log", Sym(t)))
            continue
        rest.append((t, k + 1))
        sign = 1 if k + 1 > 0 else -1
        _padd_into(out, _normal({tuple(sorted(rest)): sign * coeff}, sign * (k + 1)))
    return _normal(out[0], out[1] * d)


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
    factors = [a.display() if e == 1 else f"{a.display()}^{_exponent_text(e)}" for a, e in mono]
    if not factors:
        return _rational_text(coeff)
    if abs(coeff) != 1:
        factors.insert(0, _rational_text(abs(coeff)))
    return ("-" if coeff < 0 else "") + "*".join(factors)


def _exponent_text(e: int) -> str:
    return _int_text(e) if e > 0 else f"({_int_text(e)})"


def _rational_text(v) -> str:
    if v.denominator == 1:
        return _int_text(v.numerator)
    return f"{_int_text(v.numerator)}/{_int_text(v.denominator)}"

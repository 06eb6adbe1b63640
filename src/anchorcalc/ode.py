"""First-order ODE systems with bivector Lagrange anchors.

The running example family: systems xdot^i + v^i(t,x) = 0 together with
their characteristics f(t,x), vertical symmetries w^i(t,x), antisymmetric
anchor bivectors alpha^{ij}(t,x), the induced bracket, integrability,
proper-symmetry conditions and Hamiltonian-type proper deformations.

Characteristics, symmetries and anchors are restricted to functions of
(t, x1..xn) only; higher jets (reduce them on shell first with
linop.ShellRules) and other fields are rejected.

The checks multiply on integer monomial codes (CodeTable; Monagan and
Pearce, CASC 2007): a monomial is one int with a bit field per atom, so a
term product is one int addition.  Each operand is encoded once per table,
keyed by its value, with its partials, and only nonzero residuals and the
values that a check returns or passes on as expressions are decoded.  A
check run (cli.run_checks) makes one table, CodeTable.for_run, and passes
it to each check as `codes`; any other call makes its own, so no table
outlives its run or call.  The characteristic search codes its rows in the
same layout.
"""

from __future__ import annotations

import bisect
import functools
import itertools
import math
from fractions import Fraction

from . import expr as ex
from . import forms as fo
from .conventions import HOMOMORPHISM_SIGN, TWIST_SIGN
from .expr import (
    Expr,
    JetVar,
    UnsupportedInputError,
    is_identically_zero,
)

TIME = "t"
_T = ex.IndepVar(TIME)


def field_name(i: int) -> str:
    return f"x{i + 1}"


@functools.lru_cache(maxsize=8)
def _fields(n: int) -> frozenset:
    return frozenset(map(field_name, range(n)))


def _has_foreign_jet(p, fields) -> bool:
    """Whether the polynomial p holds a jet other than the fields x1..xn, a
    derivative or another field, also inside a function atom's argument;
    stops at the first one."""
    for mono in p[0]:
        for a, _ in mono:
            t = type(a)
            if t is ex.JetVar:
                if a[2][0] or a[1] not in fields:
                    return True
            elif t is ex.FunAtom and _has_foreign_jet(a[3]._poly, fields):
                return True
    return False


def _check_zeroth_order(e: Expr, what: str, n: int) -> Expr:
    """e, once it is known to depend on t and the fields x1..xn alone: a
    jet of another field would be read as a constant, and its PASS would
    be unsound."""
    e = ex._coerce(e)
    fields = _fields(n)
    if _has_foreign_jet(e._poly, fields):
        jets = ex.jet_atoms(e)
        if bad := sorted(a.display() for a in jets if a.index.order() > 0):
            raise UnsupportedInputError(
                f"{what} must depend on (t, x) only, found {', '.join(bad)}; "
                "use linop.ShellRules to reduce derivatives on shell first"
            )
        names = ", ".join(sorted(a.display() for a in jets if a[1] not in fields))
        raise UnsupportedInputError(f"{what} must depend on x1..x{n} only, n = {n}, found {names}")
    return e


class OdeSystem:
    """Normal-form system xdot^i + v^i(t, x) = 0."""

    def __init__(self, v):
        v = tuple(v)
        self.n = len(v)
        self.v = tuple(_check_zeroth_order(c, "v", self.n) for c in v)

    def __eq__(self, other):
        if not isinstance(other, OdeSystem):
            return NotImplemented
        return self.v == other.v  # canonical forms: equal exactly when equal

    def __repr__(self):
        return f"OdeSystem(v=[{', '.join(ex.to_text(c) for c in self.v)}])"


def free_system(n: int) -> OdeSystem:
    return OdeSystem([ex.ZERO] * n)


class _Antisymmetric:
    """A totally antisymmetric array of `rank` indices in 0..n-1; only the
    nonzero entries with ascending indices are stored, each admitted by
    the subclass's rule `_value`."""

    def __init__(self, n: int, upper=None):
        self.n, self.upper, name = n, {}, type(self).__name__.lower()
        for index, value in (upper or {}).items():
            bounded = (-1, *index, n)  # ascending exactly when index ascends in 0..n-1
            if len(index) != self.rank or any(i >= j for i, j in zip(bounded, bounded[1:])):
                raise ValueError(f"{name} entries need {self.rank} ascending indices in 0..n-1")
            value = self._value(value)
            if not is_identically_zero(value):
                self.upper[index] = value

    def entry(self, *index) -> Expr:
        if len(index) != self.rank:
            raise TypeError(f"entry takes {self.rank} indices, got {len(index)}")
        sign, order = fo._merge_sign(index, ())
        if sign is None:
            return ex.ZERO
        base = self.upper.get(order, ex.ZERO)
        return base if sign > 0 else -base

    def is_zero(self) -> bool:
        return not self.upper


class Bivector(_Antisymmetric):
    """Antisymmetric alpha^{ij}(t, x); only i < j entries are stored."""

    rank = 2

    def _value(self, value):
        return _check_zeroth_order(value, "an anchor bivector", self.n)

    def matrix(self):
        rows = [[ex.ZERO] * self.n for _ in range(self.n)]
        for (i, j), value in self.upper.items():
            rows[i][j], rows[j][i] = value, -value
        return rows

    def column(self, l: int):
        """The vertical vector field alpha^{. l} (image of dx^l)."""
        return [self.entry(i, l) for i in range(self.n)]

    def __repr__(self):
        inside = ", ".join(
            f"a{i + 1}{j + 1}={ex.to_text(v)}" for (i, j), v in sorted(self.upper.items())
        )
        return f"Bivector(n={self.n}, {inside})"


def canonical_bivector(n: int = 2) -> Bivector:
    """Canonical pairing on consecutive coordinate pairs (n even)."""
    if n % 2:
        raise ValueError("the canonical bivector needs an even dimension")
    return Bivector(n, {(2 * k, 2 * k + 1): ex.ONE for k in range(n // 2)})


def so3_bivector() -> Bivector:
    """Lie-Poisson bivector of so(3): alpha^{ij} = eps^{ijk} x_k."""
    x = [ex.jet(field_name(i)) for i in range(3)]
    return Bivector(3, {(0, 1): x[2], (0, 2): -x[1], (1, 2): x[0]})


class Trivector(_Antisymmetric):
    """Totally antisymmetric rank-3 array; i < j < k entries stored."""

    rank = 3
    _value = staticmethod(ex._coerce)


# ---------------------------------------------------------------------------
# helpers: each public operation below works on the monomial codes of one
# CodeTable and sums its products on them, each sum a contraction over the
# nonzero partials that tab.grad lists, one coded product per pair in
# tab.addmul


def _x_atoms(n: int):
    return [JetVar(field_name(i)) for i in range(n)]


def _exponent_size(values) -> int:
    """The largest exponent size in the values, function arguments included."""
    size = 0
    for e in values:
        for mono in e._poly[0]:
            for a, k in mono:
                size = max(size, abs(k))
                if type(a) is ex.FunAtom:
                    size = max(size, _exponent_size((a[3],)))
    return size


class _Overflow(Exception):
    """An exponent that a table's fields do not hold: the operation that
    met it restarts on `wider`, a table whose fields hold it."""

    def __init__(self, table, size: int):
        super().__init__()
        self.wider = CodeTable(table.n, bound=max(2 * table.bound, size))


class CodeTable:
    """Integer codes of monomials and the coded operands of one check run
    or of one call.

    A monomial is coded as one int, the sum of e_a * 2^(width * k_a) over
    its atoms a, k_a the place of a: t, x1..xn, then any other atom in the
    order it is met.  The product of two monomials is then the sum of
    their codes.  Every exponent encoded, and the exponent of its partial,
    is smaller in size than half the 2^(width - 1) values that a field
    holds either side of zero, so the sum of two encoded exponents keeps a
    field of its own: the code of a product of two encoded operands is
    injective, and a coded sum of such products decodes exactly.  An
    exponent past that raises _Overflow, and the public operation restarts
    on a wider table (_on_table); no code ever wraps.

    The bound of a table built from values is 3M + 3, M their largest
    exponent size, function arguments included.  The checks encode the
    inputs, their partials (M + 1: a partial raises the size of a negative
    exponent by one) and these intermediates: alpha df and alpha dH, 2M + 1
    with partials 2M + 2, as operands of noether_map's symmetry check and of
    the deformed v; psi . v for psi = df, 2M + 1 with partials 2M + 2; the
    twist's {f, H}, at most 3M + 2 with partials 3M + 3 when it holds x;
    and its f - g, whose g reaches 3M + 1 in t.  So no check of a run
    restarts unless a partial goes through the chain rule.  transitivity_rank
    encodes the brackets of depth below its own: those of depth 1 are
    2M + 1 with partials 2M + 2, while one of depth 2 can reach 4M + 3, so
    it may restart from depth 3 on.

    An operand is keyed by its value and encoded once, with its partials
    in (t, x1..xn) read off the exponent shifts in the same pass; the
    partials of one that holds a function atom are those of
    expr._gradient, which adds the chain rule.  A table is made by the
    caller of one run or by one call and dies with it; it is not for use
    from two threads."""

    def __init__(self, n: int, values=(), bound: int = 0):
        self.n = n
        self.bound = max(bound, 3 * _exponent_size(values) + 3 if values else 0)
        self._width = width = (self.bound + 1).bit_length() + 2
        self._half = 1 << (width - 2)
        self._mask = (1 << width) - 1
        self._bias = 0  # half of every field's values, so that each decodes alone
        self.unit = {}  # atom -> 1 << (width * its place)
        self._places = []  # (atom, shift) in atom order, the order of a monomial
        self._monos = {}  # code -> monomial
        self._operands = {}  # value -> (coded value, coded d_t, nonzero coded x-partials)
        for a in (_T, *_x_atoms(n)):
            self._place(a)
        self._fields = {self.unit[a]: k for k, a in enumerate(_x_atoms(n))}

    @classmethod
    def for_run(cls, sys: OdeSystem, alpha, f, hamiltonian, w):
        """The table that the checks of one run on a model share, its bound
        derived as above from every value of the model that a check reads;
        alpha, f, hamiltonian and w are None where the model has none."""
        values = [*sys.v, *(w or ()), *(alpha.upper.values() if alpha else ())]
        return cls(sys.n, values + [e for e in (f, hamiltonian) if e is not None])

    def _place(self, atom) -> int:
        shift = self._width * len(self.unit)
        unit = self.unit[atom] = 1 << shift
        self._bias += unit << (self._width - 1)
        bisect.insort(self._places, (atom, shift))
        return unit

    def code(self, mono) -> int:
        """The code of a monomial."""
        unit, half, code = self.unit, self._half, 0
        for a, k in mono:
            if not 1 - half < k < half:
                raise _Overflow(self, abs(k) + 1)
            code += k * (unit.get(a) or self._place(a))
        return code

    def encode(self, p):
        """The coded pair of a polynomial pair."""
        return {self.code(m): v for m, v in p[0].items()}, p[1]

    def decode(self, p) -> Expr:
        """The value of a coded pair in normal form."""
        monos, out = self._monos, {}
        for code, v in p[0].items():
            m = monos.get(code)
            if m is None:
                b, mask, half = code + self._bias, self._mask, 2 * self._half
                m = monos[code] = tuple(
                    (a, e) for a, shift in self._places if (e := (b >> shift & mask) - half)
                )
            out[m] = v
        return ex._expr((out, p[1]))

    def value(self, acc) -> Expr:
        """The value of a coded sum accumulated by addmul."""
        return self.decode(ex._normal(*acc))

    def residual(self, acc) -> Expr:
        """The value of a coded sum modulo sin(u)^2 + cos(u)^2 - 1 for every
        argument u: the form in which a check tests a residual for zero and
        prints it.  A zero sum is not decoded."""
        return _reduced(self.value(acc)) if acc[0] else ex.ZERO

    def _operand(self, e: Expr):
        entry = self._operands.get(e)
        if entry is None:
            entry = self._operands[e] = self._fill(e)
        return entry

    def poly(self, e: Expr):
        """The coded pair of e."""
        return self._operand(e)[0]

    def dt(self, e: Expr):
        """d e / d t, coded."""
        return self._partials(e)[1]

    def grad(self, e: Expr):
        """The nonzero (k, d e / d x_k) in ascending k, coded.  Partials are
        shared: callers copy them."""
        return self._partials(e)[2]

    def _partials(self, e: Expr):
        entry = self._operand(e)
        return entry if entry[2] is not None else self._chain(e, entry[0])

    def _fill(self, e: Expr):
        """(coded e, coded d_t e, the nonzero coded x-partials of e), in
        one pass over the terms of e: the partial of a monomial of code c
        in its atom a of exponent k is k times the monomial of code
        c - unit[a], and distinct monomials shift to distinct monomials.
        The partials of a value that holds a function atom are left for
        _chain (None)."""
        c, d = e._poly
        unit, fields, code_of, t = self.unit, self._fields, self.code, self.unit[_T]
        coded, shifts, chain = {}, {}, False
        for mono, coeff in c.items():
            code = code_of(mono)
            coded[code] = coeff
            for a, k in mono:
                u = unit[a]
                if u in fields or u == t:
                    shifts.setdefault(u, {})[code - u] = coeff * k
                elif type(a) is ex.FunAtom:
                    chain = True
        if chain:
            return (coded, d), None, None
        dt = ex._normal(shifts[t], d) if t in shifts else ex._ZERO_POLY
        pairs = [(k, ex._normal(shifts[u], d)) for u, k in fields.items() if u in shifts]
        return (coded, d), dt, pairs

    def _chain(self, e: Expr, coded):
        """The entry of a value that holds a function atom, with the
        partials of expr._gradient, which adds the chain rule.  They are
        read on first use only, as a partial through the log of a sum
        raises."""
        support = ex._support(e)
        dt = self.encode(ex._gradient(e, _T)) if _T in support else ex._ZERO_POLY
        pairs = [
            (k, p)
            for k, x in enumerate(_x_atoms(self.n))
            if x in support and (p := self.encode(ex._gradient(e, x)))[0]
        ]
        entry = self._operands[e] = coded, dt, pairs
        return entry

    def addmul(self, acc, coeffs, pairs, sign=1):
        """acc += sign * sum of coeffs[k] * p over the coded pairs (k, p),
        for expressions coeffs, one coded product per nonzero coeffs[k];
        returns acc."""
        operands = self._operands
        for k, p in pairs:
            c = coeffs[k]
            if c._poly[0]:
                _mul_into(acc, (operands.get(c) or self._operand(c))[0], p, sign)
        return acc


def _mul_into(acc, p, q, k=1):
    """acc += k * p * q for coded pairs p and q and a coded accumulator acc:
    each term product is one int addition of two codes and goes straight
    into the sum.  Refused, as expr._paddmul_into is, before any term
    product when it would form more than the node limit of them, and the
    accumulator's size is checked after."""
    (pc, pd), (qc, qd) = p, q
    if len(pc) < len(qc):
        pc, pd, qc, qd = qc, qd, pc, pd
    n1, n2 = len(pc), len(qc)
    if not n2:  # a zero factor
        return
    if n1 * n2 > ex.NODE_LIMIT:
        ex.refuse("product", f"{n1} x {n2} term products", "node limit", ex.NODE_LIMIT)
    out = acc[0]
    d = pd * qd
    if d != acc[1]:
        k *= ex._align(acc, d)
    get = out.get
    for m2, c2 in qc.items():
        kc = k * c2
        for m1, c1 in pc.items():
            m = m1 + m2
            nv = get(m, 0) + kc * c1
            if nv:
                out[m] = nv
            else:
                del out[m]
    ex._check_size(len(out))


def _reduced(e: Expr) -> Expr:
    """e modulo sin(u)^2 + cos(u)^2 - 1 for every argument u."""
    p = ex._pythagorean_normal(e._poly)
    return e if p is e._poly else ex._expr(p)


def _on_table(run, tab):
    """run(tab), for the body of a public operation whose arguments are
    checked; an exponent that the table's fields do not hold restarts it on
    a wider table of its own, so no code ever wraps."""
    while True:
        try:
            return run(tab)
        except _Overflow as overflow:
            tab = overflow.wider


def _check_budget(what: str, products: int) -> None:
    """Refuse a check whose term products, counted from the supports that
    tab.grad has read, pass the check budget, before any is formed."""
    if products > ex.BUDGETS["check budget"][0]:
        ex.refuse(what, f"{products} term products", "check budget")


def _sizes(a):
    """The monomial count |a^{ij}| of every entry of a = alpha.matrix(), and
    the column sums sum_i |a^{ij}|, from which the check budget counts."""
    size = [[len(e._poly[0]) for e in row] for row in a]
    return size, [sum(col) for col in zip(*size)]


def _characteristic(tab, sys, f):
    """(flag, residual d_t f - v . grad f)."""
    residual = tab.residual(tab.addmul(ex._acc(tab.dt(f)), sys.v, tab.grad(f), -1))
    return is_identically_zero(residual), residual


def _lie_bracket(tab, a, b, out=None):
    """The coded sums [a, b]^i = a^k d_k b^i - b^k d_k a^i for vertical
    fields, added to the accumulators `out` (zero by default)."""
    out = out or [ex._acc() for _ in a]
    for ai, bi, acc in zip(a, b, out):
        tab.addmul(acc, a, tab.grad(bi))
        tab.addmul(acc, b, tab.grad(ai), -1)
    return out


def _bracket_products(tab, a, b):
    """The term products that _lie_bracket forms over every pair of fields
    in a x b: sum_k (sum_a |a^k|)(sum_b sum_i |d_k b^i|) + (sum_b |b^k|)
    (sum_a sum_i |d_k a^i|), |p| the monomial count of p, in one pass over
    each list."""

    def sizes(fields):
        entries, partials = [0] * tab.n, [0] * tab.n
        for field in fields:
            for k, c in enumerate(field):
                entries[k] += len(c._poly[0])
                for j, p in tab.grad(c):
                    partials[j] += len(p[0])
        return entries, partials

    (ea, pa), (eb, pb) = sizes(a), sizes(b)
    return sum(ea[k] * pb[k] + eb[k] * pa[k] for k in range(tab.n))


def _anchor_apply(tab, a, f):
    """w^i = alpha^{ij} d_j f for a = alpha.matrix()."""
    return [tab.value(_pairing(tab, f, row)) for row in a]


def _pairing(tab, f, w):
    """The coded sum d_i f w^i; with w = alpha dg it is the bracket {f, g}."""
    return tab.addmul(ex._acc(), w, tab.grad(f))


def _deform(sys, alpha_dh):
    """v'^i = v^i + TWIST_SIGN alpha^{ij} d_j H, given alpha dH."""
    return OdeSystem(
        ex._expr(ex._psum(vi._poly, wi._poly, TWIST_SIGN)) for vi, wi in zip(sys.v, alpha_dh)
    )


def _matrix(sys: OdeSystem, alpha: Bivector):
    """alpha.matrix(), after checking that alpha lives on the system's x."""
    if alpha.n != sys.n:
        raise ValueError("dimension mismatch")
    return alpha.matrix()


# ---------------------------------------------------------------------------
# checks.  Each checks its arguments, then runs on the table of its run,
# given as `codes`, or on one that it builds from its inputs; the positional
# parameters are those the tracer reads.


def check_characteristic(sys: OdeSystem, f, *, codes=None):
    """d_t f = v . grad f; returns (flag, residual)."""
    f = _check_zeroth_order(f, "a characteristic", sys.n)
    return _on_table(
        lambda tab: _characteristic(tab, sys, f), codes or CodeTable(sys.n, (*sys.v, f))
    )


def check_symmetry(sys: OdeSystem, w, *, codes=None):
    """d_t w = [v, w]; returns (flag, residual vector)."""
    w = tuple(_check_zeroth_order(c, "a vertical vector", sys.n) for c in w)
    if len(w) != sys.n:
        raise ValueError("dimension mismatch")

    def run(tab):
        # d_t w - [v, w] = d_t w + [w, v]
        bracket = _lie_bracket(tab, w, sys.v, [ex._acc(tab.dt(wi)) for wi in w])
        residual = [tab.residual(acc) for acc in bracket]
        return all(is_identically_zero(r) for r in residual), residual

    return _on_table(run, codes or CodeTable(sys.n, (*sys.v, *w)))


def check_anchor(sys: OdeSystem, alpha: Bivector, *, codes=None):
    """d_t alpha = L_v alpha componentwise on i < j; returns (flag, residuals).
    Refused by the check budget before any product."""
    a, v, n = _matrix(sys, alpha), sys.v, sys.n

    def run(tab):
        dv = [tab.grad(vi) for vi in v]
        da = {(i, j): tab.grad(a[i][j]) for i, j in itertools.combinations(range(n), 2)}
        # d_k v^i meets a^{jk} once for every j != i, in the pair that holds i
        # and j, so its products sum over a column less the entry a^{ik}
        size, column = _sizes(a)
        _check_budget(
            "the anchor check",
            sum(len(v[k]._poly[0]) * len(p[0]) for pairs in da.values() for k, p in pairs)
            + sum(len(p[0]) * (column[k] - size[i][k]) for i in range(n) for k, p in dv[i]),
        )
        residual = {}
        for (i, j), pairs in da.items():
            # d_t a^ij - v^k d_k a^ij + a^kj d_k v^i + a^ik d_k v^j, a^kj = -a^jk
            acc = tab.addmul(ex._acc(tab.dt(a[i][j])), v, pairs, -1)
            tab.addmul(acc, a[j], dv[i], -1)
            tab.addmul(acc, a[i], dv[j])
            r = tab.residual(acc)
            if not is_identically_zero(r):
                residual[(i, j)] = r
        return not residual, residual

    return _on_table(run, codes or CodeTable(n, (*v, *alpha.upper.values())))


def anchor_apply(alpha: Bivector, f, *, codes=None) -> tuple:
    """w^i = alpha^{ij} d_j f: the proper symmetry generated by f."""
    f = _check_zeroth_order(f, "a characteristic", alpha.n)
    a = alpha.matrix()
    return _on_table(
        lambda tab: tuple(_anchor_apply(tab, a, f)),
        codes or CodeTable(alpha.n, (*alpha.upper.values(), f)),
    )


def schouten_square(alpha: Bivector, *, codes=None) -> Trivector:
    """Jacobiator S^{ijk} = sum_cyc alpha^{im} d_m alpha^{jk}; zero exactly
    when the bracket is integrable.  Refused by the check budget before any
    product."""
    n, a = alpha.n, alpha.matrix()

    def run(tab):
        da = {(q, r): tab.grad(a[q][r]) for q, r in itertools.combinations(range(n), 2)}
        # Each (p, {q, r}), p outside {q, r}, is one cyclic term below, which
        # forms |alpha^{pm}| |d_m alpha^{qr}| term products for each m; so the
        # count sums |d_m alpha^{qr}| times a column sum of |alpha^{pm}| in one
        # pass over the pairs q < r, where the sum runs over 3 C(n, 3) terms;
        # alpha^{rq} = -alpha^{qr} has the same supports.  A constant alpha
        # takes no product.
        if any(da.values()):
            size, column = _sizes(a)
            _check_budget(
                "the Schouten square",
                sum(
                    len(p[0]) * (column[m] - size[q][m] - size[r][m])
                    for (q, r), pairs in da.items()
                    for m, p in pairs
                ),
            )
        upper = {}
        for i, j, k in itertools.combinations(range(n), 3):
            acc = tab.addmul(ex._acc(), a[i], da[j, k])
            tab.addmul(acc, a[j], tab.grad(a[k][i]))
            tab.addmul(acc, a[k], da[i, j])
            upper[(i, j, k)] = tab.residual(acc)
        return Trivector(n, upper)

    return _on_table(run, codes or CodeTable(n, alpha.upper.values()))


def poisson_bracket(alpha: Bivector, f, g) -> Expr:
    """{f, g} = alpha^{ij} d_i f d_j g."""
    f, g = (_check_zeroth_order(e, "a characteristic", alpha.n) for e in (f, g))
    a = alpha.matrix()
    return _on_table(
        lambda tab: tab.value(_pairing(tab, f, _anchor_apply(tab, a, g))),
        CodeTable(alpha.n, (*alpha.upper.values(), f, g)),
    )


def deform(sys: OdeSystem, alpha: Bivector, hamiltonian) -> OdeSystem:
    """Proper deformation by the twist of H: v'^i = v^i - alpha^{ij} d_j H
    (sign frozen by calibration; the free system deforms to
    xdot^i = {x^i, H})."""
    a = _matrix(sys, alpha)  # a mismatch first, as the other checks report it
    h = _check_zeroth_order(hamiltonian, "a characteristic", sys.n)
    return _on_table(
        lambda tab: _deform(sys, _anchor_apply(tab, a, h)),
        CodeTable(sys.n, (*alpha.upper.values(), h)),
    )


def twist_invariance_check(
    sys: OdeSystem, alpha: Bivector, f, hamiltonian, is_characteristic=None, *, codes=None
):
    """When {f, H} is a function of t alone with polynomial antiderivative g,
    f - g must be conserved by the deformed system.  The first step is the
    flag of check_characteristic(sys, f), computed here unless the caller
    passes it as is_characteristic.  Returns (flag, detail)."""
    f, h = (_check_zeroth_order(e, "a characteristic", sys.n) for e in (f, hamiltonian))
    a = _matrix(sys, alpha)

    def run(tab):
        flag = _characteristic(tab, sys, f)[0] if is_characteristic is None else is_characteristic
        if not flag:
            return False, "f is not a characteristic of the original system"
        alpha_dh = _anchor_apply(tab, a, h)  # both {f, H} and the deformed field read it
        bracket = tab.residual(_pairing(tab, f, alpha_dh))
        if tab.grad(bracket):
            return False, "{f, H} depends on x; the twist is not invariant under f"
        g = ex._poly_antiderivative(bracket._poly, TIME)
        conserved = ex._expr(ex._psum(f._poly, g, -1))
        ok, residual = _characteristic(tab, _deform(sys, alpha_dh), conserved)
        if not ok:
            return False, f"conservation failed with residual {ex.to_text(residual)}"
        return True, ex.to_text(ex._expr(g))

    return _on_table(run, codes or CodeTable(sys.n, (*sys.v, *alpha.upper.values(), f, h)))


def proper_symmetry_conditions(sys: OdeSystem, alpha: Bivector, psi, *, codes=None):
    """Exact invariance of the functional psi_i T^i under the anchor image.

    Conditions, for every free index l (one per generator alpha(dx^l)):
      (i)  sum_i alpha^{il} (d_i psi_k - d_k psi_i) = 0   for all k,
      (ii) sum_i alpha^{il} (d_i(psi . v) - d_t psi_i) = 0.
    Exact differentials of characteristics always pass.  Returns
    (flag, residuals keyed by condition name).

    The curl d_i psi_k - d_k psi_i and the transport covector
    d_i(psi . v) - d_t psi_i are formed once, and alpha is contracted with
    their nonzero entries only: for psi = df the curl is zero, and so is
    the transport covector when f is a characteristic, so those conditions
    take no product at all.
    """
    psi = tuple(_check_zeroth_order(c, "a vertical form", sys.n) for c in psi)
    if len(psi) != sys.n:
        raise ValueError("dimension mismatch")
    a = _matrix(sys, alpha)

    def run(tab):
        v = [(k, tab.poly(vk)) for k, vk in enumerate(sys.v) if vk._poly[0]]
        acc = tab.addmul(ex._acc(), psi, v)
        d_psi_v = dict(tab.grad(tab.value(acc)))  # the partials of psi . v
        # the covectors as lists of nonzero (i, entry) pairs, each sign folded
        # into its entry: curl[k] holds d_i psi_k - d_k psi_i at i, one
        # difference per pair i < k at which either partial is nonzero
        grads = [dict(tab.grad(pk)) for pk in psi]
        curl = [[] for _ in psi]
        pairs = {(min(i, k), max(i, k)) for k, g in enumerate(grads) for i in g if i != k}
        for i, k in sorted(pairs):
            c = ex._psum(grads[k].get(i, ex._ZERO_POLY), grads[i].get(k, ex._ZERO_POLY), -1)
            if c[0]:
                curl[k].append((i, c))
                curl[i].append((k, ex._pscale(c, -1)))
        transport = [
            (i, g)
            for i, pi in enumerate(psi)
            if (g := ex._psum(d_psi_v.get(i, ex._ZERO_POLY), tab.dt(pi), -1))[0]
        ]
        residuals = {}
        for l, row in enumerate(a):
            for k, covector in enumerate(curl + [transport]):
                # alpha^{il} = -alpha^{li}
                r = tab.residual(tab.addmul(ex._acc(), row, covector, -1))
                if not is_identically_zero(r):
                    name = f"closure[l={l + 1},k={k + 1}]" if k < sys.n else f"transport[l={l + 1}]"
                    residuals[name] = r
        return not residuals, residuals

    return _on_table(run, codes or CodeTable(sys.n, (*sys.v, *alpha.upper.values(), *psi)))


def differential(f, n: int, *, codes=None) -> tuple:
    """The vertical differential d~f as a covector of x-partials."""
    f = _check_zeroth_order(f, "a characteristic", n)

    def run(tab):
        out = [ex.ZERO] * n
        for k, p in tab.grad(f):
            out[k] = tab.decode(p)
        return tuple(out)

    return _on_table(run, codes or CodeTable(n, (f,)))


def commutator_matches_bracket(alpha: Bivector, f, g):
    """Residual of [V(f), V(g)] - sigma V({f, g}) with the frozen sign."""
    f, g = (_check_zeroth_order(e, "a characteristic", alpha.n) for e in (f, g))
    a = alpha.matrix()

    def run(tab):
        a_dg = _anchor_apply(tab, a, g)
        rhs = _anchor_apply(tab, a, tab.value(_pairing(tab, f, a_dg)))
        out = [ex._acc(ex._pscale(tab.poly(r), -HOMOMORPHISM_SIGN)) for r in rhs]
        bracket = _lie_bracket(tab, _anchor_apply(tab, a, f), a_dg, out)
        residual = [tab.residual(acc) for acc in bracket]
        return all(is_identically_zero(r) for r in residual), residual

    return _on_table(run, CodeTable(alpha.n, (*alpha.upper.values(), f, g)))


# ---------------------------------------------------------------------------
# transitivity rank


def transitivity_rank(alpha: Bivector, point, depth: int = 0) -> int:
    """Rank at a rational point (t, x1..xn), a list of n + 1 rationals, of
    the anchor image together with iterated Lie brackets up to the given
    depth, a non-negative int, in exact arithmetic.  Each entry is
    substituted at the point and reduced modulo sin(u)^2 + cos(u)^2 - 1, as
    a check residual is.  Raises UnsupportedInputError when an entry is
    undefined at the point, such as x1^-1 at x1 = 0, or is not rational
    there, such as sin(1/3).  A level of brackets that would form more Lie
    brackets, or more term products, than the bracket budget is refused
    before it is formed, the bracket counts of every level before any."""
    n = alpha.n
    if depth < 0:
        raise ValueError(f"the bracket depth must be >= 0, got {depth}")
    coords = [Fraction(v) for v in point]
    if len(coords) != n + 1:
        raise ValueError(f"expected {n + 1} rational values (t, x1..x{n})")
    if not n:
        return 0
    at_point = dict(zip([_T] + _x_atoms(n), coords))
    fields = [alpha.column(l) for l in range(n)]
    # level l brackets every accumulated field with every one of the
    # frontier: refused before level 1 when a level has too many brackets
    accumulated = frontier = n
    for level in range(1, depth + 1):
        frontier *= accumulated
        if frontier > ex.BUDGETS["bracket budget"][0]:
            ex.refuse(f"bracket level {level}", f"{frontier} Lie brackets", "bracket budget")
        accumulated += frontier

    def brackets(tab):
        accumulated, frontier = list(fields), list(fields)
        for level in range(1, depth + 1):
            products = _bracket_products(tab, accumulated, frontier)
            if products > ex.BUDGETS["bracket budget"][0]:
                ex.refuse(f"bracket level {level}", f"{products} term products", "bracket budget")
            frontier = [
                [tab.value(acc) for acc in _lie_bracket(tab, a, b)]
                for a in accumulated
                for b in frontier
            ]
            accumulated.extend(frontier)
        return accumulated

    rows = []
    for vec in _on_table(brackets, CodeTable(n, alpha.upper.values())):
        values = []
        for c in vec:
            try:
                r = _reduced(ex.substitute(c, at_point))
            except UnsupportedInputError as exc:
                raise UnsupportedInputError(
                    f"singular point, pick another one: {ex.to_text(c)} is undefined there"
                ) from exc
            if not isinstance(r, ex.Rat):
                raise UnsupportedInputError(f"{ex.to_text(r)} is not rational at the point")
            values.append(r.value)
        # scaling a row by a nonzero constant keeps the rank
        den = math.lcm(*(v.denominator for v in values))
        rows.append({c: v.numerator * (den // v.denominator) for c, v in enumerate(values) if v})
    return len(_eliminate(rows))


def _eliminate(rows):
    """Sparse fraction-free Gauss-Jordan elimination of integer rows given
    as {column: nonzero int} dicts.  Returns {pivot column: row} of the
    reduced row echelon form, each row with a unit at its pivot, its
    smallest column.  Every step is integer-preserving (Bareiss 1968) and
    divides out the content, and only the unit pivots divide.

    The forced-zero columns are peeled first (_peel): a row with one entry
    forces its column to zero, so e_c is the reduced row of pivot c, and c
    leaves every other row before any of them is combined with another.

    A column index maps each non-pivot column to the pivot rows that hold
    it, so a new pivot back-substitutes into exactly those rows without a
    scan of the others (Davis, Direct Methods for Sparse Linear Systems,
    2006).  The index only chooses which rows to visit, and the reduced row
    echelon form of a matrix is unique, so the rows returned, and every
    kernel and report read off them, are those that a scan of every
    reduced row for the lead would give."""
    reduced, rows = _peel(rows)  # pivot column -> primitive integer row
    holders = {}  # non-pivot column -> pivot columns of the rows holding it
    for r in sorted(rows, key=len):  # sparsest first: it keeps the fill-in small
        for c in [c for c in r if c in reduced]:
            r = _cancel(r, c, reduced[c])
        if r:
            lead = min(r)
            for pc in holders.pop(lead, ()):
                prow = reduced[pc]
                reduced[pc] = new = _cancel(prow, lead, r)
                for c in prow.keys() - new.keys():
                    if c != lead:
                        holders[c].discard(pc)
                for c in new.keys() - prow.keys():
                    holders.setdefault(c, set()).add(pc)
            for c in r:
                if c != lead:
                    holders.setdefault(c, set()).add(lead)
            reduced[lead] = r
    one = Fraction(1)
    normal = {
        pc: {c: one if v == row[pc] else Fraction(v, row[pc]) for c, v in row.items()}
        for pc, row in reduced.items()
    }
    return dict(sorted(normal.items()))


def _peel(rows):
    """(forced, rest): the columns that single-entry rows force to zero,
    each as its reduced row {c: 1}, and the other rows with those columns
    dropped, each divided by its content if it lost one.  A row that drops
    to one entry forces its column in turn, through a column -> rows index.

    This is exact: the rows e_c of the forced columns c together with the
    rest span the row space, as each dropped entry is a multiple of an e_c.
    No row of the rest holds a forced column, so the reduced row echelon
    form of the matrix is the e_c next to that of the rest; the input rows
    are not changed."""
    rows = list(rows)
    index = {}  # column -> positions of the rows that held it
    for i, r in enumerate(rows):
        for c in r:
            index.setdefault(c, []).append(i)
    forced, changed = {}, set()
    single = [i for i, r in enumerate(rows) if len(r) == 1]
    while single:
        r = rows[single.pop()]
        if r:  # else its column was forced after it was queued
            (c,) = r
            forced[c] = {c: 1}
            for i in index[c]:
                if i not in changed:
                    changed.add(i)
                    rows[i] = dict(rows[i])
                row = rows[i]
                del row[c]
                if len(row) == 1:
                    single.append(i)
    for i in changed:
        if (row := rows[i]) and (content := math.gcd(*row.values())) != 1:
            rows[i] = {c: v // content for c, v in row.items()}
    return forced, [r for r in rows if r]


def _cancel(row, col, pivot_row):
    """The primitive integer combination of row and pivot_row that is zero
    at col, in one pass over pivot_row."""
    g = math.gcd(row[col], pivot_row[col])
    a, b = row[col] // g, pivot_row[col] // g
    out = {c: b * v for c, v in row.items()} if b != 1 else dict(row)
    for c, v in pivot_row.items():
        value = out.get(c, 0) - a * v
        if value:
            out[c] = value
        else:
            del out[c]
    content = math.gcd(*out.values())
    return out if content < 2 else {c: v // content for c, v in out.items()}


def _kernel(reduced, cols):
    """Kernel basis read off a reduced form: free column -> sparse vector
    with a unit there and zeros at the other free columns."""
    kernel = {fc: {fc: Fraction(1)} for fc in range(cols) if fc not in reduced}
    for pc, row in reduced.items():
        for c, v in row.items():
            if c != pc:
                kernel[c][pc] = -v
    return kernel


# ---------------------------------------------------------------------------
# polynomial characteristic search


MAX_SEARCH_DEGREE = 12


def search_characteristics(sys: OdeSystem, max_degree: int):
    """Basis of polynomial solutions of d_t f = v . grad f with total degree
    <= max_degree in (t, x), echelon-reduced in graded-lex order with unit
    leading coefficients; the constant solution is removed."""
    if not 0 <= max_degree <= MAX_SEARCH_DEGREE:
        raise ValueError(f"degree {max_degree} is outside the search range 0..{MAX_SEARCH_DEGREE}")
    # one unknown per monomial in (t, x) up to the degree; n = 4 at degree 9,
    # 2002 monomials, is the first search refused
    columns = math.comb(sys.n + 1 + max_degree, max_degree)
    if columns > ex.BUDGETS["column budget"][0]:
        ex.refuse("the search", f"{columns} monomials", "column budget")
    if any(isinstance(a, (ex.FunAtom, ex.Param)) for c in sys.v for a in ex.atoms(c)):
        raise UnsupportedInputError("characteristic search needs v polynomial in (t, x)")
    basis = _monomials(sys.n, max_degree)
    # every residual times the common denominator of v: the rows are then
    # integral, and scaling every equation by one constant keeps the kernel.
    # den * (d_t m - v . grad m) = -(w . grad m) with w_t = -den and
    # w_i = den * v_i.  The partial of a monomial m in its atom a of
    # exponent e is e times its exponent shift s, so each term c * u of w_a
    # adds -e * c to the row of the monomial u * s: one integer product per
    # term, with the node limit of _paddmul_into
    den = math.lcm(*(vi._poly[1] for vi in sys.v))
    w = {_T: {(): -den}}
    w.update(zip(_x_atoms(sys.n), (ex._pscale(vi._poly, den)[0] for vi in sys.v)))
    # The monomials are coded by a CodeTable.  An exponent of a row's
    # monomial u * s is at most max_degree in size in s, plus the largest
    # exponent size in u, as v may hold negative powers (x2/x1), so a table
    # whose bound is the larger of the two holds the code of u * s, the int
    # sum code(m) - unit[a] + code(u), and no monomial tuple is built
    exponents = [abs(e) for terms in w.values() for u in terms for _, e in u]
    codes = CodeTable(sys.n, bound=max([max_degree, *exponents]))
    unit = codes.unit
    coded = {a: [(codes.code(u), c) for u, c in terms.items()] for a, terms in w.items()}
    limit = ex.NODE_LIMIT
    rows = {}  # code of the residual monomial -> {basis column: integer coefficient}
    for col, mono in enumerate(basis):
        residual = {}
        code = codes.code(mono)
        for atom, e in mono:
            terms = coded[atom]
            if len(terms) > limit:
                ex.refuse("product", f"{len(terms)} x 1 term products", "node limit", limit)
            shift = code - unit[atom]
            for u, c in terms:
                m = shift + u
                value = residual.get(m, 0) - e * c
                if value:
                    residual[m] = value
                else:
                    del residual[m]
            ex._check_size(len(residual))
        for m, coeff in residual.items():
            rows.setdefault(m, {})[col] = coeff
    kernel = _kernel(_eliminate(rows.values()), len(basis))
    return _echelon_solutions(kernel, basis)


def _monomials(n: int, max_degree: int):
    """Monomials in (t, x1..xn) of total degree <= max_degree, as monomials
    of the polynomial layer: constant first, then ascending graded-lex.

    Within a degree the columns follow the exponent vectors over (t, x1..xn)
    in descending lexicographic order, while a monomial's pairs are in atom
    order, where every x_i sorts before t and x10 before x2.  So the
    monomials of degree s in gens[i:] are, for e from s down to 0, those of
    degree s - e in gens[i + 1:] times gens[i]^e; gens[i] is new to each of
    them, and its pair is placed by bisection."""
    gens = [_T] + _x_atoms(n)
    tail = [[()]] + [[] for _ in range(max_degree)]  # by degree, in no generator
    for a in reversed(gens):
        key = (a,)  # sorts before (a, e) and after every pair of a smaller atom
        level = []
        for s in range(max_degree + 1):
            out = []
            for e in range(s, 0, -1):
                pair = ((a, e),)
                for m in tail[s - e]:
                    k = bisect.bisect(m, key)
                    out.append(m[:k] + pair + m[k:])
            level.append(out + tail[s])
        tail = level
    return [m for level in tail for m in level]


def _echelon_solutions(kernel, basis):
    """Kernel vectors over the ascending basis as polynomials, without the
    constant.  Each has a unit at its free column, its largest, and zeros at
    the other free ones: the list is echelon-reduced in descending order."""
    return [
        ex._expr(ex._from_rationals({basis[c]: v for c, v in vec.items()}))
        for fc, vec in sorted(kernel.items(), reverse=True)
        if fc != 0  # the constant monomial sits first in the basis
    ]

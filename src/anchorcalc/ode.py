"""First-order ODE systems with bivector Lagrange anchors.

The running example family: systems xdot^i + v^i(t,x) = 0 together with
their characteristics f(t,x), vertical symmetries w^i(t,x), antisymmetric
anchor bivectors alpha^{ij}(t,x), the induced bracket, integrability,
proper-symmetry conditions and Hamiltonian-type proper deformations.

Characteristics, symmetries and anchors are restricted to functions of
(t, x1..xn) only; higher jets (reduce them on shell first with
linop.ShellRules) and other fields are rejected.
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
# helpers: each public operation below makes one _Partials and sums its
# products on the polynomial layer, each sum a contraction over the nonzero
# partials that tab.grad lists, one kernel product per pair in tab.addmul


def _x_atoms(n: int):
    return [JetVar(field_name(i)) for i in range(n)]


class _Partials:
    """The partial derivatives of one call's operands in (t, x1..xn).
    grad(e) lists the nonzero (k, d e / d x_k) in ascending k, read off the
    gradient memoised on e in the x_k of expr._support(e) only, once per
    operand object of the call: alpha^{rq} = -alpha^{qr} is an operand of
    its own, never one of a pair.  Partials are shared: callers copy them."""

    def __init__(self, n: int):
        self._index = {field_name(k): k for k in range(n)}
        self._grads = {}

    def grad(self, e: Expr):
        memo = self._grads.get(id(e))
        if memo is None:
            pairs, index = [], self._index
            for a in ex._support(e):
                if type(a) is JetVar and not a[2][0] and a[1] in index:  # a field x_k
                    p = ex._gradient(e, a)
                    if p[0]:
                        pairs.append((index[a[1]], p))
            pairs.sort()
            memo = self._grads[id(e)] = e, pairs  # e stays alive, so its id stays its own
        return memo[1]

    def addmul(self, acc, coeffs, pairs, sign=1):
        """acc += sign * sum of coeffs[k] * p over the pairs (k, p), for
        expressions coeffs, one kernel product per nonzero coeffs[k]; returns acc."""
        for k, p in pairs:
            c = coeffs[k]._poly
            if c[0]:
                ex._paddmul_into(acc, c, p, sign)
        return acc

    def residual(self, e: Expr) -> Expr:
        """e modulo sin(u)^2 + cos(u)^2 - 1 for every argument u: the form
        in which a check tests a residual for zero and prints it."""
        p = ex._pythagorean_normal(e._poly)
        return e if p is e._poly else ex._expr(p)


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
    acc = tab.addmul(ex._acc(ex._gradient(f, _T)), sys.v, tab.grad(f), -1)
    residual = tab.residual(ex._expr_sum(acc))
    return is_identically_zero(residual), residual


def _lie_bracket(tab, a, b, out=None):
    """[a, b]^i = a^k d_k b^i - b^k d_k a^i for vertical fields, added to
    the accumulators `out` (zero by default)."""
    out = out or [ex._acc() for _ in a]
    for ai, bi, acc in zip(a, b, out):
        tab.addmul(acc, a, tab.grad(bi))
        tab.addmul(acc, b, tab.grad(ai), -1)
    return [ex._expr_sum(acc) for acc in out]


def _anchor_apply(tab, a, f):
    """w^i = alpha^{ij} d_j f for a = alpha.matrix()."""
    return [_pairing(tab, f, row) for row in a]


def _pairing(tab, f, w):
    """d_i f w^i; with w = alpha dg it is the bracket {f, g}."""
    return ex._expr_sum(tab.addmul(ex._acc(), w, tab.grad(f)))


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
# checks


def check_characteristic(sys: OdeSystem, f):
    """d_t f = v . grad f; returns (flag, residual)."""
    f = _check_zeroth_order(f, "a characteristic", sys.n)
    return _characteristic(_Partials(sys.n), sys, f)


def check_symmetry(sys: OdeSystem, w):
    """d_t w = [v, w]; returns (flag, residual vector)."""
    w = tuple(_check_zeroth_order(c, "a vertical vector", sys.n) for c in w)
    if len(w) != sys.n:
        raise ValueError("dimension mismatch")
    tab = _Partials(sys.n)
    # d_t w - [v, w] = d_t w + [w, v]
    bracket = _lie_bracket(tab, w, sys.v, [ex._acc(ex._gradient(wi, _T)) for wi in w])
    residual = [tab.residual(r) for r in bracket]
    return all(is_identically_zero(r) for r in residual), residual


def check_anchor(sys: OdeSystem, alpha: Bivector):
    """d_t alpha = L_v alpha componentwise on i < j; returns (flag, residuals).
    Refused by the check budget before any product."""
    tab, a, v, n = _Partials(sys.n), _matrix(sys, alpha), sys.v, sys.n
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
        acc = tab.addmul(ex._acc(ex._gradient(a[i][j], _T)), v, pairs, -1)
        tab.addmul(acc, a[j], dv[i], -1)
        tab.addmul(acc, a[i], dv[j])
        r = tab.residual(ex._expr_sum(acc))
        if not is_identically_zero(r):
            residual[(i, j)] = r
    return not residual, residual


def anchor_apply(alpha: Bivector, f) -> tuple:
    """w^i = alpha^{ij} d_j f: the proper symmetry generated by f."""
    f = _check_zeroth_order(f, "a characteristic", alpha.n)
    return tuple(_anchor_apply(_Partials(alpha.n), alpha.matrix(), f))


def schouten_square(alpha: Bivector) -> Trivector:
    """Jacobiator S^{ijk} = sum_cyc alpha^{im} d_m alpha^{jk}; zero exactly
    when the bracket is integrable.  Refused by the check budget before any
    product."""
    n = alpha.n
    tab, a = _Partials(n), alpha.matrix()
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
        upper[(i, j, k)] = tab.residual(ex._expr_sum(acc))
    return Trivector(n, upper)


def poisson_bracket(alpha: Bivector, f, g) -> Expr:
    """{f, g} = alpha^{ij} d_i f d_j g."""
    f, g = (_check_zeroth_order(e, "a characteristic", alpha.n) for e in (f, g))
    tab = _Partials(alpha.n)
    return _pairing(tab, f, _anchor_apply(tab, alpha.matrix(), g))


def deform(sys: OdeSystem, alpha: Bivector, hamiltonian) -> OdeSystem:
    """Proper deformation by the twist of H: v'^i = v^i - alpha^{ij} d_j H
    (sign frozen by calibration; the free system deforms to
    xdot^i = {x^i, H})."""
    a = _matrix(sys, alpha)  # a mismatch first, as the other checks report it
    h = _check_zeroth_order(hamiltonian, "a characteristic", sys.n)
    return _deform(sys, _anchor_apply(_Partials(sys.n), a, h))


def twist_invariance_check(
    sys: OdeSystem, alpha: Bivector, f, hamiltonian, is_characteristic=None
):
    """When {f, H} is a function of t alone with polynomial antiderivative g,
    f - g must be conserved by the deformed system.  The first step is the
    flag of check_characteristic(sys, f), computed here unless the caller
    passes it as is_characteristic.  Returns (flag, detail)."""
    f, h = (_check_zeroth_order(e, "a characteristic", sys.n) for e in (f, hamiltonian))
    tab, a = _Partials(sys.n), _matrix(sys, alpha)
    if is_characteristic is None:
        is_characteristic = _characteristic(tab, sys, f)[0]
    if not is_characteristic:
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


def proper_symmetry_conditions(sys: OdeSystem, alpha: Bivector, psi):
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
    tab, a = _Partials(sys.n), _matrix(sys, alpha)
    acc = tab.addmul(ex._acc(), psi, [(k, vk._poly) for k, vk in enumerate(sys.v) if vk._poly[0]])
    d_psi_v = dict(tab.grad(ex._expr_sum(acc)))  # the partials of psi . v
    # the covectors as lists of nonzero (i, entry) pairs, each sign folded
    # into its entry: curl[k] holds d_i psi_k - d_k psi_i at i, one
    # difference per pair i < k at which either partial is nonzero
    grads = [dict(tab.grad(pk)) for pk in psi]
    curl = [[] for _ in psi]
    for i, k in sorted({(min(i, k), max(i, k)) for k, g in enumerate(grads) for i in g if i != k}):
        c = ex._psum(grads[k].get(i, ex._ZERO_POLY), grads[i].get(k, ex._ZERO_POLY), -1)
        if c[0]:
            curl[k].append((i, c))
            curl[i].append((k, ex._pscale(c, -1)))
    transport = [
        (i, g)
        for i, pi in enumerate(psi)
        if (g := ex._psum(d_psi_v.get(i, ex._ZERO_POLY), ex._gradient(pi, _T), -1))[0]
    ]
    residuals = {}
    for l, row in enumerate(a):
        for k, covector in enumerate(curl + [transport]):
            acc = tab.addmul(ex._acc(), row, covector, -1)  # alpha^{il} = -alpha^{li}
            r = tab.residual(ex._expr_sum(acc)) if acc[0] else ex.ZERO
            if not is_identically_zero(r):
                name = f"closure[l={l + 1},k={k + 1}]" if k < sys.n else f"transport[l={l + 1}]"
                residuals[name] = r
    return not residuals, residuals


def differential(f, n: int) -> tuple:
    """The vertical differential d~f as a covector of x-partials."""
    out = [ex.ZERO] * n
    for k, p in _Partials(n).grad(_check_zeroth_order(f, "a characteristic", n)):
        out[k] = ex._expr(p)
    return tuple(out)


def commutator_matches_bracket(alpha: Bivector, f, g):
    """Residual of [V(f), V(g)] - sigma V({f, g}) with the frozen sign."""
    f, g = (_check_zeroth_order(e, "a characteristic", alpha.n) for e in (f, g))
    tab, a = _Partials(alpha.n), alpha.matrix()
    a_dg = _anchor_apply(tab, a, g)
    rhs = _anchor_apply(tab, a, _pairing(tab, f, a_dg))
    out = [ex._acc(ex._pscale(r._poly, -HOMOMORPHISM_SIGN)) for r in rhs]
    bracket = _lie_bracket(tab, _anchor_apply(tab, a, f), a_dg, out)
    residual = [tab.residual(r) for r in bracket]
    return all(is_identically_zero(r) for r in residual), residual


# ---------------------------------------------------------------------------
# transitivity rank


def transitivity_rank(alpha: Bivector, point, depth: int = 0) -> int:
    """Rank at a rational point (t, x1..xn), a list of n + 1 rationals, of
    the anchor image together with iterated Lie brackets up to the given
    depth, in exact arithmetic.  Each entry is substituted at the point and
    reduced modulo sin(u)^2 + cos(u)^2 - 1, as a check residual is.  Raises
    UnsupportedInputError when an entry is undefined at the point, such as
    x1^-1 at x1 = 0, or is not rational there, such as sin(1/3)."""
    n = alpha.n
    coords = [Fraction(v) for v in point]
    if len(coords) != n + 1:
        raise ValueError(f"expected {n + 1} rational values (t, x1..x{n})")
    at_point = dict(zip([_T] + _x_atoms(n), coords))
    fields = [alpha.column(l) for l in range(n)]
    accumulated = list(fields)
    frontier = list(fields)
    tab = _Partials(n)
    for _ in range(depth):
        frontier = [_lie_bracket(tab, a, b) for a in accumulated for b in frontier]
        accumulated.extend(frontier)
    rows = []
    for vec in accumulated:
        values = []
        for c in vec:
            try:
                r = tab.residual(ex.substitute(c, at_point))
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
    # Each monomial is coded as one int, the sum of e_a * 2^(width * k_a)
    # over its atoms a, k_a the place of a in `unit`.  An exponent of a row's
    # monomial u * s is at most max_degree in size in s, plus the largest
    # exponent size in u, as v may hold negative powers (x2/x1); `width` has
    # two bits more than that sum, so each signed exponent keeps a field of
    # its own and the code is injective.  The code of u * s is then the int
    # sum code(m) - unit[a] + code(u), and no monomial tuple is built
    exponents = [abs(e) for terms in w.values() for u in terms for _, e in u]
    width = (max_degree + max(exponents, default=0)).bit_length() + 2
    unit = {}  # t, x1..xn, then any other atom of v, in order of appearance
    for a in itertools.chain(w, (a for terms in w.values() for u in terms for a, _ in u)):
        unit.setdefault(a, 1 << (width * len(unit)))
    coded = {
        a: [(sum(e * unit[b] for b, e in u), c) for u, c in terms.items()]
        for a, terms in w.items()
    }
    limit = ex.NODE_LIMIT
    rows = {}  # code of the residual monomial -> {basis column: integer coefficient}
    for col, mono in enumerate(basis):
        residual = {}
        code = sum(e * unit[a] for a, e in mono)
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

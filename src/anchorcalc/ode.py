"""First-order ODE systems with bivector Lagrange anchors.

The running example family: systems xdot^i + v^i(t,x) = 0 together with
their characteristics f(t,x), vertical symmetries w^i(t,x), antisymmetric
anchor bivectors alpha^{ij}(t,x), the induced bracket, integrability,
proper-symmetry conditions and Hamiltonian-type proper deformations.

Characteristics, symmetries and anchors are restricted to functions of
(t, x) only; higher jets are rejected (reduce them on shell first with
linop.ShellRules).
"""

from __future__ import annotations

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


def _has_derivative_jet(p) -> bool:
    """Whether a jet of order > 0 occurs in the polynomial p, also inside a
    function atom's argument; stops at the first one."""
    for mono in p[0]:
        for a, _ in mono:
            t = type(a)
            if t is ex.JetVar:
                if a[2][0]:
                    return True
            elif t is ex.FunAtom and _has_derivative_jet(a[3]._poly):
                return True
    return False


def _check_zeroth_order(e: Expr, what: str) -> Expr:
    e = ex._coerce(e)
    if _has_derivative_jet(e._poly):
        bad = [a for a in ex.jet_atoms(e) if a.index.order() > 0]
        names = ", ".join(sorted(a.display() for a in bad))
        raise UnsupportedInputError(
            f"{what} must depend on (t, x) only, found {names}; "
            "use linop.ShellRules to reduce derivatives on shell first"
        )
    return e


class OdeSystem:
    """Normal-form system xdot^i + v^i(t, x) = 0."""

    def __init__(self, v):
        self.v = tuple(_check_zeroth_order(c, "v") for c in v)
        self.n = len(self.v)

    def __eq__(self, other):
        if not isinstance(other, OdeSystem):
            return NotImplemented
        return self.v == other.v  # canonical forms: equal exactly when equal

    def __repr__(self):
        return f"OdeSystem(v=[{', '.join(ex.to_text(c) for c in self.v)}])"


def free_system(n: int) -> OdeSystem:
    return OdeSystem([ex.ZERO] * n)


class Bivector:
    """Antisymmetric alpha^{ij}(t, x); only i < j entries are stored."""

    def __init__(self, n: int, upper=None):
        self.n = n
        table = {}
        for (i, j), value in (upper or {}).items():
            if not (0 <= i < j < n):
                raise ValueError("bivector entries must have 0 <= i < j < n")
            value = _check_zeroth_order(value, "an anchor bivector")
            if not is_identically_zero(value):
                table[(i, j)] = value
        self.upper = table

    def entry(self, i: int, j: int) -> Expr:
        if i == j:
            return ex.ZERO
        if i < j:
            return self.upper.get((i, j), ex.ZERO)
        return -self.upper.get((j, i), ex.ZERO)

    def matrix(self):
        return [[self.entry(i, j) for j in range(self.n)] for i in range(self.n)]

    def column(self, l: int):
        """The vertical vector field alpha^{. l} (image of dx^l)."""
        return [self.entry(i, l) for i in range(self.n)]

    def is_zero(self) -> bool:
        return not self.upper

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


class Trivector:
    """Totally antisymmetric rank-3 array; i < j < k entries stored."""

    def __init__(self, n: int, upper=None):
        self.n = n
        table = {}
        for (i, j, k), value in (upper or {}).items():
            if not (0 <= i < j < k < n):
                raise ValueError("trivector entries must have i < j < k")
            value = ex._coerce(value)
            if not is_identically_zero(value):
                table[(i, j, k)] = value
        self.upper = table

    def entry(self, i, j, k) -> Expr:
        sign, order = fo._merge_sign((i, j, k), ())
        if sign is None:
            return ex.ZERO
        base = self.upper.get(order, ex.ZERO)
        return base if sign > 0 else -base

    def is_zero(self) -> bool:
        return not self.upper


# ---------------------------------------------------------------------------
# helpers: each public operation below makes one _Partials and sums its
# products on the polynomial layer.  The partials are memoised on the
# operands themselves (expr._gradient), so the checks of one model share them


def _x_atoms(n: int):
    return [JetVar(field_name(i)) for i in range(n)]


class _Partials:
    """The partial derivatives of the call's operands in (t, x1..xn):
    d(e, i) is d e / d x_i and d(e, None) is d e / d t, read off the
    gradient memoised on e, so callers copy before adding to them."""

    def __init__(self, n: int):
        self._x = _x_atoms(n)

    def d(self, e: Expr, i):
        return ex._gradient(e, _T if i is None else self._x[i])

    def addmul(self, acc, p, q, sign=1):
        """acc += sign * p * q, for polynomials p, q and an accumulator;
        most partials are zero, so those skip the kernel call."""
        if p[0] and q[0]:
            ex._paddmul_into(acc, p, q, sign)

    def residual(self, e: Expr) -> Expr:
        """e modulo sin(u)^2 + cos(u)^2 - 1 for every argument u: the form
        in which a check tests a residual for zero and prints it."""
        p = ex._pythagorean_normal(e._poly)
        return e if p is e._poly else ex._expr(p)


def _characteristic(tab, sys, f):
    """(flag, residual d_t f - v . grad f)."""
    acc = ex._acc(tab.d(f, None))
    for i, vi in enumerate(sys.v):
        tab.addmul(acc, vi._poly, tab.d(f, i), -1)
    residual = tab.residual(ex._expr_sum(acc))
    return is_identically_zero(residual), residual


def _lie_bracket(tab, a, b, out=None):
    """[a, b]^i = a^k d_k b^i - b^k d_k a^i for vertical fields, added to
    the accumulators `out` (zero by default)."""
    out = out or [ex._acc() for _ in a]
    for i, acc in enumerate(out):
        for k in range(len(a)):
            tab.addmul(acc, a[k]._poly, tab.d(b[i], k))
            tab.addmul(acc, b[k]._poly, tab.d(a[i], k), -1)
    return [ex._expr_sum(acc) for acc in out]


def _anchor_apply(tab, a, f):
    """w^i = alpha^{ij} d_j f for a = alpha.matrix()."""
    out = [ex._acc() for _ in a]
    for row, acc in zip(a, out):
        for j, aij in enumerate(row):
            tab.addmul(acc, aij._poly, tab.d(f, j))
    return [ex._expr_sum(acc) for acc in out]


def _pairing(tab, f, w):
    """d_i f w^i; with w = alpha dg it is the bracket {f, g}."""
    acc = ex._acc()
    for i, wi in enumerate(w):
        tab.addmul(acc, tab.d(f, i), wi._poly)
    return ex._expr_sum(acc)


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
    return _characteristic(_Partials(sys.n), sys, _check_zeroth_order(f, "a characteristic"))


def check_symmetry(sys: OdeSystem, w):
    """d_t w = [v, w]; returns (flag, residual vector)."""
    w = tuple(_check_zeroth_order(c, "a vertical vector") for c in w)
    if len(w) != sys.n:
        raise ValueError("dimension mismatch")
    tab = _Partials(sys.n)
    # d_t w - [v, w] = d_t w + [w, v]
    bracket = _lie_bracket(tab, w, sys.v, [ex._acc(tab.d(wi, None)) for wi in w])
    residual = [tab.residual(r) for r in bracket]
    return all(is_identically_zero(r) for r in residual), residual


def check_anchor(sys: OdeSystem, alpha: Bivector):
    """d_t alpha = L_v alpha componentwise on i < j; returns (flag, residuals)."""
    tab, a, v = _Partials(sys.n), _matrix(sys, alpha), sys.v
    residual = {}
    for i, j in itertools.combinations(range(sys.n), 2):
        # d_t a^ij - v^k d_k a^ij + a^kj d_k v^i + a^ik d_k v^j
        acc = ex._acc(tab.d(a[i][j], None))
        for k in range(sys.n):
            tab.addmul(acc, v[k]._poly, tab.d(a[i][j], k), -1)
            tab.addmul(acc, a[k][j]._poly, tab.d(v[i], k))
            tab.addmul(acc, a[i][k]._poly, tab.d(v[j], k))
        r = tab.residual(ex._expr_sum(acc))
        if not is_identically_zero(r):
            residual[(i, j)] = r
    return not residual, residual


def anchor_apply(alpha: Bivector, f) -> tuple:
    """w^i = alpha^{ij} d_j f: the proper symmetry generated by f."""
    f = _check_zeroth_order(f, "a characteristic")
    return tuple(_anchor_apply(_Partials(alpha.n), alpha.matrix(), f))


def schouten_square(alpha: Bivector) -> Trivector:
    """Jacobiator S^{ijk} = sum_cyc alpha^{im} d_m alpha^{jk}; zero exactly
    when the bracket is integrable."""
    n = alpha.n
    tab, a = _Partials(n), alpha.matrix()
    upper = {}
    for i, j, k in itertools.combinations(range(n), 3):
        acc = ex._acc()
        for p, q, r in ((i, j, k), (j, k, i), (k, i, j)):
            for m in range(n):
                tab.addmul(acc, a[p][m]._poly, tab.d(a[q][r], m))
        upper[(i, j, k)] = tab.residual(ex._expr_sum(acc))
    return Trivector(n, upper)


def poisson_bracket(alpha: Bivector, f, g) -> Expr:
    """{f, g} = alpha^{ij} d_i f d_j g."""
    f, g = (_check_zeroth_order(e, "a characteristic") for e in (f, g))
    tab = _Partials(alpha.n)
    return _pairing(tab, f, _anchor_apply(tab, alpha.matrix(), g))


def deform(sys: OdeSystem, alpha: Bivector, hamiltonian) -> OdeSystem:
    """Proper deformation by the twist of H: v'^i = v^i - alpha^{ij} d_j H
    (sign frozen by calibration; the free system deforms to
    xdot^i = {x^i, H})."""
    h = _check_zeroth_order(hamiltonian, "a characteristic")
    return _deform(sys, _anchor_apply(_Partials(sys.n), _matrix(sys, alpha), h))


def twist_invariance_check(
    sys: OdeSystem, alpha: Bivector, f, hamiltonian, is_characteristic=None
):
    """When {f, H} is a function of t alone with polynomial antiderivative g,
    f - g must be conserved by the deformed system.  The first step is the
    flag of check_characteristic(sys, f), computed here unless the caller
    passes it as is_characteristic.  Returns (flag, detail)."""
    f, h = (_check_zeroth_order(e, "a characteristic") for e in (f, hamiltonian))
    tab, a = _Partials(sys.n), _matrix(sys, alpha)
    if is_characteristic is None:
        is_characteristic = _characteristic(tab, sys, f)[0]
    if not is_characteristic:
        return False, "f is not a characteristic of the original system"
    alpha_dh = _anchor_apply(tab, a, h)  # both {f, H} and the deformed field read it
    bracket = tab.residual(_pairing(tab, f, alpha_dh))
    if any(tab.d(bracket, i)[0] for i in range(sys.n)):
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
    """
    psi = tuple(_check_zeroth_order(c, "a vertical form") for c in psi)
    if len(psi) != sys.n:
        raise ValueError("dimension mismatch")
    n = sys.n
    tab, a = _Partials(n), _matrix(sys, alpha)
    residuals = {}
    psi_v = ex._acc()
    for k in range(n):
        tab.addmul(psi_v, psi[k]._poly, sys.v[k]._poly)
    psi_v = ex._expr_sum(psi_v)
    for l in range(n):
        for k in range(n):
            acc = ex._acc()
            for i in range(n):
                tab.addmul(acc, a[i][l]._poly, tab.d(psi[k], i))
                tab.addmul(acc, a[i][l]._poly, tab.d(psi[i], k), -1)
            r = tab.residual(ex._expr_sum(acc))
            if not is_identically_zero(r):
                residuals[f"closure[l={l + 1},k={k + 1}]"] = r
        acc = ex._acc()
        for i in range(n):
            tab.addmul(acc, a[i][l]._poly, tab.d(psi_v, i))
            tab.addmul(acc, a[i][l]._poly, tab.d(psi[i], None), -1)
        r = tab.residual(ex._expr_sum(acc))
        if not is_identically_zero(r):
            residuals[f"transport[l={l + 1}]"] = r
    return not residuals, residuals


def differential(f, n: int) -> tuple:
    """The vertical differential d~f as a covector of x-partials."""
    f, tab = _check_zeroth_order(f, "a characteristic"), _Partials(n)
    return tuple(ex._expr(tab.d(f, i)) for i in range(n))


def commutator_matches_bracket(alpha: Bivector, f, g):
    """Residual of [V(f), V(g)] - sigma V({f, g}) with the frozen sign."""
    f, g = (_check_zeroth_order(e, "a characteristic") for e in (f, g))
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
    """Rank at a rational point of the anchor image together with iterated
    Lie brackets up to the given depth, in exact arithmetic."""
    n = alpha.n
    assignment = _point_assignment(point, n)
    fields = [alpha.column(l) for l in range(n)]
    accumulated = list(fields)
    frontier = list(fields)
    tab = _Partials(n)
    for _ in range(depth):
        frontier = [_lie_bracket(tab, a, b) for a in accumulated for b in frontier]
        accumulated.extend(frontier)
    rows = []
    for vec in accumulated:
        try:
            values = [ex.evaluate(c, assignment) for c in vec]
        except ex.EvaluationError as exc:
            raise ex.EvaluationError(
                f"singular sample point, pick another one: {exc}"
            ) from exc
        # scaling a row by a nonzero constant keeps the rank
        den = math.lcm(*(v.denominator for v in values))
        rows.append({c: v.numerator * (den // v.denominator) for c, v in enumerate(values) if v})
    return len(_eliminate(rows))


def _point_assignment(point, n):
    if isinstance(point, dict):
        return {k: Fraction(v) for k, v in point.items()}
    values = [Fraction(v) for v in point]
    if len(values) != n + 1:
        raise ValueError(f"expected {n + 1} rational values (t, x1..x{n})")
    table = {ex.IndepVar(TIME): values[0]}
    table.update(zip(_x_atoms(n), values[1:]))
    return table


def _eliminate(rows):
    """Sparse fraction-free Gauss-Jordan elimination of integer rows given
    as {column: nonzero int} dicts.  Returns {pivot column: row} of the
    reduced row echelon form, each row with a unit at its pivot, its
    smallest column.  Every step is integer-preserving (Bareiss 1968) and
    divides out the content, and only the unit pivots divide."""
    reduced = {}  # pivot column -> primitive integer row
    for r in sorted(rows, key=len):  # sparsest first: it keeps the fill-in small
        for c in [c for c in r if c in reduced]:
            r = _cancel(r, c, reduced[c])
        if r:
            lead = min(r)
            for pc, prow in reduced.items():
                if lead in prow:
                    reduced[pc] = _cancel(prow, lead, r)
            reduced[lead] = r
    normal = {pc: {c: Fraction(v, row[pc]) for c, v in row.items()} for pc, row in reduced.items()}
    return dict(sorted(normal.items()))


def _cancel(row, col, pivot_row):
    """The primitive integer combination of row and pivot_row that is zero at col."""
    g = math.gcd(row[col], pivot_row[col])
    a, b = row[col] // g, pivot_row[col] // g
    out = {c: b * row.get(c, 0) - a * pivot_row.get(c, 0) for c in row.keys() | pivot_row.keys()}
    content = math.gcd(*out.values()) or 1
    return {c: v // content for c, v in out.items() if v}


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
# monomials in (t, x) up to the search degree, one unknown each; bounds the
# search's time (n = 4 at degree 9, 2002 monomials, is the first refused)
MAX_SEARCH_COLUMNS = 2000


def search_characteristics(sys: OdeSystem, max_degree: int):
    """Basis of polynomial solutions of d_t f = v . grad f with total degree
    <= max_degree in (t, x), echelon-reduced in graded-lex order with unit
    leading coefficients; the constant solution is removed."""
    if not 0 <= max_degree <= MAX_SEARCH_DEGREE:
        raise ValueError(f"degree {max_degree} is outside the search range 0..{MAX_SEARCH_DEGREE}")
    columns = math.comb(sys.n + 1 + max_degree, max_degree)
    if columns > MAX_SEARCH_COLUMNS:
        raise ex.ResourceLimitError(
            f"the search would take {columns} monomials, "
            f"more than the budget of {MAX_SEARCH_COLUMNS}"
        )
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
    limit, mono_mul = ex.NODE_LIMIT, ex._mono_mul
    rows = {}  # residual monomial -> {basis column: integer coefficient}
    for col, mono in enumerate(basis):
        residual = {}
        for k, (atom, e) in enumerate(mono):
            terms = w[atom]
            if len(terms) > limit:
                ex._refuse_product(len(terms), 1)
            head, tail = mono[:k], mono[k + 1 :]
            shift = head + tail if e == 1 else head + ((atom, e - 1),) + tail
            for u, c in terms.items():
                m = mono_mul(u, shift)
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
    of the polynomial layer: constant first, then ascending graded-lex."""
    gens = [_T] + _x_atoms(n)
    return [
        tuple(sorted((gens[g], combo.count(g)) for g in set(combo)))
        for total in range(max_degree + 1)
        for combo in itertools.combinations_with_replacement(range(len(gens)), total)
    ]


def _echelon_solutions(kernel, basis):
    """Kernel vectors over the ascending basis as polynomials, without the
    constant.  Each has a unit at its free column, its largest, and zeros at
    the other free ones: the list is echelon-reduced in descending order."""
    return [
        ex._expr(ex._from_rationals({basis[c]: v for c, v in vec.items()}))
        for fc, vec in sorted(kernel.items(), reverse=True)
        if fc != 0  # the constant monomial sits first in the basis
    ]

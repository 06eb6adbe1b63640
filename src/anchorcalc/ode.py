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
from fractions import Fraction

from . import expr as ex
from . import forms as fo
from .conventions import HOMOMORPHISM_SIGN, TWIST_SIGN
from .expr import (
    Expr,
    JetVar,
    MultiIndex,
    UnsupportedInputError,
    canonicalize,
    is_identically_zero,
)

TIME = "t"


def field_name(i: int) -> str:
    return f"x{i + 1}"


def _check_zeroth_order(e: Expr, what: str) -> Expr:
    e = canonicalize(ex._coerce(e))
    bad = [a for a in ex.jet_atoms(e) if a.index.order() > 0]
    if bad:
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

    @property
    def fields(self):
        return tuple(field_name(i) for i in range(self.n))

    def equations(self):
        """The components T^i = xdot^i + v^i as jet expressions."""
        return [
            canonicalize(ex.jet(field_name(i), {TIME: 1}) + self.v[i])
            for i in range(self.n)
        ]

    def shell(self):
        """Substitution rules xdot^i -> -v^i with on-demand prolongation."""
        from .linop import ShellRules

        return ShellRules(self.equations(), [TIME])

    def __eq__(self, other):
        if not isinstance(other, OdeSystem):
            return NotImplemented
        return self.n == other.n and all(
            is_identically_zero(a - b) for a, b in zip(self.v, other.v)
        )

    def __repr__(self):
        return f"OdeSystem(v=[{', '.join(ex.to_text(c) for c in self.v)}])"


def free_system(n: int) -> OdeSystem:
    return OdeSystem([ex.ZERO] * n)


class CharacteristicFn:
    def __init__(self, f):
        self.f = _check_zeroth_order(f, "a characteristic")

    def __repr__(self):
        return f"CharacteristicFn({ex.to_text(self.f)})"


class VerticalVector:
    def __init__(self, w):
        self.w = tuple(_check_zeroth_order(c, "a vertical vector") for c in w)
        self.n = len(self.w)


class VerticalForm:
    def __init__(self, psi):
        self.psi = tuple(_check_zeroth_order(c, "a vertical form") for c in psi)
        self.n = len(self.psi)


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
        return canonicalize(-self.upper.get((j, i), ex.ZERO))

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
            value = canonicalize(ex._coerce(value))
            if not is_identically_zero(value):
                table[(i, j, k)] = value
        self.upper = table

    def entry(self, i, j, k) -> Expr:
        sign, order = fo._merge_sign((i, j, k), ())
        if sign is None:
            return ex.ZERO
        base = self.upper.get(order, ex.ZERO)
        return canonicalize(base if sign > 0 else -base)

    def is_zero(self) -> bool:
        return not self.upper


# ---------------------------------------------------------------------------
# helpers


def _x_atom(i: int) -> JetVar:
    return JetVar(field_name(i))


def _dx(e: Expr, i: int) -> Expr:
    return ex.diff(e, _x_atom(i))


def _dt(e: Expr) -> Expr:
    return ex.diff(e, ex.IndepVar(TIME))


def _grad(e: Expr, n: int):
    return [_dx(e, i) for i in range(n)]


def _along(v, e: Expr) -> Expr:
    """Directional derivative v . grad e."""
    out = ex.ZERO
    for i, vi in enumerate(v):
        out = out + vi * _dx(e, i)
    return canonicalize(out)


def _lie_bracket(a, b):
    """[a, b]^i = a^k d_k b^i - b^k d_k a^i for vertical fields."""
    n = len(a)
    out = []
    for i in range(n):
        term = ex.ZERO
        for k in range(n):
            term = term + a[k] * _dx(b[i], k) - b[k] * _dx(a[i], k)
        out.append(canonicalize(term))
    return out


def _coerce_char(f):
    return f.f if isinstance(f, CharacteristicFn) else _check_zeroth_order(f, "a characteristic")


def _coerce_vec(w):
    if isinstance(w, VerticalVector):
        return w.w
    return tuple(_check_zeroth_order(c, "a vertical vector") for c in w)


def _coerce_form(psi):
    if isinstance(psi, VerticalForm):
        return psi.psi
    return tuple(_check_zeroth_order(c, "a vertical form") for c in psi)


# ---------------------------------------------------------------------------
# checks


def check_characteristic(sys: OdeSystem, f):
    """d_t f = v . grad f; returns (flag, residual)."""
    f = _coerce_char(f)
    residual = canonicalize(_dt(f) - _along(sys.v, f))
    return is_identically_zero(residual), residual


def check_symmetry(sys: OdeSystem, w):
    """d_t w = [v, w]; returns (flag, residual vector)."""
    w = _coerce_vec(w)
    if len(w) != sys.n:
        raise ValueError("dimension mismatch")
    bracket = _lie_bracket(sys.v, w)
    residual = [canonicalize(_dt(w[i]) - bracket[i]) for i in range(sys.n)]
    return all(is_identically_zero(r) for r in residual), residual


def check_anchor(sys: OdeSystem, alpha: Bivector):
    """d_t alpha = L_v alpha componentwise on i < j; returns (flag, residuals)."""
    if alpha.n != sys.n:
        raise ValueError("dimension mismatch")
    residual = {}
    for i in range(sys.n):
        for j in range(i + 1, sys.n):
            lie = _along(sys.v, alpha.entry(i, j))
            for k in range(sys.n):
                lie = lie - alpha.entry(k, j) * _dx(sys.v[i], k)
                lie = lie - alpha.entry(i, k) * _dx(sys.v[j], k)
            r = canonicalize(_dt(alpha.entry(i, j)) - lie)
            if not is_identically_zero(r):
                residual[(i, j)] = r
    return not residual, residual


def anchor_apply(alpha: Bivector, f) -> VerticalVector:
    """w^i = alpha^{ij} d_j f: the proper symmetry generated by f."""
    f = _coerce_char(f)
    w = []
    for i in range(alpha.n):
        term = ex.ZERO
        for j in range(alpha.n):
            term = term + alpha.entry(i, j) * _dx(f, j)
        w.append(canonicalize(term))
    return VerticalVector(w)


def schouten_square(alpha: Bivector) -> Trivector:
    """Jacobiator S^{ijk} = sum_cyc alpha^{im} d_m alpha^{jk}; zero exactly
    when the bracket is integrable."""
    n = alpha.n
    upper = {}
    for i, j, k in itertools.combinations(range(n), 3):
        total = ex.ZERO
        for a, b, c in ((i, j, k), (j, k, i), (k, i, j)):
            for m in range(n):
                total = total + alpha.entry(a, m) * _dx(alpha.entry(b, c), m)
        upper[(i, j, k)] = canonicalize(total)
    return Trivector(n, upper)


def poisson_bracket(alpha: Bivector, f, g) -> Expr:
    """{f, g} = alpha^{ij} d_i f d_j g."""
    f = _coerce_char(f)
    g = _coerce_char(g)
    out = ex.ZERO
    for i in range(alpha.n):
        for j in range(alpha.n):
            out = out + alpha.entry(i, j) * _dx(f, i) * _dx(g, j)
    return canonicalize(out)


def deform(sys: OdeSystem, alpha: Bivector, hamiltonian) -> OdeSystem:
    """Proper deformation by the twist of H: v'^i = v^i - alpha^{ij} d_j H
    (sign frozen by calibration; the free system deforms to
    xdot^i = {x^i, H})."""
    h = _coerce_char(hamiltonian)
    w = anchor_apply(alpha, h).w
    return OdeSystem(
        [canonicalize(sys.v[i] + TWIST_SIGN * w[i]) for i in range(sys.n)]
    )


def hamiltonian_system(alpha: Bivector, hamiltonian) -> OdeSystem:
    """The system xdot^i = {x^i, H} written in normal form."""
    return deform(free_system(alpha.n), alpha, hamiltonian)


def twist_invariance_check(sys: OdeSystem, alpha: Bivector, f, hamiltonian):
    """When {f, H} is a function of t alone with polynomial antiderivative g,
    f - g must be conserved by the deformed system.  Returns (flag, detail)."""
    f = _coerce_char(f)
    h = _coerce_char(hamiltonian)
    ok, _ = check_characteristic(sys, f)
    if not ok:
        return False, "f is not a characteristic of the original system"
    bracket = poisson_bracket(alpha, f, h)
    if any(not is_identically_zero(_dx(bracket, i)) for i in range(sys.n)):
        return False, "{f, H} depends on x; the twist is not invariant under f"
    g = ex.antiderivative(bracket, TIME)
    deformed = deform(sys, alpha, h)
    ok, residual = check_characteristic(deformed, canonicalize(f - g))
    if not ok:
        return False, f"conservation failed with residual {ex.to_text(residual)}"
    return True, ex.to_text(g)


def proper_symmetry_conditions(sys: OdeSystem, alpha: Bivector, psi):
    """Exact invariance of the functional psi_i T^i under the anchor image.

    Conditions, for every free index l (one per generator alpha(dx^l)):
      (i)  sum_i alpha^{il} (d_i psi_k - d_k psi_i) = 0   for all k,
      (ii) sum_i alpha^{il} (d_i(psi . v) - d_t psi_i) = 0.
    Exact differentials of characteristics always pass.  Returns
    (flag, residuals keyed by condition name).
    """
    psi = _coerce_form(psi)
    if len(psi) != sys.n:
        raise ValueError("dimension mismatch")
    n = sys.n
    residuals = {}
    psi_v = ex.ZERO
    for k in range(n):
        psi_v = psi_v + psi[k] * sys.v[k]
    for l in range(n):
        for k in range(n):
            term = ex.ZERO
            for i in range(n):
                term = term + alpha.entry(i, l) * (_dx(psi[k], i) - _dx(psi[i], k))
            term = canonicalize(term)
            if not is_identically_zero(term):
                residuals[f"closure[l={l + 1},k={k + 1}]"] = term
        term = ex.ZERO
        for i in range(n):
            term = term + alpha.entry(i, l) * (_dx(psi_v, i) - _dt(psi[i]))
        term = canonicalize(term)
        if not is_identically_zero(term):
            residuals[f"transport[l={l + 1}]"] = term
    return not residuals, residuals


def differential(f, n: int) -> VerticalForm:
    """The vertical differential d~f as a covector of x-partials."""
    f = _coerce_char(f)
    return VerticalForm(_grad(f, n))


def commutator_matches_bracket(alpha: Bivector, f, g):
    """Residual of [V(f), V(g)] - sigma V({f, g}) with the frozen sign."""
    wf = anchor_apply(alpha, f).w
    wg = anchor_apply(alpha, g).w
    lhs = _lie_bracket(wf, wg)
    rhs = anchor_apply(alpha, poisson_bracket(alpha, f, g)).w
    residual = [
        canonicalize(lhs[i] - HOMOMORPHISM_SIGN * rhs[i]) for i in range(alpha.n)
    ]
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
    for _ in range(depth):
        new = []
        for a in accumulated:
            for b in frontier:
                new.append(_lie_bracket(a, b))
        frontier = new
        accumulated.extend(new)
    rows = []
    for vec in accumulated:
        try:
            rows.append([ex.evaluate(c, assignment) for c in vec])
        except ex.EvaluationError as exc:
            raise ex.EvaluationError(
                f"singular sample point, pick another one: {exc}"
            ) from exc
    return len(_row_reduce(rows, n)[1])


def _point_assignment(point, n):
    if isinstance(point, dict):
        return {k: Fraction(v) for k, v in point.items()}
    values = [Fraction(v) for v in point]
    if len(values) != n + 1:
        raise ValueError(f"expected {n + 1} rational values (t, x1..x{n})")
    table = {ex.IndepVar(TIME): values[0]}
    for i in range(n):
        table[_x_atom(i)] = values[i + 1]
    return table


def _row_reduce(rows, cols):
    """Gauss-Jordan elimination of an exact rational matrix with the given
    number of columns.  Returns (reduced rows, pivot columns): the first
    len(pivots) rows are the nonzero rows of the reduced row echelon form,
    each with a unit entry in its pivot column; the rest are zero."""
    m = [list(r) for r in rows]
    pivots = []
    for c in range(cols):
        rank = len(pivots)
        pivot = next((r for r in range(rank, len(m)) if m[r][c] != 0), None)
        if pivot is None:
            continue
        m[rank], m[pivot] = m[pivot], m[rank]
        inv = Fraction(1) / m[rank][c]
        m[rank] = [v * inv for v in m[rank]]
        for r in range(len(m)):
            if r != rank and m[r][c]:
                factor = m[r][c]
                m[r] = [a - factor * b for a, b in zip(m[r], m[rank])]
        pivots.append(c)
    return m, pivots


def _nullspace(matrix, cols):
    """Kernel basis of an exact rational matrix: one vector per free column."""
    m, pivots = _row_reduce(matrix, cols)
    pivot_set = set(pivots)
    kernel = []
    for fc in range(cols):
        if fc in pivot_set:
            continue
        vec = [Fraction(0)] * cols
        vec[fc] = Fraction(1)
        for pr, pc in enumerate(pivots):
            vec[pc] = -m[pr][fc]
        kernel.append(vec)
    return kernel


# ---------------------------------------------------------------------------
# polynomial characteristic search


MAX_SEARCH_DEGREE = 12


def search_characteristics(sys: OdeSystem, max_degree: int):
    """Basis of polynomial solutions of d_t f = v . grad f with total degree
    <= max_degree in (t, x), echelon-reduced in graded-lex order with unit
    leading coefficients; the constant solution is removed."""
    if max_degree > MAX_SEARCH_DEGREE:
        raise ValueError(
            f"degree {max_degree} exceeds the search cap {MAX_SEARCH_DEGREE}"
        )
    for c in sys.v:
        for a in ex.atoms(c):
            if isinstance(a, ex.FunAtom) or isinstance(a, ex.Param):
                raise UnsupportedInputError(
                    "characteristic search needs v polynomial in (t, x)"
                )
    basis = _monomials(sys.n, max_degree)
    columns = []
    row_index = {}
    for mono in basis:
        residual = canonicalize(_dt(mono) - _along(sys.v, mono))
        col = {}
        for m, coeff in residual.poly().items():
            if m not in row_index:
                row_index[m] = len(row_index)
            col[row_index[m]] = coeff
        columns.append(col)
    matrix = [[Fraction(0)] * len(basis) for _ in range(len(row_index))]
    for c, col in enumerate(columns):
        for r, coeff in col.items():
            matrix[r][c] = coeff
    kernel = _nullspace(matrix, len(basis))
    solutions = _echelon_solutions(kernel, basis)
    return [CharacteristicFn(s) for s in solutions]


def _monomials(n: int, max_degree: int):
    """Monomials in (t, x1..xn) of total degree <= max_degree, constant first,
    then ascending graded-lex."""
    gens = [ex.indep(TIME)] + [ex.jet(field_name(i)) for i in range(n)]
    out = []
    for total in range(max_degree + 1):
        for combo in itertools.combinations_with_replacement(range(len(gens)), total):
            m = ex.ONE
            for g in combo:
                m = m * gens[g]
            out.append(canonicalize(m))
    return out


def _echelon_solutions(kernel, basis):
    """Echelon-reduce kernel vectors over descending graded-lex monomial
    order and strip the constant solution."""
    order = list(range(len(basis) - 1, -1, -1))  # basis is ascending
    rows = [[vec[c] for c in order] for vec in kernel]
    reduced, pivots = _row_reduce(rows, len(basis))
    const_col = len(basis) - 1  # constant monomial sits last in `order`
    solutions = []
    for row, lead in zip(reduced, pivots):
        if lead == const_col:
            continue
        f = ex.ZERO
        for c, v in enumerate(row):
            if v:
                f = f + ex.rational(v) * basis[order[c]]
        solutions.append(canonicalize(f))
    return solutions

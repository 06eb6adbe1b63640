import itertools
import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import anchorcalc as ac
from anchorcalc import expr as ex
from anchorcalc import ode
from anchorcalc.expr import canonicalize, is_identically_zero
from test_expr import reference_diff  # the product-rule partial derivative

t = ac.indep("t")
x1, x2, x3 = ac.jet("x1"), ac.jet("x2"), ac.jet("x3")

OSC = ode.OdeSystem([-x2, x1])
ENERGY = (x1**2 + x2**2) / 2
CANON = ode.canonical_bivector(2)
SO3 = ode.so3_bivector()


def rand_poly(rng, n=3, degree=2, time=False):
    gens = [ac.jet(ode.field_name(i)) for i in range(n)]
    if time:
        gens.append(t)
    e = ac.rational(rng.randint(-3, 3))
    for _ in range(4):
        term = ac.rational(rng.randint(-4, 4))
        for _ in range(rng.randint(1, degree)):
            term = term * gens[rng.randrange(len(gens))]
        e = e + term
    return e


# --- basic checks -----------------------------------------------------------


def test_characteristic_oscillator_energy():
    ok, residual = ode.check_characteristic(OSC, ENERGY)
    assert ok and ac.is_identically_zero(residual)


def test_characteristic_constant():
    assert ode.check_characteristic(OSC, ac.rational(5))[0]


def test_characteristic_failure_has_residual():
    ok, residual = ode.check_characteristic(OSC, x1)
    assert not ok
    assert ac.canonicalize(residual) == ac.canonicalize(x2)


def test_characteristic_rejects_jets():
    with pytest.raises(ex.UnsupportedInputError, match="reduce"):
        ode.check_characteristic(OSC, ac.jet("x1", {"t": 1}))


def test_residual_is_reduced_modulo_the_pythagorean_relation():
    # xdot = 1 and f = cos(x1)^3: the residual -3*cos(x1)^2*sin(x1) is
    # tested and returned as 3*sin(x1)^3 - 3*sin(x1)
    ok, residual = ode.check_characteristic(ode.OdeSystem([-ac.ONE]), ac.cos(x1) ** 3)
    assert not ok and ac.to_text(residual) == "3*sin(x1)^3 - 3*sin(x1)"
    # sin^2 + cos^2 = 1 in every check: the pendulum with w = x2 * 1 spelled
    # out as x2 * (sin^2 + cos^2)
    pendulum = ode.OdeSystem([-x2, ac.sin(x1)])
    one = ac.sin(x1) ** 2 + ac.cos(x1) ** 2
    assert ode.check_symmetry(pendulum, [x2 * one, -ac.sin(x1)]) == (True, [ac.ZERO, ac.ZERO])
    assert ode.check_characteristic(pendulum, x2**2 / 2 - ac.cos(x1) * one)[0]


def test_symmetry_autonomous_v():
    assert ode.check_symmetry(OSC, [-x2, x1])[0]


def test_symmetry_rotation():
    assert ode.check_symmetry(OSC, [x2, -x1])[0]


def test_symmetry_failure():
    ok, residual = ode.check_symmetry(OSC, [x1, ac.ZERO])
    assert not ok
    assert any(not ac.is_identically_zero(r) for r in residual)


def test_time_dependent_characteristics():
    f2 = x1 * ac.cos(t) - x2 * ac.sin(t)
    f3 = x1 * ac.sin(t) + x2 * ac.cos(t)
    assert ode.check_characteristic(OSC, f2)[0]
    assert ode.check_characteristic(OSC, f3)[0]


# --- anchors ----------------------------------------------------------------


def test_anchor_constant_on_linear_system():
    assert ode.check_anchor(OSC, CANON)[0]


def test_anchor_zero_bivector():
    assert ode.check_anchor(OSC, ode.Bivector(2))[0]


def test_anchor_time_independent_on_free_system():
    rng = random.Random(4)
    alpha = ode.Bivector(3, {(0, 1): rand_poly(rng), (0, 2): rand_poly(rng), (1, 2): rand_poly(rng)})
    assert ode.check_anchor(ode.free_system(3), alpha)[0]


def test_anchor_failure():
    alpha = ode.Bivector(2, {(0, 1): x1})
    ok, residual = ode.check_anchor(OSC, alpha)
    assert not ok and (0, 1) in residual


def test_so3_anchor_for_hamiltonian_flow():
    h = (x1**2 + 2 * x2**2 + 3 * x3**2) / 2
    top = ode.deform(ode.free_system(3), SO3, h)
    assert ode.check_anchor(top, SO3)[0]
    assert ode.check_characteristic(top, h)[0]
    casimir = x1**2 + x2**2 + x3**2
    assert ode.check_characteristic(top, casimir)[0]


# --- anchor application and the Noether map ---------------------------------


def test_anchor_apply_oscillator():
    w = ode.anchor_apply(CANON, ENERGY)
    assert [ac.to_text(c) for c in w] == ["x2", "-x1"]


def test_anchor_apply_constant_and_zero():
    assert all(ac.is_identically_zero(c) for c in ode.anchor_apply(CANON, ac.rational(7)))
    assert all(ac.is_identically_zero(c) for c in ode.anchor_apply(ode.Bivector(2), ENERGY))


def test_noether_map_on_corpus():
    # anchor + characteristic passing implies the image is a symmetry and
    # the exact differential passes the proper-symmetry conditions
    corpus = [
        (OSC, CANON, ENERGY),
        (OSC, CANON, x1 * ac.cos(t) - x2 * ac.sin(t)),
        (ode.free_system(2), CANON, x1 * x2 + x2**3),
        (ode.OdeSystem([ac.ZERO, x1]), CANON, x2 + t * x1),
    ]
    h = (x1**2 + 2 * x2**2 + 3 * x3**2) / 2
    top = ode.deform(ode.free_system(3), SO3, h)
    corpus.append((top, SO3, h))
    corpus.append((top, SO3, x1**2 + x2**2 + x3**2))
    for sys_, alpha, f in corpus:
        assert ode.check_anchor(sys_, alpha)[0]
        assert ode.check_characteristic(sys_, f)[0]
        image = ode.anchor_apply(alpha, f)
        assert ode.check_symmetry(sys_, image)[0]
        psi = ode.differential(f, sys_.n)
        assert ode.proper_symmetry_conditions(sys_, alpha, psi)[0]


def test_proper_symmetry_trivial_cases():
    assert ode.proper_symmetry_conditions(OSC, CANON, [ac.ZERO, ac.ZERO])[0]
    assert ode.proper_symmetry_conditions(OSC, ode.Bivector(2), [x1, x2 * x1])[0]


def test_proper_symmetry_failure():
    # psi = (x2, 0) is not closed against the canonical anchor
    ok, residuals = ode.proper_symmetry_conditions(OSC, CANON, [x2, ac.ZERO])
    assert not ok and residuals


# --- Schouten square and brackets -------------------------------------------


def test_schouten_constant_bivector():
    assert ode.schouten_square(CANON).is_zero()


def test_schouten_so3_vanishes():
    assert ode.schouten_square(SO3).is_zero()


def test_schouten_nonzero_witness():
    alpha = ode.Bivector(3, {(0, 1): x1 * x3, (0, 2): ac.ONE})
    assert not ode.schouten_square(alpha).is_zero()


def test_schouten_product_entry_poisson_case():
    # alpha^{12} = x1 x3, alpha^{13} = 0, alpha^{23} = 1 satisfies Jacobi
    alpha = ode.Bivector(3, {(0, 1): x1 * x3, (1, 2): ac.ONE})
    assert ode.schouten_square(alpha).is_zero()


def brute_antisymmetrization(alpha, i, j, k):
    """Six-term signed sum over permutations of alpha^{am} d_m alpha^{bc},
    halved (the tensor is already antisymmetric in its last two slots)."""
    total = ac.ZERO
    for (a, b, c) in itertools.permutations((i, j, k)):
        probe = perm_map((i, j, k), (a, b, c))
        parity = 1
        for p in range(3):
            for q in range(p + 1, 3):
                if probe[p] > probe[q]:
                    parity = -parity
        term = ac.ZERO
        for m in range(alpha.n):
            term = term + alpha.entry(a, m) * ex.diff(
                alpha.entry(b, c), ex.JetVar(ode.field_name(m))
            )
        total = total + ac.rational(parity) * term
    return ac.canonicalize(total * ac.rational(1, 2))


def perm_map(base, image):
    pos = {v: i for i, v in enumerate(base)}
    return [pos[v] for v in image]


def test_schouten_matches_brute_force_antisymmetrization():
    rng = random.Random(9)
    for _ in range(5):
        alpha = ode.Bivector(
            3,
            {
                (0, 1): rand_poly(rng, degree=1),
                (0, 2): rand_poly(rng, degree=1),
                (1, 2): rand_poly(rng, degree=1),
            },
        )
        square = ode.schouten_square(alpha)
        for i, j, k in itertools.combinations(range(3), 3):
            brute = brute_antisymmetrization(alpha, i, j, k)
            # cyclic sum equals (1/2) * full antisymmetrization of a tensor
            # already antisymmetric in its last two slots
            assert ac.is_identically_zero(square.entry(i, j, k) - brute)


def test_poisson_bracket_canonical_pair():
    assert ac.canonicalize(ode.poisson_bracket(CANON, x1, x2)) == ac.canonicalize(ac.ONE)


def test_poisson_bracket_antisymmetry():
    rng = random.Random(14)
    for _ in range(10):
        f, g = rand_poly(rng, n=2), rand_poly(rng, n=2)
        lhs = ode.poisson_bracket(CANON, f, g)
        rhs = ode.poisson_bracket(CANON, g, f)
        assert ac.is_identically_zero(lhs + rhs)
    assert ac.is_identically_zero(ode.poisson_bracket(CANON, ENERGY, ENERGY))


def test_so3_casimir_central():
    casimir = x1**2 + x2**2 + x3**2
    for i in range(3):
        b = ode.poisson_bracket(SO3, casimir, ac.jet(ode.field_name(i)))
        assert ac.is_identically_zero(b)


def test_jacobiator_iff_schouten():
    rng = random.Random(23)
    # so(3): jacobiator vanishes on random triples
    for _ in range(5):
        f, g, h = (rand_poly(rng) for _ in range(3))
        jac = (
            ode.poisson_bracket(SO3, ode.poisson_bracket(SO3, f, g), h)
            + ode.poisson_bracket(SO3, ode.poisson_bracket(SO3, g, h), f)
            + ode.poisson_bracket(SO3, ode.poisson_bracket(SO3, h, f), g)
        )
        assert ac.is_identically_zero(jac)
    # non-Jacobi bivector: some coordinate triple detects it
    alpha = ode.Bivector(3, {(0, 1): x1 * x3, (0, 2): ac.ONE})
    assert not ode.schouten_square(alpha).is_zero()
    found = False
    for i, j, k in itertools.combinations(range(3), 3):
        xi, xj, xk = (ac.jet(ode.field_name(m)) for m in (i, j, k))
        jac = (
            ode.poisson_bracket(alpha, ode.poisson_bracket(alpha, xi, xj), xk)
            + ode.poisson_bracket(alpha, ode.poisson_bracket(alpha, xj, xk), xi)
            + ode.poisson_bracket(alpha, ode.poisson_bracket(alpha, xk, xi), xj)
        )
        if not ac.is_identically_zero(jac):
            found = True
    assert found


def test_bracket_closure_on_characteristics():
    # integrable anchor + two characteristics: their bracket is again one
    f1 = ENERGY
    f2 = x1 * ac.cos(t) - x2 * ac.sin(t)
    assert ode.schouten_square(CANON).is_zero()
    bracket = ode.poisson_bracket(CANON, f1, f2)
    assert not ac.is_identically_zero(bracket)
    assert ode.check_characteristic(OSC, bracket)[0]


def test_commutator_homomorphism_sign():
    rng = random.Random(31)
    for _ in range(10):
        f, g = rand_poly(rng), rand_poly(rng)
        ok, residual = ode.commutator_matches_bracket(SO3, f, g)
        assert ok, [ac.to_text(r) for r in residual]


def test_homomorphism_sign_is_tight():
    # flipping the frozen sign must break the identity on so(3) coordinates
    wf = ode.anchor_apply(SO3, x1)
    wg = ode.anchor_apply(SO3, x2)
    lhs = _lie_bracket(wf, wg)
    rhs = ode.anchor_apply(SO3, ode.poisson_bracket(SO3, x1, x2))
    flipped = [ac.canonicalize(l + ode.HOMOMORPHISM_SIGN * r) for l, r in zip(lhs, rhs)]
    assert any(not ac.is_identically_zero(r) for r in flipped)


# --- deformations -----------------------------------------------------------


def test_deform_free_to_oscillator():
    deformed = ode.deform(ode.free_system(2), CANON, ENERGY)
    assert deformed == OSC


def test_deform_constant_hamiltonian():
    assert ode.deform(OSC, CANON, ac.rational(3)) == OSC


def test_deform_zero_anchor():
    assert ode.deform(OSC, ode.Bivector(2), ENERGY) == OSC


def test_deform_additive():
    rng = random.Random(44)
    h1, h2 = rand_poly(rng, n=2), rand_poly(rng, n=2)
    lhs = ode.deform(ode.deform(OSC, CANON, h1), CANON, h2)
    rhs = ode.deform(OSC, CANON, ac.canonicalize(h1 + h2))
    assert lhs == rhs


def test_twist_invariance_self():
    ok, _ = ode.twist_invariance_check(ode.free_system(2), CANON, ENERGY, ENERGY)
    assert ok


def test_twist_invariance_time_linear():
    # {x1, x2} = 1, so x1 - t is conserved by the deformed system
    ok, g_text = ode.twist_invariance_check(ode.free_system(2), CANON, x1, x2)
    assert ok and g_text == "t"


def test_twist_invariance_not_applicable():
    ok, detail = ode.twist_invariance_check(ode.free_system(2), CANON, x1, ENERGY)
    assert not ok and "depends on x" in detail


# A bivector on another dimension than the system is refused, as check_anchor
# refuses it: larger ones were silently truncated, smaller ones hit IndexError.
_MISMATCHED = [(ode.free_system(2), SO3), (ode.free_system(3), CANON)]


@pytest.mark.parametrize("sys, alpha", _MISMATCHED)
def test_deform_rejects_bivector_of_other_dimension(sys, alpha):
    with pytest.raises(ValueError, match="dimension mismatch"):
        ode.deform(sys, alpha, x3)


@pytest.mark.parametrize("sys, alpha", _MISMATCHED)
def test_twist_invariance_rejects_bivector_of_other_dimension(sys, alpha):
    with pytest.raises(ValueError, match="dimension mismatch"):
        ode.twist_invariance_check(sys, alpha, x1, x2)


@pytest.mark.parametrize("sys, alpha", _MISMATCHED)
def test_proper_symmetry_rejects_bivector_of_other_dimension(sys, alpha):
    with pytest.raises(ValueError, match="dimension mismatch"):
        ode.proper_symmetry_conditions(sys, alpha, [1] * sys.n)


# --- transitivity rank ------------------------------------------------------


def test_rank_canonical_full():
    assert ode.transitivity_rank(CANON, [0, 1, 2], 0) == 2


def test_rank_zero():
    assert ode.transitivity_rank(ode.Bivector(2), [0, 1, 2], 0) == 0


def test_rank_grows_with_brackets():
    heis = ode.Bivector(3, {(0, 1): ac.ONE, (0, 2): x1})
    point = [0, Fraction(1, 3), 2, 5]
    assert ode.transitivity_rank(heis, point, 0) == 2
    assert ode.transitivity_rank(heis, point, 1) == 3


def test_rank_agrees_at_three_points():
    rng = random.Random(3)
    pts = [[Fraction(rng.randint(1, 9), rng.randint(1, 9)) for _ in range(4)] for _ in range(3)]
    ranks = {ode.transitivity_rank(SO3, p, 1) for p in pts}
    assert len(ranks) == 1


def test_rank_singular_sample_asks_for_resample():
    alpha = ode.Bivector(2, {(0, 1): x1 ** -1})
    with pytest.raises(ode.ex.EvaluationError, match="resample|another"):
        ode.transitivity_rank(alpha, [0, 0, 1], 0)


# --- exact elimination ------------------------------------------------------

# Mostly zero and small entries, so that rank-deficient matrices are common.
_entries = st.one_of(
    st.just(Fraction(0)),
    st.fractions(min_value=-3, max_value=3, max_denominator=4),
)
_matrices = st.integers(1, 5).flatmap(
    lambda cols: st.tuples(
        st.lists(st.lists(_entries, min_size=cols, max_size=cols), max_size=5),
        st.just(cols),
    )
)


@settings(max_examples=200, deadline=None)
@given(_matrices)
def test_row_reduce_rank_kernel_and_idempotence(case):
    rows, cols = case
    reduced, pivots = _row_reduce(rows, cols)
    kernel = _nullspace(rows, cols)
    assert len(pivots) + len(kernel) == cols
    for vec in kernel:
        for row in rows:
            assert sum(a * b for a, b in zip(row, vec)) == 0
    assert _row_reduce(reduced, cols) == (reduced, pivots)


# --- characteristic search --------------------------------------------------


def test_search_oscillator_quadratic():
    sols = ode.search_characteristics(OSC, 2)
    assert len(sols) == 1
    assert ac.is_identically_zero(sols[0] - (x1**2 + x2**2))
    for s in sols:
        assert ode.check_characteristic(OSC, s)[0]


def test_search_free_system_degree_one():
    sols = ode.search_characteristics(ode.free_system(3), 1)
    texts = sorted(ac.to_text(s) for s in sols)
    assert texts == ["x1", "x2", "x3"]


def test_search_excludes_constants():
    sols = ode.search_characteristics(ode.free_system(1), 2)
    for s in sols:
        assert not isinstance(ac.canonicalize(s), ex.Rat)


def test_search_exponential_system_has_no_polynomial_solutions():
    sols = ode.search_characteristics(ode.OdeSystem([x1]), 1)
    assert sols == []


def test_search_degree_cap():
    with pytest.raises(ValueError):
        ode.search_characteristics(OSC, 99)


def test_search_results_pass_check():
    sys_ = ode.OdeSystem([ac.ZERO, x1])
    for s in ode.search_characteristics(sys_, 3):
        assert ode.check_characteristic(sys_, s)[0]


# --- types ------------------------------------------------------------------


def test_bivector_antisymmetry_storage():
    assert ac.is_identically_zero(CANON.entry(0, 0))
    assert ac.is_identically_zero(CANON.entry(0, 1) + CANON.entry(1, 0))
    with pytest.raises(ValueError):
        ode.Bivector(2, {(1, 0): x1})


def test_trivector_antisymmetry():
    tv = ode.Trivector(3, {(0, 1, 2): x1})
    assert ac.is_identically_zero(tv.entry(1, 0, 2) + tv.entry(0, 1, 2))
    assert ac.is_identically_zero(tv.entry(0, 0, 2))


def test_vertical_types_reject_jets():
    jets = [ac.jet("x1", {"t": 1}), x2]
    with pytest.raises(ex.UnsupportedInputError, match="a vertical vector"):
        ode.check_symmetry(OSC, jets)
    with pytest.raises(ex.UnsupportedInputError, match="a vertical form"):
        ode.proper_symmetry_conditions(OSC, CANON, jets)
    with pytest.raises(ex.UnsupportedInputError):
        ode.OdeSystem([ac.jet("x1", {"t": 1})])


# --- search budget ----------------------------------------------------------


class _Built(Exception):
    pass


def _refuse_build(n, max_degree):
    raise _Built


@pytest.mark.parametrize("n", [1, 3, 4, 6])
def test_search_column_budget_boundary(monkeypatch, n):
    # the budget is checked on the count alone, before any monomial is built
    monkeypatch.setattr(ode, "_monomials", _refuse_build)
    system = ode.free_system(n)
    for degree in range(ode.MAX_SEARCH_DEGREE + 1):
        if math.comb(n + 1 + degree, degree) > ode.MAX_SEARCH_COLUMNS:
            with pytest.raises(ac.ResourceLimitError, match="monomials"):
                ode.search_characteristics(system, degree)
        else:
            with pytest.raises(_Built):
                ode.search_characteristics(system, degree)


def test_search_budget_admits_every_degree_up_to_three_fields():
    d = ode.MAX_SEARCH_DEGREE
    assert math.comb(3 + 1 + d, d) <= ode.MAX_SEARCH_COLUMNS


def test_search_rejects_negative_degree():
    with pytest.raises(ValueError):
        ode.search_characteristics(OSC, -1)


# --- dense view of the sparse ode._eliminate, for comparison with the reference -


def _dense(vec, cols):
    return [vec.get(c, Fraction(0)) for c in range(cols)]


def _integer_rows(rows):
    """Each rational row times the lcm of its denominators, as the sparse
    {column: nonzero int} rows that ode._eliminate takes."""
    out = []
    for row in rows:
        den = math.lcm(*(v.denominator for v in row))
        out.append({c: v.numerator * (den // v.denominator) for c, v in enumerate(row) if v})
    return out


def _row_reduce(rows, cols):
    """(reduced rows, pivot columns) from ode._eliminate: the nonzero rows of
    the reduced row echelon form first, then zero rows."""
    reduced = ode._eliminate(_integer_rows(rows))
    m = [_dense(row, cols) for row in reduced.values()]
    return m + [_dense({}, cols) for _ in range(len(rows) - len(m))], list(reduced)


def _nullspace(matrix, cols):
    """Kernel basis from ode._eliminate: one vector per free column."""
    kernel = ode._kernel(ode._eliminate(_integer_rows(matrix)), cols)
    return [_dense(v, cols) for v in kernel.values()]


# --- reference: the dense Fraction Gauss-Jordan that _eliminate replaced ------


def _reference_row_reduce(rows, cols):
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


def _reference_nullspace(matrix, cols):
    """Kernel basis of an exact rational matrix: one vector per free column."""
    m, pivots = _reference_row_reduce(matrix, cols)
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


def _reference_echelon_solutions(kernel, basis):
    """Echelon-reduce kernel vectors over descending graded-lex monomial
    order and strip the constant solution."""
    order = list(range(len(basis) - 1, -1, -1))  # basis is ascending
    rows = [[vec[c] for c in order] for vec in kernel]
    reduced, pivots = _reference_row_reduce(rows, len(basis))
    const_col = len(basis) - 1  # constant monomial sits last in `order`
    solutions = []
    for row, lead in zip(reduced, pivots):
        if lead == const_col:
            continue
        f = ex.ZERO
        for c, v in enumerate(row):
            if v:
                f = f + ex.rational(v) * basis[order[c]]
        solutions.append(ex.canonicalize(f))
    return solutions


# --- reference: the Expr-operator checks that the polynomial layer replaced ---
#
# The earlier implementation, kept unchanged apart from names: every sum is
# an Expr operator and every partial derivative a fresh call of the
# product-rule reference in test_expr.


def _x_atom(i):
    return ex.JetVar(ode.field_name(i))


def _dx(e, i):
    return reference_diff(e, _x_atom(i))


def _dt(e):
    return reference_diff(e, ex.IndepVar(ode.TIME))


def _along(v, e):
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


def _reference_check_characteristic(sys, f):
    residual = canonicalize(_dt(f) - _along(sys.v, f))
    return is_identically_zero(residual), residual


def _reference_check_symmetry(sys, w):
    bracket = _lie_bracket(sys.v, w)
    residual = [canonicalize(_dt(w[i]) - bracket[i]) for i in range(sys.n)]
    return all(is_identically_zero(r) for r in residual), residual


def _reference_check_anchor(sys, alpha):
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


def _reference_anchor_apply(alpha, f):
    w = []
    for i in range(alpha.n):
        term = ex.ZERO
        for j in range(alpha.n):
            term = term + alpha.entry(i, j) * _dx(f, j)
        w.append(canonicalize(term))
    return tuple(w)


def _reference_schouten_square(alpha):
    n = alpha.n
    upper = {}
    for i, j, k in itertools.combinations(range(n), 3):
        total = ex.ZERO
        for a, b, c in ((i, j, k), (j, k, i), (k, i, j)):
            for m in range(n):
                total = total + alpha.entry(a, m) * _dx(alpha.entry(b, c), m)
        upper[(i, j, k)] = canonicalize(total)
    return ode.Trivector(n, upper)


def _reference_poisson_bracket(alpha, f, g):
    out = ex.ZERO
    for i in range(alpha.n):
        for j in range(alpha.n):
            out = out + alpha.entry(i, j) * _dx(f, i) * _dx(g, j)
    return canonicalize(out)


def _reference_deform(sys, alpha, hamiltonian):
    w = _reference_anchor_apply(alpha, hamiltonian)
    return ode.OdeSystem(
        [canonicalize(sys.v[i] + ode.TWIST_SIGN * w[i]) for i in range(sys.n)]
    )


def _reference_twist_invariance_check(sys, alpha, f, h):
    ok, _ = _reference_check_characteristic(sys, f)
    if not ok:
        return False, "f is not a characteristic of the original system"
    bracket = _reference_poisson_bracket(alpha, f, h)
    if any(not is_identically_zero(_dx(bracket, i)) for i in range(sys.n)):
        return False, "{f, H} depends on x; the twist is not invariant under f"
    g = ex.antiderivative(bracket, ode.TIME)
    deformed = _reference_deform(sys, alpha, h)
    ok, residual = _reference_check_characteristic(deformed, canonicalize(f - g))
    if not ok:
        return False, f"conservation failed with residual {ex.to_text(residual)}"
    return True, ex.to_text(g)


def _reference_proper_symmetry_conditions(sys, alpha, psi):
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


def _reference_differential(f, n):
    return tuple(_dx(f, i) for i in range(n))


def _reference_commutator_matches_bracket(alpha, f, g):
    wf = _reference_anchor_apply(alpha, f)
    wg = _reference_anchor_apply(alpha, g)
    lhs = _lie_bracket(wf, wg)
    rhs = _reference_anchor_apply(alpha, _reference_poisson_bracket(alpha, f, g))
    residual = [
        canonicalize(lhs[i] - ode.HOMOMORPHISM_SIGN * rhs[i]) for i in range(alpha.n)
    ]
    return all(is_identically_zero(r) for r in residual), residual


def _reference_monomials(n: int, max_degree: int):
    """Monomials in (t, x1..xn) of total degree <= max_degree, constant first,
    then ascending graded-lex."""
    gens = [ex.indep(ode.TIME)] + [ex.jet(ode.field_name(i)) for i in range(n)]
    return [
        math.prod((gens[g] for g in combo), start=ex.ONE)
        for total in range(max_degree + 1)
        for combo in itertools.combinations_with_replacement(range(len(gens)), total)
    ]


def _reference_search(sys_, max_degree):
    basis = _reference_monomials(sys_.n, max_degree)
    columns = []
    row_index = {}
    for mono in basis:
        residual = ex.canonicalize(_dt(mono) - _along(sys_.v, mono))
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
    kernel = _reference_nullspace(matrix, len(basis))
    return _reference_echelon_solutions(kernel, basis)


def _reference_rank(alpha, point, depth):
    n = alpha.n
    assignment = ode._point_assignment(point, n)
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
    rows = [[ex.evaluate(c, assignment) for c in vec] for vec in accumulated]
    return len(_reference_row_reduce(rows, n)[1])


# --- the sparse fraction-free routine against the reference -------------------


@settings(max_examples=200, deadline=None)
@given(_matrices)
def test_row_reduce_and_nullspace_match_reference(case):
    rows, cols = case
    assert _row_reduce(rows, cols) == _reference_row_reduce(rows, cols)
    assert _nullspace(rows, cols) == _reference_nullspace(rows, cols)


# rational coefficients with denominators > 1, so rows need integer scaling
_coefficients = st.builds(Fraction, st.integers(-6, 6).filter(bool), st.integers(2, 5))


@st.composite
def _polynomials(draw, n, max_degree):
    """Sums of up to three terms of degree <= max_degree in (x1..xn, t)."""
    gens = [ac.jet(ode.field_name(i)) for i in range(n)] + [t]
    f = ac.ZERO
    for _ in range(draw(st.integers(0, 3))):
        term = ac.rational(draw(_coefficients))
        for g in draw(st.lists(st.integers(0, len(gens) - 1), max_size=max_degree)):
            term = term * gens[g]
        f = f + term
    return f


@st.composite
def _systems(draw):
    n = draw(st.integers(1, 3))
    # a zero component leaves its coordinate conserved: nonempty answers
    v = [draw(st.just(ac.ZERO) | _polynomials(n, 2)) for _ in range(n)]
    return ode.OdeSystem(v), draw(st.integers(1, 4))


@settings(max_examples=100, deadline=None)
@given(_systems())
def test_search_matches_dense_reference(case):
    system, degree = case
    sols = [ac.to_text(s) for s in ode.search_characteristics(system, degree)]
    assert sols == [ac.to_text(f) for f in _reference_search(system, degree)]


def _kernel_rows(system, degree):
    """The integer rows of the search built on the kernel's generic path:
    each column's gradient by _shift_gradient and each product by
    _paddmul_into, as one multiset of {column: coefficient} rows."""
    den = math.lcm(*(vi._poly[1] for vi in system.v))
    w = {ode._T: ({(): -den}, 1)}
    w.update(zip(ode._x_atoms(system.n), (ex._pscale(vi._poly, den) for vi in system.v)))
    rows = {}
    for col, mono in enumerate(ode._monomials(system.n, degree)):
        grad = ex._shift_gradient(({mono: 1}, 1))[0]
        residual = ex._acc()
        for atom, wa in w.items():
            if atom in grad and wa[0]:
                ex._paddmul_into(residual, wa, grad[atom], -1)
        for m, coeff in residual[0].items():
            rows.setdefault(m, {})[col] = coeff
    return sorted(sorted(row.items()) for row in rows.values())


@settings(max_examples=100, deadline=None)
@given(_systems())
def test_search_rows_match_the_generic_kernel_path(case):
    # the rows read off the exponent shifts are the rows of the derivative
    # and product routines, integer for integer
    system, degree = case
    seen, real = [], ode._eliminate
    ode._eliminate = lambda rows: seen.append(sorted(sorted(r.items()) for r in rows)) or real(rows)
    try:
        ode.search_characteristics(system, degree)
    finally:
        ode._eliminate = real
    assert seen == [_kernel_rows(system, degree)]


@st.composite
def _bivectors_and_points(draw):
    n = draw(st.integers(2, 4))
    upper = {(i, j): draw(_polynomials(n, 2)) for i in range(n) for j in range(i + 1, n)}
    point = draw(st.lists(st.just(Fraction(0)) | _coefficients, min_size=n + 1, max_size=n + 1))
    return ode.Bivector(n, upper), point, draw(st.integers(0, 1 if n > 2 else 2))


@settings(max_examples=60, deadline=None)
@given(_bivectors_and_points())
def test_transitivity_rank_matches_dense_reference(case):
    alpha, point, depth = case
    assert ode.transitivity_rank(alpha, point, depth) == _reference_rank(alpha, point, depth)


# --- the polynomial-layer checks against the Expr-operator reference ----------


def _texts(residual):
    if isinstance(residual, dict):
        return {k: ac.to_text(v) for k, v in residual.items()}
    if isinstance(residual, (list, tuple)):
        return [ac.to_text(v) for v in residual]
    return ac.to_text(residual)


@st.composite
def _check_inputs(draw):
    """A system with n <= 3, a random antisymmetric anchor and random
    functions, all with rational coefficients and terms in t."""
    n = draw(st.integers(1, 3))
    free = draw(st.booleans())  # f without t is then a characteristic
    v = [ac.ZERO if free else draw(_polynomials(n, 2)) for _ in range(n)]
    alpha = ode.Bivector(
        n, {(i, j): draw(_polynomials(n, 2)) for i in range(n) for j in range(i + 1, n)}
    )
    f = draw(_polynomials(n, 2))
    if free:
        f = ac.substitute(f, {t: ac.ZERO})
    g, h = draw(_polynomials(n, 2)), draw(_polynomials(n, 2))
    w = [draw(_polynomials(n, 2)) for _ in range(n)]
    psi = [draw(_polynomials(n, 2)) for _ in range(n)]
    return ode.OdeSystem(v), alpha, f, g, h, w, psi


def _same(result, reference):
    """The same flag and residual texts, for (flag, residual) pairs."""
    return result[0] == reference[0] and _texts(result[1]) == _texts(reference[1])


@settings(max_examples=60, deadline=None)
@given(_check_inputs())
def test_checks_match_expr_operator_reference(case):
    system, alpha, f, g, h, w, psi = case
    psi_f = ode.differential(f, system.n)
    image = ode.anchor_apply(alpha, f)
    assert _texts(psi_f) == _texts(_reference_differential(f, system.n))
    assert _texts(image) == _texts(_reference_anchor_apply(alpha, f))
    assert _same(ode.check_characteristic(system, f), _reference_check_characteristic(system, f))
    for vec in (w, image):
        assert _same(ode.check_symmetry(system, vec), _reference_check_symmetry(system, vec))
    assert _same(ode.check_anchor(system, alpha), _reference_check_anchor(system, alpha))
    for form in (psi, psi_f):
        assert _same(
            ode.proper_symmetry_conditions(system, alpha, form),
            _reference_proper_symmetry_conditions(system, alpha, form),
        )
    assert _same(
        ode.commutator_matches_bracket(alpha, f, g),
        _reference_commutator_matches_bracket(alpha, f, g),
    )
    assert _texts(ode.schouten_square(alpha).upper) == _texts(
        _reference_schouten_square(alpha).upper
    )
    assert _texts(ode.poisson_bracket(alpha, f, g)) == _texts(
        _reference_poisson_bracket(alpha, f, g)
    )
    assert _texts(ode.deform(system, alpha, h).v) == _texts(_reference_deform(system, alpha, h).v)
    for hamiltonian in (h, g, f):
        assert ode.twist_invariance_check(
            system, alpha, f, hamiltonian
        ) == _reference_twist_invariance_check(system, alpha, f, hamiltonian)


# --- the node limit in the checks ----------------------------------------------


def _dense_poly(n, k):
    """k distinct terms in powers of x1..xn and t."""
    gens = [ac.jet(ode.field_name(i)) for i in range(n)] + [t]
    terms = (ac.rational(c + 1) * gens[c % len(gens)] ** (1 + c // len(gens)) for c in range(k))
    return ac.canonicalize(sum(terms, ac.ZERO))


def _ode_operation(name, n, k):
    """A thunk for one public check on operands built here, with n fields
    and k terms per component."""
    if name == "schouten_square":
        n += 1  # the square is empty below three fields
    system = ode.OdeSystem([_dense_poly(n, k) for _ in range(n)])
    alpha = ode.Bivector(n, {(i, j): _dense_poly(n, k) for i in range(n) for j in range(i + 1, n)})
    f, h = _dense_poly(n, k), _dense_poly(n, k + 1)
    psi = [_dense_poly(n, k) for _ in range(n)]
    return {
        "check_anchor": lambda: ode.check_anchor(system, alpha),
        "proper_symmetry_conditions": lambda: ode.proper_symmetry_conditions(system, alpha, psi),
        "schouten_square": lambda: ode.schouten_square(alpha),
        "twist_invariance_check": lambda: ode.twist_invariance_check(system, alpha, f, h),
        "search_characteristics": lambda: ode.search_characteristics(system, 2),
    }[name]


ODE_OPERATIONS = [
    "check_anchor",
    "proper_symmetry_conditions",
    "schouten_square",
    "twist_invariance_check",
    "search_characteristics",
]


@pytest.mark.parametrize("name", ODE_OPERATIONS)
def test_check_honours_node_limit_set_at_runtime(monkeypatch, name):
    call = _ode_operation(name, 3, 6)
    call()  # within the default limit
    monkeypatch.setattr(ex, "NODE_LIMIT", 10)
    with pytest.raises(ex.ResourceLimitError):
        call()


def test_search_refuses_a_term_product_over_the_node_limit(monkeypatch):
    # a column's product with a component of v is refused before any of its
    # terms is added, as _paddmul_into refuses it
    system = ode.OdeSystem([_dense_poly(1, 6)])
    monkeypatch.setattr(ex, "NODE_LIMIT", 5)
    with pytest.raises(ex.ResourceLimitError, match=r"6 x 1 term products"):
        ode.search_characteristics(system, 1)

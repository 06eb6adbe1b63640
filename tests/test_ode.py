import collections
import contextlib
import itertools
import math
import random
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import anchorcalc as ac
from anchorcalc import expr as ex
from anchorcalc import forms as fo
from anchorcalc import ode
from anchorcalc.expr import canonicalize, is_identically_zero
from test_expr import reference_diff  # the product-rule partial derivative
from tests_helpers_oracle import evaluate

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


def _count_kernel_products(monkeypatch, call):
    """call() with the coded product ode._mul_into counted; returns
    (result, products)."""
    products, real = [0], ode._mul_into

    def counted(*args, **kwargs):
        products[0] += 1
        return real(*args, **kwargs)

    monkeypatch.setattr(ode, "_mul_into", counted)
    try:
        return call(), products[0]
    finally:
        monkeypatch.setattr(ode, "_mul_into", real)


@pytest.mark.parametrize("n", [2, 3, 4, 6])
def test_proper_symmetry_of_a_differential_takes_no_closure_product(monkeypatch, n):
    # psi = df is closed, so the curl is zero and the closure conditions
    # take no product; the transport covector is -grad of the residual
    # d_t f - v . grad f, so it takes none either when f is a characteristic.
    # What is left is psi . v, one product per nonzero psi_k v_k
    rng = random.Random(n)
    alpha = SO3 if n == 3 else ode.canonical_bivector(n)
    xs = [ac.jet(ode.field_name(i)) for i in range(n)]
    # the quadratic part makes every psi_k and v_k nonzero
    h = rand_poly(rng, n, 3) + sum(((i + 1) * x**2 for i, x in enumerate(xs)), ac.ZERO)
    system = ode.deform(ode.free_system(n), alpha, h)
    for f, characteristic in ((h, True), (h + xs[0] * xs[-1], False)):
        assert ode.check_characteristic(system, f)[0] == characteristic
        psi = ode.differential(f, n)
        psi_v = sum(1 for p, v in zip(psi, system.v) if p._poly[0] and v._poly[0])
        # one transport product per nonzero alpha^{il} meeting a nonzero g_i
        grad = [ex.diff(ode.check_characteristic(system, f)[1], x) for x in xs]
        transport = sum(
            1
            for i, l in itertools.product(range(n), repeat=2)
            if not is_identically_zero(alpha.entry(i, l)) and not is_identically_zero(grad[i])
        )
        (ok, residuals), products = _count_kernel_products(
            monkeypatch, lambda: ode.proper_symmetry_conditions(system, alpha, psi)
        )
        assert products == psi_v + transport
        assert not any(name.startswith("closure") for name in residuals)
        assert psi_v and (transport == 0) == characteristic == ok


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


def _dense_anchor(n):
    """The dense-anchor model: v = [x2, ..., xn, x1] and, with 1-based
    indices, alpha^{ij} = x((i+j) mod n + 1), so every operand has one
    nonzero partial."""
    xs = [ac.jet(ode.field_name(i)) for i in range(n)]
    upper = {(i, j): xs[(i + j + 2) % n] for i in range(n) for j in range(i + 1, n)}
    return ode.OdeSystem(xs[1:] + xs[:1]), ode.Bivector(n, upper)


def test_contractions_read_each_operand_at_most_n_times(monkeypatch):
    # the checks contract over nonzero partials only: each distinct operand
    # value is filled once, with at most n partials, and no product has a
    # zero factor, where a loop over every index looked up 3n C(n, 3) = 7,920
    # partials in the square at n = 12
    n = 12
    system, alpha = _dense_anchor(n)
    fills, partials = collections.Counter(), collections.Counter()
    fill, mul_into = ode.CodeTable._fill, ode._mul_into

    def counted(table, e):
        entry = fill(table, e)
        fills[e] += 1
        partials[e] += len(entry[2]) + bool(entry[1][0])
        return entry

    def nonzero(acc, p, q, k=1):
        assert p[0] and q[0], "a kernel product with a zero factor"
        return mul_into(acc, p, q, k)

    monkeypatch.setattr(ode.CodeTable, "_fill", counted)
    monkeypatch.setattr(ode, "_mul_into", nonzero)
    for passes, bound in (
        (lambda: ode.schouten_square(alpha).is_zero(), n * n * (n - 1)),  # n per alpha^{qr}
        (lambda: ode.check_anchor(system, alpha)[0], n * (n * (n - 1) + n)),  # and per v^i
    ):
        fills.clear()
        partials.clear()
        assert not passes()  # both FAIL on this model
        assert max(fills.values()) == 1
        assert max(partials.values()) <= n
        assert sum(partials.values()) <= bound


def _summed_products(monkeypatch):
    """A list that holds the term products of every coded product taken."""
    formed, mul_into = [], ode._mul_into

    def counted(acc, p, q, k=1):
        formed.append(len(p[0]) * len(q[0]))
        return mul_into(acc, p, q, k)

    monkeypatch.setattr(ode, "_mul_into", counted)
    return formed


def _budget_models():
    """The dense-anchor model at n = 12 and a model whose entries hold
    several terms each, so that the counts weigh support sizes."""
    xs = [ac.jet(ode.field_name(i)) for i in range(5)]
    v = [xs[1] * xs[2] + 3 * xs[0], xs[2] ** 2 - t * xs[3], xs[4], xs[0] * xs[4] + 1, xs[1]]
    upper = {
        (i, j): xs[(i + j) % 5] * xs[j] + xs[i] ** 2 - 2 * t
        for i, j in itertools.combinations(range(5), 2)
        if (i + j) % 3
    }
    return [_dense_anchor(12), (ode.OdeSystem(v), ode.Bivector(5, upper))]


@pytest.mark.parametrize("model", range(2))
def test_check_budget_counts_the_term_products_exactly(monkeypatch, model):
    # with the check budget at a check's own count, the check runs and
    # forms exactly that many term products; one less refuses it
    system, alpha = _budget_models()[model]
    for check in (lambda: ode.schouten_square(alpha), lambda: ode.check_anchor(system, alpha)):
        formed = _summed_products(monkeypatch)
        monkeypatch.setitem(ex.BUDGETS, "check budget", (0, "term products"))
        with pytest.raises(ex.ResourceLimitError, match="check budget") as refusal:
            check()
        count = int(str(refusal.value).split("(")[1].split(" ")[0])
        assert count > 0 and formed == []
        monkeypatch.setitem(ex.BUDGETS, "check budget", (count, "term products"))
        check()
        assert sum(formed) == count
        monkeypatch.setitem(ex.BUDGETS, "check budget", (count - 1, "term products"))
        with pytest.raises(ex.ResourceLimitError):
            check()


def test_refused_check_takes_no_product(monkeypatch):
    # the dense-anchor square at n = 60 would form 100,949 term products
    # over 34,220 triples; it is refused from the supports alone
    system, alpha = _dense_anchor(60)
    formed = _summed_products(monkeypatch)
    message = r"the Schouten square exceeds the check budget \(100949 term products > 100000\)"
    with pytest.raises(ex.ResourceLimitError, match=message):
        ode.schouten_square(alpha)
    monkeypatch.setitem(ex.BUDGETS, "check budget", (5249, "term products"))
    message = r"the anchor check exceeds the check budget \(5250 term products > 5249\)"
    with pytest.raises(ex.ResourceLimitError, match=message):
        ode.check_anchor(system, alpha)
    assert formed == []


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
    with pytest.raises(ac.UnsupportedInputError, match="another"):
        ode.transitivity_rank(alpha, [0, 0, 1], 0)


def test_rank_of_function_atoms_is_exact():
    # the anchor is zero modulo sin^2 + cos^2 - 1, and sin(0) is exactly 0
    identity = ode.Bivector(2, {(0, 1): ac.sin(x1) ** 2 + ac.cos(x1) ** 2 - 1})
    assert ode.transitivity_rank(identity, [0, Fraction(1, 3), 2], 0) == 0
    sine = ode.Bivector(2, {(0, 1): ac.sin(x1)})
    assert ode.transitivity_rank(sine, [0, 0, 2], 0) == 0
    # sin(1/3) is irrational, so the rank is refused, not approximated
    with pytest.raises(ac.UnsupportedInputError, match=r"sin\(1/3\)"):
        ode.transitivity_rank(sine, [0, Fraction(1, 3), 2], 0)


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


_TABLES = pytest.mark.parametrize("cls, rank", [(ode.Bivector, 2), (ode.Trivector, 3)])


@_TABLES
def test_antisymmetric_table_refuses_bad_indices(cls, rank):
    n = 4
    first = tuple(range(rank))  # (0, 1) or (0, 1, 2)
    table = cls(n, {first: x1, first[:-1] + (n - 1,): ac.ZERO})
    assert table.upper == {first: x1} and not table.is_zero()
    bad = [
        first[::-1],  # out of order
        (1, 0) + first[2:],
        (0,) * rank,  # repeated
        first[:-1] + (first[-2],),
        (-1,) + first[1:],  # negative
        first[:-1] + (n,),  # too large
        first[:-1],  # too few
        first + (n - 1,),  # too many
    ]
    for index in bad:
        with pytest.raises(ValueError, match="entries need"):
            cls(n, {index: x1})


@_TABLES
def test_antisymmetric_entry_carries_the_permutation_sign(cls, rank):
    n = rank + 2
    upper = {
        index: (k + 1) * x1 + k for k, index in enumerate(itertools.combinations(range(n), rank))
    }
    table = cls(n, upper)
    for index, value in upper.items():
        for perm in itertools.permutations(index):
            inversions = sum(a > b for a, b in itertools.combinations(perm, 2))
            assert fo._merge_sign(perm, ()) == ((-1) ** inversions, index)
            assert table.entry(*perm) == (-1) ** inversions * value
    for index in itertools.product(range(n), repeat=rank):
        if len(set(index)) < rank:
            assert table.entry(*index) == ac.ZERO
    for count in (rank - 1, rank + 1):
        with pytest.raises(TypeError, match=f"entry takes {rank} indices"):
            table.entry(*range(count))


# x3 is no field of a system of n = 2: read as a constant, it would let a
# check pass unsoundly, so every public operand refuses it, inside a
# function atom's argument too
_FOREIGN = {
    "OdeSystem": lambda: ode.OdeSystem([x3, x1]),
    "OdeSystem n = 1": lambda: ode.OdeSystem([x2]),
    "Bivector": lambda: ode.Bivector(2, {(0, 1): x3}),
    "check_characteristic": lambda: ode.check_characteristic(ode.OdeSystem([x1]), x2),
    "check_symmetry": lambda: ode.check_symmetry(OSC, [x3, x1]),
    "anchor_apply": lambda: ode.anchor_apply(CANON, x3),
    "poisson_bracket f": lambda: ode.poisson_bracket(CANON, x3, x1),
    "poisson_bracket g": lambda: ode.poisson_bracket(CANON, x1, ac.sin(x3)),
    "deform": lambda: ode.deform(OSC, CANON, x1 * x3),
    "twist_invariance_check f": lambda: ode.twist_invariance_check(OSC, CANON, x3, ENERGY),
    "twist_invariance_check H": lambda: ode.twist_invariance_check(OSC, CANON, ENERGY, x3),
    "proper_symmetry_conditions": lambda: ode.proper_symmetry_conditions(OSC, CANON, [x1, x3]),
    "differential": lambda: ode.differential(ac.exp(x3), 2),
    "commutator_matches_bracket f": lambda: ode.commutator_matches_bracket(CANON, x3, x1),
    "commutator_matches_bracket g": lambda: ode.commutator_matches_bracket(CANON, x1, x3),
}


@pytest.mark.parametrize("call", list(_FOREIGN.values()), ids=list(_FOREIGN))
def test_field_outside_x1_to_xn_is_refused(call):
    with pytest.raises(ex.UnsupportedInputError, match=r"x1\.\.x\d only, n = \d, found x\d$"):
        call()


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
        if math.comb(n + 1 + degree, degree) > ex.BUDGETS["column budget"][0]:
            with pytest.raises(ac.ResourceLimitError, match="monomials"):
                ode.search_characteristics(system, degree)
        else:
            with pytest.raises(_Built):
                ode.search_characteristics(system, degree)


def test_search_budget_admits_every_degree_up_to_three_fields():
    d = ode.MAX_SEARCH_DEGREE
    assert math.comb(3 + 1 + d, d) <= ex.BUDGETS["column budget"][0]


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
    assignment = {t: point[0]}
    assignment.update((ac.jet(f"x{i}"), v) for i, v in enumerate(point[1:], 1))
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
    rows = [[evaluate(c, assignment) for c in vec] for vec in accumulated]
    return len(_reference_row_reduce(rows, n)[1])


# --- the sparse fraction-free routine against the reference -------------------


@settings(max_examples=200, deadline=None)
@given(_matrices)
def test_row_reduce_and_nullspace_match_reference(case):
    rows, cols = case
    assert _row_reduce(rows, cols) == _reference_row_reduce(rows, cols)
    assert _nullspace(rows, cols) == _reference_nullspace(rows, cols)


@st.composite
def _sparse_systems(draw):
    """20-80 integer rows, as dense Fraction rows: mostly singletons and
    rows of two or three entries, then three dense rows, so that a
    new pivot back-substitutes into many reduced rows."""
    cols = draw(st.integers(10, 40))
    column, entry = st.integers(0, cols - 1), st.integers(-9, 9).filter(bool)
    singleton = st.dictionaries(column, entry, min_size=1, max_size=1)
    short = st.dictionaries(column, entry, min_size=2, max_size=3)
    dense = st.dictionaries(column, entry, min_size=cols // 2, max_size=cols)
    sparse = draw(st.lists(singleton | short, min_size=17, max_size=77))
    rows = sparse + draw(st.lists(dense, min_size=3, max_size=3))
    return [[Fraction(row.get(c, 0)) for c in range(cols)] for row in rows], cols


@settings(max_examples=40, deadline=None)
@given(_sparse_systems())
def test_row_reduce_and_nullspace_match_reference_on_large_sparse_systems(case):
    rows, cols = case
    assert _row_reduce(rows, cols) == _reference_row_reduce(rows, cols)
    assert _nullspace(rows, cols) == _reference_nullspace(rows, cols)


def _peel_matrix(seed):
    """A seeded rational matrix, as dense Fraction rows, that the peel
    reduces much of, and the columns that its chains force.  It holds
    single-entry rows, some on one column twice, zero rows, chains
    {c0}, {c0, c1}, ..., {c(k-1), ck} in which each row drops to one entry
    only after the peel of the row before, a row with a content left once
    its forced column is dropped, and short and dense rows."""
    rng = random.Random(seed)
    cols = rng.randint(6, 30)

    def entry():
        return Fraction(rng.choice([-1, 1]) * rng.randint(1, 9), rng.randint(1, 4))

    rows, chained = [], set()
    for _ in range(rng.randint(1, 3)):
        chain = rng.sample(range(cols), rng.randint(2, 6))
        chained.update(chain)
        rows.append({chain[0]: entry()})
        rows += [{a: entry(), b: entry()} for a, b in zip(chain, chain[1:])]
    singles = [{rng.randrange(cols): entry()} for _ in range(rng.randint(0, cols))]
    rows += singles + [{c: entry()} for r in singles[:3] for c in r]  # the same columns again
    rows += [{}] * rng.randint(1, 3)
    c0, c1, c2 = rng.sample(range(cols), 3)
    rows += [{c0: Fraction(1)}, {c0: Fraction(3), c1: Fraction(6), c2: Fraction(-9)}]
    for size in [rng.randint(2, 4) for _ in range(cols // 2)] + [cols // 2] * 2:
        rows.append({c: entry() for c in rng.sample(range(cols), size)})
    rng.shuffle(rows)
    return [[row.get(c, Fraction(0)) for c in range(cols)] for row in rows], cols, chained


@pytest.mark.parametrize("seed", range(40))
def test_row_reduce_and_nullspace_match_reference_on_peeled_systems(seed):
    rows, cols, chained = _peel_matrix(seed)
    assert _row_reduce(rows, cols) == _reference_row_reduce(rows, cols)
    assert _nullspace(rows, cols) == _reference_nullspace(rows, cols)
    # every chain is forced through its cascade, the rows left hold no
    # forced column, each row that lost one is primitive, and the input
    # rows are not changed
    integer = _integer_rows(rows)
    before = [dict(r) for r in integer]
    forced, rest = ode._peel(integer)
    assert integer == before
    assert chained <= forced.keys() and all(forced[c] == {c: 1} for c in forced)
    assert all(len(r) > 1 and not r.keys() & forced.keys() for r in rest)
    assert all(r in integer or math.gcd(*r.values()) == 1 for r in rest)


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


# v with a negative power, a power far past any other exponent, no
# field at all, t alone, a Laurent polynomial, t times a rotation, and
# powers of both signs in a field that is not the last one coded
_CODE_WIDTH_SYSTEMS = {
    "[x1^-3]": [x1**-3],
    "[x1^1000000000000]": [x1**1000000000000],
    "[0, 0]": [ac.ZERO, ac.ZERO],
    "[t]": [t],
    "[x2/x1, -x1]": [x2 / x1, -x1],
    "[t*x2, -t*x1]": [t * x2, -t * x1],
    "[x1^3 + x1^-3, x2]": [x1**3 + x1**-3, x2],
}


@pytest.mark.parametrize("degree", [3, 9])
@pytest.mark.parametrize("name", sorted(_CODE_WIDTH_SYSTEMS))
def test_search_codes_match_the_tuple_product_rows(monkeypatch, name, degree):
    # the rows keyed by monomial codes are the rows of the generic kernel
    # path, whose products merge monomial tuples in ex._mono_mul
    system = ode.OdeSystem(_CODE_WIDTH_SYSTEMS[name])
    seen, real = [], ode._eliminate

    def eliminate(rows):
        seen.append(sorted(sorted(r.items()) for r in rows))
        return real(rows)

    monkeypatch.setattr(ode, "_eliminate", eliminate)
    ode.search_characteristics(system, degree)
    assert seen == [_kernel_rows(system, degree)]


def test_euler_top_search_builds_no_monomial_and_cancels_no_peeled_column(monkeypatch):
    system = ode.OdeSystem([x2 * x3, -2 * x1 * x3, x1 * x2])
    products, peeled, cancelled = [], set(), []
    peel, cancel, mono_mul = ode._peel, ode._cancel, ex._mono_mul
    monkeypatch.setattr(ex, "_mono_mul", lambda *a: products.append(a) or mono_mul(*a))
    monkeypatch.setattr(ode, "_peel", lambda rows: peeled.update((out := peel(rows))[0]) or out)
    monkeypatch.setattr(ode, "_cancel", lambda r, c, p: cancelled.append(c) or cancel(r, c, p))
    sols = ode.search_characteristics(system, 5)
    assert len(sols) == 5  # the products of degree <= 2 of two quadratic invariants
    assert products == []
    assert peeled and cancelled and not peeled & set(cancelled)


def _sorted_pair_monomials(n: int, max_degree: int):
    """The search basis built by sorting each monomial's (atom, count) pairs."""
    gens = [ode._T] + ode._x_atoms(n)
    return [
        tuple(sorted((gens[g], combo.count(g)) for g in set(combo)))
        for total in range(max_degree + 1)
        for combo in itertools.combinations_with_replacement(range(len(gens)), total)
    ]


@pytest.mark.parametrize("n", [1, 2, 3, 10, 11])
def test_search_basis_matches_the_sorted_pair_construction(n):
    # at n >= 10 the atom order of the fields (x1, x10, x11, x2, ...) is not
    # their generator order, and t sorts after every field
    for max_degree in range(5):
        assert ode._monomials(n, max_degree) == _sorted_pair_monomials(n, max_degree)


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
def _components(draw, n):
    """Zero one time in four, else a sum as in _polynomials, now and then
    plus a term times exp(x_k): such a term puts x_k into the partials
    through the chain rule, and exp needs no reduction modulo
    sin^2 + cos^2 - 1, so the dense reference still applies."""
    if draw(st.integers(0, 3)) == 0:
        return ac.ZERO
    e = draw(_polynomials(n, 2))
    if draw(st.booleans()):
        x = ac.jet(ode.field_name(draw(st.integers(0, n - 1))))
        e = e + draw(_polynomials(n, 1)) * ac.exp(x)
    return e


@st.composite
def _check_inputs(draw):
    """A system with n <= 5, so up to 10 triples in the Schouten square, a
    random antisymmetric anchor and random functions, all with rational
    coefficients and terms in t, any entry of which may be zero."""
    n = draw(st.integers(1, 5))
    free = draw(st.booleans())  # f without t is then a characteristic
    v = [ac.ZERO if free else draw(_components(n)) for _ in range(n)]
    alpha = ode.Bivector(
        n, {(i, j): draw(_components(n)) for i in range(n) for j in range(i + 1, n)}
    )
    f = draw(_components(n))
    if free:
        f = ac.substitute(f, {t: ac.ZERO})
    g, h = draw(_components(n)), draw(_components(n))
    w = [draw(_components(n)) for _ in range(n)]
    psi = [draw(_components(n)) for _ in range(n)]
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


# --- reference: the tuple path that the monomial-code tables replaced ----------
#
# The earlier implementation, kept unchanged apart from names and docstrings:
# every partial is expr._gradient, memoised per operand object of one call,
# and every product an expr._paddmul_into merge of monomial tuples.  The
# check budget, which refuses before any product, is left out.


class _ReferencePartials:
    def __init__(self, n):
        self._index = {ode.field_name(k): k for k in range(n)}
        self._grads = {}

    def grad(self, e):
        memo = self._grads.get(id(e))
        if memo is None:
            pairs, index = [], self._index
            for a in ex._support(e):
                if type(a) is ex.JetVar and not a[2][0] and a[1] in index:  # a field x_k
                    p = ex._gradient(e, a)
                    if p[0]:
                        pairs.append((index[a[1]], p))
            pairs.sort()
            memo = self._grads[id(e)] = e, pairs  # e stays alive, so its id stays its own
        return memo[1]

    def addmul(self, acc, coeffs, pairs, sign=1):
        for k, p in pairs:
            c = coeffs[k]._poly
            if c[0]:
                ex._paddmul_into(acc, c, p, sign)
        return acc

    def residual(self, e):
        p = ex._pythagorean_normal(e._poly)
        return e if p is e._poly else ex._expr(p)


def _reference_tuple_characteristic_of(tab, sys, f):
    acc = tab.addmul(ex._acc(ex._gradient(f, ode._T)), sys.v, tab.grad(f), -1)
    residual = tab.residual(ex._expr_sum(acc))
    return is_identically_zero(residual), residual


def _reference_tuple_bracket(tab, a, b, out=None):
    out = out or [ex._acc() for _ in a]
    for ai, bi, acc in zip(a, b, out):
        tab.addmul(acc, a, tab.grad(bi))
        tab.addmul(acc, b, tab.grad(ai), -1)
    return [ex._expr_sum(acc) for acc in out]


def _reference_tuple_image(tab, a, f):
    return [_reference_tuple_pairing(tab, f, row) for row in a]


def _reference_tuple_pairing(tab, f, w):
    return ex._expr_sum(tab.addmul(ex._acc(), w, tab.grad(f)))


def _reference_tuple_deformed(sys, alpha_dh):
    return ode.OdeSystem(
        ex._expr(ex._psum(vi._poly, wi._poly, ode.TWIST_SIGN)) for vi, wi in zip(sys.v, alpha_dh)
    )


def _reference_tuple_check_characteristic(sys, f):
    f = ode._check_zeroth_order(f, "a characteristic", sys.n)
    return _reference_tuple_characteristic_of(_ReferencePartials(sys.n), sys, f)


def _reference_tuple_check_symmetry(sys, w):
    w = tuple(ode._check_zeroth_order(c, "a vertical vector", sys.n) for c in w)
    tab = _ReferencePartials(sys.n)
    start = [ex._acc(ex._gradient(wi, ode._T)) for wi in w]
    residual = [tab.residual(r) for r in _reference_tuple_bracket(tab, w, sys.v, start)]
    return all(is_identically_zero(r) for r in residual), residual


def _reference_tuple_check_anchor(sys, alpha):
    tab, a, v, n = _ReferencePartials(sys.n), ode._matrix(sys, alpha), sys.v, sys.n
    dv = [tab.grad(vi) for vi in v]
    da = {(i, j): tab.grad(a[i][j]) for i, j in itertools.combinations(range(n), 2)}
    residual = {}
    for (i, j), pairs in da.items():
        acc = tab.addmul(ex._acc(ex._gradient(a[i][j], ode._T)), v, pairs, -1)
        tab.addmul(acc, a[j], dv[i], -1)
        tab.addmul(acc, a[i], dv[j])
        r = tab.residual(ex._expr_sum(acc))
        if not is_identically_zero(r):
            residual[(i, j)] = r
    return not residual, residual


def _reference_tuple_anchor_apply(alpha, f):
    f = ode._check_zeroth_order(f, "a characteristic", alpha.n)
    return tuple(_reference_tuple_image(_ReferencePartials(alpha.n), alpha.matrix(), f))


def _reference_tuple_schouten_square(alpha):
    n = alpha.n
    tab, a = _ReferencePartials(n), alpha.matrix()
    da = {(q, r): tab.grad(a[q][r]) for q, r in itertools.combinations(range(n), 2)}
    upper = {}
    for i, j, k in itertools.combinations(range(n), 3):
        acc = tab.addmul(ex._acc(), a[i], da[j, k])
        tab.addmul(acc, a[j], tab.grad(a[k][i]))
        tab.addmul(acc, a[k], da[i, j])
        upper[(i, j, k)] = tab.residual(ex._expr_sum(acc))
    return ode.Trivector(n, upper)


def _reference_tuple_poisson_bracket(alpha, f, g):
    f, g = (ode._check_zeroth_order(e, "a characteristic", alpha.n) for e in (f, g))
    tab = _ReferencePartials(alpha.n)
    return _reference_tuple_pairing(tab, f, _reference_tuple_image(tab, alpha.matrix(), g))


def _reference_tuple_twist_invariance_check(sys, alpha, f, hamiltonian, is_characteristic=None):
    f, h = (ode._check_zeroth_order(e, "a characteristic", sys.n) for e in (f, hamiltonian))
    tab, a = _ReferencePartials(sys.n), ode._matrix(sys, alpha)
    if is_characteristic is None:
        is_characteristic = _reference_tuple_characteristic_of(tab, sys, f)[0]
    if not is_characteristic:
        return False, "f is not a characteristic of the original system"
    alpha_dh = _reference_tuple_image(tab, a, h)
    bracket = tab.residual(_reference_tuple_pairing(tab, f, alpha_dh))
    if tab.grad(bracket):
        return False, "{f, H} depends on x; the twist is not invariant under f"
    g = ex._poly_antiderivative(bracket._poly, ode.TIME)
    conserved = ex._expr(ex._psum(f._poly, g, -1))
    deformed = _reference_tuple_deformed(sys, alpha_dh)
    ok, residual = _reference_tuple_characteristic_of(tab, deformed, conserved)
    if not ok:
        return False, f"conservation failed with residual {ex.to_text(residual)}"
    return True, ex.to_text(ex._expr(g))


def _reference_tuple_proper_symmetry_conditions(sys, alpha, psi):
    psi = tuple(ode._check_zeroth_order(c, "a vertical form", sys.n) for c in psi)
    tab, a = _ReferencePartials(sys.n), ode._matrix(sys, alpha)
    acc = tab.addmul(ex._acc(), psi, [(k, vk._poly) for k, vk in enumerate(sys.v) if vk._poly[0]])
    d_psi_v = dict(tab.grad(ex._expr_sum(acc)))
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
        if (g := ex._psum(d_psi_v.get(i, ex._ZERO_POLY), ex._gradient(pi, ode._T), -1))[0]
    ]
    residuals = {}
    for l, row in enumerate(a):
        for k, covector in enumerate(curl + [transport]):
            acc = tab.addmul(ex._acc(), row, covector, -1)
            r = tab.residual(ex._expr_sum(acc)) if acc[0] else ex.ZERO
            if not is_identically_zero(r):
                name = f"closure[l={l + 1},k={k + 1}]" if k < sys.n else f"transport[l={l + 1}]"
                residuals[name] = r
    return not residuals, residuals


def _reference_tuple_differential(f, n):
    out = [ex.ZERO] * n
    for k, p in _ReferencePartials(n).grad(ode._check_zeroth_order(f, "a characteristic", n)):
        out[k] = ex._expr(p)
    return tuple(out)


def _reference_tuple_commutator_matches_bracket(alpha, f, g):
    f, g = (ode._check_zeroth_order(e, "a characteristic", alpha.n) for e in (f, g))
    tab, a = _ReferencePartials(alpha.n), alpha.matrix()
    a_dg = _reference_tuple_image(tab, a, g)
    rhs = _reference_tuple_image(tab, a, _reference_tuple_pairing(tab, f, a_dg))
    out = [ex._acc(ex._pscale(r._poly, -ode.HOMOMORPHISM_SIGN)) for r in rhs]
    bracket = _reference_tuple_bracket(tab, _reference_tuple_image(tab, a, f), a_dg, out)
    residual = [tab.residual(r) for r in bracket]
    return all(is_identically_zero(r) for r in residual), residual


def _reference_tuple_transitivity_rank(alpha, point, depth=0):
    n = alpha.n
    coords = [Fraction(v) for v in point]
    at_point = dict(zip([ode._T] + ode._x_atoms(n), coords))
    accumulated = [alpha.column(l) for l in range(n)]
    frontier = list(accumulated)
    tab = _ReferencePartials(n)
    for _ in range(depth):
        frontier = [_reference_tuple_bracket(tab, a, b) for a in accumulated for b in frontier]
        accumulated.extend(frontier)
    rows = []
    for vec in accumulated:
        values = []
        for c in vec:
            try:
                r = tab.residual(ex.substitute(c, at_point))
            except ex.UnsupportedInputError as exc:
                raise ex.UnsupportedInputError(
                    f"singular point, pick another one: {ex.to_text(c)} is undefined there"
                ) from exc
            if not isinstance(r, ex.Rat):
                raise ex.UnsupportedInputError(f"{ex.to_text(r)} is not rational at the point")
            values.append(r.value)
        den = math.lcm(*(v.denominator for v in values))
        rows.append({c: v.numerator * (den // v.denominator) for c, v in enumerate(values) if v})
    return len(ode._eliminate(rows))


# --- the monomial-code tables against the tuple path ---------------------------


@st.composite
def _laurent_components(draw, n, size):
    """Zero one time in five, else a sum of up to three terms, each a
    rational times up to two factors: a power of x_k or t with an exponent
    of either sign up to `size`, or of sin/cos/exp/log of x_k, of 1/x_k, of
    t*x_k or of x_k + t, whose partials go through the chain rule (those
    through the log of a sum raise, in both paths alike)."""
    if draw(st.integers(0, 4)) == 0:
        return ac.ZERO
    gens = [ac.jet(ode.field_name(i)) for i in range(n)] + [t]
    exponent = st.integers(-size, size).filter(bool)
    e = ac.ZERO
    for _ in range(draw(st.integers(1, 3))):
        term = ac.rational(draw(_coefficients))
        for _ in range(draw(st.integers(0, 2))):
            if draw(st.integers(0, 3)):
                term = term * gens[draw(st.integers(0, n))] ** draw(exponent)
            else:
                x = gens[draw(st.integers(0, n - 1))]
                arg = draw(st.sampled_from([x, 1 / x, t * x, x + t]))
                fn = draw(st.sampled_from([ac.sin, ac.cos, ac.exp, ac.log]))
                term = term * fn(arg) ** draw(st.integers(-2, 2))
        e = e + term
    return e


@st.composite
def _code_models(draw):
    """A model as a model file holds it, with exponents up to `size` in
    size, and the bound of the table its checks share: the bound that the
    table of a run derives from the model, or one drawn below it, so that
    operands pass it and the checks restart on wider tables."""
    n = draw(st.integers(1, 3))
    size = draw(st.sampled_from([1, 2, 3, 7, 8, 15, 16, 100]))
    comp = _laurent_components(n, size)
    v = [draw(comp) for _ in range(n)]
    alpha = ode.Bivector(n, {(i, j): draw(comp) for i in range(n) for j in range(i + 1, n)})
    f, g, h = draw(comp), draw(comp), draw(comp)
    w = [draw(comp) for _ in range(n)]
    system = ode.OdeSystem(v)
    values = [*v, *alpha.upper.values(), f, g, h, *w]
    derived = ode.CodeTable(n, values).bound
    bound = draw(st.sampled_from([derived, draw(st.integers(0, derived))]))
    return system, alpha, f, g, h, w, bound


@contextlib.contextmanager
def _narrow_tables(bound):
    """Every table built from values gets `bound` in place of the bound that
    it derives from them, so that operands pass it and an operation
    restarts; yields the list of the bounds of the tables built without
    values, the wider tables of the restarts among them."""
    init, wider = ode.CodeTable.__init__, []

    def narrow(table, n, values=(), **kwargs):
        if values:
            init(table, n, bound=bound)
        else:
            init(table, n, **kwargs)
            wider.append(table.bound)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(ode.CodeTable, "__init__", narrow)
        yield wider


def _outcome(call):
    """(True, the result of call()), or (False, the type and text of the
    ExprError it raised)."""
    try:
        return True, call()
    except ex.ExprError as exc:
        return False, (type(exc), str(exc))


@settings(max_examples=120, deadline=None)
@given(_code_models())
# a coefficient whose partials raise, as they go through the log of a sum:
# the checks that read no partial of it must not raise
@example((ode.OdeSystem([ac.log(x1 + t)]), ode.Bivector(1), x1, t, x1, [x1], 3))
def test_code_tables_match_the_tuple_path(case):
    # every check of a run on one shared table, as cli.run_checks runs them,
    # and the library calls that take no table on tables of their own with
    # the same bound, each with the parent's tuple path as reference
    system, alpha, f, g, h, w, bound = case
    codes = ode.CodeTable(system.n, bound=bound)
    image = _outcome(lambda: ode.anchor_apply(alpha, f, codes=codes))
    assert image == _outcome(lambda: _reference_tuple_anchor_apply(alpha, f))
    psi = _outcome(lambda: ode.differential(f, system.n, codes=codes))
    assert psi == _outcome(lambda: _reference_tuple_differential(f, system.n))
    characteristic = _outcome(lambda: ode.check_characteristic(system, f, codes=codes))
    assert characteristic == _outcome(lambda: _reference_tuple_check_characteristic(system, f))
    pairs = [
        (
            lambda: ode.check_anchor(system, alpha, codes=codes),
            lambda: _reference_tuple_check_anchor(system, alpha),
        ),
        (
            lambda: ode.schouten_square(alpha, codes=codes).upper,
            lambda: _reference_tuple_schouten_square(alpha).upper,
        ),
        (
            lambda: ode.poisson_bracket(alpha, f, g),
            lambda: _reference_tuple_poisson_bracket(alpha, f, g),
        ),
        (
            lambda: ode.commutator_matches_bracket(alpha, f, g),
            lambda: _reference_tuple_commutator_matches_bracket(alpha, f, g),
        ),
    ]
    for ok, vec in ((True, w), image):
        if ok:
            pairs.append(
                (
                    lambda vec=vec: ode.check_symmetry(system, vec, codes=codes),
                    lambda vec=vec: _reference_tuple_check_symmetry(system, vec),
                )
            )
    if psi[0]:
        pairs.append(
            (
                lambda: ode.proper_symmetry_conditions(system, alpha, psi[1], codes=codes),
                lambda: _reference_tuple_proper_symmetry_conditions(system, alpha, psi[1]),
            )
        )
    for flag in (None, True):
        for ham in (h, g):
            pairs.append(
                (
                    lambda flag=flag, ham=ham: ode.twist_invariance_check(
                        system, alpha, f, ham, flag, codes=codes
                    ),
                    lambda flag=flag, ham=ham: _reference_tuple_twist_invariance_check(
                        system, alpha, f, ham, flag
                    ),
                )
            )
    for call, reference in pairs:
        with _narrow_tables(bound):
            outcome = _outcome(call)
        assert outcome == _outcome(reference)


@st.composite
def _rank_cases(draw):
    n = draw(st.integers(2, 3))
    size = draw(st.sampled_from([1, 2, 3, 8]))
    comp = _laurent_components(n, size)
    alpha = ode.Bivector(n, {(i, j): draw(comp) for i in range(n) for j in range(i + 1, n)})
    point = draw(st.lists(st.just(Fraction(0)) | _coefficients, min_size=n + 1, max_size=n + 1))
    bound = draw(st.integers(0, ode.CodeTable(n, alpha.upper.values()).bound))
    return alpha, point, draw(st.integers(0, 2 if n == 2 else 1)), bound


@settings(max_examples=60, deadline=None)
@given(_rank_cases())
def test_transitivity_rank_on_code_tables_matches_the_tuple_path(case):
    alpha, point, depth, bound = case
    reference = _outcome(lambda: _reference_tuple_transitivity_rank(alpha, point, depth))
    assert _outcome(lambda: ode.transitivity_rank(alpha, point, depth)) == reference
    with _narrow_tables(bound):
        assert _outcome(lambda: ode.transitivity_rank(alpha, point, depth)) == reference


def test_an_exponent_past_the_bound_restarts_on_a_wider_table(monkeypatch):
    # a table codes every exponent k whose partial exponent k - 1 fits too,
    # and refuses the rest with a wider table; the product of two codes then
    # decodes to the product of the monomials, for the exponents at both
    # ends of the range the table codes, so no sum of two fields wraps into
    # its neighbour
    a, b = ex.JetVar("x1"), ex.JetVar("x2")
    for bound in (0, 1, 3, 4, 7, 8, 100):
        table = ode.CodeTable(2, bound=bound)
        coded = []
        for k in range(-300, 301):
            mono = ((a, k),) if k else ()
            try:
                coded.append((k, table.code(mono)))
            except ode._Overflow as overflow:
                assert abs(k) > bound
                assert overflow.wider.bound > bound
                overflow.wider.code(mono)  # the wider table holds it
        ks = [k for k, _ in coded]
        assert ks == list(range(ks[0], ks[-1] + 1)) and ks[0] <= -bound and bound <= ks[-1]
        middle = len(coded) // 2
        ends = coded[:3] + coded[middle - 1 : middle + 2] + coded[-3:]
        for k1, c1 in ends:
            for k2, c2 in ends:
                for k3, c3 in ends:
                    # x2's field is the neighbour of x1's
                    p = table.decode(({c1 + c2 + c3 * table.unit[b] // table.unit[a]: 1}, 1))
                    mono = tuple((x, k) for x, k in ((a, k1 + k2), (b, k3)) if k)
                    assert p == ex._expr(({mono: 1}, 1))
    # a check on a table whose bound the operands pass restarts on a wider
    # table of its own and gives the result of the tuple path
    built, init = [], ode.CodeTable.__init__

    def record(table, *args, **kwargs):
        init(table, *args, **kwargs)
        built.append(table.bound)

    monkeypatch.setattr(ode.CodeTable, "__init__", record)
    system = ode.OdeSystem([x2 / x1, -x1])
    w = [x2 / x1**3, x1**40 + x2**-40 * t]
    codes = ode.CodeTable(2, bound=2)
    assert ode.check_symmetry(system, w, codes=codes) == _reference_tuple_check_symmetry(system, w)
    assert built[0] == 2 and max(built) >= 41


def test_a_restarted_operation_reads_an_iterable_argument_once():
    # w, psi and the point may be generators: each is read once, before the
    # first table, so the restart on a wider table sees the same values
    system = ode.OdeSystem([x2 / x1, -x1])
    alpha = ode.Bivector(2, {(0, 1): x1**3})
    w, psi, point = [x2 / x1**3, x1**5], [x2**4, x1 / t], [1, 2, 3]
    results = [
        _reference_tuple_check_symmetry(system, w),
        _reference_tuple_proper_symmetry_conditions(system, alpha, psi),
        _reference_tuple_transitivity_rank(alpha, point, 2),
    ]
    with _narrow_tables(0) as wider:
        calls = [
            lambda: ode.check_symmetry(system, iter(w)),
            lambda: ode.proper_symmetry_conditions(system, alpha, iter(psi)),
            lambda: ode.transitivity_rank(alpha, iter(point), 2),
        ]
        for call, result in zip(calls, results):
            restarts = len(wider)
            assert call() == result
            assert len(wider) > restarts


def test_transitivity_rank_refuses_a_negative_depth():
    with pytest.raises(ValueError, match="depth"):
        ode.transitivity_rank(ode.so3_bivector(), [0, 1, 2, 3], -3)
    assert ode.transitivity_rank(ode.so3_bivector(), [0, 1, 2, 3], 0) == 2

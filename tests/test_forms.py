import itertools
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import anchorcalc as ac
from anchorcalc import expr as ex
from anchorcalc import forms as fo
from anchorcalc import linop as lo

E2, L2 = fo.euclidean(2), fo.lorentzian(2)
E4, L4 = fo.euclidean(4), fo.lorentzian(4)
SPACES = (E2, L2, E4, L4)


def _volume(space):
    """dx0 ^ ... ^ dx{n-1}."""
    return fo.basis_form(space, *range(space.n))


def rand_form(space, grade, seed):
    """Random form with polynomial coordinate coefficients and occasional
    field jets."""
    rng = random.Random((space.signature, grade, seed).__repr__())
    comps = {}
    for idx in itertools.combinations(range(space.n), grade):
        e = ac.rational(rng.randint(-3, 3))
        for m in range(space.n):
            if rng.random() < 0.4:
                e = e + ac.rational(rng.randint(-2, 2)) * space.coord_expr(m)
        if rng.random() < 0.4:
            e = e * ac.jet("u" + "".join(map(str, idx)))
        comps[idx] = e
    return fo.Form(space, grade, comps)


def rand_vector(space, seed):
    rng = random.Random(("vec", space.signature, seed).__repr__())
    comps = []
    for _ in range(space.n):
        e = ac.rational(rng.randint(-2, 2))
        for m in range(space.n):
            if rng.random() < 0.4:
                e = e + ac.rational(rng.randint(-2, 2)) * space.coord_expr(m)
        comps.append(e)
    return fo.SpacetimeVector(space, comps)


# --- wedge ------------------------------------------------------------------


def test_wedge_antisymmetry_basis():
    dx0, dx1 = fo.basis_form(L2, 0), fo.basis_form(L2, 1)
    assert fo.wedge(dx0, dx1) == fo.wedge(dx1, dx0).scale(-1)


def test_wedge_odd_square_zero():
    a = fo.basis_form(E4, 0) + fo.basis_form(E4, 2)
    assert fo.wedge(a, a).is_zero()


def test_wedge_hand_expansion():
    dx0, dx1 = fo.basis_form(E2, 0), fo.basis_form(E2, 1)
    result = fo.wedge(dx0 + dx1, dx0 - dx1)
    assert result == fo.wedge(dx0, dx1).scale(-2)


def test_wedge_graded_commutativity_random():
    for ga, gb in ((1, 1), (1, 2), (2, 2), (1, 3)):
        for s in range(5):
            a, b = rand_form(E4, ga, s), rand_form(E4, gb, s + 100)
            sign = (-1) ** (ga * gb)
            assert fo.wedge(a, b) == fo.wedge(b, a).scale(sign)


def test_wedge_associativity_random():
    for s in range(5):
        a, b, c = rand_form(E4, 1, s), rand_form(E4, 1, s + 7), rand_form(E4, 2, s + 9)
        assert fo.wedge(fo.wedge(a, b), c) == fo.wedge(a, fo.wedge(b, c))


def test_wedge_grade_overflow():
    with pytest.raises(fo.FormError):
        fo.wedge(rand_form(E2, 1, 0), rand_form(E2, 2, 0))


# --- exterior derivative ----------------------------------------------------


def test_d_basis_example():
    a = fo.Form(L2, 1, {(1,): ac.indep("x0")})
    assert fo.exterior_d(a) == fo.basis_form(L2, 0, 1)


def test_d_square_zero_everywhere():
    for space in (E2, L2, E4, L4):
        for grade in range(space.n - 1):
            for s in range(50):
                w = rand_form(space, grade, s)
                assert fo.exterior_d(fo.exterior_d(w)).is_zero()


def test_d_of_field_one_form():
    F = fo.field_form(L2, "F", 1)
    d = fo.exterior_d(F)
    expected = ac.canonicalize(ac.jet("F1", {"x0": 1}) - ac.jet("F0", {"x1": 1}))
    assert ac.canonicalize(d.components[(0, 1)]) == expected


def test_d_grade_n_errors():
    with pytest.raises(fo.FormError):
        fo.exterior_d(_volume(E2))


# --- hodge ------------------------------------------------------------------


def test_hodge_of_one():
    assert fo.hodge(fo.scalar(E4, 1)) == _volume(E4)
    assert fo.hodge(fo.scalar(L4, 1)) == _volume(L4)


def test_hodge_n2_lorentz_convention():
    # frozen golden values of the convention
    assert fo.hodge(fo.basis_form(L2, 0)) == fo.basis_form(L2, 1).scale(-1)
    assert fo.hodge(fo.basis_form(L2, 1)) == fo.basis_form(L2, 0).scale(-1)
    # forced by the convention: ** = +1 on middle forms
    a = rand_form(L2, 1, 3)
    assert fo.hodge(fo.hodge(a)) == a


def test_hodge_euclidean_four_middle():
    a = rand_form(E4, 2, 1)
    assert fo.hodge(fo.hodge(a)) == a


def test_double_hodge_sign_table():
    for space in SPACES:
        for grade in range(space.n + 1):
            w = rand_form(space, grade, grade)
            s = (-1) ** (grade * (space.n - grade)) * space.metric_sign
            assert fo.hodge(fo.hodge(w)) == w.scale(s)


# --- interior product and Lie derivative ------------------------------------


def test_interior_basis():
    assert fo.interior(fo.translation(L2, 0), fo.basis_form(L2, 0, 1)) == fo.basis_form(L2, 1)
    xi = fo.SpacetimeVector(L2, [ac.ONE, ac.ONE])
    assert fo.interior(xi, fo.basis_form(L2, 0)) == fo.scalar(L2, 1)


def test_interior_squares_to_zero():
    for space in (E2, E4):
        for grade in range(2, space.n + 1):
            for s in range(50):
                xi = rand_vector(space, s)
                w = rand_form(space, grade, s)
                assert fo.interior(xi, fo.interior(xi, w)).is_zero()


def test_interior_grade_zero_errors():
    with pytest.raises(fo.FormError):
        fo.interior(fo.translation(E2, 0), fo.scalar(E2, 1))


def test_lie_derivative_translation():
    a = fo.Form(L2, 1, {(1,): ac.indep("x0")})
    assert fo.lie_derivative(fo.translation(L2, 0), a) == fo.basis_form(L2, 1)


def test_cartan_identities_random():
    # L = i d + d i by construction; check [L, d] = 0 on 50 samples per
    # grade per dimension and grade preservation
    for space in (E2, L2, E4, L4):
        for grade in range(space.n + 1):
            for s in range(50):
                w = rand_form(space, grade, s)
                xi = rand_vector(space, s + 3)
                lie = fo.lie_derivative(xi, w)
                assert lie.grade == grade
                if grade < space.n:
                    assert fo.exterior_d(lie) == fo.lie_derivative(xi, fo.exterior_d(w))


@settings(max_examples=20, deadline=None)
@given(st.sampled_from(SPACES), st.integers(0, 2**32))
def test_lie_derivative_from_a_given_d_and_interior(space, seed):
    # a caller that holds d a or i_xi a gets the same L_xi a
    xi = rand_vector(space, seed)
    for grade in range(space.n + 1):
        a = rand_form(space, grade, seed)
        da = fo.exterior_d(a) if grade < space.n else None
        ia = fo.interior(xi, a) if grade else None
        lie = fo.lie_derivative(xi, a)
        assert fo.lie_derivative(xi, a, da=da) == lie
        assert fo.lie_derivative(xi, a, ia=ia) == lie
        assert fo.lie_derivative(xi, a, da=da, ia=ia) == lie


def test_lie_derivative_volume_rotation():
    assert fo.lie_derivative(fo.rotation(E2, 0, 1), _volume(E2)).is_zero()


# --- projections and pairings -----------------------------------------------


def test_selfdual_projection_properties():
    H = fo.field_form(L2, "H", 1)
    plus, minus = fo.selfdual_project(H)
    assert fo.hodge(plus) == plus
    assert fo.hodge(minus) == minus.scale(-1)
    assert (plus + minus) == H
    # idempotence and complementarity
    pp, pm = fo.selfdual_project(plus)
    assert pp == plus and pm.is_zero()


def test_selfdual_reassembly_of_basis():
    dx0 = fo.basis_form(L2, 0)
    plus, minus = fo.selfdual_project(dx0)
    assert (plus + minus) == dx0


def test_selfdual_isotropy_and_cross_pairing():
    dx0 = fo.basis_form(L2, 0)
    plus, minus = fo.selfdual_project(dx0)
    assert fo.pairing_density(plus, plus).is_zero()
    assert fo.pairing_density(minus, minus).is_zero()
    # hand value: plus ^ *minus = -1/2 vol
    assert fo.pairing_density(plus, minus) == _volume(L2).scale(
        ac.rational(-1, 2)
    )


def test_selfdual_preconditions():
    with pytest.raises(fo.FormError):
        fo.selfdual_project(rand_form(E2, 1, 0))  # euclidean
    with pytest.raises(fo.FormError):
        fo.selfdual_project(rand_form(L4, 2, 0))  # n = 4 is not 4k+2
    with pytest.raises(fo.FormError):
        fo.selfdual_project(fo.scalar(L2, 1))  # wrong grade


def test_pairing_symmetric_and_diagonal():
    assert fo.pairing_density(fo.basis_form(E2, 1), fo.basis_form(E2, 1)) == _volume(E2)
    for s in range(5):
        a, b = rand_form(L4, 2, s), rand_form(L4, 2, s + 50)
        assert fo.pairing_density(a, b) == fo.pairing_density(b, a)
    with pytest.raises(fo.FormError):
        fo.pairing_density(rand_form(E2, 1, 0), rand_form(E2, 2, 0))


# --- killing classification -------------------------------------------------


def test_killing_translations_rotations():
    for space in SPACES:
        for mu in range(space.n):
            assert fo.conformal_killing_check(fo.translation(space, mu), space) == "killing"
        for mu, nu in itertools.combinations(range(space.n), 2):
            assert fo.conformal_killing_check(fo.rotation(space, mu, nu), space) == "killing"


def test_dilation_is_conformal():
    for space in SPACES:
        assert fo.conformal_killing_check(fo.dilation(space), space) == "conformal"


def test_neither_case():
    bad = fo.SpacetimeVector(L4, [L4.coord_expr(1) ** 2, ac.ZERO, ac.ZERO, ac.ZERO])
    assert fo.conformal_killing_check(bad, L4) == "neither"


_OTHER_SPACE_CALLS = {
    "interior": lambda xi, a: fo.interior(xi, a),
    "lie_derivative": lambda xi, a: fo.lie_derivative(xi, a),
    "lie_derivative, top grade": lambda xi, a: fo.lie_derivative(xi, _volume(a.space)),
    "conformal_killing_check": lambda xi, a: fo.conformal_killing_check(xi, a.space),
}


@pytest.mark.parametrize("name", _OTHER_SPACE_CALLS)
@pytest.mark.parametrize("xi", [fo.translation(fo.lorentzian(3), 1), fo.translation(L4, 1)], ids=["n3", "L4"])
def test_a_vector_of_another_space_raises_form_error(name, xi):
    a = fo.field_form(E4, "F", 2)
    with pytest.raises(fo.FormError, match=r"a vector on FlatSpace\(signature=\(-1, "):
        _OTHER_SPACE_CALLS[name](xi, a)


# The general paths, kept here as the reference: one product per nonzero
# component of the vector, where a constant one now takes a scaled add
# (add_interior); the n^2 partials of the deformation, which a constant
# vector now skips (conformal_killing_check); and D_mu of a component
# formed before it is added, which now goes straight into the sum (add_d).


def _reference_add_interior(s, xi, a, k=1):
    m, den, p = fo._weight(k)
    if m:
        xs = [fo._weighted(x._poly, den, p) if x._poly[0] else None for x in xi.components]
        for idx, coeff in a.components.items():
            for pos, mu in enumerate(idx):
                if xs[mu] is not None:
                    ex._paddmul_into(
                        s.table[idx[:pos] + idx[pos + 1 :]], xs[mu], coeff._poly, (-1) ** pos * m
                    )
    return s


def _reference_add_d(s, a, k=1):
    m, den, p = fo._weight(k)
    if m:
        for idx, coeff in a.components.items():
            for mu in range(a.space.n):
                if mu not in idx:
                    d_coeff = ex._total_derivative_poly(coeff._poly, a.space.coords[mu])
                    sign, new_idx = fo._merge_sign((mu,), idx)
                    ex._padd_into(s.table[new_idx], fo._weighted(d_coeff, den, p), sign * m)
    return s


def _reference_killing(xi, space):
    n, sig = space.n, space.signature
    partials = {
        (mu, nu): ex._total_derivative_poly(xi.components[nu]._poly, space.coords[mu])
        for mu in range(n)
        for nu in range(n)
    }
    deformation = {
        (mu, nu): ex._psum(ex._pscale(partials[mu, nu], sig[nu]), partials[nu, mu], sig[mu])
        for mu, nu in itertools.combinations_with_replacement(range(n), 2)
    }
    if not any(k[0] for k in deformation.values()):
        return "killing"
    divergence = ex._acc()
    for mu in range(n):
        ex._padd_into(divergence, partials[(mu, mu)])
    divergence = ex._normal(*divergence)
    for (mu, nu), k in deformation.items():
        if mu == nu:
            k = ex._psum(k, ex._pscale(divergence, 2 * sig[mu], n), -1)
        if k[0]:
            return "neither"
    return "conformal"


_CONSTANTS = st.one_of(
    st.just(0), st.integers(-3, 3), st.builds(Fraction, st.integers(-5, 5), st.integers(1, 6))
)


@settings(max_examples=80, deadline=None)
@given(
    st.sampled_from(SPACES + (fo.lorentzian(3),)),
    st.data(),
    st.sampled_from([1, -2, Fraction(-3, 4), "expression"]),
    st.integers(0, 10**6),
    st.booleans(),
)
def test_constant_vectors_and_d_into_the_sum_match_the_general_path(space, data, k, seed, mixed):
    comps = data.draw(st.lists(_CONSTANTS, min_size=space.n, max_size=space.n))
    if mixed:  # one component that is not constant takes the product path
        comps[seed % space.n] = rand_vector(space, seed).components[0] + space.coord_expr(0)
    xi = fo.SpacetimeVector(space, comps)
    assert fo.conformal_killing_check(xi, space) == _reference_killing(xi, space)
    if not mixed:
        assert fo.conformal_killing_check(xi, space) == "killing"
    if k == "expression":
        k = space.coord_expr(0) / 2 + 1
    grade = 1 + seed % space.n
    a, b = rand_form(space, grade, seed), rand_form(space, grade - 1, seed + 1)
    # a prefilled sum with a denominator of its own
    fast = fo._Sum(space, grade - 1).add(b, Fraction(1, 7)).add_interior(xi, a, k)
    slow = _reference_add_interior(fo._Sum(space, grade - 1).add(b, Fraction(1, 7)), xi, a, k)
    assert {i: v._poly for i, v in fast.form().components.items()} == {
        i: v._poly for i, v in slow.form().components.items()
    }
    general = _reference_add_interior(fo._Sum(space, grade - 1), xi, a).form()
    assert fo.interior(xi, a).components == general.components
    # d goes straight into the sum for int and Fraction weights
    b = b.map_coefficients(lambda c: c * ac.jet("v", {"x0": 1}) / 3)
    fast = fo._Sum(space, grade).add(a, Fraction(1, 7)).add_d(b, k)
    slow = _reference_add_d(fo._Sum(space, grade).add(a, Fraction(1, 7)), b, k)
    assert {i: v._poly for i, v in fast.form().components.items()} == {
        i: v._poly for i, v in slow.form().components.items()
    }


def test_form_validation():
    with pytest.raises(fo.FormError):
        fo.Form(E2, 1, {(0, 1): ac.ONE})
    with pytest.raises(fo.FormError):
        fo.Form(E2, 2, {(1, 0): ac.ONE})
    with pytest.raises(fo.FormError):
        fo.Form(E2, 1, {(5,): ac.ONE})


@pytest.mark.parametrize(
    "build",
    [lambda: fo.lorentzian(0), lambda: fo.lorentzian(-3), lambda: fo.euclidean(0), lambda: fo.FlatSpace([])],
)
def test_space_needs_dimension_one(build):
    with pytest.raises(ValueError, match="dimension n >= 1"):
        build()


# --- wedge by complement against the pairwise loop -------------------------------


def _pairwise_wedge(a, b):
    """Every pair of components, signed by _merge_sign."""
    out = {}
    for i_idx, i_coeff in a.components.items():
        for j_idx, j_coeff in b.components.items():
            sign, idx = fo._merge_sign(i_idx, j_idx)
            if sign is not None:
                out[idx] = out.get(idx, ac.ZERO) + sign * i_coeff * j_coeff
    return fo.Form(a.space, a.grade + b.grade, out)


def _sparse_form(rng, space, grade):
    """Random form on a random subset of the components, with coefficients
    that cancel in some products."""
    choices = (ac.ONE, ac.rational(-2, 3), space.coord_expr(0), ac.jet("u"), ac.jet("u") / 2)
    comps = {}
    for idx in itertools.combinations(range(space.n), grade):
        if rng.random() < 0.6:
            comps[idx] = rng.choice(choices) * rng.choice((1, -1, 3))
    return fo.Form(space, grade, comps)


@pytest.mark.parametrize("n", range(1, 7))
@settings(max_examples=4, deadline=None)
@given(st.booleans(), st.integers(0, 2**32))
def test_wedge_matches_pairwise_reference(n, lorentz, seed):
    space = fo.lorentzian(n) if lorentz else fo.euclidean(n)
    rng = random.Random(seed)
    for ga in range(n + 1):
        for gb in range(n - ga + 1):
            a, b = _sparse_form(rng, space, ga), _sparse_form(rng, space, gb)
            result = fo.wedge(a, b)
            assert result.components == _pairwise_wedge(a, b).components
            # the trusted result is a valid form: the public constructor keeps it
            assert fo.Form(space, result.grade, result.components).components == result.components


# --- the shared table algebra against the validating constructor ---------------


def _reference_sum(a, b, sign):
    """a + sign * b entry by entry, built through the validating Form(...)."""
    out = dict(a.components)
    for idx, v in b.components.items():
        out[idx] = out[idx] + sign * v if idx in out else sign * v
    return fo.Form(a.space, a.grade, out)


@pytest.mark.parametrize("n", range(1, 6))
@settings(max_examples=6, deadline=None)
@given(st.booleans(), st.integers(0, 2**32))
def test_sum_and_difference_match_reference(n, lorentz, seed):
    space = fo.lorentzian(n) if lorentz else fo.euclidean(n)
    rng = random.Random(seed)
    c = ac.rational(-3, 4) * space.coord_expr(0)
    for grade in range(n + 1):
        a, b = _sparse_form(rng, space, grade), _sparse_form(rng, space, grade)
        difference = a - b
        assert difference.components == (a + b.scale(-1)).components
        assert difference.components == _reference_sum(a, b, -1).components
        assert (a + b).components == _reference_sum(a, b, 1).components
        assert (a - a).is_zero() and a.scale(0).is_zero()
        scaled = fo.Form(space, grade, {idx: c * v for idx, v in a.components.items()})
        assert a.scale(c).components == scaled.components
        # every trusted result is a valid form: the public constructor keeps it
        shifted = a.map_coefficients(lambda v: v - 1)
        for result in (a + b, difference, a.scale(c), fo.hodge(a), shifted):
            assert fo.Form(space, result.grade, result.components).components == result.components


def test_form_algebra_builds_without_revalidation(monkeypatch):
    F, G = fo.field_form(L4, "F", 2), fo.field_form(L4, "G", 2)
    calls = []
    init = fo.Form.__init__
    monkeypatch.setattr(fo.Form, "__init__", lambda *a, **k: calls.append(1) or init(*a, **k))
    results = [F + G, F - G, F.scale(ac.jet("u")), fo.hodge(F), F.map_coefficients(lambda v: 2 * v)]
    assert not calls
    assert [len(r.components) for r in results] == [6] * 5


def test_map_coefficients_coerces_and_drops_zeros():
    u, w = ac.jet("u"), ac.jet("w")
    # 0 and ex.ZERO are dropped, and an int result becomes an expression
    values = {u: 0, w: ex.ZERO, u * w: 3}
    form = fo.Form(E4, 1, {(0,): u, (1,): w, (2,): u * w}).map_coefficients(values.get)
    assert form.components == {(2,): ac.rational(3)}
    assert isinstance(form.components[(2,)], ex.Expr)
    op = lo.LinDiffOp(1, 3, {(0, c, ex.EMPTY_INDEX): v for c, v in enumerate(values)})
    op = op.map_coefficients(values.get)
    assert op.entries == {(0, 2, ex.EMPTY_INDEX): ac.rational(3)}
    assert isinstance(op.entries[(0, 2, ex.EMPTY_INDEX)], ex.Expr)


# --- node limit in the form and operator layers ---------------------------------

def _wide(name, k):
    """k monomials: the jets of one field up to x0-order k - 1."""
    return sum((ac.jet(name, {"x0": i}) for i in range(k)), ac.ZERO)


def _operation(name, n, k):
    """A call of the named public operation on R^n, on operands with n
    components of k monomials each, built before the call."""
    space = fo.euclidean(n)
    u, w = _wide("u", k), _wide("w", k)
    a = fo.Form(space, 1, {(m,): u for m in range(n)})
    b = fo.Form(space, 1, {(m,): w for m in range(n)})
    xi = fo.SpacetimeVector(space, [w] * n)
    if name == "wedge":
        return lambda: fo.wedge(a, b)
    if name == "interior":
        return lambda: fo.interior(xi, a)
    if name == "exterior_d":
        a = a.scale(w)
        return lambda: fo.exterior_d(a)
    if name == "Form.scale":
        return lambda: a.scale(w)
    if name in ("Form.__add__", "Form.__sub__"):
        return (lambda: a + b) if name == "Form.__add__" else (lambda: a - b)
    if name == "conformal_killing_check":
        return lambda: fo.conformal_killing_check(xi, space)
    A = lo.LinDiffOp.identity(n).scale(u)
    B = lo.LinDiffOp(n, n, {(m, m, ex.MultiIndex({"x0": 1})): w for m in range(n)})
    if name == "compose":
        return lambda: A.compose(B)
    if name == "LinDiffOp.scale":
        return lambda: A.scale(w)
    if name in ("LinDiffOp.__add__", "LinDiffOp.__sub__"):
        C = lo.LinDiffOp.identity(n).scale(w)
        return (lambda: A + C) if name == "LinDiffOp.__add__" else (lambda: A - C)
    if name == "LinDiffOp.apply":
        return lambda: B.apply([u] * n)
    AB = A.compose(B)
    return lambda: AB.formal_adjoint()


OPERATIONS = (
    "wedge",
    "interior",
    "exterior_d",
    "compose",
    "formal_adjoint",
    "Form.scale",
    "Form.__add__",
    "Form.__sub__",
    "conformal_killing_check",
    "LinDiffOp.scale",
    "LinDiffOp.__add__",
    "LinDiffOp.__sub__",
    "LinDiffOp.apply",
)


@pytest.mark.parametrize("name", OPERATIONS)
def test_operation_honours_node_limit_set_at_runtime(monkeypatch, name):
    call = _operation(name, 3, 6)
    call()  # within the default limit
    monkeypatch.setattr(ex, "NODE_LIMIT", 10)
    with pytest.raises(ex.ResourceLimitError):
        call()

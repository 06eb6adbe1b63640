import collections
import contextlib
import functools
import io
import itertools
import json
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import anchorcalc as ac
from anchorcalc import cli
from anchorcalc import expr as ex
from anchorcalc import field_models as fm
from anchorcalc import forms as fo
from anchorcalc.linop import LinDiffOp
from tests_helpers_oracle import evaluate

L2, L4 = fo.lorentzian(2), fo.lorentzian(4)
E2, E4 = fo.euclidean(2), fo.euclidean(4)


def all_isometries(space):
    out = [(f"t{mu}", fo.translation(space, mu)) for mu in range(space.n)]
    out += [
        (f"r{mu}{nu}", fo.rotation(space, mu, nu))
        for mu, nu in itertools.combinations(range(space.n), 2)
    ]
    return out


# --- p-form residuals and identities -----------------------------------------


def test_residual_components_n2():
    m = fm.PFormModel(L2, 1, 1, 0)
    t1, t2 = m.residuals()
    assert ac.canonicalize(t1.components[(0, 1)]) == ac.canonicalize(
        ac.jet("F1", {"x0": 1}) - ac.jet("F0", {"x1": 1})
    )
    assert not t2.is_zero()


def test_noether_identities_all_models():
    for space, p in ((L2, 1), (E2, 1), (L4, 2), (E4, 1), (E4, 2), (E4, 3)):
        assert fm.PFormModel(space, p, 1, 0).noether_identity_check() == (True, {})


def test_noether_identity_detects_non_closed_perturbation():
    m = fm.PFormModel(L4, 2, 1, 0)
    t1, t2 = m.residuals()
    bad = t1 + fo.Form(L4, 3, {(0, 1, 2): L4.coord_expr(3) * ac.jet("F01")})
    assert not fm._d_or_zero(bad).is_zero()
    m.residuals = lambda: (bad, t2)
    ok, residuals = m.noether_identity_check()
    assert not ok and residuals == {"dT1": fm._d_or_zero(bad)}


def test_killing_characteristic_zero_vector():
    m = fm.PFormModel(L4, 2, 1, 0)
    zero = fo.SpacetimeVector(L4, [ac.ZERO] * 4)
    psi1, psi2 = m.killing_characteristic(zero)
    assert psi1.is_zero() and psi2.is_zero()


def test_killing_characteristic_linear_in_xi():
    m = fm.PFormModel(L4, 2, 1, 0)
    x0, x1 = fo.translation(L4, 0), fo.translation(L4, 1)
    both = fo.SpacetimeVector(L4, [ac.ONE, ac.ONE, ac.ZERO, ac.ZERO])
    p1a, p2a = m.killing_characteristic(x0)
    p1b, p2b = m.killing_characteristic(x1)
    p1c, p2c = m.killing_characteristic(both)
    assert (p1a + p1b) == p1c and (p2a + p2b) == p2c


def test_killing_characteristic_rejects_non_killing():
    m = fm.PFormModel(L4, 1, 1, 0)  # n = 4, p = 1: not the critical dimension
    with pytest.raises(fm.FieldModelError):
        m.killing_characteristic(fo.dilation(L4))


def test_dilation_allowed_in_critical_dimension():
    m = fm.PFormModel(L4, 2, 1, 0)
    assert L4.n == 2 * m.p
    # n = 4 = 2p, so the conformal dilation is accepted
    assert m.current_certificate(fo.dilation(L4))[0]


def test_current_certificates_exact_n2_both_signatures():
    for space in (L2, E2):
        m = fm.PFormModel(space, 1, 1, 0)
        for name, xi in all_isometries(space) + [("dil", fo.dilation(space))]:
            ok, residuals = m.current_certificate(xi)
            assert ok, (space.signature, name, residuals)


def test_current_certificate_exact_off_shell_in_jets():
    # the certificate is an identity in the jet variables, not a weak one
    m = fm.PFormModel(L4, 2, 1, 0)
    assert m.current_certificate(fo.translation(L4, 0)) == (True, {})
    assert m.killing_current(fo.translation(L4, 0)).grade == 3


def test_energy_momentum_maxwell_golden_file():
    from pathlib import Path

    golden = json.loads(
        (Path(__file__).parent / "golden" / "maxwell_emt.json").read_text()
    )
    m = fm.PFormModel(L4, 2, 1, 0)
    emt = m.energy_momentum()
    for mu in range(4):
        for nu in range(4):
            assert golden["components"][f"T_{mu}{nu}"] == ac.to_text(emt[mu][nu])


def test_energy_momentum_maxwell_golden():
    m = fm.PFormModel(L4, 2, 1, 0)
    emt = m.energy_momentum()
    F = m.F
    eta = L4.signature

    def comp(mu, nu):
        return F.component((mu, nu))

    f_squared = ac.ZERO
    for mu in range(4):
        for nu in range(4):
            f_squared = f_squared + ac.rational(eta[mu] * eta[nu]) * comp(mu, nu) ** 2
    for mu in range(4):
        for nu in range(4):
            expected = ac.ZERO
            for lam in range(4):
                expected = expected + ac.rational(eta[lam]) * comp(mu, lam) * comp(nu, lam)
            if mu == nu:
                expected = expected - ac.rational(eta[mu], 4) * f_squared
            assert ac.is_identically_zero(ac.canonicalize(emt[mu][nu] - expected))


def test_energy_momentum_constant_single_component():
    # hand value in euclidean n=2: *j for xi=d0 is
    # -F0 F1 dx1 - (F0^2 - F1^2)/2 dx0, so F=(2,0) gives diag(-2, 2)
    m = fm.PFormModel(E2, 1, 1, 0)
    emt = m.energy_momentum()
    point = {ex.JetVar("F0"): Fraction(2), ex.JetVar("F1"): Fraction(0)}
    values = [[evaluate(c, point) for c in row] for row in emt]
    assert values == [[Fraction(-2), Fraction(0)], [Fraction(0), Fraction(2)]]
    # lorentzian energy density is positive for the same data
    m_l = fm.PFormModel(L2, 1, 1, 0)
    t00 = evaluate(m_l.energy_momentum()[0][0], point)
    assert t00 == Fraction(2)


def test_energy_momentum_trace_vanishes_in_critical_dimension():
    for space, p in ((L2, 1), (E2, 1), (L4, 2), (E4, 2)):
        m = fm.PFormModel(space, p, 1, 0)
        emt = m.energy_momentum()
        trace = ac.ZERO
        for mu in range(space.n):
            trace = trace + ac.rational(space.signature[mu]) * emt[mu][mu]
        assert ac.is_identically_zero(ac.canonicalize(trace))


# --- p-form anchor ------------------------------------------------------------


def test_anchor_zero_parameters():
    m = fm.PFormModel(L4, 2, 0, 0)
    v, vstar = m.anchor_ops()
    assert v.is_zero() and vstar.is_zero()


def test_anchor_vstar_reads_off_pairing():
    m = fm.PFormModel(L4, 2, 1, 0)
    _, vstar = m.anchor_ops()
    assert vstar == fm._vstack(
        fm.d_operator(L4, 2),
        fm.d_operator(L4, 2).compose(fm.hodge_operator(L4, 2)).scale(0),
    )


def test_anchor_adjoint_pairing_identity():
    # <V(W), P> and <W, V*(P)> differ by a total divergence
    m = fm.PFormModel(L2, 1, ac.param("a"), ac.param("b"))
    v, vstar = m.anchor_ops()
    P = fo.field_form(L2, "P", 1)
    W1 = fo.field_form(L2, "W", 2)
    W2 = fo.field_form(L2, "Z", 2)
    w_vec = fm.form_to_vector(W1) + fm.form_to_vector(W2)
    vP = vstar.apply(fm.form_to_vector(P))
    vW = v.apply(w_vec)
    # <W, V*(P)> density
    lhs = fo.pairing_density(W1, fm.vector_to_form(L2, 2, vP[:1])) + fo.pairing_density(
        W2, fm.vector_to_form(L2, 2, vP[1:])
    )
    rhs = fo.pairing_density(fm.vector_to_form(L2, 1, vW), P)
    gap = (lhs - rhs).components.get((0, 1), ac.ZERO)
    for f in ("P0", "P1", "W01", "Z01"):
        assert ac.is_identically_zero(ac.euler_derivative(gap, f))


def test_anchor_verify_generic_and_grid():
    values = [Fraction(0), Fraction(1), Fraction(2), Fraction(1, 2), Fraction(3)]
    m_sym = fm.PFormModel(L4, 2, ac.param("a"), ac.param("b"))
    assert m_sym.anchor_verify()[0]
    for a in values:
        for b in values:
            m = fm.PFormModel(L4, 2, a, b)
            ok, _ = m.anchor_verify()
            assert ok, (a, b)
            witness = m.triviality_witness()
            if a == b:
                assert witness is not None
            else:
                assert witness is None


def test_corrupted_anchor_fails():
    m = fm.PFormModel(L4, 2, 1, 0)
    _, vstar = m.anchor_ops()
    # corrupt V (sign flip on the b-slot adjoint) while keeping V*
    corrupted_source = fm._vstack(
        fm.d_operator(L4, 2).scale(1),
        fm.d_operator(L4, 2).compose(fm.hodge_operator(L4, 2)).scale(-1),
    )
    w_in = fm.metric_weights(L4, 2)
    w_out = fm.metric_weights(L4, 3) + fm.metric_weights(L4, 3)
    v_bad = fm.pairing_adjoint(corrupted_source, w_in, w_out)
    j_op = m.linearization()
    j_star = fm.pairing_adjoint(j_op, w_in, w_out)
    residual = j_op.compose(v_bad) - vstar.compose(j_star)
    assert not residual.is_zero()


@pytest.mark.parametrize("euclidean", [False, True])
@pytest.mark.parametrize("n, p", [(n, p) for n in (2, 3, 4) for p in range(1, n)])
def test_fused_anchor_residual_prints_as_the_unfused_one(monkeypatch, capsys, n, p, euclidean):
    # V scaled by 2 breaks J o V = V* o J*; the residual, built in one table,
    # must print as compose and subtraction print it
    anchor_ops = fm.PFormModel.anchor_ops
    monkeypatch.setattr(
        fm.PFormModel, "anchor_ops", lambda self: (anchor_ops(self)[0].scale(2), anchor_ops(self)[1])
    )
    space = fo.euclidean(n) if euclidean else fo.lorentzian(n)
    m = fm.PFormModel(space, p, Fraction(3, 2), -2)
    v, vstar = m.anchor_ops()
    j_op = m.linearization()
    j_star = fm.pairing_adjoint(j_op, *m._weights())
    unfused = j_op.compose(v) - vstar.compose(j_star)
    assert not unfused.is_zero()
    argv = ["catalog", "pform", "--n", str(n), "--p", str(p), "--a", "3/2", "--b", "-2"]
    argv += ["--xi", "t0", "--json"] + (["--euclidean"] if euclidean else [])
    cli.main(argv)
    records = {c["name"]: c for c in json.loads(capsys.readouterr().out)["checks"]}
    assert records["anchor_identity"]["status"] == "FAIL"
    assert records["anchor_identity"]["residual"] == "anchor_residual: " + unfused.describe()


def test_fused_residuals_call_no_compose_and_no_table_sum(monkeypatch):
    m = fm.PFormModel(L4, 2, Fraction(3), Fraction(3))
    m.anchor_ops(), m.linearization()  # memoised; anchor_ops composes d and *
    calls = []
    for owner, name in ((LinDiffOp, "compose"), (ex, "_table_plus")):
        fn = getattr(owner, name)
        monkeypatch.setattr(owner, name, lambda *a, fn=fn: calls.append(fn) or fn(*a))
    verdict, g = m.anchor_verify(), m.triviality_witness()
    # V* scaled by 2 is no longer J o (3 Id)
    v, vstar = m.anchor_ops()
    monkeypatch.setattr(fm.PFormModel, "anchor_ops", lambda self: (v, vstar.scale(2)))
    with pytest.raises(fm.FieldModelError, match="trivial-anchor certificate failed"):
        m.triviality_witness()
    assert calls == []
    monkeypatch.undo()  # operator equality subtracts through _table_plus
    assert verdict == (True, {}) and g == LinDiffOp.identity(6).scale(3)


# The unfused chains: every sum, scaling and wedge a separate form, as the
# certificates were built before each became one table.  The characteristic
# is scaled by 2, as the patches below scale it.
_HALF = ex.rational(1, 2)


def _unfused_pform(m, xi):
    n, p, F = m.space.n, m.p, m.F
    star_F = fo.hodge(F)
    i_F, i_star_F = fo.interior(xi, F), fo.interior(xi, star_F)
    psi1 = fo.hodge(i_star_F).scale(m.sigma * (-1) ** ((n - p) * (p - 1))).scale(2)
    psi2 = fo.hodge(i_F).scale(m.sigma * (-1) ** (p - 1)).scale(2)
    j = (fo.wedge(i_F, star_F) + fo.wedge(F, i_star_F).scale((-1) ** (p - 1))).scale(_HALF)
    t1, t2 = fo.exterior_d(F), fo.exterior_d(star_F)
    v, _ = m.anchor_ops()
    delta = v.apply(fm.form_to_vector(psi1) + fm.form_to_vector(psi2))
    lie = fo.interior(xi, t1) + fo.exterior_d(i_F)
    transform = fm.vector_to_form(m.space, p, delta) - lie.scale(m.a - m.b)
    current = fo.pairing_density(psi1, t1) + fo.pairing_density(psi2, t2) - fo.exterior_d(j)
    return {
        "current_certificate": {"current_residual": current},
        "proper_symmetry": {"transform_residual": transform.map_coefficients(m.shell().reduce)},
    }


def _unfused_selfdual_field(m):
    raw = fo.field_form(m.space, m.field_name, m.mid)
    return (raw + fo.hodge(raw)).scale(_HALF)


def _unfused_selfdual(m, xi):
    H = _unfused_selfdual_field(m)
    i_H, t = fo.interior(xi, H), fo.exterior_d(H)
    psi = fo.hodge(i_H).scale(-1).scale(2)
    lie = fo.interior(xi, t) + fo.exterior_d(i_H)
    v, _ = m.anchor_ops()
    delta = fm.vector_to_form(m.space, m.mid, v.apply(fm.form_to_vector(psi)))
    return {
        "isotropy_identity": fo.wedge(H, lie),
        "current_residual": fo.pairing_density(psi, t)
        - fo.exterior_d(fo.wedge(i_H, H).scale(_HALF)),
        "transform_residual": (delta - lie).map_coefficients(m.shell().reduce),
    }


def _unfused_chiral(m, eps):
    space, H = m.space, [_unfused_selfdual_field(c) for c in m.components]
    psi = [fo.hodge(fo.scalar(space, c)).scale(-1).scale(2) for c in eps]
    j, expected = fo.zero_form(space, 1), fo.zero_form(space, 2)
    for a, k in enumerate(m.algebra.kappa):
        j = j + H[a].scale(k * eps[a])
        expected = expected + fo.exterior_d(H[a]).scale(k * eps[a])
    target = [fo.zero_form(space, 1)] * m.N
    for (a, b, c), coeff in m.algebra.f.items():
        target[c] = target[c] + fo.wedge(fo.scalar(space, eps[a]), H[b]).scale(coeff)
    v, _ = m.anchor_ops()
    delta_vec = v.apply([c for form in psi for c in fm.form_to_vector(form)])
    out = {"current_residual": fo.exterior_d(j) - expected}
    for a in range(m.N):
        delta = fm.vector_to_form(space, 1, delta_vec[2 * a : 2 * a + 2])
        out[f"transform_residual[{a + 1}]"] = (delta + target[a].scale(m.g)).map_coefficients(
            m.shell().reduce
        )
        out[f"symmetry_residual[{a + 1}]"] = fo.exterior_d(delta).map_coefficients(m.shell().reduce)
    return out


def _double_characteristics(monkeypatch):
    """Scale every characteristic of the field models by 2."""
    killing = fm.PFormModel.killing_characteristic
    monkeypatch.setattr(
        fm.PFormModel,
        "killing_characteristic",
        lambda self, xi: tuple(psi.scale(2) for psi in killing(self, xi)),
    )
    selfdual = fm.SelfDualModel.characteristic
    monkeypatch.setattr(
        fm.SelfDualModel, "characteristic", lambda self, xi: selfdual(self, xi).scale(2)
    )
    internal = fm.ChiralModel.internal_characteristic

    def internal_doubled(self, epsilon):
        psi, eps = internal(self, epsilon)
        return [form.scale(2) for form in psi], eps

    monkeypatch.setattr(fm.ChiralModel, "internal_characteristic", internal_doubled)


def _fail_details(capsys, argv):
    cli.main(argv + ["--json"])
    checks = json.loads(capsys.readouterr().out)["checks"]
    return {c["name"]: c["residual"] for c in checks if c["status"] == "FAIL"}


def _nonzero(residuals):
    return {name: r for name, r in residuals.items() if not r.is_zero()}


@pytest.mark.parametrize("euclidean", [False, True])
@pytest.mark.parametrize(
    "n, p, xi",
    [
        (n, p, xi)
        for n in (2, 3, 4)
        for p in range(1, n)
        for xi in ("t0", "r01") + (("dil",) if n == 2 * p else ())
    ],
)
def test_fused_certificates_print_as_the_unfused_chains_pform(
    monkeypatch, capsys, n, p, xi, euclidean
):
    _double_characteristics(monkeypatch)
    space = fo.euclidean(n) if euclidean else fo.lorentzian(n)
    m = fm.PFormModel(space, p, Fraction(3, 2), -2)
    expected = {
        f"{check}[{xi}]": cli._residual_text(_nonzero(residuals))
        for check, residuals in _unfused_pform(m, cli._parse_xi(space, xi)).items()
        if _nonzero(residuals)
    }
    assert f"current_certificate[{xi}]" in expected
    argv = ["catalog", "pform", "--n", str(n), "--p", str(p), "--a", "3/2", "--b", "-2"]
    argv += ["--xi", xi] + (["--euclidean"] if euclidean else [])
    assert _fail_details(capsys, argv) == expected


@pytest.mark.parametrize("n", [2, 6])
def test_fused_certificates_print_as_the_unfused_chains_selfdual(monkeypatch, capsys, n):
    _double_characteristics(monkeypatch)
    space = fo.lorentzian(n)
    m = fm.SelfDualModel(space)
    vectors = [(f"t{mu}", fo.translation(space, mu)) for mu in range(n)]
    expected = {
        f"certificates[{name}]": cli._residual_text(_nonzero(_unfused_selfdual(m, xi)))
        for name, xi in vectors + [("dil", fo.dilation(space))]
    }
    assert _fail_details(capsys, ["catalog", "selfdual", "--n", str(n)]) == expected


@pytest.mark.parametrize(
    "algebra, g, epsilon", [("su2", "-2", "-5,-3/4,7/3"), ("abelian3", "3/4", "1,2,-1/3")]
)
def test_fused_certificates_print_as_the_unfused_chains_chiral(
    monkeypatch, capsys, algebra, g, epsilon
):
    _double_characteristics(monkeypatch)
    m = fm.ChiralModel(L2, fm.ALGEBRAS[algebra](), Fraction(g))
    eps = [Fraction(e) for e in epsilon.split(",")]
    internal = _nonzero(_unfused_chiral(m, eps))
    # V(2 Psi) = 2 V(Psi) = -2 g [eps, H], which is zero for an abelian algebra
    assert bool(internal) == (algebra == "su2")
    expected = {"internal_certificates": cli._residual_text(internal)} if internal else {}
    for name, xi in _CHIRAL_VECTORS[:3]:  # the catalog's t0, t1 and dil
        expected[f"spacetime_certificates[{name}]"] = cli._residual_text(
            {c.field_name: _nonzero(_unfused_selfdual(c, xi)) for c in m.components}
        )
    argv = ["catalog", "chiral", "--algebra", algebra, f"--g={g}", f"--epsilon={epsilon}"]
    assert _fail_details(capsys, argv) == expected


def test_fused_certificates_call_no_form_sum_and_no_table_sum(monkeypatch):
    # the characteristics, operators and shells are memoised or built
    # before the counting starts: anchor_ops scales and adds operators
    pform = fm.PFormModel(L4, 2, Fraction(3, 2), -2)
    selfdual = fm.SelfDualModel(L2)
    chiral = fm.ChiralModel(L2, fm.su2(), Fraction(-2))
    for m in (pform, selfdual, chiral):
        m.anchor_ops(), m.shell()
    xis = [fo.translation(L4, 1), fo.rotation(L4, 0, 1)]
    eps = [Fraction(-5), Fraction(-3, 4), Fraction(7, 3)]
    doubled = {
        "pform": {id(xi): tuple(psi.scale(2) for psi in pform.killing_characteristic(xi)) for xi in xis},
        "selfdual": {id(xi): selfdual.characteristic(xi).scale(2) for _, xi in _CHIRAL_VECTORS},
        "chiral": ([psi.scale(2) for psi in chiral.internal_characteristic(eps)[0]], eps),
    }

    def certify():
        verdicts = [pform.current_certificate(xi)[0] for xi in xis]
        verdicts += [pform.proper_symmetry(xi)[0] for xi in xis]
        verdicts += [selfdual.verify(xi)[0] for _, xi in _CHIRAL_VECTORS]
        verdicts += [chiral.spacetime_verify(xi)[0] for _, xi in _CHIRAL_VECTORS]
        return verdicts + [chiral.verify(eps)[0]]

    calls = []
    counted = ((fo.Form, "_plus"), (fo.Form, "scale"), (ex, "_table_plus"), (ex, "_table_scale"))
    for owner, name in counted:
        fn = getattr(owner, name)
        monkeypatch.setattr(owner, name, lambda *a, fn=fn: calls.append(fn) or fn(*a))
    passed = certify()
    pform.energy_momentum(), selfdual.energy_momentum()
    monkeypatch.setattr(
        fm.PFormModel, "killing_characteristic", lambda self, xi: doubled["pform"][id(xi)]
    )
    monkeypatch.setattr(
        fm.SelfDualModel, "characteristic", lambda self, xi: doubled["selfdual"][id(xi)]
    )
    monkeypatch.setattr(fm.ChiralModel, "internal_characteristic", lambda self, e: doubled["chiral"])
    failed = certify()
    assert calls == []
    assert all(passed) and not any(failed)


def test_triviality_witness_values():
    m = fm.PFormModel(L4, 2, Fraction(3), Fraction(3))
    g = m.triviality_witness()
    assert g is not None
    assert g == fm.LinDiffOp.identity(6).scale(3)
    assert fm.PFormModel(L4, 2, 1, 0).triviality_witness() is None
    g0 = fm.PFormModel(L4, 2, 0, 0).triviality_witness()
    assert g0 is not None and g0.is_zero()


def test_proper_symmetry_pform():
    m = fm.PFormModel(L4, 2, 1, 0)
    for name, xi in all_isometries(L4):
        ok, residuals = m.proper_symmetry(xi)
        assert ok, (name, residuals)
    # trivial anchor: transformation reduces to zero on shell
    m_triv = fm.PFormModel(L4, 2, 2, 2)
    ok, _ = m_triv.proper_symmetry(fo.translation(L4, 0))
    assert ok
    # zero vector: both sides vanish
    zero = fo.SpacetimeVector(L4, [ac.ZERO] * 4)
    assert m.proper_symmetry(zero)[0]


def test_kernel_equations_match_residuals():
    # V*(P) for a symbolic 2-form P, split into its two form slots: for
    # nonzero rational a, b their zero sets are dP = 0 and d*P = 0
    m = fm.PFormModel(L4, 2, Fraction(3), Fraction(5))
    _, vstar = m.anchor_ops()
    out = vstar.apply(fm.form_to_vector(fo.field_form(L4, "P", 2)))
    dim1 = len(fm.grade_basis(L4, 3))
    k1, k2 = fm.vector_to_form(L4, 3, out[:dim1]), fm.vector_to_form(L4, 3, out[dim1:])
    p_model = fm.PFormModel(L4, 2, 1, 1, field_name="P")
    r1, r2 = p_model.residuals()
    assert k1 == r1.scale(3)
    assert k2 == r2.scale(5)


# --- self-dual model ----------------------------------------------------------


def test_selfdual_construction_enforced():
    sd = fm.SelfDualModel(L2)
    assert fo.hodge(sd.H) == sd.H
    with pytest.raises(fm.FieldModelError):
        fm.SelfDualModel(E2)
    with pytest.raises(fm.FieldModelError):
        fm.SelfDualModel(L4)


def test_selfdual_certificates():
    sd = fm.SelfDualModel(L2)
    for name, xi in all_isometries(L2) + [("dil", fo.dilation(L2))]:
        ok, payload = sd.verify(xi)
        assert ok, (name, payload)


def test_selfdual_zero_vector_trivial():
    sd = fm.SelfDualModel(L2)
    zero = fo.SpacetimeVector(L2, [ac.ZERO, ac.ZERO])
    ok, residuals = sd.verify(zero)
    assert ok and "current_residual" not in residuals


def test_selfdual_rejects_non_conformal():
    sd = fm.SelfDualModel(L2)
    bad = fo.SpacetimeVector(L2, [L2.coord_expr(1) ** 2, ac.ZERO])
    with pytest.raises(fm.FieldModelError):
        sd.verify(bad)


def test_selfdual_energy_momentum():
    emt = fm.SelfDualModel(L2).energy_momentum()
    assert ac.is_identically_zero(ac.canonicalize(emt[0][1] - emt[1][0]))


# --- Lie algebras --------------------------------------------------------------


def test_su2_is_valid():
    algebra = fm.su2()
    assert algebra.n == 3
    assert algebra.structure(0, 1, 2) == 1
    assert algebra.structure(1, 0, 2) == -1


def test_invalid_structure_constants():
    with pytest.raises(fm.FieldModelError):
        fm.LieAlgebra(2, {(0, 1, 0): Fraction(1), (1, 0, 0): Fraction(1)})
    # antisymmetric but violating Jacobi
    bad = {
        (0, 1, 0): Fraction(1),
        (1, 0, 0): Fraction(-1),
        (0, 2, 1): Fraction(1),
        (2, 0, 1): Fraction(-1),
        (1, 2, 0): Fraction(1),
        (2, 1, 0): Fraction(-1),
    }
    with pytest.raises(fm.FieldModelError):
        fm.LieAlgebra(3, bad)


def test_structure_constant_index_out_of_range_is_refused():
    # the bracket [t^0, t^1] = t^2 names a third generator of a 2-dimensional
    # algebra; it must not validate as the abelian algebra
    with pytest.raises(fm.FieldModelError, match=r"f\(0, 1, 2\) has an index outside 0\.\.1"):
        fm.LieAlgebra(2, {(0, 1, 2): 1, (1, 0, 2): -1})
    with pytest.raises(fm.FieldModelError, match="outside"):
        fm.LieAlgebra(3, {(0, -1, 2): 0})


def _dense_verdict(n, f):
    """The dense O(n^5) loop over every index: the error message, or None.
    An entry with an index outside 0..n-1 is refused before the loop."""
    for key in f:
        if not all(0 <= i < n for i in key):
            return f"structure constant f{key} has an index outside 0..{n - 1}"

    def s(a, b, c):
        return f.get((a, b, c), Fraction(0))

    r = range(n)
    if any(s(a, b, c) != -s(b, a, c) for a, b, c in itertools.product(r, repeat=3)):
        return "structure constants are not antisymmetric"
    for a, b, c, d in itertools.product(r, repeat=4):
        if sum(s(a, b, e) * s(e, c, d) + s(b, c, e) * s(e, a, d) + s(c, a, e) * s(e, b, d) for e in r):
            return "Jacobi identity fails"
    return None


def _sparse_verdict(n, f):
    try:
        fm.LieAlgebra(n, f)
    except fm.FieldModelError as exc:
        return str(exc)
    return None


def _random_structure(rng):
    """Sparse brackets on n <= 4 generators, antisymmetric unless broken on
    purpose; now and then an entry with an index outside 0..n-1."""
    n = rng.randint(1, 4)
    f = {}
    for _ in range(rng.randint(0, 5) if n > 1 else 0):
        a, b = rng.sample(range(n), 2)
        c = rng.randrange(n)
        v = Fraction(rng.choice((-2, -1, 1, 2)), rng.choice((1, 1, 2)))
        f[(a, b, c)] = v
        f[(b, a, c)] = -v
    if rng.random() < 0.2:
        a, b, c = (rng.randrange(n) for _ in range(3))
        f[(a, b, c)] = f.get((a, b, c), Fraction(1)) * 2
    if rng.random() < 0.1:
        f[(n, 0, 0)] = Fraction(1)
    return n, f


def test_sparse_lie_validation_matches_dense_reference():
    rng = random.Random(20101)
    kinds = collections.Counter()
    for _ in range(400):
        n, f = _random_structure(rng)
        verdict = _dense_verdict(n, f)
        assert _sparse_verdict(n, f) == verdict, (n, f)
        kinds["index out of range" if verdict and "outside" in verdict else verdict] += 1
    # the inputs reach every verdict
    assert set(kinds) == {
        None,
        "structure constants are not antisymmetric",
        "Jacobi identity fails",
        "index out of range",
    }
    assert min(kinds.values()) >= 40


@settings(max_examples=40, deadline=None)
@given(st.lists(st.fractions(max_denominator=5), min_size=3, max_size=3))
def test_lie_validation_accepts_the_class_a_family(lam):
    # f^{ab}_c = lambda_c epsilon_{abc} satisfies Jacobi for every lambda
    f = {
        perm: lam[perm[2]] * fo._merge_sign(perm, ())[0]
        for perm in itertools.permutations(range(3))
    }
    assert _sparse_verdict(3, f) is None and _dense_verdict(3, f) is None


# --- chiral model ---------------------------------------------------------------


def test_chiral_all_certificates_su2():
    model = fm.ChiralModel(L2, fm.su2(), ac.param("g"))
    ok, payload = model.verify([ac.param("e1"), ac.param("e2"), ac.param("e3")])
    assert ok, payload


def test_chiral_rational_coupling_and_epsilon():
    model = fm.ChiralModel(L2, fm.su2(), Fraction(2, 3))
    ok, _ = model.verify([1, Fraction(-1, 2), 3])
    assert ok


def test_chiral_epsilon_zero():
    model = fm.ChiralModel(L2, fm.su2(), ac.param("g"))
    ok, residuals = model.verify([0, 0, 0])
    assert ok and "current_residual" not in residuals


def test_chiral_epsilon_must_be_constant():
    model = fm.ChiralModel(L2, fm.su2(), 1)
    with pytest.raises(fm.FieldModelError):
        model.verify([L2.coord_expr(0), 0, 0])


def test_chiral_g_zero_blocks_match_selfdual():
    model = fm.ChiralModel(L2, fm.su2(), 0)
    for a in range(3):
        sd = fm.SelfDualModel(L2, f"H{a + 1}")
        v_sd, _ = sd.anchor_ops()
        assert model.abelian_block(a) == v_sd
    v, _ = model.anchor_ops()
    for (r, c, _), _coeff in v.entries.items():
        assert r // model.mid_dim == c // model.out_dim


def test_chiral_g_zero_reports_byte_identical():
    model = fm.ChiralModel(L2, fm.su2(), 0)
    for name, xi in [("t0", fo.translation(L2, 0)), ("t1", fo.translation(L2, 1)), ("dil", fo.dilation(L2))]:
        ok, residuals = model.spacetime_verify(xi)
        assert ok
        for a in range(3):
            sd = fm.SelfDualModel(L2, f"H{a + 1}")
            ok_sd, residuals_sd = sd.verify(xi)
            assert ok_sd
            assert residuals.get(f"H{a + 1}", {}) == residuals_sd


def test_chiral_n1_abelian_matches_selfdual():
    model = fm.ChiralModel(L2, fm.abelian(1), 0)
    sd = fm.SelfDualModel(L2, "H1")
    v_c, _ = model.anchor_ops()
    v_s, _ = sd.anchor_ops()
    assert v_c == v_s
    xi = fo.translation(L2, 0)
    _, residuals_c = model.spacetime_verify(xi)
    _, residuals_s = sd.verify(xi)
    assert residuals_c.get("H1", {}) == residuals_s


_CHIRAL_VECTORS = [
    ("t0", fo.translation(L2, 0)),
    ("t1", fo.translation(L2, 1)),
    ("dil", fo.dilation(L2)),
    ("r01", fo.rotation(L2, 0, 1)),
]
_CHIRAL_CASES = [
    (name, g) for name in ("su2", "abelian3", "abelian1") for g in (0, Fraction(3, 4), "g")
]


def _chiral(name, g):
    return fm.ChiralModel(L2, fm.ALGEBRAS[name](), ac.param(g) if g == "g" else g)


def _reference_spacetime_verify(model, xi):
    """The per-component loop: each component's self-dual certificates,
    verified on a model of its own."""
    results = {
        f"H{a + 1}": fm.SelfDualModel(L2, f"H{a + 1}").verify(xi)[1] for a in range(model.N)
    }
    failed = {field: r for field, r in results.items() if r}
    return not failed, failed


@pytest.mark.parametrize("name, g", _CHIRAL_CASES)
def test_chiral_spacetime_verify_matches_the_component_loop(name, g):
    model = _chiral(name, g)
    for _, xi in _CHIRAL_VECTORS:
        assert model.spacetime_verify(xi) == _reference_spacetime_verify(model, xi) == (True, {})


@pytest.mark.parametrize("name, g", _CHIRAL_CASES)
def test_chiral_spacetime_fail_lists_every_component(monkeypatch, name, g):
    original = fm.SelfDualModel.characteristic
    monkeypatch.setattr(
        fm.SelfDualModel, "characteristic", lambda self, xi: original(self, xi).scale(2)
    )
    model = _chiral(name, g)
    for vector, xi in _CHIRAL_VECTORS:
        ok, failed = model.spacetime_verify(xi)
        reference = _reference_spacetime_verify(model, xi)
        assert not ok and list(failed) == [f"H{a + 1}" for a in range(model.N)], vector
        assert (ok, failed) == reference
        assert cli._verdict(ok, failed) == cli._verdict(*reference)


def test_chiral_spacetime_pass_verifies_one_component(monkeypatch):
    calls = collections.Counter()
    original = fm.SelfDualModel.verify

    def counted(self, xi):
        calls[self.field_name] += 1
        return original(self, xi)

    monkeypatch.setattr(fm.SelfDualModel, "verify", counted)
    model = fm.ChiralModel(L2, fm.su2(), ac.param("g"))
    for vector, xi in _CHIRAL_VECTORS:
        calls.clear()
        assert model.spacetime_verify(xi) == (True, {})
        assert calls == {"H1": 1}, vector


def test_chiral_wrong_space():
    with pytest.raises(fm.FieldModelError):
        fm.ChiralModel(L4, fm.su2(), 1)


# --- component operators against loop-built references ------------------------
#
# The operators are linearizations of the forms operations.  These references
# build the same matrices from their own permutation-sign loops, so a sign
# changed in forms.exterior_d, forms.hodge or forms.wedge shows up here.


def _reference_d_operator(space, k):
    dom = fm.grade_basis(space, k)
    cod = fm.grade_basis(space, k + 1)
    cod_pos = {idx: r for r, idx in enumerate(cod)}
    entries = {}
    for c, idx in enumerate(dom):
        for mu in range(space.n):
            if mu in idx:
                continue
            sign, new_idx = fo._merge_sign((mu,), idx)
            key = (cod_pos[new_idx], c, ex.MultiIndex({space.coords[mu]: 1}))
            coeff = ex.rational(sign)
            entries[key] = entries[key] + coeff if key in entries else coeff
    return LinDiffOp(len(cod), len(dom), entries)


def _reference_hodge_operator(space, k):
    dom = fm.grade_basis(space, k)
    cod = fm.grade_basis(space, space.n - k)
    cod_pos = {idx: r for r, idx in enumerate(cod)}
    entries = {}
    full = set(range(space.n))
    for c, idx in enumerate(dom):
        complement = tuple(sorted(full - set(idx)))
        sign, _ = fo._merge_sign(idx, complement)
        raised = 1
        for m in idx:
            raised *= space.signature[m]
        entries[(cod_pos[complement], c, ex.EMPTY_INDEX)] = ex.rational(sign * raised)
    return LinDiffOp(len(cod), len(dom), entries)


def _reference_selfdual_projector(space):
    star = _reference_hodge_operator(space, space.n // 2)
    return (LinDiffOp.identity(star.rows) + star).scale(ex.rational(1, 2))


def _reference_chiral_wedge(model):
    """The zero-order operator P_a -> g f^{ab}_c P_a ^ H_b."""
    basis1 = fm.grade_basis(model.space, 1)
    basis2 = fm.grade_basis(model.space, 2)
    entries = {}
    for c_alg in range(model.N):
        for a_alg in range(model.N):
            for b_alg in range(model.N):
                f_abc = model.algebra.structure(a_alg, b_alg, c_alg)
                if not f_abc:
                    continue
                # wedge of the unit 1-form basis with H_{b_alg}
                for col, i_idx in enumerate(basis1):
                    for j_idx, h_coeff in model.H[b_alg].components.items():
                        sign, merged = fo._merge_sign(i_idx, j_idx)
                        if sign is None:
                            continue
                        row = basis2.index(merged)
                        key = (
                            c_alg * model.out_dim + row,
                            a_alg * model.mid_dim + col,
                            ex.EMPTY_INDEX,
                        )
                        term = ex.rational(f_abc * sign) * model.g * h_coeff
                        entries[key] = entries[key] + term if key in entries else term
    return LinDiffOp(model.out_dim * model.N, model.mid_dim * model.N, entries)


def _assert_same_operator(op, ref):
    assert (op.rows, op.cols) == (ref.rows, ref.cols)
    assert op == ref


@pytest.mark.parametrize("n", range(1, 7))
def test_component_operators_match_reference(n):
    for space in (fo.euclidean(n), fo.lorentzian(n)):
        for k in range(n + 1):
            _assert_same_operator(fm.hodge_operator(space, k), _reference_hodge_operator(space, k))
            if k < n:
                _assert_same_operator(fm.d_operator(space, k), _reference_d_operator(space, k))
    if n % 4 == 2:
        space = fo.lorentzian(n)
        mid = n // 2
        adjoint = fm.pairing_adjoint(
            _reference_d_operator(space, mid),
            fm.metric_weights(space, mid),
            fm.metric_weights(space, mid + 1),
        )
        v, _ = fm.SelfDualModel(space).anchor_ops()
        _assert_same_operator(v, _reference_selfdual_projector(space).compose(adjoint))


def test_rebound_form_operations_keep_the_operator_cache(monkeypatch):
    # a profiler wraps fo.exterior_d and fo.hodge anew on every install, as
    # three installs do here: the operators stay keyed by name, so a warm
    # run linearizes only the model's own equations, once, as an unwrapped
    # warm run does, and the cache does not grow
    argv = ["catalog", "pform", "--n", "4", "--p", "2"]
    fields, linearize = [], fm.linearize
    monkeypatch.setattr(fm, "linearize", lambda *a: fields.append(a[1]) or linearize(*a))
    with contextlib.redirect_stdout(io.StringIO()):
        assert cli.main(argv) == 0
    size = fm._linear_operator.cache_info().currsize
    for _ in range(3):
        for name in ("exterior_d", "hodge"):
            fn = getattr(fo, name)
            monkeypatch.setattr(fo, name, functools.wraps(fn)(lambda *a, fn=fn, **k: fn(*a, **k)))
        fields.clear()
        with contextlib.redirect_stdout(io.StringIO()):
            assert cli.main(argv) == 0
        assert fm._linear_operator.cache_info().currsize == size
        assert fields == [["F01", "F02", "F03", "F12", "F13", "F23"]]


@settings(max_examples=30, deadline=None)
@given(
    st.sampled_from(sorted(fm.ALGEBRAS)),
    st.fractions(min_value=-5, max_value=5, max_denominator=12),
)
def test_chiral_anchor_matches_reference(name, g):
    model = fm.ChiralModel(L2, fm.ALGEBRAS[name](), g)
    v, vstar = model.anchor_ops()
    ref_vstar = fm._block(_reference_d_operator(L2, 1), model.N) + _reference_chiral_wedge(model)
    _assert_same_operator(vstar, ref_vstar)
    kappa = model.algebra.kappa
    w_in = [w * kappa[a] for a in range(model.N) for w in fm.metric_weights(L2, 1)]
    w_out = [w * kappa[a] for a in range(model.N) for w in fm.metric_weights(L2, 2)]
    adjoint = fm.pairing_adjoint(ref_vstar, w_in, w_out)
    ref_v = fm._block(_reference_selfdual_projector(L2), model.N).compose(adjoint)
    _assert_same_operator(v, ref_v)


def test_pairing_adjoint_scales_the_formal_adjoint():
    op = fm.d_operator(L2, 1).scale(ac.jet("u"))  # from 1-forms (2) to 2-forms (1)
    w_in, w_out = [Fraction(1, 3), -2], [Fraction(-5, 2)]
    expected = LinDiffOp(
        2, 1, {k: v * w_in[k[0]] * w_out[k[1]] for k, v in op.formal_adjoint().entries.items()}
    )
    adjoint = fm.pairing_adjoint(op, w_in, w_out)
    assert (adjoint.rows, adjoint.cols) == (2, 1) and adjoint.entries == expected.entries
    with pytest.raises(ValueError, match="weight is zero"):
        fm.pairing_adjoint(op, [1, 0], w_out)


# --- optional slow-suite configuration: n = 6, p = 3 ----------------------------


@pytest.mark.slow
def test_six_dimensional_configuration():
    l6 = fo.lorentzian(6)
    m = fm.PFormModel(l6, 3, 1, 0)
    assert m.noether_identity_check()[0]
    assert m.anchor_verify()[0]
    assert m.current_certificate(fo.translation(l6, 0))[0]
    assert m.proper_symmetry(fo.translation(l6, 0))[0]
    sd = fm.SelfDualModel(l6)
    assert sd.verify(fo.translation(l6, 0))[0]
    assert sd.verify(fo.dilation(l6))[0]

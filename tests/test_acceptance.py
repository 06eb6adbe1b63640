"""Acceptance suite: one test per criterion, exact tolerances, one
pass/fail line each (the test name doubles as the criterion label)."""

import io
import itertools
import random
import time
from contextlib import redirect_stdout
from fractions import Fraction
from pathlib import Path

import anchorcalc as ac
from anchorcalc import cli, expr as ex, field_models as fm, forms as fo, numeric, ode
from anchorcalc.modelfile import parse_model

FIXTURES = Path(__file__).parent / "fixtures"
OSCILLATOR = FIXTURES / "oscillator.ini"

x1, x2, x3 = ac.jet("x1"), ac.jet("x2"), ac.jet("x3")
t = ac.indep("t")


def _report(line):
    print(f"[acceptance] {line}")


def _random_density(rng, fields=3, max_order=2, terms=5):
    gens = [t]
    for i in range(fields):
        for k in range(max_order + 1):
            gens.append(ac.jet(f"x{i + 1}", {"t": k} if k else {}))
    e = ac.rational(rng.randint(-3, 3))
    for _ in range(terms):
        term = ac.rational(rng.randint(-5, 5))
        for _ in range(rng.randint(1, 3)):
            term = term * gens[rng.randrange(len(gens))]
        e = e + term
    return e


def _random_x_poly(rng, n=2, degree=4, terms=5):
    gens = [ac.jet(f"x{i + 1}") for i in range(n)]
    e = ac.rational(rng.randint(-3, 3))
    for _ in range(terms):
        term = ac.rational(rng.randint(-4, 4))
        for _ in range(rng.randint(1, degree)):
            term = term * gens[rng.randrange(len(gens))]
        e = e + term
    return e


def test_criterion_1_euler_annihilation():
    start = time.monotonic()
    rng = random.Random(10001)
    for case in range(100):
        density = _random_density(rng)
        divergence = ac.total_derivative(density, "t")
        for i in range(3):
            residual = ac.euler_derivative(divergence, f"x{i + 1}")
            assert ac.is_identically_zero(residual), (case, i)
    elapsed = time.monotonic() - start
    assert elapsed < 30.0, f"euler-annihilation suite took {elapsed:.1f}s"
    _report(f"criterion 1 PASS (100 densities, {elapsed:.1f}s)")


def test_criterion_2_oscillator_pipeline():
    model = parse_model(OSCILLATOR)
    sys_, alpha, f = model.system, model.alpha, model.f
    assert ode.check_anchor(sys_, alpha)[0]
    assert ode.check_characteristic(sys_, f)[0]
    image = ode.anchor_apply(alpha, f)
    assert ode.check_symmetry(sys_, image)[0]
    assert ode.proper_symmetry_conditions(sys_, alpha, ode.differential(f, 2))[0]
    records = numeric.integrate_drift(
        sys_,
        [("f", f)],
        seed=0,
        t_end=numeric.DEFAULT_T_END,
        step=numeric.DEFAULT_STEP,
        points=numeric.DEFAULT_POINTS,
    )
    assert records[0].drift < 1e-6, records[0].drift
    assert records[0].stop is None
    _report(f"criterion 2 PASS (drift {records[0].drift:.2e} < 1e-6)")


def test_criterion_3_twist_reproduction():
    rng = random.Random(333)
    alpha = ode.canonical_bivector(2)
    free = ode.free_system(2)
    for case in range(10):
        h = _random_x_poly(rng)
        deformed = ode.deform(free, alpha, h)
        expected = ode.OdeSystem(
            [
                ac.canonicalize(-sum(
                    (alpha.entry(i, j) * ex.diff(h, ac.jet(ode.field_name(j))) for j in range(2)),
                    ac.ZERO,
                ))
                for i in range(2)
            ]
        )
        assert deformed == expected, case
        assert ode.check_characteristic(deformed, h)[0], case
    _report("criterion 3 PASS (10 random twists reproduce Hamiltonian systems)")


def test_criterion_4_so3_homomorphism():
    so3 = ode.so3_bivector()
    assert ode.schouten_square(so3).is_zero()
    rng = random.Random(444)
    for case in range(20):
        f = _random_x_poly(rng, n=3, degree=3)
        g = _random_x_poly(rng, n=3, degree=3)
        ok, residual = ode.commutator_matches_bracket(so3, f, g)
        assert ok, (case, [ac.to_text(r) for r in residual])
    _report("criterion 4 PASS (20 pairs, sigma = -1)")


def test_criterion_5_maxwell_model():
    start = time.monotonic()
    space = fo.lorentzian(4)
    model = fm.PFormModel(space, 2, 1, 0)
    assert model.noether_identity_check()[0]
    vectors = [(f"t{mu}", fo.translation(space, mu)) for mu in range(4)]
    vectors += [
        (f"r{mu}{nu}", fo.rotation(space, mu, nu))
        for mu, nu in itertools.combinations(range(4), 2)
    ]
    assert len(vectors) == 10
    for name, xi in vectors:
        ok, residuals = model.current_certificate(xi)
        assert ok, (name, residuals)
    model.energy_momentum()  # raises on symmetry/trace failure
    ok, residuals = model.anchor_verify()
    assert ok, residuals
    ok, residuals = model.proper_symmetry(fo.translation(space, 0))
    assert ok, residuals
    grid = [Fraction(0), Fraction(1), Fraction(2), Fraction(1, 2), Fraction(3)]
    for a in grid:
        for b in grid:
            m = fm.PFormModel(space, 2, a, b)
            assert m.anchor_verify()[0], (a, b)
            witness = m.triviality_witness()
            assert (witness is not None) == (a == b), (a, b)
    elapsed = time.monotonic() - start
    assert elapsed < 300.0, f"maxwell suite took {elapsed:.1f}s"
    _report(f"criterion 5 PASS (10 currents, 5x5 grid, {elapsed:.1f}s)")


def test_criterion_6_selfdual_model():
    space = fo.lorentzian(2)
    model = fm.SelfDualModel(space)
    for name, xi in [
        ("t0", fo.translation(space, 0)),
        ("t1", fo.translation(space, 1)),
        ("dil", fo.dilation(space)),
    ]:
        ok, residuals = model.verify(xi)
        assert ok, (name, residuals)
        assert "current_residual" not in residuals
        assert "transform_residual" not in residuals
    _report("criterion 6 PASS (translations + dilation certificates exact)")


def test_criterion_7_chiral_model():
    space = fo.lorentzian(2)
    model = fm.ChiralModel(space, fm.su2(), ac.param("g"))
    ok, residuals = model.verify([ac.param("e1"), ac.param("e2"), ac.param("e3")])
    assert ok, residuals
    # no current, transform or symmetry residual; the bracket's Jacobi
    # identity holds by construction of the algebra
    assert residuals == {}

    degenerate = fm.ChiralModel(space, fm.su2(), 0)
    xi = fo.translation(space, 0)
    ok, residuals = degenerate.spacetime_verify(xi)
    assert ok
    for a in range(3):
        reference = fm.SelfDualModel(space, f"H{a + 1}")
        ok_ref, residuals_ref = reference.verify(xi)
        assert ok_ref
        assert residuals.get(f"H{a + 1}", {}) == residuals_ref
        assert degenerate.abelian_block(a) == reference.anchor_ops()[0]
    _report("criterion 7 PASS (internal certificates; g=0 blocks byte-identical)")


def test_criterion_8_adjoint_involution_and_pairing():
    from tests_helpers_linop import rand_op, rand_vec  # local helper below

    rng = random.Random(888)
    for case in range(20):
        A = rand_op(rng)
        assert A.formal_adjoint().formal_adjoint() == A, case
        u, w = rand_vec(rng), rand_vec(rng)
        Au = A.apply(u)
        Aw = A.formal_adjoint().apply(w)
        pairing = ac.ZERO
        for i in range(2):
            pairing = pairing + Au[i] * w[i] - u[i] * Aw[i]
        pairing = ac.canonicalize(pairing)
        for f in ("x1", "x2"):
            assert ac.is_identically_zero(ac.euler_derivative(pairing, f)), case
        j = ac.divergence_split(pairing)
        assert j is not None, case
        assert ac.is_identically_zero(ac.total_derivative(j, "t") - pairing), case
    _report("criterion 8 PASS (20 operators: involution + divergence pairing)")


def test_criterion_9_determinism():
    def suite():
        docs = []
        for argv in (
            ["check", str(OSCILLATOR), "--json"],
            ["oracle", str(OSCILLATOR), "--seed", "41", "--json"],
            ["catalog", "selfdual", "--n", "2", "--json"],
        ):
            buf = io.StringIO()
            with redirect_stdout(buf):
                code = cli.main(argv)
            assert code == 0
            docs.append(buf.getvalue())
        return "".join(docs)

    first = suite()
    second = suite()
    assert first == second
    _report("criterion 9 PASS (byte-identical machine reports)")

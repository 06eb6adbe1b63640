"""Frozen sign and orientation conventions.

Every sign-sensitive construction in the package flows from the constants
below.  They were fixed once by the calibration procedures described in
CONVENTIONS.md (brute force on the two-dimensional canonical bivector and
the harmonic-oscillator Hamiltonian, plus pointwise evaluation of the
bracket homomorphism on so(3)); the test suite re-runs those calibrations
against the frozen values.
"""

from .expr import BUDGETS

# Hamiltonian deformation: deform(sys, alpha, H) returns v' = v - alpha.grad(H),
# so the free system deforms to xdot^i = {x^i, H} with the bracket below.
TWIST_SIGN = -1

# Vector-field commutator vs. bracket of characteristics:
#   [V(f), V(g)] = HOMOMORPHISM_SIGN * V({f, g})
# for integrable anchors, with V(f)^i = alpha^{ij} d_j f and
# {f, g} = alpha^{ij} d_i f d_j g.
HOMOMORPHISM_SIGN = -1

CONVENTION_SHEET = (
    """\
anchorcalc convention sheet (version 1)

Exact kernel
  * Canonical form: expanded sum of Laurent monomials over jet/independent/
    parameter/function atoms with rational coefficients, graded-lex ordered,
    largest monomial first.  sin/cos/exp/log are opaque atoms.
  * Residual reduction: each ODE check reduces a nonzero residual modulo
    sin(u)^2 + cos(u)^2 - 1 for every argument u, rewriting cos(u)^k,
    k >= 2, as cos(u)^(k-2) * (1 - sin(u)^2), and prints the result.  With
    negative powers of cos(u), the residual is zero when its product with
    the monomial of their largest inverse powers reduces to zero; a
    nonzero one keeps its negative powers.
  * Budgets, all constants; a run that would pass one exits 2:
"""
    + "".join(f"      {name}: {limit} {unit}\n" for name, (limit, unit) in BUDGETS.items())
    + """
ODE bivector calculus (fields x1..xn, independent variable t)
  * Equations of motion: xdot^i + v^i(t, x) = 0.
  * Characteristic: d_t f = v.grad f; symmetry: d_t w = [v, w];
    anchor: d_t alpha = L_v alpha (componentwise
    v.grad alpha^{ij} - alpha^{kj} d_k v^i - alpha^{ik} d_k v^j).
  * Anchor application: w^i = alpha^{ij} d_j f.
  * Poisson bracket: {f, g} = alpha^{ij} d_i f d_j g.
  * Jacobi obstruction (Schouten square, normalization = Jacobiator):
    S^{ijk} = sum over cyclic (ijk) of alpha^{im} d_m alpha^{jk}.
  * Twist sign: deform(sys, alpha, H) has v'^i = v^i - alpha^{ij} d_j H,
    so deform(free, canonical alpha, H) is xdot^i = {x^i, H}; with
    H = (x1^2 + x2^2)/2 this is the harmonic oscillator v = (-x2, x1).
  * Bracket homomorphism sign: [V(f), V(g)] = -V({f, g}).

Exterior calculus on flat R^n, diagonal metric eta, orientation
  * epsilon_{0 1 ... n-1} = +1; volume form = dx0 ^ ... ^ dx{n-1}.
  * Hodge star: (*a)_J = a^I epsilon_{I J}, indices raised with eta.
    Double star on grade k: ** = (-1)^{k(n-k)} * sign(det eta).
  * Lorentzian signature is written (-1, +1, ..., +1).
  * Inner product density: (A, B) = A ^ *B.

p-form model (T1 = dF, T2 = d*F; anchor <W, V*(P)> = a(W1,dP) + b(W2,d*P))
  * sigma_eta := sign(det eta) = (-1)^(number of minus signs).
  * Characteristic of a Killing (or critical-dimension conformal) vector xi:
      Psi1 = sigma_eta * (-1)^((n-p)(p-1)) * i_xi * F
      Psi2 = sigma_eta * (-1)^(p-1)       * i_xi F
    The sigma_eta factor continues the Riemannian formulas to indefinite
    signature so that the current certificate
      (Psi1, T1) + (Psi2, T2) - d j = 0   (exactly, off shell)
    holds with the current
      j = ((i_xi F) ^ *F + (-1)^(p-1) F ^ (i_xi *F)) / 2.
  * Proper symmetry: V(Psi) reduces on shell to (a - b) L_xi F.
  * Energy-momentum: for xi = d/dx^mu, *j = T_{mu nu} dx^nu; normalization
    recorded in the golden file (Maxwell: T_{mu nu} =
    F_{mu lam} F_nu^lam - 1/4 eta_{mu nu} F^2 with increasing-pair sums).

Self-dual model (n = 4k+2 Lorentzian, *H = H, T = dH)
  * Psi = -*i_xi H, j = (i_xi H ^ H)/2, both literal; V(W) is the
    self-dual projection of the pairing adjoint of P -> dP.
  * On shell V(Psi) = L_xi H.

Chiral multiplet (n = 2, N self-dual 1-forms, semi-simple algebra)
  * Structure constants f^{ab}_c with [t^a, t^b] = f^{ab}_c t^c; the
    shipped su(2) catalog entry uses f^{ab}_c = epsilon_{abc} and Killing
    metric kappa = identity.
  * Anchor <W, V*(P)> = (W^a, dP_a + g [P, H]_a) with
    [A ^ B]_a = f^{bc}_a A_b ^ B_c.
  * Characteristic Psi = -*epsilon_a t^a gives V(Psi) = -g [epsilon, H]
    exactly, and the bracket of frame sections is -g f_{ab}^c e_c.  These
    structure constants satisfy Jacobi because f does, which is checked
    once when the LieAlgebra is built.
"""
)

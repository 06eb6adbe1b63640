"""Field-theory model families: p-form, self-dual and chiral-boson systems.

Each model packages its equations of motion, anchor operators (built from
the pairing adjoint of the declared V*), characteristics of space-time or
internal symmetries, conserved currents with exact jet-level certificates,
and energy-momentum extraction.  All sign choices flow from the frozen
Hodge convention; see conventions.CONVENTION_SHEET.  The component operators
(d, *, the self-dual projector and the chiral wedge with H) are universal
linearizations of the forms operations applied to symbolic forms, so the
signs of d, * and the wedge live in forms alone.
"""

from __future__ import annotations

import functools
import itertools
import math
from fractions import Fraction

from . import expr as ex
from . import forms as fo
from .expr import is_identically_zero
from .forms import FlatSpace, Form, SpacetimeVector
from .linop import LinDiffOp, ShellRules, linearize, sum_of_products


class FieldModelError(ex.ExprError):
    pass


# Field models memoise their derived artifacts in the instance dict.  Each
# value is a pure function of the constructor arguments (and of xi), so a
# racing first call only recomputes the same value.


def _memoised(method):
    """Compute a model artifact once per instance, or, for a method of a
    vector field xi, once per instance and xi, keyed by the canonical
    components of xi."""
    slot = "_memo_" + method.__name__

    @functools.wraps(method)
    def memoised(self, *xi: SpacetimeVector):
        cache = self.__dict__.setdefault(slot, {})
        key = xi[0].components if xi else None
        if key not in cache:
            cache[key] = method(self, *xi)
        return cache[key]

    return memoised


# ---------------------------------------------------------------------------
# component representation of form operators


def grade_basis(space: FlatSpace, k: int):
    return list(itertools.combinations(range(space.n), k))


def form_to_vector(form: Form):
    return [form.components.get(idx, ex.ZERO) for idx in grade_basis(form.space, form.grade)]


def vector_to_form(space: FlatSpace, grade: int, vec) -> Form:
    basis = grade_basis(space, grade)
    if len(vec) != len(basis):
        raise FieldModelError("component vector has the wrong length")
    return Form(space, grade, dict(zip(basis, vec)))


def _field_names(space: FlatSpace, name: str, k: int):
    """Names of the component fields of fo.field_form(space, name, k)."""
    return [name + "".join(str(m) for m in idx) for idx in grade_basis(space, k)]


# Field-name prefix of the symbolic forms that operators are read off; the
# models' own fields (F.., H.., H1..) never start with an underscore.
_PROBE = "_u"


# The operations that operators are read off, keyed by a name: each looks
# its forms function up when an operator is built, so a wrapper rebound over
# fo.exterior_d or fo.hodge, as a profiler installs, keeps the cache key.
_OPERATIONS = {
    "d": lambda u: fo.exterior_d(u),
    "hodge": lambda u: fo.hodge(u),
    "selfdual": lambda u: fo.selfdual_project(u)[0],
}


@functools.lru_cache(maxsize=None)
def _linear_operator(signature, k: int, name: str) -> LinDiffOp:
    """Component matrix of the linear form operation _OPERATIONS[name] on
    k-forms: the universal linearization of it applied to a symbolic
    k-form, so the signs are the ones forms applies.  Keyed by the
    signature tuple, as FlatSpace hashes by identity; the entries are
    rational constants and no caller mutates an operator."""
    space = FlatSpace(signature)
    u = fo.field_form(space, _PROBE, k)
    return linearize(form_to_vector(_OPERATIONS[name](u)), _field_names(space, _PROBE, k))


def d_operator(space: FlatSpace, k: int) -> LinDiffOp:
    """Exterior derivative as a matrix operator on k-form components (k < n)."""
    return _linear_operator(space.signature, k, "d")


def hodge_operator(space: FlatSpace, k: int) -> LinDiffOp:
    """Hodge star as a matrix operator on k-form components."""
    return _linear_operator(space.signature, k, "hodge")


def _selfdual_operator(space: FlatSpace) -> LinDiffOp:
    """The projector (Id + *)/2 on middle-form components."""
    return _linear_operator(space.signature, space.n // 2, "selfdual")


def metric_weights(space: FlatSpace, k: int):
    """Diagonal weights of the inner product (A, B) = sum_I w_I A_I B_I."""
    return [math.prod(space.signature[m] for m in idx) for idx in grade_basis(space, k)]


def pairing_adjoint(op: LinDiffOp, weights_in, weights_out) -> LinDiffOp:
    """Adjoint with respect to weighted pairings on domain and codomain:
    (op P, W)_out = (adj W, P)_in up to a total divergence.  The weights
    are nonzero constants (ints or Fractions), so entry (r, c, alpha) of
    the formal adjoint is scaled by weights_in[r] * weights_out[c] and
    stays nonzero."""
    if 0 in weights_in or 0 in weights_out:
        raise ValueError("a pairing weight is zero")
    entries = op.formal_adjoint().entries
    for key, coeff in entries.items():
        w = weights_in[key[0]] * weights_out[key[1]]
        if w != 1:
            entries[key] = ex._expr(ex._pscale(coeff._poly, w.numerator, w.denominator))
    return LinDiffOp._of(op.cols, op.rows, entries)


def _vstack(top: LinDiffOp, bottom: LinDiffOp) -> LinDiffOp:
    if top.cols != bottom.cols:
        raise ValueError("column mismatch in stack")
    entries = dict(top.entries)
    for (r, c, a), v in bottom.entries.items():
        entries[(r + top.rows, c, a)] = v
    return LinDiffOp._of(top.rows + bottom.rows, top.cols, entries)


def _block(op: LinDiffOp, copies: int) -> LinDiffOp:
    entries = {}
    for k in range(copies):
        for (r, c, a), v in op.entries.items():
            entries[(r + k * op.rows, c + k * op.cols, a)] = v
    return LinDiffOp._of(op.rows * copies, op.cols * copies, entries)


def _d_or_zero(form: Form) -> Form:
    if form.grade == form.space.n:
        return fo.zero_form(form.space, form.space.n)
    return fo.exterior_d(form)


def _certificate(residuals):
    """(ok, the residuals that are not zero) for residual forms or operators
    keyed by name: what every field-model certificate returns."""
    nonzero = {name: r for name, r in residuals.items() if not r.is_zero()}
    return not nonzero, nonzero


# ---------------------------------------------------------------------------
# p-form model


class PFormModel:
    """Field strength F of grade p with equations dF = 0, d*F = 0 and the
    two-parameter anchor <W, V*(P)> = a (W1, dP) + b (W2, d*P)."""

    def __init__(self, space: FlatSpace, p: int, a, b, field_name: str = "F"):
        if not 1 <= p <= space.n - 1:
            raise FieldModelError(f"need 1 <= p <= n-1, got p={p}, n={space.n}")
        self.space = space
        self.p = p
        self.a = ex._coerce(a)
        self.b = ex._coerce(b)
        self.field_name = field_name
        self.F = fo.field_form(space, field_name, p)
        self.fields = _field_names(space, field_name, p)

    @property
    def sigma(self) -> int:
        return self.space.metric_sign

    # equations ----------------------------------------------------------
    @_memoised
    def residuals(self):
        return fo.exterior_d(self.F), fo.exterior_d(self._star_F())

    @_memoised
    def _star_F(self) -> Form:
        return fo.hodge(self.F)

    def residual_components(self):
        t1, t2 = self.residuals()
        return form_to_vector(t1) + form_to_vector(t2)

    def noether_identity_check(self):
        """dT1 = 0 and dT2 = 0; returns (ok, the nonzero residuals)."""
        t1, t2 = self.residuals()
        return _certificate({"dT1": _d_or_zero(t1), "dT2": _d_or_zero(t2)})

    @_memoised
    def shell(self) -> ShellRules:
        return ShellRules(self.residual_components(), self.space.coords)

    # characteristics and currents ----------------------------------------
    @_memoised
    def _check_vector(self, xi: SpacetimeVector) -> str:
        verdict = fo.conformal_killing_check(xi, self.space)
        if verdict == "killing":
            return verdict
        if verdict == "conformal" and self.space.n == 2 * self.p:
            return verdict
        raise FieldModelError(
            f"vector field is {verdict}; need killing, or conformal in the "
            f"critical dimension n = 2p"
        )

    @_memoised
    def _interior_F(self, xi: SpacetimeVector) -> Form:
        """i_xi F, which the characteristic, the current and L_xi F share."""
        return fo.interior(xi, self.F)

    @_memoised
    def _interior_star_F(self, xi: SpacetimeVector) -> Form:
        """i_xi *F, which the characteristic and the current share."""
        return fo.interior(xi, self._star_F())

    @_memoised
    def killing_characteristic(self, xi: SpacetimeVector):
        self._check_vector(xi)
        n, p = self.space.n, self.p
        sign1 = self.sigma * (-1) ** ((n - p) * (p - 1))
        sign2 = self.sigma * (-1) ** (p - 1)
        return fo.hodge(self._interior_star_F(xi), sign1), fo.hodge(self._interior_F(xi), sign2)

    @_memoised
    def killing_current(self, xi: SpacetimeVector) -> Form:
        """The current j(xi) = (i_xi F ^ *F + (-1)^(p-1) F ^ i_xi *F) / 2, built
        in one table; current_certificate certifies it."""
        self._check_vector(xi)
        j = fo._Sum(self.space, self.space.n - 1).add_wedge(self._interior_F(xi), self._star_F())
        return j.add_wedge(self.F, self._interior_star_F(xi), (-1) ** (self.p - 1)).form(2)

    def current_certificate(self, xi: SpacetimeVector):
        """The exact certificate (Psi1, T1) + (Psi2, T2) - dj = 0 of the
        current j(xi), built in one table; returns (ok, the nonzero
        residual)."""
        residual = fo._Sum(self.space, self.space.n)
        for psi, t in zip(self.killing_characteristic(xi), self.residuals()):
            residual.add_wedge(psi, fo.hodge(t))  # the pairing density (psi, t)
        residual.add_d(self.killing_current(xi), -1)
        return _certificate({"current_residual": residual.form()})

    def energy_momentum(self):
        """T_{mu nu} read from *j for the n translations, whose currents
        current_certificate certifies; asserts symmetry and (in the critical
        dimension) tracelessness."""
        currents = [
            self.killing_current(fo.translation(self.space, mu)) for mu in range(self.space.n)
        ]
        traceless = self.space.n == 2 * self.p
        return _energy_momentum(self.space, currents, traceless, "energy-momentum")

    # anchor ---------------------------------------------------------------
    @_memoised
    def _weights(self):
        """Pairing weights on the p-form fields and on the two residual slots."""
        space, p = self.space, self.p
        w_out = metric_weights(space, p + 1) + metric_weights(space, space.n - p + 1)
        return metric_weights(space, p), w_out

    @_memoised
    def anchor_ops(self):
        """(V, V*) as component operators; V is the pairing adjoint of V*."""
        space, p = self.space, self.p
        d_p = d_operator(space, p)
        d_dual = d_operator(space, space.n - p).compose(hodge_operator(space, p))
        vstar = _vstack(d_p.scale(self.a), d_dual.scale(self.b))
        v = pairing_adjoint(vstar, *self._weights())
        return v, vstar

    @_memoised
    def linearization(self) -> LinDiffOp:
        return linearize(self.residual_components(), self.fields)

    def anchor_verify(self):
        """Definition check J o V = V* o J*; exact (field-independent
        operators), returned as (ok, the nonzero residual operator), which
        is built in one table."""
        v, vstar = self.anchor_ops()
        j_op = self.linearization()
        j_star = pairing_adjoint(j_op, *self._weights())
        residual = sum_of_products([(1, j_op, v), (-1, vstar, j_star)])
        return _certificate({"anchor_residual": residual})

    def triviality_witness(self):
        """G with V* = J o G when a = b (the trivial anchor); None otherwise.
        V* - J o G is built in one table, V* as V* o Id."""
        if not is_identically_zero(self.a - self.b):
            return None
        g = LinDiffOp.identity(len(self.fields)).scale(self.a)
        _, vstar = self.anchor_ops()
        identity = LinDiffOp.identity(vstar.cols)
        if not sum_of_products([(1, vstar, identity), (-1, self.linearization(), g)]).is_zero():
            raise FieldModelError("trivial-anchor certificate failed")
        return g

    def proper_symmetry(self, xi: SpacetimeVector):
        """delta F = V(Psi) reduces on shell to (a - b) L_xi F; returns
        (ok, the nonzero residual).  delta F - (a - b) L_xi F is built in one
        table before its shell reduction."""
        psi1, psi2 = self.killing_characteristic(xi)
        v, _ = self.anchor_ops()
        delta = v.apply(form_to_vector(psi1) + form_to_vector(psi2))
        residual = fo._Sum(self.space, self.p).add(vector_to_form(self.space, self.p, delta))
        residual.add_lie(
            xi, self.F, self.b - self.a, da=self.residuals()[0], ia=self._interior_F(xi)
        )
        return _certificate(
            {"transform_residual": residual.form().map_coefficients(self.shell().reduce)}
        )


# ---------------------------------------------------------------------------
# self-dual model


class SelfDualModel:
    """Self-dual middle form H on Lorentzian R^{4k+2} with T = dH and the
    anchor <W, V*(P)> = (W, dP) for anti-self-dual P."""

    def __init__(self, space: FlatSpace, field_name: str = "H"):
        if space.n % 4 != 2 or not space.is_lorentzian():
            raise FieldModelError("self-dual fields need Lorentzian R^{4k+2}")
        self.space = space
        self.field_name = field_name
        raw = fo.field_form(space, field_name, space.n // 2)
        self.H, _ = fo.selfdual_project(raw)
        self.mid = space.n // 2
        self.fields = _field_names(space, field_name, self.mid)

    @_memoised
    def residual(self) -> Form:
        return fo.exterior_d(self.H)

    @_memoised
    def shell(self) -> ShellRules:
        return ShellRules(form_to_vector(self.residual()), self.space.coords)

    def noether_identity_check(self):
        """dT = 0; returns (ok, the nonzero residual)."""
        return _certificate({"dT": _d_or_zero(self.residual())})

    @_memoised
    def anchor_ops(self):
        """V = (self-dual projection) o pairing-adjoint of P -> dP on middle
        components; isotropy of the dual pairing makes the projection exact."""
        space = self.space
        d_mid = d_operator(space, self.mid)
        w_mid = metric_weights(space, self.mid)
        w_out = metric_weights(space, self.mid + 1)
        adjoint = pairing_adjoint(d_mid, w_mid, w_out)
        return _selfdual_operator(space).compose(adjoint), d_mid

    @_memoised
    def _interior_H(self, xi: SpacetimeVector) -> Form:
        """i_xi H, which the characteristic, the current and L_xi H share."""
        return fo.interior(xi, self.H)

    def characteristic(self, xi: SpacetimeVector) -> Form:
        return fo.hodge(self._interior_H(xi), -1)

    @_memoised
    def current(self, xi: SpacetimeVector) -> Form:
        """The current j(xi) = i_xi H ^ H / 2, built in one table."""
        return fo._Sum(self.space, self.space.n - 1).add_wedge(self._interior_H(xi), self.H).form(2)

    def _check_vector(self, xi: SpacetimeVector):
        verdict = fo.conformal_killing_check(xi, self.space)
        if verdict not in ("killing", "conformal"):
            raise FieldModelError("self-dual certificates need a conformal Killing vector")
        return verdict

    def verify(self, xi: SpacetimeVector):
        """The isotropy identity and both certificates; returns (ok, the
        nonzero residual forms keyed by name).  Each residual is built in
        one table."""
        self._check_vector(xi)
        space, psi = self.space, self.characteristic(xi)
        lie_H = fo.lie_derivative(xi, self.H, da=self.residual(), ia=self._interior_H(xi))
        v, _ = self.anchor_ops()
        delta = vector_to_form(space, self.mid, v.apply(form_to_vector(psi)))
        # the pairing density (psi, T) - dj
        current = fo._Sum(space, space.n).add_wedge(psi, fo.hodge(self.residual()))
        transform = fo._Sum(space, self.mid).add(delta).add(lie_H, -1).form()
        return _certificate(
            {
                "isotropy_identity": fo.wedge(self.H, lie_H),
                "current_residual": current.add_d(self.current(xi), -1).form(),
                "transform_residual": transform.map_coefficients(self.shell().reduce),
            }
        )

    def energy_momentum(self):
        currents = [
            self.current(fo.translation(self.space, mu)) for mu in range(self.space.n)
        ]
        return _energy_momentum(self.space, currents, True, "self-dual energy-momentum")


def _energy_momentum(space: FlatSpace, currents, traceless: bool, what: str):
    """T_{mu nu} read from *j = T_{mu nu} dx^nu for the n translation
    currents; asserts symmetry and, when traceless, a vanishing trace."""
    n = space.n
    matrix = [[sj.component((nu,)) for nu in range(n)] for sj in map(fo.hodge, currents)]
    for mu, nu in itertools.combinations(range(n), 2):
        gap = matrix[mu][nu] - matrix[nu][mu]
        if not is_identically_zero(gap):
            raise FieldModelError(f"{what} not symmetric at ({mu},{nu}): {ex.to_text(gap)}")
    if traceless:
        trace = sum(
            (ex.rational(s) * matrix[mu][mu] for mu, s in enumerate(space.signature)), ex.ZERO
        )
        if not is_identically_zero(trace):
            raise FieldModelError(f"{what} trace does not vanish")
    return matrix


# ---------------------------------------------------------------------------
# Lie algebras and the chiral model


class LieAlgebra:
    """Structure constants f^{ab}_c with [t^a, t^b] = f^{ab}_c t^c and a
    diagonal Killing metric; every index must lie in 0..n-1, and
    antisymmetry and the Jacobi identity are validated exactly at
    construction, by loops over the nonzero structure constants only."""

    def __init__(self, n: int, f, kappa=None):
        self.n = n
        table = {}
        for (a, b, c), value in f.items():
            if not all(i in range(n) for i in (a, b, c)):
                raise FieldModelError(
                    f"structure constant f{(a, b, c)} has an index outside 0..{n - 1}"
                )
            value = Fraction(value)
            if value:
                table[(a, b, c)] = value
        self.f = table
        self.kappa = [Fraction(k) for k in (kappa or [1] * n)]
        if len(self.kappa) != n or any(k == 0 for k in self.kappa):
            raise FieldModelError("Killing metric must be diagonal invertible")
        self._validate()

    def structure(self, a, b, c) -> Fraction:
        return self.f.get((a, b, c), Fraction(0))

    def _validate(self):
        f = self.f
        if any(f.get((b, a, c), 0) != -v for (a, b, c), v in f.items()):
            raise FieldModelError("structure constants are not antisymmetric")
        # J(a,b,c,d) = T(a,b,c,d) + T(b,c,a,d) + T(c,a,b,d) with
        # T(a,b,c,d) = sum_e f(a,b,e) f(e,c,d).  J is invariant under the
        # cyclic shifts of (a,b,c), so it can be nonzero only at a key of T.
        by_first = {}
        for (e, c, d), v in f.items():
            by_first.setdefault(e, []).append((c, d, v))
        t = {}
        for (a, b, e), v in f.items():
            for c, d, w in by_first.get(e, ()):
                t[a, b, c, d] = t.get((a, b, c, d), 0) + v * w
        for a, b, c, d in t:
            if t[a, b, c, d] + t.get((b, c, a, d), 0) + t.get((c, a, b, d), 0):
                raise FieldModelError("Jacobi identity fails")


def su2() -> LieAlgebra:
    """The catalog su(2): f^{ab}_c = epsilon_{abc}, Killing metric frozen to
    the identity normalization."""
    eps = {}
    for a, b, c in itertools.permutations(range(3)):
        eps[(a, b, c)] = Fraction(fo._merge_sign((a, b, c), ())[0])
    return LieAlgebra(3, eps)


def abelian(n: int) -> LieAlgebra:
    return LieAlgebra(n, {})


ALGEBRAS = {"su2": su2, "abelian3": lambda: abelian(3), "abelian1": lambda: abelian(1)}


class ChiralModel:
    """Multiplet of N self-dual 1-forms on Lorentzian R^2 with equations
    dH_a = 0 and anchor <W, V*(P)> = (W^a, dP_a + g [P, H]_a).  The
    components differ only in their field names, so the space-time
    certificates are verified once per multiplet (spacetime_verify)."""

    def __init__(self, space: FlatSpace, algebra: LieAlgebra, g, prefix: str = "H"):
        if space.n != 2 or not space.is_lorentzian():
            raise FieldModelError("the chiral model lives on Lorentzian R^2")
        self.space = space
        self.algebra = algebra
        self.N = algebra.n
        self.g = ex._coerce(g)
        self.prefix = prefix
        self.components = [
            SelfDualModel(space, f"{prefix}{a + 1}") for a in range(self.N)
        ]
        self.H = [m.H for m in self.components]
        self.mid_dim = len(grade_basis(space, 1))
        self.out_dim = len(grade_basis(space, 2))

    @_memoised
    def residuals(self):
        return tuple(m.residual() for m in self.components)

    @_memoised
    def shell(self) -> ShellRules:
        eqs = []
        for t in self.residuals():
            eqs.extend(form_to_vector(t))
        return ShellRules(eqs, self.space.coords)

    def bracket_form(self, a_forms, b_forms):
        """[A, B]_c = f^{ab}_c A_a ^ B_b for algebra-valued forms, each
        component built in one table."""
        grade = a_forms[0].grade + b_forms[0].grade
        out = [fo._Sum(self.space, grade) for _ in range(self.N)]
        for (a, b, c), coeff in self.algebra.f.items():
            out[c].add_wedge(a_forms[a], b_forms[b], coeff)
        return [s.form() for s in out]

    @_memoised
    def anchor_ops(self):
        """Stacked (V, V*); the g-term enters V* as a field-dependent
        zero-order operator and V by the weighted adjoint plus self-dual
        projection."""
        space, kappa = self.space, self.algebra.kappa
        # the zero-order term P_a -> g f^{ab}_c P_a ^ H_b, read off the bracket
        probes = [f"{_PROBE}{a}_" for a in range(self.N)]
        bracket = self.bracket_form([fo.field_form(space, u, 1) for u in probes], self.H)
        wedge_op = linearize(
            [c for form in bracket for c in form_to_vector(form)],
            [field for u in probes for field in _field_names(space, u, 1)],
        )
        vstar = _block(d_operator(space, 1), self.N) + wedge_op.scale(self.g)
        w_in = [w * kappa[a] for a in range(self.N) for w in metric_weights(space, 1)]
        w_out = [w * kappa[a] for a in range(self.N) for w in metric_weights(space, 2)]
        adjoint = pairing_adjoint(vstar, w_in, w_out)
        return _block(_selfdual_operator(space), self.N).compose(adjoint), vstar

    def internal_characteristic(self, epsilon):
        """Psi_a = -*epsilon_a for a constant algebra element."""
        eps = [ex._coerce(c) for c in epsilon]
        if len(eps) != self.N:
            raise FieldModelError("epsilon has the wrong number of components")
        for c in eps:
            for atom in ex.atoms(c):
                if not isinstance(atom, ex.Param):
                    raise FieldModelError("epsilon must be constant (rigid parameter)")
        return [fo.hodge(fo.scalar(self.space, c), -1) for c in eps], eps

    def verify(self, epsilon):
        """The internal certificates; returns (ok, the nonzero residual
        forms keyed by name, with [a] for the component field H<a>).  The
        bracket of frame sections needs no check of its own: its structure
        constants -g f_{ab}^c satisfy Jacobi because f does, and f was
        checked when the algebra was built."""
        psi, eps = self.internal_characteristic(epsilon)
        residuals = self.residuals()

        # d(eps^a H_a) = eps^a T_a exactly, j and the residual each built
        # in one table
        weights = [k * e for k, e in zip(self.algebra.kappa, eps)]
        j = fo._Sum(self.space, 1)
        for h, w in zip(self.H, weights):
            j.add(h, w)
        current = fo._Sum(self.space, 2).add_d(j.form())
        for t, w in zip(residuals, weights):
            current.add(t, -w)
        out = {"current_residual": current.form()}

        # V(Psi) = -g [eps, H] exactly, and the transformation is a
        # symmetry: d(delta H_a) = 0 on shell
        v, _ = self.anchor_ops()
        delta_vec = v.apply([c for form in psi for c in form_to_vector(form)])
        target = self.bracket_form([fo.scalar(self.space, c) for c in eps], self.H)
        reduce = self.shell().reduce
        for a in range(self.N):
            delta = vector_to_form(
                self.space, 1, delta_vec[a * self.mid_dim : (a + 1) * self.mid_dim]
            )
            transform = fo._Sum(self.space, 1).add(delta).add(target[a], self.g)
            out[f"transform_residual[{a + 1}]"] = transform.form().map_coefficients(reduce)
            out[f"symmetry_residual[{a + 1}]"] = fo.exterior_d(delta).map_coefficients(reduce)
        return _certificate(out)

    def spacetime_verify(self, xi: SpacetimeVector):
        """Space-time certificates per multiplet component (the conformal
        symmetries keep the abelian form); returns (ok, the nonzero
        residual dicts of SelfDualModel.verify keyed by component field).

        One PASS is all: every component is SelfDualModel(space, H<a>), and
        renaming the fields of the first to those of another keeps the atom
        order (jet atoms of one component differ only after the shared
        prefix H<a>), so each component's certificate, the shell's lead
        choices included, is the image of the first under a ring
        isomorphism, and it vanishes when the first does.  Only a FAIL runs
        the per-component loop, for the detail of every component."""
        first, *rest = self.components
        ok, residual = first.verify(xi)
        if ok:
            return True, {}
        results = {first.field_name: residual}
        results.update((m.field_name, m.verify(xi)[1]) for m in rest)
        failed = {name: r for name, r in results.items() if r}
        return not failed, failed

    def abelian_block(self, a: int) -> LinDiffOp:
        """The (a, a) block of V at g = 0 for degeneration comparisons.
        Rows of V run over middle-form components, columns over the
        2-form slots of the dual dynamics bundle."""
        zero_g = ChiralModel(self.space, self.algebra, 0, self.prefix)
        v, _ = zero_g.anchor_ops()
        r0, c0 = a * self.mid_dim, a * self.out_dim
        entries = {
            (r - r0, c - c0, alpha): coeff
            for (r, c, alpha), coeff in v.entries.items()
            if r0 <= r < r0 + self.mid_dim and c0 <= c < c0 + self.out_dim
        }
        return LinDiffOp._of(self.mid_dim, self.out_dim, entries)

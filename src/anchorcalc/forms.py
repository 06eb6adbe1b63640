"""Exterior calculus on flat pseudo-Riemannian R^n.

Forms carry expression coefficients that may contain jets of field
components, so d raises jet orders through the kernel's total derivatives.
The metric is constant diagonal, the orientation fixed by
epsilon_{0,...,n-1} = +1, coordinates are named x0..x{n-1}.

Form(...), and so every builder below it, validates each index and
coefficient it is given.  The operations (sum, difference, scaling,
coefficient map, wedge, d, hodge, interior) key their results by valid
indices only and build them on expr's table helpers through the trusted
Form._of, without validating them again.
"""

from __future__ import annotations

import functools
import itertools
import math
from collections import defaultdict

from . import expr as ex
from .expr import Expr


class FormError(ex.ExprError):
    pass


class FlatSpace:
    def __init__(self, signature):
        signature = tuple(int(s) for s in signature)
        if not signature:
            raise ValueError("a space needs dimension n >= 1")
        if any(s not in (-1, 1) for s in signature):
            raise ValueError("signature entries must be +1 or -1")
        self.signature = signature
        self.n = len(signature)
        self.coords = tuple(f"x{i}" for i in range(self.n))

    @property
    def metric_sign(self) -> int:
        """sign(det eta) = (-1)^(number of minus entries)."""
        sign = 1
        for s in self.signature:
            sign *= s
        return sign

    def is_lorentzian(self) -> bool:
        return self.signature.count(-1) == 1 and self.signature[0] == -1

    def coord_expr(self, mu: int) -> Expr:
        return ex.indep(self.coords[mu])

    def __repr__(self):
        return f"FlatSpace(signature={self.signature})"


def euclidean(n: int) -> FlatSpace:
    return FlatSpace([1] * n)


def lorentzian(n: int) -> FlatSpace:
    return FlatSpace([-1 if mu == 0 else 1 for mu in range(n)])


@functools.lru_cache(maxsize=None)
def _merge_sign(i_tuple, j_tuple):
    """Permutation sign that sorts the concatenation; None if indices repeat.
    Cached: the index tuples of a space are finite, and every result is an
    immutable tuple."""
    seq = list(i_tuple) + list(j_tuple)
    if len(set(seq)) != len(seq):
        return None, ()
    sign = 1
    for a in range(len(seq)):
        for b in range(a + 1, len(seq)):
            if seq[a] > seq[b]:
                sign = -sign
    return sign, tuple(sorted(seq))


@functools.lru_cache(maxsize=None)
def _complements(n, i_tuple, grade):
    """(sign, merged index, J) for every index J of the given grade that is
    disjoint from i_tuple, with (sign, merged) = _merge_sign(i_tuple, J)."""
    rest = [m for m in range(n) if m not in i_tuple]
    return tuple(
        _merge_sign(i_tuple, j) + (j,) for j in itertools.combinations(rest, grade)
    )


class Form:
    """Exterior form with strictly-increasing index tuples as keys."""

    def __init__(self, space: FlatSpace, grade: int, components=None):
        if not 0 <= grade <= space.n:
            raise FormError(f"grade {grade} out of range for n={space.n}")
        self.space = space
        self.grade = grade
        table = {}
        for idx, coeff in (components or {}).items():
            idx = tuple(idx)
            if len(idx) != grade:
                raise FormError(f"index {idx} has wrong length for grade {grade}")
            if list(idx) != sorted(set(idx)):
                raise FormError(f"index {idx} must be strictly increasing")
            if any(not 0 <= m < space.n for m in idx):
                raise FormError(f"index {idx} out of range")
            table[idx] = coeff
        self.components = ex._table_map(table, ex._coerce)

    @classmethod
    def _of(cls, space, grade, components):
        """The form of nonzero values keyed by valid indices, as every
        operation below builds it: no re-validation."""
        form = object.__new__(cls)
        form.space, form.grade, form.components = space, grade, components
        return form

    def component(self, idx) -> Expr:
        """Coefficient for an arbitrary index tuple, with antisymmetry."""
        idx = tuple(idx)
        sign, sorted_idx = _merge_sign(idx, ())
        if sign is None:
            return ex.ZERO
        base = self.components.get(sorted_idx, ex.ZERO)
        return base if sign == 1 else -base

    def is_zero(self) -> bool:
        return not self.components

    def __add__(self, other: "Form") -> "Form":
        return self._plus(other, 1)

    def __sub__(self, other: "Form") -> "Form":
        return self._plus(other, -1)

    def _plus(self, other: "Form", k: int) -> "Form":
        """self + k * other for k = +-1."""
        self._compatible(other)
        table = ex._table_plus(self.components, other.components, k)
        return Form._of(self.space, self.grade, table)

    def scale(self, factor) -> "Form":
        table = ex._table_scale(self.components, ex._coerce(factor)._poly)
        return Form._of(self.space, self.grade, table)

    def map_coefficients(self, fn) -> "Form":
        return Form._of(self.space, self.grade, ex._table_map(self.components, fn))

    def _compatible(self, other: "Form"):
        if self.space.signature != other.space.signature:
            raise FormError("forms live on different spaces")
        if self.grade != other.grade:
            raise FormError(f"grade mismatch: {self.grade} vs {other.grade}")

    def __eq__(self, other):
        if not isinstance(other, Form):
            return NotImplemented
        if self.space.signature != other.space.signature or self.grade != other.grade:
            return False
        return (self - other).is_zero()

    def __repr__(self):
        return f"Form({self.grade}-form, {form_text(self)})"


def form_text(form: Form) -> str:
    """Readable rendering for reports: '(coeff) dx0^dx1' terms in index
    order joined by ' + ', or '0'."""
    parts = []
    for idx, coeff in sorted(form.components.items()):
        basis = "^".join(f"dx{m}" for m in idx) or "1"
        parts.append(f"({ex.to_text(coeff)}) {basis}")
    return " + ".join(parts) or "0"


class SpacetimeVector:
    def __init__(self, space: FlatSpace, components):
        components = [ex._coerce(c) for c in components]
        if len(components) != space.n:
            raise FormError("vector has wrong number of components")
        self.space = space
        self.components = tuple(components)

    def __repr__(self):
        inside = ", ".join(ex.to_text(c) for c in self.components)
        return f"SpacetimeVector({inside})"


def zero_form(space: FlatSpace, grade: int) -> Form:
    return Form(space, grade)


def scalar(space: FlatSpace, value) -> Form:
    return Form(space, 0, {(): value})


def basis_form(space: FlatSpace, *indices) -> Form:
    return Form(space, len(indices), {tuple(indices): ex.ONE})


def field_form(space: FlatSpace, name: str, grade: int) -> Form:
    """Symbolic field of the given grade: one jet field per component,
    named e.g. F01 for the (0,1) component."""
    comps = {}
    for idx in itertools.combinations(range(space.n), grade):
        comps[idx] = ex.jet(name + "".join(str(m) for m in idx))
    return Form(space, grade, comps)


def translation(space: FlatSpace, mu: int) -> SpacetimeVector:
    return SpacetimeVector(
        space, [ex.ONE if i == mu else ex.ZERO for i in range(space.n)]
    )


def rotation(space: FlatSpace, mu: int, nu: int) -> SpacetimeVector:
    """Rotation/boost generator x_mu d_nu - x_nu d_mu (indices lowered
    with the metric)."""
    comps = [ex.ZERO] * space.n
    comps[nu] = ex.rational(space.signature[mu]) * space.coord_expr(mu)
    comps[mu] = -ex.rational(space.signature[nu]) * space.coord_expr(nu)
    return SpacetimeVector(space, comps)


def dilation(space: FlatSpace) -> SpacetimeVector:
    return SpacetimeVector(space, [space.coord_expr(i) for i in range(space.n)])


# ---------------------------------------------------------------------------
# operations


def wedge(a: Form, b: Form) -> Form:
    if a.space.signature != b.space.signature:
        raise FormError("forms live on different spaces")
    grade = a.grade + b.grade
    if grade > a.space.n:
        raise FormError(f"wedge grade {grade} exceeds dimension {a.space.n}")
    table = defaultdict(ex._acc)
    for i_idx, i_coeff in a.components.items():
        for sign, idx, j_idx in _complements(a.space.n, i_idx, b.grade):
            j_coeff = b.components.get(j_idx)
            if j_coeff is not None:
                ex._paddmul_into(table[idx], i_coeff._poly, j_coeff._poly, sign)
    return Form._of(a.space, grade, ex._table_sums(table))


def exterior_d(a: Form) -> Form:
    if a.grade >= a.space.n:
        raise FormError(f"d of a grade-{a.grade} form exceeds dimension {a.space.n}")
    table = defaultdict(ex._acc)
    for idx, coeff in a.components.items():
        for mu in range(a.space.n):
            if mu not in idx:
                d_coeff = ex._total_derivative_poly(coeff._poly, a.space.coords[mu])
                sign, new_idx = _merge_sign((mu,), idx)
                ex._padd_into(table[new_idx], d_coeff, sign)
    return Form._of(a.space, a.grade + 1, ex._table_sums(table))


def hodge(a: Form) -> Form:
    """(*a)_J = a^I epsilon_{I J} with indices raised by the diagonal metric
    and epsilon_{0...n-1} = +1."""
    space = a.space
    table = {}
    for idx, coeff in a.components.items():
        ((sign, _, complement),) = _complements(space.n, idx, space.n - a.grade)
        sign *= math.prod(space.signature[m] for m in idx)
        table[complement] = ex._expr(ex._pscale(coeff._poly, sign))
    return Form._of(space, space.n - a.grade, table)


def interior(xi: SpacetimeVector, a: Form) -> Form:
    if a.grade == 0:
        raise FormError("interior product needs grade >= 1")
    table = defaultdict(ex._acc)
    for idx, coeff in a.components.items():
        for pos, mu in enumerate(idx):
            if xi.components[mu]._poly[0]:
                ex._paddmul_into(
                    table[idx[:pos] + idx[pos + 1 :]],
                    xi.components[mu]._poly, coeff._poly, (-1) ** pos,
                )
    return Form._of(a.space, a.grade - 1, ex._table_sums(table))


def lie_derivative(
    xi: SpacetimeVector, a: Form, da: Form | None = None, ia: Form | None = None
) -> Form:
    """Cartan formula i_xi d + d i_xi with the grade-edge terms dropped
    where they do not exist (grade 0 has no interior product, grade n no d).
    A caller that already holds d a or i_xi a passes it as da or ia, and
    it is not built again."""
    if a.grade < a.space.n and da is None:
        da = exterior_d(a)
    if a.grade > 0 and ia is None:
        ia = interior(xi, a)
    if a.grade == 0:
        return interior(xi, da)
    if a.grade == a.space.n:
        return exterior_d(ia)
    return interior(xi, da) + exterior_d(ia)


def pairing_density(a: Form, b: Form) -> Form:
    """(a, b) density: a ^ *b, an n-form, symmetric in its arguments."""
    a._compatible(b)
    return wedge(a, hodge(b))


def selfdual_project(a: Form):
    """Split a middle form on Lorentzian R^{4k+2} into (self-dual,
    anti-self-dual) star eigenparts."""
    space = a.space
    if space.n % 4 != 2:
        raise FormError("self-duality needs dimension n = 4k + 2")
    if not space.is_lorentzian():
        raise FormError("self-duality needs Lorentzian signature (-,+,...,+)")
    if a.grade != space.n // 2:
        raise FormError("self-duality is defined for middle-grade forms")
    star = hodge(a)
    half = ex.rational(1, 2)
    plus = (a + star).scale(half)
    minus = (a - star).scale(half)
    return plus, minus


def conformal_killing_check(xi: SpacetimeVector, space: FlatSpace) -> str:
    """Classify a vector field: 'killing', 'conformal' or 'neither' from the
    flat-metric deformation d_mu xi_nu + d_nu xi_mu."""
    n = space.n
    sig = space.signature
    partials = {  # d_mu xi^nu
        (mu, nu): ex._total_derivative_poly(xi.components[nu]._poly, space.coords[mu])
        for mu in range(n)
        for nu in range(n)
    }
    deformation = {  # indices lowered by eta
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

"""Exterior calculus on flat pseudo-Riemannian R^n.

Forms carry expression coefficients that may contain jets of field
components, so d raises jet orders through the kernel's total derivatives.
The metric is constant diagonal, the orientation fixed by
epsilon_{0,...,n-1} = +1, coordinates are named x0..x{n-1}.

Form(...), and so every builder below it, validates each index and
coefficient it is given.  The operations key their results by valid
indices only and build them through the trusted Form._of, without
validating them again.

Every result that is a sum is built in one table: a _Sum adds k a ^ b,
k da, k i_xi a, k L_xi a and k a, for k an int, a rational or an
expression, into one expr accumulator per index, and normalises each
once, dividing by an integer such as the 2 of a current's 1/2 at the end.
For an int or rational k, the total derivatives of da and the constant
components of xi go into the accumulators with no intermediate
polynomial.  A term whose forms or vector live on another space raises
FormError.
Wedge, d, interior, L_xi, the sum, difference and scaling of forms and
the self-dual projection are its short cases; the field models build
their currents and certificate residuals as longer ones.  hodge takes a
sign, so that sign * *a is one map of the coefficients too.
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
        return _Sum(self.space, self.grade).add(self).add(other, k).form()

    def scale(self, factor) -> "Form":
        return _Sum(self.space, self.grade).add(self, factor).form()

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
# operations, on one accumulation path (module docstring)


def _same_space(x, space: FlatSpace) -> None:
    """Refuse a form or vector x that lives on another space."""
    if x.space.signature != space.signature:
        kind = "vector" if isinstance(x, SpacetimeVector) else f"{x.grade}-form"
        raise FormError(f"a {kind} on {x.space} does not fit {space}")


def _weight(k):
    """(m, den, p) with k = m * p / den for ints m and den > 0, and p a
    polynomial, or None for 1; k is an int, a Fraction or an expression."""
    if type(k) is int:
        return k, 1, None
    c, d = ex._coerce(k)._poly
    if not c:
        return 0, 1, None
    if len(c) == 1 and () in c:
        return c[()], d, None
    return 1, 1, (c, d)


def _weighted(q, den, p):
    """q * p / den for a weight (m, den, p) of _weight: the value that m
    times is k * q.  The pair need not be in normal form, as it only ever
    goes into an accumulator."""
    if p is not None:
        return ex._pmul(p, q)
    return q if den == 1 else (q[0], q[1] * den)


class _Sum:
    """A form of one grade on one space under construction: a table of
    expr._acc accumulators keyed by valid indices.  Each add method adds k
    times its term, k an int, a Fraction or an expression, and form()
    divides every sum by one integer and normalises it, once."""

    __slots__ = ("space", "grade", "table")

    def __init__(self, space: FlatSpace, grade: int):
        self.space, self.grade = space, grade
        self.table = defaultdict(ex._acc)

    def _term(self, grade: int, *operands):
        """Refuse a term of another grade, or one whose forms or vector
        live on another space."""
        if grade != self.grade:
            raise FormError(
                f"a grade-{grade} term does not fit a {self.grade}-form on {self.space}"
            )
        for x in operands:
            _same_space(x, self.space)

    def add(self, a: Form, k=1) -> "_Sum":
        """self += k a."""
        self._term(a.grade, a)
        m, den, p = _weight(k)
        if m:
            table = self.table
            for idx, coeff in a.components.items():
                ex._padd_into(table[idx], _weighted(coeff._poly, den, p), m)
        return self

    def add_wedge(self, a: Form, b: Form, k=1) -> "_Sum":
        """self += k a ^ b."""
        self._term(a.grade + b.grade, a, b)
        m, den, p = _weight(k)
        if m:
            table, n, b_comps = self.table, self.space.n, b.components
            for i_idx, i_coeff in a.components.items():
                q = _weighted(i_coeff._poly, den, p)
                for sign, idx, j_idx in _complements(n, i_idx, b.grade):
                    j_coeff = b_comps.get(j_idx)
                    if j_coeff is not None:
                        ex._paddmul_into(table[idx], q, j_coeff._poly, sign * m)
        return self

    def add_d(self, a: Form, k=1) -> "_Sum":
        """self += k da."""
        self._term(a.grade + 1, a)
        m, den, p = _weight(k)
        if m:
            table, coords = self.table, self.space.coords
            for idx, coeff in a.components.items():
                q = _weighted(coeff._poly, den, None)
                for mu in range(self.space.n):
                    if mu not in idx:
                        sign, new_idx = _merge_sign((mu,), idx)
                        if p is None:  # D_mu goes straight into the sum
                            ex._total_derivative_into(table[new_idx], q, coords[mu], sign * m)
                        else:
                            d_coeff = ex._total_derivative_poly(q, coords[mu])
                            ex._padd_into(table[new_idx], _weighted(d_coeff, 1, p), sign * m)
        return self

    def add_interior(self, xi: SpacetimeVector, a: Form, k=1) -> "_Sum":
        """self += k i_xi a."""
        self._term(a.grade - 1, a, xi)
        m, den, p = _weight(k)
        if m:
            table = self.table
            # (scale, denominator, polynomial) of k xi^mu: a constant takes
            # one scaled add, any other component a product; zero none
            xs = []
            for x in xi.components:
                xm, xden, xp = _weight(x)
                if not xm:
                    xs.append(None)
                elif xp is None and p is None:
                    xs.append((m * xm, den * xden, None))
                else:
                    xs.append((m, 1, _weighted(x._poly, den, p)))
            for idx, coeff in a.components.items():
                c, d = coeff._poly
                for pos, mu in enumerate(idx):
                    if xs[mu] is not None:
                        xm, xden, q = xs[mu]
                        acc, sign = table[idx[:pos] + idx[pos + 1 :]], -xm if pos % 2 else xm
                        if q is None:
                            ex._padd_into(acc, (c, d * xden), sign)
                        else:
                            ex._paddmul_into(acc, q, (c, d), sign)
        return self

    def add_lie(self, xi: SpacetimeVector, a: Form, k=1, da=None, ia=None) -> "_Sum":
        """self += k L_xi a by the Cartan formula i_xi da + d i_xi a, with the
        grade-edge terms dropped where they do not exist (grade 0 has no
        interior product, grade n no d).  A caller that already holds da or
        i_xi a passes it, and it is not built again."""
        self._term(a.grade, a, xi)
        if a.grade < self.space.n:
            self.add_interior(xi, exterior_d(a) if da is None else da, k)
        if a.grade > 0:
            self.add_d(interior(xi, a) if ia is None else ia, k)
        return self

    def form(self, den: int = 1) -> Form:
        """The form of the sums divided by den, each normalised once; zero
        sums are dropped."""
        table = {
            idx: ex._expr(ex._normal(c, d * den)) for idx, (c, d) in self.table.items() if c
        }
        return Form._of(self.space, self.grade, table)


def wedge(a: Form, b: Form) -> Form:
    if a.space.signature != b.space.signature:
        raise FormError("forms live on different spaces")
    grade = a.grade + b.grade
    if grade > a.space.n:
        raise FormError(f"wedge grade {grade} exceeds dimension {a.space.n}")
    return _Sum(a.space, grade).add_wedge(a, b).form()


def exterior_d(a: Form) -> Form:
    if a.grade >= a.space.n:
        raise FormError(f"d of a grade-{a.grade} form exceeds dimension {a.space.n}")
    return _Sum(a.space, a.grade + 1).add_d(a).form()


def hodge(a: Form, sign: int = 1) -> Form:
    """sign * *a, where (*a)_J = a^I epsilon_{I J} with indices raised by the
    diagonal metric and epsilon_{0...n-1} = +1; sign is +-1."""
    space = a.space
    table = {}
    for idx, coeff in a.components.items():
        ((s, _, complement),) = _complements(space.n, idx, space.n - a.grade)
        s *= sign * math.prod(space.signature[m] for m in idx)
        table[complement] = ex._expr(ex._pscale(coeff._poly, s))
    return Form._of(space, space.n - a.grade, table)


def interior(xi: SpacetimeVector, a: Form) -> Form:
    if a.grade == 0:
        raise FormError("interior product needs grade >= 1")
    return _Sum(a.space, a.grade - 1).add_interior(xi, a).form()


def lie_derivative(
    xi: SpacetimeVector, a: Form, da: Form | None = None, ia: Form | None = None
) -> Form:
    """L_xi a, built in one table by _Sum.add_lie, which takes da and ia as
    given."""
    return _Sum(a.space, a.grade).add_lie(xi, a, da=da, ia=ia).form()


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
    plus = _Sum(space, a.grade).add(a).add(star).form(2)
    minus = _Sum(space, a.grade).add(a).add(star, -1).form(2)
    return plus, minus


def conformal_killing_check(xi: SpacetimeVector, space: FlatSpace) -> str:
    """Classify a vector field: 'killing', 'conformal' or 'neither' from the
    flat-metric deformation d_mu xi_nu + d_nu xi_mu.  A vector with
    constant components is Killing, with no partials taken."""
    _same_space(xi, space)
    if all(_weight(x)[2] is None for x in xi.components):
        return "killing"
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

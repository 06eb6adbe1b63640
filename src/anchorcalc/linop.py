"""Matrix linear differential operators and on-shell reduction.

An operator is a sparse matrix whose (row, col) entries are finite sums
``coeff * D^alpha`` acting on the col-th component of the argument vector.
Composition expands by the Leibniz rule; the formal adjoint integrates by
parts and discards boundary terms.

Composition picks its path per product from the coefficient types.  When
both coefficients are rational constants, D^alpha o b = b D^alpha, so the
product is the one entry (a * b) D^(alpha + beta): its integer numerator
and denominator go straight into the output entry's accumulator, the
kernel's own (numerators, denominator) pair, with no polynomial product,
and the index sum alpha + beta is memoised.  The formal adjoint of a
constant entry a D^alpha is likewise the one entry (-1)^|alpha| a D^alpha.
Each sum is normalised once per entry, as every accumulated sum is, so
the result is exact and in the same canonical form as the Leibniz loop
that every product with a polynomial coefficient still takes.  A sum of
products such as J o V - V* o J* (sum_of_products) accumulates every
product into one table and normalises it once; compose is its one-term
case.

On-shell reduction (ShellRules) keeps one rule table per jet order, lead
jet -> right-hand side polynomial, built on the kernel's polynomial layer
by Gauss-Jordan elimination (_eliminate): one substitution per equation,
and one per right-hand side that holds a new lead.  No right-hand side
holds a lead, so one simultaneous substitution of the table reduces an
expression completely.
"""

from __future__ import annotations

import functools
import math
from collections import defaultdict

from . import expr as ex
from .expr import (
    Expr,
    JetVar,
    MultiIndex,
    EMPTY_INDEX,
    to_text,
)


class ShellError(ex.ExprError):
    """On-shell reduction could not be completed."""


def _sub_indices(alpha: MultiIndex):
    """All (gamma, alpha-gamma, multinomial coefficient) with gamma <= alpha."""
    items = alpha.items
    if not items:
        yield EMPTY_INDEX, EMPTY_INDEX, 1
        return
    name, count = items[0]
    rest = MultiIndex(items[1:])
    for k in range(count + 1):
        c = math.comb(count, k)
        for g, r, c2 in _sub_indices(rest):
            gamma = MultiIndex(dict(list(g.items) + ([(name, k)] if k else [])))
            rem = MultiIndex(
                dict(list(r.items) + ([(name, count - k)] if count - k else []))
            )
            yield gamma, rem, c * c2


@functools.lru_cache(maxsize=4096)
def _index_sum(alpha: MultiIndex, beta: MultiIndex) -> MultiIndex:
    """alpha + beta; bounded and shared by every call, as the few distinct
    index pairs of an operator recur in every product."""
    return alpha + beta


def _constant(e: Expr):
    """(numerator, denominator) of a nonzero constant, None otherwise."""
    if type(e) is ex.Rat:
        c, d = e._poly
        return c[()], d
    return None


def _add_constant(table, key, num: int, d: int):
    """table[key] += num / d for a table of accumulators, with one integer
    multiply-add and no polynomial; the accumulator moves to a common
    denominator (expr._align) only when the two differ."""
    acc = table.get(key)
    if acc is None:
        table[key] = [{(): num}, d]
        return
    if d != acc[1]:
        num *= ex._align(acc, d)
    out = acc[0]
    num += out.get((), 0)
    if num:
        out[()] = num
    else:
        del out[()]
    ex._check_size(len(out))


def _leibniz(alpha: MultiIndex, b: Expr):
    """(alpha - gamma, multinomial, D^gamma b polynomial) for gamma <= alpha;
    a constant b has no derivatives, so only gamma = 0 remains."""
    if isinstance(b, ex.Rat):
        return ((alpha, 1, b._poly),)
    return (
        (rem, binom, ex._iterated_poly(b._poly, gamma))
        for gamma, rem, binom in _sub_indices(alpha)
    )


def _lead_key(atom: JetVar):
    # highest derivative order wins, then field name, then the index itself
    return (atom.index.order(), atom.field, atom.index.items)


class LinDiffOp:
    """Sparse matrix of linear differential operators."""

    __slots__ = ("rows", "cols", "entries")

    def __init__(self, rows: int, cols: int, entries=None):
        self.rows = rows
        self.cols = cols
        table = {}
        for (r, c, alpha), coeff in (entries or {}).items():
            coeff = ex._coerce(coeff)
            if not (0 <= r < rows and 0 <= c < cols):
                raise ValueError("entry outside the matrix shape")
            key = (r, c, MultiIndex(alpha))
            table[key] = table[key] + coeff if key in table else coeff
        self.entries = ex._table_map(table, ex._coerce)

    @classmethod
    def _of(cls, rows, cols, entries):
        """The operator of nonzero values keyed by valid entries: no
        re-validation."""
        op = object.__new__(cls)
        op.rows, op.cols = rows, cols
        op.entries = entries
        return op

    # construction helpers -------------------------------------------------
    @staticmethod
    def identity(n: int) -> "LinDiffOp":
        return LinDiffOp(n, n, {(i, i, EMPTY_INDEX): ex.ONE for i in range(n)})

    @staticmethod
    def total_derivative(name: str, n: int = 1) -> "LinDiffOp":
        alpha = MultiIndex({name: 1})
        return LinDiffOp(n, n, {(i, i, alpha): ex.ONE for i in range(n)})

    # algebra ---------------------------------------------------------------
    def __add__(self, other: "LinDiffOp") -> "LinDiffOp":
        return self._plus(other, 1)

    def __sub__(self, other: "LinDiffOp") -> "LinDiffOp":
        return self._plus(other, -1)

    def _plus(self, other: "LinDiffOp", k: int) -> "LinDiffOp":
        """self + k * other for k = +-1."""
        if (self.rows, self.cols) != (other.rows, other.cols):
            raise ValueError("shape mismatch")
        table = ex._table_plus(self.entries, other.entries, k)
        return LinDiffOp._of(self.rows, self.cols, table)

    def scale(self, coeff) -> "LinDiffOp":
        table = ex._table_scale(self.entries, ex._coerce(coeff)._poly)
        return LinDiffOp._of(self.rows, self.cols, table)

    def apply(self, vector):
        """Apply to a vector of expressions; each D^alpha of a component is
        taken once per call, however many rows use it."""
        if len(vector) != self.cols:
            raise ValueError(f"expected {self.cols} components, got {len(vector)}")
        vector = [ex._coerce(v)._poly for v in vector]
        out = [ex._acc() for _ in range(self.rows)]
        derivatives = {}
        for (r, c, alpha), coeff in self.entries.items():
            dv = derivatives.get((c, alpha))
            if dv is None:
                dv = derivatives[(c, alpha)] = ex._iterated_poly(vector[c], alpha)
            ex._paddmul_into(out[r], coeff._poly, dv)
        return [ex._expr_sum(acc) for acc in out]

    def compose(self, other: "LinDiffOp") -> "LinDiffOp":
        """Leibniz-expanded composition: (self.compose(other)).apply(v) ==
        self.apply(other.apply(v)); sum_of_products of the one term."""
        return sum_of_products([(1, self, other)])

    def _compose_into(self, entries, other: "LinDiffOp", k: int):
        """entries += k * (self o other) for k = +-1 and a defaultdict of
        accumulators keyed by (row, col, alpha), once sum_of_products has
        checked the dimensions.  A product of two constants adds its
        integer numerator to the entry's accumulator (module docstring)."""
        by_row = {}
        for (j, c, beta), b in other.entries.items():
            by_row.setdefault(j, []).append((c, beta, b, _constant(b)))
        for (r, j, alpha), a in self.entries.items():
            ca = _constant(a)
            for c, beta, b, cb in by_row.get(j, ()):
                if ca and cb:
                    key = (r, c, _index_sum(alpha, beta))
                    _add_constant(entries, key, k * ca[0] * cb[0], ca[1] * cb[1])
                    continue
                for remaining, binom, db in _leibniz(alpha, b):
                    key = (r, c, _index_sum(remaining, beta))
                    ex._paddmul_into(entries[key], a._poly, db, k * binom)

    def formal_adjoint(self) -> "LinDiffOp":
        """Formal transpose: (coeff * D^a)^T = (-1)^|a| D^a o coeff, with the
        Leibniz rule expanded so entries are again coeff * D^a sums."""
        entries = defaultdict(ex._acc)
        for (r, c, alpha), a in self.entries.items():
            sign = (-1) ** alpha.order()
            ca = _constant(a)
            if ca:
                _add_constant(entries, (c, r, alpha), sign * ca[0], ca[1])
                continue
            for remaining, binom, da in _leibniz(alpha, a):
                ex._padd_into(entries[(c, r, remaining)], da, sign * binom)
        return LinDiffOp._of(self.cols, self.rows, ex._table_sums(entries))

    # inspection ------------------------------------------------------------
    def is_zero(self) -> bool:
        return not self.entries

    def map_coefficients(self, fn) -> "LinDiffOp":
        return LinDiffOp._of(self.rows, self.cols, ex._table_map(self.entries, fn))

    def __eq__(self, other):
        if not isinstance(other, LinDiffOp):
            return NotImplemented
        if (self.rows, self.cols) != (other.rows, other.cols):
            return False
        return (self - other).is_zero()

    def __repr__(self):
        return f"LinDiffOp({self.rows}x{self.cols}, {len(self.entries)} entries)"

    def describe(self) -> str:
        """Readable rendering for reports and residual display."""
        if self.is_zero():
            return "0"
        lines = []
        for (r, c, alpha), coeff in sorted(
            self.entries.items(), key=lambda kv: (kv[0][0], kv[0][1], kv[0][2].sort_key())
        ):
            d = "".join(f"D_{n}" * k for n, k in alpha.items) or "1"
            lines.append(f"[{r},{c}] ({to_text(coeff)}) * {d}")
        return "; ".join(lines)


def sum_of_products(terms) -> LinDiffOp:
    """The sum of k * (A o B) over the (k, A, B) terms, k = +-1, built in
    one table of accumulators and normalised once: A o B - C o D through
    compose and subtraction would build and normalise three tables.  It
    raises the ValueErrors of compose and of the sum before any product."""
    shapes = set()
    for _, a, b in terms:
        if a.cols != b.rows:
            raise ValueError("inner dimensions do not match")
        shapes.add((a.rows, b.cols))
    if len(shapes) != 1:
        raise ValueError("shape mismatch")
    entries = defaultdict(ex._acc)
    for k, a, b in terms:
        a._compose_into(entries, b, k)
    ((rows, cols),) = shapes
    return LinDiffOp._of(rows, cols, ex._table_sums(entries))


def linearize(components, fields) -> LinDiffOp:
    """Universal linearization of a (possibly nonlinear) operator given by
    component expressions: J[a, i] = sum_alpha dT_a/du_{i,alpha} D^alpha."""
    components = [ex._coerce(c) for c in components]
    entries = {}
    for a, comp in enumerate(components):
        for atom in ex.jet_atoms(comp):
            if atom.field in fields:
                # (component, field, index) names one jet atom: keys never repeat
                entries[(a, fields.index(atom.field), atom.index)] = ex.diff(comp, atom)
    return LinDiffOp(len(components), len(fields), entries)


# ---------------------------------------------------------------------------
# on-shell reduction


class ShellRules:
    """Substitution rules lead-jet -> polynomial for a shell of equations.

    The rules for jet order k eliminate the equations together with all
    their total derivatives of order <= k, so a jet of order <= k that the
    shell fixes is rewritten whatever the orders of the individual equations
    (the order-k prolongation).  Each relation must be solvable for its
    greatest jet atom (highest order, then field, then index) with a
    constant coefficient.  The rules of each order are one table, lead ->
    right-hand side polynomial, built by _eliminate on first use and
    cached; a racing first build recomputes the same table.
    """

    def __init__(self, equations, directions):
        self.equations = [ex._coerce(e) for e in equations]
        self.directions = tuple(directions)
        self._cache = {}
        # build the equations' own order now, so a bad shell fails here
        self.rules_up_to(max(map(ex.max_jet_order, self.equations), default=0))

    def rules_up_to(self, order: int):
        rules = self._cache.get(order)
        if rules is None:
            eqs = list(self.equations)
            seen = set(eqs)
            # breadth first as eqs grows; D_d raises the jet order by one
            for eq in eqs:
                if ex.max_jet_order(eq) < order:
                    for de in (ex.total_derivative(eq, d) for d in self.directions):
                        if de not in seen:
                            seen.add(de)
                            eqs.append(de)
            rules = self._cache[order] = _eliminate(eqs)
        return rules

    def reduce(self, e: Expr) -> Expr:
        """Substitute every leading jet of e in one simultaneous pass, with
        the table of its jet order; idempotent, as no right-hand side holds
        a lead."""
        p = ex._coerce(e)._poly
        return ex._expr(ex._subst_poly(p, self.rules_up_to(ex._max_jet_order(p))))


def _eliminate(equations):
    """Gauss-Jordan elimination of linear-in-their-lead equations into one
    table, lead -> right-hand side polynomial, in which no right-hand side
    holds a lead.

    The table stays reduced after every equation.  An equation takes one
    substitution of the table, which leaves it free of leads, and is solved
    for its own lead (_solve).  The new rule is then substituted into just
    the right-hand sides that hold its lead: a holder index maps each atom,
    those of function-atom arguments included, to the leads whose
    right-hand sides hold it, as ode._eliminate indexes its columns (Davis,
    Direct Methods for Sparse Linear Systems, 2006).  The fully reduced
    image of a lead is unique, as each rule maps its lead to smaller jets
    and substitution is a ring homomorphism, so the table is the one that
    substituting to a fixed point would give.
    """
    rules = {}
    held = {}  # lead -> the atoms of its right-hand side
    holders = {}  # atom -> the leads whose right-hand sides hold it
    for eq in equations:
        p = ex._subst_poly(eq._poly, rules)
        if not p[0]:
            continue
        lead, rhs, atoms = _solve(p)
        for other in holders.pop(lead, ()):
            rules[other] = new = ex._subst_poly(rules[other], {lead: rhs})
            old, held[other] = held[other], _atoms(new)
            for a in old - held[other] - {lead}:
                holders[a].discard(other)
            for a in held[other] - old:
                holders.setdefault(a, set()).add(other)
        for a in atoms:
            holders.setdefault(a, set()).add(lead)
        rules[lead], held[lead] = rhs, atoms
    return rules


def _atoms(p):
    """The atoms of p, those of function-atom arguments included."""
    out = set()
    ex._collect_atoms(p, out)
    return out


def _solve(p):
    """(lead, right-hand side, its atoms) of the nonzero relation p = 0,
    read on the polynomial layer.  The lead is the greatest jet atom, and
    p must hold it once, as a term of its own with a constant coefficient;
    otherwise the partial in the lead tells a coefficient that is not
    constant from a relation that is nonlinear in its lead."""
    jets = [a for a in _atoms(p) if type(a) is JetVar]
    if not jets:
        raise ShellError(f"inconsistent shell relation: {to_text(ex._expr(p))} = 0")
    lead = max(jets, key=_lead_key)
    rest = dict(p[0])
    k = rest.pop(((lead, 1),), None)
    atoms = _atoms((rest, 1))
    if k is None or lead in atoms:
        if not isinstance(ex.diff(ex._expr(p), lead), ex.Rat):
            raise ShellError(
                f"cannot solve relation for {lead.display()}: "
                "leading coefficient is not constant"
            )
        raise ShellError(f"relation is nonlinear in {lead.display()}")
    # p = (k lead + rest) / d, so lead = -rest / k
    return lead, ex._pscale((rest, 1), -1 if k > 0 else 1, abs(k)), atoms

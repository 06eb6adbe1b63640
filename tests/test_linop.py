import collections
import random
from fractions import Fraction

import pytest
from hypothesis import example, given, reject, settings
from hypothesis import strategies as st

import anchorcalc as ac
from anchorcalc import expr as ex
from anchorcalc import linop as lo
from tests_helpers_linop import _reduce_full, reference_rules

t = ac.indep("t")
x1, x2 = ac.jet("x1"), ac.jet("x2")
x1t, x2t = ac.jet("x1", {"t": 1}), ac.jet("x2", {"t": 1})

Dt = lo.LinDiffOp.total_derivative("t")
Id = lo.LinDiffOp.identity(1)


def rand_op(rng, rows=2, cols=2, order=2):
    entries = {}
    for r in range(rows):
        for c in range(cols):
            for k in range(order + 1):
                if rng.random() < 0.5:
                    coeff = _rand_coeff(rng)
                    entries[(r, c, ex.MultiIndex({"t": k} if k else {}))] = coeff
    return lo.LinDiffOp(rows, cols, entries)


def _rand_coeff(rng):
    gens = [t, x1, x2, x1t]
    e = ac.rational(rng.randint(-3, 3))
    for _ in range(rng.randint(0, 2)):
        e = e * gens[rng.randrange(len(gens))]
    return e


def _rand_vec(rng, n=2):
    return [_rand_coeff(rng) + _rand_coeff(rng) * x2 for _ in range(n)]


def _iterated(e, index):
    """D^index e, one total derivative at a time."""
    for name, count in index.items:
        for _ in range(count):
            e = ac.total_derivative(e, name)
    return e


# --- apply ------------------------------------------------------------------


def test_identity_apply():
    assert Id.apply([x1]) == [ac.canonicalize(x1)]


def test_derivative_apply_matches_total_derivative():
    assert Dt.apply([x1**2]) == [ac.total_derivative(x1**2, "t")]


def test_apply_dimension_mismatch():
    with pytest.raises(ValueError):
        Id.apply([x1, x2])


def test_ode_linearization_on_symmetry_reduces_to_zero():
    T = [x1t - x2, x2t + x1]
    J = lo.linearize(T, ["x1", "x2"])
    shell = lo.ShellRules(T, ["t"])
    out = [shell.reduce(v) for v in J.apply([x2, -x1])]
    assert all(ac.is_identically_zero(v) for v in out)


# --- compose ----------------------------------------------------------------


def test_compose_iterated_derivative():
    assert Dt.compose(Dt).apply([x1]) == [ac.canonicalize(ac.jet("x1", {"t": 2}))]


def test_compose_identity():
    rng = random.Random(3)
    A = rand_op(rng)
    assert lo.LinDiffOp.identity(2).compose(A) == A
    assert A.compose(lo.LinDiffOp.identity(2)) == A


def test_compose_leibniz_commutator():
    A = Id.scale(x1)
    assert Dt.compose(A) - A.compose(Dt) == Id.scale(x1t)


def test_compose_agrees_with_sequential_application():
    rng = random.Random(11)
    for _ in range(10):
        A = rand_op(rng, order=1)
        B = rand_op(rng, order=1)
        v = _rand_vec(rng)
        left = A.compose(B).apply(v)
        right = A.apply(B.apply(v))
        assert all(ac.is_identically_zero(l - r) for l, r in zip(left, right))


def test_compose_dimension_mismatch():
    with pytest.raises(ValueError):
        rand_op(random.Random(0), rows=2, cols=2).compose(
            lo.LinDiffOp.identity(3)
        )


def test_sum_of_products_refuses_mismatched_operators_before_any_product(monkeypatch):
    a, b = lo.LinDiffOp.identity(2), lo.LinDiffOp.identity(3)
    calls = []
    monkeypatch.setattr(lo.LinDiffOp, "_compose_into", lambda *args: calls.append(args))
    with pytest.raises(ValueError, match="inner dimensions do not match"):
        lo.sum_of_products([(1, a, a), (-1, a, b)])
    with pytest.raises(ValueError, match="shape mismatch"):
        lo.sum_of_products([(1, a, a), (-1, b, b)])
    assert calls == []


def test_sum_of_products_matches_compose_and_subtraction():
    rng = random.Random(5)
    for _ in range(10):
        A, B, C, D = (rand_op(rng, order=1) for _ in range(4))
        fused = lo.sum_of_products([(1, A, B), (-1, C, D)])
        assert fused.entries == (A.compose(B) - C.compose(D)).entries
        assert lo.sum_of_products([(1, A, B), (-1, A, B)]).is_zero()


# --- formal adjoint ---------------------------------------------------------


def test_adjoint_of_derivative():
    assert Dt.formal_adjoint() == Dt.scale(-1)


def test_adjoint_of_zero_order():
    c = ac.sin(t) * x1 + t**2
    assert Id.scale(c).formal_adjoint() == Id.scale(c)


def test_adjoint_involution_random():
    rng = random.Random(5)
    for _ in range(20):
        A = rand_op(rng)
        assert A.formal_adjoint().formal_adjoint() == A


def test_adjoint_contravariance():
    rng = random.Random(8)
    for _ in range(8):
        A = rand_op(rng, order=1)
        B = rand_op(rng, order=1)
        lhs = A.compose(B).formal_adjoint()
        rhs = B.formal_adjoint().compose(A.formal_adjoint())
        assert lhs == rhs


def test_adjoint_pairing_is_total_divergence():
    rng = random.Random(21)
    for _ in range(10):
        A = rand_op(rng, order=2)
        u, w = _rand_vec(rng), _rand_vec(rng)
        Au = A.apply(u)
        Astar_w = A.formal_adjoint().apply(w)
        pairing = ac.ZERO
        for i in range(2):
            pairing = pairing + Au[i] * w[i] - u[i] * Astar_w[i]
        pairing = ac.canonicalize(pairing)
        # euler-annihilation in every field
        for f in ("x1", "x2"):
            assert ac.is_identically_zero(ac.euler_derivative(pairing, f))
        j = ac.divergence_split(pairing)
        assert j is not None
        assert ac.is_identically_zero(ac.total_derivative(j, "t") - pairing)


# --- linearization ----------------------------------------------------------


def test_linearize_of_linear_operator_is_itself():
    T = [x1t - x2, x2t + x1]
    J = lo.linearize(T, ["x1", "x2"])
    expected = lo.LinDiffOp(
        2,
        2,
        {
            (0, 0, ex.MultiIndex({"t": 1})): ac.ONE,
            (0, 1, ex.EMPTY_INDEX): -ac.ONE,
            (1, 1, ex.MultiIndex({"t": 1})): ac.ONE,
            (1, 0, ex.EMPTY_INDEX): ac.ONE,
        },
    )
    assert J == expected


def test_linearize_product():
    J = lo.linearize([x1 * x1t], ["x1"])
    expected = lo.LinDiffOp(
        1,
        1,
        {
            (0, 0, ex.EMPTY_INDEX): x1t,
            (0, 0, ex.MultiIndex({"t": 1})): x1,
        },
    )
    assert J == expected


def test_linearize_matches_epsilon_variation():
    rng = random.Random(2)
    eps = ex.Param("__eps__")
    for _ in range(10):
        T = [_rand_coeff(rng) * x1t + _rand_coeff(rng) * ac.sin(x2), _rand_coeff(rng)]
        X = _rand_vec(rng)
        J = lo.linearize(T, ["x1", "x2"])
        direct = J.apply(X)
        subs = {}
        for i, f in enumerate(["x1", "x2"]):
            for a in ex.jet_atoms(sum(T, ac.ZERO), f):
                subs[a] = ex.Sym(a) + ex.Sym(eps) * _iterated(X[i], a.index)
        for comp, d in zip(T, direct):
            varied = ac.substitute(comp, subs)
            linear_part = ac.substitute(ex.diff(varied, eps), {eps: ac.ZERO})
            assert ac.is_identically_zero(linear_part - d)


# --- shell reduction --------------------------------------------------------


def oscillator_shell():
    return lo.ShellRules([x1t - x2, x2t + x1], ["t"])


def test_reduce_first_order():
    shell = lo.ShellRules([x1t + ac.param("v1")], ["t"])
    assert shell.reduce(x1t) == ac.canonicalize(-ac.param("v1"))


def test_reduce_prolonged():
    shell = oscillator_shell()
    assert shell.reduce(ac.jet("x1", {"t": 2})) == ac.canonicalize(-x1)
    assert shell.reduce(ac.jet("x1", {"t": 3})) == ac.canonicalize(-x2)


def test_reduce_no_leading_symbols_is_identity():
    shell = oscillator_shell()
    e = ac.canonicalize(x1**2 * ac.sin(t) + 3)
    assert shell.reduce(e) == e


def test_reduce_idempotent():
    shell = oscillator_shell()
    e = x1tt_mixed = ac.jet("x1", {"t": 2}) * x2t + x1
    once = shell.reduce(e)
    assert shell.reduce(once) == once


def test_reduce_mixed_order_prolongs_lower_equations():
    # x1_tt is fixed by the derivative of the first-order equation, even
    # though the highest equation order is 2
    shell = lo.ShellRules([x1t - x2, ac.jet("x2", {"t": 2}) + x1], ["t"])
    assert shell.reduce(ac.jet("x1", {"t": 2})) == ac.canonicalize(x2t)
    assert shell.reduce(ac.jet("x1", {"t": 3})) == ac.canonicalize(-x1)


def _tjet(field, k):
    return ac.jet(field, {"t": k} if k else ex.EMPTY_INDEX)


_fractions = st.fractions(min_value=-3, max_value=3, max_denominator=3)


@st.composite
def _linear_systems(draw):
    """One equation per field, solved for x_i^(q_i) with q_i in {1, 2}; the
    rest combines strictly lower-order jets with powers of t."""
    fields = [f"x{i + 1}" for i in range(draw(st.integers(2, 3)))]
    orders = [draw(st.sampled_from([1, 2])) for _ in fields]
    equations = []
    for field, q in zip(fields, orders):
        lead = draw(_fractions.filter(bool))
        e = lead * _tjet(field, q)
        for other in fields:
            for k in range(q):
                c = draw(_fractions)
                if c:
                    e = e + c * t ** draw(st.integers(0, 2)) * _tjet(other, k)
        equations.append(e)
    return fields, orders, equations


@settings(max_examples=60, deadline=None)
@given(_linear_systems())
def test_reduce_kills_prolonged_equations_and_is_idempotent(system):
    fields, orders, equations = system
    shell = lo.ShellRules(equations, ["t"])
    top = max(orders) + 1
    for q, e in zip(orders, equations):
        for _ in range(q, top + 1):  # D_t^j e for every order up to top
            assert ac.is_identically_zero(shell.reduce(e))
            e = ac.total_derivative(e, "t")
    probe = sum(_tjet(f, k) * _tjet(fields[0], top - k) for f in fields for k in range(top + 1))
    once = shell.reduce(probe)
    assert shell.reduce(once) == once


def _jet_of_order(draw, field, directions, k):
    """A jet of the field of order k, its directions drawn."""
    steps = draw(st.lists(st.sampled_from(directions), min_size=k, max_size=k))
    return ac.jet(field, collections.Counter(steps))


@st.composite
def _shells_and_probes(draw):
    """A linear shell in one or two directions, one equation per field,
    solved for a jet of order 1 or 2 of its field with a constant
    coefficient, the rest lower-order jets times powers of t; and probes,
    sums of products of two jets times powers of t, that hold a jet one or
    two orders above every equation."""
    directions = draw(st.sampled_from([["t"], ["t", "s"]]))
    fields = [f"x{i + 1}" for i in range(draw(st.integers(1, 3)))]
    orders = [draw(st.sampled_from([1, 2])) for _ in fields]
    equations = []
    for field, q in zip(fields, orders):
        e = draw(_fractions.filter(bool)) * _jet_of_order(draw, field, directions, q)
        for _ in range(draw(st.integers(0, 3))):
            k = draw(st.integers(0, q - 1))
            jet = _jet_of_order(draw, draw(st.sampled_from(fields)), directions, k)
            e = e + draw(_fractions) * t ** draw(st.integers(0, 2)) * jet
        equations.append(e)
    probes = []
    for _ in range(draw(st.integers(1, 3))):
        top = max(orders) + draw(st.integers(1, 2))
        probe = _jet_of_order(draw, draw(st.sampled_from(fields)), directions, top)
        for _ in range(draw(st.integers(0, 3))):
            a, b = (
                _jet_of_order(draw, draw(st.sampled_from(fields)), directions, k)
                for k in (draw(st.integers(0, top)), draw(st.integers(0, top)))
            )
            probe = probe + draw(_fractions) * t ** draw(st.integers(0, 1)) * a * b
        probes.append(probe)
    return equations, directions, probes


@settings(max_examples=80, deadline=None)
@given(_shells_and_probes())
def test_reduce_in_one_pass_is_the_fixed_point_of_its_rules(case):
    equations, directions, probes = case
    try:
        shell = lo.ShellRules(equations, directions)
    except lo.ShellError:  # a prolongation left a lead with a coefficient in t
        reject()
    for probe in probes:
        rules = shell.rules_up_to(ex.max_jet_order(probe))
        as_exprs = {lead: ex._expr(rhs) for lead, rhs in rules.items()}
        assert shell.reduce(probe) == _reduce_full(probe, as_exprs)


def _rules_or_message(build):
    """The rule table that build returns, as lead -> polynomial, or the
    message of the ShellError it raises."""
    try:
        return build()
    except lo.ShellError as exc:
        return str(exc)


@st.composite
def _shells(draw):
    """A shell of either generator, some of its equations with a product of
    two lower jets and the sine of a lower jet added, and up to two more
    relations of order 0 with constant coefficients.  Two such relations
    can chain three rules, each right-hand side holding the lead of a later
    one, inside a sine argument too, and one can make the shell
    inconsistent; a prolongation can leave a lead with a coefficient in
    t."""
    equations, directions = draw(
        st.one_of(
            _shells_and_probes().map(lambda case: case[:2]),
            _linear_systems().map(lambda system: (system[2], ["t"])),
        )
    )
    fields = sorted({a.field for e in equations for a in ex.jet_atoms(e)})
    equations = list(equations)
    for i in draw(st.lists(st.integers(0, len(equations) - 1), max_size=2, unique=True)):
        q = ex.max_jet_order(equations[i])  # the lead's order; the rest is lower

        def lower():
            field = draw(st.sampled_from(fields))
            return _jet_of_order(draw, field, directions, draw(st.integers(0, q - 1)))

        product, sine = lower() * lower(), ac.sin(lower())
        equations[i] += draw(_fractions) * product + draw(_fractions) * sine
    for _ in range(draw(st.integers(0, 2))):
        # the greater field first, so a nonzero first coefficient is the lead's
        xj, xi = map(ac.jet, sorted(draw(st.sampled_from(fields)) for _ in range(2)))
        equations = equations + [draw(_fractions) * xi + draw(_fractions) * xj + draw(_fractions)]
    return equations, directions


@settings(max_examples=60, deadline=None)
@given(_shells())
# a chain of three rules: x1_t -> x3 -> x2 -> x1, each holding a later lead
@example(([x1t - ac.jet("x3"), ac.jet("x3") - x2, x2 - x1], ["t"]))
def test_rule_table_matches_the_reference_elimination(shell_case):
    """Up to two orders above the equations, rules_up_to(k) equals the
    Expr-level reference as polynomials, no right-hand side holds a lead,
    and a ShellError has the reference's message."""
    equations, directions = shell_case
    base = max(map(ex.max_jet_order, equations))
    for order in range(base, base + 3):
        table = _rules_or_message(lambda: lo.ShellRules(equations, directions).rules_up_to(order))
        expected = _rules_or_message(
            lambda: {
                lead: rhs._poly
                for lead, rhs in reference_rules(equations, directions, order).items()
            }
        )
        assert table == expected
        if isinstance(table, dict):
            for rhs in table.values():
                assert ex.jet_atoms(ex._expr(rhs)).isdisjoint(table)


def test_shell_build_substitutes_once_per_equation_and_once_per_holder(monkeypatch):
    # the chain of three rules above: its order-1 prolongation adds x3_t - x2_t
    # and x2_t - x1_t, so five equations; x3, then x2, then x2_t becomes a
    # lead held by 1, 2 and 1 earlier right-hand sides
    calls = []
    subst = ex._subst_poly

    def counting(p, table):
        out = subst(p, table)
        calls.append((table, out is not p))
        return out

    monkeypatch.setattr(ex, "_subst_poly", counting)
    rules = lo.ShellRules([x1t - ac.jet("x3"), ac.jet("x3") - x2, x2 - x1], ["t"]).rules_up_to(1)
    per_equation = [changed for table, changed in calls if table is rules]
    per_holder = [(table, changed) for table, changed in calls if table is not rules]
    assert len(per_equation) == 5
    assert len(per_holder) == 4
    # each holder update substitutes one rule into a right-hand side that holds its lead
    assert all(len(table) == 1 and changed for table, changed in per_holder)
    leads = [x1t, ac.jet("x3"), x2, ac.jet("x3", {"t": 1}), x2t]
    assert {lead: ex._expr(rhs) for lead, rhs in rules.items()} == {ex._atom(e): x1 for e in leads}


def test_op_equal_mod_shell_exact_and_weak():
    shell = oscillator_shell()
    A = Id.scale(x1t)
    B = Id.scale(x2)
    assert (A - A).map_coefficients(shell.reduce).is_zero()
    # A - B = (x1_t - x2) Id
    assert (A - B).map_coefficients(shell.reduce).is_zero()
    assert not (A - Id.scale(x1)).map_coefficients(shell.reduce).is_zero()


def test_anchor_definition_through_operators():
    # J o V = V* o J* on shell for the oscillator with the canonical bivector
    v = [-x2, x1]
    T = [x1t + v[0], x2t + v[1]]
    J = lo.linearize(T, ["x1", "x2"])
    V = lo.LinDiffOp(2, 2, {(0, 1, ex.EMPTY_INDEX): ac.ONE, (1, 0, ex.EMPTY_INDEX): -ac.ONE})
    shell = lo.ShellRules(T, ["t"])
    lhs = J.compose(V)
    rhs = V.formal_adjoint().compose(J.formal_adjoint())
    residual = (lhs - rhs).map_coefficients(shell.reduce)
    assert residual.is_zero(), residual.describe()
    # a bivector that is not an anchor for this system must fail
    W = lo.LinDiffOp(2, 2, {(0, 1, ex.EMPTY_INDEX): x1, (1, 0, ex.EMPTY_INDEX): -x1})
    lhs = J.compose(W)
    rhs = W.formal_adjoint().compose(J.formal_adjoint())
    assert not (lhs - rhs).map_coefficients(shell.reduce).is_zero()


def test_constructor_sums_entries_that_name_one_index():
    # (("t", 1),) and MultiIndex({"t": 1}) name the same derivative
    dt = ex.MultiIndex({"t": 1})
    op = lo.LinDiffOp(1, 1, {(0, 0, (("t", 1),)): t, (0, 0, dt): 1, (0, 0, ()): x1 - x1})
    assert op.entries == {(0, 0, dt): t + 1}
    assert lo.LinDiffOp(1, 1, {(0, 0, (("t", 1),)): t, (0, 0, dt): -t}).is_zero()


def test_describe():
    assert lo.LinDiffOp(2, 2).describe() == "0"
    assert Dt.compose(Id.scale(x1)).describe() == "[0,0] (x1_t) * 1; [0,0] (x1) * D_t"
    V = lo.LinDiffOp(
        2,
        2,
        {
            (1, 0, ex.MultiIndex({"t": 2, "s": 1})): ac.rational(-1, 2) * x2,
            (0, 1, ex.MultiIndex({"t": 1})): t,
            (0, 1, ex.EMPTY_INDEX): ac.ONE,
        },
    )
    # row, column, then derivative order
    assert V.describe() == "[0,1] (1) * 1; [0,1] (t) * D_t; [1,0] (-1/2*x2) * D_sD_tD_t"


# --- reference: all-pairs compose and full-Leibniz adjoint, operator arithmetic --


def _reference_compose(self, other):
    if self.cols != other.rows:
        raise ValueError("inner dimensions do not match")
    entries = {}
    for (r, k, alpha), a in self.entries.items():
        for (k2, c, beta), b in other.entries.items():
            if k2 != k:
                continue
            for gamma, remaining, binom in lo._sub_indices(alpha):
                coeff = a * ex.rational(binom) * _iterated(b, gamma)
                key = (r, c, remaining + beta)
                entries[key] = entries[key] + coeff if key in entries else coeff
    return lo.LinDiffOp(self.rows, other.cols, entries)


def _reference_adjoint(self):
    entries = {}
    for (r, c, alpha), a in self.entries.items():
        sign = ex.rational((-1) ** alpha.order())
        for gamma, remaining, binom in lo._sub_indices(alpha):
            coeff = sign * ex.rational(binom) * _iterated(a, gamma)
            key = (c, r, remaining)
            entries[key] = entries[key] + coeff if key in entries else coeff
    return lo.LinDiffOp(self.cols, self.rows, entries)


# --- random small operators: constant and jet coefficients, orders <= 2 ----------

_X0 = ac.indep("x0")
_GENS = [_X0, ac.jet("u"), ac.jet("w"), ac.jet("u", {"x0": 1}), ac.jet("w", {"x1": 1})]
_ORDERS = [{}, {"x0": 1}, {"x1": 1}, {"x0": 2}, {"x0": 1, "x1": 1}, {"x1": 2}]


@st.composite
def _coeffs(draw):
    c = Fraction(draw(st.integers(-4, 4).filter(bool)), draw(st.integers(1, 3)))
    e = ac.rational(c.numerator, c.denominator)
    if draw(st.booleans()):  # about half of the coefficients are constants
        for i in draw(st.lists(st.integers(0, len(_GENS) - 1), min_size=1, max_size=2)):
            e = e * _GENS[i]
        e = e + draw(st.integers(-2, 2))
    return e


@st.composite
def _constants(draw):
    """A nonzero rational constant over one of several denominators."""
    num = draw(st.integers(-6, 6).filter(bool))
    return ac.rational(num, draw(st.sampled_from([1, 2, 3, 4, 6, 12])))


@st.composite
def _ops(draw, rows, cols, coeffs=_coeffs(), max_entries=5):
    entries = {}
    for _ in range(draw(st.integers(0, max_entries))):
        key = (
            draw(st.integers(0, rows - 1)),
            draw(st.integers(0, cols - 1)),
            ex.MultiIndex(draw(st.sampled_from(_ORDERS))),
        )
        entries[key] = draw(coeffs)
    return lo.LinDiffOp(rows, cols, entries)


def _op_strategy(draw):
    """(coefficients, entry count) of either random family: mixed constant
    and polynomial coefficients, or constants only and more entries, which
    take the integer path of compose and formal_adjoint throughout."""
    if draw(st.booleans()):
        return _coeffs(), 5
    return _constants(), 30


@st.composite
def _op_chains(draw):
    n, k, m = (draw(st.integers(1, 3)) for _ in range(3))
    coeffs, size = _op_strategy(draw)
    vector = [draw(_coeffs()) * draw(_coeffs()) for _ in range(m)]
    return draw(_ops(n, k, coeffs, size)), draw(_ops(k, m, coeffs, size)), vector


@st.composite
def _op_pairs(draw):
    rows, cols = draw(st.integers(1, 3)), draw(st.integers(1, 3))
    coeffs, size = _op_strategy(draw)
    return draw(_ops(rows, cols, coeffs, size)), draw(_ops(rows, cols, coeffs, size))


def _same_entries(a, b):
    return (a.rows, a.cols) == (b.rows, b.cols) and a.entries == b.entries


@settings(max_examples=120, deadline=None)
@given(_op_chains())
def test_compose_and_adjoint_match_reference(chain):
    A, B, v = chain
    AB = A.compose(B)
    assert _same_entries(AB, _reference_compose(A, B))
    assert _same_entries(A.formal_adjoint(), _reference_adjoint(A))
    assert _same_entries(B.formal_adjoint(), _reference_adjoint(B))
    assert AB.apply(v) == A.apply(B.apply(v))


def _reference_sum(a, b, sign):
    entries = dict(a.entries)
    for key, v in b.entries.items():
        entries[key] = entries[key] + sign * v if key in entries else sign * v
    return lo.LinDiffOp(a.rows, a.cols, entries)


@settings(max_examples=120, deadline=None)
@given(_op_pairs())
def test_sum_and_difference_match_reference(pair):
    A, B = pair
    difference = A - B
    assert _same_entries(difference, A + B.scale(-1))
    assert _same_entries(difference, _reference_sum(A, B, -1))
    assert _same_entries(A + B, _reference_sum(A, B, 1))
    assert (A - A).entries == {}
    c = ac.rational(-3, 4)
    scaled = lo.LinDiffOp(B.rows, B.cols, {k: c * v for k, v in B.entries.items()})
    assert _same_entries(B.scale(c), scaled)


def _counting(monkeypatch, name):
    calls = []
    fn = getattr(ex, name)
    monkeypatch.setattr(ex, name, lambda *a, **k: calls.append(1) or fn(*a, **k))
    return calls


def test_constant_compose_forms_no_polynomial_product(monkeypatch):
    rng = random.Random(4)

    def constant_op():
        entries = {}
        for _ in range(20):
            key = (rng.randrange(3), rng.randrange(3), ex.MultiIndex(rng.choice(_ORDERS)))
            entries[key] = ac.rational(rng.randint(-6, 6) or 1, rng.randint(1, 4))
        return lo.LinDiffOp(3, 3, entries)

    A, B = constant_op(), constant_op()
    expected = _reference_compose(A, B)
    calls = _counting(monkeypatch, "_paddmul_into")
    assert _same_entries(A.compose(B), expected)
    assert not calls
    # the path is chosen per product: one polynomial coefficient takes the
    # Leibniz loop for its own products only
    poly_key = (0, 0, ex.MultiIndex({"x0": 1}))
    mixed = lo.LinDiffOp(3, 3, {**B.entries, poly_key: ac.jet("u") * _X0})
    expected = _reference_compose(A, mixed)
    calls.clear()
    assert _same_entries(A.compose(mixed), expected)
    leibniz_terms = sum(len(list(lo._sub_indices(k[2]))) for k in A.entries if k[1] == 0)
    assert len(calls) == leibniz_terms > 0


def test_apply_takes_each_derivative_once(monkeypatch):
    dx = ex.MultiIndex({"x0": 1})
    indices = (dx, dx + dx)
    entries = {(r, c, a): ac.rational(r + 1) for r in range(3) for c in range(2) for a in indices}
    op = lo.LinDiffOp(3, 2, entries)
    v = [ac.jet("u") * _X0, ac.jet("w") ** 2]
    expected = [
        sum(
            (op.entries[(r, c, alpha)] * _iterated(v[c], alpha) for c in range(2) for alpha in indices),
            ac.ZERO,
        )
        for r in range(3)
    ]
    calls = _counting(monkeypatch, "_iterated_poly")
    assert op.apply(v) == expected
    assert len(calls) == 4  # one per (column, alpha) pair, not one per entry


def test_constant_product_into_a_full_sum_is_refused(monkeypatch):
    # entry (0, 0) sums u, of 4 monomials, and the constant 1: 5 monomials
    u = sum((ac.jet("u", {"x0": i}) for i in range(4)), ac.ZERO)
    A = lo.LinDiffOp(1, 2, {(0, 0, ex.EMPTY_INDEX): ac.ONE, (0, 1, ex.EMPTY_INDEX): ac.ONE})
    B = lo.LinDiffOp(2, 1, {(0, 0, ex.EMPTY_INDEX): u, (1, 0, ex.EMPTY_INDEX): ac.ONE})
    assert A.compose(B).entries[(0, 0, ex.EMPTY_INDEX)] == u + 1
    monkeypatch.setattr(ex, "NODE_LIMIT", 4)
    with pytest.raises(ex.ResourceLimitError):
        A.compose(B)

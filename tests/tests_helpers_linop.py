"""Shared random-operator generators for operator tests, and the Expr-level
reference of the shell elimination."""

import anchorcalc as ac
from anchorcalc import expr as ex
from anchorcalc import linop as lo

t = ac.indep("t")
x1, x2 = ac.jet("x1"), ac.jet("x2")
x1t = ac.jet("x1", {"t": 1})


def rand_coeff(rng):
    gens = [t, x1, x2, x1t]
    e = ac.rational(rng.randint(-3, 3))
    for _ in range(rng.randint(0, 2)):
        e = e * gens[rng.randrange(len(gens))]
    return e


def rand_op(rng, rows=2, cols=2, order=2):
    entries = {}
    for r in range(rows):
        for c in range(cols):
            for k in range(order + 1):
                if rng.random() < 0.5:
                    entries[(r, c, ex.MultiIndex({"t": k} if k else {}))] = rand_coeff(rng)
    return lo.LinDiffOp(rows, cols, entries)


def rand_vec(rng, n=2):
    return [rand_coeff(rng) + rand_coeff(rng) * x2 for _ in range(n)]


# --- reference: the Expr-level shell elimination that the polynomial rule
# table of linop._eliminate replaced --------------------------------------


def reference_rules(equations, directions, order):
    """The rules of the order-k prolongation of the equations, lead -> Expr,
    from the same prolongation as linop.ShellRules.rules_up_to."""
    eqs = [ex._coerce(e) for e in equations]
    seen = set(eqs)
    for eq in eqs:
        if ex.max_jet_order(eq) < order:
            for de in (ex.total_derivative(eq, d) for d in directions):
                if de not in seen:
                    seen.add(de)
                    eqs.append(de)
    return _eliminate(eqs)


def _eliminate(equations):
    """Triangularize linear-in-their-lead equations into rewrite rules whose
    right-hand sides contain no lead."""
    rules = {}
    for eq in equations:
        eq = _reduce_full(eq, rules)
        if ex.is_identically_zero(eq):
            continue
        jets = ex.jet_atoms(eq)
        if not jets:
            raise lo.ShellError(f"inconsistent shell relation: {ex.to_text(eq)} = 0")
        lead = max(jets, key=lo._lead_key)
        coeff = ex.diff(eq, lead)
        if ex.jet_atoms(coeff) or not isinstance(coeff, ex.Rat):
            raise lo.ShellError(
                f"cannot solve relation for {lead.display()}: "
                "leading coefficient is not constant"
            )
        rest = eq - coeff * ex.Sym(lead)
        if lead in ex.jet_atoms(rest):
            raise lo.ShellError(f"relation is nonlinear in {lead.display()}")
        rules[lead] = rest * ex.rational(-1) / coeff
    # later rules rewrite earlier right-hand sides; atoms only ever decrease
    for lead, rhs in rules.items():
        rules[lead] = _reduce_full(rhs, rules)
    return rules


def _reduce_full(e, rules):
    """Substitute the rules into e until no lead is left."""
    while True:
        hit = {a: rules[a] for a in ex.jet_atoms(e) if a in rules}
        if not hit:
            return e
        e = ex.substitute(e, hit)

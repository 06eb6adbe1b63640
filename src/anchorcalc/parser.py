"""Recursive-descent parser for the expression text grammar.

Grammar (whitespace-insensitive):

    expr    :=  term (('+' | '-') term)*
    term    :=  unary (('*' | '/') unary)*
    unary   :=  ('-' | '+') unary | power
    power   :=  atom ('^' exponent)?          # right-associative
    exponent:=  integer | '-' integer | '(' exponent ')'
    atom    :=  integer | identifier | call | '(' expr ')'
    call    :=  ('sin' | 'cos' | 'exp' | 'log') '(' expr ')'

Identifiers are ``[a-zA-Z][a-zA-Z0-9]*``.  A jet variable is written as a
field name followed by ``_`` and a string of independent-variable names,
one per derivative (``x1_tt`` is the second t-derivative of field x1).
Which identifiers denote independent variables, fields or parameters is
supplied by a :class:`VarContext`.  Input nested more than MAX_DEPTH
levels deep (parentheses, calls, signs) is rejected with a ParseError.

Most model-file values are flat sums of products, such as
``-9/4*x3*x4*x5*x6 + x1^2``, and parse_expr reads those in one pass
(_flat): one split at the signs gives the signed product texts, each a
run of factors joined by ``*`` or ``/``, where a factor is a nonzero
integer or a name of the context, with an optional non-negative integer
power.  Each distinct product text is read once per context, through the
memo VarContext.products, and the sum is normalised once.  Every other
text goes whole through the tokenizer and the recursive-descent parser:
one with parentheses, a call or a jet name; an unknown name, a zero
factor or a negative exponent; a doubled or trailing sign; an empty or
blank text; and a sum of more than NODE_LIMIT products.  So that parser
is the one source of parse errors and refusals, and the flat reading
gives the value it would give.
"""

from __future__ import annotations

import math
import re
from collections import Counter

from . import expr as ex

# Nesting cap: each level costs a few interpreter frames, so this stays far
# below Python's default recursion limit of 1000.
MAX_DEPTH = 100


class ParseError(ex.ExprError):
    def __init__(self, message, position, text):
        self.message = message
        self.position = position
        line = text.count("\n", 0, position) + 1
        col = position - (text.rfind("\n", 0, position) + 1) + 1
        super().__init__(f"{message} (line {line}, column {col})")
        self.line = line
        self.column = col


# A name of a VarContext: an identifier without the jet suffix.
_NAME = re.compile(r"[a-zA-Z][a-zA-Z0-9]*")


class VarContext:
    """Symbol table mapping identifiers to atom kinds."""

    def __init__(self, indep=(), fields=(), params=()):
        self.indep = tuple(indep)
        self.fields = tuple(fields)
        self.params = tuple(params)
        names = self.indep + self.fields + self.params
        odd = [n for n in names if not _NAME.fullmatch(n)]
        if odd:
            raise ValueError(f"names must be letters and digits, a letter first: {odd}")
        dupes = {n for n, count in Counter(names).items() if count > 1}
        if dupes:
            raise ValueError(f"names must be unique within a model: {sorted(dupes)}")
        clash = set(names) & set(ex.FUNCTIONS)
        if clash:
            raise ValueError(f"names shadow elementary functions: {sorted(clash)}")
        self.atoms = {n: ex.IndepVar(n) for n in self.indep}
        self.atoms.update((n, ex.JetVar(n)) for n in self.fields)
        self.atoms.update((n, ex.Param(n)) for n in self.params)
        # product text -> (monomial, numerator, denominator), filled by _flat
        self.products = {}

    def lookup(self, name):
        """The atom a name denotes, or None."""
        return self.atoms.get(name)

    def split_jet_suffix(self, suffix):
        """Split a derivative suffix into independent-variable names by
        greedy longest match; returns None when it does not decompose."""
        ordered = sorted(self.indep, key=len, reverse=True)
        counts = {}
        i = 0
        while i < len(suffix):
            for name in ordered:
                if suffix.startswith(name, i):
                    counts[name] = counts.get(name, 0) + 1
                    i += len(name)
                    break
            else:
                return None
        return counts


# One token per match, its kind given by the group that matched; the leading
# whitespace is a group of its own, so positions add up without a call per
# token.  Every non-space character starts a match (the last group takes the
# rest), so the matches tile the text up to its trailing whitespace.
_TOKEN = re.compile(
    r"(\s*)(?:([0-9]+)|([a-zA-Z][a-zA-Z0-9]*(?:_[a-zA-Z0-9]+)?)|([-+*/^()])|(\S))"
)


def tokenize(text):
    """(kind, value, position) triples, kind one of num, ident, op and a
    final end."""
    tokens = []
    pos = 0
    for space, num, ident, op, bad in _TOKEN.findall(text.rstrip()):
        pos += len(space)
        if num:
            tokens.append(("num", num, pos))
            pos += len(num)
        elif ident:
            tokens.append(("ident", ident, pos))
            pos += len(ident)
        elif op:
            tokens.append(("op", op, pos))
            pos += 1
        else:
            raise ParseError(f"unexpected character {bad!r}", pos, text)
    tokens.append(("end", "", len(text)))
    return tokens


class _Parser:
    """Builds the normal-form polynomial pair of each rule on the
    polynomial layer of expr; only a function argument is wrapped in an
    Expr, for its atom."""

    def __init__(self, text, context):
        self.text = text
        self.context = context
        self.tokens = tokenize(text)
        self.k = 0
        self.depth = 0

    def peek(self):
        return self.tokens[self.k]

    def advance(self):
        tok = self.tokens[self.k]
        self.k += 1
        return tok

    def expect(self, value):
        kind, val, pos = self.peek()
        if kind != "op" or val != value:
            raise ParseError(f"expected {value!r}", pos, self.text)
        return self.advance()

    def descend(self):
        """Enter one nesting level; the caller leaves it by decrementing."""
        self.depth += 1
        if self.depth > MAX_DEPTH:
            self.fail(f"expression is nested more than {MAX_DEPTH} levels deep")

    def fail(self, message):
        _, _, pos = self.peek()
        raise ParseError(message, pos, self.text)

    # grammar rules ------------------------------------------------------
    def expr(self):
        p = self.term()
        acc = None  # the sum of two or more terms, accumulated in place
        while True:
            kind, val, _ = self.peek()
            if kind != "op" or val not in "+-":
                return p if acc is None else ex._normal(*acc)
            self.advance()
            q = self.term()
            if acc is None:
                acc = ex._acc(p)
            ex._padd_into(acc, q, 1 if val == "+" else -1)

    def term(self):
        p = self.unary()
        while True:
            kind, op, _ = self.peek()
            if kind != "op" or op not in "*/":
                return p
            self.advance()
            q = self.unary()
            p = ex._pmul(p, ex._pinv(q) if op == "/" else q)

    def unary(self):
        """A signed factor, one nesting level deeper per sign and factor."""
        self.descend()
        kind, val, _ = self.peek()
        if kind == "op" and val in "+-":
            self.advance()
            p = self.unary()
            if val == "-":
                p = ex._pscale(p, -1)
        else:
            p = self.power()
        self.depth -= 1
        return p

    def power(self):
        base = self.atom()
        kind, val, _ = self.peek()
        if kind == "op" and val == "^":
            self.advance()
            return ex._ppow(base, self.exponent())
        return base

    def exponent(self):
        self.descend()
        kind, val, pos = self.peek()
        if kind == "op" and val == "(":
            self.advance()
            value = self.exponent()
            self.expect(")")
        elif kind == "op" and val == "-":
            self.advance()
            value = -self.exponent()
        elif kind == "num":
            self.advance()
            value = int(val)
        else:
            raise ParseError("exponent must be an integer", pos, self.text)
        self.depth -= 1
        return value

    def atom(self):
        kind, val, pos = self.peek()
        if kind == "num":
            self.advance()
            return ({(): int(val)}, 1) if int(val) else ({}, 1)
        if kind == "op" and val == "(":
            self.advance()
            inner = self.expr()
            self.expect(")")
            return inner
        if kind == "ident":
            self.advance()
            if val not in ex.FUNCTIONS:
                return {((self.identifier(val, pos), 1),): 1}, 1
            self.expect("(")
            arg = self.expr()
            self.expect(")")
            return ex._fun_poly(val, ex._expr(arg))
        raise ParseError("expected a value", pos, self.text)

    def identifier(self, name, pos):
        """The atom an identifier names."""
        if "_" in name:
            head, suffix = name.split("_", 1)
            if head not in self.context.fields:
                raise ParseError(f"unknown field {head!r} in jet symbol", pos, self.text)
            counts = self.context.split_jet_suffix(suffix)
            if counts is None:
                raise ParseError(
                    f"cannot read derivative suffix {suffix!r} as independent variables",
                    pos,
                    self.text,
                )
            return ex.JetVar(head, counts)
        atom = self.context.atoms.get(name)
        if atom is None:
            raise ParseError(f"unknown identifier {name!r}", pos, self.text)
        return atom


# The flat reading.  A sign split leaves the product texts at the odd
# indices of the split, and an operator split leaves the factor texts of a
# product at the even ones.  A factor is a name of the context or reads as
# _FACTOR, an integer or a name with an optional power.
_SIGNS = re.compile(r"([-+])")
_OPERATORS = re.compile(r"([*/])")
# An integer literal: a run of digits that does not continue a name.
_LITERAL = re.compile(r"(?<![a-zA-Z0-9_])[0-9]+")
_FACTOR = re.compile(r"\s*(?:([0-9]+)|([a-zA-Z][a-zA-Z0-9]*))\s*(?:\^\s*([0-9]+)\s*)?")


def _product(text, atoms):
    """(monomial, numerator, denominator) of a product text, the fraction in
    lowest terms; None when a factor is not a nonzero integer or a name in
    atoms, each with an optional non-negative integer power."""
    num = den = 1
    exponents = {}
    divide = False
    for part in _OPERATORS.split(text):
        atom = atoms.get(part)  # a bare name, the most common factor
        e = 1
        if atom is None:
            if part == "*" or part == "/":
                divide = part == "/"
                continue
            if part.isascii() and part.isdigit():  # a bare integer
                integer, name, power = part, None, None
            else:
                m = _FACTOR.fullmatch(part)
                if m is None:
                    return None
                integer, name, power = m.groups()
            if power:
                e = int(power)
            if integer:
                if not int(integer):
                    return None
                if divide:
                    den *= ex._int_pow(int(integer), e)
                else:
                    num *= ex._int_pow(int(integer), e)
                continue
            atom = atoms.get(name)
            if atom is None:
                return None
        exponents[atom] = exponents.get(atom, 0) + (-e if divide else e)
    mono = sorted(exponents.items())
    if 0 in exponents.values():  # a name divided out
        mono = [item for item in mono if item[1]]
    g = math.gcd(num, den)
    return tuple(mono), num // g, den // g


def _flat(text, context):
    """The value of a flat sum of products, or None for any other text."""
    if "(" in text:  # a call or parentheses
        return None
    parts = _SIGNS.split(text)
    if parts[0].strip():
        parts.insert(0, "+")
    else:  # a leading sign, or a blank text
        del parts[0]
    if not parts or len(parts) // 2 > ex.NODE_LIMIT:
        return None
    memo = context.products
    reads = []
    d = 1
    for product in parts[1::2]:
        product = product.strip()
        read = memo.get(product)
        if read is None:
            read = _product(product, context.atoms)
            if read is None:
                return None
            memo[product] = read
        if d % read[2]:
            d = math.lcm(d, read[2])
        reads.append(read)
    out = {}
    get = out.get
    for sign, (mono, num, den) in zip(parts[::2], reads):
        v = get(mono, 0) + (num if sign == "+" else -num) * (d // den)
        if v:
            out[mono] = v
        else:
            del out[mono]
    return ex._expr(ex._normal(out, d))


def parse_expr(text, context) -> ex.Expr:
    """Parse a single expression; raises ParseError with position info.  A
    flat sum of products is read by _flat, any other text by _Parser.  An
    integer literal, exponents included, longer than the digit budget is
    refused before either reads it."""
    limit = ex.BUDGETS["digit budget"][0]
    if len(text) > limit:
        longest = max(map(len, _LITERAL.findall(text)), default=0)
        if longest > limit:
            ex.refuse("integer literal", f"{longest} digits", "digit budget", limit)
    value = _flat(text, context)
    if value is not None:
        return value
    p = _Parser(text, context)
    node = p.expr()
    kind, val, pos = p.peek()
    if kind != "end":
        raise ParseError(f"unexpected trailing input {val!r}", pos, text)
    return ex._expr(node)

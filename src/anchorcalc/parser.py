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
        self.position = position
        line = text.count("\n", 0, position) + 1
        col = position - (text.rfind("\n", 0, position) + 1) + 1
        super().__init__(f"{message} (line {line}, column {col})")
        self.line = line
        self.column = col


class VarContext:
    """Symbol table mapping identifiers to atom kinds."""

    def __init__(self, indep=(), fields=(), params=()):
        self.indep = tuple(indep)
        self.fields = tuple(fields)
        self.params = tuple(params)
        names = self.indep + self.fields + self.params
        dupes = {n for n, count in Counter(names).items() if count > 1}
        if dupes:
            raise ValueError(f"names must be unique within a model: {sorted(dupes)}")
        clash = set(names) & set(ex.FUNCTIONS)
        if clash:
            raise ValueError(f"names shadow elementary functions: {sorted(clash)}")
        self.atoms = {n: ex.IndepVar(n) for n in self.indep}
        self.atoms.update((n, ex.JetVar(n)) for n in self.fields)
        self.atoms.update((n, ex.Param(n)) for n in self.params)

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
    # expr and term, which every token passes through, read the token list
    # directly rather than through peek and advance
    def expr(self):
        tokens = self.tokens
        p = self.term()
        acc = None  # the sum of two or more terms, accumulated in place
        while True:
            kind, val, _ = tokens[self.k]
            if kind != "op" or val not in "+-":
                return p if acc is None else ex._normal(*acc)
            self.k += 1
            q = self.term()
            if acc is None:
                acc = ex._acc(p)
            ex._padd_into(acc, q, 1 if val == "+" else -1)

    def term(self):
        """A product of factors in one pass.  Each nonzero integer and each
        atom, with its power and signs, goes into one numerator, one
        denominator and one exponent per atom, and their monomial is built
        once, at the end.  Any other factor (parenthesised, a call or the
        integer 0) goes through unary() and is multiplied in as it comes, so
        errors and refused products arise where the factor-by-factor fold
        meets them: a nonzero monomial factor changes no term count.  Each
        sign and each factor counts one nesting level, as in the grammar."""
        tokens = self.tokens
        num = den = 1
        exponents = {}
        p = None  # the product of the other factors, once there is one
        op = "*"
        while True:
            kind, val, pos = tokens[self.k]
            signs = 0
            while kind == "op" and val in "+-":
                self.descend()
                self.k += 1
                signs += 1
                if val == "-":
                    num = -num
                kind, val, pos = tokens[self.k]
            if kind == "ident" and val not in ex.FUNCTIONS or kind == "num" and int(val):
                self.descend()
                self.k += 1
                atom = None if kind == "num" else self.identifier(val, pos)
                e = 1
                if tokens[self.k][:2] == ("op", "^"):
                    self.k += 1
                    e = self.exponent()
                self.depth -= 1
                if op == "/":
                    e = -e
                if atom is not None:
                    exponents[atom] = exponents.get(atom, 0) + e
                elif e >= 0:
                    num *= int(val) ** e
                else:
                    den *= int(val) ** -e
            else:
                q = self.unary()
                if op == "/":
                    q = ex._pinv(q)
                p = q if p is None else ex._pmul(p, q)
            self.depth -= signs
            kind, op, _ = tokens[self.k]
            if kind != "op" or op not in "*/":
                break
            self.k += 1
        g = math.gcd(num, den)
        mono = {tuple(sorted((a, e) for a, e in exponents.items() if e)): num // g}, den // g
        return mono if p is None else ex._pmul(p, mono)

    def unary(self):
        """A factor that term() does not gather, one nesting level deeper;
        every nested parenthesis and call passes here."""
        self.descend()
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
            value = int(val)
            return ({(): value}, 1) if value else ({}, 1)
        if kind == "op" and val == "(":
            self.advance()
            inner = self.expr()
            self.expect(")")
            return inner
        if kind == "ident":
            self.advance()
            if val in ex.FUNCTIONS:
                self.expect("(")
                arg = self.expr()
                self.expect(")")
                return ex._fun_poly(val, ex._expr(arg))
            return {((self.identifier(val, pos), 1),): 1}, 1
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


def parse_expr(text, context) -> ex.Expr:
    """Parse a single expression; raises ParseError with position info."""
    p = _Parser(text, context)
    node = p.expr()
    kind, val, pos = p.peek()
    if kind != "end":
        raise ParseError(f"unexpected trailing input {val!r}", pos, text)
    return ex._expr(node)

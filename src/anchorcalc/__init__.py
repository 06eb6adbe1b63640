"""Symbolic verification toolkit for Lagrange-anchor calculus.

Checks characteristics, symmetries and anchor conditions of
non-variational field equations, maps conservation laws to proper
symmetries, and verifies the standard p-form / self-dual / chiral-boson
model families on flat space.
"""

from .expr import (
    EMPTY_INDEX,
    ONE,
    ZERO,
    Expr,
    ExprError,
    FunAtom,
    IndepVar,
    JetVar,
    MultiIndex,
    Param,
    ResourceLimitError,
    UnsupportedInputError,
    canonicalize,
    cos,
    divergence_split,
    euler_derivative,
    exp,
    indep,
    is_identically_zero,
    jet,
    log,
    param,
    rational,
    sin,
    substitute,
    to_text,
    total_derivative,
)
from .parser import ParseError, VarContext, parse_expr

__version__ = "0.1.0"

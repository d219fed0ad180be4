"""The two expression evaluators: a parsed AST to a value.

``evaluate`` works in the ring R_o: numbers are truncated series in o
that carry their known order, functions are regular functions extended
as series, and eps is an extended value for comparisons.
``evaluate_rational`` works in the field Q(o) of rational functions of
o, where every result is exact and no order is needed.  They stay apart
because they evaluate in different domains: a merged evaluator would
branch on its caller at every node.

``number``, ``summation`` and ``difference`` are public because the
command-line commands call them too.
"""

from __future__ import annotations

import operator

from . import calculus, functions, rational
from .errors import OmegaError
from .omega import ExtendedOmega, OmegaNumber
from .parser import (Apply, BinOp, DiffForm, FuncRef, IntForm, Lit, Neg, PolyFunc, Pow,
                     SolveForm, Sym)


def evaluate(node, order: int):
    """Evaluate an AST node to an OmegaNumber, ExtendedOmega or function."""
    if isinstance(node, Lit):
        return OmegaNumber.from_rational(node.value)
    if isinstance(node, Sym):
        if node.name == "o":
            return OmegaNumber.o()
        if node.name == "S":
            return OmegaNumber.sigma()
        return ExtendedOmega.epsilon()
    if isinstance(node, Neg):
        value = evaluate(node.operand, order)
        if not isinstance(value, ExtendedOmega):
            _require_number(value)
        return -value
    if isinstance(node, BinOp):
        return _eval_binop(node, order)
    if isinstance(node, Pow):
        return number(node.base, order).pow_rational(node.exponent, order=order)
    if isinstance(node, (FuncRef, PolyFunc, IntForm)):
        return _eval_func(node, order)
    if isinstance(node, DiffForm):
        _eval_func(node.func, order)  # the function's own errors come first
        raise OmegaError("an operator form must be applied to a point")
    if isinstance(node, SolveForm):
        F = _eval_func(node.func, order)
        return functions.solve_lift(F, number(node.target, order), node.seed, order=order)
    if isinstance(node, Apply):
        return _eval_apply(node, order)
    raise OmegaError(f"cannot evaluate node {node!r}")


def _require_number(value):
    if isinstance(value, ExtendedOmega):
        raise OmegaError("extended numbers support comparison only")
    if not isinstance(value, OmegaNumber):
        raise OmegaError("a function value appears where a number is needed")


def number(node, order: int) -> OmegaNumber:
    """Evaluate a node that must give a plain number."""
    value = evaluate(node, order)
    _require_number(value)
    return value


def _left_spine(node):
    """The leftmost operand of a BinOp chain and its ``(op, right)`` steps, in order.

    A loop, not recursion: a long chain like 1+1+...+1 is a deep
    left-nested tree, which recursion would take two frames per term for.
    """
    steps = []
    while isinstance(node, BinOp):
        steps.append((node.op, node.right))
        node = node.left
    steps.reverse()
    return node, steps


def _eval_binop(node: BinOp, order: int):
    first, steps = _left_spine(node)
    value = evaluate(first, order)
    for op, right in steps:
        value = _apply_binop(op, value, evaluate(right, order), order)
    return value


def _apply_binop(op: str, lhs, rhs, order: int):
    if isinstance(lhs, ExtendedOmega) or isinstance(rhs, ExtendedOmega):
        return _eval_extended_binop(op, lhs, rhs)
    _require_number(lhs)
    _require_number(rhs)
    if op == "+":
        return lhs + rhs
    if op == "-":
        return lhs - rhs
    if op == "*":
        return lhs * rhs
    return lhs * rhs.invert(order=order)


def _eval_extended_binop(op: str, lhs, rhs):
    # Construction sugar only: an exact finite part may be attached below
    # the infinite moment, and a monomial scale moves the moment.  The
    # extended values themselves have no ring structure.
    ext, other = (lhs, rhs) if isinstance(lhs, ExtendedOmega) else (rhs, lhs)
    if op == "/" or not isinstance(other, OmegaNumber):
        raise OmegaError("extended numbers support comparison only")
    if op == "*":
        terms = list(other.terms())
        if not other.is_exact() or len(terms) != 1:
            raise OmegaError("an infinite moment can only be scaled by a monomial")
        [(exponent, coefficient)] = terms
        return ExtendedOmega(ext.prefix * other, ext.position + exponent,
                             ext.sign * (1 if coefficient > 0 else -1))
    if op == "-":
        ext, other = (ext, -other) if ext is lhs else (-ext, other)
    return ExtendedOmega(ext.prefix + other, ext.position, ext.sign)


def _eval_func(node, order: int) -> functions.RegularFunction:
    if isinstance(node, FuncRef):
        return functions.builtin(node.name)
    if isinstance(node, PolyFunc):
        return functions.RegularFunction.polynomial([number(c, order) for c in node.coeffs])
    if isinstance(node, IntForm):
        F = _eval_func(node.func, order)
        return summation(F, node.order, [number(c, order) for c in node.inits], order)
    raise OmegaError(f"not a function form: {node!r}")


def summation(F: functions.RegularFunction, p: int, inits: list, order: int):
    """The p-fold summation of F with initial values ``inits`` (missing ones are 0)."""
    if len(inits) > p:
        raise OmegaError("more initial conditions than the system order")
    inits = inits + [OmegaNumber.zero()] * (p - len(inits))
    if p == 1:
        return calculus.integrate(F, inits[0], order=order)
    return calculus.solve_ode(F, p, inits, order=order)


def difference(kind: str, F: functions.RegularFunction, at: OmegaNumber, p: int, order: int):
    """D^p F (kind "D") or d^p F (kind "d") at the point ``at``."""
    u = at - OmegaNumber.from_rational(F.base_point)
    if kind == "D":
        return calculus.finite_difference(F, u, p, order=order)
    return calculus.leibniz_differential(F, u, p, order=order)


def _eval_apply(node: Apply, order: int):
    form = node.func
    if isinstance(form, DiffForm):
        F = _eval_func(form.func, order)
        return difference(form.kind, F, number(node.arg, order), form.order, order)
    head = evaluate(form, order)
    arg = number(node.arg, order)
    if isinstance(head, functions.RegularFunction):
        u = arg - OmegaNumber.from_rational(head.base_point)
        return head.eval(u, order=order)
    raise OmegaError("only functions and operator forms can be applied")


_RATIONAL_OPS = {"+": operator.add, "-": operator.sub, "*": operator.mul, "/": operator.truediv}


def evaluate_rational(node) -> rational.RationalFunction:
    """Evaluate an expression in the field of rational functions of o."""
    RF = rational.RationalFunction
    if isinstance(node, Lit):
        return RF.from_rational(node.value)
    if isinstance(node, Sym):
        if node.name == "o":
            return RF.o()
        if node.name == "S":
            return RF.sigma()
        raise OmegaError("eps is not a rational function")
    if isinstance(node, Neg):
        return -evaluate_rational(node.operand)
    if isinstance(node, BinOp):
        first, steps = _left_spine(node)
        value = evaluate_rational(first)
        for op, right in steps:
            value = _RATIONAL_OPS[op](value, evaluate_rational(right))
        return value
    if isinstance(node, Pow):
        if node.exponent.denominator != 1:
            raise OmegaError("rational functions support integer powers only")
        return evaluate_rational(node.base) ** node.exponent.numerator
    raise OmegaError("not a rational-function expression")

"""Tiny arithmetic expressions for profiles given on the command line.

Grammar: numeric literals, pi, named variables, sin/cos/exp, the operators
+ - * / ^ and parentheses.  ^ (also accepted as **) is right-associative
and binds tighter than unary minus, so -2^2 is -4 and 2^3^2 is 512.

Arithmetic on constants alone is done once, at parse time: it runs on
Python floats, so a constant division by zero (1/0, 0^-1) or overflow
(10^400) raises :class:`ExpressionError` there, before any evaluation.
"""

import math
import operator
import re

import numpy as np

__all__ = ["Expression", "ExpressionError", "parse_expression"]

_TOKEN_RE = re.compile(
    r"\s*(?:"
    r"(?P<number>\d+\.\d*(?:[eE][+-]?\d+)?|\.\d+(?:[eE][+-]?\d+)?|\d+(?:[eE][+-]?\d+)?)"
    r"|(?P<name>[A-Za-z_][A-Za-z_0-9]*)"
    r"|(?P<op>\*\*|[-+*/^()])"
    r")"
)

_FUNCTIONS = {"sin": np.sin, "cos": np.cos, "exp": np.exp}
_CONSTANTS = {"pi": math.pi}
# Most operations nested in one another: evaluating an expression recurses
# once per level, so this keeps it well inside Python's recursion limit.
_MAX_DEPTH = 256
# per binary operator: its action on two constants, and the evaluator it
# builds from two operand evaluators otherwise
_BINARY = {
    "+": (operator.add, lambda a, b: lambda env: a(env) + b(env)),
    "-": (operator.sub, lambda a, b: lambda env: a(env) - b(env)),
    "*": (operator.mul, lambda a, b: lambda env: a(env) * b(env)),
    "/": (operator.truediv, lambda a, b: lambda env: a(env) / b(env)),
    "^": (operator.pow, lambda a, b: lambda env: a(env) ** b(env)),
}
_BINARY["**"] = _BINARY["^"]


class ExpressionError(ValueError):
    """Malformed expression text."""


def _constant(value):
    """Evaluator of a constant; its ``value`` marks it for folding."""
    fn = lambda env: value
    fn.value = value
    return fn


def _binary(op: str, pos: int, lhs, rhs):
    """Evaluator of ``lhs op rhs``, folded to a constant when both are."""
    fold, build = _BINARY[op]
    if not (hasattr(lhs, "value") and hasattr(rhs, "value")):
        return build(lhs, rhs)
    try:
        return _constant(fold(lhs.value, rhs.value))
    except ZeroDivisionError:
        raise ExpressionError(f"constant {op!r} at position {pos} divides by zero") from None
    except OverflowError:
        raise ExpressionError(f"constant {op!r} at position {pos} overflows") from None


class Expression:
    """Parsed expression; call with keyword values for the variables it uses."""

    def __init__(self, fn, text: str, variables: tuple):
        self._fn = fn
        self.text = text
        self.variables = variables  # the variables actually referenced

    def __call__(self, **env):
        missing = [v for v in self.variables if v not in env]
        if missing:
            raise ExpressionError(f"missing variable values: {', '.join(missing)}")
        return self._fn(env)

    def unary(self, name: str):
        """Single-argument callable binding everything to ``name``."""
        others = [v for v in self.variables if v != name]
        if others:
            raise ExpressionError(
                f"expression also uses {', '.join(others)}; cannot bind to {name!r} alone")
        return lambda value: self._fn({name: value})


class _Parser:
    def __init__(self, text: str, variables: tuple):
        self.text = text
        self.variables = variables
        self.used = set()
        self.tokens = []
        pos = 0
        while pos < len(text):
            match = _TOKEN_RE.match(text, pos)
            if match is None or match.end() == pos:
                raise ExpressionError(f"bad token at position {pos}: {text[pos:pos + 10]!r}")
            self.tokens.append((match.lastgroup, match.group(match.lastgroup), pos))
            pos = match.end()
        self.index = 0

    def peek(self):
        return self.tokens[self.index] if self.index < len(self.tokens) else (None, None, len(self.text))

    def take(self):
        token = self.peek()
        self.index += 1
        return token

    def expect_op(self, op: str):
        kind, value, pos = self.take()
        if kind != "op" or value != op:
            raise ExpressionError(f"expected {op!r} at position {pos}")

    # Each rule returns the evaluator it built and the depth of its nested
    # calls; a leaf has depth 0.

    def parse(self):
        fn, depth = self.expr()
        kind, value, pos = self.peek()
        if kind is not None:
            raise ExpressionError(f"unexpected {value!r} at position {pos}")
        if depth > _MAX_DEPTH:
            raise ExpressionError(f"expression nests {depth} operations deep, "
                                  f"more than {_MAX_DEPTH}")
        return fn

    def expr(self):
        fn, depth = self.term()
        while True:
            kind, value, pos = self.peek()
            if kind == "op" and value in "+-":
                self.take()
                rhs, rhs_depth = self.term()
                fn = _binary(value, pos, fn, rhs)
                depth = max(depth, rhs_depth) + 1
            else:
                return fn, depth

    def term(self):
        fn, depth = self.factor()
        while True:
            kind, value, pos = self.peek()
            if kind == "op" and value in "*/":
                self.take()
                rhs, rhs_depth = self.factor()
                fn = _binary(value, pos, fn, rhs)
                depth = max(depth, rhs_depth) + 1
            else:
                return fn, depth

    def factor(self):
        kind, value, _ = self.peek()
        if kind == "op" and value in "+-":
            self.take()
            inner, depth = self.factor()
            if value == "-":
                if hasattr(inner, "value"):
                    return _constant(-inner.value), depth + 1
                return (lambda env: -inner(env)), depth + 1
            return inner, depth
        return self.power()

    def power(self):
        base, depth = self.atom()
        kind, value, pos = self.peek()
        if kind == "op" and value in ("^", "**"):
            self.take()
            exponent, exponent_depth = self.factor()
            return _binary(value, pos, base, exponent), max(depth, exponent_depth) + 1
        return base, depth

    def atom(self):
        kind, value, pos = self.take()
        if kind == "number":
            return _constant(float(value)), 0
        if kind == "name":
            if value in _FUNCTIONS:
                func = _FUNCTIONS[value]
                self.expect_op("(")
                inner, depth = self.expr()
                self.expect_op(")")
                return (lambda env: func(inner(env))), depth + 1
            if value in _CONSTANTS:
                return _constant(_CONSTANTS[value]), 0
            if value in self.variables:
                name = value
                self.used.add(name)
                return (lambda env: env[name]), 0
            raise ExpressionError(f"unknown name {value!r} at position {pos}")
        if kind == "op" and value == "(":
            inner = self.expr()
            self.expect_op(")")
            return inner
        raise ExpressionError(f"unexpected {'end of input' if kind is None else repr(value)} at position {pos}")


def parse_expression(text: str, variables: tuple = ("t",)) -> Expression:
    """Parse ``text`` into an :class:`Expression` over the named variables.

    Malformed text, and text nested too deeply to parse or evaluate within
    Python's recursion limit, raise :class:`ExpressionError`.
    """
    if not text.strip():
        raise ExpressionError("empty expression")
    parser = _Parser(text, tuple(variables))
    try:
        fn = parser.parse()
    except RecursionError:
        raise ExpressionError("expression nested too deeply to parse") from None
    return Expression(fn, text, tuple(v for v in variables if v in parser.used))

"""Tiny polynomial expression evaluator for catalog entries.

Grammar (deliberately minimal): +, -, *, ^ (nonnegative integer exponent),
parentheses, decimal/integer literals and parameter identifiers.  Evaluation
is exact when the environment supplies Fraction values, since literals are
parsed with Fraction and only ring operations are performed.  Each source
string is parsed once into a closure and reused.

The environment may also hold float arrays of one shape; the result is then
the array of what each element would give as a Python float, bit for bit:
a literal meeting an array enters as ``float(literal)`` (Fraction's own rule
with a float) and ``^`` goes through ``np.float_power``, which calls the same
C ``pow`` as Python floats do (``arr ** 2`` would square, which rounds
differently from ``pow`` in about 0.1 % of cases).
"""

from __future__ import annotations

import functools
import operator
import re
from fractions import Fraction

import numpy as np

_TOKEN = re.compile(r"\s*(?:(\d+\.\d+|\d+)|([A-Za-z_][A-Za-z_0-9]*)|([()+\-*^]))")


class ExpressionError(ValueError):
    """Raised for syntax errors or references to undeclared parameters."""


def _tokenize(src: str) -> list[tuple[str, str]]:
    tokens = []
    pos = 0
    while pos < len(src):
        m = _TOKEN.match(src, pos)
        if m is None:
            raise ExpressionError(f"bad character in expression {src!r} at offset {pos}")
        num, ident, op = m.groups()
        if num is not None:
            tokens.append(("num", num))
        elif ident is not None:
            tokens.append(("ident", ident))
        else:
            tokens.append(("op", op))
        pos = m.end()
    tokens.append(("end", ""))
    return tokens


def _ident(name: str, src: str):
    def load(env):
        if name not in env:
            raise ExpressionError(f"unknown parameter {name!r} in {src!r}")
        return env[name]
    return load


# Literal-only subexpressions are folded into one exact Fraction at compile
# time, as evaluation would compute them anyway, so that a literal meeting an
# array (``_mixed``) is always a single value.


def _literal(value):
    fn = lambda env: value  # noqa: E731
    fn.literal = value
    return fn


def _unary(op, f):
    if hasattr(f, "literal"):
        return _literal(op(f.literal))
    return lambda env: op(f(env))


def _binary(op, f, g):
    if hasattr(f, "literal") and hasattr(g, "literal"):
        return _literal(op(f.literal, g.literal))
    if hasattr(f, "literal") or hasattr(g, "literal"):
        return _mixed(op, f, g)
    return lambda env: op(f(env), g(env))


def _mixed(op, f, g):
    """A literal-only operand against one that reads the environment: the
    literal becomes a float when the other side is an array."""
    lit, other = (f, g) if hasattr(f, "literal") else (g, f)
    exact, as_float = lit.literal, float(lit.literal)

    def fn(env):
        val = other(env)
        c = as_float if isinstance(val, np.ndarray) else exact
        return op(c, val) if lit is f else op(val, c)
    return fn


def _power(base, exponent: int):
    if hasattr(base, "literal"):
        return _literal(base.literal ** exponent)

    def fn(env):
        val = base(env)
        if isinstance(val, np.ndarray):
            return np.float_power(val, exponent)
        return val ** exponent
    return fn


class _Parser:
    """Recursive descent from tokens to a closure ``env -> value``.

    The closure performs the operations the grammar prescribes, in the order
    a direct left-to-right evaluation would, so compiled results are
    bit-identical to interpreting the string.
    """

    def __init__(self, src: str):
        self.src = src
        self.tokens = _tokenize(src)
        self.k = 0

    def peek(self) -> tuple[str, str]:
        return self.tokens[self.k]

    def take(self) -> tuple[str, str]:
        tok = self.tokens[self.k]
        self.k += 1
        return tok

    def parse(self):
        fn = self.expr()
        if self.peek()[0] != "end":
            raise ExpressionError(f"trailing input in {self.src!r}")
        return fn

    def expr(self):
        kind, text = self.peek()
        negate = False
        if kind == "op" and text in "+-":
            self.take()
            negate = text == "-"
        fn = self.term()
        if negate:
            fn = _unary(operator.neg, fn)
        while True:
            kind, text = self.peek()
            if kind == "op" and text in "+-":
                self.take()
                rhs = self.term()
                fn = _binary(operator.add if text == "+" else operator.sub, fn, rhs)
            else:
                return fn

    def term(self):
        fn = self.power()
        while True:
            kind, text = self.peek()
            if kind == "op" and text == "*":
                self.take()
                fn = _binary(operator.mul, fn, self.power())
            else:
                return fn

    def power(self):
        base = self.atom()
        kind, text = self.peek()
        if kind == "op" and text == "^":
            self.take()
            kind, text = self.take()
            if kind != "num" or "." in text:
                raise ExpressionError(f"exponent must be a nonnegative integer in {self.src!r}")
            return _power(base, int(text))
        return base

    def atom(self):
        kind, text = self.take()
        if kind == "num":
            return _literal(Fraction(text))
        if kind == "ident":
            return _ident(text, self.src)
        if kind == "op" and text == "(":
            fn = self.expr()
            kind, text = self.take()
            if not (kind == "op" and text == ")"):
                raise ExpressionError(f"unbalanced parentheses in {self.src!r}")
            return fn
        if kind == "op" and text == "-":
            return _unary(operator.neg, self.atom())
        raise ExpressionError(f"unexpected token {text!r} in {self.src!r}")


@functools.lru_cache(maxsize=1024)
def _compile(src: str):
    """Closure ``env -> value`` for an expression string, parsed once per string."""
    return _Parser(src).parse()


def eval_expr(src: str, env: dict):
    """Evaluate an expression string against parameter values in ``env``."""
    return _compile(src)(env)


def expr_identifiers(src: str) -> set[str]:
    """Parameter names referenced by an expression (syntax check included)."""
    _compile(src)
    return {text for kind, text in _tokenize(src) if kind == "ident"}

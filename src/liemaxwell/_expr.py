"""Tiny polynomial expression evaluator for catalog entries.

Grammar (deliberately minimal): +, -, *, ^ (nonnegative integer exponent),
parentheses, decimal/integer literals and parameter identifiers.  A sign
binds tighter than * and looser than ^, wherever it stands: ``-x^n`` is
-(x^n), as in ``1*-x^n``, and ``(-x)^n`` raises -x.  Evaluation
is exact when the environment supplies Fraction values, since literals are
parsed with Fraction and only ring operations are performed.  Each source
string is parsed once into a closure and reused.

Python's own parser (``ast.parse``) reads the token stream, with ``^`` as
``**`` and each literal or identifier as a placeholder name, so Python never
reads a literal or sees an identifier as a keyword.  Its precedence and
associativity are the grammar's: a sign binds tighter than ``*`` and looser
than ``**``, and ``+ - *`` group to the left.  The tree is then checked
against the grammar (an exponent is one integer literal; calls, chained
exponents and empty parentheses are refused) and turned into closures.

The environment may also hold float arrays of one shape; the result is then
the array of what each element would give as a Python float, bit for bit:
a literal meeting a float or an array enters as ``float(literal)``
(Fraction's own rule with a float), converted when it is met, so a literal
beyond the float range stays exact in exact evaluation and is an
ExpressionError naming the expression in float evaluation; ``^`` goes
through ``np.float_power``, which calls the same C ``pow`` as Python floats
do (``arr ** 2`` would square, which rounds differently from ``pow`` in
about 0.1 % of cases).
"""

from __future__ import annotations

import ast
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


def _binary(op, f, g, src: str):
    if hasattr(f, "literal") and hasattr(g, "literal"):
        return _literal(op(f.literal, g.literal))
    if hasattr(f, "literal") or hasattr(g, "literal"):
        return _mixed(op, f, g, src)
    return lambda env: op(f(env), g(env))


def _mixed(op, f, g, src: str):
    """A literal-only operand against one that reads the environment: the
    literal stays exact against exact values and becomes a float against a
    float or an array, as Fraction itself converts it against a float.  A
    literal beyond the float range meets a float only as an ExpressionError."""
    lit, other = (f, g) if hasattr(f, "literal") else (g, f)
    exact = lit.literal
    try:
        as_float = float(exact)
    except OverflowError:
        as_float = None

    def fn(env):
        val = other(env)
        if isinstance(val, (float, np.ndarray)):
            if as_float is None:
                raise ExpressionError(f"literal beyond the float range in {src!r}")
            c = as_float
        else:
            c = exact
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


def _python_source(src: str, tokens: list[tuple[str, str]]) -> str:
    """The token stream as a Python expression: literal or identifier token k
    is the name ``_k`` and ``^`` is ``**``, whose exponent must be an integer
    literal token."""
    parts = []
    for k, (kind, text) in enumerate(tokens):
        if kind != "op":
            parts.append(f"_{k}")
        elif text == "^":
            next_kind, next_text = tokens[k + 1] if k + 1 < len(tokens) else ("end", "")
            if next_kind != "num" or "." in next_text:
                raise ExpressionError(f"exponent must be a nonnegative integer in {src!r}")
            parts.append("**")
        else:
            parts.append(text)
    return " ".join(parts)


_BINARY = {ast.Add: operator.add, ast.Sub: operator.sub, ast.Mult: operator.mul}


def _build(node, tokens: list[tuple[str, str]], src: str):
    """The closure for one node of the parsed token stream.  Operands are
    built in source order, so compiled results are bit-identical to
    interpreting the string.  The tokens give Python only names, parentheses,
    signs and ``+ - * **``; a call or an empty ``()`` is refused here."""
    if isinstance(node, ast.Name):
        kind, text = tokens[int(node.id[1:])]
        return _literal(Fraction(text)) if kind == "num" else _ident(text, src)
    if isinstance(node, ast.UnaryOp):
        fn = _build(node.operand, tokens, src)
        return _unary(operator.neg, fn) if isinstance(node.op, ast.USub) else fn
    if isinstance(node, ast.BinOp) and isinstance(node.op, ast.Pow):
        # The exponent is the literal after ``^``, unless it is chained or called.
        if not isinstance(node.right, ast.Name):
            raise ExpressionError(f"exponent must be a nonnegative integer in {src!r}")
        return _power(_build(node.left, tokens, src), int(tokens[int(node.right.id[1:])][1]))
    if isinstance(node, ast.BinOp):
        return _binary(_BINARY[type(node.op)], _build(node.left, tokens, src),
                       _build(node.right, tokens, src), src)
    raise ExpressionError(f"unexpected {type(node).__name__.lower()} in {src!r}")


@functools.lru_cache(maxsize=1024)
def _compile(src: str):
    """Closure ``env -> value`` for an expression string, parsed once per string."""
    tokens = _tokenize(src)
    try:
        tree = ast.parse(_python_source(src, tokens), mode="eval")
    except SyntaxError:
        raise ExpressionError(f"syntax error in {src!r}") from None
    return _build(tree.body, tokens, src)


def eval_expr(src: str, env: dict):
    """Evaluate an expression string against parameter values in ``env``."""
    return _compile(src)(env)


def expr_identifiers(src: str) -> set[str]:
    """Parameter names referenced by an expression (syntax check included)."""
    _compile(src)
    return {text for kind, text in _tokenize(src) if kind == "ident"}

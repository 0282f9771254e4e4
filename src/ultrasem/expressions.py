"""Tiny expression grammar for right-hand sides and boundary data.

Supported: ``+ - * / ^``, unary minus, ``sin`` ``cos`` ``exp``, the
variables ``x`` and ``y``, the constant ``pi`` and numeric literals.
Compiled expressions evaluate vectorized over numpy arrays.
"""

import ast

import numpy as np

from .errors import ExpressionError

_FUNCS = {"sin": np.sin, "cos": np.cos, "exp": np.exp}
_NAMES = {"pi": np.pi}
_BINOPS = {ast.Add: np.add, ast.Sub: np.subtract, ast.Mult: np.multiply,
           ast.Div: np.divide, ast.Pow: np.power}


def _check(node):
    if isinstance(node, ast.Expression):
        _check(node.body)
    elif isinstance(node, ast.BinOp):
        if type(node.op) not in _BINOPS:
            raise ExpressionError(f"operator {type(node.op).__name__} not allowed")
        _check(node.left)
        _check(node.right)
    elif isinstance(node, ast.UnaryOp):
        if not isinstance(node.op, (ast.USub, ast.UAdd)):
            raise ExpressionError("only unary +/- allowed")
        _check(node.operand)
    elif isinstance(node, ast.Call):
        if not isinstance(node.func, ast.Name) or node.func.id not in _FUNCS:
            raise ExpressionError("only sin, cos and exp calls allowed")
        if len(node.args) != 1 or node.keywords:
            raise ExpressionError("functions take exactly one argument")
        _check(node.args[0])
    elif isinstance(node, ast.Name):
        if node.id not in ("x", "y") and node.id not in _NAMES:
            raise ExpressionError(f"unknown name '{node.id}'")
    elif isinstance(node, ast.Constant):
        if isinstance(node.value, bool) or not isinstance(node.value, (int, float)):
            raise ExpressionError("only numeric constants allowed")
        if isinstance(node.value, int) and abs(node.value) > float(np.finfo(float).max):
            raise ExpressionError("integer constant too large for a float")
    else:
        raise ExpressionError(f"syntax element {type(node).__name__} not allowed")


def _eval(node, x, y):
    if isinstance(node, ast.Expression):
        return _eval(node.body, x, y)
    if isinstance(node, ast.BinOp):
        return _BINOPS[type(node.op)](_eval(node.left, x, y),
                                      _eval(node.right, x, y))
    if isinstance(node, ast.UnaryOp):
        v = _eval(node.operand, x, y)
        return -v if isinstance(node.op, ast.USub) else v
    if isinstance(node, ast.Call):
        return _FUNCS[node.func.id](_eval(node.args[0], x, y))
    if isinstance(node, ast.Name):
        return {"x": x, "y": y, **_NAMES}[node.id]
    return float(node.value)  # Constant: no int64 wrap-around in powers


def compile_expression(text):
    """Compile an expression string into a vectorized function f(x, y)."""
    if not isinstance(text, str) or not text.strip():
        raise ExpressionError("empty expression")
    src = text.replace("^", "**")
    try:
        tree = ast.parse(src, mode="eval")
    except SyntaxError as exc:
        raise ExpressionError(f"cannot parse '{text}': {exc.msg}") from exc
    _check(tree)

    def fn(x, y):
        # callers report non-finite values, with the point, as typed errors
        with np.errstate(all="ignore"):
            out = _eval(tree, np.asarray(x, dtype=float), np.asarray(y, dtype=float))
        return out + np.zeros_like(np.asarray(x, dtype=float))

    fn.source = text
    return fn

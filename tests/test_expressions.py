import numpy as np
import pytest

from ultrasem.errors import ExpressionError
from ultrasem.expressions import compile_expression


class TestGrammar:
    def test_arithmetic_and_caret_power(self):
        f = compile_expression("x^2 + 2*x*y - y/2 + 1")
        assert f(2.0, 3.0) == 4 + 12 - 1.5 + 1
        # integer literals evaluate as floats: no int64 wrap-around, and
        # negative integer powers are allowed
        for text, want in (("10^20", 1e20), ("3^40", float(3 ** 40)),
                           ("2^62*4", 2.0 ** 64), ("2^-1", 0.5)):
            assert compile_expression(text)(0.0, 0.0) == pytest.approx(want, rel=1e-15)

    def test_functions_and_pi(self):
        f = compile_expression("sin(pi*x)*cos(y) + exp(-x)")
        x, y = 0.5, 0.0
        assert abs(f(x, y) - (np.sin(np.pi * x) * np.cos(y) + np.exp(-x))) < 1e-15

    def test_unary_minus(self):
        f = compile_expression("-x + (-2)")
        assert f(3.0, 0.0) == -5.0

    def test_vectorized(self):
        f = compile_expression("x*y")
        X = np.array([[1.0, 2.0], [3.0, 4.0]])
        Y = np.ones_like(X)
        assert np.array_equal(f(X, Y), X)

    def test_constant_broadcasts(self):
        f = compile_expression("3")
        out = f(np.zeros((2, 2)), np.zeros((2, 2)))
        assert out.shape == (2, 2) and np.all(out == 3.0)

    def test_nonfinite_values_are_returned_without_warning(self):
        # the suite turns RuntimeWarning into an error: division by zero,
        # 0/0 and overflow pass their values on quietly to the caller
        out = compile_expression("1/x")(np.array([0.0, -0.0, 2.0]), np.zeros(3))
        assert np.array_equal(out, [np.inf, -np.inf, 0.5])
        assert np.isnan(compile_expression("0/x")(0.0, 0.0))
        assert compile_expression("exp(1000*x)")(1.0, 0.0) == np.inf


class TestRejections:
    @pytest.mark.parametrize("bad", [
        "",
        "import os",
        "__import__('os')",
        "x.real",
        "lambda x: x",
        "z + 1",
        "tan(x)",
        "x % 2",
        "sin()",
        "sin(x, y)",
        "'str'",
        "[1, 2]",
        "x if y else 0",
        "f(x)",
        "True",
        "False + x",
        pytest.param("1" + "0" * 400, id="integer-beyond-float-range"),
    ])
    def test_rejected(self, bad):
        with pytest.raises(ExpressionError):
            compile_expression(bad)

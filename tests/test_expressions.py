import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from codseries.expressions import ExpressionError, parse_expression


def evaluate(text, **env):
    variables = tuple(env) if env else ("t",)
    return parse_expression(text, variables)(**env)


class TestValues:
    def test_literals(self):
        assert evaluate("42") == 42.0
        assert evaluate("3.5e-2") == 0.035
        assert evaluate(".5") == 0.5

    def test_pi(self):
        assert evaluate("2*pi") == pytest.approx(2.0 * math.pi)

    def test_arithmetic_precedence(self):
        assert evaluate("1+2*3") == 7.0
        assert evaluate("(1+2)*3") == 9.0
        assert evaluate("8/4/2") == 1.0
        assert evaluate("1-2-3") == -4.0

    def test_power_right_associative(self):
        assert evaluate("2^3^2") == 512.0
        assert evaluate("2**3**2") == 512.0

    def test_unary_minus_binds_looser_than_power(self):
        assert evaluate("-2^2") == -4.0
        assert evaluate("(-2)^2") == 4.0
        assert evaluate("2^-1") == 0.5

    def test_functions(self):
        assert evaluate("sin(0)") == 0.0
        assert evaluate("cos(0)") == 1.0
        assert evaluate("exp(1)") == pytest.approx(math.e)

    def test_variable(self):
        expr = parse_expression("1-0.5*sin(t)", ("t",))
        assert expr(t=0.0) == 1.0
        assert expr(t=math.pi / 2) == pytest.approx(0.5)

    def test_vectorized(self):
        expr = parse_expression("t^2+1", ("t",))
        t = np.linspace(0.0, 1.0, 5)
        assert np.allclose(expr(t=t), t ** 2 + 1)

    def test_two_variables(self):
        expr = parse_expression("sin(x)*cos(y)", ("x", "y"))
        assert expr(x=math.pi / 2, y=0.0) == pytest.approx(1.0)

    def test_unary_helper(self):
        f = parse_expression("2*t", ("t",)).unary("t")
        assert f(3.0) == 6.0


class TestErrors:
    def test_unknown_name(self):
        with pytest.raises(ExpressionError, match="unknown name"):
            evaluate("q+1")

    def test_unknown_function_like_name(self):
        with pytest.raises(ExpressionError, match="unknown name"):
            evaluate("tan(1)")

    def test_unbalanced_parens(self):
        with pytest.raises(ExpressionError):
            evaluate("(1+2")

    def test_trailing_junk(self):
        with pytest.raises(ExpressionError, match="unexpected"):
            evaluate("1+2)")

    def test_bad_token(self):
        with pytest.raises(ExpressionError, match="bad token"):
            evaluate("1 ? 2")

    def test_empty(self):
        with pytest.raises(ExpressionError, match="empty"):
            evaluate("   ")

    def test_missing_variable_value(self):
        expr = parse_expression("t+1", ("t",))
        with pytest.raises(ExpressionError, match="missing variable"):
            expr()

    def test_missing_operand(self):
        with pytest.raises(ExpressionError):
            evaluate("1+")


_TOKENS = ["1", "2.5", ".5", "1e3", "1e", "t", "x", "pi", "sin", "cos", "exp", "tan",
           "+", "-", "*", "/", "^", "**", "(", ")", " ", "?", "_"]


class TestGeneratedText:
    @settings(max_examples=300, deadline=None)
    @given(body=st.one_of(st.text(max_size=30),
                          st.lists(st.sampled_from(_TOKENS), max_size=40).map("".join)),
           prefix=st.sampled_from(["(", "-", "2^", "1+", "sin(", "2**"]),
           depth=st.integers(0, 1500))
    def test_any_text_parses_or_raises_expression_error(self, body, prefix, depth):
        text = prefix * depth + body
        try:
            expr = parse_expression(text, ("t", "x"))
        except ExpressionError:
            return
        # what parses evaluates without running out of stack; arithmetic on
        # constants alone runs on Python floats, which raise ArithmeticError
        with np.errstate(all="ignore"):
            try:
                expr(t=np.linspace(0.0, 1.0, 3), x=np.linspace(-1.0, 1.0, 3))
            except ArithmeticError:
                pass

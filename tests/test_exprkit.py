import math

import pytest
import sympy as sp
from hypothesis import given, settings, strategies as st

from hiddensym import exprkit
from hiddensym.exprkit import (EvalDomainError, ParseError, UnboundNameError,
                               UnknownFunctionError, evaluate, parse, simplify,
                               to_source)


class TestParse:
    def test_integer(self):
        assert parse("42") == sp.Integer(42)

    def test_decimal_is_exact_rational(self):
        assert parse("0.5") == sp.Rational(1, 2)
        assert parse("2.75") == sp.Rational(11, 4)

    def test_precedence(self):
        assert parse("2+3*4^2") == sp.Integer(50)

    def test_power_right_associative(self):
        assert parse("2^3^2") == sp.Integer(512)

    def test_unary_minus_binds_looser_than_power(self):
        x = sp.Symbol("x")
        assert parse("-x^2") == -x ** 2

    def test_negative_exponent(self):
        x = sp.Symbol("x")
        assert parse("x^-2") == x ** -2

    def test_functions(self):
        x = sp.Symbol("x")
        assert parse("sin(x)+cos(x)") == sp.sin(x) + sp.cos(x)
        assert parse("sqrt(x)") == sp.sqrt(x)

    def test_nested_parens(self):
        x, y = sp.symbols("x y")
        assert parse("(x+y)*(x-y)") == (x + y) * (x - y)

    def test_unknown_function_rejected(self):
        with pytest.raises(UnknownFunctionError):
            parse("sinh(x)")

    def test_parse_error_offset(self):
        with pytest.raises(ParseError) as exc:
            parse("1 + @")
        assert exc.value.offset == 4

    def test_trailing_input_rejected(self):
        with pytest.raises(ParseError):
            parse("1 2")

    def test_unbalanced_paren(self):
        with pytest.raises(ParseError):
            parse("sin(x")

    @pytest.mark.parametrize("src", [
        "(" * 2000 + "x" + ")" * 2000,
        "-" * 2000 + "x",
        "^".join(["x"] * 300),
        "sin(" * exprkit.MAX_DEPTH + "x" + ")" * exprkit.MAX_DEPTH,
    ])
    def test_deep_nesting_rejected(self, src):
        """A tree sympy's printer could not recurse through is a ParseError,
        not a RecursionError here or later in lambdify."""
        with pytest.raises(ParseError, match="nested"):
            parse(src)

    def test_nesting_up_to_the_limit_accepted(self):
        depth = exprkit.MAX_DEPTH - 1
        assert parse("sin(" * depth + "x" + ")" * depth).has(sp.sin)

    @pytest.mark.parametrize("src", ["2^1023", "10^400", "10^200*10^200", "x/10^400",
                                     "(1/2)^2000", "9^9^7"])
    def test_constant_beyond_a_float_rejected(self, src):
        """Every integer in a tree converts to a float; 9^9^7 is refused
        before its 4.5 million digits are computed."""
        with pytest.raises(ParseError, match="bits"):
            parse(src)

    def test_largest_constant_accepted(self):
        assert parse("2^1022") == sp.Integer(2) ** 1022


_names = st.sampled_from(["x", "y", "theta"])
_leaves = st.one_of(
    st.integers(min_value=-9, max_value=9).map(sp.Integer),
    _names.map(sp.Symbol),
)


def _combine(children):
    a, b = children
    return st.sampled_from([a + b, a * b, a - b, sp.sin(a), sp.sqrt(b ** 2 + 1)])


_exprs = st.recursive(_leaves,
                      lambda s: st.tuples(s, s).flatmap(_combine),
                      max_leaves=8)


class TestRoundTrip:
    @settings(max_examples=60, deadline=None)
    @given(_exprs)
    def test_print_parse_round_trip(self, e):
        assert sp.simplify(parse(to_source(e)) - e) == 0

    def test_power_printing(self):
        x = sp.Symbol("x")
        assert "^" in to_source(x ** 3)
        assert "**" not in to_source(x ** 3)


class TestCalculus:
    def test_simplify_pythagorean(self):
        assert simplify(parse("sin(x)^2 + cos(x)^2")) == 1

    def test_simplify_rational_normal_form(self):
        assert simplify(parse("(x^2-1)/(x-1)")) == sp.Symbol("x") + 1


class TestEvaluate:
    def test_point_and_env(self):
        v = evaluate(parse("m*sin(x)"), {"x": math.pi / 2}, {"m": 3.0})
        assert abs(v - 3.0) < 1e-12

    def test_unbound_name(self):
        with pytest.raises(UnboundNameError):
            evaluate(parse("x+y"), {"x": 1.0})

    def test_division_by_zero(self):
        with pytest.raises(EvalDomainError):
            evaluate(parse("1/x"), {"x": 0.0})

    def test_log_of_negative(self):
        with pytest.raises(EvalDomainError):
            evaluate(parse("log(x)"), {"x": -1.0})

    def test_sqrt_of_negative(self):
        with pytest.raises(EvalDomainError):
            evaluate(parse("sqrt(x)"), {"x": -4.0})

import ast
import functools
import json
import math
import operator
import tracemalloc
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
import sympy as sp
from hypothesis import assume, example, given, settings, strategies as st

import reference_parser
from hiddensym import exprkit, geodesic
from hiddensym.manifold import Manifold, TensorField, sample_points
from hiddensym.exprkit import (EvalDomainError, Expr, ExprError, ParseError,
                               UnknownFunctionError, codegen, compiled_function, derivative,
                               function, number, parse, simplify, symbol, to_source, to_sympy,
                               tree)
from test_manifold import UnboundNameError, evaluate

X, Y = symbol("x"), symbol("y")


class TestParse:
    def test_integer(self):
        assert parse("42") is number(42)

    def test_decimal_is_exact_rational(self):
        assert parse("0.5") is number(Fraction(1, 2))
        assert parse("2.75") is number(Fraction(11, 4))

    def test_precedence(self):
        assert parse("2+3*4^2") is number(50)

    def test_power_right_associative(self):
        assert parse("2^3^2") is number(512)

    def test_unary_minus_binds_looser_than_power(self):
        assert parse("-x^2") is -(X ** 2)

    def test_negative_exponent(self):
        assert parse("x^-2") is X ** -2

    def test_functions(self):
        assert parse("sin(x)+cos(x)") is function("sin", X) + function("cos", X)
        assert parse("sqrt(x)") is function("sqrt", X)

    def test_nested_parens(self):
        assert parse("(x+y)*(x-y)") is (X + Y) * (X - Y)

    def test_equal_trees_are_one_node(self):
        """Interning: equal subtrees are the same object, across parses."""
        e = parse("sin(x + y)*cos(x + y) + sin(x + y)")
        assert e.kids[0].kids[0] is e.kids[1] is parse("sin(x+y)")
        assert e.kids[0].kids[1].kids[0] is parse("(x + y)^2").kids[0] is parse("x+y")

    def test_constants_and_identities_fold(self):
        assert parse("x*1 + 0") is X
        assert parse("0*sin(x)") is number(0)
        assert parse("x^0") is number(1) and parse("x^1") is X
        assert parse("sqrt(9/4)") is number(Fraction(3, 2))
        assert parse("cos(0) + log(1) + exp(0)") is number(2)
        assert parse("x - x") is number(0) and parse("x/x") is not number(1)

    def test_values_match_sympy(self):
        for src in ("2+3*4^2", "-x^2", "x^-2", "(x+y)*(x-y)/3", "sqrt(x)*exp(-y)"):
            assert to_sympy(parse(src)) == sp.sympify(src.replace("^", "**"))

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

    @pytest.mark.parametrize("src, error, message, offset", [
        ("log(0", ParseError, "expected ')', found ''", 5),
        ("sqrt(-1", ParseError, "expected ')', found ''", 7),
        ("1 + @", ParseError, "unexpected character '@'", 4),
        ("1 2", ParseError, "unexpected trailing input '2'", 2),
        ("(", ParseError, "unexpected token ''", 1),
        ("sinh(x)", UnknownFunctionError, "unknown function 'sinh'", 0),
    ])
    def test_error_and_offset(self, src, error, message, offset):
        """Each error with its message and offset: a call's closing parenthesis
        is read before its argument is folded, so log(0 is a missing ')', not
        the log of 0."""
        with pytest.raises(ParseError) as exc:
            parse(src)
        assert type(exc.value) is error and exc.value.offset == offset
        assert str(exc.value) == f"{message} (at offset {offset})"

    def test_redundant_parentheses_read(self):
        """A parenthesis costs the reader one stack frame, so 150 redundant
        ones around a name read as the name."""
        assert parse("(" * 150 + "x" + ")" * 150) is X

    @pytest.mark.parametrize("src", [
        "(" * 2000 + "x" + ")" * 2000,
        "-" * 2000 + "x",
        "^".join(["x"] * 300),
        "sin(" * exprkit.MAX_DEPTH + "x" + ")" * exprkit.MAX_DEPTH,
    ])
    def test_deep_nesting_rejected(self, src):
        """A tree deeper than MAX_DEPTH is a ParseError, not a RecursionError
        here or later."""
        with pytest.raises(ParseError, match="nested"):
            parse(src)

    def test_nesting_up_to_the_limit_accepted(self):
        depth = exprkit.MAX_DEPTH - 1
        assert parse("sin(" * depth + "x" + ")" * depth).depth == exprkit.MAX_DEPTH

    def test_long_sums_and_products_are_one_level(self):
        """As in sympy's n-ary sums and products, a chain of + and - or of *
        and / counts as one level, and prints without recursion."""
        src = " + ".join(f"{k}*x^{k}" for k in range(2, 2000))
        assert to_source(parse(src)) == src
        assert parse(src).depth == 4

    @pytest.mark.parametrize("src", ["2^1023", "10^400", "10^200*10^200", "x/10^400",
                                     "(1/2)^2000", "9^9^7"])
    def test_constant_beyond_a_float_rejected(self, src):
        """Every constant in a tree converts to a float; 9^9^7 is refused
        before its 4.5 million digits are computed."""
        with pytest.raises(ParseError, match="bits"):
            parse(src)

    def test_largest_constant_accepted(self):
        assert parse("2^1022") is number(2 ** 1022)

    @pytest.mark.parametrize("src", ["1/0", "x/(2 - 2)", "1/(x - x)", "0^-1", "0/0", "log(0)",
                                     "log(-1)", "sqrt(-4)", "(-8)^(1/3)"])
    def test_non_finite_constant_rejected(self, src):
        with pytest.raises(EvalDomainError):
            parse(src)


# ASCII tokens of the grammar and some that are not (unknown function names, @,
# whitespace), and well-formed sources built from them; joined, neighbours may
# merge (sin and x into the name sinx)
_OPERANDS = ["x", "y", "theta", "0", "1", "2", "0.5", ".5", "3.", "10"]
_TOKENS = st.sampled_from([*_OPERANDS, "+", "-", "*", "/", "^", "(", ")", ",", *exprkit.FUNCTIONS,
                           "sinh", "f", "@", " ", "\t"])
_SOURCES = st.recursive(st.sampled_from(_OPERANDS), lambda s: st.one_of(
    st.tuples(s, st.sampled_from(["+", " - ", "*", "/", "^", "^-"]), s).map("".join),
    st.tuples(st.sampled_from(["-", "+ ", "(", "sin(", "log(", "sqrt(", "sinh("]), s).map(
        lambda t: "".join(t) + ")" * t[0].endswith("("))), max_leaves=12)
_DOCUMENTS = [*(Path(exprkit.__file__).parent / "data").glob("*.json"),
              *(Path(__file__).parent / "data").glob("*.json")]


def _outcome(read, src):
    """The node read(src) gives, or its error's type, message and offset."""
    try:
        return read(src)
    except ExprError as exc:
        return type(exc), str(exc), getattr(exc, "offset", None)


def _strings(value):
    """Every string nested in a JSON value."""
    if isinstance(value, str):
        yield value
    elif isinstance(value, (dict, list)):
        for v in value.values() if isinstance(value, dict) else value:
            yield from _strings(v)


class TestReferenceParser:
    """parse against the recursive-descent reader it replaced (tests/reference_parser.py)."""

    @settings(max_examples=400, deadline=None)
    @given(st.lists(_SOURCES | _TOKENS, max_size=4), st.integers(0, exprkit.MAX_DEPTH - 30))
    def test_same_node_or_same_error(self, pieces, wraps):
        """The same interned node, or the same error type, message and offset,
        for strings nested at most about MAX_DEPTH deep."""
        src = "(" * wraps + "".join(pieces) + ")" * wraps
        new, old = _outcome(parse, src), _outcome(reference_parser.parse, src)
        assert new is old if isinstance(new, Expr) else new == old

    @pytest.mark.parametrize("path", _DOCUMENTS, ids=lambda p: f"{p.parent.parent.name}/{p.name}")
    def test_stored_documents_read_alike(self, path):
        doc = json.loads(path.read_text())
        sources = [src for key in ("metric", "vectors", "forms", "structures", "frame")
                   for src in _strings(doc.get(key))]
        assert sources and all(parse(src) is reference_parser.parse(src) for src in sources)


_names = st.sampled_from([X, Y, symbol("theta")])
_leaves = st.one_of(
    st.integers(min_value=-9, max_value=9).map(number),
    st.fractions(min_value=-3, max_value=3, max_denominator=7).map(number),
    _names,
)


def _build(op, a, b):
    try:
        return {"+": a + b, "-": a - b, "*": a * b} [op] if op in "+-*" else (
            a / b if op == "/" else a ** b if op == "^" else -a if op == "neg"
            else function(op, a))
    except ExprError:       # 1/0, a constant beyond the bits, a tree too deep
        return None


_OPS = st.sampled_from(["+", "-", "*", "/", "^", "neg", *exprkit.FUNCTIONS])
_trees = st.recursive(
    _leaves,
    lambda s: st.tuples(_OPS, s, s).map(lambda t: _build(*t)).filter(lambda e: e is not None),
    max_leaves=10)


class TestRoundTrip:
    @settings(max_examples=200, deadline=None)
    @given(_trees)
    def test_print_parse_round_trip(self, e):
        """parse(to_source(t)) is t itself, the same interned node."""
        assert parse(to_source(e)) is e

    @settings(max_examples=60, deadline=None)
    @given(_trees, st.floats(0.5, 1.5), st.floats(0.5, 1.5), st.floats(0.5, 1.5))
    @example(parse("exp(log(-x))"), 1.0, 1.0, 1.0)
    def test_value_matches_lambdify_of_the_text(self, e, x, y, theta):
        """The generated code's value equals sympy's lambdify of the same text,
        read without sympy's rewrites (sympify folds exp(log(-x)) to -x, while
        the grammar's real log of -1 is NaN); where that value is NaN, so is
        the generated code's."""
        args = {"x": x, "y": y, "theta": theta}
        text = sp.parse_expr(to_source(e).replace("^", "**"), evaluate=False)
        with np.errstate(all="ignore"):
            compiled = compiled_function([e], list(args), {}, exprkit.ARRAY_FUNCTIONS)
            got = compiled(*map(np.float64, args.values()))[0]
            f = sp.lambdify(sp.symbols("x y theta"), text, modules="numpy")
            try:
                want = complex(f(*map(np.float64, args.values())))
            except (ZeroDivisionError, OverflowError):
                want = complex(math.nan)
        if math.isnan(abs(want)):
            assert math.isnan(got)
            return
        assume(math.isfinite(abs(want)) and want.imag == 0 and abs(want.real) < 1e12)
        assert abs(got - want.real) <= 1e-9 * max(1.0, abs(want.real))

    def test_power_printing(self):
        assert "^" in to_source(X ** 3)
        assert "**" not in to_source(X ** 3)

    def test_minimal_parentheses(self):
        for src in ("x - (y - x)", "-(x + y)/x", "x*(-y)", "(-x)^2", "-x^2", "x^(-2)",
                    "x^y^2", "(x^y)^2", "x/(2*y)", "-1/2*x", "x*(1/2)", "-(-x)"):
            assert to_source(parse(src)) == src


class TestCodegen:
    def test_one_assignment_per_shared_node(self):
        """A node two parents use is computed once into a local."""
        s = parse("sin(x + y)")
        source = codegen([s * s + s, parse("x + y")], ["x", "y"], {})
        assert source.count("sin(") == 1 and source.count("x0 + x1") == 1
        assert source.splitlines()[-1].startswith("    return [")

    def test_long_chain_prints_in_linear_memory(self):
        """A 3000-term chain (26 kB of text) once held every prefix of its
        text and peaked at 39 MB."""
        e = parse(" + ".join(f"x/{k}" for k in range(1, 3001)))
        tracemalloc.start()
        try:
            text = to_source(e)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert len(text) > 25000 and parse(text) is e
        assert peak < 2_000_000

    def test_catalog_code_has_float_constants_and_int_exponents(self, entry):
        """Over the generated code of each catalog entry's spray, metric,
        vectors and forms, every number that + - * / take is a float and
        every exponent of ** an int, so float operations stay float-specialised."""
        M = entry.manifold
        arrays = [geodesic._acceleration(M), list(M.metric.flat)] + [
            list(T.components.flat) for T in (*entry.vectors.values(), *entry.forms.values())]
        constants = 0
        for roots in arrays:
            source = codegen(roots, sorted(exprkit.names(roots) - set(M.params)), M.params)
            assert _mistyped_numbers(source) == []
            constants += source.count(".0")
        assert constants > 0

    def test_number_checker_flags_ints_and_float_exponents(self):
        assert _mistyped_numbers("def f(x0):\n    return [2*x0 - x0/(-3) + 0.5*x0**2.0"
                                 " + x0**(-2) + 1.0]\n") == ["2", "-3", "2.0"]

    def test_parameters_are_literals(self):
        """A parameter is written as its float literal, not an argument; a
        signed one binds as a negation, so that (-2.0)**3 keeps its
        parentheses, and its square and its negation drop its sign."""
        roots = [parse(src) for src in ("a^2", "-a", "x*a", "a*x", "x^a", "b - a", "exp(a)",
                                        "a^3")]
        source = codegen(roots, ["x"], {"a": -2, "b": 0.5})
        assert source.splitlines()[0] == "def f(x0):"
        assert source.splitlines()[1] == ("    return [2.0*2.0, 2.0, x0*(-2.0), -2.0*x0, "
                                          "pow(x0, -2.0), 0.5 - (-2.0), exp(-2.0), (-2.0)**3]")
        f = compiled_function(roots, ["x"], {"a": -2, "b": 0.5}, exprkit.FLOAT_FUNCTIONS)
        assert f(3.0) == [4.0, 2.0, -6.0, -6.0, 3.0 ** -2.0, 2.5, math.exp(-2.0), -8.0]

    def test_constants_and_integer_powers(self):
        f = compiled_function([parse("x^2/3 - 1/2"), number(-2), parse("2^x")], ["x"], {},
                              exprkit.ARRAY_FUNCTIONS)
        assert f(3.0) == [3.0 - 0.5, -2.0, 8.0]


def _mistyped_numbers(source: str) -> list[str]:
    """The numeric literals of the source (with their sign) that are an int
    operand of + - * / or a float exponent of **."""
    def number(node):
        signed = isinstance(node, ast.UnaryOp) and isinstance(node.op, ast.USub)
        inner = node.operand if signed else node
        if isinstance(inner, ast.Constant) and type(inner.value) in (int, float):
            return -inner.value if signed else inner.value
        return None

    bad = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.BinOp):
            for side, operand in (("left", node.left), ("right", node.right)):
                value = number(operand)
                exponent = isinstance(node.op, ast.Pow) and side == "right"
                if value is not None and type(value) is not (int if exponent else float):
                    bad.append(repr(value))
    return bad


def _derivative_mismatch(e, point) -> float:
    """|d e/dx - sympy.diff| at the point, relative to max(1, |sympy.diff|),
    both evaluated with numpy; NaN where sympy's value is not a finite real
    number (there the tree's derivative may also be refused, as for 0^x,
    whose derivative holds log(0))."""
    names = sp.symbols("x y theta")
    with np.errstate(all="ignore"):
        diff = sp.diff(to_sympy(e), names[0])
        if diff.has(sp.zoo):        # 1/0^x: lambdify cannot print complex infinity
            return math.nan
        f = sp.lambdify(names, diff, modules="numpy")
        try:
            want = complex(f(*map(np.float64, point)))
        except (ZeroDivisionError, OverflowError):
            return math.nan
        if not (math.isfinite(abs(want)) and want.imag == 0 and abs(want.real) < 1e8):
            return math.nan
        compiled = compiled_function([derivative(e, "x")], ["x", "y", "theta"], {},
                                     exprkit.ARRAY_FUNCTIONS)
        got = float(compiled(*map(np.float64, point))[0])
    return abs(got - want.real) / max(1.0, abs(want.real))


class TestDerivative:
    @settings(max_examples=100, deadline=None)
    @given(_trees, st.floats(0.5, 1.5), st.floats(0.5, 1.5), st.floats(0.5, 1.5))
    @example(number(1) / number(0) ** X, 1.0, 1.0, 1.0)
    def test_matches_sympy_diff(self, e, x, y, theta):
        """d/dx on the tree, compiled, equals sympy.diff of the same tree."""
        mismatch = _derivative_mismatch(e, (x, y, theta))
        assume(not math.isnan(mismatch))
        assert mismatch <= 1e-8

    # one tree per rule, the chain rule through each function among them
    RULES = ["x + y*x", "x - 3*x^2", "sin(x)*x/(y + x)", "x^y", "2^x", "(x*y)^(5/2)",
             "-tan(x^2)", "exp(cos(x))*log(x*y)", "sqrt(x + theta)", "cos(x*y)",
             "cos(sin(x))"]

    @pytest.mark.parametrize("src", RULES)
    def test_each_rule(self, src):
        assert _derivative_mismatch(parse(src), (0.7, 1.3, 0.9)) <= 1e-12

    def test_planted_chain_rule_error_fails(self, monkeypatch):
        """With d cos(a) = +sin(a) da, the comparison must fail."""
        monkeypatch.setitem(exprkit._DERIVATIVES, "cos",
                            lambda e, a, da: exprkit.mul(da, function("sin", a)))
        assert any(_derivative_mismatch(parse(src), (0.7, 1.3, 0.9)) > 1e-8
                   for src in self.RULES)

    def test_free_subtrees_fold_to_zero(self):
        assert derivative(parse("sin(y)^2*exp(theta) + 3"), "x") is number(0)
        assert derivative(parse("x*sin(y)"), "x") is parse("sin(y)")
        assert derivative(parse("x^3"), "x") is parse("3*x^2")
        assert derivative(parse("exp(-x)"), "x") is parse("-exp(-x)")

    def test_long_sum_without_recursion(self):
        """A sum of 2000 terms is a chain of 2000 nodes, differentiated
        without recursion, term by term."""
        src = " + ".join(f"{k}*x^{k}" for k in range(2, 2000))
        want = number(0)
        for k in range(2, 2000):
            want = want + k * (k * X ** (k - 1))
        assert derivative(parse(src), "x") is want


_BINARY = {"+": operator.add, "-": operator.sub, "*": operator.mul, "/": operator.truediv}


def _column(op, columns) -> list:
    """op applied to the entries of the columns at each point, None where an
    entry is None or op raises ArithmeticError or ValueError."""
    try:
        return list(map(op, *columns))
    except (ArithmeticError, ValueError, TypeError):    # TypeError: a None entry
        out = []
        for args in zip(*columns):
            try:
                out.append(None if any(a is None for a in args) else op(*args))
            except (ArithmeticError, ValueError):
                out.append(None)
        return out


def literal(e, envs, functions, square) -> list:
    """e's value at each env by each tree operation applied literally: a
    constant as a float, a name's value from the env, -a, a + b, a - b, a*b
    and a/b as they are written, square(a) for a^2, a**k for another integer
    k, pow(a, b) (the functions' own, or Python's) for any other power, and
    each function from functions; None at an env where an operation raised.
    Each node is evaluated once, over all the envs."""
    done = {}
    for node in exprkit.postorder([e]):
        if node.op in ("num", "name"):
            done[node] = ([float(node.value)] * len(envs) if node.op == "num"
                          else [env[node.value] for env in envs])
            continue
        kids = node.kids
        if node.op == "neg":
            op = operator.neg
        elif node.op in _BINARY:
            op = _BINARY[node.op]
        elif node.op in exprkit.FUNCTIONS:
            op = functions[node.op]
        elif kids[1] == 2:
            op, kids = square, kids[:1]
        elif kids[1].op == "num" and kids[1].value.denominator == 1:
            op, kids = functools.partial(lambda k, a: a ** k, int(kids[1].value)), kids[:1]
        else:
            op = functions.get("pow", pow)
        done[node] = _column(op, [done[k] for k in kids])
    return done[e]


_inputs = st.one_of(st.integers(-3, 3).map(float), st.sampled_from([-0.0, 0.5, -0.5]),
                    st.floats(-3.0, 3.0))
_small_trees = st.recursive(
    _leaves,
    lambda s: st.tuples(_OPS, s, s).map(lambda t: _build(*t)).filter(lambda e: e is not None),
    max_leaves=4)


def _rewritten_trees(levels):
    """Every tree of x, y and theta with up to `levels` nested operations
    that the printer rewrites: -a, a^2, a/4, a/(-1/2), a + b, a - b, a*b
    and a/b."""
    trees = {X, Y, symbol("theta")}
    for _ in range(levels):
        level = list(trees)
        trees |= {f(a) for a in level for f in (lambda a: -a, lambda a: a ** 2, lambda a: a / 4,
                                                lambda a: a / Fraction(-1, 2))}
        trees |= {_build(op, a, b) for op in "+-*/" for a in level for b in level} - {None}
    return trees


# every (x, y) of these, where a sum of opposite values gives a zero whose sign shows
_GRID = [(x, y) for x in (-1.0, -0.0, 0.0, 1.0, 2.0) for y in (-1.0, -0.0, 0.0, 1.0, 2.0)]


def _float_mismatch(e, points, theta):
    """None when, at each (x, y) of the points, the float code of e (theta
    written as its literal) and e applied literally with x*x for a square
    give the same float.hex (so that -0.0 differs from 0.0) or both raise,
    else the first point's two outcomes."""
    def outcome(f):
        try:
            return f().hex()
        except (ArithmeticError, ValueError):
            return "raises"
    code = compiled_function([e], ["x", "y"], {"theta": theta}, exprkit.FLOAT_FUNCTIONS)
    wants = literal(e, [{"x": x, "y": y, "theta": theta} for x, y in points],
                    exprkit.FLOAT_FUNCTIONS, lambda a: a * a)
    for (x, y), want in zip(points, wants):
        got = outcome(lambda: code(x, y)[0])
        want = "raises" if want is None else want.hex()
        if got != want:
            return (x, y), got, want
    return None


class TestExactRewrites:
    """The printer's rewrites (squares as products, divisions by +-2^k as
    products, negations carried as signs) are exact: generated code gives
    the bits of each tree operation applied literally."""

    @settings(max_examples=300, deadline=None)
    @given(st.one_of(_small_trees, _trees), _inputs, _inputs, _inputs)
    @example(parse("-x - y"), 1.0, -1.0, 0.0)
    @example(parse("-x + -y"), -0.0, 0.0, 0.0)
    @example(parse("-(x*-theta)/(y/4)"), 0.0, -3.0, -0.0)
    def test_float_code_is_literal(self, e, x, y, theta):
        """At the drawn point and at every point of the grid."""
        assert _float_mismatch(e, [(x, y), *_GRID], theta) is None

    @pytest.mark.parametrize("theta", [-1.0, -0.0])
    def test_every_small_tree_is_literal(self, theta):
        """Each tree of up to two nested rewritten operations, with theta a
        signed literal, at every point of the grid."""
        trees = _rewritten_trees(2)
        assert len(trees) > 5000
        assert [e for e in trees if _float_mismatch(e, _GRID, theta) is not None] == []

    def test_planted_non_identity_fails(self, monkeypatch):
        """(-a) - b written as -(a + b) flips the sign of a zero at a = -b:
        at a = 1.0, b = -1.0 the tree's value is 0.0, the planted one -0.0."""
        plain = exprkit._code

        def planted(node, kids, names, store):
            (ta, la, sa), (tb, lb, sb) = kids if len(kids) == 2 else ((None,) * 3,) * 2
            if node.op == "-" and sa and not sb:
                return exprkit._binary((ta, la), "+", (tb, lb), 1) + (True,)
            return plain(node, kids, names, store)
        e = parse("-x - y")
        assert _float_mismatch(e, [(1.0, -1.0)], 0.0) is None
        monkeypatch.setattr(exprkit, "_code", planted)
        assert _float_mismatch(e, [(1.0, -1.0)], 0.0) == ((1.0, -1.0), "-0x0.0p+0", "0x0.0p+0")

    def test_catalog_sprays_are_literal(self, entry):
        """Each catalog entry's compiled spray at seeded positions and
        velocities, bit for bit."""
        M = entry.manifold
        spray, roots = geodesic.spray(M), geodesic._acceleration(M)
        velocities = np.random.default_rng(2).normal(size=(5, M.dim)).tolist()
        for p, v in zip(sample_points(M.chart, 5, seed=2), velocities):
            env = {**M.params, **p, **{f"{c}'": w for c, w in zip(M.chart.coords, v)}}
            want = [literal(r, [env], exprkit.FLOAT_FUNCTIONS, lambda a: a * a)[0] for r in roots]
            got = spray(*(p[c] for c in M.chart.coords), *v)
            assert [x.hex() for x in got] == [float(x).hex() for x in want]

    def test_array_code_is_literal(self, entry):
        """Manifold.evaluate equals (==) each tree operation applied
        literally to arrays and Jets, a square by ** as the code was once
        printed: the values and the 1- and 2-jets of the metric and of each
        vector and form of every catalog entry, and the curvature on them.
        (A zero partial of a product's jet may change its sign.)"""
        M = entry.manifold
        reference = Manifold(M.chart, M.metric, M.params, M.signature)

        def compiled(components):
            roots = [exprkit.tree(c) for c in np.asarray(components, dtype=object).flat]
            return lambda *xs: [literal(r, [{**M.params, **dict(zip(M.chart.coords, xs))}],
                                        exprkit.ARRAY_FUNCTIONS, lambda a: a ** 2)[0] for r in roots]
        reference.compiled = compiled
        pts = sample_points(M.chart, 7, seed=3)
        for T in (TensorField(M.metric, "dd"), *entry.vectors.values(), *entry.forms.values()):
            for order in (0, 1, 2):
                assert np.array_equal(M.evaluate(T.components, pts, order),
                                      reference.evaluate(T.components, pts, order))
        assert np.array_equal(M.riemann(pts), reference.riemann(pts), equal_nan=True)


def _exact_values(trees, point: dict) -> dict:
    """Each node of the trees at the point (names to floats), every tree
    operation applied exactly: (q, sign), q the exact Fraction and sign that
    of the float IEEE 754 gives, the sign of a zero included (a sum of
    zeros is -0.0 only when both are, a product's or quotient's sign is
    that of its operands' product); None for a division by zero and any
    node above one.  Only -a, +, -, *, / and a^2 are taken."""
    done: dict = {}
    for node in exprkit.postorder(list(trees)):
        kids = [done[k] for k in node.kids]
        if None in kids or node.op == "/" and kids[1][0] == 0:
            done[node] = None
        elif node.op in ("num", "name"):
            v = point[node.value] if node.op == "name" else node.value
            done[node] = Fraction(v), math.copysign(1.0, v)
        elif node.op == "neg":
            done[node] = -kids[0][0], -kids[0][1]
        elif node.op in "+-":
            (qa, sa), (qb, sb) = kids
            if node.op == "-":
                qb, sb = -qb, -sb
            q = qa + qb
            both = qa == qb == 0 and sa == sb
            done[node] = q, math.copysign(1.0, q) if q else sa if both else 1.0
        else:
            assert node.op in "*/" or node.kids[1] == 2, node.op
            (qa, sa), (qb, sb) = kids if node.op != "^" else [kids[0]] * 2
            done[node] = qa * qb if node.op != "/" else qa / qb, sa * sb
    return done


def _two_operation_trees() -> set:
    """Every tree of at most two nested operations -a, a^2, a + b, a - b,
    a*b and a/b over the leaves x, y and -2: each pair of leaves, a name
    repeated (x*x, (x - y)*x) and the literal's sign folding included."""
    trees = {X, Y, number(-2)}
    for _ in range(2):
        level = list(trees)
        trees |= {f(a) for a in level for f in (lambda a: -a, lambda a: a ** 2)}
        trees |= {_build(op, a, b) for op in "+-*/" for a in level for b in level} - {None}
    return trees


# dyadic points, so each operation of a leaf on a leaf is exact in binary
# floating point and a tree's float is its exact value rounded once
_DYADIC = [(x, y) for x in (-1.0, -0.0, 0.0, 0.5, 1.0, 2.0) for y in (-1.0, -0.0, 0.0, 1.0, 2.0)]


def _exact_mismatches(trees) -> list:
    """(tree, point, generated code's float, exact value) for each tree
    whose float code differs from its exact value, rounded once, at a
    dyadic point: by float.hex, so -0.0 is not 0.0, or raising on one side."""
    code = {e: compiled_function([e], ["x", "y"], {}, exprkit.FLOAT_FUNCTIONS) for e in trees}
    out = []
    for point in _DYADIC:
        exact = _exact_values(trees, dict(zip("xy", point)))
        for e in trees:
            want = "raises" if exact[e] is None else math.copysign(
                float(exact[e][0]), exact[e][1]).hex()
            try:
                got = code[e](*point)[0].hex()
            except ZeroDivisionError:
                got = "raises"
            if got != want:
                out.append((to_source(e), point, got, want))
    return out


class TestExactValues:
    """Generated float code against each tree's exact value, over every tree
    of two nested operations; a hypothesis draw of exprkit trees is mostly
    a leaf and misses printer faults this enumeration finds."""

    def test_every_two_operation_tree_is_exact(self):
        trees = _two_operation_trees()
        assert len(trees) > 5000
        assert _exact_mismatches(trees) == []


class TestFloatFunctions:
    def test_powers_that_are_not_integers_use_pow(self):
        source = codegen([parse("x^(1/2) + x^y + x^2 + x^-3")], ["x", "y"], {})
        assert source.count("pow(") == 2 and "x0*x0" in source and "x0**(-3)" in source

    def test_domain_errors_raise(self):
        f = compiled_function([parse("x^(3/2)"), parse("log(x)"), parse("sqrt(x)")], ["x"], {},
                              exprkit.FLOAT_FUNCTIONS)
        assert f(4.0) == [8.0, math.log(4.0), 2.0]
        for bad in ([parse("x^(3/2)")], [parse("log(x)")], [parse("sqrt(x)")]):
            with pytest.raises(ValueError):
                compiled_function(bad, ["x"], {}, exprkit.FLOAT_FUNCTIONS)(-1.0)

    def test_constant_roots_are_floats(self):
        out = compiled_function([number(0), number(-2), parse("x")], ["x"], {},
                                exprkit.FLOAT_FUNCTIONS)(3.0)
        assert out == [0.0, -2.0, 3.0] and [type(v) for v in out] == [float] * 3


class TestSympyConstants:
    @pytest.mark.parametrize("constant", [sp.pi, sp.E, sp.I], ids=str)
    def test_constant_outside_the_grammar_is_named(self, constant):
        """A sympy constant once became a free name ('unbound name(s) pi')."""
        with pytest.raises(ExprError, match=f"^constant\\(s\\) {constant} outside"):
            tree(constant * sp.Symbol("x2"))

    def test_grammar_numbers_are_read(self):
        x = sp.Symbol("x")
        assert tree(sp.Rational(1, 3) * x + sp.Float(0.5)) is parse("x/3 + 0.5")


class TestCalculus:
    def test_simplify_pythagorean(self):
        assert simplify(parse("sin(x)^2 + cos(x)^2")) == 1

    def test_simplify_rational_normal_form(self):
        assert simplify(parse("(x^2-1)/(x-1)")) == sp.Symbol("x") + 1


class TestEvaluate:
    """The sympy oracle test_manifold.py checks Manifold.evaluate against."""

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

"""Expression layer: an interned tree of its own, parsed, printed,
differentiated and compiled.

An expression is an immutable, interned (hash-consed) tree: equal expressions
are the same object, so a shared subexpression is one node.  The leaves are
exact Fraction constants and names (coordinates and parameters); the
operations are + - * / ^, unary minus and sin, cos, tan, exp, log and sqrt.
The constructors fold only exact constants, a - a and the identities with 0
and 1.  Floats never enter a tree; generated code writes a parameter as a
float literal and runs on numpy arrays and Jets (ARRAY_FUNCTIONS) or on
Python floats (FLOAT_FUNCTIONS, where a domain error raises).  derivative()
differentiates a tree by a name into a tree, so the geodesic spray is derived
here.  to_source() prints a tree in the grammar as it is; generated code
(statements()) computes the same floats with fewer operations, by rewrites
that IEEE 754 makes exact (a square as a product, a division by +-2^k as a
product, a negation carried to its parent as a sign), described at the
printer.  parse() refuses a tree deeper than MAX_DEPTH, but a derived tree may
be deeper, and statements() writes a node nested more than MAX_INLINE deep
into a local.  Sympy is imported only by to_sympy and the helpers built on it
(simplify and identically_equal), for the symbolic constructions and the
tests, and by tree() when it is given a sympy expression.
"""

from __future__ import annotations

import math
import operator
import re
import weakref
from collections import Counter
from fractions import Fraction
from typing import Mapping

import numpy as np

from . import InputError

Point = Mapping[str, float]

FUNCTIONS = ("sin", "cos", "tan", "exp", "log", "sqrt")

# the depth of a parsed tree (a chain of + and - or of * and / counting as one
# level, as in sympy's n-ary sums and products; a derived tree may be deeper)
# and the bits of each constant, which compiled code converts to a float
MAX_DEPTH, MAX_BITS = 100, 1023

# the deepest expression generated code writes inline: a node nested deeper is
# computed into a local, so that Python compiles a chain of thousands of terms
# without recursing through it, and its text grows linearly
MAX_INLINE = 50


class ExprError(InputError):
    pass


class ParseError(ExprError):
    """Syntax error, carrying the byte offset of the offending token."""

    def __init__(self, message: str, offset: int):
        super().__init__(f"{message} (at offset {offset})")
        self.offset = offset


class UnknownFunctionError(ParseError):
    pass


class EvalDomainError(ExprError):
    """An expression leaves the real domain (log of non-positive, 1/0, ...)."""


# ---------------------------------------------------------------------------
# the tree

class Expr:
    """One interned node: op is "num" or "name" for a leaf holding value (a
    Fraction or a str), else an operator or a function's name over kids."""

    __slots__ = ("op", "kids", "value", "depth", "__weakref__")

    def __eq__(self, other):
        if isinstance(other, (int, Fraction)):
            return self.op == "num" and self.value == other
        return self is other if isinstance(other, Expr) else NotImplemented

    __hash__ = object.__hash__

    def __repr__(self):
        return to_source(self)


# every live node under its (op, value, *kids); a node no one holds is dropped
_TABLE = weakref.WeakValueDictionary()
_LEVEL = {"+": 1, "-": 1, "*": 2, "/": 2, "^": 4}
_SIGN = 3       # a unary sign's level: looser than a power, tighter than a product


def _intern(op: str, kids: tuple = (), value=None) -> Expr:
    key = (op, value, *kids)
    node = _TABLE.get(key)
    if node is None:
        level = _LEVEL.get(op, 0)
        depth = 1 + max((k.depth - (i == 0 and level in (1, 2) and _LEVEL.get(k.op) == level)
                         for i, k in enumerate(kids)), default=0)
        node = object.__new__(Expr)
        node.op, node.kids, node.value, node.depth = op, kids, value, depth
        _TABLE[key] = node
    return node


def number(value) -> Expr:
    """The exact constant value (an int or a Fraction)."""
    value = Fraction(value)
    if max(abs(value.numerator), value.denominator).bit_length() > MAX_BITS:
        raise ParseError(f"constant of more than {MAX_BITS} bits", 0)
    return _intern("num", value=value)


def symbol(name: str) -> Expr:
    return _intern("name", value=name)


ZERO, ONE = number(0), number(1)


def _operators(build):
    """Python's operator and its reflection for a binary constructor; an
    operand that is not a tree, an int or a Fraction is NotImplemented."""
    def apply(a, b):
        if not all(isinstance(x, (Expr, int, Fraction)) for x in (a, b)):
            return NotImplemented
        return build(tree(a), tree(b))
    return apply, lambda a, b: apply(b, a)


def _constants(*nodes) -> bool:
    return all(n.op == "num" for n in nodes)


def add(a: Expr, b: Expr) -> Expr:
    if _constants(a, b):
        return number(a.value + b.value)
    return b if a is ZERO else a if b is ZERO else _intern("+", (a, b))


def sub(a: Expr, b: Expr) -> Expr:
    if a is b:      # so that 1/(x - x) is refused as 1/0
        return ZERO
    if _constants(a, b):
        return number(a.value - b.value)
    return neg(b) if a is ZERO else a if b is ZERO else _intern("-", (a, b))


def mul(a: Expr, b: Expr) -> Expr:
    if _constants(a, b):
        return number(a.value * b.value)
    if ZERO in (a, b):
        return ZERO
    return b if a is ONE else a if b is ONE else _intern("*", (a, b))


def div(a: Expr, b: Expr) -> Expr:
    if b is ZERO:
        raise EvalDomainError("division by zero")
    if _constants(a, b):
        return number(a.value / b.value)
    return a if b is ONE or a is ZERO else _intern("/", (a, b))


def power(a: Expr, b: Expr) -> Expr:
    if b is ZERO or a is ONE:
        return ONE
    if b is ONE:
        return a
    if _constants(a, b) and a.value < 0 and b.value.denominator > 1:
        raise EvalDomainError(f"({a.value})^({b.value}) is not a real number")
    if _constants(a, b) and b.value.denominator == 1:
        base, exponent = a.value, b.value.numerator
        if base == 0 and exponent < 0:
            raise EvalDomainError("0 to a negative power")
        # refuse 9^9^7 before its digits are computed
        if abs(exponent) * (max(abs(base.numerator), base.denominator).bit_length() - 1) > MAX_BITS:
            raise ParseError(f"constant of more than {MAX_BITS} bits", 0)
        return number(base ** exponent)
    return _intern("^", (a, b))


def neg(a: Expr) -> Expr:
    return number(-a.value) if a.op == "num" else _intern("neg", (a,))


_EXACT = {("sin", 0): 0, ("tan", 0): 0, ("cos", 0): 1, ("exp", 0): 1, ("log", 1): 0}


def function(name: str, a: Expr) -> Expr:
    """name(a) for one of FUNCTIONS; folded where the value is an exact constant
    (sin 0, cos 0, tan 0, exp 0, log 1, the root of a rational square)."""
    if a.op == "num":
        v = a.value
        if (name == "log" and v <= 0) or (name == "sqrt" and v < 0):
            raise EvalDomainError(f"{name} of {v} is not a finite real number")
        if (name, v) in _EXACT:
            return number(_EXACT[name, v])
        if name == "sqrt":
            root = Fraction(math.isqrt(v.numerator), math.isqrt(v.denominator))
            if root ** 2 == v:
                return number(root)
    return _intern(name, (a,))


Expr.__add__, Expr.__radd__ = _operators(add)
Expr.__sub__, Expr.__rsub__ = _operators(sub)
Expr.__mul__, Expr.__rmul__ = _operators(mul)
Expr.__truediv__, Expr.__rtruediv__ = _operators(div)
Expr.__pow__, Expr.__neg__ = _operators(power)[0], neg


def tree(x) -> Expr:
    """x as a tree: a tree as it is, an int or a Fraction as a constant, and
    anything else (grammar text, or a sympy expression) parsed from its
    printed text.  A sympy expression holding a constant outside the grammar
    (pi, E, I, oo, ...) is an ExprError naming it, not a free name."""
    if isinstance(x, Expr):
        return x
    if isinstance(x, (int, Fraction)):
        return number(x)
    if type(x).__module__.startswith("sympy."):
        outside = sorted(str(a) for a in x.atoms()
                         if not (a.is_Symbol or a.is_Rational or a.is_Float))
        if outside:
            raise ExprError(f"constant(s) {', '.join(outside)} outside the grammar")
    return parse(str(x).replace("**", "^"))


def postorder(roots) -> list[Expr]:
    """Each node reachable from roots once, every node after its kids."""
    seen, order, stack = set(), [], [(r, False) for r in reversed(roots)]
    while stack:
        node, done = stack.pop()
        if done:
            order.append(node)
        elif node not in seen:
            seen.add(node)
            stack.append((node, True))
            stack.extend((k, False) for k in reversed(node.kids))
    return order


def names(roots) -> set[str]:
    """The names the trees contain."""
    return {n.value for n in postorder(roots) if n.op == "name"}


# ---------------------------------------------------------------------------
# differentiation
#
# d(node) from the node e, its kids a (and b) and their derivatives da (and
# db).  The derivative of the inner function comes first in a product, so
# that the chain rule through nested functions grows a left-leaning chain of
# products, one level deep, rather than the tree's depth.

def _times(da: Expr, f: Expr) -> Expr:
    """da * f, with -f for da = -1."""
    return neg(f) if da.op == "num" and da.value == -1 else mul(da, f)


_DERIVATIVES = {
    "+": lambda e, a, b, da, db: add(da, db),
    "-": lambda e, a, b, da, db: sub(da, db),
    "*": lambda e, a, b, da, db: add(_times(da, b), mul(a, db)),
    "/": lambda e, a, b, da, db: div(sub(da, _times(db, e)), b),
    "^": lambda e, a, b, da, db: (
        mul(_times(da, b), power(a, number(b.value - 1))) if b.op == "num"
        else mul(add(_times(db, function("log", a)), div(_times(da, b), a)), e)),
    "neg": lambda e, a, da: neg(da),
    "sin": lambda e, a, da: _times(da, function("cos", a)),
    "cos": lambda e, a, da: neg(_times(da, function("sin", a))),
    "tan": lambda e, a, da: _times(da, add(ONE, power(e, number(2)))),
    "exp": lambda e, a, da: _times(da, e),
    "log": lambda e, a, da: div(da, a),
    "sqrt": lambda e, a, da: div(da, mul(number(2), e)),
}


def derivative(e: Expr, name: str) -> Expr:
    """The partial derivative of e by the name, as a tree: each node's
    derivative is formed once, after its kids', by the sum, product,
    quotient, power and chain rules.  The constructors fold zeros, so a
    subtree free of the name differentiates to ZERO and drops its terms."""
    done: dict = {}
    for node in postorder([e]):
        if node.op in ("num", "name"):
            done[node] = ONE if node.op == "name" and node.value == name else ZERO
        elif all(done[k] is ZERO for k in node.kids):
            done[node] = ZERO
        else:
            done[node] = _DERIVATIVES[node.op](node, *node.kids, *(done[k] for k in node.kids))
    return done[e]


# ---------------------------------------------------------------------------
# parsing

# a token after any whitespace, of the kind of the group that matched: "bad"
# for a character that starts no token
_TOKEN = re.compile(r"\s*(?:(?P<num>\d+\.?\d*|\.\d+)|(?P<name>[^\W\d]\w*)"
                    r"|(?P<op>[-+*/^(),])|(?P<end>\Z)|(?P<bad>.))", re.S)
_BUILD = {"+": add, "-": sub, "*": mul, "/": div, "^": power}


def parse(src: str) -> Expr:
    """Parse infix source into a tree, by precedence climbing over _LEVEL:
    + - * / left-associative, ^ right-associative with a signed exponent, and
    a unary sign binding at _SIGN, so -x^2 is -(x^2) and -x*y is (-x)*y.  A
    tree deeper than MAX_DEPTH, or with a constant of more than MAX_BITS
    bits, is a ParseError; 1/0, 0^-1, log of a non-positive constant and the
    root of a negative one are EvalDomainErrors."""
    tokens = []     # (kind, text, offset), the last ("end", "", len(src))
    for m in _TOKEN.finditer(src):
        kind = m.lastgroup
        if kind == "bad":
            raise ParseError(f"unexpected character {m[kind]!r}", m.start(kind))
        tokens.append((kind, m[kind], m.start(kind)))
        if kind == "end":
            break
    pos = 0

    def take(text=None):
        nonlocal pos
        kind, tok, off = tokens[pos]
        if text is not None and tok != text:
            raise ParseError(f"expected {text!r}, found {tok!r}", off)
        pos += 1
        return kind, tok, off

    def climb(least: int) -> Expr:
        """An operand, then each operator binding at least as tightly as least
        with the operand after it."""
        kind, tok, off = take()
        if tok in ("-", "+"):
            e = neg(climb(_SIGN)) if tok == "-" else climb(_SIGN)
        elif tok == "(":
            e = climb(1)
            take(")")
        elif kind == "name" and tokens[pos][1] == "(":
            if tok not in FUNCTIONS:
                raise UnknownFunctionError(f"unknown function {tok!r}", off)
            take()
            arg = climb(1)
            take(")")       # before function() folds: log(0 is a missing ), not log of 0
            e = function(tok, arg)
        elif kind in ("num", "name"):
            e = number(Fraction(tok)) if kind == "num" else symbol(tok)
        else:
            raise ParseError(f"unexpected token {tok!r}", off)
        while _LEVEL.get(tokens[pos][1], 0) >= least:
            op = take()[1]
            e = _BUILD[op](e, climb(_LEVEL[op] + (op != "^")))
        return e

    try:
        e = climb(1)
        kind, tok, off = tokens[pos]
        if kind != "end":
            raise ParseError(f"unexpected trailing input {tok!r}", off)
        if e.depth <= MAX_DEPTH:
            return e
    except RecursionError:
        pass
    raise ParseError(f"expression nested more than {MAX_DEPTH} deep", 0)


# ---------------------------------------------------------------------------
# printing and compiling
#
# Each node's text comes with its binding level (1 sums, 2 products and
# quotients, _SIGN = 3 unary minus and signed literals, 4 powers, 5 atoms),
# and an operand is parenthesized when it binds looser than its place allows,
# or when it starts with a sign and is not leftmost.  The grammar prints every node as
# it is (to_source).  Python code (statements) computes each node's float with
# fewer operations, by rewrites that IEEE 754 makes exact, signed zeros
# included, so that it gives the bits of the tree's operations applied
# literally, with x*x for a square:
#   - a square e^2 is t*t of e's local t (pow may differ from x*x in the last bit);
#   - a division by a constant +-2^k is a product with its reciprocal;
#   - a negation is not written but carried to the parent as a sign, through
#     a + (-b) = a - b, (-a) + b = b - a, a - (-b) = a + b, (-a) - (-b) = b - a,
#     (-a)*b = a*(-b) = -(a*b), (-a)/b = a/(-b) = -(a/b), (-a)^2 = a*a and
#     -(-a) = a; it is written where it reaches a root, a function, another
#     power, (-a) - b or (-a) + (-b).  Those two stay -a - b: -(a + b) would
#     flip the sign of a zero at a = -b.

# a text that needs no local of its own: a name, a local or an unsigned literal
_ATOM = re.compile(r"[\w.]+(e[-+]\d+)?")


def _binary(a: tuple[str, int], op: str, b: tuple[str, int], level: int) -> tuple[str, int]:
    """The text and level of a op b, from the operands' (text, level): the
    left one parenthesized when it binds looser than level (a power's base
    unless it is an atom), the right one as _operand places it."""
    (ta, la), (tb, lb) = a, b
    ta = ta if la >= (5 if level == 4 else level) else f"({ta})"
    return ta + (f" {op} " if level == 1 else op) + _operand(tb, lb, min(level + 1, 4)), level


def _operand(text: str, level: int, least: int) -> str:
    """An operand that is not leftmost, parenthesized when it binds looser
    than least or starts with a sign."""
    return text if level >= least and text[0] != "-" else f"({text})"


def _print(node: Expr, kids: list[tuple[str, int]]) -> tuple[str, int]:
    """The node's text in the grammar and its binding level, from its kids'."""
    op, v = node.op, node.value
    if op == "num":
        return str(v), 2 if v.denominator > 1 else _SIGN if v < 0 else 5
    if op == "name":
        return v, 5
    if op in FUNCTIONS:
        return f"{op}({kids[0][0]})", 5
    if op == "neg":
        return "-" + _operand(*kids[0], _SIGN), _SIGN
    return _binary(kids[0], op, kids[1], _LEVEL[op])


def _signed(text: str, level: int, negated: bool) -> tuple[str, int]:
    """The Python text and level of a value _code printed: -text when
    negated, written before a product's leftmost factor, as -a*b is
    (-a)*b, which is -(a*b) exactly."""
    if not negated:
        return text, level
    if level >= 2 and text[0] != "-":
        return "-" + text, min(level, _SIGN)
    return f"-({text})", _SIGN


def _reciprocal(c: Fraction) -> str | None:
    """The float literal of 1/|c| when c is +-2^k with 2^k and 2^-k normal
    floats, so that x/c is exactly x*(1/c); else None."""
    p, q = abs(c.numerator), c.denominator
    if min(p, q) == 1 and (p * q) & (p * q - 1) == 0 and (p * q).bit_length() <= 1023:
        return repr(float(Fraction(q, p)))
    return None


def _code(node: Expr, kids: list, names: Mapping[str, str], store) -> tuple[str, int, bool]:
    """The node's Python (text, level, negated), its value -text when
    negated, from its kids' by the rewrites above: a constant as a float, a
    name as names maps it, an integer exponent as an int after **, pow() for
    any other power; store(text) writes a local and returns its name."""
    op, v = node.op, node.value
    if op in ("num", "name"):
        text = repr(float(v)) if op == "num" else names[v]
        return text, _SIGN if text[0] == "-" else 5, False
    if op in FUNCTIONS:
        return f"{op}({_signed(*kids[0])[0]})", 5, False
    if op == "neg":
        (text, level, negated), = kids
        if not node.kids[0].kids and text[0] == "-":      # a signed literal: -(-2.0) = 2.0
            return text[1:], 5, False
        return text, level, not negated
    (ta, la, sa), (tb, lb, sb) = kids
    right = node.kids[1]
    if op == "^" and right == 2:
        if not node.kids[0].kids and ta[0] == "-":
            ta = ta[1:]
        elif not _ATOM.fullmatch(ta):
            ta = store(ta)
        return f"{ta}*{ta}", 2, False
    if op == "^" and right.op == "num" and right.value.denominator == 1:
        return _binary(_signed(ta, la, sa), "**", (str(right.value), lb), 4) + (False,)
    if op == "^":
        return f"pow({_signed(ta, la, sa)[0]}, {_signed(tb, lb, sb)[0]})", 5, False
    if op in ("+", "-"):
        minus = (op == "-") != sb
        if not sa:
            return _binary((ta, la), "-" if minus else "+", (tb, lb), 1) + (False,)
        if not minus:
            return _binary((tb, lb), "-", (ta, la), 1) + (False,)
        return _binary(_signed(ta, la, True), "-", (tb, lb), 1) + (False,)
    if op == "/" and right.op == "num" and (reciprocal := _reciprocal(right.value)):
        return _binary((ta, la), "*", (reciprocal, 5), 2) + (sa != (right.value < 0),)
    return _binary((ta, la), op, (tb, lb), 2) + (sa != sb,)


def to_source(e: Expr) -> str:
    """Print a tree in the grammar accepted by parse(), with the fewest
    parentheses that parse back to the same tree (a signed operand that is
    not leftmost is parenthesized, as sympy prints it), each node's text
    dropped once its last parent has used it, so that memory grows linearly."""
    order, done = postorder([e]), {}
    uses = Counter(k for node in order for k in node.kids)
    for node in order:
        done[node] = _print(node, [done[k] for k in node.kids])
        for k in node.kids:
            uses[k] -= 1
            if not uses[k]:
                del done[k]
    return done[e][0]


def statements(roots, names: Mapping[str, str], local: str) -> tuple[list[str], list[str]]:
    """Python assignments `{local}0 = ...`, ... and the text of each root's
    value, by the rewrites above, every name written as names maps it.  A
    node that two parents, or a parent and a root, use is computed once into
    a local, its sign carried (no local holds only -x), so interning gives
    the common-subexpression elimination; so is a node whose text would nest
    more than MAX_INLINE operations deep, and a square's base that is not an
    atom."""
    order = postorder(roots)
    uses = Counter([k for node in order for k in node.kids] + list(roots))
    lines, done, nesting = [], {}, {}

    def store(text):
        lines.append(f"{local}{len(lines)} = {text}")
        return f"{local}{len(lines) - 1}"

    for node in order:
        text, level, negated = _code(node, [done[k] for k in node.kids], names, store)
        nesting[node] = 1 + max((nesting[k] for k in node.kids), default=-1)
        if node.kids and (uses[node] > 1 or nesting[node] > MAX_INLINE):
            text = text if _ATOM.fullmatch(text) else store(text)
            level, nesting[node] = 5, 0
        done[node] = text, level, negated
    return lines, [_signed(*done[r])[0] for r in roots]


def codegen(roots, arguments, params: Mapping[str, float]) -> str:
    """Source of `def f(x0, x1, ...)` of the names in `arguments`, returning
    the list of the roots' values by their statements, params as literals."""
    variables = {name: f"x{i}" for i, name in enumerate(arguments)}
    literals = {name: repr(float(value)) for name, value in params.items()}
    lines, values = statements(roots, {**literals, **variables}, "t")
    return (f"def f({', '.join(variables.values())}):\n"
            + "".join(f"    {line}\n" for line in [*lines, f"return [{', '.join(values)}]"]))


# What generated code calls: numpy's ufuncs, so that it runs on float arrays
# and on Jets alike, with Python's own pow (the same as **); or math's
# functions and math.pow, for Python floats at one point, so that every value
# is a float and a domain error raises (ValueError for the log or the root of
# a negative number, and for a negative number to a non-integer power, where
# ** would give a complex number).
ARRAY_FUNCTIONS = {name: getattr(np, name) for name in FUNCTIONS}
FLOAT_FUNCTIONS = {**{name: getattr(math, name) for name in FUNCTIONS}, "pow": math.pow}


def run_source(text: str, name: str, functions: Mapping):
    """The function `name` that generated text defines, compiled once, its
    literal subexpressions folded, calling the given functions
    (ARRAY_FUNCTIONS or FLOAT_FUNCTIONS): the one place code runs from text."""
    namespace = dict(functions)
    exec(compile(text, "<generated>", "exec"), namespace)
    return namespace[name]


def compiled_function(roots, arguments, params: Mapping[str, float], functions: Mapping):
    """codegen(roots, arguments, params) run by run_source."""
    return run_source(codegen(roots, arguments, params), "f", functions)


# ---------------------------------------------------------------------------
# sympy: the symbolic derivations, the tests and the tracer

def to_sympy(e):
    """A tree as a sympy expression, built by the operations the text
    denotes; anything else through sympy.sympify."""
    import sympy as sp
    if not isinstance(e, Expr):
        return sp.sympify(e)
    ops = {"+": operator.add, "-": operator.sub, "*": operator.mul, "/": operator.truediv,
           "^": operator.pow, "neg": operator.neg, "num": sp.Rational, "name": sp.Symbol,
           **{f: getattr(sp, f) for f in FUNCTIONS}}
    done: dict = {}
    for node in postorder([e]):
        args = [done[k] for k in node.kids] if node.kids else [node.value]
        done[node] = ops[node.op](*args)
    return done[e]


def identically_equal(a: Expr, b: Expr) -> bool:
    """Whether a = b: the same tree, or else by sympy.simplify of a - b."""
    if a is b:
        return True
    import sympy as sp
    return sp.simplify(to_sympy(a) - to_sympy(b)) == 0


def simplify(e):
    """Bounded rewriting of a tree or a sympy expression, as a sympy
    expression: rational normal form plus the Pythagorean rule.

    Sound but deliberately incomplete; residual checks re-confirm
    equality numerically.
    """
    import sympy as sp
    e = sp.cancel(sp.together(to_sympy(e)))
    if e.has(sp.sin, sp.cos, sp.tan):
        e = sp.trigsimp(e)
    return e

"""Symbolic expression layer: parsing, simplification, evaluation.

Expression trees are sympy expressions restricted to exact rational
constants, named symbols (coordinates and parameters) and the unary
functions sin, cos, tan, exp, log, sqrt.  Floats never enter a tree;
they appear only when an expression is evaluated at a point.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Mapping

import sympy as sp

Expr = sp.Expr
Point = Mapping[str, float]
ParamEnv = Mapping[str, float]

FUNCTIONS = {
    "sin": sp.sin,
    "cos": sp.cos,
    "tan": sp.tan,
    "exp": sp.exp,
    "log": sp.log,
    "sqrt": sp.sqrt,
}


# sympy's printer, and so lambdify and export, recurses once per level of a tree,
# and a compiled expression converts each integer in it to a float
MAX_DEPTH, MAX_BITS = 100, 1023


class ExprError(Exception):
    pass


class ParseError(ExprError):
    """Syntax error, carrying the byte offset of the offending token."""

    def __init__(self, message: str, offset: int):
        super().__init__(f"{message} (at offset {offset})")
        self.offset = offset


class UnknownFunctionError(ParseError):
    pass


class UnboundNameError(ExprError):
    pass


class EvalDomainError(ExprError):
    """Evaluation left the real domain (log of non-positive, 1/0, ...)."""


def sym(name: str) -> sp.Symbol:
    return sp.Symbol(name)


# ---------------------------------------------------------------------------
# parsing

_OPS = set("+-*/^(),")


def _tokenize(src: str):
    tokens = []  # (kind, text, offset)
    i, n = 0, len(src)
    while i < n:
        c = src[i]
        if c.isspace():
            i += 1
            continue
        if c in _OPS:
            tokens.append(("op", c, i))
            i += 1
            continue
        if c.isdigit() or (c == "." and i + 1 < n and src[i + 1].isdigit()):
            j = i
            seen_dot = False
            while j < n and (src[j].isdigit() or (src[j] == "." and not seen_dot)):
                seen_dot = seen_dot or src[j] == "."
                j += 1
            tokens.append(("num", src[i:j], i))
            i = j
            continue
        if c.isalpha() or c == "_":
            j = i
            while j < n and (src[j].isalnum() or src[j] == "_"):
                j += 1
            tokens.append(("name", src[i:j], i))
            i = j
            continue
        raise ParseError(f"unexpected character {c!r}", i)
    tokens.append(("end", "", n))
    return tokens


class _Parser:
    """Recursive descent over the grammar: + - * / ^ (right-assoc), f(x)."""

    def __init__(self, src: str):
        self.src = src
        self.tokens = _tokenize(src)
        self.pos = 0

    def peek(self):
        return self.tokens[self.pos]

    def next(self):
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def expect(self, text: str):
        kind, tok, off = self.next()
        if tok != text:
            raise ParseError(f"expected {text!r}, found {tok!r}", off)

    def parse(self) -> Expr:
        e = self.expr()
        kind, tok, off = self.peek()
        if kind != "end":
            raise ParseError(f"unexpected trailing input {tok!r}", off)
        return e

    def expr(self) -> Expr:
        e = self.term()
        while self.peek()[1] in ("+", "-"):
            op = self.next()[1]
            rhs = self.term()
            e = e + rhs if op == "+" else e - rhs
        return e

    def term(self) -> Expr:
        e = self.factor()
        while self.peek()[1] in ("*", "/"):
            op = self.next()[1]
            rhs = self.factor()
            e = e * rhs if op == "*" else e / rhs
        return e

    def factor(self) -> Expr:
        kind, tok, off = self.peek()
        if tok == "-":
            self.next()
            return -self.factor()
        if tok == "+":
            self.next()
            return self.factor()
        return self.power()

    def power(self) -> Expr:
        base = self.atom()
        if self.peek()[1] == "^":
            off = self.next()[2]
            # right-associative; exponent may carry a unary sign
            exponent = self.factor()
            if (base.is_Rational and exponent.is_Integer and abs(exponent)
                    * (max(abs(base.p), base.q).bit_length() - 1) > MAX_BITS):
                raise ParseError(f"constant of more than {MAX_BITS} bits", off)
            return base ** exponent
        return base

    def atom(self) -> Expr:
        kind, tok, off = self.next()
        if tok == "(":
            e = self.expr()
            self.expect(")")
            return e
        if kind == "num":
            if "." in tok:
                frac = Fraction(tok)
                return sp.Rational(frac.numerator, frac.denominator)
            return sp.Integer(int(tok))
        if kind == "name":
            if self.peek()[1] == "(":
                if tok not in FUNCTIONS:
                    raise UnknownFunctionError(f"unknown function {tok!r}", off)
                self.next()
                arg = self.expr()
                self.expect(")")
                return FUNCTIONS[tok](arg)
            return sp.Symbol(tok)
        raise ParseError(f"unexpected token {tok!r}", off)


def _depth(e: Expr) -> int:
    return 1 + max((_depth(a) for a in e.args), default=0)


def parse(src: str) -> Expr:
    """Parse infix source into an expression tree.  A tree deeper than
    MAX_DEPTH, or with an integer of more than MAX_BITS bits, is a ParseError."""
    try:
        e = _Parser(src).parse()
        deep = _depth(e) > MAX_DEPTH
    except RecursionError:
        deep = True
    if deep or any(max(abs(r.p), r.q).bit_length() > MAX_BITS for r in e.atoms(sp.Rational)):
        raise ParseError(f"expression nested more than {MAX_DEPTH} deep" if deep else
                         f"constant of more than {MAX_BITS} bits", 0)
    return e


def to_source(e: Expr) -> str:
    """Print an expression in the grammar accepted by parse()."""
    return str(e).replace("**", "^")


# ---------------------------------------------------------------------------
# calculus and rewriting

def simplify(e: Expr) -> Expr:
    """Bounded rewriting: rational normal form plus the Pythagorean rule.

    Sound but deliberately incomplete; residual checks re-confirm
    equality numerically.
    """
    e = sp.cancel(sp.together(e))
    if e.has(sp.sin, sp.cos, sp.tan):
        e = sp.trigsimp(e)
    return e


def evaluate(e: Expr, point: Point | None = None, env: ParamEnv | None = None) -> float:
    """Evaluate with double semantics; raises on unbound names or domain exits."""
    bind = {}
    for mapping in (point or {}), (env or {}):
        for name, value in mapping.items():
            bind[sp.Symbol(name)] = sp.Float(value)
    free = e.free_symbols - set(bind)
    if free:
        names = ", ".join(sorted(s.name for s in free))
        raise UnboundNameError(f"unbound name(s): {names}")
    val = e.subs(bind).evalf()
    if val.has(sp.zoo, sp.oo, -sp.oo, sp.nan):
        raise EvalDomainError(f"singular evaluation of {to_source(e)}")
    if not val.is_real:
        val_c = complex(val)
        if abs(val_c.imag) > 1e-12 * max(1.0, abs(val_c.real)):
            raise EvalDomainError(f"complex result evaluating {to_source(e)}")
        return val_c.real
    return float(val)

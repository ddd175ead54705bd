"""The recursive-descent reader hiddensym.exprkit once parsed the grammar
with, the reference its precedence-climbing `parse` is tested against: a
token pass, then one method per binding level (expr, term, factor, atom).
Every string must read to the same interned node, or raise the same error
type with the same message and offset, under both; the one difference is
the stack each uses, so this one refuses redundant parentheses nested more
than about 165 deep around a shallow tree.
"""

import re
from fractions import Fraction

from hiddensym.exprkit import (FUNCTIONS, MAX_DEPTH, Expr, ParseError, UnknownFunctionError,
                               add, div, function, mul, neg, number, power, sub, symbol)

_SPACE = re.compile(r"\s*")
_TOKEN = re.compile(r"(?P<num>\d+\.?\d*|\.\d+)|(?P<name>[^\W\d]\w*)|(?P<op>[-+*/^(),])")


def _tokenize(src: str):
    """(kind, text, offset) tokens, the last ("end", "", len(src))."""
    tokens, i = [], _SPACE.match(src).end()
    while i < len(src):
        m = _TOKEN.match(src, i)
        if m is None:
            raise ParseError(f"unexpected character {src[i]!r}", i)
        tokens.append((m.lastgroup, m.group(), i))
        i = _SPACE.match(src, m.end()).end()
    return tokens + [("end", "", len(src))]


class _Parser:
    """Recursive descent over the grammar: + - * / ^ (right-assoc), f(x)."""

    def __init__(self, src: str):
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

    def chain(self, operand, builds: dict) -> Expr:
        """operand (op operand)*, left-associative, for the ops in builds."""
        e = operand()
        while self.peek()[1] in builds:
            e = builds[self.next()[1]](e, operand())
        return e

    def expr(self) -> Expr:
        return self.chain(self.term, {"+": add, "-": sub})

    def term(self) -> Expr:
        return self.chain(self.factor, {"*": mul, "/": div})

    def factor(self) -> Expr:
        tok = self.peek()[1]
        if tok in ("-", "+"):
            self.next()
            return neg(self.factor()) if tok == "-" else self.factor()
        base = self.atom()
        if self.peek()[1] == "^":
            self.next()
            # right-associative; exponent may carry a unary sign
            return power(base, self.factor())
        return base

    def atom(self) -> Expr:
        kind, tok, off = self.next()
        if tok == "(":
            e = self.expr()
            self.expect(")")
            return e
        if kind == "num":
            return number(Fraction(tok))
        if kind == "name":
            if self.peek()[1] == "(":
                if tok not in FUNCTIONS:
                    raise UnknownFunctionError(f"unknown function {tok!r}", off)
                self.next()
                arg = self.expr()
                self.expect(")")
                return function(tok, arg)
            return symbol(tok)
        raise ParseError(f"unexpected token {tok!r}", off)


def parse(src: str) -> Expr:
    """Parse infix source into a tree.  A tree deeper than MAX_DEPTH, or with
    a constant of more than MAX_BITS bits, is a ParseError; 1/0, 0^-1, log of
    a non-positive constant and the root of a negative one are EvalDomainErrors."""
    try:
        e = _Parser(src).parse()
        if e.depth <= MAX_DEPTH:
            return e
    except RecursionError:
        pass
    raise ParseError(f"expression nested more than {MAX_DEPTH} deep", 0)


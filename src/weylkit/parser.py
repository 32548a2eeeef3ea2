"""Expression grammar shared by the CLI, scenario files, and printers.

    expr     := sign? term (("+" | "-") term)*
    term     := factor ("*" factor)*
    factor   := atom ("^" uint)?
    atom     := generator | rational | "(" expr ")"
    rational := sign? uint ("/" uint)?

Operator expressions use the generators z<i> and d<i>; symbol polynomials use
z<i> and zeta<i> (d<i> is accepted as a synonym for zeta<i> so operator
generators can be reread as their symbols).  Factors multiply left to right,
which is the only order that matters once d and z stop commuting.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass
from typing import Sequence

from .base import Scalar, _exact_quotient
from .monomial import MAX_AMBIENT
from .poly import Poly, poly_z, poly_zeta
from .weyl import WeylElement, d, z

MAX_EXPONENT = 10**6
MAX_NESTING = 200  # parentheses; Python's parser puts the same bound on read_arithmetic
# Longest text read_arithmetic takes: Python 3.10 overflows its C stack on a 120,000-term sum.
MAX_ARITHMETIC_LENGTH = 1000


class ParseError(ValueError):
    """Syntax or range error, naming the 0-based offending position when known."""

    def __init__(self, message: str, position: int | None = None):
        super().__init__(message if position is None else f"{message} (position {position})")


def read_arithmetic(text: str, error: type[ValueError]) -> list[ast.expr]:
    """Integer arithmetic read by Python's parser, as its nodes in postorder.

    Allowed: decimal int literals, names, unary and binary + and -, binary *,
    and max(a, b) (its arguments are listed, not its name).  Anything else,
    and texts too long or too deep, raise ``error``.  The walk keeps its own
    stack, so a long sum costs no recursion.
    """
    if len(text) > MAX_ARITHMETIC_LENGTH:
        raise error(f"cannot read {len(text)} characters: the limit is {MAX_ARITHMETIC_LENGTH}")
    source = " ".join(text.split())  # whitespace of any kind only separates tokens
    try:
        tree = ast.parse(source, mode="eval").body
    except (SyntaxError, ValueError) as exc:  # ValueError: a NUL byte, before 3.11
        reason = str(getattr(exc, "msg", exc)).split(";")[0]
        raise error(f"cannot read {text!r}: {reason}") from None
    except (RecursionError, MemoryError):
        raise error(f"cannot read {text!r}: too long or too deeply nested") from None
    nodes, stack = [], [tree]
    while stack:
        node = stack.pop()
        nodes.append(node)
        if isinstance(node, ast.BinOp) and isinstance(node.op, (ast.Add, ast.Sub, ast.Mult)):
            stack += node.left, node.right
        elif isinstance(node, ast.UnaryOp) and isinstance(node.op, (ast.UAdd, ast.USub)):
            stack.append(node.operand)
        elif isinstance(node, ast.Call) and getattr(node.func, "id", "") == "max":
            if len(node.args) != 2:
                raise error(f"cannot read {text!r}: max takes two arguments")
            stack += node.args + node.keywords  # a keyword argument is refused below
        elif not isinstance(node, ast.Name):
            segment = ast.get_source_segment(source, node)
            if not (segment.isdigit() and segment == str(node.value)):  # a decimal int literal
                raise error(f"cannot read {text!r}: unexpected {segment!r}")
    return nodes[::-1]


@dataclass(frozen=True)
class _Token:
    kind: str  # "gen", "num", or a literal symbol
    position: int
    name: str = ""
    index: int = 0
    value: int = 0


_SYMBOLS = set("+-*/^()")
_DIGITS = set("0123456789")  # str.isdigit also takes '²' and '١'


def _number(text: str, start: int) -> tuple[int, int]:
    """The value of the digit run at ``start`` and the position just past it."""
    end = start
    while end < len(text) and text[end] in _DIGITS:
        end += 1
    try:
        return int(text[start:end]), end
    except ValueError:  # more digits than sys.get_int_max_str_digits() allows
        raise ParseError(f"a number of {end - start} digits is too long", start) from None


def _tokenize(text: str) -> list[_Token]:
    tokens: list[_Token] = []
    i, n = 0, len(text)
    while i < n:
        ch = text[i]
        if ch.isspace():
            i += 1
            continue
        if ch in _SYMBOLS:
            tokens.append(_Token(ch, i))
            i += 1
            continue
        if ch in _DIGITS:
            value, end = _number(text, i)
            tokens.append(_Token("num", i, value=value))
            i = end
            continue
        if ch.isalpha():
            start = i
            while i < n and text[i].isalpha():
                i += 1
            name = text[start:i]
            if name not in ("z", "d", "zeta"):
                raise ParseError(f"unknown name {name!r}", start)
            if i >= n or text[i] not in _DIGITS:
                raise ParseError(f"expected variable index after {name!r}", i)
            index, end = _number(text, i)
            if not 1 <= index <= MAX_AMBIENT:
                raise ParseError(f"variable index {index} out of range 1..{MAX_AMBIENT}", i)
            tokens.append(_Token("gen", start, name=name, index=index))
            i = end
            continue
        raise ParseError(f"unexpected character {ch!r}", i)
    return tokens


class _Parser:
    """Recursive descent into a chosen ring; ``^`` and signs here are not Python's."""

    def __init__(self, tokens: Sequence[_Token], ambient: int, end: int, symbols: bool):
        self.tokens = tokens
        self.pos = 0
        self.ambient = ambient
        self.end = end  # position just past the input, for EOF errors
        self.symbols = symbols
        self.element_type = Poly if symbols else WeylElement
        self.depth = 0  # open parentheses, bounded by MAX_NESTING

    def peek(self) -> _Token | None:
        return self.tokens[self.pos] if self.pos < len(self.tokens) else None

    def next(self) -> _Token:
        tok = self.peek()
        if tok is None:
            raise ParseError("unexpected end of input", self.end)
        self.pos += 1
        return tok

    def expect(self, kind: str) -> _Token:
        tok = self.next()
        if tok.kind != kind:
            raise ParseError(f"expected {kind!r}, got {tok.kind!r}", tok.position)
        return tok

    def parse(self):
        value = self.expr()
        tok = self.peek()
        if tok is not None:
            raise ParseError(f"unexpected token {tok.kind!r}", tok.position)
        return value

    def expr(self):
        sign = 1
        tok = self.peek()
        if tok is not None and tok.kind in ("+", "-"):
            self.next()
            sign = -1 if tok.kind == "-" else 1
        value = self.term().scaled(sign)
        while True:
            tok = self.peek()
            if tok is None or tok.kind not in ("+", "-"):
                return value
            self.next()
            rhs = self.term()
            value = value + rhs if tok.kind == "+" else value - rhs

    def term(self):
        value = self.factor()
        while True:
            tok = self.peek()
            if tok is None or tok.kind != "*":
                return value
            self.next()
            value = value * self.factor()

    def factor(self):
        value = self.atom()
        tok = self.peek()
        if tok is not None and tok.kind == "^":
            self.next()
            exponent = self.uint()
            value = value**exponent
        return value

    def uint(self) -> int:
        tok = self.expect("num")
        if tok.value > MAX_EXPONENT:
            raise ParseError(
                f"exponent {tok.value} exceeds limit {MAX_EXPONENT}", tok.position
            )
        return tok.value

    def atom(self):
        tok = self.next()
        if tok.kind == "gen":
            return self.generator(tok)
        if tok.kind == "num":
            return self.element_type.constant(self.rational(tok), self.ambient)
        if tok.kind == "-":
            inner = self.expect("num")
            return self.element_type.constant(-self.rational(inner), self.ambient)
        if tok.kind == "(":
            self.depth += 1
            if self.depth > MAX_NESTING:
                raise ParseError(f"parentheses nested deeper than {MAX_NESTING}", tok.position)
            value = self.expr()
            self.expect(")")
            self.depth -= 1
            return value
        raise ParseError(f"unexpected token {tok.kind!r}", tok.position)

    def rational(self, tok: _Token) -> Scalar:
        """A literal ``n`` or ``n/m``: an int when the denominator is 1."""
        numerator = tok.value
        nxt = self.peek()
        if nxt is not None and nxt.kind == "/":
            self.next()
            denom_tok = self.expect("num")
            if denom_tok.value == 0:
                raise ParseError("zero denominator", denom_tok.position)
            return _exact_quotient(numerator, denom_tok.value)
        return numerator

    def generator(self, tok: _Token):
        if tok.index > self.ambient:
            raise ParseError(
                f"variable index {tok.index} out of range 1..{self.ambient}",
                tok.position,
            )
        if self.symbols:
            if tok.name == "z":
                return poly_z(tok.index, self.ambient)
            return poly_zeta(tok.index, self.ambient)
        if tok.name == "zeta":
            raise ParseError("zeta is only valid in symbol polynomials", tok.position)
        if tok.name == "z":
            return z(tok.index, self.ambient)
        return d(tok.index, self.ambient)


def _prepare(text: str, ambient: int | None) -> tuple[list[_Token], int]:
    tokens = _tokenize(text)
    if not tokens:
        raise ParseError("empty expression", 0)
    if ambient is None:
        ambient = max((t.index for t in tokens if t.kind == "gen"), default=0)
    elif not 0 <= ambient <= MAX_AMBIENT:
        raise ParseError(f"ambient {ambient} outside 0..{MAX_AMBIENT}")
    return tokens, ambient


def parse_expression(text: str, ambient: int | None = None) -> WeylElement:
    """Parse an operator expression; infers the ambient size when omitted."""
    tokens, m = _prepare(text, ambient)
    return _Parser(tokens, m, len(text), symbols=False).parse()


def parse_polynomial(text: str, ambient: int | None = None) -> Poly:
    """Parse a commutative polynomial in z and zeta (d doubles as zeta)."""
    tokens, m = _prepare(text, ambient)
    return _Parser(tokens, m, len(text), symbols=True).parse()

"""Surface syntax for polynomials and matrices.

Polynomial grammar (whitespace insignificant, no implicit multiplication):

    expr     := term (('+' | '-') term)*
    term     := factor ('*' factor)*
    factor   := atom ('^' uint)?
    atom     := rational | var | '(' expr ')' | '[' expr ',' expr ']'
    var      := 'X' uint          (uint >= 1)
    rational := int ('/' uint)?

'[a,b]' desugars to a*b - b*a and '^k' to a k-fold product, so parsing
always lands on a canonical NcPoly.  poly_to_text emits terms in graded
lexicographic word order and round-trips: parse(print(f)) == f.

Matrix literals are shell-friendly: rows separated by ';', rational entries
by ',', e.g. "1,0;0,-1".
"""

from __future__ import annotations

import itertools
import re
from fractions import Fraction

from .linalg import DimensionMismatch, MatrixQ
from .poly import NcPoly, Word


class ParseError(Exception):
    """Syntax error with 1-based line/column position."""

    def __init__(self, message: str, line: int, col: int):
        super().__init__(f"{message} (line {line}, column {col})")
        self.message = message
        self.line = line
        self.col = col


class ExponentNegative(ParseError):
    """Exponents must be literal nonnegative integers."""


_TOKEN_RE = re.compile(r"X(\d+)|(\d+)|([+\-*/^()\[\],])|(\s+)|(.)")


class _Token:
    __slots__ = ("kind", "value", "line", "col")

    def __init__(self, kind: str, value, line: int, col: int):
        self.kind = kind  # 'var' | 'int' | single-char operator | 'end'
        self.value = value
        self.line = line
        self.col = col


def _tokenize(text: str) -> list[_Token]:
    tokens = []
    line, col = 1, 1
    for m in _TOKEN_RE.finditer(text):
        var, num, op, ws, bad = m.groups()
        if bad is not None:
            raise ParseError(f"unexpected character {bad!r}", line, col)
        if ws is None:
            if var is not None:
                tokens.append(_Token("var", int(var), line, col))
            elif num is not None:
                tokens.append(_Token("int", int(num), line, col))
            else:
                tokens.append(_Token(op, op, line, col))
        chunk = m.group(0)
        newlines = chunk.count("\n")
        if newlines:
            line += newlines
            col = len(chunk) - chunk.rfind("\n")
        else:
            col += len(chunk)
    tokens.append(_Token("end", None, line, col))
    return tokens


class _Parser:
    def __init__(self, text: str):
        self.tokens = _tokenize(text)
        self.pos = 0

    def peek(self) -> _Token:
        return self.tokens[self.pos]

    def advance(self) -> _Token:
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def expect(self, kind: str) -> _Token:
        tok = self.peek()
        if tok.kind != kind:
            raise ParseError(
                f"expected {kind!r}, found {self._describe(tok)}", tok.line, tok.col
            )
        return self.advance()

    @staticmethod
    def _describe(tok: _Token) -> str:
        if tok.kind == "end":
            return "end of input"
        if tok.kind == "var":
            return f"'X{tok.value}'"
        return repr(str(tok.value))

    def parse(self) -> NcPoly:
        poly = self.expr()
        tok = self.peek()
        if tok.kind != "end":
            raise ParseError(
                f"unexpected trailing {self._describe(tok)}", tok.line, tok.col
            )
        return poly

    def expr(self) -> NcPoly:
        # One combine for all summands: a long sum costs linear time.
        parts = [self.term()]
        while self.peek().kind in ("+", "-"):
            op = self.advance()
            rhs = self.term()
            parts.append(rhs if op.kind == "+" else -rhs)
        return parts[0] if len(parts) == 1 else NcPoly(itertools.chain.from_iterable(parts))

    def term(self) -> NcPoly:
        acc = self.factor()
        while self.peek().kind == "*":
            self.advance()
            acc = acc * self.factor()
        return acc

    def factor(self) -> NcPoly:
        base = self.atom()
        if self.peek().kind == "^":
            caret = self.advance()
            tok = self.peek()
            if tok.kind == "-":
                raise ExponentNegative(
                    "exponent must be a nonnegative integer", tok.line, tok.col
                )
            if tok.kind != "int":
                raise ParseError(
                    f"expected exponent after '^', found {self._describe(tok)}",
                    caret.line,
                    caret.col,
                )
            self.advance()
            return base ** tok.value
        return base

    def atom(self) -> NcPoly:
        tok = self.peek()
        if tok.kind == "-" or tok.kind == "int":
            return NcPoly.constant(self.rational())
        if tok.kind == "var":
            self.advance()
            if tok.value < 1:
                raise ParseError("variable index must be >= 1", tok.line, tok.col)
            return NcPoly.variable(tok.value)
        if tok.kind == "(":
            self.advance()
            inner = self.expr()
            self.expect(")")
            return inner
        if tok.kind == "[":
            self.advance()
            left = self.expr()
            self.expect(",")
            right = self.expr()
            self.expect("]")
            return left * right - right * left
        raise ParseError(
            f"expected a number, variable, '(' or '[', found {self._describe(tok)}",
            tok.line,
            tok.col,
        )

    def rational(self) -> Fraction:
        sign = 1
        tok = self.peek()
        if tok.kind == "-":
            self.advance()
            tok = self.peek()
            sign = -1
            if tok.kind != "int":
                raise ParseError(
                    f"expected a number after '-', found {self._describe(tok)}",
                    tok.line,
                    tok.col,
                )
        num = self.expect("int").value
        if self.peek().kind == "/":
            self.advance()
            den_tok = self.expect("int")
            if den_tok.value == 0:
                raise ParseError("zero denominator", den_tok.line, den_tok.col)
            return Fraction(sign * num, den_tok.value)
        return Fraction(sign * num)


def parse_poly(text: str) -> NcPoly:
    """Parse the polynomial grammar into canonical form."""
    return _Parser(text).parse()


def format_scalar(x) -> str:
    """Canonical text of an exact scalar: "n" or "n/m" in lowest terms.

    An int or a Fraction already prints that way; anything else (a bool
    prints as "1" or "0") goes through Fraction.
    """
    if type(x) is int or isinstance(x, Fraction):
        return str(x)
    return str(Fraction(x))


def _word_text(word: Word) -> str:
    return "*".join(f"X{i}" for i in word)


def poly_to_text(f: NcPoly) -> str:
    """Canonical text: graded-lex term order, explicit '*', no '^'."""
    if f.is_zero():
        return "0"
    ordered = sorted(f.terms.items(), key=lambda t: (len(t[0]), t[0]))
    pieces = []
    for k, (word, coeff) in enumerate(ordered):
        if k == 0:
            if not word:
                pieces.append(format_scalar(coeff))
            elif coeff == 1:
                pieces.append(_word_text(word))
            else:
                pieces.append(f"{format_scalar(coeff)}*{_word_text(word)}")
        else:
            sign = " + " if coeff > 0 else " - "
            mag = abs(coeff)
            if not word:
                pieces.append(sign + format_scalar(mag))
            elif mag == 1:
                pieces.append(sign + _word_text(word))
            else:
                pieces.append(f"{sign}{format_scalar(mag)}*{_word_text(word)}")
    return "".join(pieces)


_ENTRY_RE = re.compile(r"^[+-]?\d+(/\d+)?$")


def parse_matrix(text: str) -> MatrixQ:
    """Parse a matrix literal like "1,0;0,-1" into an exact matrix."""
    rows = []
    for row_text in text.split(";"):
        row = []
        for entry in row_text.split(","):
            entry = entry.strip()
            if not _ENTRY_RE.match(entry):
                raise ValueError(f"bad matrix entry {entry!r}")
            row.append(Fraction(entry))
        rows.append(row)
    if any(len(r) != len(rows) for r in rows):
        raise DimensionMismatch(
            f"matrix literal is not square: {len(rows)} rows, "
            f"widths {[len(r) for r in rows]}"
        )
    return MatrixQ(rows)


def matrix_to_text(m: MatrixQ) -> str:
    return ";".join(",".join(format_scalar(x) for x in row) for row in m.rows)

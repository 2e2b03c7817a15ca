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

Nothing is expanded until the whole input has parsed: each sum, product,
power and bracket first bounds the number of terms, the degree and the
letters of its result from those of its operands, and refuses past a fixed
limit at its operator.  A '(' or '[' past a fixed nesting depth is refused
as it opens.

Matrix literals are shell-friendly: rows separated by ';', rational entries
by ',', e.g. "1,0;0,-1".
"""

from __future__ import annotations

import functools
import operator
import re
from fractions import Fraction
from typing import Callable, NamedTuple

from .linalg import DimensionMismatch, MatrixQ
from .poly import NcPoly, _sum


class ParseError(Exception):
    """Syntax error with 1-based line/column position."""

    def __init__(self, message: str, line: int, col: int):
        super().__init__(f"{message} (line {line}, column {col})")
        self.message = message
        self.line = line
        self.col = col

    @classmethod
    def at(cls, message: str, text: str, offset: int) -> ParseError:
        """The error at text[offset], its line and column counted from the text."""
        line = text.count("\n", 0, offset) + 1
        return cls(message, line, offset - text.rfind("\n", 0, offset))


class ExponentNegative(ParseError):
    """Exponents must be literal nonnegative integers."""


# Expansion limits: the largest exponent, and the most terms (those of
# (X1+X2)^16), highest degree and most letters (terms times degree, four
# times those of (X1+X2)^16) that a sum, product, power or bracket may reach.
_MAX_EXPONENT = 256
_MAX_TERMS = 65536
_MAX_DEGREE = 256
_MAX_LETTERS = 2**22
# The deepest nesting of '(' and '[': the parser recurses once per level.
_MAX_NESTING = 100
# The largest variable index: every sample draws nvars random d x d matrices.
_MAX_VARIABLE = 256


class _Expansion(NamedTuple):
    """A parsed expression, not yet expanded: at most terms terms, of degree
    at most degree, and build() expands it."""

    terms: int
    degree: int
    build: Callable[[], NcPoly]


def _built(poly: NcPoly) -> _Expansion:
    """An atom, built at once: its terms and degree are exact."""
    return _Expansion(len(poly), poly.degree() or 0, lambda: poly)


_TOKEN_RE = re.compile(r"X(\d+)|(\d+)|([+\-*/^()\[\],])|(\s+)|(.)")


class _Token(NamedTuple):
    kind: str  # 'var' | 'int' | single-char operator | 'end'
    value: object
    offset: int  # into the text; a ParseError counts its line and column


def _tokenize(text: str) -> list[_Token]:
    tokens = []
    for m in _TOKEN_RE.finditer(text):
        var, num, op, ws, bad = m.groups()
        at = m.start()
        if bad is not None:
            raise ParseError.at(f"unexpected character {bad!r}", text, at)
        if ws is None:
            digits = var if var is not None else num
            if digits is None:
                tokens.append(_Token(op, op, at))
            else:
                try:
                    value = int(digits)
                except ValueError:  # more digits than int() converts
                    message = f"number too long ({len(digits)} digits)"
                    raise ParseError.at(message, text, at) from None
                tokens.append(_Token("var" if var is not None else "int", value, at))
    tokens.append(_Token("end", None, len(text)))
    return tokens


class _Parser:
    def __init__(self, text: str):
        self.text = text
        self.tokens = _tokenize(text)
        self.pos = 0
        self.depth = 0

    def peek(self) -> _Token:
        return self.tokens[self.pos]

    def advance(self) -> _Token:
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def expect(self, kind: str) -> _Token:
        tok = self.peek()
        if tok.kind != kind:
            raise self._error(f"expected {kind!r}, found {self._describe(tok)}", tok)
        return self.advance()

    @staticmethod
    def _describe(tok: _Token) -> str:
        if tok.kind == "end":
            return "end of input"
        if tok.kind == "var":
            return f"'X{tok.value}'"
        return repr(str(tok.value))

    def _error(self, message: str, tok: _Token) -> ParseError:
        return ParseError.at(message, self.text, tok.offset)

    def _checked(self, op: _Token, terms: int, degree: int) -> tuple[int, int]:
        """(terms, degree) of the expansion op makes, if within the limits."""
        if not degree:
            terms = min(terms, 1)  # a constant is one term
        if terms > _MAX_TERMS:
            raise self._error(f"expansion has more than {_MAX_TERMS} terms", op)
        if degree > _MAX_DEGREE:
            raise self._error(f"expansion has degree above {_MAX_DEGREE}", op)
        if terms * degree > _MAX_LETTERS:
            raise self._error(f"expansion has more than {_MAX_LETTERS} letters", op)
        return terms, degree

    def parse(self) -> NcPoly:
        expansion = self.expr()
        tok = self.peek()
        if tok.kind != "end":
            raise self._error(f"unexpected trailing {self._describe(tok)}", tok)
        return expansion.build()

    def expr(self) -> _Expansion:
        parts = [self.term()]
        negated = [False]
        terms, degree = parts[0].terms, parts[0].degree
        while self.peek().kind in ("+", "-"):
            op = self.advance()
            negated.append(op.kind == "-")
            rhs = self.term()
            parts.append(rhs)
            terms, degree = self._checked(op, terms + rhs.terms, max(degree, rhs.degree))
        if len(parts) == 1:
            return parts[0]

        def build() -> NcPoly:
            # One combine for all summands: a long sum costs linear time.
            return _sum(-p.build() if neg else p.build() for p, neg in zip(parts, negated))

        return _Expansion(terms, degree, build)

    def term(self) -> _Expansion:
        factors = [self.factor()]
        terms, degree = factors[0].terms, factors[0].degree
        while self.peek().kind == "*":
            op = self.advance()
            rhs = self.factor()
            factors.append(rhs)
            terms, degree = self._checked(op, terms * rhs.terms, degree + rhs.degree)
        if len(factors) == 1:
            return factors[0]
        return _Expansion(
            terms, degree, lambda: functools.reduce(operator.mul, (f.build() for f in factors))
        )

    def factor(self) -> _Expansion:
        base = self.atom()
        if self.peek().kind == "^":
            caret = self.advance()
            tok = self.peek()
            if tok.kind == "-":
                message = "exponent must be a nonnegative integer"
                raise ExponentNegative.at(message, self.text, tok.offset)
            if tok.kind != "int":
                found = self._describe(tok)
                raise self._error(f"expected exponent after '^', found {found}", caret)
            self.advance()
            k = tok.value
            if k > _MAX_EXPONENT:
                raise self._error(f"exponent above {_MAX_EXPONENT}", caret)
            terms, degree = self._checked(caret, base.terms**k, base.degree * k)
            return _Expansion(terms, degree, lambda: base.build() ** k)
        return base

    def atom(self) -> _Expansion:
        tok = self.peek()
        if tok.kind == "-" or tok.kind == "int":
            return _built(NcPoly.constant(self.rational()))
        if tok.kind == "var":
            self.advance()
            if tok.value < 1:
                raise self._error("variable index must be >= 1", tok)
            if tok.value > _MAX_VARIABLE:
                raise self._error(f"variable index above {_MAX_VARIABLE}", tok)
            return _built(NcPoly.variable(tok.value))
        if tok.kind in ("(", "["):
            if self.depth == _MAX_NESTING:
                raise self._error(f"nesting deeper than {_MAX_NESTING}", tok)
            self.depth += 1
            self.advance()
            left = self.expr()
            if tok.kind == "(":
                self.expect(")")
                self.depth -= 1
                return left
            self.expect(",")
            right = self.expr()
            self.expect("]")
            self.depth -= 1
            # Each of the products left * right and right * left.
            terms, degree = self._checked(tok, left.terms * right.terms, left.degree + right.degree)

            def build() -> NcPoly:
                a, b = left.build(), right.build()
                return a * b - b * a

            return _Expansion(2 * terms, degree, build)
        found = self._describe(tok)
        raise self._error(f"expected a number, variable, '(' or '[', found {found}", tok)

    def rational(self) -> int | Fraction:
        sign = 1
        tok = self.peek()
        if tok.kind == "-":
            self.advance()
            tok = self.peek()
            sign = -1
            if tok.kind != "int":
                raise self._error(f"expected a number after '-', found {self._describe(tok)}", tok)
        num = self.expect("int").value
        if self.peek().kind == "/":
            self.advance()
            den_tok = self.expect("int")
            if den_tok.value == 0:
                raise self._error("zero denominator", den_tok)
            return Fraction(sign * num, den_tok.value)
        return sign * num


def parse_poly(text: str) -> NcPoly:
    """Parse the polynomial grammar into canonical form."""
    return _Parser(text).parse()


def poly_to_text(f: NcPoly) -> str:
    """Canonical text: graded-lex term order, explicit '*', no '^'."""
    if f.is_zero():
        return "0"
    pieces = []
    den, num = f.integer_form()
    letter = {i: f"X{i}" for i in f.variables()}.__getitem__
    for word in sorted(num, key=lambda w: (len(w), w)):
        coeff = num[word]
        # The first term's sign stays in its coefficient ("-1*X1"); later
        # terms print theirs as the operator.
        if pieces:
            pieces.append(" + " if coeff > 0 else " - ")
            coeff = abs(coeff)
        if den != 1:
            coeff = Fraction(coeff, den)  # in lowest terms
        if not word:
            pieces.append(str(coeff))
        else:
            text = "*".join(map(letter, word))
            pieces.append(text if coeff == 1 else f"{coeff}*{text}")
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
            if re.search(r"/0+$", entry):
                raise ValueError(f"zero denominator in matrix entry {entry!r}")
            row.append(Fraction(entry))
        rows.append(row)
    if any(len(r) != len(rows) for r in rows):
        raise DimensionMismatch(
            f"matrix literal is not square: {len(rows)} rows, "
            f"widths {[len(r) for r in rows]}"
        )
    return MatrixQ(rows)


def matrix_to_text(m: MatrixQ) -> str:
    return ";".join(",".join(map(str, row)) for row in m.rows)

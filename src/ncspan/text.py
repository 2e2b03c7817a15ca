"""Surface syntax for polynomials and matrices.

Polynomial grammar (whitespace insignificant, no implicit multiplication,
digits 0-9 only):

    expr     := term (('+' | '-') term)*
    term     := factor ('*' factor)*
    factor   := atom ('^' uint)?
    atom     := rational | var | '(' expr ')' | '[' expr ',' expr ']'
    var      := 'X' uint          (uint >= 1)
    rational := int ('/' uint)?

'[a,b]' stands for a*b - b*a and '^k' for a k-fold product, so parsing
always lands on a canonical NcPoly.  poly_to_text emits terms in graded
lexicographic word order and round-trips: parse(print(f)) == f.

parse_poly scans a text once, into tokens that are the text they matched
(a line and column are counted only for an error), and parses them into a
tree.  Nothing is expanded until the whole text has parsed: each sum,
product, power and bracket first bounds the number of terms, the degree
and the letters of its result from those of its operands, and refuses past
a fixed limit at its operator.  A '(' or '[' past a fixed nesting depth is
refused as it opens.  One pass then expands the tree, and each sum,
product and bracket combines its like terms once.

Matrix literals are shell-friendly: rows separated by ';', rational entries
by ',', e.g. "1,0;0,-1".
"""

from __future__ import annotations

import re
from fractions import Fraction

from .linalg import DimensionMismatch, MatrixQ
from .poly import NcPoly, _clean_terms, _raw, _scaled, _sum

__all__ = [
    "ExponentNegative",
    "ParseError",
    "matrix_to_text",
    "parse_matrix",
    "parse_poly",
    "poly_to_text",
]


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


# A token is the text it matched: an operator, 'X' and digits, digits, or
# one character that starts no token.  Whitespace matches nothing.
_TOKEN_RE = re.compile(r"[-+*/^()\[\],]|X[0-9]+|[0-9]+|\S")
# A character that starts no token, a lone 'X' included.
_REFUSED_RE = re.compile(r"[^-+*/^()\[\],X0-9\s]|X(?![0-9])")
_OPERATORS = frozenset("+-*/^()[],")
# int() converts a digit run this long under any sys.set_int_max_str_digits.
_SHORT_TOKEN = 640


def _tokenize(text: str) -> list[str]:
    """The tokens of text, then "" for its end.  The first token that is
    no operator, variable or number, or a number too long to convert, is
    refused at its column."""
    tokens = _TOKEN_RE.findall(text)
    if _REFUSED_RE.search(text) or len(text) > _SHORT_TOKEN and max(map(len, tokens), default=0) > _SHORT_TOKEN:
        for m in _TOKEN_RE.finditer(text):
            tok = m.group()
            if tok in _OPERATORS:
                continue
            if len(tok) == 1 and not "0" <= tok <= "9":
                raise ParseError.at(f"unexpected character {tok!r}", text, m.start())
            digits = tok.lstrip("X")
            try:
                int(digits)
            except ValueError:  # more digits than int() converts
                raise ParseError.at(f"number too long ({len(digits)} digits)", text, m.start()) from None
    tokens.append("")
    return tokens


def _offset(text: str, k: int) -> int:
    """Where token k of text starts; a rescan, made only for an error."""
    for j, m in enumerate(_TOKEN_RE.finditer(text)):
        if j == k:
            return m.start()
    return len(text)


def _describe(tok: str) -> str:
    if not tok:
        return "end of input"
    if tok[0] == "X":
        return f"'X{int(tok[1:])}'"
    return repr(str(int(tok)) if tok.isdigit() else tok)


# A node (terms, degree, kind, operands) is a parsed expression of at most
# terms terms and degree at most degree.  Its operands: a leaf's numerators
# and denominator, a sum's summands and signs, a product's factors, a
# power's base and exponent, a bracket's two sides.
_LEAF, _SUM, _PRODUCT, _POWER, _BRACKET = range(5)


class _Parser:
    """Each rule reads from token k and returns its node and the index of
    the token after it; depth counts the '(' and '[' open around it."""

    def __init__(self, text: str):
        self.text = text
        self.tokens = _tokenize(text)

    def _error(self, message: str, k: int, error: type[ParseError] = ParseError) -> ParseError:
        return error.at(message, self.text, _offset(self.text, k))

    def _expect(self, k: int, kind: str) -> int:
        tok = self.tokens[k]
        if tok != kind:
            raise self._error(f"expected {kind!r}, found {_describe(tok)}", k)
        return k + 1

    def _checked(self, op: int, terms: int, degree: int) -> tuple[int, int]:
        """(terms, degree) of the expansion token op makes, if within the limits."""
        if not degree:
            terms = min(terms, 1)  # a constant is one term
        if terms > _MAX_TERMS:
            raise self._error(f"expansion has more than {_MAX_TERMS} terms", op)
        if degree > _MAX_DEGREE:
            raise self._error(f"expansion has degree above {_MAX_DEGREE}", op)
        if terms * degree > _MAX_LETTERS:
            raise self._error(f"expansion has more than {_MAX_LETTERS} letters", op)
        return terms, degree

    def expr(self, k: int, depth: int) -> tuple[tuple, int]:
        node, k = self.term(k, depth)
        terms, degree = node[0], node[1]
        parts = [(node, 1)]
        while (op := self.tokens[k]) == "+" or op == "-":
            rhs, j = self.term(k + 1, depth)
            parts.append((rhs, 1 if op == "+" else -1))
            terms, degree = self._checked(k, terms + rhs[0], max(degree, rhs[1]))
            k = j
        return (terms, degree, _SUM, parts) if len(parts) > 1 else node, k

    def term(self, k: int, depth: int) -> tuple[tuple, int]:
        node, k = self.factor(k, depth)
        terms, degree = node[0], node[1]
        factors = [node]
        while self.tokens[k] == "*":
            rhs, j = self.factor(k + 1, depth)
            factors.append(rhs)
            terms, degree = self._checked(k, terms * rhs[0], degree + rhs[1])
            k = j
        return (terms, degree, _PRODUCT, factors) if len(factors) > 1 else node, k

    def factor(self, k: int, depth: int) -> tuple[tuple, int]:
        """An atom, and its power if a '^' follows."""
        tokens = self.tokens
        tok = tokens[k]
        if tok[:1] == "X":
            i = int(tok[1:])
            if i < 1:
                raise self._error("variable index must be >= 1", k)
            if i > _MAX_VARIABLE:
                raise self._error(f"variable index above {_MAX_VARIABLE}", k)
            base = (1, 1, _LEAF, ({(i,): 1}, 1))
            k += 1
        elif tok == "(" or tok == "[":
            if depth == _MAX_NESTING:
                raise self._error(f"nesting deeper than {_MAX_NESTING}", k)
            base, j = self.expr(k + 1, depth + 1)
            if tok == "(":
                k = self._expect(j, ")")
            else:
                right, j = self.expr(self._expect(j, ","), depth + 1)
                j = self._expect(j, "]")
                # Each of the products left * right and right * left.
                terms, degree = self._checked(k, base[0] * right[0], base[1] + right[1])
                base = (2 * terms, degree, _BRACKET, (base, right))
                k = j
        elif tok == "-" or tok.isdigit():
            c, k = self.rational(k)
            num = {(): c.numerator} if c else {}
            base = (len(num), 0, _LEAF, (num, c.denominator))
        else:
            found = _describe(tok)
            raise self._error(f"expected a number, variable, '(' or '[', found {found}", k)
        if tokens[k] != "^":
            return base, k
        tok = tokens[k + 1]
        if tok == "-":
            raise self._error("exponent must be a nonnegative integer", k + 1, ExponentNegative)
        if not tok.isdigit():
            raise self._error(f"expected exponent after '^', found {_describe(tok)}", k)
        e = int(tok)
        if e > _MAX_EXPONENT:
            raise self._error(f"exponent above {_MAX_EXPONENT}", k)
        terms, degree = self._checked(k, base[0] ** e, base[1] * e)
        return (terms, degree, _POWER, (base, e)), k + 2

    def rational(self, k: int) -> tuple[int | Fraction, int]:
        tokens = self.tokens
        sign = 1
        if tokens[k] == "-":
            k += 1
            sign = -1
            if not tokens[k].isdigit():
                raise self._error(f"expected a number after '-', found {_describe(tokens[k])}", k)
        num = sign * int(tokens[k])
        if tokens[k + 1] != "/":
            return num, k + 1
        den = tokens[k + 2]
        if not den.isdigit():
            raise self._error(f"expected 'int', found {_describe(den)}", k + 2)
        if not int(den):
            raise self._error("zero denominator", k + 2)
        return Fraction(num, int(den)), k + 3


def _expand(node: tuple, sn: int = 1, sd: int = 1) -> tuple[dict, int]:
    """(nonzero numerators, denominator) of node times sn / sd, sn nonzero
    and sd positive, not yet in lowest terms.  A sum, a product over the
    product of its factors' terms, and a bracket [a, b] over a*b and -b*a
    each combine once; constant factors join the scale, and a power is a
    repeated product."""
    kind, operands = node[2], node[3]
    if kind is _LEAF:
        num, den = operands
        return _scaled(num, sn), den * sd
    if kind is _SUM:
        return _sum([_expand(part, sn * sign, sd) for part, sign in operands])
    if kind is _PRODUCT:
        factors = []
        for factor in operands:
            if factor[1]:
                factors.append(factor)
                continue
            # Of degree 0, so a constant: it joins the scale.
            num, den = factor[3] if factor[2] is _LEAF else _expand(factor)
            if not num:
                return num, 1
            sn, sd = sn * num[()], sd * den
        if len(factors) == 1:
            return _expand(factors[0], sn, sd)
        items = [((), sn)]
        for factor in factors:
            num, den = factor[3] if factor[2] is _LEAF else _expand(factor)
            items = [(w + v, n * m) for w, n in items for v, m in num.items()]
            sd *= den
        return _clean_terms(items), sd
    if kind is _POWER:
        base, e = operands
        p = _raw(*_expand(base)) ** e
        return _scaled(p._num, sn), p._den * sd
    (a, da), (b, db) = map(_expand, operands)
    items = [(v + w, sn * m * n) for v, m in a.items() for w, n in b.items()]
    items += [(w + v, -sn * n * m) for w, n in b.items() for v, m in a.items()]
    return _clean_terms(items), sd * da * db


def parse_poly(text: str) -> NcPoly:
    """Parse the polynomial grammar into canonical form."""
    parser = _Parser(text)
    node, k = parser.expr(0, 0)
    if parser.tokens[k]:
        raise parser._error(f"unexpected trailing {_describe(parser.tokens[k])}", k)
    return _raw(*_expand(node))


class _Letters(dict):
    """The text of each letter, made when it is first printed."""

    def __missing__(self, i: int) -> str:
        self[i] = text = f"X{i}"
        return text


def poly_to_text(f: NcPoly) -> str:
    """Canonical text: graded-lex term order, explicit '*', no '^'."""
    if f.is_zero():
        return "0"
    pieces = []
    den, num = f.integer_form()
    letter = _Letters().__getitem__
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


_ENTRY_RE = re.compile(r"^[+-]?[0-9]+(/[0-9]+)?$")


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

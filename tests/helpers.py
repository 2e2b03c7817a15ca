"""Seeded generators shared across the test modules."""

from __future__ import annotations

import functools
import itertools
import math
import random
import re
from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from operator import add, mul
from typing import Callable, NamedTuple

from ncspan import (
    Classification,
    DimensionMismatch,
    MatrixQ,
    MissingAssignment,
    NcPoly,
    NotInSpan,
    SampleConfig,
    SpanBasis,
    StopReason,
    VariableCollision,
    commutator,
    is_identity,
    lie_ideal_check,
    span,
)
from ncspan.cli import _doc, _exclusion_flags
from ncspan.linalg import EchelonModP, _zero_diagonal_shears, express_in_terms
from ncspan.text import (
    _MAX_DEGREE,
    _MAX_EXPONENT,
    _MAX_LETTERS,
    _MAX_NESTING,
    _MAX_TERMS,
    _MAX_VARIABLE,
    ExponentNegative,
    ParseError,
)


def random_word(rng: random.Random, nvars: int, max_len: int, min_len: int = 0):
    return tuple(
        rng.randint(1, nvars) for _ in range(rng.randint(min_len, max_len))
    )


def random_poly(
    rng: random.Random,
    nvars: int = 3,
    max_degree: int = 4,
    max_terms: int = 5,
    coeff_bound: int = 5,
    min_degree: int = 0,
) -> NcPoly:
    """Nonzero sparse polynomial with words shorter than max_degree + 1."""
    while True:
        terms = {}
        for _ in range(rng.randint(1, max_terms)):
            word = random_word(rng, nvars, max_degree)
            coeff = rng.randint(1, coeff_bound) * rng.choice((-1, 1))
            terms[word] = terms.get(word, 0) + coeff
        f = NcPoly(terms)
        if not f.is_zero() and (f.degree() or 0) >= min_degree:
            return f


def random_commutator_sum(
    rng: random.Random, nvars: int = 3, max_degree: int = 4
) -> NcPoly:
    """Nonzero sum of one or two bracket terms c * (uv - vu), total degree bounded."""
    while True:
        f = NcPoly.zero()
        for _ in range(rng.randint(1, 2)):
            lu = rng.randint(1, max_degree - 1)
            lv = rng.randint(1, max_degree - lu)
            u = NcPoly.monomial(random_word(rng, nvars, lu, min_len=lu))
            v = NcPoly.monomial(random_word(rng, nvars, lv, min_len=lv))
            c = rng.randint(1, 3) * rng.choice((-1, 1))
            f = f + (u * v - v * u).scale(c)
        if not f.is_zero():
            return f


def battery_poly(rng: random.Random) -> NcPoly:
    """Corpus member for the consistency battery: nonconstant, degree <= 4.

    Mixes generic sparse polynomials with explicit sums of commutators so
    both sides of the trace-zero/commutator-sum equivalence get exercised.
    """
    if rng.random() < 0.3:
        return random_commutator_sum(rng, nvars=3, max_degree=4)
    return random_poly(rng, nvars=3, max_degree=4, max_terms=5, min_degree=1)


def random_multilinear(rng: random.Random, n: int) -> NcPoly:
    """Nonzero multilinear polynomial: permutation words on X1..Xn."""
    perms = list(itertools.permutations(range(1, n + 1)))
    while True:
        chosen = rng.sample(perms, rng.randint(1, min(4, len(perms))))
        f = NcPoly(
            {word: rng.randint(1, 5) * rng.choice((-1, 1)) for word in chosen}
        )
        if not f.is_zero():
            return f


def standard_polynomial(n: int) -> NcPoly:
    """The alternating sum over all permutations of X1..Xn."""
    out = NcPoly.zero()
    for perm in itertools.permutations(range(1, n + 1)):
        inversions = sum(
            1
            for i in range(n)
            for j in range(i + 1, n)
            if perm[i] > perm[j]
        )
        out = out + NcPoly.monomial(perm, (-1) ** inversions)
    return out


def random_matrix_int(rng: random.Random, d: int, bound: int = 9) -> MatrixQ:
    """d x d matrix with integer entries uniform in [-bound, bound], by randint.

    Draws entry by entry with randint itself, so the references sample
    independently of ncspan.span._samples, which reads the same values by
    randint's rule without calling it.
    """
    return MatrixQ(
        [[rng.randint(-bound, bound) for _ in range(d)] for _ in range(d)]
    )


def random_trace_zero(rng: random.Random, d: int, bound: int = 9) -> MatrixQ:
    """Integer matrix with the last diagonal entry fixed to cancel the trace."""
    rows = [[rng.randint(-bound, bound) for _ in range(d)] for _ in range(d)]
    rows[d - 1][d - 1] = -sum(rows[i][i] for i in range(d - 1))
    return MatrixQ(rows)


def random_noncentral(rng: random.Random, d: int, bound: int = 9) -> MatrixQ:
    """A non-scalar integer matrix; M_1 has none, so d < 2 is refused."""
    if d < 2:
        raise ValueError(f"every {d}x{d} matrix is scalar")
    while True:
        m = random_matrix_int(rng, d, bound)
        if not m.is_scalar():
            return m


# The Fraction arithmetic of ncspan.poly before a polynomial kept integer
# numerators over one denominator: each reads f.terms and returns a word ->
# Fraction map, with zero sums dropped.


def reference_clean_terms(items, start={}) -> dict:
    """start plus a stream of (word, coefficient) pairs, zero sums dropped."""
    terms = dict(start)
    for word, coeff in items:
        acc = terms.get(word)
        acc = coeff if acc is None else acc + coeff
        if acc:
            terms[word] = acc
        elif word in terms:
            del terms[word]
    return terms


def reference_sum(f: NcPoly, g: NcPoly) -> dict:
    return reference_clean_terms(g.terms.items(), f.terms)


def reference_product(f: NcPoly, g: NcPoly) -> dict:
    return reference_clean_terms(
        (wa + wb, ca * cb) for wa, ca in f.terms.items() for wb, cb in g.terms.items()
    )


def reference_scale(f: NcPoly, c) -> dict:
    return {w: coeff * c for w, coeff in f.terms.items()} if c else {}


def reference_substitute_terms(f: NcPoly, assignment) -> dict:
    """Each word expanded once into products of the images' Fraction terms."""
    images = {
        i: image.terms if isinstance(image, NcPoly) else {(): Fraction(image)} if image else {}
        for i, image in assignment.items()
    }
    expanded = []
    for word, coeff in f.terms.items():
        out = [((), coeff)]
        for letter in word:
            out = [(w + v, c * e) for w, c in out for v, e in images[letter].items()]
        expanded += out
    return reference_clean_terms(expanded)


def reference_delta_terms(f: NcPoly, i: int, m: int) -> dict:
    """linearize.delta's word surgery on Fraction terms, for X_m fresh and
    X_i in every word: each word gives the 2^k - 2 words with a nonempty
    proper subset of its k letters X_i renamed X_m."""
    terms = {}
    for word, coeff in f.terms.items():
        renamed = itertools.product(*[(x, m) if x == i else (x,) for x in word])
        for w in itertools.islice(renamed, 1, (1 << word.count(i)) - 1):
            terms[w] = coeff
    return terms


def reference_strip(f: NcPoly, i: int) -> tuple[dict, dict]:
    """(the terms whose words hold X_i, the rest)."""
    terms = f.terms
    return {w: c for w, c in terms.items() if i in w}, {w: c for w, c in terms.items() if i not in w}


def reference_components(f: NcPoly, i: int) -> list[tuple[int, dict]]:
    """(degree in X_i, the terms of that degree), in increasing degree."""
    buckets = {}
    for word, coeff in f.terms.items():
        buckets.setdefault(word.count(i), {})[word] = coeff
    return [(j, buckets[j]) for j in sorted(buckets)]


def reference_integer_terms(f: NcPoly) -> tuple[int, list]:
    """(L, terms of L * f) for L the lcm of the denominators of f.terms, in
    lowest terms: f's own denominator and numerators, which span._evaluator
    reads and classify_span reports as its scale."""
    terms = f.terms
    scale = math.lcm(*(c.denominator for c in terms.values()))
    return scale, [(w, c.numerator * (scale // c.denominator)) for w, c in terms.items()]


def assert_integer_form(p: NcPoly) -> None:
    """p is a positive int denominator over nonzero int numerators, all of
    them coprime, so the zero polynomial is {} over 1; and terms reads
    them as Fractions."""
    den, num = p.integer_form()
    assert type(den) is int and den > 0, den
    assert all(type(n) is int and n for n in num.values()), num
    assert math.gcd(den, *num.values()) == 1, (den, num)
    assert p.terms == {w: Fraction(n, den) for w, n in num.items()}
    assert all(type(c) is Fraction for c in p.terms.values())


def reference_substitute(f: NcPoly, assignment) -> NcPoly:
    """X_i -> assignment[i] term by term: each word's product of images is
    built with NcPoly arithmetic and added to a running sum."""
    for i in f.variables():
        if i not in assignment:
            raise MissingAssignment(i)
    out = NcPoly.zero()
    for word, coeff in f.terms.items():
        term = NcPoly.constant(coeff)
        for letter in word:
            term = term * assignment[letter]
        out = out + term
    return out


def reference_delta(f: NcPoly, i: int, m: int) -> NcPoly:
    """linearize.delta by substitution and subtraction, the body that word
    surgery replaced: f(.., X_i + X_m, ..) - f - f(.., X_m, ..), with the
    same VariableCollision and ValueError refusals."""
    if any(m in w for w in f.terms):
        raise VariableCollision(f"X{m} already occurs in the polynomial")
    if f.is_zero() or f.min_degree_in(i) < 1:
        raise ValueError(f"X{i} must occur in every monomial")
    xi_plus_xm = NcPoly.variable(i) + NcPoly.variable(m)
    return (
        f.substitute_one(i, xi_plus_xm)
        - f
        - f.substitute_one(i, NcPoly.variable(m))
    )


def reference_evaluate(f: NcPoly, args, d: int) -> MatrixQ:
    """f at args by MatrixQ arithmetic with the Fraction coefficients as given."""
    acc = MatrixQ.zero(d)
    for word, coeff in f.terms.items():
        prod = MatrixQ.identity(d)
        for letter in word:
            prod = prod * args[letter - 1]
        acc = acc + prod.scale(coeff)
    return acc


def reference_cyclic_representative(word):
    """The least of all |w| rotations, by comparing each: the O(|w|^2)
    label that poly.cyclic_representative replaced."""
    if len(word) <= 1:
        return word
    return min(word[k:] + word[:k] for k in range(len(word)))


def reference_commutator_obstruction(f: NcPoly):
    """NcPoly.commutator_obstruction with classes labelled by
    reference_cyclic_representative: the graded-lex least label of a class
    whose coefficients do not sum to zero, or None."""
    sums = {}
    for word, coeff in f.terms.items():
        label = reference_cyclic_representative(word)
        sums[label] = sums.get(label, 0) + coeff
    offending = [w for w, c in sums.items() if c]
    return min(offending, key=lambda w: (len(w), w)) if offending else None


# The token pattern of the reference parser, its own copy: digits are 0-9.
REFERENCE_TOKEN_RE = re.compile(r"X([0-9]+)|([0-9]+)|([+\-*/^()\[\],])|(\s+)|(.)")


class ReferenceToken(NamedTuple):
    kind: str
    value: object
    line: int
    col: int


def reference_tokenize(text: str) -> list[ReferenceToken]:
    """The tokenizer that kept a running line and column, which offsets
    replaced: each token's position is counted as it is met."""
    tokens = []
    line, col = 1, 1
    for m in REFERENCE_TOKEN_RE.finditer(text):
        var, num, op, ws, bad = m.groups()
        if bad is not None:
            raise ParseError(f"unexpected character {bad!r}", line, col)
        if ws is None:
            digits = var if var is not None else num
            if digits is None:
                tokens.append(ReferenceToken(op, op, line, col))
            else:
                try:
                    value = int(digits)
                except ValueError:  # more digits than int() converts
                    raise ParseError(f"number too long ({len(digits)} digits)", line, col) from None
                tokens.append(ReferenceToken("var" if var is not None else "int", value, line, col))
        chunk = m.group(0)
        newlines = chunk.count("\n")
        if newlines:
            line += newlines
            col = len(chunk) - chunk.rfind("\n")
        else:
            col += len(chunk)
    tokens.append(ReferenceToken("end", None, line, col))
    return tokens


# The recursive-descent parser that text.parse_poly's one scan and one
# expansion pass replaced: a NamedTuple per token, a closure per operator,
# and NcPoly arithmetic to expand (a sum is a running sum here).  Same
# grammar, limits and refusals; its errors read reference_tokenize's lines
# and columns.


class _ReferenceExpansion(NamedTuple):
    terms: int
    degree: int
    build: Callable[[], NcPoly]


def _reference_built(poly: NcPoly) -> _ReferenceExpansion:
    return _ReferenceExpansion(len(poly), poly.degree() or 0, lambda: poly)


class _ReferenceParser:
    def __init__(self, text: str):
        self.tokens = reference_tokenize(text)
        self.pos = 0
        self.depth = 0

    def peek(self):
        return self.tokens[self.pos]

    def advance(self):
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def expect(self, kind: str):
        tok = self.peek()
        if tok.kind != kind:
            raise self._error(f"expected {kind!r}, found {self._describe(tok)}", tok)
        return self.advance()

    @staticmethod
    def _describe(tok) -> str:
        if tok.kind == "end":
            return "end of input"
        if tok.kind == "var":
            return f"'X{tok.value}'"
        return repr(str(tok.value))

    def _error(self, message: str, tok, error=ParseError) -> ParseError:
        return error(message, tok.line, tok.col)

    def _checked(self, op, terms: int, degree: int) -> tuple[int, int]:
        if not degree:
            terms = min(terms, 1)
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

    def expr(self) -> _ReferenceExpansion:
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
        return _ReferenceExpansion(
            terms,
            degree,
            lambda: functools.reduce(add, (-p.build() if neg else p.build() for p, neg in zip(parts, negated))),
        )

    def term(self) -> _ReferenceExpansion:
        factors = [self.factor()]
        terms, degree = factors[0].terms, factors[0].degree
        while self.peek().kind == "*":
            op = self.advance()
            rhs = self.factor()
            factors.append(rhs)
            terms, degree = self._checked(op, terms * rhs.terms, degree + rhs.degree)
        if len(factors) == 1:
            return factors[0]
        return _ReferenceExpansion(
            terms, degree, lambda: functools.reduce(mul, (f.build() for f in factors))
        )

    def factor(self) -> _ReferenceExpansion:
        base = self.atom()
        if self.peek().kind == "^":
            caret = self.advance()
            tok = self.peek()
            if tok.kind == "-":
                raise self._error("exponent must be a nonnegative integer", tok, ExponentNegative)
            if tok.kind != "int":
                found = self._describe(tok)
                raise self._error(f"expected exponent after '^', found {found}", caret)
            self.advance()
            k = tok.value
            if k > _MAX_EXPONENT:
                raise self._error(f"exponent above {_MAX_EXPONENT}", caret)
            terms, degree = self._checked(caret, base.terms**k, base.degree * k)
            return _ReferenceExpansion(terms, degree, lambda: base.build() ** k)
        return base

    def atom(self) -> _ReferenceExpansion:
        tok = self.peek()
        if tok.kind == "-" or tok.kind == "int":
            return _reference_built(NcPoly.constant(self.rational()))
        if tok.kind == "var":
            self.advance()
            if tok.value < 1:
                raise self._error("variable index must be >= 1", tok)
            if tok.value > _MAX_VARIABLE:
                raise self._error(f"variable index above {_MAX_VARIABLE}", tok)
            return _reference_built(NcPoly.variable(tok.value))
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
            terms, degree = self._checked(tok, left.terms * right.terms, left.degree + right.degree)

            def build() -> NcPoly:
                a, b = left.build(), right.build()
                return a * b - b * a

            return _ReferenceExpansion(2 * terms, degree, build)
        found = self._describe(tok)
        raise self._error(f"expected a number, variable, '(' or '[', found {found}", tok)

    def rational(self):
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


def reference_parse_poly(text: str) -> NcPoly:
    """text.parse_poly as it was before one scan and one expansion pass,
    with digits 0-9: the same polynomial, or the same ParseError."""
    return _ReferenceParser(text).parse()


def reference_packed_evaluator(terms, d: int, bound: int):
    """The word-by-word packed evaluator that span._packed_evaluator replaced.

    ev(entries) = sum c * w(args) over (w, c) in terms, row-major, with
    each word multiplied out on its own, right to left, on rows packed into
    fixed-width slots sized from sum |c| * d^(|w| - 1) * bound^|w|.
    """
    n = d * d
    top = sum(abs(c) * d ** max(len(w) - 1, 0) * bound ** len(w) for w, c in terms)
    width = 1 << ((top.bit_length() + 8) // 8 - 1).bit_length()
    bits = 8 * width
    cols = [1 << (bits * c) for c in range(d)]
    rows_at = [1 << (bits * d * i) for i in range(d)]
    offset = sum(1 << (bits * k + bits - 1) for k in range(n))
    const = sum(c for w, c in terms if not w) * sum(1 << (bits * (d + 1) * i) for i in range(d))
    words = [([(x - 1) * d for x in reversed(w)], c) for w, c in terms if w]

    def ev(entries):
        rows = [entries[k : k + d] for k in range(0, len(entries), d)]
        packed = [sum(map(mul, row, cols)) for row in rows]
        total = const
        for (last, *rest), c in words:
            prod = packed[last : last + d]
            for k in rest:
                prod = [sum(map(mul, row, prod)) for row in rows[k : k + d]]
            total += c * sum(map(mul, prod, rows_at))
        data = ((total + offset) ^ offset).to_bytes(n * width, "little")
        return [
            int.from_bytes(data[k : k + width], "little", signed=True)
            for k in range(0, n * width, width)
        ]

    return ev


def reference_is_identity(f: NcPoly, d: int, cfg: SampleConfig) -> bool:
    """Whether f vanishes on M_d, by MatrixQ arithmetic on each tuple.

    Matrix-unit tuples for multilinear f, else the seeded samples of
    is_identity, drawn the same way but evaluated independently of it.
    """
    if f.is_zero():
        return True
    if f.is_multilinear():
        units = [MatrixQ.unit(d, j, k) for j in range(d) for k in range(d)]
        return all(
            reference_evaluate(f, tup, d).is_zero()
            for tup in itertools.product(units, repeat=f.nvars)
        )
    rng = random.Random(cfg.seed)
    for _ in range(cfg.samples_for(d)):
        args = tuple(
            random_matrix_int(rng, d, cfg.coeff_bound) for _ in range(f.nvars)
        )
        if not reference_evaluate(f, args, d).is_zero():
            return False
    return True


def reference_verdicts(f: NcPoly, d: int, cfg: SampleConfig) -> tuple[bool, bool]:
    """(identity, central) for f on M_d by two identity tests: f is central
    iff it is not an identity and [f, X_{n+1}] is, for a variable X_{n+1}
    that f does not use."""
    if is_identity(f, d, cfg):
        return True, False
    fresh = NcPoly.variable(f.nvars + 1)
    return False, is_identity(f * fresh - fresh * f, d, cfg)


class ReferenceStop(Enum):
    """The stop reasons of reference_classify_span: FULL_RANK and
    COMMUTATOR_SUM stop on a proof that the sampled span is the whole
    canonical space, the other two on a sampled verdict."""

    FULL_RANK = "FULL_RANK"
    COMMUTATOR_SUM = "COMMUTATOR_SUM"
    STABILITY_WINDOW = "STABILITY_WINDOW"
    BUDGET_EXHAUSTED = "BUDGET_EXHAUSTED"


@dataclass(frozen=True)
class ReferenceReport:
    """reference_classify_span's outcome, with SpanReport's fields.

    classification is None where the rank loop matched no canonical space
    (the budget ran out first); rows are the samples that grew the rank,
    and they are its grown rows too.  basis reduces their values, which
    span the class wherever one is matched.
    """

    poly: NcPoly
    dim: int
    classification: Classification | None
    samples_used: int
    stop_reason: ReferenceStop
    config: SampleConfig
    sum_of_commutators: bool
    scale: int
    rows: tuple

    @property
    def grown(self) -> tuple:
        return self.rows

    @functools.cached_property
    def basis(self) -> SpanBasis:
        d = self.dim
        return SpanBasis.from_matrices(d, [MatrixQ.unflatten(vec, d) for _, vec in self.rows])

    @functools.cached_property
    def witnesses(self) -> tuple:
        d, scale = self.dim, self.scale
        return tuple((span._matrices(entries, d), span._unscaled(vec, d, scale)) for entries, vec in self.rows)


def reference_classify_span(f: NcPoly, d: int, cfg: SampleConfig = SampleConfig()) -> ReferenceReport:
    """The rank loop that the Lie-ideal rule replaced: every sample is
    folded into EchelonModP until the rank proves the class.

    Two ranks prove it: full rank d^2 (FULL_RANK), and rank d^2 - 1 when
    f is a sum of commutators (COMMUTATOR_SUM; at d = 1 the span is ZERO);
    otherwise a matched basis that 50 samples in a row did not grow
    (STABILITY_WINDOW), or the budget (BUDGET_EXHAUSTED), which may leave
    no class matched.  The report's rows are the samples that grew the
    rank.
    """
    ev = span._evaluator(f, d, cfg.coeff_bound)
    scale = reference_integer_terms(f)[0]
    echelon = EchelonModP(d * d)
    grown = []
    full_rank = d * d
    commutator_sum = f.is_sum_of_commutators()
    identity = MatrixQ.identity(d).flatten()
    all_zero = all_scalar = all_trace_zero = True
    stall = 0
    samples_used = 0
    match = None
    stop_reason = ReferenceStop.BUDGET_EXHAUSTED

    def matched():
        if all_zero:
            return Classification.ZERO
        if echelon.rank == full_rank:
            return Classification.FULL
        if echelon.rank == 1 and all_scalar:
            return Classification.SCALARS
        if echelon.rank == full_rank - 1 and all_trace_zero:
            return Classification.TRACE_ZERO
        return None

    for entries in span._samples(f, d, cfg):
        vec = ev(entries)
        samples_used += 1
        all_zero = all_zero and not any(vec)
        all_scalar = all_scalar and vec == [vec[0] * x for x in identity]
        all_trace_zero = all_trace_zero and not sum(vec[:: d + 1])
        match = matched()
        if match is None and echelon.insert(vec):
            grown.append((tuple(entries), tuple(vec)))
            stall = 0
            match = matched()
        else:
            stall += 1
        if echelon.rank == full_rank:
            stop_reason = ReferenceStop.FULL_RANK
        elif commutator_sum and echelon.rank == full_rank - 1:
            stop_reason = ReferenceStop.COMMUTATOR_SUM
        elif stall >= 50 and match is not None:
            stop_reason = ReferenceStop.STABILITY_WINDOW
        else:
            continue
        break
    return ReferenceReport(f, d, match, samples_used, stop_reason, cfg, commutator_sum, scale, tuple(grown))


@dataclass(frozen=True)
class EagerReport:
    """reference_eager_classify_span's outcome: SpanReport's fields as they
    were when every report sampled at once, and grown as SpanReport builds it."""

    poly: NcPoly
    dim: int
    classification: Classification
    samples_used: int
    stop_reason: StopReason
    config: SampleConfig
    sum_of_commutators: bool
    scale: int
    rows: tuple

    @functools.cached_property
    def grown(self) -> tuple:
        return span._shear_closure(self.rows, self.dim, self.classification.rank(self.dim))[0]


def reference_eager_classify_span(f: NcPoly, d: int, cfg: SampleConfig = SampleConfig()) -> EagerReport:
    """The classifier before the degree theorem: it samples at
    once and names the least canonical space that holds every sample,
    stopping at a proof that it is the span (LIE_IDEAL), after 50 samples
    in a row that did not raise it (STABILITY_WINDOW), or when the budget
    runs out (BUDGET_EXHAUSTED).  Its rows are the samples that raised the
    class."""
    ev = span._evaluator(f, d, cfg.coeff_bound)
    scale = reference_integer_terms(f)[0]
    commutator_sum = f.is_sum_of_commutators()
    proved = {Classification.FULL}
    if commutator_sum:
        proved.add(Classification.ZERO if d == 1 else Classification.TRACE_ZERO)
    cls = Classification.ZERO
    rows = []
    stall = samples_used = 0
    stop_reason = StopReason.BUDGET_EXHAUSTED
    for entries in span._samples(f, d, cfg):
        vec = ev(entries)
        samples_used += 1
        if cls.contains(vec, d):
            stall += 1
        else:
            from_zero = cls is Classification.ZERO and d > 1
            least = (Classification.SCALARS, Classification.TRACE_ZERO) if from_zero else ()
            cls = next((c for c in least if c.contains(vec, d)), Classification.FULL)
            rows.append((tuple(entries), tuple(vec)))
            stall = 0
        if cls in proved:
            stop_reason = StopReason.LIE_IDEAL
            break
        if stall >= 50:
            stop_reason = StopReason.STABILITY_WINDOW
            break
    return EagerReport(f, d, cls, samples_used, stop_reason, cfg, commutator_sum, scale, tuple(rows))


def reference_report_doc(report) -> dict:
    """classify's JSON document, built from a classify_span report field by
    field, every matrix entry as str(Fraction(x)) prints it: the document classify
    printed before it wrote its witnesses from the report's integer rows."""

    def text(rows):
        return [[str(Fraction(x)) for x in row] for row in rows]

    applicable, consistent = _exclusion_flags(report.poly, report.dim, report.classification, report.sum_of_commutators)
    return _doc(
        report.poly,
        dim=report.dim,
        seed=report.config.seed,
        classification=report.classification.value,
        rank=report.basis.rank,
        basis=text(report.basis.rows),
        witnesses=[
            {"inputs": [text(a.rows) for a in args], "value": text(value.rows)}
            for args, value in report.witnesses
        ],
        samples_used=report.samples_used,
        consistency_flags={
            "lie_ideal": lie_ideal_check(report.basis),
            "sum_of_commutators": report.sum_of_commutators,
            "degree_exclusion_applicable": applicable,
            "degree_exclusion_consistent": consistent,
            "stop_reason": report.stop_reason.value,
        },
    )


def reference_inverse(m: MatrixQ) -> MatrixQ:
    """Exact inverse by Fraction Gauss-Jordan; raises ValueError if singular."""
    d = m.dim
    aug = [
        [Fraction(x) for x in row] + [Fraction(int(i == j)) for j in range(d)]
        for i, row in enumerate(m.rows)
    ]
    for col in range(d):
        sel = next((r for r in range(col, d) if aug[r][col]), None)
        if sel is None:
            raise ValueError("matrix is singular")
        aug[col], aug[sel] = aug[sel], aug[col]
        pv = aug[col][col]
        aug[col] = [x / pv for x in aug[col]]
        for r in range(d):
            if r != col and aug[r][col]:
                c = aug[r][col]
                aug[r] = [x - c * y for x, y in zip(aug[r], aug[col])]
    return MatrixQ([row[d:] for row in aug])


def shear_product(shears, d: int) -> MatrixQ:
    """P = (I + t1 * E_i1j1)(I + t2 * E_i2j2)... for shears listed as (i, j, t)."""
    identity = MatrixQ.identity(d)
    return functools.reduce(lambda p, s: p * (identity + MatrixQ.unit(d, s[0], s[1]).scale(s[2])), shears, identity)


def reference_commutator_decomposition(m: MatrixQ) -> tuple[MatrixQ, MatrixQ]:
    """commutator_decomposition by dense products: with P the product of
    _zero_diagonal_shears(m) and N = P^-1 m P, solve [diag(1..d), b'] = N
    and return (P a' P^-1, P b' P^-1), P inverted by Fraction Gauss-Jordan."""
    d = m.dim
    if m.is_zero():
        return MatrixQ.zero(d), MatrixQ.zero(d)
    shears, n = _zero_diagonal_shears(m)
    p = shear_product(shears, d)
    a0 = MatrixQ.diagonal(list(range(1, d + 1)))
    b0 = MatrixQ(
        [[n[j * d + k] / Fraction(j - k) if j != k else 0 for k in range(d)] for j in range(d)]
    )
    p_inv = reference_inverse(p)
    return p * a0 * p_inv, p * b0 * p_inv


def reference_fraction_free_rref(rows: list[list[int]]) -> tuple[list[int], int]:
    """Fraction-free Gauss-Jordan (Bareiss) in one sweep: the reference for
    the two-phase linalg.fraction_free_rref, with the same contract.

    At every pivot every other row is rewritten in every column.  Returns
    (pivots, det) with rows / det the reduced row echelon form, zero rows
    last, rows reduced in place.
    """
    pivots: list[int] = []
    prev = sign = 1
    for c in range(len(rows[0]) if rows else 0):
        r = len(pivots)
        sel = next((i for i in range(r, len(rows)) if rows[i][c]), None)
        if sel is None:
            continue
        if sel != r:
            rows[r], rows[sel] = rows[sel], rows[r]
            sign = -sign
        top = rows[r]
        pv = top[c]
        for i, row in enumerate(rows):
            if i != r:
                a = row[c]
                rows[i] = [(pv * x - a * y) // prev for x, y in zip(row, top)]
        prev = pv
        pivots.append(c)
    if sign < 0:
        rows[:] = [[-x for x in row] for row in rows]
    return pivots, sign * prev


def reference_reduced_rows(mats) -> tuple:
    """The reduced row echelon basis of the span of integer matrices,
    flattened row-major, by the Bareiss reference: rows / det, zero rows dropped."""
    rows = [list(m.flatten()) for m in mats]
    pivots, det = reference_fraction_free_rref(rows)
    return tuple(tuple(Fraction(x, det) for x in row) for row in rows[: len(pivots)])


def reference_express_in_terms(vectors, target):
    """Solve sum_j lam_j * vectors[j] = target by Fraction Gauss-Jordan.

    One solution with free coordinates set to zero, or None when the target
    is outside the span of the vectors.
    """
    return reference_express_all(vectors, [target])[0]


def reference_express_all(vectors, targets):
    """reference_express_in_terms(vectors, t) for each t in targets, by one
    Fraction Gauss-Jordan on [vectors | targets].  Pivots are chosen and
    rows scaled on the vectors' columns alone, so each target's column ends
    as it would in a solve of its own.
    """
    k = len(vectors)
    n = len(targets[0]) if targets else 0
    aug = [
        [Fraction(vectors[j][r]) for j in range(k)] + [Fraction(t[r]) for t in targets]
        for r in range(n)
    ]
    pivot_cols = []
    row = 0
    for col in range(k):
        sel = next((r for r in range(row, n) if aug[r][col]), None)
        if sel is None:
            continue
        aug[row], aug[sel] = aug[sel], aug[row]
        pv = aug[row][col]
        aug[row] = [x / pv for x in aug[row]]
        for r in range(n):
            if r != row and aug[r][col]:
                c = aug[r][col]
                aug[r] = [x - c * y for x, y in zip(aug[r], aug[row])]
        pivot_cols.append(col)
        row += 1
        if row == n:
            break
    sols = []
    for i in range(k, k + len(targets)):
        if any(aug[r][i] for r in range(row, n)):
            sols.append(None)
            continue
        sol = [Fraction(0)] * k
        for r, col in enumerate(pivot_cols):
            sol[col] = aug[r][i]
        sols.append(sol)
    return sols


def reference_rref_insert(rows, pivots, vec):
    """Insert vec into Fraction RREF rows; returns (rows, pivots, grew)."""
    v = list(vec)
    for row, p in zip(rows, pivots):
        c = v[p]
        if c:
            v = [a - c * b if b else a for a, b in zip(v, row)]
    p = next((i for i, x in enumerate(v) if x), None)
    if p is None:
        return rows, pivots, False
    pv = Fraction(v[p])
    new_row = tuple(x / pv for x in v)
    adjusted = []
    for row in rows:
        c = row[p]
        if c:
            row = tuple(a - c * b if b else a for a, b in zip(row, new_row))
        adjusted.append(row)
    pos = next((k for k, q in enumerate(pivots) if q > p), len(pivots))
    out_rows = tuple(adjusted[:pos]) + (new_row,) + tuple(adjusted[pos:])
    out_pivots = pivots[:pos] + (p,) + pivots[pos:]
    return out_rows, out_pivots, True


def reference_forward_insert(rows, vec):
    """Insert vec into exact rows kept in forward echelon form: (rows, grew).

    rows is a tuple of (pivot, row) in insertion order, each row a
    primitive integer vector that is 0 at the pivots of the rows before
    it, as in EchelonModP.  vec, cleared of denominators, is reduced by
    the rows in that order, v <- row[p] * v - v[p] * row with the content
    divided out, which zeroes every pivot for good; vec grows the rank iff
    something is left.  No earlier row is touched, unlike
    reference_rref_insert.
    """
    den = math.lcm(*(Fraction(x).denominator for x in vec))
    v = [int(x * den) for x in vec]
    for p, row in rows:
        c = v[p]
        if c:
            a = row[p]
            v = [a * x - c * y for x, y in zip(v, row)]
            g = math.gcd(*v) or 1
            v = [x // g for x in v]
    p = next((i for i, x in enumerate(v) if x), None)
    if p is None:
        return rows, False
    return rows + ((p, tuple(v)),), True


class EchelonQ:
    """Forward echelon over Q of vectors added one at a time, through
    reference_forward_insert: the exact counterpart of EchelonModP."""

    def __init__(self):
        self.rows = ()

    def insert(self, vec) -> bool:
        """Adjoin vec; True iff the rank over Q increased."""
        self.rows, grew = reference_forward_insert(self.rows, vec)
        return grew


def reference_conjugate(rows, i: int, j: int, t) -> None:
    """rows <- T^-1 rows T in place for the shear T = I + t * E_ij, on a
    matrix kept as a list of rows: add t * (column i) to column j, then
    subtract t * (row j) from row i.  Conjugating by -t undoes it."""
    for row in rows:
        row[j] += t * row[i]
    rows[i] = [x - t * y for x, y in zip(rows[i], rows[j])]


def reference_walk(seeds, d: int, rank: int, grows) -> tuple[list, list]:
    """span._walk one candidate at a time, each c- tested on its full value:
    each seed, then each shear conjugate of each kept row in turn, kept when
    grows(its value) says so, until rank are; (kept rows, their labels),
    None for a seed and (parent, i, j, s) for the conjugate of kept row
    number parent by I + s * E_ij.  Each candidate is conjugated in place
    and undone by -s."""
    n = d * d
    shears = [(i, j, s) for i in range(d) for j in range(d) if i != j for s in (1, -1)]
    kept = []
    for row in seeds:
        if len(kept) < rank and grows(row[1]):
            kept.append(row)
    labels = [None] * len(kept)
    for parent, (entries, vec) in enumerate(kept):
        if len(kept) == rank:
            break
        mats = [[list(v[k : k + d]) for k in range(m, m + n, d)] for v in (vec, entries) for m in range(0, len(v), n)]
        value, tup = mats[0], mats[1:]
        for i, j, s in shears:
            for m in mats:
                reference_conjugate(m, i, j, s)
            new = tuple(itertools.chain.from_iterable(value))
            if grows(new):
                kept.append((tuple(itertools.chain(*itertools.chain(*tup))), new))
                labels.append((parent, i, j, s))
            for m in mats:
                reference_conjugate(m, i, j, -s)
            if len(kept) == rank:
                break
    return kept, labels


def reference_shear_closure(seeds, d: int, rank: int) -> tuple:
    """span._shear_closure's walk with every growth decided exactly over Q:
    (kept rows, their labels)."""
    return tuple(map(tuple, reference_walk(seeds, d, rank, EchelonQ().insert)))


def reference_closure_mod_p(seeds, d: int, rank: int) -> tuple:
    """span._shear_closure with its walk swapped for reference_walk: each
    candidate, c- included, decided on its full value by the same psi and
    EchelonModP; (kept rows, their labels)."""
    real = span._walk
    span._walk = lambda seeds, d, rank, grows, unit: reference_walk(seeds, d, rank, grows)
    try:
        return span._shear_closure(seeds, d, rank)
    finally:
        span._walk = real


def unit_pairs(report) -> list[int]:
    """The indices b of the grown rows labelled (p, i, j, -1) right after a
    row labelled (p, i, j, +1): the unit columns decompose_target removes."""
    labels = report._closure[1]
    return [b for b, lb in enumerate(labels) if lb and lb[3] < 0 and labels[b - 1] == (*lb[:3], 1)]


def reference_decompose(report, target: MatrixQ) -> list:
    """decompose_target as one solve of the whole d^2 x (k + 1) system
    [grown rows L * f(t_j) | target], then lambda = L * mu: the path the
    pair reduction replaced, with its NotInSpan verdicts and messages."""
    d, f = report.dim, report.poly
    if target.dim != d:
        raise DimensionMismatch(f"target is {target.dim}x{target.dim}, expected {d}")
    if len(f) == 1:
        ((word, coeff),) = f.terms.items()
        if len(word) == 1:
            scaled = target.scale(Fraction(1) / coeff)
            return [(Fraction(1), tuple(scaled if v == word[0] else MatrixQ.zero(d) for v in range(1, f.nvars + 1)))]
    vec = target.flatten()
    if not report.classification.contains(vec, d):
        raise NotInSpan("target is outside the sampled span")
    sol = express_in_terms([row for _, row in report.grown], vec)
    if sol is None:
        raise NotInSpan(
            f"the sampling budget ran out ({report.stop_reason.value} after {report.samples_used} samples)"
            f" before the witnesses spanned the target ({len(report.grown)} witnesses for rank {report.rank})"
        )
    return [(lam * report.scale, args) for lam, args in zip(sol, report._inputs) if lam]


def reference_residual(basis: SpanBasis, m: MatrixQ) -> list:
    """m reduced densely by each basis row (leading 1 at its pivot); zero iff m is inside."""
    if m.dim != basis.dim:
        raise DimensionMismatch(f"dimensions {m.dim} and {basis.dim} differ")
    v = m.flatten()
    for row, p in zip(basis.rows, basis.pivots):
        c = v[p]
        if c:
            v = [a - c * b for a, b in zip(v, row)]
    return v


def reference_contains(basis: SpanBasis, m: MatrixQ) -> bool:
    return not any(reference_residual(basis, m))


def reference_insert(basis: SpanBasis, m: MatrixQ) -> tuple[SpanBasis, bool]:
    """The rank-one update on the dense residual: (new basis, grew).  The
    reduction inside reference_rref_insert leaves a residual as it is."""
    v = reference_residual(basis, m)
    rows, pivots, grew = reference_rref_insert(basis.rows, basis.pivots, v)
    return SpanBasis(basis.dim, tuple(rows), tuple(pivots)), grew


def row_matrices(basis: SpanBasis) -> list[MatrixQ]:
    return [MatrixQ.unflatten(row, basis.dim) for row in basis.rows]


def reference_is_subspace_of(basis: SpanBasis, other: SpanBasis) -> bool:
    return all(reference_contains(other, m) for m in row_matrices(basis))


def _all_units(d: int):
    return [MatrixQ.unit(d, j, k) for j in range(d) for k in range(d)]


def reference_lie_ideal_check(basis: SpanBasis) -> bool:
    """Whether [r, E_jk] stays in the span for every basis row and all d^2 units."""
    units = _all_units(basis.dim)
    return all(
        basis.contains(commutator(row, unit))
        for row in row_matrices(basis)
        for unit in units
    )


def reference_herstein_closure(seed: MatrixQ, d: int) -> SpanBasis:
    """Smallest Lie ideal and subalgebra containing seed, bracketing with all d^2 units."""
    if seed.dim != d:
        raise DimensionMismatch(f"seed is {seed.dim}x{seed.dim}, expected {d}x{d}")
    units = _all_units(d)
    basis, changed = SpanBasis(d).insert(seed)
    while changed:
        changed = False
        mats = row_matrices(basis)
        for m in [commutator(r, u) for r in mats for u in units] + [a * b for a in mats for b in mats]:
            basis, grew = basis.insert(m)
            changed |= grew
    return basis


def reference_suite_violations(entries) -> int:
    """How many `ncspan suite` entries show a violation, read off their printed fields."""
    return sum(
        1
        for e in entries
        if not e["lie_ideal"]
        or e["exclusion"] == "violated"
        or (
            e["reduction"] is not None
            and not (
                "error" not in e["reduction"]
                and e["reduction"]["multilinear"]
                and e["reduction"]["oracle_true"]
                and e["reduction"]["containments_ok"]
            )
        )
    )

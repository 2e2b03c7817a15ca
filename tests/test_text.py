import random
import time
from fractions import Fraction

import pytest

from helpers import random_poly, random_word, reference_parse_poly, reference_tokenize
from ncspan import (
    DimensionMismatch,
    ExponentNegative,
    MatrixQ,
    NcPoly,
    ParseError,
    commutator,
    matrix_to_text,
    parse_matrix,
    parse_poly,
    poly_to_text,
)
from ncspan.text import _offset, _tokenize

X1 = NcPoly.variable(1)
X2 = NcPoly.variable(2)


class TestParse:
    def test_commutator_written_out(self):
        f = parse_poly("X1*X2 - X2*X1")
        assert f == commutator(X1, X2)
        assert len(f.terms) == 2

    def test_bracket_sugar(self):
        assert parse_poly("[X1,X2]") == commutator(X1, X2)

    def test_nested_brackets(self):
        X3 = NcPoly.variable(3)
        inner = commutator(X1, X2)
        assert parse_poly("[[X1,X2],X3]") == commutator(inner, X3)

    def test_bracket_power(self):
        f = parse_poly("[X1,X2]^2")
        # oracle: expand the product explicitly
        c = commutator(X1, X2)
        assert f == c * c
        assert len(f.terms) == 4
        assert f.degree() == 4

    def test_rational_coefficients_combine(self):
        assert parse_poly("3/2*X1 + X1") == NcPoly.monomial((1,), Fraction(5, 2))

    def test_negative_literals(self):
        assert parse_poly("-3*X1") == NcPoly.monomial((1,), -3)
        assert parse_poly("2 - 3") == NcPoly.constant(-1)
        assert parse_poly("3*-2") == NcPoly.constant(-6)

    def test_parentheses_and_power(self):
        assert parse_poly("(X1+X2)^2") == (X1 + X2) * (X1 + X2)
        assert parse_poly("X1^0") == NcPoly.one()

    def test_whitespace_insignificant(self):
        assert parse_poly(" X1 * X2\n - X2*X1 ") == commutator(X1, X2)

    def test_zero(self):
        assert parse_poly("0").is_zero()
        assert parse_poly("X1 - X1").is_zero()

    def test_sum_matches_running_sum(self):
        # A sum's summands are combined in one pass; the running sum of the
        # parsed summands is the reference.  Few words, so terms overlap
        # and cancel.
        rng = random.Random(43)
        for _ in range(60):
            parts = [
                random_poly(rng, nvars=2, max_degree=2, max_terms=3)
                for _ in range(rng.randint(2, 8))
            ]
            signs = [rng.choice("+-") for _ in parts[1:]]
            text = f"({poly_to_text(parts[0])})" + "".join(
                f" {s} ({poly_to_text(p)})" for s, p in zip(signs, parts[1:])
            )
            expected = parts[0]
            for s, p in zip(signs, parts[1:]):
                expected = expected + p if s == "+" else expected - p
            assert parse_poly(text) == expected, text


class TestLongInputs:
    """Each sum and product combines once, so long ones parse in linear time."""

    def test_long_flat_sum(self):
        rng = random.Random(59)
        terms = [(random_word(rng, 3, 4), rng.randint(-9, 9) or 1) for _ in range(2000)]
        text = " + ".join(f"{c}*" + "*".join(f"X{i}" for i in w) if w else str(c) for w, c in terms)
        start = time.perf_counter()
        f = parse_poly(text)
        assert time.perf_counter() - start < 1.0
        assert f == NcPoly(terms)

    def test_long_product_of_letters(self):
        rng = random.Random(61)
        word = random_word(rng, 5, 256, min_len=256)
        assert parse_poly("*".join(f"X{i}" for i in word)) == NcPoly.monomial(word)


class TestParseErrors:
    def test_reports_position(self):
        with pytest.raises(ParseError) as exc:
            parse_poly("X1 + )")
        assert exc.value.line == 1
        assert exc.value.col == 6

    def test_multiline_position(self):
        with pytest.raises(ParseError) as exc:
            parse_poly("X1 +\n  %")
        assert exc.value.line == 2
        assert exc.value.col == 3

    @pytest.mark.parametrize("text, char, col", [("X1 + \0", "\0", 6), ("X1 % X2", "%", 4)], ids=["nul", "percent"])
    def test_skeleton_characters_refused(self, text, char, col):
        # classify's JSON skeleton holds a NUL placeholder and "%s" slots: no polynomial brings either.
        with pytest.raises(ParseError) as exc:
            parse_poly(text)
        assert (exc.value.message, exc.value.line, exc.value.col) == (f"unexpected character {char!r}", 1, col)

    def test_negative_exponent(self):
        with pytest.raises(ExponentNegative):
            parse_poly("X1^-2")

    def test_missing_exponent(self):
        with pytest.raises(ParseError):
            parse_poly("X1^X2")

    def test_implicit_multiplication_rejected(self):
        with pytest.raises(ParseError):
            parse_poly("2 X1")
        with pytest.raises(ParseError):
            parse_poly("X1 X2")

    def test_variable_index_zero(self):
        with pytest.raises(ParseError):
            parse_poly("X0")

    def test_variable_index_limit(self):
        # Every sample draws one random matrix per variable index.
        assert parse_poly("X256") == NcPoly.variable(256)
        for text, col in (("X257", 1), ("X1 + X9999999", 6)):
            with pytest.raises(ParseError) as exc:
                parse_poly(text)
            assert (exc.value.message, exc.value.line, exc.value.col) == (
                "variable index above 256",
                1,
                col,
            )

    @pytest.mark.parametrize(
        "template, line, col",
        [("X1^{}", 1, 4), ("{}*X1", 1, 1), ("X1 +\n  X{}", 2, 3), ("1/{}", 1, 3)],
        ids=["exponent", "coefficient", "index", "denominator"],
    )
    def test_digit_run_too_long(self, template, line, col):
        with pytest.raises(ParseError) as exc:
            parse_poly(template.format("1" * 5000))
        assert exc.value.message == "number too long (5000 digits)"
        assert (exc.value.line, exc.value.col) == (line, col)

    @pytest.mark.parametrize(
        "text, found, col",
        [("X\u0661", "X", 1), ("X\uff11", "X", 1), ("\u0662*X1", "\u0662", 1), ("X1 + X2^\u0663", "\u0663", 9)],
        ids=["arabic-indic-index", "fullwidth-index", "arabic-indic-coefficient", "arabic-indic-exponent"],
    )
    def test_only_ascii_digits_are_digits(self, text, found, col):
        # An 'X' without a digit 0-9 after it starts no token.
        with pytest.raises(ParseError) as exc:
            parse_poly(text)
        assert (exc.value.message, exc.value.line, exc.value.col) == (f"unexpected character {found!r}", 1, col)

    def test_unary_minus_on_variable_rejected(self):
        # the grammar only allows a sign on numeric literals
        with pytest.raises(ParseError):
            parse_poly("-X1")

    def test_zero_denominator(self):
        with pytest.raises(ParseError):
            parse_poly("1/0")

    def test_unbalanced_bracket(self):
        with pytest.raises(ParseError):
            parse_poly("[X1,X2")
        with pytest.raises(ParseError):
            parse_poly("(X1")

    def test_empty_input(self):
        with pytest.raises(ParseError):
            parse_poly("")


def _position(text, offset):
    err = ParseError.at("", text, offset)
    return err.line, err.col


def _token_view(text):
    """(kind, value, line, col) of each token _tokenize reads, its end
    included: the reference tokenizer's fields, the position counted from
    the token's offset."""
    view = []
    for k, tok in enumerate(_tokenize(text)):
        if not tok:
            kind, value = "end", None
        elif tok[0] == "X":
            kind, value = "var", int(tok[1:])
        elif tok.isdigit():
            kind, value = "int", int(tok)
        else:
            kind, value = tok, tok
        view.append((kind, value, *_position(text, _offset(text, k))))
    return view


def _outcome(tokenize, text):
    """The tokens, or the (message, line, col) of the error tokenizing raised."""
    try:
        return tokenize(text)
    except ParseError as exc:
        return exc.message, exc.line, exc.col


class TestTokenPositions:
    """Each token's line and column, counted from its offset only when an
    error is raised, match the running count of the reference tokenizer."""

    ALPHABET = list("X019+-*/^()[],@") + [" ", "\t", "\n"]

    def assert_matches_reference(self, text):
        got, want = _outcome(_token_view, text), _outcome(reference_tokenize, text)
        assert got == want, repr(text)
        if isinstance(want, tuple):
            return
        # Every parse error past the tokens names one of them.
        try:
            parse_poly(text)
        except ParseError as exc:
            assert (exc.line, exc.col) in [(t.line, t.col) for t in want], repr(text)

    def test_random_strings(self):
        rng = random.Random(31)
        for _ in range(3000):
            text = "".join(rng.choice(self.ALPHABET) for _ in range(rng.randint(0, 24)))
            self.assert_matches_reference(text)

    def test_stray_character_on_a_later_line(self):
        self.assert_matches_reference("X1 +\n  @")
        with pytest.raises(ParseError) as exc:
            parse_poly("X1 +\n  @")
        assert (exc.value.message, exc.value.line, exc.value.col) == ("unexpected character '@'", 2, 3)

    def test_end_of_input_after_a_trailing_newline(self):
        self.assert_matches_reference("X1 +\n")
        self.assert_matches_reference("X1\n\t\n")
        with pytest.raises(ParseError) as exc:
            parse_poly("X1 +\n")
        assert (exc.value.line, exc.value.col) == (2, 1)
        assert exc.value.message.endswith("found end of input")


# Inputs whose expansion is refused, with the column of the refusing operator.
RUNAWAY = [
    ("1^99999999", 2),
    ("X1^99999999", 3),
    ("(X1+X2)^40", 8),
    ("((X1^1000)^1000)", 5),
    ("(X1+X2)^16*(X1+X2)^16", 11),
    ("[(X1+X2)^8,(X1+X2)^9]", 1),
    ("(X1^16)^16*X1", 11),
    ("(" * 101 + "X1" + ")" * 101, 101),
    ("[" * 101 + "X1" + ",X2]" * 101, 101),
    ("(X1^16+X2^16)^16", 14),
    ("(X1+X2)^16 + (X1+X2)^16", 12),
]


class TestExpansionLimits:
    @pytest.mark.parametrize("text, col", RUNAWAY)
    def test_refused_before_expanding(self, text, col):
        start = time.perf_counter()
        with pytest.raises(ParseError) as exc:
            parse_poly(text)
        assert time.perf_counter() - start < 1.0
        assert (exc.value.line, exc.value.col) == (1, col)

    def test_limits_admit_their_edge(self):
        assert len(parse_poly("(X1+X2)^16").terms) == 65536
        assert parse_poly("(X1^16)^16") == NcPoly.monomial((1,) * 256)
        assert parse_poly("X1^256") == NcPoly.monomial((1,) * 256)
        # A constant is one term, whatever the sum it came from.
        assert parse_poly("(1+2)^256") == NcPoly.constant(3**256)
        assert parse_poly("(" * 100 + "X1" + ")" * 100) == X1
        # 65,536 words of degree 64: exactly the letter limit.
        assert len(parse_poly("(X1^4+X2^4)^16").terms) == 65536

    def test_other_errors_unchanged(self):
        # Syntax errors after a runaway operand still win: nothing expands first.
        with pytest.raises(ParseError) as exc:
            parse_poly("(X1+X2)^16 )")
        assert exc.value.message == "unexpected trailing ')'"


LIMIT_EDGES = [
    "(X1+X2)^16",
    "(X1^16)^16",
    "X1^256",
    "(1+2)^256",
    "(" * 100 + "X1" + ")" * 100,
    "(X1^4+X2^4)^16",
    "(X1+X2)^16 )",
]


def _parse_outcome(parse, text):
    """The polynomial, or the class, message, line and column of the error."""
    try:
        return parse(text)
    except ParseError as exc:
        return type(exc), exc.message, exc.line, exc.col


def _wrapped(rng, depth):
    """Random text: a random polynomial's print, inside brackets, powers,
    rational factors and parentheses, nested to depth."""
    if not depth:
        return poly_to_text(random_poly(rng, nvars=3, max_degree=3, max_terms=4))
    a, b = _wrapped(rng, depth - 1), _wrapped(rng, depth - 1)
    rational = f"{rng.randint(-5, 5)}/{rng.randint(1, 4)}"
    return rng.choice([
        f"[{a},{b}]",
        f"({a})^{rng.randint(0, 2)}",
        f"{rational}*({a}) - ({b})",
        f"(({a}))*{rational}*({b})",
        f"[({a}), {rational}] + {b}",
    ])


class TestReferenceParser:
    """parse_poly gives the reference parser's polynomial, or the same
    error class, message, line and column."""

    def assert_matches_reference(self, text):
        got = _parse_outcome(parse_poly, text)
        assert got == _parse_outcome(reference_parse_poly, text), repr(text)
        return got

    def test_wrapped_random_polys(self):
        rng = random.Random(47)
        for _ in range(150):
            text = _wrapped(rng, rng.randint(0, 2))
            assert isinstance(self.assert_matches_reference(text), NcPoly), text

    def test_random_strings(self):
        rng = random.Random(53)
        alphabet = TestTokenPositions.ALPHABET
        for _ in range(3000):
            self.assert_matches_reference("".join(rng.choice(alphabet) for _ in range(rng.randint(0, 24))))

    @pytest.mark.parametrize("text", ["X\u0661", "\u0662*X1", "X1 + X2^\u0663"])
    def test_non_ascii_digits(self, text):
        self.assert_matches_reference(text)

    @pytest.mark.parametrize("text", [t for t, _ in RUNAWAY] + LIMIT_EDGES)
    def test_limits(self, text):
        self.assert_matches_reference(text)


class TestPrint:
    def test_zero(self):
        assert poly_to_text(NcPoly.zero()) == "0"

    def test_single_word(self):
        assert poly_to_text(X1 * X2) == "X1*X2"

    def test_graded_lex_order(self):
        f = NcPoly.monomial((2, 1)) + NcPoly.monomial((1, 2)) + X1
        assert poly_to_text(f) == "X1 + X1*X2 + X2*X1"

    def test_leading_negative_reparses(self):
        f = -X1
        text = poly_to_text(f)
        assert text == "-1*X1"
        assert parse_poly(text) == f

    def test_rational_display(self):
        f = NcPoly.monomial((1,), Fraction(-3, 2)) + NcPoly.constant(Fraction(1, 3))
        assert poly_to_text(f) == "1/3 - 3/2*X1"

    def test_roundtrip_random_corpus(self):
        rng = random.Random(41)
        for _ in range(100):
            f = random_poly(rng, nvars=4, max_degree=4, max_terms=6)
            assert parse_poly(poly_to_text(f)) == f

    def test_print_parse_idempotent(self):
        samples = [
            "[X1,X2]^2",
            "3/2*X1 + X1",
            "(X1 + X2)*(X1 - X2)",
            "0",
            "-5",
            "X3*X3*X3",
        ]
        for text in samples:
            once = poly_to_text(parse_poly(text))
            assert poly_to_text(parse_poly(once)) == once

    # Scalars print as "n" or "n/m" in lowest terms, in polynomials and matrices alike.
    def test_ints_print_as_their_fraction(self):
        for x in (0, 1, -1, 7, -12345, 2**64 + 3, -(2**64) - 3, 10**40):
            assert poly_to_text(NcPoly.constant(x)) == str(Fraction(x)), x
            assert matrix_to_text(MatrixQ([[x, -x], [0, 1]])) == f"{x},{-x};0,1", x

    def test_fractions_in_lowest_terms(self):
        for x, text in (
            (Fraction(0), "0"), (Fraction(6, 4), "3/2"), (Fraction(-3, 9), "-1/3"),
            (Fraction(5), "5"), (Fraction(2**70, 3), f"{2**70}/3"),
        ):
            assert poly_to_text(NcPoly.constant(x)) == text, x
            assert poly_to_text(NcPoly.monomial((1,), x) + X2) == (f"{text}*X1 + X2" if x else "X2"), x
            assert matrix_to_text(MatrixQ([[x, 1], [0, x]])) == f"{text},1;0,{text}", x


class TestMatrixLiterals:
    def test_parse(self):
        m = parse_matrix("1,0;0,-1")
        assert m == MatrixQ.diagonal([1, -1])

    def test_rational_entries(self):
        m = parse_matrix("1/2,0;0,-3/4")
        assert m.rows[0][0] == Fraction(1, 2)
        assert m.rows[1][1] == Fraction(-3, 4)

    def test_roundtrip(self):
        rng = random.Random(42)
        for d in (1, 2, 3):
            m = MatrixQ(
                [
                    [Fraction(rng.randint(-9, 9), rng.randint(1, 9)) for _ in range(d)]
                    for _ in range(d)
                ]
            )
            assert parse_matrix(matrix_to_text(m)) == m

    def test_repr_holds_a_literal(self):
        # MatrixQ's repr prints through matrix_to_text.
        assert repr(MatrixQ.identity(2)) == "MatrixQ('1,0;0,1')"
        m = MatrixQ([[Fraction(-3, 4), 0], [2, Fraction(1, 9)]])
        head, text, tail = repr(m).split("'")
        assert (head, tail) == ("MatrixQ(", ")")
        assert parse_matrix(text) == m

    def test_not_square(self):
        with pytest.raises(DimensionMismatch):
            parse_matrix("1,2;3")

    def test_bad_entry(self):
        with pytest.raises(ValueError):
            parse_matrix("1,x;0,1")
        with pytest.raises(ValueError):
            parse_matrix("1.5,0;0,1")

    @pytest.mark.parametrize("entry", ("\u0661", "1/\u0662", "\uff11"))
    def test_only_ascii_digits_are_digits(self, entry):
        with pytest.raises(ValueError, match=f"bad matrix entry '{entry}'"):
            parse_matrix(f"{entry},0;0,1")

    @pytest.mark.parametrize("entry", ("1/0", "0/0", "-3/00"))
    def test_zero_denominator(self, entry):
        with pytest.raises(ValueError, match=f"zero denominator in matrix entry '{entry}'"):
            parse_matrix(f"1,{entry};0,1")

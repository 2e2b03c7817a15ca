import random
from fractions import Fraction

import pytest

from helpers import random_poly
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
from ncspan.text import format_scalar

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


class TestFormatScalar:
    def test_ints_print_as_their_fraction(self):
        for x in (0, 1, -1, 7, -12345, 2**64 + 3, -(2**64) - 3, 10**40):
            assert format_scalar(x) == str(Fraction(x)), x

    def test_bools_print_as_digits(self):
        assert format_scalar(True) == str(Fraction(True)) == "1"
        assert format_scalar(False) == str(Fraction(False)) == "0"

    def test_fractions_in_lowest_terms(self):
        for x in (Fraction(0), Fraction(6, 4), Fraction(-3, 9), Fraction(5), Fraction(2**70, 3)):
            assert format_scalar(x) == str(Fraction(x)), x


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

    def test_not_square(self):
        with pytest.raises(DimensionMismatch):
            parse_matrix("1,2;3")

    def test_bad_entry(self):
        with pytest.raises(ValueError):
            parse_matrix("1,x;0,1")
        with pytest.raises(ValueError):
            parse_matrix("1.5,0;0,1")

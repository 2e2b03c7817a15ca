import copy
import pickle
import random
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import ncspan.poly
from helpers import (
    assert_integer_form,
    battery_poly,
    random_poly,
    random_word,
    reference_clean_terms,
    reference_commutator_obstruction,
    reference_components,
    reference_cyclic_representative,
    reference_delta_terms,
    reference_product,
    reference_scale,
    reference_strip,
    reference_substitute,
    reference_substitute_terms,
    reference_sum,
)
from ncspan import MissingAssignment, NcPoly, commutator, cyclic_representative, delta, parse_poly
from ncspan.cli import _read_corpus

X1 = NcPoly.variable(1)
X2 = NcPoly.variable(2)
X3 = NcPoly.variable(3)

words = st.lists(st.integers(1, 3), max_size=4).map(tuple)
polys = st.dictionaries(words, st.integers(-4, 4), max_size=4).map(NcPoly)
# Images for substitution: polynomials (zero and constants among them),
# plain ints and Fractions.
images = st.one_of(
    polys,
    st.integers(-3, 3),
    st.fractions(min_value=-2, max_value=2, max_denominator=4),
)
assignments = st.fixed_dictionaries({1: images, 2: images, 3: images})
# Rational coefficients, whose denominators cancel in sums, products and
# parts, and polynomials of either kind.
scalars = st.fractions(min_value=-3, max_value=3, max_denominator=6)
rational_polys = st.dictionaries(words, scalars, max_size=4).map(NcPoly)
either_polys = st.one_of(polys, rational_polys)
rational_assignments = st.fixed_dictionaries({i: st.one_of(images, rational_polys) for i in (1, 2, 3)})


class TestArithmetic:
    def test_additive_inverse(self):
        assert (X1 + (-X1)).is_zero()
        assert len((X1 + (-X1)).terms) == 0

    def test_add_keeps_distinct_words(self):
        f = X1 * X2 + X2 * X1
        assert len(f.terms) == 2

    def test_exact_rational_add(self):
        half = NcPoly.monomial((1,), Fraction(1, 2))
        assert half + half == X1

    def test_mul_concatenates(self):
        assert X1 * X2 == NcPoly.monomial((1, 2))

    def test_mul_is_noncommutative(self):
        f = (X1 + X2) * (X1 - X2)
        # no cancellation across X1*X2 and X2*X1
        assert len(f.terms) == 4
        assert f.coefficient((1, 2)) == -1
        assert f.coefficient((2, 1)) == 1

    def test_commutator_has_two_terms(self):
        c = commutator(X1, X2)
        assert c == X1 * X2 - X2 * X1
        assert sorted(c.terms.values()) == [Fraction(-1), Fraction(1)]

    def test_scalar_multiplication(self):
        assert 3 * X1 == X1.scale(3)
        assert Fraction(1, 2) * (2 * X1) == X1

    def test_scalar_minus_poly(self):
        assert 1 - X1 == NcPoly.one() - X1
        assert Fraction(1, 2) - X1 == NcPoly.constant(Fraction(1, 2)) + (-X1)

    def test_other_operands_are_not_implemented(self):
        # Each operator returns NotImplemented for a str, so Python raises
        # TypeError, and == falls back to identity.
        for op in (lambda f: f + "a", lambda f: "a" + f, lambda f: f - "a", lambda f: f * "a", lambda f: "a" * f):
            with pytest.raises(TypeError):
                op(X1)
        assert (X1 == "a") is False and (X1 != "a") is True

    def test_pow(self):
        assert X1 ** 0 == NcPoly.one()
        assert X1 ** 3 == NcPoly.monomial((1, 1, 1))
        with pytest.raises(ValueError):
            X1 ** -1
        # Unchecked, X1 ** True would be X1.
        for k in (True, 2.0):
            with pytest.raises(TypeError, match="exponent"):
                X1 ** k

    def test_bad_variable_index(self):
        with pytest.raises(ValueError):
            NcPoly.variable(0)
        with pytest.raises(ValueError):
            NcPoly({(0,): 1})

    @pytest.mark.parametrize("word", [(1.5,), (1.0,), (True,), ("1",), (2, False)], ids=repr)
    def test_non_int_letter_refused(self, word):
        # A letter is an int, not merely equal to one: (1.0,) would print X1.0.
        with pytest.raises(TypeError, match="not an int"):
            NcPoly({word: 1})

    def test_non_int_letter_refused_before_terms_merge(self):
        # (1.0,) hashes like (1,); it is refused before the two could merge.
        with pytest.raises(TypeError, match="float"):
            NcPoly([((1,), 1), ((1.0,), 1)])

    def test_non_int_letter_refused_by_constructors(self):
        with pytest.raises(TypeError, match="bool"):
            NcPoly.variable(True)
        with pytest.raises(TypeError, match="bool"):
            NcPoly.monomial((2, True))


@settings(max_examples=100)
@given(polys, polys, polys)
def test_mul_associative(f, g, h):
    assert (f * g) * h == f * (g * h)


@settings(max_examples=100)
@given(polys, polys, polys)
def test_mul_distributes(f, g, h):
    assert f * (g + h) == f * g + f * h
    assert (f + g) * h == f * h + g * h


@given(polys, polys)
def test_add_commutative(f, g):
    assert f + g == g + f


class TestExactCoefficients:
    @pytest.mark.parametrize(
        "make",
        [
            lambda: NcPoly.constant(0.1),
            lambda: parse_poly("X1").scale(0.1),
            lambda: NcPoly.monomial((1,), True),
            lambda: NcPoly({(1, 2): "1"}),
            lambda: X1 * False,
        ],
        ids=["constant-float", "scale-float", "monomial-bool", "str", "mul-bool"],
    )
    def test_inexact_coefficients_refused(self, make):
        # As for a MatrixQ entry: a coefficient is an int or a Fraction.
        with pytest.raises(TypeError, match="not an int or a Fraction"):
            make()

    def test_comparison_with_a_bool_stays_a_bool(self):
        assert (parse_poly("X1") == True) is False
        assert (parse_poly("1") == True) is True
        assert (NcPoly.zero() == 0) is True


def test_ring_axioms_random_triples():
    rng = random.Random(2024)
    for _ in range(100):
        f, g, h = (random_poly(rng, max_terms=3) for _ in range(3))
        assert (f * g) * h == f * (g * h)
        assert f * (g + h) == f * g + f * h


class TestHash:
    """The hash is kept in a slot after the first call; equal polynomials,
    however they were built, still hash equal, hashed or not."""

    @staticmethod
    def builds():
        """X1*X2 + X2*X1, built eight ways."""
        target = NcPoly({(1, 2): 1, (2, 1): 1})
        return [
            target,
            NcPoly([((2, 1), Fraction(3, 3)), ((1, 2), 1), ((1,), 0)]),
            X1 * X2 + X2 * X1,
            (X1 + X2) * (X1 + X2) - X1 * X1 - X2 * X2,
            (X1 * X1).substitute({1: X1 + X2}) - X1 * X1 - X2 * X2,
            (target + X3 * X1).strip_variable(3)[1],
            dict((target + X1 * X1 * X2).homogeneous_components_in(1))[1],
            delta(X1 * X1, 1, 2),
        ]

    def test_equal_builds_hash_equal(self):
        first = self.builds()
        want = hash(frozenset(first[0].terms.items()))
        assert all(p == first[0] for p in first)
        # The first hash of each, then again from the kept value.
        assert [hash(p) for p in first] == [want] * len(first)
        assert [hash(p) for p in first] == [want] * len(first)
        # Fresh builds against hashed ones, as a memo's dict lookups see them.
        table = {p: k for k, p in enumerate(first)}
        assert len(table) == 1
        assert all(table[p] == len(first) - 1 for p in self.builds())

    @given(polys, polys)
    def test_sum_and_product_orders(self, p, q):
        assert hash(p + q) == hash(q + p)
        assert hash(p * q - q * p) == hash(-(q * p - p * q))
        before = hash(p)
        assert hash(p) == before == hash(NcPoly(dict(reversed(list(p.terms.items())))))


class TestDegrees:
    def test_degree(self):
        assert commutator(X1, X2).degree() == 2

    def test_degree_in(self):
        assert NcPoly.monomial((1, 2, 1)).degree_in(1) == 2

    def test_zero_degree_is_absent(self):
        assert NcPoly.zero().degree() is None
        assert NcPoly.zero().degree_in(1) is None

    def test_constant_degree(self):
        assert NcPoly.constant(3).degree() == 0

    def test_nvars(self):
        assert NcPoly.zero().nvars == 0
        assert NcPoly.constant(5).nvars == 0
        assert (X1 * X3).nvars == 3

    @pytest.mark.parametrize("index", [True, 1.0, Fraction(1)], ids=repr)
    def test_index_must_be_an_int(self, index):
        """A variable index equal to 1 that is not an int is refused, by the
        rule for a word's letters, not read as X1."""
        f = X1 * X1 * X2 + X2
        for call in (
            f.degree_in,
            f.min_degree_in,
            f.is_homogeneous_in,
            f.homogeneous_components_in,
            f.strip_variable,
            lambda i: f.substitute_one(i, X3),
            lambda i: f.coefficient((i, 2)),
            lambda i: f.substitute({i: X3, 2: X2}),
        ):
            with pytest.raises(TypeError, match="not an int"):
                call(index)

    def test_coefficient_and_substitute_refuse_index_below_1(self):
        f = 3 * X1 * X2 + X2
        with pytest.raises(ValueError, match=">= 1"):
            f.coefficient((0, 2))
        with pytest.raises(ValueError, match=">= 1"):
            f.substitute({0: X1, 1: X3, 2: X2})
        assert f.coefficient([1, 2]) == 3 and f.substitute({1: X3, 2: X2}) == X2 + 3 * X3 * X2


class TestHomogeneousComponents:
    def test_split_by_degree(self):
        f = X1 + X1 * X1
        assert f.homogeneous_components_in(1) == [(1, X1), (2, X1 * X1)]

    def test_already_homogeneous(self):
        f = X1 * X2 + X2 * X1
        assert f.homogeneous_components_in(1) == [(1, f)]

    def test_constant_component(self):
        f = NcPoly.constant(3) + X1
        assert f.homogeneous_components_in(1) == [(0, NcPoly.constant(3)), (1, X1)]

    @given(polys, st.integers(1, 3))
    def test_components_sum_back(self, f, i):
        total = NcPoly.zero()
        for _, comp in f.homogeneous_components_in(i):
            total = total + comp
        assert total == f


class TestStripVariable:
    def test_basic_split(self):
        f = X1 * X2 + X2
        g, h = f.strip_variable(1)
        assert g == X1 * X2 and h == X2

    def test_variable_everywhere(self):
        f = X1 * X2 + X2
        g, h = f.strip_variable(2)
        assert g == f and h.is_zero()

    def test_constant(self):
        g, h = NcPoly.constant(5).strip_variable(1)
        assert g.is_zero() and h == NcPoly.constant(5)

    @given(polys, st.integers(1, 3))
    def test_strip_identities(self, f, i):
        g, h = f.strip_variable(i)
        assert g + h == f
        assert all(i in w for w in g.terms)
        assert all(i not in w for w in h.terms)
        assert h == f.substitute_one(i, NcPoly.zero())
        assert g == f - f.substitute_one(i, NcPoly.zero())


class TestMultilinear:
    def test_commutator_is_multilinear(self):
        assert commutator(X1, X2).is_multilinear()

    def test_square_is_not(self):
        assert not (X1 * X1).is_multilinear()

    def test_gap_in_variables_is_not(self):
        assert not (X1 * X3).is_multilinear()


class TestSubstitute:
    def test_swap(self):
        f = X1 * X2
        assert f.substitute({1: X2, 2: X1}) == X2 * X1

    def test_expand_square(self):
        f = X1 * X1
        expected = X1 * X1 + X1 * X2 + X2 * X1 + X2 * X2
        assert f.substitute({1: X1 + X2}) == expected

    def test_missing_assignment(self):
        with pytest.raises(MissingAssignment) as exc:
            (X1 * X2).substitute({1: X1})
        assert exc.value.variable == 2

    @settings(max_examples=60)
    @given(polys, polys)
    def test_homomorphism(self, f, g):
        assignment = {1: X2, 2: X1 + X3, 3: NcPoly.constant(2)}
        lhs = (f * g).substitute(assignment)
        rhs = f.substitute(assignment) * g.substitute(assignment)
        assert lhs == rhs

    @given(polys, polys)
    def test_additive(self, f, g):
        assignment = {1: X3 * X1, 2: NcPoly.zero(), 3: X2}
        assert (f + g).substitute(assignment) == f.substitute(
            assignment
        ) + g.substitute(assignment)

    @settings(max_examples=150)
    @given(polys, assignments)
    # Terms of different words cancel.
    @example(X1 * X2 - X2 * X1, {1: X3, 2: X3, 3: X3})
    # Terms of one word's expansion cancel.
    @example(X1 * X2, {1: X2 + X2 * X2, 2: X2 - X2 * X2, 3: 0})
    # Zero, int and Fraction images.
    @example(X1 * X2 * X3 + X2 + 3, {1: NcPoly.zero(), 2: 2, 3: Fraction(-1, 3)})
    def test_matches_term_by_term(self, f, assignment):
        got = f.substitute(assignment)
        assert got == reference_substitute(f, assignment)
        assert all(got.terms.values())
        assert got.nvars == max((max(w) for w in got.terms if w), default=0)

    def test_one_accumulation(self, monkeypatch):
        # All the words expand into one stream that is combined once.
        f = (X1 + X2) ** 3 - X3
        assignment = {1: X1 + X3, 2: X2 * X1, 3: Fraction(1, 2)}
        clean = ncspan.poly._clean_terms
        calls = []
        monkeypatch.setattr(ncspan.poly, "_clean_terms", lambda *args: calls.append(1) or clean(*args))
        f.substitute(assignment)
        assert len(calls) == 1

    def test_image_must_be_polynomial_or_scalar(self):
        with pytest.raises(TypeError):
            (X1 * X2).substitute({1: X1, 2: 1.5})


class TestCommutatorSums:
    def test_single_commutator(self):
        assert commutator(X1, X2).is_sum_of_commutators()

    def test_variable_is_not(self):
        assert not X1.is_sum_of_commutators()
        assert X1.commutator_obstruction() == (1,)

    def test_cyclic_pair(self):
        f = NcPoly.monomial((1, 2, 3)) - NcPoly.monomial((3, 1, 2))
        # oracle: same polynomial built as an explicit bracket
        assert f == commutator(X1 * X2, X3)
        assert f.is_sum_of_commutators()

    def test_constant_obstruction(self):
        assert NcPoly.constant(2).commutator_obstruction() == ()

    def test_zero(self):
        assert NcPoly.zero().is_sum_of_commutators()

    def test_random_bracket_sums_pass(self):
        rng = random.Random(99)
        for _ in range(100):
            f = NcPoly.zero()
            for _ in range(rng.randint(1, 3)):
                u = random_poly(rng, max_terms=2, max_degree=3)
                v = random_poly(rng, max_terms=2, max_degree=3)
                f = f + commutator(u, v)
            assert f.is_sum_of_commutators()

    def test_obstruction_is_reported_with_nonzero_class_sum(self):
        rng = random.Random(100)
        found = 0
        for _ in range(200):
            f = random_poly(rng)
            witness = f.commutator_obstruction()
            if witness is None:
                continue
            found += 1
            class_sum = sum(
                (
                    coeff
                    for word, coeff in f.terms.items()
                    if cyclic_representative(word) == witness
                ),
                Fraction(0),
            )
            assert class_sum != 0
        assert found > 150  # generic polynomials are rarely commutator sums


def test_cyclic_representative_is_minimal_rotation():
    rng = random.Random(5)
    for length in range(81):
        for letters in (1, 2, 3):
            for _ in range(12):
                w = random_word(rng, letters, length, min_len=length)
                assert cyclic_representative(w) == reference_cyclic_representative(w), w


class TestLeastRotation:
    """Duval's linear-time least rotation against the least of all rotations
    on the words where a periodic or block structure could trip it."""

    def test_periodic_words(self):
        words = [(1,) * n for n in range(10)] + [(2,) * 7]
        for k in range(1, 12):
            words += [(1, 2) * k, (2, 1) * k, (1, 1, 2) * k, (2, 1, 1) * k, (1, 2, 1, 3) * k]
            words += [(1, 2) * k + (1,), (2, 1) * k + (2, 2), (3, 2, 1) * k + (3, 2)]
        for w in words:
            assert cyclic_representative(w) == reference_cyclic_representative(w), w

    @pytest.mark.parametrize("k", range(1, 7))
    def test_words_of_block_powers(self, k):
        for w in parse_poly(f"(X1^4+X2^4)^{k}").terms:
            assert cyclic_representative(w) == reference_cyclic_representative(w), w

    def test_obstruction_unchanged_on_corpus_and_battery(self):
        corpus = Path(__file__).parent / "golden" / "corpus.txt"
        polys = [f for _, f in _read_corpus(str(corpus))]
        rng = random.Random(2026)
        polys += [battery_poly(rng) for _ in range(200)]
        polys += [parse_poly(text) for text in ("(X1^4+X2^4)^6", "[X1^3*X2,X2*X1^2]", "(X1*X2)^3 - (X2*X1)^3")]
        for f in polys:
            assert f.commutator_obstruction() == reference_commutator_obstruction(f), f


class TestCyclicRepresentativeReadsItsWord:
    """cyclic_representative reads its word like NcPoly.monomial and every
    other public word argument: as a tuple of int letters, each >= 1."""

    def test_list_gives_tuple(self):
        got = cyclic_representative([2, 1])
        assert type(got) is tuple and got == (1, 2)

    @pytest.mark.parametrize("word", [(True, 2), ("b", "a"), (2.0, 1), "ba"], ids=repr)
    def test_non_int_letter_refused(self, word):
        with pytest.raises(TypeError, match="not an int"):
            cyclic_representative(word)

    def test_letter_below_one_refused(self):
        with pytest.raises(ValueError, match=">= 1"):
            cyclic_representative((0, 1))

    def test_obstruction_labels_its_words_unchecked(self, monkeypatch):
        # The polynomial's words were checked when it was built.
        f = parse_poly("X1*X2*X1 + 2*X2*X1*X1 - [X2,X3]^2 + X3*X3*X2")
        calls = []
        monkeypatch.setattr(ncspan.poly, "_letters", lambda word: calls.append(word) or tuple(word))
        assert f.commutator_obstruction() == reference_commutator_obstruction(f)
        assert calls == []


def test_equality_is_canonical():
    f = NcPoly({(1,): Fraction(2, 4)})
    g = NcPoly.monomial((1,), Fraction(1, 2))
    assert f == g and hash(f) == hash(g)
    assert NcPoly({(1,): 0}) == NcPoly.zero()


class TestIntegerForm:
    """Integer numerators over one denominator, each result renormalised by
    one gcd pass, against the Fraction arithmetic kept in helpers: sums,
    products, scale, substitute, delta, strip, components and the
    commutator obstruction, on the hypothesis strategies and a seeded
    battery."""

    @staticmethod
    def check(f, g, c, assignment):
        negated = reference_scale(g, -1)
        pairs = [
            (f + g, reference_sum(f, g)),
            (-g, negated),
            (f - g, reference_clean_terms(negated.items(), f.terms)),
            (f * g, reference_product(f, g)),
            (f.scale(c), reference_scale(f, c)),
            (c * f, reference_scale(f, c)),
            (f.substitute(assignment), reference_substitute_terms(f, assignment)),
        ]
        for i in (1, 2, 3):
            with_i, without_i = f.strip_variable(i)
            pairs += zip((with_i, without_i), reference_strip(f, i))
            got = f.homogeneous_components_in(i)
            want = reference_components(f, i)
            assert [j for j, _ in got] == [j for j, _ in want]
            pairs += [(p, terms) for (_, p), (_, terms) in zip(got, want)]
            if with_i:
                m = with_i.nvars + 1
                pairs.append((delta(with_i, i, m), reference_delta_terms(with_i, i, m)))
        for got, want in pairs:
            assert_integer_form(got)
            assert got.terms == want
            assert got == NcPoly(want)
        assert f.commutator_obstruction() == reference_commutator_obstruction(f)

    @settings(max_examples=150)
    @given(either_polys, either_polys, scalars, rational_assignments)
    def test_hypothesis(self, f, g, c, assignment):
        self.check(f, g, c, assignment)

    def test_seeded_battery(self):
        rng = random.Random(4040)

        def rational():
            return Fraction(rng.choice((1, -1, 2, -3, 5)), rng.choice((1, 2, 3, 4, 6, 9)))

        for _ in range(200):
            f = battery_poly(rng).scale(rational())
            g = random_poly(rng, max_terms=4).scale(rational())
            assignment = {i: rng.choice((random_poly(rng, max_terms=2, max_degree=2).scale(rational()), rational(), 0)) for i in (1, 2, 3)}
            self.check(f, g, rational(), assignment)

    def test_products_of_rational_powers(self):
        f = parse_poly("1/2*X1 + 1/3*X2 - 5/7*X3")
        want = {(): Fraction(1)}
        for k in range(1, 6):
            want = reference_product(NcPoly(want), f)
            got = f**k
            assert_integer_form(got)
            assert got.terms == want and got.integer_form()[0] == 42**k


class TestCanonicalForm:
    """Equal polynomials have one (denominator, numerators) form, whatever
    built them."""

    @staticmethod
    def routes():
        """1/2*X1 + 1/3*X2, built nine ways."""
        return [
            parse_poly("1/2*X1 + 1/3*X2"),
            NcPoly({(1,): Fraction(1, 2), (2,): Fraction(1, 3)}),
            NcPoly([((1,), Fraction(1, 4)), ((2,), Fraction(2, 6)), ((1,), Fraction(1, 4)), ((3,), 0)]),
            (3 * X1 + 2 * X2).scale(Fraction(1, 6)),
            X1.scale(Fraction(1, 2)) + X2 * Fraction(1, 3),
            parse_poly("1/2*X1 + 1/3*X2 + 1/7*X3").strip_variable(3)[1],
            dict(parse_poly("1/2*X1 + 1/3*X2 - 2/5*X1*X1").homogeneous_components_in(1))[1] + parse_poly("1/3*X2"),
            (X1 + X2).substitute({1: Fraction(1, 2) * X1, 2: X3 * Fraction(1, 3)}).substitute_one(3, X2),
            parse_poly("(6*X1 + 4*X2) * 1/12"),
        ]

    def test_routes_agree(self):
        routes = self.routes()
        first = routes[0]
        assert first.integer_form() == (6, {(1,): 3, (2,): 2})
        for p in routes:
            assert_integer_form(p)
            assert p == first and hash(p) == hash(first) and p.terms == first.terms
            assert p.integer_form() == first.integer_form()
        table = {p: k for k, p in enumerate(routes)}
        assert len(table) == 1 and all(table[p] == len(routes) - 1 for p in self.routes())

    @given(either_polys)
    def test_difference_is_zero_over_one(self, f):
        zero = f - f
        assert zero.integer_form() == (1, {})
        assert zero == NcPoly.zero() == 0 and hash(zero) == hash(NcPoly.zero())

    @given(either_polys, st.integers(1, 9))
    def test_scale_by_a_third_and_back(self, f, k):
        assert f.scale(Fraction(1, 3)).scale(3) == f
        assert f.scale(Fraction(k, 7)).scale(Fraction(7, k)) == f
        assert_integer_form(f.scale(Fraction(k, 3)))

    @pytest.mark.parametrize("round_trip", [lambda v: pickle.loads(pickle.dumps(v)), copy.deepcopy, copy.copy])
    def test_pickle_round_trips(self, round_trip):
        for f in [NcPoly.zero(), NcPoly.constant(Fraction(-3, 6)), X1 * X2 - X2 * X1, *self.routes()]:
            again = round_trip(f)
            assert again == f and hash(again) == hash(f) and again.terms == f.terms
            assert_integer_form(again)

    def test_constants(self):
        half = NcPoly.constant(Fraction(3, 6))
        assert half.integer_form() == (2, {(): 1})
        assert half == Fraction(1, 2) and half != 1 and half.coefficient(()) == Fraction(1, 2)
        assert NcPoly.constant(-4) == -4 and NcPoly.constant(-4).coefficient((1,)) == 0
        for zero in (NcPoly.constant(0), NcPoly({(1,): Fraction(0, 5)}), X1.scale(0)):
            assert zero.integer_form() == (1, {}) and zero == 0

    def test_shape_is_read_once(self):
        f = parse_poly("X1*X3 - 1/2*X2")
        assert f._nvars is None and f._degree is None
        assert f.nvars == 3 and f.degree() == 2
        assert (f._nvars, f._degree) == (3, 2)
        zero = NcPoly.zero()
        assert zero.nvars == 0 and zero.degree() is None

    def test_integer_form_is_read_only(self):
        f = parse_poly("1/2*X1 - 1/3*X2")
        den, num = f.integer_form()
        assert (den, dict(num)) == (6, {(1,): 3, (2,): -2})
        with pytest.raises(TypeError):
            num[(1,)] = 1
        assert f.integer_form() == (6, {(1,): 3, (2,): -2})

    def test_map_words_combines_like_terms(self):
        f = parse_poly("1/2*X1*X2 - 1/2*X2*X1 + 1/3*X3")
        # Sorting each word's letters sends X1*X2 and X2*X1 to one word.
        merged = f.map_words(lambda w: (tuple(sorted(w)),))
        assert_integer_form(merged)
        assert merged == parse_poly("1/3*X3") and merged.integer_form() == (3, {(3,): 1})
        doubled = f.map_words(lambda w: (w, w + w))
        assert_integer_form(doubled)
        assert doubled == f + parse_poly("1/2*X1*X2*X1*X2 - 1/2*X2*X1*X2*X1 + 1/3*X3*X3")
        assert f.map_words(lambda w: ()).integer_form() == (1, {})

import random
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import ncspan.poly
from helpers import random_poly, random_word, reference_substitute
from ncspan import MissingAssignment, NcPoly, commutator, cyclic_representative

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

    def test_pow(self):
        assert X1 ** 0 == NcPoly.one()
        assert X1 ** 3 == NcPoly.monomial((1, 1, 1))
        with pytest.raises(ValueError):
            X1 ** -1

    def test_bad_variable_index(self):
        with pytest.raises(ValueError):
            NcPoly.variable(0)
        with pytest.raises(ValueError):
            NcPoly({(0,): 1})


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


def test_ring_axioms_random_triples():
    rng = random.Random(2024)
    for _ in range(100):
        f, g, h = (random_poly(rng, max_terms=3) for _ in range(3))
        assert (f * g) * h == f * (g * h)
        assert f * (g + h) == f * g + f * h


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
        raw = ncspan.poly._raw
        calls = []
        monkeypatch.setattr(ncspan.poly, "_raw", lambda terms: calls.append(1) or raw(terms))
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
    for _ in range(50):
        w = random_word(rng, 3, 5, min_len=1)
        rep = cyclic_representative(w)
        rotations = {w[k:] + w[:k] for k in range(len(w))}
        assert rep in rotations
        assert rep == min(rotations)


def test_equality_is_canonical():
    f = NcPoly({(1,): Fraction(2, 4)})
    g = NcPoly.monomial((1,), Fraction(1, 2))
    assert f == g and hash(f) == hash(g)
    assert NcPoly({(1,): 0}) == NcPoly.zero()

import random
import re
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import random_poly, reference_delta
from ncspan import (
    NcPoly,
    NotReducible,
    OracleFailed,
    SampleConfig,
    StepKind,
    VariableCollision,
    classify_span,
    commutator,
    delta,
    nontriviality_oracle,
    reduce_to_multilinear,
    resubstitute_check,
)

X1 = NcPoly.variable(1)
X2 = NcPoly.variable(2)
X3 = NcPoly.variable(3)

# Accepts any nonzero polynomial; lets the pure pipeline logic be tested
# without matrix sampling.
nonzero_oracle = lambda f: not f.is_zero()


def random_homogeneous(rng, i=1, k=2, extra_vars=(2, 3), max_extra=2, terms=3):
    """Random polynomial homogeneous of degree k in X_i (X_i in every word)."""
    while True:
        term_map = {}
        for _ in range(rng.randint(1, terms)):
            letters = [i] * k + [
                rng.choice(extra_vars) for _ in range(rng.randint(0, max_extra))
            ]
            rng.shuffle(letters)
            coeff = rng.randint(1, 4) * rng.choice((-1, 1))
            word = tuple(letters)
            term_map[word] = term_map.get(word, 0) + coeff
        f = NcPoly(term_map)
        if not f.is_zero() and f.degree_in(i) == k and f.min_degree_in(i) == k:
            return f


class TestDelta:
    def test_square(self):
        assert delta(X1 ** 2, 1, 2) == X1 * X2 + X2 * X1

    def test_linear_input_collapses(self):
        assert delta(commutator(X1, X2), 1, 3).is_zero()

    def test_cube(self):
        # independent expansion of (X1+X2)^3 minus the two pure cubes:
        # exactly the six mixed words, each with coefficient 1
        expected = NcPoly(
            {
                (1, 1, 2): 1,
                (1, 2, 1): 1,
                (2, 1, 1): 1,
                (1, 2, 2): 1,
                (2, 1, 2): 1,
                (2, 2, 1): 1,
            }
        )
        assert delta(X1 ** 3, 1, 2) == expected

    def test_fresh_variable_collision(self):
        with pytest.raises(VariableCollision):
            delta(X1 * X2, 1, 2)

    def test_variable_must_occur_everywhere(self):
        with pytest.raises(ValueError):
            delta(X1 + X2, 1, 3)
        with pytest.raises(ValueError):
            delta(NcPoly.zero(), 1, 2)

    def test_surviving_words_contain_both_variables(self):
        rng = random.Random(21)
        for _ in range(40):
            k = rng.randint(1, 4)
            f = random_homogeneous(rng, k=k)
            m = f.nvars + 1
            out = delta(f, 1, m)
            for word in out.terms:
                assert 1 in word and m in word

    def test_degree_drops(self):
        rng = random.Random(22)
        for _ in range(20):
            k = rng.randint(2, 4)
            f = random_homogeneous(rng, k=k)
            out = delta(f, 1, f.nvars + 1)
            assert out.degree_in(1) <= k - 1


@st.composite
def polarizations(draw):
    """(f, i, m): f on 1-4 variables with X_i 0-5 times per word and rational
    coefficients; m is mostly fresh, sometimes an index that may occur."""
    n = draw(st.integers(1, 4))
    i = draw(st.integers(1, n))
    others = st.lists(st.integers(1, n).filter(lambda x: x != i), max_size=3)
    terms = {}
    for _ in range(draw(st.integers(0, 4))):
        letters = draw(others) + [i] * draw(st.integers(0, 5))
        word = tuple(draw(st.permutations(letters)))
        terms[word] = draw(st.fractions(-3, 3, max_denominator=6))
    f = NcPoly(terms)
    m = draw(st.one_of(st.just(max(f.nvars, i) + 1), st.integers(1, n + 1)))
    return f, i, m


class TestDeltaMatchesSubstitution:
    """delta by word surgery against the substitution kept in helpers."""

    @settings(max_examples=400, derandomize=True)
    @given(polarizations())
    def test_same_polynomial_or_same_refusal(self, case):
        f, i, m = case
        try:
            want = reference_delta(f, i, m)
        except (VariableCollision, ValueError) as exc:
            with pytest.raises(type(exc), match=f"^{re.escape(str(exc))}$"):
                delta(f, i, m)
            return
        got = delta(f, i, m)
        assert got == want
        assert all(type(c) is Fraction and c for c in got.terms.values())
        assert got.nvars == want.nvars

    def test_wide_power(self):
        f = (X1 + X2) ** 6
        g, _ = f.strip_variable(2)  # every word with X2, X1 up to 5 times
        assert delta(g, 2, 3) == reference_delta(g, 2, 3)
        assert delta(X1 ** 7, 1, 2) == reference_delta(X1 ** 7, 1, 2)
        assert len(delta(X1 ** 7, 1, 2)) == 2 ** 7 - 2


class TestResubstitute:
    def test_square_identity(self):
        f = X1 ** 2
        fp = delta(f, 1, 2)
        assert fp.substitute_one(2, X1) == f.scale(2)  # (2^2 - 2) f
        assert resubstitute_check(f, fp, 1, 2)

    def test_cube_identity(self):
        f = X1 ** 3
        fp = delta(f, 1, 2)
        assert fp.substitute_one(2, X1) == f.scale(6)  # (2^3 - 2) f
        assert resubstitute_check(f, fp, 1, 2)

    def test_degree_one_violates_precondition(self):
        f = X1 * X2
        with pytest.raises(ValueError):
            resubstitute_check(f, delta(f, 1, 3), 1, 3)

    def test_inhomogeneous_rejected(self):
        with pytest.raises(ValueError):
            resubstitute_check(X1 + X1 ** 2, NcPoly.zero(), 1, 3)

    def test_mismatch_returns_false(self):
        f = X1 ** 2
        assert not resubstitute_check(f, X1 * X2, 1, 2)

    def test_random_corpus(self):
        rng = random.Random(23)
        for k in (2, 3, 4):
            for _ in range(15):
                f = random_homogeneous(rng, k=k)
                m = f.nvars + 1
                assert resubstitute_check(f, delta(f, 1, m), 1, m)


@pytest.mark.parametrize("index", [True, 1.0, Fraction(1)], ids=repr)
def test_index_must_be_an_int(index):
    """Both indices of delta and resubstitute_check follow the rule for a
    word's letters: an index equal to 1 that is not an int is refused
    before anything else, not read as X1."""
    f = X1 ** 2
    fp = delta(f, 1, 2)
    for call in (
        lambda: delta(f, index, 2),
        lambda: delta(X2 * X2, 2, index),
        lambda: resubstitute_check(f, fp, index, 2),
        lambda: resubstitute_check(X2 * X2, delta(X2 * X2, 2, 3), 2, index),
    ):
        with pytest.raises(TypeError, match="not an int"):
            call()


class TestReduce:
    def test_square_single_delta(self):
        red = reduce_to_multilinear(X1 ** 2, nontriviality_oracle(2))
        assert red.output == X1 * X2 + X2 * X1
        assert [s.kind for s in red.steps] == [StepKind.DELTA]
        assert red.steps[0].variable == 1 and red.steps[0].detail == 2

    def test_already_multilinear(self):
        f = commutator(X1, X2)
        red = reduce_to_multilinear(f, nontriviality_oracle(2))
        assert red.output == f
        assert red.steps == ()

    def test_strip_tiebreak_prefers_lower_degree(self):
        red = reduce_to_multilinear(X1 + X1 * X2, nontriviality_oracle(2))
        assert red.output == X1
        assert [(s.kind, s.variable, s.detail) for s in red.steps] == [
            (StepKind.STRIP, 2, "dropped")
        ]

    def test_dropping_the_last_variable_hands_on_the_oracles_object(self):
        # With no index above the dropped one, the step's result is the very
        # candidate the oracle was asked about, and so keeps its compile.
        asked = []
        red = reduce_to_multilinear(X1 + X1 * X2, lambda p: asked.append(p) or True)
        assert red.steps[0].after is asked[1] and red.output is asked[1]

    def test_constant_not_reducible(self):
        with pytest.raises(NotReducible):
            reduce_to_multilinear(NcPoly.constant(3), nonzero_oracle)

    def test_input_failing_oracle(self):
        with pytest.raises(OracleFailed):
            reduce_to_multilinear(X1, lambda f: False)

    def test_no_candidate_passes(self):
        # An oracle true on f alone: neither part of the strip of X2 passes.
        f = X1 + X1 * X2
        with pytest.raises(OracleFailed, match="no candidate passed the oracle during strip of X2"):
            reduce_to_multilinear(f, lambda p: p == f)

    def test_polarization_fails_oracle(self):
        # An oracle true on X1^2 alone: its polarization X1*X2 + X2*X1 fails.
        f = X1 * X1
        with pytest.raises(OracleFailed, match="polarization of X1 produced an oracle-false polynomial"):
            reduce_to_multilinear(f, lambda p: p == f)

    def test_gap_variables_are_renumbered(self):
        f = X1 * X3  # X2 never occurs
        red = reduce_to_multilinear(f, nonzero_oracle)
        assert red.output == X1 * X2
        assert red.output.is_multilinear()
        assert [(s.kind, s.variable) for s in red.steps] == [(StepKind.STRIP, 2)]

    def test_homogeneous_selection_recorded(self):
        f = X1 + X1 ** 2  # both components keep X1; pick degree 1 by tie-break
        red = reduce_to_multilinear(f, nonzero_oracle)
        assert red.output == X1
        assert [s.kind for s in red.steps] == [StepKind.HOMOGENEOUS_SELECT]
        assert red.steps[0].detail == 1

    def test_steps_chain(self):
        rng = random.Random(24)
        oracle = nonzero_oracle
        for _ in range(25):
            f = random_poly(rng, nvars=3, max_degree=3, max_terms=3, min_degree=1)
            red = reduce_to_multilinear(f, oracle)
            assert red.input == f
            current = f
            for step in red.steps:
                assert step.before == current
                current = step.after
            assert current == red.output
            assert red.output.is_multilinear()
            assert (red.output.degree() or 0) <= (f.degree() or 0)

    def test_oracle_true_corpus_at_dim_two(self):
        rng = random.Random(25)
        cfg = SampleConfig(seed=7)
        oracle = nontriviality_oracle(2, cfg)
        checked = 0
        while checked < 10:
            f = random_poly(rng, nvars=2, max_degree=3, max_terms=3, min_degree=1)
            if not oracle(f):
                continue
            checked += 1
            red = reduce_to_multilinear(f, oracle)
            assert red.output.is_multilinear()
            assert oracle(red.output)
            for step in red.steps:
                after = classify_span(step.after, 2, cfg).classification
                before = classify_span(step.before, 2, cfg).classification
                assert after.lies_in(before, 2)

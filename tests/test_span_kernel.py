"""The modular span kernel against the exact Fraction-RREF reference.

classify_span tracks rank growth modulo a prime and builds the exact basis
once; these tests require it to agree field for field with the incremental
Fraction loop kept in helpers, and pin the closed-form bases and d = 1.
"""

import json
import random
from fractions import Fraction

import pytest

from helpers import battery_poly, random_poly, reference_classify_span
from ncspan import (
    Classification,
    MatrixQ,
    NcPoly,
    SampleConfig,
    SpanBasis,
    classify_span,
    parse_poly,
    poly_to_text,
)
from ncspan.cli import _report_doc
from ncspan.linalg import PRIME, EchelonModP

HEADLINE = ("[X1,X2]", "X1*X2", "3/2*X1*X1*X2 + [X2,X1]")


def assert_same_report(f, d, cfg):
    got = classify_span(f, d, cfg)
    want = reference_classify_span(f, d, cfg)
    where = f"{poly_to_text(f)} at d={d}, {cfg}"
    assert got.classification is want.classification, where
    assert got.basis.rows == want.basis.rows, where
    assert got.basis.pivots == want.basis.pivots, where
    assert got.witnesses == want.witnesses, where
    assert got.samples_used == want.samples_used, where
    return got, want


class TestDifferential:
    def test_battery_d3(self):
        rng = random.Random(2026)
        for _ in range(200):
            assert_same_report(battery_poly(rng), 3, SampleConfig(seed=0))

    def test_battery_d3_rational_coefficients(self):
        rng = random.Random(2027)
        for k in range(40):
            f = battery_poly(rng).scale(Fraction(rng.choice((1, -2, 5)), rng.choice((3, 4, 7))))
            assert_same_report(f, 3, SampleConfig(seed=k))

    @pytest.mark.parametrize("text", HEADLINE)
    @pytest.mark.parametrize("d", range(2, 7))
    def test_headline(self, text, d):
        for seed in (0, 7919):
            assert_same_report(parse_poly(text), d, SampleConfig(seed=seed))

    @pytest.mark.parametrize("max_samples", (3, 20))
    def test_budget_limited(self, max_samples):
        rng = random.Random(max_samples)
        polys = [parse_poly(text) for text in HEADLINE]
        polys += [
            random_poly(rng, nvars=2, max_degree=3).scale(Fraction(1, rng.randint(2, 9)))
            for _ in range(6)
        ]
        undetermined = 0
        for f in polys:
            for d in (2, 3, 4, 5):
                cfg = SampleConfig(seed=d, max_samples=max_samples)
                got, _ = assert_same_report(f, d, cfg)
                undetermined += got.classification is Classification.UNDETERMINED
        assert undetermined

    @pytest.mark.parametrize("text", HEADLINE)
    def test_classify_json(self, text):
        for d in (2, 3, 4):
            got, want = assert_same_report(parse_poly(text), d, SampleConfig(seed=5))
            assert json.dumps(_report_doc(got)) == json.dumps(_report_doc(want))


class TestDimensionOne:
    def test_variable_full(self):
        report = classify_span(NcPoly.variable(1), 1)
        assert report.classification is Classification.FULL
        assert report.basis.rank == 1

    def test_commutator_zero(self):
        report = classify_span(parse_poly("[X1,X2]"), 1)
        assert report.classification is Classification.ZERO
        assert report.basis.rank == 0
        assert report.witnesses == ()

    def test_nonzero_constant_full(self):
        # Scalars and everything coincide on M_1; the full-rank check runs first.
        report = classify_span(NcPoly.constant(Fraction(-3, 2)), 1)
        assert report.classification is Classification.FULL
        assert report.samples_used == 1


class TestCanonicalBasis:
    @pytest.mark.parametrize("d", range(2, 6))
    def test_trace_zero_matches_reduction(self, d):
        units = [MatrixQ.unit(d, j, k) for j in range(d) for k in range(d) if j != k]
        units += [MatrixQ.unit(d, i, i) - MatrixQ.unit(d, d - 1, d - 1) for i in range(d - 1)]
        want = SpanBasis.from_matrices(d, units)
        got = SpanBasis.canonical(d, Classification.TRACE_ZERO)
        assert got == want
        assert got.pivots == want.pivots

    @pytest.mark.parametrize("d", range(1, 5))
    def test_full_scalars_zero(self, d):
        units = [MatrixQ.unit(d, j, k) for j in range(d) for k in range(d)]
        assert SpanBasis.canonical(d, Classification.FULL) == SpanBasis.from_matrices(d, units)
        scalars = SpanBasis.from_matrices(d, [MatrixQ.identity(d).scale(7)])
        assert SpanBasis.canonical(d, Classification.SCALARS) == scalars
        assert SpanBasis.canonical(d, Classification.ZERO) == SpanBasis(d)

    def test_undetermined_has_none(self):
        with pytest.raises(ValueError):
            SpanBasis.canonical(2, Classification.UNDETERMINED)


class TestEchelonModP:
    def test_rank_agrees_with_exact_rank(self):
        rng = random.Random(61)
        for _ in range(30):
            n = rng.randint(1, 9)
            # few distinct rows, so dependencies are common
            pool = [[rng.randint(-4, 4) for _ in range(n)] for _ in range(3)]
            echelon = EchelonModP()
            exact = SpanBasis(3)
            for _ in range(rng.randint(1, 8)):
                a, b = rng.randint(-3, 3), rng.randint(-3, 3)
                vec = [a * x + b * y for x, y in zip(*rng.sample(pool, 2))]
                vec += [0] * (9 - n)
                grew = echelon.insert(vec)
                exact, grew_q = exact.insert(MatrixQ.unflatten(vec, 3))
                assert grew == grew_q
            assert echelon.rank == exact.rank

    def test_rank_is_a_lower_bound(self):
        # Nonzero over Q but zero mod p: no growth is claimed.
        echelon = EchelonModP()
        assert not echelon.insert([PRIME, -3 * PRIME])
        assert echelon.insert([1, 2])
        assert not echelon.insert([1 + PRIME, 2])
        assert echelon.insert([0, 5 * PRIME**3 + 1])
        assert echelon.rank == 2

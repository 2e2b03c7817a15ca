"""The Chevalley-generator Lie checks against the all-units references.

lie_ideal_check brackets only with the 2(d - 1) units E_{i,i+1} and
E_{i+1,i}, through unit_commutator in its own loop, and herstein_closure
brackets with none: it returns its canonical space in closed form.  These
tests require the same verdicts and closures as the bodies kept in
helpers, which bracket with all d^2 matrix units through commutator and
close under products by a fixpoint, and pin the bracket helper and the
number of membership tests.  SpanBasis.contains, the one membership
path, and insert and lie_ideal_check, which reduce through it, are
checked against the reduction kept in helpers.  Containment between
spans is Classification.lies_in alone (see test_closed_forms).
"""

import random
from fractions import Fraction

import pytest

from helpers import (
    battery_poly,
    random_matrix_int,
    random_poly,
    random_trace_zero,
    reference_contains,
    reference_herstein_closure,
    reference_insert,
    reference_classify_span,
    reference_lie_ideal_check,
    row_matrices,
)
from ncspan import (
    Classification,
    MatrixQ,
    SampleConfig,
    SpanBasis,
    classify_span,
    commutator,
    herstein_closure,
    lie_ideal_check,
    parse_poly,
    unit_commutator,
)
from ncspan.span import _chevalley_units

CANONICAL = (
    Classification.ZERO,
    Classification.SCALARS,
    Classification.TRACE_ZERO,
    Classification.FULL,
)


def random_rational_matrix(rng, d):
    return MatrixQ(
        [[Fraction(rng.randint(-9, 9), rng.randint(1, 4)) for _ in range(d)] for _ in range(d)]
    )


def random_basis(rng, d):
    """A from_matrices basis: a Lie ideal when enough generic matrices of
    one kind are drawn, and usually not otherwise."""
    n = d * d
    kind = rng.choice(("units", "scalars", "trace_zero", "full", "mixed"))
    if kind == "units":
        units = [MatrixQ.unit(d, j, k) for j in range(d) for k in range(d)]
        mats = rng.sample(units, rng.randint(0, n))
    elif kind == "scalars":
        mats = [MatrixQ.identity(d).scale(Fraction(rng.randint(1, 9), rng.randint(1, 4)))]
        mats += [random_trace_zero(rng, d) for _ in range(rng.randint(0, 2))]
    elif kind == "trace_zero":
        mats = [random_trace_zero(rng, d) for _ in range(rng.randint(max(n - 3, 1), n + 1))]
    elif kind == "full":
        mats = [random_matrix_int(rng, d) for _ in range(rng.randint(max(n - 2, 1), n + 1))]
    else:
        mats = [MatrixQ.identity(d)]
        mats += [random_trace_zero(rng, d) for _ in range(rng.randint(max(n - 3, 1), n))]
    mats = [m.scale(Fraction(1, rng.randint(1, 5))) for m in mats]
    return SpanBasis.from_matrices(d, mats)


class TestUnitCommutator:
    @pytest.mark.parametrize("d", range(1, 6))
    def test_matches_commutator(self, d):
        rng = random.Random(100 + d)
        for _ in range(4):
            r = random_rational_matrix(rng, d)
            for j in range(d):
                for k in range(d):
                    assert unit_commutator(r, j, k) == commutator(r, MatrixQ.unit(d, j, k))

    @pytest.mark.parametrize("j, k", [(-1, 0), (0, -1), (2, 0), (0, 2)])
    def test_index_outside_range_refused(self, j, k):
        # Unchecked, a negative index would wrap and one past d would raise IndexError.
        with pytest.raises(ValueError, match="not in range"):
            unit_commutator(MatrixQ.identity(2), j, k)


class TestLieIdealDifferential:
    @pytest.mark.parametrize("d, count", [(1, 40), (2, 40), (3, 40), (4, 20), (5, 12)])
    def test_random_bases(self, d, count):
        rng = random.Random(500 + d)
        verdicts = []
        for _ in range(count):
            basis = random_basis(rng, d)
            verdict = lie_ideal_check(basis)
            assert verdict == reference_lie_ideal_check(basis), basis.rows
            verdicts.append(verdict)
        # Both verdicts are exercised, except on abelian M_1.
        assert any(verdicts)
        assert d == 1 or not all(verdicts)

    @pytest.mark.parametrize("d", range(1, 6))
    def test_canonical_bases(self, d):
        for cls in CANONICAL:
            basis = SpanBasis.canonical(d, cls)
            assert lie_ideal_check(basis) is reference_lie_ideal_check(basis) is True

    def test_battery_reports_d3(self):
        rng = random.Random(2026)
        for _ in range(200):
            basis = classify_span(battery_poly(rng), 3, SampleConfig(seed=0)).basis
            assert lie_ideal_check(basis) == reference_lie_ideal_check(basis)

    def test_reference_partial_spans(self):
        rng = random.Random(3)
        polys = [parse_poly(text) for text in ("[X1,X2]", "X1*X2", "3/2*X1*X1*X2 + [X2,X1]")]
        polys += [random_poly(rng, nvars=2, max_degree=3) for _ in range(6)]
        undetermined = 0
        for f in polys:
            for d in (2, 3, 4, 5):
                report = reference_classify_span(f, d, SampleConfig(seed=d, max_samples=3))
                undetermined += report.classification is None
                assert lie_ideal_check(report.basis) == reference_lie_ideal_check(report.basis)
        assert undetermined


class TestLieIdealCount:
    @pytest.mark.parametrize("d", range(1, 6))
    def test_membership_tests_per_row(self, d, monkeypatch):
        # contains is the one membership path: insert and lie_ideal_check
        # both reduce through it.
        calls = []
        real = SpanBasis.contains
        monkeypatch.setattr(SpanBasis, "contains", lambda self, m: calls.append(m) or real(self, m))
        for cls in CANONICAL:
            basis = SpanBasis.canonical(d, cls)
            calls.clear()
            assert lie_ideal_check(basis)
            assert len(calls) == basis.rank * 2 * (d - 1)


def _bases(rng, d):
    """random_basis draws (Fraction rows), bases grown by insert from dense
    integer matrices (dense rows), and the partial spans that the rank loop
    (reference_classify_span) leaves when its budget runs out."""
    bases = [random_basis(rng, d) for _ in range(8)]
    for _ in range(3):
        basis = SpanBasis(d)
        for _ in range(rng.randint(1, d * d)):
            basis, _ = basis.insert(random_matrix_int(rng, d))
        bases.append(basis)
    reports = [
        reference_classify_span(parse_poly(text), d, SampleConfig(seed=d, max_samples=3))
        for text in ("[X1,X2]", "X1*X2", "3/2*X1*X1*X2 + [X2,X1]")
    ]
    assert d == 1 or any(r.classification is None for r in reports)
    return bases + [r.basis for r in reports]


def _targets(rng, basis):
    """Dense, sparse and [r, E_jk] targets for a basis."""
    d = basis.dim
    units = [MatrixQ.unit(d, j, k) for j in range(d) for k in range(d)]
    targets = [random_matrix_int(rng, d), random_rational_matrix(rng, d), MatrixQ.zero(d)]
    targets += [MatrixQ.identity(d), *rng.sample(units, min(3, d * d))]
    targets += [rng.choice(units) - rng.choice(units).scale(Fraction(2, 3))]
    for row in row_matrices(basis)[:3]:
        targets += [row, unit_commutator(row, rng.randrange(d), rng.randrange(d))]
    return targets


class TestResidualDifferential:
    """contains and insert against the reduction in helpers."""

    @pytest.mark.parametrize("d", range(1, 6))
    def test_agrees_with_reference(self, d):
        rng = random.Random(900 + d)
        bases = _bases(rng, d)
        verdicts = set()
        for basis in bases:
            for m in _targets(rng, basis):
                inside = basis.contains(m)
                assert inside == reference_contains(basis, m), (basis.rows, m)
                verdicts.add(inside)
                got, want = basis.insert(m), reference_insert(basis, m)
                assert got == want, (basis.rows, m)
                # A grown basis is rebuilt by fraction_free_rref: all Fractions.
                if got[1]:
                    assert all(type(x) is Fraction for row in got[0].rows for x in row)
        assert verdicts == {True, False}


class TestClosedUnderUnits:
    @pytest.mark.parametrize("d", range(1, 6))
    def test_agrees_with_unit_commutator(self, d):
        # lie_ideal_check's own bracket loop against the reference reduction.
        rng = random.Random(950 + d)
        verdicts = set()
        for basis in _bases(rng, d):
            want = all(
                reference_contains(basis, unit_commutator(row, j, k))
                for row in row_matrices(basis)
                for j, k in _chevalley_units(d)
            )
            assert lie_ideal_check(basis) is want, basis.rows
            verdicts.add(want)
        assert verdicts == ({True} if d == 1 else {True, False})


class TestHersteinDifferential:
    @pytest.mark.parametrize("d", range(1, 5))
    def test_seeds(self, d):
        rng = random.Random(700 + d)
        # Each closure at d = 4 costs about a second, most of it in the reference.
        draws = 4 if d < 4 else 1
        seeds = [MatrixQ.unit(d, j, k) for j in range(d) for k in range(d)]
        if d == 4:
            seeds = [seeds[0], seeds[1]]
        seeds += [MatrixQ.zero(d), MatrixQ.identity(d).scale(Fraction(-3, 2))]
        seeds += [random_rational_matrix(rng, d) for _ in range(draws)]
        seeds += [random_trace_zero(rng, d) for _ in range(draws)]
        for seed in seeds:
            assert herstein_closure(seed, d) == reference_herstein_closure(seed, d), seed

"""The closed forms of a class against its built canonical basis.

Classification.rank, lies_in and contains answer for the four canonical
spaces what their SpanBasis.canonical bases answer by elimination: rank
and contains from the basis, and containment from the reduction in
helpers (reference_is_subspace_of), since SpanBasis keeps no subspace
test.  Classification.basis is the Bareiss-reduced span of an explicit
spanning set, and Classification.bound the span of brackets or of
units.  For every class and pair of classes at d = 1..6, on random and
in-class matrices, and on the reports of the seeded batteries.  A report
of classify_span builds no basis until it is read, and no command of the
CLI builds one.
"""

import random
from fractions import Fraction
from pathlib import Path

import pytest

from helpers import (
    battery_poly,
    random_matrix_int,
    random_noncentral,
    random_trace_zero,
    reference_is_subspace_of,
    reference_reduced_rows,
    standard_polynomial,
)
from ncspan import (
    Classification,
    MatrixQ,
    NotInSpan,
    SampleConfig,
    SpanBasis,
    classify_span,
    commutator,
    decompose_target,
    parse_poly,
)
from ncspan.cli import main
from ncspan.span import lie_ideal_check

CLASSES = list(Classification)
ZERO, SCALARS, TRACE_ZERO, FULL = (
    Classification.ZERO,
    Classification.SCALARS,
    Classification.TRACE_ZERO,
    Classification.FULL,
)


def members(rng, d):
    """Random integer and rational matrices, and matrices inside each class."""
    out = [MatrixQ.zero(d), MatrixQ.identity(d), MatrixQ.identity(d).scale(Fraction(-7, 3))]
    out += [random_matrix_int(rng, d) for _ in range(6)]
    out += [random_matrix_int(rng, d, 5) for _ in range(3)]
    out += [random_trace_zero(rng, d) for _ in range(4)]
    out += [random_noncentral(rng, d) for _ in range(2 if d > 1 else 0)]  # M_1 has none
    out += [MatrixQ.unit(d, j, k) for j in range(d) for k in range(d)]
    return out


def test_random_noncentral_refuses_d1():
    # Every 1 x 1 matrix is scalar, so no draw could ever return.
    rng = random.Random(1)
    with pytest.raises(ValueError, match="scalar"):
        random_noncentral(rng, 1)
    assert not random_noncentral(rng, 2).is_scalar()


@pytest.mark.parametrize("d", range(1, 7))
class TestAgainstCanonicalBases:
    def test_rank(self, d):
        for cls in CLASSES:
            assert cls.rank(d) == SpanBasis.canonical(d, cls).rank

    def test_order(self, d):
        for a in CLASSES:
            below = SpanBasis.canonical(d, a)
            for b in CLASSES:
                assert a.lies_in(b, d) == reference_is_subspace_of(below, SpanBasis.canonical(d, b)), (a, b)

    def test_membership(self, d):
        rng = random.Random(2700 + d)
        for cls in CLASSES:
            basis = SpanBasis.canonical(d, cls)
            seen = set()
            for m in members(rng, d):
                inside = basis.contains(m)
                assert cls.contains(m.flatten(), d) == inside, (cls, m)
                seen.add(inside)
            # Every space but M_d misses some matrix; at d = 1 the scalars are M_1.
            assert seen == ({True} if cls.rank(d) == d * d else {True, False})

    def test_basis(self, d):
        # Each closed form against the reduced span of its spanning set, listed in a shuffled order.
        rng = random.Random(2800 + d)
        off = [MatrixQ.unit(d, j, k) for j in range(d) for k in range(d) if j != k]
        diagonal = [MatrixQ.unit(d, i, i) - MatrixQ.unit(d, d - 1, d - 1) for i in range(d - 1)]
        spanning = {ZERO: [], SCALARS: [MatrixQ.identity(d)], TRACE_ZERO: off + diagonal}
        spanning[FULL] = spanning[TRACE_ZERO] + spanning[SCALARS]
        for cls, mats in spanning.items():
            rng.shuffle(mats)
            rows = cls.basis(d)
            assert rows == reference_reduced_rows(mats), cls
            assert {type(x) for row in rows for x in row} <= {int}
            assert SpanBasis.canonical(d, cls).rows == rows

    def test_bound(self, d):
        # A sum of commutators takes values in the span of brackets, whose
        # [E_ij, E_jk] span sl_d; X1 takes every value, spanned by the units.
        units = [MatrixQ.unit(d, j, k) for j in range(d) for k in range(d)]
        brackets = [commutator(MatrixQ.unit(d, i, j), MatrixQ.unit(d, j, k)) for i in range(d) for j in range(d) for k in range(d)]
        assert Classification.bound(d, True).basis(d) == reference_reduced_rows(brackets)
        assert Classification.bound(d, False).basis(d) == reference_reduced_rows(units)
        for text in ("[X1,X2]", "X1*X2"):
            f = parse_poly(text)
            assert classify_span(f, d).classification is Classification.bound(d, f.is_sum_of_commutators())


def test_degenerate_d1():
    # At d = 1 the scalars are all of M_1, and sl_1 is {0}.
    assert [cls.rank(1) for cls in CLASSES] == [0, 1, 0, 1]
    assert SCALARS.lies_in(FULL, 1) and FULL.lies_in(SCALARS, 1)
    assert TRACE_ZERO.lies_in(ZERO, 1) and ZERO.lies_in(TRACE_ZERO, 1)
    assert not FULL.lies_in(TRACE_ZERO, 1) and not SCALARS.lies_in(ZERO, 1)
    assert Classification.bound(1, True) is ZERO and Classification.bound(1, False) is FULL
    for vec, inside in (((0,), (True, True, True, True)), ((Fraction(5, 2),), (False, True, False, True))):
        assert tuple(cls.contains(vec, 1) for cls in CLASSES) == inside


@pytest.mark.parametrize("d", (2, 3))
def test_battery_reports(d):
    """On battery reports: rank, order between consecutive reports, and
    membership of each witness value and of random matrices."""
    rng = random.Random(2727 + d)
    reports = [classify_span(battery_poly(rng), d, SampleConfig(seed=s)) for s in (0, 7919) for _ in range(30)]
    assert {r.classification for r in reports} >= {TRACE_ZERO, FULL}
    for before, after in zip(reports, reports[1:]):
        assert after.rank == after.basis.rank
        assert lie_ideal_check(after.basis)
        assert after.classification.lies_in(before.classification, d) == reference_is_subspace_of(after.basis, before.basis)
        for m in [value for _, value in after.witnesses[:3]] + [random_matrix_int(rng, d) for _ in range(3)]:
            assert after.classification.contains(m.flatten(), d) == after.basis.contains(m)


class TestLazyBasis:
    @pytest.fixture
    def builds(self, monkeypatch):
        """Calls of SpanBasis.canonical and SpanBasis.from_matrices so far."""
        calls = {"canonical": 0, "from_matrices": 0}
        for name in calls:
            real = getattr(SpanBasis, name)

            def spy(*args, _real=real, _name=name):
                calls[_name] += 1
                return _real(*args)

            monkeypatch.setattr(SpanBasis, name, staticmethod(spy))
        return calls

    @pytest.mark.parametrize("text, d", [("[X1,X2]", 3), ("X1*X2", 3), ("[X1,X2]^2", 2), ("[X1,X2]", 1)])
    def test_decided_report_builds_no_basis(self, builds, text, d):
        report = classify_span(parse_poly(text), d)
        cls = report.classification
        assert report.rank == cls.rank(d)
        assert decompose_target(report, MatrixQ.zero(d)) == []
        for outside in (MatrixQ.identity(d), MatrixQ.unit(d, 0, d - 1)):
            if not cls.contains(outside.flatten(), d):
                with pytest.raises(NotInSpan):
                    decompose_target(report, outside)
        assert builds == {"canonical": 0, "from_matrices": 0}
        assert report.basis.rank == report.rank
        assert builds == {"canonical": 1, "from_matrices": 0}
        assert report.basis is report.basis
        assert builds == {"canonical": 1, "from_matrices": 0}

    @pytest.mark.parametrize(
        "argv",
        [
            ["classify", "--poly", "[X1,X2]", "--dim", "3", "--seed", "0"],
            ["classify", "--poly", "[X1,X2]", "--dim", "3", "--seed", "0", "--format", "text"],
            ["decompose", "--poly", "[X1,X2]", "--dim", "3", "--seed", "0", "--target", "1,2,0;0,0,1;3,0,-1"],
            ["suite", "--corpus", str(Path(__file__).parent / "golden" / "corpus.txt"), "--dim", "3", "--seed", "0"],
            ["witness", "--poly", "[X1,X2]^2", "--dmax", "3", "--seed", "0"],
            ["linearize", "--poly", "X1^3", "--dim", "2", "--seed", "0"],
            ["commtest", "--poly", "[X1,X2]"],
        ],
        ids=["classify-json", "classify-text", "decompose", "suite", "witness", "linearize", "commtest"],
    )
    def test_no_command_builds_a_basis(self, builds, argv, monkeypatch, capsys):
        # classify prints its basis from Classification.basis; no SpanBasis is constructed at all.
        inits, real = [], SpanBasis.__init__

        def init(self, *args, **kwargs):
            inits.append((args, kwargs))
            real(self, *args, **kwargs)

        monkeypatch.setattr(SpanBasis, "__init__", init)
        assert main(argv) == 0
        assert capsys.readouterr().out
        assert builds == {"canonical": 0, "from_matrices": 0} and inits == []

    def test_budget_cut_report_builds_its_basis_when_read(self, builds):
        # Trace zero on M_2 but no sum of commutators: its class is sampled,
        # and read in closed form like a proved one.
        f = parse_poly("[X1,X2]") + standard_polynomial(4) * parse_poly("X5")
        report = classify_span(f, 2, SampleConfig(max_samples=2))
        assert report.classification is TRACE_ZERO and report.rank == 3
        assert builds == {"canonical": 0, "from_matrices": 0}
        assert report.basis is report.basis
        assert builds == {"canonical": 1, "from_matrices": 0}

"""The Lie-ideal rule and the modular span kernel against their references.

classify_span names the least canonical space that holds its samples and
stops at the first proof that it is the span (the Lie-ideal stop); helpers
keeps the rank loop it replaced as reference_classify_span.  These tests
require the same class wherever the loop decides one and never more
samples; for every report, witnesses built by shear conjugation whose
values are f at their inputs and span the class; for every proof, at most
two samples; and, for a span of scalars or zero, the loop's report field
for field.  They hold the commutator-sum half of the stop to the
window-only rule, pin the closed-form bases and d = 1, and replay every
growth decision of the loop and of the shear closure over Q.
The stages of the kernel (the sample stream, packed evaluation, packed
mod-p rows) are held to randint, MatrixQ arithmetic and Fraction ranks,
and the word-DAG evaluator to the word-by-word loop kept in helpers.
Below degree 2d the class is a theorem: classify_span still samples in
the call, and is held to the eager classifier that named every class by
sampling (reference_eager_classify_span); suite's reader of the class
alone samples nothing there, and is held to classify_span.
"""

import functools
import gc
import itertools
import json
import math
import pickle
import random
import tracemalloc
import weakref
from dataclasses import replace
from fractions import Fraction
from pathlib import Path

import pytest

import helpers
from helpers import (
    EchelonQ,
    battery_poly,
    random_matrix_int,
    random_multilinear,
    random_poly,
    reference_classify_span,
    reference_closure_mod_p,
    reference_eager_classify_span,
    reference_is_identity,
    reference_evaluate,
    reference_forward_insert,
    reference_integer_terms,
    reference_packed_evaluator,
    reference_report_doc,
    reference_rref_insert,
    reference_shear_closure,
    row_matrices,
    standard_polynomial,
)
from ncspan import (
    Classification,
    MatrixQ,
    NcPoly,
    NotInSpan,
    SampleConfig,
    SpanBasis,
    StopReason,
    classify_span,
    decompose_target,
    delta,
    evaluate,
    is_central,
    is_identity,
    nontriviality_oracle,
    parse_poly,
    poly_to_text,
    span,
)
import ncspan.cli
from ncspan.cli import main
from ncspan.linalg import PRIME, EchelonModP

HEADLINE = ("[X1,X2]", "X1*X2", "3/2*X1*X1*X2 + [X2,X1]")
# Trace zero on M_2, where S_4 vanishes, but not a sum of commutators: no
# value of nonzero trace ever proves FULL, so at d = 2 its TRACE_ZERO stays sampled.
TRACE_ZERO_NON_SUM = parse_poly("[X1,X2]") + standard_polynomial(4) * NcPoly.variable(5)
CORPUS = str(Path(__file__).parent / "golden" / "corpus.txt")


def assert_grown(report):
    """One or two rows that raised the class (none for ZERO), the canonical
    basis, and rank-many witnesses, the rows first, whose values are f at
    their inputs, lie in the class and span it."""
    f, d = report.poly, report.dim
    where = f"{poly_to_text(f)} at d={d}, {report.config}"
    canonical = SpanBasis.canonical(d, report.classification)
    assert report.basis == canonical, where
    assert len(report.rows) <= 2 and bool(report.rows) == bool(canonical.rank), where
    assert report.grown[: len(report.rows)] == report.rows, where
    assert len(report.witnesses) == canonical.rank, where
    for args, value in report.witnesses:
        assert reference_evaluate(f, args, d) == value, where
        assert report.classification.contains(value.flatten(), d), where
    assert SpanBasis.from_matrices(d, [value for _, value in report.witnesses]) == canonical, where


def assert_proved(report):
    """A Lie-ideal stop: at most two samples, and witnesses as assert_grown's."""
    where = f"{poly_to_text(report.poly)} at d={report.dim}, {report.config}"
    assert report.stop_reason is StopReason.LIE_IDEAL, where
    assert report.samples_used <= 2, where
    assert_grown(report)


def assert_same_report(f, d, cfg):
    """classify_span against the rank loop: the same class wherever the loop
    decides one, never more samples, witnesses that span the class, and,
    for a sampled span of scalars or zero, where a raise is a growth, the
    loop's samples, stop and rows."""
    got = classify_span(f, d, cfg)
    want = reference_classify_span(f, d, cfg)
    where = f"{poly_to_text(f)} at d={d}, {cfg}"
    if want.classification is not None:
        assert got.classification is want.classification, where
    assert got.samples_used <= want.samples_used, where
    if got.stop_reason is StopReason.LIE_IDEAL:
        assert_proved(got)
        return got, want
    assert_grown(got)
    if got.classification in (Classification.ZERO, Classification.SCALARS):
        assert (got.samples_used, got.stop_reason.value, got.rows) == (
            want.samples_used, want.stop_reason.value, want.rows,
        ), where
        assert got.witnesses == want.witnesses, where
    return got, want


# The seeded batteries: lists of (f, d, cfg).


def battery_d3():
    rng = random.Random(2026)
    return [(battery_poly(rng), 3, SampleConfig(seed=0)) for _ in range(200)]


def battery_d3_rational():
    rng = random.Random(2027)
    return [
        (battery_poly(rng).scale(Fraction(rng.choice((1, -2, 5)), rng.choice((3, 4, 7)))), 3, SampleConfig(seed=k))
        for k in range(40)
    ]


def battery_headline(text, d):
    return [(parse_poly(text), d, SampleConfig(seed=seed)) for seed in (0, 7919)]


def battery_budget_limited(max_samples):
    rng = random.Random(max_samples)
    polys = [parse_poly(text) for text in HEADLINE]
    polys += [
        random_poly(rng, nvars=2, max_degree=3).scale(Fraction(1, rng.randint(2, 9)))
        for _ in range(6)
    ]
    cases = [
        (f, d, SampleConfig(seed=d, max_samples=max_samples)) for f in polys for d in (2, 3, 4, 5)
    ]
    return cases + [(TRACE_ZERO_NON_SUM, 2, SampleConfig(seed=seed, max_samples=max_samples)) for seed in (0, 7919)]


def battery_small_entries():
    """Entries in {-1, 0, 1}, where zero values are common: a central
    polynomial and the trace-zero non-sum at d = 2, whose sampled classes
    often rise only after a run of samples that did not raise them."""
    polys = [parse_poly("[X1,X2]^2"), TRACE_ZERO_NON_SUM]
    return [(f, 2, SampleConfig(seed=seed, coeff_bound=1)) for f in polys for seed in range(10)]


BATTERIES = {
    "d3": battery_d3,
    "small-entries": battery_small_entries,
    "d3-rational": battery_d3_rational,
    **{
        f"headline-{text}-d{d}": functools.partial(battery_headline, text, d)
        for text in HEADLINE
        for d in range(2, 7)
    },
    **{f"budget-{m}": functools.partial(battery_budget_limited, m) for m in (2, 3, 20)},
}


class TestDifferential:
    def test_battery_d3(self):
        for case in battery_d3():
            assert_same_report(*case)

    def test_battery_d3_rational_coefficients(self):
        for case in battery_d3_rational():
            assert_same_report(*case)

    @pytest.mark.parametrize("text", HEADLINE)
    @pytest.mark.parametrize("d", range(2, 7))
    def test_headline(self, text, d):
        for case in battery_headline(text, d):
            assert_same_report(*case)

    def test_small_dims(self):
        for case in battery_small_dims():
            assert_same_report(*case)

    def test_small_entries(self):
        # A class raised after samples that did not raise it restarts the
        # window there, as a growth restarts the rank loop's.
        late = 0
        for case in battery_small_entries():
            got, _ = assert_same_report(*case)
            late += got.samples_used > 50 + len(got.rows)
        assert late

    @pytest.mark.parametrize("max_samples", (3, 20))
    def test_budget_limited(self, max_samples):
        # The loop leaves reports without a class that the Lie-ideal stop proves.
        undetermined = proved = 0
        for case in battery_budget_limited(max_samples):
            got, want = assert_same_report(*case)
            undetermined += want.classification is None
            proved += want.classification is None and got.stop_reason is StopReason.LIE_IDEAL
        assert proved and undetermined

    def test_trace_zero_non_sum(self):
        # Nothing proves it: its class is sampled, TRACE_ZERO from the first
        # non-scalar value on.  The rule stops 50 samples after that one, and
        # the rank loop 50 after its third growth.
        for seed in (0, 1, 7919):
            cfg = SampleConfig(seed=seed)
            got, want = assert_same_report(TRACE_ZERO_NON_SUM, 2, cfg)
            assert got.classification is want.classification is Classification.TRACE_ZERO
            assert got.stop_reason is StopReason.STABILITY_WINDOW and len(got.rows) == 1
            samples = span._samples(TRACE_ZERO_NON_SUM, 2, cfg)
            raised = next(k for k, entries in enumerate(samples, 1) if tuple(entries) == got.rows[0][0])
            assert got.samples_used == raised + 50 < want.samples_used

    @pytest.mark.parametrize("text", HEADLINE)
    def test_classify_json(self, text):
        # The same document but for how the class was reached: the samples,
        # the stop reason and the witnesses.
        def doc(report):
            out = reference_report_doc(report)
            del out["samples_used"], out["witnesses"], out["consistency_flags"]["stop_reason"]
            return json.dumps(out)

        for d in (2, 3, 4):
            got, want = assert_same_report(parse_poly(text), d, SampleConfig(seed=5))
            assert doc(got) == doc(want)


class TestLieIdealStop:
    """The stop and its witnesses on the batteries at d = 2..6, seeds 0, 1
    and 7919, and at d = 16."""

    @pytest.mark.parametrize("d", range(2, 7))
    def test_battery(self, d):
        rng = random.Random(4000 + d)
        polys = [parse_poly(text) for text in (*HEADLINE, "[X1,X2]^2", "5")]
        polys += [battery_poly(rng) for _ in range(12 if d < 5 else 4)]
        classes = set()
        for f in polys:
            for seed in (0, 1, 7919):
                got, _ = assert_same_report(f, d, SampleConfig(seed=seed))
                classes.add((got.classification, got.stop_reason))
        assert {
            (Classification.FULL, StopReason.LIE_IDEAL),
            (Classification.TRACE_ZERO, StopReason.LIE_IDEAL),
            (Classification.SCALARS, StopReason.STABILITY_WINDOW),
        } <= classes

    @pytest.mark.parametrize("text", ("[X1,X2]", "X1*X2"))
    def test_d16(self, text):
        f, d = parse_poly(text), 16
        got = classify_span(f, d, SampleConfig(seed=7919))
        want = reference_classify_span(f, d, SampleConfig(seed=7919))
        assert got.classification is want.classification
        assert got.samples_used == 1 and len(got.rows) == 1
        canonical = SpanBasis.canonical(d, got.classification)
        assert got.basis == canonical
        # Rank-many values of f at their inputs, independent mod p and so
        # over Q, inside the class: they span it.
        echelon = EchelonModP(d * d)
        assert len(got.grown) == canonical.rank
        for entries, vec in got.grown:
            args = span._matrices(entries, d)
            assert evaluate(f, args) == MatrixQ.unflatten(vec, d)
            assert echelon.insert(vec)
            assert canonical.contains(MatrixQ.unflatten(vec, d))
        # One witness against the MatrixQ reference too.
        args, value = got.witnesses[-1]
        assert reference_evaluate(f, args, d) == value

    @pytest.mark.parametrize("miss", (0, 1, 2))
    @pytest.mark.parametrize("text, d", (("[X1,X2]", 2), ("X1*X2", 3), ("3/2*X1*X1*X2 + [X2,X1]", 3), ("[X1,X2]", 4)))
    def test_closure_never_returns_short(self, text, d, miss, monkeypatch):
        # The miss-th growth decision of the walk, an insert or a unit,
        # looks dependent mod p and is not kept, and the walk must still
        # reach the rank.  The proving row always grows mod p (see
        # span._shear_closure), so a miss on it cannot happen: at miss = 0
        # every decision is real, and the first grows.  The walk decides
        # the seed, then c+ and c- of its first shear: miss = 1 drops a c+
        # whose c- is then decided by its unit, and miss = 2 drops that unit.
        f = parse_poly(text)
        report = classify_span(f, d, SampleConfig(seed=3))
        assert report.stop_reason is StopReason.LIE_IDEAL and len(report.rows) == 1
        flags, kinds = [], []

        def decide(real):
            def wrapped(self, *args):
                flags.append(False if miss and len(flags) == miss else real(self, *args))
                kinds.append(real.__name__)
                return flags[-1]

            return wrapped

        for name in ("insert", "insert_unit"):
            monkeypatch.setattr(EchelonModP, name, decide(getattr(EchelonModP, name)))
        grown = report.grown
        assert len(flags) > miss and flags[0]
        assert kinds[: miss + 1] == ["insert", "insert", "insert_unit"][: miss + 1]
        assert len(grown) == report.basis.rank
        for args, value in report.witnesses:
            assert reference_evaluate(f, args, d) == value
        assert SpanBasis.from_matrices(d, [value for _, value in report.witnesses]) == report.basis

    @pytest.mark.parametrize("seed", (0, 7919))
    @pytest.mark.parametrize("d", (2, 3))
    @pytest.mark.parametrize(
        "text, kept_mod_p",
        ((f"{PRIME}*[X1,X2]", 0), (f"{PRIME}*X1*X2", 0), (f"1 + {PRIME}*[X1,X2]", 1)),
    )
    def test_multiples_of_p_take_the_exact_walk(self, text, kept_mod_p, d, seed):
        # Every value is 0, or I, mod p, so the walk on raw values mod p
        # keeps that class's rank, below the class over Q; the walk on
        # their p-free parts (see span._shear_closure) reaches the rank.
        f = parse_poly(text)
        report = classify_span(f, d, SampleConfig(seed=seed))
        canonical = SpanBasis.canonical(d, report.classification)
        echelon = EchelonModP(d * d)
        kept, labels = span._walk(report.rows, d, canonical.rank, echelon.insert, echelon.insert_unit)
        assert len(kept) == len(labels) == kept_mod_p < canonical.rank
        assert len(report.grown) == canonical.rank
        for args, value in report.witnesses:
            assert reference_evaluate(f, args, d) == value
        assert SpanBasis.from_matrices(d, [value for _, value in report.witnesses]) == canonical

    def test_multiples_of_p_keep_the_exact_walks_rows(self):
        # Traces and trace-free parts with their own powers of p, and none:
        # the walk mod p keeps the rows that the walk over Q keeps, rank many.
        texts = ("P*[X1,X2]", "P*X1*X2", "1 + P*[X1,X2]", "[X1,X2] + P", "P*X1 + 1", "P*P*[X1,X2] + P", "P", "P*X1*X1")
        for text in texts:
            f = parse_poly(text.replace("P", str(PRIME)))
            for d in range(1, 6):
                for seed in (0, 7919):
                    report = classify_span(f, d, SampleConfig(seed=seed))
                    rank = SpanBasis.canonical(d, report.classification).rank
                    where = f"{text} at d={d}, seed {seed}"
                    assert report._closure == reference_shear_closure(report.rows, d, rank), where
                    assert len(report.grown) == rank, where

    @pytest.mark.parametrize("d", range(2, 9))
    def test_labels_replay_the_walk(self, d):
        # Each kept row labelled (p, i, j, s) is the conjugate by I + s *
        # E_ij (reference_conjugate) of row p's input matrices and value, p
        # an earlier row; seeds, the rows that raised the class, are
        # labelled None.  Entries in {-1, 0, 1} give sparse values, whose
        # walks go past the first row.
        rng = random.Random(4040 + d)
        cases = [(battery_poly(rng), SampleConfig(seed=k)) for k in range(8 if d < 7 else 3)]
        cases += [(parse_poly("X1*X1"), SampleConfig(seed=k, coeff_bound=1)) for k in range(6)]
        texts = ("P*[X1,X2]", "[X1,X2] + P", "P*X1 + 1", "P*X1*X2")
        cases += [(parse_poly(t.replace("P", str(PRIME))), SampleConfig(seed=0)) for t in texts]
        paired = deepest = 0
        for f, cfg in cases:
            report = classify_span(f, d, cfg)
            (rows, labels), n = report._closure, d * d
            where = f"{poly_to_text(f)} at d={d}, {cfg}"
            assert len(labels) == len(rows) == report.rank, where
            for b, ((entries, vec), label) in enumerate(zip(rows, labels)):
                if label is None:
                    assert (entries, vec) in report.rows, where
                    continue
                p, i, j, s = label
                assert 0 <= p < b and s in (1, -1) and i != j, where
                deepest = max(deepest, p)
                mats = [[list(v[k : k + d]) for k in range(m, m + n, d)] for v in rows[p][::-1] for m in range(0, len(v), n)]
                for m in mats:
                    helpers.reference_conjugate(m, i, j, s)
                flat = [tuple(x for r in m for x in r) for m in mats]
                assert (tuple(itertools.chain(*flat[1:])), flat[0]) == (entries, vec), where
            paired += len(helpers.unit_pairs(report))
        assert paired > 0 and (deepest > 0 or d > 5)


class TestUnitWalk:
    """span._shear_closure, whose walk decides each c- by its unit, against
    the walk it replaced (helpers.reference_walk), which tests every
    candidate on its full value: both mod p through the same psi, with the
    same kept rows, in the same order, with the same labels."""

    @pytest.fixture
    def branches(self, monkeypatch):
        # Which rule decided each unit: a scalar 0 mod p, a unit already
        # adjoined, a slot that is no pivot, or the ordinary reduction.
        seen = set()
        real = EchelonModP.insert_unit

        def insert_unit(self, k, c):
            slot = ((1 << self._bits) - 1) << (self._bits * k)
            seen.add("zero" if not c % PRIME else "unit" if not self._free & slot else "pivot" if k in self.pivots else "free")
            return real(self, k, c)

        monkeypatch.setattr(EchelonModP, "insert_unit", insert_unit)
        return seen

    @staticmethod
    def assert_same_walk(f, d, cfg):
        report = classify_span(f, d, cfg)
        want = reference_closure_mod_p(report.rows, d, report.rank)
        assert span._shear_closure(report.rows, d, report.rank) == want, f"{poly_to_text(f)} at d={d}, {cfg}"
        assert len(want[0]) == report.rank

    @pytest.mark.parametrize("d", range(2, 9))
    def test_batteries(self, d, branches):
        rng = random.Random(4900 + d)
        for k in range(12 if d < 6 else 4):
            self.assert_same_walk(battery_poly(rng), d, SampleConfig(seed=k))
        # At d = 2 the rank is at most 4, and no unit meets a pivot.
        assert "free" in branches and ("pivot" in branches or d == 2)

    @pytest.mark.parametrize("d", range(2, 9))
    def test_coeff_bound_1(self, d, branches):
        # Entries in {-1, 0, 1}: a parent entry p_ji is often 0, and then
        # so is the unit's scalar, and c- does not grow.
        rng = random.Random(4950 + d)
        polys = [battery_poly(rng) for _ in range(6 if d < 6 else 2)]
        polys += [parse_poly(text) for text in ("X1*X1", "[X1,X2]", "X1")]
        for f in polys:
            for k in range(3):
                self.assert_same_walk(f, d, SampleConfig(seed=k, coeff_bound=1))
        assert "zero" in branches

    @pytest.mark.parametrize("text, d", (("P*[X1,X2]", 8), ("[X1,X2] + P", 6), ("P*X1 + 1", 6)))
    def test_multiples_of_p(self, text, d):
        # h or g is a power of p, so psi scales each unit by d / h.
        for seed in (0, 7919):
            self.assert_same_walk(parse_poly(text.replace("P", str(PRIME))), d, SampleConfig(seed=seed))

    @pytest.mark.parametrize("text", ("[X1,X2]", "X1*X2"))
    def test_d16(self, text):
        self.assert_same_walk(parse_poly(text), 16, SampleConfig(seed=0))


class TestProofStop:
    """The commutator-sum half of the Lie-ideal stop against the
    window-only rule on the batteries.

    A sum of commutators with one non-scalar value is proved TRACE_ZERO.
    Treating no polynomial as a commutator sum leaves it to the sampling
    loop, which must reach the same class and rows by the window, later, or
    run out of budget.  Every other run is unchanged.  Below degree 2d the
    report's class is the theorem's (see TestDegreeDecides), which denying
    the fact turns to FULL, so there the runs are compared by their
    samples, stop and rows: the loop's class is the least class holding
    its last row's value, so equal rows are an equal loop class.
    """

    @pytest.mark.parametrize("battery", sorted(BATTERIES))
    def test_same_verdict_as_window_only(self, battery, monkeypatch):
        cases = BATTERIES[battery]()
        reports = [classify_span(*case) for case in cases]
        monkeypatch.setattr(NcPoly, "is_sum_of_commutators", lambda self: False)
        for (f, d, cfg), got in zip(cases, reports):
            want = classify_span(f, d, cfg)
            where = f"{poly_to_text(f)} at d={d}, {cfg}"
            decided = span._degree_decides(f, d)
            if got.stop_reason is not StopReason.LIE_IDEAL or got.classification is Classification.FULL:
                # Only the commutator-sum fact, which is denied, differs.
                run = ("samples_used", "stop_reason", "scale", "rows")
                assert [getattr(got, k) for k in run] == [getattr(want, k) for k in run], where
                assert decided or replace(got, sum_of_commutators=False) == want, where
                continue
            assert got.classification is Classification.TRACE_ZERO, where
            assert want.classification is (Classification.FULL if decided else Classification.TRACE_ZERO), where
            assert want.stop_reason is not StopReason.LIE_IDEAL, where
            assert want.samples_used > got.samples_used, where
            # Its proving sample already raised the class: only the stop differs.
            assert want.rows == got.rows, where


def battery_degrees(d):
    """(f, d, cfg) at the default budget and at 3 samples, the latter also
    with entries in {-1, 0, 1}, where a budget can cut the rows short of
    the class: the headline polynomials, squares, constants, battery
    polynomials and polynomials of degree 4 or 5, inside and outside the
    degree theorem; and X1*X1 at d=2 with one sample, which is cut."""
    rng = random.Random(2029)
    polys = [parse_poly(t) for t in (*HEADLINE, "X1*X1", "[X1,X2]^2", "5", "0")]
    polys += [battery_poly(rng) for _ in range(12)]
    polys += [random_poly(rng, nvars=2, max_degree=5, min_degree=4) for _ in range(4)]
    configs = [{}, {"max_samples": 3}, {"max_samples": 3, "coeff_bound": 1}]
    cases = [(f, d, SampleConfig(seed=k, **kw)) for kw in configs for k, f in enumerate(polys)]
    return cases + [(parse_poly("X1*X1"), d, SampleConfig(seed=0, max_samples=1))] * (d == 2)


class TestDegreeDecides:
    """For d >= 2 and 1 <= deg f < 2d the class is TRACE_ZERO for a sum of
    commutators and FULL otherwise, f is neither an identity nor central,
    and nothing is evaluated to know it (span._degree_decides)."""

    def test_same_run_as_the_eager_reference(self):
        """classify_span against the eager classifier, at d = 1..5: the same
        samples, stop, rows and grown rows everywhere, the same class
        wherever the reference reaches the proved class, and elsewhere the
        theorem's class, with the reference's witnesses."""
        inside = cut = 0
        for d in range(1, 6):
            for f, d, cfg in battery_degrees(d):
                got, want = classify_span(f, d, cfg), reference_eager_classify_span(f, d, cfg)
                where = f"{poly_to_text(f)} at d={d}, {cfg}"
                fields = ("samples_used", "stop_reason", "scale", "rows", "grown", "sum_of_commutators")
                assert [getattr(got, k) for k in fields] == [getattr(want, k) for k in fields], where
                if not span._degree_decides(f, d):
                    assert got.classification is want.classification, where
                    continue
                inside += 1
                theorem = Classification.TRACE_ZERO if f.is_sum_of_commutators() else Classification.FULL
                assert got.classification is theorem, where
                if want.classification is not theorem:
                    # The budget cut the rows short: the class stays, with fewer witnesses.
                    cut += 1
                    assert want.classification.lies_in(theorem, d), where
                    assert got.stop_reason is not StopReason.LIE_IDEAL, where
                    assert len(got.witnesses) == want.classification.rank(d) < got.rank, where
        assert inside > 150 and cut >= 2

    @pytest.mark.parametrize("d", (2, 3, 4))
    def test_verdicts_against_the_references(self, d):
        """is_identity, is_central and the oracle, which read nothing below
        2d, against reference_is_identity on f and on its bracket with a
        fresh variable, which is an identity iff f is central or one."""
        rng = random.Random(2030 + d)
        cfg = SampleConfig(seed=d)
        polys = [random_poly(rng, nvars=3, max_degree=2 * d - 1, min_degree=1) for _ in range(15)]
        polys += [random_multilinear(rng, n) for n in (1, 2, 3)]
        for f in polys:
            where = f"{poly_to_text(f)} at d={d}"
            assert span._degree_decides(f, d), where
            fresh = NcPoly.variable(f.nvars + 1)
            assert is_identity(f, d, cfg) is reference_is_identity(f, d, cfg) is False, where
            assert is_central(f, d, cfg) is reference_is_identity(f * fresh - fresh * f, d, cfg) is False, where
            assert nontriviality_oracle(d, cfg)(f) is True, where

    def test_decided_verdicts_evaluate_nothing(self, evaluations):
        f = parse_poly("(X1+X2)^3*X3")
        assert (is_identity(f, 3), is_central(f, 3), nontriviality_oracle(3)(f)) == (False, False, True)
        assert span._verdicts(f, 3, SampleConfig()) == (False, False)
        assert evaluations == []
        # Degree 4 = 2d at d=2: sampled.
        assert nontriviality_oracle(2)(f) is True and evaluations

    def test_suite_class_is_classify_spans(self, evaluations):
        """suite's reader of the class alone against classify_span on the
        same cases, at d = 1..5: the same class and commutator-sum fact, no
        evaluation wherever the degree decides the class, and elsewhere
        classify_span's own run."""
        inside = 0
        for d in range(1, 6):
            for f, d, cfg in battery_degrees(d):
                where = f"{poly_to_text(f)} at d={d}, {cfg}"
                evaluations.clear()
                got = span._class_of(f, d, cfg)
                read = len(evaluations)
                want = classify_span(f, d, cfg)
                assert got == (want.classification, want.sum_of_commutators), where
                if span._degree_decides(f, d):
                    inside += 1
                    assert read == 0, where
                else:
                    assert read == want.samples_used, where
        assert inside > 150

    def test_classify_span_samples_in_the_call(self, evaluations):
        # The theorem names the class, and the loop still runs in the call:
        # reading the report afterwards evaluates nothing more.
        report = classify_span(parse_poly("[X1,X2]"), 3)
        assert len(evaluations) == 1
        assert (report.classification, report.samples_used, report.stop_reason) == (
            Classification.TRACE_ZERO, 1, StopReason.LIE_IDEAL
        )
        assert len(report.witnesses) == 8 and len(evaluations) == 1
        # Outside the theorem the class needs the loop: it runs at once, once.
        evaluations.clear()
        report = classify_span(parse_poly("[X1,X2]^2"), 2)
        assert report.classification is Classification.SCALARS
        assert len(evaluations) == report.samples_used == 51
        assert report.rows and report.witnesses and len(evaluations) == 51

    def test_suite_compiles_nothing_below_2d(self, monkeypatch, capsys):
        """Every polynomial `ncspan suite` builds an evaluator for on the
        golden corpus is one the theorem does not decide: at d=3 the two
        constants (a strip's dropped part among them), at d=2 the ten of
        degree 0, 4 or 5, which the classifier and the oracle each build."""
        built = []
        real = span._evaluator
        monkeypatch.setattr(span, "_evaluator", lambda f, *key: built.append(f) or real(f, *key))
        for d, distinct, degrees in ((3, 2, {0}), (2, 10, {0, 4, 5})):
            built.clear()
            assert main(["suite", "--corpus", CORPUS, "--dim", str(d), "--seed", "0"]) == 0
            capsys.readouterr()
            assert len(set(built)) == distinct, d
            assert {f.degree() or 0 for f in built} == degrees, d
            assert not any(span._degree_decides(f, d) for f in built), d

    def test_budget_cuts_witnesses_not_the_class(self, capsys):
        report = classify_span(parse_poly("X1*X1"), 2, SampleConfig(seed=0, max_samples=1))
        got = (report.classification, report.rank, report.stop_reason, len(report.witnesses))
        assert got == (Classification.FULL, 4, StopReason.BUDGET_EXHAUSTED, 1)
        # E_12 lies in FULL, but the one witness does not span it.
        with pytest.raises(NotInSpan, match="budget"):
            decompose_target(report, MatrixQ.unit(2, 0, 1))
        ((args, value),) = report.witnesses
        assert decompose_target(report, value.scale(3)) == [(3, args)]
        argv = ["decompose", "--poly", "X1*X1", "--dim", "2", "--seed", "0", "--max-samples", "1", "--target", "0,1;0,0"]
        assert main(argv) == 1
        doc = json.loads(capsys.readouterr().out)
        assert (doc["error"], doc["classification"]) == ("NotInSpan", "FULL") and "budget" in doc["message"]


class TestDimensionOne:
    def test_variable_full(self):
        report = classify_span(NcPoly.variable(1), 1)
        assert report.classification is Classification.FULL
        assert report.basis.rank == 1
        assert report.stop_reason is StopReason.LIE_IDEAL
        assert report.samples_used == len(report.grown) == 1

    def test_commutator_zero(self):
        # sl_1 = 0: a sum of commutators is proved ZERO by its first sample.
        report = classify_span(parse_poly("[X1,X2]"), 1)
        assert report.classification is Classification.ZERO
        assert report.basis.rank == 0
        assert report.witnesses == ()
        assert report.samples_used == 1
        assert report.stop_reason is StopReason.LIE_IDEAL

    def test_nonzero_constant_full(self):
        # Scalars and everything coincide on M_1; one nonzero value proves FULL.
        report = classify_span(NcPoly.constant(Fraction(-3, 2)), 1)
        assert report.classification is Classification.FULL
        assert report.samples_used == 1
        assert report.stop_reason is StopReason.LIE_IDEAL


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


class TestEchelonModP:
    def test_rank_agrees_with_exact_rank(self):
        rng = random.Random(61)
        for _ in range(30):
            n = rng.randint(1, 9)
            # few distinct rows, so dependencies are common
            pool = [[rng.randint(-4, 4) for _ in range(n)] for _ in range(3)]
            echelon = EchelonModP(9)
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
        echelon = EchelonModP(2)
        assert not echelon.insert([PRIME, -3 * PRIME])
        assert echelon.insert([1, 2])
        assert not echelon.insert([1 + PRIME, 2])
        assert echelon.insert([0, 5 * PRIME**3 + 1])
        assert echelon.rank == 2

    def test_rank_agrees_with_fraction_rank_on_huge_entries(self):
        rng = random.Random(130)
        for n in (4, 9, 16, 25):
            # Dependent vectors: integer combinations of a few huge ones.
            pool = [[rng.randint(-(2**140), 2**140) for _ in range(n)] for _ in range(3)]
            pool.append([x * (2**131 + 1) for x in pool[0]])
            echelon = EchelonModP(n)
            rows, pivots = (), ()
            for _ in range(8):
                coeffs = [rng.randint(-9, 9) for _ in pool]
                vec = [sum(c * v[k] for c, v in zip(coeffs, pool)) for k in range(n)]
                assert any(abs(x) > 2**130 for x in vec)
                rows, pivots, grew_q = reference_rref_insert(rows, pivots, vec)
                assert echelon.insert(vec) == grew_q
            assert echelon.rank == len(rows) <= 3

    def test_units_agree_with_exact_rank(self):
        # insert_unit(k, c) adjoins c * e_k: each of its rules (c = 0 mod p,
        # a unit already adjoined, a slot that is no pivot, a pivot slot)
        # against the exact rank, with vectors inserted between the units.
        rng = random.Random(63)
        for _ in range(40):
            n = rng.randint(2, 12)
            echelon = EchelonModP(n)
            rows, pivots = (), ()
            for step in range(2 * n):
                if step and rng.random() < 0.5:
                    k, c = rng.randrange(n), rng.choice((1, -2, 7, PRIME, -3 * PRIME, 2 * PRIME + 5))
                    grew = echelon.insert_unit(k, c)
                    if c % PRIME == 0:
                        assert not grew
                        continue
                    vec = [c * (r == k) for r in range(n)]
                else:
                    vec = [rng.choice((0, 0, 0, 1, -1, 3)) for _ in range(n)]
                    grew = echelon.insert(vec)
                rows, pivots, grew_q = reference_rref_insert(rows, pivots, vec)
                assert grew == grew_q
            assert echelon.rank == len(rows)

    @pytest.mark.parametrize("n", (64, 256))
    def test_slots_reach_the_width_bound(self, n, monkeypatch):
        # Rows pivot on their highest nonzero slot.  v_k is -1 mod p at
        # n - 1 - k..n - 1 and -(k + 1) at 0, zero between, so row k is
        # -(e_(n-1-k) + e_0) mod p: each later vector is reduced by every
        # row with multiplier p - 1, and slot 0 gains (p - 1)^2 from each,
        # up to the p + n * p^2 the slots are sized for.  Multiples of p,
        # and now and then an integer combination of two vectors, go in
        # between; neither may grow the rank.
        rng = random.Random(n)
        peak = []
        real_fold = EchelonModP._fold

        def fold(self, v):
            peak.append(v & ((1 << self._bits) - 1))
            return real_fold(self, v)

        monkeypatch.setattr(EchelonModP, "_fold", fold)
        echelon = EchelonModP(n)
        rows, pivots, grown = (), (), []
        for k in range(n - 1):
            vec = [rng.choice((-1, PRIME - 1, 2 * PRIME - 1, -PRIME - 1)) for _ in range(k)]
            vec = [-(k + 1) + PRIME * rng.randint(-9, 9)] + [0] * (n - k - 2) + [-1] + vec
            candidates = [vec, [PRIME * rng.randint(-(2**40), 2**40) for _ in range(n)]]
            if grown and k % 4 == 0:
                a, b = rng.randint(-9, 9), PRIME * rng.randint(1, 9) - 1
                candidates.append([a * x + b * y for x, y in zip(rng.choice(grown), vec)])
            for w in candidates:
                grew = echelon.insert(w)
                if all(x % PRIME == 0 for x in w):
                    assert not grew
                    continue
                rows, pivots, grew_q = reference_rref_insert(rows, pivots, w)
                assert grew == grew_q, k
            grown.append(vec)
        assert echelon.rank == len(rows) == n - 1
        bound = (PRIME - 1) * (1 + n * (PRIME - 1))
        assert (n - 2) * (PRIME - 1) ** 2 <= max(peak) <= bound < 1 << echelon._bits


class TestGrowthDecisions:
    """Every growth flag of the rank loop and of the shear closure, replayed over Q.

    EchelonModP is swapped, in reference_classify_span and in span, for one
    that repeats each insert on an exact forward echelon
    (reference_forward_insert); the flags must agree insert for insert.
    The walk decides each c- by its unit (see span._walk), which the replay
    repeats on c-'s full value: the c+ inserted just before, conjugated by
    (I + E_ij)^-1 (I - E_ij) = I - 2 * E_ij.  It also checks the unit's
    scalar c exactly: (c+ + c- - c * e_ij) / 2 is the parent's value, so it
    is even and lies in the exact span.
    """

    @pytest.fixture
    def flags(self, monkeypatch):
        log = []

        class Replayed(EchelonModP):
            def __init__(self, n):
                super().__init__(n)
                self.exact = ()

            def replay(self, grew, vec):
                self.exact, grew_q = reference_forward_insert(self.exact, vec)
                log.append((grew, grew_q))
                return grew

            def insert(self, vec):
                self.plus = list(vec)
                return self.replay(super().insert(vec), vec)

            def insert_unit(self, k, c):
                d = math.isqrt(len(self.plus))
                rows = [self.plus[r : r + d] for r in range(0, d * d, d)]
                helpers.reference_conjugate(rows, *divmod(k, d), -2)
                minus = [x for row in rows for x in row]
                twice = [x + y - c * (r == k) for r, (x, y) in enumerate(zip(self.plus, minus))]
                assert not any(x % 2 for x in twice)
                assert not reference_forward_insert(self.exact, [x // 2 for x in twice])[1]
                return self.replay(super().insert_unit(k, c), minus)

        monkeypatch.setattr(helpers, "EchelonModP", Replayed)
        monkeypatch.setattr(span, "EchelonModP", Replayed)
        return log

    @pytest.mark.parametrize("battery", sorted(BATTERIES))
    def test_batteries(self, battery, flags):
        # The rank loop runs on the reference only; every classify_span
        # report, proved or sampled, has a shear walk.
        for f, d, cfg in BATTERIES[battery]():
            where = f"{poly_to_text(f)} at d={d}, {cfg}"
            for grown in (lambda: reference_classify_span(f, d, cfg).grown, lambda: classify_span(f, d, cfg).grown):
                start = len(flags)
                rows = grown()
                assert all(grew == grew_q for grew, grew_q in flags[start:]), where
                assert sum(grew for grew, _ in flags[start:]) == len(rows), where

    @pytest.mark.parametrize("seed", range(5))
    @pytest.mark.parametrize("text, d", (("[X1,X2]", 7), ("X1*X2", 8), ("[X1,X2]^2", 8)))
    def test_highdim_panel(self, text, d, seed, flags):
        report = reference_classify_span(parse_poly(text), d, SampleConfig(seed=seed))
        assert flags == [(True, True)] * len(report.grown)
        assert len(report.grown) == report.basis.rank
        # The closure keeps only the candidates that grow.
        flags.clear()
        grown = classify_span(parse_poly(text), d, SampleConfig(seed=seed)).grown
        assert all(grew == grew_q for grew, grew_q in flags)
        assert sum(grew for grew, _ in flags) == len(grown) == report.basis.rank

    def test_forward_reference_agrees_with_rref(self):
        # The forward echelon against the full RREF it replaced in the
        # replay, and EchelonQ, the reference walk's echelon, on the same
        # vectors cleared of denominators: the same flags on streams with
        # many dependencies.
        rng = random.Random(62)
        flags = set()
        for _ in range(60):
            n = rng.randint(1, 16)
            pool = [[rng.randint(-5, 5) for _ in range(n)] for _ in range(rng.randint(1, n))]
            forward, rows, pivots = (), (), ()
            exact = EchelonQ()
            for _ in range(rng.randint(1, 2 * n)):
                coeffs = [rng.choice((0, 0, 1, -2, 3)) for _ in pool]
                vec = [sum(c * v[k] for c, v in zip(coeffs, pool)) for k in range(n)]
                vec = [Fraction(x, 3) for x in vec] if rng.random() < 0.5 else vec
                forward, grew = reference_forward_insert(forward, vec)
                rows, pivots, grew_q = reference_rref_insert(rows, pivots, vec)
                assert grew == grew_q == exact.insert([int(3 * x) for x in vec])
                flags.add(grew)
            assert len(forward) == len(rows) == len(exact.rows)
        assert flags == {True, False}


class TestSampleStream:
    @pytest.mark.parametrize("bound", (1, 3, 10, 127, 128, 1000, 2**31 - 1, 2**31, 2**40))
    def test_samples_match_random_matrices(self, bound):
        # At 2**31 and 2**40 each draw is getrandbits(33) or (42): two 32-bit words.
        f = parse_poly("X1*X2*X3 - 2*X3")
        cfg = SampleConfig(seed=bound, coeff_bound=bound, max_samples=40)
        for d in (1, 3):
            ref = random.Random(cfg.seed)
            for entries in span._samples(f, d, cfg):
                want = tuple(random_matrix_int(ref, d, bound) for _ in range(3))
                assert span._matrices(entries, d) == want
            # A constant has no variables, so every sample is empty.
            assert list(span._samples(parse_poly("5"), d, cfg)) == [[]] * 40


class TestPackedEvaluation:
    def test_dimension_one(self):
        rng = random.Random(11)
        for _ in range(50):
            f = random_poly(rng, nvars=3, max_degree=5).scale(Fraction(rng.randint(1, 9), rng.randint(1, 9)))
            args = [MatrixQ([[Fraction(rng.randint(-20, 20), rng.randint(1, 5))]]) for _ in range(3)]
            assert evaluate(f, args, 1) == reference_evaluate(f, args, 1)

    def test_slots_wider_than_64_bits(self):
        rng = random.Random(12)
        f = parse_poly("123456789012345678901234567890*X1*X2 - 98765432109876543210*X2*X1*X1 + 7")
        for d in (1, 2, 4):
            args = [random_matrix_int(rng, d, 10**6) for _ in range(2)]
            got = evaluate(f, args)
            assert got == reference_evaluate(f, args, d)
            assert max(abs(x) for x in got.flatten()) > 2**64

    def test_power_at_coeff_bound_1000(self):
        f = parse_poly("(X1+X2)^8")
        cfg = SampleConfig(seed=3, coeff_bound=1000, max_samples=6)
        for d in (1, 2, 3):
            ev = span._evaluator(f, d, cfg.coeff_bound)
            for entries in span._samples(f, d, cfg):
                vec = ev(entries)
                args = span._matrices(entries, d)
                assert vec == list(reference_evaluate(f, args, d).flatten())
        assert max(map(abs, vec)) > 2**64

    def test_every_slot_width(self):
        # Bounds that need 1, 2, 4, 8 and 16 bytes per slot.
        rng = random.Random(13)
        f = parse_poly("X1*X2 - 3*X2*X1*X2 + X1 - 2")
        for bound in (1, 10, 1000, 10**6, 10**12):
            for d in (1, 2, 3):
                args = [random_matrix_int(rng, d, bound) for _ in range(2)]
                assert evaluate(f, args) == reference_evaluate(f, args, d)

    @pytest.mark.parametrize("width", (1, 2, 4, 8, 16))
    @pytest.mark.parametrize("d", (1, 2, 3, 8, 16))
    def test_slot_offset_is_each_slots_top_bit(self, d, width):
        # For f = X1 the bound B = 2^(8w - 1) - 1 sizes width-w slots, so B
        # and -B fill a slot to its edges, and 0 and -1 leave every bit of
        # it clear or set: the offset's top bits must undo each exactly.
        top = 2 ** (8 * width - 1) - 1
        ev = span._packed_evaluator([((1,), 1)], d, top)
        n = d * d
        for entries in ([top] * n, [-top] * n, [0] * n, [-1] * n, [(top, -top, 0, -1)[k % 4] for k in range(n)]):
            assert ev(entries) == entries

    def test_fraction_arguments(self):
        rng = random.Random(14)
        for d in (1, 2, 3):
            for _ in range(20):
                f = random_poly(rng, nvars=3, max_degree=4)
                f = f.scale(Fraction(rng.choice((1, -2, 5)), rng.choice((1, 3, 4))))
                args = [
                    MatrixQ([[Fraction(rng.randint(-9, 9), rng.randint(1, 6)) for _ in range(d)] for _ in range(d)])
                    for _ in range(3)
                ]
                assert evaluate(f, args, d) == reference_evaluate(f, args, d)

    # The compiled word DAG against the word-by-word loop in helpers.

    @staticmethod
    def assert_matches_reference(f, d, bound, rng, draws=3):
        """Both evaluators agree on random entries and on entries at +-bound."""
        _, terms = reference_integer_terms(f)
        got = span._packed_evaluator(terms, d, bound)
        want = reference_packed_evaluator(terms, d, bound)
        size = f.nvars * d * d
        tuples = [[bound] * size, [bound * (-1) ** k for k in range(size)]]
        tuples += [[rng.randint(-bound, bound) for _ in range(size)] for _ in range(draws)]
        for entries in tuples:
            assert got(entries) == want(entries), (poly_to_text(f), d, bound, entries)

    @pytest.mark.parametrize("d", range(1, 9))
    def test_dag_matches_reference_random(self, d):
        rng = random.Random(100 + d)
        for _ in range(12 if d < 5 else 4):
            f = random_poly(rng, nvars=3, max_degree=5, max_terms=8)
            f = f.scale(Fraction(rng.choice((1, -2, 5)), rng.choice((1, 3, 4, 7))))
            self.assert_matches_reference(f, d, rng.choice((1, 3, 10)), rng)

    @pytest.mark.parametrize("d", range(1, 9))
    def test_dag_matches_reference_structured(self, d):
        rng = random.Random(200 + d)
        texts = [f"(X1+X2)^{k}" for k in range(1, 7)] + ["(X1+X2+X3)^3", "((X1+X2)^2)^2"]
        # Sub-tries equal in shape, not in coefficients, so a wrong merge shows;
        # and sub-tries equal up to a factor, which share one step.
        texts += [
            "X1*X2 + 2*X3*X2",
            "X1*X2 - X2*X2",
            "X1*X2*X1 + 2*X2*X2*X1 - X3*X2*X1",
            "X1*X2 + 2*X1*X3 + 2*X2*X2 + 4*X2*X3",
            "X1*(X2 + 3) + X2*(2*X2 + 6) - 5",
            "X1*X2*X3 + X2*X2*X3 + X1*X3 + X2*X3",
            "[X1,X2]*[X1,X3] - [X1,X3]*[X1,X2]",
        ]
        # Zero, constants and terms that cancel.
        texts += ["0", "7", "-3/2", "X1*X2 - X1*X2 + X2 - X2", "X1 + 1 - X1", "(X1+X2)^2 - X1^2 - X2^2 - X1*X2"]
        if d <= 4:
            texts += ["(X1+X2)^8", "(X1^2+X2^2)^3 - (X1+X2)^2"]
        polys = [parse_poly(text) for text in texts]
        polys += [standard_polynomial(k) for k in range(2, 6)]
        # Linearization outputs, which share most of their structure.
        for g in (parse_poly("X1^3"), parse_poly("X1^2*X2 + 2*X2*X1^2"), parse_poly("[X1,X2]^2")):
            polys.append(delta(g, 1, g.nvars + 1))
            polys.append(delta(delta(g, 1, g.nvars + 1), 1, g.nvars + 2))
        for f in polys:
            self.assert_matches_reference(f, d, rng.choice((1, 2, 10)), rng, draws=2)

    @pytest.mark.parametrize(
        "d, bound", ((32, 10), (64, 10), (32, 10**12)), ids=("d32-b10", "d64-b10", "d32-b1e12")
    )
    def test_large_d_matches_reference(self, d, bound):
        # The root's rows are packed by shifts across d^2 slots: held to the
        # word-by-word loop, which packs them by powers of two, at large d.
        rng = random.Random(d + bound)
        for text in ("[X1,X2]", "X1*X2", "(X1+X2)^3"):
            f = parse_poly(text)
            ev = span._evaluator(f, d, bound)
            want = reference_packed_evaluator(reference_integer_terms(f)[1], d, bound)
            entries = [rng.randint(-bound, bound) for _ in range(f.nvars * d * d)]
            assert ev(entries) == want(entries), (text, d, bound)

    def test_dag_matches_reference_every_slot_width(self):
        # Bounds that need 1, 2, 4, 8 and 16 bytes per slot, as above.
        rng = random.Random(300)
        texts = ("X1*X2 - 3*X2*X1*X2 + X1 - 2", "X1*X2 + 2*X3*X2", "(X1+X2)^3 - 1")
        # Three signed root parts and a constant, and a constant alone.
        texts += ("-1*X1 + 2*X2 - 3*X3 + 5", "-7")
        polys = [parse_poly(text) for text in texts]
        widths = set()
        for bound in (1, 10, 1000, 10**6, 10**12):
            for d in (1, 2, 3):
                for f in polys:
                    self.assert_matches_reference(f, d, bound, rng, draws=2)
                    _, terms = reference_integer_terms(f)
                    top = sum(abs(c) * d ** max(len(w) - 1, 0) * bound ** len(w) for w, c in terms)
                    widths.add(1 << ((top.bit_length() + 8) // 8 - 1).bit_length())
        assert widths == {1, 2, 4, 8, 16}

    def test_shared_structure_is_computed_once(self):
        def compiled(f, d):
            _, terms = reference_integer_terms(parse_poly(f) if isinstance(f, str) else f)
            root, steps, _, _ = span._compile(terms, d)
            return root, len(steps)

        def steps(f, d):
            return compiled(f, d)[1]

        # The root closes like any node: its parts are one step that sums
        # them, or no step when it is a constant (g * vals[0] = g * I).
        # (X1+X2)^k: one pack and k - 1 products, not 2^k (k - 1) products.
        for k in range(1, 9):
            assert steps(f"(X1+X2)^{k}", 3) == k
        # X1*X2 + 2*X3*X2: X2 is packed once for both words, and the root
        # is one step of two parts.
        assert steps("X1*X2 + 2*X3*X2", 3) == 2
        # 2^8 words of length 24, and 5 steps a factor: two products down
        # each of X1^3 and X2^3 below it; the root's sum is the last factor's.
        assert steps("(X1^3+X2^3)^8", 2) == 5 * 8
        # S_4: the nodes after two prefixes of the same letters differ at
        # most in sign and share a step: one for each nonempty proper subset
        # of the letters left (14), then one step for the four first letters.
        assert steps(standard_polynomial(4), 2) == 14 + 1
        # A constant is the root's factor, and zero is the factor 0.
        assert compiled("5", 2) == ((5, 0), 0)
        assert compiled("0", 2) == ((0, 0), 0)


@pytest.fixture
def evaluations(monkeypatch):
    """Every entry list that a packed evaluator is called on, in order."""
    calls = []
    real = span._packed_evaluator

    def counting(*spec):
        ev = real(*spec)
        return lambda entries: calls.append(entries) or ev(entries)

    monkeypatch.setattr(span, "_packed_evaluator", counting)
    return calls


class TestIdentitySamplesFirst:
    def test_one_evaluation_disproves(self, evaluations):
        # Degree 6 >= 2d at d=3: sampled, and one value disproves it.
        assert not is_identity(parse_poly("[X1,X2]*X3*X3*X3*X3"), 3)
        assert len(evaluations) == 1
        # Degree 3 < 2d: the degree decides, with no evaluation.
        assert not is_identity(parse_poly("[X1,X2]*X3"), 3)
        assert len(evaluations) == 1

    def test_identity_still_walks_every_unit_tuple(self, evaluations):
        assert is_identity(standard_polynomial(4), 2)
        assert len(evaluations) == 1 + 4**4

    def test_verdicts_match_the_unit_walk(self):
        rng = random.Random(15)
        cfg = SampleConfig(seed=2)
        for d in (1, 2, 3):
            for n in (1, 2, 3):
                f = NcPoly({w: rng.randint(-3, 3) for w in itertools.permutations(range(1, n + 1))})
                if f.is_zero():
                    continue
                units = [MatrixQ.unit(d, j, k) for j in range(d) for k in range(d)]
                walk = all(
                    reference_evaluate(f, tup, d).is_zero()
                    for tup in itertools.product(units, repeat=n)
                )
                assert is_identity(f, d, cfg) == walk


class TestVerdictsOnePass:
    def test_central_multilinear_walks_its_own_unit_tuples(self, evaluations):
        # The first sample, then the 4^4 unit tuples of f itself.
        assert is_central(parse_poly("[X1,X2]*[X3,X4] + [X3,X4]*[X1,X2]"), 2)
        assert len(evaluations) == 1 + 4**4

    def test_central_sampled_reads_its_own_stream(self, evaluations):
        assert is_central(parse_poly("[X1,X2]^2"), 2)
        assert len(evaluations) == SampleConfig().samples_for(2)

    def test_unit_walk_builds_no_table(self):
        # A constant counts as multilinear with no variables: its walk is one
        # empty tuple.  A table of the d^2 unit vectors (d^4 entries) peaks
        # near 22 MiB at d = 40; the lazy walk stays near 0.1 MiB.
        tracemalloc.start()
        try:
            assert span._verdicts(NcPoly.constant(5), 40, SampleConfig()) == (False, True)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2 * 2**20


class TestSharedEvaluators:
    """span._evaluator: each call builds one evaluator, for the dimension
    and bound asked for, and keeps nothing on the polynomial."""

    def test_keyed_by_dimension_and_bound(self):
        rng = random.Random(19)
        f = parse_poly("X1*X2 - 3*X2*X1*X2 + 1/2*X1 - 2")
        terms = reference_integer_terms(f)[1]
        for d, bound in [(d, bound) for bound in (10, 10**12) for d in (2, 3)]:
            ev = span._evaluator(f, d, bound)
            # Entries at the bound overflow the slots of a smaller bound, so
            # a d = 2 or bound-10 evaluator built in the wrong place would show.
            want = reference_packed_evaluator(terms, d, bound)
            size = 2 * d * d
            for entries in ([bound] * size, [rng.randint(-bound, bound) for _ in range(size)]):
                assert ev(entries) == want(entries), (d, bound)

    def test_nothing_outlives_the_polynomial(self):
        # Nothing is kept: the evaluator goes with its last reference while
        # f lives, and f's slots read as they did before the build.
        f = parse_poly("[X1,X2]")
        before = [getattr(f, slot) for slot in NcPoly.__slots__]
        kept = weakref.ref(span._evaluator(f, 2, 10))
        gc.collect()
        assert kept() is None
        assert [getattr(f, slot) for slot in NcPoly.__slots__] == before

    def test_classified_polynomial_and_report_pickle(self):
        """A classified polynomial pickles, and so does a report whose
        witness rows, witnesses and basis were read."""
        f = parse_poly("3/2*X1*X1*X2 + [X2,X1]")
        cfg = SampleConfig(seed=4)
        report = classify_span(f, 3, cfg)
        assert report.grown and report.witnesses and report.basis.rank == 9
        for original in (f, report):
            copy = pickle.loads(pickle.dumps(original))
            assert copy == original and hash(copy) == hash(original)
            poly = copy if original is f else copy.poly
            assert classify_span(poly, 3, cfg) == report
        assert (copy.witnesses, copy.basis) == (report.witnesses, report.basis)


def battery_small_dims():
    """(f, d, cfg) at d = 1..4, each with the default budget and with 3
    samples, and the trace-zero non-sum at d = 2 with 2 samples."""
    rng = random.Random(2028)
    polys = [parse_poly(text) for text in HEADLINE] + [battery_poly(rng) for _ in range(25)]
    polys.append(TRACE_ZERO_NON_SUM)
    cases = [
        (f, d, SampleConfig(seed=k, max_samples=budget))
        for d in (1, 2, 3, 4)
        for budget in (None, 3)
        for k, f in enumerate(polys)
    ]
    # Two samples: the budget cuts its sampled TRACE_ZERO short.
    return cases + [(TRACE_ZERO_NON_SUM, 2, SampleConfig(seed=k, max_samples=2)) for k in (0, 1)]


@pytest.fixture
def witness_builds(monkeypatch):
    """The names of span._matrices and span._unscaled, one per call: the
    two builders of witness matrices."""
    built = []
    for name in ("_matrices", "_unscaled"):
        real = getattr(span, name)
        monkeypatch.setattr(span, name, lambda *a, real=real, name=name: built.append(name) or real(*a))
    return built


class TestSampledSpan:
    """classify_span's integer rows: the samples that raised the class, with
    grown and the witnesses unbuilt until read."""

    def test_scale_is_read_from_the_polynomial(self):
        """The report's L, read from f in each call, is the lcm of f's
        coefficient denominators on the seeded batteries: rational
        coefficients, constants, and the zero polynomial, whose L is 1."""
        cases = [case for name in ("constants", "d3-rational", "budget-3") for case in DOCUMENT_BATTERIES[name]()]
        assert any(f.is_zero() for f, _, _ in cases) and any(f.degree() == 0 for f, _, _ in cases)
        scales = set()
        for f, d, cfg in cases:
            want = reference_integer_terms(f)[0]
            assert classify_span(f, d, cfg).scale == want, (poly_to_text(f), d, cfg)
            scales.add(want)
        assert len(scales) > 3

    @pytest.mark.parametrize("battery", ["small-dims", "d3", "d3-rational", "budget-3"])
    def test_agrees_with_classify_span(self, battery):
        cases = battery_small_dims() if battery == "small-dims" else BATTERIES[battery]()
        seen = set()
        for f, d, cfg in cases:
            got = classify_span(f, d, cfg)
            where = f"{poly_to_text(f)} at d={d}, {cfg}"
            # scale is L, the lcm of f's denominators, and each kept and
            # grown row is (entries of t, L * f(t)) in plain integers.
            assert got.scale == math.lcm(*(Fraction(c).denominator for c in f.terms.values())), where
            assert len(got.grown) == got.basis.rank, where
            for entries, vec in {*got.rows, *got.grown}:
                assert all(type(x) is int for x in entries + vec), where
                value = reference_evaluate(f, span._matrices(entries, d), d)
                assert vec == tuple(got.scale * x for x in value.flatten()), where
            seen.add((got.classification, got.stop_reason))
        # The walk grows a sampled class too: the trace-zero non-sum, cut by the budget or not.
        assert battery != "small-dims" or {
            (Classification.TRACE_ZERO, StopReason.STABILITY_WINDOW),
            (Classification.TRACE_ZERO, StopReason.BUDGET_EXHAUSTED),
        } <= seen

    @pytest.mark.parametrize("text", [*HEADLINE, "1/3*X1*X2 - 2/5*X2*X1", "[X1,X2]^2"])
    def test_witnesses_built_once_when_read(self, text, witness_builds):
        built = witness_builds
        f = parse_poly(text)
        for d in (1, 2, 3):
            for cfg in (SampleConfig(seed=7), SampleConfig(seed=7, max_samples=3)):
                report = classify_span(f, d, cfg)
                assert built == [], (text, d, cfg)
                witnesses = report.witnesses
                assert report.witnesses is witnesses
                assert built.count("_matrices") == len(report.grown) + built.count("_unscaled")
                assert built.count("_unscaled") == len(report.grown)
                assert all(reference_evaluate(f, args, d) == value for args, value in witnesses)
                built.clear()

    @pytest.mark.parametrize("text", [*HEADLINE, "1/3*X1*X2 - 2/5*X2*X1", "[X1,X2]^2"])
    def test_decompose_builds_inputs_only(self, text, witness_builds):
        built = witness_builds
        f = parse_poly(text)
        for d in (1, 2, 3):
            report = classify_span(f, d, SampleConfig(seed=7))
            members = row_matrices(report.basis)
            target = sum(members[1:], members[0]) if members else MatrixQ.zero(d)
            terms = decompose_target(report, target)
            assert built == ["_matrices"] * len(report.grown), (text, d)
            assert decompose_target(report, target) == terms and len(built) == len(report.grown)
            # The witnesses pair the same input tuples with their values.
            witnesses = report.witnesses
            assert built.count("_unscaled") == len(report.grown)
            assert all(args is inputs for (args, _), inputs in zip(witnesses, report._inputs, strict=True))
            built.clear()

    def test_equal_seeds_give_equal_reports(self):
        for text in (*HEADLINE, "5", "1/3*X1*X2 - 2/5*X2*X1"):
            f = parse_poly(text)
            for d, cfg in ((1, SampleConfig()), (3, SampleConfig(seed=7919)), (3, SampleConfig(max_samples=3))):
                a, b = classify_span(f, d, cfg), classify_span(f, d, cfg)
                assert a is not b and a == b and hash(a) == hash(b), (text, d)
                # Reading one report's samples and witnesses changes neither
                # its value nor its hash, and equal reports read equal runs.
                assert len(a.witnesses) == len(a.grown)
                assert a == b and hash(a) == hash(b) and len({a, b}) == 1, (text, d)
                assert (a.samples_used, a.stop_reason, a.scale, a.rows) == (b.samples_used, b.stop_reason, b.scale, b.rows)
                assert a.grown == b.grown
                # A report is its fields: replacing one keeps the samples.
                other = replace(a, sum_of_commutators=not a.sum_of_commutators)
                assert other != a and (other.samples_used, other.rows) == (a.samples_used, a.rows)
                same = replace(a)
                assert same == a and same.rows == a.rows and same.witnesses == a.witnesses
        assert classify_span(parse_poly("[X1,X2]"), 3, SampleConfig(seed=1)) != classify_span(
            parse_poly("[X1,X2]"), 3, SampleConfig(seed=2)
        )

    def test_suite_builds_no_witness(self, witness_builds, capsys):
        built = witness_builds
        for d in (2, 3):
            for extra in ((), ("--max-samples", "3")):
                argv = ["suite", "--corpus", CORPUS, "--dim", str(d), "--seed", "7919", *extra]
                assert main(argv) in (0, 1)
                assert built == [], argv
        # decompose solves on the report's witness inputs and verifies through
        # evaluate, which builds each value by _unscaled: the counters see both.
        main(["decompose", "--poly", "[X1,X2]", "--dim", "2", "--seed", "0", "--target", "0,1;0,0"])
        capsys.readouterr()
        assert set(built) == {"_matrices", "_unscaled"}

    @pytest.mark.parametrize("fmt", ["json", "text"])
    def test_classify_builds_no_witness(self, fmt, witness_builds, capsys):
        built = witness_builds
        for text in (*HEADLINE, "5"):
            for extra in ((), ("--max-samples", "3")):
                argv = ["classify", "--poly", text, "--dim", "3", "--seed", "0", "--format", fmt, *extra]
                assert main(argv) == 0
                assert capsys.readouterr().out
                assert built == [], argv


def battery_constants():
    return [
        (parse_poly(text), d, SampleConfig(seed=seed))
        for text in ("5", "-2/3", "0")
        for d in range(1, 7)
        for seed in (0, 7919)
    ]


DOCUMENT_BATTERIES = {"small-dims": battery_small_dims, "constants": battery_constants, **BATTERIES}


class TestClassifyDocument:
    """classify's stdout, rendered from the report's integer rows, against
    the document built field by field from the report's witness matrices."""

    @pytest.mark.parametrize("battery", sorted(DOCUMENT_BATTERIES))
    def test_same_stdout_as_reference(self, battery, capsys):
        classes, stops, denominators = set(), set(), False
        for f, d, cfg in DOCUMENT_BATTERIES[battery]():
            argv = ["classify", "--poly", poly_to_text(f), "--dim", str(d), "--seed", str(cfg.seed)]
            if cfg.max_samples is not None:
                argv += ["--max-samples", str(cfg.max_samples)]
            if cfg.coeff_bound != SampleConfig().coeff_bound:
                argv += ["--coeff-bound", str(cfg.coeff_bound)]
            code = main(argv)
            out = capsys.readouterr().out
            report = classify_span(f, d, cfg)
            assert out == json.dumps(reference_report_doc(report), indent=2) + "\n", argv
            assert code == 0, argv
            classes.add(report.classification)
            stops.add((report.classification, report.stop_reason))
            denominators = denominators or any(
                "/" in x for w in json.loads(out)["witnesses"] for row in w["value"] for x in row
            )
        if battery in ("small-dims", "budget-2"):
            # A trace-zero non-sum that the budget cuts short prints its witnesses too.
            assert (Classification.TRACE_ZERO, StopReason.BUDGET_EXHAUSTED) in stops
        if battery == "constants":
            # A nonzero constant spans the scalars, which are all of M_1.
            assert classes == {Classification.ZERO, Classification.SCALARS, Classification.FULL}
        if battery in ("d3-rational", "budget-3"):
            assert denominators

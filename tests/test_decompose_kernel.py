"""Decomposition through the shear certificate, and the elimination kernel.

decompose_target reads each lambda off the target through the report's
shear certificate, with no elimination; these tests require the same
NotInSpan verdicts and messages as the whole-system solve it replaced
(helpers.reference_decompose) and the Fraction Gauss-Jordan solve on the
witness values, and a sum of lambda * f(t) equal to the target exactly,
with f evaluated afresh at every returned tuple.  The kernel units pin
fraction_free_rref (also on [m | I], cleared of denominators, against a
Fraction inverse) and express_in_terms against their Fraction
references, and the two-phase fraction_free_rref against the one-sweep
Gauss-Jordan it replaced (identical pivots, det and rows).
"""

import functools
import itertools
import random
from fractions import Fraction

import pytest

from helpers import (
    battery_poly,
    certificate_inputs,
    fraction_gauss_jordan,
    random_matrix_int,
    reference_express_all,
    reference_express_in_terms,
    reference_fraction_free_rref,
    reference_classify_span,
    reference_inverse,
    reference_decompose,
    reference_rref,
    row_matrices,
    solution_fractions,
    spans_class,
)
from ncspan import (
    Classification,
    MatrixQ,
    NotInSpan,
    SampleConfig,
    SpanBasis,
    SpanReport,
    StopReason,
    classify_span,
    decompose_target,
    evaluate,
    parse_poly,
)
import ncspan.linalg
import ncspan.span
from ncspan.linalg import (
    _cleared,
    express_in_terms,
    fraction_free_rref,
)

HEADLINE = ("[X1,X2]", "X1*X2", "3/2*X1*X1*X2 + [X2,X1]", "[X1,X2]^2")


def reference_outcomes(report, targets):
    """For each target, NotInSpan's message if the Fraction Gauss-Jordan
    solve on the witness values and the targets inside the basis (see
    reference_express_all) refuses it, else the reference's lambda list."""
    inside = [t for t in targets if report.basis.contains(t)]
    sols = reference_express_all(
        [value.flatten() for _, value in report.witnesses], [t.flatten() for t in inside]
    )
    solved = dict(zip(map(id, inside), sols))
    out = []
    for t in targets:
        if id(t) not in solved:
            out.append(("NotInSpan", "target is outside the sampled span"))
            continue
        sol = solved[id(t)]
        assert sol is not None, "the witness values do not span the basis"
        out.append([(lam, args) for lam, (args, _) in zip(sol, report.witnesses) if lam])
    return out


def outcome(decompose, report, target):
    try:
        return decompose(report, target)
    except NotInSpan as exc:
        return ("NotInSpan", str(exc))


def targets(rng, report, count):
    """Rational combinations of the basis rows, a random integer matrix, and 0."""
    d = report.dim
    out = [MatrixQ.zero(d), random_matrix_int(rng, d)]
    rows = row_matrices(report.basis)
    for _ in range(count):
        acc = MatrixQ.zero(d)
        for row in rows:
            acc = acc + row.scale(Fraction(rng.randint(-9, 9), rng.choice((1, 2, 3, 7))))
        out.append(acc)
    return out


def assert_sums_to(report, terms, target, value_at=None):
    """terms is a list of (Fraction, tuple) whose sum of lam * f(t), f
    evaluated afresh at each tuple, is target exactly."""
    value_at = value_at or (lambda args: evaluate(report.poly, args, dim=report.dim))
    assert all(type(lam) is Fraction and lam for lam, _ in terms)
    total = MatrixQ.zero(report.dim)
    for lam, args in terms:
        total = total + value_at(args).scale(lam)
    assert total == target, (report.poly, report.dim, target)


def assert_same_decompositions(report, rng, count=3):
    f = report.poly
    if len(f.terms) == 1 and len(next(iter(f.terms))) == 1:
        return  # c * X_i: decompose_target writes the preimage down outright
    # f at each returned tuple, evaluated afresh once per report: the tuples
    # recur across its targets.
    value_at = functools.cache(lambda args: evaluate(f, args, dim=report.dim))
    chosen = targets(rng, report, count)
    for target, want in zip(chosen, reference_outcomes(report, chosen)):
        got = outcome(decompose_target, report, target)
        assert isinstance(got, list) == isinstance(want, list), (report.poly, report.dim, target)
        if isinstance(got, list):
            assert_sums_to(report, got, target, value_at)
        else:
            assert got == want


class TestAgainstReference:
    def test_battery_d3(self):
        rng = random.Random(3030)
        for _ in range(200):
            report = classify_span(battery_poly(rng), 3, SampleConfig(seed=0))
            assert_same_decompositions(report, rng, count=2)
        # The rational battery: lambda = L * mu, for L over many
        # denominators, and L = 12 at d = 2..4.
        rng = random.Random(3031)
        scales = set()
        cases = [(parse_poly("1/4*X1*X2 - 5/6*X2*X1"), d) for d in (2, 3, 4)]
        cases += [
            (battery_poly(rng).scale(Fraction(rng.choice((1, -2, 5)), rng.choice((3, 4, 7)))), 3)
            for _ in range(100)
        ]
        for f, d in cases:
            report = classify_span(f, d, SampleConfig(seed=0))
            scales.add(f.integer_form()[0])
            assert_same_decompositions(report, rng, count=2)
        assert {3, 4, 7, 12} <= scales

    @pytest.mark.parametrize("text", HEADLINE)
    @pytest.mark.parametrize("d", range(1, 6))
    def test_headline(self, text, d):
        rng = random.Random(d * 101 + len(text))
        for seed in (0, 7919):
            report = classify_span(parse_poly(text), d, SampleConfig(seed=seed))
            assert_same_decompositions(report, rng, count=3 if d < 5 else 1)

    @pytest.mark.parametrize("max_samples", (3, 20))
    def test_reference_partial_spans(self, max_samples):
        # The rank loop's partial spans, which only its reference still
        # leaves: express_in_terms on their rows against the Fraction solve.
        rng = random.Random(max_samples)
        undetermined = 0
        for text in HEADLINE:
            for d in (2, 3, 5):
                for seed in (0, 7919):
                    cfg = SampleConfig(seed=seed, max_samples=max_samples)
                    partial = reference_classify_span(parse_poly(text), d, cfg)
                    undetermined += partial.classification is None
                    rows = [vec for _, vec in partial.rows]
                    chosen = [t.flatten() for t in targets(rng, partial, 3)]
                    got = [solution_fractions(express_in_terms(rows, t)) for t in chosen]
                    assert got == reference_express_all(rows, chosen)
        assert undetermined > 0


class TestVerdicts:
    def test_trace_obstruction(self):
        report = classify_span(parse_poly("[X1,X2]"), 3, SampleConfig(seed=7919))
        target = MatrixQ.identity(3)
        with pytest.raises(NotInSpan, match="outside the sampled span"):
            decompose_target(report, target)
        assert reference_outcomes(report, [target])[0][0] == "NotInSpan"

    def test_zero_class(self):
        report = classify_span(parse_poly("[X1,X2]"), 1)
        assert report.classification is Classification.ZERO
        assert decompose_target(report, MatrixQ.zero(1)) == []
        with pytest.raises(NotInSpan):
            decompose_target(report, MatrixQ.identity(1))

    def test_scalar_class(self):
        # A scalar target is read off the one scalar row: one term, at the
        # witness's own inputs.
        f = parse_poly("[X1,X2]^2")
        report = classify_span(f, 2)
        assert report.classification is Classification.SCALARS
        ((lam, args),) = decompose_target(report, MatrixQ.identity(2).scale(Fraction(5, 3)))
        ((witness, value),) = report.witnesses
        assert args == witness and args is report._certificate.inputs(0)
        assert value.scale(lam) == MatrixQ.identity(2).scale(Fraction(5, 3))
        with pytest.raises(NotInSpan):
            decompose_target(report, MatrixQ.unit(2, 0, 1))


class TestHandBuiltReports:
    def test_witness_values_that_are_not_a_basis(self):
        # Integer rows (entries, f(t)), for f = X1*X2 with L = 1, whose
        # values repeat: the shear walk keeps only the rows that grow, up to
        # the class's rank, and the certificate reads the first non-scalar
        # row and the scalar one.
        cfg = SampleConfig()
        eye, e11, e12 = MatrixQ.identity(2), MatrixQ.unit(2, 0, 0), MatrixQ.unit(2, 0, 1)
        f = parse_poly("X1*X2")

        def row(*args):
            return tuple(x for a in args for x in a.flatten()), (args[0] * args[1]).flatten()

        scalar, nilpotent = row(eye, eye.scale(2)), row(eye, e12)
        for cls, rows, want in (
            (Classification.SCALARS, (scalar, scalar), "NotInSpan"),
            (Classification.TRACE_ZERO, (nilpotent, nilpotent), "NotInSpan"),
            (Classification.FULL, (nilpotent, nilpotent, scalar), list),
        ):
            report = SpanReport(f, 2, cls, 3, StopReason.BUDGET_EXHAUSTED, cfg, False, rows)
            assert report.rows is rows and report.samples_used == 3
            assert report.grown[0] == rows[0] and len(report.grown) == cls.rank(2)
            assert spans_class([value for _, value in report.witnesses], cls, 2)
            assert report._certificate.cls is cls
            for args, value in report.witnesses:
                assert evaluate(f, args) == value
            for target in (e11, e12, eye.scale(Fraction(5, 3))):
                got, want_outcome = outcome(decompose_target, report, target), reference_outcomes(report, [target])[0]
                assert isinstance(got, list) == isinstance(want_outcome, list)
                assert assert_as_whole_system(report, [target]) == isinstance(got, list)
                if not isinstance(got, list):
                    assert got == want_outcome
            got = outcome(decompose_target, report, e11)
            assert type(got) is want or got[0] == want


def exact_outcome(decompose, report, target):
    """decompose(report, target), or the class and message of its NotInSpan."""
    try:
        return decompose(report, target)
    except NotInSpan as exc:
        return (type(exc), str(exc))


def assert_as_whole_system(report, chosen):
    """decompose_target's NotInSpan verdicts and messages against the one
    solve of the whole system (reference_decompose), and each of its
    decompositions summed exactly; returns how many targets were
    decomposed."""
    solved = 0
    for target in chosen:
        got, want = exact_outcome(decompose_target, report, target), exact_outcome(reference_decompose, report, target)
        assert isinstance(got, list) == isinstance(want, list), (report.poly, report.dim, target)
        if isinstance(got, list):
            assert_sums_to(report, got, target)
            solved += 1
        else:
            assert got == want, (report.poly, report.dim, target)
    return solved


class TestPairReduction:
    """The certificate's reading against the whole system it replaced, on
    reports whose pairs read many entries and none."""

    @pytest.mark.parametrize("d", range(2, 7))
    def test_battery(self, d):
        rng = random.Random(5050 + d)
        pairs = 0
        for k in range(12 if d < 5 else 5):
            report = classify_span(battery_poly(rng), d, SampleConfig(seed=k))
            pairs += len(report._certificate.pairs)
            assert_as_whole_system(report, targets(rng, report, 2))
        assert pairs > 0

    def test_rational_polynomials(self):
        rng = random.Random(5057)
        scales = set()
        for d in (2, 3, 4, 5):
            for k in range(6):
                f = battery_poly(rng).scale(Fraction(rng.choice((1, -2, 5)), rng.choice((3, 4, 7))))
                report = classify_span(f, d, SampleConfig(seed=k))
                scales.add(f.integer_form()[0])
                assert assert_as_whole_system(report, targets(rng, report, 2)) >= 2
        assert {3, 4, 7} <= scales

    @pytest.mark.parametrize("text, d", (("P*[X1,X2]", 8), ("[X1,X2] + P", 6), ("P*X1 + 1", 6)))
    def test_multiples_of_p(self, text, d):
        # Values whose parts carry powers of p = 2^31 - 1: the certificate
        # divides by their entries exactly, whatever powers of p they carry.
        report = classify_span(parse_poly(text.replace("P", "2147483647")), d, SampleConfig(seed=0))
        assert len(report._certificate.pairs) == d * (d - 1)
        assert assert_as_whole_system(report, targets(random.Random(d), report, 1)) >= 2

    def test_budget_cut_reports(self):
        # A class the degree decides, with rows that fall short of it: the
        # certificate refuses, naming the budget, exactly where the whole
        # system over the walk's rows is inconsistent.
        rng = random.Random(5058)
        cut = solved = refused = 0
        for f, d, seed in itertools.product(map(parse_poly, ("X1*X1", "X1*X2", "X1*X2*X1", "[X1,X2]*X1")), (2, 3, 4), range(8)):
            report = classify_span(f, d, SampleConfig(seed=seed, max_samples=1, coeff_bound=1))
            if len(report.grown) >= report.rank:
                continue
            cut += 1
            assert report._certificate.cls.rank(d) == len(report.grown)
            chosen = targets(rng, report, 2)
            n = assert_as_whole_system(report, chosen)
            solved += n
            refused += sum(report.basis.contains(t) for t in chosen) - n
        assert cut > 5 and solved > 0 and refused > 0


def _refuse(*_, **__):
    raise AssertionError("decompose_target reached an elimination or the shear walk")


class TestCertificate:
    """decompose_target with every elimination and the walk patched to
    raise: fresh reports, read through the certificate alone."""

    @pytest.fixture
    def no_elimination(self, monkeypatch):
        for module, name in (
            (ncspan.linalg, "fraction_free_rref"),
            (ncspan.linalg, "express_in_terms"),
            (ncspan.linalg, "EchelonModP"),
            (ncspan.span, "EchelonModP"),
            (ncspan.span, "_shear_closure"),
        ):
            monkeypatch.setattr(module, name, _refuse)

    def decomposes(self, report, rng, count):
        """Exact decompositions of count combinations of the class's basis,
        a unit and the zero matrix; each stack's value is L * f at its inputs."""
        d, L = report.dim, report.poly.integer_form()[0]
        certificate = report._certificate
        assert certificate.cls is report.classification
        chosen = [t for t in targets(rng, report, count) if report.basis.contains(t)]
        if d > 1 and report.basis.contains(MatrixQ.unit(d, d - 1, 0)):
            chosen.append(MatrixQ.unit(d, d - 1, 0))
        for target in chosen:
            terms = decompose_target(report, target)
            assert_sums_to(report, terms, target)
            assert len(terms) <= len(certificate.stacks)
        for j, stack in enumerate(certificate.stacks):
            value = evaluate(report.poly, certificate.inputs(j), dim=d).scale(L)
            assert list(value.flatten()) == stack[: d * d]
        return certificate

    @pytest.mark.parametrize("d", range(1, 7))
    def test_headline(self, d, no_elimination):
        rng = random.Random(6060 + d)
        for text in (*HEADLINE, "3/2*X1*X1*X2 + [X2,X1]"):
            for seed in (0, 7919):
                report = classify_span(parse_poly(text), d, SampleConfig(seed=seed))
                certificate = self.decomposes(report, rng, 2 if d < 6 else 1)
                # One base, a pair per ordered (k, l) and the trace row when
                # it is not the base: no sample here needs a permuted copy.
                bound = 2 * d * (d - 1) + 2 if d > 1 else 1
                assert len(certificate.stacks) <= bound, (text, d, seed)

    def test_rational_polynomial_terms(self, no_elimination):
        f = parse_poly("3/2*X1*X1*X2 + [X2,X1]")
        report = classify_span(f, 3, SampleConfig(seed=0))
        target = MatrixQ([[1, 2, 0], [0, 0, 1], [3, 0, -1]])
        terms = decompose_target(report, target)
        assert_sums_to(report, terms, target)
        assert any(lam.denominator > 1 for lam, _ in terms)

    def test_multiple_of_p_at_d8(self, no_elimination):
        report = classify_span(parse_poly("2147483647*[X1,X2]"), 8, SampleConfig(seed=0))
        rng = random.Random(8)
        self.decomposes(report, rng, 1)
        target = random_matrix_int(rng, 8)
        target = target - MatrixQ.unit(8, 7, 7).scale(target.trace())
        assert_sums_to(report, decompose_target(report, target), target)

    def test_sparse_target_reads_only_its_pairs(self, no_elimination):
        # The shift matrix at d = 10 is the base and the nine pairs (i, i + 1).
        d = 10
        report = classify_span(parse_poly("[X1,X2]"), d, SampleConfig(seed=0))
        shift = MatrixQ([[int(j == i + 1) for j in range(d)] for i in range(d)])
        terms = decompose_target(report, shift)
        assert len(terms) == 19 and len(certificate_inputs(report)) == 19
        assert_sums_to(report, terms, shift)

    def test_diagonal_seed_is_shifted(self, no_elimination):
        # X1*X2 at (E_00, diag(1, 2, 3)): the value E_00 is diagonal, and
        # the base is its conjugate by I + E_01.
        d, f = 3, parse_poly("X1*X2")
        a, b = MatrixQ.unit(d, 0, 0), MatrixQ.diagonal([1, 2, 3])
        rows = ((a.flatten() + b.flatten(), (a * b).flatten()),)
        report = SpanReport(f, d, Classification.FULL, 1, StopReason.LIE_IDEAL, SampleConfig(), False, rows)
        certificate = report._certificate
        assert certificate.cls is Classification.FULL and certificate.trace == 0
        base = certificate.stacks[0][: d * d]
        assert base != list(rows[0][1]) and base[1] and sum(base[:: d + 1]) == 1
        rng = random.Random(3)
        for target in (random_matrix_int(rng, d), MatrixQ.identity(d), MatrixQ.unit(d, 2, 1)):
            assert_sums_to(report, decompose_target(report, target), target)
        self.decomposes(report, rng, 2)

    def test_zero_entries_read_a_permuted_base(self, no_elimination):
        # X1*X2 at (I, E_01): the value is 0 at (1, 0), and no stack has a
        # nonzero entry there when pair (0, 1) is read, so its center is a
        # permuted copy of the base, which later pairs share.
        d, f = 3, parse_poly("X1*X2")
        a, b = MatrixQ.identity(d), MatrixQ.unit(d, 0, 1)
        rows = ((a.flatten() + b.flatten(), b.flatten()),)
        report = SpanReport(f, d, Classification.TRACE_ZERO, 1, StopReason.LIE_IDEAL, SampleConfig(), False, rows)
        certificate = report._certificate
        assert certificate.cls is Classification.TRACE_ZERO and certificate.trace is None
        assert certificate.pairs[0, 1][0] == 1 and certificate.stacks[1][d] == 1
        copies = len(certificate.stacks) - 2 * d * (d - 1) - 1
        assert copies >= 1
        for (k, l), (c, _, c_lk) in certificate.pairs.items():
            assert c_lk == certificate.stacks[c][l * d + k] != 0
        rng = random.Random(4)
        for target in (MatrixQ.unit(d, 2, 0), MatrixQ.unit(d, 1, 0), MatrixQ.diagonal([1, -3, 2])):
            assert_sums_to(report, decompose_target(report, target), target)
        self.decomposes(report, rng, 3)

    def test_sparse_entries_read_other_conjugates(self, no_elimination):
        # X1*X2 at (I, b): b is 0 at (0, 2) and (1, 2), which pairs (2, 0)
        # and (2, 1) read through the conjugates of earlier pairs by
        # I + E_12 and I + E_02, with no permuted copy.
        d, f = 3, parse_poly("X1*X2")
        a, b = MatrixQ.identity(d), MatrixQ([[1, 1, 0], [2, 0, 0], [3, 4, 1]])
        rows = ((a.flatten() + b.flatten(), b.flatten()),)
        report = SpanReport(f, d, Classification.FULL, 1, StopReason.LIE_IDEAL, SampleConfig(), False, rows)
        certificate = report._certificate
        assert len(certificate.stacks) == 2 * d * (d - 1) + 1
        assert {c for c, _, _ in certificate.pairs.values()} != {0}
        rng = random.Random(5)
        for target in (MatrixQ.unit(d, 0, 1), MatrixQ.unit(d, 1, 2), MatrixQ.unit(d, 2, 0), MatrixQ.identity(d)):
            assert_sums_to(report, decompose_target(report, target), target)
        self.decomposes(report, rng, 3)

    def test_scalar_rows_use_no_base(self, no_elimination):
        report = classify_span(parse_poly("[X1,X2]^2"), 2, SampleConfig(seed=0))
        certificate = self.decomposes(report, random.Random(2), 2)
        assert certificate.cls is Classification.SCALARS and len(certificate.stacks) == 1


def bareiss_inverse(rows):
    """(pivots, det, adj) from fraction_free_rref on [rows | I], cleared of
    denominators: rows is invertible iff pivots is 0..d-1, and then its
    inverse is adj / det."""
    d = len(rows)
    _, aug = _cleared([*row, *(int(i == j) for j in range(d))] for i, row in enumerate(rows))
    pivots, det = fraction_free_rref(aug)
    return pivots, det, [row[d:] for row in aug]


class TestKernel:
    def test_rref_matches_fraction_rref(self):
        rng = random.Random(77)
        for _ in range(300):
            n, m, rank = rng.randint(1, 6), rng.randint(1, 7), rng.randint(0, 4)
            base = [[rng.randint(-5, 5) for _ in range(m)] for _ in range(rank)]
            rows = [
                [sum(rng.randint(-3, 3) * b[j] for b in base) for j in range(m)]
                for _ in range(n)
            ]
            want_rows, want_pivots = reference_rref(rows)
            work = [list(r) for r in rows]
            pivots, det = fraction_free_rref(work)
            assert tuple(pivots) == want_pivots
            assert det != 0
            got = [tuple(Fraction(x, det) for x in row) for row in work]
            assert tuple(got[: len(pivots)]) == want_rows
            assert not any(any(row) for row in work[len(pivots):])

    def test_insert_one_at_a_time_matches_one_pass(self):
        rng = random.Random(81)
        for d in range(1, 4):
            for _ in range(20):
                base = [
                    MatrixQ([[Fraction(rng.randint(-3, 3), rng.choice((1, 2, 5))) for _ in range(d)]
                             for _ in range(d)])
                    for _ in range(rng.randint(0, d * d))
                ]
                mats = base + [b + c for b, c in zip(base, base[1:])]
                rng.shuffle(mats)
                basis = SpanBasis(d)
                for m in mats:
                    basis, _ = basis.insert(m)
                assert (basis.rows, basis.pivots) == reference_rref([m.flatten() for m in mats])

    def test_adjugate_against_fraction_inverse(self):
        rng = random.Random(78)
        for d in range(1, 7):
            for k in range(16):
                m = random_matrix_int(rng, d)
                if k % 2:  # sparse, so pivots need row swaps
                    m = MatrixQ([[x if rng.random() < 0.3 else 0 for x in row] for row in m.rows])
                try:
                    inv = reference_inverse(m)
                except ValueError:
                    continue
                pivots, det, adj = bareiss_inverse(m.rows)
                assert pivots == list(range(d))
                assert MatrixQ(adj) == inv.scale(det)
                # det is the determinant: the signed product of Fraction pivots.
                assert det == fraction_gauss_jordan(m.rows)[2]

    def test_rational_inverse(self):
        rng = random.Random(79)
        for d in range(1, 6):
            for _ in range(8):
                m = MatrixQ(
                    [[Fraction(rng.randint(-6, 6), rng.randint(1, 4)) for _ in range(d)]
                     for _ in range(d)]
                )
                pivots, det, adj = bareiss_inverse(m.rows)
                try:
                    want = reference_inverse(m)
                except ValueError:
                    assert pivots != list(range(d))
                    continue
                assert pivots == list(range(d))
                assert MatrixQ(adj).scale(Fraction(1, det)) == want

    def test_swapped_rows_keep_the_determinant_sign(self):
        assert bareiss_inverse([[0, 1], [1, 0]]) == ([0, 1], -1, [[0, -1], [-1, 0]])
        assert bareiss_inverse([[0, 0, 2], [0, 1, 0], [1, 0, 0]])[1] == -2

    def test_singular_raises(self):
        singular = [[1, 2, 3], [2, 4, 6], [0, 1, 5]]
        assert bareiss_inverse(singular)[0] == [0, 1, 3]
        assert bareiss_inverse([[0]])[0] == [1]
        for rows in (singular, [[0]]):
            with pytest.raises(ValueError):
                reference_inverse(MatrixQ(rows))

    def test_empty_input(self):
        assert fraction_free_rref([]) == ([], 1)

    def test_express_in_terms_sets_free_coordinates_to_zero(self):
        v1, v3 = (1, 2, 0, 1), (0, 1, 1, Fraction(1, 2))
        v2 = tuple(2 * x for x in v1)
        target = [a + b for a, b in zip(v1, v3)]
        vecs = [v1, v2, v3]
        assert solution_fractions(express_in_terms(vecs, target)) == [1, 0, 1]
        assert solution_fractions(express_in_terms(vecs, target)) == reference_express_in_terms(vecs, target)
        assert express_in_terms(vecs, (0, 0, 0, 1)) is None

    def test_express_in_terms_against_reference(self):
        # Four kinds of input: Fraction entries throughout; plain ints with
        # an int target, which _cleared takes by its integer rule; int
        # vectors with a Fraction target; one Fraction column among int ones.
        def frac(low, high, denominators):
            return Fraction(rng.randint(low, high), rng.choice(denominators))

        for kind in ("fraction", "int", "fraction-target", "fraction-column"):
            rng = random.Random(80)
            for _ in range(300):
                k, n = rng.randint(0, 5), rng.randint(0, 7)
                if kind == "fraction":
                    vecs = [[frac(-4, 4, (1, 2, 3)) * rng.randint(0, 1) for _ in range(n)] for _ in range(k)]
                else:
                    vecs = [[rng.randint(-4, 4) * rng.randint(0, 1) for _ in range(n)] for _ in range(k)]
                if kind == "fraction-column" and vecs:
                    vecs[rng.randrange(k)] = [frac(-4, 4, (1, 2, 3)) for _ in range(n)]
                if vecs and rng.random() < 0.7:
                    if kind == "int":
                        coeffs = [rng.randint(-3, 3) for _ in vecs]
                    else:
                        coeffs = [Fraction(rng.randint(-3, 3), rng.randint(1, 4)) for _ in vecs]
                    target = [sum(c * v[i] for c, v in zip(coeffs, vecs)) for i in range(n)]
                else:
                    target = [rng.randint(-2, 2) for _ in range(n)]
                if kind == "fraction-target":
                    target = [frac(-2, 2, (1, 2, 3)) for _ in range(n)] if rng.random() < 0.3 else list(map(Fraction, target))
                if kind == "int":
                    assert {type(x) for v in [*vecs, target] for x in v} <= {int}
                assert solution_fractions(express_in_terms(vecs, target)) == reference_express_in_terms(vecs, target), kind

    @pytest.mark.parametrize("entry", ("int", "fraction"))
    def test_express_in_terms_returns_integers_over_det(self, entry):
        # The solve's contract: integer numerators over one nonzero integer
        # det, lam_j = numerators[j] / det, on square and tall systems; None
        # for a target outside the span.
        rng = random.Random(83)

        def draw():
            x = rng.randint(-4, 4)
            return x if entry == "int" else Fraction(x, rng.randint(1, 4))

        shapes, outside = set(), 0
        for _ in range(200):
            k = rng.randint(1, 5)
            n = rng.choice((k, k + rng.randint(1, 3)))
            vecs = [[draw() for _ in range(n)] for _ in range(k)]
            if rng.random() < 0.7:
                coeffs = [draw() for _ in vecs]
                target = [sum(c * v[i] for c, v in zip(coeffs, vecs)) for i in range(n)]
            else:
                target = [draw() for _ in range(n)]
            want, got = reference_express_in_terms(vecs, target), express_in_terms(vecs, target)
            if want is None:
                assert got is None
                outside += 1
                continue
            numerators, det = got
            assert type(det) is int and det != 0
            assert len(numerators) == k and {type(x) for x in numerators} == {int}
            assert [Fraction(x, det) for x in numerators] == want
            shapes.add("square" if n == k else "tall")
        assert shapes == {"square", "tall"} and outside > 0

    def test_reference_solves_all_targets_as_one_at_a_time(self):
        # The shared solve must give each target exactly its own answer.
        rng = random.Random(82)
        seen = set()
        for _ in range(200):
            k, n = rng.randint(0, 5), rng.randint(1, 7)
            vecs = [[rng.randint(-3, 3) * rng.randint(0, 1) for _ in range(n)] for _ in range(k)]
            targets = [
                [sum(c * v[i] for c, v in zip(coeffs, vecs)) + rng.randint(-1, 1) * rng.randint(0, 1)
                 for i in range(n)]
                for coeffs in ([Fraction(rng.randint(-3, 3), rng.randint(1, 4)) for _ in vecs] for _ in range(4))
            ]
            want = [reference_express_in_terms(vecs, t) for t in targets]
            assert reference_express_all(vecs, targets) == want
            seen.update(sol is None for sol in want)
        assert seen == {True, False}


def same_as_gauss_jordan(rows):
    """Run both kernels on copies of rows; assert identical (pivots, det, rows)."""
    want_rows = [list(r) for r in rows]
    want = reference_fraction_free_rref(want_rows)
    got_rows = [list(r) for r in rows]
    got = fraction_free_rref(got_rows)
    assert (got, got_rows) == (want, want_rows), rows
    return got


def low_rank_rows(rng, n, m, rank, bound=5):
    """n x m integer rows of rank <= rank; some columns are zero or a multiple
    of an earlier column, so free columns come before later pivots."""
    cols = []
    for j in range(m):
        kind = rng.random()
        if kind < 0.15:
            cols.append([0] * rank)
        elif kind < 0.35 and cols:
            c = rng.choice((-2, -1, 1, 3))
            cols.append([c * x for x in rng.choice(cols)])
        else:
            cols.append([rng.randint(-bound, bound) for _ in range(rank)])
    mix = [[rng.randint(-3, 3) for _ in range(rank)] for _ in range(n)]
    return [[sum(a * b for a, b in zip(w, col)) for col in cols] for w in mix]


class TestTwoPhaseAgainstGaussJordan:
    def test_random_shapes_and_ranks(self):
        rng = random.Random(9001)
        ranks = set()
        for _ in range(600):
            n, m = rng.randint(1, 8), rng.randint(1, 9)
            rank = rng.randint(0, min(6, n, m))
            pivots, _ = same_as_gauss_jordan(low_rank_rows(rng, n, m, rank))
            ranks.add(len(pivots))
        assert ranks == set(range(7))

    def test_free_columns_before_later_pivots(self):
        rng = random.Random(9002)
        gaps = 0
        for _ in range(300):
            n, m = rng.randint(2, 8), rng.randint(3, 9)
            pivots, _ = same_as_gauss_jordan(low_rank_rows(rng, n, m, rng.randint(2, min(6, n, m))))
            gaps += pivots != list(range(len(pivots)))
        assert same_as_gauss_jordan([[1, 2, 0, 1], [2, 4, 1, 0], [3, 6, 1, 1]]) == ([0, 2], 1)
        assert gaps > 100

    def test_sparse_rows_force_swaps(self):
        rng = random.Random(9003)
        swapped, negative = 0, 0
        for _ in range(400):
            n, m = rng.randint(1, 8), rng.randint(1, 9)
            rows = [[rng.randint(-9, 9) if rng.random() < 0.3 else 0 for _ in range(m)] for _ in range(n)]
            pivots, det = same_as_gauss_jordan(rows)
            # A zero at the first pivot of row 0 means row 0 was swapped away.
            swapped += bool(pivots) and not rows[0][pivots[0]]
            negative += det < 0
        assert same_as_gauss_jordan([[0, 1], [1, 0]]) == ([0, 1], -1)
        assert same_as_gauss_jordan([[0, 0, 2], [0, 1, 0], [1, 0, 0]]) == ([0, 1, 2], -2)
        assert swapped > 100 and negative > 100

    def test_empty_and_zero_inputs(self):
        assert same_as_gauss_jordan([]) == ([], 1)
        assert same_as_gauss_jordan([[]]) == ([], 1)
        assert same_as_gauss_jordan([[], []]) == ([], 1)
        for n, m in ((1, 1), (3, 1), (1, 4), (4, 5)):
            assert same_as_gauss_jordan([[0] * m for _ in range(n)]) == ([], 1)

    @pytest.mark.parametrize("d", (4, 5))
    def test_decompose_systems(self, d, monkeypatch):
        # Each system handed to the kernel is also reduced by the
        # Gauss-Jordan reference.  decompose_target hands it none: its
        # in-span targets are read through the certificate; the
        # nonzero-trace ones go straight to express_in_terms, which solves
        # the whole system over the witness values.
        solves, want = [], []

        def checked(rows):
            solves.append((len(rows), len(rows[0])))
            same_as_gauss_jordan(rows)
            return fraction_free_rref(rows)

        monkeypatch.setattr(ncspan.linalg, "fraction_free_rref", checked)
        rng = random.Random(9004 + d)
        for text in ("[X1,X2]", "X1*X2", "[X1,X2]^2"):
            report = classify_span(parse_poly(text), d, SampleConfig(seed=7919))
            vectors = [value.flatten() for _, value in report.witnesses]
            trace_zero = report.classification is Classification.TRACE_ZERO
            want += [(d * d, len(report.grown) + 1)] * 3
            for k in range(3):
                target = MatrixQ.zero(d)
                for _, value in report.witnesses:
                    target = target + value.scale(Fraction(rng.randint(-3, 3), rng.randint(1, 3)))
                assert_sums_to(report, decompose_target(report, target), target)
                off = MatrixQ.diagonal([k + 1] + [0] * (d - 1))
                assert (express_in_terms(vectors, (target + off).flatten()) is None) == trace_zero
        assert len(solves) == 9 and solves == want

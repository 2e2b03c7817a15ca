"""Decomposition through the fraction-free elimination kernel.

decompose_target solves each target with the fraction-free
express_in_terms, on the system left once each kept shear pair is a unit
column; these tests require the same lambda lists, element by element, as
the Fraction Gauss-Jordan solve kept in helpers and as the whole-system
solve it replaced (helpers.reference_decompose), and the same NotInSpan
verdicts.  The kernel units pin fraction_free_rref (also on
[m | I], cleared of denominators, against a Fraction inverse) and
express_in_terms against their Fraction references, and
the two-phase fraction_free_rref against the one-sweep Gauss-Jordan it
replaced (identical pivots, det and rows).
"""

import functools
import itertools
import random
from fractions import Fraction

import pytest

from helpers import (
    battery_poly,
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
    spans_class,
    unit_pairs,
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
from ncspan.linalg import (
    _cleared,
    express_in_terms,
    fraction_free_rref,
)

HEADLINE = ("[X1,X2]", "X1*X2", "3/2*X1*X1*X2 + [X2,X1]", "[X1,X2]^2")


def reference_outcomes(report, targets):
    """outcome(decompose_target, report, t) for each target, with every solve
    by Fraction Gauss-Jordan: one on the witness values and the targets
    inside the basis (see reference_express_all)."""
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


def assert_same_decompositions(report, rng, count=3):
    f = report.poly
    if len(f.terms) == 1 and len(next(iter(f.terms))) == 1:
        return  # c * X_i: decompose_target writes the preimage down outright
    # f at each witness tuple, evaluated afresh once per report: the tuples
    # recur across its targets.
    value_at = functools.cache(lambda args: evaluate(f, args, dim=report.dim))
    chosen = targets(rng, report, count)
    for target, want in zip(chosen, reference_outcomes(report, chosen)):
        got = outcome(decompose_target, report, target)
        assert got == want, (report.poly, report.dim, target)
        if isinstance(got, list):
            assert all(type(lam) is Fraction for lam, _ in got)
            total = MatrixQ.zero(report.dim)
            for lam, args in got:
                total = total + value_at(args).scale(lam)
            assert total == target


class TestAgainstReference:
    def test_battery_d3(self):
        rng = random.Random(3030)
        for _ in range(200):
            report = classify_span(battery_poly(rng), 3, SampleConfig(seed=0))
            assert_same_decompositions(report, rng, count=2)
        # The rational battery: lambda = L * mu on the grown rows, for L over
        # many denominators, and L = 12 at d = 2..4.
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
                    assert [express_in_terms(rows, t) for t in chosen] == reference_express_all(rows, chosen)
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
        f = parse_poly("[X1,X2]^2")
        report = classify_span(f, 2)
        assert report.classification is Classification.SCALARS
        ((lam, args),) = decompose_target(report, MatrixQ.identity(2).scale(Fraction(5, 3)))
        ((_, value),) = report.witnesses
        assert args is report.witnesses[0][0]
        assert value.scale(lam) == MatrixQ.identity(2).scale(Fraction(5, 3))
        with pytest.raises(NotInSpan):
            decompose_target(report, MatrixQ.unit(2, 0, 1))


class TestHandBuiltReports:
    def test_witness_values_that_are_not_a_basis(self):
        # Integer rows (entries, f(t)), for f = X1*X2 with L = 1, whose
        # values repeat: the shear walk keeps only the rows that grow, up to
        # the class's rank, and decompose solves on those.
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
            for args, value in report.witnesses:
                assert evaluate(f, args) == value
            for target in (e11, e12, eye.scale(Fraction(5, 3))):
                got = outcome(decompose_target, report, target)
                assert got == reference_outcomes(report, [target])[0]
                assert exact_outcome(decompose_target, report, target) == exact_outcome(reference_decompose, report, target)
            got = outcome(decompose_target, report, e11)
            assert type(got) is want or got[0] == want


def exact_outcome(decompose, report, target):
    """decompose(report, target), or the class and message of its NotInSpan."""
    try:
        return decompose(report, target)
    except NotInSpan as exc:
        return (type(exc), str(exc))


def assert_as_whole_system(report, chosen):
    """decompose_target's lambda lists, element by element, and NotInSpan
    verdicts against the one solve of the whole system (reference_decompose);
    returns how many targets were decomposed."""
    solved = 0
    for target in chosen:
        got = exact_outcome(decompose_target, report, target)
        assert got == exact_outcome(reference_decompose, report, target), (report.poly, report.dim, target)
        if isinstance(got, list):
            assert all(type(lam) is Fraction for lam, _ in got)
            solved += 1
    return solved


class TestPairReduction:
    """The reduced system (each kept shear pair a unit column) against the
    whole system it replaced, on reports with many pairs and with none."""

    @pytest.mark.parametrize("d", range(2, 7))
    def test_battery(self, d):
        rng = random.Random(5050 + d)
        units = 0
        for k in range(12 if d < 5 else 5):
            report = classify_span(battery_poly(rng), d, SampleConfig(seed=k))
            units += len(unit_pairs(report))
            assert_as_whole_system(report, targets(rng, report, 2))
        assert units > 0

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
        # Values whose parts carry powers of p: the walk grows them mod p
        # through psi (see span._shear_closure), and the pairs stay exact.
        report = classify_span(parse_poly(text.replace("P", "2147483647")), d, SampleConfig(seed=0))
        assert len(report.grown) == report.rank and unit_pairs(report)
        assert assert_as_whole_system(report, targets(random.Random(d), report, 1)) >= 2

    def test_budget_cut_reports(self):
        # A class the degree decides, with fewer grown rows than its rank:
        # the reduced system is consistent exactly when the whole one is.
        rng = random.Random(5058)
        cut = solved = refused = 0
        for f, d, seed in itertools.product(map(parse_poly, ("X1*X1", "X1*X2", "X1*X2*X1", "[X1,X2]*X1")), (2, 3, 4), range(8)):
            report = classify_span(f, d, SampleConfig(seed=seed, max_samples=1, coeff_bound=1))
            if len(report.grown) >= report.rank:
                continue
            cut += 1
            chosen = targets(rng, report, 2)
            n = assert_as_whole_system(report, chosen)
            solved += n
            refused += sum(report.basis.contains(t) for t in chosen) - n
        assert cut > 5 and solved > 0 and refused > 0


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
        assert express_in_terms(vecs, target) == [1, 0, 1]
        assert express_in_terms(vecs, target) == reference_express_in_terms(vecs, target)
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
                assert express_in_terms(vecs, target) == reference_express_in_terms(vecs, target), kind

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
        # Each system decompose_target hands to the kernel is also reduced
        # by the Gauss-Jordan reference; in-span targets go through
        # decompose_target, nonzero-trace ones straight to express_in_terms.
        # A decompose solve drops one row and one column per unit column
        # (see decompose_target), counted from the report's labels; the
        # direct express_in_terms calls solve the whole system.
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
            u, k = len(unit_pairs(report)), len(report.grown)
            assert u > 0
            want += [(d * d - u, k - u + 1), (d * d, k + 1)] * 3
            for k in range(3):
                target = MatrixQ.zero(d)
                for _, value in report.witnesses:
                    target = target + value.scale(Fraction(rng.randint(-3, 3), rng.randint(1, 3)))
                assert decompose_target(report, target)
                off = MatrixQ.diagonal([k + 1] + [0] * (d - 1))
                assert (express_in_terms(vectors, (target + off).flatten()) is None) == trace_zero
        assert len(solves) == 18 and solves == want

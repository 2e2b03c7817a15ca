import itertools
import random
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from helpers import (
    battery_poly,
    random_matrix_int,
    random_multilinear,
    random_noncentral,
    random_poly,
    reference_is_identity,
    standard_polynomial,
)
from ncspan import (
    ArityMismatch,
    Classification,
    ConstantInput,
    DimensionMismatch,
    MatrixQ,
    NcPoly,
    NotInSpan,
    SampleConfig,
    SpanBasis,
    classify_span,
    commutator,
    decompose_target,
    evaluate,
    find_witness_dimension,
    herstein_closure,
    is_central,
    is_identity,
    lie_ideal_check,
    nontriviality_oracle,
    parse_poly,
    poly_to_text,
    vanishing_rate,
)

X1 = NcPoly.variable(1)
X2 = NcPoly.variable(2)
COMM = commutator(X1, X2)
HALL = COMM * COMM  # central on M_2, not on M_3


def E(j, k, d=2):
    return MatrixQ.unit(d, j, k)


class TestEvaluate:
    def test_commutator_on_units(self):
        assert evaluate(COMM, (E(0, 0), E(0, 1))) == E(0, 1)

    def test_identity_polynomial(self):
        rng = random.Random(31)
        a = random_matrix_int(rng, 3)
        assert evaluate(X1, (a,)) == a

    def test_constant_term_scales_identity(self):
        f = NcPoly.constant(Fraction(3, 2)) + X1
        a = MatrixQ.zero(2)
        assert evaluate(f, (a,)) == MatrixQ.identity(2).scale(Fraction(3, 2))

    def test_constant_needs_dim(self):
        f = NcPoly.constant(2)
        assert evaluate(f, (), dim=3) == MatrixQ.identity(3).scale(2)
        with pytest.raises(ArityMismatch):
            evaluate(f, ())

    def test_arity_mismatch(self):
        with pytest.raises(ArityMismatch):
            evaluate(COMM, (MatrixQ.identity(2),))

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatch):
            evaluate(COMM, (MatrixQ.identity(2), MatrixQ.identity(3)))
        with pytest.raises(DimensionMismatch):
            evaluate(X1, (MatrixQ.identity(2),), dim=3)

    def test_multiplicative_over_products(self):
        rng = random.Random(32)
        for _ in range(25):
            f = random_poly(rng, nvars=2, max_degree=2, max_terms=3)
            g = random_poly(rng, nvars=2, max_degree=2, max_terms=3)
            args = (random_matrix_int(rng, 2, 4), random_matrix_int(rng, 2, 4))
            lhs = evaluate(f * g, args, dim=2)
            assert lhs == evaluate(f, args, dim=2) * evaluate(g, args, dim=2)


class TestIsIdentity:
    def test_standard_poly_vanishes_on_m2(self):
        s4 = standard_polynomial(4)
        # independent oracle: exhaustive evaluation over all matrix-unit tuples
        units = [E(j, k) for j in range(2) for k in range(2)]
        assert all(
            evaluate(s4, tup).is_zero()
            for tup in itertools.product(units, repeat=4)
        )
        assert is_identity(s4, 2)

    def test_commutator_on_scalars(self):
        assert is_identity(COMM, 1)

    def test_commutator_not_identity_on_m2(self):
        assert not is_identity(COMM, 2)

    def test_zero_polynomial(self):
        assert is_identity(NcPoly.zero(), 3)

    def test_exact_agrees_with_randomized_protocol(self):
        rng = random.Random(33)
        cfg = SampleConfig(seed=5, max_samples=40)
        corpus = [COMM, standard_polynomial(3), standard_polynomial(4)]
        corpus += [random_multilinear(rng, rng.randint(2, 3)) for _ in range(20)]
        for f in corpus:
            assert f.is_multilinear()
            exact = is_identity(f, 2, cfg)
            sample_rng = random.Random(cfg.seed)
            randomized = all(
                evaluate(
                    f,
                    tuple(
                        MatrixQ(
                            [
                                [sample_rng.randint(-10, 10) for _ in range(2)]
                                for _ in range(2)
                            ]
                        )
                        for _ in range(f.nvars)
                    ),
                ).is_zero()
                for _ in range(cfg.max_samples)
            )
            assert exact == randomized

    @pytest.mark.parametrize("max_samples", (3, 40))
    @pytest.mark.parametrize("seed", (0, 7919))
    @pytest.mark.parametrize("d", (2, 3))
    def test_agrees_with_reference(self, d, seed, max_samples):
        cfg = SampleConfig(seed=seed, max_samples=max_samples)
        rng = random.Random(2026)
        corpus = [battery_poly(rng) for _ in range(200)]
        corpus += [HALL, parse_poly("3/2*X1*X1*X2 + [X2,X1]")]
        cases = [standard_polynomial(4)]
        for f in corpus:
            # f and its bracket with a fresh variable: the oracle's two tests.
            x = NcPoly.variable(f.nvars + 1)
            cases += [f, f * x - x * f]
        verdicts = set()
        for g in cases:
            got = is_identity(g, d, cfg)
            assert got == reference_is_identity(g, d, cfg), poly_to_text(g)
            verdicts.add(got)
        # M_3 has no identity of degree below 6 (Amitsur-Levitzki).
        assert verdicts == ({True, False} if d == 2 else {False})


class TestIsCentral:
    def test_hall_polynomial_central_on_m2(self):
        assert is_central(HALL, 2)

    def test_hall_square_symbolic_oracle(self):
        # independent certificate via Cayley-Hamilton on generic 2x2 entries:
        # the square of a trace-zero matrix is scalar
        import sympy

        a = sympy.Matrix(2, 2, lambda i, j: sympy.Symbol(f"a{i}{j}"))
        b = sympy.Matrix(2, 2, lambda i, j: sympy.Symbol(f"b{i}{j}"))
        c = a * b - b * a
        sq = sympy.expand(c * c)
        assert sympy.simplify(sq[0, 1]) == 0
        assert sympy.simplify(sq[1, 0]) == 0
        assert sympy.simplify(sq[0, 0] - sq[1, 1]) == 0

    def test_hall_not_central_on_m3(self):
        # explicit witness: [E12, E21]^2 = diag(1, 1, 0), not scalar
        val = evaluate(HALL, (E(0, 1, 3), E(1, 0, 3)))
        assert val == MatrixQ.diagonal([1, 1, 0])
        assert not val.is_scalar()
        assert not is_central(HALL, 3)

    def test_variable_not_central(self):
        assert not is_central(X1, 2)

    def test_identity_is_not_central(self):
        assert not is_central(standard_polynomial(4), 2)


class TestClassifySpan:
    def test_commutator_trace_zero(self):
        report = classify_span(COMM, 2)
        assert report.classification is Classification.TRACE_ZERO
        assert report.basis.rank == 3

    def test_commutator_dim_three(self):
        report = classify_span(COMM, 3)
        assert report.classification is Classification.TRACE_ZERO
        assert report.basis.rank == 8

    def test_single_variable_full(self):
        report = classify_span(X1, 2)
        assert report.classification is Classification.FULL
        assert report.basis.rank == 4

    def test_standard_poly_zero(self):
        report = classify_span(standard_polynomial(4), 2)
        assert report.classification is Classification.ZERO
        assert report.basis.rank == 0

    def test_hall_scalars(self):
        report = classify_span(HALL, 2)
        assert report.classification is Classification.SCALARS
        assert report.basis.rank == 1

    def test_constant_scalars(self):
        report = classify_span(NcPoly.constant(5), 2)
        assert report.classification is Classification.SCALARS

    def test_zero_polynomial(self):
        report = classify_span(NcPoly.zero(), 2)
        assert report.classification is Classification.ZERO

    def test_undetermined_when_budget_too_small(self):
        report = classify_span(COMM, 2, SampleConfig(max_samples=2))
        assert report.classification is Classification.UNDETERMINED
        assert report.samples_used == 2

    def test_deterministic_given_seed(self):
        cfg = SampleConfig(seed=42)
        assert classify_span(COMM, 2, cfg) == classify_span(COMM, 2, cfg)
        other = classify_span(COMM, 2, SampleConfig(seed=43))
        assert other.classification is Classification.TRACE_ZERO

    def test_witnesses_are_exact_and_span_basis(self):
        report = classify_span(COMM, 2, SampleConfig(seed=3))
        rebuilt = SpanBasis(2)
        for args, value in report.witnesses:
            assert evaluate(COMM, args) == value
            rebuilt, _ = rebuilt.insert(value)
        assert rebuilt == report.basis
        # only rank-growing samples are recorded
        assert len(report.witnesses) == report.basis.rank

    def test_report_echoes_inputs(self):
        cfg = SampleConfig(seed=8)
        report = classify_span(COMM, 2, cfg)
        assert report.poly == COMM
        assert report.dim == 2
        assert report.config.seed == 8


class TestWitnessDimension:
    def test_single_variable(self):
        assert find_witness_dimension(X1, 4) == 2

    def test_hall_polynomial(self):
        assert find_witness_dimension(HALL, 4) == 3

    def test_standard_poly_absent(self):
        assert find_witness_dimension(standard_polynomial(4), 2) is None

    def test_constant_rejected(self):
        with pytest.raises(ConstantInput):
            find_witness_dimension(NcPoly.constant(1), 3)

    def test_each_identity_test_runs_once(self, monkeypatch):
        import ncspan.span

        calls = []
        real = ncspan.span.is_identity
        monkeypatch.setattr(
            ncspan.span, "is_identity", lambda f, d, cfg=None: calls.append((f, d)) or real(f, d, cfg)
        )
        assert find_witness_dimension(HALL, 3) == 3
        # HALL is central on M_2: it is tested there once, then its bracket.
        assert calls.count((HALL, 2)) == 1
        assert len(calls) == len(set(calls))


class TestLieIdeal:
    def test_trace_zero_is_lie_ideal(self):
        basis = SpanBasis.from_matrices(
            2, [E(0, 1), E(1, 0), E(0, 0) - E(1, 1)]
        )
        assert lie_ideal_check(basis)

    def test_single_unit_is_not(self):
        basis, _ = SpanBasis(2).insert(E(0, 0))
        assert not lie_ideal_check(basis)

    def test_classify_outputs_are_lie_ideals(self):
        rng = random.Random(34)
        for _ in range(8):
            f = random_poly(rng, nvars=2, max_degree=3, max_terms=3, min_degree=1)
            report = classify_span(f, 2, SampleConfig(seed=11))
            assert lie_ideal_check(report.basis)


class TestHersteinClosure:
    def test_noncentral_unit_generates_everything(self):
        assert herstein_closure(E(0, 1), 2).rank == 4

    def test_identity_stays_scalar(self):
        basis = herstein_closure(MatrixQ.identity(2), 2)
        assert basis.rank == 1
        assert basis == SpanBasis.canonical(2, Classification.SCALARS)

    def test_zero_seed(self):
        assert herstein_closure(MatrixQ.zero(2), 2).rank == 0

    def test_random_noncentral_seeds(self):
        rng = random.Random(35)
        for d in (2, 3):
            for _ in range(10):
                seed = random_noncentral(rng, d)
                assert herstein_closure(seed, d).rank == d * d

    def test_dim_mismatch(self):
        with pytest.raises(DimensionMismatch):
            herstein_closure(MatrixQ.identity(2), 3)


class TestDecomposeTarget:
    def test_identity_polynomial_direct_preimage(self):
        rng = random.Random(36)
        target = random_matrix_int(rng, 2)
        report = classify_span(X1, 2)
        terms = decompose_target(report, target)
        assert terms == [(Fraction(1), (target,))]

    def test_scaled_variable_direct_preimage(self):
        f = NcPoly.monomial((1,), 3)
        report = classify_span(f, 2)
        target = MatrixQ([[1, 2], [3, 4]])
        ((lam, args),) = decompose_target(report, target)
        assert evaluate(f, args).scale(lam) == target

    def test_commutator_combination(self):
        report = classify_span(COMM, 2, SampleConfig(seed=1))
        terms = decompose_target(report, E(0, 1))
        assert 1 <= len(terms) <= 3
        total = MatrixQ.zero(2)
        for lam, args in terms:
            total = total + evaluate(COMM, args).scale(lam)
        assert total == E(0, 1)

    def test_trace_obstruction(self):
        report = classify_span(COMM, 2)
        with pytest.raises(NotInSpan):
            decompose_target(report, MatrixQ.identity(2))

    def test_dim_mismatch(self):
        report = classify_span(COMM, 2)
        with pytest.raises(DimensionMismatch):
            decompose_target(report, MatrixQ.identity(3))

    def test_random_full_reports(self):
        rng = random.Random(37)
        f = X1 * X2
        report = classify_span(f, 2, SampleConfig(seed=14))
        assert report.classification is Classification.FULL
        for _ in range(10):
            target = random_matrix_int(rng, 2)
            total = MatrixQ.zero(2)
            for lam, args in decompose_target(report, target):
                total = total + evaluate(f, args).scale(lam)
            assert total == target


class TestSampleConfig:
    def test_default_budget_scales_with_dim(self):
        cfg = SampleConfig()
        assert cfg.samples_for(2) == 256
        assert cfg.samples_for(3) == 576

    def test_explicit_budget(self):
        assert SampleConfig(max_samples=7).samples_for(5) == 7

    def test_validation(self):
        with pytest.raises(ValueError):
            SampleConfig(coeff_bound=0)
        with pytest.raises(ValueError):
            SampleConfig(stability_window=0)
        with pytest.raises(ValueError):
            SampleConfig(max_samples=0)


class TestNontrivialityOracle:
    def test_two_identity_tests_per_call(self, monkeypatch):
        import ncspan.span

        calls = []
        real = ncspan.span.is_identity
        monkeypatch.setattr(
            ncspan.span, "is_identity", lambda f, d, cfg=None: calls.append(f) or real(f, d, cfg)
        )
        oracle = nontriviality_oracle(2)
        for f, want in ((HALL, False), (X1 * X2, True)):
            calls.clear()
            assert oracle(f) is want
            # f itself, then its bracket with a fresh variable: never a third test.
            assert len(calls) == 2 and calls[0] == f
        assert oracle(COMM * X1 - X1 * COMM) is True


class TestVanishingBound:
    def test_zero_for_multilinear(self):
        assert vanishing_rate(COMM, 2) == (0, 256)

    def test_positive_and_small_for_generic(self):
        p, n = vanishing_rate(HALL, 2, SampleConfig(max_samples=8))
        assert (p, n) == (Fraction(4, 21), 8)
        assert 0 < p ** n < Fraction(1, 10 ** 5)

    def test_rate_factors_the_bound(self):
        assert vanishing_rate(HALL, 3) == (Fraction(4, 21), 576)
        assert vanishing_rate(COMM, 3) == (0, 576)
        # A per-sample rate of 1 or more is capped at 1.
        assert vanishing_rate(HALL, 2, SampleConfig(coeff_bound=1)) == (1, 256)


# Small polynomials on X1..X3, constants among them, and their brackets,
# so that every class but UNDETERMINED turns up.
small_polys = st.dictionaries(
    st.lists(st.integers(1, 3), max_size=3).map(tuple),
    st.integers(-3, 3),
    min_size=1,
    max_size=3,
).map(NcPoly)
class_polys = small_polys | st.builds(commutator, small_polys, small_polys)
# Classes are sampled verdicts: a fixed example sequence keeps a run
# reproducible.
invariance = settings(max_examples=10, deadline=None, derandomize=True)


def span_class(f, d, seed=0):
    return classify_span(f, d, SampleConfig(seed=seed)).classification


@pytest.mark.parametrize("d", [2, 3])
class TestClassInvariance:
    @invariance
    @given(class_polys, st.permutations([1, 2, 3]))
    @example(HALL, [2, 1, 3])
    def test_relabelling(self, d, f, perm):
        relabelled = f.substitute({i: NcPoly.variable(j) for i, j in zip((1, 2, 3), perm)})
        assert span_class(relabelled, d) is span_class(f, d)

    @invariance
    @given(
        class_polys,
        st.fractions(min_value=-4, max_value=4, max_denominator=5).filter(bool),
    )
    @example(HALL, Fraction(-2, 3))
    def test_scaling(self, d, f, c):
        assert span_class(f.scale(c), d) is span_class(f, d)

    @invariance
    @given(class_polys)
    @example(HALL)
    def test_seed(self, d, f):
        assert span_class(f, d, seed=7919) is span_class(f, d, seed=0)


@invariance
@given(class_polys)
@example(HALL)
@example(standard_polynomial(4))
def test_class_invariant_under_adding_s4(f):
    # S_4 vanishes on M_2 (Amitsur-Levitzki), so adding it on fresh
    # variables leaves every value, hence the span, unchanged.
    fresh = {k: NcPoly.variable(f.nvars + k) for k in range(1, 5)}
    assert span_class(f + standard_polynomial(4).substitute(fresh), 2) is span_class(f, 2)

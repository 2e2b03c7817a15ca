import itertools
import random
from enum import IntEnum
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from helpers import (
    battery_poly,
    inserted,
    random_matrix_int,
    random_multilinear,
    random_noncentral,
    random_poly,
    reference_is_identity,
    reference_verdicts,
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
    StopReason,
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
    unit_commutator,
    vanishing_rate,
)
from ncspan.span import _verdicts

X1 = NcPoly.variable(1)
X2 = NcPoly.variable(2)
COMM = commutator(X1, X2)
HALL = COMM * COMM  # central on M_2, not on M_3
COMM34 = commutator(NcPoly.variable(3), NcPoly.variable(4))
SYM = COMM * COMM34 + COMM34 * COMM  # multilinear, central on M_2


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
            # f, and its bracket with a fresh variable: an identity of M_d
            # exactly when f is central (Hall's at d=2), of one degree and
            # one variable more than f.
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


class TestVerdicts:
    @pytest.mark.parametrize("seed", (0, 7919))
    @pytest.mark.parametrize("d", (1, 2, 3))
    def test_agrees_with_reference(self, d, seed):
        cfg = SampleConfig(seed=seed)
        rng = random.Random(2027)
        corpus = [battery_poly(rng) for _ in range(150)]
        corpus += [random_multilinear(rng, n) for n in (1, 2, 3, 4) for _ in range(10)]
        corpus += [standard_polynomial(n) for n in (2, 3, 4)]
        corpus += [HALL, SYM, NcPoly.constant(5), NcPoly.zero(), X1]
        pairs = set()
        for f in corpus:
            got = _verdicts(f, d, cfg)
            assert got == reference_verdicts(f, d, cfg), poly_to_text(f)
            pairs.add(got)
        # Every value on M_1 is scalar, so a polynomial there is an identity
        # or central; above, all three verdict pairs occur.
        assert pairs == {(True, False), (False, True)} | ({(False, False)} if d > 1 else set())


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

    def test_trace_zero_non_sum_under_budget(self):
        # Only trace-zero values on M_2 (S_4 vanishes there), yet no sum of
        # commutators: nothing proves the class, and the first non-scalar
        # value names TRACE_ZERO, sampled, within any budget.
        f = COMM + standard_polynomial(4) * NcPoly.variable(5)
        for budget in (1, 2):
            report = classify_span(f, 2, SampleConfig(max_samples=budget))
            assert report.classification is Classification.TRACE_ZERO and report.rank == 3
            assert (report.samples_used, report.stop_reason) == (budget, StopReason.BUDGET_EXHAUSTED)
        # One non-scalar value proves [X1,X2] TRACE_ZERO within any budget.
        report = classify_span(COMM, 2, SampleConfig(max_samples=1))
        assert report.classification is Classification.TRACE_ZERO
        assert report.samples_used == 1

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
        real = ncspan.span._values
        monkeypatch.setattr(
            ncspan.span, "_values", lambda f, d, cfg: calls.append((f, d)) or real(f, d, cfg)
        )
        assert find_witness_dimension(HALL, 3) == 3
        # An identity on M_1, central on M_2: one pass over HALL's own values
        # per dimension where deg HALL = 4 >= 2d, and no bracket with a fresh
        # variable.  At d=3 the degree decides.
        assert calls == [(HALL, 1), (HALL, 2)]
        calls.clear()
        # HALL^2, central on M_2 and of degree 8 >= 6: a pass at d=3 too.
        assert find_witness_dimension(HALL * HALL, 3) == 3
        assert calls == [(HALL * HALL, 1), (HALL * HALL, 2), (HALL * HALL, 3)]


class TestLieIdeal:
    def test_trace_zero_is_lie_ideal(self):
        basis = inserted(2, [E(0, 1), E(1, 0), E(0, 0) - E(1, 1)])
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


class _Count(IntEnum):
    THREE = 3


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
            SampleConfig(max_samples=0)

    @pytest.mark.parametrize(
        "field, value",
        [("coeff_bound", 2.5), ("coeff_bound", True), ("coeff_bound", None), ("coeff_bound", "10"),
         ("max_samples", 2.5), ("max_samples", False), ("max_samples", Fraction(3)),
         ("seed", None), ("seed", True), ("seed", 2.5), ("seed", "7"),
         # The bounds follow check_dimension: no bool, float or int
         # subclass, and no int below 1.
         ("coeff_bound", 2.0), ("coeff_bound", _Count.THREE), ("coeff_bound", 0), ("coeff_bound", -1),
         ("max_samples", True), ("max_samples", 2.0), ("max_samples", _Count.THREE),
         ("max_samples", 0), ("max_samples", -1)],
    )
    def test_non_integer_fields_refused(self, field, value):
        # Refused when built, not deep inside sampling, and a bool is no count.
        with pytest.raises(ValueError if type(value) is int else TypeError, match=field):
            SampleConfig(**{field: value})

    def test_any_int_seed(self):
        for seed in (0, -1, 2**64 + 1, -(2**70)):
            assert SampleConfig(seed=seed).seed == seed


class TestDimensionChecked:
    """Every sampled verdict refuses a dimension that is not an int >= 1."""

    def test_classify_span_zero(self):
        with pytest.raises(ValueError, match="dimension"):
            classify_span(COMM, 0)

    def test_classify_span_bool(self):
        with pytest.raises(TypeError, match="bool"):
            classify_span(COMM, True)

    def test_classify_span_float(self):
        with pytest.raises(TypeError, match="float"):
            classify_span(COMM, 2.0)

    def test_closed_form_path_checks_first(self):
        # COMM has degree 2 < 2d for every d >= 2: the degree would decide
        # each verdict at d = 2.0 without sampling, so d is checked first.
        for d, error in ((2.0, TypeError), (True, TypeError), (0, ValueError)):
            for call in (classify_span, is_identity, is_central, lambda f, d: nontriviality_oracle(d)(f)):
                with pytest.raises(error):
                    call(COMM, d)

    def test_is_identity_zero(self):
        for f in (COMM, NcPoly.zero()):
            with pytest.raises(ValueError, match="dimension"):
                is_identity(f, 0)

    def test_oracle_zero(self):
        with pytest.raises(ValueError, match="dimension"):
            nontriviality_oracle(0)(COMM)

    def test_is_central_negative(self):
        with pytest.raises(ValueError, match="dimension"):
            is_central(COMM, -1)


class TestLibraryDimensionRule:
    """Every public function that takes a dimension reads it by one rule
    (linalg.check_dimension): TypeError for a non-int or a bool, then
    ValueError below 1."""

    def test_contains_refuses_a_short_vector(self):
        with pytest.raises(DimensionMismatch, match="need 4 entries, got 2"):
            Classification.TRACE_ZERO.contains([1, 2], 2)

    def test_contains_refuses_a_long_vector(self):
        with pytest.raises(DimensionMismatch, match="need 4 entries, got 9"):
            Classification.ZERO.contains([0] * 9, 2)

    def test_contains_refuses_a_bool_dimension(self):
        with pytest.raises(TypeError, match="bool"):
            Classification.FULL.contains([7], True)

    def test_rank_negative(self):
        with pytest.raises(ValueError, match="dimension"):
            Classification.TRACE_ZERO.rank(-2)

    def test_rank_float(self):
        with pytest.raises(TypeError, match="float"):
            Classification.TRACE_ZERO.rank(2.0)

    def test_lies_in_zero(self):
        with pytest.raises(ValueError, match="dimension"):
            Classification.ZERO.lies_in(Classification.FULL, 0)

    def test_span_basis_zero(self):
        with pytest.raises(ValueError, match="dimension"):
            SpanBasis(0)

    def test_span_basis_bool(self):
        with pytest.raises(TypeError, match="bool"):
            SpanBasis(True)

    def test_canonical_bool(self):
        for which in Classification:
            with pytest.raises(TypeError, match="bool"):
                SpanBasis.canonical(True, which)

    def test_canonical_negative(self):
        for which in Classification:
            with pytest.raises(ValueError, match="dimension"):
                SpanBasis.canonical(-1, which)

    def test_herstein_closure_bool(self):
        with pytest.raises(TypeError, match="bool"):
            herstein_closure(MatrixQ.identity(1), True)

    def test_vanishing_rate_float(self):
        with pytest.raises(TypeError, match="float"):
            vanishing_rate(X1 * X1, 2.5)

    def test_find_witness_dimension_bool(self):
        with pytest.raises(TypeError, match="d_max True is a bool"):
            find_witness_dimension(COMM, True)

    def test_find_witness_dimension_zero(self):
        with pytest.raises(ValueError, match="d_max"):
            find_witness_dimension(COMM, 0)

    def test_evaluate_constant_at_zero(self):
        with pytest.raises(ValueError, match="dimension"):
            evaluate(NcPoly.constant(3), [], dim=0)

    def test_evaluate_constant_at_float(self):
        with pytest.raises(TypeError, match="float"):
            evaluate(NcPoly.constant(3), [], dim=2.0)

    def test_unflatten_bool(self):
        # [5] has 1 = True ** 2 entries: the bool is refused, not read as 1.
        with pytest.raises(TypeError, match="bool"):
            MatrixQ.unflatten([5], True)

    def test_unflatten_float(self):
        # Refused by the dimension rule, not by range() deep inside.
        with pytest.raises(TypeError, match="dimension 2.0 is a float"):
            MatrixQ.unflatten([1, 2, 3, 4], 2.0)

    def test_unit_index_outside_range(self):
        # E_50 is no unit of M_2: refused, not the zero matrix.
        with pytest.raises(ValueError, match="range"):
            MatrixQ.unit(2, 5, 0)
        with pytest.raises(ValueError, match="range"):
            MatrixQ.unit(2, 0, -1)

    def test_unit_bool(self):
        with pytest.raises(TypeError, match="bool"):
            MatrixQ.unit(True, 0, 0)
        # Unchecked, a True index would read as 1 and give E_10 or [a, E_10].
        with pytest.raises(TypeError, match="not both ints"):
            MatrixQ.unit(2, True, 0)
        with pytest.raises(TypeError, match="not both ints"):
            unit_commutator(MatrixQ.identity(2), True, False)

    def test_identity_bool(self):
        with pytest.raises(TypeError, match="bool"):
            MatrixQ.identity(True)

    def test_zero_float(self):
        # Refused by the dimension rule, not by a list multiplication.
        with pytest.raises(TypeError, match="dimension 2.0 is a float"):
            MatrixQ.zero(2.0)

    def test_evaluate_dim_bool_with_arguments(self):
        # True == 1 matches the 1 x 1 argument, but a bool is no dimension.
        with pytest.raises(TypeError, match="bool"):
            evaluate(X1, [MatrixQ([[2]])], dim=True)

    def test_evaluate_dim_float_with_arguments(self):
        with pytest.raises(TypeError, match="float"):
            evaluate(X1, [MatrixQ([[2]])], dim=1.0)

    def test_valid_dimensions_unchanged(self):
        assert Classification.TRACE_ZERO.rank(2) == 3
        assert Classification.TRACE_ZERO.contains([1, 2, 3, -1], 2)
        assert SpanBasis.canonical(1, Classification.FULL).rank == 1
        assert evaluate(NcPoly.constant(3), [], dim=2) == MatrixQ.diagonal([3, 3])
        assert evaluate(X1, [MatrixQ([[2]])], dim=1) == MatrixQ([[2]])
        assert MatrixQ.unflatten([1, 2, 3, 4], 2) == MatrixQ([[1, 2], [3, 4]])
        assert MatrixQ.unit(2, 1, 0) == MatrixQ([[0, 0], [1, 0]])
        assert MatrixQ.zero(1) == MatrixQ([[0]]) and MatrixQ.identity(2) == MatrixQ.diagonal([1, 1])


class TestNontrivialityOracle:
    def test_one_pass_per_call(self, monkeypatch):
        import ncspan.span

        calls = []
        real = ncspan.span._values
        monkeypatch.setattr(
            ncspan.span, "_values", lambda f, d, cfg: calls.append(f) or real(f, d, cfg)
        )
        oracle = nontriviality_oracle(2)
        for f, want in ((HALL, False), (HALL * X1, True), (SYM, False)):
            calls.clear()
            assert oracle(f) is want
            # f's own values, read once where deg f >= 2d: no bracket with a
            # fresh variable.
            assert calls == [f]
        calls.clear()
        # Below degree 4 the degree decides at d=2: no value is read.
        assert oracle(X1 * X2) is True
        assert oracle(COMM * X1 - X1 * COMM) is True
        assert calls == []


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

    def test_exact_iff_multilinear(self):
        # One rule: the bound is 0 exactly where _values walks units, and
        # zero and constants count as multilinear.
        rng = random.Random(31)
        polys = [battery_poly(rng) for _ in range(40)]
        polys += [random_multilinear(rng, n) for n in (1, 2, 3) for _ in range(3)]
        polys += [parse_poly(text) for text in ("0", "5", "X1*X1", "X1*X2*X1")]
        assert {f.is_multilinear() for f in polys} == {True, False}
        for f in polys:
            for d in (1, 2, 3):
                assert (vanishing_rate(f, d)[0] == 0) is f.is_multilinear(), (poly_to_text(f), d)


# Small polynomials on X1..X3, constants among them, and their brackets,
# so that every class turns up.
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

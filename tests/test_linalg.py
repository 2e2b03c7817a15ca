import copy
import pickle
import random
from fractions import Fraction

import pytest

from helpers import (
    fraction_gauss_jordan,
    inserted,
    random_matrix_int,
    random_trace_zero,
    reference_commutator_decomposition,
    reference_inverse,
    row_matrices,
    shear_product,
)
from ncspan import linalg
from ncspan import (
    Classification,
    DimensionMismatch,
    DuplicateNodes,
    MatrixQ,
    NonzeroTrace,
    SpanBasis,
    commutator,
    commutator_decomposition,
    parse_matrix,
    vandermonde_extract,
)
from ncspan.linalg import _zero_diagonal_shears, express_in_terms


def E(j, k, d=2):
    return MatrixQ.unit(d, j, k)


class TestMatrixOps:
    def test_unit_commutator(self):
        assert commutator(E(0, 0), E(0, 1)) == E(0, 1)

    def test_commutator_trace_vanishes(self):
        rng = random.Random(1)
        for _ in range(20):
            a = random_matrix_int(rng, 3)
            b = random_matrix_int(rng, 3)
            assert commutator(a, b).trace() == 0

    def test_self_commutator(self):
        rng = random.Random(2)
        a = random_matrix_int(rng, 4)
        assert commutator(a, a).is_zero()

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatch):
            MatrixQ.identity(2) + MatrixQ.identity(3)
        with pytest.raises(DimensionMismatch):
            MatrixQ.identity(2) * MatrixQ.identity(3)

    def test_scale_and_trace(self):
        m = MatrixQ([[1, 2], [3, 4]])
        assert m.scale(Fraction(1, 2)).trace() == Fraction(5, 2)

    def test_is_scalar(self):
        assert MatrixQ.identity(3).scale(7).is_scalar()
        assert not E(0, 1, 3).is_scalar()
        assert MatrixQ.zero(2).is_scalar()

    def test_flatten_row_major(self):
        m = MatrixQ([[1, 2], [3, 4]])
        assert m.flatten() == (1, 2, 3, 4)
        assert MatrixQ.unflatten((1, 2, 3, 4), 2) == m


class TestExactEntries:
    """Every entry is an int or a Fraction; anything else is refused when built."""

    @pytest.mark.parametrize(
        "make",
        [
            lambda: MatrixQ([[0.5, 1], [2, 3]]),
            lambda: MatrixQ([[True]]),
            lambda: MatrixQ([[1, "1"], [0, 1]]),
            lambda: MatrixQ([[None]]),
            lambda: MatrixQ([[1, 2], [3, 4]]).scale(0.1),
            lambda: 2.5 * MatrixQ([[1, 2], [3, 4]]),
            lambda: MatrixQ.diagonal([1, 2.0]),
            lambda: MatrixQ.unflatten((1, 2, 3, False), 2),
            # True * x is an int, so the entries alone cannot tell a bool scalar.
            lambda: MatrixQ([[1, 2], [3, 4]]).scale(True),
            lambda: MatrixQ([[1, 2], [3, 4]]).scale(False),
            lambda: True * MatrixQ([[1, 2], [3, 4]]),
        ],
        ids=[
            "float", "bool", "str", "None", "scale-float", "rmul-float", "diagonal-float", "unflatten-bool",
            "scale-true", "scale-false", "rmul-true",
        ],
    )
    def test_inexact_entries_refused(self, make):
        with pytest.raises(TypeError, match="not an int or a Fraction"):
            make()

    def test_exact_results_build(self):
        m = MatrixQ([[1, 2], [3, 4]])
        built = [
            Fraction(1, 3) * m, 2 * m, m.scale(Fraction(1, 2)), m + m, m - m, m * m, -m,
            MatrixQ.zero(3), MatrixQ.identity(3), MatrixQ.unit(3, 0, 2),
            MatrixQ.diagonal([Fraction(1, 2), 3]), MatrixQ.unflatten((1, Fraction(2, 3), 0, -1), 2),
            parse_matrix("1/2,-3;0,4/6"),
        ]
        for b in built:
            assert {type(x) for row in b.rows for x in row} <= {int, Fraction}
        assert Fraction(1, 3) * m == m.scale(Fraction(1, 3)) == MatrixQ([[Fraction(1, 3), Fraction(2, 3)], [1, Fraction(4, 3)]])
        assert 2 * m == m + m
        assert m.scale(-3) == -3 * m == -m - m - m and -m == MatrixQ([[-1, -2], [-3, -4]])


class TestExactRule:
    """linalg.check_exact is the one rule for an exact scalar, read by
    MatrixQ, vandermonde_extract, NcPoly and Classification.contains."""

    @pytest.mark.parametrize(
        "which, vec, d",
        [
            # The float sum of that diagonal is 5.55e-17, not 0.
            (Classification.TRACE_ZERO, [0.1, 0, 0, 0, 0.2, 0, 0, 0, -0.3], 3),
            (Classification.SCALARS, [0.5, 0, 0, 0.5], 2),
            (Classification.ZERO, [0, 0, 0, False], 2),
            (Classification.FULL, [1, 2, "3", 4], 2),
            (Classification.TRACE_ZERO, [True], 1),
        ],
        ids=["trace-zero-float", "scalars-float", "zero-bool", "full-str", "d1-bool"],
    )
    def test_contains_refuses_inexact_entries(self, which, vec, d):
        with pytest.raises(TypeError, match="not an int or a Fraction"):
            which.contains(vec, d)

    def test_contains_reads_exact_entries(self):
        third = Fraction(1, 3)
        assert Classification.TRACE_ZERO.contains([third, 5, 7, -third], 2)
        assert Classification.SCALARS.contains([third, 0, 0, third], 2)
        assert not Classification.ZERO.contains([0, 0, 0, third], 2)

    def test_names_the_first_inexact_value(self):
        with pytest.raises(TypeError, match=r"^node 2\.5 is a float, not an int or a Fraction$"):
            linalg.check_exact([1, Fraction(1, 2), 2.5, True], "node")
        linalg.check_exact([1, Fraction(1, 2), -3])
        linalg.check_exact([])


class TestSpanBasisValidation:
    """SpanBasis(dim, rows) reads each row's pivot off the row, its first
    nonzero entry, and refuses rows that are not a reduced echelon form."""

    # Each case with the refusal it meets: a row's length or zero row, the
    # pivots' order, or a row's entries at the pivots.
    SIZE, ORDER, PIVOT = "must be nonzero with 4 entries", "do not increase strictly", "is not 1 at it and 0"
    REFUSED = [
        (((0, 0, 0, 0),), SIZE),  # a zero row
        (((1, 0, 0, 0), (0, 0, 0, 1), (0, 0, 1, 0)), ORDER),  # pivots out of order after the first row
        (((1, 2, 3),), SIZE),  # not d^2 entries
        (((0, 2, 3, 4),), PIVOT),  # not 1 at its pivot
        (((1, 1, 0, 0), (0, 1, 0, 0)), PIVOT),  # not 0 at another pivot
        (((0, 1, 0, 0), (1, 0, 0, 0)), ORDER),  # pivots decreasing
        (((1, 0, 0, 0), (1, 0, 0, 0)), ORDER),  # pivots repeated
        (((1, 0, 0, 0), (0, 0, 0, 0)), SIZE),  # a zero row after a reduced one
        (((0, Fraction(1, 2), 0, 0),), PIVOT),  # a Fraction other than 1 at its pivot
        (((0, 0, 0, 0, 1),), SIZE),  # a pivot past d^2
    ]

    @pytest.mark.parametrize("rows, fault", REFUSED, ids=[f"rows{i}-pivots{i}" for i in range(len(REFUSED))])
    def test_refused(self, rows, fault):
        with pytest.raises(ValueError, match=fault):
            SpanBasis(2, rows)

    def test_inexact_entry_refused(self):
        for rows in (((1, 0.5, 0, 0),), ((True, 0, 0, 0),)):
            with pytest.raises(TypeError, match="not an int or a Fraction"):
                SpanBasis(2, rows)

    def test_reduced_rows_build(self):
        third = Fraction(1, 3)
        basis = SpanBasis(2, [[1, third, 0, 2], [0, 0, 1, -1]])
        assert basis.rows == ((1, third, 0, 2), (0, 0, 1, -1)) and basis.pivots == (0, 2)
        assert inserted(2, row_matrices(basis)) == basis

    @pytest.mark.parametrize("d", range(1, 7))
    def test_canonical_reads_its_pivots(self, d):
        n = d * d
        want = {
            Classification.ZERO: (),
            Classification.SCALARS: (0,),
            Classification.TRACE_ZERO: tuple(range(n - 1)),
            Classification.FULL: tuple(range(n)),
        }
        for which, pivots in want.items():
            basis = SpanBasis(d, which.basis(d))
            assert SpanBasis.canonical(d, which) == basis and basis.pivots == pivots


class TestSpanBasis:
    def test_repeated_insert_does_not_grow(self):
        basis = SpanBasis(2)
        basis, grew = basis.insert(E(0, 0))
        assert grew
        basis2, grew2 = basis.insert(E(0, 0))
        assert not grew2
        assert basis2 == basis

    def test_full_matrix_units(self):
        basis = inserted(2, [E(0, 0), E(0, 1), E(1, 0), E(1, 1)])
        assert basis.rank == 4
        assert basis == SpanBasis.canonical(2, Classification.FULL)

    def test_scalar_multiple_does_not_grow(self):
        basis, _ = SpanBasis(2).insert(MatrixQ.identity(2))
        _, grew = basis.insert(MatrixQ.identity(2).scale(Fraction(-7, 3)))
        assert not grew
        assert basis == SpanBasis.canonical(2, Classification.SCALARS)

    def test_membership_iff_no_growth(self):
        rng = random.Random(4)
        basis = SpanBasis(3)
        mats = [random_matrix_int(rng, 3) for _ in range(12)]
        for m in mats:
            basis, _ = basis.insert(m)
        for m in mats + [random_matrix_int(rng, 3) for _ in range(5)]:
            _, grew = basis.insert(m)
            assert basis.contains(m) == (not grew)

    def test_rank_monotone_and_bounded(self):
        rng = random.Random(5)
        basis = SpanBasis(2)
        last = 0
        for _ in range(30):
            basis, _ = basis.insert(random_matrix_int(rng, 2))
            assert basis.rank >= last
            last = basis.rank
        assert basis.rank <= 4

    def test_order_independent_result(self):
        rng = random.Random(6)
        mats = [random_matrix_int(rng, 2) for _ in range(6)]
        b1 = inserted(2, mats)
        b2 = inserted(2, list(reversed(mats)))
        assert b1 == b2

    def test_repr(self):
        assert repr(SpanBasis.canonical(2, Classification.TRACE_ZERO)) == "SpanBasis(dim=2, rank=3)"
        assert repr(SpanBasis(3)) == "SpanBasis(dim=3, rank=0)"

    def test_zero_subspace_of_anything(self):
        # Containment is Classification.lies_in: {0} lies in every class.
        assert SpanBasis(2) == SpanBasis.canonical(2, Classification.ZERO)
        for d in (1, 2, 3):
            for other in Classification:
                assert Classification.ZERO.lies_in(other, d)

    def test_trace_zero_canonical(self):
        basis = inserted(2, [E(0, 1), E(1, 0), E(0, 0) - E(1, 1)])
        assert basis.rank == 3
        assert basis == SpanBasis.canonical(2, Classification.TRACE_ZERO)
        for row in row_matrices(basis):
            assert row.trace() == 0
        assert basis != SpanBasis.canonical(2, Classification.FULL)

    def test_membership_of_identity_in_scalars(self):
        basis, _ = SpanBasis(2).insert(MatrixQ.identity(2).scale(3))
        assert basis.contains(MatrixQ.identity(2))

    def test_dim_mismatch(self):
        with pytest.raises(DimensionMismatch):
            SpanBasis(2).insert(MatrixQ.identity(3))


@pytest.mark.parametrize(
    "make, field",
    [
        (lambda: MatrixQ([[1, 2], [3, 4]]), "rows"),
        (lambda: SpanBasis.canonical(2, Classification.TRACE_ZERO), "pivots"),
    ],
    ids=["MatrixQ", "SpanBasis"],
)
@pytest.mark.parametrize(
    "change",
    [
        lambda v, field: setattr(v, field, ()),
        lambda v, field: setattr(v, "extra", 1),
        lambda v, field: delattr(v, field),
    ],
    ids=["set", "new", "del"],
)
def test_immutable(make, field, change):
    value = make()
    with pytest.raises(AttributeError):
        change(value, field)
    assert value == make()
    assert hash(value) == hash(make())


@pytest.mark.parametrize(
    "make",
    [
        lambda: MatrixQ([[Fraction(1, 3), 2], [0, Fraction(-5, 2)]]),
        *(lambda which=which: SpanBasis.canonical(3, which) for which in Classification),
        lambda: SpanBasis(2, [[1, Fraction(-2, 3), 0, Fraction(5, 7)], [0, 0, 1, Fraction(1, 2)]]),
    ],
    ids=["MatrixQ", *(f"SpanBasis-{which.value}" for which in Classification), "SpanBasis-fractions"],
)
@pytest.mark.parametrize("round_trip", [lambda v: pickle.loads(pickle.dumps(v)), copy.deepcopy, copy.copy])
def test_round_trip(make, round_trip):
    # Back through the checked constructor: the frozen fields stay frozen.
    value = make()
    again = round_trip(value)
    assert again == value and hash(again) == hash(value) and type(again) is type(value)
    with pytest.raises(AttributeError):
        again.rows = ()


class TestVandermonde:
    def test_two_nodes(self):
        rng = random.Random(8)
        c0 = random_matrix_int(rng, 2)
        c1 = random_matrix_int(rng, 2)
        values = [c0, c0 + c1]  # nodes 0 and 1
        assert vandermonde_extract([0, 1], values) == [c0, c1]

    def test_three_nodes_roundtrip(self):
        rng = random.Random(9)
        cs = [random_matrix_int(rng, 3) for _ in range(3)]
        values = []
        for lam in (0, 1, 2):
            acc = MatrixQ.zero(3)
            for i, c in enumerate(cs):
                acc = acc + c.scale(Fraction(lam) ** i)
            values.append(acc)
        assert vandermonde_extract([0, 1, 2], values) == cs

    def test_rational_nodes(self):
        rng = random.Random(10)
        cs = [random_matrix_int(rng, 2) for _ in range(4)]
        nodes = [Fraction(-1, 2), Fraction(0), Fraction(3, 7), Fraction(2)]
        values = []
        for lam in nodes:
            acc = MatrixQ.zero(2)
            for i, c in enumerate(cs):
                acc = acc + c.scale(Fraction(lam) ** i)
            values.append(acc)
        assert vandermonde_extract(nodes, values) == cs

    def test_recovers_homogeneous_component_values(self):
        # scaling the argument of f = X1 + X1^2 by lam gives
        # lam * a + lam^2 * a^2; the extracted pieces must be the values of
        # the degree-0, 1 and 2 components of f at a
        from ncspan import NcPoly, evaluate

        rng = random.Random(14)
        a = random_matrix_int(rng, 2)
        f = NcPoly.variable(1) + NcPoly.variable(1) ** 2
        nodes = [0, 1, 2]
        values = [evaluate(f, (a.scale(lam),)) for lam in nodes]
        c0, c1, c2 = vandermonde_extract(nodes, values)
        assert c0 == MatrixQ.zero(2)
        assert c1 == a
        assert c2 == a * a

    def test_duplicate_nodes(self):
        with pytest.raises(DuplicateNodes):
            vandermonde_extract([1, 1], [MatrixQ.zero(2), MatrixQ.zero(2)])

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            vandermonde_extract([0, 1], [MatrixQ.zero(2)])

    @pytest.mark.parametrize("nodes", [[0.1, 2], [0, 2.0], [True, 2], [0, False]], ids=["float", "float-int", "bool", "bool-zero"])
    def test_inexact_nodes_refused(self, nodes):
        # 0.1 used to be read as its binary expansion, and True as 1.
        with pytest.raises(TypeError, match="not an int or a Fraction"):
            vandermonde_extract(nodes, [MatrixQ([[1]]), MatrixQ([[3]])])

    def test_refusal_order(self):
        # Equal nodes are refused before the value matrices' dimensions are
        # read, and an inexact node before the count of values.
        with pytest.raises(DuplicateNodes):
            vandermonde_extract([Fraction(1, 2), Fraction(2, 4)], [MatrixQ.zero(2), MatrixQ.zero(3)])
        with pytest.raises(TypeError):
            vandermonde_extract([True], [])

    def test_matches_gauss_jordan(self):
        # The augmented rows [1, lam, ..., lam^(k-1) | values[j]] reduce to
        # [I | c_0 .. c_(k-1)], row i holding c_i, flattened.  Integer nodes,
        # then rational ones over 2, 3 and 5, with 0 and negatives among
        # them, and the entries over the same denominators.
        rng = random.Random(58)

        def exact(n, q):
            return n if q == 1 else Fraction(n, q)

        for k in range(1, 9):
            for d in range(1, 6):
                for dens in ((1,), (1, 2, 3, 5)):
                    nodes = rng.sample(sorted({exact(n, q) for n in range(-9, 10) for q in dens}), k)
                    values = [MatrixQ([[exact(rng.randint(-9, 9), rng.choice(dens)) for _ in range(d)] for _ in range(d)]) for _ in range(k)]
                    aug, pivots, _ = fraction_gauss_jordan([[lam**i for i in range(k)] + list(v.flatten()) for lam, v in zip(nodes, values)], k)
                    assert pivots == list(range(k))
                    assert vandermonde_extract(nodes, values) == [MatrixQ.unflatten(row[k:], d) for row in aug]

    def test_runs_no_elimination(self, monkeypatch):
        # Acceptance 8's systems, solved with the general elimination gone.
        def refuse(rows):
            raise AssertionError("vandermonde_extract called fraction_free_rref")

        monkeypatch.setattr(linalg, "fraction_free_rref", refuse)
        rng = random.Random(808)
        for m in range(1, 7):
            for _ in range(5):
                cs = [MatrixQ([[Fraction(rng.randint(-9, 9), rng.randint(1, 9)) for _ in range(3)] for _ in range(3)]) for _ in range(m + 1)]
                values = [sum((c.scale(Fraction(lam) ** i) for i, c in enumerate(cs)), MatrixQ.zero(3)) for lam in range(m + 1)]
                assert vandermonde_extract(list(range(m + 1)), values) == cs


class TestZeroDiagonalConjugate:
    """linalg._zero_diagonal_shears, the conjugation to zero diagonal
    inside commutator_decomposition."""

    @staticmethod
    def _shears(m):
        """(shears, P, N) for m: the shears, applied to a copy of m through
        _conjugate, give N, which has a zero diagonal and is P^-1 m P."""
        d = m.dim
        shears, n = _zero_diagonal_shears(m)
        flat = list(m.flatten())
        for i, j, t in shears:
            linalg._conjugate(flat, d, i, j, t)
        assert flat == n
        p, n = shear_product(shears, d), MatrixQ.unflatten(n, d)
        assert reference_inverse(p) * m * p == n
        assert all(n.rows[i][i] == 0 for i in range(d))
        return shears, p, n

    def test_diag_plus_minus_one(self):
        self._shears(MatrixQ.diagonal([1, -1]))

    def test_already_zero_diagonal(self):
        m = E(0, 1) - E(1, 0)
        shears, p, n = self._shears(m)
        assert shears == []
        assert p == MatrixQ.identity(2)
        assert n == m

    def test_zero_matrix(self):
        shears, p, n = self._shears(MatrixQ.zero(3))
        assert shears == []
        assert p == MatrixQ.identity(3)
        assert n.is_zero()

    def test_nonzero_trace_rejected(self):
        with pytest.raises(NonzeroTrace):
            _zero_diagonal_shears(MatrixQ.identity(2))

    def test_random_trace_zero(self):
        rng = random.Random(11)
        for d in (2, 3, 4, 5):
            for _ in range(10):
                self._shears(random_trace_zero(rng, d))

    def test_shear_through_entry_below(self):
        # n_10 = 1 carries n_00 onto n_11 directly: P = I + E_01.
        _, p, _ = self._shears(MatrixQ([[1, 0], [1, -1]]))
        assert p == MatrixQ([[1, 1], [0, 1]])

    def test_preparatory_shear_needs_s2(self):
        # Column 0 is zero below the diagonal, and s = 1 gives
        # n_10 = (2 - 1) - 1 = 0, so the shear by E_10 takes s = 2.
        _, p, _ = self._shears(MatrixQ([[1, 1, 0], [0, 2, 0], [0, 0, -3]]))
        assert p.rows[1][0] == 2

    @pytest.mark.parametrize("rows", [[[1, 0, 0], [0, 1, 0], [0, 0, -2]], [[0]]])
    def test_repeated_diagonal_and_dimension_one(self, rows):
        self._shears(MatrixQ(rows))

    def test_upper_triangular_battery(self):
        # Columns start zero below the diagonal, so preparatory shears run
        # wherever no earlier shear has filled the column in.
        rng = random.Random(1010)
        for d in (2, 3, 4, 5):
            for _ in range(25):
                rows = [
                    [rng.randint(-5, 5) if c >= r else 0 for c in range(d)]
                    for r in range(d)
                ]
                rows[d - 1][d - 1] = -sum(rows[i][i] for i in range(d - 1))
                m = MatrixQ(rows)
                self._shears(m)
                a, b = commutator_decomposition(m)
                assert commutator(a, b) == m

    def test_no_solve(self, monkeypatch):
        calls = []
        kernel, product = linalg.fraction_free_rref, MatrixQ.__mul__

        def counted(rows):
            calls.append("solve")
            return kernel(rows)

        def counted_product(a, b):
            calls.append("product")
            return product(a, b)

        monkeypatch.setattr(linalg, "fraction_free_rref", counted)
        monkeypatch.setattr(MatrixQ, "__mul__", counted_product)
        m = random_trace_zero(random.Random(7), 5)
        _zero_diagonal_shears(m)
        assert calls == []
        # commutator_decomposition conjugates back through the shears.
        a, b = commutator_decomposition(m)
        assert calls == []
        monkeypatch.undo()
        assert commutator(a, b) == m


class TestCommutatorDecomposition:
    def test_unit_example(self):
        a, b = commutator_decomposition(E(0, 1))
        # zero-diagonal input passes through: a = diag(1, 2), b = -E12
        assert a == MatrixQ.diagonal([1, 2])
        assert b == E(0, 1).scale(-1)
        assert commutator(a, b) == E(0, 1)

    def test_zero(self):
        a, b = commutator_decomposition(MatrixQ.zero(3))
        assert a.is_zero() and b.is_zero()

    def test_random_trace_zero_matrices(self):
        rng = random.Random(12)
        for d in (2, 3, 4):
            for _ in range(15):
                m = random_trace_zero(rng, d)
                a, b = commutator_decomposition(m)
                assert commutator(a, b) == m
                assert commutator(a, b).trace() == 0

    def test_nonzero_trace_rejected(self):
        with pytest.raises(NonzeroTrace):
            commutator_decomposition(MatrixQ.identity(4))

    @staticmethod
    def _same_as_reference(m):
        a, b = commutator_decomposition(m)
        want = reference_commutator_decomposition(m)
        assert (a, b) == want
        assert commutator(a, b) == m

    def test_reference_on_acceptance_battery(self):
        # The 500 matrices of acceptance criterion 11.
        rng = random.Random(1111)
        for d in range(2, 7):
            for _ in range(100):
                self._same_as_reference(random_trace_zero(rng, d))

    @pytest.mark.parametrize("d", (7, 8, 9, 10))
    def test_reference_at_high_dim(self, d):
        rng = random.Random(1100 + d)
        for k in range(6):
            m = random_trace_zero(rng, d)
            if k % 2:  # upper triangular, so preparatory shears run too
                rows = [[x if c >= r else 0 for c, x in enumerate(row)] for r, row in enumerate(m.rows)]
                rows[d - 1][d - 1] = -sum(rows[i][i] for i in range(d - 1))
                m = MatrixQ(rows)
            self._same_as_reference(m)


class TestExpressInTerms:
    def test_solves_consistent_system(self):
        rng = random.Random(13)
        vecs = [random_matrix_int(rng, 2).flatten() for _ in range(3)]
        coeffs = [Fraction(1, 2), Fraction(-3), Fraction(2, 5)]
        target = [
            sum(c * v[i] for c, v in zip(coeffs, vecs)) for i in range(4)
        ]
        sol = express_in_terms(vecs, target)
        assert sol is not None
        rebuilt = [
            sum(c * v[i] for c, v in zip(sol, vecs)) for i in range(4)
        ]
        assert rebuilt == target

    def test_inconsistent_system(self):
        vecs = [E(0, 0).flatten()]
        assert express_in_terms(vecs, E(1, 1).flatten()) is None

    @pytest.mark.parametrize("vecs", [[(1, 2)], [(1, 2, 3, 4)], [(1, 2, 3), (1, 2)]], ids=["short", "long", "ragged"])
    def test_length_mismatch(self, vecs):
        # Each row of the system is one entry of every vector and the target.
        with pytest.raises(ValueError):
            express_in_terms(vecs, (1, 2, 3))


@pytest.mark.parametrize("entry", [int, lambda x: Fraction(x, 3)], ids=["int", "fraction"])
def test_solvers_leave_list_inputs_unmodified(entry):
    # fraction_free_rref reduces its rows in place, so _cleared hands it
    # copies: on the integer rule as on the lcm pass.
    rng = random.Random(22)
    vecs = [[entry(rng.randint(-5, 5)) for _ in range(4)] for _ in range(3)]
    target = [sum(v[i] for v in vecs) for i in range(4)]
    mats = [MatrixQ.unflatten(v, 2) for v in vecs]
    nodes = [entry(lam) for lam in (0, 1, 2)]
    inputs = (vecs, target, mats, nodes)
    before = copy.deepcopy(inputs)
    assert express_in_terms(vecs, target) is not None
    inserted(2, mats)
    vandermonde_extract(nodes, mats)
    assert inputs == before
    scale, rows = linalg._cleared(vecs)
    assert (scale, rows) == ((1, vecs) if entry is int else (3, [[3 * x for x in v] for v in vecs]))
    assert not any(row is v for row, v in zip(rows, vecs))

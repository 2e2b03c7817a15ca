"""Seeded generators shared across the test modules."""

from __future__ import annotations

import itertools
import random
from fractions import Fraction

from ncspan import (
    Classification,
    DimensionMismatch,
    MatrixQ,
    MissingAssignment,
    NcPoly,
    SampleConfig,
    SpanBasis,
    SpanReport,
    StopReason,
    commutator,
)


def random_word(rng: random.Random, nvars: int, max_len: int, min_len: int = 0):
    return tuple(
        rng.randint(1, nvars) for _ in range(rng.randint(min_len, max_len))
    )


def random_poly(
    rng: random.Random,
    nvars: int = 3,
    max_degree: int = 4,
    max_terms: int = 5,
    coeff_bound: int = 5,
    min_degree: int = 0,
) -> NcPoly:
    """Nonzero sparse polynomial with words shorter than max_degree + 1."""
    while True:
        terms = {}
        for _ in range(rng.randint(1, max_terms)):
            word = random_word(rng, nvars, max_degree)
            coeff = rng.randint(1, coeff_bound) * rng.choice((-1, 1))
            terms[word] = terms.get(word, 0) + coeff
        f = NcPoly(terms)
        if not f.is_zero() and (f.degree() or 0) >= min_degree:
            return f


def random_commutator_sum(
    rng: random.Random, nvars: int = 3, max_degree: int = 4
) -> NcPoly:
    """Nonzero sum of one or two bracket terms c * (uv - vu), total degree bounded."""
    while True:
        f = NcPoly.zero()
        for _ in range(rng.randint(1, 2)):
            lu = rng.randint(1, max_degree - 1)
            lv = rng.randint(1, max_degree - lu)
            u = NcPoly.monomial(random_word(rng, nvars, lu, min_len=lu))
            v = NcPoly.monomial(random_word(rng, nvars, lv, min_len=lv))
            c = rng.randint(1, 3) * rng.choice((-1, 1))
            f = f + (u * v - v * u).scale(c)
        if not f.is_zero():
            return f


def battery_poly(rng: random.Random) -> NcPoly:
    """Corpus member for the consistency battery: nonconstant, degree <= 4.

    Mixes generic sparse polynomials with explicit sums of commutators so
    both sides of the trace-zero/commutator-sum equivalence get exercised.
    """
    if rng.random() < 0.3:
        return random_commutator_sum(rng, nvars=3, max_degree=4)
    return random_poly(rng, nvars=3, max_degree=4, max_terms=5, min_degree=1)


def random_multilinear(rng: random.Random, n: int) -> NcPoly:
    """Nonzero multilinear polynomial: permutation words on X1..Xn."""
    perms = list(itertools.permutations(range(1, n + 1)))
    while True:
        chosen = rng.sample(perms, rng.randint(1, min(4, len(perms))))
        f = NcPoly(
            {word: rng.randint(1, 5) * rng.choice((-1, 1)) for word in chosen}
        )
        if not f.is_zero():
            return f


def standard_polynomial(n: int) -> NcPoly:
    """The alternating sum over all permutations of X1..Xn."""
    out = NcPoly.zero()
    for perm in itertools.permutations(range(1, n + 1)):
        inversions = sum(
            1
            for i in range(n)
            for j in range(i + 1, n)
            if perm[i] > perm[j]
        )
        out = out + NcPoly.monomial(perm, (-1) ** inversions)
    return out


def random_matrix(rng: random.Random, d: int, bound: int) -> MatrixQ:
    """d x d matrix with integer entries uniform in [-bound, bound], by randint.

    Draws entry by entry, as the sample stream of ncspan.span is specified
    to, so the references sample independently of the bulk draw.
    """
    return MatrixQ(
        [[rng.randint(-bound, bound) for _ in range(d)] for _ in range(d)]
    )


def random_matrix_int(rng: random.Random, d: int, bound: int = 9) -> MatrixQ:
    return MatrixQ(
        [[rng.randint(-bound, bound) for _ in range(d)] for _ in range(d)]
    )


def random_trace_zero(rng: random.Random, d: int, bound: int = 9) -> MatrixQ:
    """Integer matrix with the last diagonal entry fixed to cancel the trace."""
    rows = [[rng.randint(-bound, bound) for _ in range(d)] for _ in range(d)]
    rows[d - 1][d - 1] = -sum(rows[i][i] for i in range(d - 1))
    return MatrixQ(rows)


def random_noncentral(rng: random.Random, d: int, bound: int = 9) -> MatrixQ:
    while True:
        m = random_matrix_int(rng, d, bound)
        if not m.is_scalar():
            return m


def reference_substitute(f: NcPoly, assignment) -> NcPoly:
    """X_i -> assignment[i] term by term: each word's product of images is
    built with NcPoly arithmetic and added to a running sum."""
    for i in f.variables():
        if i not in assignment:
            raise MissingAssignment(i)
    out = NcPoly.zero()
    for word, coeff in f.terms.items():
        term = NcPoly.constant(coeff)
        for letter in word:
            term = term * assignment[letter]
        out = out + term
    return out


def reference_evaluate(f: NcPoly, args, d: int) -> MatrixQ:
    """f at args by MatrixQ arithmetic with the Fraction coefficients as given."""
    acc = MatrixQ.zero(d)
    for word, coeff in f.terms.items():
        prod = MatrixQ.identity(d)
        for letter in word:
            prod = prod * args[letter - 1]
        acc = acc + prod.scale(coeff)
    return acc


def reference_is_identity(f: NcPoly, d: int, cfg: SampleConfig) -> bool:
    """Whether f vanishes on M_d, by MatrixQ arithmetic on each tuple.

    Matrix-unit tuples for multilinear f, else the seeded samples of
    is_identity, drawn the same way but evaluated independently of it.
    """
    if f.is_zero():
        return True
    if f.is_multilinear():
        units = [MatrixQ.unit(d, j, k) for j in range(d) for k in range(d)]
        return all(
            reference_evaluate(f, tup, d).is_zero()
            for tup in itertools.product(units, repeat=f.nvars)
        )
    rng = random.Random(cfg.seed)
    for _ in range(cfg.samples_for(d)):
        args = tuple(
            random_matrix(rng, d, cfg.coeff_bound) for _ in range(f.nvars)
        )
        if not reference_evaluate(f, args, d).is_zero():
            return False
    return True


def reference_classify_span(f: NcPoly, d: int, cfg: SampleConfig) -> SpanReport:
    """The exact span classifier: every value folded into a Fraction RREF.

    The RREF is kept by reference_rref_insert, one rank-one update per
    value, independently of SpanBasis.

    Same sampling, stopping rule and witnesses as classify_span, which
    must agree with it field for field.
    """
    n = d * d

    def match(basis):
        if basis.rank == 0:
            return Classification.ZERO
        if basis.rank == 1 and basis.rows[0] == MatrixQ.identity(d).flatten():
            return Classification.SCALARS
        if basis.rank == n - 1 and all(not sum(row[:: d + 1]) for row in basis.rows):
            return Classification.TRACE_ZERO
        if basis.rank == n:
            return Classification.FULL
        return None

    commutator_sum = f.is_sum_of_commutators()
    rng = random.Random(cfg.seed)
    rows, pivots = (), ()
    witnesses = []
    stall = 0
    samples_used = 0
    classification = None
    stop_reason = StopReason.BUDGET_EXHAUSTED
    for _ in range(cfg.samples_for(d)):
        args = tuple(
            random_matrix(rng, d, cfg.coeff_bound) for _ in range(f.nvars)
        )
        value = reference_evaluate(f, args, d)
        samples_used += 1
        rows, pivots, grew = reference_rref_insert(rows, pivots, value.flatten())
        basis = SpanBasis(d, rows, pivots)
        if grew:
            witnesses.append((args, value))
            stall = 0
        else:
            stall += 1
        if basis.rank == n:
            classification = Classification.FULL
            stop_reason = StopReason.FULL_RANK
            break
        if commutator_sum and basis.rank == n - 1:
            classification = match(basis)
            stop_reason = StopReason.COMMUTATOR_SUM
            break
        if stall >= cfg.stability_window:
            classification = match(basis)
            if classification is not None:
                stop_reason = StopReason.STABILITY_WINDOW
                break
    if classification is None:
        classification = match(basis) or Classification.UNDETERMINED
    return SpanReport(
        poly=f,
        dim=d,
        classification=classification,
        basis=basis,
        witnesses=tuple(witnesses),
        samples_used=samples_used,
        stop_reason=stop_reason,
        config=cfg,
    )


def reference_inverse(m: MatrixQ) -> MatrixQ:
    """Exact inverse by Fraction Gauss-Jordan; raises ValueError if singular."""
    d = m.dim
    aug = [
        [Fraction(x) for x in row] + [Fraction(int(i == j)) for j in range(d)]
        for i, row in enumerate(m.rows)
    ]
    for col in range(d):
        sel = next((r for r in range(col, d) if aug[r][col]), None)
        if sel is None:
            raise ValueError("matrix is singular")
        aug[col], aug[sel] = aug[sel], aug[col]
        pv = aug[col][col]
        aug[col] = [x / pv for x in aug[col]]
        for r in range(d):
            if r != col and aug[r][col]:
                c = aug[r][col]
                aug[r] = [x - c * y for x, y in zip(aug[r], aug[col])]
    return MatrixQ([row[d:] for row in aug])


def reference_express_in_terms(vectors, target):
    """Solve sum_j lam_j * vectors[j] = target by Fraction Gauss-Jordan.

    One solution with free coordinates set to zero, or None when the target
    is outside the span of the vectors.
    """
    k = len(vectors)
    n = len(target)
    aug = [
        [Fraction(vectors[j][r]) for j in range(k)] + [Fraction(target[r])]
        for r in range(n)
    ]
    pivot_cols = []
    row = 0
    for col in range(k):
        sel = next((r for r in range(row, n) if aug[r][col]), None)
        if sel is None:
            continue
        aug[row], aug[sel] = aug[sel], aug[row]
        pv = aug[row][col]
        aug[row] = [x / pv for x in aug[row]]
        for r in range(n):
            if r != row and aug[r][col]:
                c = aug[r][col]
                aug[r] = [x - c * y for x, y in zip(aug[r], aug[row])]
        pivot_cols.append(col)
        row += 1
        if row == n:
            break
    for r in range(row, n):
        if aug[r][k]:
            return None
    sol = [Fraction(0)] * k
    for r, col in enumerate(pivot_cols):
        sol[col] = aug[r][k]
    return sol


def reference_rref_insert(rows, pivots, vec):
    """Insert vec into Fraction RREF rows; returns (rows, pivots, grew)."""
    v = list(vec)
    for row, p in zip(rows, pivots):
        c = v[p]
        if c:
            v = [a - c * b for a, b in zip(v, row)]
    p = next((i for i, x in enumerate(v) if x), None)
    if p is None:
        return rows, pivots, False
    pv = Fraction(v[p])
    new_row = tuple(x / pv for x in v)
    adjusted = []
    for row in rows:
        c = row[p]
        if c:
            row = tuple(a - c * b for a, b in zip(row, new_row))
        adjusted.append(row)
    pos = next((k for k, q in enumerate(pivots) if q > p), len(pivots))
    out_rows = tuple(adjusted[:pos]) + (new_row,) + tuple(adjusted[pos:])
    out_pivots = pivots[:pos] + (p,) + pivots[pos:]
    return out_rows, out_pivots, True


def _all_units(d: int):
    return [MatrixQ.unit(d, j, k) for j in range(d) for k in range(d)]


def reference_lie_ideal_check(basis: SpanBasis) -> bool:
    """Whether [r, E_jk] stays in the span for every basis row and all d^2 units."""
    units = _all_units(basis.dim)
    return all(
        basis.contains(commutator(row, unit))
        for row in basis.row_matrices()
        for unit in units
    )


def reference_herstein_closure(seed: MatrixQ, d: int) -> SpanBasis:
    """Smallest Lie ideal and subalgebra containing seed, bracketing with all d^2 units."""
    if seed.dim != d:
        raise DimensionMismatch(f"seed is {seed.dim}x{seed.dim}, expected {d}x{d}")
    units = _all_units(d)
    basis, changed = SpanBasis(d).insert(seed)
    while changed:
        changed = False
        mats = basis.row_matrices()
        for m in [commutator(r, u) for r in mats for u in units] + [a * b for a in mats for b in mats]:
            basis, grew = basis.insert(m)
            changed |= grew
    return basis

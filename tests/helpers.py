"""Seeded generators shared across the test modules."""

from __future__ import annotations

import itertools
import random

from ncspan import (
    Classification,
    MatrixQ,
    NcPoly,
    SampleConfig,
    SpanBasis,
    SpanReport,
)
from ncspan.span import random_matrix


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


def reference_evaluate(f: NcPoly, args, d: int) -> MatrixQ:
    """f at args by MatrixQ arithmetic with the Fraction coefficients as given."""
    acc = MatrixQ.zero(d)
    for word, coeff in f.terms.items():
        prod = MatrixQ.identity(d)
        for letter in word:
            prod = prod * args[letter - 1]
        acc = acc + prod.scale(coeff)
    return acc


def reference_classify_span(f: NcPoly, d: int, cfg: SampleConfig) -> SpanReport:
    """The exact span classifier: every value folded into a Fraction RREF.

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

    rng = random.Random(cfg.seed)
    basis = SpanBasis(d)
    witnesses = []
    stall = 0
    samples_used = 0
    classification = None
    for _ in range(cfg.samples_for(d)):
        args = tuple(
            random_matrix(rng, d, cfg.coeff_bound) for _ in range(f.nvars)
        )
        value = reference_evaluate(f, args, d)
        samples_used += 1
        basis, grew = basis.insert(value)
        if grew:
            witnesses.append((args, value))
            stall = 0
        else:
            stall += 1
        if basis.rank == n:
            classification = Classification.FULL
            break
        if stall >= cfg.stability_window:
            classification = match(basis)
            if classification is not None:
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
        config=cfg,
    )

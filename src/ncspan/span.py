"""Evaluation of polynomials on M_d(Q) and classification of value spans.

The linear span of the values of a polynomial on a full matrix algebra is
always one of four canonical subspaces: zero, the scalars, the trace-zero
matrices, or everything.  This module samples random integer matrix tuples,
evaluates L * f on them in plain integers (L clears f's denominators), and
stops once the span has been stable for a while and matches a canonical
space.  Exactness comes from three places:

- growth is tracked by rank modulo a prime, a lower bound on the rank over
  Q, so every recorded growth is real and no class is overclaimed;
- whether every sampled value is zero, scalar or trace zero is tested
  exactly on the integer values;
- the exact basis is built once at the end, in closed form for a canonical
  class and by reducing the witness values otherwise.

Sampling is a lower bound on the true span, so a budget that runs out
without a match is reported honestly as UNDETERMINED rather than coerced.

Every sampled verdict reads one seeded stream of integer values: the
classifier folds it into the span, and the identity test stops at its first
nonzero value.  Identity and centrality tests are exact for multilinear
polynomials (it suffices to evaluate on tuples of matrix units) and
randomized otherwise, with the usual polynomial-vanishing error bound,
which vanishing_rate gives in factored form.
"""

from __future__ import annotations

import itertools
import math
import random
from dataclasses import dataclass
from fractions import Fraction
from operator import mul
from typing import Callable, Iterator, Sequence

from .linalg import (
    Classification,
    DimensionMismatch,
    EchelonModP,
    MatrixQ,
    NotInSpan,
    Num,
    SpanBasis,
    express_in_terms,
    unit_commutator,
)
from .poly import NcPoly, Word


class ArityMismatch(Exception):
    """Fewer argument matrices than the polynomial has variables."""


class ConstantInput(Exception):
    """Operation requires a nonconstant polynomial."""


@dataclass(frozen=True)
class SampleConfig:
    """Deterministic sampling policy; every random draw flows from seed.

    Entries are integers uniform in [-coeff_bound, coeff_bound].  When
    max_samples is None the budget defaults to 64 * d^2 for dimension d
    (the rank can grow at most d^2 times, with generous slack).
    """

    seed: int = 0
    coeff_bound: int = 10
    max_samples: int | None = None
    stability_window: int = 50

    def __post_init__(self):
        if self.coeff_bound < 1:
            raise ValueError("coeff_bound must be >= 1")
        if self.stability_window < 1:
            raise ValueError("stability_window must be >= 1")
        if self.max_samples is not None and self.max_samples < 1:
            raise ValueError("max_samples must be >= 1")

    def samples_for(self, d: int) -> int:
        return self.max_samples if self.max_samples is not None else 64 * d * d


Witness = tuple[tuple[MatrixQ, ...], MatrixQ]


@dataclass(frozen=True)
class SpanReport:
    """Outcome of sampling the span of a polynomial's values on M_d."""

    poly: NcPoly
    dim: int
    classification: Classification
    basis: SpanBasis
    witnesses: tuple[Witness, ...]
    samples_used: int
    config: SampleConfig


def _integer_terms(f: NcPoly) -> tuple[int, list[tuple[Word, int]]]:
    """(L, terms of L * f) for L the lcm of f's coefficient denominators."""
    scale = math.lcm(*(coeff.denominator for coeff in f.terms.values()))
    return scale, [(word, int(coeff * scale)) for word, coeff in f.terms.items()]


def _evaluate_rows(
    terms: list[tuple[Word, int]], args: Sequence[Sequence[Sequence[Num]]], d: int
) -> list[list[Num]]:
    """Rows of sum c * w(args) over (w, c) in terms; args[i-1] are the rows of X_i.

    Integer coefficients keep integer arguments in plain ints throughout.
    """
    cols = [tuple(zip(*a)) for a in args]
    acc: list[list[Num]] = [[0] * d for _ in range(d)]
    for word, coeff in terms:
        if not word:
            for i in range(d):
                acc[i][i] += coeff
            continue
        prod = args[word[0] - 1]
        for letter in word[1:]:
            prod = [[sum(map(mul, row, col)) for col in cols[letter - 1]] for row in prod]
        acc = [[a + coeff * x for a, x in zip(ra, rp)] for ra, rp in zip(acc, prod)]
    return acc


def _unscaled(rows: list[list[Num]], scale: int) -> MatrixQ:
    """The matrix with the given rows divided by scale, exactly."""
    if scale != 1:
        rows = [[Fraction(x, scale) for x in row] for row in rows]
    return MatrixQ(rows)


def evaluate(
    f: NcPoly, args: Sequence[MatrixQ], dim: int | None = None
) -> MatrixQ:
    """Evaluate f at a tuple of matrices (args[i-1] is the value of X_i).

    The constant term contributes a scalar multiple of the identity.  For a
    polynomial without variables the target dimension must be passed
    explicitly since it cannot be inferred.  L * f is evaluated for L the
    lcm of the coefficient denominators, then scaled back by 1/L.
    """
    args = tuple(args)
    if len(args) < f.nvars:
        raise ArityMismatch(
            f"polynomial uses X1..X{f.nvars} but only {len(args)} matrices given"
        )
    if args:
        d = args[0].dim
        for a in args:
            if a.dim != d:
                raise DimensionMismatch("argument matrices have differing dimensions")
        if dim is not None and dim != d:
            raise DimensionMismatch(f"arguments are {d}x{d}, expected {dim}x{dim}")
    elif dim is not None:
        d = dim
    else:
        raise ArityMismatch("cannot infer dimension: no arguments and no dim given")
    scale, terms = _integer_terms(f)
    return _unscaled(_evaluate_rows(terms, [a.rows for a in args], d), scale)


def random_matrix(rng: random.Random, d: int, bound: int) -> MatrixQ:
    """d x d matrix with integer entries uniform in [-bound, bound]."""
    return MatrixQ(
        [[rng.randint(-bound, bound) for _ in range(d)] for _ in range(d)]
    )


def _samples(
    f: NcPoly, d: int, cfg: SampleConfig
) -> Iterator[tuple[tuple[MatrixQ, ...], list[list[int]]]]:
    """The seeded sample stream that every sampled verdict reads.

    Yields (args, rows of L * f(args)) for samples_for(d) tuples of random
    integer matrices, L clearing f's denominators, so the rows are ints.
    """
    rng = random.Random(cfg.seed)
    _, terms = _integer_terms(f)
    for _ in range(cfg.samples_for(d)):
        args = tuple(
            random_matrix(rng, d, cfg.coeff_bound) for _ in range(f.nvars)
        )
        yield args, _evaluate_rows(terms, [a.rows for a in args], d)


def is_identity(f: NcPoly, d: int, cfg: SampleConfig | None = None) -> bool:
    """Decide whether every value of f on M_d is zero.

    Exact for multilinear f: by linearity in each variable it is enough to
    check all tuples of matrix units.  Otherwise randomized over integer
    matrices: any nonzero value certifies False, while an all-zero run
    returns True with error probability at most p ** n for (p, n) =
    vanishing_rate().  Both evaluate L * f, which vanishes where f does.
    """
    cfg = cfg or SampleConfig()
    if f.is_zero():
        return True
    if f.is_multilinear():
        _, terms = _integer_terms(f)
        units = [MatrixQ.unit(d, j, k).rows for j in range(d) for k in range(d)]
        tuples = itertools.product(units, repeat=f.nvars)
        values = (_evaluate_rows(terms, tup, d) for tup in tuples)
    else:
        values = (rows for _, rows in _samples(f, d, cfg))
    return not any(any(map(any, rows)) for rows in values)


def vanishing_rate(
    f: NcPoly, d: int, cfg: SampleConfig | None = None
) -> tuple[Fraction, int]:
    """(p, n): a randomized all-zero identity verdict errs with probability <= p ** n.

    Standard polynomial-vanishing estimate: a nonzero polynomial of total
    degree k vanishes at a uniform integer point of [-B, B] with
    probability at most p = k / (2B + 1), independently in each of the n
    samples; p is capped at 1.  Exact (multilinear) tests have p = 0.  The
    bound stays factored because p ** n can have thousands of digits.
    """
    cfg = cfg or SampleConfig()
    n = cfg.samples_for(d)
    deg = f.degree()
    if f.is_zero() or f.is_multilinear() or deg == 0:
        return Fraction(0), n
    return min(Fraction(deg, 2 * cfg.coeff_bound + 1), Fraction(1)), n


def _fresh_bracket(f: NcPoly) -> NcPoly:
    """[f, X_{n+1}] for a variable X_{n+1} that f does not use."""
    fresh = NcPoly.variable(f.nvars + 1)
    return f * fresh - fresh * f


def is_central(f: NcPoly, d: int, cfg: SampleConfig | None = None) -> bool:
    """Decide whether f's values lie in the center of M_d without all vanishing.

    Tested through the bracket with a fresh variable: f is central iff
    [f, X_{n+1}] is an identity while f itself is not.
    """
    cfg = cfg or SampleConfig()
    return is_identity(_fresh_bracket(f), d, cfg) and not is_identity(f, d, cfg)


def nontriviality_oracle(
    d: int, cfg: SampleConfig | None = None
) -> Callable[[NcPoly], bool]:
    """Oracle for the reduction pipeline: neither identity nor central on M_d."""
    cfg = cfg or SampleConfig()
    return lambda f: not is_identity(f, d, cfg) and not is_identity(_fresh_bracket(f), d, cfg)


def _match_class(
    rank: int, d: int, all_zero: bool, all_scalar: bool, all_trace_zero: bool
) -> Classification | None:
    """The canonical space spanned by the sampled values, if their facts pin it.

    rank is the rank mod p, a lower bound on the rank over Q; the three
    flags are exact facts about every sampled value.  A span of scalars
    with rank 1, of trace-zero matrices with rank d^2 - 1, or of rank d^2
    equals its canonical space, so no verdict is ever overclaimed.
    """
    if all_zero:
        return Classification.ZERO
    if rank == 1 and all_scalar:
        return Classification.SCALARS
    if rank == d * d - 1 and all_trace_zero:
        return Classification.TRACE_ZERO
    if rank == d * d:
        return Classification.FULL
    return None


def classify_span(
    f: NcPoly, d: int, cfg: SampleConfig | None = None
) -> SpanReport:
    """Sample values of f on M_d and classify their linear span.

    Stops as soon as the values have seen stability_window consecutive
    non-growing samples while matching a canonical space, or immediately at
    full rank (no further sample can change a full span), or when the
    budget runs out.  Witness tuples are recorded exactly for the samples
    that grew the rank, so the basis is the span of the witness values.

    Values are computed as integer matrices L * f(t).  Growth is tracked by
    rank mod a prime, which never overclaims (see EchelonModP), and the
    class comes from that rank plus exact tests of every sampled value.
    The exact basis is built once: in closed form for a canonical class,
    else by reducing the witness values.
    """
    cfg = cfg or SampleConfig()
    scale, _ = _integer_terms(f)
    echelon = EchelonModP()
    witnesses: list[Witness] = []
    full_rank = d * d
    identity = MatrixQ.identity(d).flatten()
    all_zero = all_scalar = all_trace_zero = True
    stall = 0
    samples_used = 0
    classification: Classification | None = None
    for args, rows in _samples(f, d, cfg):
        vec = [x for row in rows for x in row]
        samples_used += 1
        all_zero = all_zero and not any(vec)
        all_scalar = all_scalar and vec == [vec[0] * x for x in identity]
        all_trace_zero = all_trace_zero and not sum(vec[:: d + 1])
        # A value that keeps the span canonical lies in it: no elimination.
        match = _match_class(echelon.rank, d, all_zero, all_scalar, all_trace_zero)
        if match is None and echelon.insert(vec):
            witnesses.append((args, _unscaled(rows, scale)))
            stall = 0
        else:
            stall += 1
        if echelon.rank == full_rank:
            classification = Classification.FULL
            break
        if stall >= cfg.stability_window:
            classification = _match_class(
                echelon.rank, d, all_zero, all_scalar, all_trace_zero
            )
            if classification is not None:
                break
    if classification is None:
        classification = (
            _match_class(echelon.rank, d, all_zero, all_scalar, all_trace_zero)
            or Classification.UNDETERMINED
        )
    if classification is Classification.UNDETERMINED:
        basis = SpanBasis.from_matrices(d, (value for _, value in witnesses))
    else:
        basis = SpanBasis.canonical(d, classification)
    return SpanReport(
        poly=f,
        dim=d,
        classification=classification,
        basis=basis,
        witnesses=tuple(witnesses),
        samples_used=samples_used,
        config=cfg,
    )


def find_witness_dimension(
    f: NcPoly, d_max: int, cfg: SampleConfig | None = None
) -> int | None:
    """Smallest d <= d_max where f is neither an identity nor central.

    Such a d exists for every nonconstant polynomial once d_max is large
    enough (no nonzero polynomial is an identity of every M_d); None means
    the search bound was too small.
    """
    if f.is_constant():
        raise ConstantInput("witness dimensions are defined for nonconstant input")
    for d in range(1, d_max + 1):
        if nontriviality_oracle(d, cfg)(f):
            return d
    return None


def _chevalley_units(d: int) -> list[tuple[int, int]]:
    """Indices (j, k) of E_{i,i+1} and E_{i+1,i} for i < d - 1.

    These 2(d - 1) matrix units generate sl_d as a Lie algebra.  A subspace
    V closed under ad(s) and ad(t) is closed under ad([s, t]), by the
    Jacobi identity [v, [s, t]] = [[v, s], t] - [[v, t], s]; scalars bracket
    to 0.  So V is closed under brackets with all of M_d iff it is closed
    under brackets with these units.  At d = 1 there are none: M_1 is
    abelian.
    """
    return [(i, i + 1) for i in range(d - 1)] + [(i + 1, i) for i in range(d - 1)]


def lie_ideal_check(basis: SpanBasis) -> bool:
    """Check [r, E] stays in the span for every basis row r and Chevalley unit E.

    The units generate sl_d as a Lie algebra, so by bilinearity of the
    bracket and the Jacobi identity (see _chevalley_units) this certifies
    exactly that the span is a Lie ideal of the full matrix algebra, with
    rank * 2(d - 1) membership tests.
    """
    units = _chevalley_units(basis.dim)
    return all(
        basis.contains(unit_commutator(row, j, k))
        for row in basis.row_matrices()
        for j, k in units
    )


def herstein_closure(seed: MatrixQ, d: int) -> SpanBasis:
    """Smallest subspace containing seed that is a Lie ideal and a subalgebra.

    Fixpoint iteration: repeatedly adjoin brackets of basis rows with the
    Chevalley units and pairwise products of basis rows until the rank stops
    growing.  Closure under brackets with those units is closure under
    brackets with all of M_d (see _chevalley_units).  For a noncentral seed
    of a full matrix algebra the closure is everything.
    """
    if seed.dim != d:
        raise DimensionMismatch(f"seed is {seed.dim}x{seed.dim}, expected {d}x{d}")
    units = _chevalley_units(d)
    basis, changed = SpanBasis(d).insert(seed)
    while changed:
        changed = False
        mats = basis.row_matrices()
        brackets = [unit_commutator(r, j, k) for r in mats for j, k in units]
        for m in brackets + [a * b for a in mats for b in mats]:
            basis, grew = basis.insert(m)
            changed |= grew
    return basis


Decomposition = list[tuple[Fraction, tuple[MatrixQ, ...]]]


def decompose_target(report: SpanReport, target: MatrixQ) -> Decomposition:
    """Express target as an exact combination sum lam_j * f(t_j).

    The t_j are witness tuples from the report (whose values span the
    report's basis), except in the directly invertible case f = c * X_i,
    where the preimage tuple is written down outright.  Raises NotInSpan
    when the target lies outside the recorded span.  Each call is one
    fraction-free solve (express_in_terms).
    """
    d = report.dim
    if target.dim != d:
        raise DimensionMismatch(f"target is {target.dim}x{target.dim}, expected {d}")
    f = report.poly
    if len(f.terms) == 1:
        ((word, coeff),) = f.terms.items()
        if len(word) == 1:
            i = word[0]
            scaled = target.scale(Fraction(1) / coeff)
            args = tuple(
                scaled if v == i else MatrixQ.zero(d)
                for v in range(1, f.nvars + 1)
            )
            return [(Fraction(1), args)]
    if not report.basis.contains(target):
        raise NotInSpan("target is outside the sampled span")
    vectors = [value.flatten() for _, value in report.witnesses]
    sol = express_in_terms(vectors, target.flatten())
    if sol is None:
        raise NotInSpan("target is outside the span of the witness values")
    return [
        (lam, args)
        for lam, (args, _) in zip(sol, report.witnesses)
        if lam
    ]

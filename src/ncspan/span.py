"""Evaluation of polynomials on M_d(Q) and classification of value spans.

The linear span of the values of a polynomial on a full matrix algebra is
always one of four canonical subspaces: zero, the scalars, the trace-zero
matrices, or everything.  This module samples random integer matrix tuples,
evaluates L * f on them in plain integers (L clears f's denominators), and
stops once the span provably equals a canonical space, or has been stable
for a while and matches one.  Exactness comes from three places:

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

The sampling kernel does a whole row's work per Python-level step:

- the entries come from one getrandbits call per batch, read through a
  byte table; they are exactly the values randint(-B, B) would give one by
  one (see _entry_stream), with randint itself for B > 127;
- each row of a running product is one int with the row's entries in
  fixed-width slots, sized from a proved bound on every entry (see
  _packed_evaluator), so no value is ever wrong, only wider, and the
  result is decoded by one little-endian struct whatever the host's byte
  order (int.from_bytes only for slots wider than 8 bytes);
- EchelonModP keeps its rows packed the same way.
"""

from __future__ import annotations

import functools
import itertools
import random
import struct
from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from operator import mul
from typing import Callable, Iterator, Sequence

from .linalg import (
    Classification,
    DimensionMismatch,
    EchelonModP,
    MatrixQ,
    NotInSpan,
    SpanBasis,
    _cleared,
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


class StopReason(Enum):
    """Why classify_span stopped sampling.

    FULL_RANK and COMMUTATOR_SUM stop on a proof that the sampled span is
    the whole canonical space; STABILITY_WINDOW and BUDGET_EXHAUSTED stop
    on a sampled verdict, a lower bound on the span.
    """

    FULL_RANK = "FULL_RANK"
    COMMUTATOR_SUM = "COMMUTATOR_SUM"
    STABILITY_WINDOW = "STABILITY_WINDOW"
    BUDGET_EXHAUSTED = "BUDGET_EXHAUSTED"


@dataclass(frozen=True)
class SpanReport:
    """Outcome of sampling the span of a polynomial's values on M_d."""

    poly: NcPoly
    dim: int
    classification: Classification
    basis: SpanBasis
    witnesses: tuple[Witness, ...]
    samples_used: int
    stop_reason: StopReason
    config: SampleConfig


def _integer_terms(f: NcPoly) -> tuple[int, list[tuple[Word, int]]]:
    """(L, terms of L * f) for L the lcm of f's coefficient denominators."""
    scale, (coeffs,) = _cleared([f.terms.values()])
    return scale, list(zip(f.terms, coeffs))


# struct codes of the signed slot widths that have one.
_SIGNED_SLOTS = {1: "b", 2: "h", 4: "i", 8: "q"}


def _packed_evaluator(
    terms: list[tuple[Word, int]], d: int, bound: int
) -> Callable[[Sequence[int]], list[int]]:
    """ev(entries) = sum c * w(args) over (w, c) in terms, row-major.

    entries are the integer entries of args, row-major, X1 first; none may
    exceed bound in absolute value.  Words are evaluated right to left on
    packed rows: a row of the running product is one int holding its d
    entries in fixed-width slots, so a product A * P is d C-level sums of
    A's entries times P's rows.  Packing is a ring map Z[t] -> Z, t -> 2^s,
    so the arithmetic is exact whatever the slots hold in between, and
    decoding needs each final entry to fit its slot.  Every entry, final or
    intermediate, is at most sum |c| * d^(|w| - 1) * bound^|w|, and the
    slots are sized from that bound.  The result is decoded once, by one
    little-endian struct for 1-, 2-, 4- and 8-byte slots, else slot by slot.
    """
    n = d * d
    top = sum(abs(c) * d ** max(len(w) - 1, 0) * bound ** len(w) for w, c in terms)
    # Bytes per slot: a power of two with room for the sign.
    width = 1 << ((top.bit_length() + 8) // 8 - 1).bit_length()
    bits = 8 * width
    cols = [1 << (bits * c) for c in range(d)]
    rows_at = [1 << (bits * d * i) for i in range(d)]
    # Adding offset makes every slot nonnegative without borrows; xor-ing it
    # back flips each slot's top bit, leaving its two's-complement value.
    offset = sum(1 << (bits * k + bits - 1) for k in range(n))
    const = sum(c for w, c in terms if not w) * sum(1 << (bits * (d + 1) * i) for i in range(d))
    words = [([(x - 1) * d for x in reversed(w)], c) for w, c in terms if w]
    code = _SIGNED_SLOTS.get(width)
    unpack = struct.Struct(f"<{n}{code}").unpack if code else None

    def ev(entries: Sequence[int]) -> list[int]:
        rows = [entries[k : k + d] for k in range(0, len(entries), d)]
        packed = [sum(map(mul, row, cols)) for row in rows]
        total = const
        for (last, *rest), c in words:
            prod = packed[last : last + d]
            for k in rest:
                prod = [sum(map(mul, row, prod)) for row in rows[k : k + d]]
            total += c * sum(map(mul, prod, rows_at))
        data = ((total + offset) ^ offset).to_bytes(n * width, "little")
        if unpack:
            return list(unpack(data))
        return [
            int.from_bytes(data[k : k + width], "little", signed=True)
            for k in range(0, n * width, width)
        ]

    return ev


def _unscaled(vec: list[int], d: int, scale: int) -> MatrixQ:
    """The matrix with row-major entries vec divided by scale, exactly."""
    if scale != 1:
        vec = [Fraction(x, scale) for x in vec]
    return _matrices(vec, d)[0]


def _matrices(entries: Sequence[int], d: int) -> tuple[MatrixQ, ...]:
    """The d x d matrices whose row-major entries follow each other in entries.

    Rows are consecutive d-tuples of entries and matrices consecutive
    d-tuples of rows (zip over d references to one iterator), so each is
    well formed and goes to MatrixQ._of unchecked.
    """
    rows = zip(*[iter(entries)] * d)
    return tuple(map(MatrixQ._of, zip(*[rows] * d)))


def evaluate(
    f: NcPoly, args: Sequence[MatrixQ], dim: int | None = None
) -> MatrixQ:
    """Evaluate f at a tuple of matrices (args[i-1] is the value of X_i).

    The constant term contributes a scalar multiple of the identity.  For a
    polynomial without variables the target dimension must be passed
    explicitly since it cannot be inferred.  With L the lcm of f's
    coefficient denominators and D that of the arguments' entries, args =
    A / D for integer A, and f(args) is sum L * c * D^(m - |w|) * w(A)
    divided by L * D^m, m the degree of f: one integer evaluation.
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
    used = [x for a in args[: f.nvars] for row in a.rows for x in row]
    den, (entries,) = _cleared([used])
    deg = max((len(w) for w, _ in terms), default=0)
    terms = [(w, c * den ** (deg - len(w))) for w, c in terms]
    ev = _packed_evaluator(terms, d, max(map(abs, entries), default=0))
    return _unscaled(ev(entries), d, scale * den**deg)


@functools.cache
def _byte_tables(bound: int) -> tuple[bytes, bytes]:
    """(table, rejected) for _entry_stream at a bound of at most 127.

    table maps a word's top byte to r - B as a signed byte, where r is its
    top k bits; rejected lists the bytes with r >= 2B + 1.
    """
    n = 2 * bound + 1
    k = n.bit_length()
    table = bytes(((b >> (8 - k)) - bound) & 0xFF for b in range(256))
    rejected = bytes(b for b in range(256) if b >> (8 - k) >= n)
    return table, rejected


def _entry_stream(rng: random.Random, bound: int) -> Callable[[int], list[int]]:
    """draw(m): the next m values that m calls of rng.randint(-bound, bound) give.

    randint(-B, B) returns r - B for the top k bits r of one 32-bit
    Mersenne Twister word, k the bit length of n = 2B + 1, drawing again
    while r >= n.  getrandbits(32 * m) returns m such words, the first one
    least significant, so byte 3 of every 4 of its little-endian bytes is a
    word's top byte.  When k <= 8 a 256-entry translation maps that byte to
    r - B (as a signed byte) and deletes the rejected ones: the same values
    in the same order.  Unused values wait in a buffer for the next draw,
    which is exact as long as nothing else reads rng.  For n > 256 every
    value is drawn with randint.
    """
    n = 2 * bound + 1
    k = n.bit_length()
    if k > 8:
        return lambda m: [rng.randint(-bound, bound) for _ in range(m)]
    table, rejected = _byte_tables(bound)
    buf = b""

    def draw(m: int) -> list[int]:
        nonlocal buf
        while len(buf) < m:
            # A word is kept with probability n / 2^k > 1/2.
            words = ((m - len(buf)) << k) // n + 8
            raw = rng.getrandbits(32 * words).to_bytes(4 * words, "little")
            buf += raw[3::4].translate(table, rejected)
        out, buf = buf[:m], buf[m:]
        return memoryview(out).cast("b").tolist()

    return draw


def _samples(f: NcPoly, d: int, cfg: SampleConfig) -> Iterator[tuple[list[int], list[int]]]:
    """The seeded sample stream that every sampled verdict reads.

    Yields (entries, L * f(args)), both row-major, for samples_for(d)
    tuples args of random integer matrices (entries lists X1's entries,
    then X2's, ...), L clearing f's denominators, so the values are ints.
    The entries are those that randint(-B, B) would give one by one.
    """
    draw = _entry_stream(random.Random(cfg.seed), cfg.coeff_bound)
    _, terms = _integer_terms(f)
    ev = _packed_evaluator(terms, d, cfg.coeff_bound)
    size = f.nvars * d * d
    for _ in range(cfg.samples_for(d)):
        entries = draw(size)
        yield entries, ev(entries)


def is_identity(f: NcPoly, d: int, cfg: SampleConfig | None = None) -> bool:
    """Decide whether every value of f on M_d is zero.

    Exact for multilinear f: by linearity in each variable it is enough to
    check all tuples of matrix units.  Otherwise randomized over integer
    matrices: any nonzero value certifies False, while an all-zero run
    returns True with error probability at most p ** n for (p, n) =
    vanishing_rate().  Both evaluate L * f, which vanishes where f does.
    Any nonzero value proves False, so a multilinear f is first evaluated
    on the first sample, and only a zero there leads to the unit walk.
    """
    cfg = cfg or SampleConfig()
    if f.is_zero():
        return True
    samples = _samples(f, d, cfg)
    if f.is_multilinear():
        _, first = next(samples)
        if any(first):
            return False
        _, terms = _integer_terms(f)
        ev = _packed_evaluator(terms, d, 1)
        units = [[int(i == k) for k in range(d * d)] for i in range(d * d)]
        tuples = itertools.product(units, repeat=f.nvars)
        values = (ev(list(itertools.chain.from_iterable(tup))) for tup in tuples)
    else:
        values = (vec for _, vec in samples)
    return not any(map(any, values))


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
    flags are exact facts about every sampled value.  A span of rank d^2,
    of scalars with rank 1, or of trace-zero matrices with rank d^2 - 1
    equals its canonical space, so no verdict is ever overclaimed.  Rank
    d^2 is tested first: at d = 1 every value is scalar, and the span of
    rank 1 is reported as FULL.
    """
    if all_zero:
        return Classification.ZERO
    if rank == d * d:
        return Classification.FULL
    if rank == 1 and all_scalar:
        return Classification.SCALARS
    if rank == d * d - 1 and all_trace_zero:
        return Classification.TRACE_ZERO
    return None


def classify_span(
    f: NcPoly, d: int, cfg: SampleConfig | None = None
) -> SpanReport:
    """Sample values of f on M_d and classify their linear span.

    Stops as soon as the span is proved canonical, or once the values have
    seen stability_window consecutive non-growing samples while matching a
    canonical space, or when the budget runs out (see StopReason).  Two
    ranks prove the class: full rank d^2, and rank d^2 - 1 when f is a sum
    of commutators, whose values all lie in the trace-zero space sl_d since
    tr[a, b] = 0 (at d = 1, sl_1 = 0 and the span is ZERO).  Witness tuples
    are recorded exactly for the samples that grew the rank, so the basis
    is the span of the witness values.

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
    commutator_sum = f.is_sum_of_commutators()
    identity = MatrixQ.identity(d).flatten()
    all_zero = all_scalar = all_trace_zero = True
    stall = 0
    samples_used = 0
    match: Classification | None = None
    stop_reason = StopReason.BUDGET_EXHAUSTED
    for entries, vec in _samples(f, d, cfg):
        samples_used += 1
        all_zero = all_zero and not any(vec)
        all_scalar = all_scalar and vec == [vec[0] * x for x in identity]
        all_trace_zero = all_trace_zero and not sum(vec[:: d + 1])
        # A value that keeps the span canonical lies in it: no elimination.
        match = _match_class(echelon.rank, d, all_zero, all_scalar, all_trace_zero)
        if match is None and echelon.insert(vec):
            witnesses.append((_matrices(entries, d), _unscaled(vec, d, scale)))
            stall = 0
            match = _match_class(echelon.rank, d, all_zero, all_scalar, all_trace_zero)
        else:
            stall += 1
        if echelon.rank == full_rank:
            stop_reason = StopReason.FULL_RANK
        elif commutator_sum and echelon.rank == full_rank - 1:
            stop_reason = StopReason.COMMUTATOR_SUM
        elif stall >= cfg.stability_window and match is not None:
            stop_reason = StopReason.STABILITY_WINDOW
        else:
            continue
        break
    classification = match or Classification.UNDETERMINED
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
        stop_reason=stop_reason,
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

    Fixpoint iteration over generators, the matrices that grew the basis.
    Each round adjoins the brackets of last round's new generators with the
    Chevalley units and the products of every pair of generators with at
    least one new member; it stops when a round adds nothing.  Then every
    generator's brackets and every pairwise product lie in the span, so by
    bilinearity it is closed, and it is the same subspace (and, being
    reduced, the same basis) as closing over all pairs every round.
    Closure under brackets with those units is closure under brackets with
    all of M_d (see _chevalley_units).  For a noncentral seed of a full
    matrix algebra the closure is everything.
    """
    if seed.dim != d:
        raise DimensionMismatch(f"seed is {seed.dim}x{seed.dim}, expected {d}x{d}")
    units = _chevalley_units(d)
    basis, grew = SpanBasis(d).insert(seed)
    old: list[MatrixQ] = []
    new = [seed] if grew else []
    while new:
        gens = old + new
        candidates = [unit_commutator(m, j, k) for m in new for j, k in units]
        candidates += [a * b for a in gens for b in new] + [b * a for a in old for b in new]
        old, new = gens, []
        for m in candidates:
            basis, grew = basis.insert(m)
            if grew:
                new.append(m)
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

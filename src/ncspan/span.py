"""Evaluation of polynomials on M_d(Q) and classification of value spans.

The linear span of the values of a polynomial on a full matrix algebra is
always one of four canonical subspaces: zero, the scalars, the trace-zero
matrices, or everything.  The span is closed under conjugation, so it is a
Lie ideal of M_d, and one non-scalar value puts the trace-zero matrices
inside it (see classify_span).  For d >= 2 and 1 <= deg f < 2d that fixes
the class before any sample: sl_d for a sum of commutators, M_d otherwise
(Classification.bound), and f is neither an identity nor central (see
_degree_decides).  Elsewhere this module samples random integer matrix
tuples, evaluates L * f on them in plain integers (L clears f's
denominators), and names the least canonical space that holds every
sampled value.  That space is a proved lower bound on the span, and the
span itself once it is M_d, or the trace-zero matrices for a sum of
commutators; otherwise the upper bound is sampled, and the report says so
by its stop reason.  Exactness comes from two places:

- whether a sampled value is zero, scalar or trace zero is tested exactly
  on the integer values, and the class rests on these tests, or on the
  theorem, alone;
- a report names one of the four canonical spaces, whose rank, order and
  membership tests are closed forms (see Classification); its exact basis
  is built only when read, in closed form.

classify_span samples in the call, whatever names the class, and its
report keeps integer rows: the one or two samples that raised its class.
What is read from them is built only when read, by conjugation, with no
evaluation of f: classify's rank-many witness rows (grown), shear
conjugates each kept when it grows an echelon mod p = 2^31 - 1 once the
powers of p that the rows' traces and trace-free parts share are divided
out (see _shear_closure), written as text straight from the integer rows;
and decompose's certificate, off which each target's coefficients are
read in closed form (see _Certificate).  suite reads the class alone
(_class_of): by the degree where it decides it, else from classify_span,
and prints no witness.

Every sampled verdict reads one seeded stream of integer entries, the
values randint(-B, B) gives one by one (see _samples): the classifier
tests each value of f against its class so far, and one pass decides
identity and centrality, stopping at the first non-scalar value, where
the degree does not decide them.
Both verdicts are exact for multilinear polynomials (tuples of matrix
units suffice) and randomized otherwise, under one polynomial-vanishing
error bound (vanishing_rate, in factored form).

The sampling kernel does a whole row's work per Python-level step:

- each sampled call compiles its polynomial for its dimension and bound
  (see _evaluator), through the minimal DAG of its words (see _compile): a
  subterm that many words share is computed once per sample, so
  (X1+X2)^5 costs 8 matrix products, not 128; the root closes by the same
  rule as every node, into one step, or none for a constant, and the value
  is its rows packed once, times one factor;
- each matrix row is one int with the row's entries in fixed-width
  slots, sized from a proved bound on every entry of the value (see
  _packed_evaluator), so no value is ever wrong, only wider, and the
  result is decoded by one little-endian struct whatever the host's byte
  order (int.from_bytes only for slots wider than 8 bytes);
- EchelonModP, which keeps the independent shear conjugates, packs its
  rows the same way, in 72-bit slots up to d = 16: with residues below
  2^31 every multiplier is two CPython digits.
"""

from __future__ import annotations

import functools
import itertools
import math
import random
import struct
from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from operator import lshift, mul
from typing import Callable, Collection, Iterator, Sequence

from .linalg import (
    PRIME,
    Classification,
    DimensionMismatch,
    EchelonModP,
    MatrixQ,
    NotInSpan,
    SpanBasis,
    _cleared,
    _conjugate,
    check_dimension,
    unit_commutator,
)
from .poly import NcPoly, Word

__all__ = [
    "ArityMismatch",
    "ConstantInput",
    "SampleConfig",
    "SpanReport",
    "StopReason",
    "classify_span",
    "decompose_target",
    "evaluate",
    "find_witness_dimension",
    "herstein_closure",
    "is_central",
    "is_identity",
    "lie_ideal_check",
    "nontriviality_oracle",
    "vanishing_rate",
]


class ArityMismatch(Exception):
    """Fewer argument matrices than the polynomial has variables."""


class ConstantInput(Exception):
    """Operation requires a nonconstant polynomial."""


@dataclass(frozen=True)
class SampleConfig:
    """Deterministic sampling policy, and the one owner of its defaults.

    Every random draw flows from seed, and -seed draws the same samples:
    random.Random seeds with |seed|.  Entries are integers uniform in
    [-coeff_bound, coeff_bound].  When max_samples is None the budget
    defaults to 64 * d^2 for dimension d.  A proof of the class usually
    takes one sample and rarely more than two; the budget binds only a
    class that no sample proves, or, where the degree decides the class,
    only the rows that raise it.  No field sets the STABILITY_WINDOW stop:
    a class that 50 samples in a row did not raise.  seed must be an int,
    exactly; coeff_bound, and max_samples when set, follow check_dimension's
    rule for a dimension or a bound on one.
    """

    seed: int = 0
    coeff_bound: int = 10
    max_samples: int | None = None

    def __post_init__(self):
        if type(self.seed) is not int:
            raise TypeError(f"seed must be an int, got {self.seed!r}")
        check_dimension(self.coeff_bound, "coeff_bound")
        if self.max_samples is not None:
            check_dimension(self.max_samples, "max_samples")

    def samples_for(self, d: int) -> int:
        return self.max_samples if self.max_samples is not None else 64 * d * d


Witness = tuple[tuple[MatrixQ, ...], MatrixQ]
# The STABILITY_WINDOW stall, fixed: exact verdicts on generic matrices are
# to replace it where no sample proves the class.
_STABILITY_WINDOW = 50


class StopReason(Enum):
    """Why the sampling loop stopped (see classify_span).

    LIE_IDEAL stops on a proof that the span of f's values is the whole
    canonical space of the samples; STABILITY_WINDOW (a class that 50
    samples in a row did not raise) and BUDGET_EXHAUSTED stop on a sampled
    verdict: a proved lower bound on the span, whose upper bound is sampled.
    Where the degree decides the class (see _degree_decides), they say
    instead that the rows stopped short of it, with fewer witnesses than
    its rank.
    """

    LIE_IDEAL = "LIE_IDEAL"
    STABILITY_WINDOW = "STABILITY_WINDOW"
    BUDGET_EXHAUSTED = "BUDGET_EXHAUSTED"


Row = tuple[tuple[int, ...], tuple[int, ...]]
Label = tuple[int, int, int, int] | None


@dataclass(frozen=True)
class SpanReport:
    """The class of the span of a polynomial's values on M_d, and its samples.

    samples_used, stop_reason and rows (entries, L * f(t)), the one or two
    samples that raised the class, come from the sampling loop run by
    classify_span, for L f's own denominator, poly.integer_form()[0] (see
    classify_span).  grown holds the rows' shear closure, whose values span
    the class unless a budget cut the rows short of it, and witness k is
    t_k and grown[k][1] / L.  Beside it, _closure keeps each grown row's
    label: None for a seed, and (parent, i, j, s) for the conjugate of
    grown[parent] by I + s * E_ij (see _walk); decompose_target reads
    _certificate (see _Certificate).  The report holds no basis: the class
    answers rank and membership in closed form; the rest is built when read.
    """

    poly: NcPoly
    dim: int
    classification: Classification
    samples_used: int
    stop_reason: StopReason
    config: SampleConfig
    sum_of_commutators: bool
    rows: tuple[Row, ...]

    @functools.cached_property
    def basis(self) -> SpanBasis:
        """The class's reduced basis (see Classification.basis), built once, when first read."""
        return SpanBasis.canonical(self.dim, self.classification)

    @property
    def rank(self) -> int:
        """The rank of the span, the class's in closed form."""
        return self.classification.rank(self.dim)

    @functools.cached_property
    def _closure(self) -> tuple[tuple[Row, ...], tuple[Label, ...]]:
        """The shear closure of the rows and their labels (see _shear_closure), built once, when first read."""
        return _shear_closure(self.rows, self.dim, self.rank)

    @property
    def grown(self) -> tuple[Row, ...]:
        """The rows of the shear closure."""
        return self._closure[0]

    @functools.cached_property
    def _certificate(self) -> _Certificate:
        """The rows' shear certificate (see _Certificate), built once, when first read."""
        return _Certificate(self.rows, self.dim)

    @functools.cached_property
    def witnesses(self) -> tuple[Witness, ...]:
        """(t_k, f(t_k)) for each grown row, built once, when first read."""
        d, scale = self.dim, self.poly.integer_form()[0]
        return tuple((_matrices(entries, d), _unscaled(vec, d, scale)) for entries, vec in self.grown)


# struct codes of the signed slot widths that have one.
_SIGNED_SLOTS = {1: "b", 2: "h", 4: "i", 8: "q"}


def _compile(terms: Collection[tuple[Word, int]], d: int) -> tuple:
    """((g, v), steps): sum c * w over terms as a program on packed rows,
    compiled through the minimal DAG of its words.

    Per sample, rows holds the d rows of each letter's argument and no
    other row: X_x's first is row (x - 1) * d.  vals[0] is I, and steps[i]
    appends vals[i + 1]: a step (k, v, None) is rows k..k+d-1 times
    vals[v], and a step (c, None, parts) is c * I plus g * (rows k..) *
    vals[v] for each (g, k, v) in parts.  The sum is g * vals[v].

    A node of the DAG stands for the polynomial c + sum x * child over its
    (letter x, child) edges: a path from the root spells a word, and c at
    its end is that word's coefficient.  Nodes that stand for the same
    polynomial are one node, which makes it the minimal acyclic automaton
    of the weighted words (Daciuk, Mihov, Watson and Watson, Computational
    Linguistics 26(1), 2000).  It is built incrementally from the sorted
    words: only the nodes on the last word's path are open, and once a
    later word leaves a node, the node is closed into the step that
    computes it, or found among the steps already made.  So memory is the
    program plus one word.

    Every node, the root too, closes by one rule into g * vals[v]: a leaf
    is c * I, each edge is one product (into a leaf child, it only packs
    rows), and each step is divided by the gcd of its scalars, so that
    values equal up to an integer factor share it, and a chain of single
    letters carries its coefficient to the root, as when each word was
    multiplied out.  So a constant is (c, 0) with no step, and a root of
    several parts is one step.
    """
    steps: list[tuple] = []
    index: dict[tuple, int] = {}

    def step(key: tuple) -> int:
        v = index.get(key)
        if v is None:
            steps.append(key)
            v = index[key] = len(steps)
        return v

    def node(c: int, edges: list) -> tuple[int, int]:
        """(g, v) with g * vals[v] the value of the node c + sum x * child."""
        if not edges:
            return c, 0
        if len(edges) == 1 and not c:
            (x, (g, v)), = edges
            return g, step(((x - 1) * d, v, None))
        parts = [(g, (x - 1) * d, v) for x, (g, v) in edges]
        g = math.gcd(c, *(h for h, _, _ in parts))
        g = -g if (c or parts[0][0]) < 0 else g
        if g != 1:
            c, parts = c // g, [(h // g, k, v) for h, k, v in parts]
        return g, step((c, None, tuple(parts)))

    def close(depth: int) -> None:
        """Close the open nodes below depth into (letter, (g, v)) edges of their parents."""
        for i in range(len(path) - 1, depth, -1):
            value = node(*path.pop())
            path[-1][1].append((prev[i - 1], value))

    # The open nodes as [c, edges], root first: the node at depth i has an
    # edge prev[i] to the next one, added when that one is closed.
    path: list[list] = [[0, []]]
    prev: Word = ()
    for word, c in sorted(terms):
        common = 0
        for x, y in zip(prev, word):
            if x != y:
                break
            common += 1
        close(common)
        path += [[0, []] for _ in word[common:]]
        path[-1][0] = c
        prev = word
    close(0)
    return node(*path[0]), steps


def _packed_evaluator(terms: Collection[tuple[Word, int]], d: int, bound: int) -> Callable[[Sequence[int]], list[int]]:
    """ev(entries) = sum c * w(args) over (w, c) in terms, row-major.

    entries are the integer entries of args, row-major, X1 first; none may
    exceed bound in absolute value.  The terms are compiled once (see
    _compile) into a program that computes, children first, each DAG
    node's V = c * I + sum of A_x * V(child) over its (letter x, child)
    edges, one product per edge.  It runs on packed rows: a row is one int
    holding its d entries in fixed-width slots, so a product A * P is d
    C-level sums of A's entries times P's rows.  The root's d rows are
    packed into one int of d^2 slots by shifts, row i by i * d slots, times
    its factor, and decoded once, by one little-endian struct for 1-, 2-,
    4- and 8-byte slots, else slot by slot.  The slot layout is built here,
    once per compile.

    Why merged nodes stay exact: packing is a ring map Z[t] -> Z,
    t -> 2^s, and merging is the distributive law, so every step is exact
    integer arithmetic whatever its slots hold in between, and the root is
    the packing of f(args).  Decoding needs only each final entry to fit
    its slot.  A final entry does not depend on how f was evaluated, and
    it is at most sum |c| * d^(|w| - 1) * bound^|w|, so the slots are sized
    from that bound, as when each word was multiplied out on its own.
    """
    n = d * d
    top = sum(abs(c) * d ** max(len(w) - 1, 0) * bound ** len(w) for w, c in terms)
    # Bytes per slot: a power of two with room for the sign.
    width = 1 << ((top.bit_length() + 8) // 8 - 1).bit_length()
    bits = 8 * width
    # cols[c] is 1 in slot c of a packed row, so cols is I's rows.  Adding
    # offset makes every slot nonnegative without borrows, and xor-ing it
    # back flips each slot's top bit, leaving its two's-complement value.
    cols = [1 << (bits * c) for c in range(d)]
    offset = int.from_bytes((b"\0" * (width - 1) + b"\x80") * n, "little")
    code = _SIGNED_SLOTS.get(width)
    unpack = struct.Struct(f"<{n}{code}").unpack if code else None
    (factor, root), steps = _compile(terms, d)
    row_shifts = range(0, n * bits, d * bits)

    def ev(entries: Sequence[int]) -> list[int]:
        rows = list(zip(*[iter(entries)] * d))
        vals = [cols]
        for k, v, parts in steps:
            if parts is None:
                p = vals[v]
                vals.append([sum(map(mul, r, p)) for r in rows[k : k + d]])
                continue
            acc = [k * x for x in cols]  # k is the step's c here
            for g, j, u in parts:
                p = vals[u]
                acc = [a + g * sum(map(mul, r, p)) for a, r in zip(acc, rows[j : j + d])]
            vals.append(acc)
        total = factor * sum(map(lshift, vals[root], row_shifts))
        data = ((total + offset) ^ offset).to_bytes(n * width, "little")
        if unpack:
            return list(unpack(data))
        return [int.from_bytes(data[k : k + width], "little", signed=True) for k in range(0, n * width, width)]

    return ev


def _evaluator(f: NcPoly, d: int, bound: int) -> Callable[[Sequence[int]], list[int]]:
    """ev(entries) = L * f(args) for entries within bound (see
    _packed_evaluator), where L is f's denominator (see classify_span): a
    new build on every call.  Every sampled verdict builds one first, so it
    is where d is checked (see check_dimension)."""
    check_dimension(d)
    return _packed_evaluator(f.integer_form()[1].items(), d, bound)


def _unscaled(vec: list[int], d: int, scale: int) -> MatrixQ:
    """The matrix with row-major entries vec divided by scale, exactly."""
    if scale != 1:
        vec = [Fraction(x, scale) for x in vec]
    return _matrices(vec, d)[0]


def _matrices(entries: Sequence[int], d: int) -> tuple[MatrixQ, ...]:
    """The d x d matrices whose row-major entries follow each other in
    entries: consecutive d-tuples of rows of consecutive d-tuples of entries."""
    rows = zip(*[iter(entries)] * d)
    return tuple(map(MatrixQ, zip(*[rows] * d)))


def evaluate(f: NcPoly, args: Sequence[MatrixQ], dim: int | None = None) -> MatrixQ:
    """Evaluate f at a tuple of matrices (args[i-1] is the value of X_i).

    The constant term contributes a scalar multiple of the identity.  For a
    polynomial without variables the target dimension must be passed
    explicitly since it cannot be inferred.  With L the lcm of f's
    coefficient denominators (f's own denominator, see classify_span) and D
    that of the arguments' entries, args = A / D for integer A, and f(args)
    is sum L * c * D^(m - |w|) * w(A) divided by L * D^m, m the degree of
    f: one integer evaluation.
    """
    args = tuple(args)
    if dim is not None:
        check_dimension(dim)
    if len(args) < f.nvars:
        raise ArityMismatch(f"polynomial uses X1..X{f.nvars} but only {len(args)} matrices given")
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
    used = [x for a in args[: f.nvars] for row in a.rows for x in row]
    den, (entries,) = _cleared([used])
    deg = f.degree() or 0
    f_den, num = f.integer_form()
    terms = [(w, n * den ** (deg - len(w))) for w, n in num.items()]
    ev = _packed_evaluator(terms, d, max(map(abs, entries), default=0))
    return _unscaled(ev(entries), d, f_den * den**deg)


def _samples(f: NcPoly, d: int, cfg: SampleConfig) -> Iterator[list[int]]:
    """The seeded argument tuples that every sampled verdict reads and
    evaluates with an _evaluator of f: samples_for(d) lists of the row-major
    entries of random integer matrices, X1's, then X2's, ...

    The entries are the values randint(-B, B) gives one by one, by its own
    rule (Random._randbelow_with_getrandbits, the same on Python 3.10-3.13):
    r - B for the first r = getrandbits(k) below n = 2B + 1, k the bit
    length of n.  Read lazily, rng reads exactly the words randint would.
    """
    bound = cfg.coeff_bound
    n = 2 * bound + 1
    words = map(random.Random(cfg.seed).getrandbits, itertools.repeat(n.bit_length()))
    values = (r - bound for r in words if r < n)
    for _ in range(cfg.samples_for(d)):
        yield list(itertools.islice(values, f.nvars * d * d))


def _values(f: NcPoly, d: int, cfg: SampleConfig) -> Iterator[list[int]]:
    """The values L * f(t), row-major, that decide identity and centrality.

    Any f: the seeded samples.  Multilinear f: the first sample (one value
    can settle both verdicts), then every tuple t of matrix units, whose
    values span f's values by linearity.  Unit entries are 0 and 1, within
    coeff_bound, so the samples' evaluator serves both.  The tuples are
    walked lazily, by the index of each unit's 1: no d^4-entry table.
    """
    ev = _evaluator(f, d, cfg.coeff_bound)
    values = map(ev, _samples(f, d, cfg))
    if not f.is_multilinear():
        yield from values
        return
    yield next(values)
    n = d * d
    for ones in itertools.product(range(n), repeat=f.nvars):
        entries = [0] * (n * f.nvars)
        for v, i in enumerate(ones):
            entries[v * n + i] = 1
        yield ev(entries)


def _degree_decides(f: NcPoly, d: int) -> bool:
    """Whether d >= 2 and 1 <= deg f < 2d, d checked first (see
    check_dimension).  There the degree decides f on M_d: f is neither an
    identity nor central, and the span V of its values is
    Classification.bound: sl_d if f is a sum of commutators, M_d otherwise.

    V holds sl_d.  Over Q the values of each multihomogeneous component of
    f lie in V (scale the variables), and so do those of its full
    linearization g (Rowen, 1980), multilinear of the component's degree
    k.  Take k >= 1, so k < 2d.  g sends matrix units in staircase order
    E_11, E_12, E_22, E_23, ... along a word with coefficient c != 0 to
    c * E_1j, j = k//2 + 1 <= d, every other order of them giving 0: the
    easy half of Amitsur-Levitzki (1950).  c * E_1j is not scalar at d >=
    2, so V, a Lie ideal (see classify_span), holds sl_d by Herstein, and f is
    neither an identity nor central.

    V lies in sl_d iff f is a sum of commutators.  If f is one, tr[a, b] =
    0.  Conversely, let every value of f have trace 0.  A constant
    component c has the value c * I, of trace d * c, so c = 0.  For k >= 1,
    rotate each word of g to end in x_k: tr g = tr(h * x_k), h multilinear
    of degree k - 1, with one word per cyclic class of g's words, whose
    coefficient is the class's sum.  The trace form is nondegenerate, so h
    vanishes on M_d, and k - 1 < 2d, so h = 0 by Amitsur-Levitzki: each
    cyclic class of g sums to 0.  Restitution, which gives back the
    component from g, maps cyclic classes into cyclic classes, so each of
    the component's sums to 0, and so does each of f's (see
    NcPoly.commutator_obstruction).  Brešar and Klep (2009) prove this for
    every degree, up to an identity of M_d.
    """
    return check_dimension(d) >= 2 and 1 <= (f.degree() or 0) < 2 * d


def is_identity(f: NcPoly, d: int, cfg: SampleConfig = SampleConfig()) -> bool:
    """Decide whether every value of f on M_d is zero.

    False with no evaluation where the degree decides it (see
    _degree_decides).  Exact for multilinear f (see _values).  Otherwise
    randomized over integer matrices: any nonzero value certifies False,
    while an all-zero run returns True with error probability at most p **
    n for (p, n) = vanishing_rate().  Both evaluate L * f, which vanishes
    where f does.
    """
    return not _degree_decides(f, d) and not any(map(any, _values(f, d, cfg)))


def vanishing_rate(f: NcPoly, d: int, cfg: SampleConfig = SampleConfig()) -> tuple[Fraction, int]:
    """(p, n): a randomized identity or central verdict errs with probability <= p ** n.

    Standard polynomial-vanishing estimate: a nonzero polynomial of total
    degree k vanishes at a uniform integer point of [-B, B] with
    probability at most p = k / (2B + 1), independently in each of the n
    samples; p is capped at 1.  It bounds both verdicts, which read f's
    own samples: a wrong one misses a nonzero entry, off-diagonal entry or
    diagonal difference of f, each of degree at most deg f.  The tests
    are exact, p = 0, when f is multilinear, the rule by which _values
    walks units (zero and constants are multilinear).  The bound stays
    factored because p ** n can have thousands of digits.
    """
    n = cfg.samples_for(check_dimension(d))
    if f.is_multilinear():
        return Fraction(0), n
    return min(Fraction(f.degree(), 2 * cfg.coeff_bound + 1), Fraction(1)), n


def _verdicts(f: NcPoly, d: int, cfg: SampleConfig) -> tuple[bool, bool]:
    """(identity, central) for f on M_d: neither where the degree decides
    (see _degree_decides), else in one pass over _values, neither at a
    non-scalar value, else identity if all are zero and central if not."""
    if _degree_decides(f, d):
        return False, False
    zero = True
    for vec in _values(f, d, cfg):
        if not Classification.SCALARS.contains(vec, d):
            return False, False
        zero = zero and not any(vec)
    return zero, not zero


def is_central(f: NcPoly, d: int, cfg: SampleConfig = SampleConfig()) -> bool:
    """Decide whether f's values lie in the center of M_d without all vanishing."""
    return _verdicts(f, d, cfg)[1]


def nontriviality_oracle(d: int, cfg: SampleConfig = SampleConfig()) -> Callable[[NcPoly], bool]:
    """Oracle for the reduction pipeline: neither identity nor central on M_d."""
    return lambda f: not any(_verdicts(f, d, cfg))


def _class_of(f: NcPoly, d: int, cfg: SampleConfig) -> tuple[Classification, bool]:
    """f's class on M_d and whether f is a sum of commutators: where the
    degree decides the class (_degree_decides), Classification.bound, with
    no evaluator and no sample, else by classify_span."""
    if _degree_decides(f, d):
        commutator_sum = f.is_sum_of_commutators()
        return Classification.bound(d, commutator_sum), commutator_sum
    report = classify_span(f, d, cfg)
    return report.classification, report.sum_of_commutators


def classify_span(f: NcPoly, d: int, cfg: SampleConfig = SampleConfig()) -> SpanReport:
    """Sample values of f on M_d, in this call, and classify their linear span.

    The loop's class is the least canonical space that holds every sample:
    ZERO, then SCALARS, TRACE_ZERO or FULL, and at d = 1, where the
    scalars are all of M_1, FULL at the first nonzero value.  Each sample
    is tested against it exactly, and one that lies outside raises it.

    The class is a proved lower bound on the span V of f's values: the
    paper's argument.  f(P^-1 t P) = P^-1 f(t) P for every invertible P,
    so V is closed under conjugation, and so it is a Lie ideal of M_d (see
    _shear_closure).  A Lie ideal that holds one non-scalar matrix contains
    the trace-zero matrices sl_d (Herstein, Topics in Ring Theory, 1969),
    and a nonzero scalar value spans the scalars, so V holds the class.
    The class is V once it is FULL, or Classification.bound, which holds
    every value of f: for a sum of commutators, TRACE_ZERO at d >= 2 and
    ZERO at d = 1.  Sampling stops there (LIE_IDEAL).  Otherwise only the
    upper bound is sampled, and sampling stops once 50 samples in a row
    did not raise the class (STABILITY_WINDOW), or when the budget runs out.

    Where the degree decides the class (see _degree_decides), the report
    names the theorem's, Classification.bound, and the loop only searches
    for rows: a budget that cuts it short leaves the class, and fewer
    witnesses than its rank.

    The report keeps the samples that raised the loop's class as integer
    rows (entries, L * f(t)), one or two; no basis, witness or Fraction is
    built here.  L, the lcm of the denominators of f's coefficients, is
    f's own denominator D, and L * f has f's numerators n_w as its terms:
    f keeps gcd(D, n_1, ..., n_k) = 1, so the lcm of the denominators of
    the n_w / D in lowest terms is D / gcd(D, n_1, ..., n_k) = D.
    """
    ev = _evaluator(f, d, cfg.coeff_bound)
    commutator_sum = f.is_sum_of_commutators()
    proved = {Classification.FULL, Classification.bound(d, commutator_sum)}
    cls = Classification.ZERO
    rows: list[Row] = []
    stall = samples_used = 0
    stop_reason = StopReason.BUDGET_EXHAUSTED
    for entries in _samples(f, d, cfg):
        vec = ev(entries)
        samples_used += 1
        if cls.contains(vec, d):
            stall += 1
        else:
            cls = _raised(cls, vec, d)
            rows.append((tuple(entries), tuple(vec)))
            stall = 0
        if cls in proved:
            stop_reason = StopReason.LIE_IDEAL
            break
        if stall >= _STABILITY_WINDOW:
            stop_reason = StopReason.STABILITY_WINDOW
            break
    if _degree_decides(f, d):
        cls = Classification.bound(d, commutator_sum)
    return SpanReport(f, d, cls, samples_used, stop_reason, cfg, commutator_sum, tuple(rows))


def _raised(cls: Classification, vec: Sequence[int], d: int) -> Classification:
    """The least class holding cls's space and vec: cls if it holds vec, else
    from ZERO at d > 1 SCALARS or TRACE_ZERO if one holds vec, else FULL."""
    if cls.contains(vec, d):
        return cls
    least = (Classification.SCALARS, Classification.TRACE_ZERO) if cls is Classification.ZERO and d > 1 else ()
    return next((c for c in least if c.contains(vec, d)), Classification.FULL)


def _walk(
    seeds: Sequence[Row], d: int, rank: int,
    grows: Callable[[Sequence[int]], bool], unit: Callable[[int, int], bool],
) -> tuple[list[Row], list[Label]]:
    """Rows kept breadth-first: each seed, then each shear conjugate of each
    kept row in turn, kept when it grows the span, until rank are; and each
    kept row's label, None for a seed and (parent, i, j, s) for the
    conjugate of kept row number parent by I + s * E_ij.

    The conjugate of (entries, L * f(t)) by T = I + s * E_ij, s = +-1, is
    the tuple T^-1 t T, whose value is T^-1 L f(t) T: _conjugate on a copy
    of the stack [value | X1 | X2 ...].  grows decides c+ on its value, and
    unit decides c- with no value built: the pair changes basis to (c+, c+
    + c- - 2p), where c+ + c- - 2p = -2 * p_ji * E_ij for the parent value
    p (see _conjugate).  p lies in the span of what was kept, and so does
    c+ once grows has tested it, kept or not, so c- grows exactly when
    -2 * p_ji * E_ij does: unit(i * d + j, -2 * p_ji).  c- is built only
    when kept.
    """
    n = d * d
    shears = [(i, j, s) for i in range(d) for j in range(d) if i != j for s in (1, -1)]
    kept = []
    for row in seeds:
        if len(kept) < rank and grows(row[1]):
            kept.append(row)
    labels: list[Label] = [None] * len(kept)
    for parent, (entries, vec) in enumerate(kept):  # kept grows as it is walked: breadth first
        if len(kept) == rank:
            break
        stack = [*vec, *entries]
        for i, j, s in shears:
            if s < 0 and not unit(i * d + j, -2 * vec[j * d + i]):
                continue
            c = stack.copy()
            _conjugate(c, d, i, j, s)
            if s < 0 or grows(c[:n]):
                kept.append((tuple(c[n:]), tuple(c[:n])))
                labels.append((parent, i, j, s))
                if len(kept) == rank:
                    break
    return kept, labels


def _shear_closure(seeds: Sequence[Row], d: int, rank: int) -> tuple[tuple[Row, ...], tuple[Label, ...]]:
    """rank rows (entries, L * f(t)) whose values span the class of rank
    rank, grown from the rows that raised it by shear conjugation, and
    their labels (see _walk): no evaluation of f, an O(d^2) integer update
    per candidate.

    Why it ends at the rank: let W be the span of the kept values once
    every kept row's conjugates lie in it.  For T = I + s * E_ij the
    conjugate of v is v + s[v, E_ij] - s^2 E_ij v E_ij, and W holds it at
    s = 0, 1 and -1, so it holds the s^1 coefficient [v, E_ij] for i != j.
    Those E_ij generate sl_d as a Lie algebra, and scalars bracket to 0,
    so W is a Lie ideal of M_d (Jacobi identity, see _chevalley_units),
    and it holds the seeds.  So W holds the least canonical space that
    holds the seeds, which is the class: a nonzero scalar seed spans the
    scalars, and a non-scalar one puts sl_d in W by Herstein.  Every kept
    value is a conjugate of a seed's, and each canonical space is closed
    under conjugation, so W lies inside the class.  So W is the class, and
    the walk reaches its rank, whether the class is proved or sampled.

    Growth is tested mod p (see EchelonModP) on psi(v) = (d * v - tr(v) *
    I) / h + tr(v) / g * I, h and g the largest powers of p that divide
    every seed's d * v - tr(v) * I and every nonzero seed trace.  psi is
    invertible over Q and commutes with conjugation, which keeps traces
    and, by unimodular T, the p-content of trace-free parts; so psi is
    integral on every candidate, and its growth mod p is one over Q.  The
    argument above holds over F_p (2 is invertible, and for p > d the Lie
    ideals of gl_d(F_p) are the four canonical spaces), and after h and g
    some seed is non-scalar mod p, or has a trace nonzero mod p, whenever
    one is over Q: the seeds' class mod p is their class, and the walk
    reaches its rank.  Whole values divided by their p-content would not
    do: the two parts of [X1,X2] + p carry different powers of p.  When h
    = g = 1, psi is d times the identity, which changes no decision mod p.
    The pair's unit c * E_ij (see _walk) has trace 0, so psi maps it to
    d * c / h * E_ij, an integer since h divides d * p_ji, and the walk
    adjoins it as EchelonModP's unit e_ij, with no reduction.
    """

    def p_part(xs: list[int]) -> int:
        q, g = 1, math.gcd(*xs)
        while g and g % (q * PRIME) == 0:
            q *= PRIME
        return q

    traces = [sum(vec[:: d + 1]) for _, vec in seeds]
    h = p_part([d * x - t * (k % (d + 1) == 0) for (_, vec), t in zip(seeds, traces) for k, x in enumerate(vec)])
    g = p_part(traces)
    echelon = EchelonModP(d * d)
    grows, unit = echelon.insert, echelon.insert_unit
    if h != 1 or g != 1:

        def grows(vec: Sequence[int]) -> bool:
            t = sum(vec[:: d + 1])
            psi = [d * x // h for x in vec]
            psi[:: d + 1] = [(d * x - t) // h + t // g for x in vec[:: d + 1]]
            return echelon.insert(psi)

        def unit(k: int, c: int) -> bool:
            return echelon.insert_unit(k, d * c // h)

    return tuple(map(tuple, _walk(seeds, d, rank, grows, unit)))


def find_witness_dimension(f: NcPoly, d_max: int, cfg: SampleConfig = SampleConfig()) -> int | None:
    """Smallest d <= d_max where f is neither an identity nor central.

    Such a d exists for every nonconstant polynomial once d_max is large
    enough (no nonzero polynomial is an identity of every M_d); None means
    the search bound was too small.
    """
    if f.is_constant():
        raise ConstantInput("witness dimensions are defined for nonconstant input")
    return next((d for d, *verdicts in _dimensions(f, d_max, cfg) if not any(verdicts)), None)


def _dimensions(f: NcPoly, d_max: int, cfg: SampleConfig) -> Iterator[tuple[int, bool, bool]]:
    """(d, identity, central) for f on M_d (see _verdicts), d = 1, 2, ...,
    d_max (checked first), stopping after the first d where both are False."""
    for d in range(1, check_dimension(d_max, "d_max") + 1):
        identity, central = _verdicts(f, d, cfg)
        yield d, identity, central
        if not (identity or central):
            return


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
    rank * 2(d - 1) membership tests: each bracket is read off the row by
    unit_commutator and tested by SpanBasis.contains.  Every canonical
    space passes, so cli._LIE_IDEAL is true in closed form: [0, b] = 0,
    [c*I, b] = 0, and every [a, b] has trace tr(ab) - tr(ba) = 0, so it
    lies in sl_d, inside TRACE_ZERO and FULL.
    """
    units = _chevalley_units(basis.dim)
    rows = (MatrixQ.unflatten(row, basis.dim) for row in basis.rows)
    return all(basis.contains(unit_commutator(r, j, k)) for r in rows for j, k in units)


def herstein_closure(seed: MatrixQ, d: int) -> SpanBasis:
    """Smallest subspace containing seed that is a Lie ideal and a subalgebra.

    In closed form: ZERO for a zero seed, SCALARS for a scalar one, FULL
    otherwise.  The closure contains the Lie ideal of M_d generated by the
    seed, which is 0, the scalars, sl_d or M_d (Herstein, 1969): a
    noncentral seed's contains sl_d.  For d >= 2 a subalgebra that contains
    sl_d contains E_11 = E_12 * E_21, so it is M_d; the scalars are already
    a subalgebra.
    """
    if seed.dim != check_dimension(d):
        raise DimensionMismatch(f"seed is {seed.dim}x{seed.dim}, expected {d}x{d}")
    vec, least = seed.flatten(), (Classification.ZERO, Classification.SCALARS)
    return SpanBasis.canonical(d, next((c for c in least if c.contains(vec, d)), Classification.FULL))


Decomposition = list[tuple[Fraction, tuple[MatrixQ, ...]]]


class _Certificate:
    """Integer stacks [L * f(u) | u] whose values span the rows' own class,
    cls, by fixed combinations, built from the rows with no evaluation of f:
    the base w, the first non-scalar row, conjugated by I + E_ab first if
    it is diagonal (gaining (w_aa - w_bb) * E_ab); the trace row, the first
    nonzero scalar row or else row with nonzero trace; and for each k != l,
    row-major, the conjugates c+- by I +- E_kl of a center c with c_lk != 0,
    the first stack so far with one, else a new one, P^-1 w P for a
    permutation matrix P moving a nonzero off-diagonal entry of w to (l, k).

    Each value is L * f at its stack's inputs, and by _conjugate
    2c - c+ - c- = 2 * c_lk * E_kl and c+ - c- = 2 * [c, E_kl], whose
    diagonal is 2 * c_lk * (E_ll - E_kk): read takes any target in cls off
    2d(d - 1) + 2 stacks, plus the permuted copies.  A conjugate by
    I + E_k'k has w_lk' at (l, k), so only a base with few nonzero
    entries, such as a shifted diagonal one, needs a copy.
    """

    def __init__(self, rows: Sequence[Row], d: int):
        n, scalar = d * d, functools.partial(Classification.SCALARS.contains, d=d)
        self.cls = functools.reduce(lambda cls, row: _raised(cls, row[1], d), rows, Classification.ZERO)
        base = next((r for r in rows if not scalar(r[1])), None)
        traced = min((r for r in rows if sum(r[1][:: d + 1])), key=lambda r: not scalar(r[1]), default=None)
        kept = list(dict.fromkeys(r for r in (base, traced) if r))
        self.dim, self.stacks = d, [[*vec, *entries] for entries, vec in kept]
        self.trace = kept.index(traced) if traced else None
        # pairs: (k, l) -> (center, index of c+ with c- after it, c_lk); _inputs: j -> u
        self.pairs, self._inputs = {}, {}
        if not base:
            return
        w = self.stacks[0]
        if not any(w[k] for k in range(n) if k % (d + 1)):
            _conjugate(w, d, *next((a, b) for a in range(d) for b in range(d) if w[a * (d + 1)] != w[b * (d + 1)]), 1)
        p, q = divmod(next(k for k in range(n) if k % (d + 1) and w[k]), d)
        for k, l in itertools.permutations(range(d), 2):
            c = next((c for c, stack in enumerate(self.stacks) if stack[l * d + k]), len(self.stacks))
            if c == len(self.stacks):
                rest = iter([x for x in range(d) if x not in (p, q)])
                perm = [p if a == l else q if a == k else next(rest) for a in range(d)]  # l -> p, k -> q
                order = [perm[a] * d + perm[b] for a in range(d) for b in range(d)]
                self.stacks.append([w[o + i] for o in range(0, len(w), n) for i in order])
            self.pairs[k, l] = (c, len(self.stacks), self.stacks[c][l * d + k])
            for s in (1, -1):
                self.stacks.append(self.stacks[c].copy())
                _conjugate(self.stacks[-1], d, k, l, s)

    def inputs(self, j: int) -> tuple[MatrixQ, ...]:
        """The input tuple u of stack j, built once, when first read."""
        return self._inputs.get(j) or self._inputs.setdefault(j, _matrices(self.stacks[j][self.dim**2 :], self.dim))

    def read(self, t: Sequence[int]) -> tuple[list[int], int]:
        """Integers (lam, den), sum lam[j] * value_j = den * t, for integer t in
        cls: the trace row z takes tr t / tr z, then r_ll / (2 * c_l0) times
        c+ - c- of pair (0, l) each r_ll, and r_kl / (2 * c_lk) times
        2c - c+ - c- of pair (k, l) each r_kl left, r doubled, each step
        scaled by the lcm of the c_lk it divides by."""
        d, lam, den, r = self.dim, [0] * len(self.stacks), 1, list(t)
        tr = sum(t[:: d + 1])
        if tr:
            z = self.stacks[self.trace]
            den, lam[self.trace] = sum(z[: d * d : d + 1]), tr
            r = [den * x - tr * y for x, y in zip(t, z)]
        diagonal = [(l, self.pairs[0, l]) for l in range(1, d) if r[l * (d + 1)]]
        m = 2 * math.lcm(*(c_lk for _, (_, _, c_lk) in diagonal))
        r, lam, den = [m * x for x in r], [m * x for x in lam], m * den
        for l, (c, plus, c_lk) in diagonal:
            nu, w = r[l * (d + 1)] // (2 * c_lk), self.stacks[c]  # r less nu * (c+ - c-) = 2 * nu * [w, E_0l]
            lam[plus], lam[plus + 1] = lam[plus] + nu, lam[plus + 1] - nu
            r[l : d * d : d] = [x - 2 * nu * y for x, y in zip(r[l::d], w[: d * d : d])]
            r[:d] = [x + 2 * nu * y for x, y in zip(r, w[l * d : l * d + d])]
        off = [(r[k * d + l] // 2, pair) for (k, l), pair in self.pairs.items() if r[k * d + l]]  # r is even
        m = math.lcm(*(c_lk for _, (_, _, c_lk) in off))
        lam, den = [m * x for x in lam], m * den
        for x, (c, plus, c_lk) in off:
            mu = x * (m // c_lk)
            lam[c], lam[plus], lam[plus + 1] = lam[c] + 2 * mu, lam[plus] - mu, lam[plus + 1] - mu
        return lam, den


def decompose_target(report: SpanReport, target: MatrixQ) -> Decomposition:
    """Express target as an exact combination sum lam_j * f(t_j).

    NotInSpan first for a target outside the report's class, by its
    closed-form test; then for f = c * X_i the preimage is written down.
    Else the t_j are inputs of the report's certificate (see _Certificate),
    and a budget that cut the rows short of a class the degree decides
    raises NotInSpan, naming it, for a target outside the rows' class.  lam
    is read off in integers, times L, one Fraction per term: at most
    2d(d - 1) + 2 but for permuted copies, fewer on a sparse target.
    """
    d = report.dim
    if target.dim != d:
        raise DimensionMismatch(f"target is {target.dim}x{target.dim}, expected {d}")
    f, L, vec = report.poly, report.poly.integer_form()[0], target.flatten()
    if not report.classification.contains(vec, d):
        raise NotInSpan("target is outside the sampled span")
    if len(f) == 1 and len(word := next(iter(f.terms))) == 1:
        scaled = target.scale(Fraction(1) / f.terms[word])
        return [(Fraction(1), tuple(scaled if v == word[0] else MatrixQ.zero(d) for v in range(1, f.nvars + 1)))]
    certificate = report._certificate
    if not certificate.cls.contains(vec, d):
        raise NotInSpan(
            f"the sampling budget ran out ({report.stop_reason.value} after {report.samples_used} samples):"
            f" rows of class {certificate.cls.value} do not hold the target, in {report.classification.value}"
        )
    scale, (t,) = _cleared([vec])
    lam, den = certificate.read(t)
    return [(Fraction(L * x, den * scale), certificate.inputs(j)) for j, x in enumerate(lam) if x]

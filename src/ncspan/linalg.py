"""Exact rational matrices and row-reduced span bases.

Matrices are square with entries kept as exact numbers: Python ints where
possible (the common case for sampled matrices, and much faster) and
Fraction wherever division has occurred, and the constructor refuses
anything else.  Both are exact rationals and mix freely in arithmetic and
comparisons.

A SpanBasis holds a subspace of M_d flattened row-major to length-d^2
vectors, maintained in reduced row echelon form; each row's pivot is its
first nonzero entry.  Echelon canonicality makes subspace equality a plain
row-list comparison and membership one dense reduction by the rows, each
row's coefficient read off at its pivot and the remainder checked at the
free columns.  The four canonical subspaces have their reduced bases
written down in closed form (Classification.basis).  A basis of given
matrices is a fold of insert, starting from SpanBasis(d).

SpanBasis.insert and express_in_terms run through one routine,
fraction_free_rref, over integer rows; vandermonde_extract does not (it
reads the Lagrange basis in integers).  The routine runs forward Bareiss
elimination below each pivot, then builds det * RREF by exact back
substitution from the last pivot row up; every quotient is a minor of the
input, so no division leaves a remainder, and express_in_terms returns its
solution in those integers over det: no Fraction is formed.  Rows reach it
through _cleared, which clears their denominators by one lcm; all-int rows
(sampled values, grown rows, integer targets) enter as they stand, copied.

EchelonModP tracks only the rank of a stream of integer vectors, modulo the
fixed Mersenne prime p = 2^31 - 1, with each row packed into one int and
unit vectors kept as a mask of slots.  That rank is a lower bound on the
rank over Q, so a growth it reports is exact; the span classifier uses it
only to keep independent shear conjugates as the witnesses of a class
(see span._shear_closure), on values first divided by the powers of p
that their trace-free parts and traces share, so that the walk mod p
reaches the class's rank.
"""

from __future__ import annotations

import math
import struct
from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from itertools import chain
from operator import mul
from typing import Iterable, Sequence, Union

__all__ = [
    "Classification",
    "DimensionMismatch",
    "DuplicateNodes",
    "MatrixQ",
    "NonzeroTrace",
    "NotInSpan",
    "SpanBasis",
    "commutator",
    "commutator_decomposition",
    "unit_commutator",
    "vandermonde_extract",
]

Num = Union[int, Fraction]
Vector = tuple[Num, ...]


class DimensionMismatch(Exception):
    """Operands have incompatible dimensions."""


class DuplicateNodes(Exception):
    """Interpolation nodes are not pairwise distinct."""


class NonzeroTrace(Exception):
    """Operation requires a trace-zero matrix."""


class NotInSpan(Exception):
    """Target matrix does not lie in the given span."""


def check_dimension(d: int, name: str = "dimension") -> int:
    """d, checked by the library's one rule for a dimension or a bound on
    one: TypeError unless it is an int (a bool is not), then ValueError
    below 1."""
    if type(d) is not int:
        raise TypeError(f"{name} {d!r} is a {type(d).__name__}, not an int")
    if d < 1:
        raise ValueError(f"{name} must be >= 1, got {d}")
    return d


_EXACT = frozenset((int, Fraction))


def check_exact(values: Sequence, name: str = "entry") -> None:
    """The library's one rule for an exact scalar: TypeError unless each of
    values is an int or a Fraction (a bool is neither).  The types are
    scanned at C level; values is read a second time only to name the
    first that fails."""
    if not _EXACT.issuperset(map(type, values)):
        x = next(x for x in values if type(x) not in _EXACT)
        raise TypeError(f"{name} {x!r} is a {type(x).__name__}, not an int or a Fraction")


class Classification(Enum):
    """The possible linear spans of polynomial values on M_d.

    A span of values is {0}, the scalar matrices, the trace-zero matrices,
    or all of M_d.

    rank, lies_in, contains and basis answer in closed form for each space:
    its dimension, containment, membership and reduced basis (which
    SpanBasis.canonical wraps).  bound names the class proved with no sample.
    - rank: {0}, the scalars Q * I, sl_d (cut out of M_d by one nonzero
      functional, the trace) and M_d have dimension 0, 1, d^2 - 1 and d^2.
    - contains: a vector lies in {0} iff it is zero, in Q * I iff it is its
      first entry times I, in sl_d iff its diagonal sums to 0, and always
      in M_d.  At d = 1 these give Q * I = M_1 and sl_1 = {0}.
    - lies_in: {0} lies in every space and every space in M_d, which by
      rank are the spaces of dimension 0 and d^2.  Every other pair of
      distinct classes is incomparable: for d >= 2, I has trace d != 0, so
      Q * I is not in sl_d, and E_12 is in sl_d but not scalar.  At d = 1
      every class is {0} or M_1, so the rule reads rank(A) <= rank(B).
    """

    ZERO = "ZERO"
    SCALARS = "SCALARS"
    TRACE_ZERO = "TRACE_ZERO"
    FULL = "FULL"

    def rank(self, d: int) -> int:
        """The dimension of this class's space in M_d."""
        n = check_dimension(d) ** 2
        return {"ZERO": 0, "SCALARS": 1, "TRACE_ZERO": n - 1, "FULL": n}[self.value]

    def lies_in(self, other: Classification, d: int) -> bool:
        """Whether this class's space in M_d lies in other's: the one containment test."""
        low, high = self.rank(d), other.rank(d)
        return self is other or low == 0 or high == d * d

    def contains(self, vec: Sequence[Num], d: int) -> bool:
        """Whether the d x d matrix with row-major entries vec lies in this
        class's space; every entry must be exact (see check_exact)."""
        if len(vec) != check_dimension(d) ** 2:
            raise DimensionMismatch(f"need {d * d} entries, got {len(vec)}")
        check_exact(vec)
        if self is Classification.ZERO:
            return not any(vec)
        if self is Classification.SCALARS:
            # c * I row-major: c, then d zeros and c, d - 1 times.
            return list(vec) == [vec[0], *([0] * d + [vec[0]]) * (d - 1)]
        if self is Classification.TRACE_ZERO:
            return sum(vec[:: d + 1]) == 0
        return True

    def basis(self, d: int) -> tuple[tuple[int, ...], ...]:
        """This class's reduced basis of M_d, integer rows flattened row-major:
        I for the scalars, else a unit row at each of the first rank coordinates,
        E_ii - E_(d-1)(d-1) on the diagonal for sl_d.  Each row's first nonzero, a 1, is its pivot."""
        n = check_dimension(d) ** 2
        if self is Classification.SCALARS:
            return (MatrixQ.identity(d).flatten(),)
        rows = []
        for p in range(self.rank(d)):
            row = [0] * n
            row[p] = 1
            if self is Classification.TRACE_ZERO and p % (d + 1) == 0:
                row[n - 1] = -1
            rows.append(tuple(row))
        return tuple(rows)

    @staticmethod
    def bound(d: int, commutator_sum: bool) -> Classification:
        """The least class proved, with no sample, to hold every value of a
        polynomial on M_d: sl_d for a sum of commutators (commutator_sum),
        since tr[a, b] = 0, which is {0} at d = 1; M_d otherwise."""
        if check_dimension(d) == 1 and commutator_sum:
            return Classification.ZERO
        return Classification.TRACE_ZERO if commutator_sum else Classification.FULL


@dataclass(frozen=True, init=False, repr=False)
class MatrixQ:
    """Immutable d x d matrix over the rationals."""

    __slots__ = ("dim", "rows")
    dim: int
    rows: tuple[tuple[Num, ...], ...]

    def __init__(self, rows: Iterable[Iterable[Num]]):
        rows = tuple(tuple(r) for r in rows)
        d = len(rows)
        if d == 0 or any(len(r) != d for r in rows):
            raise DimensionMismatch("matrix must be square and nonempty")
        for row in rows:
            check_exact(row, "matrix entry")
        object.__setattr__(self, "dim", d)
        object.__setattr__(self, "rows", rows)

    def __reduce__(self):
        # Back through the checked constructor: frozen fields refuse a setattr.
        return MatrixQ, (self.rows,)

    # -- constructors -------------------------------------------------------

    @staticmethod
    def zero(d: int) -> MatrixQ:
        return MatrixQ.diagonal([0] * check_dimension(d))

    @staticmethod
    def identity(d: int) -> MatrixQ:
        return MatrixQ.diagonal([1] * check_dimension(d))

    @staticmethod
    def diagonal(entries: Sequence[Num]) -> MatrixQ:
        d = len(entries)
        return MatrixQ([[entries[i] if i == j else 0 for j in range(d)] for i in range(d)])

    @staticmethod
    def unit(d: int, j: int, k: int) -> MatrixQ:
        """Matrix unit E_jk: 1 in row j, column k (0-based), 0 elsewhere."""
        _check_unit(check_dimension(d), j, k)
        return MatrixQ([[1 if (r, c) == (j, k) else 0 for c in range(d)] for r in range(d)])

    @staticmethod
    def unflatten(vec: Sequence[Num], d: int) -> MatrixQ:
        if len(vec) != check_dimension(d) ** 2:
            raise DimensionMismatch(f"need {d * d} entries, got {len(vec)}")
        return MatrixQ([vec[i * d : (i + 1) * d] for i in range(d)])

    # -- queries ------------------------------------------------------------

    def flatten(self) -> Vector:
        """Row-major length-d^2 vector."""
        return tuple(x for row in self.rows for x in row)

    def trace(self) -> Num:
        return sum(self.rows[i][i] for i in range(self.dim))

    def is_zero(self) -> bool:
        return Classification.ZERO.contains(self.flatten(), self.dim)

    def is_scalar(self) -> bool:
        """True iff self is a scalar multiple of the identity."""
        return Classification.SCALARS.contains(self.flatten(), self.dim)

    def __repr__(self) -> str:
        from .text import matrix_to_text

        return f"MatrixQ({matrix_to_text(self)!r})"

    # -- arithmetic -----------------------------------------------------------

    def _check_dim(self, other: MatrixQ) -> None:
        if not isinstance(other, MatrixQ):
            raise TypeError(f"expected MatrixQ, got {type(other).__name__}")
        if self.dim != other.dim:
            raise DimensionMismatch(f"dimensions {self.dim} and {other.dim} differ")

    def __add__(self, other: MatrixQ) -> MatrixQ:
        self._check_dim(other)
        return MatrixQ([[a + b for a, b in zip(ra, rb)] for ra, rb in zip(self.rows, other.rows)])

    def __sub__(self, other: MatrixQ) -> MatrixQ:
        self._check_dim(other)
        return self + -other

    def __neg__(self) -> MatrixQ:
        return self.scale(-1)

    def __mul__(self, other: MatrixQ) -> MatrixQ:
        self._check_dim(other)
        cols = tuple(zip(*other.rows))
        return MatrixQ([[sum(a * b for a, b in zip(row, col)) for col in cols] for row in self.rows])

    def scale(self, c: Num) -> MatrixQ:
        check_exact((c,), "scalar")
        return MatrixQ([[c * x for x in row] for row in self.rows])

    __rmul__ = scale


def commutator(a: MatrixQ, b: MatrixQ) -> MatrixQ:
    """[a, b] = ab - ba."""
    return a * b - b * a


def _check_unit(d: int, j: int, k: int) -> None:
    """E_jk's indices: TypeError unless both are ints, then ValueError outside range(d)."""
    if {type(j), type(k)} != {int}:
        raise TypeError(f"unit indices ({j!r}, {k!r}) are not both ints")
    if j not in range(d) or k not in range(d):
        raise ValueError(f"unit indices ({j}, {k}) are not in range({d})")


def unit_commutator(a: MatrixQ, j: int, k: int) -> MatrixQ:
    """[a, E_jk] without a product: a E_jk has column j of a as its column k,
    and E_jk a has row k of a as its row j.  Indices as MatrixQ.unit takes them."""
    d = a.dim
    _check_unit(d, j, k)
    rows = [[0] * d for _ in range(d)]
    for r in range(d):
        rows[r][k] = a.rows[r][j]
    rows[j] = [x - y for x, y in zip(rows[j], a.rows[k])]
    return MatrixQ(rows)


# ---------------------------------------------------------------------------
# Reduced-echelon span bases
# ---------------------------------------------------------------------------

@dataclass(frozen=True, init=False, repr=False)
class SpanBasis:
    """Row-reduced basis of a subspace of M_d, flattened row-major.

    Instances are values: insert returns a new basis, so bases built in
    different orders from the same matrices end up identical.
    """

    __slots__ = ("dim", "rows", "pivots")
    dim: int
    rows: tuple[Vector, ...]
    pivots: tuple[int, ...]

    def __init__(self, dim: int, rows: tuple[Vector, ...] = ()):
        """rows must be a reduced echelon form, each row's pivot its first
        nonzero entry: ValueError unless every row has d^2 entries and is
        nonzero, the pivots increase strictly, and each row is 1 at its
        pivot and 0 at every other; TypeError for an inexact entry (see
        check_exact)."""
        n = check_dimension(dim) ** 2
        rows = tuple(map(tuple, rows))
        for row in rows:
            check_exact(row, "basis entry")
            if len(row) != n or not any(row):
                raise ValueError(f"a row of a basis of M_{dim} must be nonzero with {n} entries, not {row}")
        pivots = tuple(row.index(next(filter(None, row))) for row in rows)
        if list(pivots) != sorted(set(pivots)):
            raise ValueError(f"the rows' pivots {pivots} do not increase strictly")
        for row, p in zip(rows, pivots):
            at = [row[q] for q in pivots]
            if row[p] != 1 or at.count(0) != len(at) - 1:
                raise ValueError(f"the row with pivot {p} is not 1 at it and 0 at every other pivot")
        object.__setattr__(self, "dim", dim)
        object.__setattr__(self, "rows", rows)
        object.__setattr__(self, "pivots", pivots)

    def __reduce__(self):
        return SpanBasis, (self.dim, self.rows)

    @property
    def rank(self) -> int:
        return len(self.rows)

    def insert(self, m: MatrixQ) -> tuple[SpanBasis, bool]:
        """(basis, grew): self if m is inside, else the span of the rows and m
        reduced by one fraction-free pass; grew is True iff the rank increased."""
        if self.contains(m):
            return self, False
        rows = _cleared([*self.rows, m.flatten()])[1]
        pivots, det = fraction_free_rref(rows)
        return SpanBasis(self.dim, (tuple(Fraction(x, det) for x in row) for row in rows[: len(pivots)])), True

    def contains(self, m: MatrixQ) -> bool:
        """Exact membership by one dense reduction of m, flattened, by the rows.
        Row p is 1 at its pivot and 0 at every other pivot, so its coefficient
        is m's own entry at p, and m less its parts along the rows is 0 at
        every pivot: m is inside iff that holds at the free columns too."""
        if m.dim != self.dim:
            raise DimensionMismatch(f"dimensions {m.dim} and {self.dim} differ")
        v, pivots = m.flatten(), set(self.pivots)
        parts = [(v[p], row) for row, p in zip(self.rows, self.pivots) if v[p]]
        return all(x == sum(c * row[j] for c, row in parts) for j, x in enumerate(v) if j not in pivots)

    def __repr__(self) -> str:
        return f"SpanBasis(dim={self.dim}, rank={self.rank})"

    @staticmethod
    def canonical(dim: int, which: Classification) -> SpanBasis:
        """The reduced basis of which's space in M_d, Classification.basis."""
        return SpanBasis(dim, which.basis(dim))


_EXPONENT = 31
PRIME = 2**_EXPONENT - 1


class EchelonModP:
    """Echelon form over GF(p), p = 2^31 - 1, of integer vectors added one at a time.

    Integer vectors that are dependent over Q have an integer relation with
    coprime coefficients, which stays a nontrivial relation mod p.  So the
    rank here never exceeds the rank over Q of the same vectors, and every
    growth mod p certifies a growth over Q.  The rank mod p of a set of
    vectors does not depend on how they are eliminated, so each row
    pivots on its highest nonzero slot: reading a pivot shifts out only the
    slots above it, and a row with a low pivot is a short int.  The
    converse fails only when p divides the minors a new vector forms with
    the rows (span._shear_closure divides out the powers of p that would
    make its walk meet one).

    Vectors and rows are packed: entry k is the k-th fixed-width slot of one
    int.  Reducing by a row reads one slot and does one big-int
    multiply-add by a residue below 2^31, two CPython digits.  Slots stay
    nonnegative, so they never borrow: an entry starts in [0, p) and gains
    less than p^2 per row, so with at most n rows for length-n vectors the
    slots are sized for p + n * p^2 when the echelon is built, 72 bits for
    n <= 256.  Every slot is taken mod p at once by folding, since 2^31 = 1
    mod p (see _fold).

    Unit vectors e_k adjoined by insert_unit are no rows but slots cleared
    from a mask, which rank counts and a vector reduced by the rows drops in
    one AND: that is its reduction by the units too, since a row is masked
    before its pivot is chosen and a unit is adjoined only at a slot that is
    no pivot, so no unit slot is ever a row's pivot.  For the same reason
    e_k, when slot k is no pivot, is 0 at every pivot, reduces to itself and
    grows the rank; only a pivot slot takes the ordinary reduction.
    """

    __slots__ = ("rows", "pivots", "_bits", "_packer", "_ones", "_free")

    def __init__(self, n: int):
        # Row k has its pivot entry scaled to -1 (that is, p - 1) and is
        # zero at the pivots of rows 0..k-1 and at the unit slots before
        # it.  Reducing in insertion order therefore never refills an
        # earlier pivot, and slots need reducing mod p only when read.
        self.rows: list[int] = []
        self.pivots: list[int] = []
        width = (((PRIME - 1) * (1 + n * (PRIME - 1))).bit_length() + 7) // 8
        self._bits = 8 * width
        # Each residue, below 2^31, packs as an unsigned 4-byte "I".
        self._packer = struct.Struct("<" + f"I{width - 4}x" * n)
        self._ones = sum(1 << (self._bits * k) for k in range(n))
        self._free = (1 << (self._bits * n)) - 1

    @property
    def rank(self) -> int:
        return len(self.rows) + (self._ones & ~self._free).bit_count()

    def _fold(self, v: int) -> int:
        """v with every slot reduced into [0, p).

        A slot x = 2^31 * h + l is congruent to h + l, which is smaller
        unless x < 2^31 already; then only x = p needs mapping to 0, and x
        is p exactly when bit 31 of x + 1 is set.
        """
        ones = self._ones
        low, top = PRIME * ones, ((1 << (self._bits - _EXPONENT)) - 1) * ones
        while high := v >> _EXPONENT & top:
            v = (v & low) + high
        return (v + ((v + ones) >> _EXPONENT & ones)) & low

    def insert(self, vec: Sequence[int]) -> bool:
        """Adjoin an integer vector of length n; True iff the rank mod p increased."""
        return self._adjoin(int.from_bytes(self._packer.pack(*map(PRIME.__rmod__, vec)), "little"))

    def insert_unit(self, k: int, c: int) -> bool:
        """Adjoin c * e_k, k in range(n); True iff the rank mod p increased."""
        slot = ((1 << self._bits) - 1) << (self._bits * k)
        if not c % PRIME or not self._free & slot:
            return False
        if k in self.pivots:
            return self._adjoin(1 << (self._bits * k))
        self._free ^= slot
        return True

    def _adjoin(self, v: int) -> bool:
        bits = self._bits
        mask = (1 << bits) - 1
        for row, p in zip(self.rows, self.pivots):
            c = (v >> (bits * p) & mask) % PRIME
            if c:
                v += c * row
        v = self._fold(v & self._free)
        if not v:
            return False
        p = (v.bit_length() - 1) // bits
        self.rows.append(self._fold(v * (PRIME - pow(v >> (bits * p), -1, PRIME))))
        self.pivots.append(p)
        return True


# ---------------------------------------------------------------------------
# Fraction-free elimination
# ---------------------------------------------------------------------------

def _cleared(rows: Iterable[Sequence[Num]]) -> tuple[int, list[list[int]]]:
    """(L, L * rows) as new lists, for L the lcm of the entries' denominators.
    The integer rule: rows whose entries are all ints (one type scan at C
    level) are copied with L = 1 and no lcm pass; a Fraction (or a bool)
    anywhere takes the lcm pass.  The input rows are never modified."""
    rows = [list(row) for row in rows]
    if {int}.issuperset(map(type, chain.from_iterable(rows))):
        return 1, rows
    scale = math.lcm(*(x.denominator for row in rows for x in row))
    return scale, [[x.numerator * (scale // x.denominator) for x in row] for row in rows]


def fraction_free_rref(rows: list[list[int]]) -> tuple[list[int], int]:
    """Reduce integer rows in place to det * RREF by fraction-free elimination.

    Returns (pivots, det) such that rows / det is the reduced row echelon
    form of the input, zero rows last; det is the determinant of a square
    input of full rank.  Two phases:

    - Forward (Bareiss): at each pivot only the rows below it change, and
      only right of its column.  Row r ends as U[r], whose entries are
      minors of the input (Sylvester's identity), so every division by the
      previous pivot is exact; U[r][p_r] is the leading minor on the first
      r + 1 pivot rows and columns, and det is the last one, signed by the
      row swaps.
    - Back: from the last pivot row up, X[r] = det * RREF[r] is
      (det * U[r] - sum_{t>r} U[r][p_t] * X[t]) / U[r][p_r], since U[r]
      less its parts along the later RREF rows is U[r][p_r] * RREF[r].  The
      division is exact because by Cramer's rule every entry of X is a
      minor of the input.  At pivot columns X is det or 0, so only the
      free columns right of p_r are computed.
    """
    pivots: list[int] = []
    prev = sign = 1
    n, m = len(rows), len(rows[0]) if rows else 0
    for c in range(m):
        r = len(pivots)
        if r == n:
            break
        sel = next((i for i in range(r, n) if rows[i][c]), None)
        if sel is None:
            continue
        if sel != r:
            rows[r], rows[sel] = rows[sel], rows[r]
            sign = -sign
        pv = rows[r][c]
        tail = rows[r][c + 1 :]
        zeros = [0] * (c + 1)
        for i in range(r + 1, n):
            row = rows[i]
            a = row[c]
            rows[i] = zeros + [(pv * x - a * y) // prev for x, y in zip(row[c + 1 :], tail)]
        prev = pv
        pivots.append(c)
    det = sign * prev
    pivot_set = set(pivots)
    free = [j for j in range(m) if j not in pivot_set]
    for r in reversed(range(len(pivots))):
        row, p = rows[r], pivots[r]
        # The finished rows X[t] below, with their coefficients U[r][p_t].
        below = [(row[q], rows[t]) for t, q in enumerate(pivots[r + 1 :], r + 1) if row[q]]
        out = [0] * m
        out[p] = det
        for j in free:
            if j > p:
                out[j] = (det * row[j] - sum(c * x[j] for c, x in below)) // row[p]
        rows[r] = out
    return pivots, det


def express_in_terms(
    vectors: Sequence[Sequence[Num]], target: Sequence[Num]
) -> tuple[list[int], int] | None:
    """Solve sum_j lam_j * vectors[j] = target exactly.

    Returns one solution (free coordinates set to zero) as integers over
    one nonzero det, (numerators, det) with lam_j = numerators[j] / det:
    the target column of fraction_free_rref's det * RREF, with no Fraction
    formed.  None when the target is outside the span of the vectors.  The
    vectors and the target must have one length (ValueError otherwise).
    """
    k = len(vectors)
    _, aug = _cleared(zip(*vectors, target, strict=True))
    pivots, det = fraction_free_rref(aug)
    if k in pivots:
        return None
    sol = [0] * k
    for row, col in zip(aug, pivots):
        sol[col] = row[k]
    return sol, det


# ---------------------------------------------------------------------------
# Vandermonde extraction
# ---------------------------------------------------------------------------

def vandermonde_extract(
    lambdas: Sequence[Num], values: Sequence[MatrixQ]
) -> list[MatrixQ]:
    """Recover matrices c_0..c_m from values[j] = sum_i lambdas[j]^i * c_i.

    The nodes must be exact, each an int or a Fraction (TypeError
    otherwise, bools included), and pairwise distinct.  The c_i are read
    off the Lagrange basis in monomial form (Traub, SIAM Review 8, 1966),
    in integers, with no elimination: for nodes a_j / s and values V_j / L
    (see _cleared), the j-th Lagrange polynomial is q_j(t) / w_j, where
    q_j(t) = prod_{i != j} (s * t - a_i) and w_j = prod_{i != j} (a_j - a_i),
    which is 0 for equal nodes.  So with W = lcm(w_j),
    c_m = sum_j (W / w_j) * q_j[m] * V_j / (W * L).
    """
    check_exact(lambdas, "node")
    k = len(lambdas)
    if len(values) != k:
        raise ValueError(f"{k} nodes but {len(values)} values")
    if k == 0:
        return []
    s, (a,) = _cleared([lambdas])
    w = [math.prod(x - y for i, y in enumerate(a) if i != j) for j, x in enumerate(a)]
    if 0 in w:
        raise DuplicateNodes("interpolation nodes must be pairwise distinct")
    d = values[0].dim
    if any(v.dim != d for v in values):
        raise DimensionMismatch("value matrices have differing dimensions")
    scale, vecs = _cleared(v.flatten() for v in values)
    lcm = math.lcm(*w)
    cols = []
    for j, wj in enumerate(w):
        # Column j: (lcm / w_j) * q_j, lowest degree first, one factor s * t - a_i at a time.
        q = [lcm // wj]
        for y in a[:j] + a[j + 1 :]:
            q = [s * u - y * v for u, v in zip([0, *q], [*q, 0])]
        cols.append(q)
    entries, den = list(zip(*vecs)), lcm * scale
    return [MatrixQ.unflatten([Fraction(sum(map(mul, row, e)), den) for e in entries], d) for row in zip(*cols)]


# ---------------------------------------------------------------------------
# Commutator decompositions
# ---------------------------------------------------------------------------

def _conjugate(m: list[Num], d: int, i: int, j: int, t: Num) -> None:
    """m <- T^-1 m T in place for each d x d matrix stacked row-major in the
    flat list m, a (len(m) / d) x d matrix, and the shear T = I + t * E_ij,
    whose inverse is I - t * E_ij: add t * (column i) to column j of the
    whole stack, then subtract t * (row j) from row i of each matrix."""
    m[j::d] = [x + t * y for x, y in zip(m[j::d], m[i::d])]
    for a in range(i * d, len(m), d * d):
        b = a + (j - i) * d
        m[a : a + d] = [x - t * y for x, y in zip(m[a : a + d], m[b : b + d])]


def _zero_diagonal_shears(m: MatrixQ) -> tuple[list[tuple[int, int, Num]], list[Num]]:
    """(shears, N flattened): N = P^-1 m P has an all-zero diagonal, for P
    the product in order of the shears I + t * E_ij, listed as (i, j, t).
    Conjugating by one (see _conjugate) moves t * n_ji from n_ii to n_jj
    and leaves the rest of the diagonal alone.

    For i = 0, ..., d - 2 in turn, a nonzero n_ii is pushed onto a later
    n_jj through a nonzero n_ji below it, with t = n_ii / n_ji.  When
    column i is zero below the diagonal, one shear by E_ji with s in {1, 2}
    first sets n_ji = s * (n_jj - n_ii) - s^2 * n_ij.  Some j > i makes this
    nonzero: otherwise n_ij = 0 and n_jj = n_ii for every j > i, so the
    trailing diagonal, which sums to the trace 0 since the leading one is
    already zero, would be (d - i) * n_ii != 0.  For the same reason the
    last diagonal entry ends at 0.  A zero diagonal needs no shear.
    """
    if m.trace():
        raise NonzeroTrace(f"trace is {m.trace()}, expected 0")
    d = m.dim
    n = list(m.flatten())
    shears: list[tuple[int, int, Num]] = []
    for i in range(d - 1):
        if not n[i * d + i]:
            continue
        j = next((j for j in range(i + 1, d) if n[j * d + i]), None)
        if j is None:
            j, s = next(
                (j, s) for j in range(i + 1, d) for s in (1, 2)
                if s * (n[j * d + j] - n[i * d + i]) - s * s * n[i * d + j]
            )
            shears.append((j, i, s))
            _conjugate(n, d, j, i, s)
        t = Fraction(n[i * d + i]) / n[j * d + i]
        shears.append((i, j, t))
        _conjugate(n, d, i, j, t)
    return shears, n


def commutator_decomposition(m: MatrixQ) -> tuple[MatrixQ, MatrixQ]:
    """Write a trace-zero matrix as a single commutator [a, b] = m, exactly.

    Conjugate m to zero diagonal N, where [diag(1..d), b'] = N is solved by
    b'_jk = n_jk / (j - k), then conjugate the pair back through the shears
    in reverse, each by -t: O(d) work per shear, no product and no solve.
    """
    d = m.dim
    if m.is_zero():
        return MatrixQ.zero(d), MatrixQ.zero(d)
    shears, n = _zero_diagonal_shears(m)
    ab = [j + 1 if j == k else 0 for j in range(d) for k in range(d)]
    ab += [n[j * d + k] / Fraction(j - k) if j != k else 0 for j in range(d) for k in range(d)]
    for i, j, t in reversed(shears):
        _conjugate(ab, d, i, j, -t)
    return MatrixQ.unflatten(ab[: d * d], d), MatrixQ.unflatten(ab[d * d :], d)

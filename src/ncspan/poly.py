"""Sparse noncommutative polynomials over the rationals.

A polynomial lives in the free associative algebra on countably many
variables X1, X2, ...  Monomials are *words*: tuples of 1-based variable
indices, so X1*X2*X1 is the word (1, 2, 1) and the empty tuple () is the
constant monomial 1.  A polynomial is kept as one positive integer
denominator D and a map from words to nonzero integer numerators, with
gcd(D, every numerator) = 1, so that each coefficient is n_w / D:

  X1*X2 - 1/2*X2*X1  ->  D = 2, {(1, 2): 2, (2, 1): -1}

The zero polynomial has an empty map over 1.  All arithmetic runs on the
integers, and each result is brought back to that form by one gcd pass,
which an integer polynomial (D = 1) skips; terms is a Fraction view of the
coefficients.  No floating point is ever involved.  NcPoly values are
immutable and hashable, so they can be shared freely; each keeps its hash,
its variable count and its degree once computed.
"""

from __future__ import annotations

import itertools
import math
from fractions import Fraction
from types import MappingProxyType
from typing import Callable, Iterable, Mapping, Union

from .linalg import _cleared, check_exact

__all__ = [
    "MissingAssignment",
    "NcPoly",
    "Word",
    "cyclic_representative",
]

Word = tuple[int, ...]
Scalar = Union[int, Fraction]


class MissingAssignment(Exception):
    """A substitution map lacks an image for a variable that occurs."""

    def __init__(self, variable: int):
        super().__init__(f"no image assigned for variable X{variable}")
        self.variable = variable


def _clean_terms(
    items: Iterable[tuple[Word, int]], start: Mapping[Word, int] = {}
) -> dict[Word, int]:
    """Nonzero start plus a stream of (word, numerator) pairs, zero sums
    dropped: the one place like terms combine."""
    terms = dict(start)
    for word, coeff in items:
        acc = terms.get(word)
        acc = coeff if acc is None else acc + coeff
        if acc:
            terms[word] = acc
        elif word in terms:
            del terms[word]
    return terms


class NcPoly:
    """An element of the free algebra Q<X1, X2, ...> in canonical form.

    Canonical means: _den is positive, no numerator in _num is zero, and
    gcd(_den, every numerator) = 1; so two polynomials are equal exactly
    when their denominators and numerator maps are equal.
    """

    # _nvars, _degree, _hash: None until first read, then kept (the terms
    # never change).
    __slots__ = ("_den", "_num", "_nvars", "_degree", "_hash")

    def __init__(self, terms: Mapping[Word, Scalar] | Iterable[tuple[Word, Scalar]] = ()):
        items = list(terms.items() if isinstance(terms, Mapping) else terms)
        words = [_letters(word) for word, _ in items]
        coeffs = [coeff for _, coeff in items]
        check_exact(coeffs, "coefficient")
        den, (nums,) = _cleared([coeffs])
        _fill(self, _clean_terms(zip(words, nums)), den)

    # -- constructors ------------------------------------------------------

    # These skip the general constructor's passes, with the same checks.

    @staticmethod
    def zero() -> NcPoly:
        return _raw({})

    @staticmethod
    def one() -> NcPoly:
        return _raw({(): 1})

    @staticmethod
    def constant(c: Scalar) -> NcPoly:
        check_exact((c,), "coefficient")
        return _raw({(): c.numerator} if c else {}, c.denominator)

    @staticmethod
    def variable(i: int) -> NcPoly:
        """The polynomial X_i (i is 1-based)."""
        return _raw({_letters((i,)): 1})

    @staticmethod
    def monomial(word: Iterable[int], coeff: Scalar = 1) -> NcPoly:
        return NcPoly({tuple(word): coeff})

    # -- structure ---------------------------------------------------------

    @property
    def terms(self) -> dict[Word, Fraction]:
        """A new word -> coefficient map, each coefficient a Fraction in
        lowest terms."""
        den = self._den
        return {w: Fraction(n, den) for w, n in self._num.items()}

    def integer_form(self) -> tuple[int, Mapping[Word, int]]:
        """(D, numerators): the positive denominator D and a read-only map
        from each word w to its nonzero integer numerator n_w, so that w's
        coefficient is n_w / D, with gcd(D, every n_w) = 1.  The zero
        polynomial reads (1, {})."""
        return self._den, MappingProxyType(self._num)

    @property
    def nvars(self) -> int:
        """Largest variable index occurring; 0 for constants and zero."""
        if self._nvars is None:
            self._nvars = max(map(max, filter(None, self._num)), default=0)
        return self._nvars

    def variables(self) -> list[int]:
        """Sorted list of variable indices that actually occur."""
        seen: set[int] = set()
        for word in self._num:
            seen.update(word)
        return sorted(seen)

    def is_zero(self) -> bool:
        return not self._num

    def is_constant(self) -> bool:
        return all(not w for w in self._num)

    def coefficient(self, word: Iterable[int]) -> Fraction:
        return Fraction(self._num.get(_letters(word), 0), self._den)

    def __len__(self) -> int:
        return len(self._num)

    def __bool__(self) -> bool:
        return bool(self._num)

    def __eq__(self, other: object) -> bool:
        if isinstance(other, NcPoly):
            return self._den == other._den and self._num == other._num
        if isinstance(other, (int, Fraction)):
            return self._den == other.denominator and self._num == ({(): other.numerator} if other else {})
        return NotImplemented

    def __hash__(self) -> int:
        # For an integer polynomial this is hash(frozenset(self.terms.items())).
        if self._hash is None:
            key = frozenset(self._num.items())
            self._hash = hash(key if self._den == 1 else (key, self._den))
        return self._hash

    def __reduce__(self):
        # The value alone: the shape caches are rebuilt when first read.
        return _raw, (self._num, self._den)

    def __repr__(self) -> str:
        from .text import poly_to_text

        return f"NcPoly({poly_to_text(self)!r})"

    # -- ring arithmetic ----------------------------------------------------

    def __add__(self, other: NcPoly | Scalar) -> NcPoly:
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return _raw(*_sum(((self._num, self._den), (other._num, other._den))))

    __radd__ = __add__

    def __neg__(self) -> NcPoly:
        return _raw({w: -n for w, n in self._num.items()}, self._den)

    def __sub__(self, other: NcPoly | Scalar) -> NcPoly:
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other: Scalar) -> NcPoly:
        return (-self) + other

    def __mul__(self, other: NcPoly | Scalar) -> NcPoly:
        """Free-algebra product: words concatenate, like terms combine."""
        if isinstance(other, (int, Fraction)):
            return self.scale(other)
        if not isinstance(other, NcPoly):
            return NotImplemented
        return _raw(_clean_terms(
            (wa + wb, na * nb)
            for wa, na in self._num.items()
            for wb, nb in other._num.items()
        ), self._den * other._den)

    def __rmul__(self, other: Scalar) -> NcPoly:
        if isinstance(other, (int, Fraction)):
            return self.scale(other)
        return NotImplemented

    def scale(self, c: Scalar) -> NcPoly:
        check_exact((c,), "coefficient")
        if not c:
            return NcPoly.zero()
        return _raw(_scaled(self._num, c.numerator), self._den * c.denominator)

    def __pow__(self, k: int) -> NcPoly:
        if type(k) is not int:
            raise TypeError(f"exponent {k!r} is a {type(k).__name__}, not an int")
        if k < 0:
            raise ValueError("negative powers are not defined in the free algebra")
        out = NcPoly.one()
        for _ in range(k):
            out = out * self
        return out

    # -- degrees and homogeneity ---------------------------------------------

    def degree(self) -> int | None:
        """Total degree (max word length); None for the zero polynomial."""
        if self._degree is None and self._num:
            self._degree = max(map(len, self._num))
        return self._degree

    def degree_in(self, i: int) -> int | None:
        """Max number of occurrences of X_i in a word; None for zero."""
        _letters((i,))
        if not self._num:
            return None
        return max(w.count(i) for w in self._num)

    def min_degree_in(self, i: int) -> int | None:
        """Min number of occurrences of X_i over the words; None for zero."""
        _letters((i,))
        if not self._num:
            return None
        return min(w.count(i) for w in self._num)

    def homogeneous_components_in(self, i: int) -> list[tuple[int, NcPoly]]:
        """Partition the terms by their degree in X_i.

        Returns (degree, component) pairs in increasing degree order, only for
        degrees that actually occur.  The components sum back to self.
        """
        _letters((i,))
        buckets: dict[int, dict[Word, int]] = {}
        for word, n in self._num.items():
            buckets.setdefault(word.count(i), {})[word] = n
        return [(j, _raw(buckets[j], self._den)) for j in sorted(buckets)]

    def is_homogeneous_in(self, i: int) -> bool:
        return self.degree_in(i) == self.min_degree_in(i)

    def strip_variable(self, i: int) -> tuple[NcPoly, NcPoly]:
        """Split self = g + h where X_i occurs in every word of g and none of h."""
        _letters((i,))
        with_i: dict[Word, int] = {}
        without_i: dict[Word, int] = {}
        for word, n in self._num.items():
            (with_i if i in word else without_i)[word] = n
        return _raw(with_i, self._den), _raw(without_i, self._den)

    def is_multilinear(self) -> bool:
        """True iff every word contains each of X1..X_nvars exactly once."""
        n = self.nvars
        return all(
            len(w) == n and len(set(w)) == n for w in self._num
        )

    def map_words(self, images: Callable[[Word], Iterable[Word]]) -> NcPoly:
        """The linear map sending each word w of self to the sum of the
        words images(w): every image takes w's coefficient, and like terms
        combine.  The images must be words, tuples of ints >= 1; they are
        not checked, as a rule that relabels checked words keeps them words.
        """
        return _raw(_clean_terms(
            (v, n) for w, n in self._num.items() for v in images(w)
        ), self._den)

    # -- substitution ---------------------------------------------------------

    def substitute(self, assignment: Mapping[int, NcPoly]) -> NcPoly:
        """Apply the algebra homomorphism X_i -> assignment[i].

        Every variable occurring in self must have an image; otherwise
        MissingAssignment is raised.  Words map to ordered products of the
        images, so the result is the homomorphic image of self.  Each word
        is expanded once, and like terms combine in one pass over them all.
        With the images over one denominator E, a word w of self, over D,
        contributes over D * E^|w|, so over D * E^deg once its numerator is
        multiplied by E^(deg - |w|).  The assignment's keys are read as
        the letters of one word.
        """
        _letters(assignment)
        variables = self.variables()
        for i in variables:
            if i not in assignment:
                raise MissingAssignment(i)
        images = {i: _coerce(assignment[i]) for i in variables}
        if any(image is NotImplemented for image in images.values()):
            raise TypeError("images must be polynomials or scalars")
        den = math.lcm(*(p._den for p in images.values()))
        nums = {i: _scaled(p._num, den // p._den) for i, p in images.items()}
        deg = self.degree() or 0

        def expand(word: Word, n: int) -> list[tuple[Word, int]]:
            out = [((), n * den ** (deg - len(word)))]
            for letter in word:
                out = [(w + v, c * e) for w, c in out for v, e in nums[letter].items()]
            return out

        return _raw(_clean_terms(itertools.chain.from_iterable(
            itertools.starmap(expand, self._num.items())
        )), self._den * den**deg)

    def substitute_one(self, i: int, image: NcPoly) -> NcPoly:
        """Substitute X_i -> image, leaving all other variables fixed."""
        _letters((i,))
        assignment = {j: NcPoly.variable(j) for j in self.variables()}
        assignment[i] = image
        return self.substitute(assignment)

    # -- commutator-sum test ---------------------------------------------------

    def commutator_obstruction(self) -> Word | None:
        """Find a cyclic class of words whose coefficients do not sum to zero.

        Words are identified up to cyclic rotation; over a field of
        characteristic zero, a polynomial is a sum of commutators exactly
        when every such class has coefficient sum zero.  Returns the
        lexicographically-least rotation of an offending class (the
        graded-lex smallest among them, for determinism), or None if the
        polynomial passes.
        """
        offending = _clean_terms(
            (_least_rotation(word), n) for word, n in self._num.items()
        )
        if not offending:
            return None
        return min(offending, key=lambda w: (len(w), w))

    def is_sum_of_commutators(self) -> bool:
        """True iff self lies in the span of commutators [u, v]."""
        return self.commutator_obstruction() is None


def _letters(word: Iterable[int]) -> Word:
    """word as a tuple; TypeError unless every letter is an int, bools
    included, then ValueError for a letter below 1."""
    word = tuple(word)
    for i in word:
        if type(i) is not int:
            raise TypeError(f"variable index {i!r} in word {word} is a {type(i).__name__}, not an int")
    if word and min(word) < 1:
        raise ValueError(f"variable indices must be >= 1, got word {word}")
    return word


def _raw(num: dict[Word, int], den: int = 1) -> NcPoly:
    """The polynomial sum of num[w] / den * w.  Internal fast path: the
    words are checked and the numerators nonzero ints, and den > 0."""
    return _fill(object.__new__(NcPoly), num, den)


def _fill(p: NcPoly, num: dict[Word, int], den: int) -> NcPoly:
    """p set to num over den, both divided by their gcd (none of an
    integer polynomial), which leaves the zero polynomial over 1."""
    if den != 1:
        g = math.gcd(den, *num.values())
        if g != 1:
            num, den = {w: n // g for w, n in num.items()}, den // g
    p._num, p._den = num, den
    p._nvars = p._degree = p._hash = None
    return p


def _scaled(num: dict[Word, int], k: int) -> dict[Word, int]:
    """num with every numerator times k; num itself for k = 1."""
    return num if k == 1 else {w: n * k for w, n in num.items()}


def _sum(parts: Iterable[tuple[dict[Word, int], int]]) -> tuple[dict[Word, int], int]:
    """(numerators, denominator) of the sum of the parts num / den, over
    the lcm of their denominators, like terms combined in one pass."""
    parts = list(parts)
    den = math.lcm(*(d for _, d in parts))
    first, *rest = (_scaled(num, den // d) for num, d in parts)
    return _clean_terms(itertools.chain.from_iterable(map(dict.items, rest)), first), den


def _coerce(value: NcPoly | Scalar) -> NcPoly:
    if isinstance(value, NcPoly):
        return value
    if isinstance(value, (int, Fraction)):
        return NcPoly.constant(value)
    return NotImplemented


def cyclic_representative(word: Iterable[int]) -> Word:
    """Lexicographically least rotation of a word (canonical class label),
    a tuple; the word is read like every public word argument (_letters)."""
    return _least_rotation(_letters(word))


def _least_rotation(word: Word) -> Word:
    """cyclic_representative of a checked word: Duval's Lyndon factorisation
    of word + word (J. Algorithms 4, 1983), in O(|w|) letter comparisons.
    Each pass reads the longest stretch from i that is a power of a Lyndon
    word of period j - k, plus a prefix of it; the whole periods are equal
    factors, and the next pass starts after them.  The least rotation
    begins at the last pass that starts inside the first copy.
    """
    n = len(word)
    s = word + word
    i = start = 0
    while i < n:
        start = i
        j, k = i + 1, i
        while j < 2 * n and s[k] <= s[j]:
            k = i if s[k] < s[j] else k + 1
            j += 1
        while i <= k:
            i += j - k
    return s[start : start + n]

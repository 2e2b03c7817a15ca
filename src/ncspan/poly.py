"""Sparse noncommutative polynomials over the rationals.

A polynomial lives in the free associative algebra on countably many
variables X1, X2, ...  Monomials are *words*: tuples of 1-based variable
indices, so X1*X2*X1 is the word (1, 2, 1) and the empty tuple () is the
constant monomial 1.  A polynomial maps words to nonzero Fraction
coefficients:

  X1*X2 - X2*X1  ->  {(1, 2): Fraction(1), (2, 1): Fraction(-1)}

The zero polynomial has an empty term map.  All arithmetic is exact; no
floating point is ever involved.  NcPoly values are immutable and hashable,
so they can be shared freely.
"""

from __future__ import annotations

import itertools
from fractions import Fraction
from typing import Iterable, Iterator, Mapping, Union

Word = tuple[int, ...]
Scalar = Union[int, Fraction]


class MissingAssignment(Exception):
    """A substitution map lacks an image for a variable that occurs."""

    def __init__(self, variable: int):
        super().__init__(f"no image assigned for variable X{variable}")
        self.variable = variable


def _clean_terms(
    items: Iterable[tuple[Word, Fraction]], start: Mapping[Word, Fraction] = {}
) -> dict[Word, Fraction]:
    """Canonical start plus a stream of (word, coefficient) pairs, zero sums
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

    Canonical means: no stored coefficient is zero, and two polynomials are
    equal exactly when their term maps are equal.
    """

    __slots__ = ("_terms", "_nvars")

    def __init__(self, terms: Mapping[Word, Scalar] | Iterable[tuple[Word, Scalar]] = ()):
        items = terms.items() if isinstance(terms, Mapping) else terms
        cleaned = _clean_terms(
            (tuple(word), Fraction(coeff)) for word, coeff in items
        )
        for word in cleaned:
            if any(i < 1 for i in word):
                raise ValueError(f"variable indices must be >= 1, got word {word}")
        self._terms = cleaned
        self._nvars = max((max(w) for w in cleaned if w), default=0)

    # -- constructors ------------------------------------------------------

    @staticmethod
    def zero() -> NcPoly:
        return NcPoly()

    @staticmethod
    def one() -> NcPoly:
        return NcPoly({(): 1})

    @staticmethod
    def constant(c: Scalar) -> NcPoly:
        return NcPoly({(): c})

    @staticmethod
    def variable(i: int) -> NcPoly:
        """The polynomial X_i (i is 1-based)."""
        if i < 1:
            raise ValueError(f"variable index must be >= 1, got {i}")
        return NcPoly({(i,): 1})

    @staticmethod
    def monomial(word: Iterable[int], coeff: Scalar = 1) -> NcPoly:
        return NcPoly({tuple(word): coeff})

    # -- structure ---------------------------------------------------------

    @property
    def terms(self) -> Mapping[Word, Fraction]:
        """The word -> coefficient map (treat as read-only)."""
        return self._terms

    @property
    def nvars(self) -> int:
        """Largest variable index occurring; 0 for constants and zero."""
        return self._nvars

    def variables(self) -> list[int]:
        """Sorted list of variable indices that actually occur."""
        seen: set[int] = set()
        for word in self._terms:
            seen.update(word)
        return sorted(seen)

    def is_zero(self) -> bool:
        return not self._terms

    def is_constant(self) -> bool:
        return all(not w for w in self._terms)

    def coefficient(self, word: Iterable[int]) -> Fraction:
        return self._terms.get(tuple(word), Fraction(0))

    def __len__(self) -> int:
        return len(self._terms)

    def __iter__(self) -> Iterator[tuple[Word, Fraction]]:
        return iter(self._terms.items())

    def __bool__(self) -> bool:
        return bool(self._terms)

    def __eq__(self, other: object) -> bool:
        if isinstance(other, NcPoly):
            return self._terms == other._terms
        if isinstance(other, (int, Fraction)):
            return self._terms == NcPoly.constant(other)._terms
        return NotImplemented

    def __hash__(self) -> int:
        return hash(frozenset(self._terms.items()))

    def __repr__(self) -> str:
        from .text import poly_to_text

        return f"NcPoly({poly_to_text(self)!r})"

    # -- ring arithmetic ----------------------------------------------------

    def __add__(self, other: NcPoly | Scalar) -> NcPoly:
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return _raw(_clean_terms(other._terms.items(), self._terms))

    __radd__ = __add__

    def __neg__(self) -> NcPoly:
        return _raw({w: -c for w, c in self._terms.items()})

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
            (wa + wb, ca * cb)
            for wa, ca in self._terms.items()
            for wb, cb in other._terms.items()
        ))

    def __rmul__(self, other: Scalar) -> NcPoly:
        if isinstance(other, (int, Fraction)):
            return self.scale(other)
        return NotImplemented

    def scale(self, c: Scalar) -> NcPoly:
        c = Fraction(c)
        if not c:
            return NcPoly.zero()
        return _raw({w: coeff * c for w, coeff in self._terms.items()})

    def __pow__(self, k: int) -> NcPoly:
        if k < 0:
            raise ValueError("negative powers are not defined in the free algebra")
        out = NcPoly.one()
        for _ in range(k):
            out = out * self
        return out

    # -- degrees and homogeneity ---------------------------------------------

    def degree(self) -> int | None:
        """Total degree (max word length); None for the zero polynomial."""
        if not self._terms:
            return None
        return max(len(w) for w in self._terms)

    def degree_in(self, i: int) -> int | None:
        """Max number of occurrences of X_i in a word; None for zero."""
        if not self._terms:
            return None
        return max(w.count(i) for w in self._terms)

    def min_degree_in(self, i: int) -> int | None:
        """Min number of occurrences of X_i over the words; None for zero."""
        if not self._terms:
            return None
        return min(w.count(i) for w in self._terms)

    def homogeneous_components_in(self, i: int) -> list[tuple[int, NcPoly]]:
        """Partition the terms by their degree in X_i.

        Returns (degree, component) pairs in increasing degree order, only for
        degrees that actually occur.  The components sum back to self.
        """
        buckets: dict[int, dict[Word, Fraction]] = {}
        for word, coeff in self._terms.items():
            buckets.setdefault(word.count(i), {})[word] = coeff
        return [(j, _raw(buckets[j])) for j in sorted(buckets)]

    def is_homogeneous_in(self, i: int) -> bool:
        degrees = {w.count(i) for w in self._terms}
        return len(degrees) <= 1

    def strip_variable(self, i: int) -> tuple[NcPoly, NcPoly]:
        """Split self = g + h where X_i occurs in every word of g and none of h."""
        with_i: dict[Word, Fraction] = {}
        without_i: dict[Word, Fraction] = {}
        for word, coeff in self._terms.items():
            (with_i if i in word else without_i)[word] = coeff
        return _raw(with_i), _raw(without_i)

    def is_multilinear(self) -> bool:
        """True iff every word contains each of X1..X_nvars exactly once."""
        n = self._nvars
        return all(
            len(w) == n and len(set(w)) == n for w in self._terms
        )

    # -- substitution ---------------------------------------------------------

    def substitute(self, assignment: Mapping[int, NcPoly]) -> NcPoly:
        """Apply the algebra homomorphism X_i -> assignment[i].

        Every variable occurring in self must have an image; otherwise
        MissingAssignment is raised.  Words map to ordered products of the
        images, so the result is the homomorphic image of self.  Each word
        is expanded once, and like terms combine in one pass over them all.
        """
        variables = self.variables()
        for i in variables:
            if i not in assignment:
                raise MissingAssignment(i)
        images = {i: _coerce(assignment[i]) for i in variables}
        if any(image is NotImplemented for image in images.values()):
            raise TypeError("images must be polynomials or scalars")

        def expand(word: Word, coeff: Fraction) -> list[tuple[Word, Fraction]]:
            out = [((), coeff)]
            for letter in word:
                out = [(w + v, c * e) for w, c in out for v, e in images[letter]._terms.items()]
            return out

        return _raw(_clean_terms(itertools.chain.from_iterable(
            itertools.starmap(expand, self._terms.items())
        )))

    def substitute_one(self, i: int, image: NcPoly) -> NcPoly:
        """Substitute X_i -> image, leaving all other variables fixed."""
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
            (cyclic_representative(word), coeff) for word, coeff in self._terms.items()
        )
        if not offending:
            return None
        return min(offending, key=lambda w: (len(w), w))

    def is_sum_of_commutators(self) -> bool:
        """True iff self lies in the span of commutators [u, v]."""
        return self.commutator_obstruction() is None


def _raw(terms: dict[Word, Fraction]) -> NcPoly:
    # Internal fast path: terms are already canonical (no zeros, tuple keys).
    p = object.__new__(NcPoly)
    p._terms = terms
    p._nvars = max((max(w) for w in terms if w), default=0)
    return p


def _coerce(value: NcPoly | Scalar) -> NcPoly:
    if isinstance(value, NcPoly):
        return value
    if isinstance(value, (int, Fraction)):
        return NcPoly.constant(value)
    return NotImplemented


def commutator(f: NcPoly, g: NcPoly) -> NcPoly:
    """The ring commutator f*g - g*f."""
    return f * g - g * f


def cyclic_representative(word: Word) -> Word:
    """Lexicographically least rotation of a word (canonical class label)."""
    if len(word) <= 1:
        return word
    return min(word[k:] + word[:k] for k in range(len(word)))

"""Reduction of a polynomial to a multilinear one, with step provenance.

The pipeline mirrors the classical polarization argument: first restrict to
monomials that use every variable (or drop a variable entirely), then make
the polynomial homogeneous in each variable by selecting a component, then
repeatedly polarize (the delta step) until every variable has degree one.
Each stage replaces the polynomial by one whose values span a subspace of
the previous span, and a caller-supplied oracle certifies at every choice
point that the chosen candidate is still neither an identity nor a central
polynomial of the reference matrix algebra.

Every change is recorded as a ReductionStep so the whole chain can be
replayed and its span containments verified downstream.

One representation detail: when a variable is dropped, higher variable
indices are renumbered down to keep the occurring variables contiguous
(a bijective relabeling, so the set of values, and hence the span, is
unchanged).  This renumbering is part of the STRIP step that drops the
variable.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from enum import Enum
from typing import Callable, Sequence

from .poly import NcPoly, Word, _letters


class VariableCollision(Exception):
    """The fresh variable for a polarization step already occurs."""


class OracleFailed(Exception):
    """No candidate at some reduction stage passed the oracle.

    The underlying containment argument guarantees a good candidate exists,
    so this signals an unsound (e.g. undersampled) oracle, or an input that
    violated the oracle precondition.
    """


class NotReducible(Exception):
    """Constant polynomials cannot be reduced."""


class StepKind(Enum):
    STRIP = "STRIP"
    HOMOGENEOUS_SELECT = "HOMOGENEOUS_SELECT"
    DELTA = "DELTA"


@dataclass(frozen=True)
class ReductionStep:
    """One recorded transformation.

    detail is the branch for STRIP ("kept" or "dropped"), the selected
    degree for HOMOGENEOUS_SELECT, and the fresh variable index for DELTA.
    """

    kind: StepKind
    variable: int
    detail: int | str
    before: NcPoly
    after: NcPoly


@dataclass(frozen=True)
class MultilinearReduction:
    """The steps chain: steps[0].before is input, each step's before is
    the previous step's after, and the last after is output."""

    input: NcPoly
    output: NcPoly
    steps: tuple[ReductionStep, ...]


Oracle = Callable[[NcPoly], bool]


def delta(f: NcPoly, i: int, m: int) -> NcPoly:
    """Polarize f in X_i against a fresh variable X_m.

    Returns f(.., X_i + X_m, ..) - f(.., X_i, ..) - f(.., X_m, ..).  Every
    word of f must contain X_i (then every surviving word contains both X_i
    and X_m, and the degree in X_i strictly drops), and X_m must be fresh.

    Written on words: a word with X_i at k positions expands into the 2^k
    words with some subset of those positions renamed X_m, and the two
    subtracted terms are the empty and the full subset.  So it gives the
    2^k - 2 words of the nonempty proper subsets, each with the word's
    coefficient.  Renaming X_m back to X_i recovers the word, since X_m is
    fresh, so no two of the new words coincide and no like terms combine.
    """
    _letters((i, m))
    if f.degree_in(m):
        raise VariableCollision(f"X{m} already occurs in the polynomial")
    if f.is_zero() or f.min_degree_in(i) < 1:
        raise ValueError(f"X{i} must occur in every monomial")

    def renamed(word: Word):
        # product runs from the word itself to the word with every X_i renamed.
        every = itertools.product(*[(x, m) if x == i else (x,) for x in word])
        return itertools.islice(every, 1, (1 << word.count(i)) - 1)

    return f.map_words(renamed)


def resubstitute_check(f: NcPoly, fprime: NcPoly, i: int, m: int) -> bool:
    """Verify that resubstituting X_m -> X_i in fprime gives (2^k - 2) f.

    Here k is the degree of f in X_i, which must be homogeneous of degree
    k >= 2 for the identity to make sense.
    """
    _letters((i, m))
    if not f.is_homogeneous_in(i):
        raise ValueError(f"polynomial is not homogeneous in X{i}")
    k = f.degree_in(i)
    if k is None or k < 2:
        raise ValueError(f"degree in X{i} must be at least 2, got {k}")
    lhs = fprime.map_words(lambda w: (tuple(i if x == m else x for x in w),))
    return lhs == f.scale(2 ** k - 2)


def _compact_above(f: NcPoly, i: int) -> NcPoly:
    """Renumber every variable index above i down by one.  X_i must be absent,
    so the relabelling is injective; with none above i, f itself."""
    if f.nvars <= i:
        return f
    return f.map_words(lambda w: (tuple(j - (j > i) for j in w),))


def _tiebreak_key(p: NcPoly) -> tuple:
    return (
        p.degree() or 0,
        tuple(p.degree_in(v) or 0 for v in range(1, p.nvars + 1)),
    )


def _select(candidates: Sequence[NcPoly], oracle: Oracle, stage: str) -> NcPoly:
    """Pick the oracle-true candidate minimal under the deterministic order."""
    for cand in sorted(candidates, key=_tiebreak_key):
        if oracle(cand):
            return cand
    raise OracleFailed(f"no candidate passed the oracle during {stage}")


def reduce_to_multilinear(f: NcPoly, oracle: Oracle) -> MultilinearReduction:
    """Run the full strip / homogenize / polarize pipeline on f.

    The oracle decides "is neither an identity nor a central polynomial" of
    the reference algebra; it must hold for f itself.  The output is
    multilinear, oracle-true, and its values span a subspace of the span of
    f's values.
    """
    if f.is_constant():
        raise NotReducible("constant polynomials cannot be made multilinear")
    if not oracle(f):
        raise OracleFailed("input polynomial failed the oracle")

    steps: list[ReductionStep] = []
    current = f

    def record(kind: StepKind, variable: int, detail, before: NcPoly, after: NcPoly):
        steps.append(ReductionStep(kind, variable, detail, before, after))

    def homogenize(current: NcPoly, i: int) -> NcPoly:
        """current, or its oracle-true homogeneous component in X_i."""
        if current.is_homogeneous_in(i):
            return current
        components = [p for _, p in current.homogeneous_components_in(i)]
        chosen = _select(components, oracle, f"homogeneous selection in X{i}")
        record(StepKind.HOMOGENEOUS_SELECT, i, chosen.degree_in(i), current, chosen)
        return chosen

    # Stage 1: ensure every occurring variable occurs in every monomial.
    i = 1
    while i <= current.nvars:
        g, h = current.strip_variable(i)
        if h.is_zero():
            i += 1
            continue
        # If X_i does not occur at all (an index gap), h is current: drop X_i.
        chosen = h if g.is_zero() else _select([g, h], oracle, f"strip of X{i}")
        if chosen == g:
            record(StepKind.STRIP, i, "kept", current, g)
            current = g
            i += 1
        else:
            after = _compact_above(h, i)
            record(StepKind.STRIP, i, "dropped", current, after)
            current = after
            # the old X_{i+1} is the new X_i; reprocess this index

    # Stage 2: one homogeneous component per variable.
    for i in range(1, current.nvars + 1):
        current = homogenize(current, i)

    # Stage 3: polarize each variable down to degree one.  Fresh variables
    # appended by delta are handled when the loop reaches their index.
    i = 1
    while i <= current.nvars:
        while (current.degree_in(i) or 0) > 1:
            m = current.nvars + 1
            polarized = delta(current, i, m)
            record(StepKind.DELTA, i, m, current, polarized)
            if not oracle(polarized):
                raise OracleFailed(
                    f"polarization of X{i} produced an oracle-false polynomial"
                )
            current = homogenize(polarized, i)
        i += 1

    assert current.is_multilinear(), "pipeline must end multilinear"
    return MultilinearReduction(input=f, output=current, steps=tuple(steps))

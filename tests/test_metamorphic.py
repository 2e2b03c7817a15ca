"""Metamorphic batteries: changes to a polynomial whose effect on the span
of its values on M_d is known without computing either span.

Each case transforms every polynomial of the seeded battery and requires
the transformed one to get the same verdicts as the original, through the
three deciders that read a class or a nontriviality verdict:
classify_span's class, span._class_of's class (which suite reads, by the
degree theorem where it applies), and nontriviality_oracle's "neither an
identity nor central" (which reduce_to_multilinear reads).  Substitution
only shrinks the set of values, so there the class may only go down
(Classification.lies_in) and a nontrivial result needs a nontrivial
original.

The battery is battery_poly's (degree 1 to 4 in X1..X3, about a third of
them sums of commutators) at d = 2, where degree 4 is past the degree
theorem's 2d - 1 and is sampled, and at d = 3, where the theorem decides
every original.  What a case adds, multiplies by or substitutes is in
the fresh variables X4 and up; an added identity or a central factor
takes the degree past 2d - 1, so the transformed class is sampled.
"""

import random
from fractions import Fraction

import pytest

from helpers import battery_poly, standard_polynomial
from ncspan import NcPoly, SampleConfig, classify_span, nontriviality_oracle, parse_poly, span

SEEDS = (0, 1, 7919)
BATTERY = 6
FRESH = 4  # the battery uses X1..X3


def _battery(seed: int) -> list[NcPoly]:
    rng = random.Random(seed)
    return [battery_poly(rng) for _ in range(BATTERY)]


def _verdicts(f: NcPoly, d: int, cfg: SampleConfig) -> tuple:
    return classify_span(f, d, cfg).classification, span._class_of(f, d, cfg)[0], nontriviality_oracle(d, cfg)(f)


def _shifted(f: NcPoly, by: int) -> NcPoly:
    """f with X_i renamed X_(i + by)."""
    return f.substitute({i: NcPoly.variable(i + by) for i in f.variables()})


def _unchanged(seed: int, d: int, transform) -> list[tuple[NcPoly, NcPoly]]:
    """(f, transform(f)) over the battery, each pair with equal verdicts."""
    cfg = SampleConfig(seed=seed)
    pairs = [(f, transform(f)) for f in _battery(seed)]
    for f, g in pairs:
        assert _verdicts(g, d, cfg) == _verdicts(f, d, cfg), (f, g)
    return pairs


def _same_flag(pairs) -> bool:
    return all(f.is_sum_of_commutators() == g.is_sum_of_commutators() for f, g in pairs)


_grid = pytest.mark.parametrize("seed, d", [(seed, d) for seed in SEEDS for d in (2, 3)])


@_grid
def test_relabel_and_scale(seed, d):
    """f -> c * f(X_pi(1), ..., X_pi(n)) for a permutation pi of the
    variables and c = -7/3: relabelling is a bijection of argument tuples,
    so the set of values is the same, and scaling by c != 0 maps the span
    onto itself; so class, identity and centrality are unchanged.  Both
    map commutators to commutators, so the commutator-sum flag stays too."""
    pi = {1: 3, 2: 1, 3: 2}
    relabelled = _unchanged(seed, d, lambda f: f.substitute({i: NcPoly.variable(pi[i]) for i in (1, 2, 3)}).scale(Fraction(-7, 3)))
    assert _same_flag(relabelled)


@_grid
def test_add_standard_polynomial(seed, d):
    """f -> f + S_2d(X4..X_(2d+3)): S_2d vanishes on M_d (Amitsur-Levitzki),
    and its variables are fresh, so (f + S_2d)(a, b) = f(a): the same set
    of values.  S_2d is a sum of commutators too (rotating a word of 2d
    distinct letters is an odd permutation), so the sum is one iff f is."""
    s = _shifted(standard_polynomial(2 * d), FRESH - 1)
    assert _same_flag(_unchanged(seed, d, lambda f: f + s))


@_grid
def test_add_standard_polynomial_times_a_variable(seed, d):
    """f -> f + S_2d * X_m and f -> f + X_m * S_2d, X_m fresh: identities
    form an ideal, so each summand is again an identity of M_d in fresh
    variables, and the values are f's.  Neither summand is a sum of
    commutators, so where f is one the class is sampled, not proved."""
    s = _shifted(standard_polynomial(2 * d), FRESH - 1)
    x = NcPoly.variable(FRESH + 2 * d)
    _unchanged(seed, d, lambda f: f + s * x)
    _unchanged(seed, d, lambda f: f + x * s)


@pytest.mark.parametrize("seed", SEEDS)
def test_add_hall_identity(seed):
    """f -> f + [[X4,X5]^2, X6] at d = 2: [a, b]^2 is scalar for every a, b
    in M_2 (Cayley-Hamilton: [a, b] has trace 0, so its square is
    -det[a, b] * I), so Hall's polynomial is an identity of M_2 in fresh
    variables, and the values are f's.  It is a commutator, so the sum is a
    sum of commutators iff f is."""
    hall = parse_poly("[[X4,X5]^2, X6]")
    assert _same_flag(_unchanged(seed, 2, lambda f: f + hall))


@pytest.mark.parametrize("seed", SEEDS)
def test_multiply_by_central_square(seed):
    """f -> f * [X4,X5]^2 at d = 2: [X4,X5]^2 is central on M_2 and takes
    a nonzero scalar value (t^2 * I at E_12, t * E_21), in fresh
    variables, so the values are lambda * f(a), with lambda != 0 among
    them: the same span, zero or scalar exactly when f's values are."""
    c = parse_poly("[X4,X5]^2")
    _unchanged(seed, 2, lambda f: f * c)


@_grid
def test_substitution_never_raises_the_class(seed, d):
    """f -> f(h_1, h_2, h_3) for polynomials h_i in the fresh X4, X5: every
    value of the result is a value of f, at the tuple (h_i(b)), so its span
    lies in f's.  The class may only go down (Classification.lies_in), and
    a result that is neither an identity nor central needs an f that is
    neither."""
    cfg = SampleConfig(seed=seed)
    rng = random.Random(seed)
    images = ["X4*X5", "X4 - 2*X5*X5", "[X4,X5]", "X5 + 1", "3", "X4*X4"]
    for f in _battery(seed):
        h = {i: parse_poly(rng.choice(images)) for i in (1, 2, 3)}
        g = f.substitute(h)
        (cf, of, nf), (cg, og, ng) = _verdicts(f, d, cfg), _verdicts(g, d, cfg)
        assert cg.lies_in(cf, d) and og.lies_in(of, d), (f, g)
        assert not ng or nf, (f, g)

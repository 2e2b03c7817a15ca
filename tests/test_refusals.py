"""Every callable in ncspan.__all__, and the constructors, closed-form
queries, MatrixQ.scale and SpanBasis's insert and contains, called on small
wrong values.

A seeded fuzz: each position takes a few valid values of its kind, or one
of SMALL, the values that a caller may pass by mistake, or, where a
sequence is expected, one that is empty, too short or too long.  Every
call must return, or raise TypeError, ValueError or one of ncspan's own
exceptions, and at least one call of each callable must return.
AttributeError is allowed only where a position that should hold a
MatrixQ (or a sequence of them), a SpanBasis, a SpanReport or a
Classification got something else: those positions are duck-typed, as
the README says.  No dimension above 3 is ever passed, so every call is
quick.
"""

import functools
import inspect
import itertools
import math
import random
from fractions import Fraction

import pytest

import ncspan
from ncspan import (
    Classification,
    MatrixQ,
    SampleConfig,
    SpanBasis,
    StepKind,
    classify_span,
    nontriviality_oracle,
    parse_poly,
)

SMALL = (-1, 0, 1, 2, 3, True, 2.0, Fraction(1, 2), None, "2")

_M1, _M2, _M3 = MatrixQ([[2]]), MatrixQ([[1, 2], [3, -1]]), MatrixQ([[0, 1, 0], [0, 0, 1], [1, 0, 0]])
_POLYS = [parse_poly(text) for text in ("X1", "[X1,X2]", "1/2*X1*X2 - X2*X1", "X1*X1*X2", "5", "0")]
_CFG = SampleConfig(seed=1, max_samples=3)

# The valid values of each kind of position; "number" has none beyond SMALL.
VALID = {
    "number": (),
    "value": ("FULL", "LIE_IDEAL", "DELTA", "X1"),
    "text": ("X1", "[X1,X2]", "1,2;3,4", "", "X1 +"),
    "poly": _POLYS,
    "cfg": (_CFG, SampleConfig()),
    "oracle": (lambda f: True, nontriviality_oracle(2, _CFG)),
    "word": ((), (1,), (1, 2, 1), (0,), [2, 1]),
    "rows": ([], [[1]], [[1, 2], [3]], [[1, 2], [3, 4]], [[1, 2], [3, 4], [5, 6]]),
    "numbers": ([], [1], [1, 2], [0, 0], [1, 2, 3]),
    "tuples": ((), (1,), ((1,), (2, 1))),
    "matrix": (_M1, _M2, _M3),
    "matrices": ((), (_M2,), (_M2, _M2), (_M2, _M2, _M2), (_M1, _M2)),
    "basis": (SpanBasis(2), SpanBasis.canonical(2, Classification.TRACE_ZERO), SpanBasis.canonical(3, Classification.SCALARS)),
    "report": tuple(classify_span(f, d, _CFG) for f in _POLYS[:3] for d in (1, 2)),
    "classification": tuple(Classification),
    "step_kind": tuple(StepKind),
}
# Kinds whose positions are duck-typed: a wrong value may raise AttributeError.
DUCK_TYPED = {
    "matrix": MatrixQ,
    "matrices": tuple,
    "basis": SpanBasis,
    "report": ncspan.SpanReport,
    "classification": Classification,
}
# Kinds whose positions draw from SMALL too; the rest take valid values only.
FUZZED = {"number", "value", "word", "rows", "numbers", "tuples", *DUCK_TYPED}

# The kind of each positional parameter of every callable in ncspan.__all__.
SIGNATURES = {
    "ArityMismatch": ("text",),
    "ConstantInput": ("text",),
    "DimensionMismatch": ("text",),
    "DuplicateNodes": ("text",),
    "NonzeroTrace": ("text",),
    "NotInSpan": ("text",),
    "NotReducible": ("text",),
    "OracleFailed": ("text",),
    "VariableCollision": ("text",),
    "ExponentNegative": ("text", "number", "number"),
    "ParseError": ("text", "number", "number"),
    "MissingAssignment": ("number",),
    "Classification": ("value",),
    "StopReason": ("value",),
    "StepKind": ("value",),
    "Word": ("word",),
    "MatrixQ": ("rows",),
    "NcPoly": ("tuples",),
    "SampleConfig": ("number", "number", "number"),
    "SpanBasis": ("number", "rows"),
    "SpanReport": ("poly", "number", "classification", "number", "text", "cfg", "number", "tuples"),
    "MultilinearReduction": ("poly", "poly", "tuples"),
    "ReductionStep": ("step_kind", "number", "number", "poly", "poly"),
    "classify_span": ("poly", "number", "cfg"),
    "commutator": ("matrix", "matrix"),
    "commutator_decomposition": ("matrix",),
    "cyclic_representative": ("word",),
    "decompose_target": ("report", "matrix"),
    "delta": ("poly", "number", "number"),
    "evaluate": ("poly", "matrices", "number"),
    "find_witness_dimension": ("poly", "number", "cfg"),
    "herstein_closure": ("matrix", "number"),
    "is_central": ("poly", "number", "cfg"),
    "is_identity": ("poly", "number", "cfg"),
    "lie_ideal_check": ("basis",),
    "matrix_to_text": ("matrix",),
    "nontriviality_oracle": ("number", "cfg"),
    "parse_matrix": ("text",),
    "parse_poly": ("text",),
    "poly_to_text": ("poly",),
    "reduce_to_multilinear": ("poly", "oracle"),
    "resubstitute_check": ("poly", "poly", "number", "number"),
    "unit_commutator": ("matrix", "number", "number"),
    "vandermonde_extract": ("numbers", "matrices"),
    "vanishing_rate": ("poly", "number", "cfg"),
    # The constructors and closed-form queries of the public classes,
    # MatrixQ's scaling, and SpanBasis's builder and membership test, self
    # first where the method takes one.
    "MatrixQ.zero": ("number",),
    "MatrixQ.identity": ("number",),
    "MatrixQ.diagonal": ("numbers",),
    "MatrixQ.unit": ("number", "number", "number"),
    "MatrixQ.unflatten": ("numbers", "number"),
    "MatrixQ.scale": ("matrix", "number"),
    "NcPoly.constant": ("number",),
    "NcPoly.variable": ("number",),
    "NcPoly.monomial": ("word", "number"),
    "SpanBasis.canonical": ("number", "classification"),
    "SpanBasis.insert": ("basis", "matrix"),
    "SpanBasis.contains": ("basis", "matrix"),
    "Classification.rank": ("classification", "number"),
    "Classification.contains": ("classification", "numbers", "number"),
    "Classification.lies_in": ("classification", "classification", "number"),
    "Classification.basis": ("classification", "number"),
    "Classification.bound": ("number", "number"),
}

# A callable with at most this many argument tuples is called on all of
# them, any other on DRAWS seeded draws.
EXHAUSTIVE, DRAWS = 2000, 300


def test_every_callable_has_a_signature():
    top_level = [name for name in SIGNATURES if "." not in name]
    assert sorted(top_level) == sorted(name for name in ncspan.__all__ if callable(getattr(ncspan, name)))
    # Each signature lists no fewer positions than its callable requires
    # and no more than it accepts, so a field or parameter added or removed
    # cannot leave every fuzzed call failing on its arity alone.
    positional = (inspect.Parameter.POSITIONAL_ONLY, inspect.Parameter.POSITIONAL_OR_KEYWORD)
    misfits = []
    for name, kinds in SIGNATURES.items():
        func = functools.reduce(getattr, name.split("."), ncspan)
        try:
            params = [p for p in inspect.signature(func).parameters.values() if p.kind in positional]
        except (TypeError, ValueError):  # the alias Word, and the exceptions that take *args
            assert name == "Word" or issubclass(func, Exception), name
            continue
        if not sum(p.default is p.empty for p in params) <= len(kinds) <= len(params):
            misfits.append(name)
    assert misfits == []


def _allowed(error: Exception, kinds: tuple, args: tuple) -> bool:
    if isinstance(error, (TypeError, ValueError)) or type(error).__module__.startswith("ncspan."):
        return True
    if isinstance(error, AttributeError):
        return any(kind in DUCK_TYPED and not isinstance(arg, DUCK_TYPED[kind]) for kind, arg in zip(kinds, args))
    return False


@pytest.mark.parametrize("name", sorted(SIGNATURES))
def test_refusals(name):
    func, kinds = functools.reduce(getattr, name.split("."), ncspan), SIGNATURES[name]
    pools = [(*VALID[kind], *SMALL) if kind in FUZZED else VALID[kind] for kind in kinds]
    if math.prod(map(len, pools)) <= EXHAUSTIVE:
        calls = itertools.product(*pools)
    else:
        rng = random.Random(name)
        calls = (tuple(map(rng.choice, pools)) for _ in range(DRAWS))
    returned = 0
    for args in calls:
        try:
            func(*args)
        except Exception as error:
            assert _allowed(error, kinds, args), f"{name}{args!r} raised {error!r}"
        else:
            returned += 1
    # A callable that refuses every call is fuzzed on nothing it accepts:
    # a stale signature or an empty VALID pool, not a robust callable.
    assert returned, f"{name} refused every fuzzed call"

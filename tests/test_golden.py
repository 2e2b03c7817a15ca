"""CLI stdout compared byte for byte with the outputs recorded in tests/golden/.

The same seed and flags must keep giving the same stdout.  After an
intended output change (which also bumps the schema), regenerate with

    PYTHONPATH=src python tests/test_golden.py
"""

import contextlib
import io
import json
import os
from fractions import Fraction
from pathlib import Path

import pytest

from helpers import standard_polynomial
import ncspan.cli
from ncspan.cli import _config, build_parser, main
from ncspan.span import classify_span, decompose_target
from ncspan.text import parse_matrix, parse_poly, poly_to_text

GOLDEN = Path(__file__).parent / "golden"

# Output file name -> CLI arguments, run from inside GOLDEN.
CASES = {
    f"suite-d{d}-seed{seed}.json": (
        "suite", "--corpus", "corpus.txt", "--dim", str(d), "--seed", str(seed)
    )
    for d in (2, 3)
    for seed in (0, 7919)
}
# A budget of one sample: at seed 0 it is a value of trace 0 for X1, and a
# scalar one for X1*X1 (a trace-zero 2 x 2 matrix squares to a scalar).
# Below degree 2d the budget cuts only the search for rows, not the class:
# both are FULL by the degree theorem, X1*X1 is not called central, so it
# is reduced, and no entry shows a violation.  So this budget, like those
# of 2 and 3 and seed 7919's, prints suite-d2's document.
CASES["suite-budget1-d2-seed0.json"] = (
    "suite", "--corpus", "corpus.txt", "--dim", "2", "--seed", "0", "--max-samples", "1"
)
CASES.update(
    {
        f"witness-{name}-seed{seed}.json": (
            "witness", "--poly", text, "--dmax", "3", "--seed", str(seed)
        )
        for name, text in (
            ("X1", "X1"),
            ("hall", "[X1,X2]^2"),
            ("s4", poly_to_text(standard_polynomial(4))),
        )
        for seed in (0, 7919)
    }
)

# Trace zero on M_2, where S_4 vanishes, but not a sum of commutators.
TRACE_ZERO_NON_SUM = poly_to_text(parse_poly("[X1,X2]") + standard_polynomial(4) * parse_poly("X5"))

# Each classify stop reason, and a budget that cuts a sampled class short.
CASES.update(
    {
        f"classify-{name}-seed{seed}.json": (
            "classify", "--poly", text, "--dim", str(d), "--seed", str(seed), *extra
        )
        for name, text, d, extra in (
            ("commutator-d3", "[X1,X2]", 3, ()),  # TRACE_ZERO by LIE_IDEAL
            ("product-d3", "X1*X2", 3, ()),  # FULL by LIE_IDEAL
            ("hall-d2", "[X1,X2]^2", 2, ()),  # SCALARS by STABILITY_WINDOW
            ("budget3-d2", "[X1,X2]^2", 2, ("--max-samples", "3")),  # SCALARS by BUDGET_EXHAUSTED
            ("nonsum-budget2-d2", TRACE_ZERO_NON_SUM, 2, ("--max-samples", "2")),  # TRACE_ZERO by BUDGET_EXHAUSTED
        )
        for seed in (0, 7919)
    }
)

# decompose cases: file name -> (CLI arguments, exit code).  The budget case
# solves for a value of [X1,X2] under --max-samples 3 (the last witness of the
# rank loop's partial report of that seed, which ncspan/3 printed); the trace
# case exits 1 (NotInSpan).
DECOMPOSE = {
    f"decompose-{name}-seed{seed}.json": (
        ("decompose", "--poly", text, "--dim", "3", "--seed", str(seed), "--target", target, *extra),
        code,
    )
    for seed, witness in (
        (0, "90,-156,1;-120,-80,-43;-196,-20,-10"),
        (7919, "-1,87,8;-158,52,-24;124,52,-51"),
    )
    for name, text, target, extra, code in (
        ("commutator-d3", "[X1,X2]", "1,2,0;0,0,1;3,0,-1", (), 0),
        ("product-d3", "X1*X2", "1,2,3;4,5,6;7,8,10", (), 0),
        ("trace-d3", "[X1,X2]", "1,0,0;0,0,0;0,0,0", (), 1),
        ("budget3-d3", "[X1,X2]", witness, ("--max-samples", "3"), 0),
    )
}
CASES.update({name: argv for name, (argv, _) in DECOMPOSE.items()})

# linearize cases: file name -> (CLI arguments, exit code).  Between them
# they record every step kind; [X1,X2]^2 is central at d=2 and a constant
# cannot be reduced, so both exit 1.
LINEARIZE = {
    f"linearize-{name}-seed{seed}.json": (
        ("linearize", "--poly", text, "--dim", str(d), "--seed", str(seed)),
        code,
    )
    for seed in (0, 7919)
    for name, text, d, code in (
        ("cube-d2", "X1^3", 2, 0),  # DELTA, HOMOGENEOUS_SELECT, DELTA
        ("wide-d2", "(X1+X2)^4", 2, 0),  # three DELTAs, on words with X_i up to 4 times
        ("strip-kept-d2", "X1*X2 + X1^4", 2, 0),  # STRIP keeps X2
        ("strip-dropped-d3", "X1*X3 + X3*X1*X3 + X1^2*X3", 3, 0),  # STRIP, 2 selects
        ("hall-d2", "[X1,X2]^2", 2, 1),  # OracleFailed
        ("constant-d2", "1", 2, 1),  # NotReducible
    )
}
CASES.update({name: argv for name, (argv, _) in LINEARIZE.items()})


def _run(argv) -> tuple[int, str]:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main(list(argv))
    return code, out.getvalue()


def _stdout(argv) -> str:
    return _run(argv)[1]


@pytest.mark.parametrize("name", sorted(CASES))
def test_stdout_matches_golden(name, monkeypatch):
    monkeypatch.chdir(GOLDEN)
    assert _stdout(CASES[name]) == (GOLDEN / name).read_text(encoding="utf-8")


@pytest.mark.parametrize("name", sorted(CASES))
def test_ser_rows_agrees_with_format_scalar(name, monkeypatch):
    """Every matrix a golden run prints is the str of a report's exact
    entries, each an int or a Fraction: classify's basis and witnesses,
    written from the sampling loop's integer rows, and decompose's inputs,
    which are the report's _inputs entries."""
    monkeypatch.chdir(GOLDEN)
    out = _stdout(CASES[name])
    assert out == (GOLDEN / name).read_text(encoding="utf-8")
    command = CASES[name][0]
    if command not in ("classify", "decompose"):
        return
    args = build_parser(command).parse_args(ncspan.cli._attach_literals(list(CASES[name])))
    report = classify_span(parse_poly(args.poly), args.dim, _config(args))
    matrices = [report.basis.rows] + [m.rows for tup, v in report.witnesses for m in (*tup, v)]
    assert {type(x) for rows in matrices for row in rows for x in row} <= {int, Fraction}

    def text(rows):
        return [[str(x) for x in row] for row in rows]

    doc = json.loads(out)
    if command == "decompose":
        # Outside the span decompose prints no terms.
        assert ("terms" in doc) == ("trace" not in name)
        terms = decompose_target(report, parse_matrix(args.target)) if "terms" in doc else []
        assert all(any(tup is t for t in report._inputs) for _, tup in terms)
        assert doc.get("terms", []) == [
            {"coefficient": str(lam), "inputs": [text(a.rows) for a in tup]} for lam, tup in terms
        ]
        return
    assert doc["basis"] == text(report.basis.rows)
    assert doc["witnesses"] == [
        {"inputs": [text(a.rows) for a in tup], "value": text(v.rows)} for tup, v in report.witnesses
    ]
    assert doc["witnesses"]


def test_one_sample_budget_prints_the_default_suite():
    """Below degree 2d a budget cuts no class, so suite on the corpus at
    d=2 prints the same document with one sample as with the default budget."""
    assert (GOLDEN / "suite-budget1-d2-seed0.json").read_text(encoding="utf-8") == (
        GOLDEN / "suite-d2-seed0.json"
    ).read_text(encoding="utf-8")


@pytest.mark.parametrize("name", sorted(DECOMPOSE))
def test_decompose_exit_code(name, monkeypatch):
    argv, code = DECOMPOSE[name]
    monkeypatch.chdir(GOLDEN)
    assert _run(argv)[0] == code


@pytest.mark.parametrize("name", sorted(LINEARIZE))
def test_linearize_exit_code(name, monkeypatch):
    argv, code = LINEARIZE[name]
    monkeypatch.chdir(GOLDEN)
    assert _run(argv)[0] == code


if __name__ == "__main__":
    os.chdir(GOLDEN)
    for name, argv in sorted(CASES.items()):
        Path(name).write_text(_stdout(argv), encoding="utf-8")
        print(name)

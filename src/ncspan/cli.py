"""Command-line driver: parse polynomials, run analyses, emit JSON reports.

Exit codes: 0 success, 1 negative analysis outcome (e.g. target not in
span, no witness dimension), 2 usage or parse error, 64 an UNDETERMINED
classification.  All rationals in JSON are "p/q" strings so nothing is
ever rounded; identical seeds and flags give byte-identical output.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import sys

from .linalg import Classification, DimensionMismatch, MatrixQ, NotInSpan
from .linearize import (
    NotReducible,
    OracleFailed,
    reduce_to_multilinear,
)
from .poly import NcPoly
from .span import (
    SampleConfig,
    SpanReport,
    _fresh_bracket,
    classify_span,
    decompose_target,
    evaluate,
    is_identity,
    lie_ideal_check,
    nontriviality_oracle,
    vanishing_rate,
)
from .text import (
    ParseError,
    format_scalar,
    matrix_to_text,
    parse_matrix,
    parse_poly,
    poly_to_text,
)

SCHEMA = "ncspan/3"

EXIT_OK = 0
EXIT_NEGATIVE = 1
EXIT_USAGE = 2
EXIT_UNDETERMINED = 64


def _default_seed() -> int:
    raw = os.environ.get("NCSPAN_SEED", "0")
    try:
        return int(raw)
    except ValueError:
        raise SystemExit(f"ncspan: NCSPAN_SEED must be an integer, got {raw!r}")


def _config(args) -> SampleConfig:
    seed = args.seed if args.seed is not None else _default_seed()
    return SampleConfig(
        seed=seed,
        coeff_bound=args.coeff_bound,
        max_samples=args.max_samples,
        stability_window=args.stability_window,
    )


def _emit(doc: dict) -> None:
    print(json.dumps(doc, indent=2))


def _ser_rows(rows) -> list[list[str]]:
    return [[format_scalar(x) for x in row] for row in rows]


def _exclusion_flags(report: SpanReport) -> tuple[bool, bool | None, bool]:
    """(applicable, consistent-or-None, sum_of_commutators)."""
    f = report.poly
    comm = f.is_sum_of_commutators()
    deg = f.degree()
    applicable = deg is not None and deg >= 1 and 2 * report.dim > deg
    if not applicable or report.classification is Classification.UNDETERMINED:
        return applicable, None, comm
    cls = report.classification
    consistent = cls in (Classification.TRACE_ZERO, Classification.FULL) and (
        (cls is Classification.TRACE_ZERO) == comm
    )
    return applicable, consistent, comm


def _report_doc(report: SpanReport) -> dict:
    applicable, consistent, comm = _exclusion_flags(report)
    return {
        "schema": SCHEMA,
        "polynomial": poly_to_text(report.poly),
        "dim": report.dim,
        "seed": report.config.seed,
        "classification": report.classification.value,
        "rank": report.basis.rank,
        "basis": _ser_rows(report.basis.rows),
        "witnesses": [
            {
                "inputs": [_ser_rows(a.rows) for a in args],
                "value": _ser_rows(value.rows),
            }
            for args, value in report.witnesses
        ],
        "samples_used": report.samples_used,
        "consistency_flags": {
            "lie_ideal": lie_ideal_check(report.basis),
            "sum_of_commutators": comm,
            "degree_exclusion_applicable": applicable,
            "degree_exclusion_consistent": consistent,
            "stop_reason": report.stop_reason.value,
        },
    }


def _cmd_classify(args) -> int:
    f = parse_poly(args.poly)
    cfg = _config(args)
    report = classify_span(f, args.dim, cfg)
    if args.format == "text":
        print(f"polynomial:     {poly_to_text(report.poly)}")
        print(f"dimension:      {report.dim}")
        print(f"classification: {report.classification.value}")
        print(f"rank:           {report.basis.rank}")
        print(f"samples used:   {report.samples_used}")
        print(f"seed:           {report.config.seed}")
    else:
        _emit(_report_doc(report))
    if report.classification is Classification.UNDETERMINED:
        return EXIT_UNDETERMINED
    return EXIT_OK


def _cmd_witness(args) -> int:
    f = parse_poly(args.poly)
    cfg = _config(args)
    per_dim = []
    found = None
    for d in range(1, args.dmax + 1):
        ident = is_identity(f, d, cfg)
        # Central: not an identity, but its bracket with a fresh variable is.
        central = not ident and is_identity(_fresh_bracket(f), d, cfg)
        # The bound per_sample ** samples stays factored: it can have thousands of digits.
        per_sample, samples = vanishing_rate(f, d, cfg)
        per_dim.append(
            {
                "dim": d,
                "identity": ident,
                "central": central,
                "vanishing_bound": {"per_sample": format_scalar(per_sample), "samples": samples},
            }
        )
        if not ident and not central:
            found = d
            break
    _emit(
        {
            "schema": SCHEMA,
            "polynomial": poly_to_text(f),
            "dmax": args.dmax,
            "witness_dimension": found,
            "tested": per_dim,
        }
    )
    return EXIT_OK if found is not None else EXIT_NEGATIVE


def _cmd_linearize(args) -> int:
    f = parse_poly(args.poly)
    cfg = _config(args)
    oracle = nontriviality_oracle(args.dim, cfg)
    try:
        reduction = reduce_to_multilinear(f, oracle)
    except (OracleFailed, NotReducible) as exc:
        _emit(
            {
                "schema": SCHEMA,
                "polynomial": poly_to_text(f),
                "dim": args.dim,
                "error": type(exc).__name__,
                "message": str(exc),
            }
        )
        return EXIT_NEGATIVE
    _emit(
        {
            "schema": SCHEMA,
            "polynomial": poly_to_text(f),
            "dim": args.dim,
            "seed": cfg.seed,
            "output": poly_to_text(reduction.output),
            "steps": [
                {
                    "kind": step.kind.value,
                    "variable": step.variable,
                    "detail": step.detail,
                    "before": poly_to_text(step.before),
                    "after": poly_to_text(step.after),
                }
                for step in reduction.steps
            ],
        }
    )
    return EXIT_OK


def _cmd_commtest(args) -> int:
    f = parse_poly(args.poly)
    obstruction = f.commutator_obstruction()
    _emit(
        {
            "schema": SCHEMA,
            "polynomial": poly_to_text(f),
            "sum_of_commutators": obstruction is None,
            "witness_class": (
                None
                if obstruction is None
                else "*".join(f"X{i}" for i in obstruction) or "1"
            ),
        }
    )
    return EXIT_OK if obstruction is None else EXIT_NEGATIVE


def _cmd_decompose(args) -> int:
    f = parse_poly(args.poly)
    try:
        target = parse_matrix(args.target)
    except (ValueError, DimensionMismatch) as exc:
        print(f"ncspan: bad --target literal: {exc}", file=sys.stderr)
        return EXIT_USAGE
    if target.dim != args.dim:
        print(
            f"ncspan: target is {target.dim}x{target.dim}, --dim is {args.dim}",
            file=sys.stderr,
        )
        return EXIT_USAGE
    cfg = _config(args)
    report = classify_span(f, args.dim, cfg)
    try:
        terms = decompose_target(report, target)
    except NotInSpan as exc:
        _emit(
            {
                "schema": SCHEMA,
                "polynomial": poly_to_text(f),
                "dim": args.dim,
                "target": matrix_to_text(target),
                "classification": report.classification.value,
                "error": "NotInSpan",
                "message": str(exc),
            }
        )
        return EXIT_NEGATIVE
    total = MatrixQ.zero(args.dim)
    for lam, tup in terms:
        total = total + evaluate(f, tup, dim=args.dim).scale(lam)
    _emit(
        {
            "schema": SCHEMA,
            "polynomial": poly_to_text(f),
            "dim": args.dim,
            "seed": cfg.seed,
            "target": matrix_to_text(target),
            "classification": report.classification.value,
            "terms": [
                {
                    "coefficient": format_scalar(lam),
                    "inputs": [_ser_rows(a.rows) for a in tup],
                }
                for lam, tup in terms
            ],
            "verified": total == target,
        }
    )
    return EXIT_OK


def _read_corpus(path: str) -> list[tuple[int, str]]:
    entries = []
    with open(path, encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            # Leading blanks stay, so parse columns are columns of the file.
            text = line.split("#", 1)[0].rstrip()
            if text.strip():
                entries.append((lineno, text))
    return entries


def _suite_entry(lineno: int, f: NcPoly, d: int, cfg: SampleConfig) -> dict:
    report = classify_span(f, d, cfg)
    applicable, consistent, comm = _exclusion_flags(report)
    if report.classification is Classification.UNDETERMINED:
        exclusion = "undetermined"
    elif not applicable:
        exclusion = "inapplicable"
    else:
        exclusion = "consistent" if consistent else "violated"
    entry = {
        "line": lineno,
        "polynomial": poly_to_text(f),
        "classification": report.classification.value,
        "rank": report.basis.rank,
        "lie_ideal": lie_ideal_check(report.basis),
        "sum_of_commutators": comm,
        "exclusion": exclusion,
        "reduction": None,
    }
    # One verdict per polynomial: the reduction asks again about f, and about
    # its output, which is f itself when there are no steps.
    oracle = functools.cache(nontriviality_oracle(d, cfg))
    if not f.is_constant() and oracle(f):
        try:
            reduction = reduce_to_multilinear(f, oracle)
        except OracleFailed as exc:
            entry["reduction"] = {"error": "OracleFailed", "message": str(exc)}
            return entry
        # The steps chain from f, so each polynomial is classified once.
        bases = [report.basis] + [
            classify_span(step.after, d, cfg).basis for step in reduction.steps
        ]
        containments = all(
            after.is_subspace_of(before) for before, after in zip(bases, bases[1:])
        )
        entry["reduction"] = {
            "steps": len(reduction.steps),
            "output": poly_to_text(reduction.output),
            "multilinear": reduction.output.is_multilinear(),
            "oracle_true": oracle(reduction.output),
            "containments_ok": containments,
        }
    return entry


def _cmd_suite(args) -> int:
    cfg = _config(args)
    try:
        corpus = _read_corpus(args.corpus)
    except (OSError, UnicodeDecodeError) as exc:
        print(f"ncspan: cannot read corpus: {exc}", file=sys.stderr)
        return EXIT_USAGE
    entries = []
    for lineno, text in corpus:
        try:
            f = parse_poly(text)
        except ParseError as exc:
            print(f"ncspan: {args.corpus}:{lineno}: {exc.message} (column {exc.col})", file=sys.stderr)
            return EXIT_USAGE
        entries.append(_suite_entry(lineno, f, args.dim, cfg))
    violations = sum(
        1
        for e in entries
        if not e["lie_ideal"]
        or e["exclusion"] == "violated"
        or (
            e["reduction"] is not None
            and not (
                "error" not in e["reduction"]
                and e["reduction"]["multilinear"]
                and e["reduction"]["oracle_true"]
                and e["reduction"]["containments_ok"]
            )
        )
    )
    undetermined = sum(
        1 for e in entries if e["classification"] == Classification.UNDETERMINED.value
    )
    _emit(
        {
            "schema": SCHEMA,
            "dim": args.dim,
            "seed": cfg.seed,
            "corpus": args.corpus,
            "entries": entries,
            "summary": {
                "total": len(entries),
                "violations": violations,
                "undetermined": undetermined,
            },
        }
    )
    if violations:
        return EXIT_NEGATIVE
    if undetermined:
        return EXIT_UNDETERMINED
    return EXIT_OK


def _positive_int(text: str) -> int:
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be a positive integer, got {value}")
    return value


def _add_sampling_flags(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--seed", type=int, default=None, help="RNG seed (default: $NCSPAN_SEED or 0)")
    sub.add_argument("--max-samples", type=_positive_int, default=None, help="sampling budget (default: 64*d^2)")
    sub.add_argument("--coeff-bound", type=_positive_int, default=10, help="entry bound B for random matrices")
    sub.add_argument("--stability-window", type=_positive_int, default=50, help="stall length before classifying")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ncspan",
        description="Classify linear spans of noncommutative polynomial values on M_d(Q).",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("classify", help="classify the span of values on M_d")
    p.add_argument("--poly", required=True, help="polynomial, e.g. 'X1*X2 - X2*X1'")
    p.add_argument("--dim", type=_positive_int, required=True)
    p.add_argument("--format", choices=("json", "text"), default="json")
    _add_sampling_flags(p)
    p.set_defaults(func=_cmd_classify)

    p = sub.add_parser("witness", help="smallest d where the polynomial is neither identity nor central")
    p.add_argument("--poly", required=True)
    p.add_argument("--dmax", type=_positive_int, required=True)
    _add_sampling_flags(p)
    p.set_defaults(func=_cmd_witness)

    p = sub.add_parser("linearize", help="reduce to a multilinear polynomial with a step transcript")
    p.add_argument("--poly", required=True)
    p.add_argument("--dim", type=_positive_int, required=True)
    _add_sampling_flags(p)
    p.set_defaults(func=_cmd_linearize)

    p = sub.add_parser("commtest", help="test membership in the span of commutators")
    p.add_argument("--poly", required=True)
    p.set_defaults(func=_cmd_commtest)

    p = sub.add_parser("decompose", help="write a target matrix as a combination of values")
    p.add_argument("--poly", required=True)
    p.add_argument("--dim", type=_positive_int, required=True)
    p.add_argument("--target", required=True, help="matrix literal, e.g. '1,0;0,-1'")
    _add_sampling_flags(p)
    p.set_defaults(func=_cmd_decompose)

    p = sub.add_parser("suite", help="batch consistency report over a corpus file")
    p.add_argument("--corpus", required=True, help="file with one polynomial per line, '#' comments")
    p.add_argument("--dim", type=_positive_int, required=True)
    _add_sampling_flags(p)
    p.set_defaults(func=_cmd_suite)

    return parser


# Options whose value is a polynomial or matrix literal.  Such a value may
# start with "-" ("-2*X1", "-1,0;0,1"), which argparse would take for an
# option, so each is passed on attached to its option as "--poly=-2*X1".
_LITERAL_OPTIONS = ("--poly", "--target")


def _attach_literals(argv: list[str]) -> list[str]:
    out = []
    args = iter(argv)
    for arg in args:
        if arg in _LITERAL_OPTIONS:
            value = next(args, None)
            if value is not None:
                arg = f"{arg}={value}"
        out.append(arg)
    return out


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(_attach_literals(sys.argv[1:] if argv is None else argv))
    try:
        return args.func(args)
    except ParseError as exc:
        print(f"ncspan: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())

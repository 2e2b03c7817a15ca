"""Command-line driver: parse polynomials, run analyses, emit JSON reports.

Exit codes: 0 success, 1 negative analysis outcome (e.g. target not in
span, no witness dimension, a suite violation), 2 usage or parse error,
141 (128 + SIGPIPE) when stdout's reader closed the pipe, with no message.
All rationals in JSON are "p/q" strings so nothing is ever rounded;
identical seeds and flags give byte-identical output.

classify and decompose read span.classify_span's report, which names one
of the four canonical spaces, by theorem below degree 2d, and builds its
witness matrices only when they are read: decompose reads them, classify
prints its witnesses straight from the report's integer rows and its
basis from the class (Classification.basis), and no command builds a
SpanBasis.  suite builds no report: it reads each class alone
(span._class_of), with no sample below degree 2d, and compares classes
in closed form.  Every document is json.dumps(doc, indent=2).
classify's is one skeleton: that dump with its basis and witnesses
replaced by matrices of "%s" slots laid out by hand (_grid), all filled
by one format call.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import itertools
import json
import math
import os
import re
import sys

from .linalg import Classification, DimensionMismatch, NotInSpan, _cleared, check_dimension
from .linearize import (
    NotReducible,
    OracleFailed,
    reduce_to_multilinear,
)
from .poly import NcPoly
from .span import (
    SampleConfig,
    SpanReport,
    _class_of,
    _dimensions,
    classify_span,
    decompose_target,
    evaluate,
    nontriviality_oracle,
    vanishing_rate,
)
from .text import (
    ParseError,
    matrix_to_text,
    parse_matrix,
    parse_poly,
    poly_to_text,
)

SCHEMA = "ncspan/6"

EXIT_OK = 0
EXIT_NEGATIVE = 1
EXIT_USAGE = 2
EXIT_PIPE = 141


class _UsageError(Exception):
    """Bad input outside the polynomial grammar: main prints it and exits 2."""


def _config(args) -> SampleConfig:
    # An unset option is None and left to SampleConfig; --seed falls back on $NCSPAN_SEED.
    given = {"seed": args.seed, "coeff_bound": args.coeff_bound, "max_samples": args.max_samples}
    raw = os.environ.get("NCSPAN_SEED")
    if args.seed is None and raw is not None:
        try:
            given["seed"] = _int(raw)
        except argparse.ArgumentTypeError:
            raise _UsageError(f"NCSPAN_SEED must be an integer, got {raw!r}") from None
    return SampleConfig(**{k: v for k, v in given.items() if v is not None})


def _grid(rows: int, cols: int, indent: str) -> str:
    """json.dumps([["%s"] * cols] * rows, indent=2), cols >= 1, with each
    line break written as indent: one format call fills a matrix into it."""
    inner = indent + "  "
    row = f"[{inner}  " + f",{inner}  ".join(['"%s"'] * cols) + f"{inner}]"
    return "[" + inner + f",{inner}".join([row] * rows) + indent + "]" if rows else "[]"


def _emit(doc: dict) -> None:
    print(json.dumps(doc, indent=2))


def _doc(f: NcPoly, **fields) -> dict:
    """A per-polynomial document: the schema and f's text, then fields in order."""
    return {"schema": SCHEMA, "polynomial": poly_to_text(f), **fields}


def _exclusion_flags(f: NcPoly, d: int, cls: Classification, commutator_sum: bool) -> tuple[bool, bool | None]:
    """(applicable, consistent-or-None) for the degree exclusion of f's
    class cls on M_d: for 1 <= deg f < 2d it is Classification.bound
    (span._degree_decides).  A self-check, and at d = 1 (deg f = 1, never
    a sum of commutators; SCALARS = FULL) the only check of a budget-cut class."""
    if not 1 <= (f.degree() or 0) < 2 * d:
        return False, None
    return True, cls is Classification.bound(d, commutator_sum)


_LIE_IDEAL = True  # every canonical space is a Lie ideal: see span.lie_ideal_check


# The break before the value of a top-level field of a document.
_FIELD = "\n  "


def _witnesses(s: SpanReport) -> tuple[str, list[tuple]]:
    """The witnesses field of classify's document as "%s" slots, and the
    cells that fill them, a tuple per witness read off the grown rows
    (t_k, L * f(t_k)).  json.dumps lays out the list and one witness's
    frame, and _grid each of its d x d matrices: an input entry is an int,
    a value entry x/L in lowest terms, as str(Fraction(x, L)) prints it."""
    item, d = _FIELD + "  ", s.dim  # the break before each witness
    frame = json.dumps({"inputs": ["\0"] * s.poly.nvars, "value": "\1"}, indent=2).replace("\n", item)
    inputs, value = _grid(d, d, item + "    "), _grid(d, d, item + "  ")
    frame = frame.replace('"\\u0000"', inputs).replace('"\\u0001"', value)
    template = json.dumps(["\0"] * len(s.grown), indent=2).replace("\n", _FIELD).replace('"\\u0000"', frame)
    scale, gcd = s.poly.integer_form()[0], math.gcd
    cells = [(*entries, *(vec if scale == 1 else [
        x // g if (g := gcd(x, scale)) == scale else f"{x // g}/{scale // g}" for x in vec
    ])) for entries, vec in s.grown]
    return template, cells


def _cmd_classify(args) -> int:
    f = parse_poly(args.poly)
    cfg = _config(args)
    s = classify_span(f, args.dim, cfg)
    if args.format == "text":
        print(f"polynomial:     {poly_to_text(f)}")
        print(f"dimension:      {s.dim}")
        print(f"classification: {s.classification.value}")
        print(f"rank:           {s.rank}")
        print(f"samples used:   {s.samples_used}")
        print(f"stop reason:    {s.stop_reason.value}")
        print(f"seed:           {cfg.seed}")
    else:
        rows = s.classification.basis(s.dim)
        witnesses, cells = _witnesses(s)
        applicable, consistent = _exclusion_flags(f, s.dim, s.classification, s.sum_of_commutators)
        # The basis and witnesses are dumped as "\0" and "\1", then laid out as "%s"
        # slots: poly_to_text prints no NUL, \1 or %, so no other text matches.
        doc = _doc(
            f,
            dim=s.dim,
            seed=cfg.seed,
            classification=s.classification.value,
            rank=s.rank,
            basis="\0",
            witnesses="\1",
            samples_used=s.samples_used,
            consistency_flags={
                "lie_ideal": _LIE_IDEAL,
                "sum_of_commutators": s.sum_of_commutators,
                "degree_exclusion_applicable": applicable,
                "degree_exclusion_consistent": consistent,
                "stop_reason": s.stop_reason.value,
            },
        )
        basis = _grid(len(rows), s.dim**2, _FIELD)
        skeleton = json.dumps(doc, indent=2).replace('"\\u0000"', basis).replace('"\\u0001"', witnesses)
        print(skeleton % tuple(itertools.chain(*rows, *cells)))
    return EXIT_OK


def _cmd_witness(args) -> int:
    f = parse_poly(args.poly)
    cfg = _config(args)
    per_dim = []
    found = None
    for d, ident, central in _dimensions(f, args.dmax, cfg):
        # The bound per_sample ** samples stays factored: it can have thousands of digits.
        per_sample, samples = vanishing_rate(f, d, cfg)
        bound = {"per_sample": str(per_sample), "samples": samples}
        per_dim.append({"dim": d, "identity": ident, "central": central, "vanishing_bound": bound})
        found = None if ident or central else d
    _emit(_doc(f, dmax=args.dmax, witness_dimension=found, tested=per_dim))
    return EXIT_OK if found is not None else EXIT_NEGATIVE


def _cmd_linearize(args) -> int:
    f = parse_poly(args.poly)
    cfg = _config(args)
    oracle = nontriviality_oracle(args.dim, cfg)
    try:
        reduction = reduce_to_multilinear(f, oracle)
    except (OracleFailed, NotReducible) as exc:
        _emit(_doc(f, dim=args.dim, error=type(exc).__name__, message=str(exc)))
        return EXIT_NEGATIVE
    _emit(
        _doc(
            f,
            dim=args.dim,
            seed=cfg.seed,
            output=poly_to_text(reduction.output),
            steps=[
                {
                    "kind": step.kind.value,
                    "variable": step.variable,
                    "detail": step.detail,
                    "before": poly_to_text(step.before),
                    "after": poly_to_text(step.after),
                }
                for step in reduction.steps
            ],
        )
    )
    return EXIT_OK


def _cmd_commtest(args) -> int:
    f = parse_poly(args.poly)
    obstruction = f.commutator_obstruction()
    witness = None if obstruction is None else poly_to_text(NcPoly.monomial(obstruction))
    _emit(_doc(f, sum_of_commutators=obstruction is None, witness_class=witness))
    return EXIT_OK if obstruction is None else EXIT_NEGATIVE


def _cmd_decompose(args) -> int:
    f = parse_poly(args.poly)
    try:
        target = parse_matrix(args.target)
    except (ValueError, DimensionMismatch) as exc:
        raise _UsageError(f"bad --target literal: {exc}") from None
    if target.dim != args.dim:
        raise _UsageError(f"target is {target.dim}x{target.dim}, --dim is {args.dim}")
    cfg = _config(args)
    report = classify_span(f, args.dim, cfg)
    try:
        terms = decompose_target(report, target)
    except NotInSpan as exc:
        _emit(
            _doc(
                f,
                dim=args.dim,
                target=matrix_to_text(target),
                classification=report.classification.value,
                error="NotInSpan",
                message=str(exc),
            )
        )
        return EXIT_NEGATIVE
    # The check re-evaluates f at each tuple: sum lam * f(t) - target, cleared into integers, is 0.
    _, vecs = _cleared([*(evaluate(f, tup, dim=args.dim).flatten() for _, tup in terms), target.flatten()])
    _, (lams,) = _cleared([[*(lam for lam, _ in terms), -1]])
    verified = not any(map(sum, zip(*(map(k.__mul__, vec) for k, vec in zip(lams, vecs)))))
    _emit(
        _doc(
            f,
            dim=args.dim,
            seed=cfg.seed,
            target=matrix_to_text(target),
            classification=report.classification.value,
            terms=[
                {"coefficient": str(lam), "inputs": [[list(map(str, row)) for row in a.rows] for a in tup]}
                for lam, tup in terms
            ],
            verified=verified,
        )
    )
    return EXIT_OK


def _read_corpus(path: str) -> list[tuple[int, NcPoly]]:
    """(line number, polynomial) of each line with one, comments cut.

    A UTF-8 byte order mark at the start of the file is skipped
    (utf-8-sig); one anywhere else is an unexpected character.
    Undecodable bytes are read as lone surrogates (surrogateescape), which
    valid UTF-8 never yields, so the first one is refused, naming its line
    and column, before any line is parsed.
    """
    texts = []
    try:
        with open(path, encoding="utf-8-sig", errors="surrogateescape") as fh:
            for lineno, line in enumerate(fh, start=1):
                try:
                    line.encode("utf-8")
                except UnicodeEncodeError as exc:
                    byte = ord(line[exc.start]) - 0xDC00
                    raise _UsageError(
                        f"{path}:{lineno}: not valid UTF-8 (byte 0x{byte:02x} at column {exc.start + 1})"
                    ) from None
                # Leading blanks stay, so parse columns are columns of the file.
                text = line.split("#", 1)[0].rstrip()
                if text.strip():
                    texts.append((lineno, text))
    except OSError as exc:
        raise _UsageError(f"cannot read corpus: {exc}") from None
    except ValueError as exc:  # a path open() refuses, such as one with a NUL byte
        raise _UsageError(str(exc)) from None
    entries = []
    for lineno, text in texts:
        try:
            entries.append((lineno, parse_poly(text)))
        except ParseError as exc:
            raise _UsageError(f"{path}:{lineno}: {exc.message} (column {exc.col})") from None
    return entries


def _suite_entry(lineno: int, f: NcPoly, d: int, cfg: SampleConfig) -> tuple[dict, bool]:
    """f's suite entry, and whether it shows a violation.  It reads the
    class of f and of each step alone (span._class_of): below degree 2d
    nothing is sampled."""
    cls, commutator_sum = _class_of(f, d, cfg)
    applicable, consistent = _exclusion_flags(f, d, cls, commutator_sum)
    if not applicable:
        exclusion = "inapplicable"
    else:
        exclusion = "consistent" if consistent else "violated"
    entry = {
        "line": lineno,
        "polynomial": poly_to_text(f),
        "classification": cls.value,
        "rank": cls.rank(d),
        "lie_ideal": _LIE_IDEAL,
        "sum_of_commutators": commutator_sum,
        "exclusion": exclusion,
        "reduction": None,
    }
    violated = exclusion == "violated"
    # One verdict per polynomial: the reduction asks again about f, and about
    # its output, which is f itself when there are no steps.
    oracle = functools.cache(nontriviality_oracle(d, cfg))
    if not f.is_constant() and oracle(f):
        try:
            reduction = reduce_to_multilinear(f, oracle)
        except OracleFailed as exc:
            entry["reduction"] = {"error": "OracleFailed", "message": str(exc)}
            return entry, True
        # The steps chain from f, so each polynomial is classified once, and
        # each step's class must lie in the one before, in closed form.
        classes = [cls] + [_class_of(step.after, d, cfg)[0] for step in reduction.steps]
        containments = all(after.lies_in(before, d) for before, after in zip(classes, classes[1:]))
        multilinear = reduction.output.is_multilinear()
        oracle_true = oracle(reduction.output)
        entry["reduction"] = {
            "steps": len(reduction.steps),
            "output": poly_to_text(reduction.output),
            "multilinear": multilinear,
            "oracle_true": oracle_true,
            "containments_ok": containments,
        }
        violated = violated or not (multilinear and oracle_true and containments)
    return entry, violated


def _cmd_suite(args) -> int:
    cfg = _config(args)
    entries = []
    violations = 0
    for lineno, f in _read_corpus(args.corpus):
        entry, violated = _suite_entry(lineno, f, args.dim, cfg)
        entries.append(entry)
        violations += violated
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
                # Kept for readers of the summary: every entry names a class.
                "undetermined": 0,
            },
        }
    )
    return EXIT_NEGATIVE if violations else EXIT_OK


def _int(text: str) -> int:
    """Every integer on the command line: -?[0-9]+, where int() alone also
    reads other scripts' digits, "_", "+" and surrounding blanks."""
    if re.fullmatch("-?[0-9]+", text):
        with contextlib.suppress(ValueError):  # past int()'s digit limit
            return int(text)
    raise argparse.ArgumentTypeError(f"invalid int value: {text!r}")


def _positive_int(text: str) -> int:
    # A "-" passes _int and then fails check_dimension, so this reads [0-9]+.
    try:
        return check_dimension(_int(text))
    except (argparse.ArgumentTypeError, ValueError):
        raise argparse.ArgumentTypeError(f"must be a positive integer, got {text!r}") from None


# Each subcommand's name, help, handler and options, as (flag, add_argument keywords).
_POLY = ("--poly", {"required": True})
_DIM = ("--dim", {"type": _positive_int, "required": True})
_SAMPLING = (
    ("--seed", {"type": _int, "help": "RNG seed (default: $NCSPAN_SEED or 0)"}),
    ("--max-samples", {"type": _positive_int, "help": "sampling budget (default: 64*d^2)"}),
    ("--coeff-bound", {"type": _positive_int, "help": "entry bound B for random matrices"}),
)
_COMMANDS = (
    ("classify", "classify the span of values on M_d", _cmd_classify,
     (("--poly", {"required": True, "help": "polynomial, e.g. 'X1*X2 - X2*X1'"}), _DIM,
      ("--format", {"choices": ("json", "text"), "default": "json"}), *_SAMPLING)),
    ("witness", "smallest d where the polynomial is neither identity nor central", _cmd_witness,
     (_POLY, ("--dmax", {"type": _positive_int, "required": True}), *_SAMPLING)),
    ("linearize", "reduce to a multilinear polynomial with a step transcript", _cmd_linearize,
     (_POLY, _DIM, *_SAMPLING)),
    ("commtest", "test membership in the span of commutators", _cmd_commtest, (_POLY,)),
    ("decompose", "write a target matrix as a combination of values", _cmd_decompose,
     (_POLY, _DIM, ("--target", {"required": True, "help": "matrix literal, e.g. '1,0;0,-1'"}), *_SAMPLING)),
    ("suite", "batch consistency report over a corpus file", _cmd_suite,
     (("--corpus", {"required": True, "help": "file with one polynomial per line, '#' comments"}), _DIM, *_SAMPLING)),
)


# Help and usage errors at 78 columns, what argparse derives from 80, whatever the terminal.
_LAYOUT = functools.partial(argparse.HelpFormatter, width=78)


def build_parser(command: str | None = None) -> argparse.ArgumentParser:
    """The ncspan parser.  If command names a subcommand, only that one is
    built, under the metavar that lists all six, so its usage line and
    errors read as with all six (main passes its first argument, the only
    subcommand argparse can run).  Otherwise all six are built, for the
    top-level help and the "invalid choice" and "required" errors."""
    parser = argparse.ArgumentParser(
        prog="ncspan",
        description="Classify linear spans of noncommutative polynomial values on M_d(Q).",
        formatter_class=_LAYOUT,
    )
    names = [name for name, *_ in _COMMANDS]
    every = command not in names
    # An explicit metavar would stand for "command" in the "required" error.
    metavar = None if every else "{" + ",".join(names) + "}"
    sub = parser.add_subparsers(dest="command", required=True, metavar=metavar)
    for name, help_text, func, options in _COMMANDS:
        if every or name == command:
            # One spelling per option: an abbreviation such as --pol would
            # pass _attach_literals by, so a literal starting with "-" fails.
            p = sub.add_parser(name, help=help_text, allow_abbrev=False, formatter_class=_LAYOUT)
            for flag, kwargs in options:
                p.add_argument(flag, **kwargs)
            p.set_defaults(func=func)
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
    argv = _attach_literals(sys.argv[1:] if argv is None else argv)
    parser = build_parser(argv[0] if argv else None)
    flag = argv[0].split("=")[0] if argv else ""
    # argparse would run the subcommand without it; --help and its prefixes stay argparse's.
    if flag.startswith("--") and not "--help".startswith(flag):
        parser.error(f"argument {flag}: options go after the subcommand")
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ParseError, _UsageError) as exc:
        print(f"ncspan: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except BrokenPipeError:
        # Point stdout at devnull so the flush at exit cannot raise again.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return EXIT_PIPE


if __name__ == "__main__":
    sys.exit(main())

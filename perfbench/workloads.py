"""The benchmark's four workloads: inputs made from the seed, and their checks.

A workload hands out passes.  Pass ``i`` is a list of ``Op``s with the same
shape for every ``i`` (the same polynomials at the same dimensions), but with
fresh sampling seeds and targets, so no two operations in a run repeat the
same call.  ``pass_ops(i, salt)`` keeps the content of pass ``i`` (the
polynomial variants, the suite corpus chunks) and draws the sampling seeds
and targets from ``salt``, so a traced run can compare two passes that do
the same amount of work without repeating a call.

``Op.call`` is the timed call into ncspan; ``Op.check`` verifies its result
against the benchmark's own algebra and returns an error message or None.
Expected answers never come from ncspan.
"""

from __future__ import annotations

import contextlib
import io
import json
import random
from fractions import Fraction
from pathlib import Path
from typing import Sequence

import ncspan
import ncspan.cli

from algebra import Expr, bracket, evaluate, expected_class, random_matrix, trace, var, word

X1, X2, X3 = var(1), var(2), var(3)

# Panel polynomials (all of degree < 2d wherever they are used).
COMM = bracket(X1, X2)                                   # sum of commutators
COMM_MIXED = bracket(X1, word(2, 3)) + bracket(X2, X1 ** 2)  # sum of commutators
PROD = word(1, 2)                                        # not a sum
PROD_RATIONAL = word(1, 1, 2).scaled(Fraction(3, 2)) + bracket(X2, X1)  # not a sum
COMM_SQUARED = bracket(X1, X2) ** 2                      # not a sum

# Wider expansions mixed into the suite corpus, each once per pass.
WIDE = (
    (X1 + X2) ** 5,
    (word(1, 2) + X3) ** 2,
    ((X1 + X2) ** 3) * X3,
    (X1 + X2 + X3) ** 3,
)

SCALES = (1, -1, 2, -2, 3)

# The suite corpus pool: random polynomials drawn once from a fixed seed, so
# that the cost of a pass does not depend on the workload seed.  The workload
# seed relabels and rescales each entry and picks the sampling seeds.
CORPUS_SEED = 20090915
CORPUS_CHUNKS = 64


class Op:
    """One benchmark operation: a timed call and an untimed check."""

    __slots__ = ("label", "call", "check", "repeat")

    def __init__(self, label, call, check, repeat=False):
        self.label = label
        self.call = call
        self.check = check
        self.repeat = repeat  # call again untimed and require an identical result


def _rng(seed: int, *parts) -> random.Random:
    return random.Random(":".join(str(p) for p in (seed,) + parts))


def _relabelled(e: Expr, rng: random.Random) -> Expr:
    """Permute the variables; the class does not change."""
    labels = list(range(1, e.nvars() + 1))
    rng.shuffle(labels)
    return e.relabelled(dict(zip(range(1, e.nvars() + 1), labels)))


def _variant(e: Expr, rng: random.Random) -> Expr:
    """Permute the variables and rescale; the class does not change."""
    out = _relabelled(e, rng)
    c = rng.choice(SCALES)
    return out if c == 1 else out.scaled(Fraction(c))


def _expected_rank(cls: str, d: int) -> int:
    return d * d - 1 if cls == "TRACE_ZERO" else d * d


def _check_values(e: Expr, d: int, cls: str, witnesses) -> str | None:
    """Every witness value is f at its inputs, and trace zero when it must be."""
    for inputs, value in witnesses:
        if evaluate(e.terms, inputs, d) != value:
            return "witness value differs from the polynomial at its inputs"
        if cls == "TRACE_ZERO" and trace(value) != 0:
            return "TRACE_ZERO witness value has nonzero trace"
    return None


def _run_cli(argv: list[str]):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        rc = ncspan.cli.main(argv)
    return rc, out.getvalue()


def _cli_doc(result, want_rc: int = 0):
    """Parse a CLI result; returns (doc, None) or (None, error)."""
    if isinstance(result, BaseException):
        return None, f"{type(result).__name__}: {result}"
    rc, out = result
    if rc != want_rc:
        return None, f"exit code {rc}, expected {want_rc}"
    try:
        return json.loads(out), None
    except ValueError as exc:
        return None, f"stdout is not JSON: {exc}"


def _matrix(rows) -> tuple:
    return tuple(tuple(Fraction(x) for x in row) for row in rows)


class Workload:
    name = ""
    ops_per_pass = 0
    # Typical wall seconds of one pass at the commit that defined the
    # benchmark (2-CPU shared host, Python 3.11.7); sets the passes per run.
    pass_seconds = 0.5
    entries_per_op = 0  # suite entries per operation (suite only)
    setup_failures: Sequence[str] = ()  # wrong answers met while building inputs

    def pass_ops(self, index: int, salt: int = 0) -> list[Op]:
        raise NotImplementedError


class SpanHighDim(Workload):
    """One op: parse + ``classify_span`` at d = 6, 7, 8 (elimination-bound)."""

    name = "span-highdim"
    ops_per_pass = 11

    def __init__(self, seed: int, tiny: bool):
        self.seed = seed
        if not tiny:
            self.pass_seconds = 12.9
        d6, d7, d8 = (2, 3, 3) if tiny else (6, 7, 8)
        # Seven d=7 [X1,X2] ops between two cheaper and two dearer ones: in a
        # run of two passes both the median and the tail op (ten from the
        # top) fall in the middle of the d=7 group, and stay in it for other
        # numbers of passes.
        self.panel = [(PROD_RATIONAL, d6), (COMM_MIXED, d6)] + [(COMM, d7)] * 7 + [
            (PROD, d8),
            (COMM_SQUARED, d8),
        ]

    def pass_ops(self, index, salt=0):
        rng = _rng(self.seed, self.name, index)
        seeds = _rng(self.seed, self.name, index, salt)
        return [self._op(_variant(e, rng), d, seeds.randrange(2**31)) for e, d in self.panel]

    def _op(self, e: Expr, d: int, sample_seed: int) -> Op:
        cls = expected_class(e, d)
        cfg = ncspan.SampleConfig(seed=sample_seed)

        def call():
            return ncspan.classify_span(ncspan.parse_poly(e.text), d, cfg)

        def check(report):
            if isinstance(report, BaseException):
                return f"{type(report).__name__}: {report}"
            if report.classification.value != cls:
                return f"classified {report.classification.value}, expected {cls}"
            rank = _expected_rank(cls, d)
            if report.basis.rank != rank or len(report.witnesses) != rank:
                return f"rank {report.basis.rank}, {len(report.witnesses)} witnesses, expected {rank}"
            return _check_values(
                e, d, cls, ((tuple(a.rows for a in args), v.rows) for args, v in report.witnesses)
            )

        return Op(f"classify_span d={d} {e.text}", call, check)


class ClassifyCli(Workload):
    """One op: in-process ``ncspan classify`` JSON report at d = 5, 6."""

    name = "classify-cli"
    ops_per_pass = 4
    REPEAT_SHARE = 0.125

    def __init__(self, seed: int, tiny: bool):
        self.seed = seed
        if not tiny:
            self.pass_seconds = 5.7
        self.d5, self.d6 = (2, 3) if tiny else (5, 6)

    def pass_ops(self, index, salt=0):
        rng = _rng(self.seed, self.name, index)
        seeds = _rng(self.seed, self.name, index, salt)
        # Three d=5 ops and one d=6 op: in a run of four passes the median
        # and the tail op (ten from the top) both fall among the d=5 ops.
        big = COMM_MIXED if index % 2 else PROD_RATIONAL
        panel = [(COMM, self.d5), (PROD, self.d5), (COMM_MIXED, self.d5), (big, self.d6)]
        return [
            self._op(_variant(e, rng), d, seeds.randrange(2**31), seeds.random() < self.REPEAT_SHARE)
            for e, d in panel
        ]

    def _op(self, e: Expr, d: int, sample_seed: int, repeat: bool) -> Op:
        cls = expected_class(e, d)
        # "--poly=" form: argparse takes a separate value starting with "-" for an option.
        argv = ["classify", f"--poly={e.text}", "--dim", str(d), "--seed", str(sample_seed)]

        def check(result):
            doc, err = _cli_doc(result)
            if err:
                return err
            if doc.get("classification") != cls:
                return f"classified {doc.get('classification')}, expected {cls}"
            rank = _expected_rank(cls, d)
            if doc.get("dim") != d or doc.get("seed") != sample_seed or doc.get("rank") != rank:
                return "dim, seed or rank wrong in report"
            flags = doc.get("consistency_flags", {})
            want = {
                "lie_ideal": True,
                "sum_of_commutators": cls == "TRACE_ZERO",
                "degree_exclusion_applicable": True,
                "degree_exclusion_consistent": True,
            }
            if any(flags.get(k) != v for k, v in want.items()):
                return f"consistency flags {flags}"
            witnesses = doc.get("witnesses", [])
            if len(witnesses) != rank or len(doc.get("basis", [])) != rank:
                return "witness or basis count differs from the rank"
            return _check_values(
                e,
                d,
                cls,
                ((tuple(_matrix(a) for a in w["inputs"]), _matrix(w["value"])) for w in witnesses),
            )

        return Op(f"cli classify d={d} {e.text}", lambda: _run_cli(argv), check, repeat)


class SuiteD3(Workload):
    """One op: in-process ``ncspan suite`` at d = 3 over one corpus chunk."""

    name = "suite-d3"
    DIM = 3
    REPEAT_SHARE = 0.125

    def __init__(self, seed: int, tiny: bool, workdir: Path):
        self.seed = seed
        self.tiny = tiny
        self.workdir = workdir
        self.entries_per_op = 2 if tiny else 5
        self.ops_per_pass = 2 if tiny else 8
        if not tiny:
            self.pass_seconds = 5.0

    def _sparse(self, rng: random.Random) -> Expr:
        """Random sparse polynomial: 2-4 terms, degree <= 4, variables X1..X3."""
        while True:
            e = None
            for _ in range(rng.randint(2, 4)):
                w = word(*(rng.randint(1, 3) for _ in range(rng.randint(1, 4))))
                c = Fraction(rng.choice((1, -1, 2, -3, 5)), rng.choice((1, 1, 2, 3)))
                t = w.scaled(c)
                e = t if e is None else e + t
            if e.terms and e.degree() > 0:
                return e

    def _commutator_sum(self, rng: random.Random) -> Expr:
        """Sum of two brackets of random words, total degree <= 4."""
        def rword(n):
            return word(*(rng.randint(1, 3) for _ in range(n)))

        while True:
            a = bracket(rword(rng.randint(1, 2)), rword(rng.randint(1, 2)))
            b = bracket(rword(1), rword(rng.randint(1, 2))).scaled(Fraction(rng.choice((2, -3, 5))))
            e = a + b
            if e.terms:
                return e

    def chunk(self, index: int) -> list[Expr]:
        """Corpus chunk ``index``: pool entries, relabelled and rescaled by the seed."""
        pool = _rng(CORPUS_SEED, self.name, index % CORPUS_CHUNKS)
        rng = _rng(self.seed, self.name, index)
        if self.tiny:
            return [_variant(self._sparse(pool), rng), _variant(self._commutator_sum(pool), rng)]
        # Fixed composition.  Every other chunk carries a wider expansion, so
        # each pass of eight chunks holds each of the four exactly once.
        entries = [self._sparse(pool), self._sparse(pool), self._sparse(pool), self._commutator_sum(pool)]
        entries = [_variant(e, rng) for e in entries]
        if index % 2:
            entries.append(_relabelled(WIDE[(index // 2) % len(WIDE)], rng))
        else:
            entries.append(_variant(self._commutator_sum(pool), rng))
        return entries

    def pass_ops(self, index, salt=0):
        seeds = _rng(self.seed, self.name, index, salt)
        ops = []
        for k in range(self.ops_per_pass):
            chunk_index = index * self.ops_per_pass + k
            ops.append(
                self._op(
                    chunk_index,
                    self.chunk(chunk_index),
                    seeds.randrange(2**31),
                    seeds.random() < self.REPEAT_SHARE,
                )
            )
        return ops

    def _op(self, index: int, entries: list[Expr], sample_seed: int, repeat: bool) -> Op:
        d = self.DIM
        path = self.workdir / f"chunk-{index}-{sample_seed}.txt"
        # Comment lines are part of the corpus format; entries start on line 2.
        path.write_text("# suite-d3 chunk\n" + "".join(e.text + "\n" for e in entries), encoding="utf-8")
        expected = [(lineno, expected_class(e, d)) for lineno, e in enumerate(entries, start=2)]
        argv = ["suite", "--corpus", str(path), "--dim", str(d), "--seed", str(sample_seed)]

        def check(result):
            doc, err = _cli_doc(result)
            if err:
                return err
            if doc.get("summary") != {"total": len(entries), "violations": 0, "undetermined": 0}:
                return f"summary {doc.get('summary')}"
            for (lineno, cls), entry in zip(expected, doc.get("entries", [])):
                red = entry.get("reduction") or {}
                if (
                    entry.get("line") != lineno
                    or entry.get("classification") != cls
                    or entry.get("rank") != _expected_rank(cls, d)
                    or entry.get("sum_of_commutators") != (cls == "TRACE_ZERO")
                    or entry.get("lie_ideal") is not True
                    or entry.get("exclusion") != "consistent"
                    or not (red.get("multilinear") and red.get("oracle_true") and red.get("containments_ok"))
                ):
                    return f"line {lineno}: expected {cls}, got {entry}"
            return None

        return Op(f"cli suite chunk {index}", lambda: _run_cli(argv), check, repeat)


class DecomposeBatch(Workload):
    """One op: ``decompose_target`` against a report built once per run."""

    name = "decompose-batch"

    def __init__(self, seed: int, tiny: bool):
        self.seed = seed
        rng = _rng(seed, self.name, "reports")
        dims = (2, 3) if tiny else (4, 5)
        # Twice as many d=5 targets as d=4 ones, so the median op is a d=5 op.
        self.targets_per_pass = {dims[0]: 2, dims[1]: 4}
        self.ops_per_pass = 4 * sum(self.targets_per_pass.values())
        if not tiny:
            self.pass_seconds = 1.45
        self.setup_failures = []
        self.reports = []
        for d in dims:
            for e in (COMM, COMM_MIXED, PROD, COMM_SQUARED if d > 2 else PROD_RATIONAL):
                e = _variant(e, rng)
                cls = expected_class(e, d)
                report = ncspan.classify_span(
                    ncspan.parse_poly(e.text), d, ncspan.SampleConfig(seed=rng.randrange(2**31))
                )
                if report.classification.value != cls:
                    self.setup_failures.append(
                        f"set-up classify_span d={d} {e.text}: {report.classification.value}, expected {cls}"
                    )
                # The benchmark's own value at each witness tuple, keyed by the tuple.
                values = {id(args): evaluate(e.terms, [a.rows for a in args], d) for args, _ in report.witnesses}
                self.reports.append((e, d, cls, report, values))

    def pass_ops(self, index, salt=0):
        rng = _rng(self.seed, self.name, index, salt)
        ops = []
        for e, d, cls, report, values in self.reports:
            for k in range(self.targets_per_pass[d]):
                # The first target of each trace-zero report has nonzero trace.
                inside = cls == "FULL" or k > 0
                ops.append(self._op(e, d, report, values, self._target(rng, d, cls, inside), inside))
        return ops

    @staticmethod
    def _target(rng, d, cls, inside):
        m = random_matrix(rng, d)
        if cls == "TRACE_ZERO":
            t = sum(m[i][i] for i in range(d))
            m[d - 1][d - 1] -= t if inside else t - rng.choice((1, -1, 2, 7))
        return m

    def _op(self, e, d, report, values, rows, inside) -> Op:
        target = ncspan.MatrixQ(rows)
        want = tuple(tuple(r) for r in rows)

        def check(result):
            if not inside:
                if isinstance(result, ncspan.NotInSpan):
                    return None
                return f"expected NotInSpan, got {type(result).__name__}"
            if isinstance(result, BaseException):
                return f"{type(result).__name__}: {result}"
            acc = [[0] * d for _ in range(d)]
            for lam, args in result:
                value = values.get(id(args))
                if value is None:
                    value = evaluate(e.terms, [a.rows for a in args], d)
                for r in range(d):
                    for s in range(d):
                        acc[r][s] += lam * value[r][s]
            if tuple(tuple(r) for r in acc) != want:
                return "sum of lambda * f(t) differs from the target"
            return None

        return Op(
            f"decompose_target d={d} {e.text} {'in' if inside else 'out of'} span",
            lambda: ncspan.decompose_target(report, target),
            check,
        )


def make(name: str, seed: int, tiny: bool, workdir: Path) -> Workload:
    if name == "span-highdim":
        return SpanHighDim(seed, tiny)
    if name == "classify-cli":
        return ClassifyCli(seed, tiny)
    if name == "suite-d3":
        return SuiteD3(seed, tiny, workdir)
    if name == "decompose-batch":
        return DecomposeBatch(seed, tiny)
    raise ValueError(f"unknown workload {name!r}")

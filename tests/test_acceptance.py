"""Acceptance criteria, one test per criterion.

Run with `pytest tests/test_acceptance.py -v -s` to see one
"ACCEPTANCE <n> PASS/FAIL" line per criterion, including elapsed time.
Every tolerance here is exact (zero residual) unless a runtime budget is
stated for the criterion.
"""

import contextlib
import functools
import io
import itertools
import json
import random
import time
from contextlib import contextmanager
from fractions import Fraction

import pytest

from helpers import (
    battery_poly,
    random_matrix_int,
    random_noncentral,
    random_poly,
    random_trace_zero,
    standard_polynomial,
)
from ncspan import (
    Classification,
    MatrixQ,
    NcPoly,
    SampleConfig,
    classify_span,
    commutator,
    commutator_decomposition,
    decompose_target,
    delta,
    evaluate,
    find_witness_dimension,
    herstein_closure,
    is_identity,
    lie_ideal_check,
    nontriviality_oracle,
    parse_poly,
    poly_to_text,
    reduce_to_multilinear,
    resubstitute_check,
    vandermonde_extract,
)
from ncspan.cli import main as cli_main

X1 = NcPoly.variable(1)
X2 = NcPoly.variable(2)
COMM = commutator(X1, X2)
HALL = COMM * COMM
S4 = standard_polynomial(4)

CFG = SampleConfig(seed=0)


@contextmanager
def criterion(n: int, summary: str):
    t0 = time.perf_counter()
    try:
        yield
    except BaseException:
        print(f"\nACCEPTANCE {n:2d} FAIL ({time.perf_counter() - t0:.2f}s): {summary}")
        raise
    print(f"\nACCEPTANCE {n:2d} PASS ({time.perf_counter() - t0:.2f}s): {summary}")


def run_cli(argv: list[str]) -> tuple[int, str]:
    """Run the CLI in-process, capturing stdout (capsys-free for -s runs)."""
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = cli_main(argv)
    return code, buf.getvalue()


@pytest.fixture(scope="module")
def headline_reports():
    return {
        "comm2": classify_span(COMM, 2, CFG),
        "comm3": classify_span(COMM, 3, CFG),
        "s4": classify_span(S4, 2, CFG),
        "hall": classify_span(HALL, 2, CFG),
        "x1_2": classify_span(X1, 2, CFG),
        "x1_3": classify_span(X1, 3, CFG),
        "x1_4": classify_span(X1, 4, CFG),
        "x1x2": classify_span(X1 * X2, 2, CFG),
    }


@pytest.fixture(scope="module")
def battery():
    rng = random.Random(2026)
    polys = [battery_poly(rng) for _ in range(200)]
    t0 = time.perf_counter()
    reports = [classify_span(f, 3, CFG) for f in polys]
    elapsed = time.perf_counter() - t0
    return polys, reports, elapsed


def test_criterion_01_commutator_span(headline_reports):
    with criterion(1, "classify_span([X1,X2]): TRACE_ZERO, rank 3 at d=2 and 8 at d=3, < 1 s each"):
        t0 = time.perf_counter()
        rep2 = classify_span(COMM, 2, CFG)
        t2 = time.perf_counter() - t0
        t0 = time.perf_counter()
        rep3 = classify_span(COMM, 3, CFG)
        t3 = time.perf_counter() - t0
        assert rep2.classification is Classification.TRACE_ZERO
        assert rep2.basis.rank == 3
        assert rep3.classification is Classification.TRACE_ZERO
        assert rep3.basis.rank == 8
        assert COMM.is_sum_of_commutators()
        assert t2 < 1.0 and t3 < 1.0, (t2, t3)
        assert headline_reports["comm2"] == rep2


def test_criterion_02_standard_polynomial_vanishes(headline_reports):
    with criterion(2, "classify_span(s4, 2) = ZERO; exact multilinear path over 256 unit tuples, < 5 s"):
        t0 = time.perf_counter()
        assert S4.is_multilinear()
        # independent oracle: exhaustive evaluation on all matrix-unit tuples
        units = [MatrixQ.unit(2, j, k) for j in range(2) for k in range(2)]
        tuples = list(itertools.product(units, repeat=4))
        assert len(tuples) == 256
        assert all(evaluate(S4, tup).is_zero() for tup in tuples)
        # exact multilinear identity test and the sampled classification agree
        assert is_identity(S4, 2, CFG)
        assert headline_reports["s4"].classification is Classification.ZERO
        assert headline_reports["s4"].basis.rank == 0
        assert time.perf_counter() - t0 < 5.0


def test_criterion_03_hall_polynomial_scalars(headline_reports, tmp_path):
    with criterion(3, "classify_span([X1,X2]^2, 2) = SCALARS and the suite flags exclusion-inapplicable"):
        rep = headline_reports["hall"]
        assert rep.classification is Classification.SCALARS
        assert rep.basis.rank == 1
        # 2d = 4 is not > deg f = 4: the suite must mark the degree exclusion
        # inapplicable rather than reporting a violation
        corpus = tmp_path / "hall.txt"
        corpus.write_text("[X1,X2]^2\n")
        code, out = run_cli(["suite", "--corpus", str(corpus), "--dim", "2"])
        doc = json.loads(out)
        entry = doc["entries"][0]
        assert entry["classification"] == "SCALARS"
        assert entry["exclusion"] == "inapplicable"
        assert doc["summary"]["violations"] == 0
        assert code == 0


def test_criterion_04_full_spans(headline_reports):
    with criterion(4, "classify_span(X1, d) = FULL for d in {2,3,4}; classify_span(X1*X2, 2) = FULL"):
        for key, d in (("x1_2", 2), ("x1_3", 3), ("x1_4", 4)):
            rep = headline_reports[key]
            assert rep.classification is Classification.FULL
            assert rep.basis.rank == d * d
        assert headline_reports["x1x2"].classification is Classification.FULL
        assert headline_reports["x1x2"].basis.rank == 4


def test_criterion_05_consistency_battery(battery):
    with criterion(5, "200-polynomial battery at d=3: exclusions hold, trace-zero iff commutator sum, < 5 min"):
        polys, reports, classify_seconds = battery
        assert len(polys) == 200
        # Every report names a class, so every one must be TRACE_ZERO or FULL.
        for f, rep in zip(polys, reports):
            deg = f.degree()
            assert deg is not None and 1 <= deg <= 4
            assert 2 * 3 > deg  # exclusion applicable for the whole corpus
            assert rep.classification in (
                Classification.TRACE_ZERO,
                Classification.FULL,
            ), poly_to_text(f)
            assert (
                rep.classification is Classification.TRACE_ZERO
            ) == f.is_sum_of_commutators(), poly_to_text(f)
        assert classify_seconds < 300.0, classify_seconds


def test_criterion_06_resubstitution_identity():
    with criterion(6, "substitute(delta(f,1,m), m->X1) = (2^k - 2) f for 50 homogeneous f, k in {2,3,4}"):
        rng = random.Random(606)
        checked = 0
        while checked < 50:
            k = rng.choice((2, 3, 4))
            # random polynomial homogeneous of degree k in X1
            terms = {}
            for _ in range(rng.randint(1, 3)):
                letters = [1] * k + [
                    rng.choice((2, 3)) for _ in range(rng.randint(0, 2))
                ]
                rng.shuffle(letters)
                coeff = rng.randint(1, 5) * rng.choice((-1, 1))
                word = tuple(letters)
                terms[word] = terms.get(word, 0) + coeff
            f = NcPoly(terms)
            if f.is_zero() or f.degree_in(1) != k or f.min_degree_in(1) != k:
                continue
            checked += 1
            m = f.nvars + 1
            fprime = delta(f, 1, m)
            assert fprime.substitute_one(m, X1) == f.scale(2 ** k - 2)
            assert resubstitute_check(f, fprime, 1, m)


def test_criterion_07_reduction_corpus():
    with criterion(7, "50 reductions at d=2: multilinear oracle-true outputs, step spans nested"):
        rng = random.Random(707)
        oracle = nontriviality_oracle(2, CFG)
        reduced = 0
        while reduced < 50:
            f = random_poly(rng, nvars=3, max_degree=3, max_terms=4, min_degree=1)
            if not oracle(f):
                continue
            reduced += 1
            red = reduce_to_multilinear(f, oracle)
            assert red.output.is_multilinear()
            assert oracle(red.output)
            assert (red.output.degree() or 0) <= (f.degree() or 0)
            for step in red.steps:
                after = classify_span(step.after, 2, CFG).classification
                before = classify_span(step.before, 2, CFG).classification
                assert after.lies_in(before, 2), poly_to_text(f)


def test_criterion_08_vandermonde_recovery():
    with criterion(8, "vandermonde_extract exact for tuple lengths up to m = 6"):
        rng = random.Random(808)
        for m in range(1, 7):
            for _ in range(5):
                cs = [
                    MatrixQ(
                        [
                            [
                                Fraction(rng.randint(-9, 9), rng.randint(1, 9))
                                for _ in range(3)
                            ]
                            for _ in range(3)
                        ]
                    )
                    for _ in range(m + 1)
                ]
                nodes = list(range(m + 1))
                values = []
                for lam in nodes:
                    acc = MatrixQ.zero(3)
                    for i, c in enumerate(cs):
                        acc = acc + c.scale(Fraction(lam) ** i)
                    values.append(acc)
                recovered = vandermonde_extract(nodes, values)
                assert recovered == cs  # zero residual


def test_criterion_09_lie_ideal_instances(headline_reports, battery):
    with criterion(9, "lie_ideal_check holds for every basis produced in criteria 1-5"):
        for rep in headline_reports.values():
            assert lie_ideal_check(rep.basis)
        _, reports, _ = battery
        for rep in reports:
            assert lie_ideal_check(rep.basis)


def test_criterion_10_herstein_closures():
    with criterion(10, "herstein_closure reaches rank d^2 for 50 noncentral seeds at d=2 and d=3; identity stays rank 1"):
        rng = random.Random(1010)
        for d in (2, 3):
            for _ in range(50):
                seed = random_noncentral(rng, d)
                assert herstein_closure(seed, d).rank == d * d
            assert herstein_closure(MatrixQ.identity(d), d).rank == 1


def test_criterion_11_commutator_decompositions():
    with criterion(11, "[A,B] = M exactly for 100 random trace-zero M per d in {2..6}, < 10 s"):
        t0 = time.perf_counter()
        rng = random.Random(1111)
        for d in range(2, 7):
            for _ in range(100):
                m = random_trace_zero(rng, d)
                a, b = commutator_decomposition(m)
                assert commutator(a, b) == m
        assert time.perf_counter() - t0 < 10.0


def test_criterion_12_witness_dimensions():
    with criterion(12, "witness dimensions: X1 -> 2, [X1,X2]^2 -> 3, s4 absent below d_max = 2"):
        assert find_witness_dimension(X1, 4, CFG) == 2
        assert find_witness_dimension(HALL, 4, CFG) == 3
        assert find_witness_dimension(S4, 2, CFG) is None


def test_criterion_13_decompose_targets(headline_reports, battery):
    with criterion(13, "20 random targets per FULL report reconstruct with zero residual"):
        rng = random.Random(1313)
        _, reports, _ = battery
        full_reports = [
            rep
            for rep in list(headline_reports.values()) + list(reports)
            if rep.classification is Classification.FULL
        ]
        assert full_reports
        for rep in full_reports:
            # f at each witness tuple, evaluated afresh once per report: the
            # tuples recur across its targets.
            value_at = functools.cache(lambda args: evaluate(rep.poly, args, dim=rep.dim))
            for _ in range(20):
                target = random_matrix_int(rng, rep.dim)
                total = MatrixQ.zero(rep.dim)
                for lam, args in decompose_target(rep, target):
                    total = total + value_at(args).scale(lam)
                assert total == target  # residual exactly zero


def test_criterion_14_cli_roundtrip_and_determinism():
    with criterion(14, "parse/print round-trip on 100 random polynomials; identical seeds give identical JSON"):
        rng = random.Random(1414)
        for _ in range(100):
            f = random_poly(rng, nvars=4, max_degree=4, max_terms=6)
            assert parse_poly(poly_to_text(f)) == f
        argv = ["classify", "--poly", "[X1,X2]", "--dim", "2", "--seed", "5"]
        _, first = run_cli(argv)
        _, second = run_cli(argv)
        assert first == second
        assert json.loads(first)["classification"] == "TRACE_ZERO"

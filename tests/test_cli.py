import argparse
import codecs
import dataclasses
import hashlib
import itertools
import json
import os
import random
import shutil
import subprocess
import sys
import time
import types
from fractions import Fraction
from pathlib import Path

import pytest

import ncspan.cli
from helpers import certificate_inputs, reference_classify_span, reference_suite_violations, spans_class, standard_polynomial
from ncspan.cli import main
from ncspan.linalg import Classification, MatrixQ
from ncspan.linearize import OracleFailed
from ncspan.span import SampleConfig, classify_span, decompose_target, evaluate
from ncspan.text import matrix_to_text, parse_poly, poly_to_text

GOLDEN = Path(__file__).parent / "golden"
# Trace zero on M_2, where S_4 vanishes, but not a sum of commutators.
TRACE_ZERO_NON_SUM = poly_to_text(parse_poly("[X1,X2]") + standard_polynomial(4) * parse_poly("X5"))


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


def run_json(capsys, *argv):
    code, out = run_cli(capsys, *argv)
    return code, json.loads(out)


class TestClassify:
    def test_commutator_report(self, capsys):
        code, doc = run_json(
            capsys, "classify", "--poly", "X1*X2 - X2*X1", "--dim", "2"
        )
        assert code == 0
        assert doc["schema"] == "ncspan/7"
        assert doc["classification"] == "TRACE_ZERO"
        assert doc["rank"] == 3
        assert doc["polynomial"] == "X1*X2 - X2*X1"
        assert doc["consistency_flags"]["lie_ideal"] is True
        assert doc["consistency_flags"]["sum_of_commutators"] is True
        assert doc["consistency_flags"]["degree_exclusion_applicable"] is True
        assert doc["consistency_flags"]["degree_exclusion_consistent"] is True
        assert doc["consistency_flags"]["stop_reason"] == "LIE_IDEAL"
        assert doc["samples_used"] == 1
        assert len(doc["witnesses"]) == 3
        assert set(doc) == {
            "schema",
            "polynomial",
            "dim",
            "seed",
            "classification",
            "rank",
            "basis",
            "witnesses",
            "samples_used",
            "consistency_flags",
        }

    @pytest.mark.parametrize("text", ["[X1,X2]", "X1*X2"])
    def test_commutator_sum_decided_once(self, capsys, monkeypatch, text):
        # The report carries classify_span's commutator-sum fact to the flags.
        from ncspan.poly import NcPoly

        calls = []
        real = NcPoly.commutator_obstruction

        def counted(self):
            calls.append(self)
            return real(self)

        monkeypatch.setattr(NcPoly, "commutator_obstruction", counted)
        code, doc = run_json(capsys, "classify", "--poly", text, "--dim", "3")
        assert code == 0
        assert doc["consistency_flags"]["sum_of_commutators"] is (text == "[X1,X2]")
        assert calls == [parse_poly(text)]

    def test_byte_identical_given_seed(self, capsys):
        args = ("classify", "--poly", "[X1,X2]", "--dim", "2", "--seed", "9")
        _, first = run_cli(capsys, *args)
        _, second = run_cli(capsys, *args)
        assert first == second

    def test_different_seed_changes_witnesses(self, capsys):
        _, a = run_cli(capsys, "classify", "--poly", "X1", "--dim", "2", "--seed", "1")
        _, b = run_cli(capsys, "classify", "--poly", "X1", "--dim", "2", "--seed", "2")
        assert json.loads(a)["classification"] == json.loads(b)["classification"]
        assert a != b

    @pytest.mark.parametrize("budget", [(), ("--max-samples", "2")], ids=["default", "budget2"])
    def test_trace_zero_non_sum(self, capsys, budget):
        # Trace zero on M_2 but no sum of commutators: nothing proves the
        # class, and its first non-scalar value names TRACE_ZERO, sampled.
        # Seed 0 raises it at the first sample and stops 50 later.
        code, doc = run_json(
            capsys,
            "classify", "--poly", TRACE_ZERO_NON_SUM, "--dim", "2", "--seed", "0", *budget,
        )
        assert code == 0
        got = (doc["classification"], doc["rank"], doc["samples_used"], doc["consistency_flags"]["stop_reason"])
        assert got == (("TRACE_ZERO", 3, 2, "BUDGET_EXHAUSTED") if budget else ("TRACE_ZERO", 3, 51, "STABILITY_WINDOW"))
        # Three witnesses, f at their inputs, of trace 0, spanning sl_2.
        f = parse_poly(TRACE_ZERO_NON_SUM)
        values = []
        for w in doc["witnesses"]:
            args = [MatrixQ([[Fraction(x) for x in row] for row in m]) for m in w["inputs"]]
            value = evaluate(f, args, dim=2)
            assert [[str(x) for x in row] for row in value.rows] == w["value"]
            assert value.trace() == 0
            values.append(value)
        assert len(values) == 3
        assert spans_class(values, Classification.TRACE_ZERO, 2)
        # A trace-zero target decomposes over them, and the sum checks out.
        code, doc = run_json(
            capsys,
            "decompose", "--poly", TRACE_ZERO_NON_SUM, "--dim", "2", "--seed", "0", "--target", "3,-1;5,-3", *budget,
        )
        assert code == 0
        assert (doc["classification"], doc["verified"]) == ("TRACE_ZERO", True)

    def test_proved_within_any_budget(self, capsys):
        # [X1,X2] is proved by its first sample, within any budget.
        code, doc = run_json(
            capsys,
            "classify", "--poly", "[X1,X2]", "--dim", "2", "--max-samples", "2",
        )
        assert code == 0
        assert (doc["classification"], doc["samples_used"]) == ("TRACE_ZERO", 1)

    def test_literal_starting_with_minus(self, capsys):
        code, doc = run_json(capsys, "classify", "--poly", "-2*X1", "--dim", "2")
        assert code == 0
        assert doc["polynomial"] == "-2*X1"
        assert doc["classification"] == "FULL"

    def test_text_format(self, capsys):
        code, out = run_cli(
            capsys,
            "classify", "--poly", "[X1,X2]", "--dim", "2", "--format", "text",
        )
        assert code == 0
        assert "classification: TRACE_ZERO" in out
        assert out.endswith("stop reason:    LIE_IDEAL\nseed:           0\n")
        # A sampled verdict says so too.
        code, out = run_cli(
            capsys,
            "classify", "--poly", "[X1,X2]^2", "--dim", "2", "--format", "text",
        )
        assert code == 0
        assert "classification: SCALARS\n" in out and "stop reason:    STABILITY_WINDOW\n" in out

    def test_env_seed(self, capsys, monkeypatch):
        monkeypatch.setenv("NCSPAN_SEED", "9")
        _, via_env = run_cli(capsys, "classify", "--poly", "[X1,X2]", "--dim", "2")
        monkeypatch.delenv("NCSPAN_SEED")
        _, via_flag = run_cli(
            capsys, "classify", "--poly", "[X1,X2]", "--dim", "2", "--seed", "9"
        )
        assert via_env == via_flag

    def test_bad_env_seed_is_usage_error(self, capsys, monkeypatch):
        monkeypatch.setenv("NCSPAN_SEED", "abc")
        # main returns the code; it does not raise SystemExit.
        code = main(["classify", "--poly", "X1", "--dim", "2"])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert captured.err == "ncspan: NCSPAN_SEED must be an integer, got 'abc'\n"

    # int() reads each of these; the command line reads only -?[0-9]+.
    @pytest.mark.parametrize("text", ["\u0661", "\u0661_0", "1_0", "+1", " 1", "1 ", "\uff11"])
    def test_env_seed_is_ascii_digits(self, capsys, monkeypatch, text):
        monkeypatch.setenv("NCSPAN_SEED", text)
        assert main(["classify", "--poly", "X1", "--dim", "2"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"ncspan: NCSPAN_SEED must be an integer, got {text!r}\n"

    @pytest.mark.parametrize("text", ["x", "\u0667", "1_0", "+1", " 1", "1 ", "\uff17"])
    def test_seed_option_is_ascii_digits(self, capsys, text):
        with pytest.raises(SystemExit) as exc:
            main(["classify", "--poly", "X1", "--dim", "2", "--seed", text])
        assert exc.value.code == 2
        assert capsys.readouterr().err.endswith(f"ncspan classify: error: argument --seed: invalid int value: {text!r}\n")

    def test_seed_past_int_digit_limit(self, capsys, monkeypatch):
        # Digits past int()'s limit (Python 3.10.7 on) are no seed either.
        if not hasattr(sys, "set_int_max_str_digits"):
            pytest.skip("this Python reads ints of any length")
        old, text = sys.get_int_max_str_digits(), "1" * 641
        sys.set_int_max_str_digits(640)
        try:
            with pytest.raises(SystemExit) as exc:
                main(["classify", "--poly", "X1", "--dim", "2", "--seed", text])
            assert exc.value.code == 2
            assert capsys.readouterr().err.endswith(f"argument --seed: invalid int value: {text!r}\n")
            monkeypatch.setenv("NCSPAN_SEED", text)
            assert main(["classify", "--poly", "X1", "--dim", "2"]) == 2
            assert capsys.readouterr().err == f"ncspan: NCSPAN_SEED must be an integer, got {text!r}\n"
        finally:
            sys.set_int_max_str_digits(old)

    def test_negative_seed(self, capsys, monkeypatch):
        # A seed alone may carry a leading "-", from the option or the environment.
        _, via_flag = run_cli(capsys, "classify", "--poly", "[X1,X2]", "--dim", "2", "--seed", "-3")
        monkeypatch.setenv("NCSPAN_SEED", "-3")
        _, via_env = run_cli(capsys, "classify", "--poly", "[X1,X2]", "--dim", "2")
        assert via_env == via_flag and json.loads(via_flag)["seed"] == -3

    def test_parse_error_exit(self, capsys):
        code = main(["classify", "--poly", "X1 +", "--dim", "2"])
        assert code == 2
        assert "ncspan:" in capsys.readouterr().err

    def test_hall_polynomial_exclusion_inapplicable(self, capsys):
        code, doc = run_json(
            capsys, "classify", "--poly", "[X1,X2]^2", "--dim", "2"
        )
        assert code == 0
        assert doc["classification"] == "SCALARS"
        assert doc["consistency_flags"]["degree_exclusion_applicable"] is False
        assert doc["consistency_flags"]["degree_exclusion_consistent"] is None


class TestWitness:
    def test_single_variable(self, capsys):
        code, doc = run_json(capsys, "witness", "--poly", "X1", "--dmax", "4")
        assert code == 0
        assert doc["witness_dimension"] == 2

    def test_absent(self, capsys):
        code, doc = run_json(capsys, "witness", "--poly", "[X1,X2]", "--dmax", "1")
        assert code == 1
        assert doc["witness_dimension"] is None

    def test_vanishing_bound_is_exact(self, capsys):
        code, doc = run_json(capsys, "witness", "--poly", "[X1,X2]^2", "--dmax", "3")
        assert code == 0
        # The bound is per_sample ** samples; (4/21)^576 at d=3 was 0.0 as a float.
        bounds = [entry["vanishing_bound"] for entry in doc["tested"]]
        assert bounds == [
            {"per_sample": "4/21", "samples": 64},
            {"per_sample": "4/21", "samples": 256},
            {"per_sample": "4/21", "samples": 576},
        ]
        code, doc = run_json(capsys, "witness", "--poly", "[X1,X2]", "--dmax", "2")
        assert [e["vanishing_bound"]["per_sample"] for e in doc["tested"]] == ["0", "0"]

    def test_each_identity_test_runs_once(self, capsys, monkeypatch):
        import ncspan.span

        calls = []
        real = ncspan.span._values

        def counted(f, d, cfg):
            calls.append((f, d))
            return real(f, d, cfg)

        # The cli asks span for both verdicts, so every value read goes through here.
        monkeypatch.setattr(ncspan.span, "_values", counted)
        code, doc = run_json(capsys, "witness", "--poly", "[X1,X2]^2", "--dmax", "3")
        assert code == 0
        assert [e["central"] for e in doc["tested"]] == [False, True, False]
        # One pass over f's own values per dimension where deg f >= 2d: no
        # bracket with a fresh variable.  At d=3, deg f = 4 < 6 decides both.
        f = parse_poly("[X1,X2]^2")
        assert calls == [(f, 1), (f, 2)]

    def test_huge_sample_budget(self, capsys):
        # 21^4000 has more digits than int-to-str conversion allows.
        code, doc = run_json(
            capsys, "witness", "--poly", "X1*X1", "--dmax", "2", "--max-samples", "4000"
        )
        assert code == 0
        assert doc["witness_dimension"] == 2
        bounds = [entry["vanishing_bound"] for entry in doc["tested"]]
        assert bounds == [{"per_sample": "2/21", "samples": 4000}] * 2


class TestLinearize:
    def test_square(self, capsys):
        code, doc = run_json(capsys, "linearize", "--poly", "X1^2", "--dim", "2")
        assert code == 0
        assert doc["output"] == "X1*X2 + X2*X1"
        assert [s["kind"] for s in doc["steps"]] == ["DELTA"]
        assert doc["steps"][0]["before"] == "X1*X1"

    def test_constant_fails(self, capsys):
        code, doc = run_json(capsys, "linearize", "--poly", "5", "--dim", "2")
        assert code == 1
        assert doc["error"] == "NotReducible"

    def test_central_input_fails_oracle(self, capsys):
        code, doc = run_json(capsys, "linearize", "--poly", "[X1,X2]^2", "--dim", "2")
        assert code == 1
        assert doc["error"] == "OracleFailed"


class TestCommtest:
    def test_variable(self, capsys):
        code, doc = run_json(capsys, "commtest", "--poly", "X1")
        assert code == 1
        assert doc["sum_of_commutators"] is False
        assert doc["witness_class"] == "X1"

    def test_commutator(self, capsys):
        code, doc = run_json(capsys, "commtest", "--poly", "[X1,X2]")
        assert code == 0
        assert doc["sum_of_commutators"] is True
        assert doc["witness_class"] is None

    def test_constant_witness_class(self, capsys):
        code, doc = run_json(capsys, "commtest", "--poly", "7")
        assert code == 1
        assert doc["witness_class"] == "1"


    def test_non_ascii_digit(self, capsys):
        # X and the Arabic-Indic one: no variable, since digits are 0-9.
        code = main(["commtest", "--poly", "X\u0661"])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert captured.err == "ncspan: unexpected character 'X' (line 1, column 1)\n"

class TestRunawayExpansion:
    @pytest.mark.parametrize(
        "text",
        [
            "1^99999999",
            "X1^99999999",
            "(X1+X2)^40",
            "((X1^1000)^1000)",
            "(X1+X2)^16*(X1+X2)^16",
            "X257",
            "X9999999",
        ],
    )
    @pytest.mark.parametrize("command", [("commtest",), ("classify", "--dim", "2")])
    def test_exit_2_at_once(self, capsys, text, command):
        start = time.perf_counter()
        code, out = run_cli(capsys, *command, "--poly", text)
        assert time.perf_counter() - start < 1.0
        assert code == 2
        assert out == ""

    @pytest.mark.parametrize(
        "command, template, col",
        [
            (("commtest",), "X1^{}", 4),
            (("commtest",), "{}*X1", 1),
            (("classify", "--dim", "2"), "X{}", 1),
        ],
        ids=["exponent", "coefficient", "index"],
    )
    def test_digit_run_too_long(self, capsys, command, template, col):
        # More digits than int() converts: a parse error, not a ValueError.
        code = main([*command, "--poly", template.format("1" * 5000)])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert captured.err == f"ncspan: number too long (5000 digits) (line 1, column {col})\n"

    @pytest.mark.parametrize(
        "text, message",
        [
            # Deeper than the parser could recurse without the nesting limit.
            ("(" * 300 + "X1" + ")" * 300, "nesting deeper than 100 (line 1, column 101)"),
            ("(X1^16+X2^16)^16", "expansion has more than 4194304 letters (line 1, column 14)"),
        ],
        ids=["nesting", "letters"],
    )
    def test_one_line_refusal(self, capsys, text, message):
        start = time.perf_counter()
        code = main(["commtest", "--poly", text])
        captured = capsys.readouterr()
        assert time.perf_counter() - start < 1.0
        assert code == 2
        assert captured.out == ""
        assert captured.err == f"ncspan: {message}\n"


class TestDecompose:
    def test_identity_polynomial(self, capsys):
        code, doc = run_json(
            capsys,
            "decompose", "--poly", "X1", "--dim", "2", "--target", "1,0;0,-1",
        )
        assert code == 0
        assert doc["verified"] is True
        assert len(doc["terms"]) == 1
        assert doc["terms"][0]["coefficient"] == "1"

    def test_commutator_target_in_span(self, capsys):
        code, doc = run_json(
            capsys,
            "decompose", "--poly", "[X1,X2]", "--dim", "2", "--target", "0,1;0,0",
        )
        assert code == 0
        assert doc["verified"] is True

    def test_target_starting_with_minus(self, capsys):
        code, doc = run_json(
            capsys,
            "decompose", "--poly", "[X1,X2]", "--dim", "2", "--target", "-1,0;0,1",
        )
        assert code == 0
        assert doc["target"] == "-1,0;0,1"
        assert doc["verified"] is True

    @pytest.mark.parametrize("target", ("1,2,0;0,0,1;3,0,-1", "1/2,0,-1/3;0,0,0;2/7,0,-1/2", "0,0,0;0,0,0;0,0,0"))
    def test_verified_reevaluates_each_term(self, capsys, monkeypatch, target):
        # verified sums f(t_k) over the returned tuples, with rational
        # coefficients and a rational f: the terms as returned check, and
        # one coefficient off by 1/3 does not (the zero target has no terms).
        argv = ("decompose", "--poly", "3/2*X1*X1*X2 + [X2,X1]", "--dim", "3", "--seed", "0", "--target", target)
        code, doc = run_json(capsys, *argv)
        assert code == 0
        assert doc["verified"] is True
        real = ncspan.cli.decompose_target

        def off_by_a_third(report, target):
            return [(lam + Fraction(k == 0, 3), tup) for k, (lam, tup) in enumerate(real(report, target))]

        monkeypatch.setattr(ncspan.cli, "decompose_target", off_by_a_third)
        code, doc = run_json(capsys, *argv)
        assert code == 0
        assert doc["verified"] is (not doc["terms"])

    @pytest.mark.parametrize("poly", ("2*X1", "2*X1 + X1*X1"))
    def test_membership_before_the_preimage(self, capsys, poly):
        # One sample at d = 1 with seed 7 is the zero matrix, so the class is
        # ZERO and 3 lies outside it: c * X_i is refused like any other
        # polynomial, not written down as a preimage beside a ZERO class.
        argv = ("decompose", "--poly", poly, "--dim", "1", "--seed", "7", "--max-samples", "1", "--target", "3")
        code, doc = run_json(capsys, *argv)
        assert code == 1 and "terms" not in doc
        assert (doc["classification"], doc["error"], doc["message"]) == (
            "ZERO", "NotInSpan", "target is outside the sampled span"
        )

    def test_not_in_span(self, capsys):
        code, doc = run_json(
            capsys,
            "decompose", "--poly", "[X1,X2]", "--dim", "2", "--target", "1,0;0,1",
        )
        assert code == 1
        assert doc["error"] == "NotInSpan"

    def test_bad_target_literal(self, capsys):
        code = main(
            ["decompose", "--poly", "X1", "--dim", "2", "--target", "1,0;0"]
        )
        assert code == 2
        assert "target" in capsys.readouterr().err

    @pytest.mark.parametrize("entry", ("1/0", "0/0"))
    def test_zero_denominator_target(self, capsys, entry):
        code = main(
            ["decompose", "--poly", "[X1,X2]", "--dim", "2", "--target", f"{entry},0;0,0"]
        )
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert captured.err == (
            f"ncspan: bad --target literal: zero denominator in matrix entry '{entry}'\n"
        )

    def test_non_ascii_digit_target(self, capsys):
        code = main(["decompose", "--poly", "[X1,X2]", "--dim", "2", "--target", "\u0661,0;0,1"])
        assert code == 2
        assert capsys.readouterr().err == "ncspan: bad --target literal: bad matrix entry '\u0661'\n"

    def test_target_dim_mismatch(self, capsys):
        code = main(
            ["decompose", "--poly", "X1", "--dim", "3", "--target", "1,0;0,1"]
        )
        assert code == 2


class TestSuite:
    def test_batch_report(self, capsys, tmp_path):
        corpus = tmp_path / "corpus.txt"
        corpus.write_text(
            "# headline cases\n"
            "[X1,X2]\n"
            "X1*X2   # full span\n"
            "\n"
            "[X1,X2]^2\n"
        )
        code, doc = run_json(
            capsys, "suite", "--corpus", str(corpus), "--dim", "2"
        )
        assert code == 0
        assert doc["summary"] == {"total": 3, "violations": 0, "undetermined": 0}
        by_poly = {e["polynomial"]: e for e in doc["entries"]}
        comm = by_poly["X1*X2 - X2*X1"]
        assert comm["classification"] == "TRACE_ZERO"
        assert comm["exclusion"] == "consistent"
        assert comm["reduction"]["multilinear"] is True
        assert comm["reduction"]["containments_ok"] is True
        hall = by_poly["X1*X2*X1*X2 - X1*X2*X2*X1 - X2*X1*X1*X2 + X2*X1*X2*X1"]
        assert hall["classification"] == "SCALARS"
        assert hall["exclusion"] == "inapplicable"
        assert hall["reduction"] is None  # central on M_2: oracle rejects it

    def test_classifies_each_chain_polynomial_once(self, capsys, tmp_path, monkeypatch):
        import ncspan.cli

        calls = []
        real = ncspan.cli._class_of
        monkeypatch.setattr(
            ncspan.cli, "_class_of", lambda f, d, cfg: calls.append(f) or real(f, d, cfg)
        )
        corpus = tmp_path / "corpus.txt"
        corpus.write_text("X1*X1*X2 + X2\n")
        code, doc = run_json(capsys, "suite", "--corpus", str(corpus), "--dim", "2")
        assert code == 0
        reduction = doc["entries"][0]["reduction"]
        assert reduction["steps"] == 1 and reduction["containments_ok"] is True
        # f, then the after of each step.
        assert len(calls) == 1 + reduction["steps"]
        calls.clear()
        corpus.write_text("(X1+X2)^3*X3\n[X1,X2]^2\n")
        code, doc = run_json(capsys, "suite", "--corpus", str(corpus), "--dim", "2")
        steps = [(e["reduction"] or {"steps": 0})["steps"] for e in doc["entries"]]
        assert steps == [4, 0]
        assert len(calls) == len(set(calls)) == len(doc["entries"]) + sum(steps)

    def test_tests_each_polynomial_nontriviality_once(self, capsys, tmp_path, monkeypatch):
        import ncspan.cli
        import ncspan.span

        asked, read = [], []
        real_oracle = ncspan.cli.nontriviality_oracle
        real_values = ncspan.span._values

        def recorded(d, cfg):
            oracle = real_oracle(d, cfg)
            return lambda f: asked.append(f) or oracle(f)

        monkeypatch.setattr(ncspan.cli, "nontriviality_oracle", recorded)
        monkeypatch.setattr(
            ncspan.span, "_values", lambda f, d, cfg: read.append(f) or real_values(f, d, cfg)
        )
        corpus = tmp_path / "corpus.txt"
        corpus.write_text("[X1,X2]*X3*X4\n")
        code, doc = run_json(capsys, "suite", "--corpus", str(corpus), "--dim", "2")
        assert code == 0
        reduction = doc["entries"][0]["reduction"]
        assert reduction["steps"] == 0 and reduction["oracle_true"] is True
        # f's own values, read once: no bracket with a fresh variable.
        assert read == asked == [parse_poly("[X1,X2]*X3*X4")]
        for text, sampled in (("X1*X2", False), ("X1*X1*X2 + X2", False), ("(X1+X2)^3*X3", True), ("[X1,X2]^2", True)):
            asked.clear()
            read.clear()
            corpus.write_text(text + "\n")
            run_json(capsys, "suite", "--corpus", str(corpus), "--dim", "2")
            # One pass per polynomial the oracle is asked about where deg >= 2d,
            # and no other: below degree 4 the degree decides at d=2.
            assert asked and len(asked) == len(set(asked)), text
            assert read == [g for g in asked if g.degree() >= 4], text
            assert bool(read) is sampled, text

    def test_parses_whole_corpus_first(self, capsys, tmp_path, monkeypatch):
        import ncspan.cli

        calls = []
        monkeypatch.setattr(ncspan.cli, "_class_of", lambda *a: calls.append(a))
        corpus = tmp_path / "corpus.txt"
        corpus.write_text("X1\n[X1,X2]\nX1 +\n")
        code = main(["suite", "--corpus", str(corpus), "--dim", "2"])
        assert code == 2
        assert capsys.readouterr().out == ""
        assert calls == []

    def test_undetermined_entries(self, capsys, tmp_path):
        # Every entry names a class, so the summary's undetermined count is 0.
        # A budget of 3 samples at d=3 proves every entry but the scalar one,
        # whose class the budget leaves sampled.
        corpus = str(GOLDEN / "corpus.txt")
        code, doc = run_json(
            capsys, "suite", "--corpus", corpus, "--dim", "3", "--seed", "0", "--max-samples", "3"
        )
        assert code == 0
        assert doc["summary"] == {"total": 11, "violations": 0, "undetermined": 0}
        # No sample proves a trace-zero polynomial that is not a sum of
        # commutators, yet its first non-scalar value names its class.
        path = tmp_path / "non_sum.txt"
        path.write_text(TRACE_ZERO_NON_SUM + "\n[X1,X2]\n")
        code, doc = run_json(
            capsys, "suite", "--corpus", str(path), "--dim", "2", "--seed", "0", "--max-samples", "2"
        )
        entry = doc["entries"][0]
        assert (entry["classification"], entry["rank"], entry["lie_ideal"], entry["exclusion"]) == (
            "TRACE_ZERO", 3, True, "inapplicable"
        )
        assert entry["reduction"]["steps"] and entry["reduction"]["containments_ok"]
        assert doc["entries"][1]["classification"] == "TRACE_ZERO"
        assert doc["summary"] == {
            "total": 2,
            "violations": reference_suite_violations(doc["entries"]),
            "undetermined": 0,
        }
        assert doc["summary"]["violations"] == 0
        assert code == 0

    def test_missing_corpus(self, capsys):
        code = main(["suite", "--corpus", "/nonexistent/corpus.txt", "--dim", "2"])
        assert code == 2

    def test_corpus_not_utf8(self, capsys, tmp_path):
        corpus = tmp_path / "bad.txt"
        corpus.write_bytes(b"X1\n\xff\n")
        code = main(["suite", "--corpus", str(corpus), "--dim", "2"])
        assert code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"ncspan: {corpus}:2: not valid UTF-8 (byte 0xff at column 1)\n"
        # The column counts characters of the line, not bytes of the file.
        corpus.write_bytes("X1\nX2  # \u03b1\u03b2\nX1 # \u00e9\u00e9".encode() + b"\xff\n")
        code = main(["suite", "--corpus", str(corpus), "--dim", "2"])
        assert code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"ncspan: {corpus}:3: not valid UTF-8 (byte 0xff at column 8)\n"
        # A multi-byte sequence cut short is reported at its first byte.
        corpus.write_bytes(b"X1\nX2 # \xce\n")
        assert main(["suite", "--corpus", str(corpus), "--dim", "2"]) == 2
        assert capsys.readouterr().err == f"ncspan: {corpus}:2: not valid UTF-8 (byte 0xce at column 6)\n"

    def test_corpus_with_byte_order_mark(self, capsys, tmp_path):
        # A UTF-8 byte order mark that opens the file is skipped.
        plain = GOLDEN / "corpus.txt"
        corpus = tmp_path / "corpus.txt"
        corpus.write_bytes(codecs.BOM_UTF8 + plain.read_bytes())
        docs = []
        for path in (plain, corpus):
            code, doc = run_json(capsys, "suite", "--corpus", str(path), "--dim", "2", "--seed", "0")
            assert code == 0
            docs.append((doc["entries"], doc["summary"]))
        assert docs[0] == docs[1]
        # Anywhere else it is an unexpected character, at its column.
        corpus.write_bytes(b"X1" + codecs.BOM_UTF8 + b"*X2\n")
        assert main(["suite", "--corpus", str(corpus), "--dim", "2"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"ncspan: {corpus}:1: unexpected character '\\ufeff' (column 3)\n"

    def test_corpus_path_with_nul(self, capsys):
        # open() refuses the path with ValueError, not OSError.
        assert main(["suite", "--corpus", "corpus\0.txt", "--dim", "2"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("ncspan: ") and captured.err.count("\n") == 1

    def test_corpus_parse_error(self, capsys, tmp_path):
        corpus = tmp_path / "bad.txt"
        corpus.write_text("X1 +\n")
        code = main(["suite", "--corpus", str(corpus), "--dim", "2"])
        assert code == 2
        # The error names the corpus path and line.
        assert capsys.readouterr().err.startswith(f"ncspan: {corpus}:1: ")
        corpus.write_text("X1\nX1*(X2\n  X1 +  # indented\n")
        code = main(["suite", "--corpus", str(corpus), "--dim", "2"])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert captured.err == f"ncspan: {corpus}:2: expected ')', found end of input (column 7)\n"
        corpus.write_text("X1\n  X1 +  # indented\n")
        assert main(["suite", "--corpus", str(corpus), "--dim", "2"]) == 2
        # Columns count from the start of the corpus line, indentation included.
        err = capsys.readouterr().err
        assert err.startswith(f"ncspan: {corpus}:2: expected a number, variable")
        assert err.endswith("found end of input (column 7)\n")


def _flip_sum_of_commutators(monkeypatch):
    real = ncspan.cli._class_of

    def flipped(f, d, cfg):
        cls, commutator_sum = real(f, d, cfg)
        return cls, not commutator_sum

    monkeypatch.setattr(ncspan.cli, "_class_of", flipped)


def _fail_reduction(monkeypatch):
    def fail(f, oracle):
        raise OracleFailed("forced")

    monkeypatch.setattr(ncspan.cli, "reduce_to_multilinear", fail)


def _replace_output(text):
    def force(monkeypatch):
        real = ncspan.cli.reduce_to_multilinear
        monkeypatch.setattr(
            ncspan.cli,
            "reduce_to_multilinear",
            lambda f, oracle: dataclasses.replace(real(f, oracle), output=parse_poly(text)),
        )

    return force


def _reduction_with(**fields):
    """The change to an entry: fields replaced in its reduction, if it has one."""
    return lambda e: {} if e["reduction"] is None else {"reduction": {**e["reduction"], **fields}}


# Reason -> (force it by monkeypatch, the change it makes to a golden entry).
FORCED_VIOLATIONS = {
    "exclusion": (
        _flip_sum_of_commutators,
        lambda e: {
            "sum_of_commutators": not e["sum_of_commutators"],
            "exclusion": "violated" if e["exclusion"] == "consistent" else e["exclusion"],
        },
    ),
    "oracle_failed": (
        _fail_reduction,
        lambda e: {} if e["reduction"] is None else {
            "reduction": {"error": "OracleFailed", "message": "forced"}
        },
    ),
    "containment": (
        lambda mp: mp.setattr(Classification, "lies_in", lambda self, other, d: False),
        # With no steps there is no containment to check.
        lambda e: _reduction_with(containments_ok=False)(e)
        if e["reduction"] and e["reduction"]["steps"]
        else {},
    ),
    "not_multilinear": (_replace_output("X1*X1"), _reduction_with(output="X1*X1", multilinear=False)),
    "oracle_false": (_replace_output("0"), _reduction_with(output="0", oracle_true=False)),
}


@pytest.mark.parametrize("d", [2, 3])
@pytest.mark.parametrize("reason", sorted(FORCED_VIOLATIONS))
def test_forced_suite_violation(capsys, monkeypatch, reason, d):
    force, change = FORCED_VIOLATIONS[reason]
    golden = json.loads((GOLDEN / f"suite-d{d}-seed0.json").read_text(encoding="utf-8"))
    want = [{**e, **change(e)} for e in golden["entries"]]
    force(monkeypatch)
    monkeypatch.chdir(GOLDEN)
    code, doc = run_json(capsys, "suite", "--corpus", "corpus.txt", "--dim", str(d), "--seed", "0")
    # Only the forced fields change, and the count agrees with the printed fields.
    assert doc["entries"] == want
    violations = reference_suite_violations(want)
    assert violations > 0
    assert doc["summary"] == {"total": 11, "violations": violations, "undetermined": 0}
    assert code == 1


def test_usage_error_exit_code():
    with pytest.raises(SystemExit) as exc:
        main(["classify", "--dim", "2"])  # missing --poly
    assert exc.value.code == 2


def test_nonpositive_dim_is_usage_error():
    with pytest.raises(SystemExit) as exc:
        main(["classify", "--poly", "X1", "--dim", "0"])
    assert exc.value.code == 2
    with pytest.raises(SystemExit) as exc:
        main(["witness", "--poly", "X1", "--dmax", "-1"])
    assert exc.value.code == 2


# Every option whose type is _positive_int, with the options its subcommand requires.
POSITIVE_INT_OPTIONS = [
    ("classify", "--dim", ("--poly", "X1")),
    ("witness", "--dmax", ("--poly", "X1")),
    ("classify", "--max-samples", ("--poly", "X1", "--dim", "2")),
    ("classify", "--coeff-bound", ("--poly", "X1", "--dim", "2")),
]


# After "x", "1.5" and "": spellings int() reads but the command line does
# not, which is [0-9]+ then check_dimension: other scripts' digits (an
# Arabic-Indic and a fullwidth 2), "_", "+" and surrounding blanks.
@pytest.mark.parametrize("text", ["x", "1.5", "", "\u0662", "\uff12", "1_0", "+2", " 2", "2 ", "2\n"])
@pytest.mark.parametrize("command,option,rest", POSITIVE_INT_OPTIONS, ids=lambda v: v if isinstance(v, str) else None)
def test_non_integer_is_usage_error(capsys, command, option, rest, text):
    with pytest.raises(SystemExit) as exc:
        main([command, *rest, option, text])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert err.endswith(f"ncspan {command}: error: argument {option}: must be a positive integer, got {text!r}\n")
    assert "_positive_int" not in err


SUBCOMMANDS = ("classify", "witness", "linearize", "commtest", "decompose", "suite")
TOP_USAGE = "usage: ncspan [-h] {" + ",".join(SUBCOMMANDS) + "} ..."
# Options that parse for each subcommand, so only the extra option is wrong.
VALID_OPTIONS = {
    "classify": ("--poly", "X1", "--dim", "2"),
    "witness": ("--poly", "X1", "--dmax", "2"),
    "linearize": ("--poly", "X1", "--dim", "2"),
    "commtest": ("--poly", "X1"),
    "decompose": ("--poly", "X1", "--dim", "2", "--target", "1,0;0,1"),
    "suite": ("--corpus", "corpus.txt", "--dim", "2"),
}


def _outcome(capsys, run, argv):
    """(exit code, stdout, stderr) of run(argv), which may exit."""
    try:
        code = run(list(argv))
    except SystemExit as exc:
        code = exc.code
    out, err = capsys.readouterr()
    return code, out, err


def _with_every_subcommand(argv):
    """main on a parser built with every subcommand's options and handler."""
    args = ncspan.cli.build_parser().parse_args(ncspan.cli._attach_literals(argv))
    return args.func(args)


class TestParserPerCommand:
    """main builds the invoked subcommand only; what it prints and returns
    must not depend on that."""

    @pytest.mark.parametrize("command", SUBCOMMANDS)
    @pytest.mark.parametrize("case", ["help", "missing_required", "unrecognized"])
    def test_same_as_every_subcommand(self, capsys, command, case):
        argv = {
            "help": [command, "--help"],
            "missing_required": [command],
            "unrecognized": [command, *VALID_OPTIONS[command], "--bogus", "1"],
        }[case]
        got = _outcome(capsys, main, argv)
        assert got == _outcome(capsys, _with_every_subcommand, argv)
        code, out, err = got
        if case == "help":
            assert (code, err) == (0, "") and out.startswith(f"usage: ncspan {command} [-h]")
        else:
            assert code == 2 and out == ""
        if case == "missing_required":
            assert "the following arguments are required" in err
        if case == "unrecognized":
            assert err.startswith(TOP_USAGE) and "unrecognized arguments: --bogus 1" in err

    @pytest.mark.parametrize(
        "argv,code,usage",
        [
            ([], 2, TOP_USAGE),
            (["bogus"], 2, TOP_USAGE),
            (["Classify", "--poly", "X1"], 2, TOP_USAGE),
            (["--help"], 0, TOP_USAGE),
            (["-h", "classify"], 0, TOP_USAGE),
            (["--he"], 0, TOP_USAGE),
            # An option before the subcommand is named, not reported missing.
            (["--poly", "X1", "classify"], 2, TOP_USAGE),
        ],
        ids=repr,
    )
    def test_no_subcommand_first(self, capsys, argv, code, usage):
        got = _outcome(capsys, main, argv)
        _, out, err = got
        assert got[0] == code and (out if code == 0 else err).startswith(usage)
        if code == 0:
            assert err == "" and all(f"    {c} " in out for c in SUBCOMMANDS)
        if argv[:1] == ["--poly"]:
            # argparse alone runs classify without it: "required: --poly".
            assert out == "" and "error: argument --poly: options go after the subcommand" in err
            assert "required" not in err
        else:
            assert got == _outcome(capsys, _with_every_subcommand, argv)

    @pytest.mark.parametrize(
        "argv",
        [
            ["classify", "--pol", "X1", "--dim", "2"],
            ["classify", "--pol", "-1*X1", "--dim", "2"],
            ["classify", "--poly", "X1", "--di", "2"],
            ["decompose", "--poly", "X1", "--dim", "2", "--targ", "-1,0;0,1"],
            ["classify", "--he"],
        ],
        ids=repr,
    )
    def test_abbreviations_refused(self, capsys, argv):
        # Each option has one spelling: an abbreviated literal option would
        # pass _attach_literals by, and a literal starting with "-" fail.
        code, out, _ = _outcome(capsys, main, argv)
        assert (code, out) == (2, "")

    def test_literal_starting_with_minus(self, capsys):
        code, out, err = _outcome(capsys, main, ["classify", "--poly", "-1*X1", "--dim", "2", "--seed", "0"])
        assert (code, err) == (0, "")
        assert hashlib.sha256(out.encode()).hexdigest() == "f1a23bd5fbe9966de2091aa441c998e53123d09789470d0f24bce7ea2d437701"
        # Only the schema line changed at ncspan/7: set back, the bytes are the ncspan/6 pin.
        old = out.replace('"schema": "ncspan/7"', '"schema": "ncspan/6"')
        assert hashlib.sha256(old.encode()).hexdigest() == "03d0b7a84e7ba348b34365dbc351a031410093e722a0e3fcd29801974e6916fe"

    @pytest.mark.parametrize("command", [c for c in SUBCOMMANDS if c != "commtest"])
    def test_no_stability_window_option(self, capsys, command):
        code, out, err = _outcome(capsys, main, [command, *VALID_OPTIONS[command], "--stability-window", "5"])
        assert (code, out) == (2, "")
        assert err.startswith(TOP_USAGE) and "unrecognized arguments: --stability-window 5" in err

    @pytest.mark.parametrize("command", [*SUBCOMMANDS, None, "bogus", "-h"])
    def test_options_built(self, command):
        # A named subcommand is the only one built; otherwise all six are.
        parser = ncspan.cli.build_parser(command)
        sub = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
        assert list(sub.choices) == ([command] if command in SUBCOMMANDS else list(SUBCOMMANDS))
        assert all(len(p._actions) > 1 and "func" in p._defaults for p in sub.choices.values())

    @pytest.mark.parametrize("command", SUBCOMMANDS)
    def test_usage_names_every_subcommand(self, command):
        usage = ncspan.cli.build_parser(command).format_usage()
        assert usage == ncspan.cli.build_parser().format_usage() and usage.startswith(TOP_USAGE)


class TestFixedLayout:
    """Help and usage errors are laid out at one width: they read neither
    COLUMNS nor the terminal."""

    @pytest.mark.parametrize(
        "argv", [["--help"], ["classify", "--help"], ["classify", "--poly", "X1", "--dim", "0"]], ids=repr
    )
    def test_same_bytes_at_any_width(self, capsys, monkeypatch, argv):
        monkeypatch.setenv("COLUMNS", "80")
        want = _outcome(capsys, main, argv)
        for columns in ("40", "200"):
            monkeypatch.setenv("COLUMNS", columns)
            assert _outcome(capsys, main, argv) == want, f"COLUMNS={columns}"

    def test_no_terminal_query(self, capsys, monkeypatch):
        def no_terminal(*args, **kwargs):
            raise AssertionError("the terminal was queried")

        monkeypatch.setattr(shutil, "get_terminal_size", no_terminal)
        code, _, err = _outcome(capsys, main, ["classify", "--poly", "[X1,X2]", "--dim", "3", "--seed", "0"])
        assert (code, err) == (0, "")


class TestExactReportEntries:
    """Every matrix entry a report holds is an int or a Fraction, and
    decompose prints its inputs as str of the inputs its report's
    certificate built."""

    @pytest.mark.parametrize("d", [2, 3, 4, 5, 6])
    def test_battery(self, capsys, d):
        seen = set()
        for text in ("3/2*X1*X1*X2 + [X2,X1]", "[X1,X2]", "X1*X2 - 1/3*X2*X1"):
            for seed in (0, 7919):
                # max_samples=3 leaves the rank loop's partial bases (no class).
                for max_samples, classify in itertools.product((None, 3), (classify_span, reference_classify_span)):
                    cfg = SampleConfig(seed=seed, max_samples=max_samples)
                    report = classify(parse_poly(text), d, cfg)
                    seen.add(report.classification)
                    values = [v.rows for _, v in report.witnesses]
                    for rows in [report.basis.rows, *values, *(a.rows for args, _ in report.witnesses for a in args)]:
                        assert {type(x) for row in rows for x in row} <= {int, Fraction}
                    if text.startswith("3/2"):
                        assert any(type(x) is Fraction and x.denominator > 1 for m in values for r in m for x in r)
                    if classify is classify_span:
                        # The first witness's value lies in the span, so decompose prints terms.
                        target = matrix_to_text(report.witnesses[0][1])
                        budget = () if max_samples is None else ("--max-samples", str(max_samples))
                        argv = ("decompose", "--poly", text, "--dim", str(d), "--seed", str(seed), "--target", target)
                        code, doc = run_json(capsys, *argv, *budget)
                        terms = decompose_target(report, report.witnesses[0][1])
                        assert code == 0 and doc["verified"] and terms
                        assert all(any(args is t for t in certificate_inputs(report)) for _, args in terms)
                        assert [t["inputs"] for t in doc["terms"]] == [
                            [[[str(x) for x in row] for row in a.rows] for a in args] for _, args in terms
                        ]
                        assert [t["coefficient"] for t in doc["terms"]] == [str(lam) for lam, _ in terms]
        assert None in seen and seen - {None}


# Leaves for the emitter battery: quotes, backslashes, control characters,
# non-ASCII text, and lone surrogates as in a corpus path read with
# surrogateescape.
_STRINGS = [
    "",
    "X1*X2 - X2*X1",
    '-3/2 "quoted" \\ back\\slash',
    "tab\tnewline\ncr\r nul\x00 unit\x1f del\x7f",
    "caf\u00e9 \u6f22\u5b57 \U0001f600 \u2028",
    b"corpus-\xff\x80.txt".decode("utf-8", "surrogateescape"),
    "\ud800 lone high, \udfff lone low",
]
_BIG = 10**5000 - 1  # 5,000 digits


def _leaf(rng):
    return rng.choice(
        [None, True, False, 0, -7, 2**70, -_BIG, _BIG, [], {}, *_STRINGS]
    )


def _document(rng, depth):
    """A nested document of the shapes ncspan emits: str-keyed dicts, lists
    of str (the encoder's fast path), lists mixing str, int and dict."""
    if depth == 0:
        return _leaf(rng)
    kind = rng.randrange(5)
    size = rng.randrange(4)
    if kind == 0:
        return {rng.choice(_STRINGS) + str(i): _document(rng, depth - 1) for i in range(size)}
    if kind == 1:
        return [rng.choice(_STRINGS) for _ in range(size)]
    if kind == 2:
        return [[rng.choice(_STRINGS) for _ in range(size)] for _ in range(size)]
    if kind == 3:
        return [rng.choice([rng.choice(_STRINGS), rng.randint(-9, 9), {"k": _leaf(rng)}]) for _ in range(size + 1)]
    return _leaf(rng)


@pytest.fixture
def unlimited_int_digits():
    """Lift the int-to-str digit limit (Python 3.10.7 on) for the 5,000-digit ints."""
    get = getattr(sys, "get_int_max_str_digits", None)
    if get is None:
        yield
        return
    old = get()
    sys.set_int_max_str_digits(0)
    try:
        yield
    finally:
        sys.set_int_max_str_digits(old)


def _spliced(capsys, doc, laid=()):
    """doc written by the rule classify's skeleton follows: each field named
    in laid is dumped as a placeholder string, a NUL and its key, whose
    JSON text is then replaced by the field's own, laid out as
    json.dumps(indent=2) lays out a top-level field.  It checks first that
    cli._emit prints json.dumps(doc, indent=2)."""
    cli = ncspan.cli
    cli._emit(doc)
    assert capsys.readouterr().out == json.dumps(doc, indent=2) + "\n"
    text = json.dumps({**doc, **{key: "\0" + key for key in laid}}, indent=2)
    for key in laid:
        placeholder = json.dumps("\0" + key)
        assert text.count(placeholder) == 1, key
        text = text.replace(placeholder, json.dumps(doc[key], indent=2).replace("\n", cli._FIELD))
    return text + "\n"


class TestDumps:
    """json.dumps(indent=2) of a document, byte for byte, against the same
    dump with fields spliced in at placeholders, and against cli._emit."""

    @pytest.mark.parametrize("path", sorted(GOLDEN.glob("*.json")), ids=lambda p: p.stem)
    def test_golden(self, path, capsys):
        text = path.read_text()
        doc = json.loads(text)
        assert text == json.dumps(doc, indent=2) + "\n"
        keys = list(doc)
        for laid in ((), keys, keys[:1], keys[2:3], keys[-1:]):
            assert _spliced(capsys, doc, laid) == text, laid

    @pytest.mark.parametrize(
        "doc",
        [
            [[]],
            [["1"]],
            [["-3/2"]],
            {"value": [["0"]], "inputs": [[["7"]], [["-1/2"]]]},
            [[s] for s in _STRINGS],
            [_STRINGS, _STRINGS[::-1]],
            {"basis": [_STRINGS[1:4], _STRINGS[4:]]},
            [["1", "2"], ["3", 4]],
            [["a"], [1, "b"]],
            [["a"], ["b", {"k": "v"}]],
            [["a"], ["b", None]],
            [["a"], []],
            [["a"], "bc"],
            [[["1"]], [["2"]]],
        ],
        ids=repr,
    )
    def test_matrices(self, doc, capsys):
        # A list is a field, printed as it is and spliced in, next to the strings of _STRINGS.
        outer = doc if isinstance(doc, dict) else {"plain": doc, "laid": doc, "strings": _STRINGS}
        for laid in ((), tuple(outer)[:1], tuple(outer)[1:2], tuple(outer)):
            assert _spliced(capsys, outer, laid) == json.dumps(outer, indent=2) + "\n", laid

    @pytest.mark.parametrize("seed", [0, 7919])
    def test_battery(self, seed, unlimited_int_digits, capsys):
        rng = random.Random(seed)
        docs = [_document(rng, rng.randrange(5)) for _ in range(300)]
        docs += [[], {}, None, True, False, -_BIG, _BIG, _STRINGS, {"": [[], {}, [[]]]}]
        outs = []
        for doc in docs:
            outer = doc if isinstance(doc, dict) else {"doc": doc}
            laid = [key for key in outer if rng.randrange(2)]
            outs.append(_spliced(capsys, outer, laid))
            assert outs[-1] == json.dumps(outer, indent=2) + "\n", (doc, laid)
        text = "".join(outs)
        assert all(s in text for s in ("[]", "{}", "null", "true", "false", "\\udcff", "\\u00e9", "\\u0000"))
        assert str(_BIG) in text and "-" + str(_BIG) in text


class TestEmit:
    """The one hand-laid JSON, _grid, and the placeholder splice that
    classify's skeleton is written by."""

    @pytest.mark.parametrize("indent", ["\n  ", "\n      ", "\n        "], ids=len)
    def test_grid(self, indent):
        # classify's basis at a top-level field, witness values and witness inputs.
        for rows in range(6):
            for cols in range(1, 7):
                want = json.dumps([["%s"] * cols] * rows, indent=2).replace("\n", indent)
                assert ncspan.cli._grid(rows, cols, indent) == want, (rows, cols)

    def test_laid_field_between_ordinary_fields(self, capsys):
        doc = {"schema": "s", "basis": [["1", "-1/2"], ["0", "3"]], "rank": 2, "rows": [["x"]], "seed": None}
        for laid in (("basis",), ("basis", "rows")):
            assert _spliced(capsys, doc, laid) == json.dumps(doc, indent=2) + "\n"

    def test_no_laid_field(self, capsys):
        doc = {"schema": "s", "entries": [{"line": 1, "polynomial": "X1"}], "summary": {}}
        assert _spliced(capsys, doc) == json.dumps(doc, indent=2) + "\n"

    def test_nul_in_another_string(self, capsys):
        # Strings that hold a NUL but are not the placeholder are left as they are.
        doc = {"a": "\0", "b": "x\0basis", "c": ["\0basi", "\0basis\0"], "d": {"\0": 0}, "basis": [["1"]]}
        assert _spliced(capsys, doc, ("basis",)) == json.dumps(doc, indent=2) + "\n"


class TestBrokenPipe:
    """A reader that closes stdout early ends the command with exit 141 and
    an empty stderr.  The command runs as a subprocess: main points the
    process's real stdout descriptor at devnull, which in-process would be
    pytest's."""

    ARGV = ("classify", "--poly", "[X1,X2]", "--dim", "12", "--seed", "0")

    def _start(self):
        env = {**os.environ, "PYTHONPATH": str(Path(__file__).parent.parent / "src")}
        cmd = [sys.executable, "-m", "ncspan", *self.ARGV]
        return subprocess.Popen(cmd, stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env)

    def test_closed_reader_exits_141(self):
        # About 1.4 MB of JSON, far above a pipe's 64 KB buffer: the write fails on every run.
        proc = self._start()
        assert len(proc.stdout.read(100)) == 100
        proc.stdout.close()
        _, err = proc.communicate(timeout=60)
        assert (proc.returncode, err) == (141, b"")

    def test_in_process(self, capsys, monkeypatch):
        # The write fails, and cli's os.dup2 is recorded, not run, so
        # pytest's stdout stays as it is: main returns 141, stderr empty.
        def closed_pipe(doc):
            raise BrokenPipeError

        dups = []
        fake_os = types.SimpleNamespace(**vars(os))
        fake_os.dup2 = lambda fd, to: dups.append(to) or os.close(fd)
        monkeypatch.setattr(ncspan.cli, "_emit", closed_pipe)
        monkeypatch.setattr(ncspan.cli, "os", fake_os)
        monkeypatch.setattr(sys, "stdout", types.SimpleNamespace(fileno=lambda: 99))
        assert main(["commtest", "--poly", "X1"]) == 141
        assert dups == [99] and capsys.readouterr().err == ""

    def test_in_process_classify(self, capsys, monkeypatch):
        # classify prints its skeleton itself, not through _emit: here the write fails.
        def closed_pipe(text):
            raise BrokenPipeError

        dups = []
        fake_os = types.SimpleNamespace(**vars(os))
        fake_os.dup2 = lambda fd, to: dups.append(to) or os.close(fd)
        monkeypatch.setattr(ncspan.cli, "os", fake_os)
        monkeypatch.setattr(sys, "stdout", types.SimpleNamespace(write=closed_pipe, fileno=lambda: 99))
        assert main(["classify", "--poly", "[X1,X2]", "--dim", "3", "--seed", "0"]) == 141
        assert dups == [99] and capsys.readouterr().err == ""

    def test_reader_to_the_end_exits_0(self):
        proc = self._start()
        out, err = proc.communicate(timeout=60)
        assert (proc.returncode, err) == (0, b"")
        assert len(out) > 1 << 16 and json.loads(out)["classification"] == "TRACE_ZERO"

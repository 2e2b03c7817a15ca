import json

import pytest

from ncspan.cli import main
from ncspan.text import parse_poly


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
        assert doc["schema"] == "ncspan/3"
        assert doc["classification"] == "TRACE_ZERO"
        assert doc["rank"] == 3
        assert doc["polynomial"] == "X1*X2 - X2*X1"
        assert doc["consistency_flags"]["lie_ideal"] is True
        assert doc["consistency_flags"]["sum_of_commutators"] is True
        assert doc["consistency_flags"]["degree_exclusion_applicable"] is True
        assert doc["consistency_flags"]["degree_exclusion_consistent"] is True
        assert doc["consistency_flags"]["stop_reason"] == "COMMUTATOR_SUM"
        assert doc["samples_used"] == 3
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

    def test_undetermined_exit_code(self, capsys):
        code, doc = run_json(
            capsys,
            "classify", "--poly", "[X1,X2]", "--dim", "2", "--max-samples", "2",
        )
        assert code == 64
        assert doc["classification"] == "UNDETERMINED"

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

    def test_env_seed(self, capsys, monkeypatch):
        monkeypatch.setenv("NCSPAN_SEED", "9")
        _, via_env = run_cli(capsys, "classify", "--poly", "[X1,X2]", "--dim", "2")
        monkeypatch.delenv("NCSPAN_SEED")
        _, via_flag = run_cli(
            capsys, "classify", "--poly", "[X1,X2]", "--dim", "2", "--seed", "9"
        )
        assert via_env == via_flag

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
        import ncspan.cli
        import ncspan.span

        calls = []
        real = ncspan.span.is_identity

        def counted(f, d, cfg=None):
            calls.append((f, d))
            return real(f, d, cfg)

        monkeypatch.setattr(ncspan.cli, "is_identity", counted)
        monkeypatch.setattr(ncspan.span, "is_identity", counted)
        code, doc = run_json(capsys, "witness", "--poly", "[X1,X2]^2", "--dmax", "3")
        assert code == 0
        assert [e["central"] for e in doc["tested"]] == [False, True, False]
        # Central on M_2: f is tested there once, then only its bracket.
        assert calls.count((parse_poly("[X1,X2]^2"), 2)) == 1
        assert len(calls) == len(set(calls))

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
        real = ncspan.cli.classify_span
        monkeypatch.setattr(
            ncspan.cli, "classify_span", lambda f, d, cfg=None: calls.append(f) or real(f, d, cfg)
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
        import ncspan.span

        calls = []
        real = ncspan.span.is_identity
        monkeypatch.setattr(
            ncspan.span, "is_identity", lambda f, d, cfg=None: calls.append(f) or real(f, d, cfg)
        )
        corpus = tmp_path / "corpus.txt"
        corpus.write_text("X1*X2\n")
        code, doc = run_json(capsys, "suite", "--corpus", str(corpus), "--dim", "2")
        assert code == 0
        reduction = doc["entries"][0]["reduction"]
        assert reduction["steps"] == 0 and reduction["oracle_true"] is True
        # f, then its bracket with a fresh variable.
        assert calls == [parse_poly("X1*X2"), parse_poly("X1*X2*X3 - X3*X1*X2")]
        for text in ("X1*X1*X2 + X2", "(X1+X2)^3*X3", "[X1,X2]^2"):
            calls.clear()
            corpus.write_text(text + "\n")
            run_json(capsys, "suite", "--corpus", str(corpus), "--dim", "2")
            assert calls and len(calls) == len(set(calls)), text

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
        assert captured.err.startswith("ncspan: cannot read corpus: ")

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

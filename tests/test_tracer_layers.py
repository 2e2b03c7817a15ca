"""The benchmark tracer's layers stay live on the commands it measures.

perfbench/tracer.py wraps ncspan's entry points by name, so a rename or a
second path beside an entry point silences its layer without failing.  The
tracer is loaded from its file, unchanged, and every layer it names must
resolve; classify, suite and decompose must each be seen classifying, and
the library's Lie check testing membership.
"""

import importlib
import importlib.util
from pathlib import Path

import pytest

import ncspan.cli

ROOT = Path(__file__).resolve().parent.parent
CORPUS = str(ROOT / "tests" / "golden" / "corpus.txt")


@pytest.fixture(scope="module")
def tracer_module():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", ROOT / "perfbench" / "tracer.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_layer_resolves(tracer_module):
    for name, module, path in tracer_module.LAYERS:
        owner = importlib.import_module(module)
        for attr in path.split("."):
            assert hasattr(owner, attr), name
            owner = getattr(owner, attr)
        assert callable(owner), name


@pytest.mark.parametrize(
    "argv",
    (
        ["classify", "--poly", "[X1,X2]", "--dim", "3", "--seed", "0"],
        ["classify", "--poly", "X1*X2", "--dim", "2", "--seed", "0", "--format", "text"],
        ["suite", "--corpus", CORPUS, "--dim", "2", "--seed", "0"],
        ["decompose", "--poly", "[X1,X2]", "--dim", "2", "--seed", "0", "--target", "0,1;0,0"],
    ),
    ids=("classify-json", "classify-text", "suite", "decompose"),
)
def test_commands_show_classify_span(argv, tracer_module, capsys):
    tracer = tracer_module.Tracer()
    with tracer.installed():
        code = ncspan.cli.main(argv)
    assert code in (0, 1)
    assert capsys.readouterr().out
    assert tracer.calls["cli.main"] == 1
    assert tracer.calls["span.classify_span"] > 0
    assert tracer.counters["span.classify_span.samples"] > 0
    assert tracer.counters["span.classify_span.growths"] > 0
    # The wrapping is undone on exit.
    assert not hasattr(ncspan.cli.main, "__wrapped__")
    assert not hasattr(ncspan.cli.classify_span, "__wrapped__")


def test_lie_ideal_check_shows_contains(tracer_module):
    # No command runs the Lie check, so it is called as a library function:
    # through the package attribute, which the tracer replaces.  Each of the
    # 8 rows of sl_3 is bracketed with the 2(d - 1) = 4 Chevalley units.
    tracer = tracer_module.Tracer()
    with tracer.installed():
        assert ncspan.lie_ideal_check(ncspan.SpanBasis.canonical(3, ncspan.Classification.TRACE_ZERO))
    assert tracer.calls["span.lie_ideal_check"] == 1
    assert tracer.calls["linalg.SpanBasis.contains"] == 32


def test_decompose_solves_once_per_target(tracer_module):
    # decompose_target hands each in-span target's system to express_in_terms,
    # once, so the benchmark's linalg.express_in_terms layer reads every solve;
    # a target outside the class and the c * X_i preimage solve nothing.
    cfg = ncspan.SampleConfig(seed=0)
    tracer = tracer_module.Tracer()
    calls = outside = 0
    with tracer.installed():
        for text, d in (("[X1,X2]", 2), ("[X1,X2]", 5), ("X1*X2", 4), ("3/2*X1*X1*X2 + [X2,X1]", 3)):
            report = ncspan.classify_span(ncspan.parse_poly(text), d, cfg)
            for _, value in report.witnesses:
                assert ncspan.decompose_target(report, value.scale(3))
                calls += 1
                assert tracer.calls["linalg.express_in_terms"] == calls
            if report.classification is ncspan.Classification.TRACE_ZERO:
                with pytest.raises(ncspan.NotInSpan):
                    ncspan.decompose_target(report, ncspan.MatrixQ.identity(d))
                outside += 1
        report = ncspan.classify_span(ncspan.parse_poly("3*X2"), 2, cfg)
        assert ncspan.decompose_target(report, ncspan.MatrixQ.identity(2))
    assert outside == 2 and calls == 3 + 24 + 16 + 9
    assert tracer.calls["span.decompose_target"] == calls + outside + 1
    assert tracer.calls["linalg.express_in_terms"] == calls

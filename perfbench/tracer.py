"""Spans around ncspan's public entry points, recorded from outside the package.

``Tracer.installed()`` replaces each entry point listed in ``LAYERS`` with a
wrapper that records a span (id, parent id, op id, name, start, end).  The
wrapper replaces every module-level name bound to the original, so calls
through ``ncspan.span`` and ``ncspan.cli`` (which import the functions by
name) are traced as well as calls through the defining module.  Methods are
replaced on their class.  Everything is restored on exit.

Spans stay in memory; ``dump`` writes them out once the run has ended.  A
span's self time is its duration minus the time of its child spans (calls
are nested and single-threaded, so children never overlap).
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import json
from collections import Counter
from time import perf_counter_ns

# (metric prefix, defining module, attribute path)
LAYERS = (
    ("text.parse_poly", "ncspan.text", "parse_poly"),
    ("poly.NcPoly.is_sum_of_commutators", "ncspan.poly", "NcPoly.is_sum_of_commutators"),
    ("span.evaluate", "ncspan.span", "evaluate"),
    ("span.is_identity", "ncspan.span", "is_identity"),
    ("linearize.reduce_to_multilinear", "ncspan.linearize", "reduce_to_multilinear"),
    ("linalg.SpanBasis.insert", "ncspan.linalg", "SpanBasis.insert"),
    ("linalg.SpanBasis.contains", "ncspan.linalg", "SpanBasis.contains"),
    ("linalg.express_in_terms", "ncspan.linalg", "express_in_terms"),
    ("linalg.commutator", "ncspan.linalg", "commutator"),
    ("span.classify_span", "ncspan.span", "classify_span"),
    ("span.lie_ideal_check", "ncspan.span", "lie_ideal_check"),
    ("span.decompose_target", "ncspan.span", "decompose_target"),
    ("cli.main", "ncspan.cli", "main"),
)

# Modules whose namespaces may hold an imported copy of an entry point.
_NAMESPACES = (
    "ncspan",
    "ncspan.text",
    "ncspan.poly",
    "ncspan.linalg",
    "ncspan.linearize",
    "ncspan.span",
    "ncspan.cli",
)


def _count_classify(counters: Counter, report) -> None:
    counters["span.classify_span.samples"] += report.samples_used
    counters["span.classify_span.growths"] += len(report.witnesses)


def _count_reduction(counters: Counter, reduction) -> None:
    counters["linearize.reduce_to_multilinear.steps"] += len(reduction.steps)


_COUNTERS = {
    "span.classify_span": _count_classify,
    "linearize.reduce_to_multilinear": _count_reduction,
}


class Tracer:
    """Spans, per-name call counts and self times, and counters of one run."""

    def __init__(self):
        self.spans: list[tuple[int, int, int, str, int, int]] = []
        self.calls: Counter = Counter()
        self.self_ns: Counter = Counter()
        self.counters: Counter = Counter()
        self._stack: list[list] = []  # [span id, child ns, name, start ns]

    def enter(self, name: str) -> None:
        self._stack.append([len(self.spans) + len(self._stack), 0, name, perf_counter_ns()])

    def exit(self) -> None:
        end = perf_counter_ns()
        sid, child_ns, name, start = self._stack.pop()
        duration = end - start
        parent = self._stack[-1] if self._stack else None
        op_id = self._stack[0][0] if self._stack else sid
        self.spans.append((sid, parent[0] if parent else -1, op_id, name, start, end))
        self.calls[name] += 1
        self.self_ns[name] += duration - child_ns
        if parent:
            parent[1] += duration

    def _wrap(self, name: str, fn):
        count = _COUNTERS.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            self.enter(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.exit()
            if count is not None:
                count(self.counters, result)
            return result

        return traced

    @contextlib.contextmanager
    def installed(self):
        """Trace every entry point in LAYERS for the duration of the block."""
        modules = [importlib.import_module(m) for m in _NAMESPACES]
        undo = []
        try:
            for name, module, path in LAYERS:
                owner_name, _, attr = path.rpartition(".")
                owner = importlib.import_module(module)
                if owner_name:
                    owner = getattr(owner, owner_name)
                original = getattr(owner, attr)
                wrapper = self._wrap(name, original)
                holders = [owner] + [
                    m for m in modules if m is not owner and getattr(m, attr, None) is original
                ]
                for holder in holders:
                    undo.append((holder, attr, original))
                    setattr(holder, attr, wrapper)
            yield self
        finally:
            for holder, attr, original in reversed(undo):
                setattr(holder, attr, original)

    def dump(self, path) -> None:
        """Write one JSON array per span: id, parent id, op id, name, start ns, end ns."""
        with open(path, "w", encoding="utf-8") as fh:
            for span in sorted(self.spans):
                fh.write(json.dumps(span, separators=(",", ":")))
                fh.write("\n")

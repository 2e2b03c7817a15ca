#!/usr/bin/env python3
"""ncspan benchmark: runs one workload and prints its metrics as one JSON line.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>
    python3 perfbench/run.py --workload all [--seed <n>] [--seconds <s>]

Run it from the root of a checkout: it imports ncspan from ``src/`` and
nothing else outside the standard library.  Workloads are listed in
``BENCHMARK.json`` and explained in ``perfbench/NOTES.md``.

A run executes a fixed number of whole passes of the workload, about
``--seconds`` worth at the commit that defined the benchmark (see
``planned_passes``): a faster ncspan does the same work sooner, so every
percentile compares like with like across commits.  ``--trace 0`` measures
the end-to-end metrics with tracing off.  ``--trace 1`` alternates untraced
and traced passes of the same shape and reports, per traced pass, the calls
and self time of each ncspan entry point listed in ``tracer.LAYERS``.  The last line of standard output is
``{"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}``; a
readable summary goes to standard error, and details (raw wall times, tail
percentile, failures, machine load, and the spans of a traced run) go to
``.perfbench-out/`` in the checkout.  ``--workload all`` runs every
workload in a fresh process each and prints one table.

Times are reported at a nominal machine speed.  The benchmark times a fixed
piece of its own exact arithmetic (``algebra.reference_unit``) after every
timed call, and multiplies the call's wall time by ``REF_NOMINAL_S`` over
the mean reference time of the probes around it (see ``Timings``).  On a
shared machine whose speed drifts by tens of percent from minute to minute
this cancels most of the drift; raw wall times are kept in the details file.

The exit code is 0 when the run completed, whether or not every check
passed (``correct`` says that); it is not 0 when ncspan cannot be imported.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import tempfile
import time
from collections import Counter
from pathlib import Path

from algebra import reference_unit
from tracer import LAYERS, Tracer

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench-out"

WORKLOADS = ("span-highdim", "classify-cli", "suite-d3", "decompose-batch")
COLD_STARTS = 15  # timed cold starts per run for setup_s, after one warm-up
MIN_OPS = 11  # the tail percentile needs ten samples beyond it
WALL_CAP = 2.5  # a run stops early past this many times --seconds of wall time
REF_NOMINAL_S = 0.002  # reference_unit's time at nominal machine speed
PROBE_UNITS = 2  # reference units per speed probe
PROBE_WINDOW_S = 1.0  # probes within this many seconds of a call set its speed


def import_ncspan():
    """Import ncspan from this checkout's src/, or exit without a result."""
    if not (SRC / "ncspan" / "__init__.py").is_file():
        raise SystemExit(f"perfbench: no ncspan package under {SRC}; run from a checkout's root")
    sys.path.insert(0, str(SRC))
    import ncspan

    if Path(ncspan.__file__).resolve().parent != SRC / "ncspan":
        raise SystemExit(f"perfbench: imported ncspan from {ncspan.__file__}, not {SRC}")
    return ncspan


def probe_seconds() -> float:
    """Mean wall time of one reference unit, now."""
    t0 = time.perf_counter()
    for _ in range(PROBE_UNITS):
        reference_unit()
    return (time.perf_counter() - t0) / PROBE_UNITS


class Timings:
    """Wall times of timed calls, and the reference probes taken between them.

    A call's time at nominal speed is its wall time times REF_NOMINAL_S over
    the mean of the probes taken within PROBE_WINDOW_S of the call's middle
    (at least the three nearest probes).  A single probe is noisy; the mean
    over a short window follows the machine's drift without most of it.
    """

    def __init__(self):
        self.calls: list[tuple[str, float, float]] = []  # label, start, wall s
        self.probes: list[tuple[float, float]] = []  # time, reference s
        self.probe()

    def probe(self) -> None:
        self.probes.append((time.perf_counter(), probe_seconds()))

    def add(self, label: str, start: float, elapsed: float) -> None:
        self.calls.append((label, start, elapsed))
        self.probe()

    @property
    def raw(self) -> list[float]:
        return [elapsed for _, _, elapsed in self.calls]

    def references(self) -> list[float]:
        out = []
        for _, start, elapsed in self.calls:
            middle = start + elapsed / 2
            near = sorted(self.probes, key=lambda p: abs(p[0] - middle))
            window = [r for t, r in near if abs(t - middle) <= PROBE_WINDOW_S]
            out.append(statistics.mean(window if len(window) >= 3 else [r for _, r in near[:3]]))
        return out

    def factors(self) -> list[float]:
        return [REF_NOMINAL_S / r for r in self.references()]

    def scaled(self) -> list[float]:
        return [t * f for t, f in zip(self.raw, self.factors())]


def cold_start_seconds(n: int) -> tuple[float, dict, str | None]:
    """Median time, at nominal speed, of ``python -m ncspan commtest --poly X1``."""
    cmd = [sys.executable, "-m", "ncspan", "commtest", "--poly", "X1"]
    env = dict(os.environ, PYTHONPATH=str(SRC))
    timings = Timings()
    error = None
    for k in range(n + 1):
        t0 = time.perf_counter()
        proc = subprocess.run(cmd, cwd=ROOT, env=env, capture_output=True, text=True, timeout=60)
        elapsed = time.perf_counter() - t0
        try:
            doc = json.loads(proc.stdout)
            ok = proc.returncode == 1 and doc["sum_of_commutators"] is False and doc["witness_class"] == "X1"
        except (ValueError, KeyError):
            ok = False
        if not ok:
            error = f"commtest X1: exit {proc.returncode}, stdout {proc.stdout[:200]!r}"
        if k:
            timings.add("cold start", t0, elapsed)
        else:  # the first start writes the bytecode cache and is not timed
            timings.probe()
    scaled = timings.scaled()
    return statistics.median(scaled), {"raw_s": timings.raw, "scaled_s": scaled}, error


def run_pass(ops, timings: Timings, failures: list[str], tracer=None, self_ns=None) -> None:
    """Run one pass: time each call, then check it (and repeat it if asked).

    With a tracer, each op is a root span, and the self time each layer
    spent in the op is appended to self_ns, one Counter per op.
    """
    for op in ops:
        if tracer:
            before = Counter(tracer.self_ns)
            tracer.enter("op")
        t0 = time.perf_counter()
        try:
            result = op.call()
        except Exception as exc:  # an op that raises is a failed op; the run goes on
            result = exc
        elapsed = time.perf_counter() - t0
        if tracer:
            tracer.exit()
            self_ns.append(Counter(tracer.self_ns) - before)
        timings.add(op.label, t0, elapsed)
        try:
            error = op.check(result)
        except Exception as exc:  # output too malformed for the check to read
            error = f"check raised {type(exc).__name__}: {exc}"
        if error is None and op.repeat and tracer is None:
            try:
                again = op.call()
            except Exception as exc:
                again = exc
            if again != result:
                error = "output differs when the call is repeated"
        if error:
            failures.append(f"{op.label}: {error}")


def tail(latencies: list[float]) -> tuple[float, float]:
    """Highest percentile with at least ten samples beyond it: (value, percentile)."""
    xs = sorted(latencies)
    n = len(xs)
    return xs[n - 11], 100.0 * (n - 10) / n


def metric(value, unit: str) -> dict:
    return {"value": value, "unit": unit}


def latency_metrics(xs: list[float]) -> dict:
    return {
        "ops_per_s": metric(len(xs) / sum(xs), "1/s"),
        "op_ms.p50": metric(1000 * statistics.median(xs), "ms"),
        "op_ms.tail": metric(1000 * tail(xs)[0], "ms"),
    }


def planned_passes(wl, seconds: float) -> int:
    """Whole passes for a run of about ``seconds`` where the pass time was measured."""
    return max(math.ceil(MIN_OPS / wl.ops_per_pass), round(seconds / wl.pass_seconds))


def measure(wl, seconds: float, failures: list[str]) -> tuple[dict, dict]:
    timings = Timings()
    start = time.perf_counter()
    passes = 0
    while passes < planned_passes(wl, seconds) and (
        len(timings.calls) < MIN_OPS or time.perf_counter() - start < WALL_CAP * seconds
    ):
        run_pass(wl.pass_ops(passes), timings, failures)
        passes += 1
    details = {
        "passes": passes,
        "ops": len(timings.calls),
        "tail_percentile": tail(timings.raw)[1],
        "raw_wall_clock": {k: m["value"] for k, m in latency_metrics(timings.raw).items()},
        "reference_unit_ms_median": 1000 * statistics.median(r for _, r in timings.probes),
        "calls": timings.calls,
        "probes": timings.probes,
    }
    return latency_metrics(timings.scaled()), details


def measure_traced(wl, seconds: float, failures: list[str], spans_path: Path) -> tuple[dict, dict]:
    tracer = Tracer()
    plain, traced = Timings(), Timings()
    self_ns: list[Counter] = []
    start = time.perf_counter()
    passes = 0
    pairs = max(1, round(seconds / (2 * wl.pass_seconds)))
    while passes < pairs and (passes == 0 or time.perf_counter() - start < WALL_CAP * seconds):
        run_pass(wl.pass_ops(passes), plain, failures)
        ops = wl.pass_ops(passes, salt=1)
        with tracer.installed():
            run_pass(ops, traced, failures, tracer, self_ns)
        passes += 1
    tracer.dump(spans_path)
    scaled_self: Counter = Counter()
    for per_op, factor in zip(self_ns, traced.factors()):
        for name, ns in per_op.items():
            scaled_self[name] += ns * factor

    per_pass = 1.0 / passes
    op_ns = sum(scaled_self.values())
    m = {}
    for name, _, _ in LAYERS:
        m[f"{name}.calls"] = metric(tracer.calls[name] * per_pass, "count")
        m[f"{name}.self_s"] = metric(scaled_self[name] / 1e9 * per_pass, "s")
    m["uncovered.self_s"] = metric(scaled_self["op"] / 1e9 * per_pass, "s")
    samples = tracer.counters["span.classify_span.samples"]
    growths = tracer.counters["span.classify_span.growths"]
    m["span.classify_span.samples"] = metric(samples * per_pass, "count")
    m["span.classify_span.growths"] = metric(growths * per_pass, "count")
    m["span.classify_span.growth_ratio"] = metric(growths / samples if samples else 0.0, "ratio")
    m["linearize.reduce_to_multilinear.steps"] = metric(
        tracer.counters["linearize.reduce_to_multilinear.steps"] * per_pass, "count"
    )
    entries = wl.entries_per_op * len(traced.calls)
    m["cli.suite.classify_calls_per_entry"] = metric(
        tracer.calls["span.classify_span"] / entries if entries else 0.0, "count"
    )
    m["trace.overhead"] = metric(sum(traced.scaled()) / sum(plain.scaled()), "ratio")
    shares = {("uncovered" if k == "op" else k): v / op_ns for k, v in scaled_self.items()}
    details = {
        "passes": passes,
        "ops": len(plain.calls) + len(traced.calls),
        "ops_per_pass": len(traced.calls) * per_pass,
        "spans_per_pass": len(tracer.spans) * per_pass,
        "self_time_shares": dict(sorted(shares.items(), key=lambda kv: -kv[1])),
        "untraced_s": sum(plain.scaled()),
        "traced_s": sum(traced.scaled()),
        "spans_file": str(spans_path.relative_to(ROOT)),
    }
    return m, details


def git_commit() -> str | None:
    if not (ROOT / ".git").exists():
        return None
    proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True)
    return proc.stdout.strip() or None


def run_one(args) -> int:
    import_ncspan()
    import workloads

    load_start = os.getloadavg()
    OUT.mkdir(exist_ok=True)
    failures: list[str] = []
    details: dict = {}
    setup_error = None
    if not args.trace:
        setup_s, details["cold_starts"], setup_error = cold_start_seconds(COLD_STARTS)
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    with tempfile.TemporaryDirectory(prefix="work-", dir=OUT) as workdir:
        wl = workloads.make(args.workload, args.seed, args.tiny, Path(workdir))
        failures.extend(wl.setup_failures)
        if args.trace:
            metrics, more = measure_traced(wl, args.seconds, failures, OUT / f"spans-{tag}.jsonl")
        else:
            metrics, more = measure(wl, args.seconds, failures)
    details.update(more)
    attempted = details["ops"] + len(wl.setup_failures)
    failed = len(failures)
    if not args.trace:
        metrics["setup_s"] = metric(setup_s, "s")
        metrics["peak_rss_mb"] = metric(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB")
        metrics["ok_ratio"] = metric((attempted - failed) / attempted, "ratio")
    if setup_error:
        failures.append(setup_error)
    result = {
        "correct": not failures,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }
    details.update(
        workload=args.workload,
        seed=args.seed,
        seconds=args.seconds,
        trace=args.trace,
        fail_ratio=failed / attempted,
        failures=failures[:50],
        python=platform.python_version(),
        nproc=os.cpu_count(),
        loadavg_start=load_start,
        loadavg_end=os.getloadavg(),
        commit=git_commit(),
        result=result,
    )
    (OUT / f"result-{tag}.json").write_text(json.dumps(details, indent=1) + "\n", encoding="utf-8")
    summarise(details)
    print(json.dumps(result))
    return 0


def summarise(details: dict) -> None:
    def say(line: str) -> None:
        print(line, file=sys.stderr)

    result = details["result"]
    say(
        f"perfbench {details['workload']} seed={details['seed']} trace={details['trace']}: "
        f"{result['attempted']} ops attempted, {result['failed']} failed "
        f"(fail_ratio {details['fail_ratio']:.4g}), {details['passes']} passes"
    )
    for name, m in result["metrics"].items():
        say(f"  {name:45s} {m['value']:>14.6g} {m['unit']}")
    if "tail_percentile" in details:
        say(f"  op_ms.tail is p{details['tail_percentile']:.1f} of {details['ops']} ops")
        raw = ", ".join(f"{k} {v:.6g}" for k, v in details["raw_wall_clock"].items())
        say(
            f"  raw wall clock: {raw}; reference unit "
            f"{details['reference_unit_ms_median']:.3f} ms (nominal {1000 * REF_NOMINAL_S:g} ms)"
        )
    if "self_time_shares" in details:
        say("  self-time shares of traced op time (uncovered = no ncspan span):")
        for name, share in details["self_time_shares"].items():
            if share:
                say(f"    {name:43s} {share:>8.2%}")
        say(
            f"  tracing overhead: traced {details['traced_s']:.3f} s vs untraced "
            f"{details['untraced_s']:.3f} s over {details['passes']} passes each"
        )
    load = details["loadavg_start"][0], details["loadavg_end"][0]
    say(
        f"  python {details['python']}, nproc {details['nproc']}, "
        f"load {load[0]:.2f} -> {load[1]:.2f}, commit {details['commit']}"
    )
    for line in details["failures"][:10]:
        say(f"  FAILED {line}")


def run_all(args) -> int:
    """Every workload in its own process; one table of end-to-end metrics."""
    ok = True
    rows = []
    for name in WORKLOADS:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", "0"]
        if args.tiny:
            cmd.append("--tiny")
        proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode or not lines:
            print(f"perfbench: {name} exited with {proc.returncode}", file=sys.stderr)
            return proc.returncode or 1
        result = json.loads(lines[-1])
        ok = ok and result["correct"]
        rows.extend((name, k, m["value"], m["unit"]) for k, m in result["metrics"].items())
        rows.append((name, "fail_ratio", result["failed"] / result["attempted"], "ratio"))
    for name, key, value, unit in rows:
        print(f"{name:16s} {key:14s} {value:>12.6g} {unit}")
    print("all outputs correct" if ok else "SOME OUTPUTS WRONG")
    return 0 if ok else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true", help="small dimensions, for the self-test")
    args = parser.parse_args(argv)
    if args.workload == "all":
        return run_all(args)
    return run_one(args)


if __name__ == "__main__":
    sys.exit(main())

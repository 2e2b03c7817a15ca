#!/usr/bin/env python3
"""Self-test of the benchmark: every workload at a tiny size, untraced and traced.

    python3 perfbench/selftest.py

Run it from the root of a checkout.  For each workload and each ``--trace``
value it runs ``run.py --tiny --seconds 1`` in a fresh process and requires
that the last line of standard output is the result object, that it holds
exactly the metrics BENCHMARK.json lists for that mode with their units, and
that no operation failed.  It also requires that, in a directory holding only
BENCHMARK.json and the benchmark's own files, the benchmark exits with a
nonzero code and prints no result.  Exits 1 on the first problem.
"""

from __future__ import annotations

import json
import math
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
RUN = ["perfbench/run.py"]


def fail(message: str) -> None:
    raise SystemExit(f"selftest: {message}")


def run(cwd: Path, *args: str) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, *RUN, *args], cwd=cwd, capture_output=True, text=True, timeout=170
    )


def check_result(spec: dict, workload: str, trace: int) -> None:
    proc = run(ROOT, "--workload", workload, "--seed", "3", "--seconds", "1", "--trace", str(trace), "--tiny")
    where = f"{workload} --trace {trace}"
    if proc.returncode != 0:
        fail(f"{where} exited {proc.returncode}: {proc.stderr[-1500:]}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        fail(f"{where}: result keys {sorted(result)}")
    if not result["correct"] or result["failed"] != 0 or result["attempted"] < 1:
        fail(f"{where}: correct={result['correct']} failed={result['failed']}: {proc.stderr[-1500:]}")
    wanted = {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}
    got = {name: m["unit"] for name, m in result["metrics"].items()}
    if got != wanted:
        fail(f"{where}: metrics {got} differ from BENCHMARK.json {wanted}")
    for name, m in result["metrics"].items():
        if not isinstance(m["value"], (int, float)) or not math.isfinite(m["value"]):
            fail(f"{where}: {name} = {m['value']!r}")
    if not trace and result["metrics"]["ok_ratio"]["value"] != 1:
        fail(f"{where}: ok_ratio {result['metrics']['ok_ratio']['value']}, so fail_ratio is not 0")
    print(f"selftest: {where}: {result['attempted']} ops, all metrics present, none failed")


def check_refuses_without_sources() -> None:
    out = ROOT / ".perfbench-out"
    out.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(prefix="bare-", dir=out) as bare:
        bare = Path(bare)
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        shutil.copytree(HERE, bare / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
        proc = run(bare, "--workload", "span-highdim", "--seed", "1", "--seconds", "1", "--trace", "0")
    if proc.returncode == 0 or proc.stdout.strip():
        fail(f"without sources: exit {proc.returncode}, stdout {proc.stdout[-300:]!r}")
    print(f"selftest: without sources the benchmark exits {proc.returncode} and prints no result")


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    for workload in (w["name"] for w in spec["workloads"]):
        for trace in (0, 1):
            check_result(spec, workload, trace)
    check_refuses_without_sources()
    print("selftest: ok")
    return 0


if __name__ == "__main__":
    sys.exit(main())

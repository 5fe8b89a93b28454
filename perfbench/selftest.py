#!/usr/bin/env python3
"""Fast self-test of the decode benchmark, at tiny trial counts.

    python3 perfbench/selftest.py

Checks that every metric BENCHMARK.json declares is emitted, with its
unit, by every workload in both modes; that the output checks fire on a
tampered report, a tampered traced replay, a tampered trajectory digest
and a stored digest that differs; that the command line prints the
result as its last line and matches its stored digest; and that the
benchmark refuses to run without the resfact sources.  Exits 0 when
every check passes.
"""

from __future__ import annotations

import dataclasses
import json
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import run as bench  # noqa: E402

SEED = 42
RESULT_KEYS = {"correct", "attempted", "failed", "metrics"}


def tiny(workload: bench.Workload) -> bench.Workload:
    return dataclasses.replace(workload, trials=2, max_iters=min(workload.max_iters, 25))


def expect(cond: bool, what: str) -> None:
    if not cond:
        raise AssertionError(what)
    print(f"ok  {what}")


def check_metrics(result: dict, declared: list, label: str) -> None:
    expect(set(result) == RESULT_KEYS and result["correct"] and result["failed"] == 0
           and result["attempted"] >= 1, f"{label}: result line passes its own checks")
    metrics = result["metrics"]
    expect(set(metrics) == {m["name"] for m in declared}, f"{label}: every declared metric")
    for m in declared:
        got = metrics[m["name"]]
        value_ok = isinstance(got["value"], (int, float)) and not isinstance(got["value"], bool)
        if m["name"] == "s_per_correct" and got["value"] is None:
            value_ok = True  # undefined when no tiny-pool trial decoded
        if got["unit"] != m["unit"] or not value_ok:
            raise AssertionError(f"{label}: {m['name']} = {got}, declared unit {m['unit']}")


def tampered_runs(name: str, workload: bench.Workload) -> None:
    real_csv, real_run = bench.report_to_csv_bytes, bench.run
    calls = []

    def csv_tampered_after_first_pass(report):
        calls.append(1)
        data = real_csv(report)
        return data if len(calls) == 1 else data.replace(b",", b";", 1)

    def run_flipping_convergence(*args, **kwargs):
        res = real_run(*args, **kwargs)
        return dataclasses.replace(res, converged=not res.converged)

    try:
        bench.report_to_csv_bytes = csv_tampered_after_first_pass
        out = bench.measure(name, workload, SEED, 0, trace=False, probes=1)
        expect(not out["result"]["correct"] and out["result"]["failed"] > 0,
               "repeat check fires on a tampered report")
        bench.report_to_csv_bytes = real_csv
        bench.run = run_flipping_convergence
        out = bench.measure(name, workload, SEED, 0, trace=True, probes=1)
        expect(not out["result"]["correct"] and out["report"]["checks"]["traced_vs_untraced"],
               "traced-vs-untraced check fires on a tampered replay")
    finally:
        bench.report_to_csv_bytes, bench.run = real_csv, real_run
    out = bench.measure(name, workload, SEED, 0, trace=False, probes=1,
                        expected={"report_csv_sha256": "0" * 64})
    expect(not out["result"]["correct"]
           and out["result"]["failed"] == out["result"]["attempted"],
           "stored-digest check fires on a report that differs from the stored one")
    digests = {"0/0": "a" * 64, "0/1": "b" * 64}
    expect(bench.check_digests(digests, {"0/0": "a" * 64}) == [], "equal digests pass")
    expect(bench.check_digests(digests, {"0/1": "c" * 64}) == ["0/1"],
           "digest check fires on a tampered trajectory")


def command_line() -> None:
    out = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", "f2-brn-setup-1e4",
         "--seed", "7", "--seconds", "0", "--trace", "0"],
        capture_output=True, text=True, timeout=170,
    )
    result = json.loads(out.stdout.splitlines()[-1])
    expect(out.returncode == 0 and set(result) == RESULT_KEYS and result["correct"],
           "command line prints the result line last, matches the stored digest and exits 0")


def without_sources() -> None:
    bare = bench.SPANS_DIR / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(HERE, bare / HERE.name, ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(HERE.parent / "BENCHMARK.json", bare)
    try:
        out = subprocess.run(
            [sys.executable, f"{HERE.name}/run.py", "--workload", "f2-brn-setup-1e4",
             "--seed", "1", "--seconds", "1", "--trace", "0"],
            cwd=bare, capture_output=True, text=True, timeout=170,
        )
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    expect(out.returncode != 0 and '"correct"' not in out.stdout,
           "refuses to run without the resfact sources")


def main() -> int:
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    expect({w["name"] for w in spec["workloads"]} == set(bench.WORKLOADS),
           "BENCHMARK.json names exactly the benchmark's workloads")
    for name, workload in bench.WORKLOADS.items():
        for trace, declared in ((False, spec["end_to_end"]), (True, spec["per_layer"])):
            out = bench.measure(name, tiny(workload), SEED, 0, trace=trace, probes=1)
            check_metrics(out["result"], declared, f"{name} trace={int(trace)}")
    tampered_runs("f2-brn-setup-1e4", tiny(bench.WORKLOADS["f2-brn-setup-1e4"]))
    command_line()
    without_sources()
    print("selftest: all checks passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())

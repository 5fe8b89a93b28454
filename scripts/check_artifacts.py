#!/usr/bin/env python3
"""Rerun every script that writes results/ and compare its files with results/, byte for byte.

Each script in ``SCRIPTS`` runs with its defaults and ``--out`` a
temporary directory, as many at a time as there are usable CPUs, on
the resfact package under ``src/`` of this checkout.  The check fails
(exit status 1) if a script fails, or if any file differs from its
committed copy, is missing from ``results/`` or is written by no
script; it names each such file and, for text that differs, its first
differing line.  It rewrites nothing under ``results/``: regenerate a
stale artifact by running its script without ``--out``.

    python3 scripts/check_artifacts.py

A change to the decoder that is meant to keep every trajectory runs
this check and reports it; it is not part of the test suite, since it
takes over a minute.
"""

from __future__ import annotations

import argparse
import os
import subprocess
import sys
import tempfile
import time
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
RESULTS = ROOT / "results"
SCRIPTS = ("acf_capacity_extension.py", "tune_convergence_threshold.py", "noise_benefit_f3.py",
           "brn_capacity_ceiling.py")


def rerun(script: str, out: Path) -> tuple:
    """Run ``script`` with ``--out out``; returns its exit status, stderr and wall time."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")])))
    t0 = time.perf_counter()
    done = subprocess.run([sys.executable, str(ROOT / "scripts" / script), "--out", str(out)],
                          capture_output=True, text=True, env=env)
    return done.returncode, done.stderr, time.perf_counter() - t0


def first_difference(got: bytes, want: bytes) -> str:
    """The first line where two texts differ, as 'line N: committed ... rerun ...'."""
    a, b = want.decode(errors="replace").splitlines(), got.decode(errors="replace").splitlines()
    for i, (x, y) in enumerate(zip(a, b), 1):
        if x != y:
            return f"line {i}: committed {x!r}, rerun {y!r}"
    return f"committed {len(a)} lines, rerun {len(b)}"


def main(argv=None) -> int:
    argparse.ArgumentParser(description=__doc__.splitlines()[0]).parse_args(argv)

    problems = []
    written = {}
    with tempfile.TemporaryDirectory() as tmp:
        outs = {script: Path(tmp) / Path(script).stem for script in SCRIPTS}
        with ThreadPoolExecutor(len(os.sched_getaffinity(0))) as pool:
            runs = dict(zip(SCRIPTS, pool.map(lambda s: rerun(s, outs[s]), SCRIPTS)))
        for script, (status, stderr, seconds) in runs.items():
            print(f"{script}: exit {status} in {seconds:.0f} s")
            if status != 0:
                problems.append(f"{script} failed:\n{stderr}")
                continue
            for path in sorted(outs[script].iterdir()):
                written[path.name] = (script, path.read_bytes())
    for name, (script, got) in sorted(written.items()):
        committed = RESULTS / name
        if not committed.exists():
            problems.append(f"results/{name}, written by {script}, is not committed")
        elif committed.read_bytes() != got:
            problems.append(f"results/{name} differs from what {script} writes now: "
                            f"{first_difference(got, committed.read_bytes())}")
    for path in sorted(RESULTS.iterdir()):
        if path.name not in written and not any(status for status, _, _ in runs.values()):
            problems.append(f"results/{path.name} is written by none of {', '.join(SCRIPTS)}")
    for problem in problems:
        print(f"FAIL: {problem}")
    print(f"{len(written)} artifacts rerun, {len(problems)} problems")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())

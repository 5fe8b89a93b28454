#!/usr/bin/env python3
"""Seeded decode benchmark for resfact.

One run decodes one workload's fixed trial pool through the public
``resfact.bench.run_sweep``, in a single closed-loop process (one
caller, ``parallelism=1``, BLAS threads at the default), and prints its
metrics.  The pool is fixed by the workload's ``pool_seed``; ``--seed``
is the master seed of the untimed warm-up trial.  README.md says why
the measured pool does not follow ``--seed``.

    python3 perfbench/run.py --workload f2-brn-dense-1e6 --seed 42 --seconds 10 --trace 0

``--trace 0`` prints the end-to-end metrics of untraced passes;
``--trace 1`` replays the same trials with spans around the calls into
``bench`` and ``factorizer`` and prints the per-layer metrics.  The
last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``; the line before it is the
full report (provenance, every metric, the output checks).  See
perfbench/README.md for the metric definitions.
"""

from __future__ import annotations

import argparse
import ctypes
import dataclasses
import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Optional

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
sys.path.insert(0, str(SRC))

# A child process replays part of the pool on one BLAS thread, so that
# a gain from threading is not mistaken for a kernel gain.
ONE_THREAD_CHILD = "--one-thread-child"
ONE_THREAD_ENV = dict(os.environ, OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1",
                      MKL_NUM_THREADS="1")

import numpy as np  # noqa: E402

import resfact  # noqa: E402

if Path(resfact.__file__).resolve().parent != SRC / "resfact":
    sys.exit(f"perfbench: resfact must be imported from {SRC}, got {resfact.__file__}")

from resfact.bench import SweepConfig, make_instance, run_sweep, trial_seed_for  # noqa: E402
from resfact.factorizer import (  # noqa: E402
    FactorizerConfig,
    VariantSpec,
    _Kernels,
    derive_streams,
    init_estimates,
    perturb_codebooks,
    run,
)
from resfact.presets import load_preset_table  # noqa: E402
from resfact.report import report_to_csv_bytes  # noqa: E402

#: Convergence threshold of the acceptance tests.
CONV = 0.55
#: Timed passes per run, at least; the output check compares them.
MIN_PASSES = 2
#: Set-up is measured this many times per run, each in a fresh process.
SETUP_PROBES = 9
#: The warm-up trial stops after this many sweeps, so set-up time does
#: not depend on how long one instance takes to converge.
WARMUP_SWEEPS = 5
#: The one-thread child replays trials until this much time has passed.
CHILD_SECONDS = 2.0
SPANS_DIR = ROOT / ".perfbench_out"
#: Per workload, the SHA-256 of the pool's CSV report and of its
#: trajectories.  A change that means to alter decodes updates them.
EXPECTED = json.loads((Path(__file__).resolve().parent / "expected.json").read_text())


@dataclass(frozen=True)
class Workload:
    """One fixed decode problem; ``rows`` are per-row SweepConfig fields."""

    F: int
    size: int
    rows: tuple
    trials: int
    max_iters: int
    pool_seed: int = 42

    def configs(self, seed: int) -> list:
        return [
            SweepConfig(
                F=self.F, search_space_sizes=(self.size,), trials_per_size=self.trials,
                max_iters=self.max_iters, convergence_threshold=CONV, master_seed=seed,
                **row,
            )
            for row in self.rows
        ]


# Pool sizes keep one pass at a few seconds; README.md says why each workload exists.
WORKLOADS = {
    "f2-brn-dense-1e6": Workload(
        F=2, size=1_000_000, rows=(dict(variant_kind="brn", D=1000),),
        trials=16, max_iters=500,
    ),
    "f3-variants-1e7": Workload(
        F=3, size=10_000_000,
        rows=tuple(dict(variant_kind=k, use_presets=True) for k in ("brn", "acf", "imf")),
        trials=6, max_iters=1500,
    ),
    "f2-acf-sparse-5e6": Workload(
        F=2, size=5_000_000,
        rows=(dict(variant_kind="acf", D=1000, flip_rate=0.05, activation_threshold=0.05),),
        # Master seed 1 puts one budget-exhausting decode among the first
        # six trials; at 42 the first one is trial 29.
        trials=6, max_iters=6000, pool_seed=1,
    ),
    "f2-brn-setup-1e4": Workload(
        # D=4000 rather than 1000: at D=1000 the run is mostly interpreter
        # time, whose speed on a shared host spreads more between runs.
        F=2, size=10_000, rows=(dict(variant_kind="brn", D=4000),),
        trials=100, max_iters=500,
    ),
}


# ---------------------------------------------------------------- helpers


def pct(values, q: float) -> float:
    return float(np.percentile(values, q))


def second_slowest(samples) -> float:
    """The slowest sample once the single slowest is set aside as a one-off stall."""
    ordered = sorted(samples)
    return ordered[-2] if len(ordered) > 1 else ordered[0]


def metric(value, unit: str) -> dict:
    return {"value": value, "unit": unit}


def blas_threads() -> Optional[int]:
    """Thread count of the OpenBLAS that numpy loaded, or None if unknown."""
    try:
        with open("/proc/self/maps") as fh:
            libs = {line.split()[-1] for line in fh if "openblas" in line.lower()}
    except OSError:
        return None
    names = ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
             "openblas_get_num_threads")
    for path in sorted(libs):
        lib = ctypes.CDLL(path)
        for name in names:
            fn = getattr(lib, name, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def git_commit() -> str:
    if not (ROOT / ".git").exists():
        return "unknown (not a git checkout)"
    out = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                         capture_output=True, text=True, timeout=30)
    return out.stdout.strip() if out.returncode == 0 else "unknown"


def provenance(workload: str, seed: int) -> dict:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "resfact_version": resfact.__version__,
        "git_commit": git_commit(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": {"name": blas.get("name"), "version": blas.get("version"),
                 "threads": blas_threads()},
        "nproc": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
        "workload": workload,
        "seed": seed,
    }


# ------------------------------------------------------- set-up and passes


def warm_up(configs) -> None:
    """One untimed trial per row, capped at WARMUP_SWEEPS sweeps."""
    load_preset_table()
    for cfg in configs:
        run_sweep(dataclasses.replace(
            cfg, trials_per_size=1, max_iters=min(WARMUP_SWEEPS, cfg.max_iters)))


def setup_probe(workload: str, seed: int) -> float:
    """Seconds from the start of a fresh process to its first timed trial."""
    t0 = time.perf_counter()
    proc = subprocess.Popen(
        [sys.executable, str(Path(__file__).resolve()), "--setup-probe",
         "--workload", workload, "--seed", str(seed)],
        stdout=subprocess.PIPE, text=True,
    )
    try:
        line = proc.stdout.readline()
        sample = time.perf_counter() - t0
        proc.stdout.close()
        proc.wait(timeout=60)
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
    if line.strip() != "ready" or proc.returncode != 0:
        raise RuntimeError(f"set-up probe failed (exit {proc.returncode})")
    return sample


def sweep_pass(configs):
    """One pass over the pool; returns (wall seconds, csv bytes, reports)."""
    t0 = time.perf_counter()
    reports = [run_sweep(cfg) for cfg in configs]
    wall = time.perf_counter() - t0
    return wall, b"".join(report_to_csv_bytes(r) for r in reports), reports


def timed_passes(configs, seconds: float, probe, probes: int):
    """Repeat whole passes, with ``probes`` calls of ``probe`` spread between them.

    A further pass starts only if, as long as the longest so far, it ends
    within ``seconds``; there are at least MIN_PASSES.  Probe k runs before
    the first pass that starts after ``k * seconds / probes``, so probes and
    passes see the same stretch of machine time; any left run at the end.
    Returns (walls, csvs, reports, probe samples).
    """
    walls, csvs, samples = [], [], []
    start = time.perf_counter()
    reports = None
    while True:
        elapsed = time.perf_counter() - start
        if len(walls) >= MIN_PASSES and elapsed + max(walls) > seconds:
            break
        while len(samples) < probes and len(samples) * seconds <= probes * elapsed:
            samples.append(probe())
        wall, csv, reports = sweep_pass(configs)
        walls.append(wall)
        csvs.append(csv)
    samples += [probe() for _ in range(probes - len(samples))]
    return walls, csvs, reports, samples


def pool_counts(reports) -> dict:
    trials = sum(r.rows[0].trials for r in reports)
    sweeps = sum(round(r.rows[0].mean_iterations * r.rows[0].trials) for r in reports)
    correct = sum(round(r.rows[0].accuracy * r.rows[0].trials) for r in reports)
    return {"trials": trials, "sweeps": sweeps, "correct": correct}


# ------------------------------------------------------------ output checks


def check_repeats(csvs) -> list:
    """Indices of passes whose report bytes differ from the first pass."""
    return [i for i, c in enumerate(csvs) if c != csvs[0]]


def check_traced(reports, traced_rows) -> list:
    """Rows where the traced replay disagrees with the untraced report."""
    bad = []
    for report, traced in zip(reports, traced_rows):
        row = report.rows[0]
        if (traced["accuracy"], traced["mean_iterations"]) != (row.accuracy, row.mean_iterations):
            bad.append(f"{row.variant}: traced {traced['accuracy']}/{traced['mean_iterations']}"
                       f" vs untraced {row.accuracy}/{row.mean_iterations}")
    return bad


def check_digests(traced: dict, child: dict) -> list:
    """Trials whose one-thread trajectory digest differs from the traced one."""
    return [key for key, digest in child.items() if traced.get(key) != digest]


def check_expected(got: dict, expected: Optional[dict]) -> list:
    """Names of the digests that differ from the stored ones."""
    if expected is None:
        return []
    return [key for key, digest in got.items() if expected.get(key) != digest]


# ------------------------------------------------------------ traced replay


def replay_plan(reports) -> list:
    """Each row's report fields and master seed, for replaying the pool trial by trial."""
    return [dict(dataclasses.asdict(r.rows[0]), master_seed=r.config.master_seed)
            for r in reports]


def replay_order(plan):
    """(row index, trial index) pairs, trials interleaved across rows."""
    for t in range(max(p["trials"] for p in plan)):
        for r, p in enumerate(plan):
            if t < p["trials"]:
                yield r, t


class Tracer:
    """In-memory spans; one trace per trial, written out when the run ends."""

    def __init__(self):
        self.spans = []

    def add(self, trace: str, name: str, start: float, end: float,
            parent: Optional[str] = None, **attrs) -> str:
        span_id = f"{trace}/{len(self.spans)}"
        self.spans.append({"trace": trace, "id": span_id, "parent": parent, "name": name,
                           "start": start, "end": end, **attrs})
        return span_id

    def write(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w") as fh:
            for span in self.spans:
                fh.write(json.dumps(span) + "\n")


def replay_trial(p: dict, t: int, tracer: Optional[Tracer] = None) -> dict:
    """Decode one pool trial through make_instance and factorizer.run, timing each call."""
    variant = VariantSpec(p["variant"], sigma=p["sigma"], flip_rate=p["flip_rate"],
                          activation_threshold=p["activation_threshold"])
    seed = trial_seed_for(p["master_seed"], 0, t)
    thresh = p["activation_threshold"]
    stamps, survivors, flips = [], [], []
    digest = hashlib.sha256()
    prev = {}

    def on_step(state):
        stamps.append(time.perf_counter())
        digest.update(state.estimates.tobytes())
        survivors.append(int(np.count_nonzero(state.attentions > thresh)))
        if prev:
            flips.append(int(np.count_nonzero(state.estimates != prev["est"])))
        else:
            prev["first"] = state.estimates
        prev["est"] = state.estimates

    t0 = time.perf_counter()
    x, books, truth, fact_seed = make_instance(seed, p["M"], p["F"], p["D"])
    t1 = time.perf_counter()
    cfg = FactorizerConfig(variant=variant, F=p["F"], M=p["M"], D=p["D"],
                           max_iters=p["max_iters"],
                           convergence_threshold=p["convergence_threshold"], seed=fact_seed)
    res = run(x, books, cfg, on_step=on_step)
    t2 = time.perf_counter()
    # Direct set-up call, outside the trial span: the same streams, masks
    # and initial estimates that run() built.
    streams = derive_streams(fact_seed)
    pbooks = perturb_codebooks(books, variant, streams.masks)
    init = init_estimates(pbooks, streams.init)
    t3 = time.perf_counter()
    flips.insert(0, int(np.count_nonzero(prev["first"] != init.estimates)))

    if len(stamps) != res.iterations:
        raise RuntimeError(f"on_step fired {len(stamps)} times for {res.iterations} sweeps")
    if tracer is not None:
        trace = f"{p['variant']}-{t}"
        root = tracer.add(trace, "bench.trial", t0, t2, seed=seed)
        tracer.add(trace, "bench.make_instance", t0, t1, parent=root)
        run_span = tracer.add(trace, "factorizer.run", t1, t2, parent=root,
                              sweeps=res.iterations, converged=res.converged)
        for i, (a, b) in enumerate(zip([t1] + stamps[:-1], stamps)):
            tracer.add(trace, "factorizer.sweep", a, b, parent=run_span, sweep=i + 1,
                       survivors=survivors[i], bits_flipped=flips[i])
        tracer.add(trace, "factorizer.setup", t2, t3)
    return {
        "trial_s": t2 - t0, "make_instance_s": t1 - t0, "setup_s": t3 - t2,
        "first_sweep_s": stamps[0] - t1,
        "sweep_s": [b - a for a, b in zip(stamps, stamps[1:])],
        "iterations": res.iterations, "converged": res.converged,
        "correct": res.indices == truth, "hit_budget": res.iterations >= p["max_iters"],
        "survivors": sum(survivors), "slots": res.iterations * p["F"] * p["M"],
        "flips": sum(flips), "digest": digest.hexdigest(),
    }


def traced_pass(plan, tracer: Tracer) -> dict:
    trials = {key: replay_trial(plan[key[0]], key[1], tracer) for key in replay_order(plan)}
    rows = []
    for r, p in enumerate(plan):
        mine = [trials[(r, t)] for t in range(p["trials"])]
        ok = sum(1 for tr in mine if tr["converged"] and tr["correct"])
        rows.append({"accuracy": ok / p["trials"],
                     "mean_iterations": statistics.fmean(tr["iterations"] for tr in mine)})
    return {"trials": trials, "rows": rows}


def one_thread_child(plan, seconds: float) -> dict:
    """Replay a prefix of the pool in a child process on one BLAS thread."""
    out = subprocess.run(
        [sys.executable, str(Path(__file__).resolve()), ONE_THREAD_CHILD],
        input=json.dumps({"plan": plan, "seconds": seconds}), env=ONE_THREAD_ENV,
        capture_output=True, text=True, timeout=150,
    )
    if out.returncode != 0:
        raise RuntimeError(f"one-thread child failed:\n{out.stderr}")
    return json.loads(out.stdout.splitlines()[-1])


def one_thread_main() -> int:
    job = json.loads(sys.stdin.read())
    plan = job["plan"]
    sweeps, digests = [], {}
    start = time.perf_counter()
    for r, t in replay_order(plan):
        trial = replay_trial(plan[r], t)
        sweeps.extend(trial["sweep_s"])
        digests[f"{r}/{t}"] = trial["digest"]
        if time.perf_counter() - start >= job["seconds"]:
            break
    print(json.dumps({"blas_threads": blas_threads(), "sweep_s": sweeps, "digests": digests}))
    return 0


def kernel_bytes(p: dict) -> int:
    """Bytes of the search and reconstruction matrices the decoder builds for a row."""
    variant = VariantSpec(p["variant"], sigma=p["sigma"], flip_rate=p["flip_rate"],
                          activation_threshold=p["activation_threshold"])
    _, books, _, fact_seed = make_instance(trial_seed_for(p["master_seed"], 0, 0),
                                           p["M"], p["F"], p["D"])
    kernels = _Kernels(perturb_codebooks(books, variant, derive_streams(fact_seed).masks))
    distinct = {id(a): a for a in kernels.search + kernels.recon}
    return sum(a.nbytes for a in distinct.values())


def layer_metrics(plan, traced: dict, child: dict, overhead: float) -> dict:
    trials = list(traced["trials"].values())
    sweep_s = [s for tr in trials for s in tr["sweep_s"]]
    iters = [tr["iterations"] for tr in trials]
    total = sum(iters)
    macs = statistics.fmean(p["F"] * p["M"] * p["D"] for p in plan)
    ms = 1e3
    return {
        "bench.trial_ms.p50": metric(pct([tr["trial_s"] for tr in trials], 50) * ms, "ms"),
        "bench.trial_ms.p90": metric(pct([tr["trial_s"] for tr in trials], 90) * ms, "ms"),
        "bench.trials": metric(len(trials), "count"),
        "bench.make_instance_ms.p50": metric(
            pct([tr["make_instance_s"] for tr in trials], 50) * ms, "ms"),
        "factorizer.setup_ms.p50": metric(pct([tr["setup_s"] for tr in trials], 50) * ms, "ms"),
        "factorizer.first_sweep_ms.p50": metric(
            pct([tr["first_sweep_s"] for tr in trials], 50) * ms, "ms"),
        "factorizer.sweep_ms.p50": metric(pct(sweep_s, 50) * ms, "ms"),
        "factorizer.sweep_ms.p99": metric(pct(sweep_s, 99) * ms, "ms"),
        "factorizer.sweep_ms_1t.p50": metric(pct(child["sweep_s"], 50) * ms, "ms"),
        "factorizer.sweeps": metric(total, "count"),
        "factorizer.sweeps_per_trial.p50": metric(pct(iters, 50), "count"),
        "factorizer.sweeps_per_trial.max": metric(max(iters), "count"),
        "factorizer.converged_frac": metric(
            sum(tr["converged"] for tr in trials) / len(trials), "fraction"),
        "factorizer.converged_wrong": metric(
            sum(tr["converged"] and not tr["correct"] for tr in trials), "count"),
        "factorizer.budget_sweep_share": metric(
            sum(tr["iterations"] for tr in trials if tr["hit_budget"]) / total, "fraction"),
        "factorizer.survivors_frac": metric(
            sum(tr["survivors"] for tr in trials) / sum(tr["slots"] for tr in trials),
            "fraction"),
        "factorizer.bits_flipped_per_sweep": metric(
            sum(tr["flips"] for tr in trials) / total, "count"),
        "factorizer.search_macs_per_sweep": metric(macs, "MAC"),
        "factorizer.kernel_bytes_per_sweep": metric(
            statistics.fmean(kernel_bytes(p) for p in plan), "B"),
        "trace_overhead_frac": metric(overhead, "fraction"),
    }


# --------------------------------------------------------------- one run


def measure(name: str, workload: Workload, seed: int, seconds: float, trace: bool,
            expected: Optional[dict] = None, probes: int = SETUP_PROBES) -> dict:
    """Run one workload; returns the report and the result line (not yet printed).

    ``expected`` holds the stored digests of the pool's outputs; None skips that check.
    """
    configs = workload.configs(workload.pool_seed)
    warm_up(workload.configs(seed))
    walls, csvs, reports, setup = timed_passes(
        configs, seconds, lambda: setup_probe(name, seed), probes)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    # Every pass, and every set-up probe, does identical work.  On a shared
    # host the speed flips between a slow state, steady to a few percent and
    # seen by nearly every run, and faster stretches whose speed and length
    # vary; single passes also stall.  The second-slowest pass reads the slow
    # state past one stall; the fastest or the median reads how much of a run
    # fell in a fast stretch.  For the short set-up probes the slowest was
    # the steadiest.  README.md gives the measurements.
    wall = second_slowest(walls)
    counts = pool_counts(reports)
    end_to_end = {
        "sweeps_per_s": metric(counts["sweeps"] / wall, "1/s"),
        "trials_per_s": metric(counts["trials"] / wall, "1/s"),
        # Undefined (null) only if no trial of the pool decodes; no shipped pool does that.
        "s_per_correct": metric(wall / counts["correct"] if counts["correct"] else None, "s"),
        "accuracy": metric(counts["correct"] / counts["trials"], "fraction"),
        "setup_s": metric(max(setup), "s"),
        "peak_rss_mb": metric(peak_rss_mb, "MB"),
    }
    digests = {"report_csv_sha256": hashlib.sha256(csvs[0]).hexdigest()}
    checks = {"repeat_mismatch_passes": check_repeats(csvs)}
    report = {
        "provenance": dict(provenance(name, seed), pool_seed=workload.pool_seed),
        "passes": len(walls), "pass_wall_s": walls,
        "setup_samples_s": setup,
        "pool": dict(counts, decode_failed=counts["trials"] - counts["correct"]),
        "report_csv": csvs[0].decode(),
        "digests": digests,
        "end_to_end": end_to_end,
        "checks": checks,
    }
    if trace:
        plan = replay_plan(reports)
        tracer = Tracer()
        # Trace cost: the traced pass, less its direct set-up calls, against
        # an untraced pass right after it, which is also one more repeat
        # for the output check.
        t0 = time.perf_counter()
        traced = traced_pass(plan, tracer)
        traced_wall = time.perf_counter() - t0 - sum(
            tr["setup_s"] for tr in traced["trials"].values())
        after, csv, _ = sweep_pass(configs)
        csvs.append(csv)
        checks["repeat_mismatch_passes"] = check_repeats(csvs)
        child = one_thread_child(plan, CHILD_SECONDS)
        trials = {f"{r}/{t}": tr["digest"] for (r, t), tr in traced["trials"].items()}
        checks["traced_vs_untraced"] = check_traced(reports, traced["rows"])
        checks["one_thread_digest_mismatch"] = check_digests(trials, child["digests"])
        report["provenance"]["blas"]["one_thread_child"] = child["blas_threads"]
        digests["trajectory_sha256"] = hashlib.sha256(
            "".join(trials[k] for k in sorted(trials)).encode()).hexdigest()
        per_layer = layer_metrics(plan, traced, child, traced_wall / after - 1.0)
        report["per_layer"] = per_layer
        tracer.write(SPANS_DIR / f"spans-{name}-seed{seed}.jsonl")
        metrics = per_layer
    else:
        metrics = end_to_end
    checks["expected_digest_mismatch"] = check_expected(digests, expected)
    # Failed trials: every trial of a pass whose report differs, every trial
    # if the traced replay disagrees, each trial whose digest differs, and
    # every trial if the outputs differ from the stored digests.
    attempted = counts["trials"] * len(csvs)
    failed = (counts["trials"] * (len(checks["repeat_mismatch_passes"])
                                  + bool(checks.get("traced_vs_untraced")))
              + len(checks.get("one_thread_digest_mismatch", ())))
    if checks["expected_digest_mismatch"]:
        failed = attempted
    failed = min(failed, attempted)
    correct = failed == 0
    report["correct"] = correct
    return {"report": report, "result": {"correct": correct, "attempted": attempted,
                                         "failed": failed, "metrics": metrics}}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, default=42,
                    help="master seed of the untimed warm-up trial")
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    ap.add_argument(ONE_THREAD_CHILD, action="store_true", help=argparse.SUPPRESS)
    args = ap.parse_args(argv)

    if args.one_thread_child:
        return one_thread_main()
    if args.workload is None:
        ap.error("--workload is required")
    workload = WORKLOADS[args.workload]
    if args.setup_probe:
        warm_up(workload.configs(args.seed))
        print("ready", flush=True)
        return 0
    out = measure(args.workload, workload, args.seed, args.seconds, bool(args.trace),
                  expected=EXPECTED[args.workload])
    print(json.dumps(out["report"]))
    print(json.dumps(out["result"]))
    return 0 if out["result"]["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())

#!/usr/bin/env python3
"""Micro-benchmark of a trial's set-up, of short trials, of the update sweep and of the search.

For each sweep row it decodes one seeded instance for a few sweeps, to
reach a typical mid-search state, and records the next
``TRAJECTORY_SWEEPS`` states of that decode.  ``sweep_us`` times one
full update sweep from each of those states in turn
(``factorizer._advance(state, x, kernels, cfg, streams)`` with its
default budget of one sweep: it copies the state's estimates, checks
their shape and that of ``x``, runs the sweep in the one compiled call
``run`` also makes and returns the successor state with fresh arrays):
what each sweep of a decode observed through ``on_step`` costs.  The
states are consecutive, so each factor's search differs from the one
its kernels kept by as many query bits as in the decode, and
``searches`` counts how many of the searches that recorded those states
were full ones and how many updated the kept numerators from the
changed bits.  It refuses to time a search whose attentions are not
the exact dot products divided by D.  Beside it, ``decode_us`` is the
cost per sweep of a whole ``factorizer.run`` of the same instance
without ``on_step``, which can never converge at threshold 1.0 and so
runs ``DECODE_SWEEPS`` sweeps, net of a one-sweep run (its set-up and
first sweep): the steady state of a long decode.
The two runs are called in alternation, so that each pair sees the same
stretch of machine time and a change of the machine's speed between
them cannot make the net cost negative.
``kernel_bytes`` counts the packed rows the sweep reads: the search
rows, and ``acf``'s reconstruction rows, which ``brn`` shares with its
search rows.

For each crossover row it times one factor's search alone
(``_sweep.search``), forced to search afresh and forced to update the
kept numerators, at each count in ``CHANGED_BITS`` of query bits changed
since the kept query.  ``crossover_bits`` is where the update, linearly
interpolated between those counts, gets as slow as the full search;
``delta_limit`` is the most changed bits for which the compiled cost
rule picks the update.

For each set-up row it times the steps of a trial up to its first
sweep, each call on a freshly built instance, as a trial meets them,
page faults included:

* ``make_instance_us`` -- codebooks, planted truth and product vector;
* ``perturb_us`` -- ``perturb_codebooks`` (the ``acf`` flip masks);
* ``kernel_build_us`` -- building the sweep's codebook layouts;
* ``init_us`` -- ``init_estimates``, given books whose sweep layouts
  (``pbooks._kernels``) exist, as ``run`` has built them by then;
* ``first_sweep_us`` -- the first update sweep, which pays for any
  layout the kernels build lazily.

For each trial row it builds one ``FactorizerConfig`` and times whole
trials (``bench.run_trial(seed, cfg)``: the instance, the decoder's
set-up and every sweep) of a shape whose decodes converge within a few
sweeps (``trial_us``), and records the most sweeps one took: the cost
of the short trials that most of a capacity sweep runs.

Each repeat first sets the glibc malloc thresholds that
``bench.run_sweep`` sets for a sweep (``bench._retain_freed_memory``), so
that the set-up rows pay the page faults a trial of a sweep pays, not
heap trimming the sweep never does.  Each set-up step also records its
minor page faults per call (``ru_minflt``).  The script refuses to time
a set-up whose outputs differ from the reference draws (``rng.integers``
codebooks, ``rng.random`` masks, int64 majority sums, the first search's
int64 dot products).

Every repeat runs in a fresh child process and times each figure once,
as the mean of enough calls to fill about 50 ms; a figure is the median,
inter-quartile range and minimum over ``--repeats`` repeats.  On a
shared 2-vCPU VM whose speed flips between two levels from one repeat
to the next, the minimum is the figure that flip blurs least.  With
``--against`` the repeats alternate between the two source trees, each
tree going first in every other round, so that drift of the machine
falls on both alike:

    git worktree add --detach ../parent HEAD~1
    python3 scripts/bench_engine.py --against ../parent/src --label after --out BENCH_8.json

stores this checkout's figures under ``after`` and the other tree's
under ``before`` in the ``--out`` JSON file,
beside the entries of earlier runs, with the commit, numpy, BLAS, core
and BLAS-thread figures of each.  Both trees must be git checkouts, so
that each run names the commit it measured.  Beyond what resfact itself
needs, only the standard library is needed.
"""

from __future__ import annotations

import argparse
import ctypes
import dataclasses
import importlib
import itertools
import json
import os
import platform
import resource
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parents[1]
CHILD = "--child"
AGAINST_LABEL = "before"
# (M, D, F, variant, knobs, warm-up sweeps): the shapes of the benchmark's
# F=3 row at 1e7, its dense brn row at 1e6 and its sparse acf row at 5e6,
# and the F=4 preset row at 1e7, brn and acf with its preset knobs.
ROWS = [
    (215, 1500, 3, "acf", {"flip_rate": 0.05, "activation_threshold": 0.05}, 20),
    (1000, 1000, 2, "brn", {}, 20),
    (2236, 1000, 2, "acf", {"flip_rate": 0.05, "activation_threshold": 0.05}, 20),
    (56, 2000, 4, "brn", {}, 20),
    (56, 2000, 4, "acf", {"flip_rate": 0.006, "activation_threshold": 0.025}, 20),
]
# (M, D, F, variant, knobs): set-up at the shapes of all four benchmark
# workloads, including the set-up-bound brn row at 1e4, and of the F=4
# preset acf row at 1e7.
SETUP_ROWS = [
    (100, 4000, 2, "brn", {}),
    (215, 1500, 3, "acf", {"flip_rate": 0.05, "activation_threshold": 0.05}),
    (1000, 1000, 2, "brn", {}),
    (2236, 1000, 2, "acf", {"flip_rate": 0.05, "activation_threshold": 0.05}),
    (56, 2000, 4, "acf", {"flip_rate": 0.006, "activation_threshold": 0.025}),
]
# (M, D, F, variant, knobs, convergence threshold): the benchmark's
# set-up-bound brn row at 1e4, whose decodes converge in 2 sweeps.
TRIAL_ROWS = [
    (100, 4000, 2, "brn", {}, 0.55),
]
# (M, D): the search shapes of the benchmark's workloads and of the F=4 preset row at 1e7.
CROSSOVER_ROWS = [(2236, 1000), (1000, 1000), (215, 1500), (100, 4000), (56, 2000)]
CHANGED_BITS = (0, 16, 32, 64, 128, 256, 384, 512, 768, 1024, 1536)
SETUP_STEPS = ("make_instance_us", "perturb_us", "kernel_build_us", "init_us", "first_sweep_us")
TRIAL_STEPS = ("trial_us",)
SWEEP_STEPS = ("sweep_us", "decode_us")
DECODE_SWEEPS = 200
TRAJECTORY_SWEEPS = 200
TARGET_S = 0.05
WARM_CALLS = 5


def blas_threads():
    """Thread count of the OpenBLAS numpy loaded, or None where it cannot be read."""
    try:
        with open("/proc/self/maps") as fh:
            libs = sorted({line.split()[-1] for line in fh if "openblas" in line.lower()})
    except OSError:
        return None
    for path in libs:
        lib = ctypes.CDLL(path)
        for name in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                     "openblas_get_num_threads"):
            fn = getattr(lib, name, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def git(src: Path, *args):
    """Standard output of a git command run in ``src``, or None where git fails there."""
    out = subprocess.run(["git", "-C", str(src), *args], capture_output=True, text=True)
    return out.stdout.strip() if out.returncode == 0 else None


def environment(src: Path) -> dict:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "resfact_commit": git(src, "rev-parse", "HEAD"),
        "resfact_src_modified": bool(git(src, "status", "--porcelain", "--", ".")),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": {"name": blas.get("name"), "version": blas.get("version"),
                 "threads": blas_threads()},
        "nproc": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
    }


def minor_faults() -> int:
    return resource.getrusage(resource.RUSAGE_SELF).ru_minflt


def timed(fn) -> dict:
    """Microseconds per call over a batch of calls that fills about ``TARGET_S``."""
    fn()
    t0 = time.perf_counter()
    fn()
    calls = max(1, int(TARGET_S / max(time.perf_counter() - t0, 1e-7)))
    t0 = time.perf_counter()
    for _ in range(calls):
        fn()
    return {"us": (time.perf_counter() - t0) / calls * 1e6, "calls": calls}


def timed_extra(short, long) -> dict:
    """Microseconds per call that ``long`` takes beyond ``short``, the two called in alternation.

    The pairs of calls fill about twice ``TARGET_S``, the time of a
    ``timed`` batch of each.
    """
    short()
    long()
    t0 = time.perf_counter()
    short()
    long()
    calls = max(1, int(2 * TARGET_S / max(time.perf_counter() - t0, 1e-7)))
    extra = 0.0
    for _ in range(calls):
        t0 = time.perf_counter()
        short()
        t1 = time.perf_counter()
        long()
        extra += time.perf_counter() - t1 - (t1 - t0)
    return {"us": extra / calls * 1e6, "calls": calls}


def timed_fresh(prepare, fn) -> dict:
    """Like ``timed``, but each call gets fresh arguments from ``prepare(i)``, untimed.

    Also counts the minor page faults of the timed calls alone.  The
    first ``WARM_CALLS`` calls, whose faults grow the heap once per
    process, only calibrate the batch.
    """
    def batch(first, calls):
        total, faults = 0.0, 0
        for i in range(first, first + calls):
            args = prepare(i)
            f0 = minor_faults()
            t0 = time.perf_counter()
            fn(*args)
            total += time.perf_counter() - t0
            faults += minor_faults() - f0
        return total, faults

    once = batch(0, WARM_CALLS)[0] / WARM_CALLS
    calls = max(1, int(TARGET_S / max(once, 1e-7)))
    total, faults = batch(WARM_CALLS, calls)
    return {"us": total / calls * 1e6, "minflt": faults / calls, "calls": calls}


def check_setup(fz, make_instance, M, D, F, variant, seed) -> None:
    """Refuse set-up outputs that differ from the reference draws of the same seed."""
    from resfact.vsa import sign_to_bipolar

    x, books, truth, fact_seed = make_instance(seed, M, F, D)
    inst_ss, fact_ss = np.random.SeedSequence(seed).spawn(2)
    rng = np.random.default_rng(inst_ss)
    ref_books = [rng.integers(0, 2, size=(M, D), dtype=np.int8) * 2 - 1 for _ in range(F)]
    ref_truth = tuple(int(i) for i in rng.integers(0, M, size=F))
    ref_x = np.prod([b[i] for b, i in zip(ref_books, ref_truth)], axis=0, dtype=np.int8)
    same = (all(np.array_equal(b.codevectors, r) for b, r in zip(books, ref_books))
            and truth == ref_truth and np.array_equal(x, ref_x)
            and fact_seed == int(fact_ss.generate_state(1, np.uint64)[0]))

    streams, ref_streams = fz.derive_streams(fact_seed), fz.derive_streams(fact_seed)
    pbooks = fz.perturb_codebooks(books, variant, streams.masks)
    ref_recon = ref_books
    if variant.kind == "acf":
        ref_masks = [np.where(ref_streams.masks.random((M, D)) < variant.flip_rate, -1, 1)
                     for _ in range(F)]
        ref_recon = [b * m for b, m in zip(ref_books, ref_masks)]
        same = same and all(np.array_equal(m, r) for m, r in zip(pbooks.masks, ref_masks))
    same = same and all(np.array_equal(b.codevectors, r)
                        for b, r in zip(pbooks.recon_books, ref_recon))
    start = fz.init_estimates(pbooks, streams.init)
    init = start.estimates
    ref_sums = [b.sum(axis=0, dtype=np.int64) for b in ref_books]
    ref_init = [sign_to_bipolar(s, ref_streams.init) for s in ref_sums]
    same = same and np.array_equal(init, np.stack(ref_init))
    # The first sweep's first search: x unbound from the other factors' initial estimates.
    cfg = fz.FactorizerConfig(variant=variant, F=F, M=M, D=D, seed=fact_seed)
    attentions = fz._advance(start, x, fz._Kernels(pbooks), cfg, streams).attentions
    dots = ref_books[0].astype(np.int64) @ (x * init[1:].prod(axis=0))
    same = same and (variant.kind == "imf" or np.array_equal(attentions[0], dots / D))
    if not same:
        raise RuntimeError(f"set-up at M={M}, D={D} differs from the reference draws")


def bench_setup(fz, make_instance, M, D, F, kind, knobs) -> dict:
    variant = fz.VariantSpec(kind, **knobs)
    check_setup(fz, make_instance, M, D, F, variant, seed=7)

    # Call i of every step works on the instance of seed 1000 + i, built untimed.
    def instance_args(i):
        return 1000 + i, M, F, D

    def perturb_args(i):
        _, books, _, seed = make_instance(*instance_args(i))
        return books, variant, fz.derive_streams(seed).masks

    def kernel_args(i):
        return (fz.perturb_codebooks(*perturb_args(i)),)

    def init_args(i):
        pbooks = kernel_args(i)[0]
        pbooks._kernels  # built untimed: kernel_build_us times it
        return pbooks, np.random.default_rng(i)

    def sweep_args(i):
        x, books, _, seed = make_instance(*instance_args(i))
        streams = fz.derive_streams(seed)
        pbooks = fz.perturb_codebooks(books, variant, streams.masks)
        cfg = fz.FactorizerConfig(variant=variant, F=F, M=M, D=D, seed=seed)
        return fz.init_estimates(pbooks, streams.init), x, pbooks._kernels, cfg, streams

    return {
        "M": M, "D": D, "F": F, "variant": kind, **knobs,
        "make_instance_us": timed_fresh(instance_args, make_instance),
        "perturb_us": timed_fresh(perturb_args, fz.perturb_codebooks),
        "kernel_build_us": timed_fresh(kernel_args, fz._Kernels),
        "init_us": timed_fresh(init_args, fz.init_estimates),
        "first_sweep_us": timed_fresh(sweep_args, fz._advance),
    }


def bench_trial(fz, run_trial, M, D, F, kind, knobs, threshold) -> dict:
    cfg = fz.FactorizerConfig(fz.VariantSpec(kind, **knobs), F=F, M=M, D=D,
                              convergence_threshold=threshold)
    sweeps = []

    def trial_args(i):
        return 1000 + i, cfg

    def trial(*args):
        result = run_trial(*args)
        sweeps.append(result.iterations if result.converged else None)

    timing = timed_fresh(trial_args, trial)
    if None in sweeps:
        raise RuntimeError(f"a trial at M={M}, D={D} did not converge")
    return {"M": M, "D": D, "F": F, "variant": kind, **knobs,
            "convergence_threshold": threshold, "max_sweeps": max(sweeps),
            "trial_us": timing}


def bench_row(fz, make_instance, M, D, F, kind, knobs, warm) -> dict:
    variant = fz.VariantSpec(kind, **knobs)
    x, books, _, seed = make_instance(7, M, F, D)
    cfg = fz.FactorizerConfig(variant=variant, F=F, M=M, D=D, max_iters=warm,
                              convergence_threshold=1.0, seed=seed)

    def decode(max_iters):
        return fz.run(x, books, dataclasses.replace(cfg, max_iters=max_iters))

    state = decode(warm).state
    streams = fz.derive_streams(seed)
    pbooks = fz.perturb_codebooks(books, variant, streams.masks)
    kernels = fz._Kernels(pbooks)
    attentions = fz._advance(state, x, kernels, cfg, streams).attentions

    # Factor 0, updated first, searches x unbound from the others' estimates.
    # imf adds noise to its attentions; brn's and acf's are exact.
    unbound = x * state.estimates[1:].prod(axis=0)
    dots = books[0].codevectors.astype(np.int64) @ unbound
    if kind != "imf" and not np.array_equal(attentions[0], dots / D):
        raise RuntimeError(f"search at M={M}, D={D} is not the exact dot product")

    before = kernels.searches.copy()
    trajectory = [state]
    for _ in range(TRAJECTORY_SWEEPS - 1):
        trajectory.append(fz._advance(trajectory[-1], x, kernels, cfg, streams))
    states = itertools.cycle(trajectory)

    row = {
        "M": M, "D": D, "F": F, "variant": kind, **knobs,
        "warm_sweeps": warm,
        "survivors_frac": round(
            float(np.mean(state.attentions > variant.activation_threshold)), 4),
        "searches": dict(zip(("full", "delta"), (int(n) for n in kernels.searches - before))),
        "sweep_us": timed(lambda: fz._advance(next(states), x, kernels, cfg, streams)),
    }
    extra = timed_extra(lambda: decode(1), lambda: decode(DECODE_SWEEPS))
    row["decode_us"] = {"us": extra["us"] / (DECODE_SWEEPS - 1), "calls": extra["calls"]}
    packed = {id(a): a for a in kernels.search + kernels.recon}
    row["kernel_bytes"] = sum(a.nbytes for a in packed.values())
    return row


def bench_crossover(fz, sweep, M, D) -> dict:
    """Factor 0's search of an (M, D) book, afresh and from the changed bits, at ``CHANGED_BITS``."""
    from resfact.vsa import Codebook

    g = np.random.default_rng(M * D)
    books = [Codebook(g.integers(0, 2, size=(M, D), dtype=np.int8) * 2 - 1)
             for _ in range(2)]
    kernels = fz._Kernels(fz.perturb_codebooks(books, fz.VariantSpec.brn(), g))
    words = kernels.search[0].shape[1]

    def packed(q):
        out = np.empty(words, dtype=np.uint64)
        sweep.pack(q.ctypes.data, 1, D, words, sweep.address(out))
        return out

    def searches(path, queries):
        addresses = itertools.cycle([sweep.address(q) for q in queries])
        return timed(lambda: sweep.search(kernels._plan_at, 0, next(addresses), path))

    q = g.integers(0, 2, size=D, dtype=np.int8) * 2 - 1
    row = {"M": M, "D": D, "delta_limit": sweep.delta_limit(M, words),
           "full_us": searches(0, [packed(q), packed(q)])}
    for bits in (b for b in CHANGED_BITS if b <= D):
        flipped = q.copy()
        flipped[g.choice(D, bits, replace=False)] *= -1
        row[f"delta_us_{bits}"] = searches(1, [packed(q), packed(flipped)])
    return row


def crossover_bits(row: dict):
    """Changed bits where the update's median time reaches the full search's, or None."""
    full = row["full_us"]["median"]
    points = [(int(k.rsplit("_", 1)[1]), row[k]["median"]) for k in row
              if k.startswith("delta_us_")]
    for (b0, t0), (b1, t1) in zip(points, points[1:]):
        if t0 < full <= t1:
            return round(b0 + (b1 - b0) * (full - t0) / (t1 - t0))
    return None


def one_repeat(src: Path) -> dict:
    """Time every row once, in this process, on the resfact package under ``src``."""
    sys.path.insert(0, str(src))
    import resfact.factorizer as fz
    from resfact.bench import _retain_freed_memory, make_instance, run_trial

    if Path(fz.__file__).resolve().parents[1] != src:
        sys.exit(f"bench_engine: resfact was imported from {fz.__file__}, not {src}")
    _retain_freed_memory()
    sweep = importlib.import_module("resfact._sweep")
    return {"environment": environment(src),
            "setup_rows": [bench_setup(fz, make_instance, *row) for row in SETUP_ROWS],
            "trial_rows": [bench_trial(fz, run_trial, *row) for row in TRIAL_ROWS],
            "rows": [bench_row(fz, make_instance, *row) for row in ROWS],
            "crossover_rows": [bench_crossover(fz, sweep, *row) for row in CROSSOVER_ROWS]}


def child_repeat(src: Path) -> dict:
    out = subprocess.run([sys.executable, str(Path(__file__).resolve()), CHILD, str(src)],
                         capture_output=True, text=True, timeout=600)
    if out.returncode != 0:
        raise RuntimeError(f"repeat on {src} failed:\n{out.stderr}")
    return json.loads(out.stdout.splitlines()[-1])


def summary(samples) -> dict:
    q1, med, q3 = np.percentile(samples, [25, 50, 75])
    return {"median": round(float(med), 2), "iqr": round(float(q3 - q1), 2),
            "min": round(float(min(samples)), 2), "repeats": [round(s, 2) for s in samples]}


def merge(repeats: list) -> dict:
    """One run from its repeats: median, IQR and minimum of every timed figure."""
    def rows(key, steps):
        merged = []
        for i, first in enumerate(repeats[0].get(key, [])):
            row = {k: v for k, v in first.items() if k not in steps}
            for step in (s for s in steps if s in first):
                samples = [rep[key][i][step] for rep in repeats]
                row[step] = {**summary([s["us"] for s in samples]),
                             "calls_per_repeat": [s["calls"] for s in samples]}
                if "minflt" in samples[0]:
                    row[step]["minflt_per_call"] = summary([s["minflt"] for s in samples])
            merged.append(row)
        return merged

    crossover = rows("crossover_rows", ["full_us"] + [f"delta_us_{b}" for b in CHANGED_BITS])
    for row in crossover:
        row["crossover_bits"] = crossover_bits(row)
    return {"environment": repeats[0]["environment"],
            "setup_rows": rows("setup_rows", SETUP_STEPS),
            "trial_rows": rows("trial_rows", TRIAL_STEPS), "rows": rows("rows", SWEEP_STEPS),
            "crossover_rows": crossover}


def report(label: str, run: dict) -> None:
    def us(figure):
        return f"{figure['median']:.0f} us (min {figure['min']:.0f})"

    for row in run["setup_rows"]:
        faults = sum(row[s]["minflt_per_call"]["median"] for s in SETUP_STEPS)
        print(f"{label}: M={row['M']} D={row['D']} {row['variant']} set-up:"
              f"  instance {us(row['make_instance_us'])}"
              f"  perturb {us(row['perturb_us'])}"
              f"  build {us(row['kernel_build_us'])}"
              f"  init {us(row['init_us'])}"
              f"  sweep 1 {us(row['first_sweep_us'])}"
              f"  minflt {faults:.1f}")
    for row in run["trial_rows"]:
        print(f"{label}: M={row['M']} D={row['D']} {row['variant']} trial of at most"
              f" {row['max_sweeps']} sweeps: {us(row['trial_us'])}")
    for row in run["rows"]:
        searches = row["searches"]
        print(f"{label}: M={row['M']} D={row['D']} {row['variant']} "
              f"survivors {row['survivors_frac']:.3f}  sweep {us(row['sweep_us'])}"
              f"  decode {us(row['decode_us'])}/sweep"
              f"  searches full {searches['full']} delta {searches['delta']}")
    for row in run["crossover_rows"]:
        print(f"{label}: M={row['M']} D={row['D']} search {us(row['full_us'])}"
              f"  delta at {CHANGED_BITS[1]} bits {us(row[f'delta_us_{CHANGED_BITS[1]}'])}"
              f"  crossover {row['crossover_bits']} bits, rule {row['delta_limit']}")


def main(argv=None) -> int:
    if argv is None and sys.argv[1:2] == [CHILD]:
        print(json.dumps(one_repeat(Path(sys.argv[2]).resolve())))
        return 0
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--src", type=Path, default=ROOT / "src",
                    help="directory holding the resfact package to time")
    ap.add_argument("--against", type=Path,
                    help="a second src directory, timed in alternation with --src "
                         f"and stored under {AGAINST_LABEL!r}")
    ap.add_argument("--label", required=True, help="key of the --src run in the output file")
    ap.add_argument("--out", type=Path, required=True)
    ap.add_argument("--repeats", type=int, default=7)
    args = ap.parse_args(argv)
    if args.repeats < 5:
        ap.error("--repeats must be at least 5")
    trees = {args.label: args.src.resolve()}
    if args.against is not None:
        if args.label == AGAINST_LABEL:
            ap.error(f"--label must not be {AGAINST_LABEL!r}, the key of the --against run")
        trees = {AGAINST_LABEL: args.against.resolve(), **trees}
    for tree in trees.values():
        if git(tree, "rev-parse", "HEAD") is None:
            ap.error(f"{tree} is not in a git checkout, so no commit can be recorded for it;"
                     " check the commit out with: git worktree add --detach <dir> <parent>")

    repeats = {label: [] for label in trees}
    for r in range(args.repeats):
        for label in (list(trees) if r % 2 == 0 else reversed(list(trees))):
            repeats[label].append(child_repeat(trees[label]))
    data = json.loads(args.out.read_text()) if args.out.exists() else {"runs": {}}
    for label, reps in repeats.items():
        run = merge(reps)
        if len(trees) > 1:
            run["interleaved_with"] = [other for other in trees if other != label]
        data["runs"][label] = run
        report(label, run)
    args.out.write_text(json.dumps(data, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())

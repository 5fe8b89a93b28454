#!/usr/bin/env python3
"""Micro-benchmark of a trial's set-up and of the decoder's update sweep.

For each sweep row it decodes one seeded instance for a few sweeps, to
reach a typical mid-search state, then times on that fixed state:

* ``sweep_us``  -- one full update sweep (``factorizer._advance``);
* ``search_us`` -- the associative search of one factor;
* ``recon_us``  -- the reconstruction product of one factor, over the
  attentions that survive the activation threshold in that state.

For each set-up row it times the four set-up steps of a trial, each
call on a freshly built instance, as a trial meets them, page faults
included:

* ``make_instance_us`` -- codebooks, planted truth and product vector;
* ``perturb_us`` -- ``perturb_codebooks`` (the ``acf`` flip masks);
* ``kernel_build_us`` -- building the sweep's codebook layouts;
* ``init_us`` -- ``init_estimates``.

The script refuses to time a set-up whose outputs differ from the
reference draws (``rng.integers`` codebooks, ``rng.random`` masks, int64
majority sums), as it refuses a search that is not the exact dot product.

Each figure is the median and inter-quartile range of ``--repeats``
repeats, each the mean of enough calls to fill about 50 ms.  The result
is stored under ``--label`` in the ``--out`` JSON file, beside the
entries of earlier runs, with the numpy, BLAS, core and BLAS-thread
figures of this run.  To compare two versions of the engine, run the
script once per version, pointing ``--src`` at each checkout's src/:

    python3 scripts/bench_engine.py --src ../parent/src --label before --out BENCH_3.json
    python3 scripts/bench_engine.py --label after --out BENCH_3.json

Only numpy and the standard library are needed.  Engines from before
the packed search have no ``numerators``/``superpose`` kernels; for
those the script times the float matrix-vector products that their
sweep ran instead.
"""

from __future__ import annotations

import argparse
import ctypes
import json
import os
import platform
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parents[1]
# (M, D, F, variant, knobs, warm-up sweeps): the shapes of the benchmark's
# F=3 row at 1e7, its dense brn row at 1e6 and its sparse acf row at 5e6.
ROWS = [
    (215, 1500, 3, "acf", {"flip_rate": 0.05, "activation_threshold": 0.05}, 20),
    (1000, 1000, 2, "brn", {}, 20),
    (2236, 1000, 2, "acf", {"flip_rate": 0.05, "activation_threshold": 0.05}, 20),
]
# (M, D, F, variant, knobs): set-up at the shapes of all four benchmark
# workloads, including the set-up-bound brn row at 1e4.
SETUP_ROWS = [
    (100, 4000, 2, "brn", {}),
    (215, 1500, 3, "acf", {"flip_rate": 0.05, "activation_threshold": 0.05}),
    (1000, 1000, 2, "brn", {}),
    (2236, 1000, 2, "acf", {"flip_rate": 0.05, "activation_threshold": 0.05}),
]
TARGET_S = 0.05


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


def environment(src: Path) -> dict:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    def git(*args):
        out = subprocess.run(["git", "-C", str(src), *args], capture_output=True, text=True)
        return out.stdout.strip() if out.returncode == 0 else None

    commit = git("rev-parse", "HEAD")
    return {
        "resfact_commit": commit or "unknown (not a git checkout)",
        "resfact_src_modified": bool(git("status", "--porcelain", "--", ".")) if commit else None,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": {"name": blas.get("name"), "version": blas.get("version"),
                 "threads": blas_threads()},
        "nproc": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
    }


def timed(fn, repeats: int) -> dict:
    """Median and IQR, in microseconds per call, of ``repeats`` batches of calls."""
    fn()
    t0 = time.perf_counter()
    fn()
    calls = max(1, int(TARGET_S / max(time.perf_counter() - t0, 1e-7)))
    samples = []
    for _ in range(repeats):
        t0 = time.perf_counter()
        for _ in range(calls):
            fn()
        samples.append((time.perf_counter() - t0) / calls * 1e6)
    return summary(samples, calls)


def summary(samples, calls: int) -> dict:
    q1, med, q3 = np.percentile(samples, [25, 50, 75])
    return {"median": round(float(med), 2), "iqr": round(float(q3 - q1), 2),
            "calls_per_repeat": calls, "repeats": [round(s, 2) for s in samples]}


def timed_fresh(prepare, fn, repeats: int) -> dict:
    """Like ``timed``, but each call gets fresh arguments from ``prepare(i)``, untimed."""
    def batch(first, calls):
        total = 0.0
        for i in range(first, first + calls):
            args = prepare(i)
            t0 = time.perf_counter()
            fn(*args)
            total += time.perf_counter() - t0
        return total

    once = batch(0, 2) / 2
    calls = max(1, int(TARGET_S / max(once, 1e-7)))
    return summary([batch(2 + r * calls, calls) / calls * 1e6 for r in range(repeats)], calls)


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
    kernels = fz._Kernels(pbooks)
    same = same and all(np.array_equal(k, r) for k, r in zip(kernels.recon, ref_recon))
    init = fz.init_estimates(pbooks, streams.init).estimates
    ref_init = [sign_to_bipolar(b.sum(axis=0, dtype=np.int64), ref_streams.init)
                for b in ref_books]
    same = same and np.array_equal(init, np.stack(ref_init))
    if not same:
        raise RuntimeError(f"set-up at M={M}, D={D} differs from the reference draws")


def bench_setup(fz, make_instance, M, D, F, kind, knobs, repeats) -> dict:
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
        return kernel_args(i)[0], np.random.default_rng(i)

    return {
        "M": M, "D": D, "F": F, "variant": kind, **knobs,
        "make_instance_us": timed_fresh(instance_args, make_instance, repeats),
        "perturb_us": timed_fresh(perturb_args, fz.perturb_codebooks, repeats),
        "kernel_build_us": timed_fresh(kernel_args, fz._Kernels, repeats),
        "init_us": timed_fresh(init_args, fz.init_estimates, repeats),
    }


def bench_row(fz, make_instance, M, D, F, kind, knobs, warm, repeats) -> dict:
    variant = fz.VariantSpec(kind, **knobs)
    x, books, _, seed = make_instance(7, M, F, D)
    cfg = fz.FactorizerConfig(variant=variant, F=F, M=M, D=D, max_iters=warm,
                              convergence_threshold=1.0, seed=seed)
    state = fz.run(x, books, cfg).state
    streams = fz.derive_streams(seed)
    pbooks = fz.perturb_codebooks(books, variant, streams.masks)
    kernels = fz._Kernels(pbooks)

    unbound = (x * state.estimates[1:].prod(axis=0)).astype(np.int8)
    if hasattr(kernels, "numerators"):
        from resfact.packing import pack_words

        def search():
            return kernels.numerators(0, pack_words(unbound))
    else:
        def search():
            return (kernels.search[0] @ unbound.astype(kernels.dtype)).astype(np.float64)

    numerators = search()
    if not np.array_equal(numerators, books[0].codevectors.astype(np.int64) @ unbound):
        raise RuntimeError(f"search at M={M}, D={D} is not the exact dot product")
    weights = np.where(numerators / D > variant.activation_threshold, numerators, 0.0)
    rows = np.flatnonzero(weights)
    if hasattr(kernels, "superpose"):
        def recon():
            return kernels.superpose(0, weights, rows if rows.size < M * fz._GATHER_BELOW else None)
    else:
        def recon():
            return weights.astype(kernels.dtype) @ kernels.recon[0]

    distinct = {id(a): a for a in kernels.search + kernels.recon}
    return {
        "M": M, "D": D, "F": F, "variant": kind, **knobs,
        "warm_sweeps": warm,
        "survivors_frac": round(
            float(np.mean(state.attentions > variant.activation_threshold)), 4),
        "recon_rows": int(rows.size),
        "kernel_bytes": sum(a.nbytes for a in distinct.values()),
        "sweep_us": timed(lambda: fz._advance(state.estimates, x, kernels, cfg, streams),
                          repeats),
        "search_us": timed(search, repeats),
        "recon_us": timed(recon, repeats),
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--src", type=Path, default=ROOT / "src",
                    help="directory holding the resfact package to time")
    ap.add_argument("--label", required=True, help="key of this run in the output file")
    ap.add_argument("--out", type=Path, required=True)
    ap.add_argument("--repeats", type=int, default=7)
    args = ap.parse_args(argv)
    if args.repeats < 5:
        ap.error("--repeats must be at least 5")

    sys.path.insert(0, str(args.src.resolve()))
    import resfact.factorizer as fz
    from resfact.bench import make_instance

    if Path(fz.__file__).resolve().parents[1] != args.src.resolve():
        sys.exit(f"bench_engine: resfact was imported from {fz.__file__}, not {args.src}")
    run = {"environment": environment(args.src.resolve()),
           "setup_rows": [bench_setup(fz, make_instance, *row, args.repeats)
                          for row in SETUP_ROWS],
           "rows": [bench_row(fz, make_instance, *row, args.repeats) for row in ROWS]}
    data = json.loads(args.out.read_text()) if args.out.exists() else {"runs": {}}
    data["runs"][args.label] = run
    args.out.write_text(json.dumps(data, indent=1) + "\n")
    for row in run["setup_rows"]:
        print(f"{args.label}: M={row['M']} D={row['D']} {row['variant']} set-up:"
              f"  instance {row['make_instance_us']['median']:.0f} us"
              f"  perturb {row['perturb_us']['median']:.0f} us"
              f"  build {row['kernel_build_us']['median']:.0f} us"
              f"  init {row['init_us']['median']:.0f} us")
    for row in run["rows"]:
        print(f"{args.label}: M={row['M']} D={row['D']} {row['variant']} "
              f"survivors {row['survivors_frac']:.3f}  sweep {row['sweep_us']['median']:.0f} us"
              f"  search {row['search_us']['median']:.0f} us"
              f"  recon {row['recon_us']['median']:.0f} us")
    return 0


if __name__ == "__main__":
    sys.exit(main())

#!/usr/bin/env python3
"""Micro-benchmark of the decoder's update sweep and its two products.

For each (M, D) row it decodes one seeded instance for a few sweeps, to
reach a typical mid-search state, then times on that fixed state:

* ``sweep_us``  -- one full update sweep (``factorizer._advance``);
* ``search_us`` -- the associative search of one factor;
* ``recon_us``  -- the reconstruction product of one factor, over the
  attentions that survive the activation threshold in that state;
* ``kernel_build_us`` -- building the sweep's codebook layouts.

Each figure is the median and inter-quartile range of ``--repeats``
repeats, each the mean of enough calls to fill about 50 ms.  The result
is stored under ``--label`` in the ``--out`` JSON file, beside the
entries of earlier runs, with the numpy, BLAS, core and BLAS-thread
figures of this run.  To compare two versions of the engine, run the
script once per version, pointing ``--src`` at each checkout's src/:

    python3 scripts/bench_engine.py --src ../parent/src --label before --out BENCH_2.json
    python3 scripts/bench_engine.py --label after --out BENCH_2.json

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
    q1, med, q3 = np.percentile(samples, [25, 50, 75])
    return {"median": round(float(med), 2), "iqr": round(float(q3 - q1), 2),
            "calls_per_repeat": calls, "repeats": [round(s, 2) for s in samples]}


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
        "kernel_build_us": timed(lambda: fz._Kernels(pbooks), repeats),
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
           "rows": [bench_row(fz, make_instance, *row, args.repeats) for row in ROWS]}
    data = json.loads(args.out.read_text()) if args.out.exists() else {"runs": {}}
    data["runs"][args.label] = run
    args.out.write_text(json.dumps(data, indent=1) + "\n")
    for row in run["rows"]:
        print(f"{args.label}: M={row['M']} D={row['D']} {row['variant']} "
              f"survivors {row['survivors_frac']:.3f}  sweep {row['sweep_us']['median']:.0f} us"
              f"  search {row['search_us']['median']:.0f} us  recon {row['recon_us']['median']:.0f}"
              f" us  build {row['kernel_build_us']['median'] / 1e3:.2f} ms")
    return 0


if __name__ == "__main__":
    sys.exit(main())

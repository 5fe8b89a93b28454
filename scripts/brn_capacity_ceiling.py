#!/usr/bin/env python3
"""Baseline decoder accuracy ladder at F=2, D=1000.

Sweeps the noiseless baseline over half-decade search-space sizes from
1e4 to 1e6 to locate its capacity ceiling: accuracy is essentially
perfect at 1e4 and collapses well before 1e6, where most runs do not
converge within the iteration budget.  Writes results/brn_ceiling_f2.csv.
"""

import argparse
import sys
import time
from pathlib import Path

from resfact.bench import SweepConfig, run_sweep
from resfact.report import emit_report

RESULTS = Path(__file__).resolve().parents[1] / "results"
SIZES = (10_000, 46_225, 100_000, 460_000, 1_000_000)


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--trials", type=int, default=100)
    ap.add_argument("--max-iters", type=int, default=500)
    ap.add_argument("--seed", type=int, default=42)
    ap.add_argument("--out", type=Path, default=RESULTS,
                    help=f"directory the artifact is written to (default {RESULTS})")
    ap.add_argument("--parallelism", type=int, default=1)
    args = ap.parse_args(argv)

    args.out.mkdir(parents=True, exist_ok=True)
    t0 = time.time()
    cfg = SweepConfig(
        F=2,
        variant_kind="brn",
        search_space_sizes=SIZES,
        D=1000,
        trials_per_size=args.trials,
        max_iters=args.max_iters,
        convergence_threshold=0.55,
        master_seed=args.seed,
        parallelism=args.parallelism,
    )
    report = run_sweep(
        cfg,
        progress=lambda row: print(
            f"size={row.search_space} M={row.M} acc={row.accuracy:.3f} "
            f"mean_it={row.mean_iterations:.0f} [{time.time()-t0:.0f}s]",
            file=sys.stderr,
        ),
    )
    emit_report(report, "csv", args.out / "brn_ceiling_f2.csv")
    cap = report.operational_capacity
    print(f"operational capacity: {cap if cap is not None else 'not reached'}")
    return 0


if __name__ == "__main__":
    sys.exit(main())

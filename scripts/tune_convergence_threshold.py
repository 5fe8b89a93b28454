#!/usr/bin/env python3
"""Sensitivity of the sweep results to the convergence threshold.

The early-stopping rule declares convergence when every factor's best
attention exceeds a threshold.  This sweeps that threshold over
{0.5, 0.6, 0.7, 0.8, 0.9} for each variant at a size every variant can
handle (F=2, M^2 = 1e6, D = 1000, tuned hyperparameters) and writes
results/convergence_threshold_tuning.csv.

The instructive case is the asymmetric variant: its converged attention
sits on a plateau near (1 - 2 * flip_rate)^(F-1), so thresholds at or
above the plateau (0.8 with flip rate 0.1 here) stop detecting runs
that in fact decoded correctly.  The benchmark scripts therefore use
0.55: safely below every plateau in the tuned table, far above
crosstalk.  For the noiseless baseline the choice is immaterial, since
its converged attention is exactly 1.
"""

import argparse
import sys
import time
from pathlib import Path

from resfact.bench import SweepConfig, run_sweep
from resfact.report import emit_rows

RESULTS = Path(__file__).resolve().parents[1] / "results"
THRESHOLDS = (0.5, 0.6, 0.7, 0.8, 0.9)


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--trials", type=int, default=50)
    ap.add_argument("--max-iters", type=int, default=1000)
    ap.add_argument("--seed", type=int, default=42)
    ap.add_argument("--out", type=Path, default=RESULTS,
                    help=f"directory the artifact is written to (default {RESULTS})")
    args = ap.parse_args(argv)

    args.out.mkdir(parents=True, exist_ok=True)
    t0 = time.time()
    out = []
    for kind in ("brn", "acf", "imf"):
        for conv in THRESHOLDS:
            cfg = SweepConfig(
                F=2,
                variant_kind=kind,
                search_space_sizes=(1_000_000,),
                use_presets=True,
                trials_per_size=args.trials,
                max_iters=args.max_iters,
                convergence_threshold=conv,
                master_seed=args.seed,
            )
            row = run_sweep(cfg).rows[0]
            out.append(row)
            print(
                f"{kind} conv={conv}: acc={row.accuracy:.2f} "
                f"mean_it={row.mean_iterations:.0f} [{time.time()-t0:.0f}s]",
                file=sys.stderr,
            )
    emit_rows(out, args.out / "convergence_threshold_tuning.csv")
    print(f"wrote {args.out}/convergence_threshold_tuning.csv")
    return 0


if __name__ == "__main__":
    sys.exit(main())

#!/usr/bin/env python3
"""All three decoder variants head to head at F=3, size 1e7.

Runs the tuned-table hyperparameters for each variant at M^3 = 9938375
(M = 215, D = 1500) and writes one row per variant to
results/noise_benefit_f3_1e7.csv.  Expected picture: the noiseless
baseline decodes a small fraction within the budget, while both noisy
variants decode almost everything in far fewer iterations.
"""

import argparse
import sys
import time
from pathlib import Path

from resfact.bench import SweepConfig, run_sweep
from resfact.report import emit_rows

RESULTS = Path(__file__).resolve().parents[1] / "results"


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--trials", type=int, default=200)
    ap.add_argument("--max-iters", type=int, default=1500)
    ap.add_argument("--seed", type=int, default=42)
    ap.add_argument("--out", type=Path, default=RESULTS,
                    help=f"directory the artifact is written to (default {RESULTS})")
    args = ap.parse_args(argv)

    args.out.mkdir(parents=True, exist_ok=True)
    t0 = time.time()
    rows = []
    for kind in ("brn", "acf", "imf"):
        cfg = SweepConfig(
            F=3,
            variant_kind=kind,
            search_space_sizes=(10_000_000,),
            use_presets=True,
            trials_per_size=args.trials,
            max_iters=args.max_iters,
            convergence_threshold=0.55,
            master_seed=args.seed,
        )
        row = run_sweep(cfg).rows[0]
        rows.append(row)
        print(
            f"{kind}: acc={row.accuracy:.3f} ci=({row.ci_low:.3f},{row.ci_high:.3f}) "
            f"mean_it={row.mean_iterations:.0f} [{time.time()-t0:.0f}s]",
            file=sys.stderr,
        )
    emit_rows(rows, args.out / "noise_benefit_f3_1e7.csv")
    print(f"wrote {args.out}/noise_benefit_f3_1e7.csv")
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""Monte-Carlo capacity benchmark for the factorizer variants.

A sweep runs seeded trials at a series of search-space sizes.  Each
trial builds fresh codebooks, plants a ground-truth index per factor,
binds the product vector, and scores the decoder against the planted
truth.  Per size the harness reports accuracy with a Wilson 95%
interval and the mean iteration count; the report's operational
capacity is the largest swept size still decoded with at least 99%
accuracy.

Scoring rules: a trial counts as accurate only if the decoder both
converged and matched the truth; unconverged trials contribute the full
iteration budget to the mean.  Trial seeds are derived from
(master_seed, size index, trial index), so results do not depend on
scheduling order and a sweep is byte-reproducible at any parallelism.
"""

from __future__ import annotations

import ctypes
import itertools
import math
from concurrent.futures import ProcessPoolExecutor
from contextlib import nullcontext
from dataclasses import dataclass, replace
from statistics import fmean
from typing import Callable, Optional, Sequence, Tuple

import numpy as np

from .factorizer import FactorizerConfig, VariantSpec, VARIANT_KINDS, run
from .presets import PRESET_FACTOR_COUNTS, lookup_preset
from .vsa import bind_product, generate_codebook

#: glibc ``mallopt`` parameter numbers (malloc.h).
_M_TRIM_THRESHOLD, _M_MMAP_THRESHOLD = -1, -3
#: Refuse exhaustive search above this many index combinations.
DEFAULT_ORACLE_CAP = 10**6
#: Accuracy level defining operational capacity.
CAPACITY_ACCURACY = 0.99


@dataclass(frozen=True)
class TrialResult:
    """Outcome of one factorization trial.

    ``correct`` records whether all decoded indices matched the planted
    truth, independent of convergence; accuracy aggregation additionally
    requires ``converged``.
    """

    correct: bool
    iterations: int
    converged: bool
    seed: int


@dataclass(frozen=True)
class OracleResult:
    indices: Tuple[int, ...]
    similarity: float


@dataclass(frozen=True)
class OracleCheck:
    """Factorizer-vs-exhaustive-search agreement over seeded trials."""

    trials: int
    converged: int
    agreements: int

    @property
    def all_agree(self) -> bool:
        return self.agreements == self.converged


@dataclass(frozen=True)
class SweepConfig:
    """One capacity sweep: variant, sizes, trial count, seeds.

    Hyperparameters come either from the built-in preset table
    (``use_presets=True``; D, sigma/flip_rate and the activation
    threshold all resolve per size) or from the explicit fields.  The
    two sources are mutually exclusive.
    """

    F: int
    variant_kind: str
    search_space_sizes: Tuple[int, ...]
    trials_per_size: int = 200
    D: Optional[int] = None
    sigma: Optional[float] = None
    flip_rate: Optional[float] = None
    activation_threshold: Optional[float] = None
    use_presets: bool = False
    convergence_threshold: float = 0.8
    max_iters: Optional[int] = None
    master_seed: int = 0
    parallelism: int = 1

    def __post_init__(self):
        if self.F < 2:
            raise ValueError(f"F must be >= 2, got {self.F}")
        if self.variant_kind not in VARIANT_KINDS:
            raise ValueError(f"variant_kind must be one of {VARIANT_KINDS}")
        sizes = tuple(sorted(int(s) for s in self.search_space_sizes))
        if not sizes:
            raise ValueError("search_space_sizes must not be empty")
        object.__setattr__(self, "search_space_sizes", sizes)
        if self.trials_per_size < 1:
            raise ValueError(f"trials_per_size must be >= 1, got {self.trials_per_size}")
        if self.parallelism < 1:
            raise ValueError(f"parallelism must be >= 1, got {self.parallelism}")
        if self.max_iters is not None and self.max_iters < 1:
            raise ValueError(f"max_iters must be >= 1, got {self.max_iters}")
        if not 0.0 < self.convergence_threshold <= 1.0:
            raise ValueError(
                f"convergence_threshold must be in (0, 1], got {self.convergence_threshold}"
            )
        if self.use_presets:
            if self.F not in PRESET_FACTOR_COUNTS:
                raise ValueError(
                    f"presets cover F in {PRESET_FACTOR_COUNTS}, got F={self.F}"
                )
            for key in ("D", "sigma", "flip_rate", "activation_threshold"):
                if getattr(self, key) is not None:
                    raise ValueError(
                        f"{key} must be omitted when use_presets is set; presets supply it"
                    )
        else:
            if self.D is None:
                raise ValueError("D is required when use_presets is not set")
            # Raises on a missing knob and on one the variant does not take.
            VariantSpec(self.variant_kind, sigma=self.sigma, flip_rate=self.flip_rate,
                        activation_threshold=self.activation_threshold)


@dataclass(frozen=True)
class CapacityRow:
    """One swept size; its fields, in order, are the report's columns."""

    variant: str
    F: int
    M: int
    D: int
    search_space: int
    trials: int
    accuracy: float
    ci_low: float
    ci_high: float
    mean_iterations: float
    sigma: Optional[float]
    flip_rate: Optional[float]
    activation_threshold: float
    convergence_threshold: float
    max_iters: int
    preset_exact: str


@dataclass(frozen=True)
class CapacityReport:
    config: SweepConfig
    rows: Tuple[CapacityRow, ...]
    operational_capacity: Optional[int]


def M_for_target(target: int, F: int) -> int:
    """Codebook size whose F-th power is closest to the target size."""
    if F < 2:
        raise ValueError(f"F must be >= 2, got {F}")
    if target < 2**F:
        raise ValueError(f"target size {target} gives M < 2 at F={F}")
    guess = round(target ** (1.0 / F))
    candidates = [m for m in (guess - 1, guess, guess + 1) if m >= 2]
    return min(candidates, key=lambda m: (abs(m**F - target), m))


def trial_seed_for(master_seed: int, size_index: int, trial_index: int) -> int:
    """Stable per-trial seed; a pure function of the three indices."""
    ss = np.random.SeedSequence([master_seed % 2**64, size_index, trial_index])
    return int(ss.generate_state(1, np.uint64)[0])


def make_instance(trial_seed: int, M: int, F: int, D: int):
    """Build one problem instance: codebooks, planted truth, product vector.

    Returns (x, books, truth, factorizer_seed).  The decoder seed is
    split off the same root so instance sampling and decoding stay
    independent streams.
    """
    root = np.random.SeedSequence(trial_seed % 2**64)
    inst_ss, fact_ss = root.spawn(2)
    rng = np.random.default_rng(inst_ss)
    books = [generate_codebook(M, D, rng) for _ in range(F)]
    truth = tuple(int(i) for i in rng.integers(0, M, size=F))
    x = bind_product(books, truth)
    fact_seed = int(fact_ss.generate_state(1, np.uint64)[0])
    return x, books, truth, fact_seed


def decode_instance(trial_seed: int, cfg: FactorizerConfig):
    """Build the seeded instance and decode it once with ``cfg``.

    Returns (x, books, truth, result): the instance as ``make_instance``
    builds it and the decoder's result on it.  ``cfg.seed`` is not read;
    the decoder seed is the one ``make_instance`` splits off ``trial_seed``.
    """
    x, books, truth, fact_seed = make_instance(trial_seed, cfg.M, cfg.F, cfg.D)
    return x, books, truth, run(x, books, replace(cfg, seed=fact_seed))


def run_trial(trial_seed: int, cfg: FactorizerConfig) -> TrialResult:
    """One seeded trial: fresh instance, one decode, scored against truth."""
    _, _, truth, res = decode_instance(trial_seed, cfg)
    return TrialResult(
        correct=res.indices == truth,
        iterations=res.iterations,
        converged=res.converged,
        seed=trial_seed,
    )


def brute_force_oracle(x, books) -> OracleResult:
    """Exhaustively find the codevector combination most similar to ``x``.

    Ties resolve to the lexicographically smallest index tuple.  Refuses
    outright when the number of combinations exceeds
    ``DEFAULT_ORACLE_CAP``; exhaustive search is a verification tool, not
    a decoder.
    """
    books = list(books)
    if len(books) < 2:
        raise ValueError(f"need at least 2 codebooks, got {len(books)}")
    total = math.prod(b.size for b in books)
    if total > DEFAULT_ORACLE_CAP:
        raise ValueError(f"search space {total} exceeds oracle cap {DEFAULT_ORACLE_CAP}")
    xv = np.asarray(x)
    dim = books[0].dim
    for b in books:
        if b.dim != dim or xv.shape[0] != dim:
            raise ValueError("codebook and input dimensions must all match")

    # Enumerate leading factors; close each combination with one
    # matrix product over the last two factors. +-1 sums are exact in
    # float32 well past any dimension used here.
    penult = books[-2].codevectors.astype(np.float32)
    last = books[-1].codevectors
    lead_books = books[:-2]
    best_dot = -np.inf
    best_idx: Optional[Tuple[int, ...]] = None
    for lead in itertools.product(*(range(b.size) for b in lead_books)):
        partial = xv.astype(np.int8, copy=True)
        for b, i in zip(lead_books, lead):
            partial *= b.codevectors[i]
        dots = penult @ (last * partial).astype(np.float32).T
        flat = int(np.argmax(dots))
        value = float(dots.flat[flat])
        if value > best_dot:
            best_dot = value
            i, j = divmod(flat, dots.shape[1])
            best_idx = lead + (i, j)
    return OracleResult(indices=best_idx, similarity=best_dot / dim)


def oracle_agreement(
    M: int,
    F: int,
    D: int,
    variant: VariantSpec,
    n_trials: int,
    master_seed: int = 0,
    max_iters: Optional[int] = None,
    convergence_threshold: float = 0.8,
) -> OracleCheck:
    """Cross-check converged decodes against exhaustive search.

    Agreement is counted among converged trials only; an unconverged
    decode makes no claim worth checking.  Refuses search spaces above
    ``DEFAULT_ORACLE_CAP``.
    """
    if n_trials < 1:
        raise ValueError(f"n_trials must be >= 1, got {n_trials}")
    if M**F > DEFAULT_ORACLE_CAP:
        raise ValueError(f"search space {M**F} exceeds oracle cap {DEFAULT_ORACLE_CAP}")
    cfg = FactorizerConfig(variant, F=F, M=M, D=D, max_iters=max_iters,
                           convergence_threshold=convergence_threshold)
    converged = 0
    agreements = 0
    for t in range(n_trials):
        x, books, _, res = decode_instance(trial_seed_for(master_seed, 0, t), cfg)
        if not res.converged:
            continue
        converged += 1
        if res.indices == brute_force_oracle(x, books).indices:
            agreements += 1
    return OracleCheck(trials=n_trials, converged=converged, agreements=agreements)


def wilson_interval(successes: int, n: int, z: float = 1.96) -> Tuple[float, float]:
    """Wilson score interval for a binomial proportion (95% at z=1.96)."""
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    if not 0 <= successes <= n:
        raise ValueError(f"successes must be in [0, {n}], got {successes}")
    phat = successes / n
    denom = 1.0 + z * z / n
    center = (phat + z * z / (2 * n)) / denom
    half = z * math.sqrt(phat * (1.0 - phat) / n + z * z / (4 * n * n)) / denom
    return max(0.0, center - half), min(1.0, center + half)


def operational_capacity(rows: Sequence[CapacityRow]) -> Optional[int]:
    """Largest swept size with accuracy at or above the 99% bar, if any."""
    qualifying = [r.search_space for r in rows if r.accuracy >= CAPACITY_ACCURACY]
    return max(qualifying) if qualifying else None


def _resolve_size(cfg: SweepConfig, target: int):
    """One size's trial config, ``max_iters`` resolved, and its ``preset_exact`` field."""
    M = M_for_target(target, cfg.F)
    if cfg.use_presets:
        hit = lookup_preset(cfg.F, M**cfg.F, cfg.variant_kind)
        variant, D = hit.variant, hit.D
        preset_exact = "true" if hit.exact else "false"
    else:
        variant = VariantSpec(cfg.variant_kind, sigma=cfg.sigma, flip_rate=cfg.flip_rate,
                              activation_threshold=cfg.activation_threshold)
        D = cfg.D
        preset_exact = "n/a"
    trial_cfg = FactorizerConfig(variant, F=cfg.F, M=M, D=D, max_iters=cfg.max_iters,
                                 convergence_threshold=cfg.convergence_threshold)
    return replace(trial_cfg, max_iters=trial_cfg.resolved_max_iters()), preset_exact


def _retain_freed_memory() -> None:
    """Let this process reuse the memory one trial frees in the next trial.

    Every trial allocates and frees the same (M, D)-sized arrays.  By
    default glibc serves arrays above a threshold with fresh mmap()s and
    returns the freed top of its heap to the OS after a trial, unless an
    earlier, larger block happened to raise both thresholds; either way
    the next trial page-faults every page in again.  Serving arrays up
    to 32 MiB from the heap and keeping up to 64 MiB of it once freed
    makes trials reuse their pages.  A no-op where the C library has no
    ``mallopt``.
    """
    try:
        mallopt = ctypes.CDLL(None).mallopt
    except (AttributeError, OSError, TypeError):
        return
    mallopt.argtypes = (ctypes.c_int, ctypes.c_int)
    mallopt.restype = ctypes.c_int
    mallopt(_M_MMAP_THRESHOLD, 32 << 20)
    mallopt(_M_TRIM_THRESHOLD, 64 << 20)


def run_sweep(
    cfg: SweepConfig,
    progress: Optional[Callable[[CapacityRow], None]] = None,
) -> CapacityReport:
    """Run the full sweep and aggregate one row per size.

    ``progress`` (if given) observes each finished row; the CLI uses it
    for stderr status lines.  Trial seeds depend only on (master seed,
    size index, trial index), so any parallelism degree yields the same
    report.  The sweep sets glibc's malloc thresholds for its process and
    its workers (``_retain_freed_memory``).
    """
    _retain_freed_memory()
    # One pool for the whole sweep: its workers start once, not once per size.
    workers = (ProcessPoolExecutor(cfg.parallelism, initializer=_retain_freed_memory)
               if cfg.parallelism > 1 else nullcontext())
    with workers as pool:
        rows = [_sweep_row(cfg, size_index, target, pool, progress)
                for size_index, target in enumerate(cfg.search_space_sizes)]
    rows.sort(key=lambda r: r.search_space)
    return CapacityReport(
        config=cfg,
        rows=tuple(rows),
        operational_capacity=operational_capacity(rows),
    )


def _sweep_row(cfg: SweepConfig, size_index: int, target: int, pool, progress) -> CapacityRow:
    """Run one size's trials, in ``pool`` if given, and aggregate its row."""
    trial_cfg, preset_exact = _resolve_size(cfg, target)
    n = cfg.trials_per_size
    seeds = [trial_seed_for(cfg.master_seed, size_index, t) for t in range(n)]
    if pool is not None:
        chunk = max(1, math.ceil(n / (cfg.parallelism * 4)))
        results = list(pool.map(run_trial, seeds, itertools.repeat(trial_cfg), chunksize=chunk))
    else:
        results = list(map(run_trial, seeds, itertools.repeat(trial_cfg)))
    successes = sum(1 for r in results if r.correct and r.converged)
    ci_low, ci_high = wilson_interval(successes, n)
    row = CapacityRow(
        variant=cfg.variant_kind,
        F=cfg.F,
        M=trial_cfg.M,
        D=trial_cfg.D,
        search_space=trial_cfg.M**trial_cfg.F,
        trials=n,
        accuracy=successes / n,
        ci_low=ci_low,
        ci_high=ci_high,
        mean_iterations=fmean(r.iterations for r in results),
        sigma=trial_cfg.variant.sigma,
        flip_rate=trial_cfg.variant.flip_rate,
        activation_threshold=trial_cfg.variant.activation_threshold,
        convergence_threshold=trial_cfg.convergence_threshold,
        max_iters=trial_cfg.max_iters,
        preset_exact=preset_exact,
    )
    if progress is not None:
        progress(row)
    return row

import dataclasses
import os
import platform
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from resfact import bench
from resfact.bench import (
    CAPACITY_ACCURACY,
    CapacityRow,
    SweepConfig,
    M_for_target,
    brute_force_oracle,
    make_instance,
    operational_capacity,
    oracle_agreement,
    run_sweep,
    run_trial,
    trial_seed_for,
    wilson_interval,
)
from resfact.factorizer import FactorizerConfig, VariantSpec
from resfact.report import report_to_csv_bytes
from resfact.vsa import Codebook, bind_product, generate_codebook, random_bipolar


# --- size arithmetic ---


@pytest.mark.parametrize(
    "target,F,expected",
    [
        (10_000, 2, 100),
        (1_000_000, 3, 100),
        (10_000_000, 3, 215),  # 215**3 beats 216**3
        (5_000_000, 2, 2236),
        (4, 2, 2),
        (110, 2, 10),
        (1160, 3, 10),  # cube root rounds to 11 but 10**3 is closer
    ],
)
def test_m_for_target(target, F, expected):
    assert M_for_target(target, F) == expected


def test_m_for_target_rejects():
    with pytest.raises(ValueError):
        M_for_target(100, 1)
    with pytest.raises(ValueError):
        M_for_target(7, 3)  # below 2**3


# --- seeding and instances ---


def test_trial_seed_properties():
    assert trial_seed_for(0, 0, 0) == trial_seed_for(0, 0, 0)
    assert trial_seed_for(2**64 + 1, 0, 0) == trial_seed_for(1, 0, 0)
    seeds = {trial_seed_for(0, i, t) for i in range(3) for t in range(50)}
    assert len(seeds) == 150


def test_make_instance_is_planted_product():
    x, books, truth, fact_seed = make_instance(424242, M=7, F=3, D=96)
    assert len(books) == 3 and books[0].size == 7 and books[0].dim == 96
    assert all(0 <= i < 7 for i in truth)
    assert np.array_equal(x, bind_product(books, truth))
    again = make_instance(424242, M=7, F=3, D=96)
    assert np.array_equal(x, again[0])
    assert fact_seed == again[3]


def test_run_trial_deterministic():
    cfg = FactorizerConfig(VariantSpec.brn(), F=2, M=20, D=400)
    a = run_trial(99, cfg)
    b = run_trial(99, cfg)
    assert a == b
    assert a.seed == 99


def test_run_trial_easy_regime():
    cfg = FactorizerConfig(VariantSpec.brn(), F=2, M=10, D=1000)
    hits = sum(run_trial(trial_seed_for(7, 0, t), cfg).correct for t in range(100))
    assert hits >= 99


# --- exhaustive oracle ---


def test_oracle_tiny_handmade():
    g = np.random.default_rng(0)
    v, w = random_bipolar(4, g), random_bipolar(4, g)
    b0 = Codebook(np.stack([v, -v]))
    b1 = Codebook(np.stack([w, np.array([w[0], -w[1], w[2], -w[3]], dtype=np.int8)]))
    x = v * w
    got = brute_force_oracle(x, [b0, b1])
    assert got.indices == (0, 0)
    assert got.similarity == 1.0


def test_oracle_tie_is_lexicographic():
    g = np.random.default_rng(1)
    v, w = random_bipolar(8, g), random_bipolar(8, g)
    # (0,0) and (1,1) produce the same product vector
    b0 = Codebook(np.stack([v, -v]))
    b1 = Codebook(np.stack([w, -w]))
    got = brute_force_oracle(v * w, [b0, b1])
    assert got.indices == (0, 0)


def test_oracle_recovers_planted_truth_under_noise():
    g = np.random.default_rng(5)
    books = [generate_codebook(6, 256, g) for _ in range(3)]
    truth = (2, 5, 1)
    x = bind_product(books, truth).copy()
    flips = g.choice(256, size=12, replace=False)  # ~5% corruption
    x[flips] *= -1
    got = brute_force_oracle(x, books)
    assert got.indices == truth
    assert got.similarity == pytest.approx(1 - 2 * 12 / 256)


def test_oracle_rejects(monkeypatch):
    g = np.random.default_rng(2)
    books = [generate_codebook(4, 32, g) for _ in range(2)]
    with pytest.raises(ValueError):
        brute_force_oracle(random_bipolar(32, g), books[:1])
    mixed = [books[0], generate_codebook(4, 64, g)]
    with pytest.raises(ValueError):
        brute_force_oracle(random_bipolar(32, g), mixed)
    monkeypatch.setattr(bench, "DEFAULT_ORACLE_CAP", 15)
    with pytest.raises(ValueError, match="exceeds oracle cap 15"):
        brute_force_oracle(random_bipolar(32, g), books)


def test_oracle_agreement_easy_regime():
    check = oracle_agreement(M=8, F=2, D=256, variant=VariantSpec.brn(), n_trials=10)
    assert check.trials == 10
    assert check.converged == 10
    assert check.all_agree


def test_oracle_agreement_rejects():
    with pytest.raises(ValueError):
        oracle_agreement(M=8, F=2, D=64, variant=VariantSpec.brn(), n_trials=0)
    with pytest.raises(ValueError):
        oracle_agreement(M=101, F=3, D=64, variant=VariantSpec.brn(), n_trials=1)


# --- aggregation ---


def test_wilson_interval_values():
    low, high = wilson_interval(99, 100)
    assert low == pytest.approx(0.9455, abs=2e-4)
    assert high == pytest.approx(0.9982, abs=2e-4)
    assert wilson_interval(0, 50)[0] == 0.0
    assert wilson_interval(50, 50)[1] == 1.0
    low1, high1 = wilson_interval(0, 1)
    assert low1 == 0.0 and high1 == pytest.approx(0.7935, abs=2e-4)


def test_wilson_interval_rejects():
    with pytest.raises(ValueError):
        wilson_interval(0, 0)
    with pytest.raises(ValueError):
        wilson_interval(-1, 10)
    with pytest.raises(ValueError):
        wilson_interval(11, 10)


def _row(search_space, accuracy):
    return CapacityRow(
        variant="brn",
        F=2,
        M=2,
        D=8,
        search_space=search_space,
        trials=10,
        accuracy=accuracy,
        ci_low=0.0,
        ci_high=1.0,
        mean_iterations=1.0,
        sigma=None,
        flip_rate=None,
        activation_threshold=0.0,
        convergence_threshold=0.8,
        max_iters=10,
        preset_exact="n/a",
    )


def test_operational_capacity_rule():
    rows = [_row(100, 1.0), _row(10_000, CAPACITY_ACCURACY), _row(1_000_000, 0.42)]
    assert operational_capacity(rows) == 10_000
    assert operational_capacity([_row(100, 0.5)]) is None
    assert operational_capacity([]) is None


# --- sweep config ---


def test_sweep_config_sorts_sizes():
    cfg = SweepConfig(F=2, variant_kind="brn", search_space_sizes=(100, 16, 49), D=64)
    assert cfg.search_space_sizes == (16, 49, 100)


@pytest.mark.parametrize(
    "kwargs,needle",
    [
        (dict(variant_kind="zzz"), "variant_kind"),
        (dict(search_space_sizes=()), "search_space_sizes"),
        (dict(trials_per_size=0), "trials_per_size"),
        (dict(parallelism=0), "parallelism"),
        (dict(max_iters=0), "max_iters"),
        (dict(convergence_threshold=0.0), "convergence_threshold"),
        (dict(D=None), "D is required"),
        (dict(variant_kind="imf"), "sigma is required"),
        (dict(variant_kind="acf"), "flip_rate is required"),
        (dict(use_presets=True), "must be omitted"),
        (dict(use_presets=True, D=None, F=5), "presets cover F"),
        # A knob the variant does not take is refused, not dropped from the report.
        (dict(sigma=0.1), "sigma only applies to imf"),
        (dict(variant_kind="acf", flip_rate=0.1, sigma=0.3), "sigma only applies to imf"),
        (dict(variant_kind="imf", sigma=0.01, flip_rate=0.1), "flip_rate only applies to acf"),
    ],
)
def test_sweep_config_rejects(kwargs, needle):
    base = dict(F=2, variant_kind="brn", search_space_sizes=(16,), D=64)
    base.update(kwargs)
    with pytest.raises(ValueError, match=needle):
        SweepConfig(**base)


def test_explicit_variant_resolution():
    cfg = SweepConfig(
        F=2, variant_kind="imf", search_space_sizes=(16,), D=64,
        sigma=0.02, activation_threshold=0.1,
    )
    trial_cfg, preset_exact = bench._resolve_size(cfg, 16)
    assert trial_cfg == FactorizerConfig(VariantSpec("imf", sigma=0.02, activation_threshold=0.1),
                                         F=2, M=4, D=64, max_iters=16)
    assert preset_exact == "n/a"
    brn = SweepConfig(F=2, variant_kind="brn", search_space_sizes=(16,), D=64)
    assert bench._resolve_size(brn, 16)[0].variant == VariantSpec("brn")


# --- sweeps ---


def test_run_sweep_degenerate_size():
    cfg = SweepConfig(
        F=2, variant_kind="brn", search_space_sizes=(16,), D=256,
        trials_per_size=20, master_seed=3,
    )
    seen = []
    report = run_sweep(cfg, progress=seen.append)
    assert len(report.rows) == 1
    row = report.rows[0]
    assert seen == [row]
    assert (row.M, row.search_space, row.D) == (4, 16, 256)
    assert row.accuracy == 1.0
    assert row.trials == 20
    assert row.preset_exact == "n/a"
    assert row.max_iters == 16  # min(M**F, default cap)
    assert row.ci_low < 1.0 <= row.ci_high
    assert report.operational_capacity == 16


def test_run_sweep_rows_sorted():
    cfg = SweepConfig(
        F=2, variant_kind="brn", search_space_sizes=(100, 16), D=128,
        trials_per_size=5,
    )
    report = run_sweep(cfg)
    assert [r.search_space for r in report.rows] == [16, 100]


def test_run_sweep_unconverged_bills_full_budget():
    # strict detection can never beat threshold 1.0, so nothing converges
    cfg = SweepConfig(
        F=2, variant_kind="brn", search_space_sizes=(16,), D=128,
        trials_per_size=8, convergence_threshold=1.0, max_iters=3,
    )
    report = run_sweep(cfg)
    row = report.rows[0]
    assert row.accuracy == 0.0
    assert row.mean_iterations == 3.0
    assert report.operational_capacity is None


def test_run_sweep_gives_each_trial_its_rows_config(monkeypatch):
    calls = []
    real_run_trial = bench.run_trial

    def recording_run_trial(seed, cfg):
        calls.append((seed, cfg))
        return real_run_trial(seed, cfg)

    monkeypatch.setattr(bench, "run_trial", recording_run_trial)
    cfg = SweepConfig(
        F=2, variant_kind="acf", search_space_sizes=(16, 64), D=128, flip_rate=0.05,
        activation_threshold=0.02, convergence_threshold=0.7, trials_per_size=3, master_seed=5,
    )
    report = run_sweep(cfg)
    assert len(calls) == 6
    for size_index, row in enumerate(report.rows):
        seeds, cfgs = zip(*calls[3 * size_index:3 * size_index + 3])
        assert seeds == tuple(trial_seed_for(5, size_index, t) for t in range(3))
        assert len(set(cfgs)) == 1
        trial_cfg = cfgs[0]
        assert (trial_cfg.F, trial_cfg.M, trial_cfg.D) == (row.F, row.M, row.D)
        assert trial_cfg.variant == VariantSpec("acf", flip_rate=row.flip_rate,
                                                activation_threshold=row.activation_threshold)
        assert trial_cfg.convergence_threshold == row.convergence_threshold == 0.7
        assert trial_cfg.max_iters == row.max_iters == row.search_space


def test_decode_instance_ignores_config_seed():
    cfg = FactorizerConfig(VariantSpec.imf(sigma=0.05), F=2, M=12, D=256, seed=1)
    x, books, truth, res = bench.decode_instance(31, cfg)
    again = bench.decode_instance(31, dataclasses.replace(cfg, seed=2))
    assert np.array_equal(x, again[0]) and truth == again[2]
    assert all(np.array_equal(a.codevectors, b.codevectors) for a, b in zip(books, again[1]))
    assert res.indices == again[3].indices and res.iterations == again[3].iterations
    # imf's attentions carry the noise drawn from the decoder seed.
    assert np.array_equal(res.state.attentions, again[3].state.attentions)


def test_run_sweep_parallelism_matches_serial():
    base = dict(
        F=2, variant_kind="imf", search_space_sizes=(16, 64), D=128,
        sigma=0.01, trials_per_size=8, master_seed=11,
    )
    serial = run_sweep(SweepConfig(**base, parallelism=1))
    parallel = run_sweep(SweepConfig(**base, parallelism=2))
    assert serial.rows == parallel.rows
    assert serial.operational_capacity == parallel.operational_capacity


def test_run_sweep_opens_one_pool_and_matches_serial_bytes(monkeypatch):
    pools = []

    class CountingPool(bench.ProcessPoolExecutor):
        def __init__(self, *args, **kwargs):
            pools.append(self)
            super().__init__(*args, **kwargs)

    monkeypatch.setattr(bench, "ProcessPoolExecutor", CountingPool)
    base = dict(
        F=2, variant_kind="acf", search_space_sizes=(16, 64, 144), D=128,
        flip_rate=0.05, trials_per_size=5, master_seed=3,
    )
    serial = report_to_csv_bytes(run_sweep(SweepConfig(**base, parallelism=1)))
    assert pools == []
    parallel = report_to_csv_bytes(run_sweep(SweepConfig(**base, parallelism=2)))
    assert len(pools) == 1
    assert serial == parallel
    assert serial.count(b"\n") == 4  # header and three rows


def test_run_sweep_with_preset_table():
    # 21609 is a row of the built-in table; 40000 is not, and its nearest
    # row on a log scale is 46225 (21609 is farther).
    cfg = SweepConfig(
        F=2, variant_kind="acf", search_space_sizes=(21609, 40000),
        use_presets=True, trials_per_size=2,
    )
    report = run_sweep(cfg)
    by_size = {r.search_space: r for r in report.rows}
    assert by_size[21609].preset_exact == "true"
    assert (by_size[21609].D, by_size[21609].flip_rate) == (1000, 0.075)
    assert by_size[21609].activation_threshold == 0.0
    assert by_size[40000].preset_exact == "false"  # nearest row substituted
    assert (by_size[40000].D, by_size[40000].flip_rate) == (1000, 0.1)


FAULTS_PER_INSTANCE = """
import resource
from resfact.bench import SweepConfig, make_instance, run_sweep

def faults():
    f0 = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
    for seed in range(20):
        make_instance(seed, 100, 2, 4000)
    return (resource.getrusage(resource.RUSAGE_SELF).ru_minflt - f0) / 20

run_sweep(SweepConfig(F=2, variant_kind="brn", search_space_sizes=(16,), D=64, trials_per_size=1))
make_instance(99, 100, 2, 4000)  # the first instance grows the heap once
print(faults())
"""


@pytest.mark.skipif(platform.libc_ver()[0] != "glibc", reason="sets glibc malloc thresholds")
def test_sweep_trials_reuse_the_memory_earlier_trials_freed():
    # Two 400 KB codebooks per instance: without the sweep's malloc
    # settings, a fresh process page-faults about 165 pages in per instance.
    out = subprocess.run([sys.executable, "-c", FAULTS_PER_INSTANCE], capture_output=True,
                         text=True, check=True, timeout=120,
                         env=dict(os.environ, PYTHONPATH=str(Path(bench.__file__).parents[1])))
    assert float(out.stdout) < 5

"""``scripts/bench_engine.py`` still runs on this engine.

The script reads private parts of the decoder (``_advance``, ``_Kernels``),
so a change there can break it without failing any other test.  Each of
its four kinds of row runs once here, at a tiny shape and with a short
timing batch.
"""

import importlib.util
from pathlib import Path

import pytest

from resfact import _sweep, factorizer
from resfact.bench import make_instance, run_trial

SCRIPT = Path(__file__).resolve().parents[1] / "scripts" / "bench_engine.py"


@pytest.fixture
def bench_engine(monkeypatch):
    spec = importlib.util.spec_from_file_location("bench_engine", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    monkeypatch.setattr(module, "TARGET_S", 0.002)
    return module


@pytest.mark.parametrize(
    "kind, knobs", [("acf", {"flip_rate": 0.05, "activation_threshold": 0.05}), ("brn", {}),
                    ("imf", {"sigma": 0.007, "activation_threshold": 0.05})],
    ids=["acf", "brn", "imf"],
)
def test_bench_engine_rows_run(bench_engine, kind, knobs):
    M, D, F = 40, 200, 2
    setup = bench_engine.bench_setup(factorizer, make_instance, M, D, F, kind, knobs)
    assert set(bench_engine.SETUP_STEPS) <= set(setup)
    trial = bench_engine.bench_trial(factorizer, run_trial, M, D, F, kind, knobs, 0.55)
    assert trial["max_sweeps"] >= 1 and trial["trial_us"]["us"] > 0
    rows = [bench_engine.bench_row(factorizer, make_instance, M, D, F, kind, knobs, 3)
            for _ in range(3)]
    # Net of the set-up, a decode of DECODE_SWEEPS sweeps still costs time
    # per sweep in every repeat: its runs and the one-sweep runs alternate.
    assert all(r["decode_us"]["us"] > 0 and r["decode_us"]["calls"] >= 1 for r in rows)
    row = rows[0]
    assert row["sweep_us"]["us"] > 0
    # Every factor searches once per recorded sweep, afresh or from the changed bits.
    assert sum(row["searches"].values()) == F * (bench_engine.TRAJECTORY_SWEEPS - 1)
    # acf packs its perturbed reconstruction books beside the search books;
    # brn reconstructs from its search rows.
    packed_books = 2 * F if kind == "acf" else F
    assert row["kernel_bytes"] == packed_books * M * -(-D // 64) * 8


def test_bench_engine_crossover_row_runs(bench_engine):
    # Both paths are timed at every changed-bit count up to D.
    row = bench_engine.bench_crossover(factorizer, _sweep, 70, 300)
    assert row["delta_limit"] == _sweep.delta_limit(70, -(-300 // 64))
    assert row["full_us"]["us"] > 0
    assert [k for k in row if k.startswith("delta_us_")] == [
        f"delta_us_{b}" for b in bench_engine.CHANGED_BITS if b <= 300]
    merged = {"full_us": {"median": 2.0}, "delta_us_0": {"median": 0.5},
              "delta_us_16": {"median": 1.0}, "delta_us_32": {"median": 3.0}}
    assert bench_engine.crossover_bits(merged) == 24
    assert bench_engine.crossover_bits({**merged, "delta_us_32": {"median": 1.5}}) is None


def test_bench_engine_figures_carry_their_minimum(bench_engine):
    # Repeats jump between two speed levels; the minimum stands beside the median.
    fig = bench_engine.summary([30.0, 10.0, 20.0, 50.0, 40.0])
    assert (fig["median"], fig["iqr"], fig["min"]) == (30.0, 20.0, 10.0)


def test_bench_engine_refuses_a_tree_outside_git(bench_engine, tmp_path, capsys):
    # A tree exported without its repository could not name its commit.
    (tmp_path / "src").mkdir()
    with pytest.raises(SystemExit) as exc:
        bench_engine.main(["--against", str(tmp_path / "src"), "--label", "after",
                           "--out", str(tmp_path / "bench.json")])
    assert exc.value.code == 2
    assert "git worktree add --detach <dir> <parent>" in capsys.readouterr().err
    assert not (tmp_path / "bench.json").exists()

import csv
import dataclasses
import importlib.util
import io
import json
import re
import typing
from pathlib import Path

import pytest

from resfact.bench import CapacityReport, CapacityRow, SweepConfig, run_sweep
from resfact.report import (
    CSV_HEADER,
    emit_report,
    emit_rows,
    report_to_csv_bytes,
    report_to_json_bytes,
)

EXPECTED_HEADER = (
    "variant,F,M,D,search_space,trials,accuracy,ci_low,ci_high,mean_iterations,"
    "sigma,flip_rate,activation_threshold,convergence_threshold,max_iters,preset_exact"
)
RESULTS = Path(__file__).resolve().parents[1] / "results"
ARTIFACTS = sorted(RESULTS.glob("*.csv"))
COLUMN_TYPES = typing.get_type_hints(CapacityRow)


def _report(rows=()):
    cfg = SweepConfig(F=2, variant_kind="brn", search_space_sizes=(16,), D=64)
    return CapacityReport(config=cfg, rows=tuple(rows), operational_capacity=None)


def _sample_row(**overrides):
    fields = dict(
        variant="imf",
        F=2,
        M=100,
        D=1000,
        search_space=10000,
        trials=200,
        accuracy=0.9953,
        ci_low=0.123456789,
        ci_high=1.0,
        mean_iterations=17.355,
        sigma=0.008,
        flip_rate=None,
        activation_threshold=0.001,
        convergence_threshold=0.8,
        max_iters=10000,
        preset_exact="true",
    )
    fields.update(overrides)
    return CapacityRow(**fields)


def test_header_is_the_contract():
    assert CSV_HEADER == EXPECTED_HEADER


def test_empty_report_is_header_only():
    assert report_to_csv_bytes(_report()) == (EXPECTED_HEADER + "\n").encode()


def test_csv_row_rendering():
    data = report_to_csv_bytes(_report([_sample_row()])).decode()
    lines = data.splitlines()
    assert len(lines) == 2
    cells = lines[1].split(",")
    assert cells[0] == "imf"
    assert cells[6] == "0.9953"
    assert cells[7] == "0.123457"  # six significant digits
    assert cells[8] == "1"
    assert cells[11] == ""  # None flip_rate renders empty
    assert cells[15] == "true"


def test_json_matches_csv_numerically():
    report = _report([_sample_row(), _sample_row(search_space=40000, accuracy=1.0)])
    doc = json.loads(report_to_json_bytes(report))
    rows = list(csv.DictReader(io.StringIO(report_to_csv_bytes(report).decode())))
    assert len(doc["rows"]) == len(rows) == 2
    for jrow, crow in zip(doc["rows"], rows):
        for key, jval in jrow.items():
            cval = crow[key]
            if jval is None:
                assert cval == ""
            elif isinstance(jval, float):
                assert float(cval) == jval
            else:
                assert str(jval) == cval
    assert doc["operational_capacity"] is None
    assert doc["config"]["variant_kind"] == "brn"
    assert doc["config"]["search_space_sizes"] == [16]


def test_serialization_is_deterministic():
    report = _report([_sample_row()])
    assert report_to_csv_bytes(report) == report_to_csv_bytes(report)
    assert report_to_json_bytes(report) == report_to_json_bytes(report)


def test_emit_to_file_and_stdout(tmp_path, capsysbinary):
    report = _report([_sample_row()])
    out = tmp_path / "report.csv"
    emit_report(report, "csv", out)
    assert out.read_bytes() == report_to_csv_bytes(report)
    # no stray temp files once the rename lands
    assert [p.name for p in tmp_path.iterdir()] == ["report.csv"]
    emit_report(report, "json", "-")
    assert capsysbinary.readouterr().out == report_to_json_bytes(report)


def test_emit_overwrites_atomically(tmp_path):
    out = tmp_path / "report.csv"
    out.write_text("stale\n")
    emit_report(_report(), "csv", out)
    assert out.read_text() == EXPECTED_HEADER + "\n"


def test_emit_rejects_bad_format(tmp_path):
    with pytest.raises(ValueError):
        emit_report(_report(), "yaml", tmp_path / "x")


def test_emit_propagates_io_errors(tmp_path):
    with pytest.raises(OSError):
        emit_report(_report(), "csv", tmp_path / "no_such_dir" / "x.csv")


def test_round_trip_from_real_sweep():
    # convergence threshold below the converged-attention plateau that the
    # codebook asymmetry imposes (about 1 - 2 * flip_rate at F=2)
    cfg = SweepConfig(
        F=2, variant_kind="acf", search_space_sizes=(16,), D=128,
        flip_rate=0.05, trials_per_size=5, convergence_threshold=0.55,
    )
    report = run_sweep(cfg)
    doc = json.loads(report_to_json_bytes(report))
    (crow,) = csv.DictReader(io.StringIO(report_to_csv_bytes(report).decode()))
    assert doc["rows"][0]["flip_rate"] == float(crow["flip_rate"]) == 0.05
    assert crow["sigma"] == ""
    assert doc["rows"][0]["sigma"] is None
    assert doc["operational_capacity"] == report.operational_capacity == 16


def test_json_bytes_do_not_depend_on_parallelism():
    base = dict(F=2, variant_kind="brn", search_space_sizes=(16, 36), D=128,
                trials_per_size=3, master_seed=5)
    serial = report_to_json_bytes(run_sweep(SweepConfig(**base, parallelism=1)))
    parallel = report_to_json_bytes(run_sweep(SweepConfig(**base, parallelism=2)))
    assert serial == parallel
    assert "parallelism" not in json.loads(serial)["config"]


def _csv_rows(text: str) -> list:
    """The rows of a report CSV, each cell typed as ``CapacityRow`` declares it."""
    def cell(column, value):
        kind = COLUMN_TYPES[column]
        if kind is str:
            return value
        if value == "":
            return None
        return int(value) if kind is int else float(value)

    return [CapacityRow(**{c: cell(c, v) for c, v in rec.items()})
            for rec in csv.DictReader(io.StringIO(text))]


def test_emit_rows_writes_the_report_csv(tmp_path, capsysbinary):
    report = _report([_sample_row(), _sample_row(search_space=40000)])
    emit_rows(report.rows, tmp_path / "rows.csv")
    assert (tmp_path / "rows.csv").read_bytes() == report_to_csv_bytes(report)
    emit_rows(report.rows, "-")
    assert capsysbinary.readouterr().out == report_to_csv_bytes(report)


def test_results_artifacts_are_found():
    assert len(ARTIFACTS) >= 5


@pytest.mark.parametrize("path", ARTIFACTS, ids=lambda p: p.name)
def test_results_artifact_is_a_report_csv(path, tmp_path):
    # Every committed artifact comes from the one report writer: its header
    # is the contract, and re-rendering its parsed rows gives its bytes.
    data = path.read_bytes()
    assert data.decode().split("\n", 1)[0] == CSV_HEADER
    rows = _csv_rows(data.decode())
    assert rows
    emit_rows(rows, tmp_path / path.name)
    assert (tmp_path / path.name).read_bytes() == data


def _acf_script():
    spec = importlib.util.spec_from_file_location(
        "acf_capacity_extension", RESULTS.parent / "scripts" / "acf_capacity_extension.py")
    script = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(script)
    return script


def test_acf_note_renders_from_the_committed_results():
    # Every number in the 5e6 note comes from the script's arguments and
    # the rows it wrote beside the note.
    script = _acf_script()
    grid = _csv_rows((RESULTS / "acf_grid_f2_5e6.csv").read_text())
    curve = _csv_rows((RESULTS / "acf_extension_curve.csv").read_text())
    best = max(grid, key=lambda row: row.accuracy)
    note = script.render_note(script.parse_args([]), grid, best, curve[-1], curve)
    assert note == (RESULTS / "acf_5e6_reproduction_note.md").read_text()


def test_acf_note_follows_its_rows():
    # The reliable size and the cited preset move with the rows they come from.
    script = _acf_script()
    grid = _csv_rows((RESULTS / "acf_grid_f2_5e6.csv").read_text())
    curve = _csv_rows((RESULTS / "acf_extension_curve.csv").read_text())
    best = max(grid, key=lambda row: row.accuracy)
    curve[2] = dataclasses.replace(curve[2], accuracy=1.0)  # 2999824 now decodes fully
    note = script.render_note(script.parse_args([]), grid, best, curve[-1], curve)
    assert "extends to about\n3.0e6," in note
    headline = dataclasses.replace(curve[0], trials=200)  # at 1e6, an exact preset row
    note = script.render_note(script.parse_args([]), grid, best, headline, curve)
    assert "M^2 = 1000000 (M = 1000)" in note
    assert "flip rate 0.1 with\nactivation threshold 0.075." in note


# --- the README's measured results, against the CSVs they come from ---

README = RESULTS.parent / "README.md"


def _measured_results() -> str:
    """The README's "Measured results" section, its lines joined by spaces."""
    text = README.read_text().split("\n## Measured results", 1)[1].split("\n## ", 1)[0]
    return " ".join(text.split())


def _results(name: str) -> list:
    return _csv_rows((RESULTS / name).read_text())


def _printed(value: float, figure: str) -> str:
    """``value`` to the decimals of the printed ``figure``."""
    decimals = len(figure.split(".")[1]) if "." in figure else 0
    return f"{value:.{decimals}f}"


def _size(size: int, figure: str) -> bool:
    """Whether ``size`` is the printed ``figure``, a size such as 1e5 or 4.6e5, at its digits."""
    mantissa = figure.split("e")[0]
    digits = len(mantissa.replace(".", ""))
    return float(f"{size:.{digits - 1}e}") == float(figure)


def _find(pattern: str, text: str) -> tuple:
    match = re.search(pattern, text)
    assert match, f"the README's measured results no longer say {pattern!r}"
    return match.groups()


def test_readme_f3_table_is_the_noise_benefit_csv():
    text = _measured_results()
    trials, budget = _find(r"F=3, D=1500, size 1e7, tuned hyperparameters, (\d+) trials, "
                           r"budget (\d+)", text)
    table = re.findall(r"\| (\w+) \| ([\d.]+) \| ([\d.]+)-([\d.]+) \| (\d+) \|", text)
    rows = {row.variant: row for row in _results("noise_benefit_f3_1e7.csv")}
    assert [kind for kind, *_ in table] == list(rows) == ["brn", "acf", "imf"]
    for kind, *figures in table:
        row = rows[kind]
        assert (row.F, row.D, row.trials, row.max_iters) == (3, 1500, int(trials), int(budget))
        values = (row.accuracy, row.ci_low, row.ci_high, row.mean_iterations)
        assert [_printed(v, f) for v, f in zip(values, figures)] == figures, kind


def test_readme_baseline_ceiling_is_the_brn_ceiling_csv():
    text = _measured_results()
    trials, budget, easy_acc, easy_size, low, high, through, fall_acc, fall_size, last_acc, \
        last_size = _find(
            r"F=2, D=1000, baseline, (\d+) trials a size, budget (\d+) "
            r"\(`scripts/brn_capacity_ceiling.py`, `results/brn_ceiling_f2.csv`\): "
            r"accuracy ([\d.]+) at size ([\d.e]+), ([\d.]+)-([\d.]+) through ([\d.e]+), "
            r"then a collapse \(([\d.]+) at ([\d.e]+), ([\d.]+) at ([\d.e]+)\)", text)
    rows = _results("brn_ceiling_f2.csv")
    assert {(r.F, r.D, r.trials, r.max_iters) for r in rows} == {(2, 1000, int(trials),
                                                                   int(budget))}
    assert _size(rows[0].search_space, easy_size)
    assert _printed(rows[0].accuracy, easy_acc) == easy_acc
    # Every size after the first, up to the one the text names, holds in the printed band.
    held = rows[1:[_size(r.search_space, through) for r in rows].index(True) + 1]
    assert held and [_printed(min(r.accuracy for r in held), low),
                     _printed(max(r.accuracy for r in held), high)] == [low, high]
    for acc, size in ((fall_acc, fall_size), (last_acc, last_size)):
        row, = (r for r in rows if _size(r.search_space, size))
        assert _printed(row.accuracy, acc) == acc, size
    # The 200-trial figure beside it is the acceptance test's own, not a CSV row.
    assert "test_04_baseline_capacity_ceiling` reads 0.205 (CI 0.155-0.266)" in text


def test_readme_acf_extension_is_the_grid_and_curve_csvs():
    text = _measured_results()
    acc, trials, budget, flip_rate, threshold = _find(
        r"tops out at ([\d.]+) over (\d+) trials \(budget (\d+)\) at flip rate ([\d.]+), "
        r"threshold ([\d.]+)", text)
    grid = _results("acf_grid_f2_5e6.csv")
    best = max(grid, key=lambda row: row.accuracy)
    assert len(grid) == 9 and (best.flip_rate, best.activation_threshold) == (
        float(flip_rate), float(threshold))
    curve = _results("acf_extension_curve.csv")
    headline = curve[-1]
    assert headline.search_space == 2236**2 and _size(headline.search_space, "5e6")
    assert (headline.trials, headline.max_iters, headline.flip_rate,
            headline.activation_threshold) == (int(trials), int(budget), float(flip_rate),
                                               float(threshold))
    assert _printed(headline.accuracy, acc) == acc
    times, size = _find(r"the 0.99 bar is reached up to about a (\d+)x extension "
                        r"\(size ([\d.e]+)\)", text)
    reliable = max(r.search_space for r in curve if r.accuracy >= 0.99)
    assert _size(reliable, size)
    # "about a 21x extension" truncates the ratio to the baseline ceiling,
    # the largest size at which brn still holds its 0.97-0.98.
    ceiling = max(r.search_space for r in _results("brn_ceiling_f2.csv") if r.accuracy >= 0.97)
    assert int(reliable / ceiling) == int(times)

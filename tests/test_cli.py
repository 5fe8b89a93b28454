import hashlib
import json
import re
import shlex
from pathlib import Path

import pytest

from resfact.cli import build_parser, main

README = Path(__file__).resolve().parents[1] / "README.md"

TABLE_HEADER = (
    "F,search_space,D,acf_flip_rate,acf_activation_threshold,"
    "imf_sigma,imf_activation_threshold"
)


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# --- factorize ---


def test_factorize_easy_instance(capsys):
    code, out, _ = run_cli(
        capsys, "factorize", "-F", "2", "-M", "10", "-D", "1000", "--variant", "brn"
    )
    assert code == 0
    lines = out.splitlines()
    decoded = lines[0].removeprefix("decoded: ")
    truth = lines[1].removeprefix("truth:   ")
    assert decoded == truth
    assert "correct: yes" in out


def test_factorize_exit_tracks_correctness(capsys):
    # overloaded: far more codevectors than dimensions can separate
    code, out, _ = run_cli(
        capsys, "factorize", "-F", "2", "-M", "60", "-D", "32",
        "--variant", "brn", "--max-iters", "5", "--seed", "1",
    )
    assert (code == 0) == ("correct: yes" in out)
    assert code in (0, 1)


def test_factorize_imf_at_zero_sigma_matches_brn(capsys):
    args = ["factorize", "-F", "2", "-M", "15", "-D", "500", "--seed", "4"]
    _, out_brn, _ = run_cli(capsys, *args, "--variant", "brn")
    _, out_imf, _ = run_cli(capsys, *args, "--variant", "imf", "--sigma", "0")
    assert out_imf == out_brn


def test_factorize_invalid_rate_is_usage_error(capsys):
    code, _, err = run_cli(
        capsys, "factorize", "-F", "2", "-M", "8", "-D", "64",
        "--variant", "acf", "--flip-rate", "1.5",
    )
    assert code == 2
    assert "flip_rate" in err and "[0, 1]" in err


@pytest.mark.parametrize("knob", [("--variant", "imf", "--sigma", "nan"),
                                  ("--variant", "acf", "--flip-rate", "0.01",
                                   "--activation-threshold", "inf")],
                         ids=["sigma-nan", "activation-threshold-inf"])
def test_factorize_non_finite_knob_is_usage_error(capsys, knob):
    code, _, err = run_cli(capsys, "factorize", "-F", "2", "-M", "10", "-D", "256",
                           "--max-iters", "5", *knob)
    assert code == 2
    assert "must be finite" in err


def test_factorize_help_lists_no_schedule_or_stopping_options(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["factorize", "--help"])
    assert exc.value.code == 0
    out = capsys.readouterr().out
    assert "--convergence-threshold" in out
    assert "--convergence-mode" not in out
    assert "--update-schedule" not in out
    # every subcommand that decodes shares the problem and run flags' help text
    shared = ("-F F, --factors F", "-D D, --dim D", "--max-iters MAX_ITERS",
              "iteration budget (default min(M^F, 10000))", "--convergence-threshold",
              "attention level that ends a run (default 0.8)")
    for sub in ("sweep", "capacity", "oracle-check"):
        with pytest.raises(SystemExit):
            main([sub, "--help"])
        sub_out = " ".join(capsys.readouterr().out.split())
        for text in shared:
            assert text in " ".join(out.split()) and text in sub_out, (sub, text)
    assert "--codebook-size" in sub_out  # oracle-check takes M; the sweeps derive it
    # flags are the only input, and there is no verbosity switch
    for sub in ("factorize", "sweep", "capacity", "oracle-check", "presets"):
        with pytest.raises(SystemExit):
            main([sub, "--help"])
        sub_out = capsys.readouterr().out
        assert "--config" not in sub_out and "--verbose" not in sub_out, sub


def run_usage_error(capsys, *argv) -> str:
    """Run a command argparse refuses; return its stderr."""
    with pytest.raises(SystemExit) as exc:
        main(list(argv))
    assert exc.value.code == 2
    return capsys.readouterr().err


def test_factorize_missing_required_is_usage_error(capsys):
    err = run_usage_error(capsys, "factorize", "-F", "2", "-M", "8", "--variant", "brn")
    assert "the following arguments are required: -D/--dim" in err


# --- sweep / capacity ---


def test_sweep_writes_csv_to_stdout(capsys):
    code, out, err = run_cli(
        capsys, "sweep", "-F", "2", "--variant", "brn", "-D", "128",
        "--sizes", "16,64", "--trials", "6",
    )
    assert code == 0
    lines = out.splitlines()
    assert lines[0].startswith("variant,F,M,D,search_space")
    assert len(lines) == 3
    assert lines[1].startswith("brn,2,4,128,16,6,")
    assert lines[2].startswith("brn,2,8,128,64,6,")
    assert err.count("accuracy=") == 2  # one progress line per size


def test_sweep_json_output(capsys):
    code, out, _ = run_cli(
        capsys, "sweep", "-F", "2", "--variant", "brn", "-D", "128",
        "--sizes", "16", "--trials", "4", "--format", "json",
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["config"]["trials_per_size"] == 4
    assert len(doc["rows"]) == 1
    assert doc["operational_capacity"] == 16


def test_sweep_repeat_invocations_are_identical(capsys):
    argv = (
        "sweep", "-F", "2", "--variant", "imf", "--sigma", "0.01", "-D", "128",
        "--sizes", "16", "--trials", "5", "--master-seed", "9",
    )
    _, first, _ = run_cli(capsys, *argv)
    _, second, _ = run_cli(capsys, *argv)
    assert first == second


def test_sweep_missing_variant_is_usage_error(capsys):
    err = run_usage_error(capsys, "sweep", "-F", "2", "-D", "64", "--sizes", "16")
    assert "the following arguments are required: --variant" in err


def test_sweep_needs_dim_or_preset(capsys):
    code, out, err = run_cli(capsys, "sweep", "-F", "2", "--variant", "brn", "--sizes", "16")
    assert code == 2
    assert out == ""
    assert "D is required" in err


@pytest.mark.parametrize("sizes", ["16,abc", "16,1e400"])
def test_sweep_bad_sizes_name_the_flag(capsys, sizes):
    code, out, err = run_cli(
        capsys, "sweep", "-F", "2", "--variant", "brn", "-D", "64", "--sizes", sizes,
    )
    assert code == 2
    assert out == ""
    assert err == f"error: --sizes must be comma-separated numbers, got {sizes!r}\n"


def test_sweep_refuses_a_config_file(capsys):
    err = run_usage_error(
        capsys, "sweep", "-F", "2", "--variant", "brn", "-D", "64", "--sizes", "16",
        "--config", "x.json",
    )
    assert "unrecognized arguments: --config" in err


def test_sweep_refuses_a_knob_the_variant_does_not_take(capsys):
    code, out, err = run_cli(
        capsys, "sweep", "-F", "2", "--variant", "brn", "--sigma", "0.1", "-D", "128",
        "--sizes", "16", "--trials", "3",
    )
    assert code == 2
    assert out == ""
    assert "sigma only applies to imf" in err


# SHA-256 of the CSV report of one small sweep per variant.  A change to
# the decoder, the harness or the report writer that keeps these keeps
# every report byte; one that means to change them re-baselines them
# here, on purpose, and says so in CHANGES.md.
REPORT_CASES = [
    (("--variant", "brn"),
     "91f6dd4e4704cd8c544c7be0577112391654d40f51e43d0fab4bf5a7aa4e1c25"),
    (("--variant", "imf", "--sigma", "0.01"),
     "78f1e51475fdfd0dc05877a43e0af8f378e82dedb2856cd6652ec0b36ec8c1d6"),
    (("--variant", "acf", "--flip-rate", "0.05", "--activation-threshold", "0.05"),
     "9b1f489c3c2425dc2ef4078f5f5fd03457b1e8296a8725ef4b3675708a34cbb0"),
]


@pytest.mark.parametrize("variant_args,digest", REPORT_CASES,
                         ids=[c[0][1] for c in REPORT_CASES])
def test_sweep_report_bytes_are_pinned(tmp_path, capsys, variant_args, digest):
    dest = tmp_path / "report.csv"
    code, _, _ = run_cli(
        capsys, "sweep", "-F", "2", "-D", "200", "--sizes", "2500,10000", "--trials", "5",
        "--max-iters", "100", "--format", "csv", "-o", str(dest), *variant_args,
    )
    assert code == 0
    assert hashlib.sha256(dest.read_bytes()).hexdigest() == digest


def test_sweep_output_file(tmp_path, capsys):
    dest = tmp_path / "out.csv"
    code, out, _ = run_cli(
        capsys, "sweep", "-F", "2", "--variant", "brn", "-D", "128",
        "--sizes", "16", "--trials", "4", "-o", str(dest),
    )
    assert code == 0
    assert out == ""
    assert dest.read_text().startswith("variant,F,M,D,")


def test_capacity_reports_threshold_crossing(capsys):
    code, out, _ = run_cli(
        capsys, "capacity", "-F", "2", "--variant", "brn", "-D", "256",
        "--sizes", "16", "--trials", "5",
    )
    assert code == 0
    assert out.strip() == "operational capacity: 16"


def test_capacity_not_reached(capsys):
    code, out, _ = run_cli(
        capsys, "capacity", "-F", "2", "--variant", "brn", "-D", "128",
        "--sizes", "16", "--trials", "4",
        "--convergence-threshold", "1", "--max-iters", "2",
    )
    assert code == 0
    assert out.strip() == "operational capacity: not reached"


def test_capacity_preset_flag(capsys):
    code, out, _ = run_cli(
        capsys, "capacity", "-F", "2", "--variant", "brn",
        "--sizes", "16", "--trials", "4", "--preset", "paper",
        "--convergence-threshold", "0.55", "--format", "json", "-o", "-",
    )
    assert code == 0
    row = json.loads(out[: out.rindex("operational capacity")])["rows"][0]
    assert row["preset_exact"] == "false"  # 16 is not a tuned size
    assert row["D"] == 1000  # dimension comes from the table, not a flag


# --- oracle-check ---


def test_oracle_check_agrees(capsys):
    code, out, _ = run_cli(
        capsys, "oracle-check", "-F", "2", "-M", "8", "-D", "256",
        "--variant", "brn", "--trials", "5",
    )
    assert code == 0
    assert "agreement rate: 1.0000" in out


def test_oracle_check_cap_exceeded(capsys):
    code, _, err = run_cli(
        capsys, "oracle-check", "-F", "3", "-M", "101", "-D", "64",
        "--variant", "brn", "--trials", "2",
    )
    assert code == 2
    assert "exceeds oracle cap" in err


def test_oracle_check_missing_variant(capsys):
    err = run_usage_error(capsys, "oracle-check", "-F", "2", "-M", "8", "-D", "64")
    assert "the following arguments are required: --variant" in err


# --- presets ---


def test_presets_prints_full_table(capsys):
    code, out, _ = run_cli(capsys, "presets")
    lines = out.splitlines()
    assert code == 0
    assert lines[0] == TABLE_HEADER
    assert len(lines) == 49


def test_presets_factor_filter(capsys):
    code, out, _ = run_cli(capsys, "presets", "-F", "3")
    lines = out.splitlines()
    assert code == 0
    assert len(lines) == 17
    assert all(line.startswith("3,") for line in lines[1:])


def test_presets_size_lookup(capsys):
    code, out, _ = run_cli(
        capsys, "presets", "--size", "1000000", "-F", "2", "--variant", "acf"
    )
    assert code == 0
    assert "matched size: 1000000" in out
    assert "exact: yes" in out
    assert "flip_rate: 0.1" in out
    assert "activation_threshold: 0.075" in out


def test_presets_size_lookup_needs_context(capsys):
    code, _, err = run_cli(capsys, "presets", "--size", "1000000")
    assert code == 2
    assert "--factors" in err


# --- parser-level behaviour ---


def test_unknown_flag_exits_2():
    with pytest.raises(SystemExit) as exc:
        main(["sweep", "--frobnicate"])
    assert exc.value.code == 2


def test_missing_subcommand_exits_2():
    with pytest.raises(SystemExit) as exc:
        main([])
    assert exc.value.code == 2


def test_readme_commands_parse():
    # Every `resfact ...` line of the README's sh blocks, continuations joined.
    blocks = re.findall(r"^```sh\n(.*?)^```", README.read_text(), flags=re.M | re.S)
    lines = "\n".join(blocks).replace("\\\n", " ").splitlines()
    commands = [line for line in lines if line.startswith("resfact ")]
    assert len(commands) >= 4
    for command in commands:
        build_parser().parse_args(shlex.split(command)[1:])

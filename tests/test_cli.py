"""Command-line driver: exit codes, output files, reproducibility."""

import json
import subprocess
import sys
from pathlib import Path

import pytest

import qcausal
from qcausal import cli
from qcausal.errors import InvariantViolation

SPECS = Path(qcausal.__file__).parent / "specs"


def run_cli(*argv):
    return cli.main(list(argv))


def test_help_exits_zero(capsys):
    assert run_cli("--help") == 0
    assert "subcommand" in capsys.readouterr().out


def test_no_subcommand_is_usage_error(capsys):
    assert run_cli() == 1
    assert "error" in capsys.readouterr().err


def test_unknown_subcommand_is_usage_error():
    assert run_cli("frobnicate") == 1


def test_bell_pair_outputs(tmp_path, capsys):
    code = run_cli(
        "bell", "--angle-a", "0", "--angle-b", "30",
        "--trials", "400", "--seed", "1", "--out", str(tmp_path),
    )
    assert code == 0
    payload = json.loads((tmp_path / "bell.json").read_text())
    assert payload["experiment"] == "bell"
    assert payload["params"]["trials"] == 400
    lines = (tmp_path / "bell.csv").read_text().strip().splitlines()
    assert lines[0] == "outcome,count,frequency"
    assert len(lines) == 5
    counts = [int(row.split(",")[1]) for row in lines[1:]]
    assert sum(counts) == 400
    out = capsys.readouterr().out
    assert "P(same)" in out
    assert "wrote" in out


def test_bell_without_angles_fails(tmp_path, capsys):
    assert run_cli("bell", "--trials", "10", "--out", str(tmp_path)) == 1
    assert "angle" in capsys.readouterr().err


def test_bell_malformed_angles_is_usage_error(tmp_path):
    assert run_cli("bell", "--angles", "0,30", "--out", str(tmp_path)) == 1


def test_bell_scan_outputs(tmp_path, capsys):
    code = run_cli("bell", "--angles", "0,30,60", "--trials", "200", "--out", str(tmp_path))
    assert code == 0
    payload = json.loads((tmp_path / "bell-scan.json").read_text())
    assert payload["experiment"] == "bell-scan"
    assert set(payload["pairs"]) == {"ab", "ac", "bc"}
    assert "margin" in payload and "classical_min_margin" in payload
    lines = (tmp_path / "bell-scan.csv").read_text().strip().splitlines()
    assert len(lines) == 4
    assert "margin" in capsys.readouterr().out


def test_doubleslit_outputs(tmp_path, capsys):
    code = run_cli(
        "doubleslit", "--marker", "off", "--trials", "300",
        "--geometry", "small", "--out", str(tmp_path),
    )
    assert code == 0
    payload = json.loads((tmp_path / "doubleslit.json").read_text())
    assert payload["params"]["marker"] == "off"
    lines = (tmp_path / "doubleslit.csv").read_text().strip().splitlines()
    assert len(lines) == 1 + 16
    assert "visibility" in capsys.readouterr().out


def test_doubleslit_requires_marker():
    assert run_cli("doubleslit") == 1


def test_output_dir_from_environment(tmp_path, monkeypatch):
    monkeypatch.setenv(cli.OUTPUT_DIR_ENV, str(tmp_path))
    assert run_cli("lhv", "--angles", "0,30,60") == 0
    assert (tmp_path / "lhv.json").exists()
    assert (tmp_path / "lhv.csv").exists()


def test_output_dir_defaults_to_cwd(tmp_path, monkeypatch):
    monkeypatch.delenv(cli.OUTPUT_DIR_ENV, raising=False)
    monkeypatch.chdir(tmp_path)
    assert run_cli("lhv", "--angles", "0,30,60") == 0
    assert (tmp_path / "lhv.json").exists()


def test_lhv_payload(tmp_path, capsys):
    assert run_cli("lhv", "--angles", "0,30,60", "--out", str(tmp_path)) == 0
    payload = json.loads((tmp_path / "lhv.json").read_text())
    assert payload["n_strategies"] == 64
    assert payload["classical_min_margin"] == 0.0
    lines = (tmp_path / "lhv.csv").read_text().strip().splitlines()
    assert len(lines) == 1 + 64
    assert "classical minimum" in capsys.readouterr().out


def test_repeated_runs_are_byte_identical(tmp_path):
    first, second = tmp_path / "first", tmp_path / "second"
    argv = ["bell", "--angle-a", "0", "--angle-b", "30", "--trials", "200", "--seed", "5"]
    assert run_cli(*argv, "--out", str(first)) == 0
    assert run_cli(*argv, "--out", str(second)) == 0
    assert (first / "bell.json").read_bytes() == (second / "bell.json").read_bytes()
    assert (first / "bell.csv").read_bytes() == (second / "bell.csv").read_bytes()


def test_wave_traveling_pulse(tmp_path, capsys):
    code = run_cli("wave", "--cells", "64", "--steps", "32", "--out", str(tmp_path))
    assert code == 0
    payload = json.loads((tmp_path / "wave.json").read_text())
    assert payload["oracle_errors"]["max_error"] < 1e-9
    assert payload["energy_max_rel_drift"] < 1e-9
    lines = (tmp_path / "wave.csv").read_text().strip().splitlines()
    assert len(lines) == 1 + 33 * 64
    assert "energy drift" in capsys.readouterr().out


def test_wave_standing_mode(tmp_path):
    code = run_cli(
        "wave", "--init", "sine", "--mode", "2", "--cells", "32",
        "--steps", "16", "--out", str(tmp_path),
    )
    assert code == 0
    payload = json.loads((tmp_path / "wave.json").read_text())
    assert payload["oracle_errors"]["max_error"] < 1e-9


def test_wave_released_gaussian_has_no_oracle(tmp_path):
    code = run_cli(
        "wave", "--velocity", "zero", "--cells", "32", "--steps", "8",
        "--boundary", "fixed", "--out", str(tmp_path),
    )
    assert code == 0
    payload = json.loads((tmp_path / "wave.json").read_text())
    assert payload["oracle_errors"] is None


def test_wave_traveling_needs_periodic_boundary(tmp_path):
    assert run_cli("wave", "--boundary", "fixed", "--out", str(tmp_path)) == 1


def test_wave_rejects_bad_stride(tmp_path):
    assert run_cli("wave", "--stride", "0", "--out", str(tmp_path)) == 1


def test_pendulum_outputs(tmp_path, capsys):
    code = run_cli(
        "pendulum", "--mode", "anti-phase", "--steps", "256",
        "--periods", "2", "--out", str(tmp_path),
    )
    assert code == 0
    payload = json.loads((tmp_path / "pendulum.json").read_text())
    assert payload["params"]["steps"] == 512
    assert payload["deviation_from_closed_form"] < 1e-3
    assert not payload["closed_form_discrepant"]
    lines = (tmp_path / "pendulum.csv").read_text().strip().splitlines()
    assert len(lines) == 1 + 513
    assert "deviation" in capsys.readouterr().out


def test_pendulum_in_phase_notes_discrepancy(tmp_path, capsys):
    code = run_cli(
        "pendulum", "--mode", "in-phase", "--steps", "64",
        "--periods", "2", "--out", str(tmp_path),
    )
    assert code == 0
    assert "disagrees" in capsys.readouterr().out


def test_analyze_bundled_model(tmp_path, capsys):
    code = run_cli("analyze", str(SPECS / "wave_ca.model"), "--out", str(tmp_path))
    assert code == 0
    payload = json.loads((tmp_path / "analyze.json").read_text())
    assert payload["class"] == "SpacePointLocal"
    assert payload["model"] == "wave-ca"
    lines = (tmp_path / "analyze.csv").read_text().strip().splitlines()
    assert len(lines) == 2
    assert "SpacePointLocal" in capsys.readouterr().out


def test_analyze_missing_file(tmp_path, capsys):
    assert run_cli("analyze", str(tmp_path / "nope.model"), "--out", str(tmp_path)) == 1
    assert "error" in capsys.readouterr().err


def test_analyze_malformed_model(tmp_path, capsys):
    bad = tmp_path / "bad.model"
    bad.write_text("model broken\nlaw x {\n  reads: cell(0)\n")
    assert run_cli("analyze", str(bad), "--out", str(tmp_path)) == 1
    assert "error" in capsys.readouterr().err


@pytest.mark.parametrize(
    "argv",
    [
        ["bell", "--angles", "nan,0,0"],
        ["bell", "--angle-a", "0", "--angle-b", "0", "--spindir", "nan"],
        ["bell", "--angle-a", "inf", "--angle-b", "0"],
        ["wave", "--sigma", "0"],
        ["wave", "--courant", "nan"],
        ["wave", "--steps", "-3"],
        ["analyze", "DIRECTORY"],
        ["pendulum", "--mode", "in-phase", "--periods", "inf"],
        ["pendulum", "--mode", "in-phase", "--amplitude", "nan"],
        ["pendulum", "--mode", "in-phase", "--periods", "1e300"],
        ["pendulum", "--mode", "in-phase", "--steps", "1" + "0" * 30],
        ["wave", "--cells", "1" + "0" * 30],
        ["bell", "--angles", "0,30,60", "--spindir", "33"],
        ["bell", "--angle-a", "0", "--angle-b", "30", "--scheduler", "randomized"],
        ["bell", "--angles", "0,30,60", "--scheduler", "randomized"],
        ["doubleslit", "--marker", "on", "--scheduler", "randomized"],
        ["bell", "--angle-a", "0", "--angle-b", "30", "--form", "anticorrelated"],
        ["pendulum", "--mode", "in-phase", "--periods", "1e-9"],
        ["wave", "--init", "sine", "--boundary", "fixed"],
        ["wave", "--init", "gaussian", "--mode", "2"],
        ["wave", "--mode", "3"],
        ["wave", "--init", "sine", "--sigma", "4"],
        ["wave", "--init", "sine", "--velocity", "zero"],
        ["wave", "--init", "sine", "--velocity", "traveling"],
        ["bell", "--angle-a", "0", "--angle-b", "30", "--angles", "0,30,60"],
        ["bell", "--angle-a", "0", "--angles", "0,30,60"],
        ["pendulum", "--mode", "anti-phase", "--amplitude", "5e307"],  # overflows a sample
        ["pendulum", "--mode", "in-phase", "--amplitude", "9e307"],
    ],
)
def test_bad_input_is_a_one_line_error(argv, tmp_path, capsys):
    out = tmp_path / "out"
    argv = [str(tmp_path) if a == "DIRECTORY" else a for a in argv]
    if argv[0] == "bell":
        argv += ["--trials", "10"]
    assert run_cli(*argv, "--out", str(out)) == 1
    err = capsys.readouterr().err
    assert len(err.strip().splitlines()) == 1
    assert "error" in err and "Traceback" not in err
    assert not out.exists() or not list(out.glob("*.json"))


@pytest.mark.parametrize(
    "exc, line",
    [
        (MemoryError("Unable to allocate 8.00 EiB for an array"), "Unable to allocate 8.00 EiB for an array"),
        (MemoryError(), "out of memory"),
    ],
)
def test_out_of_memory_is_a_one_line_error(exc, line, monkeypatch, capsys):
    def exhaust(args):
        raise exc

    monkeypatch.setitem(cli._COMMANDS, "wave", exhaust)
    assert run_cli("wave") == 1
    assert capsys.readouterr().err == f"qcausal: error: {line}\n"


def test_non_finite_output_is_refused(tmp_path):
    with pytest.raises(InvariantViolation):
        cli._write_json(tmp_path, "x", {"v": float("nan")})
    assert not (tmp_path / "x.json").exists()


def test_invariant_failures_exit_two(monkeypatch, capsys):
    def explode(args):
        raise InvariantViolation("ledger unbalanced")

    monkeypatch.setitem(cli._COMMANDS, "lhv", explode)
    assert run_cli("lhv", "--angles", "0,30,60") == 2
    assert "invariant" in capsys.readouterr().err


def test_module_entrypoint(tmp_path):
    proc = subprocess.run(
        [sys.executable, "-m", "qcausal", "lhv", "--angles", "0,45,90", "--out", str(tmp_path)],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert (tmp_path / "lhv.json").exists()

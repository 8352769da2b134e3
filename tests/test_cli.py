"""Command-line driver: exit codes, output files, reproducibility."""

import io
import json
import os
import subprocess
import sys
import tempfile
import warnings
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

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


GOLDEN = Path(__file__).resolve().parent.parent / "perfbench" / "golden"
# the benchmark's two-slit workloads: each unit runs these steps in order
TWO_SLIT_UNITS = {
    "doubleslit-centralized": [["--marker", "off"], ["--marker", "on"]],
    "doubleslit-refined": [["--marker", "on", "--geometry", "small", "--runtime", "refined"]],
}


@pytest.mark.parametrize("workload", sorted(TWO_SLIT_UNITS))
def test_a_warm_two_slit_unit_writes_the_golden_files(workload, tmp_path):
    # the first unit builds the geometry's world; the second is served it
    # warm, and must write what a cold process writes (compared as the
    # benchmark compares them: as text, so the CSV's row ends read as \n)
    steps = TWO_SLIT_UNITS[workload]
    trials = "400" if workload == "doubleslit-refined" else "1000"
    for unit in ("cold", "warm"):
        for i, step in enumerate(steps):
            out = tmp_path / unit / str(i)
            argv = ["doubleslit", *step, "--trials", trials, "--seed", "0", "--out", str(out)]
            with redirect_stdout(io.StringIO()):
                assert run_cli(*argv) == 0
    for i in range(len(steps)):
        for suffix in ("json", "csv"):
            golden = (GOLDEN / workload / f"{i}-doubleslit.{suffix}").read_text()
            assert (tmp_path / "warm" / str(i) / f"doubleslit.{suffix}").read_text() == golden


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
    "argv, flags",
    [
        (["pendulum", "--mode", "anti-phase", "--omega", "1e308"], ["--omega", "--k"]),
        (["pendulum", "--mode", "in-phase", "--omega", "1e308"], ["--omega", "--k"]),
        (["pendulum", "--mode", "anti-phase", "--k", "1e308"], ["--omega", "--k"]),
        (["pendulum", "--mode", "in-phase", "--omega", "1e-320", "--k", "0"], ["--omega", "--k"]),
        (["pendulum", "--mode", "in-phase", "--omega", "0"], ["--omega"]),
        (["pendulum", "--mode", "in-phase", "--k", "-1"], ["--k"]),
        (["pendulum", "--mode", "in-phase", "--m", "0"], ["--m"]),
        (["pendulum", "--mode", "in-phase", "--amplitude", "0"], ["--amplitude"]),
        (["pendulum", "--mode", "anti-phase", "--amplitude", "5e307"], ["--amplitude"]),
        (["pendulum", "--mode", "in-phase", "--steps", "7"], ["--steps"]),
        (["pendulum", "--mode", "in-phase", "--periods", "-1"], ["--periods"]),
        (["pendulum", "--mode", "in-phase", "--periods", "1e-9"], ["--periods", "--steps"]),
        (["pendulum", "--mode", "in-phase", "--periods", "1e300"], ["--periods", "--steps"]),
        (["wave", "--courant", "0"], ["--courant"]),
        (["wave", "--courant", "1.5"], ["--courant"]),
        (["wave", "--init", "sine", "--cells", "3", "--courant", "1e308"], ["--courant"]),
        (["wave", "--cells", "2"], ["--cells"]),
        (["wave", "--init", "sine", "--mode", "0"], ["--mode"]),
        (["wave", "--init", "sine", "--cells", "8", "--mode", "5"], ["--mode", "--cells"]),
        (["wave", "--steps", "20", "--courant", "0.5", "--sigma", "1e-320", "--boundary", "fixed"], ["--boundary"]),
        (["bell", "--angle-a", "0", "--angle-b", "30", "--trials", "0"], ["--trials"]),
        (["doubleslit", "--marker", "on", "--trials", "0"], ["--trials"]),
    ],
)
def test_an_error_names_the_flags_given(argv, flags, tmp_path, capsys):
    assert run_cli(*argv, "--out", str(tmp_path)) == 1
    err = capsys.readouterr().err
    assert len(err.splitlines()) == 1
    assert all(flag in err for flag in flags), err
    assert not list(tmp_path.glob("*.json"))


def _joined(argv):
    """argv with each negative value joined to its option by '='."""
    joined = []
    for arg in argv:
        if arg.startswith("-") and not arg.startswith("--"):
            joined[-1] += "=" + arg
        else:
            joined.append(arg)
    return joined


@pytest.mark.parametrize(
    "argv",
    [
        ["bell", "--angles", "-30,20,75", "--trials", "50"],
        ["lhv", "--angles", "-30,20,75.5"],
        ["bell", "--angle-a", "-1e2", "--angle-b", "30", "--trials", "50"],
        ["bell", "--angle-a", "0", "--angle-b", "30", "--spindir", "-1e1", "--trials", "50"],
    ],
)
def test_a_negative_value_reads_as_in_the_equals_form(argv, tmp_path, capsys):
    runs = []
    for form, out in ((argv, tmp_path / "spaced"), (_joined(argv), tmp_path / "joined")):
        assert run_cli(*form, "--out", str(out)) == 0
        captured = capsys.readouterr()
        assert captured.err == ""
        files = {path.name: path.read_bytes() for path in sorted(out.iterdir())}
        runs.append((captured.out.replace(str(out), "OUT"), files))
    assert runs[0] == runs[1]
    assert runs[0][1]



def test_a_negative_infinity_is_refused_as_a_value(tmp_path, capsys):
    assert run_cli("bell", "--angle-a", "-inf", "--angle-b", "0", "--out", str(tmp_path)) == 1
    assert "--angle-a: not a finite number: '-inf'" in capsys.readouterr().err


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


@pytest.mark.parametrize("sigma", ["1e-300", "1e-320"])
def test_a_narrow_pulse_writes_nothing_to_stderr(sigma, tmp_path):
    # far from the pulse the profile's exponent overflows to -inf, and
    # exp(-inf) = 0.0 is exact: no numpy warning reaches the user
    proc = subprocess.run(
        [sys.executable, "-m", "qcausal", "wave", "--cells", "8", "--steps", "4", "--sigma", sigma,
         "--out", str(tmp_path)],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert proc.stderr == ""
    assert (tmp_path / "wave.json").exists()


# --- each subcommand loads only what it runs ----------------------------------------

LEAN_COMMANDS = [
    ["bell", "--angle-a", "0", "--angle-b", "30", "--trials", "50"],
    ["bell", "--angles", "0,30,60", "--trials", "20"],
    ["bell", "--angle-a", "0", "--angle-b", "30", "--trials", "20", "--runtime", "refined"],
    ["lhv", "--angles", "0,30,60"],
    ["analyze", str(SPECS / "centralized_qt.model")],
    ["--help"],
]
NUMPY_COMMANDS = [
    ["doubleslit", "--marker", "on", "--trials", "50", "--geometry", "small"],
    ["wave", "--cells", "32", "--steps", "8"],
    ["pendulum", "--mode", "anti-phase", "--steps", "64", "--periods", "2"],
]
# runs each argv through cli.main in order and prints, per command, its exit
# code and whether the module named by the second argument has been loaded
PROBE = """
import contextlib, io, json, sys
from qcausal import cli
report = []
for argv in json.loads(sys.argv[1]):
    with contextlib.redirect_stdout(io.StringIO()):
        code = cli.main(argv)
    report.append([code, sys.argv[2] in sys.modules])
print(json.dumps(report))
"""


def _probe(tmp_path, commands, module):
    """PROBE's report for commands, run in order in one fresh process."""
    src = str(Path(qcausal.__file__).resolve().parent.parent)
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    env[cli.OUTPUT_DIR_ENV] = str(tmp_path)
    proc = subprocess.run(
        [sys.executable, "-c", PROBE, json.dumps(commands), module],
        capture_output=True, text=True, env=env, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout)


def test_only_the_array_subcommands_load_numpy(tmp_path):
    report = _probe(tmp_path, LEAN_COMMANDS + NUMPY_COMMANDS, "numpy")
    assert report[: len(LEAN_COMMANDS)] == [[0, False]] * len(LEAN_COMMANDS)
    assert report[len(LEAN_COMMANDS) :] == [[0, True]] * len(NUMPY_COMMANDS)
    for stem in ("bell", "bell-scan", "lhv", "analyze", "doubleslit", "wave", "pendulum"):
        assert (tmp_path / f"{stem}.json").exists(), stem


def test_only_analyze_loads_the_locality_module(tmp_path):
    analyze = [argv for argv in LEAN_COMMANDS if argv[0] == "analyze"]
    others = [argv for argv in LEAN_COMMANDS + NUMPY_COMMANDS if argv[0] != "analyze"]
    report = _probe(tmp_path, others + analyze, "qcausal.locality")
    assert report == [[0, False]] * len(others) + [[0, True]]


def test_parser_choices_are_the_modules_own():
    # the parser reads these from numpy-free modules; they are the very
    # tuples the numpy modules check their arguments against
    from qcausal import interaction, wave
    from qcausal.experiments import pendulum

    subparsers = cli.build_parser()._subparsers._group_actions[0].choices
    choices = {
        (name, action.dest): action.choices
        for name, sub in subparsers.items()
        for action in sub._actions
        if action.choices is not None
    }
    assert choices[("wave", "boundary")] is wave.BOUNDARIES
    assert choices[("pendulum", "mode")] is pendulum.MODES
    for name in ("bell", "doubleslit"):
        assert choices[(name, "runtime")] is interaction.RUNTIMES
        assert choices[(name, "scheduler")] is interaction.SCHEDULERS


def test_a_reused_parser_carries_nothing_from_one_call_into_the_next(tmp_path, capsys):
    # main builds the parser once per process; a value parsed in one call
    # must not show in the next, nor a help or usage text change
    parser = cli.build_parser()
    argv = ["bell", "--angle-a", "0", "--angle-b", "30", "--trials", "50", "--seed", "4"]
    assert run_cli(*argv, "--spindir", "10", "--out", str(tmp_path / "fixed")) == 0
    assert run_cli(*argv, "--out", str(tmp_path / "reused")) == 0
    cli.build_parser.cache_clear()
    assert run_cli(*argv, "--out", str(tmp_path / "fresh")) == 0
    reused, fresh, fixed = ((tmp_path / name / "bell.json").read_bytes() for name in ("reused", "fresh", "fixed"))
    assert reused == fresh != fixed
    assert cli.build_parser() is cli.build_parser() is not parser
    capsys.readouterr()
    for argv in (["--help"], ["bell", "--help"], ["doubleslit", "--marker", "sideways"]):
        texts = []
        for _ in range(2):
            code = run_cli(*argv)
            texts.append((code, capsys.readouterr()))
        assert texts[0] == texts[1]
        assert texts[0][0] == (1 if argv[0] == "doubleslit" else 0)


# --- any argv: strict JSON and exit 0, or one line and exit 1 ------------------------

# what a user may type for a number: finite, non-finite, negative, empty,
# huge and subnormal; an odd float is one of these two times in three
_SPECIAL = st.sampled_from(["nan", "inf", "-inf", "", "1e308", "-1e308", "1e-320", "-1e-320", "0", "-0", "-1"])
_ODD = st.one_of(_SPECIAL, _SPECIAL, st.floats().map(repr))


def _floats(low, high):
    """A float flag: a value in [low, high], or any odd one."""
    return st.floats(low, high).map(repr), _ODD


def _ints(low, high):
    """An int flag: a value in [low, high], or an odd one at most high, since
    a size flag runs as long as it asks."""
    return st.integers(low, high).map(str), _SPECIAL | st.integers(-3, high).map(str)


def _one_of(*choices):
    return st.sampled_from(choices), st.sampled_from(choices)


def _angles():
    plain = st.lists(st.floats(-720, 720).map(repr), min_size=3, max_size=3)
    return plain.map(",".join), st.lists(_ODD, min_size=1, max_size=4).map(",".join)


_SCHEDULERS = st.just("round-robin"), st.just("randomized")  # randomized needs --runtime refined
_RUNTIMES = _one_of("centralized", "refined")
_FORMS = _one_of("identical", "anticorrelated")
_WAVE = {"--courant": _floats(0.01, 1.0), "--stride": _ints(1, 70)}
_BELL = {"--trials": _ints(1, 20), "--seed": _ints(0, 2**40), "--runtime": _RUNTIMES, "--scheduler": _SCHEDULERS}
# per subcommand (bell as one pair and as the scan): the flags always
# given, and those given or left out
_COMMAND_FLAGS = {
    "bell": (
        {"--angle-a": _floats(-720, 720), "--angle-b": _floats(-720, 720), "--trials": _ints(1, 20)},
        {**_BELL, "--spindir": _floats(-720, 720)},
    ),
    "bell-scan": ({"--angles": _angles(), "--trials": _ints(1, 20)}, {**_BELL, "--form": _FORMS}),
    "lhv": ({"--angles": _angles()}, {"--form": _FORMS}),
    "pendulum": (
        {"--mode": _one_of("in-phase", "anti-phase"), "--steps": _ints(8, 64),
         "--periods": (st.floats(0.5, 2.0).map(repr), _SPECIAL | st.floats(max_value=2.0).map(repr))},
        {"--k": _floats(0, 100), "--m": _floats(0.01, 100), "--omega": _floats(0.01, 100),
         "--amplitude": _floats(-100, 100)},
    ),
    "wave": (
        {"--cells": _ints(3, 32), "--steps": _ints(0, 64)},
        {**_WAVE, "--sigma": _floats(0.1, 10), "--velocity": _one_of("traveling", "zero"),
         "--boundary": (st.just("periodic"), st.sampled_from(["fixed", "open"]))},
    ),
    "wave-sine": ({"--init": _one_of("sine"), "--cells": _ints(3, 32), "--steps": _ints(0, 64)},
                  {**_WAVE, "--mode": (st.just("1"), _SPECIAL | st.integers(-3, 40).map(str))}),
    "doubleslit": (
        {"--geometry": _one_of("small"), "--trials": _ints(1, 20), "--marker": _one_of("on", "off")},
        {"--seed": _ints(0, 2**40), "--runtime": _RUNTIMES, "--scheduler": _SCHEDULERS},
    ),
}


@st.composite
def _argvs(draw):
    """A subcommand and its flags, all values plain but at most one, which
    is odd, so that the odd value meets an argv that runs."""
    command = draw(st.sampled_from(sorted(_COMMAND_FLAGS)))
    required, optional = _COMMAND_FLAGS[command]
    flags = {**required, **{flag: values for flag, values in optional.items() if draw(st.booleans())}}
    odd = draw(st.sampled_from([None, *flags]))
    argv = [command.split("-")[0]]
    for flag, (plain, odd_values) in flags.items():
        argv.append(f"{flag}={draw(odd_values if flag == odd else plain)}")
    return argv


def _refuse_constant(name):
    raise ValueError(f"not strict JSON: {name}")


@settings(max_examples=600, deadline=None)
@given(_argvs())
@example(["pendulum", "--mode=anti-phase", "--omega=1e308"])
@example(["pendulum", "--mode=in-phase", "--omega=1e308"])
@example(["pendulum", "--mode=anti-phase", "--k=1e308"])
@example(["pendulum", "--mode=in-phase", "--omega=1e-320", "--k=0", "--steps=8", "--periods=1"])
@example(["wave", "--steps=20", "--courant=0.5", "--sigma=1e-320", "--boundary=fixed"])
@example(["wave", "--cells=32", "--steps=20", "--courant=0.5", "--sigma=1e-320"])
def test_any_argv_is_strict_json_or_a_one_line_error(argv):
    with tempfile.TemporaryDirectory() as out:
        stdout, stderr = io.StringIO(), io.StringIO()
        with warnings.catch_warnings(record=True) as caught, redirect_stdout(stdout), redirect_stderr(stderr):
            warnings.simplefilter("always")
            code = cli.main([*argv, "--out", out])
        err = stderr.getvalue()
        assert not caught and "Traceback" not in err and "Warning" not in err
        assert code in (0, 1), err
        if code:
            assert len(err.splitlines()) == 1, err
        else:
            written = sorted(Path(out).glob("*.json"))
            assert written and err == ""
            for path in written:
                json.loads(path.read_text(), parse_constant=_refuse_constant)

"""Wave automaton: exact oracles, scalar cross-check, energy, reversibility."""

import csv
import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qcausal.errors import ConfigError
from qcausal.wave import (
    WaveGrid,
    compare_analytic,
    gaussian_profile,
    make_grid,
    run_wave,
    sine_profile,
    standing_wave_grid,
    traveling_pulse_grid,
    wave_energy,
    wave_step,
    wave_step_scalar,
    write_snapshots_csv,
)


def test_grid_validation():
    with pytest.raises(ConfigError):
        WaveGrid(np.zeros(2), np.zeros(2), 1.0, 1.0, 1.0)
    with pytest.raises(ConfigError):
        WaveGrid(np.zeros(5), np.zeros(4), 1.0, 1.0, 1.0)
    with pytest.raises(ConfigError):
        WaveGrid(np.zeros(5), np.zeros(5), 1.0, 0.0, 1.0)
    with pytest.raises(ConfigError):
        WaveGrid(np.zeros(5), np.zeros(5), 1.0, 1.0, 1.0, boundary="wrap")
    with pytest.raises(ConfigError, match="Courant"):
        WaveGrid(np.zeros(5), np.zeros(5), 2.0, 1.0, 1.0)
    grid = WaveGrid(np.zeros(5), np.zeros(5), 0.5, 1.0, 1.0)
    assert grid.courant == 0.5
    assert grid.n_cells == 5


def test_single_step_delta_oracle():
    # At Courant 1 with zero velocity: new = right + left - center.
    psi = np.zeros(8)
    psi[4] = 1.0
    grid = make_grid(psi, v=1.0, delta_x=1.0, delta_t=1.0)
    wave_step(grid)
    expected = np.zeros(8)
    expected[3] = expected[5] = 1.0
    expected[4] = -1.0
    np.testing.assert_allclose(grid.psi_now, expected, atol=0)
    assert grid.t == 1.0 and grid.step_count == 1


def test_single_step_delta_fixed_boundary():
    psi = np.zeros(5)
    psi[0] = 1.0
    grid = make_grid(psi, v=1.0, delta_x=1.0, delta_t=1.0, boundary="fixed")
    wave_step(grid)
    expected = np.array([-1.0, 1.0, 0.0, 0.0, 0.0])  # nothing wraps around
    np.testing.assert_allclose(grid.psi_now, expected, atol=0)


def test_scalar_step_matches_vectorized():
    rng = np.random.default_rng(4)
    for boundary in ("periodic", "fixed"):
        grid = WaveGrid(rng.normal(size=32), rng.normal(size=32),
                        v=0.7, delta_x=1.0, delta_t=1.0, boundary=boundary)
        for _ in range(20):
            reference = wave_step_scalar(grid)
            wave_step(grid)
            np.testing.assert_allclose(grid.psi_now, reference, rtol=0, atol=1e-12)


def test_scalar_step_access_log():
    grid = make_grid(np.zeros(6), v=1.0, delta_x=1.0, delta_t=1.0)
    log = []
    wave_step_scalar(grid, access_log=log)
    reads = [op for op in log if op[0] == "read"]
    writes = [op for op in log if op[0] == "write"]
    assert {offset for _, offset in reads} == {-1, 0, 1}
    assert {offset for _, offset in writes} == {0}
    assert len(reads) == 3 * 6 and len(writes) == 6
    assert log.count(("read_prev", 0)) == 6


def test_traveling_pulse_is_exact_translation():
    # Courant 1 turns the update into a one-cell shift per tick.
    grid = traveling_pulse_grid(n_cells=128, sigma=8.0, v=1.0, delta_x=1.0, delta_t=1.0)
    profile0 = grid.psi_now.copy()
    traj = run_wave(grid, steps=200).trajectory
    report = compare_analytic(traj, lambda t: np.roll(profile0, int(round(t))))
    assert report["max_error"] < 1e-12
    assert report["l2_error"] < 1e-12


def test_standing_wave_exact_at_courant_one():
    grid = standing_wave_grid(n_cells=64, mode=3, v=1.0, delta_x=1.0, delta_t=1.0)
    k = 2.0 * math.pi * 3 / 64
    profile0 = sine_profile(64, 3)
    traj = run_wave(grid, steps=100).trajectory
    report = compare_analytic(traj, lambda t: profile0 * math.cos(k * t))
    assert report["max_error"] < 1e-10


def test_dispersion_relation_below_courant_one():
    # The scheme's own mode frequency: sin(w dt/2) = C sin(k dx/2).
    n, mode, v, dx, dt = 64, 3, 1.0, 1.0, 0.5
    c = v * dt / dx
    k = 2.0 * math.pi * mode / (n * dx)
    omega = 2.0 / dt * math.asin(c * math.sin(k * dx / 2.0))
    profile = sine_profile(n, mode)
    grid = make_grid(profile, v, dx, dt, psi_prev=profile * math.cos(omega * dt))
    traj = run_wave(grid, steps=400).trajectory
    report = compare_analytic(traj, lambda t: profile * math.cos(omega * t))
    assert report["max_error"] < 1e-9


def test_time_reversibility():
    grid = traveling_pulse_grid(n_cells=96, sigma=6.0, v=1.0, delta_x=1.0, delta_t=0.8)
    start = grid.psi_now.copy()
    for _ in range(50):
        wave_step(grid)
    back = WaveGrid(grid.psi_prev.copy(), grid.psi_now.copy(),
                    v=grid.v, delta_x=grid.delta_x, delta_t=grid.delta_t,
                    boundary=grid.boundary)
    for _ in range(49):
        wave_step(back)
    np.testing.assert_allclose(back.psi_now, start, atol=1e-9)


@given(st.floats(min_value=-3, max_value=3), st.floats(min_value=-3, max_value=3))
@settings(max_examples=30, deadline=None)
def test_superposition(a, b):
    # The update is linear, so evolution commutes with linear combination.
    rng = np.random.default_rng(11)
    p1, v1 = rng.normal(size=24), rng.normal(size=24)
    p2, v2 = rng.normal(size=24), rng.normal(size=24)

    def evolve(profile, velocity, steps=15):
        grid = make_grid(profile, v=1.0, delta_x=1.0, delta_t=0.5, velocity=velocity)
        for _ in range(steps):
            wave_step(grid)
        return grid.psi_now

    combined = evolve(a * p1 + b * p2, a * v1 + b * v2)
    separate = a * evolve(p1, v1) + b * evolve(p2, v2)
    np.testing.assert_allclose(combined, separate, atol=1e-9)


def test_energy_is_stable_below_courant_one():
    grid = traveling_pulse_grid(n_cells=64, sigma=8.0, v=1.0, delta_x=1.0, delta_t=0.5)
    e0 = wave_energy(grid)
    assert e0 > 0
    drift = 0.0
    for _ in range(500):
        wave_step(grid)
        drift = max(drift, abs(wave_energy(grid) - e0) / e0)
    assert drift < 0.01


def test_energy_frozen_value():
    psi = np.array([0.0, 1.0, 0.0, -1.0])
    grid = WaveGrid(psi, psi.copy(), v=1.0, delta_x=1.0, delta_t=1.0)
    # kinetic 0; forward differences (1, -1, -1, 1) give 4.
    assert wave_energy(grid) == pytest.approx(4.0)


@pytest.mark.parametrize(
    "v, delta_x, match",
    [
        (1e308, 1.0, "Courant number"),  # omega = k v overflows
        (1e-310, 1e-310, "phase omega\\*dt is not finite"),  # k = 2 pi / (n dx) overflows at Courant 1
    ],
)
def test_a_standing_wave_whose_phase_overflows_is_refused(v, delta_x, match):
    with pytest.raises(ConfigError, match=match):
        standing_wave_grid(3, 1, v, delta_x, 1.0)


@pytest.mark.parametrize("name", ["v", "delta_x", "delta_t"])
@pytest.mark.parametrize("bad", [math.nan, math.inf, 0.0, -1.0])
def test_a_grid_refuses_a_step_that_is_not_a_positive_float(name, bad):
    # NaN compared as > 0, so make_grid returned a grid with v = nan
    steps = {"v": 0.5, "delta_x": 1.0, "delta_t": 1.0, name: bad}
    with pytest.raises(ConfigError, match=rf"^wave\.{name} must be finite and > 0"):
        make_grid(np.zeros(8), **steps)


def test_a_grid_refuses_a_step_whose_square_overflows():
    # the Courant number is tiny, but the update squares dx: an OverflowError
    with pytest.raises(ConfigError, match=r"^wave\.delta_x must be at most 1e\+154") as raised:
        make_grid(np.zeros(8), v=1.0, delta_x=1e308, delta_t=1.0)
    assert raised.value.param == "delta_x"


@pytest.mark.parametrize("sigma", [0.0, -1.0, math.nan])
def test_a_pulse_refuses_a_width_that_is_not_positive(sigma):
    # both gaussian paths returned a NaN grid after two RuntimeWarnings
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ConfigError, match=r"^wave\.sigma must be > 0"):
            traveling_pulse_grid(16, sigma, 1.0, 1.0, 1.0)
        with pytest.raises(ConfigError, match=r"^wave\.sigma must be > 0"):
            gaussian_profile(16, 8.0, sigma)
        with pytest.raises(ConfigError, match=r"^wave\.center must be finite"):
            traveling_pulse_grid(16, 2.0, 0.5, 1.0, 1.0, center=math.nan)


@pytest.mark.parametrize("n_cells", [10**30, 10**400])
def test_a_grid_too_large_for_an_array_is_refused_before_allocating(n_cells):
    # np.arange raised a bare ValueError: Maximum allowed size exceeded
    # (and the default center n_cells / 2.0 an OverflowError past 1e308)
    for build in (
        lambda: traveling_pulse_grid(n_cells, 3.0, 1.0, 1.0, 1.0),
        lambda: traveling_pulse_grid(n_cells, None, 1.0, 1.0, 1.0),
        lambda: standing_wave_grid(n_cells, 1, 1.0, 1.0, 1.0),
    ):
        with pytest.raises(ConfigError, match=r"^wave\.n_cells = 10+ is more values than one array can hold$"):
            build()


def test_a_pulse_defaults_to_the_middle_and_a_sixteenth_of_the_grid():
    np.testing.assert_array_equal(gaussian_profile(40), gaussian_profile(40, 20.0, 2.5))
    np.testing.assert_array_equal(
        traveling_pulse_grid(40, None, 0.7, 1.0, 1.0).psi_prev,
        traveling_pulse_grid(40, 2.5, 0.7, 1.0, 1.0, center=20.0).psi_prev,
    )


def test_run_wave_snapshots():
    grid = make_grid(np.zeros(8), v=1.0, delta_x=1.0, delta_t=1.0)
    traj = run_wave(grid, steps=10, snapshot_stride=4).trajectory
    assert [t for t, _ in traj] == [0.0, 4.0, 8.0, 10.0]
    with pytest.raises(ConfigError):
        run_wave(grid, steps=-1)
    with pytest.raises(ConfigError):
        run_wave(grid, steps=1, snapshot_stride=0)
    for bad in (math.nan, math.inf, 2.5):  # range() raised a TypeError
        with pytest.raises(ConfigError, match=r"^wave\.steps must be an int >= 0"):
            run_wave(grid, steps=bad)
        with pytest.raises(ConfigError, match=r"^wave\.snapshot_stride must be an int >= 1"):
            run_wave(grid, steps=1, snapshot_stride=bad)


def _list_reference(grid, steps, stride):
    """The per-step energy list and snapshot loop run_wave's running values replace."""
    energies = [wave_energy(grid)]
    traj = [(grid.t, grid.psi_now.copy())]
    for step in range(1, steps + 1):
        wave_step(grid)
        energies.append(wave_energy(grid))
        if step % stride == 0 or step == steps:
            traj.append((grid.t, grid.psi_now.copy()))
    return traj, energies


@pytest.mark.parametrize(
    "build",
    [
        lambda: traveling_pulse_grid(n_cells=40, sigma=3.0, v=1.0, delta_x=1.0, delta_t=0.7),
        lambda: make_grid(gaussian_profile(30, 12.0, 2.5), 0.8, 1.0, 1.0, boundary="fixed"),
    ],
    ids=["periodic", "fixed"],
)
def test_run_wave_energy_record_matches_per_step_list(build):
    run = run_wave(build(), steps=157, snapshot_stride=20)
    traj, energies = _list_reference(build(), steps=157, stride=20)
    assert run.energy_initial == energies[0]
    assert run.energy_final == energies[-1]
    assert run.max_energy_change == max(abs(e - energies[0]) for e in energies) > 0.0
    assert [t for t, _ in run.trajectory] == [t for t, _ in traj]
    for (_, got), (_, want) in zip(run.trajectory, traj):
        np.testing.assert_array_equal(got, want)


def test_make_grid_bootstrap():
    profile = np.array([0.0, 1.0, 0.0, 0.0])
    still = make_grid(profile, v=1.0, delta_x=1.0, delta_t=0.5)
    np.testing.assert_array_equal(still.psi_prev, profile)
    moving = make_grid(profile, v=1.0, delta_x=1.0, delta_t=0.5,
                       velocity=np.array([0.0, 2.0, 0.0, 0.0]))
    np.testing.assert_allclose(moving.psi_prev, [0.0, 0.0, 0.0, 0.0])
    pinned = make_grid(profile, v=1.0, delta_x=1.0, delta_t=0.5, psi_prev=profile * 3)
    np.testing.assert_array_equal(pinned.psi_prev, profile * 3)


def test_profiles():
    g = gaussian_profile(11, center=5.0, sigma=2.0)
    assert g[5] == 1.0 and g[0] < g[3] < g[5]
    s = sine_profile(8, 2)
    assert s[0] == pytest.approx(0.0)
    with pytest.raises(ConfigError):
        sine_profile(8, 0)
    with pytest.raises(ConfigError):
        sine_profile(8, 5)  # above Nyquist


def test_compare_analytic_empty_and_exact():
    grid = make_grid(np.zeros(4), v=1.0, delta_x=1.0, delta_t=1.0)
    traj = run_wave(grid, steps=3).trajectory
    report = compare_analytic(traj, lambda t: np.zeros(4))
    assert report == {"max_error": 0.0, "l2_error": 0.0}


def test_snapshot_csv_roundtrip(tmp_path):
    grid = traveling_pulse_grid(n_cells=6, sigma=1.0, v=1.0, delta_x=1.0, delta_t=1.0)
    traj = run_wave(grid, steps=2).trajectory
    out = tmp_path / "wave.csv"
    write_snapshots_csv(traj, out)
    with open(out) as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["t", "cell", "value"]
    assert len(rows) == 1 + 3 * 6
    # repr round-trips the floats exactly
    t, cell, value = rows[1 + 6]
    assert float(t) == traj[1][0]
    assert float(value) == traj[1][1][int(cell)]

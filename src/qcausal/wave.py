"""Second-order wave equation as a cellular automaton.

Each cell updates from its two neighbours and its own previous two values:

    dpsi_dx   = (psi[i+1] - psi[i-1]) / (2 dx)      (computed, then unused)
    d2psi_dx2 = (psi[i+1] - 2 psi[i] + psi[i-1]) / dx^2
    d2psi_dt2 = v^2 * d2psi_dx2
    psi_new   = d2psi_dt2 * dt^2 + 2 psi[i] - psi_prev[i]

The first spatial derivative is part of the update recipe but feeds nothing;
it is kept (and returned by the scalar reference step) to match the source
construction exactly.  Stability requires the Courant number v dt / dx <= 1,
enforced at construction.  At Courant exactly 1 the scheme is an exact
translation operator, which the tests use as an oracle.

The first tick needs psi at t = -dt.  Initializers provide it from a
configured initial velocity field; the default zero-velocity bootstrap is
psi_prev = psi_now.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass

import numpy as np

from .choices import BOUNDARIES
from .errors import ConfigError

# the largest Courant number v*dt/dx a grid takes: the stability limit 1,
# plus a roundoff allowance
MAX_COURANT = 1.0 + 1e-12


@dataclass
class WaveGrid:
    """1-D lattice state for the wave automaton (two time levels)."""

    psi_now: np.ndarray
    psi_prev: np.ndarray
    v: float
    delta_x: float
    delta_t: float
    boundary: str = "periodic"
    t: float = 0.0
    step_count: int = 0

    def __post_init__(self):
        self.psi_now = np.asarray(self.psi_now, dtype=float)
        self.psi_prev = np.asarray(self.psi_prev, dtype=float)
        if self.psi_now.ndim != 1 or self.psi_now.size < 3:
            raise ConfigError("wave grid needs at least 3 cells")
        if self.psi_now.shape != self.psi_prev.shape:
            raise ConfigError("psi_now and psi_prev must have the same shape")
        if self.delta_x <= 0 or self.delta_t <= 0 or self.v <= 0:
            raise ConfigError("wave v, delta_x, delta_t must all be > 0")
        if self.boundary not in BOUNDARIES:
            raise ConfigError(f"wave boundary must be one of {BOUNDARIES}, got {self.boundary!r}")
        if self.courant > MAX_COURANT:
            raise ConfigError(
                f"Courant number v*dt/dx = {self.courant} exceeds 1 (unstable)"
            )

    @property
    def courant(self) -> float:
        return self.v * self.delta_t / self.delta_x

    @property
    def n_cells(self) -> int:
        return self.psi_now.size


def _shifted(psi: np.ndarray, offset: int, boundary: str) -> np.ndarray:
    """psi[i + offset] under the boundary rule (fixed reads 0 outside)."""
    if boundary == "periodic":
        return np.roll(psi, -offset)
    out = np.zeros_like(psi)
    if offset > 0:
        out[:-offset] = psi[offset:]
    elif offset < 0:
        out[-offset:] = psi[:offset]
    else:
        out[:] = psi
    return out


def wave_step(grid: WaveGrid) -> WaveGrid:
    """Advance one tick in place (vectorized); returns the grid."""
    psi, prev = grid.psi_now, grid.psi_prev
    right = _shifted(psi, +1, grid.boundary)
    left = _shifted(psi, -1, grid.boundary)
    dpsi_dx = (right - left) / (2.0 * grid.delta_x)  # unused by design
    del dpsi_dx
    d2psi_dx2 = (right - 2.0 * psi + left) / grid.delta_x**2
    d2psi_dt2 = grid.v**2 * d2psi_dx2
    new = d2psi_dt2 * grid.delta_t**2 + 2.0 * psi - prev
    grid.psi_prev = psi
    grid.psi_now = new
    grid.step_count += 1
    grid.t = grid.step_count * grid.delta_t
    return grid


def wave_step_scalar(grid: WaveGrid, access_log: list | None = None) -> np.ndarray:
    """Reference per-cell step; returns the new array without mutating.

    When access_log is given, every read/write is appended as
    ("read"|"write", relative offset), which tests compare against the
    declared locality footprint.  Also the slow cross-check oracle for the
    vectorized step.
    """
    psi, prev = grid.psi_now, grid.psi_prev
    n = psi.size
    new = np.empty_like(psi)

    def read(i: int, offset: int) -> float:
        if access_log is not None:
            access_log.append(("read", offset))
        j = i + offset
        if 0 <= j < n:
            return psi[j]
        if grid.boundary == "periodic":
            return psi[j % n]
        return 0.0

    for i in range(n):
        right = read(i, +1)
        left = read(i, -1)
        center = read(i, 0)
        dpsi_dx = (right - left) / (2.0 * grid.delta_x)  # unused by design
        del dpsi_dx
        d2psi_dx2 = (right - 2.0 * center + left) / grid.delta_x**2
        d2psi_dt2 = grid.v**2 * d2psi_dx2
        if access_log is not None:
            access_log.append(("read_prev", 0))
            access_log.append(("write", 0))
        new[i] = d2psi_dt2 * grid.delta_t**2 + 2.0 * center - prev[i]
    return new


@dataclass
class WaveRun:
    """Snapshots of one run and its energy record.

    energy_final and max_energy_change (the largest |E(t) - E(0)| over every
    tick) are running values, so a long run holds no per-step list.
    """

    trajectory: list[tuple[float, np.ndarray]]
    energy_initial: float
    energy_final: float
    max_energy_change: float


def run_wave(grid: WaveGrid, steps: int, snapshot_stride: int = 1) -> WaveRun:
    """Advance `steps` ticks, collecting (t, psi) snapshots every stride.

    The initial state is always included; the final state always closes the
    trajectory.  The energy functional is evaluated after every tick.
    """
    if steps < 0:
        raise ConfigError(f"steps must be >= 0, got {steps}")
    if snapshot_stride < 1:
        raise ConfigError(f"snapshot_stride must be >= 1, got {snapshot_stride}")
    traj = [(grid.t, grid.psi_now.copy())]
    e0 = energy = wave_energy(grid)
    max_change = 0.0
    for k in range(1, steps + 1):
        wave_step(grid)
        energy = wave_energy(grid)
        max_change = max(max_change, abs(energy - e0))
        if k % snapshot_stride == 0 or k == steps:
            traj.append((grid.t, grid.psi_now.copy()))
    return WaveRun(traj, e0, energy, max_change)


def compare_analytic(trajectory, analytic) -> dict:
    """Pointwise errors against an oracle psi(t, x).

    analytic(t) must return the expected array at time t.  Returns the max
    and L2 errors over all snapshots.
    """
    max_err = 0.0
    l2 = 0.0
    count = 0
    for t, psi in trajectory:
        expected = np.asarray(analytic(t), dtype=float)
        diff = psi - expected
        max_err = max(max_err, float(np.max(np.abs(diff))))
        l2 += float(np.sum(diff * diff))
        count += diff.size
    return {"max_error": max_err, "l2_error": math.sqrt(l2 / count) if count else 0.0}


def wave_energy(grid: WaveGrid) -> float:
    """Discrete energy functional: backward-difference kinetic + gradient terms."""
    dt, dx, v = grid.delta_t, grid.delta_x, grid.v
    kinetic = np.sum(((grid.psi_now - grid.psi_prev) / dt) ** 2)
    forward = _shifted(grid.psi_now, +1, grid.boundary)
    if grid.boundary == "fixed":
        grad = (forward - grid.psi_now) / dx
        grad[-1] = (0.0 - grid.psi_now[-1]) / dx
    else:
        grad = (forward - grid.psi_now) / dx
    potential = v**2 * np.sum(grad**2)
    return float(kinetic + potential)


# -- initializers --------------------------------------------------------------


def gaussian_profile(n_cells: int, center: float, sigma: float) -> np.ndarray:
    x = np.arange(n_cells, dtype=float)
    with np.errstate(over="ignore"):  # far from a narrow pulse: exp(-inf) = 0.0, exactly
        return np.exp(-0.5 * ((x - center) / sigma) ** 2)


def sine_profile(n_cells: int, mode: int) -> np.ndarray:
    if mode < 1 or 2 * mode > n_cells:
        raise ConfigError(f"sine mode {mode} not resolvable on {n_cells} cells")
    x = np.arange(n_cells, dtype=float)
    return np.sin(2.0 * math.pi * mode * x / n_cells)


def make_grid(
    profile: np.ndarray,
    v: float,
    delta_x: float,
    delta_t: float,
    boundary: str = "periodic",
    velocity: np.ndarray | None = None,
    psi_prev: np.ndarray | None = None,
) -> WaveGrid:
    """Build a grid with the leapfrog bootstrap.

    psi_prev, when given, is used verbatim (exact oracles use this).
    Otherwise psi_prev = profile - dt * velocity, and with no velocity the
    zero-velocity default psi_prev = psi_now applies.
    """
    profile = np.asarray(profile, dtype=float)
    if psi_prev is None:
        if velocity is None:
            psi_prev = profile.copy()
        else:
            psi_prev = profile - delta_t * np.asarray(velocity, dtype=float)
    return WaveGrid(
        psi_now=profile.copy(),
        psi_prev=np.asarray(psi_prev, dtype=float).copy(),
        v=v,
        delta_x=delta_x,
        delta_t=delta_t,
        boundary=boundary,
    )


def traveling_pulse_grid(
    n_cells: int, sigma: float, v: float, delta_x: float, delta_t: float, center: float | None = None
) -> WaveGrid:
    """Right-moving Gaussian: psi_prev is the profile at t = -dt (exact shift).

    At Courant 1 the shift is exactly one cell, so the oracle
    psi(t) = roll(profile, step_count) is exact up to float roundoff.
    """
    if center is None:
        center = n_cells / 2.0
    profile = gaussian_profile(n_cells, center, sigma)
    shift = v * delta_t / delta_x
    if abs(shift - round(shift)) < 1e-12:
        prev = np.roll(profile, -int(round(shift)))
    else:
        x = np.arange(n_cells, dtype=float)
        with np.errstate(over="ignore"):  # as in gaussian_profile
            prev = np.exp(-0.5 * ((x + shift - center) / sigma) ** 2)
    return make_grid(profile, v, delta_x, delta_t, boundary="periodic", psi_prev=prev)


def standing_wave_grid(
    n_cells: int, mode: int, v: float, delta_x: float, delta_t: float
) -> WaveGrid:
    """Standing sine sin(kx) cos(wt) with the matching psi_prev at t = -dt."""
    profile = sine_profile(n_cells, mode)
    k = 2.0 * math.pi * mode / (n_cells * delta_x)
    omega = k * v
    prev = profile * math.cos(omega * delta_t)
    return make_grid(profile, v, delta_x, delta_t, boundary="periodic", psi_prev=prev)


def write_snapshots_csv(trajectory, path):
    """Emit snapshots as rows of (t, cell-index, value)."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["t", "cell", "value"])
        for t, psi in trajectory:
            for i, value in enumerate(psi):
                writer.writerow([repr(float(t)), i, repr(float(value))])

"""Two-slit interference and its loss under which-path marking.

A particle behind the slit plane is a two-row object, one row per slit,
equal amplitudes.  Propagation to the screen fans every slit row out into
one row per screen cell, each carrying the phase 2*pi*L/lambda of the
exact geometric path length L from that slit to that cell, and then merges
rows whose particle states are identical, adding their amplitudes.  Rows
from different slits land on the same screen cell with nothing else to
tell them apart, so they merge, and the squared moduli of the merged
amplitudes are the familiar fringe pattern: selection weights at the
screen interaction reproduce |psi_1(x) + psi_2(x)|^2.

With the marker on, the particle undergoes an interaction at the slit
plane before propagating: one slit row is selected (weights 1/2 each) and
the interaction product continues from that slit alone, carrying a marker
atom column.  A single-slit fan has one row per screen cell with pure
phase amplitudes, so the screen distribution is exactly uniform, the
incoherent sum |psi_1|^2 + |psi_2|^2.  Interference is present or absent
depending only on whether an interaction fired en route.

Path lengths use exact slit and cell coordinates; no small-angle
approximation is made anywhere, so the analytic oracles here follow from
the configured geometry alone.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from ..engine import RngState
from ..errors import ConfigError
from ..interaction import (
    OutcomeRow,
    OutcomeTable,
    RoundPolicy,
    claim,
    run_trials,
)
from ..state import (
    ObjectKind,
    ParticleInfo,
    Path,
    PathState,
    QuantumObject,
    Space,
    SystemState,
    normalize_amplitudes,
)

SLIT_PLANE = 0
SCREEN_PLANE = 1


@dataclass(frozen=True)
class SlitGeometry:
    """Two slits and a 1-D screen, all lengths in cell units.

    The slit plane and the screen are rows of cells at plane coordinates 0
    and 1; the optical distance between them is screen_distance, which is
    decoupled from the lattice so that fringe spacing is configurable.
    Slits sit symmetrically around the screen center, which requires
    n_cells - 1 - slit_separation to be even.
    """

    n_cells: int = 128
    slit_separation: int = 25
    screen_distance: float = 2000.0
    wavelength: float = 0.4

    def __post_init__(self):
        if self.n_cells < 4:
            raise ConfigError(f"geometry.n_cells must be >= 4, got {self.n_cells}")
        if not 1 <= self.slit_separation < self.n_cells:
            raise ConfigError(
                f"geometry.slit_separation must be in [1, {self.n_cells}), got {self.slit_separation}"
            )
        if (self.n_cells - 1 - self.slit_separation) % 2 != 0:
            raise ConfigError(
                "geometry: slits must land on integer cells "
                f"(n_cells - 1 - slit_separation = {self.n_cells - 1 - self.slit_separation} is odd)"
            )
        if not self.screen_distance > 0:
            raise ConfigError(f"geometry.screen_distance must be > 0, got {self.screen_distance}")
        if not self.wavelength > 0:
            raise ConfigError(f"geometry.wavelength must be > 0, got {self.wavelength}")

    @property
    def slit_cells(self) -> tuple[int, int]:
        lo = (self.n_cells - 1 - self.slit_separation) // 2
        return lo, lo + self.slit_separation

    @property
    def fringe_period(self) -> float:
        """Central fringe spacing in cells: wavelength * distance / separation."""
        return self.wavelength * self.screen_distance / self.slit_separation

    def space(self) -> Space:
        return Space(dims=2, extent=(self.n_cells, 2), delta_x=1.0)


DEFAULT_GEOMETRY = SlitGeometry()
# small screen for runtime-equivalence comparisons, where per-cell sampling
# noise in a total-variation distance must stay well under the gate
SMALL_GEOMETRY = SlitGeometry(n_cells=16, slit_separation=5, screen_distance=50.0, wavelength=0.4)


def branch_phases(geometry: SlitGeometry) -> np.ndarray:
    """Phase 2*pi*L/lambda per (slit, screen cell), exact path lengths."""
    x = np.arange(geometry.n_cells, dtype=float)
    slits = np.array(geometry.slit_cells, dtype=float)
    lengths = np.hypot(geometry.screen_distance, x[None, :] - slits[:, None])
    return 2.0 * math.pi * lengths / geometry.wavelength


def branch_amplitudes(geometry: SlitGeometry) -> np.ndarray:
    """Complex amplitude per (slit, screen cell), normalized over both fans."""
    phases = branch_phases(geometry)
    return np.exp(1j * phases) / math.sqrt(2.0 * geometry.n_cells)


def coherent_intensity(geometry: SlitGeometry) -> np.ndarray:
    """Unnormalized |psi_1 + psi_2|^2 per screen cell."""
    amps = branch_amplitudes(geometry)
    return np.abs(amps[0] + amps[1]) ** 2


def incoherent_intensity(geometry: SlitGeometry) -> np.ndarray:
    """Unnormalized |psi_1|^2 + |psi_2|^2 per screen cell (exactly flat)."""
    amps = branch_amplitudes(geometry)
    return np.abs(amps[0]) ** 2 + np.abs(amps[1]) ** 2


def coherent_pdf(geometry: SlitGeometry) -> np.ndarray:
    w = coherent_intensity(geometry)
    return w / w.sum()


def incoherent_pdf(geometry: SlitGeometry) -> np.ndarray:
    w = incoherent_intensity(geometry)
    return w / w.sum()


# -- pipeline objects ------------------------------------------------------------

PHOTON_MASS = 1.0
MARKER_MASS = 1.0
SCREEN_MASS = 1.0


def _conserved(energy: float) -> dict:
    return {"energy": energy, "momentum": (0.0, 0.0), "angularmomentum": (0.0,)}


def _state_at(cell) -> PathState:
    return PathState(spacepoints=frozenset({cell}), momentum=(0.0, 0.0), angularmomentum=(0.0,))


def photon_at_slits(geometry: SlitGeometry, object_id: str = "photon") -> QuantumObject:
    """The particle just past the slit plane: one equal-amplitude row per slit."""
    lo, hi = geometry.slit_cells
    amp = 1.0 / math.sqrt(2.0)
    return QuantumObject(
        object_id=object_id,
        kind=ObjectKind.PARTICLE,
        particles=(ParticleInfo("photon", PHOTON_MASS),),
        paths=(
            Path(amplitude=amp, pathstates=(_state_at((lo, SLIT_PLANE)),)),
            Path(amplitude=amp, pathstates=(_state_at((hi, SLIT_PLANE)),)),
        ),
        conserved=_conserved(PHOTON_MASS),
    )


def marker_object(geometry: SlitGeometry, object_id: str = "marker") -> QuantumObject:
    """Which-path detector: one atom whose support covers both slit cells."""
    lo, hi = geometry.slit_cells
    return QuantumObject(
        object_id=object_id,
        kind=ObjectKind.PARTICLE,
        particles=(ParticleInfo("marker-atom", MARKER_MASS),),
        paths=(
            Path(
                amplitude=1.0,
                pathstates=(
                    PathState(
                        spacepoints=frozenset({(lo, SLIT_PLANE), (hi, SLIT_PLANE)}),
                        momentum=(0.0, 0.0),
                        angularmomentum=(0.0,),
                    ),
                ),
            ),
        ),
        conserved=_conserved(MARKER_MASS),
    )


def screen_object(geometry: SlitGeometry, object_id: str = "screen") -> QuantumObject:
    """Detection screen: one row covering every screen-plane cell."""
    cells = frozenset((x, SCREEN_PLANE) for x in range(geometry.n_cells))
    return QuantumObject(
        object_id=object_id,
        kind=ObjectKind.PARTICLE,
        particles=(ParticleInfo("screen-atom", SCREEN_MASS),),
        paths=(
            Path(
                amplitude=1.0,
                pathstates=(
                    PathState(spacepoints=cells, momentum=(0.0, 0.0), angularmomentum=(0.0,)),
                ),
            ),
        ),
        conserved=_conserved(SCREEN_MASS),
    )


@lru_cache(maxsize=None)
def continue_table(geometry: SlitGeometry, slit_index: int) -> OutcomeTable:
    """Marker interaction product: the particle continues from one slit,
    now sharing a table with the marker atom that registered it."""
    cell = (geometry.slit_cells[slit_index], SLIT_PLANE)
    return OutcomeTable(
        name=f"which-path-{slit_index}",
        rows=(
            OutcomeRow(
                particles=(ParticleInfo("photon", PHOTON_MASS), ParticleInfo("marker-atom", MARKER_MASS)),
                pathstates=(_state_at(cell), _state_at(cell)),
                amplitude=1.0,
            ),
        ),
    )


@lru_cache(maxsize=None)
def absorb_table(cell: tuple) -> OutcomeTable:
    """Screen absorption: one detection row at the hit cell."""
    return OutcomeTable(
        name="screen-hit",
        rows=(
            OutcomeRow(
                particles=(ParticleInfo("detection", 0.0),),
                pathstates=(_state_at(cell),),
                amplitude=1.0,
            ),
        ),
    )


def propagate_to_screen(obj: QuantumObject, geometry: SlitGeometry) -> QuantumObject:
    """Fan every slit-plane row out to the screen and merge identical rows.

    The particle column of a row at slit cell (xs, 0) spreads to one row
    per screen cell (x, 1) with amplitude scaled by exp(i 2 pi L/lambda)
    / sqrt(n); any other columns (a marker atom) ride along unchanged.
    Rows whose particle states come out identical are the same alternative
    and their amplitudes add; this merge is the interference mechanism.
    The result is renormalized (the discrete fan is not exactly unitary).
    """
    amps = branch_amplitudes(geometry) * math.sqrt(2.0)  # per-slit fan: e^{i phi}/sqrt(n)
    lo, hi = geometry.slit_cells
    slit_row = {lo: 0, hi: 1}
    photon_col = photon_column(obj)
    merged: dict[tuple, complex] = {}
    for path in obj.paths:
        ps = path.pathstates[photon_col]
        (xs, plane), = ps.spacepoints
        if plane != SLIT_PLANE:
            raise ConfigError(f"object {obj.object_id!r}: particle not at the slit plane")
        fan = amps[slit_row[xs]]
        for x in range(geometry.n_cells):
            states = list(path.pathstates)
            states[photon_col] = _state_at((x, SCREEN_PLANE))
            key = tuple(states)
            merged[key] = merged.get(key, 0.0) + path.amplitude * fan[x]
    paths = tuple(Path(amplitude=a, pathstates=k) for k, a in merged.items())
    return normalize_amplitudes(
        QuantumObject(
            object_id=obj.object_id,
            kind=obj.kind,
            particles=obj.particles,
            paths=paths,
            global_attrs=dict(obj.global_attrs),
            conserved=dict(obj.conserved),
        )
    )


def photon_column(obj: QuantumObject) -> int:
    """Index of the particle column being diffracted."""
    for k, info in enumerate(obj.particles):
        if info.type == "photon":
            return k
    raise ConfigError(f"object {obj.object_id!r}: no particle column of type 'photon'")


# -- histogram and statistics -----------------------------------------------------


@dataclass
class ScreenHistogram:
    """Per-cell hit counts at the screen, plus fringe statistics."""

    geometry: SlitGeometry
    marker: bool
    trials: int
    seed: int
    counts: np.ndarray
    runtime: str = "centralized"
    smoothing_window: int = 5

    def frequencies(self) -> np.ndarray:
        return self.counts / self.trials

    def smoothed(self, window: int | None = None) -> np.ndarray:
        """Moving average over the interior (edges trimmed, no wrap)."""
        w = self.smoothing_window if window is None else window
        kernel = np.ones(w) / w
        return np.convolve(self.frequencies(), kernel, mode="valid")

    def visibility(self, window: int | None = None) -> float:
        """(max - min)/(max + min) of the smoothed envelope."""
        env = self.smoothed(window)
        hi, lo = env.max(), env.min()
        return (hi - lo) / (hi + lo)

    def tv_distance(self, other) -> float:
        """Total-variation distance to another histogram or a pdf array."""
        mine = self.frequencies()
        theirs = other.frequencies() if isinstance(other, ScreenHistogram) else np.asarray(other)
        return 0.5 * float(np.abs(mine - theirs).sum())

    def max_cell_z(self, pdf: np.ndarray) -> float:
        """Largest per-cell |count - expected| in binomial standard errors."""
        expected = self.trials * pdf
        sigma = np.sqrt(self.trials * pdf * (1.0 - pdf))
        return float(np.max(np.abs(self.counts - expected) / sigma))

    def oracle_pdf(self) -> np.ndarray:
        return incoherent_pdf(self.geometry) if self.marker else coherent_pdf(self.geometry)

    def to_json_dict(self) -> dict:
        return {
            "schema_version": 1,
            "experiment": "doubleslit",
            "params": {
                "marker": "on" if self.marker else "off",
                "trials": self.trials,
                "seed": self.seed,
                "runtime": self.runtime,
                "n_cells": self.geometry.n_cells,
                "slit_separation": self.geometry.slit_separation,
                "screen_distance": self.geometry.screen_distance,
                "wavelength": self.geometry.wavelength,
                "smoothing_window": self.smoothing_window,
            },
            "counts": [int(c) for c in self.counts],
            "visibility": self.visibility(),
            "tv_vs_oracle": self.tv_distance(self.oracle_pdf()),
            "fringe_period": self.geometry.fringe_period,
        }


# -- the world and its policy -----------------------------------------------------


class DoubleSlitRoundPolicy(RoundPolicy):
    """Slit-plane marking (optional), fan to the screen, absorption.

    Roles are named by object id: the photon meets the marker, and
    whatever meets the screen carries the photon, alone or as the marker's
    product.  One policy serves a whole run under either scheduler, and
    its memo serves every claim by identity (RoundPolicy.memoised).  The
    photon, the marker, the screen and the outcome tables (cached) are the
    same objects in every trial, so the marking claim's candidates and
    effects are too; the marker's product is an effect's out collection,
    the same object on every hit.  So every trial fans one of at most
    three inputs (the unmarked photon, or the product from either slit),
    and each fan with its screen candidates and their effects is built
    once per run.
    """

    def __init__(self, geometry: SlitGeometry, marker: bool):
        self.geometry = geometry
        self.photon = photon_at_slits(geometry)
        self.marker = marker_object(geometry)
        self.screen = screen_object(geometry)
        self.space = geometry.space()
        cast = (self.photon, self.marker, self.screen) if marker else (self.photon, self.screen)
        self.objects = {obj.object_id: obj for obj in cast}
        self.memo = {}
        # room for every entry a run can make, in either claim order: a screen
        # effect per cell of each fan, the marking effects, the candidate
        # lists and the fans
        self.memo_bound = 4 * geometry.n_cells + 16
        self.hit_cell: int | None = None

    def start(self, rng: RngState) -> SystemState:
        """A fresh trial's world: the photon, the marker when on, the screen."""
        return SystemState(space=self.space, objects=dict(self.objects))

    def causal_order(self, rng: RngState):
        """One centralized trial from rng: the marking claim (marker on), the
        fan to the screen, the screen claim."""
        state = self.start(rng)
        bearer_id = self.photon.object_id
        if self.marker.object_id in state.objects:
            _, product = claim(state, self, bearer_id, self.marker.object_id, rng)
            bearer_id = product.object_id
        state.objects[bearer_id] = self.propagate(state, bearer_id)
        claim(state, self, bearer_id, self.screen.object_id, rng)

    def outcome(self) -> int:
        return self.hit_cell

    def table_for(self, state: SystemState, a_id: str, b_id: str, candidate):
        if self.screen.object_id in (a_id, b_id):
            self.hit_cell = candidate.position[0]
            return absorb_table(candidate.position)
        if {a_id, b_id} == {self.photon.object_id, self.marker.object_id}:
            return continue_table(self.geometry, self.geometry.slit_cells.index(candidate.position[0]))
        return None

    def propagate(self, state: SystemState, object_id: str):
        # the marker and the screen stand still; whatever carries the photon
        # (column 0 of the photon and of the marker's product) fans out
        # once, from the slit plane
        if object_id in (self.marker.object_id, self.screen.object_id):
            return None
        obj = state.objects[object_id]
        plane = next(iter(obj.paths[0].pathstates[0].spacepoints))[1]
        if plane != SLIT_PLANE:
            return None
        return self.memoised(("fan", id(obj)), propagate_to_screen, obj, self.geometry)

    def done(self, state: SystemState) -> bool:
        return self.screen.object_id not in state.objects


# -- driver -----------------------------------------------------------------------


def run_double_slit(
    marker: bool,
    trials: int,
    geometry: SlitGeometry = DEFAULT_GEOMETRY,
    seed: int = 0,
    runtime: str = "centralized",
    scheduler: str = "round-robin",
) -> ScreenHistogram:
    """Monte Carlo screen histogram, marker on or off: run_trials of one
    policy under either scheduler."""
    if not isinstance(marker, bool):
        raise ConfigError(f"marker must be a bool, got {marker!r}")
    policy = DoubleSlitRoundPolicy(geometry, marker)
    counts = np.zeros(geometry.n_cells, dtype=np.int64)
    for cell in run_trials(policy, trials, seed, runtime, scheduler):
        counts[cell] += 1
    return ScreenHistogram(
        geometry=geometry,
        marker=marker,
        trials=trials,
        seed=seed,
        counts=counts,
        runtime=runtime,
    )

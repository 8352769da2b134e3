"""Two coupled pendulums: closed-form update laws versus a local integration.

Two equal pendulums (mass m, natural angular frequency omega0) are joined
by a spring of constant k.  The normal modes are in-phase motion at omega0
(the spring never stretches) and anti-phase motion at

    omega' = sqrt(omega0^2 + 2 k / m).

Two integrators are provided.  The closed-form laws advance both bobs
directly from the global formula x(t) = C cos(omega' t), mirroring the
two-bob cross-reference that makes such laws non-local; note they apply
omega' to BOTH modes, including in-phase, where the physical frequency is
omega0.  That known discrepancy is kept as given and surfaced by the
comparison against the normal-mode solution instead of being corrected.
The local refinement integrates the explicit per-bob forces

    m x_a'' = -m omega0^2 x_a - k (x_a - x_b)

with velocity Verlet, so each bob's update reads only its own state and
the instantaneous spring force; run_pendulum reports how far this local
integration deviates from the closed forms and from the true normal mode.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass

import numpy as np

from ..choices import PENDULUM_MODES as MODES
from ..errors import ConfigError, check_array_length


@dataclass(frozen=True)
class PendulumParams:
    m: float = 1.0
    omega0: float = 1.0
    k: float = 0.5
    amplitude: float = 1.0  # C: initial displacement of bob a

    def __post_init__(self):
        for name in ("m", "omega0", "k", "amplitude"):
            value = getattr(self, name)
            if not math.isfinite(value):
                raise ConfigError(f"pendulum.{name} must be finite, got {value!r}")
        if not self.m > 0:
            raise ConfigError(f"pendulum.m must be > 0, got {self.m}")
        if not self.omega0 > 0:
            raise ConfigError(f"pendulum.omega0 must be > 0, got {self.omega0}")
        if self.k < 0:
            raise ConfigError(f"pendulum.k must be >= 0, got {self.k}")
        if self.amplitude == 0:
            raise ConfigError("pendulum.amplitude must be non-zero")
        # run_pendulum divides a period by it, so it must be a positive float
        try:
            coupled = coupled_frequency(self)
        except OverflowError:
            coupled = math.inf
        if not 0 < coupled < math.inf:
            raise ConfigError(
                f"pendulum.omega0 {self.omega0!r} and pendulum.k {self.k!r} (with pendulum.m {self.m!r}) give "
                f"a coupled frequency sqrt(omega0^2 + 2k/m) = {coupled}, not a positive finite number"
            )


def coupled_frequency(params: PendulumParams) -> float:
    """omega' = sqrt(omega0^2 + 2 k/m), the anti-phase normal-mode frequency."""
    return math.sqrt(params.omega0**2 + 2.0 * params.k / params.m)


def _check_mode(mode: str):
    if mode not in MODES:
        raise ConfigError(f"pendulum.mode must be one of {MODES}, got {mode!r}")


def closed_form_trajectory(mode: str, params: PendulumParams, times: np.ndarray):
    """The closed-form update laws: x = C cos(omega' t) for BOTH modes.

    Using omega' for the in-phase mode is wrong physics (the in-phase
    frequency is omega0); it is reproduced as stated so the deviation is
    measurable, not silently repaired.
    """
    _check_mode(mode)
    x_a = params.amplitude * np.cos(coupled_frequency(params) * times)
    x_b = x_a if mode == "in-phase" else -x_a
    return x_a, np.array(x_b)


def normal_mode_trajectory(mode: str, params: PendulumParams, times: np.ndarray):
    """Exact normal-mode solution: omega0 in phase, omega' in anti-phase."""
    _check_mode(mode)
    if mode == "in-phase":
        x_a = params.amplitude * np.cos(params.omega0 * times)
        return x_a, np.array(x_a)
    x_a = params.amplitude * np.cos(coupled_frequency(params) * times)
    return x_a, -x_a


def integrate_local(mode: str, params: PendulumParams, delta_t: float, steps: int):
    """Velocity-Verlet integration of the explicit two-bob forces.

    Starts from rest at the mode's initial displacement.  Returns
    (times, x_a, x_b).  The step must resolve the fastest mode:
    omega' * delta_t >= 2 is unconditionally unstable and is rejected.
    """
    _check_mode(mode)
    if not delta_t > 0:
        raise ConfigError(f"pendulum.delta_t must be > 0, got {delta_t}")
    if steps < 0:
        raise ConfigError(f"pendulum.steps must be >= 0, got {steps}")
    if coupled_frequency(params) * delta_t >= 2.0:
        raise ConfigError(
            f"pendulum.delta_t {delta_t} unstable: omega' * delta_t = "
            f"{coupled_frequency(params) * delta_t:.3f} >= 2"
        )
    w2 = params.omega0**2
    km = params.k / params.m
    c = params.amplitude

    def accel(xa, xb):
        return -w2 * xa - km * (xa - xb), -w2 * xb - km * (xb - xa)

    x_a = np.empty(steps + 1)
    x_b = np.empty(steps + 1)
    xa, xb = c, (c if mode == "in-phase" else -c)
    va = vb = 0.0
    aa, ab = accel(xa, xb)
    x_a[0], x_b[0] = xa, xb
    half = 0.5 * delta_t
    for i in range(1, steps + 1):
        xa += (va + half * aa) * delta_t
        xb += (vb + half * ab) * delta_t
        na, nb = accel(xa, xb)
        va += half * (aa + na)
        vb += half * (ab + nb)
        aa, ab = na, nb
        x_a[i], x_b[i] = xa, xb
    times = np.arange(steps + 1) * delta_t
    return times, x_a, x_b


@dataclass
class PendulumResult:
    mode: str
    params: PendulumParams
    delta_t: float
    times: np.ndarray
    local_a: np.ndarray
    local_b: np.ndarray
    closed_a: np.ndarray
    closed_b: np.ndarray
    mode_a: np.ndarray
    mode_b: np.ndarray

    def _rel_max(self, x: np.ndarray, y: np.ndarray) -> float:
        with np.errstate(over="ignore"):  # samples near the float limit differ by inf, which run_pendulum refuses
            return float(np.max(np.abs(x - y)) / abs(self.params.amplitude))

    @property
    def deviation_from_normal_mode(self) -> float:
        """Max deviation of the local integration from the exact mode solution,
        relative to the initial amplitude."""
        return max(
            self._rel_max(self.local_a, self.mode_a),
            self._rel_max(self.local_b, self.mode_b),
        )

    @property
    def deviation_from_closed_form(self) -> float:
        return max(
            self._rel_max(self.local_a, self.closed_a),
            self._rel_max(self.local_b, self.closed_b),
        )

    @property
    def closed_form_discrepant(self) -> bool:
        """True when the closed-form law disagrees with the physical mode
        (the in-phase case, where it applies omega' instead of omega0)."""
        return self._rel_max(self.closed_a, self.mode_a) > 1e-6

    def to_json_dict(self) -> dict:
        return {
            "schema_version": 1,
            "experiment": "pendulum",
            "params": {
                "mode": self.mode,
                "m": self.params.m,
                "omega0": self.params.omega0,
                "k": self.params.k,
                "amplitude": self.params.amplitude,
                "delta_t": self.delta_t,
                "steps": len(self.times) - 1,
            },
            "coupled_frequency": coupled_frequency(self.params),
            "deviation_from_normal_mode": self.deviation_from_normal_mode,
            "deviation_from_closed_form": self.deviation_from_closed_form,
            "closed_form_discrepant": self.closed_form_discrepant,
        }

    def write_csv(self, path):
        with open(path, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(
                ["t", "x_a_local", "x_b_local", "x_a_closed", "x_b_closed", "x_a_mode", "x_b_mode"]
            )
            for i, t in enumerate(self.times):
                writer.writerow(
                    [
                        repr(float(t)),
                        repr(float(self.local_a[i])),
                        repr(float(self.local_b[i])),
                        repr(float(self.closed_a[i])),
                        repr(float(self.closed_b[i])),
                        repr(float(self.mode_a[i])),
                        repr(float(self.mode_b[i])),
                    ]
                )


def run_pendulum(
    mode: str,
    m: float = 1.0,
    omega0: float = 1.0,
    k: float = 0.5,
    amplitude: float = 1.0,
    periods: float = 10.0,
    steps_per_period: int = 1024,
) -> PendulumResult:
    """Integrate one mode and compare against both reference solutions.

    The step is the coupled period divided by steps_per_period (1024 by
    default, comfortably finer than one part in a thousand), run for the
    given number of coupled periods.
    """
    params = PendulumParams(m=m, omega0=omega0, k=k, amplitude=amplitude)
    if steps_per_period < 8:
        raise ConfigError(f"pendulum.steps_per_period must be >= 8, got {steps_per_period}")
    if not periods > 0:
        raise ConfigError(f"pendulum.periods must be > 0, got {periods}")
    check_array_length(steps_per_period, "pendulum.steps_per_period")
    samples, product = periods * steps_per_period, "pendulum.periods * pendulum.steps_per_period"
    check_array_length(samples, product)  # refuses infinite periods
    period = 2.0 * math.pi / coupled_frequency(params)
    delta_t = period / steps_per_period
    steps = round(samples)
    if steps < 1:
        raise ConfigError(f"{product} = {samples:g} rounds to zero integration steps")
    times, local_a, local_b = integrate_local(mode, params, delta_t, steps)
    closed_a, closed_b = closed_form_trajectory(mode, params, times)
    mode_a, mode_b = normal_mode_trajectory(mode, params, times)
    result = PendulumResult(
        mode=mode,
        params=params,
        delta_t=delta_t,
        times=times,
        local_a=local_a,
        local_b=local_b,
        closed_a=closed_a,
        closed_b=closed_b,
        mode_a=mode_a,
        mode_b=mode_b,
    )
    # every sample enters a deviation, so an overflowed sample, or difference
    # of two, leaves one not finite
    if not all(map(math.isfinite, (result.deviation_from_normal_mode, result.deviation_from_closed_form))):
        raise ConfigError(
            f"pendulum.amplitude {amplitude!r} overflows: a trajectory sample or deviation is not finite"
        )
    return result

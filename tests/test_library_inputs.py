"""Library entry points: any input returns a result or raises ConfigError.

The CLI checks no value itself, so each library function a flag reaches
must refuse a bad value with a ConfigError: never another exception, a
numpy warning or a NaN-filled result.  The test draws the odd values the
CLI property test draws (non-finite, negative, zero, huge, subnormal) and
passes one of them, at most, beside plain values, so that the odd value
meets a call that would otherwise run.  Every size the library accepts is
drawn small (a few dozen cells, steps or trials), since it runs as long or
allocates as much as it asks: run_pendulum takes steps_per_period=10**8.
A grid that is built is also run for a few steps, where its values meet
the update.
"""

import math
import warnings

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st

from qcausal.errors import ConfigError
from qcausal.experiments.bell import BellConfig, lhv_oracle, model_correlation, run_bell_experiment
from qcausal.experiments.doubleslit import SMALL_GEOMETRY, SlitGeometry, run_double_slit
from qcausal.experiments.pendulum import run_pendulum
from qcausal.wave import make_grid, run_wave, standing_wave_grid, traveling_pulse_grid

_SPECIAL = st.sampled_from([math.nan, math.inf, -math.inf, 1e308, -1e308, 1e-320, -1e-320, 0.0, -0.0, -1.0])
_ODD = st.one_of(_SPECIAL, _SPECIAL, st.floats())


def _floats(low, high):
    """A float parameter: a value in [low, high], or any odd one."""
    return st.floats(low, high), _ODD


def _sizes(low, high):
    """A float that scales a size: a value in [low, high], or an odd one at
    most high, since a larger one runs as long as it asks."""
    return st.floats(low, high), _SPECIAL | st.floats(max_value=high)


def _ints(low, high, huge=False):
    """An int parameter: a value in [low, high], or an odd one: a special
    float, a small or negative int, and 10**30 where it is refused unrun."""
    odd = _SPECIAL | st.integers(-3, high)
    return st.integers(low, high), (odd | st.just(10**30)) if huge else odd


def _one_of(plain, *odd):
    return st.sampled_from(plain), st.sampled_from(odd)


def _built(grid):
    """grid's run of a few steps, which its values meet: finite throughout."""
    run = run_wave(grid, 4)
    assert all(np.isfinite(psi).all() for _, psi in run.trajectory)
    assert math.isfinite(run.energy_initial) and math.isfinite(run.max_energy_change)
    return run


_SEED = st.integers(0, 2**40), st.sampled_from([-1, 2.5, math.nan, True, "1"])
_RUNTIME = _one_of(("centralized", "refined"), "cloud", None)
_SCHEDULER = _one_of(("round-robin", "randomized"), "bogus")
_ANGLES = (
    st.lists(st.floats(-720, 720), min_size=3, max_size=3).map(tuple),
    st.lists(st.floats(-720, 720) | _ODD, min_size=0, max_size=4).map(tuple),
)
# per entry point: what it calls, and each parameter's (plain, odd) values
_CALLS = {
    "run_pendulum": (run_pendulum, {
        "mode": _one_of(("in-phase", "anti-phase"), "diagonal", ""),
        "m": _floats(0.01, 100), "omega0": _floats(0.01, 100), "k": _floats(0, 100),
        "amplitude": _floats(-100, 100), "periods": _sizes(0.5, 2.0), "steps_per_period": _ints(8, 64, huge=True),
    }),
    "make_grid": (lambda **kw: _built(make_grid(**kw)), {
        "profile": (st.lists(st.floats(-1, 1), min_size=3, max_size=32).map(np.array),
                    st.lists(st.floats(-1, 1), max_size=2).map(np.array)),
        "v": _floats(0.1, 1.0), "delta_x": _floats(1.0, 2.0), "delta_t": _floats(0.1, 1.0),
        "boundary": _one_of(("periodic", "fixed"), "wrap", None),
    }),
    "traveling_pulse_grid": (lambda **kw: _built(traveling_pulse_grid(**kw)), {
        "n_cells": _ints(3, 32, huge=True), "sigma": _floats(0.1, 10), "v": _floats(0.1, 1.0),
        "delta_x": _floats(1.0, 2.0), "delta_t": _floats(0.1, 1.0), "center": _floats(0, 32),
    }),
    "standing_wave_grid": (lambda **kw: _built(standing_wave_grid(**kw)), {
        "n_cells": _ints(3, 32, huge=True), "mode": _ints(1, 1), "v": _floats(0.1, 1.0),
        "delta_x": _floats(1.0, 2.0), "delta_t": _floats(0.1, 1.0),
    }),
    "run_wave": (lambda **kw: run_wave(traveling_pulse_grid(16, 2.0, 0.5, 1.0, 1.0), **kw), {
        "steps": _ints(0, 64), "snapshot_stride": _ints(1, 70),
    }),
    "BellConfig": (lambda **kw: run_bell_experiment(BellConfig(**kw)), {
        "angle_a": _floats(-720, 720), "angle_b": _floats(-720, 720), "trials": _ints(1, 20), "seed": _SEED,
        "spindir_policy": (st.just("uniform") | st.floats(-720, 720), _ODD | st.just("fixed")),
        "runtime": _RUNTIME, "scheduler": _SCHEDULER,
    }),
    "SlitGeometry": (SlitGeometry, {
        "n_cells": _ints(16, 16, huge=True), "slit_separation": _ints(5, 5),
        "screen_distance": _floats(1, 5000), "wavelength": _floats(0.1, 2.0),
    }),
    "run_double_slit": (lambda **kw: run_double_slit(geometry=SMALL_GEOMETRY, **kw), {
        "marker": _one_of((True, False), 1, None), "trials": _ints(1, 20), "seed": _SEED,
        "runtime": _RUNTIME, "scheduler": _SCHEDULER,
    }),
    "lhv_oracle": (lhv_oracle, {"angles": _ANGLES, "form": _one_of(("identical", "anticorrelated"), "sideways")}),
    "model_correlation": (model_correlation, {"angle_x": _floats(-720, 720), "angle_y": _floats(-720, 720)}),
}


@st.composite
def _calls(draw):
    """An entry point and its arguments, all plain but at most one, which is odd."""
    name = draw(st.sampled_from(sorted(_CALLS)))
    call, params = _CALLS[name]
    odd = draw(st.sampled_from([None, *params]))
    return name, call, {param: draw(values[1] if param == odd else values[0]) for param, values in params.items()}


@settings(max_examples=2000, deadline=None)
@given(_calls())
@example(("make_grid", _CALLS["make_grid"][0],
          {"profile": np.zeros(8), "v": 1.0, "delta_x": 1e308, "delta_t": 1.0, "boundary": "periodic"}))
@example(("traveling_pulse_grid", _CALLS["traveling_pulse_grid"][0],
          {"n_cells": 16, "sigma": math.nan, "v": 1.0, "delta_x": 1.0, "delta_t": 1.0, "center": 8.0}))
@example(("run_pendulum", run_pendulum, {"mode": "in-phase", "amplitude": 1e308, "steps_per_period": 8, "periods": 1.0}))
@example(("lhv_oracle", lhv_oracle, {"angles": (0, 0), "form": "identical"}))
def test_any_input_returns_or_raises_a_config_error(case):
    name, call, kwargs = case
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # a warning fails the example as its own exception
        try:
            call(**kwargs)
        except ConfigError:
            pass

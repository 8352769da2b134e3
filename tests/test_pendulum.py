"""Coupled pendulums: mode frequencies, local integration, the frequency quirk."""

import csv
import math

import numpy as np
import pytest

from qcausal.errors import ConfigError
from qcausal.experiments.pendulum import (
    PendulumParams,
    closed_form_trajectory,
    coupled_frequency,
    integrate_local,
    normal_mode_trajectory,
    run_pendulum,
)


def test_coupled_frequency():
    assert coupled_frequency(PendulumParams()) == pytest.approx(math.sqrt(2.0))
    assert coupled_frequency(PendulumParams(k=0.0)) == 1.0
    assert coupled_frequency(PendulumParams(m=2.0, omega0=3.0, k=4.0)) == pytest.approx(
        math.sqrt(9.0 + 4.0)
    )


def test_params_validation():
    with pytest.raises(ConfigError):
        PendulumParams(m=0.0)
    with pytest.raises(ConfigError):
        PendulumParams(omega0=-1.0)
    with pytest.raises(ConfigError):
        PendulumParams(k=-0.5)
    with pytest.raises(ConfigError):
        PendulumParams(amplitude=0.0)
    for name in ("m", "omega0", "k", "amplitude"):
        with pytest.raises(ConfigError, match=name):
            PendulumParams(**{name: math.nan})
        with pytest.raises(ConfigError, match=name):
            PendulumParams(**{name: math.inf})


def test_reference_trajectories():
    params = PendulumParams()
    times = np.linspace(0.0, 4.0, 50)
    wp = coupled_frequency(params)

    ca, cb = closed_form_trajectory("anti-phase", params, times)
    np.testing.assert_allclose(ca, np.cos(wp * times))
    np.testing.assert_allclose(cb, -ca)

    # the closed-form law uses omega' even in phase ...
    ca, cb = closed_form_trajectory("in-phase", params, times)
    np.testing.assert_allclose(ca, np.cos(wp * times))
    np.testing.assert_allclose(cb, ca)

    # ... while the physical in-phase mode oscillates at omega0
    ma, mb = normal_mode_trajectory("in-phase", params, times)
    np.testing.assert_allclose(ma, np.cos(params.omega0 * times))
    np.testing.assert_allclose(mb, ma)

    with pytest.raises(ConfigError):
        closed_form_trajectory("sideways", params, times)


def test_integrator_guards():
    params = PendulumParams()
    with pytest.raises(ConfigError, match="unstable"):
        integrate_local("in-phase", params, delta_t=2.0, steps=10)
    with pytest.raises(ConfigError):
        integrate_local("in-phase", params, delta_t=0.0, steps=10)
    with pytest.raises(ConfigError):
        integrate_local("in-phase", params, delta_t=0.1, steps=-1)


def test_integrator_symmetries_are_exact():
    params = PendulumParams()
    _, xa, xb = integrate_local("in-phase", params, 0.01, 500)
    assert np.array_equal(xa, xb)  # identical forces, identical rounding
    _, xa, xb = integrate_local("anti-phase", params, 0.01, 500)
    assert np.array_equal(xb, -xa)


def test_integrator_energy_is_stable():
    params = PendulumParams()
    dt = 0.01
    _, xa, xb = integrate_local("anti-phase", params, dt, 4000)
    va = np.gradient(xa, dt)
    w2, k, m = params.omega0 ** 2, params.k, params.m
    energy = 0.5 * m * va ** 2 * 2 + 0.5 * m * w2 * (xa ** 2 + xb ** 2) + 0.5 * k * (xa - xb) ** 2
    # central-difference velocity is only O(dt^2), so allow a loose band
    interior = energy[2:-2]
    assert interior.max() - interior.min() < 0.01 * interior.mean()


def test_local_integration_tracks_the_true_modes():
    for mode in ("in-phase", "anti-phase"):
        res = run_pendulum(mode)
        assert res.deviation_from_normal_mode < 1e-3


def test_anti_phase_closed_form_agrees():
    res = run_pendulum("anti-phase")
    # closed form and normal mode coincide here, so both deviations match
    assert res.deviation_from_closed_form == res.deviation_from_normal_mode
    assert res.deviation_from_closed_form < 1e-3
    assert res.closed_form_discrepant is False


def test_in_phase_closed_form_diverges():
    res = run_pendulum("in-phase")
    assert res.closed_form_discrepant is True
    # omega' vs omega0 dephases by order one within ten periods
    assert res.deviation_from_closed_form > 0.5
    assert res.deviation_from_normal_mode < 1e-3


def test_second_order_convergence():
    coarse = run_pendulum("anti-phase", periods=4.0, steps_per_period=256)
    fine = run_pendulum("anti-phase", periods=4.0, steps_per_period=512)
    ratio = coarse.deviation_from_normal_mode / fine.deviation_from_normal_mode
    assert 3.0 < ratio < 5.0  # velocity Verlet halving error ~ 4x


def test_run_pendulum_validation():
    with pytest.raises(ConfigError):
        run_pendulum("in-phase", steps_per_period=4)
    with pytest.raises(ConfigError):
        run_pendulum("in-phase", periods=0.0)
    with pytest.raises(ConfigError, match="zero integration steps"):
        run_pendulum("in-phase", periods=1e-9)
    for bad in (math.nan, math.inf):
        with pytest.raises(ConfigError, match="amplitude"):
            run_pendulum("in-phase", amplitude=bad)
        with pytest.raises(ConfigError, match="periods"):
            run_pendulum("in-phase", periods=bad)
    with pytest.raises(ConfigError):
        run_pendulum("diagonal")
    # finite inputs whose trajectory or deviation overflows; 3e307 and 8e307 fit
    for mode, huge in (("anti-phase", 5e307), ("in-phase", 9e307)):
        with pytest.raises(ConfigError, match="amplitude .* overflows"):
            run_pendulum(mode, amplitude=huge)
    for mode, large in (("anti-phase", 3e307), ("in-phase", 8e307)):
        assert math.isfinite(run_pendulum(mode, amplitude=large).deviation_from_closed_form)


def test_result_serialization(tmp_path):
    res = run_pendulum("anti-phase", periods=1.0, steps_per_period=64)
    d = res.to_json_dict()
    assert d["schema_version"] == 1
    assert d["experiment"] == "pendulum"
    assert d["params"]["steps"] == 64
    assert d["coupled_frequency"] == pytest.approx(math.sqrt(2.0))
    assert d["closed_form_discrepant"] is False

    out = tmp_path / "pendulum.csv"
    res.write_csv(out)
    with open(out) as fh:
        rows = list(csv.reader(fh))
    assert rows[0][:3] == ["t", "x_a_local", "x_b_local"]
    assert len(rows) == 1 + 65
    assert float(rows[1][1]) == res.local_a[0]


def test_timebase():
    res = run_pendulum("anti-phase", periods=2.0, steps_per_period=128)
    period = 2.0 * math.pi / coupled_frequency(res.params)
    assert res.delta_t == pytest.approx(period / 128)
    assert len(res.times) == 257
    assert res.times[-1] == pytest.approx(2.0 * period)

"""Entangled-pair experiment: exact trig, analyzer mechanics, statistics, bounds."""

import dataclasses
import itertools
import math
from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qcausal import interaction
from qcausal import state as state_module
from qcausal.engine import Cumulative, RngState
from qcausal.errors import ConfigError
from qcausal.experiments import bell
from qcausal.experiments.bell import (
    PUMP_IDS,
    SOURCE_CELL,
    WING_A_CELL,
    WING_B_CELL,
    BellConfig,
    BellRoundPolicy,
    JointStats,
    LhvReport,
    UnentangledConfig,
    apply_stern_gerlach,
    bell_scan,
    bell_world,
    cos_deg,
    draw_emission_direction,
    drift,
    evaluate_bell,
    fresh_state,
    lhv_oracle,
    make_pump,
    make_screen,
    model_correlation,
    pair_table,
    run_bell_experiment,
    run_spin_trials,
    run_unentangled_pair,
    sin_deg,
    spin_probability,
)
from qcausal.interaction import OutcomeRow, OutcomeTable, claim, interaction_effect, run_trials
from qcausal.runtime import RefinedRuntime
from qcausal.state import ParticleInfo, PathState, _norm_angle, reduce_to_path, total_conserved


def _emit(theta, rng):
    """Source claim on a world of the two pumps alone; returns (state, pair id)."""
    state = fresh_state()
    for pump_id in PUMP_IDS:
        state.add_object(make_pump(pump_id))
    _, pair = claim(state, BellRoundPolicy(0.0, 0.0, theta, rng), "pump-1", "pump-2", rng)
    return state, pair.object_id


def _drifted_pair(angle_a, angle_b, theta, rng):
    """The full world after its source claim and the pair's drift."""
    state = bell_world()
    policy = BellRoundPolicy(angle_a, angle_b, theta, rng)
    _, pair = claim(state, policy, "pump-1", "pump-2", rng)
    state.objects[pair.object_id] = policy.propagate(state, pair.object_id)
    return state, policy, pair.object_id


# --- exact degree trig ---------------------------------------------------------

def test_trig_exact_at_right_angles():
    assert cos_deg(0.0) == 1.0
    assert cos_deg(90.0) == 0.0
    assert cos_deg(180.0) == -1.0
    assert cos_deg(270.0) == 0.0
    assert cos_deg(-90.0) == 0.0
    assert cos_deg(450.0) == 0.0
    assert sin_deg(0.0) == 0.0
    assert sin_deg(90.0) == 1.0
    assert sin_deg(180.0) == 0.0
    assert sin_deg(270.0) == -1.0
    assert sin_deg(-180.0) == 0.0


def test_trig_matches_math_elsewhere():
    for deg in (10.0, 33.3, 123.0, 200.5, 359.0):
        assert cos_deg(deg) == pytest.approx(math.cos(math.radians(deg)), abs=1e-15)
        assert sin_deg(deg) == pytest.approx(math.sin(math.radians(deg)), abs=1e-15)


@given(st.floats(min_value=-720, max_value=720, allow_nan=False))
@settings(max_examples=200)
def test_trig_pythagorean(deg):
    assert cos_deg(deg) ** 2 + sin_deg(deg) ** 2 == pytest.approx(1.0, abs=1e-12)


def test_spin_probability_table():
    assert spin_probability(0.0) == 1.0
    assert spin_probability(30.0) == pytest.approx(0.75)
    assert spin_probability(45.0) == pytest.approx(0.5)
    assert spin_probability(60.0) == pytest.approx(0.25)
    assert spin_probability(90.0) == 0.0
    assert spin_probability(-30.0) == pytest.approx(0.75)


# --- source and propagation -------------------------------------------------------

def test_pair_table_shape():
    table = pair_table(20.0)
    assert len(table.rows) == 2
    spins = [(r.pathstates[0].spindir, r.pathstates[1].spindir) for r in table.rows]
    assert spins == [(20.0, 20.0), (110.0, 110.0)]
    assert all(r.amplitude == pytest.approx(1.0 / math.sqrt(2.0)) for r in table.rows)
    momenta = {r.pathstates[0].momentum + r.pathstates[1].momentum for r in table.rows}
    assert momenta == {(-1.0, 1.0)}
    # column rest energies add up to the two consumed pump energies
    assert sum(p.mass for p in table.rows[0].particles) == pytest.approx(1.0)


def _constructed_pair_table(theta, cell=SOURCE_CELL):
    """pair_table as the constructors build it, row by row and cell by cell."""

    def row(spin):
        return OutcomeRow(
            particles=(ParticleInfo("half", 0.5), ParticleInfo("half", 0.5)),
            pathstates=(
                PathState(frozenset({cell}), (-1.0,), (0.0,), spindir=spin),
                PathState(frozenset({cell}), (1.0,), (0.0,), spindir=spin),
            ),
            amplitude=1.0 / math.sqrt(2.0),
        )

    # theta is reduced before the quarter turn is added
    return OutcomeTable(name="pair-source", rows=(row(theta), row(_norm_angle(theta) + 90.0)))


@given(
    st.one_of(
        st.floats(min_value=-1e20, max_value=1e20, allow_nan=False),
        st.integers(min_value=-8, max_value=8).map(lambda k: 90.0 * k),
        st.sampled_from([-1e-14, -0.0, 1e-300, 359.99999999999994, 1e20, -1e20]),
    )
)
@settings(max_examples=200)
def test_pair_table_equals_the_constructed_one(theta):
    table, ref = pair_table(theta), _constructed_pair_table(theta)
    assert table == ref and hash(table) == hash(ref)
    # repr tells -0.0 from 0.0 and a float from a complex, which == and hash do not
    assert repr(table) == repr(ref)
    assert pair_table(theta, (2,)) == _constructed_pair_table(theta, (2,))


@pytest.mark.parametrize("theta", [1e17, 1e20, -1e20])
def test_pair_table_spins_stay_orthogonal_at_huge_theta(theta):
    row0, row1 = pair_table(theta).rows
    assert (row1.pathstates[0].spindir - row0.pathstates[0].spindir) % 360.0 == 90.0
    assert row0.pathstates[0].spindir == _norm_angle(theta)


def test_source_claim_emits_entangled_pair():
    state, pair_id = _emit(0.0, RngState(0).substream("emit"))
    assert set(state.objects) == {pair_id}
    pair = state.objects[pair_id]
    assert pair.n_paths == 2
    assert len(pair.particles) == 2
    assert pair.conserved["energy"] == pytest.approx(1.0)
    assert all(ps.spacepoints == frozenset({SOURCE_CELL}) for p in pair.paths for ps in p.pathstates)


def test_drift_moves_by_momentum():
    state, pair_id = _emit(0.0, RngState(0).substream("emit"))
    moved = drift(state.objects[pair_id])
    for path in moved.paths:
        assert path.pathstates[0].spacepoints == frozenset({WING_A_CELL})
        assert path.pathstates[1].spacepoints == frozenset({WING_B_CELL})


def test_drift_rounds_fractional_momentum():
    pump = make_pump("p")
    assert drift(pump).paths[0].pathstates[0].spacepoints == frozenset({SOURCE_CELL})


# --- analyzer -----------------------------------------------------------------------

def test_analyzer_splits_single_row():
    state, pair_id = _emit(30.0, RngState(0).substream("emit"))
    one_row = state.objects[pair_id]
    one_row = type(one_row)(
        object_id=one_row.object_id, kind=one_row.kind, particles=one_row.particles,
        paths=(one_row.paths[0].__class__(1.0, one_row.paths[0].pathstates),),
        global_attrs=one_row.global_attrs, conserved=one_row.conserved,
    )
    split = apply_stern_gerlach(one_row, 0, angle=0.0)
    assert split.n_paths == 2
    assert split.paths[0].weight == pytest.approx(0.75)   # cos^2(30)
    assert split.paths[1].weight == pytest.approx(0.25)   # sin^2(30)
    assert split.paths[0].pathstates[0].spindir == 0.0
    assert split.paths[1].pathstates[0].spindir == 90.0
    # the retag applies to the partner column too
    assert split.paths[0].pathstates[1].spindir == 0.0


def test_analyzer_reweights_two_rows():
    state, pair_id = _emit(45.0, RngState(0).substream("emit"))
    out = apply_stern_gerlach(state.objects[pair_id], 0, angle=0.0)
    assert out.paths[0].weight == pytest.approx(0.5)
    assert out.paths[1].weight == pytest.approx(0.5)
    assert out.paths[0].pathstates[0].spindir == 0.0
    assert out.paths[1].pathstates[0].spindir == 90.0
    assert math.isclose(out.amplitude_norm(), 1.0, abs_tol=1e-12)


def test_analyzer_rejects_tall_tables():
    state, pair_id = _emit(0.0, RngState(0).substream("emit"))
    pair = state.objects[pair_id]
    tall = type(pair)(
        object_id="tall", kind=pair.kind, particles=pair.particles,
        paths=(pair.paths[0], pair.paths[1], pair.paths[0].__class__(0.0, pair.paths[0].pathstates)),
    )
    with pytest.raises(ConfigError):
        apply_stern_gerlach(tall, 0, 0.0)


def test_cached_blocks_are_read_only():
    blocks = (make_pump("pump-1"), make_screen("screen-a", WING_A_CELL))
    for obj in blocks:
        with pytest.raises(TypeError):
            obj.conserved["energy"] = 99.0
        with pytest.raises(TypeError):
            obj.global_attrs["position"] = WING_A_CELL
    assert _one_trial(0.0, 0.0, 30.0, RngState(0).substream(0)) in {(True, True), (False, False)}
    assert [obj.conserved["energy"] for obj in blocks] == [0.5, 1.0]


def test_screen_claim_collapses_partner():
    rng = RngState(3).substream("trial")
    state, policy, pair_id = _drifted_pair(25.0, 0.0, 10.0, rng)
    claim(state, policy, pair_id, "screen-a", rng)
    case_a = policy.cases["screen-a"]
    survivor = state.objects[pair_id]
    assert survivor.n_paths == 1 and len(survivor.particles) == 1
    expect = 25.0 if case_a else 115.0
    assert survivor.paths[0].pathstates[0].spindir == expect
    # wing A's detection joined the object set
    assert any(oid.startswith("out-") for oid in state.objects)


def test_trial_conserves_energy():
    rng = RngState(8).substream("trial")
    state, policy, pair_id = _drifted_pair(0.0, 30.0, 77.0, rng)
    claim(state, policy, pair_id, "screen-a", rng)
    claim(state, policy, pair_id, "screen-b", rng)
    # 2 pumps (0.5 each) + 2 screens (1.0 each) in, all still on the books
    assert total_conserved(state.objects.values())["energy"] == pytest.approx(3.0)


# --- full trials ----------------------------------------------------------------------

def _one_trial(angle_a, angle_b, theta, rng):
    """One centralized trial at emission direction theta."""
    policy = BellRoundPolicy(angle_a, angle_b, theta, rng)
    policy.causal_order(rng)
    return policy.outcome()


def test_trial_forced_outcomes():
    # theta = 0, analyzer a = 0: case1 certain; analyzer b = 90 after the
    # collapse tags the partner spin 0: case1 impossible.
    for seed in range(6):
        assert _one_trial(0.0, 90.0, 0.0, RngState(seed).substream("t")) == (True, False)


@given(st.floats(min_value=0.0, max_value=360.0, allow_nan=False),
       st.integers(min_value=0, max_value=10 ** 6))
@settings(max_examples=120, deadline=None)
def test_aligned_analyzers_always_agree(theta, seed):
    # Exact agreement, any emission direction, any draw sequence.
    case_a, case_b = _one_trial(40.0, 40.0, theta, RngState(seed).substream("t"))
    assert case_a == case_b


def test_trial_is_deterministic():
    one = _one_trial(0.0, 30.0, 123.4, RngState(5).substream(7))
    two = _one_trial(0.0, 30.0, 123.4, RngState(5).substream(7))
    assert one == two


def test_run_bell_experiment_statistics():
    cfg = BellConfig(angle_a=0.0, angle_b=30.0, trials=4000, seed=1)
    res = run_bell_experiment(cfg)
    assert res.stats.n == 4000
    # E(0, 30) = 0.5; se ~ 0.014 at 4000 trials
    assert res.stats.correlation == pytest.approx(0.5, abs=0.05)
    d = res.to_json_dict()
    assert d["schema_version"] == 1
    assert d["experiment"] == "bell"
    assert d["params"]["angle_b"] == 30.0
    assert sum(d["counts"].values()) == 4000
    assert math.isclose(sum(d["frequencies"].values()), 1.0, abs_tol=1e-12)


def test_bell_config_validation():
    with pytest.raises(ConfigError):
        BellConfig(0.0, 0.0, trials=0)
    with pytest.raises(ConfigError):
        BellConfig(0.0, 0.0, trials=1, runtime="distributed")
    with pytest.raises(ConfigError):
        BellConfig(0.0, 0.0, trials=1, spindir_policy="gaussian")
    for bad in (math.nan, math.inf, -math.inf):
        with pytest.raises(ConfigError, match="angle_a"):
            BellConfig(bad, 0.0, trials=1)
        with pytest.raises(ConfigError, match="angle_b"):
            BellConfig(0.0, bad, trials=1)
        with pytest.raises(ConfigError, match="spindir_policy"):
            BellConfig(0.0, 0.0, trials=1, spindir_policy=bad)
    BellConfig(0.0, 0.0, trials=1, spindir_policy=45.0)
    for bad in (2.5, True, "10"):
        with pytest.raises(ConfigError, match="bell.trials must be an int"):
            BellConfig(0.0, 30.0, trials=bad)
    with pytest.raises(ConfigError, match="bell.scheduler"):
        BellConfig(0.0, 30.0, 10, scheduler="bogus")
    # a seed that is not an int would run truncated and echo as given
    for bad in (1.5, True, "x", None):
        with pytest.raises(ConfigError, match="^bell.seed must be an int"):
            BellConfig(0.0, 30.0, 10, seed=bad)
    # an angle must be a real number, and a bool is not one
    for bad in (True, "0", None, 1j):
        with pytest.raises(ConfigError, match="^bell.angle_a must be a finite angle"):
            BellConfig(bad, 30.0, 10)
        with pytest.raises(ConfigError, match="^bell.angle_b must be a finite angle"):
            BellConfig(0.0, bad, 10)
        with pytest.raises(ConfigError, match="^bell.spindir_policy must be 'uniform' or a finite angle"):
            BellConfig(0.0, 30.0, 10, spindir_policy=bad)
    BellConfig(0, 30, 10, seed=3, spindir_policy=45)  # ints are angles


def test_draw_emission_direction():
    assert draw_emission_direction(17.5, RngState(0)) == 17.5
    rng = RngState(2)
    xs = [draw_emission_direction("uniform", rng) for _ in range(500)]
    assert all(0.0 <= x < 360.0 for x in xs)
    assert abs(sum(xs) / len(xs) - 180.0) < 15.0


# --- light drivers -----------------------------------------------------------------

def test_spin_trials_certain_cases():
    assert run_spin_trials(0.0, 500, seed=4) == (500, 0)
    assert run_spin_trials(90.0, 500, seed=4) == (0, 500)
    with pytest.raises(ConfigError):
        run_spin_trials(0.0, 0)


def test_spin_trials_proportions():
    n1, n2 = run_spin_trials(30.0, 20000, seed=2)
    assert n1 + n2 == 20000
    assert abs(n1 / 20000 - 0.75) < 0.01  # se ~ 0.003


def test_spin_trials_match_full_pipeline():
    # The Bernoulli driver and the analyzer+screen pipeline draw from the
    # same distribution: P(case1) = cos^2(spin - angle).
    n1, _ = run_spin_trials(30.0, 3000, seed=9)
    cfg = BellConfig(angle_a=30.0, angle_b=0.0, trials=3000, seed=9, spindir_policy=0.0)
    res = run_bell_experiment(cfg)
    # wing A marginal vs driver proportion; allow ~4 joint standard errors
    assert abs(res.stats.marginal_a() - n1 / 3000) < 0.035


def test_light_drivers_check_trial_counts():
    for bad in (2.5, True, 0, -5, "10"):
        with pytest.raises(ConfigError, match="^spin.trials must be an int > 0, got .*$"):
            run_spin_trials(30.0, bad)
        with pytest.raises(ConfigError, match="^unentangled.trials must be an int > 0, got .*$"):
            UnentangledConfig(0.0, 30.0, trials=bad)


def test_unentangled_config_needs_finite_angles():
    # reducing an infinite angle would raise ValueError from math.fmod
    for name in ("spindir_a", "spindir_b", "angle_a", "angle_b"):
        for bad in (math.nan, math.inf, -math.inf):
            with pytest.raises(ConfigError, match=f"^unentangled.{name} must be finite"):
                UnentangledConfig(**{"spindir_a": 0.0, "spindir_b": 30.0, name: bad})


def test_unentangled_pair_reduces_huge_angles():
    # 1e20 degrees is 280: unreduced, 1e20 - 30 rounds the analyzer angle away
    huge, plain = (
        run_unentangled_pair(UnentangledConfig(spin, 0.0, angle_a=30.0, trials=4000, seed=3))
        for spin in (1e20, 280.0)
    )
    assert huge.counts() == plain.counts()
    assert huge.marginal_a() == pytest.approx(spin_probability(250.0), abs=0.02)  # 0.117


def test_unentangled_pair_product_law():
    cfg = UnentangledConfig(spindir_a=30.0, spindir_b=60.0, trials=20000, seed=3)
    stats = run_unentangled_pair(cfg)
    # independent wings: P(1,1) = cos^2(30) * cos^2(60) = 0.1875
    assert stats.frequencies()["pp"] == pytest.approx(0.1875, abs=0.01)
    assert stats.marginal_a() == pytest.approx(0.75, abs=0.012)
    assert stats.marginal_b() == pytest.approx(0.25, abs=0.012)


# --- statistics ------------------------------------------------------------------------

def test_joint_stats_arithmetic():
    stats = JointStats(n_pp=40, n_pm=10, n_mp=20, n_mm=30)
    assert stats.n == 100
    assert stats.p_same == pytest.approx(0.70)
    assert stats.correlation == pytest.approx(0.40)
    assert stats.marginal_a() == pytest.approx(0.50)
    assert stats.marginal_b() == pytest.approx(0.60)
    assert stats.counts() == {"pp": 40, "pm": 10, "mp": 20, "mm": 30}
    assert stats.tv_distance(stats) == 0.0
    other = JointStats(n_pp=100, n_pm=0, n_mp=0, n_mm=0)
    assert stats.tv_distance(other) == pytest.approx(0.60)
    assert stats.correlation_se == pytest.approx(math.sqrt((1 - 0.16) / 100))


def test_joint_stats_record():
    stats = JointStats()
    stats.record(True, True)
    stats.record(True, False)
    stats.record(False, True)
    stats.record(False, False)
    assert stats.counts() == {"pp": 1, "pm": 1, "mp": 1, "mm": 1}


# --- the bound -------------------------------------------------------------------------

def test_model_correlation_table():
    assert model_correlation(0.0, 0.0) == 1.0
    assert model_correlation(0.0, 30.0) == pytest.approx(0.5)
    assert model_correlation(0.0, 60.0) == pytest.approx(-0.5)
    assert model_correlation(0.0, 90.0) == -1.0


def test_model_correlation_reduces_huge_angles():
    # 1e20 degrees is 280 modulo 360
    assert _norm_angle(1e20) == 280.0
    assert model_correlation(1e20, 30.0) == model_correlation(280.0, 30.0)
    assert model_correlation(30.0, -1e20) == model_correlation(30.0, 80.0)


@pytest.mark.parametrize("bad", [math.inf, -math.inf, math.nan])
def test_model_correlation_needs_finite_angles(bad):
    # an infinite angle made math.fmod raise a bare ValueError; nan gave nan
    for args in ((bad, 0.0), (0.0, bad)):
        with pytest.raises(ConfigError, match="^model_correlation angles must be finite"):
            model_correlation(*args)


@pytest.mark.parametrize("bad", [math.inf, -math.inf, math.nan])
def test_lhv_model_margins_need_finite_angles(bad):
    report = LhvReport(angles=(0.0, bad, 30.0), form="identical")
    with pytest.raises(ConfigError, match="must be finite"):
        report.model_margins()


@pytest.mark.parametrize("bad", [math.inf, -math.inf, math.nan])
def test_lhv_oracle_needs_finite_angles(bad):
    for angles in ((bad, 0.0, 30.0), (0.0, 30.0, bad)):
        with pytest.raises(ConfigError, match="^lhv.angles must be finite"):
            lhv_oracle(angles)


@pytest.mark.parametrize("angles", [(), (0, 0), (0, 30, 60, 90)])
def test_lhv_oracle_needs_three_angles(angles):
    # two angles gave a report with angles=(0.0, 0.0)
    with pytest.raises(ConfigError, match=r"^lhv\.angles must be three angles, got"):
        lhv_oracle(angles)


def test_evaluate_bell_forms():
    assert evaluate_bell(0.5, -0.5, 0.5, "identical") == pytest.approx(-0.5)
    assert evaluate_bell(0.5, -0.5, 0.5, "anticorrelated") == pytest.approx(0.5)
    with pytest.raises(ConfigError):
        evaluate_bell(0.0, 0.0, 0.0, "sideways")


def test_lhv_oracle_landscape():
    report = lhv_oracle((0.0, 30.0, 60.0))
    assert report.n_strategies == 64
    assert len(report.consistent) == 8
    # Every strategy reproducing the perfect correlations respects the bound.
    assert all(s.margin >= 0.0 for s in report.consistent)
    assert report.classical_min_margin == 0.0
    # Dropping the consistency requirement allows violation, down to -2.
    assert report.unconstrained_min_margin == -2.0
    model = report.model_margins()
    assert model["margin"] == pytest.approx(-0.5)
    assert model["exceeds_bound_by"] == pytest.approx(0.5)
    d = report.to_json_dict()
    assert d["n_form_consistent"] == 8
    assert d["classical_min_margin"] == 0.0


def test_lhv_oracle_anticorrelated_form():
    report = lhv_oracle((0.0, 30.0, 60.0), form="anticorrelated")
    assert report.n_strategies == 64
    assert len(report.consistent) == 8
    assert all(s.margin >= 0.0 for s in report.consistent)
    assert all(s.wing_b == tuple(-x for x in s.wing_a) for s in report.consistent)


@given(st.tuples(st.floats(0, 360), st.floats(0, 360), st.floats(0, 360)))
@settings(max_examples=50, deadline=None)
def test_lhv_consistent_strategies_never_violate(angles):
    # The classical bound is angle-independent for form-consistent strategies.
    report = lhv_oracle(angles)
    assert report.classical_min_margin >= 0.0


def test_bell_scan_structure():
    scan = bell_scan((0.0, 30.0, 60.0), trials=800, seed=0)
    assert set(scan.results) == {"ab", "ac", "bc"}
    assert scan.margin() == pytest.approx(-0.5, abs=0.15)
    d = scan.to_json_dict()
    assert d["experiment"] == "bell-scan"
    assert d["classical_min_margin"] == 0.0
    assert d["pairs"]["ab"]["params"]["seed"] == 0
    assert d["pairs"]["bc"]["params"]["seed"] == 2


def test_bell_scan_checks_form_before_any_trial(monkeypatch):
    runs = []
    monkeypatch.setattr(bell, "run_bell_experiment", lambda cfg: runs.append(cfg))
    with pytest.raises(ConfigError, match="form must be one of"):
        bell_scan((0.0, 30.0, 60.0), trials=10, form="bogus")
    assert runs == []


@pytest.mark.parametrize(
    "angles, spindir, counts",
    [
        ((0.0, 30.0), "uniform", {"pp": 182, "pm": 61, "mp": 71, "mm": 186}),
        ((10.0, 75.0), 33.0, {"pp": 72, "pm": 363, "mp": 49, "mm": 16}),
    ],
)
def test_centralized_counts_are_pinned(angles, spindir, counts):
    # exact tallies of the original centralized driver; the claim-based
    # trial must reproduce every draw
    cfg = BellConfig(*angles, trials=500, seed=3, spindir_policy=spindir)
    assert run_bell_experiment(cfg).stats.counts() == counts


@pytest.mark.parametrize("runtime, trials", [("centralized", 400), ("refined", 150)])
def test_huge_analyzer_angle_measures_its_reduced_angle(runtime, trials):
    # 1e20 degrees is 280 degrees exactly; unreduced, s - 1e20 rounds the
    # spin away and 1e20 + 90 the quarter turn
    assert math.fmod(1e20, 360.0) == 280.0
    huge, plain = (
        run_bell_experiment(BellConfig(a, 0.0, trials=trials, seed=3, runtime=runtime)).stats
        for a in (1e20, 280.0)
    )
    assert huge.counts() == plain.counts()
    assert huge.correlation < -0.8  # E(280, 0) = cos 560 = -0.94


def test_analyzer_reduces_the_angle_once():
    state, pair_id = _emit(20.0, RngState(0).substream("emit"))
    pair = state.objects[pair_id]
    huge = apply_stern_gerlach(pair, 0, 1e20 + 720.0 * 2 ** 40)
    assert huge == apply_stern_gerlach(pair, 0, 280.0)
    assert [p.pathstates[0].spindir for p in huge.paths] == [280.0, 10.0]


# --- the run's memos -----------------------------------------------------------------

def _counting_detect(monkeypatch):
    calls = []
    original = interaction.determine_potential_interactions

    def counted(a, b):
        calls.append((a.object_id, b.object_id))
        return original(a, b)

    monkeypatch.setattr(interaction, "determine_potential_interactions", counted)
    return calls


class _DetectionRecord(BellRoundPolicy):
    """A Bell policy that records, for each first-screen claim, its screen
    and its pair's zero-weight pattern, and whether the claim ran candidate
    detection (calls is the list _counting_detect fills)."""

    def __init__(self, calls, *args):
        super().__init__(*args)
        self.calls, self.met = calls, []

    def candidates(self, state, a_id, b_id):
        before = len(self.calls)
        found = super().candidates(state, a_id, b_id)
        if self._first_screen:
            zeros = tuple(path.weight == 0.0 for path in state.objects[self._pair_id].paths)
            self.met.append(((self._screen_id, zeros), len(self.calls) > before))
        return found


@pytest.mark.parametrize("runtime", ["centralized", "refined"])
def test_source_candidates_are_detected_once_per_run(monkeypatch, runtime):
    # THETAS in turn give the analyzed pair at (30, 75) every zero-weight pattern
    for scheduler in ["round-robin"] + (["randomized"] if runtime == "refined" else []):
        calls = _counting_detect(monkeypatch)
        thetas = itertools.cycle(THETAS)
        monkeypatch.setattr(bell, "draw_emission_direction", lambda spindir, rng: next(thetas))
        policy = _DetectionRecord(calls, 30.0, 75.0, "uniform", RngState(1))
        outcomes = list(run_trials(policy, 60, 1, runtime, scheduler))
        assert [pair for pair in calls if pair[0] in PUMP_IDS] == [PUMP_IDS]
        # a first-screen claim detects on the first trial that meets its
        # screen and zero-weight pattern, and on no later one
        seen = set()
        for key, detected in policy.met:
            assert detected == (key not in seen)
            seen.add(key)
        assert len(policy.met) == 60 and len(seen) >= 3
        # the memo moves no draw: a fresh policy per trial gives the same outcomes
        thetas = itertools.cycle(THETAS)
        root = RngState(1)
        for trial, outcome in enumerate(outcomes):
            rng = root.substream(trial)
            fresh = BellRoundPolicy(30.0, 75.0, "uniform", rng)
            if runtime == "centralized":
                fresh.causal_order(rng)
            else:
                RefinedRuntime(fresh.start(rng), fresh, rng, scheduler).run(max_rounds=16)
            assert fresh.outcome() == outcome
        monkeypatch.undo()


def test_other_pumps_are_never_served_the_memo(monkeypatch):
    calls = _counting_detect(monkeypatch)
    policy = BellRoundPolicy(0.0, 0.0, 0.0, RngState(0))

    def source_candidates(*pumps):
        state = fresh_state()
        for pump in pumps:
            state.add_object(pump)
        policy.prepare(state, *PUMP_IDS)
        return policy.candidates(state, *PUMP_IDS)

    cached = [make_pump(pump_id) for pump_id in PUMP_IDS]
    first = source_candidates(*cached)
    assert source_candidates(*cached) == first and len(calls) == 1
    moved = [make_pump(pump_id, WING_B_CELL) for pump_id in PUMP_IDS]
    (candidate,), _ = source_candidates(*moved)
    assert candidate.position == WING_B_CELL and len(calls) == 2
    # an equal pump that is another object is recomputed too, not trusted
    twin = make_pump.__wrapped__("pump-2")
    assert twin == cached[1] and twin is not cached[1]
    assert source_candidates(cached[0], twin) == first and len(calls) == 3
    # the cached pumps again: their entry is still in the memo
    assert source_candidates(*cached) == first and len(calls) == 3


def test_drift_memo_does_not_grow_with_trials():
    bell._drifted.cache_clear()
    run_bell_experiment(BellConfig(0.0, 30.0, trials=20, seed=2))
    few = bell._drifted.cache_info().currsize
    run_bell_experiment(BellConfig(0.0, 30.0, trials=400, seed=2))
    run_bell_experiment(BellConfig(0.0, 30.0, trials=40, seed=3, runtime="refined"))
    assert bell._drifted.cache_info().currsize == few == 2  # one cell set per column
    assert bell._drifted.cache_info().maxsize is not None


def test_fixed_emission_direction_draws_nothing():
    rng = RngState(0)
    policy = BellRoundPolicy(0.0, 30.0, 33.0, rng)
    state = fresh_state()
    policy.prepare(state, "pump-1", "pump-2")
    assert policy.table_for(state, "pump-1", "pump-2", None) is not None
    assert policy.theta == 33.0 and rng.draws == 0


# --- the screen memos ---------------------------------------------------------------


def _same(got, fresh):
    # == treats -0.0 and 0.0 alike, and the analyzer's ports hold amplitudes
    # such as (0.5-0j); repr tells them apart
    assert got == fresh and repr(got) == repr(fresh)


class _CheckedPolicy(BellRoundPolicy):
    """A Bell policy that checks each claim it serves against a fresh
    computation on the incoming objects: the source effect against
    interaction_effect on this trial's pair_table; on a screen claim, the
    conserved totals before and after prepare, the analyzed pair against
    apply_stern_gerlach, its candidates and selection probabilities
    against detection on that fresh object, and the effect against
    interaction_effect on the fresh inputs.  served counts the first-screen
    claims served from the analyzed template.  other_table swaps the
    screens' outcome table for an uncached one with other products."""

    other_table = False

    def __init__(self, *args):
        super().__init__(*args)
        self.claims = self.reused = self.sources = self.templated = self.served = 0
        self._returned = []  # every effect returned, so a repeat is seen by identity
        self._fresh = None

    def prepare(self, state, a_id, b_id):
        incoming = dict(state.objects)
        super().prepare(state, a_id, b_id)
        self._fresh = None
        if self._screen_id is not None:
            # the runtime's ledger reads its totals before prepare, and the
            # effect's own check reads them after: the analyzer keeps them
            prepared = total_conserved([state.objects[a_id], state.objects[b_id]])
            assert prepared == total_conserved([incoming[a_id], incoming[b_id]])
            pair_id = self._pair_id
            fresh = apply_stern_gerlach(incoming[pair_id], 0, self.angles[self._screen_id])
            _same(state.objects[pair_id], fresh)
            self._fresh = {**state.objects, pair_id: fresh}
            # served from the analyzed template: this trial's drifted pair
            self.templated += incoming[pair_id] is self._drifted[1]

    def candidates(self, state, a_id, b_id):
        found, probabilities = super().candidates(state, a_id, b_id)
        if self._fresh is not None:
            fresh = interaction.determine_potential_interactions(self._fresh[a_id], self._fresh[b_id])
            _same(found, fresh)
            fresh_probabilities = interaction._selection_probabilities(fresh)
            if isinstance(probabilities, Cumulative):
                fresh_sums = Cumulative(fresh_probabilities)
                _same((probabilities.sums, probabilities.total), (fresh_sums.sums, fresh_sums.total))
            else:
                _same(probabilities, fresh_probabilities)
        return found, probabilities

    def table_for(self, state, a_id, b_id, candidate):
        table = super().table_for(state, a_id, b_id, candidate)
        if self.other_table and self._screen_id is not None:
            (row,) = table.rows
            table = OutcomeTable(table.name, (OutcomeRow((ParticleInfo("other", 0.0),), row.pathstates, 1.0),))
        return table

    def effect(self, a, b, chosen, table, tag):
        got = super().effect(a, b, chosen, table, tag)
        if self._source:
            _same(got, interaction_effect(a, b, chosen, pair_table(self.theta), str(tag)))
            self.sources += 1
        if self._fresh is not None:
            fresh = interaction_effect(self._fresh[a.object_id], self._fresh[b.object_id], chosen, table, str(tag))
            _same(got, fresh)
            self.claims += 1
            self.served += self._template is not None
            if any(got is seen for seen in self._returned):
                self.reused += 1
            else:
                self._returned.append(got)
        return got


SCHEDULES = [("centralized", "round-robin", 200), ("refined", "round-robin", 60), ("refined", "randomized", 60)]


@pytest.mark.parametrize("runtime, scheduler, trials", SCHEDULES)
@pytest.mark.parametrize("spindir", ["uniform", 0.0])
@pytest.mark.parametrize("angles", [(0.0, 30.0), (0.0, 90.0), (30.0, 30.0), (45.0, 45.0), (1e20, 30.0)])
def test_screen_memo_hits_equal_fresh_computations(angles, spindir, runtime, scheduler, trials):
    policy = _CheckedPolicy(*angles, spindir, RngState(5))
    stats = JointStats()
    for outcome in run_trials(policy, trials, 5, runtime, scheduler):
        stats.record(*outcome)
    assert policy.claims == 2 * trials and policy.sources == policy.templated == trials
    # misses: at most 4 collapsed rows and 4 survivors (2 candidates each) per screen
    assert policy.reused >= 2 * trials - 2 * (4 + 4 * 2)
    cfg = BellConfig(*angles, trials=trials, seed=5, spindir_policy=spindir, runtime=runtime, scheduler=scheduler)
    assert run_bell_experiment(cfg).stats.counts() == stats.counts()


@pytest.mark.parametrize("spindir", ["uniform", 0.0])
def test_screen_memos_tell_apart_what_the_effect_reads(spindir):
    # trials that differ from the ones before only in the tag, the screen
    # objects, the outcome table or the pair's particles must each be
    # computed afresh; _CheckedPolicy compares every claim with a fresh one.
    # The two-row screen-b is another screen object under the same id
    policy = _CheckedPolicy(0.0, 30.0, spindir, RngState(0))
    heavy = {
        screen_id: make_screen.__wrapped__(screen_id, cell, 2.0)
        for screen_id, cell in (("screen-a", WING_A_CELL), ("screen-b", WING_B_CELL))
    }
    plain_b = make_screen("screen-b", WING_B_CELL)
    two_rows = dataclasses.replace(plain_b, paths=tuple(dataclasses.replace(plain_b.paths[0], amplitude=x) for x in (0.6, 0.8)))
    light = (ParticleInfo("half", 0.25), ParticleInfo("half", 0.75))
    for trial in range(60):
        rng = RngState(0).substream(trial)
        policy.new_trial(rng)
        state = bell_world()
        if trial % 4 == 1:
            state.objects.update(heavy)
        elif trial % 6 == 5:  # the survivor meets a screen with other candidates
            state.objects["screen-b"] = two_rows
        policy.other_table = trial % 5 == 2
        _, pair = claim(state, policy, *PUMP_IDS, rng)
        moved = policy.propagate(state, pair.object_id)
        if trial % 7 == 3:
            moved = dataclasses.replace(moved, particles=light)
        state.objects[pair.object_id] = moved
        state.events += trial % 3  # moves the screens' tags
        for screen_id in ("screen-a", "screen-b"):
            claim(state, policy, pair.object_id, screen_id, rng)
    assert policy.claims == 120 and policy.reused > 20


@pytest.mark.parametrize("runtime, scheduler", [(r, s) for r, s, _ in SCHEDULES])
def test_screen_memos_plateau(runtime, scheduler):
    policy = BellRoundPolicy(0.0, 30.0, "uniform", RngState(2))
    sizes = []
    for seed in (2, 3):
        for _ in run_trials(policy, 150, seed, runtime, scheduler):
            pass
        sizes.append(len(policy.memo))
    assert sizes[0] == sizes[1] < interaction.MAX_MEMO
    # analyzed survivors by the angle of the screen they meet
    per_screen = Counter(key[2] for key in policy.memo if key[0] == "analyzed")
    assert set(per_screen.values()) == {4}  # the other screen's case, times the amplitude's sign
    assert len(per_screen) == (2 if scheduler == "randomized" else 1)


def test_screen_memos_stay_bounded(monkeypatch):
    monkeypatch.setattr(interaction, "MAX_MEMO", 10)
    rng = RngState(4).substream("bounded")
    state, _, pair_id = _drifted_pair(0.0, 30.0, 10.0, rng)
    policy = _CheckedPolicy(0.0, 30.0, 10.0, rng)
    claim(state, policy, pair_id, "screen-a", rng)
    survivor, sizes = state.objects[pair_id], []
    for spin in range(48):
        # the survivor at another spin: a new object for the memo each time,
        # which adds its analyzed object, candidates and effect
        state = fresh_state()
        state.add_object(reduce_to_path(apply_stern_gerlach(survivor, 0, float(spin)), 0))
        state.add_object(make_screen("screen-b", WING_B_CELL))
        claim(state, policy, pair_id, "screen-b", rng)
        sizes.append(len(policy.memo))
    # the memo filled up to its bound and was cleared there
    assert max(sizes) == 10 and min(sizes) <= 3
    assert policy.claims == 1 + 48


def test_screen_memos_are_per_run():
    assert BellRoundPolicy.memo is None  # no memo lives on the class
    first, second = (BellRoundPolicy(0.0, 30.0, "uniform", RngState(1)) for _ in range(2))
    for policy in (first, second):
        for _ in run_trials(policy, 100, 1, "centralized", "round-robin"):
            pass

    def built(policy):
        """What the memo built: analyzed objects and templates, candidate lists, Cumulatives, effects."""
        parts = [value if key[0] == "candidates" else (value,) for key, (_, value) in policy.memo.items()]
        return {id(part) for values in parts for part in values}

    assert first.memo is not second.memo and len(first.memo) == len(second.memo)
    assert {key[0] for key in first.memo} == {"candidates", "first-candidates", "first-effect", "analyzed", "effect", "ports"}
    assert built(first) and not built(first) & built(second)


# --- the per-run templates ------------------------------------------------------------

# multiples of 90 from an analyzer at 30 or 75 (a port of zero weight), huge
# directions and generic ones; the first is of zero weight for screen-a at 30
THETAS = [30.0, 47.0, 120.0, 75.0, 165.0, 0.0, 90.0, 1e17, 1e20, -1e20, 22.5, 300.0, 1e-9, 210.0, 345.0]


@pytest.mark.parametrize("runtime, scheduler, trials", SCHEDULES)
@pytest.mark.parametrize("spindir", ["forced", "uniform", 1e17])
@pytest.mark.parametrize("angles", [(30.0, 75.0), (0.0, 90.0), (1e20, 30.0)])
def test_templates_serve_exactly_what_a_trial_builds(monkeypatch, angles, spindir, runtime, scheduler, trials):
    # _CheckedPolicy compares every source effect and every analyzed pair
    # with a fresh computation, by == and repr; "forced" runs THETAS in turn,
    # so the templates are built at a zero-weight theta and then serve others
    if spindir == "forced":
        thetas = itertools.cycle(THETAS)
        monkeypatch.setattr(bell, "draw_emission_direction", lambda policy, rng: next(thetas))
    policy = _CheckedPolicy(*angles, spindir, RngState(7))
    outcomes = list(run_trials(policy, trials, 7, runtime, scheduler))
    assert policy.sources == policy.templated == policy.served == trials and policy.claims == 2 * trials
    # one analyzed template per angle a first screen was met at
    templates = [key for key in policy.memo if key[0] == "ports"]
    assert len(templates) == (2 if scheduler == "randomized" and angles[0] != angles[1] else 1)
    # and the templates move no outcome: a fresh policy per trial gives the same
    if spindir == "forced":
        thetas = itertools.cycle(THETAS)
    root = RngState(7)
    for trial, outcome in enumerate(outcomes):
        rng = root.substream(trial)
        fresh = BellRoundPolicy(*angles, spindir, rng)
        if runtime == "centralized":
            fresh.causal_order(rng)
        else:
            RefinedRuntime(fresh.start(rng), fresh, rng, scheduler).run(max_rounds=16)
        assert fresh.outcome() == outcome


def test_a_template_built_at_a_zero_weight_theta_serves_the_next(monkeypatch):
    # at theta 30 the analyzer at 30 leaves the case2 port at weight 0, so
    # the first screen has one candidate; at 47 the same templates serve two
    thetas = iter([30.0, 47.0, 120.0, 47.0])
    monkeypatch.setattr(bell, "draw_emission_direction", lambda policy, rng: next(thetas))
    policy = _CheckedPolicy(30.0, 75.0, "uniform", RngState(0))
    found = []
    for trial in range(4):
        rng = RngState(0).substream(trial)
        state = bell_world()
        policy.new_trial(rng)
        _, pair = claim(state, policy, *PUMP_IDS, rng)
        drifted = state.objects[pair.object_id] = policy.propagate(state, pair.object_id)
        policy.prepare(state, pair.object_id, "screen-a")
        found.append(len(policy.candidates(state, pair.object_id, "screen-a")[0]))
        if trial == 0:
            built = {key: entry[1] for key, entry in policy.memo.items()}
        state.objects[pair.object_id] = drifted  # the claim analyzes the drifted pair again
        claim(state, policy, pair.object_id, "screen-a", rng)
    assert found == [1, 2, 1, 2]
    assert policy.sources == policy.served == 4 and policy.templated == 8  # the test's prepare and the claim's
    # the templates of the first trial served every later one
    for key, value in built.items():
        assert policy.memo[key][1] is value


def test_only_the_drift_of_this_trials_emission_is_served_the_template():
    # a pair at the source that the source effect did not emit this trial
    # (here: other particles, or the last trial's emission) is drifted and
    # analyzed afresh; _CheckedPolicy compares the source effect and both
    # screens with fresh ones, and the last three trials move the source's tag
    policy = _CheckedPolicy(0.0, 30.0, "uniform", RngState(1))
    light = (ParticleInfo("half", 0.25), ParticleInfo("half", 0.75))
    last = None
    for trial in range(6):
        rng = RngState(1).substream(trial)
        policy.new_trial(rng)
        state = bell_world()
        state.events += trial // 3
        _, pair = claim(state, policy, *PUMP_IDS, rng)
        if trial % 3 == 1:
            state.objects[pair.object_id] = dataclasses.replace(pair, particles=light)
        elif trial % 3 == 2:
            state.objects[pair.object_id] = last
        last = pair
        state.objects[pair.object_id] = policy.propagate(state, pair.object_id)
        for screen_id in ("screen-a", "screen-b"):
            claim(state, policy, pair.object_id, screen_id, rng)
    assert policy.sources == 6 and policy.templated == policy.served == 2 and policy.claims == 12


def _first_screen_entries(policy) -> set:
    return {key for key in policy.memo if key[0] in ("first-candidates", "first-effect")}


def test_a_pair_placed_by_hand_gets_fresh_candidates_and_a_fresh_effect(monkeypatch):
    # an equal copy of this trial's drifted pair is another object, so its
    # first screen detects and collapses afresh and stores neither; even
    # trials place the drift itself, which the template serves.
    # _CheckedPolicy compares both screens with fresh computations
    built, served = Counter(), Counter()
    for name in ("_candidates", "interaction_effect"):
        step = getattr(bell, name)
        monkeypatch.setattr(bell, name, lambda *args, _step=step, _name=name: built.update([_name]) or _step(*args))
    policy = _CheckedPolicy(0.0, 30.0, 10.0, RngState(2))
    for trial in range(8):
        rng = RngState(2).substream(trial)
        policy.new_trial(rng)
        state = bell_world()
        _, pair = claim(state, policy, *PUMP_IDS, rng)
        drifted = policy.propagate(state, pair.object_id)
        placed = dataclasses.replace(drifted)
        assert placed == drifted and placed is not drifted
        state.objects[pair.object_id] = placed if trial % 2 else drifted
        before, entries = built.copy(), _first_screen_entries(policy)
        for screen_id in ("screen-a", "screen-b"):
            claim(state, policy, pair.object_id, screen_id, rng)
        if trial % 2:
            assert built - before == Counter(["_candidates", "interaction_effect"])
            assert _first_screen_entries(policy) == entries
        else:
            served.update(built - before)
    assert policy.claims == 16 and policy.templated == policy.served == 4
    # the served claims built only what they stored: one candidate list and
    # one effect per collapsed row met
    entries = Counter(key[0] for key in _first_screen_entries(policy))
    assert served == Counter({"_candidates": entries["first-candidates"], "interaction_effect": entries["first-effect"]})
    assert entries["first-candidates"] == 1 and 1 <= entries["first-effect"] <= 2


def test_unit_amplitudes_that_differ_in_a_zeros_sign_get_their_own_entries(monkeypatch):
    # ports whose imaginary zeros differ in sign collapse to unit amplitudes
    # such as (1+0j) and (1-0j): equal by ==, told apart by repr, so each
    # needs its own effect; _CheckedPolicy compares every claim with a
    # fresh one by repr.  Odd trials flip the zeros' sign
    original, flip = bell._port_amplitudes, [False]

    def ports(pair, particle_index, up_axis):
        amplitudes = original(pair, particle_index, up_axis)
        return tuple(complex(z.real, -z.imag) for z in amplitudes) if flip[0] else amplitudes

    monkeypatch.setattr(bell, "_port_amplitudes", ports)
    policy = _CheckedPolicy(0.0, 30.0, 10.0, RngState(3))
    for trial, _ in enumerate(run_trials(policy, 40, 3, "centralized", "round-robin")):
        flip[0] = trial % 2 == 0
    assert policy.served == 40
    effects = [key for key in policy.memo if key[0] == "first-effect"]
    # each collapsed row at both signs of its unit amplitude's imaginary zero
    assert sorted((key[6], key[-1]) for key in effects) == [(0, -1.0), (0, 1.0), (1, -1.0), (1, 1.0)]
    assert len({key[:-1] for key in effects}) == 2


def test_a_centralized_trial_copies_at_most_19_records(monkeypatch):
    # 33 before the templates, when the source effect (15 copies with the
    # table) and the analyzed pair (7) were built afresh every trial; now
    # 7 (the template's out collection with its 4 path states' spins set)
    # and 3, with the drift's 7 and the first screen's 2 candidates: 19.
    # A warm trial detects no candidates and collapses no row
    copies, calls = [0], Counter()
    original = state_module._evolve

    def counted(record, **changes):
        copies[0] += 1
        return original(record, **changes)

    for module in (state_module, interaction, bell):
        monkeypatch.setattr(module, "_evolve", counted)
    for module, name in ((interaction, "determine_potential_interactions"), (interaction, "reduce_to_path")):
        step = getattr(module, name)
        monkeypatch.setattr(module, name, lambda *args, _step=step, _name=name: calls.update([_name]) or _step(*args))
    policy = BellRoundPolicy(0.0, 30.0, "uniform", RngState(3))
    per_trial = []
    for _ in run_trials(policy, 300, 3, "centralized", "round-robin"):
        per_trial.append((copies[0], sum(calls.values())))
        copies[0] = 0
        calls.clear()
    (cold_copies, cold_calls), warm = per_trial[0], per_trial[100:]
    assert max(n for n, _ in warm) <= 19 < cold_copies
    assert cold_calls > 0 and all(n == 0 for _, n in warm)


def _drawn_rows(candidates, probabilities) -> dict:
    """{pair row: probability} of a screen claim's draw, read back from a
    Cumulative's running sums when the claim was served one."""
    if isinstance(probabilities, Cumulative):
        sums = (0.0,) + probabilities.sums
        probabilities = [(hi - lo) / probabilities.total for lo, hi in zip(sums, sums[1:])]
    rows = {0: 0.0, 1: 0.0}
    for candidate, p in zip(candidates, probabilities):
        rows[candidate.path_index_1] += p
    return rows


@pytest.mark.parametrize("angles", [(0.0, 30.0), (30.0, 30.0), (45.0, 45.0), (0.0, 90.0), (10.0, 75.0), (1e20, 30.0)])
def test_screen_claims_draw_from_the_exact_spin_probabilities(monkeypatch, angles):
    drawn = []
    original = interaction.select_interaction

    def recording(candidates, rng, probabilities=None):
        drawn.append((candidates, probabilities))
        return original(candidates, rng, probabilities)

    monkeypatch.setattr(interaction, "select_interaction", recording)
    a, b = (_norm_angle(angle) for angle in angles)
    served, seen = 0, []
    for theta in [22.5 * k for k in range(16)] + [1e-9, 89.999999999, 1e20, -40.0]:
        policy = BellRoundPolicy(*angles, theta, RngState(0))  # fresh: its first trial computes every claim
        for trial in range(6):
            drawn.clear()
            policy.causal_order(RngState(0).substream(theta, trial))
            (_, source), first, second = drawn
            p_a = spin_probability(_norm_angle(theta) - a)
            spin = a if policy.cases["screen-a"] else _norm_angle(a + 90.0)  # the partner after collapse
            p_b = spin_probability(spin - b)
            for rows, p in ((_drawn_rows(*first), p_a), (_drawn_rows(*second), p_b)):
                assert abs(rows[0] - p) <= 1e-12 and abs(rows[1] - (1.0 - p)) <= 1e-12
            if any(second[1] is s for s in seen):  # the second screen's sums, served from the memo
                served += 1
            else:
                seen.append(second[1])
    assert served >= 20 * (6 - 2)  # a fixed theta leaves at most two survivors

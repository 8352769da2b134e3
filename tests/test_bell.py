"""Entangled-pair experiment: exact trig, analyzer mechanics, statistics, bounds."""

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qcausal import interaction
from qcausal.engine import RngState
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
    UnentangledConfig,
    apply_stern_gerlach,
    bell_scan,
    bell_trial,
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
from qcausal.interaction import OutcomeRow, OutcomeTable, claim
from qcausal.runtime import RefinedRuntime
from qcausal.state import ParticleInfo, PathState, total_conserved


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

    return OutcomeTable(name="pair-source", rows=(row(theta), row(theta + 90.0)))


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
    assert bell_trial(0.0, 0.0, 30.0, RngState(0).substream(0)) in {(True, True), (False, False)}
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

def test_trial_forced_outcomes():
    # theta = 0, analyzer a = 0: case1 certain; analyzer b = 90 after the
    # collapse tags the partner spin 0: case1 impossible.
    for seed in range(6):
        assert bell_trial(0.0, 90.0, 0.0, RngState(seed).substream("t")) == (True, False)


@given(st.floats(min_value=0.0, max_value=360.0, allow_nan=False),
       st.integers(min_value=0, max_value=10 ** 6))
@settings(max_examples=120, deadline=None)
def test_aligned_analyzers_always_agree(theta, seed):
    # Exact agreement, any emission direction, any draw sequence.
    case_a, case_b = bell_trial(40.0, 40.0, theta, RngState(seed).substream("t"))
    assert case_a == case_b


def test_trial_is_deterministic():
    one = bell_trial(0.0, 30.0, 123.4, RngState(5).substream(7))
    two = bell_trial(0.0, 30.0, 123.4, RngState(5).substream(7))
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


@pytest.mark.parametrize("runtime", ["centralized", "refined"])
def test_source_candidates_are_detected_once_per_run(monkeypatch, runtime):
    calls = _counting_detect(monkeypatch)
    cfg = BellConfig(0.0, 30.0, trials=60, seed=1, runtime=runtime)
    counts = run_bell_experiment(cfg).stats.counts()
    assert [pair for pair in calls if pair[0] in PUMP_IDS] == [PUMP_IDS]
    if runtime == "centralized":
        assert len(calls) == 1 + 2 * 60  # the source once, both screens every trial
    monkeypatch.undo()
    # the memo moves no draw: a fresh policy per trial gives the same tallies
    root, stats = RngState(1), bell.JointStats()
    for trial in range(60):
        rng = root.substream(trial)
        if runtime == "centralized":
            stats.record(*bell_trial(0.0, 30.0, draw_emission_direction("uniform", rng), rng))
        else:
            policy = BellRoundPolicy(0.0, 30.0, "uniform", rng.substream("source"))
            RefinedRuntime(bell_world(), policy, rng).run(max_rounds=16)
            stats.record(policy.cases["screen-a"], policy.cases["screen-b"])
    assert stats.counts() == counts


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
    assert source_candidates(*cached) == first and len(calls) == 4


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

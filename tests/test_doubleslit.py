"""Two-slit experiment: fringe oracle, path merging, which-path marking."""

import dataclasses
import math

import numpy as np
import pytest

from qcausal import interaction
from qcausal.engine import Cumulative, RngState
from qcausal.errors import ConfigError
from qcausal.experiments import doubleslit
from qcausal.experiments.doubleslit import (
    DEFAULT_GEOMETRY,
    SCREEN_PLANE,
    SLIT_PLANE,
    SMALL_GEOMETRY,
    DoubleSlitRoundPolicy,
    ScreenHistogram,
    SlitGeometry,
    absorb_table,
    branch_amplitudes,
    branch_phases,
    coherent_intensity,
    coherent_pdf,
    continue_table,
    incoherent_intensity,
    incoherent_pdf,
    marker_object,
    photon_at_slits,
    photon_column,
    propagate_to_screen,
    run_double_slit,
    screen_object,
)
from qcausal.interaction import determine_potential_interactions, perform_interaction
from qcausal.state import ObjectKind, Path, QuantumObject, SystemState


# --- geometry ----------------------------------------------------------------

def test_geometry_defaults():
    assert DEFAULT_GEOMETRY.slit_cells == (51, 76)
    assert DEFAULT_GEOMETRY.fringe_period == pytest.approx(32.0)
    assert SMALL_GEOMETRY.slit_cells == (5, 10)
    assert SMALL_GEOMETRY.fringe_period == pytest.approx(4.0)
    assert DEFAULT_GEOMETRY.space().extent == (128, 2)


def test_geometry_validation():
    with pytest.raises(ConfigError):
        SlitGeometry(n_cells=3)
    with pytest.raises(ConfigError):
        SlitGeometry(slit_separation=0)
    with pytest.raises(ConfigError):
        SlitGeometry(slit_separation=128)
    with pytest.raises(ConfigError, match="odd"):
        SlitGeometry(slit_separation=24)  # slits would land between cells
    with pytest.raises(ConfigError):
        SlitGeometry(screen_distance=0.0)
    with pytest.raises(ConfigError):
        SlitGeometry(wavelength=-0.4)


# --- analytic pattern ------------------------------------------------------------

def test_branch_phases_are_exact_path_lengths():
    phases = branch_phases(SMALL_GEOMETRY)
    assert phases.shape == (2, 16)
    lo, hi = SMALL_GEOMETRY.slit_cells
    d, lam = SMALL_GEOMETRY.screen_distance, SMALL_GEOMETRY.wavelength
    assert phases[0, lo] == pytest.approx(2.0 * math.pi * d / lam)
    assert phases[1, 3] == pytest.approx(2.0 * math.pi * math.hypot(d, 3 - hi) / lam)


def test_branch_amplitudes_have_equal_modulus():
    amps = branch_amplitudes(DEFAULT_GEOMETRY)
    np.testing.assert_allclose(np.abs(amps), 1.0 / math.sqrt(2 * 128), atol=1e-15)


def test_coherent_intensity_against_closed_form():
    # |e^{i p1} + e^{i p2}|^2 = 4 cos^2(pi (L1 - L2) / lambda), path lengths
    # recomputed here from scratch.
    geo = DEFAULT_GEOMETRY
    lo, hi = geo.slit_cells
    x = np.arange(geo.n_cells, dtype=float)
    l1 = np.hypot(geo.screen_distance, x - lo)
    l2 = np.hypot(geo.screen_distance, x - hi)
    expected = 4.0 * np.cos(math.pi * (l1 - l2) / geo.wavelength) ** 2 / (2 * geo.n_cells)
    np.testing.assert_allclose(coherent_intensity(geo), expected, atol=1e-12)


def test_pattern_symmetry_and_normalization():
    cih = coherent_intensity(DEFAULT_GEOMETRY)
    np.testing.assert_allclose(cih, cih[::-1], atol=1e-12)  # slits sit symmetrically
    assert coherent_pdf(DEFAULT_GEOMETRY).sum() == pytest.approx(1.0)
    assert incoherent_pdf(DEFAULT_GEOMETRY).sum() == pytest.approx(1.0)


def test_incoherent_pattern_is_flat():
    inc = incoherent_intensity(DEFAULT_GEOMETRY)
    np.testing.assert_allclose(inc, 1.0 / 128, atol=1e-15)
    np.testing.assert_allclose(incoherent_pdf(DEFAULT_GEOMETRY), 1.0 / 128, atol=1e-15)


def test_analytic_fringes_modulate_fully():
    pdf = coherent_pdf(DEFAULT_GEOMETRY)
    assert pdf.max() / pdf.mean() > 1.8
    assert pdf.min() / pdf.mean() < 0.05


# --- pipeline objects ---------------------------------------------------------------

def test_photon_at_slits():
    photon = photon_at_slits(SMALL_GEOMETRY)
    assert photon.n_paths == 2
    cells = [next(iter(p.pathstates[0].spacepoints)) for p in photon.paths]
    assert cells == [(5, SLIT_PLANE), (10, SLIT_PLANE)]
    assert math.isclose(photon.amplitude_norm(), 1.0, abs_tol=1e-12)


def test_marker_covers_both_slits():
    marker = marker_object(SMALL_GEOMETRY)
    assert marker.n_paths == 1
    assert marker.paths[0].pathstates[0].spacepoints == frozenset(
        {(5, SLIT_PLANE), (10, SLIT_PLANE)}
    )


def test_screen_covers_screen_plane():
    screen = screen_object(SMALL_GEOMETRY)
    pts = screen.paths[0].pathstates[0].spacepoints
    assert pts == frozenset((x, SCREEN_PLANE) for x in range(16))


def test_continue_and_absorb_tables():
    table = continue_table(SMALL_GEOMETRY, 1)
    (row,) = table.rows
    assert [p.type for p in row.particles] == ["photon", "marker-atom"]
    assert row.pathstates[0].spacepoints == frozenset({(10, SLIT_PLANE)})
    assert absorb_table((3, 1)) is absorb_table((3, 1))  # cached
    assert absorb_table((3, 1)).rows[0].particles[0].type == "detection"


def test_photon_column():
    photon = photon_at_slits(SMALL_GEOMETRY)
    assert photon_column(photon) == 0
    with pytest.raises(ConfigError):
        photon_column(marker_object(SMALL_GEOMETRY))


# --- propagation and merging ----------------------------------------------------------

def test_propagation_reproduces_coherent_pattern():
    # Fanning both slit rows to the screen and merging equal rows must give
    # exactly the two-path interference weights.
    flying = propagate_to_screen(photon_at_slits(DEFAULT_GEOMETRY), DEFAULT_GEOMETRY)
    assert flying.n_paths == 128  # rows merged cell by cell
    weights = np.zeros(128)
    for path in flying.paths:
        (x, plane), = path.pathstates[0].spacepoints
        assert plane == SCREEN_PLANE
        weights[x] += path.weight
    np.testing.assert_allclose(weights, coherent_pdf(DEFAULT_GEOMETRY), atol=1e-12)
    assert math.isclose(flying.amplitude_norm(), 1.0, abs_tol=1e-12)


def test_propagation_of_marked_collection_is_flat():
    # With the marker atom in the table the rows never coincide, so no
    # merging happens and each screen cell gets weight 1/n.
    table = continue_table(SMALL_GEOMETRY, 0)
    (row,) = table.rows
    marked = QuantumObject(
        object_id="marked",
        kind=ObjectKind.PARTICLE_COLLECTION,
        particles=row.particles,
        paths=(Path(row.amplitude, row.pathstates),),
    )
    spread = propagate_to_screen(marked, SMALL_GEOMETRY)
    assert spread.n_paths == 16
    weights = sorted(p.weight for p in spread.paths)
    np.testing.assert_allclose(weights, 1.0 / 16, atol=1e-12)
    # the marker column rode along unchanged
    assert all(p.pathstates[1].spacepoints == frozenset({(5, SLIT_PLANE)}) for p in spread.paths)


def test_propagation_requires_slit_plane():
    photon = photon_at_slits(SMALL_GEOMETRY)
    moved = propagate_to_screen(photon, SMALL_GEOMETRY)
    with pytest.raises(ConfigError, match="slit plane"):
        propagate_to_screen(moved, SMALL_GEOMETRY)


# --- the world's policy and its fan memo -------------------------------------------

def _fan_inputs(policy):
    """The unmarked photon and the marker's product from each slit."""
    inputs = [policy.photon]
    for cand in determine_potential_interactions(policy.photon, policy.marker):
        state = policy.start(RngState(0))
        table = policy.table_for(state, "photon", "marker", cand)
        inputs.append(perform_interaction(state, "photon", "marker", cand, table))
    return inputs


def _fan(policy, obj):
    """The policy's fan of obj, through its propagate hook."""
    state = policy.start(RngState(0))
    state.objects[obj.object_id] = obj
    return policy.propagate(state, obj.object_id)


def _fans(policy) -> list:
    return [fan for key, (_, fan) in policy.memo.items() if key[0] == "fan"]


def test_memoised_fan_equals_a_fresh_fan():
    policy = DoubleSlitRoundPolicy(SMALL_GEOMETRY, marker=True)
    inputs = _fan_inputs(policy)
    assert [len(obj.particles) for obj in inputs] == [1, 2, 2]
    for obj in inputs:
        fan = _fan(policy, obj)
        fresh = propagate_to_screen(obj, SMALL_GEOMETRY)
        assert fan == fresh
        assert repr(fan) == repr(fresh)
        state = SystemState(space=policy.space, objects={fan.object_id: fan, "screen": policy.screen})
        found, selection = policy.candidates(state, fan.object_id, "screen")
        assert found == determine_potential_interactions(fresh, policy.screen)
        total = sum(c.joint_weight for c in found)
        assert selection == Cumulative([c.joint_weight / total for c in found])
        assert _fan(policy, obj) is fan
        assert policy.candidates(state, fan.object_id, "screen")[0] is found
    assert len(_fans(policy)) == 3


def test_fan_memo_hits_only_equal_inputs():
    policy = DoubleSlitRoundPolicy(SMALL_GEOMETRY, marker=False)
    fan = _fan(policy, policy.photon)
    assert _fan(policy, policy.photon) is fan
    # an equal object built separately is fanned again, to an equal fan.
    # Identity is enough: every input a run fans is the policy's own photon
    # or the out collection of a memoised effect, the same object on every hit
    twin = photon_at_slits(SMALL_GEOMETRY)
    assert twin == policy.photon and twin is not policy.photon
    again = _fan(policy, twin)
    assert again is not fan and again == fan and repr(again) == repr(fan)
    lo, hi = policy.photon.paths
    others = [
        dataclasses.replace(policy.photon, object_id="photon-2"),
        dataclasses.replace(policy.photon, paths=(Path(0.6, lo.pathstates), Path(0.8, hi.pathstates))),
        dataclasses.replace(policy.photon, paths=(lo,)),
    ]
    for other in others:
        recomputed = _fan(policy, other)
        assert recomputed == propagate_to_screen(other, SMALL_GEOMETRY)
        assert recomputed != fan
    assert len(_fans(policy)) == 2 + len(others)


@pytest.mark.parametrize(
    "marker, runtime, fans",
    [(False, "centralized", 1), (True, "centralized", 2), (False, "refined", 1), (True, "refined", 2)],
)
def test_fan_memo_does_not_grow_with_trials(marker, runtime, fans, monkeypatch):
    policies, fanned = [], []

    class Recorded(doubleslit.DoubleSlitRoundPolicy):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            policies.append(self)

    def counted(obj, geometry):
        fanned.append(obj)
        return propagate_to_screen(obj, geometry)

    monkeypatch.setattr(doubleslit, "DoubleSlitRoundPolicy", Recorded)
    monkeypatch.setattr(doubleslit, "propagate_to_screen", counted)
    hist = run_double_slit(marker, 1000, SMALL_GEOMETRY, seed=5, runtime=runtime)
    assert hist.counts.sum() == 1000
    (policy,) = policies
    assert len(_fans(policy)) == len(fanned) == fans <= 3


@pytest.mark.parametrize("runtime", ["centralized", "refined"])
def test_wide_screen_memo_is_never_cleared(runtime):
    # a marked run keeps 2 * n_cells + 7 entries; at 300 cells that is more
    # than MAX_MEMO, so the policy's bound comes from its geometry
    geometry = SlitGeometry(n_cells=300, slit_separation=25)
    policy = DoubleSlitRoundPolicy(geometry, True)
    assert policy.memo_bound >= 2 * geometry.n_cells + 7
    trials = 6000 if runtime == "centralized" else 2000
    sizes = [len(policy.memo) for _ in interaction.run_trials(policy, trials, 0, runtime, "round-robin")]
    assert sizes == sorted(sizes) and sizes[-1] > interaction.MAX_MEMO
    # a geometry that needs less keeps the shared bound
    assert DoubleSlitRoundPolicy(SMALL_GEOMETRY, True).memo_bound < interaction.MAX_MEMO


@pytest.mark.parametrize("runtime", ["centralized", "refined"])
def test_marking_candidates_are_detected_once_per_run(runtime, monkeypatch):
    # detected when a claim order first runs: the centralized trial claims
    # (photon, marker), the refined runtime (marker, photon) in sorted id order
    calls = []

    def counted(a, b):
        calls.append((a.object_id, b.object_id))
        return determine_potential_interactions(a, b)

    monkeypatch.setattr(interaction, "determine_potential_interactions", counted)
    run_double_slit(True, 200, SMALL_GEOMETRY, seed=5, runtime=runtime)
    assert calls[0] == (("photon", "marker") if runtime == "centralized" else ("marker", "photon"))
    assert calls[1:] == [("out-0", "screen")] * 2  # then once per fan, one fan per slit


def test_marking_candidates_equal_fresh_ones_in_both_orders():
    policy = DoubleSlitRoundPolicy(SMALL_GEOMETRY, marker=True)
    for a, b in ((policy.photon, policy.marker), (policy.marker, policy.photon)):
        state = policy.start(RngState(0))
        found, selection = policy.candidates(state, a.object_id, b.object_id)
        assert found == determine_potential_interactions(a, b)
        assert selection == Cumulative([0.5, 0.5])
        assert policy.candidates(state, a.object_id, b.object_id)[0] is found


# --- histogram statistics ---------------------------------------------------------------

def _hist(counts, trials, marker=False):
    return ScreenHistogram(
        geometry=SMALL_GEOMETRY, marker=marker, trials=trials, seed=0,
        counts=np.asarray(counts, dtype=np.int64),
    )


def test_histogram_arithmetic():
    h = _hist([10, 20, 30, 40] + [0] * 12, trials=100)
    np.testing.assert_allclose(h.frequencies()[:4], [0.1, 0.2, 0.3, 0.4])
    smoothed = h.smoothed(window=2)
    np.testing.assert_allclose(smoothed[:3], [0.15, 0.25, 0.35])
    vis = h.visibility(window=2)
    assert vis == pytest.approx((0.35 - 0.0) / (0.35 + 0.0))
    assert h.tv_distance(h) == 0.0


def test_histogram_tv_and_z():
    h = _hist([25, 25, 25, 25] + [0] * 12, trials=100)
    pdf = np.full(16, 1 / 16)
    assert h.tv_distance(pdf) == pytest.approx(0.5 * (4 * abs(0.25 - 1 / 16) + 12 / 16))
    uniform4 = np.array([40, 10, 25, 25] + [0] * 12)
    g = _hist(uniform4, trials=100)
    assert h.tv_distance(g) == pytest.approx(0.5 * (0.15 + 0.15))
    pdf4 = np.array([0.25, 0.25, 0.25, 0.25] + [1e-12] * 12)
    z = g.max_cell_z(pdf4)
    assert z == pytest.approx(15.0 / math.sqrt(100 * 0.25 * 0.75))


def test_histogram_oracle_pdf_switch():
    off = _hist([0] * 16, 1, marker=False)
    on = _hist([0] * 16, 1, marker=True)
    np.testing.assert_array_equal(off.oracle_pdf(), coherent_pdf(SMALL_GEOMETRY))
    np.testing.assert_array_equal(on.oracle_pdf(), incoherent_pdf(SMALL_GEOMETRY))


# --- Monte Carlo driver --------------------------------------------------------------------

def test_run_requires_positive_trials():
    with pytest.raises(ConfigError):
        run_double_slit(False, 0, SMALL_GEOMETRY)
    with pytest.raises(ConfigError):
        run_double_slit(False, 10, SMALL_GEOMETRY, runtime="cloud")
    for bad in (2.5, True):
        with pytest.raises(ConfigError, match="trials must be an int"):
            run_double_slit(False, bad, SMALL_GEOMETRY)
    for runtime in ("centralized", "refined"):
        with pytest.raises(ConfigError, match="scheduler"):
            run_double_slit(False, 10, SMALL_GEOMETRY, runtime=runtime, scheduler="bogus")
    for bad in (2.7, True, "1"):
        with pytest.raises(ConfigError, match="^seed must be an int"):
            run_double_slit(False, 10, SMALL_GEOMETRY, seed=bad)
    for bad in ("no", 1, None):
        with pytest.raises(ConfigError, match="^marker must be a bool"):
            run_double_slit(bad, 10, SMALL_GEOMETRY)


def test_run_is_deterministic():
    a = run_double_slit(False, 300, SMALL_GEOMETRY, seed=5)
    b = run_double_slit(False, 300, SMALL_GEOMETRY, seed=5)
    c = run_double_slit(False, 300, SMALL_GEOMETRY, seed=6)
    assert np.array_equal(a.counts, b.counts)
    assert not np.array_equal(a.counts, c.counts)
    assert a.counts.sum() == 300


def test_run_marker_off_matches_coherent_pattern():
    hist = run_double_slit(False, 4000, SMALL_GEOMETRY, seed=1)
    assert hist.tv_distance(coherent_pdf(SMALL_GEOMETRY)) < 0.06
    assert hist.max_cell_z(coherent_pdf(SMALL_GEOMETRY)) < 4.5


def test_run_marker_on_matches_flat_pattern():
    hist = run_double_slit(True, 4000, SMALL_GEOMETRY, seed=1)
    assert hist.tv_distance(incoherent_pdf(SMALL_GEOMETRY)) < 0.06
    assert hist.max_cell_z(incoherent_pdf(SMALL_GEOMETRY)) < 4.5
    assert hist.marker is True


def test_run_marker_on_counts_are_pinned():
    # exact tallies from when the marked fan was a hand-built template; the
    # fan of the real marker product must reproduce every draw
    hist = run_double_slit(True, 1000, SMALL_GEOMETRY, seed=4)
    assert hist.counts.tolist() == [66, 49, 70, 71, 68, 65, 74, 57, 69, 47, 60, 73, 64, 51, 65, 51]


def test_run_marker_off_counts_are_pinned():
    # exact tallies from when the centralized run drew from per-run
    # candidate lists of its own; drawing through claim must reproduce them
    hist = run_double_slit(False, 1000, SMALL_GEOMETRY, seed=4)
    assert hist.counts.tolist() == [118, 16, 19, 105, 97, 20, 15, 107, 107, 21, 18, 93, 122, 25, 13, 104]


def test_run_default_geometry_fringes_show():
    hist = run_double_slit(False, 3000, seed=0)
    assert hist.visibility() > 0.8
    marked = run_double_slit(True, 3000, seed=0)
    assert marked.visibility() < 0.3
    assert hist.tv_distance(marked) > 0.2  # plainly different patterns


def test_histogram_json_shape():
    hist = run_double_slit(True, 50, SMALL_GEOMETRY, seed=2)
    d = hist.to_json_dict()
    assert d["schema_version"] == 1
    assert d["experiment"] == "doubleslit"
    assert d["params"]["marker"] == "on"
    assert d["params"]["n_cells"] == 16
    assert sum(d["counts"]) == 50
    assert all(isinstance(c, int) for c in d["counts"])

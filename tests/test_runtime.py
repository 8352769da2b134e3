"""Round mechanics of the decentralized runtime: mediator, engines, ledger."""

import gc
import weakref

import numpy as np
import pytest

from qcausal.engine import RngState
from qcausal.errors import ConfigError, InvariantViolation
from qcausal import interaction
from qcausal import runtime as runtime_module
from qcausal.experiments import bell
from qcausal.experiments.bell import BellConfig, run_bell_experiment
from qcausal.experiments.doubleslit import (
    SMALL_GEOMETRY,
    DoubleSlitRoundPolicy,
    coherent_pdf,
    incoherent_pdf,
    run_double_slit,
)
from qcausal.interaction import OutcomeRow, OutcomeTable
from qcausal.runtime import (
    MAX_RECORDS,
    PROPAGATION_DELAY,
    SCHEDULERS,
    Advertisement,
    BellRoundPolicy,
    LedgerEntry,
    ObjectEngine,
    ProposedEvent,
    RefinedRuntime,
    RoundPolicy,
    RoundView,
    SpaceMediator,
    run_doubleslit_refined,
)
from qcausal.state import (
    ObjectKind,
    ParticleInfo,
    Path,
    PathState,
    QuantumObject,
    Space,
    SystemState,
)


def _ad(oid, cell, path_index=0, weight=1.0):
    return Advertisement(object_id=oid, path_index=path_index, cell=cell, weight=weight)


def _atom(object_id, cell, mass=0.5):
    return QuantumObject(
        object_id=object_id,
        kind=ObjectKind.PARTICLE,
        particles=(ParticleInfo(type="atom", mass=mass),),
        paths=(Path(1.0, (PathState(frozenset({cell}), (0.0,), (0.0,)),)),),
        conserved={"energy": mass, "momentum": (0.0,), "angularmomentum": (0.0,)},
    )


def _moved_to(obj, cell):
    ps = obj.paths[0].pathstates[0]
    return QuantumObject(
        object_id=obj.object_id,
        kind=obj.kind,
        particles=obj.particles,
        paths=(
            Path(
                obj.paths[0].amplitude,
                (PathState(frozenset({cell}), ps.momentum, ps.angularmomentum, ps.spindir),),
            ),
        ),
        conserved=dict(obj.conserved),
    )


def _cell_of(state, oid):
    (cell,) = state.objects[oid].paths[0].pathstates[0].spacepoints
    return cell


def _merge_table(cell):
    # one outgoing particle carrying the combined rest energy of two atoms
    return OutcomeTable(
        name="merge",
        rows=(
            OutcomeRow(
                particles=(ParticleInfo(type="merged", mass=1.0),),
                pathstates=(PathState(frozenset({cell}), (0.0,), (0.0,)),),
                amplitude=1.0,
            ),
        ),
    )


def _world(*objects):
    state = SystemState(space=Space(dims=1, extent=(8,), delta_x=1.0))
    for obj in objects:
        state.add_object(obj)
    return state


class MergePolicy(RoundPolicy):
    def table_for(self, state, a_id, b_id, candidate):
        return _merge_table(candidate.position)

    def done(self, state):
        return len(state.objects) == 1


class VetoPolicy(RoundPolicy):
    def table_for(self, state, a_id, b_id, candidate):
        return None

    def done(self, state):
        return False


# -- mediator board ------------------------------------------------------------------


def test_publication_is_invisible_until_flip():
    med = SpaceMediator(RngState(0))
    med.publish(_ad("a", (3,)))
    assert med.board == {}
    assert med.published == {}
    med.flip()
    assert med.board[(3,)] == [_ad("a", (3,))]
    assert med.published["a"].ads == [_ad("a", (3,))]
    med.flip()
    assert med.board == {}


def test_board_groups_by_cell_and_object():
    med = SpaceMediator(RngState(0))
    med.publish(_ad("a", (1,)))
    med.publish(_ad("a", (2,), path_index=1, weight=0.5))
    med.publish(_ad("b", (2,)))
    med.flip()
    assert {ad.object_id for ad in med.board[(2,)]} == {"a", "b"}
    assert len(med.published["a"].ads) == 2


def test_self_proposal_rejected():
    med = SpaceMediator(RngState(0))
    with pytest.raises(ConfigError, match="itself"):
        med.submit_proposal("a", "a", ((0,),))


def test_proposal_pair_is_stored_sorted():
    med = SpaceMediator(RngState(0))
    med.submit_proposal("b", "a", ((1,),))
    med.submit_proposal("a", "b", ((1,),))
    events = med.collect_events()
    assert events == [ProposedEvent(pair=("a", "b"), cells=((1,),))]


def test_one_sided_proposal_is_a_protocol_violation():
    med = SpaceMediator(RngState(0))
    med.submit_proposal("a", "b", ((1,),))
    with pytest.raises(InvariantViolation, match="asymmetric"):
        med.collect_events()


def test_disagreeing_cells_are_a_protocol_violation():
    med = SpaceMediator(RngState(0))
    med.submit_proposal("a", "b", ((1,),))
    med.submit_proposal("b", "a", ((2,),))
    with pytest.raises(InvariantViolation, match="mismatch"):
        med.collect_events()


def test_events_ordered_by_cell_then_pair():
    med = SpaceMediator(RngState(0))
    for pair, cells in [
        (("x", "y"), ((3,),)),
        (("a", "b"), ((5,),)),
        (("a", "c"), ((3,),)),
    ]:
        med.submit_proposal(pair[0], pair[1], cells)
        med.submit_proposal(pair[1], pair[0], cells)
    assert [e.pair for e in med.collect_events()] == [("a", "c"), ("x", "y"), ("a", "b")]


def _six_pair_mediator(seed, scheduler):
    med = SpaceMediator(RngState(seed).substream("events"), scheduler)
    for a, b in [("a", "b"), ("a", "c"), ("a", "d"), ("b", "c"), ("b", "d"), ("c", "d")]:
        med.submit_proposal(a, b, ((1,),))
        med.submit_proposal(b, a, ((1,),))
    return med


def test_randomized_scheduler_permutes_deterministically():
    sorted_order = [e.pair for e in _six_pair_mediator(0, "round-robin").collect_events()]
    shuffled = None
    for seed in range(10):
        order = [e.pair for e in _six_pair_mediator(seed, "randomized").collect_events()]
        assert sorted(order) == sorted(sorted_order)
        again = [e.pair for e in _six_pair_mediator(seed, "randomized").collect_events()]
        assert again == order
        if order != sorted_order:
            shuffled = order
    assert shuffled is not None


def test_unknown_scheduler_rejected():
    with pytest.raises(ConfigError, match="scheduler"):
        SpaceMediator(RngState(0), scheduler="priority")
    assert set(SCHEDULERS) == {"round-robin", "randomized"}


def test_rejection_record_shape():
    med = SpaceMediator(RngState(0))
    med.reject(ProposedEvent(pair=("a", "b"), cells=((1,),)), 4, "vetoed")
    assert med.rejections == [{"round": 4, "pair": ["a", "b"], "reason": "vetoed"}]


# -- engine detection through the round view ------------------------------------------


def test_detect_proposes_per_overlapping_object():
    med = SpaceMediator(RngState(0))
    for ad in [_ad("a", (1,)), _ad("a", (2,)), _ad("b", (2,)), _ad("c", (5,))]:
        med.publish(ad)
    med.flip()
    for oid in ("a", "b", "c"):
        ObjectEngine(oid).detect(RoundView(med, oid))
    events = med.collect_events()
    assert events == [ProposedEvent(pair=("a", "b"), cells=((2,),))]


def test_detect_collects_all_shared_cells():
    med = SpaceMediator(RngState(0))
    for cell in [(1,), (2,), (4,)]:
        med.publish(_ad("a", cell))
        med.publish(_ad("b", cell))
    med.flip()
    for oid in ("a", "b"):
        ObjectEngine(oid).detect(RoundView(med, oid))
    (event,) = med.collect_events()
    assert event.cells == ((1,), (2,), (4,))


# -- conservation ledger ---------------------------------------------------------------


def test_ledger_entry_balanced_is_exact():
    totals = {"energy": 1.0, "momentum": (0.0,), "angularmomentum": (0.0,)}
    entry = LedgerEntry(0, (1,), ("a", "b"), "out-0", totals, dict(totals))
    assert entry.balanced
    off = dict(totals, energy=1.0 + 1e-12)
    assert not LedgerEntry(0, (1,), ("a", "b"), "out-0", totals, off).balanced


def test_ledger_treats_missing_blocks_as_empty():
    before = {"energy": 2.0}
    after = {"energy": 2.0, "momentum": (), "angularmomentum": ()}
    assert LedgerEntry(0, (0,), ("a", "b"), "out-0", before, after).balanced


# -- round loop with a minimal merge world ---------------------------------------------


def test_merge_world_runs_to_single_object():
    state = _world(_atom("a", (1,)), _atom("b", (1,)))
    runtime = RefinedRuntime(state, MergePolicy(), RngState(7), keep_ledger=True)
    rounds = runtime.run()
    # round 0 only publishes (board lag), the merge lands in round 1
    assert rounds == 2
    assert runtime.interactions == 1
    assert runtime.mediator.rejections == []
    assert set(state.objects) == {"out-0"}
    assert set(runtime.engines) == {"out-0"}
    assert state.events == 3
    (entry,) = runtime.ledger
    assert entry.balanced
    assert entry.round_index == 1
    assert entry.position == (1,)
    assert entry.participants == ("a", "b")
    assert entry.out_id == "out-0"
    assert entry.before["energy"] == 1.0
    assert entry.after["energy"] == 1.0


def test_one_interaction_per_object_per_round():
    state = _world(_atom("a", (1,)), _atom("b", (1,)), _atom("c", (1,)))
    runtime = RefinedRuntime(state, MergePolicy(), RngState(3))
    rounds = runtime.run()
    assert rounds == 3
    assert runtime.interactions == 2
    # pairs (a, c) and (b, c) lose the round-1 grant to (a, b)
    round1 = [r for r in runtime.mediator.rejections if r["round"] == 1]
    assert [r["reason"] for r in round1] == ["participant busy", "participant busy"]
    assert [r["pair"] for r in round1] == [["a", "c"], ["b", "c"]]
    # the survivor merges with out-0 one round later
    assert set(state.objects) == {"out-3"}
    assert state.objects["out-3"].conserved["energy"] == 1.5


def test_vetoed_events_leave_objects_alive():
    state = _world(_atom("a", (1,)), _atom("b", (1,)))
    runtime = RefinedRuntime(state, VetoPolicy(), RngState(0))
    for _ in range(3):
        runtime.run_round()
    reasons = {r["reason"] for r in runtime.mediator.rejections}
    assert reasons == {"vetoed"}
    assert len(runtime.mediator.rejections) == 2
    assert runtime.interactions == 0
    assert set(state.objects) == {"a", "b"}


def test_run_raises_when_rounds_exhausted():
    state = _world(_atom("a", (1,)), _atom("b", (1,)))
    runtime = RefinedRuntime(state, VetoPolicy(), RngState(0))
    with pytest.raises(InvariantViolation, match="did not complete"):
        runtime.run(max_rounds=3)


def test_prepare_can_starve_candidates():
    class DodgePolicy(RoundPolicy):
        def prepare(self, state, a_id, b_id):
            state.objects[a_id] = _moved_to(state.objects[a_id], (5,))

        def table_for(self, state, a_id, b_id, candidate):  # pragma: no cover
            raise AssertionError("no candidates should survive the dodge")

        def done(self, state):
            return False

    state = _world(_atom("a", (1,)), _atom("b", (1,)))
    runtime = RefinedRuntime(state, DodgePolicy(), RngState(0))
    for _ in range(3):
        runtime.run_round()
    assert [r["reason"] for r in runtime.mediator.rejections] == ["no live candidates"]
    assert runtime.interactions == 0
    assert _cell_of(state, "a") == (5,)


def test_consumed_third_party_is_rejected_as_gone():
    class EaterPolicy(MergePolicy):
        def prepare(self, state, a_id, b_id):
            state.objects.pop("d", None)

        def done(self, state):
            return len(state.objects) <= 2

    state = _world(*(_atom(oid, (1,)) for oid in "abcd"))
    runtime = RefinedRuntime(state, EaterPolicy(), RngState(1))
    rounds = runtime.run()
    assert rounds == 2
    by_reason = {}
    for r in runtime.mediator.rejections:
        by_reason.setdefault(r["reason"], []).append(r["pair"])
    assert by_reason["participant gone"] == [["c", "d"]]
    assert len(by_reason["participant busy"]) == 4
    assert set(state.objects) == {"c", "out-0"}


def test_propagation_waits_out_the_board_lag():
    class MovePolicy(VetoPolicy):
        def propagate(self, state, object_id):
            return _moved_to(state.objects[object_id], ((_cell_of(state, object_id)[0] + 1),))

    state = _world(_atom("a", (1,)))
    runtime = RefinedRuntime(state, MovePolicy(), RngState(0))
    positions = []
    for _ in range(4):
        runtime.run_round()
        positions.append(_cell_of(state, "a"))
    assert PROPAGATION_DELAY == 2
    assert positions == [(1,), (1,), (2,), (3,)]


def test_propagation_must_keep_the_object_id():
    class RenamePolicy(VetoPolicy):
        def propagate(self, state, object_id):
            obj = _moved_to(state.objects[object_id], (2,))
            return QuantumObject(
                object_id="imposter",
                kind=obj.kind,
                particles=obj.particles,
                paths=obj.paths,
                conserved=dict(obj.conserved),
            )

    runtime = RefinedRuntime(_world(_atom("a", (1,))), RenamePolicy(), RngState(0))
    runtime.run_round()
    runtime.run_round()
    with pytest.raises(ConfigError, match="keep the object id"):
        runtime.run_round()


def test_propagation_out_of_bounds_is_caught():
    class MovePolicy(VetoPolicy):
        def propagate(self, state, object_id):
            return _moved_to(state.objects[object_id], ((_cell_of(state, object_id)[0] + 1),))

    runtime = RefinedRuntime(_world(_atom("a", (6,))), MovePolicy(), RngState(0))
    runtime.run_round()
    runtime.run_round()
    runtime.run_round()  # 6 -> 7, still inside the extent-8 space
    with pytest.raises(InvariantViolation, match="after propagation"):
        runtime.run_round()


def test_spawn_engine_rejects_duplicates():
    runtime = RefinedRuntime(_world(_atom("a", (1,))), VetoPolicy(), RngState(0))
    with pytest.raises(ConfigError, match="already exists"):
        runtime.spawn_engine("a")


def test_base_policy_requires_a_table_hook():
    with pytest.raises(NotImplementedError):
        RoundPolicy().table_for(None, "a", "b", None)


def test_zero_weight_paths_are_not_advertised():
    obj = QuantumObject(
        object_id="a",
        kind=ObjectKind.PARTICLE_COLLECTION,
        particles=(ParticleInfo(type="atom", mass=0.5),),
        paths=(
            Path(1.0, (PathState(frozenset({(1,)}), (0.0,), (0.0,)),)),
            Path(0.0, (PathState(frozenset({(2,)}), (0.0,), (0.0,)),)),
        ),
        conserved={"energy": 0.5},
    )
    runtime = RefinedRuntime(_world(obj), VetoPolicy(), RngState(0))
    runtime.publish_phase()
    assert (1,) in runtime.mediator.board
    assert (2,) not in runtime.mediator.board


# -- full worlds under the decentralized runtime ---------------------------------------


def test_refined_bell_aligned_analyzers_agree_exactly():
    cfg = BellConfig(angle_a=35.0, angle_b=35.0, trials=150, seed=4, runtime="refined")
    res = run_bell_experiment(cfg)
    assert res.stats.n == 150
    assert res.stats.p_same == 1.0


def test_refined_bell_perpendicular_analyzers_never_agree():
    cfg = BellConfig(angle_a=20.0, angle_b=110.0, trials=150, seed=5, runtime="refined")
    assert run_bell_experiment(cfg).stats.p_same == 0.0


def test_refined_bell_matches_centralized_correlation():
    refined = run_bell_experiment(BellConfig(0.0, 30.0, trials=2000, seed=2, runtime="refined"))
    central = run_bell_experiment(BellConfig(0.0, 30.0, trials=2000, seed=2))
    assert abs(refined.stats.correlation - 0.5) < 0.06
    assert abs(refined.stats.correlation - central.stats.correlation) < 0.1


def test_refined_bell_reproducible():
    cfg = BellConfig(10.0, 50.0, trials=120, seed=9, runtime="refined")
    assert run_bell_experiment(cfg).stats.counts() == run_bell_experiment(cfg).stats.counts()


def test_refined_bell_randomized_scheduler():
    cfg = BellConfig(
        angle_a=25.0,
        angle_b=25.0,
        trials=100,
        seed=3,
        runtime="refined",
        scheduler="randomized",
    )
    res = run_bell_experiment(cfg)
    assert res.stats.p_same == 1.0
    assert run_bell_experiment(cfg).stats.counts() == res.stats.counts()


@pytest.mark.parametrize(
    "scheduler, counts",
    [
        ("round-robin", {"pp": 73, "pm": 27, "mp": 29, "mm": 71}),
        ("randomized", {"pp": 88, "pm": 18, "mp": 25, "mm": 69}),
    ],
)
def test_refined_bell_counts_are_pinned(scheduler, counts):
    # exact tallies from before the Bell policy moved next to the world
    cfg = BellConfig(0.0, 30.0, trials=200, seed=3, runtime="refined", scheduler=scheduler)
    assert run_bell_experiment(cfg).stats.counts() == counts


@pytest.mark.parametrize(
    "marker, scheduler, counts",
    [
        (False, "round-robin", [24, 2, 4, 24, 20, 1, 4, 25, 22, 2, 5, 17, 21, 6, 4, 19]),
        (False, "randomized", [24, 2, 4, 24, 20, 1, 4, 25, 22, 2, 5, 17, 21, 6, 4, 19]),
        (True, "round-robin", [9, 10, 15, 9, 13, 7, 11, 19, 15, 6, 15, 11, 14, 18, 10, 18]),
        (True, "randomized", [9, 10, 15, 9, 13, 7, 11, 19, 15, 6, 15, 11, 14, 18, 10, 18]),
    ],
)
def test_refined_doubleslit_counts_are_pinned(marker, scheduler, counts):
    # exact tallies from when the runtime kept a two-slit policy of its own;
    # at most one event is proposed per round here, so the randomized
    # scheduler's shuffle has nothing to reorder
    hist = run_double_slit(marker, 200, SMALL_GEOMETRY, seed=3, runtime="refined", scheduler=scheduler)
    assert hist.counts.tolist() == counts


def test_runtime_exports_the_bell_worlds_policy():
    assert BellRoundPolicy is bell.BellRoundPolicy
    assert RoundPolicy is interaction.RoundPolicy


def test_refined_doubleslit_marked_is_flat():
    hist = run_doubleslit_refined(marker=True, trials=300, geometry=SMALL_GEOMETRY, seed=1)
    assert hist.runtime == "refined"
    assert int(hist.counts.sum()) == 300
    assert hist.tv_distance(incoherent_pdf(SMALL_GEOMETRY)) < 0.12
    assert hist.tv_distance(coherent_pdf(SMALL_GEOMETRY)) > hist.tv_distance(
        incoherent_pdf(SMALL_GEOMETRY)
    )


def test_refined_doubleslit_unmarked_interferes():
    hist = run_doubleslit_refined(marker=False, trials=300, geometry=SMALL_GEOMETRY, seed=1)
    assert hist.tv_distance(coherent_pdf(SMALL_GEOMETRY)) < 0.12
    assert hist.tv_distance(incoherent_pdf(SMALL_GEOMETRY)) > hist.tv_distance(
        coherent_pdf(SMALL_GEOMETRY)
    )


def test_refined_doubleslit_reproducible():
    a = run_doubleslit_refined(False, 150, SMALL_GEOMETRY, seed=6)
    b = run_doubleslit_refined(False, 150, SMALL_GEOMETRY, seed=6)
    c = run_doubleslit_refined(False, 150, SMALL_GEOMETRY, seed=7)
    assert np.array_equal(a.counts, b.counts)
    assert not np.array_equal(a.counts, c.counts)


# -- publication records and one runtime per run --------------------------------------


def _readvertised(state):
    """The board as publishing it from scratch gives: every live object in
    id order, per nonzero-weight path, one ad per occupied cell in order."""
    board, by_object = {}, {}
    for object_id in sorted(state.objects):
        for i, path in enumerate(state.objects[object_id].paths):
            if path.weight == 0.0:
                continue
            cells = set()
            for ps in path.pathstates:
                cells.update(ps.spacepoints)
            for cell in sorted(cells):
                ad = _ad(object_id, cell, path_index=i, weight=path.weight)
                board.setdefault(cell, []).append(ad)
                by_object.setdefault(object_id, []).append(ad)
    return board, by_object


@pytest.mark.parametrize("scheduler", SCHEDULERS)
@pytest.mark.parametrize("world", ["bell", "doubleslit-off", "doubleslit-on"])
def test_board_equals_a_full_readvertisement_after_every_publish(monkeypatch, world, scheduler):
    publish = RefinedRuntime.publish_phase
    checked = []

    def checked_publish(runtime):
        publish(runtime)
        board, by_object = _readvertised(runtime.state)
        # items() lists compare content and iteration order both
        assert list(runtime.mediator.board.items()) == list(board.items())
        published = runtime.mediator.published
        assert [(object_id, p.ads) for object_id, p in published.items()] == list(by_object.items())
        checked.append(runtime)

    monkeypatch.setattr(RefinedRuntime, "publish_phase", checked_publish)
    if world == "bell":
        run_bell_experiment(BellConfig(0.0, 30.0, trials=40, seed=2, runtime="refined", scheduler=scheduler))
    else:
        run_double_slit(world == "doubleslit-on", 40, SMALL_GEOMETRY, seed=2, runtime="refined", scheduler=scheduler)
    assert len(checked) >= 40 * 4
    assert len({id(runtime) for runtime in checked}) == 1  # one runtime per run


def test_replaced_object_is_republished_and_rechecked():
    state = _world(_atom("a", (1,)))
    runtime = RefinedRuntime(state, VetoPolicy(), RngState(0))
    runtime.propagate_phase(set())
    runtime.publish_phase()
    assert list(runtime.mediator.board) == [(1,)]
    # same object id, new object
    state.objects["a"] = _moved_to(state.objects["a"], (4,))
    runtime.propagate_phase(set())
    runtime.publish_phase()
    assert list(runtime.mediator.board) == [(4,)]
    state.objects["a"] = _moved_to(state.objects["a"], (9,))
    runtime.propagate_phase(set())
    # checked where its record is built, before it reaches the board
    with pytest.raises(InvariantViolation, match=r"after propagation: .* \(9,\) outside the lattice"):
        runtime.publish_phase()
    assert list(runtime.mediator.board) == [(4,)]


def test_equal_objects_get_records_of_their_own(monkeypatch):
    checked = []
    object_problem = SystemState.object_problem
    monkeypatch.setattr(
        SystemState, "object_problem", lambda state, obj: checked.append(obj) or object_problem(state, obj)
    )
    first, second = _atom("a", (1,)), _atom("a", (1,))
    assert first == second and first is not second
    state = _world(first)
    runtime = RefinedRuntime(state, VetoPolicy(), RngState(0))
    for _ in range(3):
        runtime.run_round()
    assert len(checked) == 1 and checked[0] is first
    state.objects["a"] = second
    runtime.run_round()
    assert len(checked) == 2 and checked[1] is second
    # a record keeps its object alive, so no later object can take its id()
    ref = weakref.ref(state.objects.pop("a"))
    del first, second
    checked.clear()
    gc.collect()
    assert ref() is not None


def test_records_are_dropped_when_the_space_changes():
    atom = _atom("a", (6,))
    runtime = RefinedRuntime(_world(atom), VetoPolicy(), RngState(0))
    runtime.run_round()
    # the same object, in a trial whose lattice it no longer fits
    small = SystemState(space=Space(dims=1, extent=(4,), delta_x=1.0), objects={"a": atom})
    runtime.next_trial(small, RngState(1))
    with pytest.raises(InvariantViolation, match="outside the lattice"):
        runtime.run_round()


def _trials_of(world):
    """The policy whose start and outcome hooks run the world's trials."""
    if world == "bell":
        return BellRoundPolicy(0.0, 30.0, "uniform", RngState(3))
    return DoubleSlitRoundPolicy(SMALL_GEOMETRY, world == "doubleslit-on")


def _per_trial(world, scheduler, reuse, trials, size=lambda runtime: len(runtime._records)):
    """Each trial's rounds, interactions, rejections, ledger and outcome, from
    one runtime reset per trial (reuse) or a fresh runtime per trial, and
    the size of the record cache (or what size gives) after each trial."""
    policy = _trials_of(world)
    root = RngState(5)
    runtime, results, sizes = None, [], []
    for trial in range(trials):
        rng = root.substream(trial)
        state = policy.start(rng)
        if reuse and runtime is not None:
            runtime.next_trial(state, rng)
        else:
            runtime = RefinedRuntime(state, policy, rng, scheduler, keep_ledger=True)
        rounds = runtime.run(max_rounds=16)
        results.append(
            (rounds, runtime.interactions, runtime.mediator.rejections, runtime.ledger, policy.outcome())
        )
        sizes.append(size(runtime))
    return results, sizes


@pytest.mark.parametrize("scheduler", SCHEDULERS)
@pytest.mark.parametrize("world", ["bell", "doubleslit-off", "doubleslit-on"])
def test_one_runtime_reset_per_trial_equals_a_fresh_one_per_trial(world, scheduler):
    fresh, _ = _per_trial(world, scheduler, reuse=False, trials=60)
    reused, _ = _per_trial(world, scheduler, reuse=True, trials=60)
    assert reused == fresh
    assert all(ledger for _, _, _, ledger, _ in fresh)
    if world == "bell":  # the pair meets both screens in one round, one waits
        assert all(rejections for _, _, rejections, _, _ in fresh)


@pytest.mark.parametrize("world", ["bell", "doubleslit-on"])
def test_record_cache_stays_within_its_bound(world):
    _, sizes = _per_trial(world, "round-robin", reuse=True, trials=2000)
    assert max(sizes) <= MAX_RECORDS
    if world == "bell":  # a new pair every round: the records fill up and are cleared
        assert max(sizes) > MAX_RECORDS // 2
    else:  # memoised fans and effects bring back the same objects: the records plateau
        assert len(set(sizes[1000:])) == 1
        assert sizes[-1] > SMALL_GEOMETRY.n_cells  # records of many trials' hits carried over


# -- board snapshots: each distinct board laid out, and detected on, once per run -----


def _stored_objects(runtime):
    return {id(record.obj) for records, _, _ in runtime._snapshots.values() for record in records}


@pytest.mark.parametrize("scheduler", SCHEDULERS)
@pytest.mark.parametrize("world", ["bell", "doubleslit-off", "doubleslit-on"])
def test_served_proposals_equal_a_fresh_detect(monkeypatch, world, scheduler):
    detect_and_grant, detect = RefinedRuntime.detect_and_grant, ObjectEngine.detect
    propagate = BellRoundPolicy.propagate
    detected, served, runtimes, pairs = [], [], set(), []

    def counted_detect(engine, view):
        detected.append(engine.object_id)
        return detect(engine, view)

    def tracked_propagate(policy, state, object_id):
        moved = propagate(policy, state, object_id)
        if moved is not None:  # the emitted pair, at the source and drifted
            pairs.extend((state.objects[object_id], moved))
        return moved

    def checked_detect_and_grant(runtime):
        # a fresh detect by every engine against the board rebuilt from its ads
        probe = SpaceMediator(RngState(0))
        for publication in runtime.mediator.published.values():
            probe.publish(*publication.ads)
        probe.flip()
        for object_id in sorted(runtime.engines):
            detect(ObjectEngine(object_id), RoundView(probe, object_id))
        engines = len(runtime.engines)
        detected.clear()
        busy = detect_and_grant(runtime)
        assert runtime.mediator._proposals == probe._proposals
        served.append(engines - len(detected))
        assert not _stored_objects(runtime) & {id(pair) for pair in pairs}
        runtimes.add(id(runtime))
        return busy

    monkeypatch.setattr(ObjectEngine, "detect", counted_detect)
    monkeypatch.setattr(BellRoundPolicy, "propagate", tracked_propagate)
    monkeypatch.setattr(RefinedRuntime, "detect_and_grant", checked_detect_and_grant)
    if world == "bell":
        run_bell_experiment(BellConfig(0.0, 30.0, trials=40, seed=2, runtime="refined", scheduler=scheduler))
        assert pairs  # and none of them was ever on a stored board
    else:
        run_double_slit(world == "doubleslit-on", 40, SMALL_GEOMETRY, seed=2, runtime="refined", scheduler=scheduler)
    assert len(served) >= 40 * 4
    assert len(runtimes) == 1  # one runtime per run
    assert sum(served) > 0  # boards repeat: engines were served their earlier proposals


def test_a_tampered_stored_proposal_fails_the_symmetry_check():
    policy = _trials_of("doubleslit-on")
    root = RngState(5)
    runtime = RefinedRuntime(policy.start(root.substream(0)), policy, root.substream(0))
    runtime.run(max_rounds=16)
    for trial in range(1, 10):
        runtime.next_trial(policy.start(root.substream(trial)), root.substream(trial))
        runtime.run(max_rounds=16)
    tampered = 0
    for _, _, proposals in runtime._snapshots.values():
        for object_id, submitted in list(proposals.items()):
            # one side of each pair names a cell the other side does not
            changed = tuple((other, cells + ((99,),)) if object_id < other else (other, cells) for other, cells in submitted)
            tampered += changed != submitted
            proposals[object_id] = changed
    assert tampered
    with pytest.raises(InvariantViolation, match="proposal mismatch"):
        for trial in range(10, 20):
            runtime.next_trial(policy.start(root.substream(trial)), root.substream(trial))
            runtime.run(max_rounds=16)


@pytest.mark.parametrize("world", ["bell", "doubleslit-on"])
def test_snapshot_store_stays_within_its_bound(monkeypatch, world):
    full, sizes = _per_trial(world, "round-robin", reuse=True, trials=2000, size=lambda r: len(r._snapshots))
    assert 0 < max(sizes) <= MAX_RECORDS
    # a bound small enough to clear the store often changes no trial
    monkeypatch.setattr(runtime_module, "MAX_RECORDS", 4)
    bounded, small = _per_trial(world, "round-robin", reuse=True, trials=300, size=lambda r: len(r._snapshots))
    assert bounded == full[:300]
    assert max(small) <= 4


def test_snapshots_are_dropped_when_the_space_changes():
    atom = _atom("a", (6,))
    first = _world(atom)
    runtime = RefinedRuntime(first, VetoPolicy(), RngState(0))
    runtime.run_round()
    # the atom's record is from the trial before, so its board is stored
    runtime.next_trial(SystemState(space=first.space, objects={"a": atom}), RngState(1))
    runtime.run_round()
    assert len(runtime._snapshots) == 1
    small = SystemState(space=Space(dims=1, extent=(4,), delta_x=1.0), objects={"a": atom})
    runtime.next_trial(small, RngState(2))
    assert runtime._snapshots == {} and runtime._records == {}

"""Round mechanics of the decentralized runtime: mediator, engines, ledger."""

import gc
import weakref

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qcausal.engine import RngState
from qcausal.errors import ConfigError, InvariantViolation
from qcausal import interaction
from qcausal import runtime as runtime_module
from qcausal.experiments import bell
from qcausal.experiments.bell import BellConfig, run_bell_experiment
from qcausal.experiments.doubleslit import (
    DEFAULT_GEOMETRY,
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
    _evolve,
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


def _publication(object_id, ads):
    return runtime_module._Publication(object_id, ads, tuple(sorted({ad.cell for ad in ads})))


def _laid_out(*ads):
    """The board of ads: one publication per object, its ads in the order
    given, the objects in the order of their first ad."""
    by_object = {}
    for ad in ads:
        by_object.setdefault(ad.object_id, []).append(ad)
    return runtime_module._lay_out(_publication(object_id, ads) for object_id, ads in by_object.items())


def test_a_laid_out_board_is_invisible_until_installed():
    med = SpaceMediator(RngState(0))
    board = _laid_out(_ad("a", (3,)))
    assert med.board == {}
    assert med.published == {}
    med.install(*board)
    assert med.board[(3,)] == [_ad("a", (3,))]
    assert med.published["a"].ads == [_ad("a", (3,))]
    med.install(*_laid_out())
    assert med.board == {}


def test_board_groups_by_cell_and_object():
    med = SpaceMediator(RngState(0))
    med.install(*_laid_out(_ad("a", (1,)), _ad("a", (2,), path_index=1, weight=0.5), _ad("b", (2,))))
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
    events = med.collect_events(med.plan())
    assert events == [ProposedEvent(pair=("a", "b"), cells=((1,),))]


def test_one_sided_proposal_is_a_protocol_violation():
    med = SpaceMediator(RngState(0))
    med.submit_proposal("a", "b", ((1,),))
    with pytest.raises(InvariantViolation, match="asymmetric"):
        med.plan()


def test_disagreeing_cells_are_a_protocol_violation():
    med = SpaceMediator(RngState(0))
    med.submit_proposal("a", "b", ((1,),))
    med.submit_proposal("b", "a", ((2,),))
    with pytest.raises(InvariantViolation, match="mismatch"):
        med.plan()


def test_events_ordered_by_cell_then_pair():
    med = SpaceMediator(RngState(0))
    for pair, cells in [
        (("x", "y"), ((3,),)),
        (("a", "b"), ((5,),)),
        (("a", "c"), ((3,),)),
    ]:
        med.submit_proposal(pair[0], pair[1], cells)
        med.submit_proposal(pair[1], pair[0], cells)
    assert [e.pair for e in med.collect_events(med.plan())] == [("a", "c"), ("x", "y"), ("a", "b")]


def _six_pair_mediator(seed, scheduler):
    med = SpaceMediator(RngState(seed).substream("events"), scheduler)
    for a, b in [("a", "b"), ("a", "c"), ("a", "d"), ("b", "c"), ("b", "d"), ("c", "d")]:
        med.submit_proposal(a, b, ((1,),))
        med.submit_proposal(b, a, ((1,),))
    return med


def _collected(med):
    return [e.pair for e in med.collect_events(med.plan())]


def test_randomized_scheduler_permutes_deterministically():
    sorted_order = _collected(_six_pair_mediator(0, "round-robin"))
    shuffled = None
    for seed in range(10):
        order = _collected(_six_pair_mediator(seed, "randomized"))
        assert sorted(order) == sorted(sorted_order)
        again = _collected(_six_pair_mediator(seed, "randomized"))
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
    med.install(*_laid_out(_ad("a", (1,)), _ad("a", (2,)), _ad("b", (2,)), _ad("c", (5,))))
    for oid in ("a", "b", "c"):
        ObjectEngine(oid).detect(RoundView(med, oid))
    events = med.collect_events(med.plan())
    assert events == [ProposedEvent(pair=("a", "b"), cells=((2,),))]


def test_detect_collects_all_shared_cells():
    med = SpaceMediator(RngState(0))
    med.install(*_laid_out(*(_ad(oid, cell) for cell in [(1,), (2,), (4,)] for oid in ("a", "b"))))
    for oid in ("a", "b"):
        ObjectEngine(oid).detect(RoundView(med, oid))
    (event,) = med.collect_events(med.plan())
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


def test_equal_objects_share_one_checked_publication(monkeypatch):
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
    served = runtime.mediator.published["a"]
    state.objects["a"] = second
    runtime.run_round()
    assert len(checked) == 1  # the same key: served, not checked again
    assert runtime.mediator.published["a"] is served
    # a new key is checked again
    state.objects["a"] = third = _moved_to(second, (2,))
    runtime.run_round()
    assert len(checked) == 2 and checked[1] is third
    # the identity index keeps its objects alive, so no later object can take their id()
    ref = weakref.ref(state.objects.pop("a"))
    del first, second, third
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


def _per_trial(world, scheduler, reuse, trials, size=lambda runtime: len(runtime._publications), memo_bound=None):
    """Each trial's rounds, interactions, rejections, ledger and outcome, from
    one runtime reset per trial (reuse) or a fresh runtime per trial, and
    the size of the publication store (or what size gives) after each trial.
    memo_bound, when given, replaces the world's."""
    policy = _trials_of(world)
    if memo_bound is not None:
        policy.memo_bound = memo_bound
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
    # what the objects publish repeats: the publications plateau, though
    # Bell's pair is a new object in every trial
    assert len(set(sizes[1000:])) == 1
    if world == "bell":
        assert sizes[-1] < 16
    else:
        assert sizes[-1] > SMALL_GEOMETRY.n_cells  # publications of many trials' hits carried over


# -- board snapshots: each distinct board laid out, and detected on, once per run -----


@pytest.mark.parametrize("scheduler", SCHEDULERS)
@pytest.mark.parametrize("world", ["bell", "doubleslit-off", "doubleslit-on"])
def test_served_proposals_equal_a_fresh_detect(monkeypatch, world, scheduler):
    detect_and_grant, detect = RefinedRuntime.detect_and_grant, ObjectEngine.detect
    submit, collect_events = SpaceMediator.submit_proposal, SpaceMediator.collect_events
    propagate = BellRoundPolicy.propagate
    detected, submitted, plans, served, runtimes, pairs = [], [], [], [], set(), set()

    def counted_detect(engine, view):
        detected.append(engine.object_id)
        return detect(engine, view)

    def counted_submit(mediator, *proposal):
        submitted.append(proposal)
        return submit(mediator, *proposal)

    def recorded_collect_events(mediator, plan):
        plans.append(plan)
        return collect_events(mediator, plan)

    def tracked_propagate(policy, state, object_id):
        moved = propagate(policy, state, object_id)
        if moved is not None:  # the emitted pair, at the source and drifted
            pairs.update((id(state.objects[object_id]), id(moved)))
        return moved

    def checked_detect_and_grant(runtime):
        # a fresh detect by every engine against the board readvertised from
        # the live objects, which the last publish installed; a trial's
        # first round detects on the empty board
        board, by_object = _readvertised(runtime.state) if runtime.round_index else ({}, {})
        probe = SpaceMediator(RngState(0))
        probe.install(board, {object_id: _publication(object_id, ads) for object_id, ads in by_object.items()})
        for object_id in sorted(runtime.engines):
            detect(ObjectEngine(object_id), RoundView(probe, object_id))
        engines = len(runtime.engines)
        pair_live = bool(pairs & set(map(id, runtime.state.objects.values())))
        for calls in (detected, submitted, plans):
            calls.clear()
        busy = detect_and_grant(runtime)
        # one collect a round, handed the events of a fresh detect in grant order
        assert plans == [probe.plan()]
        # every engine detects, or none does and nothing is submitted
        assert len(detected) in (0, engines)
        assert detected or not submitted
        served.append((not detected, pair_live))
        runtimes.add(id(runtime))
        return busy

    monkeypatch.setattr(ObjectEngine, "detect", counted_detect)
    monkeypatch.setattr(SpaceMediator, "submit_proposal", counted_submit)
    monkeypatch.setattr(SpaceMediator, "collect_events", recorded_collect_events)
    monkeypatch.setattr(BellRoundPolicy, "propagate", tracked_propagate)
    monkeypatch.setattr(RefinedRuntime, "detect_and_grant", checked_detect_and_grant)
    if world == "bell":
        run_bell_experiment(BellConfig(0.0, 30.0, trials=40, seed=2, runtime="refined", scheduler=scheduler))
        # each trial's pair is a new object, yet after the first trials
        # every board that holds it is served its plan
        late = [was_served for was_served, pair_live in served[len(served) // 2:] if pair_live]
        assert late and all(late)
    else:
        run_double_slit(world == "doubleslit-on", 40, SMALL_GEOMETRY, seed=2, runtime="refined", scheduler=scheduler)
    assert len(served) >= 40 * 4
    assert len(runtimes) == 1  # one runtime per run
    assert any(was_served for was_served, _ in served)  # boards repeat: rounds were served their plans


def test_a_tampered_proposal_fails_the_symmetry_check_and_stores_no_plan(monkeypatch):
    propose = RoundView.propose

    def tampered(view, other_id, cells):
        # one side of each pair names a cell the other side does not
        propose(view, other_id, cells + ((99,),) if view._object_id < other_id else cells)

    monkeypatch.setattr(RoundView, "propose", tampered)
    policy = _trials_of("doubleslit-on")
    root = RngState(5)
    runtime = RefinedRuntime(policy.start(root.substream(0)), policy, root.substream(0))
    with pytest.raises(InvariantViolation, match="proposal mismatch"):
        runtime.run(max_rounds=16)
    assert runtime._order not in runtime._entry[0][2]  # the board it failed on has no plan for the order
    stored = [plan for board in (runtime._empty, *runtime._boards.values()) for plan in board[2].values()]
    assert stored and not any(event for plan in stored for event in plan)


def test_a_spawn_on_an_installed_board_makes_that_round_detect_afresh(monkeypatch):
    detect = ObjectEngine.detect
    detected = []

    def counted_detect(engine, view):
        detected.append(engine.object_id)
        return detect(engine, view)

    monkeypatch.setattr(ObjectEngine, "detect", counted_detect)
    state = _world(_atom("b", (1,)), _atom("d", (1,)))
    runtime = RefinedRuntime(state, _StandStillPolicy(), RngState(0))
    per_round = []
    for round_index in range(5):
        if round_index == 3:  # a spawn between rounds, on the installed board
            state.add_object(_atom("a", (1,)))
            runtime.spawn_engine("a")
        detected.clear()
        runtime.run_round()
        per_round.append(sorted(detected))
    # the empty board, the pair's board laid out, served; then the spawn's
    # new order on that board, and the board the spawn publishes
    assert per_round == [["b", "d"], ["b", "d"], [], ["a", "b", "d"], ["a", "b", "d"]]
    vetoed = [(r["round"], *r["pair"]) for r in runtime.mediator.rejections]
    assert vetoed == [(1, "b", "d"), (2, "b", "d"), (3, "b", "d"), (4, "a", "b"), (4, "a", "d"), (4, "b", "d")]


def _store_sizes(runtime):
    return (
        len(runtime._publications),
        len(runtime._boards),
        len(runtime._by_identity),
        len(runtime._seen),
        len(runtime._empty[2]),
    )


@pytest.mark.parametrize("world", ["bell", "doubleslit-on"])
def test_snapshot_store_stays_within_its_bound(monkeypatch, world):
    full, sizes = _per_trial(world, "round-robin", reuse=True, trials=2000, size=_store_sizes)
    assert all(0 < size <= MAX_RECORDS for size in map(max, zip(*sizes)))
    # a bound small enough to clear every store often changes no trial; the two-slit world's memo_bound would raise
    # the bound, so it is zeroed (its memo stays far under MAX_MEMO here)
    monkeypatch.setattr(runtime_module, "MAX_RECORDS", 4)
    bounded, small = _per_trial(world, "round-robin", reuse=True, trials=300, size=_store_sizes, memo_bound=0)
    assert bounded == full[:300]
    assert max(map(max, small)) <= 4


def test_snapshots_are_dropped_when_the_space_changes():
    atom = _atom("a", (6,))
    first = _world(atom)
    runtime = RefinedRuntime(first, VetoPolicy(), RngState(0))
    runtime.run_round()
    runtime.next_trial(SystemState(space=first.space, objects={"a": atom}), RngState(1))
    runtime.run_round()
    # the second sighting of the atom stored its identity entry, and its
    # engine's one detect (on the first trial's empty board) its plan
    assert _store_sizes(runtime) == (1, 1, 1, 0, 1)
    small = SystemState(space=Space(dims=1, extent=(4,), delta_x=1.0), objects={"a": atom})
    runtime.next_trial(small, RngState(2))
    assert runtime._publications == runtime._boards == runtime._by_identity == runtime._seen == {}


# -- publications keyed by what they advertise ---------------------------------------


def _fresh_publication(state, object_id, obj):
    assert state.object_problem(obj) is None
    return (object_id, *runtime_module._advertise(object_id, obj))


@pytest.mark.parametrize(
    "world",
    [
        ("bell", 0.0, 30.0, "round-robin"),
        ("bell", 0.0, 30.0, "randomized"),
        ("bell", 0.0, 90.0, "round-robin"),
        ("bell", 0.0, 90.0, "randomized"),
        ("doubleslit", True, None, "round-robin"),
        ("doubleslit", False, None, "round-robin"),
    ],
    ids=lambda world: "-".join(map(str, world)),
)
def test_every_served_publication_equals_a_fresh_advertise(monkeypatch, world):
    publish = RefinedRuntime.publish_phase
    checked = []

    def checked_publish(runtime):
        publish(runtime)
        state = runtime.state
        served = runtime._entry[0][0]  # the installed board's publications, in id order
        fresh = [_fresh_publication(state, object_id, state.objects[object_id]) for object_id in sorted(state.objects)]
        assert [tuple(publication) for publication in served] == fresh
        assert repr([tuple(publication) for publication in served]) == repr(fresh)
        checked.append(len(served))

    monkeypatch.setattr(RefinedRuntime, "publish_phase", checked_publish)
    name, a, b, scheduler = world
    if name == "bell":
        run_bell_experiment(BellConfig(a, b, trials=300, seed=1, runtime="refined", scheduler=scheduler))
    else:
        run_double_slit(a, 300, SMALL_GEOMETRY, seed=1, runtime="refined", scheduler=scheduler)
    assert len(checked) >= 300 * 4 and min(checked) > 0


class _CountingState(SystemState):
    """A state that counts the objects it checks."""

    checked = 0

    def object_problem(self, obj):
        self.checked += 1
        return super().object_problem(obj)


_CELLS_2D = st.tuples(st.integers(0, 3), st.integers(0, 3))


@st.composite
def _tables(draw):
    """(particles, rows): 1-2 particles, 1-3 rows of (amplitude, cell sets)."""
    n_particles = draw(st.integers(1, 2))
    amplitude = st.sampled_from([1.0, 0.6, -0.8j, 0.5 + 0.5j, 0.0])
    cell_set = st.frozensets(_CELLS_2D, min_size=1, max_size=3)
    rows = draw(st.lists(st.tuples(amplitude, st.lists(cell_set, min_size=n_particles, max_size=n_particles)),
                         min_size=1, max_size=3))
    return n_particles, rows


def _table_object(object_id, n_particles, rows, spin=0.0, momentum=0.0, rephase=lambda a: a, blocks=None):
    return QuantumObject(
        object_id=object_id,
        kind=ObjectKind.PARTICLE_COLLECTION,
        particles=tuple(ParticleInfo(type="atom", mass=0.5) for _ in range(n_particles)),
        paths=tuple(
            Path(rephase(amplitude), tuple(PathState(cells, (momentum, 0.0), (0.0,), spindir=spin) for cells in cell_sets))
            for amplitude, cell_sets in rows
        ),
        global_attrs=dict(blocks or {}),
        conserved=dict(blocks or {}),
    )


def _published_by(runtime, state, obj):
    """The publication the runtime serves for obj, live alone in state."""
    state.objects = {obj.object_id: obj}
    runtime.publish_phase()
    (publication,) = runtime._entry[0][0]
    return publication


def _first_cells(rows, change):
    """rows with the first row's first cell set changed."""
    (amplitude, (cells, *rest)), *others = rows
    return [(amplitude, [change(cells), *rest]), *others]


@settings(max_examples=60, deadline=None)
@given(_tables(), st.sampled_from(["spin", "momentum", "phase", "blocks"]),
       st.sampled_from(["cell", "weight", "particles", "id"]))
def test_a_publication_is_shared_exactly_by_what_it_advertises(table, alike, unlike):
    n_particles, rows = table
    state = _CountingState(space=Space(dims=2, extent=(4, 4), delta_x=1.0))
    base = _table_object("a", n_particles, rows)
    runtime = RefinedRuntime(state, VetoPolicy(), RngState(0))
    first = _published_by(runtime, state, base)
    assert state.checked == 1
    # what no advertisement reads: spins, momenta, a phase at equal weight,
    # the conserved and global blocks
    variant = {
        "spin": lambda: _table_object("a", n_particles, rows, spin=45.0),
        "momentum": lambda: _table_object("a", n_particles, rows, momentum=3.0),
        "phase": lambda: _table_object("a", n_particles, rows, rephase=lambda a: -a.conjugate()),
        "blocks": lambda: _table_object("a", n_particles, rows, blocks={"energy": 2.0}),
    }[alike]()
    assert [path.weight for path in variant.paths] == [path.weight for path in base.paths]
    assert _published_by(runtime, state, variant) is first
    assert state.checked == 1
    # what an advertisement or the check reads gets a publication of its own
    if unlike == "particles":  # a table no longer rectangular: checked, and refused
        wider = _evolve(base, particles=base.particles + (ParticleInfo(type="atom"),))
        with pytest.raises(InvariantViolation, match=r"after propagation: .* not rectangular"):
            _published_by(runtime, state, wider)
        return
    other = {
        "cell": lambda: _table_object(
            "a", n_particles, _first_cells(rows, lambda cells: {(0, 0)} if cells == {(3, 3)} else {(3, 3)})
        ),
        "weight": lambda: _table_object("a", n_particles, [(rows[0][0] + 0.25, rows[0][1]), *rows[1:]]),
        "id": lambda: _table_object("b", n_particles, rows),
    }[unlike]()
    second = _published_by(runtime, state, other)
    assert second is not first and state.checked == 2
    assert tuple(second) == _fresh_publication(state, other.object_id, other)
    # and a table outside the lattice still stops the run
    outside = _table_object("a", n_particles, _first_cells(rows, lambda cells: cells | {(4, 0)}))
    with pytest.raises(InvariantViolation, match=r"after propagation: .* outside the lattice"):
        _published_by(runtime, state, outside)


def test_a_float_cell_is_not_served_an_int_cells_publication():
    state = _CountingState(space=Space(dims=1, extent=(8,), delta_x=1.0))
    runtime = RefinedRuntime(state, VetoPolicy(), RngState(0))
    as_int = _published_by(runtime, state, _atom("a", (1,)))
    floated = _atom("a", (1.0,))
    assert floated == _atom("a", (1,))  # (1.0,) == (1,)
    as_float = _published_by(runtime, state, floated)
    assert state.checked == 2  # checked, and not served the int cell's publication
    assert _published_by(runtime, state, _atom("a", (1,))) is as_int
    assert state.checked == 2
    fresh = _fresh_publication(state, "a", floated)
    assert tuple(as_float) == fresh
    assert repr(tuple(as_float)) == repr(fresh) != repr(tuple(as_int))


@pytest.mark.parametrize("scheduler", SCHEDULERS)
def test_a_warm_bell_run_lays_out_advertises_and_detects_nothing(monkeypatch, scheduler):
    # before publications were keyed by what they advertise, a warm run made
    # 2.21 layouts, 2.16 advertisements and 10.26 detects per trial here
    # (2.45, 2.32 and 10.52 randomized)
    calls, trials = {"_lay_out": 0, "_advertise": 0, "detect": 0}, [0]

    def counted(owner, name):
        original = getattr(owner, name)

        def call(*args):
            calls[name] += trials[0] > 1000
            return original(*args)

        monkeypatch.setattr(owner, name, call)

    counted(runtime_module, "_lay_out")
    counted(runtime_module, "_advertise")
    counted(ObjectEngine, "detect")
    next_trial = RefinedRuntime.next_trial

    def counted_trial(runtime, state, rng):
        trials[0] += 1
        next_trial(runtime, state, rng)

    monkeypatch.setattr(RefinedRuntime, "next_trial", counted_trial)
    run_bell_experiment(BellConfig(0.0, 30.0, trials=2000, seed=1, runtime="refined", scheduler=scheduler))
    assert trials[0] == 2000
    assert calls == {"_lay_out": 0, "_advertise": 0, "detect": 0}


# -- one mediator per trial, and stores that hold what can be served again -----------


@pytest.mark.parametrize("scheduler", SCHEDULERS)
def test_next_trial_starts_a_new_mediator_on_an_empty_board(scheduler):
    policy = _trials_of("bell")
    root = RngState(5)
    runtime = RefinedRuntime(policy.start(root.substream(0)), policy, root.substream(0), scheduler)
    assert runtime.mediator.rng.key == (0, "events")
    for trial in range(1, 6):
        runtime.run(max_rounds=16)
        last = runtime.mediator
        rejections = last.rejections
        assert rejections  # the pair meets both screens in one round, one waits
        kept = list(rejections)
        last.submit_proposal("stray", "other", ((0,),))  # leave a proposal pending
        rng = root.substream(trial)
        runtime.next_trial(policy.start(rng), rng)
        mediator = runtime.mediator
        assert mediator is not last
        assert mediator.board == {} and mediator.published == {}
        assert mediator._proposals == {} and mediator.rejections == [] and mediator.rejections is not rejections
        assert last.rejections is rejections == kept  # the last trial's list is left as it was
        assert mediator.rng.key == rng.substream("events").key == (trial, "events")
        assert mediator.rng.draws == 0
        assert mediator.scheduler == scheduler


def _counting_trials(monkeypatch):
    """[trials started so far, the runtimes that started them]."""
    started = [0, set()]
    next_trial = RefinedRuntime.next_trial

    def counted_trial(runtime, state, rng):
        started[0] += 1
        started[1].add(runtime)
        next_trial(runtime, state, rng)

    monkeypatch.setattr(RefinedRuntime, "next_trial", counted_trial)
    return started


def _counting_clears(monkeypatch, started, after):
    """The stores _store cleared once more than `after` trials had started."""
    cleared = []
    store = runtime_module._store

    def counted_store(target, key, value, bound):
        if started[0] > after and len(target) >= bound:
            cleared.append(target)
        return store(target, key, value, bound)

    monkeypatch.setattr(runtime_module, "_store", counted_store)
    return cleared


@pytest.mark.parametrize("scheduler", SCHEDULERS)
def test_a_warm_bell_run_keys_only_the_copies_it_makes(monkeypatch, scheduler):
    # each trial's pair is a copy the world builds anew, at the source and
    # once drifted; every other object is served by identity.  Before, a warm
    # trial keyed 6.1 publications, and the identity index stored the pair's
    # entries and was cleared about every 120 trials
    started = _counting_trials(monkeypatch)
    cleared = _counting_clears(monkeypatch, started, 1000)
    keyed = [0]
    publication_key = runtime_module._publication_key

    def counted_key(object_id, obj):
        keyed[0] += started[0] > 1000
        return publication_key(object_id, obj)

    monkeypatch.setattr(runtime_module, "_publication_key", counted_key)
    run_bell_experiment(BellConfig(0.0, 30.0, trials=3000, seed=1, runtime="refined", scheduler=scheduler))
    (runtime,) = started[1]
    assert started[0] == 3000
    assert keyed[0] <= 2 * 2000
    assert not any(store is runtime._by_identity or store is runtime._boards for store in cleared)
    assert len(runtime._by_identity) < 32


def test_a_marked_two_slit_run_at_128_cells_keeps_its_boards(monkeypatch):
    # such a run lays out about 261 boards, more than MAX_RECORDS; the stores
    # are sized by the world's memo_bound, so none is cleared and no board is
    # laid out twice.  Before, two stores were cleared about once per 1000
    # trials and a warm trial made 0.26 layouts.  The few late layouts left
    # are first sightings of rarely hit cells.
    started = _counting_trials(monkeypatch)
    cleared = _counting_clears(monkeypatch, started, 1000)
    laid_out, late = [], [0]
    lay_out = runtime_module._lay_out

    def recorded_lay_out(publications):
        laid_out.append(tuple((p.object_id, tuple(p.ads)) for p in publications))
        late[0] += started[0] > 1000
        return lay_out(publications)

    monkeypatch.setattr(runtime_module, "_lay_out", recorded_lay_out)
    run_double_slit(True, 3000, DEFAULT_GEOMETRY, seed=1, runtime="refined")
    (runtime,) = started[1]
    assert runtime._bound == DoubleSlitRoundPolicy(DEFAULT_GEOMETRY, True).memo_bound > MAX_RECORDS
    assert cleared == []
    assert len(runtime._boards) > MAX_RECORDS
    assert len(set(laid_out)) == len(laid_out)
    assert late[0] < 0.005 * 2000


def test_a_marked_object_stays_alive_and_a_new_object_gets_its_own_board():
    # a first sighting's mark holds its objects, so while the mark is a key
    # no new object can take their id()s and be served their board
    runtime = RefinedRuntime(_world(_atom("a", (1,))), VetoPolicy(), RngState(0))
    runtime.run_round()
    assert list(runtime.mediator.board) == [(1,)]
    ref = weakref.ref(runtime.state.objects["a"])
    ((board, live),) = runtime._seen.values()
    runtime.next_trial(_world(_atom("a", (4,))), RngState(1))
    gc.collect()
    assert ref() is not None and live[0] is ref()  # the trial is over, and its mark keeps the atom
    runtime.run_round()
    assert list(runtime.mediator.board) == [(4,)]
    assert runtime._entry[0] is not board
    assert runtime._by_identity == {}


def test_an_object_held_under_another_id_gets_that_ids_publication():
    state = _world(_atom("a", (1,)))
    runtime = RefinedRuntime(state, VetoPolicy(), RngState(0))
    runtime.run_round()
    state.objects["b"] = state.objects["a"]  # the installed board holds it, as "a"
    runtime.run_round()
    board, by_object = _readvertised(state)
    assert list(runtime.mediator.board.items()) == list(board.items())
    assert [(object_id, p.ads) for object_id, p in runtime.mediator.published.items()] == list(by_object.items())


class _StandStillPolicy(VetoPolicy):
    """Vetoes every event and records which objects were asked to move."""

    def __init__(self):
        self.asked = []

    def propagate(self, state, object_id):
        self.asked.append(object_id)
        return None


def test_the_engine_order_follows_every_spawn_and_retirement():
    state = _world(_atom("b", (1,)), _atom("d", (5,)))
    policy = _StandStillPolicy()
    runtime = RefinedRuntime(state, policy, RngState(0))
    asked = []
    for round_index in range(7):
        if round_index == 2:  # a spawn that retires nothing
            state.add_object(_atom("a", (3,)))
            runtime.spawn_engine("a")
        if round_index == 5:  # a retirement that spawns nothing
            del state.objects["b"]
            runtime.retire_missing_engines()
        policy.asked.clear()
        runtime.run_round()
        asked.append(list(policy.asked))
        assert runtime._order in (None, tuple(sorted(runtime.engines)))
    # an engine may move PROPAGATION_DELAY rounds after its spawn
    assert asked == [[], [], ["b", "d"], ["b", "d"], ["a", "b", "d"], ["a", "d"], ["a", "d"]]

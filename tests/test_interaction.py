"""Interaction pipeline: candidates, weighted selection, the five-stage event."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qcausal import interaction, runtime
from qcausal.engine import Cumulative, RngState
from qcausal.errors import ConfigError, InvariantViolation, UnknownObjectError
from qcausal.experiments import bell, doubleslit
from qcausal.interaction import (
    MAX_MEMO,
    InteractionCandidate,
    InteractionObject,
    OutcomeRow,
    OutcomeTable,
    Provenance,
    RoundPolicy,
    claim,
    create_interaction_object,
    determine_potential_interactions,
    drop_particle,
    eliminate_unaffected_paths,
    interaction_effect,
    perform_interaction,
    process_interaction_object,
    select_interaction,
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
    normalize_amplitudes,
    path_support,
    reduce_to_path,
    total_conserved,
)

INV2 = 1.0 / math.sqrt(2.0)


def ps(*cells, momentum=(0.0,), am=(0.0,), spindir=0.0):
    return PathState(frozenset(cells), momentum, am, spindir)


def particle(object_id, paths, mass=1.0, conserved=None, type="dot"):
    return QuantumObject(
        object_id=object_id,
        kind=ObjectKind.PARTICLE,
        particles=(ParticleInfo(type, mass),),
        paths=tuple(paths),
        conserved=dict(conserved) if conserved else {},
    )


def table_at(cell, name="capture", mass=2.0):
    row = OutcomeRow(
        particles=(ParticleInfo("fused", mass),),
        pathstates=(ps(cell),),
        amplitude=1.0,
    )
    return OutcomeTable(name, (row,))


# --- candidate enumeration ---------------------------------------------------

def test_candidates_require_shared_points():
    a = particle("a", [Path(1.0, (ps((0,)),))])
    b = particle("b", [Path(1.0, (ps((3,)),))])
    assert determine_potential_interactions(a, b) == []


def test_candidate_fields_and_weight():
    a = particle("a", [Path(INV2, (ps((0,)),)), Path(INV2, (ps((1,)),))])
    b = particle("b", [Path(1.0, (ps((1,), (2,)),))])
    cands = determine_potential_interactions(a, b)
    assert cands == [
        InteractionCandidate(position=(1,), path_index_1=1, path_index_2=0,
                             joint_weight=pytest.approx(0.5))
    ]


def test_candidates_zero_weight_rows_pruned():
    a = particle("a", [Path(1.0, (ps((0,)),)), Path(0.0, (ps((1,)),))])
    b = particle("b", [Path(1.0, (ps((0,), (1,)),))])
    cands = determine_potential_interactions(a, b)
    assert [c.path_index_1 for c in cands] == [0]


def test_candidates_sorted_by_point():
    a = particle("a", [Path(1.0, (ps((4,), (1,), (3,)),))])
    b = particle("b", [Path(1.0, (ps((3,), (4,), (0,)),))])
    cands = determine_potential_interactions(a, b)
    assert [c.position for c in cands] == [(3,), (4,)]


def test_candidates_report_covering_columns():
    left = ps((0,))
    right = ps((5,))
    pair = QuantumObject(
        "pair", ObjectKind.PARTICLE_COLLECTION,
        (ParticleInfo("half", 0.5), ParticleInfo("half", 0.5)),
        (Path(1.0, (left, right)),),
    )
    probe = particle("probe", [Path(1.0, (ps((5,)),))])
    (cand,) = determine_potential_interactions(pair, probe)
    assert cand.particle_index_1 == 1  # the right-hand column covers (5,)
    assert cand.particle_index_2 == 0


def test_self_interaction_rejected():
    a = particle("a", [Path(1.0, (ps((0,)),))])
    with pytest.raises(ConfigError):
        determine_potential_interactions(a, a)


def test_every_path_pair_with_overlap_is_listed():
    a = particle("a", [Path(INV2, (ps((0,)),)), Path(INV2, (ps((0,), (1,)),))])
    b = particle("b", [Path(INV2, (ps((0,)),)), Path(INV2, (ps((1,)),))])
    cands = determine_potential_interactions(a, b)
    keys = {(c.path_index_1, c.path_index_2, c.position) for c in cands}
    assert keys == {(0, 0, (0,)), (1, 0, (0,)), (1, 1, (1,))}
    assert all(c.joint_weight == pytest.approx(0.25) for c in cands)


# --- selection ----------------------------------------------------------------

def test_select_certain_candidate():
    sure = InteractionCandidate((0,), 0, 0, 1.0)
    assert select_interaction([sure], RngState(0)) is sure


def test_select_is_weight_proportional():
    light = InteractionCandidate((0,), 0, 0, 0.25)
    heavy = InteractionCandidate((1,), 1, 0, 0.75)
    rng = RngState(5)
    n = 20000
    hits = sum(select_interaction([light, heavy], rng) is heavy for _ in range(n))
    assert abs(hits / n - 0.75) < 0.01  # se ~ 0.003


def test_select_empty_raises():
    with pytest.raises(ConfigError):
        select_interaction([], RngState(0))


@pytest.mark.parametrize(
    "weights, reason",
    [
        ([0.0], "joint weights"),
        ([0.0, 0.0], "joint weights"),
        ([-1.0], "joint weights"),
        ([math.nan, 1.0], "joint weights"),
        ([0.5, -0.25], "negative probability"),
    ],
)
def test_select_rejects_bad_weights(weights, reason):
    # all-zero weights would divide by zero, and a lone negative weight
    # would normalise to 1.0 and be selected
    cands = [InteractionCandidate((i,), 0, 0, w) for i, w in enumerate(weights)]
    rng = RngState(0)
    with pytest.raises(ConfigError, match=reason):
        select_interaction(cands, rng)
    assert rng.draws == 0


def test_select_accepts_the_cumulative_form():
    light = InteractionCandidate((0,), 0, 0, 0.25)
    heavy = InteractionCandidate((1,), 1, 0, 0.75)
    summed = Cumulative([0.25, 0.75])
    for seed in range(200):
        plain = select_interaction([light, heavy], RngState(seed))
        assert select_interaction([light, heavy], RngState(seed), summed) is plain


# --- outcome tables -------------------------------------------------------------

def test_outcome_table_validation():
    good = OutcomeRow((ParticleInfo("x"),), (ps((0,)),), INV2)
    other = OutcomeRow((ParticleInfo("x"),), (ps((1,)),), INV2)
    OutcomeTable("ok", (good, other))
    with pytest.raises(ConfigError):
        OutcomeTable("empty", ())
    with pytest.raises(ConfigError):
        OutcomeTable("lopsided", (OutcomeRow((ParticleInfo("x"),), (ps((0,)),), 0.5),))
    wide = OutcomeRow((ParticleInfo("x"), ParticleInfo("y")), (ps((0,)), ps((1,))), INV2)
    with pytest.raises(ConfigError):
        OutcomeTable("ragged", (good, wide))
    with pytest.raises(ConfigError):
        OutcomeRow((ParticleInfo("x"),), (ps((0,)), ps((1,))), 1.0)
    with pytest.raises(ConfigError, match="no particles"):
        OutcomeRow((), (), 1.0)
    # a row's parts are tuples, as the Path and QuantumObject built from them
    listed = OutcomeRow([ParticleInfo("x")], [ps((0,))], 1.0)
    assert listed == OutcomeRow((ParticleInfo("x"),), (ps((0,)),), 1.0)
    assert type(listed.particles) is tuple and type(listed.pathstates) is tuple


# --- create / drop / process ------------------------------------------------------

def test_create_interaction_object_sums_conserved():
    a = particle("a", [Path(1.0, (ps((2,), momentum=(1.0,), am=(0.5,)),))], mass=1.5)
    b = particle("b", [Path(1.0, (ps((2,), momentum=(-2.0,), am=(0.25,)),))], mass=0.5)
    cand = InteractionCandidate((2,), 0, 0, 1.0)
    ia = create_interaction_object(a, b, cand, tag="x")
    assert ia.core.object_id == "ia-x"
    assert ia.core.kind is ObjectKind.INTERACTION_OBJECT
    assert ia.core.conserved == {
        "energy": 2.0,
        "momentum": (-1.0,),
        "angularmomentum": (0.75,),
    }
    assert ia.core.global_attrs["position"] == (2,)
    assert ia.provenance.object_ids == ("a", "b")
    assert ia.provenance.position == (2,)


def test_create_interaction_object_checks_coverage():
    a = particle("a", [Path(1.0, (ps((0,)),))])
    b = particle("b", [Path(1.0, (ps((0,)),))])
    with pytest.raises(ConfigError):
        create_interaction_object(a, b, InteractionCandidate((4,), 0, 0, 1.0), tag="x")
    with pytest.raises(IndexError):
        create_interaction_object(a, b, InteractionCandidate((0,), 3, 0, 1.0), tag="x")


def test_drop_last_particle_removes_object():
    m = _consistent("m", (0,), 1.0, (0.0,))
    assert drop_particle(m) is None
    # in a state, the consumed owner is gone, so a second drop of it fails
    state = SystemState(space=Space(1, (8,), 1.0))
    state.add_object(m)
    state.add_object(_consistent("n", (0,), 1.0, (0.0,)))
    (cand,) = determine_potential_interactions(m, state.objects["n"])
    perform_interaction(state, "m", "n", cand, table_at((0,)))
    assert "m" not in state.objects
    with pytest.raises(UnknownObjectError):
        perform_interaction(state, "m", "n", cand, table_at((0,)))


def test_drop_column_from_collection():
    rows = (Path(1.0, (ps((0,), momentum=(1.0,)), ps((3,), momentum=(-1.0,)))),)
    pair = QuantumObject(
        "pair", ObjectKind.PARTICLE_COLLECTION,
        (ParticleInfo("half", 0.5), ParticleInfo("half", 0.5)), rows,
        conserved={"energy": 1.0, "momentum": (0.0,), "angularmomentum": (0.0,)},
    )
    survivor = drop_particle(pair, particle_index=0, row_index=0)
    assert len(pair.particles) == 2  # the drop is pure
    assert len(survivor.particles) == 1
    assert survivor.paths[0].pathstates[0].spacepoints == frozenset({(3,)})
    # The departing column takes its rest energy and row momentum with it.
    assert survivor.conserved == {"energy": 0.5, "momentum": (-1.0,), "angularmomentum": (0.0,)}


def test_drop_particle_index_out_of_range():
    with pytest.raises(IndexError):
        drop_particle(particle("m", [Path(1.0, (ps((0,)),))]), particle_index=2)


def test_process_interaction_object():
    a = particle("a", [Path(1.0, (ps((1,), momentum=(2.0,)),))], mass=1.0)
    b = particle("b", [Path(1.0, (ps((1,), momentum=(-1.0,)),))], mass=1.0)
    cand = InteractionCandidate((1,), 0, 0, 1.0)
    row_up = OutcomeRow((ParticleInfo("fused", 2.0),), (ps((1,), spindir=0.0),), INV2)
    row_dn = OutcomeRow((ParticleInfo("fused", 2.0),), (ps((1,), spindir=90.0),), INV2)
    ia = create_interaction_object(a, b, cand, OutcomeTable("fuse", (row_up, row_dn)), tag="7")
    out = process_interaction_object(ia)
    assert out.object_id == "out-7"
    assert out.kind is ObjectKind.PARTICLE_COLLECTION
    assert out.n_paths == 2
    assert math.isclose(out.amplitude_norm(), 1.0, abs_tol=1e-12)
    assert out.conserved == {"energy": 2.0, "momentum": (1.0,), "angularmomentum": (0.0,)}


def test_process_requires_table():
    a = particle("a", [Path(1.0, (ps((1,)),))])
    b = particle("b", [Path(1.0, (ps((1,)),))])
    ia = create_interaction_object(a, b, InteractionCandidate((1,), 0, 0, 1.0), tag="x")
    with pytest.raises(ConfigError):
        process_interaction_object(ia)


# --- full pipeline -----------------------------------------------------------------

def _consistent(object_id, cell, mass, momentum):
    return particle(
        object_id,
        [Path(1.0, (ps(cell, momentum=momentum),))],
        mass=mass,
        conserved={"energy": mass, "momentum": momentum, "angularmomentum": (0.0,)},
    )


def test_perform_interaction_conserves_totals():
    state = SystemState(space=Space(1, (8,), 1.0))
    state.add_object(_consistent("a", (3,), 1.0, (2.0,)))
    state.add_object(_consistent("b", (3,), 1.0, (-1.0,)))
    before = total_conserved(state.objects.values())
    (cand,) = determine_potential_interactions(state.objects["a"], state.objects["b"])
    out = perform_interaction(state, "a", "b", cand, table_at((3,)))
    after = total_conserved(state.objects.values())
    assert before == after == {"energy": 2.0, "momentum": (1.0,), "angularmomentum": (0.0,)}
    assert set(state.objects) == {out.object_id}
    assert out.object_id.startswith("out-")
    assert state.events == 3  # two drops and the interaction


def test_perform_interaction_ids_are_reproducible():
    def run_once():
        state = SystemState(space=Space(1, (8,), 1.0))
        state.add_object(_consistent("a", (3,), 1.0, (0.0,)))
        state.add_object(_consistent("b", (3,), 1.0, (0.0,)))
        (cand,) = determine_potential_interactions(state.objects["a"], state.objects["b"])
        return perform_interaction(state, "a", "b", cand, table_at((3,))).object_id

    assert run_once() == run_once() == "out-0"


def test_interaction_collapses_entangled_partner():
    # Two-row pair: row 0 puts spin 0/90 on the wings, row 1 swaps them.
    rows = (
        Path(INV2, (ps((0,), spindir=0.0), ps((4,), spindir=90.0))),
        Path(INV2, (ps((0,), spindir=90.0), ps((4,), spindir=0.0))),
    )
    pair = QuantumObject(
        "pair", ObjectKind.PARTICLE_COLLECTION,
        (ParticleInfo("half", 0.5), ParticleInfo("half", 0.5)), rows,
        conserved={"energy": 1.0, "momentum": (0.0,), "angularmomentum": (0.0,)},
    )
    state = SystemState(space=Space(1, (8,), 1.0))
    state.add_object(pair)
    state.add_object(_consistent("probe", (0,), 1.0, (0.0,)))
    cands = determine_potential_interactions(state.objects["pair"], state.objects["probe"])
    assert len(cands) == 2  # one per pair row, both at (0,)
    chosen = next(c for c in cands if c.path_index_1 == 1)
    perform_interaction(state, "pair", "probe", chosen, table_at((0,)))
    survivor = state.objects["pair"]
    # The far column is reduced to the interacting row in the same stroke.
    assert survivor.n_paths == 1
    assert len(survivor.particles) == 1
    far = survivor.paths[0].pathstates[0]
    assert far.spacepoints == frozenset({(4,)})
    assert far.spindir == 0.0
    assert abs(survivor.paths[0].amplitude) == pytest.approx(1.0)


def test_eliminate_unaffected_paths_is_reduce():
    obj = particle("o", [Path(INV2, (ps((0,)),)), Path(INV2, (ps((1,)),))])
    kept = eliminate_unaffected_paths(obj, 0)
    assert kept.n_paths == 1
    assert kept.paths[0].pathstates[0].spacepoints == frozenset({(0,)})


# --- claim: the one event step both schedulers run -----------------------------------

class _ShiftingPolicy(RoundPolicy):
    """Moves "b" to `cell` in prepare; answers with `table` (None vetoes)."""

    def __init__(self, cell, table):
        self.cell, self.table, self.calls = cell, table, []

    def prepare(self, state, a_id, b_id):
        self.calls.append("prepare")
        state.objects["b"] = _consistent("b", self.cell, 1.0, (0.0,))

    def table_for(self, state, a_id, b_id, candidate):
        self.calls.append(("table_for", candidate.position))
        return self.table


def _claim_world():
    state = SystemState(space=Space(1, (8,), 1.0))
    state.add_object(_consistent("a", (3,), 1.0, (0.0,)))
    state.add_object(_consistent("b", (5,), 1.0, (0.0,)))
    return state


def test_claim_selects_from_prepared_objects_and_performs():
    state = _claim_world()
    policy = _ShiftingPolicy((3,), table_at((3,)))
    rng = RngState(0)
    chosen, out = claim(state, policy, "a", "b", rng)
    # the candidate comes from the prepared "b", which prepare moved onto "a"
    assert chosen.position == (3,)
    assert policy.calls == ["prepare", ("table_for", (3,))]
    assert set(state.objects) == {out.object_id} and out.object_id == "out-0"
    assert rng.draws == 1


@pytest.mark.parametrize(
    "cell, table, reason, draws",
    [((6,), table_at((6,)), "no live candidates", 0), ((3,), None, "vetoed", 1)],
)
def test_claim_reports_why_nothing_happened(cell, table, reason, draws):
    state = _claim_world()
    rng = RngState(0)
    assert claim(state, _ShiftingPolicy(cell, table), "a", "b", rng) == reason
    assert set(state.objects) == {"a", "b"} and state.events == 0
    assert rng.draws == draws


# --- effects: computed once, applied to many states ----------------------------------

def _copy_of(state):
    return SystemState(space=state.space, objects=dict(state.objects), events=state.events)


def _assert_applied_like_a_fresh_perform(state, ref, a_id, b_id, claimed, table):
    """state after a claim equals ref (its copy from before the interaction)
    after a fresh perform_interaction of the same candidate and table."""
    chosen, out = claimed
    fresh = perform_interaction(ref, a_id, b_id, chosen, table)
    assert out == fresh and out.object_id == fresh.object_id
    assert list(state.objects.items()) == list(ref.objects.items())  # insertion order too
    assert state.events == ref.events


class _MemoPolicy(RoundPolicy):
    """Keeps a memo; serves the tables in turn, one per claim."""

    def __init__(self, tables):
        self.memo = {}
        self.tables = tables
        self.turn = 0

    def table_for(self, state, a_id, b_id, candidate):
        self.turn += 1
        return self.tables[(self.turn - 1) % len(self.tables)]


def _memo_world(a, b, earlier_events):
    state = SystemState(space=Space(1, (8,), 1.0))
    state.add_object(a)
    state.add_object(b)
    state.events = earlier_events
    return state


class _FixedCandidates(_MemoPolicy):
    def __init__(self, tables, found):
        super().__init__(tables)
        self.found = found, Cumulative([1.0])

    def candidates(self, state, a_id, b_id):
        return self.found


def test_effect_memo_keys_on_the_tag():
    # the same objects, candidate and table, claimed at different event
    # counts: each effect names its out collection by its own tag
    a, b = _consistent("a", (3,), 1.0, (2.0,)), _consistent("b", (3,), 1.0, (-1.0,))
    table = table_at((3,))
    policy = _FixedCandidates([table], determine_potential_interactions(a, b))
    for earlier in (0, 1, 0, 2, 1):
        state = _memo_world(a, b, earlier)
        ref = _copy_of(state)
        claimed = claim(state, policy, "a", "b", RngState(earlier))
        _assert_applied_like_a_fresh_perform(state, ref, "a", "b", claimed, table)
        assert claimed[1].object_id == f"out-{earlier}"
    assert len(policy.memo) == 3


def test_effect_memo_keys_on_the_table():
    # the same objects, candidate and tag, with the table alternating
    a, b = _consistent("a", (3,), 1.0, (2.0,)), _consistent("b", (3,), 1.0, (-1.0,))
    tables = [table_at((3,), "light", mass=2.0), table_at((3,), "heavy", mass=5.0)]
    policy = _FixedCandidates(tables, determine_potential_interactions(a, b))
    for turn in range(4):
        state = _memo_world(a, b, 0)
        ref = _copy_of(state)
        claimed = claim(state, policy, "a", "b", RngState(turn))
        _assert_applied_like_a_fresh_perform(state, ref, "a", "b", claimed, tables[turn % 2])
    assert len(policy.memo) == 2


def test_effect_memo_keys_on_the_objects_and_the_candidate():
    # an equal object that is another object, and an equal candidate list
    # built again, are misses: nothing is trusted by equality
    a, b = _consistent("a", (3,), 1.0, (0.0,)), _consistent("b", (3,), 1.0, (0.0,))
    table = table_at((3,))
    policy = _FixedCandidates([table], determine_potential_interactions(a, b))
    twin = _consistent("a", (3,), 1.0, (0.0,))
    for step, owner in enumerate((a, a, twin, twin, a)):
        if step == 4:
            policy.found = determine_potential_interactions(a, b), policy.found[1]
        state = _memo_world(owner, b, 0)
        ref = _copy_of(state)
        claimed = claim(state, policy, "a", "b", RngState(step))
        _assert_applied_like_a_fresh_perform(state, ref, "a", "b", claimed, table)
    assert len(policy.memo) == 3


def test_effect_memo_keys_on_the_second_object():
    # the second participant alternates with one of other momentum
    a = _consistent("a", (3,), 1.0, (0.0,))
    seconds = [_consistent("b", (3,), 1.0, (0.0,)), _consistent("b", (3,), 1.0, (-1.0,))]
    table = table_at((3,))
    policy = _FixedCandidates([table], determine_potential_interactions(a, seconds[0]))
    for step in range(4):
        state = _memo_world(a, seconds[step % 2], 0)
        ref = _copy_of(state)
        claimed = claim(state, policy, "a", "b", RngState(step))
        _assert_applied_like_a_fresh_perform(state, ref, "a", "b", claimed, table)
    assert len(policy.memo) == 2


class _FreshCandidates(_MemoPolicy):
    def candidates(self, state, a_id, b_id):
        found = determine_potential_interactions(state.objects[a_id], state.objects[b_id])
        return found, Cumulative([1.0])


def test_effect_memo_stays_within_its_bound():
    # every claim a miss, for its candidate is new: the memo fills up to
    # MAX_MEMO and is cleared
    a, b = _consistent("a", (3,), 1.0, (0.0,)), _consistent("b", (3,), 1.0, (0.0,))
    policy = _FreshCandidates([table_at((3,))])
    sizes = []
    for trial in range(2000):
        claim(_memo_world(a, b, 0), policy, "a", "b", RngState(trial))
        sizes.append(len(policy.memo))
    assert max(sizes) == MAX_MEMO
    assert sizes[MAX_MEMO] == 1  # cleared, then refilled
    # the default candidates are memoised too: the same two objects meet
    # in every claim, so one candidate list and its one effect serve them all
    policy = _MemoPolicy([table_at((3,))])
    for trial in range(100):
        claim(_memo_world(a, b, 0), policy, "a", "b", RngState(trial))
    assert sorted(key[0] for key in policy.memo) == ["candidates", "effect"]


def test_perform_interaction_is_its_effect_applied():
    a, b = _consistent("a", (3,), 1.0, (2.0,)), _consistent("b", (3,), 1.0, (-1.0,))
    (cand,) = determine_potential_interactions(a, b)
    state = _memo_world(a, b, 2)
    owners, effect_out = interaction_effect(a, b, cand, table_at((3,)), 2)
    assert owners == (("a", None), ("b", None))
    out = perform_interaction(state, "a", "b", cand, table_at((3,)))
    assert out == effect_out and state.events == 5
    assert state.objects == {out.object_id: out}


def _checked_claims(monkeypatch):
    """Replace the schedulers' claim with one that compares every performed
    claim with a fresh perform_interaction on a copy of its state, taken
    when the two-slit policy gives its table.  Returns the checked out
    collections."""
    copies, checked = [], []
    table_for = doubleslit.DoubleSlitRoundPolicy.table_for

    def recording_table_for(self, state, a_id, b_id, candidate):
        table = table_for(self, state, a_id, b_id, candidate)
        copies.append((_copy_of(state), table))
        return table

    def checked_claim(state, policy, a_id, b_id, rng):
        claimed = claim(state, policy, a_id, b_id, rng)
        ref, table = copies.pop()
        _assert_applied_like_a_fresh_perform(state, ref, a_id, b_id, claimed, table)
        checked.append(claimed[1])
        return claimed

    monkeypatch.setattr(doubleslit.DoubleSlitRoundPolicy, "table_for", recording_table_for)
    monkeypatch.setattr(doubleslit, "claim", checked_claim)
    monkeypatch.setattr(runtime, "claim", checked_claim)
    return checked


def _effects(policy) -> dict:
    """The effect entries of a policy's memo."""
    return {key: entry for key, entry in policy.memo.items() if key[0] == "effect"}


def _recorded_policies(monkeypatch):
    policies = []

    class Recorded(doubleslit.DoubleSlitRoundPolicy):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            policies.append(self)

    monkeypatch.setattr(doubleslit, "DoubleSlitRoundPolicy", Recorded)
    return policies


@pytest.mark.parametrize("marker", [False, True])
@pytest.mark.parametrize("scheduler", ["centralized", "round-robin", "randomized"])
def test_two_slit_effects_served_from_the_memo_equal_fresh_ones(marker, scheduler, monkeypatch):
    checked = _checked_claims(monkeypatch)
    policies = _recorded_policies(monkeypatch)
    geometry = doubleslit.SMALL_GEOMETRY
    if scheduler == "centralized":
        hist = doubleslit.run_double_slit(marker, 400, geometry, seed=3)
    else:
        hist = doubleslit.run_double_slit(
            marker, 150, geometry, seed=3, runtime="refined", scheduler=scheduler
        )
    claims = hist.trials * (2 if marker else 1)
    assert len(checked) == claims
    (policy,) = policies
    effects = _effects(policy)
    # at most one effect per (fan, screen cell), plus the two marking ones
    assert len(effects) <= (2 + 2 * geometry.n_cells if marker else geometry.n_cells) < claims
    assert len({id(out) for out in checked}) == len(effects)


def test_two_slit_effect_memo_is_per_run_and_never_written_into(monkeypatch):
    policies = _recorded_policies(monkeypatch)
    computed = []

    def counted(*args):
        computed.append(args)
        return interaction_effect(*args)

    monkeypatch.setattr(interaction, "interaction_effect", counted)
    geometry = doubleslit.DEFAULT_GEOMETRY
    runs = [doubleslit.run_double_slit(True, 2000, geometry, seed=9) for _ in range(2)]
    assert np.array_equal(runs[0].counts, runs[1].counts)
    first, second = policies
    assert first.memo is not second.memo
    effects = _effects(first)
    # a new run starts empty, so it computes exactly what the first did
    assert len(computed) == 2 * len(effects) == 2 * len(_effects(second))
    assert len(effects) <= 2 + 2 * geometry.n_cells and len(first.memo) <= MAX_MEMO
    for key, ((a, b, chosen, table, tag), effect) in effects.items():
        again = interaction_effect(a, b, chosen, table, str(key[-1]))
        assert tag == key[-1] and effect == again and repr(effect) == repr(again)


# --- the per-run memo: every world's claims served through RoundPolicy.memoised -----

def _comparable(value):
    """value with a Cumulative replaced by its sums and total, which repr shows."""
    if isinstance(value, tuple) and len(value) == 2 and isinstance(value[1], Cumulative):
        return value[0], (value[1].sums, value[1].total)
    return value


MEMO_RUNS = [
    ("bell", None, "centralized", "round-robin"),
    ("bell", None, "refined", "round-robin"),
    ("bell", None, "refined", "randomized"),
    ("doubleslit", False, "centralized", "round-robin"),
    ("doubleslit", True, "centralized", "round-robin"),
    ("doubleslit", False, "refined", "randomized"),
    ("doubleslit", True, "refined", "randomized"),
]


def _memo_run(world, marker, runtime, scheduler, trials):
    """A fresh world policy and the outcomes of its run."""
    if world == "bell":
        policy = bell.BellRoundPolicy(0.0, 30.0, "uniform", RngState(6))
    else:
        policy = doubleslit.DoubleSlitRoundPolicy(doubleslit.SMALL_GEOMETRY, marker)
    return policy, list(interaction.run_trials(policy, trials, 6, runtime, scheduler))


@pytest.mark.parametrize("world, marker, runtime, scheduler", MEMO_RUNS)
def test_every_memo_hit_equals_a_fresh_build(world, marker, runtime, scheduler, monkeypatch):
    memoised, served = RoundPolicy.memoised, {}

    def checked(self, key, build, *args):
        hit = key in self.memo
        got = memoised(self, key, build, *args)
        fresh = build(*args)
        assert _comparable(got) == _comparable(fresh)
        assert repr(_comparable(got)) == repr(_comparable(fresh))
        if hit:
            served[key[0]] = served.get(key[0], 0) + 1
        return got

    monkeypatch.setattr(RoundPolicy, "memoised", checked)
    policy, outcomes = _memo_run(world, marker, runtime, scheduler, 80)
    # every kind a world memoises was served from the memo, and often
    kinds = {"candidates", "effect", "analyzed", "ports"} if world == "bell" else {"candidates", "effect", "fan"}
    assert set(served) == kinds and min(served.values()) >= 10
    monkeypatch.undo()
    assert _memo_run(world, marker, runtime, scheduler, 80)[1] == outcomes


def test_memo_traffic_stays_inside_its_bound():
    # a default-geometry marker-on run never clears the memo: it fills to
    # 258 effects (two marking ones, one per fan and screen cell), 3 candidate
    # lists and 2 fans, and stays there
    policy = doubleslit.DoubleSlitRoundPolicy(doubleslit.DEFAULT_GEOMETRY, True)
    sizes = [len(policy.memo) for _ in interaction.run_trials(policy, 4000, 0, "centralized", "round-robin")]
    assert sizes == sorted(sizes)
    assert sizes[-1] == 2 + 2 * doubleslit.DEFAULT_GEOMETRY.n_cells + 3 + 2 < MAX_MEMO
    # a Bell run's memo stops growing once every case has been seen
    for runtime, scheduler in (("centralized", "round-robin"), ("refined", "randomized")):
        policy = bell.BellRoundPolicy(0.0, 30.0, "uniform", RngState(8))
        sizes = [len(policy.memo) for _ in interaction.run_trials(policy, 600, 8, runtime, scheduler)]
        assert sizes == sorted(sizes) and len(set(sizes[300:])) == 1 and sizes[-1] < MAX_MEMO


# --- conservation, checked where each effect is built -------------------------------

@pytest.mark.parametrize("nth", [0, 1, 2])
@pytest.mark.parametrize("world, marker", [("bell", None), ("doubleslit", False), ("doubleslit", True)])
@pytest.mark.parametrize(
    "runtime, scheduler", [("centralized", "round-robin"), ("refined", "round-robin"), ("refined", "randomized")]
)
def test_an_unbalanced_effect_stops_the_run(nth, world, marker, runtime, scheduler, monkeypatch):
    # the nth out collection a fresh memo builds (a Bell source, first and
    # second screen; a two-slit marking or screen claim) carries momentum one
    # ulp off, and the claim that built it stops the run, under any scheduler.
    # (An ulp of the first screen's energy, 1.5, would round away in the
    # total with the survivor's 0.5: the check compares totals.)
    process, built = interaction.process_interaction_object, []

    def corrupted(ia):
        out = process(ia)
        built.append(out)
        if len(built) - 1 != nth:
            return out
        first, *rest = out.conserved["momentum"]
        momentum = (math.nextafter(first, math.inf), *rest)
        return _evolve(out, conserved={**out.conserved, "momentum": momentum})

    monkeypatch.setattr(interaction, "process_interaction_object", corrupted)
    with pytest.raises(InvariantViolation, match=r"^conservation ledger unbalanced at \('[\w-]+', '[\w-]+'\): "):
        _memo_run(world, marker, runtime, scheduler, 20)
    assert len(built) == nth + 1
    monkeypatch.undo()
    _memo_run(world, marker, runtime, scheduler, 20)


def test_a_warm_memo_serves_checked_effects_without_summing_again(monkeypatch):
    calls = []

    def counted(objects):
        calls.append(objects)
        return total_conserved(objects)

    monkeypatch.setattr(interaction, "total_conserved", counted)
    monkeypatch.setattr(runtime, "total_conserved", counted)
    policy = bell.BellRoundPolicy(0.0, 30.0, "uniform", RngState(4))
    list(interaction.run_trials(policy, 300, 4, "refined", "round-robin"))
    assert calls  # the cold memo built, and checked, each effect once
    calls.clear()
    outcomes = list(interaction.run_trials(policy, 300, 5, "refined", "round-robin"))
    assert calls == [] and len(outcomes) == 300


# --- collapse before drop: equal to the paper's drop-then-eliminate order ------------

def _constructed_interaction_object(a, b, cand, table, tag):
    """create_interaction_object's records, each built by its constructor."""
    psa = a.paths[cand.path_index_1].pathstates[cand.particle_index_1]
    psb = b.paths[cand.path_index_2].pathstates[cand.particle_index_2]
    conserved = {
        "energy": a.particles[cand.particle_index_1].mass + b.particles[cand.particle_index_2].mass,
        "momentum": tuple(x + y for x, y in zip(psa.momentum, psb.momentum)),
        "angularmomentum": tuple(x + y for x, y in zip(psa.angularmomentum, psb.angularmomentum)),
    }
    cell = PathState(frozenset({cand.position}), conserved["momentum"], conserved["angularmomentum"])
    core = QuantumObject(
        f"ia-{tag}", ObjectKind.INTERACTION_OBJECT,
        (ParticleInfo("interaction", conserved["energy"]),), (Path(1.0, (cell,)),),
        global_attrs={"position": cand.position}, conserved=conserved,
    )
    prov = Provenance((a.object_id, b.object_id), (cand.path_index_1, cand.path_index_2), cand.position)
    return InteractionObject(core, prov, table)


def _constructed_out_collection(ia):
    """process_interaction_object's out collection, built by the constructors."""
    rows = ia.outcome_table.rows
    return normalize_amplitudes(QuantumObject(
        ia.core.object_id.replace("ia-", "out-"), ObjectKind.PARTICLE_COLLECTION,
        rows[0].particles, tuple(Path(r.amplitude, r.pathstates) for r in rows),
        global_attrs={"position": ia.provenance.position}, conserved=dict(ia.core.conserved),
    ))


def _assert_built_like_constructed(ia, a, b, cand, table, tag):
    ref = _constructed_interaction_object(a, b, cand, table, tag)
    assert ia == ref and repr(ia) == repr(ref)
    assert hash(ia.provenance) == hash(ref.provenance) and hash(ia.core.paths) == hash(ref.core.paths)
    out, ref_out = process_interaction_object(ia), _constructed_out_collection(ref)
    assert out == ref_out and repr(out) == repr(ref_out)
    assert hash(out.paths) == hash(ref_out.paths)


def _paper_order_interaction(state, a_id, b_id, cand, table):
    """Reference: drop both particles from the full tables, then collapse.
    The interaction object and the out collection are built by the
    constructors, and the pipeline's own builds must equal them."""
    a, b = state.objects[a_id], state.objects[b_id]
    tag = state.events
    _assert_built_like_constructed(create_interaction_object(a, b, cand, table, tag=tag), a, b, cand, table, tag)
    ia = _constructed_interaction_object(a, b, cand, table, tag)
    survivors = (
        (a_id, drop_particle(a, cand.particle_index_1, cand.path_index_1), cand.path_index_1),
        (b_id, drop_particle(b, cand.particle_index_2, cand.path_index_2), cand.path_index_2),
    )
    for object_id, survivor, path_index in survivors:
        if survivor is None:
            del state.objects[object_id]
        else:
            state.objects[object_id] = eliminate_unaffected_paths(survivor, path_index)
    result = _constructed_out_collection(ia)
    state.add_object(result)
    state.events += 3
    return result


def _assert_same_as_paper_order(state, a_id, b_id, cand, table):
    ref = SystemState(space=state.space, objects=dict(state.objects), events=state.events)
    out = perform_interaction(state, a_id, b_id, cand, table)
    ref_out = _paper_order_interaction(ref, a_id, b_id, cand, table)
    assert out == ref_out
    assert state.objects == ref.objects
    # repr shows float vs complex amplitudes and the sign of zero, which == hides
    assert repr(state.objects) == repr(ref.objects)
    assert state.events == ref.events


@pytest.mark.parametrize("row", [0, 1])
def test_bell_pair_interaction_matches_paper_order(row):
    state = bell.fresh_state()
    for pump_id in bell.PUMP_IDS:
        state.add_object(bell.make_pump(pump_id))
    source = SystemState(space=state.space, objects=dict(state.objects))
    rng = RngState(0).substream("emit")
    _, pair = claim(state, bell.BellRoundPolicy(0.0, 0.0, 30.0, rng), "pump-1", "pump-2", rng)
    # the source event, checked the same way on a copy of its world
    (source_cand,) = determine_potential_interactions(*source.objects.values())
    _assert_same_as_paper_order(source, "pump-1", "pump-2", source_cand, bell.pair_table(30.0))
    assert source.objects == state.objects and repr(source.objects) == repr(state.objects)
    pair_id = pair.object_id
    state.objects[pair_id] = bell.apply_stern_gerlach(bell.drift(state.objects[pair_id]), 0, 0.0)
    state.add_object(bell.make_screen("screen-a", bell.WING_A_CELL))
    cands = determine_potential_interactions(state.objects[pair_id], state.objects["screen-a"])
    cand = next(c for c in cands if c.path_index_1 == row)
    table = bell.absorb_table(bell.WING_A_CELL, 0.0 if row == 0 else 90.0)
    _assert_same_as_paper_order(state, pair_id, "screen-a", cand, table)
    assert len(state.objects[pair_id].particles) == 1  # the partner survives, collapsed


def test_marked_two_slit_interaction_matches_paper_order():
    geometry = doubleslit.DEFAULT_GEOMETRY
    screen = doubleslit.screen_object(geometry)
    photon, mark = doubleslit.photon_at_slits(geometry), doubleslit.marker_object(geometry)
    (mark_cand,) = [c for c in determine_potential_interactions(photon, mark) if c.path_index_1 == 1]

    def marked_at_slit_1():
        state = SystemState(space=geometry.space())
        state.add_object(photon)
        state.add_object(mark)
        table = doubleslit.continue_table(geometry, 1)
        return state, perform_interaction(state, "photon", "marker", mark_cand, table)

    marked = doubleslit.propagate_to_screen(marked_at_slit_1()[1], geometry)
    assert marked.n_paths == 128 and len(marked.particles) == 2
    cands = determine_potential_interactions(marked, screen)
    assert len(cands) == 128
    for cand in cands:
        # the centralized driver's sequence: mark at slit 1, swap in the fan
        state, _ = marked_at_slit_1()
        state.objects[marked.object_id] = marked
        state.add_object(screen)
        table = doubleslit.absorb_table(cand.position)
        _assert_same_as_paper_order(state, marked.object_id, screen.object_id, cand, table)


def test_evolved_records_equal_constructed_ones():
    base = ps((0,), momentum=(1.0,), spindir=30.0)
    moved = _evolve(base, spacepoints=frozenset({(1,)}))
    built = PathState(frozenset({(1,)}), (1.0,), (0.0,), 30.0)
    assert moved == built and hash(moved) == hash(built)
    assert bell.drift(particle("d", [Path(1.0, (base,))])).paths[0].pathstates == (built,)
    wide = particle("w", [Path(INV2, (base,)), Path(-INV2, (built,))])
    reduced = reduce_to_path(wide, 1).paths[0]
    assert reduced == Path(-1.0, (built,)) and hash(reduced) == hash(Path(-1.0, (built,)))
    # candidates skip the frozen __init__ but equal, hash and repr like built ones
    a = particle("a", [Path(INV2, (ps((0,), (1,)),)), Path(INV2, (ps((1,)),))])
    b = QuantumObject("b", ObjectKind.PARTICLE_COLLECTION, (ParticleInfo("x"), ParticleInfo("y")),
                      (Path(1.0, (ps((1,)), ps((0,)))),))
    w = a.paths[0].weight
    expected = [
        InteractionCandidate((0,), 0, 0, w, 0, 1),
        InteractionCandidate((1,), 0, 0, w, 0, 0),
        InteractionCandidate((1,), 1, 0, w, 0, 0),
    ]
    found = determine_potential_interactions(a, b)
    assert found == expected and repr(found) == repr(expected)
    assert [hash(c) for c in found] == [hash(c) for c in expected]
    # a one-column row's support is its cell set itself
    assert path_support(a.paths[0]) is a.paths[0].pathstates[0].spacepoints
    # analyzer ports: float amplitudes come out complex, as Path() makes them
    one_row = particle("s", [Path(1.0, (ps((0,), spindir=30.0),))])
    ports = bell.apply_stern_gerlach(one_row, 0, 0.0).paths
    c30, s30 = bell.cos_deg(30.0), bell.sin_deg(30.0)
    built_ports = (Path(c30, (ps((0,), spindir=0.0),)), Path(s30, (ps((0,), spindir=90.0),)))
    assert ports == built_ports and repr(ports) == repr(built_ports)


def test_screen_merge_sees_evolved_and_constructed_states_as_one():
    # Rows from both slits merge at the screen only if their spectator
    # columns hash equal; here one spectator is built, the other evolved.
    geometry = doubleslit.SMALL_GEOMETRY
    lo, hi = geometry.slit_cells
    spectator = PathState(frozenset({(0, 1)}), (0.0, 0.0), (0.0,), spindir=90.0)
    evolved = _evolve(PathState(frozenset({(1, 1)}), (0.0, 0.0), (0.0,), 90.0),
                      spacepoints=frozenset({(0, 1)}))
    photon = QuantumObject(
        "photon", ObjectKind.PARTICLE_COLLECTION,
        (ParticleInfo("photon", 1.0), ParticleInfo("spectator", 0.0)),
        (Path(INV2, (PathState(frozenset({(lo, 0)}), (0.0, 0.0), (0.0,)), spectator)),
         Path(INV2, (PathState(frozenset({(hi, 0)}), (0.0, 0.0), (0.0,)), evolved))),
    )
    assert doubleslit.propagate_to_screen(photon, geometry).n_paths == geometry.n_cells


@given(st.integers(min_value=0, max_value=2 ** 32 - 1))
@settings(max_examples=40, deadline=None)
def test_selection_always_comes_from_candidates(seed):
    a = particle("a", [Path(INV2, (ps((0,)),)), Path(INV2, (ps((1,)),))])
    b = particle("b", [Path(INV2, (ps((0,)),)), Path(INV2, (ps((1,)),))])
    cands = determine_potential_interactions(a, b)
    assert select_interaction(cands, RngState(seed)) in cands
    assert all(c.joint_weight > 0 for c in cands)


# --- interaction ids: each interaction advances the tag by 3 -------------------------

_ID_CASES = [("centralized", "round-robin"), ("refined", "round-robin"), ("refined", "randomized")]


def _trial_out_ids(policy, runtime, scheduler, monkeypatch):
    """The out collections one trial of policy writes, in order."""
    ids = []
    apply = interaction.apply

    def recording(state, effect):
        out = apply(state, effect)
        ids.append(out.object_id)
        return out

    monkeypatch.setattr(interaction, "apply", recording)
    list(interaction.run_trials(policy, 1, 0, runtime, scheduler))
    return ids


@pytest.mark.parametrize("runtime, scheduler", _ID_CASES)
def test_bell_trial_ids_are_pinned(runtime, scheduler, monkeypatch):
    # the refined runtime orders engines by id and breaks ties at a cell by
    # participant ids, so renumbering the out collections could move draws
    policy = bell.BellRoundPolicy(0.0, 30.0, "uniform", RngState(0))
    assert _trial_out_ids(policy, runtime, scheduler, monkeypatch) == ["out-0", "out-3", "out-6"]


@pytest.mark.parametrize("marker, expected", [(True, ["out-0", "out-3"]), (False, ["out-0"])])
@pytest.mark.parametrize("runtime, scheduler", _ID_CASES)
def test_two_slit_trial_ids_are_pinned(marker, expected, runtime, scheduler, monkeypatch):
    policy = doubleslit.DoubleSlitRoundPolicy(doubleslit.SMALL_GEOMETRY, marker)
    assert _trial_out_ids(policy, runtime, scheduler, monkeypatch) == expected


def test_every_drop_goes_through_drop_particle(monkeypatch):
    # perfbench times the pipeline's drops by wrapping drop_particle, so the
    # pipeline calls it by its module name: twice per effect it builds
    drops, effects = [], []
    drop, effect = interaction.drop_particle, interaction.interaction_effect

    def counted_effect(*args):
        effects.append(args)
        return effect(*args)

    monkeypatch.setattr(interaction, "drop_particle", lambda *args: drops.append(args) or drop(*args))
    monkeypatch.setattr(interaction, "interaction_effect", counted_effect)
    monkeypatch.setattr(bell, "interaction_effect", counted_effect)
    policy = bell.BellRoundPolicy(0.0, 30.0, "uniform", RngState(0))
    per_trial = []
    for _ in interaction.run_trials(policy, 40, 0, "centralized", "round-robin"):
        per_trial.append((len(effects), len(drops)))
        effects.clear()
        drops.clear()
    assert per_trial[0] == (3, 6)  # a fresh memo builds every effect
    assert all(n_drops == 2 * n_effects for n_effects, n_drops in per_trial)
    assert per_trial[-1] == (0, 0)  # a warm memo serves every effect

"""Interaction pipeline for quantum objects.

Two objects can interact wherever a path of one and a path of the other
occupy a common lattice point.  Every such (path, path, point) triple is a
candidate, weighted by the product of the two rows' squared amplitude
moduli.  One candidate is then drawn at random with probability
proportional to its weight: squared moduli are the probability measure
for selection, selection is the only stochastic element, and at most one
interaction per object pair is performed in a step.

Performing the selected candidate runs a fixed sequence:

  1. create_interaction_object: a bookkeeping object at the shared point
     that absorbs the interacting particles' conserved quantities,
  2. drop_particle on each interacting particle (its owning object
     disappears when its last particle is dropped),
  3. eliminate_unaffected_paths on each surviving owner: the shared path
     table collapses to the interacting row, which is what reduces an
     entangled partner to the matching alternative,
  4. process_interaction_object: a configured outcome table (rows of out
     particles, path states, complex amplitude) becomes the single out
     ParticleCollection; no dynamics are computed here, outcomes are
     entirely table-driven.

Each step is a pure function of records; only apply writes into a
SystemState.  interaction_effect runs steps 2 and 3 the other way round
for an owner that keeps other particles: it first collapses the owner to
the interacting row, then drops the column from that one row.  The two
steps commute.  Collapsing keeps the row's path states and the owner's
conserved block as they are, and the departing share is read from the
same path state either way, so the survivor and its conserved block come
out identical to the order above.  Dropping first would rebuild every
row only for all but one to be thrown away, which on a wide table (the
128-row marked two-slit collection) is most of the cost of an interaction.

Conserved quantities flow additively: the out collection carries exactly
the sums recorded on the interaction object.  interaction_effect checks
each effect it builds, exactly, under either scheduler: the participants'
conserved totals must equal the survivors' and the out collection's, and
the out collection's conserved block must equal the interaction object's
quantity by quantity, which catches an error that rounds away in a total.

A world says what its interactions mean through a RoundPolicy, and claim
runs one event of it, both in the world's centralized causal order and
for each event the decentralized runtime grants.

An interaction's effect (the participants' survivors and the out
collection) depends only on the two objects, the chosen candidate, the
outcome table and the tag, so perform_interaction is interaction_effect
written into the state by apply.  A world whose claims
see the same objects trial after trial keeps one per-run memo, and
RoundPolicy.memoised serves from it, by the identity of their inputs, the
claims' candidates with their probabilities' Cumulative form (so no
weight is re-checked or re-summed per draw), their effects, and what the
world itself builds from them (the two-slit fans, the Bell survivors'
analyzed pair).  None of these memos trusts equality: the one place that
does is the decentralized runtime, which shares an object's publication
by equality of exactly what its advertisements and its check read
(runtime.py).

run_trials is the one trial loop, for every world under both schedulers.
Trial i draws only from the substream (seed, i).  Three policy hooks give
a trial its shape: causal_order runs one centralized trial from that
stream; start returns a fresh trial's world, which one RefinedRuntime
serving the whole run runs in rounds; outcome reads what the trial
measured, and run_trials yields it.

The records built for every event skip their constructors (state._evolve):
the candidates, the interaction object with its provenance, and the out
collection with its rows.  Each is copied from a constructor-built
template, and only fields whose values already pass the constructor's
checks are replaced.  Positions and path states come from validated
objects and outcome tables, the conserved sums of float tuples are float
tuples, and row amplitudes go through complex() as Path() would.  This is
safe because input from outside is still validated where it is built:
objects and outcome rows and tables by their constructors, and a selected
candidate (which may be built by hand) by create_interaction_object's
range and coverage checks.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass
from types import MappingProxyType

from .engine import Cumulative, RngState, random_draw
from .errors import ConfigError, InvariantViolation
from .state import (
    NORM_TOL,
    ObjectKind,
    ParticleInfo,
    Path,
    PathState,
    QuantumObject,
    SystemState,
    _conserved_signature,
    _evolve,
    normalize_amplitudes,
    path_support,
    reduce_to_path,
    total_conserved,
)


@dataclass(frozen=True)
class InteractionCandidate:
    """One possible interaction: a shared point, one path of each object."""

    position: tuple[int, ...]
    path_index_1: int
    path_index_2: int
    joint_weight: float
    # which particle column of each object actually covers the point
    particle_index_1: int = 0
    particle_index_2: int = 0


@dataclass(frozen=True)
class OutcomeRow:
    """One possible interaction product: particles, their states, an amplitude."""

    particles: tuple[ParticleInfo, ...]
    pathstates: tuple[PathState, ...]
    amplitude: complex

    def __post_init__(self):
        # tuples here, so a row's parts can become a Path and a
        # QuantumObject without those constructors coercing them again
        object.__setattr__(self, "particles", tuple(self.particles))
        object.__setattr__(self, "pathstates", tuple(self.pathstates))
        if not self.particles:
            raise ConfigError("outcome row: no particles")
        if len(self.particles) != len(self.pathstates):
            raise ConfigError("outcome row: particles and pathstates differ in length")


@dataclass(frozen=True)
class OutcomeTable:
    """Configured interaction outcomes; squared amplitudes must sum to 1."""

    name: str
    rows: tuple[OutcomeRow, ...]

    def __post_init__(self):
        if not self.rows:
            raise ConfigError(f"outcome table {self.name!r}: no rows")
        norm = sum(abs(r.amplitude) ** 2 for r in self.rows)
        if abs(norm - 1.0) > NORM_TOL:
            raise ConfigError(
                f"outcome table {self.name!r}: squared amplitudes sum to {norm}, expected 1"
            )
        widths = {len(r.particles) for r in self.rows}
        if len(widths) != 1:
            raise ConfigError(f"outcome table {self.name!r}: rows differ in particle count")


@dataclass(frozen=True)
class Provenance:
    object_ids: tuple[str, str]
    path_indices: tuple[int, int]
    position: tuple[int, ...]


@dataclass
class InteractionObject:
    """Transient record of one selected interaction, pre-processing."""

    core: QuantumObject  # kind INTERACTION_OBJECT, single path at the position
    provenance: Provenance
    outcome_table: OutcomeTable | None = None


# templates the per-event records are copied from (state._evolve); every
# field a copy keeps from them is already valid, and the core's attribute
# blocks are read-only, since every copy brings its own
_CANDIDATE = InteractionCandidate(position=(0,), path_index_1=0, path_index_2=0, joint_weight=1.0)
_PROVENANCE = Provenance(object_ids=("a", "b"), path_indices=(0, 0), position=(0,))
_IA_PARTICLE = ParticleInfo("interaction", 0.0)
_IA_PATHSTATE = PathState(spacepoints=frozenset({(0,)}), momentum=(0.0,), angularmomentum=(0.0,))
_IA_PATH = Path(amplitude=1.0, pathstates=(_IA_PATHSTATE,))
_IA_CORE = QuantumObject(
    object_id="ia-template",
    kind=ObjectKind.INTERACTION_OBJECT,
    particles=(_IA_PARTICLE,),
    paths=(_IA_PATH,),
    global_attrs=MappingProxyType({}),
    conserved=MappingProxyType({}),
)


def determine_potential_interactions(a: QuantumObject, b: QuantumObject) -> list[InteractionCandidate]:
    """Enumerate candidates for every (path of a, path of b, shared point).

    Weight is |amp_a * amp_b|^2; zero-weight combinations are not emitted.
    Objects with disjoint footprints yield an empty list.
    """
    if a.object_id == b.object_id:
        raise ConfigError(f"object {a.object_id!r} cannot interact with itself")
    out = []
    b_supports = [path_support(p) for p in b.paths]
    for i, pa in enumerate(a.paths):
        wa = pa.weight
        if wa == 0.0:
            continue
        sa = path_support(pa)
        for j, pb in enumerate(b.paths):
            w = wa * pb.weight
            if w == 0.0:
                continue
            shared = sa & b_supports[j]
            for point in sorted(shared):
                out.append(
                    _evolve(
                        _CANDIDATE,
                        position=point,
                        path_index_1=i,
                        path_index_2=j,
                        joint_weight=w,
                        particle_index_1=_covering_column(pa, point),
                        particle_index_2=_covering_column(pb, point),
                    )
                )
    return out


def _covering_column(path: Path, point) -> int:
    for k, ps in enumerate(path.pathstates):
        if point in ps.spacepoints:
            return k
    raise InvariantViolation(f"no particle column covers {point}")


def _selection_probabilities(candidates: list[InteractionCandidate]) -> list[float]:
    """Joint weights divided by their sum, which must be positive (a NaN sum
    fails too); a negative weight then fails the draw's own check."""
    weights = [c.joint_weight for c in candidates]
    total = sum(weights)
    if weights and not total > 0.0:
        raise ConfigError(f"select_interaction: joint weights sum to {total!r}, need a positive sum")
    return [w / total for w in weights]


def select_interaction(
    candidates: list[InteractionCandidate],
    rng: RngState,
    probabilities: list[float] | Cumulative | None = None,
) -> InteractionCandidate:
    """Draw one candidate with probability proportional to its joint weight;
    probabilities, if given, are _selection_probabilities(candidates) or
    their Cumulative form."""
    if not candidates:
        raise ConfigError("select_interaction: empty candidate list")
    if probabilities is None:
        probabilities = _selection_probabilities(candidates)
    return random_draw(candidates, probabilities, rng)


def _column_contribution(obj: QuantumObject, path_index: int, particle_index: int) -> dict:
    """Conserved-quantity share of one interacting particle column."""
    ps = obj.paths[path_index].pathstates[particle_index]
    return {
        "energy": obj.particles[particle_index].mass,
        "momentum": ps.momentum,
        "angularmomentum": ps.angularmomentum,
    }


def _combine_conserved(x: dict, y: dict, op) -> dict:
    """x op y per conserved quantity (op is operator.add or operator.sub);
    a vector missing from x, or empty there, counts as zeros."""
    out = {"energy": op(x.get("energy", 0.0), y.get("energy", 0.0))}
    for key in ("momentum", "angularmomentum"):
        yv = y[key]
        out[key] = tuple(map(op, tuple(x.get(key, ())) or (0.0,) * len(yv), yv))
    return out


def create_interaction_object(
    a: QuantumObject,
    b: QuantumObject,
    candidate: InteractionCandidate,
    outcome_table: OutcomeTable | None = None,
    *,
    tag: str | int,
) -> InteractionObject:
    """Record the selected interaction at its position.

    Conserved quantities are the sums of the two interacting particles'
    rest energies, momenta and angular momenta, taken from the selected
    rows.  Provenance (object ids, selected path indices, position) is kept
    for traces and the conservation ledger.  tag names the interaction
    object: its id is "ia-<tag>".
    """
    pos = candidate.position
    for obj, idx in ((a, candidate.path_index_1), (b, candidate.path_index_2)):
        if not 0 <= idx < len(obj.paths):
            raise IndexError(f"object {obj.object_id!r}: selected path {idx} out of range")
        for ps in obj.paths[idx].pathstates:
            if pos in ps.spacepoints:
                break
        else:
            raise ConfigError(
                f"object {obj.object_id!r}: selected path {idx} does not cover {pos}"
            )
    conserved = _combine_conserved(
        _column_contribution(a, candidate.path_index_1, candidate.particle_index_1),
        _column_contribution(b, candidate.path_index_2, candidate.particle_index_2),
        operator.add,
    )
    # pos is a point of a validated row (checked above) and the conserved
    # sums are float tuples, so the templates' cells need no coercion
    cell = _evolve(
        _IA_PATHSTATE,
        spacepoints=frozenset((pos,)),
        momentum=conserved["momentum"],
        angularmomentum=conserved["angularmomentum"],
    )
    core = _evolve(
        _IA_CORE,
        object_id=f"ia-{tag}",
        particles=(_evolve(_IA_PARTICLE, mass=conserved["energy"]),),
        paths=(_evolve(_IA_PATH, pathstates=(cell,)),),
        global_attrs={"position": pos},
        conserved=conserved,
    )
    prov = _evolve(
        _PROVENANCE,
        object_ids=(a.object_id, b.object_id),
        path_indices=(candidate.path_index_1, candidate.path_index_2),
        position=pos,
    )
    return InteractionObject(core=core, provenance=prov, outcome_table=outcome_table)


def drop_particle(obj: QuantumObject, particle_index: int = 0, row_index: int = 0) -> QuantumObject | None:
    """obj without one particle column, or None when it was the last one.

    The survivor's conserved block loses the column's share, read from the
    row row_index (the interacting row).
    """
    if not 0 <= particle_index < len(obj.particles):
        raise IndexError(f"object {obj.object_id!r}: particle index {particle_index} out of range")
    if len(obj.particles) == 1:
        return None
    share = _column_contribution(obj, row_index, particle_index)
    particles = obj.particles[:particle_index] + obj.particles[particle_index + 1 :]
    paths = tuple(
        _evolve(p, pathstates=p.pathstates[:particle_index] + p.pathstates[particle_index + 1 :])
        for p in obj.paths
    )
    return _evolve(
        obj,
        particles=particles,
        paths=paths,
        conserved=_combine_conserved(obj.conserved, share, operator.sub) if obj.conserved else {},
    )


def eliminate_unaffected_paths(obj: QuantumObject, path_index: int) -> QuantumObject:
    """Collapse an owner's table to the interacting row (all particles at once)."""
    return reduce_to_path(obj, path_index)


def process_interaction_object(ia: InteractionObject) -> QuantumObject:
    """Turn the interaction into its configured products.

    The outcome table's rows become the paths of a single out
    ParticleCollection positioned at the interaction point; conserved
    quantities are copied from the interaction object unchanged.
    """
    table = ia.outcome_table
    if table is None:
        raise ConfigError(f"interaction {ia.core.object_id!r}: no outcome table configured")
    # the table validated its rows: tuples of equal, non-zero width
    paths = tuple(
        _evolve(_IA_PATH, amplitude=complex(r.amplitude), pathstates=r.pathstates) for r in table.rows
    )
    result = _evolve(
        _IA_CORE,
        object_id=ia.core.object_id.replace("ia-", "out-"),
        kind=ObjectKind.PARTICLE_COLLECTION,
        particles=table.rows[0].particles,
        paths=paths,
        global_attrs={"position": ia.provenance.position},
        conserved=dict(ia.core.conserved),
    )
    return normalize_amplitudes(result)


def interaction_effect(
    a: QuantumObject,
    b: QuantumObject,
    candidate: InteractionCandidate,
    outcome_table: OutcomeTable,
    tag: str | int,
) -> tuple:
    """What performing the selected candidate does, computed without a state:
    (owners, out).  owners holds each participant's (object id, survivor)
    in participant order, the survivor None when the participant is
    consumed; out is the out collection.

    It runs the module docstring's steps, collapsing an owner that keeps
    other particles before its drop (the same result, as shown there).
    tag names the interaction object and the out collection ("ia-<tag>", "out-<tag>").

    The conserved totals of a and b must equal those of the survivors, in
    participant order, and out, and out's conserved block must equal the
    interaction object's, each exactly, or InvariantViolation is raised.
    A memo hit serves an effect checked here, with its inputs' totals: an
    identity key holds its inputs; the Bell source's copy changes only its
    path states' spins and shares the template's conserved block; the
    Bell first screen's key names its pair's analyzed template, whose
    conserved block the pair shares; and no code writes into a .conserved
    block (tests/test_hygiene.py).
    """
    ia = create_interaction_object(a, b, candidate, outcome_table, tag=tag)
    owners = (
        (a.object_id, _consumed(a, candidate.particle_index_1, candidate.path_index_1)),
        (b.object_id, _consumed(b, candidate.particle_index_2, candidate.path_index_2)),
    )
    out = process_interaction_object(ia)
    before = total_conserved((a, b))
    after = total_conserved([survivor for _, survivor in owners if survivor is not None] + [out])
    if _conserved_signature(before) != _conserved_signature(after):
        raise InvariantViolation(f"conservation ledger unbalanced at {(a.object_id, b.object_id)}: {before} -> {after}")
    if _conserved_signature(out.conserved) != _conserved_signature(ia.core.conserved):
        raise InvariantViolation(
            f"conservation ledger unbalanced at {(a.object_id, b.object_id)}: "
            f"the out collection carries {out.conserved}, the interaction {ia.core.conserved}"
        )
    return owners, out


def _consumed(owner: QuantumObject, particle_index: int, path_index: int) -> QuantumObject | None:
    """owner after its interacting particle leaves: an owner that keeps
    other particles is collapsed to the interacting row first."""
    if len(owner.particles) > 1:
        return drop_particle(eliminate_unaffected_paths(owner, path_index), particle_index, 0)
    return drop_particle(owner, particle_index, path_index)


def apply(state: SystemState, effect: tuple) -> QuantumObject:
    """Write an effect into state and return its out collection.

    Each participant is replaced by its survivor or removed, the out
    collection is added, and state.events advances.  The effect itself is
    not changed, so one effect may be applied to many states.
    """
    owners, out = effect
    objects = state.objects
    for object_id, survivor in owners:
        if survivor is None:
            del objects[object_id]
        else:
            objects[object_id] = survivor
    state.add_object(out)
    # 3 per interaction, one per drop and one for the interaction, so the ids
    # ia-/out-<tag> run 0, 3, 6: the refined runtime orders engines by id and
    # breaks ties at a cell by participant ids, so renumbering could move draws
    state.events += 3
    return out


def perform_interaction(
    state: SystemState,
    a_id: str,
    b_id: str,
    candidate: InteractionCandidate,
    outcome_table: OutcomeTable,
) -> QuantumObject:
    """Run the full pipeline for one selected candidate: the interaction's
    effect, tagged state.events, written into state.  Returns the out
    collection."""
    # the counter is unique per interaction within a state, so the id is
    # reproducible run to run (a global counter would not be)
    effect = interaction_effect(state.get_object(a_id), state.get_object(b_id), candidate, outcome_table, state.events)
    return apply(state, effect)


# a policy's memo is cleared when it reaches this many entries, or its
# memo_bound if that is larger; a two-slit run at 128 cells keeps at most
# 263 (258 effects, 3 candidate lists, 2 fans)
MAX_MEMO = 512
RUNTIMES = ("centralized", "refined")
SCHEDULERS = ("round-robin", "randomized")


def _candidates(a: QuantumObject, b: QuantumObject) -> tuple[list, list[float] | Cumulative]:
    """a and b's candidates with their selection probabilities, in
    Cumulative form when there are any."""
    found = determine_potential_interactions(a, b)
    probabilities = _selection_probabilities(found)
    return found, Cumulative(probabilities) if found else probabilities


class RoundPolicy:
    """What the world means: outcome tables, motion, completion.

    The schedulers are generic; everything experiment-specific hangs off
    these hooks.  prepare may rewrite a participant before candidates are
    recomputed (measurement devices do), candidates returns the live
    candidates between the prepared participants with their selection
    probabilities or those probabilities' Cumulative form, table_for
    returns the outcome table for a selected candidate or None to veto,
    propagate returns a moved replacement object or None to stand still.
    effect returns what a claim's interaction does.  start, causal_order
    and outcome are the trial hooks run_trials calls.

    A world whose claims repeat sets memo to a dict of its own, and
    memoised then serves the default candidates and effect, and whatever
    the world builds through it, once per distinct input; without a memo
    each is built every time.
    """

    memo: dict | None = None
    memo_bound = 0  # a world whose run keeps more than MAX_MEMO entries derives its own

    def memoised(self, key: tuple, build, *args):
        """build(*args), served from memo under key.  key names what is built
        and its inputs among args by id(); an entry holds args, so no id in
        its key can be reused while it is cached.  The memo is cleared when
        it reaches MAX_MEMO entries, or memo_bound if that is larger."""
        memo = self.memo
        if memo is None:
            return build(*args)
        entry = memo.get(key)
        if entry is None:
            if len(memo) >= max(MAX_MEMO, self.memo_bound):
                memo.clear()
            entry = memo[key] = (args, build(*args))
        return entry[1]

    def prepare(self, state: SystemState, a_id: str, b_id: str):
        pass

    def candidates(self, state: SystemState, a_id: str, b_id: str) -> tuple[list, list[float] | Cumulative]:
        a, b = state.objects[a_id], state.objects[b_id]
        return self.memoised(("candidates", id(a), id(b)), _candidates, a, b)

    def table_for(self, state: SystemState, a_id: str, b_id: str, candidate) -> OutcomeTable | None:
        raise NotImplementedError

    def effect(
        self, a: QuantumObject, b: QuantumObject, chosen: InteractionCandidate, table: OutcomeTable, tag: int
    ) -> tuple:
        """interaction_effect(a, b, chosen, table, tag), keyed by the identity
        of the two objects, the chosen candidate and the table, and the tag.
        An override serves interaction_effect's effects, or copies that keep
        their conserved blocks: claim checks no conservation of its own."""
        return self.memoised(
            ("effect", id(a), id(b), id(chosen), id(table), tag), interaction_effect, a, b, chosen, table, tag
        )

    def propagate(self, state: SystemState, object_id: str) -> QuantumObject | None:
        return None

    def done(self, state: SystemState) -> bool:
        return not state.objects

    def start(self, rng: RngState) -> SystemState:
        raise NotImplementedError

    def causal_order(self, rng: RngState):
        raise NotImplementedError

    def outcome(self):
        raise NotImplementedError


def claim(
    state: SystemState, policy: RoundPolicy, a_id: str, b_id: str, rng: RngState
) -> tuple[InteractionCandidate, QuantumObject] | str:
    """Claim one event between two live objects and perform it.

    Runs prepare, the policy's candidates on the prepared objects,
    select_interaction, the policy's table_for, and the policy's effect
    (tagged state.events, as perform_interaction tags it) written into
    state by apply.  Returns the chosen candidate and the out
    collection, or the reason no interaction happened: "no live
    candidates" or "vetoed".
    """
    policy.prepare(state, a_id, b_id)
    candidates, probabilities = policy.candidates(state, a_id, b_id)
    if not candidates:
        return "no live candidates"
    chosen = select_interaction(candidates, rng, probabilities)
    table = policy.table_for(state, a_id, b_id, chosen)
    if table is None:
        return "vetoed"
    effect = policy.effect(state.get_object(a_id), state.get_object(b_id), chosen, table, state.events)
    return chosen, apply(state, effect)


def check_trials(trials, prefix: str = ""):
    """Stop unless trials is an int > 0 (not a bool)."""
    if isinstance(trials, bool) or not isinstance(trials, int) or trials <= 0:
        raise ConfigError(f"{prefix}trials must be an int > 0, got {trials!r}")


def check_run(trials, seed, runtime: str, scheduler: str, prefix: str = ""):
    """Stop a run unless check_trials passes, seed is an int (not a bool),
    and runtime and scheduler are known."""
    check_trials(trials, prefix)
    if isinstance(seed, bool) or not isinstance(seed, int):
        raise ConfigError(f"{prefix}seed must be an int, got {seed!r}")
    if runtime not in RUNTIMES:
        raise ConfigError(f"{prefix}runtime must be one of {RUNTIMES}, got {runtime!r}")
    if scheduler not in SCHEDULERS:
        raise ConfigError(f"{prefix}scheduler must be one of {SCHEDULERS}, got {scheduler!r}")


def run_trials(policy: RoundPolicy, trials: int, seed: int, runtime: str, scheduler: str):
    """Yield the outcome of each of policy's trials, in order, after checking
    the arguments; a refined trial runs for at most 16 rounds."""
    check_run(trials, seed, runtime, scheduler)
    root = RngState(seed)
    if runtime == "centralized":
        for trial in range(trials):
            policy.causal_order(root.substream(trial))
            yield policy.outcome()
        return
    from .runtime import RefinedRuntime  # the runtime imports the worlds, which import this module

    for trial in range(trials):
        rng = root.substream(trial)
        if trial == 0:
            runner = RefinedRuntime(policy.start(rng), policy, rng, scheduler)
        else:
            runner.next_trial(policy.start(rng), rng)
        runner.run(max_rounds=16)
        yield policy.outcome()

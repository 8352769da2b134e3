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

perform_interaction runs steps 2 and 3 the other way round for an owner
that keeps other particles: it first collapses the owner to the
interacting row, then drops the column from that one row.  The two steps
commute.  Collapsing keeps the row's path states and the owner's conserved
block as they are, and the departing share is read from the same path
state either way, so the survivor, its conserved block and the event log
come out identical to the order above.  Dropping first would rebuild every
row only for all but one to be thrown away, which on a wide table (the
128-row marked two-slit collection) is most of the cost of an interaction.

Conserved quantities flow additively: the out collection carries exactly
the sums recorded on the interaction object.

A world says what its interactions mean through a RoundPolicy, and claim
runs one event of it: prepare the participants, take the live candidates
and their selection probabilities from the policy, select one, ask the
policy for its outcome table and perform the interaction.  Each
experiment's centralized trial calls claim in its world's causal order,
and the decentralized runtime calls it for each granted event.  A policy
whose candidates repeat from trial to trial (the two-slit screen fans)
serves them from a memo, so no weight is re-summed per draw.

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

from .engine import RngState, random_draw
from .errors import ConfigError, InvariantViolation
from .state import (
    NORM_TOL,
    ObjectKind,
    ParticleInfo,
    Path,
    PathState,
    QuantumObject,
    SystemState,
    _evolve,
    normalize_amplitudes,
    path_support,
    reduce_to_path,
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
    total = sum(c.joint_weight for c in candidates)
    return [c.joint_weight / total for c in candidates]


def select_interaction(
    candidates: list[InteractionCandidate], rng: RngState, probabilities: list[float] | None = None
) -> InteractionCandidate:
    """Draw one candidate with probability proportional to its joint weight;
    probabilities, if given, are _selection_probabilities(candidates)."""
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
    tag: str,
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


def drop_particle(
    state: SystemState, object_id: str, particle_index: int = 0, row_index: int = 0
) -> QuantumObject | None:
    """Destroy one particle column; remove the object when none remain.

    Returns the surviving owner (with the column removed and its conserved
    share subtracted) or None when the object was removed outright.
    row_index names the row whose pathstate carries the departing conserved
    share (the interacting row).  The drop is recorded in the state's event
    log.  Dropping from a missing id raises, so a double drop is an error.
    """
    obj = state.get_object(object_id)
    if not 0 <= particle_index < len(obj.particles):
        raise IndexError(f"object {object_id!r}: particle index {particle_index} out of range")
    state.event_log.append({"event": "drop_particle", "object": object_id, "particle": particle_index})
    if len(obj.particles) == 1:
        del state.objects[object_id]
        return None
    share = _column_contribution(obj, row_index, particle_index)
    particles = obj.particles[:particle_index] + obj.particles[particle_index + 1 :]
    paths = tuple(
        _evolve(p, pathstates=p.pathstates[:particle_index] + p.pathstates[particle_index + 1 :])
        for p in obj.paths
    )
    survivor = _evolve(
        obj,
        particles=particles,
        paths=paths,
        conserved=_combine_conserved(obj.conserved, share, operator.sub) if obj.conserved else {},
    )
    state.objects[object_id] = survivor
    return survivor


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


def perform_interaction(
    state: SystemState,
    a_id: str,
    b_id: str,
    candidate: InteractionCandidate,
    outcome_table: OutcomeTable,
) -> QuantumObject:
    """Run the full pipeline for one selected candidate.

    Order: create the interaction object; for each interacting particle,
    collapse a multi-particle owner to the interacting row (reducing
    partner particles to the matching row) and drop the particle; process
    the outcome table.  The out collection is added to the state and
    returned.  The module docstring says why collapsing before the drop
    gives the same result as the paper's drop-then-eliminate order.
    """
    a = state.get_object(a_id)
    b = state.get_object(b_id)
    # event-log length is unique per interaction within a state, so the id
    # is reproducible run to run (a global counter would not be)
    ia = create_interaction_object(a, b, candidate, outcome_table, tag=str(len(state.event_log)))
    for owner_id, owner, particle_index, path_index in (
        (a_id, a, candidate.particle_index_1, candidate.path_index_1),
        (b_id, b, candidate.particle_index_2, candidate.path_index_2),
    ):
        if len(owner.particles) > 1:
            state.objects[owner_id] = eliminate_unaffected_paths(owner, path_index)
            path_index = 0
        drop_particle(state, owner_id, particle_index, path_index)
    result = process_interaction_object(ia)
    state.add_object(result)
    state.event_log.append(
        {
            "event": "interaction",
            "participants": [a_id, b_id],
            "position": candidate.position,
            "result": result.object_id,
        }
    )
    return result


class RoundPolicy:
    """What the world means: outcome tables, motion, completion.

    The schedulers are generic; everything experiment-specific hangs off
    these hooks.  prepare may rewrite a participant before candidates are
    recomputed (measurement devices do), candidates returns the live
    candidates between the prepared participants with their selection
    probabilities (a world may serve them from a memo), table_for returns
    the outcome table for a selected candidate or None to veto, propagate
    returns a moved replacement object or None to stand still.
    """

    def prepare(self, state: SystemState, a_id: str, b_id: str):
        pass

    def candidates(self, state: SystemState, a_id: str, b_id: str) -> tuple[list, list[float]]:
        found = determine_potential_interactions(state.objects[a_id], state.objects[b_id])
        return found, _selection_probabilities(found)

    def table_for(self, state: SystemState, a_id: str, b_id: str, candidate) -> OutcomeTable | None:
        raise NotImplementedError

    def propagate(self, state: SystemState, object_id: str) -> QuantumObject | None:
        return None

    def on_interaction(self, state: SystemState, a_id: str, b_id: str, candidate, out: QuantumObject):
        pass

    def done(self, state: SystemState) -> bool:
        return not state.objects


def claim(
    state: SystemState, policy: RoundPolicy, a_id: str, b_id: str, rng: RngState
) -> tuple[InteractionCandidate, QuantumObject] | str:
    """Claim one event between two live objects and perform it.

    Runs prepare, the policy's candidates on the prepared objects,
    select_interaction, the policy's table_for and perform_interaction.
    Returns the chosen candidate and the out collection, or the reason no
    interaction happened: "no live candidates" or "vetoed".
    """
    policy.prepare(state, a_id, b_id)
    candidates, probabilities = policy.candidates(state, a_id, b_id)
    if not candidates:
        return "no live candidates"
    chosen = select_interaction(candidates, rng, probabilities)
    table = policy.table_for(state, a_id, b_id, chosen)
    if table is None:
        return "vetoed"
    return chosen, perform_interaction(state, a_id, b_id, chosen, table)

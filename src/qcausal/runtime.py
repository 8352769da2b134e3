"""Decentralized runtime: per-object engines, a space mediator, rounds.

A generic scheduler: what a world's events mean is its RoundPolicy,
defined beside the world under experiments/.  interaction.run_trials runs
a run's trials either in the world's causal order or here.

Here each object is advanced by its own engine, and engines never read
another object's state.  Coordination runs through a mediator board of
advertisements: in every round each live object is published as one
(object, path, cell, weight) advertisement per path and per occupied
cell.  Detection reads the previous round's board, so both parties of an
overlap see the same picture and propose the same event; the one-round
lag is the price of symmetry.

Objects are frozen records, and most of a round's objects are the very
ones of the round before, or of the trial before (a screen, a pump, a
memoised fan).  So each object is checked once, and its advertisements
and the sorted cells they occupy are computed once, into a publication
record keyed by the object's identity, and reused while the same object
stays live, across the trials a runtime serves.

The board is a function of the live objects and their ids, and what an
engine proposes is a function of the board and its object's id.  So when
the same objects are live again, the board is not laid out again: a
snapshot keyed by the object ids and the objects' identities holds the
board and each engine's proposals against it, and is installed whole.  A
snapshot holds its objects' records, so no identity in its key can be
reused while it exists.  The last round's board is kept this way, and a
board is stored for later rounds only when none of its records was built
in the current trial: an object new to a trial (Bell's emitted pair) is
likely new to every trial, and so is a board that holds it.

A round has four phases:

  1. detect: every engine looks up its own cells on the board and
     proposes an event per overlapping object; on a board installed again,
     the runtime submits the proposals the engine made against it before.
     Proposals are keyed by the (sorted) participant pair; the mediator
     checks the two sides submitted identical shared-cell lists.
  2. grant: events are ordered by (position, participant ids), or
     shuffled under the randomized scheduler, and granted greedily; an
     object joins at most one interaction per round, later events with a
     busy participant are rejected and retried naturally next round.
     A granted event is claimed through interaction.claim, the step the
     centralized trials run too, so the selection distribution is
     identical by construction, and so is the conservation check
     interaction_effect makes on every effect it builds.  With
     keep_ledger, each interaction also appends a ledger entry: the
     participants' conserved totals before and the survivors' plus the
     out collection's after.
  3. propagate: engines that did not interact and have been alive for
     PROPAGATION_DELAY rounds ask the policy to advance their object
     (drift, a fan to the screen).  The delay guarantees an overlap
     standing at spawn time is detected before anyone moves.
  4. publish: the board is laid out from the live objects' records, or
     the snapshot of the same live objects is installed again.  A record
     is built when its object is first seen live, after checking the
     object: a rectangular table inside the lattice.

Consumed objects retire their engines; interaction products get fresh
ones.  All per-round iteration is in sorted order and every random draw
comes from substreams of one root, so a run is reproducible bit for bit
under both schedulers.
"""

from __future__ import annotations

from collections import namedtuple
from dataclasses import dataclass

from .engine import RngState, random_draw
from .errors import ConfigError, InvariantViolation
from .experiments import bell as _bell
from .experiments.doubleslit import ScreenHistogram, SlitGeometry, run_double_slit
from .interaction import SCHEDULERS, RoundPolicy, claim
from .state import QuantumObject, SystemState, _conserved_signature, total_conserved

BellRoundPolicy = _bell.BellRoundPolicy  # lives beside its world; re-exported

# rounds an object must sit on the board before it may move; detection of
# a standing overlap takes one round of lag plus one to act on it
PROPAGATION_DELAY = 2
# a runtime clears its publication records, and its board snapshots, when
# either passes this many; a run keeps a handful live and adds a few per trial
MAX_RECORDS = 256


# one (path, cell) occupancy notice on the mediator board; a namedtuple,
# like the records below, since a run builds one per path and cell
Advertisement = namedtuple("Advertisement", "object_id path_index cell weight")

# what a board holds of an object: its id, its advertisements and the
# sorted cells they occupy; the list is shared by every board that holds
# it, and never mutated
_Publication = namedtuple("_Publication", "object_id ads cells")

# one live object's publication record, which serves as its publication:
# the object (its strong reference keeps the id() the record is keyed by
# from being reused), the publication's fields and the trial it was built in
_Record = namedtuple("_Record", "obj object_id ads cells trial")


def _advertise(object_id: str, obj: QuantumObject) -> tuple[list[Advertisement], tuple]:
    """One advertisement per nonzero-weight path and occupied cell, in path
    order and sorted cell order, and the sorted cells they occupy."""
    ads = []
    occupied = set()
    for i, path in enumerate(obj.paths):
        w = path.weight
        if w == 0.0:
            continue
        cells = set()
        for ps in path.pathstates:
            cells.update(ps.spacepoints)
        occupied.update(cells)
        for cell in sorted(cells):
            ads.append(Advertisement(object_id, i, cell, w))
    return ads, tuple(sorted(occupied))


def _lay_out(publications) -> tuple[dict, dict]:
    """The board of publications, in order: cell -> ads, and object id ->
    publication for the objects with an advertisement."""
    board, published = {}, {}
    for publication in publications:
        ads = publication.ads
        if ads:
            published[publication.object_id] = publication
            for ad in ads:
                board.setdefault(ad.cell, []).append(ad)
    return board, published


@dataclass
class ObjectEngine:
    """Worker owning exactly one object; sees the world only via RoundView."""

    object_id: str
    proper_time: int = 0

    def detect(self, view: "RoundView") -> tuple:
        """Propose one event per object overlapping my advertised cells, and
        return the proposals as (other id, shared cells) pairs."""
        partners: dict[str, set] = {}
        for cell in view.own_cells():
            for ad in view.ads_at(cell):
                if ad.object_id != self.object_id:
                    partners.setdefault(ad.object_id, set()).add(cell)
        proposals = tuple([(other_id, tuple(sorted(partners[other_id]))) for other_id in sorted(partners)])
        for other_id, cells in proposals:
            view.propose(other_id, cells)
        return proposals


class RoundView:
    """The only aperture an engine gets onto the shared world."""

    def __init__(self, mediator: "SpaceMediator", object_id: str):
        self._mediator = mediator
        self._object_id = object_id

    def own_cells(self) -> tuple:
        """The cells my object occupies on the board, sorted."""
        publication = self._mediator.published.get(self._object_id)
        return () if publication is None else publication.cells

    def ads_at(self, cell) -> list[Advertisement]:
        return self._mediator.board.get(cell, [])

    def propose(self, other_id: str, cells: tuple):
        self._mediator.submit_proposal(self._object_id, other_id, cells)


@dataclass
class ProposedEvent:
    pair: tuple[str, str]
    cells: tuple


@dataclass
class LedgerEntry:
    """One interaction's conserved totals; balanced when they match exactly."""

    round_index: int
    position: tuple[int, ...]
    participants: tuple[str, str]
    out_id: str
    before: dict
    after: dict

    @property
    def balanced(self) -> bool:
        return _conserved_signature(self.before) == _conserved_signature(self.after)


class SpaceMediator:
    """Advertisement board plus event bookkeeping.

    board holds last round's advertisements by cell, and published each
    advertising object's publication (its ads and sorted cells) by id; the
    publications collected during a round become the board at the flip.  A
    board's dicts are never mutated, so a runtime may install one again.
    Proposals are checked pairwise for symmetry: both parties must name the
    same shared cells, anything else is a protocol bug.
    """

    def __init__(self, rng: RngState, scheduler: str = "round-robin"):
        if scheduler not in SCHEDULERS:
            raise ConfigError(f"scheduler must be one of {SCHEDULERS}, got {scheduler!r}")
        self.rng = rng
        self.scheduler = scheduler
        self.board: dict[tuple, list[Advertisement]] = {}
        self.published: dict[str, _Publication] = {}  # or records, which have its fields
        self._next: list[Advertisement] = []
        self._proposals: dict[tuple[str, str], dict[str, tuple]] = {}
        self.rejections: list[dict] = []

    def publish(self, *ads: Advertisement):
        self._next.extend(ads)

    def flip(self):
        """Make the publications the board, each object's in publication
        order, the objects in the order of their first publication."""
        by_object: dict[str, list[Advertisement]] = {}
        for ad in self._next:
            by_object.setdefault(ad.object_id, []).append(ad)
        self._next = []
        self.install(
            *_lay_out(
                _Publication(object_id, ads, tuple(sorted({ad.cell for ad in ads})))
                for object_id, ads in by_object.items()
            )
        )

    def install(self, board: dict, published: dict):
        """Make a laid-out board (_lay_out's two dicts) the board."""
        self.board, self.published = board, published
        self._proposals = {}

    @property
    def board_by_object(self) -> dict[str, list[Advertisement]]:
        """object id -> its advertisements on the board."""
        return {object_id: publication.ads for object_id, publication in self.published.items()}

    def submit_proposal(self, proposer: str, other: str, cells: tuple):
        if proposer == other:
            raise ConfigError(f"object {proposer!r} proposed an event with itself")
        pair = (proposer, other) if proposer < other else (other, proposer)
        self._proposals.setdefault(pair, {})[proposer] = cells

    def collect_events(self) -> list[ProposedEvent]:
        """Paired, symmetry-checked proposals in grant order."""
        events = []
        for pair, sides in sorted(self._proposals.items()):
            if set(sides) != set(pair):
                missing = [p for p in pair if p not in sides]
                raise InvariantViolation(
                    f"asymmetric proposal for {pair}: no submission from {missing}"
                )
            ca, cb = sides[pair[0]], sides[pair[1]]
            if ca != cb:
                raise InvariantViolation(
                    f"proposal mismatch for {pair}: {ca} vs {cb}"
                )
            events.append(ProposedEvent(pair=pair, cells=ca))
        events.sort(key=lambda e: (e.cells[0], e.pair))
        if self.scheduler == "randomized":
            self._shuffle(events)
        return events

    def _shuffle(self, items: list):
        for i in range(len(items) - 1, 0, -1):
            j = int(random_draw((0.0, i + 1.0), "uniform", self.rng))
            items[i], items[j] = items[j], items[i]

    def reject(self, event: ProposedEvent, round_index: int, reason: str):
        self.rejections.append(
            {"round": round_index, "pair": list(event.pair), "reason": reason}
        )


class RefinedRuntime:
    """Round loop driver over a store, engines, mediator, and policy.

    The constructor starts the first trial; next_trial starts each later
    one on the same runtime, which keeps its publication records.
    """

    def __init__(
        self,
        state: SystemState,
        policy: RoundPolicy,
        rng: RngState,
        scheduler: str = "round-robin",
        keep_ledger: bool = False,
    ):
        self.policy = policy
        self.scheduler = scheduler
        self.keep_ledger = keep_ledger
        self._records: dict[int, _Record] = {}  # id(obj) -> obj's record
        # a board snapshot is a tuple: the records it was laid out from (they
        # hold the objects whose id()s key it, so no id can be reused),
        # _lay_out's two dicts, and each engine's proposals against it by
        # object id, filled as engines detect
        self._snapshots: dict[tuple, tuple] = {}  # (*object ids, *id()s) -> snapshot
        self._space = None  # the space the records' objects were checked in
        self._trial = -1  # the current trial's index, counted by next_trial
        self.next_trial(state, rng)

    def next_trial(self, state: SystemState, rng: RngState):
        """Start a trial on state: fresh engines, ledger and counters, and a
        mediator drawing from rng's "events" substream.  The records carry
        over while the trial's space is the previous trial's."""
        if state.space is not self._space:
            self._records.clear()
            self._snapshots.clear()
            self._space = state.space
        self._trial += 1
        self.state = state
        self.mediator = SpaceMediator(rng.substream("events"), self.scheduler)
        # the board's key and snapshot; a trial starts on an empty board
        self._key, self._snapshot = None, ((), None, {})
        self.ledger: list[LedgerEntry] = []
        self.interactions = 0  # granted events
        self.round_index = 0
        self.engines: dict[str, ObjectEngine] = {}
        self._views: dict[str, RoundView] = {}
        for object_id in sorted(state.objects):
            self.spawn_engine(object_id)

    def spawn_engine(self, object_id: str):
        if object_id in self.engines:
            raise ConfigError(f"engine for {object_id!r} already exists")
        self.engines[object_id] = ObjectEngine(object_id)
        self._views[object_id] = RoundView(self.mediator, object_id)

    def retire_missing_engines(self):
        for object_id in [oid for oid in self.engines if oid not in self.state.objects]:
            del self.engines[object_id]
            del self._views[object_id]

    def _record(self, object_id: str, obj: QuantumObject) -> _Record:
        """obj's publication record, built, and its invariants checked, the
        first time obj is seen live."""
        record = self._records.get(id(obj))
        if record is None or record.object_id != object_id:
            problem = self.state.object_problem(obj)
            if problem is not None:
                raise InvariantViolation(f"after propagation: {problem}")
            if len(self._records) >= MAX_RECORDS:
                self._records.clear()
                self._snapshots.clear()  # they could not hit again
            record = _Record(obj, object_id, *_advertise(object_id, obj), self._trial)
            self._records[id(obj)] = record
        return record

    # -- round phases ------------------------------------------------------

    def run_round(self):
        busy = self.detect_and_grant()
        self.propagate_phase(busy)
        self.publish_phase()
        for engine in self.engines.values():
            engine.proper_time += 1
        self.round_index += 1

    def detect_and_grant(self) -> set:
        proposed = self._snapshot[2]
        for object_id in sorted(self.engines):
            proposals = proposed.get(object_id)
            if proposals is None:
                proposed[object_id] = self.engines[object_id].detect(self._views[object_id])
            else:
                for other_id, cells in proposals:
                    self.mediator.submit_proposal(object_id, other_id, cells)
        busy: set[str] = set()
        for event in self.mediator.collect_events():
            a_id, b_id = event.pair
            if a_id in busy or b_id in busy:
                self.mediator.reject(event, self.round_index, "participant busy")
                continue
            if a_id not in self.state.objects or b_id not in self.state.objects:
                self.mediator.reject(event, self.round_index, "participant gone")
                continue
            if self.claim_and_interact(event):
                busy.update(event.pair)
        return busy

    def claim_and_interact(self, event: ProposedEvent) -> bool:
        """Claim the event through the shared pipeline step, which checks
        conservation; with keep_ledger, record the event's totals."""
        a_id, b_id = event.pair
        objects = self.state.objects
        if self.keep_ledger:
            before = total_conserved([objects[a_id], objects[b_id]])
        claimed = claim(self.state, self.policy, a_id, b_id, self.mediator.rng)
        if isinstance(claimed, str):
            self.mediator.reject(event, self.round_index, claimed)
            return False
        chosen, out = claimed
        self.interactions += 1
        if self.keep_ledger:
            after = total_conserved([objects[i] for i in event.pair if i in objects] + [out])
            self.ledger.append(LedgerEntry(self.round_index, chosen.position, event.pair, out.object_id, before, after))
        self.retire_missing_engines()
        self.spawn_engine(out.object_id)
        return True

    def propagate_phase(self, busy: set):
        for object_id in sorted(self.engines):
            if object_id in busy or object_id not in self.state.objects:
                continue
            if self.engines[object_id].proper_time < PROPAGATION_DELAY:
                continue
            moved = self.policy.propagate(self.state, object_id)
            if moved is not None:
                if moved.object_id != object_id:
                    raise ConfigError("propagation must keep the object id")
                self.state.objects[object_id] = moved

    def publish_phase(self):
        """Lay out the live objects' board, or install it again: the stored
        snapshot of the same objects, or the board of the last round."""
        objects = self.state.objects
        key = (*objects, *map(id, objects.values()))
        if key != self._key:
            # a stored key names only objects its snapshot holds, so no
            # object new since it was stored can match it
            snapshot = self._snapshots.get(key)
            if snapshot is None:
                records = [self._record(object_id, objects[object_id]) for object_id in sorted(objects)]
                snapshot = (records, _lay_out(records), {})
                trial = self._trial  # stored when no record is new to this trial
                if all(record.trial < trial for record in records):
                    if len(self._snapshots) >= MAX_RECORDS:
                        self._snapshots.clear()
                    self._snapshots[key] = snapshot
            self._key, self._snapshot = key, snapshot
        self.mediator.install(*self._snapshot[1])

    def run(self, max_rounds: int = 64) -> int:
        """Rounds until the policy reports completion; returns the count."""
        while not self.policy.done(self.state):
            if self.round_index >= max_rounds:
                raise InvariantViolation(
                    f"run did not complete within {max_rounds} rounds"
                )
            self.run_round()
        return self.round_index


def run_doubleslit_refined(
    marker: bool,
    trials: int,
    geometry: SlitGeometry,
    seed: int = 0,
    scheduler: str = "round-robin",
) -> ScreenHistogram:
    """Screen histogram under the decentralized runtime: run_double_slit
    with runtime="refined", under the name the acceptance gates import."""
    return run_double_slit(marker, trials, geometry, seed, runtime="refined", scheduler=scheduler)

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
memoised fan).  The rest mostly repeat what they advertise: Bell's
emitted pair is a new object in every trial, but only its spins are new,
and nothing on the board reads a spin.  So a runtime keeps, for the
trials it serves, three bounded stores, each keyed by exactly what its
value is a function of:

  - a publication (an object's advertisements and the sorted cells they
    occupy) by what _advertise and object_problem read of the object:
    its id, its particle count, and per path the weight and the path
    states' cell sets.  Two objects that publish alike share one
    publication, checked once;
  - a laid-out board by the identities of its publications, in object
    id order, together with each engine's proposals against it, filled
    as engines detect;
  - in front, the board by the live object ids and the objects'
    identities, so objects that repeat by identity (two-slit) are served
    with one lookup a round.

Why serving is exact:

  - _advertise is a function of the publication key.  Its ads are
    (object id, path index, cell, weight) for each nonzero-weight path,
    in path order and sorted cell order, and its cells the sorted union;
    the check is a function of the key and the space (rectangularity,
    lattice containment, and a message naming the id), and the stores
    are dropped when the space changes.  A weight is abs(a) ** 2, never
    -0.0, and equal floats other than signed zeros have the same repr; a
    NaN weight is a new float in every key, so it never matches a stored
    one.  An object with a problem raises before anything is stored.
  - Cells are keyed only when every coordinate is an int.  PathState
    does not coerce cells, and (1.0,) == (1,) hashes alike, so a float,
    bool or numpy coordinate would otherwise be served an int cell's ads,
    equal but with another repr.  Such an object gets a fresh,
    unstored publication (the worlds here build int cells only).
  - A board is a function of its publications in order, and what an
    engine proposes is a function of the board and its object's id.
  - No id can be reused while it is a key: a board holds its
    publications, and an identity entry holds its objects.  Each store
    is cleared when it reaches MAX_RECORDS.
  - Every round still submits each engine's proposals to the mediator
    and runs collect_events' symmetry check, so the events, the
    rejections and the randomized scheduler's draws are unchanged.

A trial starts on the runtime's one empty board: a new mediator's board
is empty, and on an empty board every engine proposes nothing.

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
  3. propagate: engines that did not interact and whose proper time (the
     rounds since the engine was spawned) has reached PROPAGATION_DELAY
     ask the policy to advance their object (drift, a fan to the
     screen).  The delay guarantees an overlap standing at spawn time is
     detected before anyone moves.
  4. publish: the live objects' board is served from the stores above,
     or laid out from their publications.  An object whose publication
     key is new is checked first: a rectangular table inside the lattice.

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
from .interaction import SCHEDULERS, RoundPolicy, claim
from .state import QuantumObject, SystemState, _conserved_signature, total_conserved

BellRoundPolicy = _bell.BellRoundPolicy  # lives beside its world; re-exported

# rounds an object must sit on the board before it may move; detection of
# a standing overlap takes one round of lag plus one to act on it
PROPAGATION_DELAY = 2
# a runtime clears each of its stores (publications, boards, and boards by
# the live objects' identities) when it holds this many
MAX_RECORDS = 256


# one (path, cell) occupancy notice on the mediator board; a namedtuple,
# since a run builds one per path and cell
Advertisement = namedtuple("Advertisement", "object_id path_index cell weight")

# what a board holds of an object: its id, its advertisements and the
# sorted cells they occupy; the list is shared by every board that holds
# it, and never mutated
_Publication = namedtuple("_Publication", "object_id ads cells")


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


def _publication_key(object_id: str, obj: QuantumObject):
    """What _advertise and object_problem read of obj: its id, its particle
    count, and per path the weight and each path state's cell set; None
    when a coordinate is not an int, since (1.0,) == (1,)."""
    key = [object_id, len(obj.particles)]
    for path in obj.paths:
        cells = [ps.spacepoints for ps in path.pathstates]
        for points in cells:
            for point in points:
                for c in point:
                    if type(c) is not int:
                        return None
        key.append((path.weight, *cells))
    return tuple(key)


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


def _store(store: dict, key, value):
    """store[key] = value, after clearing store if it holds MAX_RECORDS."""
    if len(store) >= MAX_RECORDS:
        store.clear()
    store[key] = value
    return value


@dataclass
class ObjectEngine:
    """Worker owning exactly one object; sees the world only via RoundView.
    Its proper time in a round is that round's index less born, the round
    it was spawned in."""

    object_id: str
    born: int = 0

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
        self.published: dict[str, _Publication] = {}
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
    one on the same runtime, which keeps its stores.
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
        # a board is a tuple: the publications it was laid out from (they
        # key it by identity, so no id can be reused), _lay_out's two
        # dicts, and each engine's proposals against it by object id
        self._empty = ((), _lay_out(()), {})  # every trial's first board
        self._space = None  # the space the stores' objects were checked in
        self.next_trial(state, rng)

    def next_trial(self, state: SystemState, rng: RngState):
        """Start a trial on state: fresh engines, ledger and counters, and a
        mediator drawing from rng's "events" substream.  The stores carry
        over while the trial's space is the previous trial's."""
        if state.space is not self._space:
            self._publications: dict[tuple, _Publication] = {}  # publication key -> publication
            self._boards: dict[tuple, tuple] = {}  # publication id()s -> board
            # (*object ids, *id()s) -> (board, the objects, which hold the id()s)
            self._by_identity: dict[tuple, tuple] = {}
            self._space = state.space
        if len(self._empty[2]) >= MAX_RECORDS:  # it holds one () per starting id
            self._empty[2].clear()
        self.state = state
        self.mediator = SpaceMediator(rng.substream("events"), self.scheduler)
        # the live objects' identity key and their board; a new mediator's
        # board is empty, so a trial starts on the empty board
        self._key, self._entry = None, (self._empty, ())
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
        self.engines[object_id] = ObjectEngine(object_id, self.round_index)
        self._views[object_id] = RoundView(self.mediator, object_id)

    def retire_missing_engines(self):
        for object_id in [oid for oid in self.engines if oid not in self.state.objects]:
            del self.engines[object_id]
            del self._views[object_id]

    def _publication(self, object_id: str, obj: QuantumObject) -> _Publication:
        """obj's publication, served by its key, or built after checking obj."""
        key = _publication_key(object_id, obj)
        publication = self._publications.get(key)
        if publication is None:
            problem = self.state.object_problem(obj)
            if problem is not None:
                raise InvariantViolation(f"after propagation: {problem}")
            publication = _Publication(object_id, *_advertise(object_id, obj))
            if key is not None:
                _store(self._publications, key, publication)
        return publication

    # -- round phases ------------------------------------------------------

    def run_round(self):
        busy = self.detect_and_grant()
        self.propagate_phase(busy)
        self.publish_phase()
        self.round_index += 1

    def detect_and_grant(self) -> set:
        proposed = self._entry[0][2]
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
            if self.round_index - self.engines[object_id].born < PROPAGATION_DELAY:
                continue
            moved = self.policy.propagate(self.state, object_id)
            if moved is not None:
                if moved.object_id != object_id:
                    raise ConfigError("propagation must keep the object id")
                self.state.objects[object_id] = moved

    def publish_phase(self):
        """Install the live objects' board: the last round's, the one stored
        for the same objects or for the same publications, or a new one."""
        objects = self.state.objects
        key = (*objects, *map(id, objects.values()))
        if key != self._key:
            entry = self._by_identity.get(key)
            if entry is None:
                publications = [self._publication(object_id, objects[object_id]) for object_id in sorted(objects)]
                board_key = tuple(map(id, publications))
                board = self._boards.get(board_key)
                if board is None:
                    board = _store(self._boards, board_key, (publications, _lay_out(publications), {}))
                entry = _store(self._by_identity, key, (board, tuple(objects.values())))
            self._key, self._entry = key, entry
        self.mediator.install(*self._entry[0][1])

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
    geometry,
    seed: int = 0,
    scheduler: str = "round-robin",
):
    """Screen histogram under the decentralized runtime: run_double_slit
    with runtime="refined", under the name the acceptance gates import.
    geometry is a SlitGeometry, and a ScreenHistogram is returned.

    The two-slit world loads numpy, so it is imported here, when a two-slit
    run starts: loading the runtime for a Bell run loads no numpy."""
    from .experiments.doubleslit import run_double_slit

    return run_double_slit(marker, trials, geometry, seed, runtime="refined", scheduler=scheduler)

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
trials it serves, bounded stores, each keyed by exactly what its value
is a function of:

  - a publication (an object's advertisements and the sorted cells they
    occupy) by what _advertise and object_problem read of the object:
    its id, its particle count, and per path the weight and the path
    states' cell sets.  Two objects that publish alike share one
    publication, checked once;
  - a laid-out board by the identities of its publications, in object
    id order, together with its plans: per engine order, the paired,
    symmetry-checked events in grant order that the engines' proposals
    against it made, filled the first time the order meets the board;
  - in front, the board by the live object ids and the objects'
    identities, so objects that repeat by identity (two-slit) are served
    with one lookup a round.  An entry is stored the second time its
    objects are live together; the first time leaves a mark, the
    objects and their board.  A copy the world builds anew (each Bell
    trial's pair) is never live again, so its set is never stored, and
    the index keeps only entries that hit again.

When the live objects are not in the identity index, an object the
installed board holds is served its publication by identity, and only
the others are keyed: in a warm Bell run, the pair at the source and
once drifted.  Each store is cleared when it reaches MAX_RECORDS, or
the policy's memo_bound if that is larger: past round 0 the live
objects are what the memo served, so a world whose memo needs more
room (two-slit at 128 cells lays out about 261 boards) sizes the stores
too.

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
    engine proposes is a function of the board and its object's id, so
    a plan is a function of the board and the engine order.
    An object the installed board holds, under the same id, is served
    the publication the board was laid out from, and the same objects
    under the same ids are served the board their mark holds.
  - No id can be reused while it is a key: a board holds its
    publications, and an identity entry or a mark, like the installed
    entry, holds its objects.
  - A plan is stored only once the symmetry check has passed on it, and
    every round still calls collect_events, which copies the plan and,
    under the randomized scheduler, shuffles the copy with the same
    draws, so the events, the rejections and the draws are unchanged.

Each trial has its own mediator, which draws from the trial's "events"
substream and starts on an empty board, on which every engine proposes
nothing.  The engines' ids are sorted once per change of the engine
set, and detect and propagate share that order.

A round has four phases:

  1. detect: on a board or engine order it has not seen, every engine
     looks up its own cells on the board, through a RoundView of the
     mediator, and proposes an event per overlapping object.  Proposals
     are keyed by the (sorted) participant pair; the mediator checks the
     two sides submitted identical shared-cell lists, and the sorted
     events are stored as the board's plan for that order.  A board seen under the same order is served
     its plan: no engine detects and nothing is submitted.
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
# a runtime clears each of its stores (publications, boards, a board's
# plans, the identity index and its marks) when it holds this many, or its
# policy's memo_bound if that is larger
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


def _store(store: dict, key, value, bound: int):
    """store[key] = value, after clearing store if it holds bound entries."""
    if len(store) >= bound:
        store.clear()
    store[key] = value
    return value


@dataclass(slots=True)
class ObjectEngine:
    """Worker owning exactly one object; sees the world only via RoundView.
    Its proper time in a round is that round's index less born, the round
    it was spawned in.  Slotted, since every spawn builds one."""

    object_id: str
    born: int = 0

    def detect(self, view: "RoundView"):
        """Propose one event per object overlapping my advertised cells."""
        partners: dict[str, set] = {}
        for cell in view.own_cells():
            for ad in view.ads_at(cell):
                if ad.object_id != self.object_id:
                    partners.setdefault(ad.object_id, set()).add(cell)
        for other_id in sorted(partners):
            view.propose(other_id, tuple(sorted(partners[other_id])))


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


# a paired proposal: the sorted participant ids and their shared cells; a
# namedtuple, since a run builds one per proposed pair and round
ProposedEvent = namedtuple("ProposedEvent", "pair cells")


def _grant_order(event: ProposedEvent):
    return event.cells[0], event.pair


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
    advertising object's publication (its ads and sorted cells) by id, as
    _lay_out made them; a mediator starts on the empty board.  A board's
    dicts are never mutated, so a runtime may install one again.
    Proposals are checked pairwise for symmetry: both parties must name the
    same shared cells, anything else is a protocol bug.  plan pairs and
    sorts them; collect_events copies a plan, the submitted proposals' or
    one a runtime kept for the installed board, and shuffles the copy under
    the randomized scheduler.
    """

    def __init__(self, rng: RngState, scheduler: str = "round-robin"):
        if scheduler not in SCHEDULERS:
            raise ConfigError(f"scheduler must be one of {SCHEDULERS}, got {scheduler!r}")
        self.rng = rng
        self.scheduler = scheduler
        self.board: dict[tuple, list[Advertisement]] = {}
        self.published: dict[str, _Publication] = {}
        self._proposals: dict[tuple[str, str], dict[str, tuple]] = {}
        self.rejections: list[dict] = []

    def install(self, board: dict, published: dict):
        """Make a laid-out board (_lay_out's two dicts) the board."""
        self.board, self.published = board, published
        self._proposals = {}

    def submit_proposal(self, proposer: str, other: str, cells: tuple):
        if proposer == other:
            raise ConfigError(f"object {proposer!r} proposed an event with itself")
        pair = (proposer, other) if proposer < other else (other, proposer)
        self._proposals.setdefault(pair, {})[proposer] = cells

    def plan(self) -> tuple:
        """The submitted proposals, paired and symmetry-checked, in grant
        order: the round's events before any shuffle."""
        if not self._proposals:
            return ()
        events = []
        for pair, sides in sorted(self._proposals.items()):
            if len(sides) != 2:  # every proposer is one of its pair
                missing = [p for p in pair if p not in sides]
                raise InvariantViolation(
                    f"asymmetric proposal for {pair}: no submission from {missing}"
                )
            ca, cb = sides[pair[0]], sides[pair[1]]
            if ca != cb:
                raise InvariantViolation(
                    f"proposal mismatch for {pair}: {ca} vs {cb}"
                )
            events.append(ProposedEvent(pair, ca))
        if len(events) > 1:
            events.sort(key=_grant_order)
        return tuple(events)

    def collect_events(self, plan: tuple) -> list[ProposedEvent]:
        """The round's events: a copy of plan, shuffled under the randomized
        scheduler."""
        events = list(plan)
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
        # the stores hold an entry per distinct set of live objects, and past
        # round 0 the policy's memo serves those objects: a world that sizes
        # its memo (memo_bound) sizes the stores too
        self._bound = max(MAX_RECORDS, policy.memo_bound)
        # a board is a tuple: the publications it was laid out from (they
        # key it by identity, so no id can be reused), _lay_out's two
        # dicts, and its plans (mediator.plan) by engine order, a tuple of ids
        self._empty = ((), _lay_out(()), {})  # every trial's first board
        self._space = None  # the space the stores' objects were checked in
        self.next_trial(state, rng)

    def next_trial(self, state: SystemState, rng: RngState):
        """Start a trial on state: fresh engines, ledger and counters, and a
        mediator that draws from rng's "events" substream.  The stores carry
        over while the trial's space is the previous trial's."""
        if state.space is not self._space:
            self._publications: dict[tuple, _Publication] = {}  # publication key -> publication
            self._boards: dict[tuple, tuple] = {}  # publication id()s -> board
            # (*object ids, *id()s) -> (board, the objects in id order, which hold the id()s)
            self._by_identity: dict[tuple, tuple] = {}
            # the same keys, seen once: the entry their second sighting stores
            self._seen: dict[tuple, tuple] = {}
            self._space = state.space
        self.state = state
        self.mediator = SpaceMediator(rng.substream("events"), self.scheduler)
        # the live objects' identity key and their board entry
        self._key, self._entry = None, (self._empty, ())
        self.ledger: list[LedgerEntry] = []
        self.interactions = 0  # granted events
        self.round_index = 0
        self.engines: dict[str, ObjectEngine] = {}
        order = tuple(sorted(state.objects))
        for object_id in order:
            self.spawn_engine(object_id)
        self._order: tuple[str, ...] | None = order  # the engines' ids, sorted; None after a change

    def spawn_engine(self, object_id: str):
        if object_id in self.engines:
            raise ConfigError(f"engine for {object_id!r} already exists")
        self.engines[object_id] = ObjectEngine(object_id, self.round_index)
        self._order = None

    def retire_missing_engines(self):
        gone = self.engines.keys() - self.state.objects.keys()
        if gone:
            for object_id in gone:
                del self.engines[object_id]
            self._order = None

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
                _store(self._publications, key, publication, self._bound)
        return publication

    # -- round phases ------------------------------------------------------

    def run_round(self):
        busy = self.detect_and_grant()
        self.propagate_phase(busy)
        self.publish_phase()
        self.round_index += 1

    def detect_and_grant(self) -> set:
        # the engines' ids are sorted once per change of the engine set, and
        # propagate_phase shares the order; the installed board keeps its plan
        # per order, and only a new board or order has every engine detect
        order = self._order
        if order is None:
            order = self._order = tuple(sorted(self.engines))
        mediator = self.mediator
        plans = self._entry[0][2]
        plan = plans.get(order)
        if plan is None:
            engines = self.engines
            for object_id in order:
                engines[object_id].detect(RoundView(mediator, object_id))
            plan = _store(plans, order, mediator.plan(), self._bound)
        busy: set[str] = set()
        for event in mediator.collect_events(plan):
            a_id, b_id = event.pair
            if a_id in busy or b_id in busy:
                mediator.reject(event, self.round_index, "participant busy")
                continue
            if a_id not in self.state.objects or b_id not in self.state.objects:
                mediator.reject(event, self.round_index, "participant gone")
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
        engines, state = self.engines, self.state
        order = self._order
        if order is None:
            order = self._order = tuple(sorted(engines))
        ready = self.round_index - PROPAGATION_DELAY  # the last birth round that may move
        for object_id in order:
            if object_id in busy or object_id not in state.objects or engines[object_id].born > ready:
                continue
            moved = self.policy.propagate(state, object_id)
            if moved is not None:
                if moved.object_id != object_id:
                    raise ConfigError("propagation must keep the object id")
                state.objects[object_id] = moved

    def publish_phase(self):
        """Install the live objects' board: the last round's, the one stored
        for the same objects or for the same publications, or a new one."""
        objects = self.state.objects
        key = (*objects, *map(id, objects.values()))
        if key != self._key:
            entry = self._by_identity.get(key)
            if entry is None:
                entry = self._new_entry(key, objects)
            self._key, self._entry = key, entry
        self.mediator.install(*self._entry[0][1])

    def _new_entry(self, key: tuple, objects: dict) -> tuple:
        """The live objects' board entry, stored by key the second time the
        same objects are live together.  An object the installed board
        holds is served its publication by identity; only the others are
        keyed."""
        mark = self._seen.pop(key, None)
        if mark is not None:  # it holds the same objects, so no id() was reused
            return _store(self._by_identity, key, mark, self._bound)
        order = sorted(objects)
        live = tuple([objects[object_id] for object_id in order])
        board, held = self._entry
        served = {id(obj): publication for obj, publication in zip(held, board[0])}
        publications = []
        for object_id, obj in zip(order, live):
            publication = served.get(id(obj))
            if publication is None or publication.object_id != object_id:
                publication = self._publication(object_id, obj)
            publications.append(publication)
        board_key = tuple(map(id, publications))
        board = self._boards.get(board_key)
        if board is None:
            board = _store(self._boards, board_key, (publications, _lay_out(publications), {}), self._bound)
        return _store(self._seen, key, (board, live), self._bound)

    def run(self, max_rounds: int = 64) -> int:
        """Rounds until the policy reports completion; returns the count."""
        done, state = self.policy.done, self.state
        while not done(state):
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

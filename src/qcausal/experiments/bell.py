"""Entangled spin pairs, measurement correlations, and the Bell bound.

The spin model is planar: a spin direction is an angle in degrees, and an
analyzer at angle g responds to a particle with spin s with

    P(case1) = cos^2(s - g)

so 0, 30 and 60 degrees of misalignment give probabilities 1, 3/4 and 1/4.
Under this response law two directions 90 degrees apart are perfectly
distinguishable (orthogonal), and measurement outcomes map to ports:
case1 leaves the spin at the analyzer angle g, case2 at g + 90.

A source emits a two-particle collection whose path table has two rows,
both particles sharing the emission direction theta in row 0 and its
orthogonal partner theta + 90 in row 1, each row at amplitude 1/sqrt(2).
An analyzer reweights the two rows by the projection factors
(cos(theta - g), sin(theta - g)); the screen interaction then selects a
row with probability equal to its squared amplitude and collapses the
shared table, which is what forces the partner particle onto the matching
alternative with its spin set to the measured axis.  Measuring both wings
at the same angle therefore agrees exactly, trial by trial, while the
correlation across angles is E(a, b) = 2 cos^2(a - b) - 1 = cos 2(a - b),
which violates the classical three-angle bound checked by lhv_oracle.

Angles at exact multiples of 90 degrees use exact projections (0.0, 1.0),
so equal-angle agreement is an exact model property, not a float accident.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass, field
from functools import lru_cache
from types import MappingProxyType

from ..engine import Cumulative, RngState, random_draw
from ..errors import ConfigError
from ..interaction import (
    OutcomeRow,
    OutcomeTable,
    RoundPolicy,
    _candidates,
    _selection_probabilities,
    check_run,
    check_trials,
    claim,
    interaction_effect,
    run_trials,
)
from ..state import (
    ObjectKind,
    ParticleInfo,
    Path,
    PathState,
    QuantumObject,
    Space,
    SystemState,
    _evolve,
    _norm_angle,
)

SQRT_HALF = 1.0 / math.sqrt(2.0)


def cos_deg(deg: float) -> float:
    """cos of an angle in degrees; exact 0/±1 at multiples of 90."""
    a = deg % 360.0
    if a == 0.0:
        return 1.0
    if a == 90.0 or a == 270.0:
        return 0.0
    if a == 180.0:
        return -1.0
    return math.cos(math.radians(a))


def sin_deg(deg: float) -> float:
    """sin of an angle in degrees; exact 0/±1 at multiples of 90."""
    a = deg % 360.0
    if a == 0.0 or a == 180.0:
        return 0.0
    if a == 90.0:
        return 1.0
    if a == 270.0:
        return -1.0
    return math.sin(math.radians(a))


def spin_probability(delta_deg: float) -> float:
    """P(case1) for misalignment delta between spin and analyzer, cos^2(delta)."""
    c = cos_deg(delta_deg)
    return c * c


# -- world construction --------------------------------------------------------

SOURCE_CELL = (1,)
WING_A_CELL = (0,)
WING_B_CELL = (2,)
PUMP_IDS = ("pump-1", "pump-2")
_AT_SOURCE = frozenset({SOURCE_CELL})
_SPACE = Space(dims=1, extent=(3,), delta_x=1.0)  # frozen, so every trial shares it


def fresh_state(seed_rng: RngState | None = None) -> SystemState:
    """Empty 3-cell space: source in the middle, one wing per side.  seed_rng
    is unused: each step draws from the stream its caller passes in."""
    return SystemState(space=_SPACE)


def bell_world() -> SystemState:
    """The world both schedulers run: two pumps at the source, a screen per wing."""
    state = fresh_state()
    for pump_id in PUMP_IDS:
        state.add_object(make_pump(pump_id))
    state.add_object(make_screen("screen-a", WING_A_CELL))
    state.add_object(make_screen("screen-b", WING_B_CELL))
    return state


# make_pump and make_screen are cached, so every trial shares their objects;
# their attribute blocks are read-only views, so no trial can write into another
@lru_cache(maxsize=None)
def make_pump(object_id: str, cell=SOURCE_CELL, mass: float = 0.5) -> QuantumObject:
    return QuantumObject(
        object_id=object_id,
        kind=ObjectKind.PARTICLE,
        particles=(ParticleInfo("pump", mass),),
        paths=(
            Path(
                amplitude=1.0,
                pathstates=(
                    PathState(spacepoints=frozenset({cell}), momentum=(0.0,), angularmomentum=(0.0,)),
                ),
            ),
        ),
        global_attrs=MappingProxyType({}),
        conserved=MappingProxyType({"energy": mass, "momentum": (0.0,), "angularmomentum": (0.0,)}),
    )


@lru_cache(maxsize=None)
def make_screen(object_id: str, cell, mass: float = 1.0) -> QuantumObject:
    return QuantumObject(
        object_id=object_id,
        kind=ObjectKind.PARTICLE,
        particles=(ParticleInfo("screen-atom", mass),),
        paths=(
            Path(
                amplitude=1.0,
                pathstates=(
                    PathState(spacepoints=frozenset({cell}), momentum=(0.0,), angularmomentum=(0.0,)),
                ),
            ),
        ),
        global_attrs=MappingProxyType({}),
        conserved=MappingProxyType({"energy": mass, "momentum": (0.0,), "angularmomentum": (0.0,)}),
    )


def pair_table(theta: float, cell=SOURCE_CELL) -> OutcomeTable:
    """Source outcome table: two rows, both particles spin theta / theta+90.

    Row amplitudes are 1/sqrt(2) each; the particles leave in opposite
    directions (momentum -1 and +1 cells per tick).  Only the spins depend
    on theta, so the table is copied from the cell's validated template
    with the spins normalized as the PathState constructor would.  theta is
    reduced before the quarter turn is added, so the spins stay 90 degrees
    apart however large theta is.  BellRoundPolicy claims on the template
    itself and sets these spins on the out collection; the tests compare
    its effects with interaction_effect on this table.
    """
    template = _pair_template(cell)
    return _evolve(template, rows=_spun(template.rows, theta))


def _spun(rows: tuple, theta: float) -> tuple:
    """Two rows (outcome rows or paths) with every path state's spin set to
    theta in the first and theta + 90 in the second, both reduced."""
    spin = _norm_angle(theta)
    return tuple(
        _evolve(row, pathstates=tuple(_evolve(ps, spindir=s) for ps in row.pathstates))
        for row, s in zip(rows, (spin, _norm_angle(spin + 90.0)))
    )


@lru_cache(maxsize=None)
def _pair_template(cell) -> OutcomeTable:
    """pair_table at theta 0, built and checked by the constructors."""

    # column masses must sum to the incoming conserved energy (two pumps of
    # 0.5), or consuming the collection column by column strands the excess
    def row(spin: float) -> OutcomeRow:
        return OutcomeRow(
            particles=(ParticleInfo("half", 0.5), ParticleInfo("half", 0.5)),
            pathstates=(
                PathState(frozenset({cell}), (-1.0,), (0.0,), spindir=spin),
                PathState(frozenset({cell}), (1.0,), (0.0,), spindir=spin),
            ),
            amplitude=SQRT_HALF,
        )

    return OutcomeTable(name="pair-source", rows=(row(0.0), row(90.0)))


@lru_cache(maxsize=None)
def absorb_table(cell, axis: float) -> OutcomeTable:
    """Screen absorption: one detection row at the hit cell."""
    return OutcomeTable(
        name="screen-capture",
        rows=(
            OutcomeRow(
                particles=(ParticleInfo("detection", 0.0),),
                pathstates=(PathState(frozenset({cell}), (0.0,), (0.0,), spindir=axis),),
                amplitude=1.0,
            ),
        ),
    )


def drift(obj: QuantumObject) -> QuantumObject:
    """Translate every pathstate by its own momentum (whole cells per tick)."""
    new_paths = []
    for path in obj.paths:
        states = tuple(
            _evolve(ps, spacepoints=_drifted(ps.spacepoints, ps.momentum)) for ps in path.pathstates
        )
        new_paths.append(_evolve(path, pathstates=states))
    return _evolve(obj, paths=tuple(new_paths))


@lru_cache(maxsize=256)
def _drifted(spacepoints: frozenset, momentum: tuple) -> frozenset:
    """spacepoints moved by momentum, rounded to whole cells.  A Bell run
    drifts the same two cell sets every trial; the bound keeps a caller
    with many distinct inputs from growing the cache."""
    return frozenset(tuple(int(c + round(m)) for c, m in zip(pt, momentum)) for pt in spacepoints)


def apply_stern_gerlach(obj: QuantumObject, particle_index: int, angle: float) -> QuantumObject:
    """Analyzer at `angle`: rewrite the table into the two outcome ports.

    Row 0 becomes the case1 port (spin angle, weight cos^2(s - angle)) and
    row 1 the case2 port (spin angle + 90, weight sin^2).  A one-row object
    is split into the two ports; a two-row table (an entangled pair, row 1
    being the orthogonal alternative) is reweighted in place.  The spin
    adjustment applies to every particle in the row, which is how the
    measured axis propagates to an entangled partner on collapse.
    """
    # reduced once, on entry: at a huge angle, s - angle and angle + 90
    # would round away the spin and the quarter turn
    up_axis = _norm_angle(angle)
    down_axis = _norm_angle(up_axis + 90.0)

    def retagged(path: Path, axis: float, amplitude: complex) -> Path:
        states = tuple(_evolve(ps, spindir=axis) for ps in path.pathstates)
        return _evolve(path, amplitude=amplitude, pathstates=states)

    if len(obj.paths) == 1:
        base = obj.paths[0]
        s = base.pathstates[particle_index].spindir
        ports = (
            retagged(base, up_axis, complex(base.amplitude * cos_deg(s - up_axis))),
            retagged(base, down_axis, complex(base.amplitude * sin_deg(s - up_axis))),
        )
    elif len(obj.paths) == 2:
        up, down = _port_amplitudes(obj, particle_index, up_axis)
        ports = (retagged(obj.paths[0], up_axis, up), retagged(obj.paths[1], down_axis, down))
    else:
        raise ConfigError(
            f"object {obj.object_id!r}: analyzer defined for 1- or 2-row tables, not {len(obj.paths)}"
        )
    return _evolve(obj, paths=ports)


def _port_amplitudes(pair: QuantumObject, particle_index: int, up_axis: float) -> tuple[complex, complex]:
    """The two ports' amplitudes when the analyzer at up_axis (reduced)
    reweights a two-row table: each row's phase times its projection."""
    s = pair.paths[0].pathstates[particle_index].spindir
    up, down = pair.paths
    # complex() as Path() would: _unit_phase may return the float 1.0
    return (
        complex(_unit_phase(up.amplitude) * cos_deg(s - up_axis)),
        complex(_unit_phase(down.amplitude) * sin_deg(s - up_axis)),
    )


def _unit_phase(amplitude: complex) -> complex:
    mod = abs(amplitude)
    return amplitude / mod if mod > 0.0 else 1.0


def _analyzed_template(source_out: QuantumObject, angle: float) -> QuantumObject:
    """The drifted source collection through the analyzer at angle: a
    template whose path states every trial's analyzed pair shares."""
    return apply_stern_gerlach(drift(source_out), 0, angle)


def _analyzed_from(template: QuantumObject, pair: QuantumObject, angle: float) -> QuantumObject:
    """apply_stern_gerlach(pair, 0, angle), for a pair whose analyzed path
    states are template's: template with pair's port amplitudes."""
    up, down = _port_amplitudes(pair, 0, _norm_angle(angle))
    first, second = template.paths
    return _evolve(template, paths=(_evolve(first, amplitude=up), _evolve(second, amplitude=down)))


def _holding(template: QuantumObject, build, *args):
    """build(*args), for a memo key that names template by id(): the
    entry's arguments then hold the template while the entry lives."""
    return build(*args)


def _unweighted(a: QuantumObject, b: QuantumObject) -> list:
    """a and b's candidates at joint weight 1.0: what detection finds on a
    pair analyzed from a template, except the weights of its rows."""
    return [_evolve(c, joint_weight=1.0) for c in _candidates(a, b)[0]]


class BellRoundPolicy(RoundPolicy):
    """Source, drift, and two analyzer screens: what every Bell event means.

    The pump pair becomes the two-row entangled collection, with the
    emission direction drawn under spindir_policy (a fixed angle draws
    nothing).  The collection drifts one cell per column momentum, and
    each screen claim applies the analyzer reweighting to the live pair
    before candidates are recomputed.

    One policy serves a whole run: causal_order and start begin each trial
    (rng is the first trial's emission stream).  Its memo is per run and
    bounded (RoundPolicy.memoised), and every draw is made as without it:

    - The source claim: the pumps are the same cached objects in every
      trial, so its candidates are served by their identity.  Its table is
      the cell's template, pair_table at theta 0.  interaction_effect reads
      a table only through its rows' particles and amplitudes, which do
      not depend on theta, and their path states, which it keeps by
      reference; the conserved sums come from the pumps.  So the effect on
      the template is served by identity, and each trial copies its out
      collection with the path states' spins set as pair_table(theta)
      sets them.
    - The first screen's analyzed pair.  When the pair is this trial's
      drift of that copy, the analyzer leaves path states that depend only
      on the template (spins set to its axes, cells and momenta the
      template's), and only the two port amplitudes depend on theta.  So
      the drifted template through the analyzer is served by identity and
      the screen's angle, and each trial copies its two paths with the
      amplitudes apply_stern_gerlach computes (_port_amplitudes).  Any
      other pair is analyzed afresh.
    - The first screen's claim on a pair analyzed from the template, which
      its keys name.  Detection reads the pair only through its id, its
      rows' weights and its path states, the template's: the candidates
      are served by the screen, the pair's side and the rows of non-zero
      weight, and copied with this trial's weights as detection computes
      them.  interaction_effect reads only the template's fields and the
      unit amplitude reduce_to_path gives the chosen row: the effect is
      served by the screen, the table, the tag, the pair's side, the chosen
      candidate, and that unit amplitude with the signs of its two parts,
      which == does not compare.  Any other pair is computed afresh, unstored.
    - A survivor's claim.  What meets the second screen is the pair
      collapsed by the first one, an owner of the first screen's effect,
      so it is the same object on every hit of that effect.  prepare
      serves the analyzed survivor by the survivor's identity and the
      screen's angle; its candidates and effect are then served by
      identity too.

    The templates make no float of their own: a copy keeps the template's
    fields, which a fresh build computes from the same template records,
    and takes the rest from this trial's records or by the same
    expressions.  Copies share the template's conserved and global
    blocks, which no code writes into (tests/test_hygiene.py).
    """

    def __init__(self, angle_a: float, angle_b: float, spindir_policy, rng: RngState):
        # reduced here too, so a screen's case2 axis keeps its quarter turn
        self.angles = {"screen-a": _norm_angle(angle_a), "screen-b": _norm_angle(angle_b)}
        self.spindir_policy = spindir_policy  # a fixed angle or "uniform"
        self._source = False
        self._first_screen = False
        self._pair_id: str | None = None
        self._screen_id: str | None = None
        self.memo = {}
        self.new_trial(rng)

    def new_trial(self, rng: RngState):
        """Start a trial whose source claim draws the emission direction from rng."""
        self.rng = rng
        self.theta: float | None = None
        self.cases: dict[str, bool] = {}
        # (template, copy): the source effect's out collection and this
        # trial's copy of it, then that copy's drift
        self._emitted = self._drifted = (None, None)

    def start(self, rng: RngState) -> SystemState:
        self.new_trial(rng.substream("source"))
        return bell_world()

    def causal_order(self, rng: RngState):
        """One centralized trial from rng: the source event, the pair's
        drift, then one measurement per wing."""
        self.new_trial(rng)
        state = bell_world()
        _, pair = claim(state, self, *PUMP_IDS, rng)
        state.objects[pair.object_id] = self.propagate(state, pair.object_id)
        for screen_id in ("screen-a", "screen-b"):
            # the pipeline drops the measured column; the partner keeps the id
            claim(state, self, pair.object_id, screen_id, rng)

    def outcome(self) -> tuple[bool, bool]:
        return self.cases["screen-a"], self.cases["screen-b"]

    def prepare(self, state: SystemState, a_id: str, b_id: str):
        # each claim's roles are named here once, by object id: the pumps
        # meet at the source, a screen is a key of angles, and whatever
        # meets a screen is the pair
        self._source = a_id in PUMP_IDS and b_id in PUMP_IDS
        self._first_screen = False
        self._template = None  # the analyzed template this claim's pair is served from
        if self._source:  # the emission direction is the source claim's first draw
            self.theta = draw_emission_direction(self.spindir_policy, self.rng)
        if b_id in self.angles:
            self._pair_id, self._screen_id = a_id, b_id
        elif a_id in self.angles:
            self._pair_id, self._screen_id = b_id, a_id
        else:
            self._pair_id = self._screen_id = None
            return
        pair, angle = state.objects[self._pair_id], self.angles[self._screen_id]
        self._first_screen = len(pair.particles) > 1
        if self._first_screen:
            source_out, drifted = self._drifted
            if pair is drifted:
                self._template = self.memoised(("ports", id(source_out), angle), _analyzed_template, source_out, angle)
                analyzed = _analyzed_from(self._template, pair, angle)
            else:
                analyzed = apply_stern_gerlach(pair, 0, angle)
        else:
            analyzed = self.memoised(("analyzed", id(pair), angle), apply_stern_gerlach, pair, 0, angle)
        state.objects[self._pair_id] = analyzed

    def candidates(self, state: SystemState, a_id: str, b_id: str):
        a, b = state.objects[a_id], state.objects[b_id]
        if self._template is None:  # a first screen's pair of its own is detected afresh
            return _candidates(a, b) if self._first_screen else super().candidates(state, a_id, b_id)
        weights = {  # the row pairs detection weighs, at the weights it computes
            (i, j): w for i, pa in enumerate(a.paths) if (wa := pa.weight) != 0.0
            for j, pb in enumerate(b.paths) if (w := wa * pb.weight) != 0.0
        }
        pair_first = a_id == self._pair_id
        unweighted = self.memoised(
            ("first-candidates", id(self._template), id(b if pair_first else a), pair_first, tuple(weights)),
            _holding, self._template, _unweighted, a, b,
        )
        found = [_evolve(c, joint_weight=weights[c.path_index_1, c.path_index_2]) for c in unweighted]
        probabilities = _selection_probabilities(found)
        return found, Cumulative(probabilities) if found else probabilities

    def table_for(self, state: SystemState, a_id: str, b_id: str, candidate):
        if self._source:  # the spins are set in effect
            return _pair_template(SOURCE_CELL)
        screen_id = self._screen_id
        if screen_id is None:
            return None
        row = candidate.path_index_1 if a_id == self._pair_id else candidate.path_index_2
        case1 = row == 0
        angle = self.angles[screen_id]
        self.cases[screen_id] = case1
        return absorb_table(candidate.position, angle if case1 else angle + 90.0)

    def effect(self, a: QuantumObject, b: QuantumObject, chosen, table: OutcomeTable, tag: int) -> tuple:
        if self._source:  # the template table's effect, with this trial's spins
            owners, source_out = super().effect(a, b, chosen, table, tag)
            self._emitted = (source_out, _evolve(source_out, paths=_spun(source_out.paths, self.theta)))
            return owners, self._emitted[1]
        if self._template is None:  # a first screen's pair of its own is collapsed afresh
            return (interaction_effect if self._first_screen else super().effect)(a, b, chosen, table, tag)
        pair_first = a.object_id == self._pair_id
        amplitude = a.paths[chosen.path_index_1].amplitude if pair_first else b.paths[chosen.path_index_2].amplitude
        unit = amplitude / abs(amplitude)  # the collapsed row's, as reduce_to_path computes it
        return self.memoised(
            ("first-effect", id(self._template), id(b if pair_first else a), id(table), tag, pair_first,
             chosen.path_index_1, chosen.path_index_2, chosen.position, chosen.particle_index_1,
             chosen.particle_index_2, unit, math.copysign(1.0, unit.real), math.copysign(1.0, unit.imag)),
            _holding, self._template, interaction_effect, a, b, chosen, table, tag,
        )

    def propagate(self, state: SystemState, object_id: str):
        # only the pair moves, and only off the source
        if object_id in PUMP_IDS or object_id in self.angles:
            return None
        obj = state.objects[object_id]
        for path in obj.paths:
            for ps in path.pathstates:
                if ps.spacepoints != _AT_SOURCE:
                    return None
        moved = drift(obj)
        if obj is self._emitted[1]:
            self._drifted = (self._emitted[0], moved)
        return moved

    def done(self, state: SystemState) -> bool:
        return len(self.cases) == 2


# -- statistics ----------------------------------------------------------------


@dataclass
class JointStats:
    """Tallies over the four joint outcomes (case1 = +, case2 = -)."""

    n_pp: int = 0
    n_pm: int = 0
    n_mp: int = 0
    n_mm: int = 0

    def record(self, case_a: bool, case_b: bool):
        if case_a:
            if case_b:
                self.n_pp += 1
            else:
                self.n_pm += 1
        elif case_b:
            self.n_mp += 1
        else:
            self.n_mm += 1

    @property
    def n(self) -> int:
        return self.n_pp + self.n_pm + self.n_mp + self.n_mm

    @property
    def p_same(self) -> float:
        return (self.n_pp + self.n_mm) / self.n

    @property
    def correlation(self) -> float:
        """E = P(same) - P(different)."""
        return (self.n_pp + self.n_mm - self.n_pm - self.n_mp) / self.n

    @property
    def correlation_se(self) -> float:
        e = self.correlation
        return math.sqrt(max(0.0, 1.0 - e * e) / self.n)

    def marginal_a(self) -> float:
        return (self.n_pp + self.n_pm) / self.n

    def marginal_b(self) -> float:
        return (self.n_pp + self.n_mp) / self.n

    def frequencies(self) -> dict:
        n = self.n
        return {"pp": self.n_pp / n, "pm": self.n_pm / n, "mp": self.n_mp / n, "mm": self.n_mm / n}

    def counts(self) -> dict:
        return {"pp": self.n_pp, "pm": self.n_pm, "mp": self.n_mp, "mm": self.n_mm}

    def tv_distance(self, other: "JointStats") -> float:
        f, g = self.frequencies(), other.frequencies()
        return 0.5 * sum(abs(f[k] - g[k]) for k in f)


@dataclass
class BellConfig:
    angle_a: float
    angle_b: float
    trials: int
    seed: int = 0
    spindir_policy: object = "uniform"  # "uniform" or a fixed angle in degrees
    runtime: str = "centralized"  # or "refined"
    scheduler: str = "round-robin"  # refined runtime only

    def __post_init__(self):
        check_run(self.trials, self.seed, self.runtime, self.scheduler, "bell.")
        for name in ("angle_a", "angle_b", "spindir_policy"):
            value = getattr(self, name)
            if name == "spindir_policy" and value == "uniform":
                continue
            if isinstance(value, bool) or not isinstance(value, numbers.Real) or not math.isfinite(value):
                expected = "'uniform' or a finite angle" if name == "spindir_policy" else "a finite angle"
                raise ConfigError(f"bell.{name} must be {expected}, got {value!r}")


@dataclass
class BellResult:
    config: BellConfig
    stats: JointStats

    def to_json_dict(self) -> dict:
        cfg = self.config
        return {
            "schema_version": 1,
            "experiment": "bell",
            "params": {
                "angle_a": cfg.angle_a,
                "angle_b": cfg.angle_b,
                "trials": cfg.trials,
                "seed": cfg.seed,
                "spindir_policy": cfg.spindir_policy,
                "runtime": cfg.runtime,
                "scheduler": cfg.scheduler,
            },
            "counts": self.stats.counts(),
            "frequencies": self.stats.frequencies(),
            "marginals": {"a": self.stats.marginal_a(), "b": self.stats.marginal_b()},
            "correlation": self.stats.correlation,
            "correlation_se": self.stats.correlation_se,
        }


def draw_emission_direction(policy, rng: RngState) -> float:
    if policy == "uniform":
        return random_draw((0.0, 360.0), "uniform", rng)
    return float(policy)


def run_bell_experiment(cfg: BellConfig) -> BellResult:
    """Monte Carlo joint statistics for one angle pair: run_trials of one
    policy under the configured scheduler."""
    policy = BellRoundPolicy(cfg.angle_a, cfg.angle_b, cfg.spindir_policy, RngState(cfg.seed))
    stats = JointStats()
    for case_a, case_b in run_trials(policy, cfg.trials, cfg.seed, cfg.runtime, cfg.scheduler):
        stats.record(case_a, case_b)
    return BellResult(config=cfg, stats=stats)


# -- light drivers -------------------------------------------------------------


def run_spin_trials(delta_deg: float, trials: int, seed: int = 0) -> tuple[int, int]:
    """Single-particle analyzer statistics at fixed misalignment delta.

    Bernoulli draws at p = spin_probability(delta) through random_draw from
    one stream keyed by (seed, delta).  Unit tests pin this to the full
    analyzer+screen pipeline distribution.
    """
    check_trials(trials, "spin.")
    p = spin_probability(delta_deg)
    rng = RngState(seed).substream("spin", delta_deg)
    n_case1 = 0
    for _ in range(trials):
        if random_draw((True, False), (p, 1.0 - p), rng):
            n_case1 += 1
    return n_case1, trials - n_case1


@dataclass
class UnentangledConfig:
    spindir_a: float
    spindir_b: float
    angle_a: float = 0.0
    angle_b: float = 0.0
    trials: int = 10000
    seed: int = 0

    def __post_init__(self):
        check_trials(self.trials, "unentangled.")
        for name in ("spindir_a", "spindir_b", "angle_a", "angle_b"):
            value = getattr(self, name)
            if not math.isfinite(value):
                raise ConfigError(f"unentangled.{name} must be finite, got {value!r}")


def run_unentangled_pair(cfg: UnentangledConfig) -> JointStats:
    """Two independent particles: joint frequencies obey the product law.
    Each angle is reduced first, as in model_correlation."""
    pa = spin_probability(_norm_angle(cfg.spindir_a) - _norm_angle(cfg.angle_a))
    pb = spin_probability(_norm_angle(cfg.spindir_b) - _norm_angle(cfg.angle_b))
    rng = RngState(cfg.seed).substream("unentangled")
    stats = JointStats()
    for _ in range(cfg.trials):
        case_a = random_draw((True, False), (pa, 1.0 - pa), rng)
        case_b = random_draw((True, False), (pb, 1.0 - pb), rng)
        stats.record(case_a, case_b)
    return stats


# -- Bell functional and the classical bound ------------------------------------

FORMS = ("identical", "anticorrelated")


def _check_finite(name: str, angles) -> None:
    for value in angles:
        if not math.isfinite(value):
            raise ConfigError(f"{name} must be finite, got {value!r}")


def model_correlation(angle_x: float, angle_y: float) -> float:
    """Closed-form E(x, y) implied by the response law: 2 cos^2(x-y) - 1.
    Each angle is reduced first, so a huge one does not round the other away."""
    _check_finite("model_correlation angles", (angle_x, angle_y))
    return 2.0 * spin_probability(_norm_angle(angle_x) - _norm_angle(angle_y)) - 1.0


def evaluate_bell(p_ab: float, p_ac: float, p_bc: float, form: str = "identical") -> float:
    """Three-angle Bell margin; negative means the bound is violated.

    identical form:      margin = (1 - P(b,c)) - |P(a,b) - P(a,c)|
    anticorrelated form: margin = (1 + P(b,c)) - |P(a,b) - P(a,c)|
    """
    if form not in FORMS:
        raise ConfigError(f"form must be one of {FORMS}, got {form!r}")
    slack = (1.0 - p_bc) if form == "identical" else (1.0 + p_bc)
    return slack - abs(p_ab - p_ac)


@dataclass
class LhvStrategy:
    wing_a: tuple[int, int, int]  # outcome (+1/-1) per setting on wing A
    wing_b: tuple[int, int, int]
    correlations: tuple[float, float, float]  # E(a,b), E(a,c), E(b,c)
    margin: float
    form_consistent: bool


@dataclass
class LhvReport:
    """Exhaustive enumeration of deterministic local strategies.

    All 2^6 = 64 assignments of +/-1 outcomes to the three settings on each
    wing are listed.  The bound is a theorem only for strategies that
    reproduce the experiment's perfect correlation form (wing B identical
    to wing A, or its exact negation); those 8 strategies all have
    margin >= 0, and mixtures cannot do better (the functional is convex in
    the strategy distribution).  Unconstrained strategies can reach
    functional value 2, which the report keeps visible rather than hiding.
    """

    angles: tuple[float, float, float]
    form: str
    strategies: list[LhvStrategy] = field(default_factory=list)

    @property
    def n_strategies(self) -> int:
        return len(self.strategies)

    @property
    def consistent(self) -> list[LhvStrategy]:
        return [s for s in self.strategies if s.form_consistent]

    @property
    def classical_min_margin(self) -> float:
        return min(s.margin for s in self.consistent)

    @property
    def unconstrained_min_margin(self) -> float:
        return min(s.margin for s in self.strategies)

    def model_margins(self) -> dict:
        a, b, c = self.angles
        e_ab = model_correlation(a, b)
        e_ac = model_correlation(a, c)
        e_bc = model_correlation(b, c)
        margin = evaluate_bell(e_ab, e_ac, e_bc, self.form)
        return {
            "E_ab": e_ab,
            "E_ac": e_ac,
            "E_bc": e_bc,
            "margin": margin,
            "exceeds_bound_by": -margin if margin < 0 else 0.0,
        }

    def to_json_dict(self) -> dict:
        return {
            "schema_version": 1,
            "experiment": "lhv",
            "angles": list(self.angles),
            "form": self.form,
            "n_strategies": self.n_strategies,
            "n_form_consistent": len(self.consistent),
            "classical_min_margin": self.classical_min_margin,
            "unconstrained_min_margin": self.unconstrained_min_margin,
            "model": self.model_margins(),
        }


def lhv_oracle(angles: tuple[float, float, float], form: str = "identical") -> LhvReport:
    """Enumerate every deterministic local strategy and its Bell margin."""
    if form not in FORMS:
        raise ConfigError(f"form must be one of {FORMS}, got {form!r}")
    _check_finite("lhv.angles", angles)
    report = LhvReport(angles=tuple(float(a) for a in angles), form=form)
    signs = (-1, 1)
    for sa in ((x, y, z) for x in signs for y in signs for z in signs):
        for sb in ((x, y, z) for x in signs for y in signs for z in signs):
            e_ab = float(sa[0] * sb[1])
            e_ac = float(sa[0] * sb[2])
            e_bc = float(sa[1] * sb[2])
            margin = evaluate_bell(e_ab, e_ac, e_bc, form)
            consistent = sb == sa if form == "identical" else sb == tuple(-x for x in sa)
            report.strategies.append(
                LhvStrategy(
                    wing_a=sa,
                    wing_b=sb,
                    correlations=(e_ab, e_ac, e_bc),
                    margin=margin,
                    form_consistent=consistent,
                )
            )
    return report


@dataclass
class BellScanResult:
    angles: tuple[float, float, float]
    form: str
    results: dict  # pair name -> BellResult
    lhv: LhvReport

    def correlations(self) -> dict:
        return {name: res.stats.correlation for name, res in self.results.items()}

    def margin(self) -> float:
        e = self.correlations()
        return evaluate_bell(e["ab"], e["ac"], e["bc"], self.form)

    def to_json_dict(self) -> dict:
        return {
            "schema_version": 1,
            "experiment": "bell-scan",
            "angles": list(self.angles),
            "form": self.form,
            "pairs": {name: res.to_json_dict() for name, res in self.results.items()},
            "correlations": self.correlations(),
            "margin": self.margin(),
            "classical_min_margin": self.lhv.classical_min_margin,
            "model": self.lhv.model_margins(),
        }


def bell_scan(
    angles: tuple[float, float, float],
    trials: int,
    seed: int = 0,
    runtime: str = "centralized",
    form: str = "identical",
    scheduler: str = "round-robin",
) -> BellScanResult:
    """Estimate E for the three angle pairs and evaluate the Bell margin."""
    lhv = lhv_oracle(angles, form)  # checks form before any trial runs
    a, b, c = angles
    results = {}
    for offset, (name, (x, y)) in enumerate(
        (("ab", (a, b)), ("ac", (a, c)), ("bc", (b, c)))
    ):
        cfg = BellConfig(
            angle_a=x,
            angle_b=y,
            trials=trials,
            seed=seed + offset,
            runtime=runtime,
            scheduler=scheduler,
        )
        results[name] = run_bell_experiment(cfg)
    return BellScanResult(
        angles=tuple(float(v) for v in angles),
        form=form,
        results=results,
        lhv=lhv,
    )

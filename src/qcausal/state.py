"""Core state model: lattice space and multi-path quantum objects.

A quantum object is a rectangular table.  Each row is one path (one
alternative history) and carries a single complex amplitude; each column is
one particle.  A table cell is a path state: the set of lattice points the
particle occupies on that path, its momentum and angular momentum, and a
spin direction given as a planar angle in degrees.  Squared amplitude
moduli over the rows sum to one.  Entanglement is nothing but row sharing:
reducing the table to one row collapses every particle in the object at
once.

Objects also carry two bookkeeping blocks: global attributes (position,
momentum summaries) and conserved quantities (energy, momentum, angular
momentum).  The conserved block is authoritative for conservation checks;
the global block is a convenience summary.
"""

from __future__ import annotations

import enum
import math
import operator
from dataclasses import dataclass, field
from typing import Iterable

from .errors import ConfigError, DegenerateObjectError, UnknownObjectError

NORM_TOL = 1e-9  # squared amplitude moduli must sum to 1 within this


class ObjectKind(enum.Enum):
    PARTICLE = "Particle"
    PARTICLE_COLLECTION = "ParticleCollection"
    INTERACTION_OBJECT = "InteractionObject"


@dataclass(frozen=True)
class Space:
    """Discrete lattice: 1 to 3 dimensions, extent cells per axis, spacing delta_x."""

    dims: int
    extent: tuple[int, ...]
    delta_x: float

    def __post_init__(self):
        if self.dims not in (1, 2, 3):
            raise ConfigError(f"space.dims must be 1, 2 or 3, got {self.dims}")
        if len(self.extent) != self.dims:
            raise ConfigError(f"space.extent needs {self.dims} entries, got {self.extent}")
        if any(int(e) <= 0 for e in self.extent):
            raise ConfigError(f"space.extent entries must be > 0, got {self.extent}")
        if not self.delta_x > 0:
            raise ConfigError(f"space.delta_x must be > 0, got {self.delta_x}")

    def contains(self, point: tuple[int, ...]) -> bool:
        return len(point) == self.dims and all(
            0 <= c < e for c, e in zip(point, self.extent)
        )


def _norm_angle(deg: float) -> float:
    """Angle in [0, 360).  Idempotent, so a stored spindir never moves when
    a record is copied."""
    a = math.fmod(float(deg), 360.0)
    if a < 0:
        a += 360.0
        if a == 360.0:  # a tiny negative angle rounds up to the full turn
            a = 0.0
    return a


def _evolve(record, **changes):
    """Copy a frozen record with some fields changed, skipping __post_init__.

    Only for building from parts that are already valid: a value taken from
    an existing record, or one computed with the same type the constructor
    would have coerced it to.  Input from outside goes through the
    constructor, which validates and coerces.

    The records a run builds for every event come from here: the collapse
    and normalization rewrites below; the drop, the interaction object, its
    provenance, candidates and out collection (interaction.py); the Bell
    source table, drift and analyzer ports, and each trial's copies of the
    run's templates: the source effect's out collection with this trial's
    spins, the analyzed pair with this trial's port amplitudes, and the
    first screen's candidates with this trial's joint weights
    (experiments/bell.py).  Each starts from a constructor-built record
    (the record being rewritten, or a module or run template) and replaces
    only fields whose values already pass its checks, so the copy equals,
    hashes and reprs like the constructor-built one.
    tests/test_interaction.py and tests/test_bell.py compare the two.
    """
    new = object.__new__(record.__class__)
    fields = new.__dict__
    fields.update(record.__dict__)
    fields.update(changes)
    return new


@dataclass(frozen=True)
class PathState:
    """One particle's state on one path: occupied cells, momenta, spin angle."""

    spacepoints: frozenset
    momentum: tuple[float, ...]
    angularmomentum: tuple[float, ...]
    spindir: float = 0.0

    def __post_init__(self):
        if not self.spacepoints:
            raise ConfigError("pathstate.spacepoints must be non-empty")
        object.__setattr__(self, "spacepoints", frozenset(tuple(p) for p in self.spacepoints))
        object.__setattr__(self, "momentum", tuple(float(v) for v in self.momentum))
        object.__setattr__(self, "angularmomentum", tuple(float(v) for v in self.angularmomentum))
        object.__setattr__(self, "spindir", _norm_angle(self.spindir))


@dataclass(frozen=True)
class Path:
    """One table row: a complex amplitude plus one PathState per particle."""

    amplitude: complex
    pathstates: tuple[PathState, ...]

    def __post_init__(self):
        object.__setattr__(self, "amplitude", complex(self.amplitude))
        object.__setattr__(self, "pathstates", tuple(self.pathstates))

    @property
    def weight(self) -> float:
        """Squared amplitude modulus (the probability weight of this row)."""
        return abs(self.amplitude) ** 2


@dataclass(frozen=True)
class ParticleInfo:
    """Particle column metadata: a type tag and a rest mass."""

    type: str
    mass: float = 0.0


@dataclass(frozen=True)
class QuantumObject:
    """A rectangular path table plus global and conserved attribute blocks."""

    object_id: str
    kind: ObjectKind
    particles: tuple[ParticleInfo, ...]
    paths: tuple[Path, ...]
    global_attrs: dict = field(default_factory=dict)
    conserved: dict = field(default_factory=dict)

    def __post_init__(self):
        object.__setattr__(self, "particles", tuple(self.particles))
        object.__setattr__(self, "paths", tuple(self.paths))
        ncols = len(self.particles)
        if ncols == 0:
            raise DegenerateObjectError(f"object {self.object_id!r}: no particles")
        if not self.paths:
            raise DegenerateObjectError(f"object {self.object_id!r}: no paths")
        for i, p in enumerate(self.paths):
            if len(p.pathstates) != ncols:
                raise ConfigError(
                    f"object {self.object_id!r}: path {i} has {len(p.pathstates)} "
                    f"pathstates for {ncols} particles (table must be rectangular)"
                )

    @property
    def n_paths(self) -> int:
        return len(self.paths)

    def amplitude_norm(self) -> float:
        return sum(p.weight for p in self.paths)


def normalize_amplitudes(obj: QuantumObject) -> QuantumObject:
    """Rescale row amplitudes so squared moduli sum to one.

    Raises DegenerateObjectError when every amplitude is zero.  A table
    already normalized within NORM_TOL is returned with amplitudes
    unchanged, so normalization is idempotent bit for bit.
    """
    norm = obj.amplitude_norm()
    if norm <= 0.0:
        raise DegenerateObjectError(f"object {obj.object_id!r}: all amplitudes zero")
    if abs(norm - 1.0) <= NORM_TOL:
        return obj
    scale = 1.0 / math.sqrt(norm)
    new_paths = tuple(_evolve(p, amplitude=p.amplitude * scale) for p in obj.paths)
    return _evolve(obj, paths=new_paths)


def reduce_to_path(obj: QuantumObject, path_index: int) -> QuantumObject:
    """Collapse the table to one row, renormalized to modulus 1.

    Collapsing applies to every particle column at once; this is where
    entangled partners get reduced together.  Idempotent: reducing an
    already single-row object to row 0 returns an equal object.
    """
    if not 0 <= path_index < len(obj.paths):
        raise IndexError(
            f"object {obj.object_id!r}: path index {path_index} out of range 0..{len(obj.paths) - 1}"
        )
    chosen = obj.paths[path_index]
    mod = abs(chosen.amplitude)
    if mod == 0.0:
        raise DegenerateObjectError(
            f"object {obj.object_id!r}: cannot reduce to zero-amplitude path {path_index}"
        )
    new = _evolve(chosen, amplitude=chosen.amplitude / mod)
    return _evolve(obj, paths=(new,))


def object_footprint(obj: QuantumObject) -> frozenset:
    """Union of occupied lattice points over all paths and particles."""
    points = set()
    for path in obj.paths:
        for ps in path.pathstates:
            points |= ps.spacepoints
    return frozenset(points)


def path_support(path: Path) -> frozenset:
    """Union of occupied lattice points over one row's particles."""
    if len(path.pathstates) == 1:
        return path.pathstates[0].spacepoints
    points = set()
    for ps in path.pathstates:
        points |= ps.spacepoints
    return frozenset(points)


@dataclass
class SystemState:
    """One trial's world: the lattice, the live objects by id, and a count
    of pipeline events.

    The pipeline's steps are pure; interaction.apply is the one step that
    writes an interaction into a state, and it advances events by 3 per
    interaction, which tags the next one.  Both runtimes read and rewrite
    objects in place; object_problem is the check the decentralized runtime
    runs once on each object it has not seen before.
    """

    space: Space
    objects: dict = field(default_factory=dict)
    events: int = 0

    def add_object(self, obj: QuantumObject):
        if obj.object_id in self.objects:
            raise ConfigError(f"duplicate object id {obj.object_id!r}")
        self.objects[obj.object_id] = obj

    def get_object(self, object_id: str) -> QuantumObject:
        try:
            return self.objects[object_id]
        except KeyError:
            raise UnknownObjectError(object_id) from None

    def object_problem(self, obj: QuantumObject):
        """obj's table is rectangular and inside the lattice; returns a
        description or None.  Depends only on obj and the space."""
        ncols = len(obj.particles)
        for i, p in enumerate(obj.paths):
            if len(p.pathstates) != ncols:
                return f"object {obj.object_id!r} path {i} not rectangular"
        for pt in object_footprint(obj):
            if not self.space.contains(pt):
                return f"object {obj.object_id!r} occupies {pt} outside the lattice"
        return None


def total_conserved(objects: Iterable[QuantumObject]) -> dict:
    """Elementwise sums of the conserved blocks over a set of objects, in
    order.  A vector total starts as the first object's vector, and an
    empty or missing vector adds nothing."""
    energy = 0.0
    momentum = angularmomentum = None
    for obj in objects:
        c = obj.conserved
        energy += c.get("energy", 0.0)
        vec = tuple(c.get("momentum", ()))
        if momentum is None:
            momentum = vec
        elif vec:
            momentum = tuple(map(operator.add, momentum, vec))
        vec = tuple(c.get("angularmomentum", ()))
        if angularmomentum is None:
            angularmomentum = vec
        elif vec:
            angularmomentum = tuple(map(operator.add, angularmomentum, vec))
    return {"energy": energy, "momentum": momentum or (), "angularmomentum": angularmomentum or ()}


def _conserved_signature(c: dict) -> tuple:
    """A conserved block, or total_conserved's sums, in the form two of them
    are compared in: exactly, a missing quantity counting as empty."""
    return (
        c.get("energy", 0.0),
        tuple(c.get("momentum") or ()),
        tuple(c.get("angularmomentum") or ()),
    )

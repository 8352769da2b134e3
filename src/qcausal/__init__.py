"""Quantum objects on a lattice: a causally explicit simulation toolkit.

State is a lattice plus quantum objects, each a rectangular table of paths
(rows) over particles (columns) with complex amplitudes.  Interactions
collapse shared tables through an explicit pipeline whose only stochastic
element is a squared-amplitude draw; conserved quantities flow additively.
Two schedulers produce the same statistics under one trial loop: each
world's centralized causal order of its events, and a decentralized runtime
built from per-object engines coordinating through a mediator board, which
checks every interaction against an exact conservation ledger.  A small declaration language plus classifier grades model
laws as SpacePointLocal, ObjectLocal, or NonLocal.  Bundled experiments:
entangled-pair correlations against the exhaustive classical bound,
two-slit interference with and without a which-path marker, a lattice
wave automaton, and coupled pendulums as the non-local contrast case.
"""

from .engine import RngState, random_draw
from .errors import (
    ConfigError,
    DegenerateObjectError,
    InvariantViolation,
    ParseError,
    UnknownObjectError,
)
from .interaction import (
    InteractionCandidate,
    InteractionObject,
    OutcomeRow,
    OutcomeTable,
    create_interaction_object,
    determine_potential_interactions,
    drop_particle,
    eliminate_unaffected_paths,
    perform_interaction,
    process_interaction_object,
    select_interaction,
)
from .state import (
    ObjectKind,
    ParticleInfo,
    Path,
    PathState,
    QuantumObject,
    Space,
    SystemState,
    normalize_amplitudes,
    reduce_to_path,
    total_conserved,
)

__version__ = "0.1.0"

# the locality names load qcausal.locality when one is first read: only the
# analyze subcommand and library callers classify models, so no other
# subcommand pays for importing it
_LOCALITY_NAMES = frozenset(
    {"LocalityClass", "LocalityReport", "classify_law", "classify_model", "load_model_spec", "parse_model_spec"}
)


def __getattr__(name: str):
    if name in _LOCALITY_NAMES:
        from . import locality

        value = globals()[name] = getattr(locality, name)
        return value
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")

__all__ = [
    "ConfigError",
    "DegenerateObjectError",
    "InteractionCandidate",
    "InteractionObject",
    "InvariantViolation",
    "LocalityClass",
    "LocalityReport",
    "ObjectKind",
    "OutcomeRow",
    "OutcomeTable",
    "ParseError",
    "ParticleInfo",
    "Path",
    "PathState",
    "QuantumObject",
    "RngState",
    "Space",
    "SystemState",
    "UnknownObjectError",
    "classify_law",
    "classify_model",
    "create_interaction_object",
    "determine_potential_interactions",
    "drop_particle",
    "eliminate_unaffected_paths",
    "load_model_spec",
    "normalize_amplitudes",
    "parse_model_spec",
    "perform_interaction",
    "process_interaction_object",
    "random_draw",
    "reduce_to_path",
    "select_interaction",
    "total_conserved",
]

"""The package's public export list."""

import qcausal

# The whole public API.  Pinning it exactly means a removed name cannot linger
# in the export list and a new one is added on purpose.
PUBLIC = {
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
}


def test_export_list_resolves_without_duplicates_or_strays():
    names = qcausal.__all__
    assert [n for n in names if not hasattr(qcausal, n)] == []
    assert len(set(names)) == len(names)
    assert set(names) == PUBLIC

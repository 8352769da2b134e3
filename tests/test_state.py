"""State model: lattice, path tables, normalization, collapse, conservation sums."""

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qcausal.errors import (
    ConfigError,
    DegenerateObjectError,
    InvariantViolation,
    UnknownObjectError,
)
from qcausal.state import (
    ObjectKind,
    ParticleInfo,
    Path,
    PathState,
    QuantumObject,
    Space,
    SystemState,
    normalize_amplitudes,
    object_footprint,
    path_support,
    reduce_to_path,
    total_conserved,
)

import numpy as np


def ps(*cells, momentum=(0.0,), am=(0.0,), spindir=0.0):
    return PathState(frozenset(cells), momentum, am, spindir)


def one_particle(object_id, paths, mass=1.0, conserved=None):
    return QuantumObject(
        object_id=object_id,
        kind=ObjectKind.PARTICLE,
        particles=(ParticleInfo("dot", mass),),
        paths=tuple(paths),
        conserved=conserved or {},
    )


# --- Space ------------------------------------------------------------------

def test_space_contains():
    sp = Space(2, (4, 3), 0.5)
    assert sp.contains((0, 0))
    assert sp.contains((3, 2))
    assert not sp.contains((4, 0))
    assert not sp.contains((0, -1))
    assert not sp.contains((1,))  # wrong rank


def test_space_validation():
    with pytest.raises(ConfigError):
        Space(0, (), 1.0)
    with pytest.raises(ConfigError):
        Space(4, (1, 1, 1, 1), 1.0)
    with pytest.raises(ConfigError):
        Space(2, (4,), 1.0)  # extent rank mismatch
    with pytest.raises(ConfigError):
        Space(1, (0,), 1.0)
    with pytest.raises(ConfigError):
        Space(1, (4,), 0.0)


# --- PathState / Path --------------------------------------------------------

def test_pathstate_normalizes_spin_angle():
    assert ps((0,), spindir=-30.0).spindir == 330.0
    assert ps((0,), spindir=360.0).spindir == 0.0
    assert ps((0,), spindir=725.0).spindir == 5.0
    assert ps((0,), spindir=-1e-20).spindir == 0.0  # never the full turn 360.0


def test_pathstate_requires_cells():
    with pytest.raises(ConfigError):
        PathState(frozenset(), (0.0,), (0.0,))


def test_pathstate_coerces_to_hashable():
    state = PathState({(0, 1), (0, 2)}, [1, 0], [0, 0])
    assert isinstance(state.spacepoints, frozenset)
    assert state.momentum == (1.0, 0.0)
    hash(state)  # frozen and hashable


def test_path_weight_is_squared_modulus():
    p = Path(0.6 + 0.8j, (ps((0,)),))
    assert math.isclose(p.weight, 1.0, rel_tol=0, abs_tol=1e-12)
    assert Path(0.5, (ps((0,)),)).weight == 0.25


# --- QuantumObject ------------------------------------------------------------

def test_object_requires_rectangular_table():
    row_a = Path(1.0, (ps((0,)), ps((1,))))
    row_b = Path(0.0, (ps((0,)),))
    with pytest.raises(ConfigError, match="rectangul"):
        QuantumObject("bad", ObjectKind.PARTICLE_COLLECTION,
                      (ParticleInfo("x"), ParticleInfo("y")), (row_a, row_b))


def test_object_requires_rows_and_columns():
    with pytest.raises(DegenerateObjectError):
        QuantumObject("none", ObjectKind.PARTICLE, (), (Path(1.0, ()),))
    with pytest.raises(DegenerateObjectError):
        QuantumObject("none", ObjectKind.PARTICLE, (ParticleInfo("x"),), ())


def test_amplitude_norm_and_check():
    inv = 1.0 / math.sqrt(2.0)
    obj = one_particle("o", [Path(inv, (ps((0,)),)), Path(inv * 1j, (ps((1,)),))])
    assert math.isclose(obj.amplitude_norm(), 1.0, abs_tol=1e-15)
    obj.check_normalized()
    lop = one_particle("o2", [Path(0.5, (ps((0,)),))])
    with pytest.raises(InvariantViolation):
        lop.check_normalized()


def test_normalize_amplitudes():
    obj = one_particle("o", [Path(3.0, (ps((0,)),)), Path(4.0j, (ps((1,)),))])
    out = normalize_amplitudes(obj)
    assert math.isclose(out.amplitude_norm(), 1.0, abs_tol=1e-12)
    assert out.paths[0].amplitude == pytest.approx(0.6)
    assert out.paths[1].amplitude == pytest.approx(0.8j)


def test_normalize_is_identity_when_already_normalized():
    inv = 1.0 / math.sqrt(2.0)
    obj = one_particle("o", [Path(inv, (ps((0,)),)), Path(inv, (ps((1,)),))])
    out = normalize_amplitudes(obj)
    assert out is obj  # bit-for-bit idempotent


def test_normalize_rejects_zero_table():
    obj = one_particle("o", [Path(0.0, (ps((0,)),))])
    with pytest.raises(DegenerateObjectError):
        normalize_amplitudes(obj)


@given(st.lists(st.complex_numbers(min_magnitude=1e-3, max_magnitude=1e3,
                                   allow_nan=False, allow_infinity=False),
                min_size=1, max_size=8))
@settings(max_examples=100)
def test_normalize_always_lands_on_unit_norm(amps):
    obj = one_particle("h", [Path(a, (ps((i,)),)) for i, a in enumerate(amps)])
    out = normalize_amplitudes(obj)
    assert math.isclose(out.amplitude_norm(), 1.0, rel_tol=0, abs_tol=1e-9)
    # Normalizing twice changes nothing at all.
    again = normalize_amplitudes(out)
    assert again is out


def test_reduce_to_path_collapses_all_columns():
    inv = 1.0 / math.sqrt(2.0)
    rows = (
        Path(inv, (ps((0,), spindir=0.0), ps((2,), spindir=90.0))),
        Path(inv, (ps((0,), spindir=90.0), ps((2,), spindir=0.0))),
    )
    pair = QuantumObject("pair", ObjectKind.PARTICLE_COLLECTION,
                         (ParticleInfo("half", 0.5), ParticleInfo("half", 0.5)), rows)
    hit = reduce_to_path(pair, 1)
    assert hit.n_paths == 1
    # Both particles collapse together in one row selection.
    assert hit.paths[0].pathstates[0].spindir == 90.0
    assert hit.paths[0].pathstates[1].spindir == 0.0
    assert abs(hit.paths[0].amplitude) == pytest.approx(1.0)


def test_reduce_to_path_errors():
    obj = one_particle("o", [Path(1.0, (ps((0,)),)), Path(0.0, (ps((1,)),))])
    with pytest.raises(IndexError):
        reduce_to_path(obj, 5)
    with pytest.raises(DegenerateObjectError):
        reduce_to_path(obj, 1)  # zero-amplitude row


def test_reduce_is_idempotent():
    obj = one_particle("o", [Path(-1.0, (ps((0,)),))])
    once = reduce_to_path(obj, 0)
    twice = reduce_to_path(once, 0)
    assert once == twice


@given(st.integers(min_value=1, max_value=6), st.integers(min_value=0, max_value=5))
@settings(max_examples=60)
def test_reduce_keeps_phase(n_rows, pick):
    if pick >= n_rows:
        pick = n_rows - 1
    amps = [(0.3 + 0.1 * i) * np.exp(1j * i) for i in range(n_rows)]
    obj = one_particle("h", [Path(a, (ps((i,)),)) for i, a in enumerate(amps)])
    out = reduce_to_path(obj, pick)
    # Collapse rescales the modulus to 1 but leaves the phase alone.
    expect = amps[pick] / abs(amps[pick])
    assert out.paths[0].amplitude == pytest.approx(expect)


def test_footprints():
    rows = (
        Path(1.0, (ps((0,), (1,)), ps((5,)))),
    )
    obj = QuantumObject("w", ObjectKind.PARTICLE_COLLECTION,
                        (ParticleInfo("a"), ParticleInfo("b")), rows)
    assert object_footprint(obj) == frozenset({(0,), (1,), (5,)})
    assert path_support(rows[0]) == frozenset({(0,), (1,), (5,)})


# --- SystemState ---------------------------------------------------------------

def test_add_and_get_object():
    state = SystemState(space=Space(1, (4,), 1.0))
    obj = one_particle("m", [Path(1.0, (ps((0,)),))])
    state.add_object(obj)
    assert state.get_object("m") is obj
    with pytest.raises(ConfigError):
        state.add_object(obj)
    with pytest.raises(UnknownObjectError):
        state.get_object("ghost")


def test_invariant_problem_flags_out_of_bounds():
    state = SystemState(space=Space(1, (4,), 1.0))
    state.objects["far"] = one_particle("far", [Path(1.0, (ps((9,)),))])
    problem = state.invariant_problem()
    assert problem is not None and "far" in problem
    state.objects.clear()
    assert state.invariant_problem() is None


# --- total_conserved -------------------------------------------------------------

def test_total_conserved_sums_blocks():
    a = one_particle("a", [Path(1.0, (ps((0,)),))],
                     conserved={"energy": 0.5, "momentum": (1.0, 0.0), "angularmomentum": (0.5,)})
    b = one_particle("b", [Path(1.0, (ps((1,)),))],
                     conserved={"energy": 1.0, "momentum": (-1.0, 2.0), "angularmomentum": (0.25,)})
    total = total_conserved([a, b])
    assert total == {"energy": 1.5, "momentum": (0.0, 2.0), "angularmomentum": (0.75,)}


def test_total_conserved_handles_missing_blocks():
    a = one_particle("a", [Path(1.0, (ps((0,)),))], conserved={"energy": 2.0})
    total = total_conserved([a])
    assert total["energy"] == 2.0
    assert total["momentum"] == ()
    assert total_conserved([]) == {"energy": 0.0, "momentum": (), "angularmomentum": ()}


def _summed_one_key_at_a_time(objects):
    """total_conserved as first written: the reference for its bits."""
    total = {"energy": 0.0, "momentum": None, "angularmomentum": None}
    for obj in objects:
        c = obj.conserved
        total["energy"] += c.get("energy", 0.0)
        for key in ("momentum", "angularmomentum"):
            vec = tuple(c.get(key, ()))
            if total[key] is None:
                total[key] = vec
            elif vec:
                total[key] = tuple(a + b for a, b in zip(total[key], vec))
    for key in ("momentum", "angularmomentum"):
        if total[key] is None:
            total[key] = ()
    return total


_components = st.floats(allow_nan=False, allow_infinity=False) | st.sampled_from([0.0, -0.0, 1e16, 1.0])
_blocks = st.fixed_dictionaries(
    {},
    optional={
        "energy": _components,
        "momentum": st.lists(_components, max_size=3).map(tuple),
        "angularmomentum": st.lists(_components, max_size=2).map(tuple),
    },
)


@settings(max_examples=300, deadline=None)
@given(st.lists(_blocks, max_size=4))
def test_total_conserved_sums_as_the_reference_does(blocks):
    objects = [one_particle(f"o{i}", [Path(1.0, (ps((0,)),))], conserved=c) for i, c in enumerate(blocks)]
    got, want = total_conserved(objects), _summed_one_key_at_a_time(objects)
    assert got == want and repr(got) == repr(want)

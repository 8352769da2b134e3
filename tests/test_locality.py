"""Locality DSL: parsing, the three-level classifier, bundled model files."""

import pathlib
import textwrap

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import qcausal
from qcausal.errors import ConfigError, ParseError
from qcausal.locality import (
    CellAbsolute,
    CellAt,
    Footprint,
    LawSpec,
    LocalityClass,
    ObjectAllPaths,
    ObjectGlobal,
    WholeObjectSet,
    WholeSpace,
    classify_law,
    classify_model,
    load_model_spec,
    parse_model_spec,
    pretty_print,
    ref_to_text,
)
from qcausal.wave import make_grid, wave_step_scalar

import numpy as np

SPECS = pathlib.Path(qcausal.__file__).parent / "specs"


def parse(text):
    return parse_model_spec(textwrap.dedent(text))


def law_of(*refs, writes=()):
    return LawSpec("probe", Footprint(reads=tuple(refs), writes=tuple(writes)))


# --- parsing -------------------------------------------------------------------

def test_parse_minimal_model():
    spec = parse("model tiny")
    assert spec.name == "tiny"
    assert spec.objects == {} and spec.laws == []
    report = classify_model(spec)
    assert report.model_class is LocalityClass.SPACE_POINT_LOCAL


def test_parse_all_reference_forms():
    spec = parse("""
        # exercise every reference form
        model kitchen-sink
        object probe { globals: flag; }
        law l1 {
          reads: cell(-1), cell(0), cell(+1), cell@(3, 4), global(probe.flag),
                 allpaths(probe), space, objects;
          writes: cell(0);
        }
    """)
    (law,) = spec.laws
    assert law.footprint.reads == (
        CellAt((-1,)), CellAt((0,)), CellAt((1,)),
        CellAbsolute((3, 4)),
        ObjectGlobal("probe", "flag"),
        ObjectAllPaths("probe"),
        WholeSpace(), WholeObjectSet(),
    )
    assert law.footprint.writes == (CellAt((0,)),)


def test_parse_object_declarations():
    spec = parse("""
        model decls
        object bare { }
        object rich { globals: x, v; }
    """)
    assert spec.objects["bare"].attrs == ()
    assert spec.objects["rich"].attrs == ("x", "v")


def test_parse_errors_have_positions():
    with pytest.raises(ParseError) as exc:
        parse("model m\nlaw broken {\n  reads cell(0);\n}")
    assert exc.value.line == 3 and exc.value.column == 9
    assert str(exc.value).startswith("line 3, col 9:")
    assert isinstance(exc.value, ConfigError)


def test_parse_rejects_wide_tuples():
    with pytest.raises(ParseError):
        parse("model m\nlaw l { reads: cell(1, 1, 1, 1); }")


def test_parse_rejects_duplicates():
    with pytest.raises(ParseError, match="duplicate"):
        parse("model m\nobject o { }\nobject o { }")
    with pytest.raises(ParseError, match="duplicate"):
        parse("model m\nlaw l { reads: cell(0); }\nlaw l { reads: cell(0); }")


def test_semantic_errors_are_collected():
    with pytest.raises(ParseError) as exc:
        parse("""
            model m
            object known { globals: x; }
            law one { reads: global(ghost.x); }
            law two { reads: global(known.y), allpaths(phantom); }
        """)
    message = str(exc.value)
    assert "ghost" in message and "phantom" in message
    assert "attribute 'y'" in message


def test_global_attr_unchecked_without_declared_list():
    spec = parse("""
        model m
        object opaque { }
        law l { reads: global(opaque.anything); }
    """)
    assert classify_law(spec.laws[0]) is LocalityClass.OBJECT_LOCAL


def test_pretty_print_round_trip_bundled():
    for name in ("wave_ca", "pendulum", "centralized_qt", "refined_qt"):
        spec = load_model_spec(SPECS / f"{name}.model")
        again = parse_model_spec(pretty_print(spec))
        assert again == spec


def test_ref_to_text_forms():
    assert ref_to_text(CellAt((0,))) == "cell(0)"
    assert ref_to_text(CellAt((-1, 1))) == "cell(-1, +1)"
    assert ref_to_text(CellAbsolute((3, 4))) == "cell@(3, 4)"
    assert ref_to_text(ObjectGlobal("bob", "x")) == "global(bob.x)"
    assert ref_to_text(ObjectAllPaths("bob")) == "allpaths(bob)"
    assert ref_to_text(WholeSpace()) == "space"
    assert ref_to_text(WholeObjectSet()) == "objects"
    with pytest.raises(TypeError):
        ref_to_text("cell(0)")


# --- classifier ------------------------------------------------------------------

def test_relative_stencil_is_space_point_local():
    law = law_of(CellAt((-1,)), CellAt((0,)), CellAt((1,)), writes=(CellAt((0,)),))
    assert classify_law(law) is LocalityClass.SPACE_POINT_LOCAL


def test_single_absolute_cell_is_space_point_local():
    assert classify_law(law_of(CellAbsolute((5,)))) is LocalityClass.SPACE_POINT_LOCAL
    # the same anchor named twice is still one anchor
    law = law_of(CellAbsolute((5,)), writes=(CellAbsolute((5,)),))
    assert classify_law(law) is LocalityClass.SPACE_POINT_LOCAL


def test_two_absolute_cells_are_non_local():
    assert classify_law(law_of(CellAbsolute((0,)), CellAbsolute((1,)))) is LocalityClass.NON_LOCAL


def test_mixing_relative_and_absolute_is_non_local():
    assert classify_law(law_of(CellAt((0,)), CellAbsolute((5,)))) is LocalityClass.NON_LOCAL


def test_wide_offset_is_non_local():
    assert classify_law(law_of(CellAt((2,)))) is LocalityClass.NON_LOCAL
    assert classify_law(law_of(CellAt((0, -2)))) is LocalityClass.NON_LOCAL


def test_own_globals_are_object_local():
    law = law_of(CellAt((0,)), ObjectGlobal("self", "flag"), ObjectGlobal("self", "count"))
    assert classify_law(law) is LocalityClass.OBJECT_LOCAL


def test_two_objects_globals_are_non_local():
    law = law_of(ObjectGlobal("a", "x"), ObjectGlobal("b", "x"))
    assert classify_law(law) is LocalityClass.NON_LOCAL


def test_sweeping_references_are_non_local():
    assert classify_law(law_of(WholeSpace())) is LocalityClass.NON_LOCAL
    assert classify_law(law_of(WholeObjectSet())) is LocalityClass.NON_LOCAL
    assert classify_law(law_of(ObjectAllPaths("o"))) is LocalityClass.NON_LOCAL


def test_classify_law_requires_footprint():
    bare = LawSpec("bare-law", footprint=None)
    with pytest.raises(ParseError):
        classify_law(bare)


def test_class_order_and_labels():
    assert LocalityClass.SPACE_POINT_LOCAL < LocalityClass.OBJECT_LOCAL < LocalityClass.NON_LOCAL
    assert LocalityClass.NON_LOCAL.label == "NonLocal"
    assert max(LocalityClass.OBJECT_LOCAL, LocalityClass.SPACE_POINT_LOCAL).label == "ObjectLocal"


_REFS = st.one_of(
    st.tuples(st.integers(-1, 1)).map(CellAt),
    st.tuples(st.integers(-2, 2)).map(CellAt),
    st.tuples(st.integers(0, 3)).map(CellAbsolute),
    st.builds(ObjectGlobal, st.sampled_from(["a", "b", "c"]), st.sampled_from(["x", "y"])),
    st.builds(ObjectAllPaths, st.sampled_from(["a", "b"])),
    st.just(WholeSpace()),
    st.just(WholeObjectSet()),
)


@given(st.lists(_REFS, max_size=6), _REFS)
@settings(max_examples=200)
def test_adding_a_reference_never_lowers_the_class(refs, extra):
    before = classify_law(law_of(*refs))
    after = classify_law(law_of(*refs, extra))
    assert after >= before


@given(st.lists(_REFS, min_size=1, max_size=6))
@settings(max_examples=200)
def test_raisers_explain_every_elevated_class(refs):
    from qcausal.locality import _classify_refs

    cls, raisers = _classify_refs(tuple(refs))
    if cls is LocalityClass.SPACE_POINT_LOCAL:
        assert raisers == []
    else:
        assert raisers
        assert all(r in refs for r, _ in raisers)


# --- reports and bundled models -----------------------------------------------------

def test_classify_model_takes_the_maximum():
    spec = parse("""
        model mixed
        object o { globals: flag; }
        law quiet { reads: cell(0); writes: cell(0); }
        law chatty { reads: global(o.flag); writes: cell(0); }
    """)
    report = classify_model(spec)
    assert [entry.locality for entry in report.laws] == [
        LocalityClass.SPACE_POINT_LOCAL,
        LocalityClass.OBJECT_LOCAL,
    ]
    assert report.model_class is LocalityClass.OBJECT_LOCAL
    d = report.to_json_dict()
    assert d["schema_version"] == 1
    assert d["class"] == "ObjectLocal"
    assert d["laws"][1]["raised_by"][0]["ref"] == "global(o.flag)"
    text = report.to_text()
    assert "model mixed: ObjectLocal" in text
    assert "law quiet: SpacePointLocal" in text


def test_bundled_wave_model_is_space_point_local():
    report = classify_model(load_model_spec(SPECS / "wave_ca.model"))
    assert report.model_class is LocalityClass.SPACE_POINT_LOCAL
    assert all(entry.raisers == [] for entry in report.laws)


def test_bundled_pendulum_model_is_non_local():
    report = classify_model(load_model_spec(SPECS / "pendulum.model"))
    assert report.model_class is LocalityClass.NON_LOCAL
    for entry in report.laws:
        assert entry.locality is LocalityClass.NON_LOCAL
        texts = [ref_to_text(r) for r, _ in entry.raisers]
        # both offenders named: the cross-object global and the two cells
        assert any(t.startswith("global(") for t in texts)
        assert any(t.startswith("cell@(") for t in texts)


def test_bundled_centralized_model_is_non_local():
    report = classify_model(load_model_spec(SPECS / "centralized_qt.model"))
    assert report.model_class is LocalityClass.NON_LOCAL
    assert all(entry.locality is LocalityClass.NON_LOCAL for entry in report.laws)
    reasons = {why for entry in report.laws for _, why in entry.raisers}
    assert any("whole space" in why for why in reasons)
    assert any("whole object set" in why for why in reasons)
    assert any("every path" in why for why in reasons)


def test_bundled_refined_model_is_object_local():
    report = classify_model(load_model_spec(SPECS / "refined_qt.model"))
    assert report.model_class is LocalityClass.OBJECT_LOCAL
    assert all(entry.locality is LocalityClass.OBJECT_LOCAL for entry in report.laws)
    for entry in report.laws:
        assert all(isinstance(r, ObjectGlobal) for r, _ in entry.raisers)


# --- declared footprint vs observed accesses ------------------------------------------

def test_wave_access_log_is_covered_by_declared_footprint():
    # The wave automaton's instrumented reference step logs every access;
    # each observed offset must appear in the model file's declaration.
    spec = load_model_spec(SPECS / "wave_ca.model")
    (law,) = spec.laws
    declared_reads = {ref.offset[0] for ref in law.footprint.reads if isinstance(ref, CellAt)}
    declared_writes = {ref.offset[0] for ref in law.footprint.writes if isinstance(ref, CellAt)}

    grid = make_grid(np.sin(np.linspace(0, 3, 32)), v=1.0, delta_x=1.0, delta_t=0.5)
    log = []
    wave_step_scalar(grid, access_log=log)
    assert log  # the instrumentation actually fired
    for op, offset in log:
        if op in ("read", "read_prev"):  # prev time level lives at the same cell
            assert offset in declared_reads
        else:
            assert op == "write" and offset in declared_writes

"""Block-format parser: raw block parsing, errors with line numbers, nodes."""

import textwrap

import pytest

from qcausal.config import ConfigNode, parse_config_text
from qcausal.errors import ConfigError, ParseError


def parse(text):
    return parse_config_text(textwrap.dedent(text))


# --- raw block parsing ------------------------------------------------------

def test_parse_entries_and_types():
    root = parse("""
        space { dims = 1; extent = 100; delta_x = 0.5 }
        tag { word = gaussian; cells = (3, 4); pair = 0.6, 0.8 }
    """)
    space = root.child("space")[0]
    assert space.entries == {"dims": 1, "extent": 100, "delta_x": 0.5}
    tag = root.child("tag")[0]
    assert tag.entries["word"] == "gaussian"
    assert tag.entries["cells"] == (3, 4)
    assert tag.entries["pair"] == [0.6, 0.8]


def test_parse_comments_and_blank_lines():
    root = parse("""
        # full-line comment

        a { x = 1 }  # trailing comment
    """)
    assert root.child("a")[0].entries == {"x": 1}


def test_parse_nested_blocks():
    root = parse("""
        object pair {
          kind = ParticleCollection
          path {
            amplitude = 1.0, 0.0
            state { spacepoints = (5); momentum = (0.0) }
          }
        }
    """)
    obj = root.child("object")[0]
    assert obj.name == "pair"
    (path,) = obj.child("path")
    (state,) = path.child("state")
    assert state.entries["spacepoints"] == (5,)


def test_parse_close_brace_on_entry_line():
    # "key = value }" must close the block, not swallow the brace.
    root = parse("""
        a {
          b { x = 1 }
          y = 2 }
        c { z = 3 }
    """)
    a = root.child("a")[0]
    assert a.entries == {"y": 2}
    assert a.child("b")[0].entries == {"x": 1}
    assert root.child("c")[0].entries == {"z": 3}


def test_parse_multiple_statements_per_line():
    root = parse("a { x = 1; y = (2, 3); z = w }")
    assert root.child("a")[0].entries == {"x": 1, "y": (2, 3), "z": "w"}


def test_parse_named_and_anonymous_blocks():
    root = parse("""
        engine { delta_t = 1.0 }
        outcome_table capture { }
    """)
    assert root.child("engine")[0].name is None
    assert root.child("outcome_table")[0].name == "capture"


def test_parse_errors_carry_line_numbers():
    with pytest.raises(ParseError) as exc:
        parse("a {\n  x = 1\n")
    assert "unclosed" in str(exc.value)
    with pytest.raises(ParseError) as exc:
        parse("one\ntwo\n}\n")
    assert exc.value.line == 1
    assert "line 1" in str(exc.value)


def test_parse_error_cases():
    with pytest.raises(ParseError):
        parse("}")
    with pytest.raises(ParseError):
        parse("a b c {\n}")
    with pytest.raises(ParseError):
        parse("a { = 3 }")
    with pytest.raises(ParseError):
        parse("a { x = }")
    with pytest.raises(ParseError):
        parse("a { x = (1, 2 }")
    with pytest.raises(ParseError):
        parse("a { lone-word }")
    with pytest.raises(ParseError):
        parse("a { x = (1,) y = 2 }\n" * 1 + "b { z = ((3) }")


def test_parse_error_position_fields():
    err = ParseError("broken", line=4, column=7)
    assert err.line == 4 and err.column == 7
    assert str(err).startswith("line 4, col 7:")
    assert isinstance(err, ConfigError)


# --- nodes ---------------------------------------------------------------------

def test_config_node_require():
    node = ConfigNode(kind="engine", entries={"delta_t": 1.0})
    assert node.require("delta_t") == 1.0
    with pytest.raises(ConfigError, match="engine.max_steps"):
        node.require("max_steps")

"""Block-format text parser.

A small line-oriented block format:

    # comment
    space { dims = 1; extent = 100; delta_x = 1.0 }
    object pair {
      kind = ParticleCollection
      path {
        amplitude = 0.7071067811865476, 0.0
        state { spacepoints = (50); momentum = (-1.0) }
      }
    }

Grammar: `name {` or `kind name {` opens a block, `}` closes it, and
`key = value` sets an entry; `;` separates items on one line.  Values are
ints, floats, bare words, `(..)` integer tuples, or comma lists of these.
Parse errors name the offending line.

Only the untyped parse tree is built here.  The typed loader that turned it
into a `SystemState` was deleted with the guarded-law engine it fed; no
subcommand reads a block file, so this parser is next in line for removal.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .errors import ConfigError, ParseError


@dataclass
class ConfigNode:
    """One parsed block: its kind, optional name, entries, child blocks."""

    kind: str
    name: str | None = None
    entries: dict = field(default_factory=dict)
    children: list = field(default_factory=list)
    line: int = 0

    def child(self, kind: str):
        return [c for c in self.children if c.kind == kind]

    def require(self, key: str):
        try:
            return self.entries[key]
        except KeyError:
            raise ConfigError(f"{self.kind}.{key}: missing required entry") from None


def _parse_value(token: str, line: int):
    token = token.strip()
    if not token:
        raise ParseError("empty value", line)
    if token.startswith("("):
        if not token.endswith(")"):
            raise ParseError(f"unterminated tuple {token!r}", line)
        inner = token[1:-1].strip()
        parts = [p for p in (s.strip() for s in inner.split(",")) if p] if inner else []
        return tuple(_parse_scalar(p, line) for p in parts)
    return _parse_scalar(token, line)


def _parse_scalar(token: str, line: int):
    try:
        return int(token)
    except ValueError:
        pass
    try:
        return float(token)
    except ValueError:
        pass
    return token


def _split_list(raw: str, line: int) -> list:
    """Split a raw value on top-level commas, respecting ( ) groups."""
    items, depth, cur = [], 0, []
    for ch in raw:
        if ch == "(":
            depth += 1
        elif ch == ")":
            depth -= 1
            if depth < 0:
                raise ParseError("unbalanced ')'", line)
        if ch == "," and depth == 0:
            items.append("".join(cur))
            cur = []
        else:
            cur.append(ch)
    if depth != 0:
        raise ParseError("unbalanced '('", line)
    items.append("".join(cur))
    return [i.strip() for i in items if i.strip()]


def parse_config_text(text: str) -> ConfigNode:
    """Parse the block format into a tree rooted at a synthetic node."""
    root = ConfigNode(kind="root")
    stack = [root]
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        # allow several ;-separated statements per line
        for stmt in _split_statements(line, lineno):
            _parse_statement(stmt, lineno, stack)
    if len(stack) != 1:
        raise ParseError(f"unclosed block {stack[-1].kind!r}", stack[-1].line)
    return root


def _split_statements(line: str, lineno: int) -> list[str]:
    parts, cur, depth = [], [], 0
    for ch in line:
        if ch == "(":
            depth += 1
        elif ch == ")":
            depth -= 1
        if ch == ";" and depth == 0:
            parts.append("".join(cur).strip())
            cur = []
        elif ch == "{" and depth == 0:
            # a block header is "name {", keep the prefix attached
            parts.append(("".join(cur).strip() + " {").strip())
            cur = []
        elif ch == "}" and depth == 0:
            # a close brace stands alone; any prefix is its own statement
            prefix = "".join(cur).strip()
            if prefix:
                parts.append(prefix)
            parts.append("}")
            cur = []
        else:
            cur.append(ch)
    tail = "".join(cur).strip()
    if tail:
        parts.append(tail)
    return [p for p in parts if p]


def _parse_statement(stmt: str, lineno: int, stack: list):
    if stmt == "}":
        if len(stack) == 1:
            raise ParseError("unmatched '}'", lineno)
        stack.pop()
        return
    if stmt.endswith("{"):
        head = stmt[:-1].split()
        if not head or len(head) > 2:
            raise ParseError(f"bad block header {stmt!r}", lineno)
        node = ConfigNode(kind=head[0], name=head[1] if len(head) == 2 else None, line=lineno)
        stack[-1].children.append(node)
        stack.append(node)
        return
    if "=" in stmt:
        key, _, raw = stmt.partition("=")
        key = key.strip()
        if not key:
            raise ParseError("missing key before '='", lineno)
        items = _split_list(raw, lineno)
        if not items:
            raise ParseError(f"{key}: empty value", lineno)
        values = [_parse_value(i, lineno) for i in items]
        stack[-1].entries[key] = values[0] if len(values) == 1 else values
        return
    raise ParseError(f"cannot parse {stmt!r}", lineno)

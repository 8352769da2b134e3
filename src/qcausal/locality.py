"""Static locality analysis of update laws from declared access footprints.

A law's footprint lists what it reads and writes, using six reference
forms:

    cell(o)        a lattice cell at relative offset o from the law's own
                   position (components must be -1, 0 or +1)
    cell@(p)       an absolute lattice cell p
    global(o.a)    attribute a of object o's global block
    allpaths(o)    the full path table of object o
    space          the whole lattice
    objects        the whole object set

Classification is a three-level order:

    SpacePointLocal < ObjectLocal < NonLocal

SpacePointLocal means the law touches a single position and at most its
immediate neighborhood.  Every reference must be positional, and the law
may have only one position anchor: relative offsets share one implicit
anchor, and each distinct absolute cell is an anchor of its own, so a law
mixing relative offsets with an absolute cell, or naming two distinct
absolute cells, is anchored at two positions and classifies NonLocal.

ObjectLocal additionally permits global-attribute access, but only to a
single object: reading the global block of two distinct objects couples
them as directly as reading two distant cells does, and classifies
NonLocal (the coupled-pendulum laws are the canonical example).

NonLocal always results from allpaths(...), space, or objects references,
or from an offset component outside -1..+1.

The model's class is the maximum over its laws; the report lists, per law,
every reference that raised the class above SpacePointLocal.

The input is a small declaration language:

    model <name>
    object <id> { globals: attr, attr; }
    law <id> { reads: ref, ref; writes: ref; }

with '#' comments.  Footprints are declared, not inferred from code; the
wave module's instrumented access log provides a runtime soundness check
that declared stencils cover observed accesses.
"""

from __future__ import annotations

import enum
import re
from dataclasses import dataclass, field

from .errors import ParseError


class LocalityClass(enum.IntEnum):
    SPACE_POINT_LOCAL = 0
    OBJECT_LOCAL = 1
    NON_LOCAL = 2

    @property
    def label(self) -> str:
        return _CLASS_LABELS[self]


_CLASS_LABELS = {
    LocalityClass.SPACE_POINT_LOCAL: "SpacePointLocal",
    LocalityClass.OBJECT_LOCAL: "ObjectLocal",
    LocalityClass.NON_LOCAL: "NonLocal",
}


# -- access references ------------------------------------------------------------


@dataclass(frozen=True)
class CellAt:
    offset: tuple[int, ...]


@dataclass(frozen=True)
class CellAbsolute:
    point: tuple[int, ...]


@dataclass(frozen=True)
class ObjectGlobal:
    object_id: str
    attr: str


@dataclass(frozen=True)
class ObjectAllPaths:
    object_id: str


@dataclass(frozen=True)
class WholeSpace:
    pass


@dataclass(frozen=True)
class WholeObjectSet:
    pass


def ref_to_text(ref) -> str:
    if isinstance(ref, CellAt):
        return "cell(" + ", ".join(f"{o:+d}" if o else "0" for o in ref.offset) + ")"
    if isinstance(ref, CellAbsolute):
        return "cell@(" + ", ".join(str(c) for c in ref.point) + ")"
    if isinstance(ref, ObjectGlobal):
        return f"global({ref.object_id}.{ref.attr})"
    if isinstance(ref, ObjectAllPaths):
        return f"allpaths({ref.object_id})"
    if isinstance(ref, WholeSpace):
        return "space"
    if isinstance(ref, WholeObjectSet):
        return "objects"
    raise TypeError(f"not an access reference: {ref!r}")


@dataclass(frozen=True)
class Footprint:
    reads: tuple = ()
    writes: tuple = ()

    def all_refs(self) -> tuple:
        return self.reads + self.writes


@dataclass
class LawSpec:
    law_id: str
    footprint: Footprint
    line: int = field(default=0, compare=False)


@dataclass
class ObjectDecl:
    object_id: str
    attrs: tuple[str, ...] = ()
    line: int = field(default=0, compare=False)


@dataclass
class ModelSpec:
    name: str
    objects: dict = field(default_factory=dict)  # id -> ObjectDecl
    laws: list = field(default_factory=list)  # LawSpec in declaration order


# -- tokenizer / parser -----------------------------------------------------------

_TOKEN_RE = re.compile(
    r"""
    (?P<ws>[ \t\r]+)
  | (?P<comment>\#[^\n]*)
  | (?P<nl>\n)
  | (?P<number>[+-]?\d+)
  | (?P<id>[A-Za-z_][A-Za-z0-9_\-]*)
  | (?P<punct>[@{}():;,.])
""",
    re.VERBOSE,
)

@dataclass
class _Token:
    kind: str  # "number" | "id" | one-char punct | "eof"
    value: str
    line: int
    col: int


def _tokenize(text: str) -> list[_Token]:
    tokens = []
    line, col = 1, 1
    pos = 0
    while pos < len(text):
        m = _TOKEN_RE.match(text, pos)
        if m is None:
            raise ParseError(f"unexpected character {text[pos]!r}", line, col)
        kind = m.lastgroup
        value = m.group()
        if kind == "nl":
            line += 1
            col = 1
        elif kind in ("ws", "comment"):
            col += len(value)
        elif kind == "punct":
            tokens.append(_Token(value, value, line, col))
            col += 1
        else:
            tokens.append(_Token(kind, value, line, col))
            col += len(value)
        pos = m.end()
    tokens.append(_Token("eof", "", line, col))
    return tokens


class _Parser:
    def __init__(self, text: str):
        self.tokens = _tokenize(text)
        self.pos = 0

    def peek(self) -> _Token:
        return self.tokens[self.pos]

    def next(self) -> _Token:
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def fail(self, expected: str, tok: _Token | None = None):
        tok = tok or self.peek()
        got = tok.value if tok.kind != "eof" else "end of input"
        raise ParseError(f"expected {expected}, got {got!r}", tok.line, tok.col)

    def expect(self, kind: str, expected: str | None = None) -> _Token:
        tok = self.peek()
        if tok.kind != kind:
            self.fail(expected or f"{kind!r}")
        return self.next()

    def expect_word(self, word: str) -> _Token:
        tok = self.peek()
        if tok.kind != "id" or tok.value != word:
            self.fail(f"'{word}'")
        return self.next()

    # grammar ----------------------------------------------------------------

    def parse_model(self) -> ModelSpec:
        self.expect_word("model")
        name = self.expect("id", "a model name").value
        spec = ModelSpec(name=name)
        semantic: list[str] = []
        while self.peek().kind != "eof":
            tok = self.peek()
            if tok.kind != "id" or tok.value not in ("object", "law"):
                self.fail("'object' or 'law'")
            if tok.value == "object":
                decl = self.parse_object()
                if decl.object_id in spec.objects:
                    semantic.append(f"line {decl.line}: duplicate object id {decl.object_id!r}")
                spec.objects[decl.object_id] = decl
            else:
                law = self.parse_law()
                if any(existing.law_id == law.law_id for existing in spec.laws):
                    semantic.append(f"line {law.line}: duplicate law id {law.law_id!r}")
                spec.laws.append(law)
        semantic.extend(_check_references(spec))
        if semantic:
            raise ParseError("; ".join(semantic))
        return spec

    def parse_object(self) -> ObjectDecl:
        head = self.expect_word("object")
        object_id = self.expect("id", "an object id").value
        self.expect("{")
        attrs: tuple[str, ...] = ()
        if self.peek().kind == "id" and self.peek().value == "globals":
            self.next()
            self.expect(":")
            names = [self.expect("id", "an attribute name").value]
            while self.peek().kind == ",":
                self.next()
                names.append(self.expect("id", "an attribute name").value)
            self.expect(";")
            attrs = tuple(names)
        self.expect("}")
        return ObjectDecl(object_id=object_id, attrs=attrs, line=head.line)

    def parse_law(self) -> LawSpec:
        head = self.expect_word("law")
        law_id = self.expect("id", "a law id").value
        self.expect("{")
        reads: tuple = ()
        writes: tuple = ()
        seen = set()
        while self.peek().kind == "id" and self.peek().value in ("reads", "writes"):
            tok = self.next()
            section = tok.value
            if section in seen:
                self.fail(f"at most one {section!r} section", tok)
            seen.add(section)
            self.expect(":")
            refs = [self.parse_ref()]
            while self.peek().kind == ",":
                self.next()
                refs.append(self.parse_ref())
            self.expect(";")
            if section == "reads":
                reads = tuple(refs)
            else:
                writes = tuple(refs)
        self.expect("}")
        return LawSpec(law_id=law_id, footprint=Footprint(reads=reads, writes=writes), line=head.line)

    def parse_ref(self):
        tok = self.peek()
        if tok.kind != "id":
            self.fail("an access reference")
        word = tok.value
        if word == "space":
            self.next()
            return WholeSpace()
        if word == "objects":
            self.next()
            return WholeObjectSet()
        if word == "cell":
            self.next()
            if self.peek().kind == "@":
                self.next()
                return CellAbsolute(point=self.parse_int_tuple())
            return CellAt(offset=self.parse_int_tuple())
        if word == "global":
            self.next()
            self.expect("(")
            obj = self.expect("id", "an object id").value
            self.expect(".")
            attr = self.expect("id", "an attribute name").value
            self.expect(")")
            return ObjectGlobal(object_id=obj, attr=attr)
        if word == "allpaths":
            self.next()
            self.expect("(")
            obj = self.expect("id", "an object id").value
            self.expect(")")
            return ObjectAllPaths(object_id=obj)
        self.fail("one of cell, cell@, global, allpaths, space, objects")

    def parse_int_tuple(self) -> tuple[int, ...]:
        self.expect("(")
        values = [int(self.expect("number", "an integer").value)]
        while self.peek().kind == ",":
            self.next()
            values.append(int(self.expect("number", "an integer").value))
        self.expect(")")
        if len(values) > 3:
            self.fail("at most 3 coordinates")
        return tuple(values)


def _check_references(spec: ModelSpec) -> list[str]:
    problems = []
    for law in spec.laws:
        for ref in law.footprint.all_refs():
            if isinstance(ref, (ObjectGlobal, ObjectAllPaths)):
                decl = spec.objects.get(ref.object_id)
                if decl is None:
                    problems.append(
                        f"line {law.line}: law {law.law_id!r} references undeclared object {ref.object_id!r}"
                    )
                elif isinstance(ref, ObjectGlobal) and decl.attrs and ref.attr not in decl.attrs:
                    problems.append(
                        f"line {law.line}: law {law.law_id!r} references undeclared attribute "
                        f"{ref.attr!r} of object {ref.object_id!r}"
                    )
    return problems


def parse_model_spec(text: str) -> ModelSpec:
    """Parse the declaration language; ParseError carries line and column."""
    return _Parser(text).parse_model()


def load_model_spec(path) -> ModelSpec:
    with open(path) as fh:
        return parse_model_spec(fh.read())


def pretty_print(spec: ModelSpec) -> str:
    """Canonical text form; parse(pretty_print(s)) == s."""
    out = [f"model {spec.name}", ""]
    for decl in spec.objects.values():
        if decl.attrs:
            out.append(f"object {decl.object_id} {{ globals: {', '.join(decl.attrs)}; }}")
        else:
            out.append(f"object {decl.object_id} {{ }}")
    if spec.objects:
        out.append("")
    for law in spec.laws:
        out.append(f"law {law.law_id} {{")
        if law.footprint.reads:
            out.append("  reads: " + ", ".join(ref_to_text(r) for r in law.footprint.reads) + ";")
        if law.footprint.writes:
            out.append("  writes: " + ", ".join(ref_to_text(r) for r in law.footprint.writes) + ";")
        out.append("}")
    return "\n".join(out) + "\n"


# -- classification ---------------------------------------------------------------


def _classify_refs(refs) -> tuple[LocalityClass, list[tuple]]:
    """Class plus the (ref, reason) pairs that raised it."""
    raisers = []
    for ref in refs:
        if isinstance(ref, WholeSpace):
            raisers.append((ref, "references the whole space"))
        elif isinstance(ref, WholeObjectSet):
            raisers.append((ref, "references the whole object set"))
        elif isinstance(ref, ObjectAllPaths):
            raisers.append((ref, "references every path of an object"))
        elif isinstance(ref, CellAt) and any(abs(o) > 1 for o in ref.offset):
            raisers.append((ref, "offset beyond the immediate neighborhood"))

    absolute_points = {ref.point for ref in refs if isinstance(ref, CellAbsolute)}
    has_relative = any(isinstance(ref, CellAt) for ref in refs)
    anchors = len(absolute_points) + (1 if has_relative else 0)
    if anchors >= 2:
        reason = (
            "second position anchor (absolute cells alongside relative offsets)"
            if has_relative and absolute_points
            else "references two distinct absolute cells"
        )
        for ref in refs:
            if isinstance(ref, CellAbsolute):
                raisers.append((ref, reason))

    global_ids = {ref.object_id for ref in refs if isinstance(ref, ObjectGlobal)}
    if len(global_ids) >= 2:
        for ref in refs:
            if isinstance(ref, ObjectGlobal):
                raisers.append((ref, "global attributes of two distinct objects"))

    if raisers:
        return LocalityClass.NON_LOCAL, _dedup(raisers)

    globals_refs = [ref for ref in refs if isinstance(ref, ObjectGlobal)]
    if globals_refs:
        return LocalityClass.OBJECT_LOCAL, _dedup(
            [(r, "object-global attribute access") for r in globals_refs]
        )
    return LocalityClass.SPACE_POINT_LOCAL, []


def _dedup(pairs: list[tuple]) -> list[tuple]:
    seen = set()
    out = []
    for pair in pairs:
        if pair not in seen:
            seen.add(pair)
            out.append(pair)
    return out


def classify_law(law) -> LocalityClass:
    """Locality class of one law from its declared footprint."""
    footprint = law.footprint
    if footprint is None:
        raise ParseError(f"law {law.law_id!r} has no declared footprint")
    cls, _ = _classify_refs(footprint.all_refs())
    return cls


@dataclass
class LawReport:
    law_id: str
    locality: LocalityClass
    raisers: list  # (ref, reason) pairs that set the class

    def to_json_dict(self) -> dict:
        return {
            "law": self.law_id,
            "class": self.locality.label,
            "raised_by": [{"ref": ref_to_text(r), "reason": why} for r, why in self.raisers],
        }


@dataclass
class LocalityReport:
    model_name: str
    laws: list  # LawReport per law, declaration order
    model_class: LocalityClass

    def to_json_dict(self) -> dict:
        return {
            "schema_version": 1,
            "experiment": "analyze",
            "model": self.model_name,
            "class": self.model_class.label,
            "laws": [entry.to_json_dict() for entry in self.laws],
        }

    def to_text(self) -> str:
        lines = [f"model {self.model_name}: {self.model_class.label}"]
        for entry in self.laws:
            lines.append(f"  law {entry.law_id}: {entry.locality.label}")
            for ref, why in entry.raisers:
                lines.append(f"    - {ref_to_text(ref)}: {why}")
        return "\n".join(lines) + "\n"


def classify_model(spec: ModelSpec) -> LocalityReport:
    """Per-law classes plus the model maximum, with raising references."""
    entries = []
    worst = LocalityClass.SPACE_POINT_LOCAL
    for law in spec.laws:
        cls, raisers = _classify_refs(law.footprint.all_refs())
        entries.append(LawReport(law_id=law.law_id, locality=cls, raisers=raisers))
        worst = max(worst, cls)
    return LocalityReport(model_name=spec.name, laws=entries, model_class=worst)

"""Text format for lattices, graphs, morphisms, hypothesis sets, and proofs.

Grammar, line oriented, with ``#`` comments:

    lattice NAME { elements: e0 e1 ...; leq: a<b, c<d; }
    graph NAME { nodes: u v ...; edges: u->v, ...; }
    mor NAME : SRC -> DST { u |-> x, ... }      # graph morphism
    mor NAME : a -> b;                          # lattice morphism
    hset NAME { m1, m2 }
    proof NAME { (cancel (hyp h) f g) }

Names are ``[A-Za-z0-9_.]+``, a ``#`` comment runs to the end of its line,
and spaces, tabs and carriage returns separate tokens; any other character
is an error.  Diagnostics give the line and col of a token, both counting
characters from 1; end of input is one column past the last character.
The source is read in two regex calls, one that finds the first character
that is no part of a lexeme and one that lists the token texts.  A token
keeps only its index: a diagnostic finds its line and col when it is
raised, by reading the source again up to the token.

The leq relation is closed reflexively and transitively before validation.
Lattice elements may be written qualified as LAT.elem; unqualified names
must be unique across the declared lattices.  A name with a dot is always
read as LAT.elem, split at its first dot, so a lattice name has no dot, an
element whose own name has a dot is written qualified, and the printer
writes it so.

Proof bodies are s-expressions over the forms hyp, id, comp, cancel, push,
coprod, widepush.  Morphism arguments are declared names or the literals
(lmor a b) and (gmor SRC DST (i j ...)); graph positions accept a declared
name or (g N ((u v) ...)) with numeric nodes.  Proofs nest at most
MAX_PROOF_DEPTH forms, which keeps the recursive-descent parser within
Python's recursion limit; every walk over a parsed term keeps its own stack.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from itertools import islice, repeat
from typing import Callable, NamedTuple, TypeVar

from .core import Category, CategoryError, MorphismSet, MorRef, ObjRef
from .graphs import Graph, GraphCategory, GraphHom
from .lattice import LatticeCategory, LatticeError, presentation_from_pairs
from .proofs import Cancel, Compose, CoprodN, Hyp, Identity, ProofTerm, Push, WidePushN, fold

MAX_PROOF_DEPTH = 500

_T = TypeVar("_T")

__all__ = [
    "Diagnostic",
    "DslError",
    "Workspace",
    "parse",
    "parse_proof_text",
    "print_workspace",
    "proof_to_text",
]


@dataclass(frozen=True)
class Diagnostic:
    line: int
    col: int
    message: str
    hint: str = ""

    def render(self) -> str:
        text = f"line {self.line}, col {self.col}: {self.message}"
        if self.hint:
            text += f" (hint: {self.hint})"
        return text


class DslError(Exception):
    def __init__(self, diagnostic: Diagnostic):
        super().__init__(diagnostic.render())
        self.diagnostic = diagnostic


# ---------------------------------------------------------------------------
# tokens


class _Token(NamedTuple):
    kind: str  # "ident", "eof", or the punctuation text itself
    text: str
    index: int  # its place among the source's tokens; eof is last


# a match runs over the lexemes from the start and stops at the first
# character that begins none of them: blanks, a comment to the end of its
# line, punctuation and names
_CLEAN = re.compile(r"(?:[ \t\r\n]+|#[^\n]*|\|->|->|[{}();:,<]|[A-Za-z0-9_.]+)*")

# a token's text, then the blanks and comments after it; the \A alternative
# makes one empty match of the blanks and comments before the first token,
# so every later match starts at a token and no name is read out of a comment
_TOKENS = re.compile(r"(\A|\|->|->|[{}();:,<]|[A-Za-z0-9_.]+)(?:[ \t\r\n]+|#[^\n]*)*")

_KINDS = {p: p for p in ("|->", "->", "{", "}", "(", ")", ";", ":", ",", "<")}


def _tokenize(source: str) -> list[_Token]:
    bad = _CLEAN.match(source).end()
    if bad < len(source):
        raise DslError(Diagnostic(
            *_line_col(source, bad),
            f"unexpected character {source[bad]!r}",
            "allowed: names, { } ( ) ; , : < -> |-> and # comments",
        ))
    texts = _TOKENS.findall(source)
    del texts[0]  # the \A match's empty text
    kinds = map(_KINDS.get, texts, repeat("ident"))
    # tuple.__new__ builds each token in C, with no call of _Token.__new__
    tokens = list(map(tuple.__new__, repeat(_Token), zip(kinds, texts, range(len(texts)))))
    tokens.append(_Token("eof", "", len(texts)))
    return tokens


def _position(source: str, index: int) -> tuple[int, int]:
    """The line and col of token number index of source, found by reading
    the source again up to it; eof is one column past the last character."""
    found = next(islice(_TOKENS.finditer(source), index + 1, None), None)
    return _line_col(source, len(source) if found is None else found.start(1))


def _line_col(source: str, offset: int) -> tuple[int, int]:
    """The line and col of source[offset], both counting characters from 1."""
    return source.count("\n", 0, offset) + 1, offset - source.rfind("\n", 0, offset)


# ---------------------------------------------------------------------------
# workspace


@dataclass
class LatticeDecl:
    name: str
    category: LatticeCategory


@dataclass
class GraphDecl:
    name: str
    node_names: tuple[str, ...]
    graph: Graph
    obj: ObjRef


@dataclass
class MorDecl:
    name: str
    ref: MorRef


@dataclass
class HsetDecl:
    name: str
    morphisms: MorphismSet


@dataclass
class ProofDecl:
    name: str
    term: ProofTerm


@dataclass
class Workspace:
    """Named declarations parsed from one source text."""

    graph_category: GraphCategory = field(default_factory=GraphCategory)
    lattices: dict[str, LatticeDecl] = field(default_factory=dict)
    graphs: dict[str, GraphDecl] = field(default_factory=dict)
    morphisms: dict[str, MorDecl] = field(default_factory=dict)
    hsets: dict[str, HsetDecl] = field(default_factory=dict)
    proofs: dict[str, ProofDecl] = field(default_factory=dict)
    order: list[tuple[str, str]] = field(default_factory=list)

    def category_of(self, ref: MorRef | ObjRef) -> Category:
        cat_id = ref.cat_id if isinstance(ref, ObjRef) else ref.dom.cat_id
        if cat_id == self.graph_category.cat_id:
            return self.graph_category
        for decl in self.lattices.values():
            if decl.category.cat_id == cat_id:
                return decl.category
        raise KeyError(cat_id)

    def _key(self) -> tuple:
        """The declarations, each graph ref read through this workspace's
        category as its graph or hom: two workspaces with the same
        declarations compare equal though their graph categories differ."""
        graphs = self.graph_category

        def plain(v):
            if isinstance(v, ObjRef) and v.cat_id == graphs.cat_id:
                return graphs.graph_of(v)
            if isinstance(v, MorRef) and v.dom.cat_id == graphs.cat_id:
                return graphs.hom_of(v)
            return v

        return (
            self.order,
            {n: (d.category.p.elements, d.category.p.up) for n, d in self.lattices.items()},
            {n: (d.node_names, d.graph) for n, d in self.graphs.items()},
            {n: plain(d.ref) for n, d in self.morphisms.items()},
            {n: [(name, plain(m)) for name, m in d.morphisms] for n, d in self.hsets.items()},
            # a term's nodes in pre-order, as its own equality compares them
            {n: [tuple(map(plain, node)) for node in d.term._nodes()] for n, d in self.proofs.items()},
        )

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Workspace):
            return NotImplemented
        return self._key() == other._key()


# ---------------------------------------------------------------------------
# parser


# per declaration keyword: the names section, what it lists, the pairs
# section, the arrow between a pair's names and the arrow's hint
_SECTIONS = {
    "lattice": ("elements", "element", "leq", "<", "write pairs as a<b"),
    "graph": ("nodes", "node", "edges", "->", "write edges as u->v"),
}


class _Parser:
    def __init__(self, source: str, ws: Workspace):
        self.source = source
        self.tokens = _tokenize(source)
        self.pos = 0
        self.ws = ws

    def fail(self, tok: _Token, message: str, hint: str = "") -> DslError:
        """The error at tok, with the line and col _position finds for it."""
        return DslError(Diagnostic(*_position(self.source, tok.index), message, hint))

    def peek(self) -> _Token:
        return self.tokens[self.pos]

    def next(self) -> _Token:
        tok = self.tokens[self.pos]
        if tok.kind != "eof":
            self.pos += 1
        return tok

    def expect(self, kind: str, hint: str = "") -> _Token:
        tok = self.next()
        if tok.kind != kind:
            what = kind if kind != "ident" else "a name"
            raise self.fail(tok, f"expected {what}, found {tok.text or 'end of input'!r}", hint)
        return tok

    def parse(self) -> Workspace:
        while self.peek().kind != "eof":
            tok = self.expect("ident", "declarations start with lattice, graph, mor, hset, or proof")
            read = _DECLARATIONS.get(tok.text)
            if read is None:
                raise self.fail(
                    tok,
                    f"unknown declaration {tok.text!r}",
                    "use lattice, graph, mor, hset, or proof",
                )
            read(self, tok)
        return self.ws

    def fresh_name(self) -> str:
        tok = self.expect("ident")
        for table in (
            self.ws.lattices,
            self.ws.graphs,
            self.ws.morphisms,
            self.ws.hsets,
            self.ws.proofs,
        ):
            if tok.text in table:
                raise self.fail(tok, f"name {tok.text!r} is already declared", "pick a fresh name")
        return tok.text

    def ident_list(self, stop: str) -> list[_Token]:
        toks = []
        while self.peek().kind == "ident":
            toks.append(self.next())
        self.expect(stop)
        return toks

    def items(self, read: Callable[[], _T]) -> list[_T]:
        """A comma-separated list whose items start with a name; read
        parses one item from its first token on."""
        out = []
        while self.peek().kind == "ident":
            out.append(read())
            if self.peek().kind != ",":
                break
            self.next()
        return out

    def sections(self, kw: _Token) -> tuple[str, tuple[str, ...], list[tuple[int, int]]]:
        """NAME { FIRST: names; [SECOND: a ARROW b, ...;] } in the words of
        kw's _SECTIONS row: the name, the names and the pairs by index."""
        first, item, second, arrow, arrow_hint = _SECTIONS[kw.text]
        name = self.fresh_name()
        self.expect("{")
        sect = self.expect("ident")
        if sect.text != first:
            raise self.fail(sect, f"expected {first!r} section", f"{kw.text} NAME {{ {first}: ...; {second}: ...; }}")
        self.expect(":")
        index: dict[str, int] = {}
        for t in self.ident_list(";"):
            if t.text in index:
                raise self.fail(t, f"duplicate {item} {t.text!r}")
            index[t.text] = len(index)

        def pair() -> tuple[int, int]:
            a = self.next()
            self.expect(arrow, arrow_hint)
            b = self.expect("ident")
            for t in (a, b):
                if t.text not in index:
                    raise self.fail(t, f"unknown {item} {t.text!r} in {second}", f"declare it under {first}")
            return index[a.text], index[b.text]

        pairs = []
        if self.peek().kind == "ident" and self.peek().text == second:
            self.next()
            self.expect(":")
            pairs = self.items(pair)
            self.expect(";")
        self.expect("}")
        return name, tuple(index), pairs

    def lattice_decl(self, kw: _Token) -> None:
        named = self.peek()
        if "." in named.text:
            # a dotted name reads as LAT.elem, split at its first dot
            raise self.fail(named, f"lattice name {named.text!r} has a dot", "name a lattice without '.'")
        name, elements, pairs = self.sections(kw)
        try:
            presentation = presentation_from_pairs(
                name, elements, [(elements[a], elements[b]) for a, b in pairs]
            )
        except LatticeError as err:
            raise self.fail(kw, f"not a partial order: {err}", "check the leq pairs") from err
        self.ws.lattices[name] = LatticeDecl(name, LatticeCategory(presentation))
        self.ws.order.append(("lattice", name))

    def graph_decl(self, kw: _Token) -> None:
        name, node_names, edges = self.sections(kw)
        graph = Graph.of(len(node_names), edges)
        obj = self.ws.graph_category.obj(graph)
        self.ws.graphs[name] = GraphDecl(name, node_names, graph, obj)
        self.ws.order.append(("graph", name))

    def resolve_element(self, tok: _Token) -> tuple[LatticeCategory, str]:
        if "." in tok.text:
            lat_name, _, elem = tok.text.partition(".")
            decl = self.ws.lattices.get(lat_name)
            if decl is None:
                raise self.fail(tok, f"unknown lattice {lat_name!r}")
            if elem not in decl.category.p.elements:
                raise self.fail(tok, f"lattice {lat_name!r} has no element {elem!r}")
            return decl.category, elem
        hits = [
            d.category
            for d in self.ws.lattices.values()
            if tok.text in d.category.p.elements
        ]
        if not hits:
            raise self.fail(tok, f"unknown lattice element {tok.text!r}")
        if len(hits) > 1:
            raise self.fail(
                tok,
                f"element {tok.text!r} appears in more than one lattice",
                f"qualify it, e.g. {hits[0].p.name}.{tok.text}",
            )
        return hits[0], tok.text

    def mor_decl(self, kw: _Token) -> None:
        name = self.fresh_name()
        self.expect(":")
        src = self.expect("ident")
        self.expect("->", "mor NAME : SRC -> DST")
        dst = self.expect("ident")
        if self.peek().kind == ";":
            self.next()
            ref = self.lattice_mor(src, dst)
        elif self.peek().kind == "{":
            ref = self.graph_mor(src, dst)
        else:
            raise self.fail(
                self.peek(),
                "expected ';' or a '{ ... }' map",
                "lattice morphisms end with ';', graph morphisms map every node",
            )
        self.ws.morphisms[name] = MorDecl(name, ref)
        self.ws.order.append(("mor", name))

    def lattice_mor(self, src: _Token, dst: _Token) -> MorRef:
        cat_a, a = self.resolve_element(src)
        cat_b, b = self.resolve_element(dst)
        if cat_a is not cat_b:
            raise self.fail(dst, f"elements {src.text!r} and {dst.text!r} are in different lattices")
        try:
            return cat_a.mor(a, b)
        except CategoryError as err:
            raise self.fail(
                src,
                f"no morphism {a} -> {b} in lattice {cat_a.p.name!r}",
                f"{a} is not below {b}",
            ) from err

    def graph_mor(self, src: _Token, dst: _Token) -> MorRef:
        sdecl = self.ws.graphs.get(src.text)
        ddecl = self.ws.graphs.get(dst.text)
        for tok, decl in ((src, sdecl), (dst, ddecl)):
            if decl is None:
                hint = ""
                if any(tok.text in d.category.p.elements for d in self.ws.lattices.values()):
                    hint = "lattice morphisms are written 'mor NAME : a -> b;'"
                raise self.fail(tok, f"unknown graph {tok.text!r}", hint)
        self.expect("{")
        sindex = {n: i for i, n in enumerate(sdecl.node_names)}
        dindex = {n: i for i, n in enumerate(ddecl.node_names)}
        images: dict[int, int] = {}

        def assign() -> None:
            u = self.next()
            self.expect("|->", "write assignments as u |-> x")
            v = self.expect("ident")
            if u.text not in sindex:
                raise self.fail(u, f"unknown node {u.text!r} in graph {src.text!r}")
            if v.text not in dindex:
                raise self.fail(v, f"unknown node {v.text!r} in graph {dst.text!r}")
            if sindex[u.text] in images:
                raise self.fail(u, f"node {u.text!r} is mapped twice")
            images[sindex[u.text]] = dindex[v.text]

        self.items(assign)
        end = self.expect("}")
        missing = [n for n, i in sindex.items() if i not in images]
        if missing:
            raise self.fail(
                end,
                f"total map required: node {missing[0]!r} has no image",
                f"add {missing[0]} |-> ...",
            )
        mapping = tuple(images[i] for i in range(len(sindex)))
        return self.graph_hom(src, sdecl.graph, ddecl.graph, mapping, "the map must send edges to edges")

    def graph_hom(self, tok: _Token, src: Graph, dst: Graph, mapping: tuple[int, ...], hint: str) -> MorRef:
        """The workspace's ref to the hom src -> dst with this mapping; a
        map that GraphHom refuses is an error at tok."""
        try:
            hom = GraphHom(src, dst, mapping)
        except ValueError as err:
            raise self.fail(tok, str(err), hint) from err
        return self.ws.graph_category.mor(hom)

    def hset_decl(self, kw: _Token) -> None:
        name = self.fresh_name()
        self.expect("{")

        def member() -> tuple[str, MorRef]:
            m = self.next()
            decl = self.ws.morphisms.get(m.text)
            if decl is None:
                raise self.fail(m, f"unknown morphism {m.text!r}", "declare it with mor first")
            return m.text, decl.ref

        members = self.items(member)
        self.expect("}")
        try:
            hset = MorphismSet.of(members)
        except ValueError as err:
            raise self.fail(kw, str(err), "an hset lives in a single category") from err
        self.ws.hsets[name] = HsetDecl(name, hset)
        self.ws.order.append(("hset", name))

    def proof_decl(self, kw: _Token) -> None:
        name = self.fresh_name()
        self.expect("{")
        term = self.proof_term()
        self.expect("}")
        self.ws.proofs[name] = ProofDecl(name, term)
        self.ws.order.append(("proof", name))

    def int_tok(self) -> int:
        tok = self.expect("ident")
        if not tok.text.isdigit():
            raise self.fail(tok, f"expected a number, found {tok.text!r}")
        return int(tok.text)

    def graph_literal(self) -> Graph:
        self.expect("(")
        head = self.expect("ident")
        if head.text != "g":
            raise self.fail(head, f"expected graph literal (g ...), found {head.text!r}")
        count = self.int_tok()
        self.expect("(")
        edges = []
        while self.peek().kind == "(":
            self.next()
            u = self.int_tok()
            v = self.int_tok()
            self.expect(")")
            edges.append((u, v))
        self.expect(")")
        self.expect(")")
        try:
            return Graph.of(count, edges)
        except ValueError as err:
            raise self.fail(head, str(err)) from err

    def graph_operand(self) -> Graph:
        if self.peek().kind == "(":
            return self.graph_literal()
        tok = self.expect("ident")
        decl = self.ws.graphs.get(tok.text)
        if decl is None:
            raise self.fail(tok, f"unknown graph {tok.text!r}")
        return decl.graph

    def object_operand(self) -> ObjRef:
        if self.peek().kind == "(" or self.peek().text in self.ws.graphs:
            return self.ws.graph_category.obj(self.graph_operand())
        cat, elem = self.resolve_element(self.expect("ident"))
        return cat.obj(elem)

    def morphism_operand(self) -> MorRef:
        if self.peek().kind != "(":
            tok = self.expect("ident")
            decl = self.ws.morphisms.get(tok.text)
            if decl is None:
                raise self.fail(tok, f"unknown morphism {tok.text!r}")
            return decl.ref
        self.next()
        head = self.expect("ident")
        if head.text == "lmor":
            a = self.expect("ident")
            b = self.expect("ident")
            self.expect(")")
            return self.lattice_mor(a, b)
        if head.text == "gmor":
            src = self.graph_operand()
            dst = self.graph_operand()
            self.expect("(")
            mapping = []
            while self.peek().kind == "ident":
                mapping.append(self.int_tok())
            self.expect(")")
            self.expect(")")
            return self.graph_hom(head, src, dst, tuple(mapping), "")
        raise self.fail(head, f"expected a morphism, found ({head.text} ...)", "use a name, (lmor a b), or (gmor ...)")

    def proof_term(self, depth: int = 1) -> ProofTerm:
        opening = self.expect("(", "proof terms are s-expressions")
        if depth > MAX_PROOF_DEPTH:
            raise self.fail(opening, f"proof nested deeper than {MAX_PROOF_DEPTH} forms")
        head = self.expect("ident")
        if head.text == "hyp":
            name = self.expect("ident")
            self.expect(")")
            return Hyp(name.text)
        if head.text == "id":
            obj = self.object_operand()
            self.expect(")")
            return Identity(obj)
        if head.text == "comp":
            outer = self.proof_term(depth + 1)
            inner = self.proof_term(depth + 1)
            self.expect(")")
            return Compose(outer, inner)
        if head.text == "cancel":
            whole = self.proof_term(depth + 1)
            first = self.morphism_operand()
            rest = self.morphism_operand()
            self.expect(")")
            return Cancel(whole, first, rest)
        if head.text == "push":
            proof = self.proof_term(depth + 1)
            along = self.morphism_operand()
            self.expect(")")
            return Push(proof, along)
        if head.text in ("coprod", "widepush"):
            parts = []
            while self.peek().kind == "(":
                parts.append(self.proof_term(depth + 1))
            self.expect(")")
            form = CoprodN if head.text == "coprod" else WidePushN
            return form(tuple(parts))
        raise self.fail(
            head,
            f"unknown proof form {head.text!r}",
            "use hyp, id, comp, cancel, push, coprod, or widepush",
        )


# per declaration keyword, its reader; each takes the keyword token
_DECLARATIONS: dict[str, Callable[[_Parser, _Token], None]] = {
    "lattice": _Parser.lattice_decl,
    "graph": _Parser.graph_decl,
    "mor": _Parser.mor_decl,
    "hset": _Parser.hset_decl,
    "proof": _Parser.proof_decl,
}


def parse(source: str) -> Workspace:
    """Parse a workspace; raises DslError with a positioned diagnostic."""
    return _Parser(source, Workspace()).parse()


def parse_proof_text(ws: Workspace, source: str) -> ProofTerm:
    """Parse a bare proof s-expression against an existing workspace."""
    parser = _Parser(source, ws)
    term = parser.proof_term()
    parser.expect("eof")
    return term


# ---------------------------------------------------------------------------
# printing


def _graph_name(ws: Workspace, graph: Graph) -> str | None:
    for decl in ws.graphs.values():
        if decl.graph == graph:
            return decl.name
    return None


def _graph_text(ws: Workspace, graph: Graph) -> str:
    name = _graph_name(ws, graph)
    if name is not None:
        return name
    edges = " ".join(f"({u} {v})" for u, v in graph.edge_list())
    return f"(g {graph.node_count} ({edges}))"


def _object_text(ws: Workspace, obj: ObjRef) -> str:
    """A graph's name or literal, or a lattice element, qualified unless
    its name is unique across the declared lattices and has no dot."""
    cat = ws.category_of(obj)
    if isinstance(cat, GraphCategory):
        return _graph_text(ws, cat.graph_of(obj))
    elem = cat.object_label(obj)
    hits = [d for d in ws.lattices.values() if elem in d.category.p.elements]
    return elem if len(hits) == 1 and "." not in elem else f"{cat.p.name}.{elem}"


def _morphism_text(ws: Workspace, ref: MorRef) -> str:
    for decl in ws.morphisms.values():
        if decl.ref == ref:
            return decl.name
    cat = ws.category_of(ref)
    if isinstance(cat, GraphCategory):
        hom = cat.hom_of(ref)
        src = _graph_text(ws, hom.source)
        dst = _graph_text(ws, hom.target)
        mapping = " ".join(str(v) for v in hom.mapping)
        return f"(gmor {src} {dst} ({mapping}))"
    return f"(lmor {_object_text(ws, ref.dom)} {_object_text(ws, ref.cod)})"


def proof_to_text(ws: Workspace, term: ProofTerm) -> str:
    """Serialize a proof term; parse_proof_text inverts it."""

    def text(t: ProofTerm, parts: list[str]) -> str:
        if isinstance(t, Hyp):
            return f"(hyp {t.name})"
        if isinstance(t, Identity):
            return f"(id {_object_text(ws, t.obj)})"
        if isinstance(t, Cancel):
            return f"(cancel {parts[0]} {_morphism_text(ws, t.first)} {_morphism_text(ws, t.rest)})"
        if isinstance(t, Push):
            return f"(push {parts[0]} {_morphism_text(ws, t.along)})"
        head = {Compose: "comp", CoprodN: "coprod", WidePushN: "widepush"}[type(t)]
        return f"({' '.join([head, *parts])})"

    return fold(term, text)


def _sections_text(kind: str, name: str, names: tuple[str, ...], pairs: list[tuple[int, int]]) -> str:
    """A lattice or graph declaration in the words of its _SECTIONS row."""
    first, _, second, arrow, _ = _SECTIONS[kind]
    lines = [f"{kind} {name} {{", f"  {first}: {' '.join(names)};"]
    if pairs:
        listed = ", ".join(f"{names[a]}{arrow}{names[b]}" for a, b in pairs)
        lines.append(f"  {second}: {listed};")
    return "\n".join([*lines, "}"])


def _braced(items: list[str]) -> str:
    return f"{{ {', '.join(items)} }}" if items else "{ }"


def _mor_text(ws: Workspace, decl: MorDecl) -> str:
    cat = ws.category_of(decl.ref)
    if isinstance(cat, GraphCategory):
        hom = cat.hom_of(decl.ref)
        src = _graph_name(ws, hom.source)
        dst = _graph_name(ws, hom.target)
        if src is None or dst is None:
            raise ValueError(f"morphism {decl.name!r} uses an undeclared graph")
        snames = ws.graphs[src].node_names
        dnames = ws.graphs[dst].node_names
        body = _braced([f"{snames[i]} |-> {dnames[v]}" for i, v in enumerate(hom.mapping)])
        return f"mor {decl.name} : {src} -> {dst} {body}"
    return f"mor {decl.name} : {_object_text(ws, decl.ref.dom)} -> {_object_text(ws, decl.ref.cod)};"


def print_workspace(ws: Workspace) -> str:
    """Render a workspace back to source; parse inverts it."""
    chunks: list[str] = []
    for kind, name in ws.order:
        if kind == "lattice":
            p = ws.lattices[name].category.p
            pairs = [(a, b) for a in range(p.size) for b in range(p.size) if a != b and p.up[a] >> b & 1]
            chunks.append(_sections_text(kind, name, p.elements, pairs))
        elif kind == "graph":
            decl = ws.graphs[name]
            chunks.append(_sections_text(kind, name, decl.node_names, decl.graph.edge_list()))
        elif kind == "mor":
            chunks.append(_mor_text(ws, ws.morphisms[name]))
        elif kind == "hset":
            chunks.append(f"hset {name} {_braced(ws.hsets[name].morphisms.names())}")
        elif kind == "proof":
            decl = ws.proofs[name]
            chunks.append(f"proof {name} {{ {proof_to_text(ws, decl.term)} }}")
    return "\n\n".join(chunks) + ("\n" if chunks else "")

import random

import pytest

from injlog.core import MorphismSet
from injlog.dsl import (
    Diagnostic,
    DslError,
    Workspace,
    _Parser,
    _tokenize,
    parse,
    parse_proof_text,
    print_workspace,
    proof_to_text,
)
from injlog.graphs import Graph, GraphCategory, GraphHom, clique, empty_graph
from injlog.proofs import (
    Cancel,
    CoprodN,
    Hyp,
    Identity,
    Push,
    check_proof,
    prove,
    saturate,
)

CHAIN_SRC = """
# cancellation workspace: 0 < 1 < 2 with the long hop as hypothesis
lattice chain {
  elements: 0 1 2;
  leq: 0<1, 1<2;
}

mor h : 0 -> 2;
mor goal : 0 -> 1;
mor rest : 1 -> 2;

hset H { h }

proof step { (cancel (hyp h) goal rest) }
"""

GRAPH_SRC = """
graph zero { nodes: ; }
graph pt { nodes: p; }
graph edge { nodes: u v; edges: u->v; }
graph lp { nodes: q; edges: q->q; }

mor inc : pt -> edge { p |-> u }
mor toloop : pt -> lp { p |-> q }
mor fromzero : zero -> lp { }

hset HG { inc, toloop }

proof both { (coprod (hyp inc) (hyp toloop)) }
"""


def test_chain_fixture_parses_to_the_expected_workspace():
    ws = parse(CHAIN_SRC)
    cat = ws.lattices["chain"].category
    assert cat.p.elements == ("0", "1", "2")
    assert cat.p.leq[0, 2]
    assert ws.morphisms["h"].ref == cat.mor("0", "2")
    assert ws.hsets["H"].morphisms.names() == ["h"]
    concl = check_proof(cat, ws.hsets["H"].morphisms, ws.proofs["step"].term)
    assert concl == cat.mor("0", "1")


def test_empty_source_gives_an_empty_workspace():
    ws = parse("")
    assert ws.order == []
    assert not ws.lattices and not ws.graphs and not ws.morphisms


def test_graph_fixture_builds_named_graphs_and_homs():
    ws = parse(GRAPH_SRC)
    assert ws.graphs["edge"].graph == Graph.of(2, [(0, 1)])
    assert ws.graphs["edge"].node_names == ("u", "v")
    hom = ws.graph_category.hom_of(ws.morphisms["inc"].ref)
    assert hom.mapping == (0,)
    assert ws.graphs["zero"].graph == empty_graph()


def test_print_parse_round_trip_is_identity():
    for src in (CHAIN_SRC, GRAPH_SRC, CHAIN_SRC + GRAPH_SRC, ""):
        ws = parse(src)
        printed = print_workspace(ws)
        assert parse(printed) == ws
        assert print_workspace(parse(printed)) == printed


def test_workspaces_with_different_content_compare_unequal():
    assert parse(CHAIN_SRC) != parse(GRAPH_SRC)
    other = CHAIN_SRC.replace("leq: 0<1, 1<2;", "leq: 0<1, 0<2, 1<2;")
    assert parse(CHAIN_SRC) == parse(other)


def test_workspaces_compare_graph_refs_by_graphs_and_mappings():
    a, b = parse(GRAPH_SRC), parse(GRAPH_SRC)
    # each workspace has its own graph category, so their refs differ
    assert a.graph_category.cat_id != b.graph_category.cat_id
    assert a.morphisms["inc"].ref != b.morphisms["inc"].ref
    assert a == b
    # a registry that gave out other indices changes no declaration
    ws = Workspace(graph_category=GraphCategory())
    ws.graph_category.obj(clique(3))
    shifted = _Parser(GRAPH_SRC, ws).parse()
    assert shifted.graphs["zero"].obj.index == 1
    assert shifted == a
    # another mapping, or a proof through another graph ref, is another workspace
    assert parse(GRAPH_SRC.replace("p |-> u", "p |-> v")) != a
    pushed = "proof p {{ (push (hyp inc) {}) }}\n"
    assert parse(GRAPH_SRC + pushed.format("toloop")) == parse(GRAPH_SRC + pushed.format("toloop"))
    assert parse(GRAPH_SRC + pushed.format("toloop")) != parse(GRAPH_SRC + pushed.format("inc"))


def test_comments_and_whitespace_are_ignored():
    ws = parse("# only a comment\n\n   \n# another\n")
    assert ws.order == []


def test_qualified_elements_resolve_across_lattices():
    src = (
        "lattice L { elements: x y; leq: x<y; }\n"
        "lattice M { elements: x z; leq: x<z; }\n"
        "mor f : L.x -> L.y;\n"
    )
    ws = parse(src)
    assert ws.morphisms["f"].ref == ws.lattices["L"].category.mor("x", "y")
    printed = print_workspace(ws)
    # x is ambiguous and stays qualified; y is unique so the prefix drops
    assert "L.x" in printed and "L.y" not in printed
    assert parse(printed) == ws


def test_dotted_elements_print_qualified_and_round_trip():
    # the reader takes a dotted name as LAT.elem, so a.b bare would name a
    # lattice a: the printer qualifies it even though it is unique
    src = (
        "lattice L { elements: a.b c; leq: a.b<c; }\n"
        "mor h : L.a.b -> L.c;\n"
        "hset H { h }\n"
        "proof p { (comp (cancel (hyp h) (lmor L.a.b L.a.b) h) (id L.a.b)) }\n"
    )
    ws = parse(src)
    cat = ws.lattices["L"].category
    printed = print_workspace(ws)
    assert "mor h : L.a.b -> c;" in printed
    assert "(lmor L.a.b L.a.b)" in printed and "(id L.a.b)" in printed
    assert parse(printed) == ws
    ab = cat.obj("a.b")
    for term in (Identity(ab), ws.proofs["p"].term):
        back = parse_proof_text(ws, proof_to_text(ws, term))
        assert back == term
        assert check_proof(cat, ws.hsets["H"].morphisms, back) == cat.identity(ab)


def diag(src: str):
    with pytest.raises(DslError) as err:
        parse(src)
    return err.value.diagnostic


def test_diagnostics_carry_positions():
    d = diag("lattice L {\n  elements: a a;\n}")
    assert (d.line, d.col) == (2, 15)
    assert "duplicate element" in d.message

    d = diag("graph G { nodes: x; }\nmor f : G -> G { }")
    assert d.line == 2
    assert "total map required" in d.message
    assert "x |->" in d.hint

    # end of input after a trailing comment is one past the last character
    d = diag("lattice L { elements: a; # note")
    assert (d.line, d.col) == (1, 32)
    assert d.message == "expected }, found 'end of input'"


# (source, message, hint, line, col): the lattice and graph declarations
# share one reader, so each of its errors is pinned in both words
DECLARATION_ERRORS = [
    ("lattice L {\n  nodes: a;\n}", "expected 'elements' section", "lattice NAME { elements: ...; leq: ...; }", 2, 3),
    ("graph G {\n  elements: u;\n}", "expected 'nodes' section", "graph NAME { nodes: ...; edges: ...; }", 2, 3),
    ("lattice L { elements: a b a; }", "duplicate element 'a'", "", 1, 27),
    ("graph G { nodes: u v u; }", "duplicate node 'u'", "", 1, 22),
    ("lattice L { elements: a b; leq: a->b; }", "expected <, found '->'", "write pairs as a<b", 1, 34),
    ("graph G { nodes: u v; edges: u<v; }", "expected ->, found '<'", "write edges as u->v", 1, 31),
    ("lattice L { elements: a b; leq: a<c; }", "unknown element 'c' in leq", "declare it under elements", 1, 35),
    ("lattice L { elements: a b; leq: c<a; }", "unknown element 'c' in leq", "declare it under elements", 1, 33),
    ("graph G { nodes: u v; edges: u->w; }", "unknown node 'w' in edges", "declare it under nodes", 1, 33),
    ("graph G { nodes: u v; edges: w->u; }", "unknown node 'w' in edges", "declare it under nodes", 1, 30),
    ("lattice L { elements: a b leq: a<b; }", "expected ;, found ':'", "", 1, 30),
    ("graph G { nodes: u v edges: u->v; }", "expected ;, found ':'", "", 1, 27),
    ("lattice L { elements: a b; leq: a<b }", "expected ;, found '}'", "", 1, 37),
    ("graph G { nodes: u v; edges: u->v }", "expected ;, found '}'", "", 1, 35),
    (
        "graph A { nodes: x; }\ngraph B { nodes: y; }\nmor f : A -> B { x |-> y, x |-> y }",
        "node 'x' is mapped twice",
        "",
        3,
        27,
    ),
    (
        "graph A { nodes: x z; }\ngraph B { nodes: y; }\nmor f : A -> B { x |-> y }",
        "total map required: node 'z' has no image",
        "add z |-> ...",
        3,
        26,
    ),
]


@pytest.mark.parametrize("keyword", ["graphs", "hsets", "sections", "proof_decl"])
def test_an_unknown_declaration_is_pinned(keyword):
    # near misses of a keyword, and names of the reader's own methods
    d = diag(f"graph G {{ nodes: u; }}\n  {keyword} X {{ }}")
    assert (d.line, d.col) == (2, 3)
    assert d.render() == (
        f"line 2, col 3: unknown declaration {keyword!r} (hint: use lattice, graph, mor, hset, or proof)"
    )


@pytest.mark.parametrize("src, message, hint, line, col", DECLARATION_ERRORS)
def test_declaration_errors_are_pinned(src, message, hint, line, col):
    assert diag(src) == Diagnostic(line, col, message, hint)


L_SRC = "lattice L { elements: a b; leq: a<b; }\n"
G_SRC = "graph G { nodes: u v; edges: u->v; }\ngraph H { nodes: x; }\n"

# (source, message, hint, line, col): the errors of the morphism and proof
# readers, each at the token it names
REFERENCE_ERRORS = [
    (
        "lattice L { elements: a b; leq: a<b, b<a; }",
        "not a partial order: not-antisymmetric at ('a', 'b')", "check the leq pairs", 1, 1,
    ),
    (L_SRC + "mor f : K.a -> L.b;", "unknown lattice 'K'", "", 2, 9),
    (L_SRC + "mor f : L.a -> L.c;", "lattice 'L' has no element 'c'", "", 2, 16),
    (
        L_SRC + "mor f : a -> b ->",
        "expected ';' or a '{ ... }' map", "lattice morphisms end with ';', graph morphisms map every node", 2, 16,
    ),
    (
        L_SRC + "lattice M { elements: c d; leq: c<d; }\nmor f : a -> c;",
        "elements 'a' and 'c' are in different lattices", "", 3, 14,
    ),
    (
        L_SRC + "mor f : a -> b { a |-> b }",
        "unknown graph 'a'", "lattice morphisms are written 'mor NAME : a -> b;'", 2, 9,
    ),
    (G_SRC + "mor f : G -> H { w |-> x }", "unknown node 'w' in graph 'G'", "", 3, 18),
    (G_SRC + "mor f : H -> G { x |-> w }", "unknown node 'w' in graph 'G'", "", 3, 24),
    (L_SRC + "proof p { (id (g x ())) }", "expected a number, found 'x'", "", 2, 18),
    (L_SRC + "proof p { (id (h 1 ())) }", "expected graph literal (g ...), found 'h'", "", 2, 16),
    (L_SRC + "proof p { (id (g 1 ((0 1)))) }", "edge (0, 1) out of range for 1 nodes", "", 2, 16),
    (G_SRC + "proof p { (push (hyp h) (gmor nope G ())) }", "unknown graph 'nope'", "", 3, 31),
    (L_SRC + "proof p { (push (hyp h) nope) }", "unknown morphism 'nope'", "", 2, 25),
    (
        L_SRC + "proof p { (push (hyp h) (fmor a b)) }",
        "expected a morphism, found (fmor ...)", "use a name, (lmor a b), or (gmor ...)", 2, 26,
    ),
    (
        L_SRC + "proof p { (frob (hyp h)) }",
        "unknown proof form 'frob'", "use hyp, id, comp, cancel, push, coprod, or widepush", 2, 12,
    ),
]


@pytest.mark.parametrize(
    "src, message, hint, line, col",
    REFERENCE_ERRORS,
    ids=[
        "not-a-partial-order", "unknown-lattice", "no-such-element", "no-mor-body", "different-lattices",
        "lattice-name-hint", "unknown-source-node", "unknown-target-node", "not-a-number",
        "not-a-graph-literal", "edge-out-of-range", "unknown-graph-operand", "unknown-morphism-operand",
        "unknown-morphism-form", "unknown-proof-form",
    ],
)
def test_reference_errors_are_pinned(src, message, hint, line, col):
    assert diag(src) == Diagnostic(line, col, message, hint)


def test_non_homomorphism_reports_the_violating_edge():
    d = diag(
        "graph A { nodes: x y; edges: x->y; }\n"
        "graph B { nodes: z w; }\n"
        "mor f : A -> B { x |-> z, y |-> w }"
    )
    assert "(0, 1)" in d.message


def test_reference_errors():
    assert "unknown morphism" in diag("hset H { ghost }").message
    assert "unknown graph" in diag("graph G { nodes: x; }\nmor f : G -> Z { x |-> x }").message
    assert "unknown element" in diag("lattice L { elements: a; leq: a<b; }").message
    assert "already declared" in diag("graph G { nodes: ; }\ngraph G { nodes: ; }").message
    assert "unknown lattice element" in diag("mor f : a -> b;").message


def test_ambiguous_element_requires_qualification():
    d = diag(
        "lattice L { elements: x; }\nlattice M { elements: x; }\nmor f : x -> x;"
    )
    assert "more than one lattice" in d.message
    assert "L.x" in d.hint


def test_lattice_mor_needs_comparable_elements():
    d = diag("lattice L { elements: a b; leq: a<b; }\nmor f : b -> a;")
    assert "no morphism" in d.message
    assert "not below" in d.hint


def test_mixed_category_hset_is_rejected():
    d = diag(
        "lattice L { elements: a b; leq: a<b; }\n"
        "graph G { nodes: x; }\n"
        "mor p : a -> b;\n"
        "mor q : G -> G { x |-> x }\n"
        "hset H { p, q }"
    )
    assert "single category" in d.hint


def test_lexical_error_position():
    d = diag("lattice L { elements: a$b; }")
    assert (d.line, d.col) == (1, 24)
    assert "unexpected character" in d.message
    assert d.render().startswith("line 1, col 24:")


def test_bare_proof_text_round_trips_machine_lattice_proofs():
    ws = parse(CHAIN_SRC)
    cat = ws.lattices["chain"].category
    h = ws.hsets["H"].morphisms
    result = saturate(cat, h)
    for m in result.derived:
        term = result.provenance[m]
        text = proof_to_text(ws, term)
        back = parse_proof_text(ws, text)
        assert back == term
        assert check_proof(cat, h, back) == m


def test_bare_proof_text_round_trips_machine_graph_proofs():
    ws = parse(GRAPH_SRC)
    g = ws.graph_category
    h = ws.hsets["HG"].morphisms
    inc, toloop = h.get("inc"), h.get("toloop")
    goal = g.coproduct_morphism([inc, toloop])
    term = CoprodN((Hyp("inc"), Hyp("toloop")))
    text = proof_to_text(ws, term)
    assert parse_proof_text(ws, text) == term
    # a found proof may mention pushout-created graphs: literals take over
    found = prove(g, h, g.compose(g.pushout(inc, toloop)[0], toloop), depth_cap=3)
    assert found.found()
    text = proof_to_text(ws, found.proof)
    back = parse_proof_text(ws, text)
    assert check_proof(g, h, back) == check_proof(g, h, found.proof)


def test_graph_and_morphism_literals_parse():
    ws = parse(GRAPH_SRC)
    g = ws.graph_category
    term = parse_proof_text(ws, "(id (g 2 ((0 1))))")
    assert term == Identity(g.obj(Graph.of(2, [(0, 1)])))
    term = parse_proof_text(ws, "(push (hyp inc) (gmor pt (g 1 ()) (0)))")
    assert isinstance(term, Push)
    hom = g.hom_of(term.along)
    assert hom.target == Graph.of(1)


def test_bare_proof_rejects_trailing_input():
    ws = parse(CHAIN_SRC)
    with pytest.raises(DslError):
        parse_proof_text(ws, "(hyp h) leftover")


def test_proof_literals_for_lattices_use_elements():
    ws = parse(CHAIN_SRC)
    cat = ws.lattices["chain"].category
    term = Cancel(Hyp("h"), first=cat.mor("0", "1"), rest=cat.mor("1", "2"))
    text = proof_to_text(ws, term)
    # declared names win over raw literals
    assert text == "(cancel (hyp h) goal rest)"
    anon = Cancel(Hyp("h"), first=cat.mor("0", "0"), rest=cat.mor("0", "2"))
    assert "(lmor 0 0)" in proof_to_text(ws, anon)


# --- the tokenizer against a character-at-a-time reference -----------------

_IDENT_CHARS = set("abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ0123456789_.")
_SINGLE = set("{}();:,<")


def reference_tokenize(source: str) -> list[tuple[str, str, int, int]]:
    """A loop that reads one character at a time, as (kind, text, line,
    col); it does not advance col over a comment."""
    tokens = []
    line, col = 1, 1
    i, n = 0, len(source)
    while i < n:
        ch = source[i]
        if ch == "\n":
            line += 1
            col = 1
            i += 1
            continue
        if ch in " \t\r":
            i += 1
            col += 1
            continue
        if ch == "#":
            while i < n and source[i] != "\n":
                i += 1
            continue
        if source.startswith("|->", i):
            tokens.append(("|->", "|->", line, col))
            i += 3
            col += 3
            continue
        if source.startswith("->", i):
            tokens.append(("->", "->", line, col))
            i += 2
            col += 2
            continue
        if ch in _SINGLE:
            tokens.append((ch, ch, line, col))
            i += 1
            col += 1
            continue
        if ch in _IDENT_CHARS:
            start = i
            start_col = col
            while i < n and source[i] in _IDENT_CHARS:
                i += 1
                col += 1
            tokens.append(("ident", source[start:i], line, start_col))
            continue
        raise DslError(
            Diagnostic(
                line,
                col,
                f"unexpected character {ch!r}",
                "allowed: names, { } ( ) ; , : < -> |-> and # comments",
            )
        )
    tokens.append(("eof", "", line, col))
    return tokens


def lexed(tokenize, source: str):
    try:
        return [tuple(t) for t in tokenize(source)]
    except DslError as err:
        return err.diagnostic


def test_tokenizer_matches_the_reference_loop():
    rng = random.Random(20260)
    alphabet = list("ab_.09{}();:,<->|#") + [" ", "\t", "\r", "\n", "x", "é", "="]
    after_comment = 0
    for _ in range(20_000):
        source = "".join(rng.choices(alphabet, k=rng.randint(0, 24)))
        got, want = lexed(_tokenize, source), lexed(reference_tokenize, source)
        last_line = source.rpartition("\n")[2]
        if isinstance(want, list) and "#" in last_line:
            # the one change: end of input after a trailing comment sits one
            # past the last character, not at the comment's "#"
            *want, (kind, text, line, _) = want
            want.append((kind, text, line, len(last_line) + 1))
            after_comment += 1
        assert got == want, source
    assert after_comment > 1000

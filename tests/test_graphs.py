import random
from itertools import permutations

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from injlog import kernels
from injlog.graphs import (
    Graph,
    GraphCategory,
    GraphHom,
    _first,
    clique,
    empty_graph,
    graph_classes,
    loop_point,
)
from injlog.core import (
    CategoryError,
    MorphismSet,
    MorRef,
    ObjRef,
    semantic_consequence,
)
from injlog.proofs import prove
from injlog.reflection import reflect
from oracles import count_graphs, enumerate_graphs, random_graph, random_union, verify_pushout_square


def test_graph_rejects_out_of_range_edges():
    with pytest.raises(ValueError):
        Graph.of(2, [(0, 2)])


def test_graph_rejects_a_negative_node_count():
    # refused where the graph is built, not at its first search
    for build in (lambda: Graph.of(-1), lambda: Graph(-1, frozenset())):
        with pytest.raises(ValueError, match="node count must be non-negative, got -1"):
            build()
    assert Graph.of(0).node_count == 0


def test_graph_helpers():
    g = Graph.of(3, [(2, 1), (0, 0)])
    assert g.edge_list() == [(0, 0), (2, 1)]
    assert g.has_loop()
    assert not clique(3).has_loop()


def test_special_graphs():
    assert empty_graph() == Graph.of(0)
    assert loop_point() == Graph.of(1, [(0, 0)])
    assert len(clique(4).edges) == 12
    assert clique(1) == Graph.of(1)


def test_hom_must_be_total_and_in_range():
    edge = Graph.of(2, [(0, 1)])
    with pytest.raises(ValueError, match="total map required"):
        GraphHom(edge, edge, (0,))
    with pytest.raises(ValueError, match="out of range"):
        GraphHom(edge, edge, (0, 5))


def test_hom_must_preserve_edges():
    edge = Graph.of(2, [(0, 1)])
    two = Graph.of(2)
    with pytest.raises(ValueError, match=r"preserve edge \(0, 1\)"):
        GraphHom(edge, two, (0, 1))


def test_nodes_that_are_not_integers_are_refused_where_they_enter():
    # a float end was silently truncated, and a float image reached the kernel
    with pytest.raises(ValueError, match="1.7 is not an integer"):
        Graph.of(2, [(0, 1.7)])
    with pytest.raises(ValueError, match="'1' is not an integer"):
        Graph.of(2, [("1", 0)])
    with pytest.raises(ValueError, match="2.0 is not an integer"):
        Graph.of(2.0)
    with pytest.raises(ValueError, match="node count must be an integer, got 2.0"):
        Graph(2.0, frozenset())
    with pytest.raises(ValueError, match=r"edge \(0, 1.0\) has an end that is not an integer"):
        Graph(2, frozenset({(0, 1.0)}))
    with pytest.raises(ValueError, match="image 0.0 is not an integer"):
        GraphHom(loop_point(), loop_point(), (0.0,))


def test_a_graph_stores_its_edges_frozen_whatever_collection_came_in():
    # a set of edges was stored as given, and GraphCategory.obj could not hash it
    g = Graph(2, {(0, 1)})
    assert type(g.edges) is frozenset and g == Graph.of(2, [(0, 1)])
    cat = GraphCategory()
    assert cat.obj(g) == cat.obj(Graph.of(2, [(0, 1)]))
    assert hash(Graph(3, [(0, 1), (1, 2)])) == hash(Graph.of(3, [(0, 1), (1, 2)]))
    with pytest.raises(ValueError, match=r"edge \(0, 2\) out of range"):
        Graph(2, {(0, 2)})


def test_a_hom_stores_its_mapping_as_a_tuple_whatever_sequence_came_in():
    # a list mapping was stored as given, and prove raised TypeError on it
    hom = GraphHom(Graph.of(1), loop_point(), [0])
    assert type(hom.mapping) is tuple and hom == GraphHom(Graph.of(1), loop_point(), (0,))
    cat = GraphCategory()
    m = cat.mor(hom)
    hyps = MorphismSet.of([("h", m)])
    assert prove(cat, hyps, cat.mor(GraphHom(Graph.of(1), loop_point(), (0,)))).status == "found"
    with pytest.raises(ValueError, match="image 1 out of range"):
        GraphHom(Graph.of(1), loop_point(), [1])


def test_graph_of_takes_any_integer_type():
    g = Graph.of(np.int64(2), [(np.int32(0), np.int64(1))])
    assert g == Graph.of(2, [(0, 1)])
    assert all(type(v) is int for edge in g.edges for v in (*edge, g.node_count))
    # the constructors refused the numpy ints that Graph.of converts; they
    # take them too, and store plain ints
    built = [(Graph(np.int64(2), frozenset()), Graph.of(2)), (Graph(2, {(np.int64(0), 1)}), Graph.of(2, [(0, 1)]))]
    for g, plain in built:
        assert g == plain
        assert all(type(v) is int for edge in g.edges for v in (*edge, g.node_count))
    hom = GraphHom(Graph.of(1), loop_point(), np.array([0]))
    assert hom == GraphHom(Graph.of(1), loop_point(), (0,))
    assert all(type(v) is int for v in hom.mapping)


def test_components_are_the_undirected_parts_in_node_order():
    def graphs(g):
        return tuple(part for _, part in g.parts)

    assert graphs(Graph.of(5, [(0, 2), (3, 3)])) == (
        Graph.of(2, [(0, 1)]), Graph.of(1), loop_point(), Graph.of(1),
    )
    # an edge from a later node to an earlier one joins them as well
    assert graphs(Graph.of(4, [(3, 1), (0, 0)])) == (loop_point(), Graph.of(2, [(1, 0)]), Graph.of(1))
    path = Graph.of(3, [(2, 0), (1, 2)])
    assert graphs(path) == (path,) and graphs(path)[0] is path
    assert graphs(Graph.of(0)) == ()


def test_parts_name_each_component_s_nodes():
    g = Graph.of(5, [(0, 2), (3, 3)])
    assert g.parts == (
        ((0, 2), Graph.of(2, [(0, 1)])), ((1,), Graph.of(1)), ((3,), loop_point()), ((4,), Graph.of(1)),
    )
    path = Graph.of(3, [(2, 0), (1, 2)])
    assert path.parts == (((0, 1, 2), path),) and path.parts[0][1] is path
    assert Graph.of(0).parts == ()


def random_pins(rng: random.Random, mid: Graph, dst: Graph) -> list[int]:
    """Pins of a search mid -> dst, each node free or pinned at random, so
    that pins often ask for an edge or a loop dst lacks."""
    return [
        rng.randrange(dst.node_count) if dst.node_count and rng.random() < 0.4 else -1
        for _ in range(mid.node_count)
    ]


@pytest.mark.parametrize("seed", range(4))
def test_a_search_part_by_part_finds_the_whole_search_s_first_row(seed):
    rng = random.Random(seed)
    seen = set()
    for _ in range(40):
        mid = random_union(rng)
        # the parts put back at their nodes are mid again
        assert sorted(v for nodes, _ in mid.parts for v in nodes) == list(range(mid.node_count))
        assert mid.edges == {(nodes[i], nodes[j]) for nodes, part in mid.parts for i, j in part.edges}
        for dst in (random_graph(rng), random_union(rng, 2)):
            answers: dict = {}  # kept across pins, as cancellation keeps it per object
            for _ in range(8):
                pins = random_pins(rng, mid, dst)
                want = next(kernels.homs(mid, dst, pins), None)
                assert _first(mid.parts, dst, pins) == want
                assert _first(mid.parts, dst, pins, answers) == want
                seen.add((len(mid.parts) > 1, want is not None))
    assert seen == {(False, False), (False, True), (True, False), (True, True)}


def test_a_search_part_by_part_stops_at_a_part_with_no_map():
    k3 = clique(3)
    # K2 at nodes 0 and 2, a loop at 1, K3 at 3..5
    mid = Graph.of(6, [(0, 2), (2, 0), (1, 1), *((i + 3, j + 3) for i, j in k3.edges)])
    cases = [
        ([-1] * 6, k3, None),  # the loop, left free, has no map into K3
        ([-1] * 6, Graph.of(3, [*k3.edges, (2, 2)]), (0, 2, 1, 0, 1, 2)),
        ([1, 2, -1, -1, -1, 0], Graph.of(3, [*k3.edges, (2, 2)]), (1, 2, 0, 1, 2, 0)),
        ([1, -1, 1, -1, -1, -1], Graph.of(3, [*k3.edges, (2, 2)]), None),  # K2 pinned onto one node
    ]
    for pins, dst, want in cases:
        assert _first(mid.parts, dst, pins) == want == next(kernels.homs(mid, dst, pins), None)
    assert _first(Graph.of(0).parts, k3, []) == () == next(kernels.homs(Graph.of(0), k3, []))


def test_hom_composition_and_identity():
    cat = GraphCategory()
    edge = Graph.of(2, [(0, 1)])
    f = cat.mor(GraphHom(Graph.of(1), edge, (0,)))
    g = cat.mor(GraphHom(edge, loop_point(), (0, 0)))
    assert cat.compose(g, f).payload.mapping == (0,)
    assert cat.compose(g, cat.identity(g.dom)) == g
    assert cat.compose(cat.identity(f.cod), f) == f


def test_enumeration_counts_and_order():
    graphs = list(enumerate_graphs(3))
    assert len(graphs) == 531
    assert count_graphs(3) == 531
    assert count_graphs(4) == 66067
    assert graphs[0] == empty_graph()
    assert graphs[1] == Graph.of(1)
    assert graphs[2] == loop_point()
    assert len(set(graphs)) == 531


def test_category_interns_objects_and_morphisms():
    cat = GraphCategory()
    a = cat.obj(clique(3))
    b = cat.obj(Graph.of(3, [(i, j) for i in range(3) for j in range(3) if i != j]))
    assert a == b
    assert cat.graph_of(a) == clique(3)
    m1 = cat.mor(GraphHom.identity(clique(3)))
    assert m1 == cat.identity(a)


def test_hom_enumeration_counts():
    cat = GraphCategory()
    c2, c3, c4 = cat.obj(clique(2)), cat.obj(clique(3)), cat.obj(clique(4))
    assert len(cat.enumerate_homs(c2, c3)) == 6
    assert cat.enumerate_homs(c4, c3) == []
    homs = cat.enumerate_homs(c2, c3)
    for k in range(8):
        assert cat.enumerate_homs(c2, c3, limit=k) == homs[:k]


def test_pushout_glues_along_the_shared_image():
    cat = GraphCategory()
    node = Graph.of(1)
    edge = Graph.of(2, [(0, 1)])
    h = cat.mor(GraphHom(node, edge, (0,)))
    f = cat.mor(GraphHom(node, loop_point(), (0,)))
    h_prime, f_prime = cat.pushout(h, f)
    assert cat.graph_of(h_prime.cod) == Graph.of(2, [(0, 0), (0, 1)])
    assert cat.compose(h_prime, f) == cat.compose(f_prime, h)
    # deterministic: same call, same refs
    assert cat.pushout(h, f) == (h_prime, f_prime)


def test_pushout_identifies_merged_nodes():
    cat = GraphCategory()
    two = Graph.of(2)
    point = Graph.of(1)
    collapse = cat.mor(GraphHom(two, point, (0, 0)))
    h = cat.mor(GraphHom.identity(two))
    h_prime, f_prime = cat.pushout(collapse, h)
    assert cat.graph_of(h_prime.cod) == point


@given(st.integers(0, 10**6))
def test_pushout_square_commutes_on_random_spans(seed):
    rng = random.Random(seed)
    cat = GraphCategory()
    apex_graph = random_graph(rng, max_nodes=3)
    legs = []
    for _ in range(2):
        tgt = random_graph(rng, max_nodes=4)
        hom = None
        for _ in range(30):
            mapping = tuple(
                rng.randrange(tgt.node_count) if tgt.node_count else 0
                for _ in range(apex_graph.node_count)
            )
            try:
                hom = GraphHom(apex_graph, tgt, mapping)
                break
            except ValueError:
                continue
        if hom is None:
            return
        legs.append(cat.mor(hom))
    h, f = legs
    h_prime, f_prime = cat.pushout(h, f)
    assert cat.compose(h_prime, f) == cat.compose(f_prime, h)


def test_coproduct_blocks_keep_their_edges():
    cat = GraphCategory()
    c2, c3 = cat.obj(clique(2)), cat.obj(clique(3))
    apex, injections = cat.coproduct([c2, c3])
    g = cat.graph_of(apex)
    assert g.node_count == 5
    assert len(g.edges) == 8
    left, right = (cat.hom_of(i) for i in injections)
    assert left.mapping == (0, 1)
    assert right.mapping == (2, 3, 4)


def test_coproduct_morphism_and_cotuple_agree_blockwise():
    cat = GraphCategory()
    node = Graph.of(1)
    edge = Graph.of(2, [(0, 1)])
    h1 = cat.mor(GraphHom(node, edge, (0,)))
    h2 = cat.mor(GraphHom(node, loop_point(), (0,)))
    both = cat.coproduct_morphism([h1, h2])
    dom, _ = cat.coproduct([h1.dom, h2.dom])
    cod, cod_inj = cat.coproduct([h1.cod, h2.cod])
    assert both.dom == dom and both.cod == cod
    legs = [cat.compose(cod_inj[0], h1), cat.compose(cod_inj[1], h2)]
    assert cat.cotuple(legs, cod) == both
    # cotuple of the injections is the identity
    assert cat.cotuple(cod_inj, cod) == cat.identity(cod)


def test_attachment_squares_of_the_wrong_shape_are_refused():
    cat = GraphCategory()
    node, edge, c3 = Graph.of(1), Graph.of(2, [(0, 1)]), clique(3)
    h = cat.mor(GraphHom(node, edge, (0,)))
    f = cat.mor(GraphHom(node, c3, (0,)))
    g = cat.mor(GraphHom(edge, c3, (0, 1)))
    # cod f is not x, and dom h is not dom f
    for x, squares in ((cat.obj(edge), [(h, f)]), (cat.obj(c3), [(h, g)]), (cat.obj(c3), [(h, f), (h, g)])):
        for build in (cat.attach, cat.attach_size):
            with pytest.raises(CategoryError, match="^attachment squares need dom h = dom f and cod f = x$"):
                build(x, squares)


def test_cotuple_legs_must_share_the_target():
    cat = GraphCategory()
    node, c2, c3 = Graph.of(1), clique(2), clique(3)
    into_c2 = cat.mor(GraphHom(node, c2, (0,)))
    into_c3 = cat.mor(GraphHom(node, c3, (0,)))
    for legs in ([into_c2], [into_c3, into_c2]):
        with pytest.raises(CategoryError, match="^cotuple legs must share the target$"):
            cat.cotuple(legs, cat.obj(c3))


def concatenated_cotuple(cat: GraphCategory, legs, target: ObjRef) -> MorRef:
    """The cotuple as the leg mappings laid end to end: the coproduct's
    nodes are the legs' domains in turn."""
    src, _ = cat.coproduct([m.dom for m in legs])
    mapping = tuple(v for m in legs for v in m.payload.mapping)
    return cat.mor(GraphHom(cat.graph_of(src), cat.graph_of(target), mapping))


def test_cotuple_is_the_concatenation_of_its_legs():
    rng = random.Random(29)
    cat = GraphCategory()
    lengths = set()
    for _ in range(150):
        target = cat.obj(random_graph(rng, max_nodes=4))
        legs = []
        for _ in range(rng.randint(0, 4)):
            homs = cat.enumerate_homs(cat.obj(random_graph(rng, max_nodes=3)), target, limit=4)
            legs += rng.sample(homs, min(len(homs), 1))
        lengths.add(len(legs))
        expected = concatenated_cotuple(cat, legs, target)
        registered = len(cat._graphs)
        got = cat.cotuple(legs, target)
        assert got == expected
        # the glued apex is target itself: its ref, and no graph registered
        assert got.cod == target and got.payload.target is cat.graph_of(target)
        assert len(cat._graphs) == registered
    assert lengths == {0, 1, 2, 3, 4}


def test_find_factorization_needs_a_common_domain():
    cat = GraphCategory()
    h = cat.mor(GraphHom(Graph.of(1), clique(2), (0,)))
    f = cat.mor(GraphHom(clique(2), clique(3), (0, 1)))
    with pytest.raises(CategoryError, match="^factorization query needs a common domain$"):
        cat.find_factorization(h, f)


def test_find_factorization_uses_pinning():
    cat = GraphCategory()
    node = Graph.of(1)
    c3 = clique(3)
    h = cat.mor(GraphHom(node, c3, (0,)))
    f = cat.mor(GraphHom(node, c3, (1,)))
    g = cat.find_factorization(h, f)
    assert g is not None
    assert cat.hom_of(g).mapping[0] == 1
    # no factorization when the pin forces a loop
    two = Graph.of(2)
    collapse = cat.mor(GraphHom(two, Graph.of(1), (0, 0)))
    separate = cat.mor(GraphHom(two, clique(2), (0, 1)))
    assert cat.find_factorization(collapse, separate) is None


def test_injectivity_examples():
    cat = GraphCategory()
    lp = cat.obj(loop_point())
    c4 = cat.obj(clique(4))
    zero = empty_graph()
    to_c4 = cat.mor(GraphHom(zero, clique(4), ()))
    to_loop = cat.mor(GraphHom(zero, loop_point(), ()))
    assert cat.is_injective(lp, to_c4).holds
    assert cat.is_injective(c4, to_c4).holds
    res = cat.is_injective(c4, to_loop)
    assert not res.holds


def _rows(g: Graph) -> tuple[int, ...]:
    """Adjacency rows as n-bit ints, column 0 most significant: the
    labeled walk's order is lex order on this tuple."""
    n = g.node_count
    return tuple(sum(1 << (n - 1 - j) for j in range(n) if (i, j) in g.edges) for i in range(n))


def _is_lex_least(g: Graph) -> bool:
    rows = _rows(g)
    return all(
        _rows(Graph.of(g.node_count, ((p[i], p[j]) for i, j in g.edges))) >= rows
        for p in permutations(range(g.node_count))
    )


def test_graph_classes_on_four_nodes_are_increasing_and_lex_least():
    four = [g for g in graph_classes(4) if g.node_count == 4]
    assert len(four) == 3044
    codes = [_rows(g) for g in four]
    assert all(a < b for a, b in zip(codes, codes[1:]))
    assert all(_is_lex_least(g) for g in four)
    sizes = [sum(1 for g in graph_classes(n) if g.node_count == n) for n in range(4)]
    assert sizes == [1, 2, 10, 104]


def test_graph_classes_on_five_nodes_are_increasing_and_lex_least():
    # streamed: only the sampled graphs are kept
    rng = random.Random(1978)
    sample = set(rng.sample(range(291968), 60))
    kept, count, last = [], 0, ()
    for g in graph_classes(5):
        if g.node_count < 5:
            continue
        rows = [0] * 5
        for i, j in g.edges:
            rows[i] |= 16 >> j
        code = tuple(rows)
        assert code > last
        if count in sample:
            kept.append(g)
        count, last = count + 1, code
    assert count == 291968  # OEIS A000595
    assert len(kept) == 60
    assert all(_is_lex_least(g) for g in kept)


def test_universe_interns_one_graph_per_class():
    cat = GraphCategory()
    refs = list(cat.universe(3))
    assert [r.index for r in refs] == list(range(117))
    assert [cat.graph_of(r) for r in refs] == [g for g in enumerate_graphs(3) if _is_lex_least(g)]


def test_universe_rejects_a_negative_bound():
    cat = GraphCategory()
    with pytest.raises(ValueError, match="non-negative"):
        cat.universe(-1)
    assert [cat.graph_of(r) for r in cat.universe(0)] == [empty_graph()]


@pytest.mark.parametrize("walk", [graph_classes, enumerate_graphs, count_graphs])
def test_graph_walks_reject_a_negative_bound_when_called(walk):
    # refused at the call, before any iteration
    with pytest.raises(ValueError, match="node bound must be non-negative, got -1"):
        walk(-1)
    assert list(graph_classes(0)) == list(enumerate_graphs(0)) == [empty_graph()]
    assert count_graphs(0) == 1


def test_trusted_graphs_equal_their_checked_copies():
    cat = GraphCategory()
    refs = list(cat.universe(3))
    for ref in refs:
        g = cat.graph_of(ref)
        checked = Graph.of(g.node_count, g.edge_list())
        assert g == checked and hash(g) == hash(checked)
        assert cat.obj(checked) == ref
    # a glued apex is trusted too, and found again from a checked copy;
    # both parts are universe graphs, so the apex is the one new object
    apex, _ = cat.coproduct([cat.obj(clique(2)), cat.obj(loop_point())])
    assert apex.index == len(refs)
    g = cat.graph_of(apex)
    checked = Graph.of(3, [(2, 2), (1, 0), (0, 1)])
    assert g == checked and hash(g) == hash(checked)
    assert cat.obj(checked) == apex


def _random_mor(cat: GraphCategory, rng: random.Random, src: Graph, max_nodes: int):
    for _ in range(10):
        homs = cat.enumerate_homs(cat.obj(src), cat.obj(random_graph(rng, max_nodes=max_nodes)))
        if homs:
            return rng.choice(homs)
    return None


@settings(max_examples=10)
@given(st.integers(0, 10**6))
def test_bounded_verdicts_agree_with_the_labeled_walk(seed):
    rng = random.Random(seed)
    cat = GraphCategory()
    labeled = [cat.obj(g) for g in enumerate_graphs(3)]
    mors = [_random_mor(cat, rng, random_graph(rng, max_nodes=2), 2) for _ in range(rng.randint(1, 4))]
    mors = [m for m in mors if m is not None]
    if not mors:
        return
    hyps = MorphismSet.of((f"h{k}", m) for k, m in enumerate(mors[1:]))
    goal = mors[0]
    assert semantic_consequence(cat, hyps, goal, cat.universe(3), exact=False, bound=3) == (
        semantic_consequence(cat, hyps, goal, labeled, exact=False, bound=3)
    )
    # one leg of at most one node keeps the apex, and the cocone walk, small
    dom = random_graph(rng, max_nodes=1)
    h, f = _random_mor(cat, rng, dom, 2), _random_mor(cat, rng, dom, 1)
    if h is not None and f is not None:
        assert verify_pushout_square(cat, h, f, cat.universe(3)) == (
            verify_pushout_square(cat, h, f, labeled)
        )


def test_pushout_of_two_point_legs_agrees_with_the_labeled_walk():
    cat = GraphCategory()
    point = Graph.of(1)
    h = cat.mor(GraphHom(point, Graph.of(2, [(0, 1)]), (0,)))
    f = cat.mor(GraphHom(point, Graph.of(2), (0,)))
    labeled = [cat.obj(g) for g in enumerate_graphs(3)]
    report = verify_pushout_square(cat, h, f, labeled)
    assert report.verified
    assert verify_pushout_square(cat, h, f, cat.universe(3)) == report


def test_trusted_homs_pass_the_public_validator(monkeypatch):
    made = []
    trusted = GraphHom._trusted

    def recording(source, target, mapping):
        hom = trusted(source, target, mapping)
        made.append(hom)
        return hom

    monkeypatch.setattr(GraphHom, "_trusted", staticmethod(recording))
    cat = GraphCategory()
    zero = empty_graph()
    hyps = MorphismSet.of(
        (f"c{k}", cat.mor(GraphHom(zero, clique(k), ()))) for k in range(1, 4)
    )
    goal = cat.mor(GraphHom(zero, loop_point(), ()))
    prove(cat, hyps, goal, node_cap=6, depth_cap=3)
    reflect(cat, hyps, cat.obj(zero), max_rounds=4)
    rng = random.Random(5)
    for _ in range(40):
        a, b = random_graph(rng, max_nodes=3), random_graph(rng, max_nodes=3)
        for m in cat.enumerate_homs(cat.obj(a), cat.obj(b)):
            cat.is_injective(cat.obj(random_graph(rng, max_nodes=3)), m)
            f = _random_mor(cat, rng, a, 3)
            if f is not None:
                cat.pushout(m, f)
    # sources with edges, edgeless ones and the empty graph all occur
    kinds = {(len(h.source.edges) > 0, h.source.node_count > 0) for h in made}
    assert len(made) > 1000 and len(kinds) == 3
    for hom in made:
        assert GraphHom(hom.source, hom.target, hom.mapping) == hom


def test_operations_validate_no_hom_they_build(monkeypatch):
    built = []
    validate = GraphHom.__new__

    def counting(cls, *fields):
        hom = validate(cls, *fields)
        built.append(hom)
        return hom

    cat = GraphCategory()
    node, edge, c3 = cat.obj(Graph.of(1)), cat.obj(Graph.of(2, [(0, 1)])), cat.obj(clique(3))
    monkeypatch.setattr(GraphHom, "__new__", counting)
    h = cat.mor(GraphHom(Graph.of(1), Graph.of(2, [(0, 1)]), (0,)))
    assert len(built) == 1  # outside input is checked once, where it enters
    legs = cat.enumerate_homs(edge, c3)
    into = cat.enumerate_homs(node, c3)
    cat.identity(c3)
    cat.compose(legs[0], h)
    cat.cotuple(legs[:3], c3)
    cat.cotuple([], c3)
    cat.attach(c3, [(h, into[0])])
    cat.find_factorization(h, into[1])
    assert cat.is_injective(c3, h)
    assert not cat.is_injective(node, h)  # with a counterexample hom
    assert list(cat.cancellations(h, [node, edge, c3]))
    assert len(built) == 1


def test_identities_and_cotuples_pass_the_public_validator():
    rng = random.Random(11)
    cat = GraphCategory()
    made = []
    for _ in range(60):
        target = cat.obj(random_graph(rng, max_nodes=3))
        made.append(cat.identity(target))
        legs = []
        for _ in range(rng.randint(0, 3)):
            legs += cat.enumerate_homs(cat.obj(random_graph(rng, max_nodes=3)), target, limit=1)
        made.append(cat.cotuple(legs, target))
    # empty, edgeless and edged sources all occur
    assert {(len(m.payload.source.edges) > 0, m.payload.source.node_count > 0) for m in made} == {
        (False, False), (False, True), (True, True)
    }
    for m in made:
        hom = m.payload
        assert GraphHom(hom.source, hom.target, hom.mapping) == hom
        assert cat.mor(GraphHom(hom.source, hom.target, hom.mapping)) == m


def test_foreign_references_are_rejected():
    cat = GraphCategory()
    cat.obj(loop_point())
    x = ObjRef("other", 0)  # index 0 is the loop here, under another cat_id
    with pytest.raises(CategoryError):
        cat.identity(x)


def test_another_instances_refs_are_foreign():
    # with the loop registered first, index 0 of a is the loop: only the
    # cat_id tells the other instance's clique ref apart
    a, b = GraphCategory(), GraphCategory()
    a.obj(loop_point())
    assert a.cat_id != b.cat_id
    with pytest.raises(CategoryError):
        a.graph_of(GraphCategory().obj(clique(3)))
    with pytest.raises(CategoryError):
        a.identity(b.obj(loop_point()))


def forged_graph_refs(cat: GraphCategory, edge: Graph, swapped: Graph):
    """Objects from another category, out of range or at an index that is
    no integer, and would-be morphisms edge -> edge: foreign, with an
    out-of-range end or one at an index that is no integer, with a payload
    that is no graph hom, or whose source or target is another graph with
    the same node count."""
    e = cat.obj(edge)
    other = ObjRef("other", e.index)  # edge's index under another cat_id
    beyond = ObjRef(cat.cat_id, 99)
    as_float, as_str = ObjRef(cat.cat_id, float(e.index)), ObjRef(cat.cat_id, str(e.index))
    objects = [other, beyond, ObjRef(cat.cat_id, -1), as_float, as_str]
    ident = GraphHom.identity(edge)
    morphisms = [
        MorRef(other, other, ident),
        MorRef(e, beyond, ident),
        MorRef(beyond, e, ident),
        MorRef(e, as_float, ident),
        MorRef(as_str, e, ident),
        MorRef(e, e, (0, 1)),
        MorRef(e, e, GraphHom(swapped, edge, (1, 0))),
        MorRef(e, e, GraphHom(edge, swapped, (1, 0))),
    ]
    return objects, morphisms


def test_every_graph_operation_refuses_forged_refs():
    cat = GraphCategory()
    edge, swapped = Graph.of(2, [(0, 1)]), Graph.of(2, [(1, 0)])
    e = cat.obj(edge)
    cat.obj(swapped)
    point = cat.obj(Graph.of(1))  # no map from edge reaches it
    good = cat.identity(e)

    def loop_at(obj: ObjRef) -> MorRef:
        """An identity-shaped ref at obj, made without asking the category."""
        return MorRef(obj, obj, GraphHom.identity(edge))

    objects, morphisms = forged_graph_refs(cat, edge, swapped)
    cases = []
    for x in objects:
        cases += [
            lambda x=x: cat.enumerate_homs(x, e),
            lambda x=x: cat.enumerate_homs(e, x),
            lambda x=x: cat.is_injective(x, good),
            # the lazy per-premise answers raise once they reach x
            lambda x=x: list(cat.cancellations(good, [e, point, x])),
            lambda x=x: list(cat.pushouts(good, [e, point, x])),
            lambda x=x: cat.attach(x, []),
            lambda x=x: cat.attach_size(x, []),
            lambda x=x: cat.cotuple([], x),
        ]
    for m in morphisms:
        cases += [
            lambda m=m: cat.compose(m, loop_at(m.dom)),
            lambda m=m: cat.compose(loop_at(m.cod), m),
            lambda m=m: cat.find_factorization(m, loop_at(m.dom)),
            lambda m=m: cat.find_factorization(loop_at(m.dom), m),
            lambda m=m: cat.pushout(m, loop_at(m.dom)),
            lambda m=m: cat.pushout(loop_at(m.dom), m),
            lambda m=m: cat.attach(m.dom, [(m, loop_at(m.dom))]),
            lambda m=m: cat.attach(m.cod, [(loop_at(m.dom), m)]),
            lambda m=m: cat.attach_size(m.dom, [(m, loop_at(m.dom))]),
            lambda m=m: cat.attach_size(m.cod, [(loop_at(m.dom), m)]),
            lambda m=m: cat.cotuple([m], m.cod),
            lambda m=m: cat.cotuple([loop_at(m.cod), m], m.cod),
            lambda m=m: cat.is_injective(e, m),
            lambda m=m: cat.is_injective(point, m),
            lambda m=m: cat.is_injective(m.cod, m),
            lambda m=m: list(cat.cancellations(m, [e])),
            lambda m=m: list(cat.cancellations(m, [point])),
            lambda m=m: list(cat.cancellations(m, [m.cod])),
            lambda m=m: list(cat.pushouts(m, [e])),
            lambda m=m: list(cat.pushouts(m, [m.cod])),
            lambda m=m: cat.hom_of(m),
            lambda m=m: cat.morphism_label(m),
        ]
    for case in cases:
        with pytest.raises(CategoryError):
            case()


def test_each_forged_graph_ref_is_refused_for_its_own_fault():
    # the checks run payload type, then each end, then the payload's graphs:
    # a ref with a foreign end is refused for that end before its payload
    # is compared
    cat = GraphCategory()
    edge, swapped = Graph.of(2, [(0, 1)]), Graph.of(2, [(1, 0)])
    cat.obj(swapped)
    objects, morphisms = forged_graph_refs(cat, edge, swapped)
    faults = ["is not from"] * 5 + ["is not a graph morphism"] + ["endpoints disagree"] * 2
    assert len(faults) == len(morphisms)
    for x in objects:
        with pytest.raises(CategoryError, match=f"object .* is not from {cat.cat_id}$"):
            cat.graph_of(x)
    for m, fault in zip(morphisms, faults):
        with pytest.raises(CategoryError) as err:
            cat.hom_of(m)
        assert fault in str(err.value), (m, str(err.value))
        assert [f for f in set(faults) if f in str(err.value)] == [fault]


def test_a_payload_holding_an_equal_graph_is_accepted():
    cat = GraphCategory()
    edge = Graph.of(2, [(0, 1)])
    e = cat.obj(edge)
    twin = Graph.of(2, [(0, 1)])
    assert twin == edge and twin is not edge
    genuine = cat.identity(e)
    m = MorRef(e, e, GraphHom.identity(twin))
    assert m == genuine and m.payload.source is not cat.graph_of(e)
    assert cat.hom_of(m) is m.payload
    assert cat.morphism_label(m) == cat.morphism_label(genuine)
    assert cat.compose(m, m) == cat.compose(genuine, genuine) == genuine
    assert cat.find_factorization(m, m) == genuine
    assert cat.pushout(m, m) == cat.pushout(genuine, genuine)
    assert cat.attach(e, [(m, m)]) == cat.attach(e, [(genuine, genuine)])
    assert cat.attach_size(e, [(m, m)]) == cat.attach_size(e, [(genuine, genuine)])
    assert cat.cotuple([m], e) == cat.cotuple([genuine], e)
    assert cat.is_injective(e, m).holds

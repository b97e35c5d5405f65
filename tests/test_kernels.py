import itertools
import random
from itertools import islice

from hypothesis import example, given, settings, strategies as st

from injlog import kernels
from injlog.core import MorphismSet, semantic_consequence
from injlog.graphs import Graph, GraphCategory, GraphHom, clique, empty_graph, loop_point
from oracles import random_graph


def product_homs(src: Graph, dst: Graph, pinned: list[int]) -> list[tuple[int, ...]]:
    """Brute-force reference: every pin-respecting edge-preserving map, in
    itertools.product order (lexicographic, node 0 most significant)."""
    return [
        m
        for m in itertools.product(range(dst.node_count), repeat=src.node_count)
        if all(p < 0 or m[i] == p for i, p in enumerate(pinned))
        and all((m[i], m[j]) in dst.edges for i, j in src.edges)
    ]


@st.composite
def graphs(draw, max_nodes: int, min_nodes: int = 0) -> Graph:
    n = draw(st.integers(min_nodes, max_nodes))
    cells = [(i, j) for i in range(n) for j in range(n)]
    return Graph.of(n, [c for c in cells if draw(st.booleans())])


def loops(g: Graph) -> frozenset[int]:
    return frozenset(i for i, j in g.edges if i == j)


@st.composite
def queries(draw):
    """One source against two targets of different sizes and loop sets, so
    that a plan cached on the source from the first target would show on
    the second."""
    src = draw(graphs(5))
    small = draw(graphs(3))
    big = draw(graphs(4, min_nodes=small.node_count + 1))
    if loops(big) == loops(small):
        # small has no node there, so the loop sets now differ
        last = big.node_count - 1
        big = Graph.of(big.node_count, big.edges | {(last, last)})
    targets = [small, big] if draw(st.booleans()) else [big, small]
    pins = [[draw(st.integers(-1, t.node_count - 1)) for _ in range(src.node_count)] for t in targets]
    limit = draw(st.none() | st.integers(0, 6))
    return src, list(zip(targets, pins)), limit


# a graph with a loop that is its own first target: the search caches its
# target half, then builds its source half from it
_LOOPED = Graph.of(3, [(0, 1), (1, 1), (2, 0)])


@settings(max_examples=400)
@given(queries())
@example((_LOOPED, [(_LOOPED, [-1, -1, -1]), (Graph.of(2, [(0, 1), (1, 0), (1, 1)]), [-1, 1, -1])], None))
@example((Graph.of(0), [(clique(3), []), (Graph.of(0), [])], None))
@example((Graph.of(0), [(Graph.of(0), []), (loop_point(), [])], 0))
@example((Graph.of(2, [(0, 1)]), [(Graph.of(0), [-1, -1]), (loop_point(), [0, -1])], None))
@example((
    Graph.of(3, [(0, 0), (1, 2)]),
    [(Graph.of(3, [(1, 1), (1, 2), (2, 0)]), [-1, 2, -1]), (Graph.of(2, [(0, 1)]), [-1, -1, -1])],
    2,
))
def test_kernel_matches_product_oracle(query):
    src, targets, limit = query
    for dst, pinned in targets:
        expected = product_homs(src, dst, pinned)
        assert list(kernels.homs(src, dst, pinned)) == expected
        assert next(kernels.homs(src, dst, pinned), None) == (expected[0] if expected else None)
        assert list(islice(kernels.homs(src, dst, pinned), limit)) == expected[:limit]
        if not any(p >= 0 for p in pinned):
            assert list(kernels.homs(src, dst)) == expected
            assert list(islice(kernels.homs(src, dst), limit)) == expected[:limit]


@st.composite
def sparse_graphs(draw, max_nodes: int) -> Graph:
    """Graphs with about one cell in four an edge, so that most sources
    fall apart into several components."""
    n = draw(st.integers(0, max_nodes))
    cells = [(i, j) for i in range(n) for j in range(n)]
    return Graph.of(n, [c for c in cells if draw(st.integers(0, 3)) == 0])


# K2 on nodes 0, 1 beside K3 on nodes 2, 3, 4
_K2_K3 = Graph.of(5, [(i, j) for part in ((0, 1), (2, 3, 4)) for i in part for j in part if i != j])


@settings(max_examples=400)
@given(st.one_of(graphs(5), sparse_graphs(5)), graphs(4), st.integers(0, 6))
@example(Graph.of(0), clique(3), 0)
@example(Graph.of(0), Graph.of(0), 1)
@example(Graph.of(2, [(1, 1)]), Graph.of(1), 1)
@example(_K2_K3, clique(4), 6)
def test_count_matches_the_product_oracle(src, dst, limit):
    expected = len(product_homs(src, dst, [-1] * src.node_count))
    assert kernels.count(src, dst, limit) == min(expected, limit)


def test_count_is_zero_when_one_component_has_no_hom():
    # node 0 maps anywhere, but the looped node 1 has nowhere to go: the
    # count must not stop at limit on the first component's one hom
    src = Graph.of(2, [(1, 1)])
    assert [kernels.count(src, Graph.of(1), limit) for limit in (0, 1, 2)] == [0, 0, 0]
    assert [kernels.count(src, loop_point(), limit) for limit in (0, 1, 2)] == [0, 1, 1]


def test_count_of_the_empty_source_is_one_hom():
    for dst in (Graph.of(0), loop_point(), clique(3)):
        assert [kernels.count(Graph.of(0), dst, limit) for limit in (0, 1, 5)] == [0, 1, 1]


def test_count_multiplies_the_components_counts():
    # 12 homs K2 -> K4 times 24 homs K3 -> K4
    assert len(product_homs(_K2_K3, clique(4), [-1] * 5)) == 288
    assert [kernels.count(_K2_K3, clique(4), limit) for limit in (13, 287, 288, 289, 10**6)] == [
        13, 287, 288, 288, 288,
    ]


class CountingRows(tuple):
    """A tuple of bitset rows that counts how often the search reads one."""

    reads = 0

    def __getitem__(self, k):
        CountingRows.reads += 1
        return tuple.__getitem__(self, k)


def test_an_emptied_later_domain_prunes_at_once(monkeypatch):
    # source node 0 has an edge to node 1 and one from node 13, and nodes
    # 1..12 form a path; no edge of the target enters target node 0, so
    # mapping source node 0 there empties node 13's domain, and the search
    # must drop that branch before it walks the 2**11 paths of nodes 1..12
    # through target nodes 1 and 2
    k = 12
    src = Graph.of(k + 2, [(0, 1), (k + 1, 0), *((i, i + 1) for i in range(1, k))])
    dst = Graph.of(3, [(0, 1), (0, 2), (1, 1), (1, 2), (2, 1), (2, 2)])
    plan = dst.plan
    counting = plan._replace(succ=CountingRows(plan.succ), pred=CountingRows(plan.pred))
    monkeypatch.setitem(dst.__dict__, "plan", counting)
    monkeypatch.setattr(CountingRows, "reads", 0)
    assert next(kernels.homs(src, dst), None) == (1,) * (k + 1) + (0,)
    assert CountingRows.reads <= 4 * src.node_count


def test_a_universe_walk_builds_no_source_half_of_a_universe_graph():
    g = GraphCategory()
    hyps = MorphismSet.of((f"c{k}", g.mor(GraphHom(empty_graph(), clique(k), ()))) for k in range(1, 5))
    goal = g.mor(GraphHom(empty_graph(), loop_point(), ()))
    universe = list(g.universe(3))
    assert semantic_consequence(g, hyps, goal, universe, exact=False, bound=3).holds
    # the codomains are the searches' sources; every other universe graph
    # is only searched into
    sources = [m.payload.target for m in (*hyps.morphisms(), goal)]
    assert all("source_plan" in x.__dict__ for x in sources)
    walked = [g.graph_of(x) for x in universe if g.graph_of(x) not in sources]
    assert walked and all("plan" in x.__dict__ for x in walked if x.node_count)
    assert not [x for x in walked if "source_plan" in x.__dict__]


def test_counts_on_cliques():
    assert len(list(kernels.homs(clique(2), clique(3)))) == 6
    assert list(kernels.homs(clique(4), clique(3))) == []
    assert list(islice(kernels.homs(clique(2), clique(3)), 4)) == [(0, 1), (0, 2), (1, 0), (1, 2)]


def test_empty_source_has_one_hom():
    e, t = Graph.of(0), clique(3)
    assert list(kernels.homs(e, t)) == [()]
    assert list(islice(kernels.homs(e, t), 0)) == []
    assert next(kernels.homs(e, t), None) == ()


def test_empty_target_has_no_hom():
    s, t = Graph.of(1), Graph.of(0)
    assert list(kernels.homs(s, t)) == []
    assert next(kernels.homs(s, t), None) is None


def test_lists_are_lexicographic():
    rows = list(kernels.homs(Graph.of(2), Graph.of(3)))
    assert rows == [(a, b) for a in range(3) for b in range(3)]


def test_pins_restrict_the_search():
    src, dst = clique(2), clique(3)
    assert list(kernels.homs(src, dst, [1, -1])) == [(1, 0), (1, 2)]
    assert next(kernels.homs(src, dst, [1, -1]), None) == (1, 0)


def test_every_listed_assignment_is_a_homomorphism():
    rng = random.Random(7)
    for _ in range(25):
        src = random_graph(rng, max_nodes=3)
        dst = random_graph(rng, max_nodes=4)
        for row in kernels.homs(src, dst):
            for u, v in src.edges:
                assert (row[u], row[v]) in dst.edges


def test_first_hom_is_found_lazily_in_astronomical_spaces():
    # 3**40 candidate maps: only a lazy search can answer this
    assert next(kernels.homs(Graph.of(40), clique(3)), None) == (0,) * 40

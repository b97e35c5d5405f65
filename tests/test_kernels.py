import itertools
import random

import pytest
from hypothesis import example, given, settings, strategies as st

from injlog import kernels
from injlog.graphs import Graph, clique, random_graph


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
def graphs(draw, max_nodes: int) -> Graph:
    n = draw(st.integers(0, max_nodes))
    cells = [(i, j) for i in range(n) for j in range(n)]
    return Graph.of(n, [c for c in cells if draw(st.booleans())])


@st.composite
def queries(draw):
    src = draw(graphs(4))
    dst = draw(graphs(4))
    pinned = [draw(st.integers(-1, dst.node_count - 1)) for _ in range(src.node_count)]
    limit = draw(st.none() | st.integers(0, 6))
    return src, dst, pinned, limit


@settings(max_examples=400)
@given(queries())
@example((Graph.of(0), clique(3), [], None))
@example((Graph.of(0), Graph.of(0), [], 0))
@example((Graph.of(2, [(0, 1)]), Graph.of(0), [-1, -1], None))
@example((Graph.of(3, [(0, 0), (1, 2)]), Graph.of(3, [(1, 1), (1, 2), (2, 0)]), [-1, 2, -1], 2))
def test_kernel_matches_product_oracle(query):
    src, dst, pinned, limit = query
    expected = product_homs(src, dst, pinned)
    assert kernels.hom_list(src, dst, pinned) == expected
    assert kernels.hom_first(src, dst, pinned) == (expected[0] if expected else None)
    assert kernels.hom_list(src, dst, pinned, limit=limit) == expected[:limit]
    if not any(p >= 0 for p in pinned):
        assert kernels.hom_list(src, dst) == expected


def test_counts_on_cliques():
    assert len(kernels.hom_list(clique(2), clique(3))) == 6
    assert kernels.hom_list(clique(4), clique(3)) == []
    assert kernels.hom_list(clique(2), clique(3), limit=4) == [(0, 1), (0, 2), (1, 0), (1, 2)]


def test_empty_source_has_one_hom():
    e, t = Graph.of(0), clique(3)
    assert kernels.hom_list(e, t) == [()]
    assert kernels.hom_list(e, t, limit=0) == []
    assert kernels.hom_first(e, t) == ()


def test_empty_target_has_no_hom():
    s, t = Graph.of(1), Graph.of(0)
    assert kernels.hom_list(s, t) == []
    assert kernels.hom_first(s, t) is None


def test_lists_are_lexicographic():
    rows = kernels.hom_list(Graph.of(2), Graph.of(3))
    assert rows == [(a, b) for a in range(3) for b in range(3)]


def test_pins_restrict_the_search():
    src, dst = clique(2), clique(3)
    assert kernels.hom_list(src, dst, [1, -1]) == [(1, 0), (1, 2)]
    assert kernels.hom_first(src, dst, [1, -1]) == (1, 0)


def test_pin_out_of_range_is_rejected():
    with pytest.raises(ValueError):
        kernels.hom_list(clique(2), clique(3), [3, -1])
    with pytest.raises(ValueError):
        kernels.hom_list(clique(2), clique(3), [3, -1], limit=0)


def test_pin_below_free_is_rejected():
    with pytest.raises(ValueError):
        kernels.hom_list(clique(2), clique(3), [-5, -1])


def test_more_pins_than_source_nodes_are_rejected():
    with pytest.raises(ValueError):
        kernels.hom_list(clique(2), clique(3), [1, -1, 2])


def test_fewer_pins_than_source_nodes_are_rejected():
    with pytest.raises(ValueError):
        kernels.hom_first(clique(2), clique(3), [1])


def test_every_listed_assignment_is_a_homomorphism():
    rng = random.Random(7)
    for _ in range(25):
        src = random_graph(rng, max_nodes=3)
        dst = random_graph(rng, max_nodes=4)
        for row in kernels.hom_list(src, dst):
            for u, v in src.edges:
                assert (row[u], row[v]) in dst.edges


def test_first_hom_is_found_lazily_in_astronomical_spaces():
    # 3**40 candidate maps: only a lazy search can answer this
    assert kernels.hom_first(Graph.of(40), clique(3)) == (0,) * 40

import random

from hypothesis import given, strategies as st

from injlog.graphs import Graph, GraphHom, clique, empty_graph, loop_point
from injlog.sentences import render_regular_sentence
from oracles import random_graph


def test_node_into_edge():
    node = Graph.of(1)
    edge = Graph.of(2, [(0, 1)])
    h = GraphHom(node, edge, (0,))
    assert render_regular_sentence(h) == "∀x0 ( true → ∃y0 ( E(x0,y0) ) )"


def test_empty_into_loop_says_a_loop_exists():
    h = GraphHom(empty_graph(), loop_point(), ())
    assert render_regular_sentence(h) == "( true → ∃y0 ( E(y0,y0) ) )"


def test_identity_repeats_the_premise_with_no_existentials():
    edge = Graph.of(2, [(0, 1)])
    h = GraphHom.identity(edge)
    assert render_regular_sentence(h) == (
        "∀x0 ∀x1 ( E(x0,x1) → E(x0,x1) )"
    )


def test_merging_nodes_emits_an_equation():
    edge = Graph.of(2, [(0, 1)])
    h = GraphHom(edge, loop_point(), (0, 0))
    assert render_regular_sentence(h) == (
        "∀x0 ∀x1 ( E(x0,x1) → E(x0,x0) ∧ x1 = x0 )"
    )


def test_empty_identity_is_trivially_true():
    h = GraphHom.identity(empty_graph())
    assert render_regular_sentence(h) == "( true → true )"


def test_empty_into_clique_lists_all_edges():
    h = GraphHom(empty_graph(), clique(2), ())
    assert render_regular_sentence(h) == (
        "( true → ∃y0 ∃y1 ( E(y0,y1) ∧ E(y1,y0) ) )"
    )


@given(st.integers(0, 10**6))
def test_quantifier_counts_follow_the_morphism(seed):
    rng = random.Random(seed)
    src = random_graph(rng, max_nodes=3)
    tgt = random_graph(rng, max_nodes=4)
    if src.node_count and not tgt.node_count:
        return
    mapping = tuple(rng.randrange(tgt.node_count) for _ in range(src.node_count))
    try:
        h = GraphHom(src, tgt, mapping)
    except ValueError:
        return
    text = render_regular_sentence(h)
    assert text.count("∀") == src.node_count
    assert text.count("∃") == tgt.node_count - len(set(mapping))
    assert text.count("→") == 1
    assert render_regular_sentence(h) == text

import random

import pytest
from hypothesis import given, settings, strategies as st

from injlog.core import CoconeCheckReport, CoconeFailure, MorphismSet
from injlog.graphs import Graph, GraphCategory, GraphHom, clique, empty_graph, loop_point
from injlog.lattice import LatticeCategory, presentation_from_pairs, random_lattice
from injlog.proofs import Cancel, Identity, check_proof, saturate
from injlog.reflection import (
    ReflectionTrace,
    consequence_via_reflection,
    reflect,
    reflection_proof,
    round_proof,
    trace_to_text,
    verify_weak_reflection,
)
from oracles import random_graph, random_hypotheses
from test_core import random_graph_mor, staged_wide_pushout


def chain3() -> LatticeCategory:
    return LatticeCategory(
        presentation_from_pairs("chain", ["0", "1", "2"], [("0", "1"), ("1", "2")])
    )


def diamond() -> LatticeCategory:
    return LatticeCategory(
        presentation_from_pairs(
            "diamond",
            ["0", "a", "b", "1"],
            [("0", "a"), ("0", "b"), ("a", "1"), ("b", "1")],
        )
    )


def test_diamond_reflection_reaches_the_least_injective_upper_bound():
    cat = diamond()
    h = MorphismSet.of([("p", cat.mor("0", "a"))])
    trace = reflect(cat, h, cat.obj("0"))
    assert trace.converged
    assert len(trace.rounds) == 1
    assert trace.apex == cat.obj("a")
    assert trace.reflection == cat.mor("0", "a")
    assert verify_weak_reflection(cat, h, trace, cat.search_universe()).verified


def test_reflection_of_an_already_injective_start_is_the_identity():
    cat = diamond()
    h = MorphismSet.of([("p", cat.mor("0", "a"))])
    trace = reflect(cat, h, cat.obj("1"))
    assert trace.converged
    assert trace.rounds == ()
    assert trace.reflection == cat.identity(cat.obj("1"))


def test_round_and_reflection_proofs_recheck():
    cat = diamond()
    h = MorphismSet.of([("p", cat.mor("0", "a"))])
    trace = reflect(cat, h, cat.obj("0"))
    for rnd in trace.rounds:
        assert check_proof(cat, h, round_proof(rnd)) == rnd.connecting
    assert check_proof(cat, h, reflection_proof(trace)) == trace.reflection


@given(st.integers(0, 10**6))
@settings(max_examples=30)
def test_lattice_reflection_is_the_meet_of_injectives_above(seed):
    rng = random.Random(seed)
    cat = random_lattice(rng, max_size=7)
    h = random_hypotheses(rng, cat, max_count=5)
    start = rng.choice(cat.objects())
    trace = reflect(cat, h, start)
    assert trace.converged
    # the meet of injectives above start, computed independently: by brute
    # force over leq, with injectivity read off the hypotheses' pairs
    leq = cat.p.leq
    injective = [
        x for x in range(cat.p.size) if all(not leq[m.dom.index, x] or leq[m.cod.index, x] for m in h.morphisms())
    ]
    above = [x for x in injective if leq[start.index, x]]
    lower = [m for m in range(cat.p.size) if all(leq[m, u] for u in above)]
    (meet,) = [m for m in lower if all(leq[v, m] for v in lower)]
    assert trace.apex.index == meet
    assert verify_weak_reflection(cat, h, trace, cat.search_universe()).verified
    assert check_proof(cat, h, reflection_proof(trace)) == trace.reflection


def test_graph_reflection_of_the_empty_graph_attaches_the_clique():
    g = GraphCategory()
    h = MorphismSet.of([("c3", g.mor(GraphHom(empty_graph(), clique(3), ())))])
    trace = reflect(g, h, g.obj(empty_graph()), max_rounds=8)
    assert trace.converged
    assert len(trace.rounds) == 1
    assert g.graph_of(trace.apex) == clique(3)
    assert verify_weak_reflection(g, h, trace, g.universe(3)).verified
    for rnd in trace.rounds:
        assert check_proof(g, h, round_proof(rnd)) == rnd.connecting


def test_non_converged_trace_is_reported_and_fails_verification():
    g = GraphCategory()
    h = MorphismSet.of([("c3", g.mor(GraphHom(empty_graph(), clique(3), ())))])
    trace = reflect(g, h, g.obj(empty_graph()), max_rounds=0)
    assert not trace.converged
    assert trace.rounds == ()
    report = verify_weak_reflection(g, h, trace, g.universe(3))
    assert not report.verified
    assert report.failing_witness.detail == "apex not injective for a hypothesis"


def hand_loop_report(cat, hyps, trace, universe):
    """Reference: the apex check, then every map from the start into each
    object injective for every hypothesis, factored one by one."""
    for _, m in hyps:
        if not cat.is_injective(trace.apex, m):
            return CoconeCheckReport(False, CoconeFailure(trace.apex, "apex not injective for a hypothesis", (m,)))
    for x in universe:
        if all(cat.is_injective(x, m) for m in hyps.morphisms()):
            for f in cat.enumerate_homs(trace.start, x):
                if cat.find_factorization(trace.reflection, f) is None:
                    return CoconeCheckReport(False, CoconeFailure(x, "no factorization through the reflection", (f,)))
    return CoconeCheckReport(True)


@pytest.mark.parametrize("seed", range(3))
def test_verification_names_the_first_map_that_does_not_factor(seed):
    # forged traces: a random map out of the start stands for the reflection
    rng = random.Random(seed)
    details = []
    for _ in range(30):
        g = GraphCategory()
        hyps = MorphismSet.of((f"h{k}", random_graph_mor(g, rng)) for k in range(rng.randint(0, 2)))
        reflection = random_graph_mor(g, rng)
        trace = ReflectionTrace(reflection.dom, (), reflection, "converged")
        report = verify_weak_reflection(g, hyps, trace, g.universe(3))
        assert report == hand_loop_report(g, hyps, trace, g.universe(3))
        details.append(report.failing_witness and report.failing_witness.detail)
    assert "no factorization through the reflection" in details and None in details


def test_consequence_via_reflection_derives_the_transported_goal():
    cat = diamond()
    h = MorphismSet.of([("p", cat.mor("0", "a"))])
    out = consequence_via_reflection(cat, h, cat.mor("b", "1"))
    assert out.status == "derived"
    assert check_proof(cat, h, out.proof) == cat.mor("b", "1")


def test_consequence_via_reflection_refutes_on_a_closed_category():
    cat = diamond()
    h = MorphismSet.of([("p", cat.mor("0", "a"))])
    out = consequence_via_reflection(cat, h, cat.mor("0", "b"))
    assert out.status == "not-consequence"
    assert out.proof is None


def test_consequence_via_reflection_uses_cancellation_for_proper_goals():
    cat = chain3()
    h = MorphismSet.of([("h", cat.mor("0", "2"))])
    out = consequence_via_reflection(cat, h, cat.mor("0", "1"))
    assert out.status == "derived"
    assert isinstance(out.proof, Cancel)
    assert check_proof(cat, h, out.proof) == cat.mor("0", "1")


def test_consequence_via_reflection_identity_goal_with_no_hypotheses():
    cat = chain3()
    out = consequence_via_reflection(cat, MorphismSet.of([]), cat.identity(cat.obj("2")))
    assert out.status == "derived"
    assert out.proof == Identity(cat.obj("2"))


def test_consequence_via_reflection_stays_inconclusive_on_open_graphs():
    g = GraphCategory()
    h = MorphismSet.of([("c3", g.mor(GraphHom(empty_graph(), clique(3), ())))])
    goal = g.mor(GraphHom(empty_graph(), loop_point(), ()))
    out = consequence_via_reflection(g, h, goal)
    assert out.status == "inconclusive"
    derived = consequence_via_reflection(g, h, h.get("c3"))
    assert derived.status == "derived"
    assert check_proof(g, h, derived.proof) == h.get("c3")


@given(st.integers(0, 10**6))
@settings(max_examples=20)
def test_reflection_route_agrees_with_saturation(seed):
    rng = random.Random(seed)
    cat = random_lattice(rng, max_size=6)
    h = random_hypotheses(rng, cat, max_count=4)
    derived = set(saturate(cat, h).derived)
    for goal in cat.all_morphisms():
        out = consequence_via_reflection(cat, h, goal)
        if goal in derived:
            assert out.status == "derived"
            assert check_proof(cat, h, out.proof) == goal
        else:
            assert out.status == "not-consequence"


def test_trace_rendering_is_stable():
    cat = diamond()
    h = MorphismSet.of([("p", cat.mor("0", "a"))])
    trace = reflect(cat, h, cat.obj("0"))
    assert trace_to_text(cat, trace) == (
        "reflection-trace\n"
        "start 0\n"
        "converged true\n"
        "rounds 1\n"
        "round 1 squares 1 -> a\n"
        "  square p along 0->0\n"
        "reflection 0->a\n"
    )


def test_a_round_is_one_attachment_and_no_pushout(monkeypatch):
    lat = diamond()
    lat_h = MorphismSet.of([("p", lat.mor("0", "a")), ("q", lat.mor("0", "b"))])
    g = GraphCategory()
    graph_h = MorphismSet.of([("e", g.mor(GraphHom(Graph.of(1), Graph.of(2, [(0, 1)]), (0,))))])
    cases = [(lat, lat_h, lat.obj("0")), (g, graph_h, g.obj(Graph.of(2)))]
    expected = [trace_to_text(cat, reflect(cat, h, start, max_rounds=3)) for cat, h, start in cases]

    def refuse(self, *args):
        raise AssertionError("reflection round staged through per-square pushouts")

    for cls in (LatticeCategory, GraphCategory):
        monkeypatch.setattr(cls, "pushout", refuse)
    assert [trace_to_text(cat, reflect(cat, h, start, max_rounds=3)) for cat, h, start in cases] == expected


def random_graph_reflection(rng):
    """A graph reflection of at most two rounds whose first round has
    several squares, from one or two hypotheses out of at most two nodes."""
    while True:
        g = GraphCategory()
        hyps = []
        for i in range(rng.randint(1, 2)):
            dom = g.obj(random_graph(rng, max_nodes=2))
            homs = g.enumerate_homs(dom, g.obj(random_graph(rng, max_nodes=3)))
            if homs:
                hyps.append((f"h{i}", rng.choice(homs)))
        h = MorphismSet.of(hyps)
        trace = reflect(g, h, g.obj(random_graph(rng, max_nodes=3)), max_rounds=2)
        if trace.rounds and len(trace.rounds[0].squares) > 1:
            return g, h, trace


@given(st.integers(0, 10**6))
@settings(max_examples=30)
def test_graph_rounds_are_the_staged_wide_pushout_of_their_squares(seed):
    g, h, trace = random_graph_reflection(random.Random(seed))
    for rnd in trace.rounds:
        pushed = [g.pushout(h.get(name), f)[0] for name, f in rnd.squares]
        assert rnd.connecting == staged_wide_pushout(g, pushed).composite
        assert check_proof(g, h, round_proof(rnd)) == rnd.connecting


def test_a_round_of_600_squares_rechecks():
    # each of the 600 nodes gets a loop in one round; the elaborated
    # round nests two terms per square
    n = 600
    g = GraphCategory()
    h = MorphismSet.of([("loop", g.mor(GraphHom(Graph.of(1), loop_point(), (0,))))])
    goal = g.mor(GraphHom(Graph.of(n), Graph.of(n, [(i, i) for i in range(n)]), tuple(range(n))))
    out = consequence_via_reflection(g, h, goal)
    assert out.status == "derived"
    assert [len(rnd.squares) for rnd in out.trace.rounds] == [n]
    assert check_proof(g, h, out.proof) == goal


def point_to_edge():
    g = GraphCategory()
    h = MorphismSet.of([("e", g.mor(GraphHom(Graph.of(1), Graph.of(2, [(0, 1)]), (0,))))])
    return g, h, g.obj(Graph.of(1))


@pytest.mark.parametrize("node_cap, rounds", [(16, 4), (15, 3), (1, 0)])
def test_node_cap_stops_before_a_round_whose_apex_could_exceed_it(node_cap, rounds):
    # every round doubles the object: 1, 2, 4, 8, 16, ... nodes
    g, h, start = point_to_edge()
    known = len(g._graphs)
    trace = reflect(g, h, start, node_cap=node_cap)
    assert trace.stop_reason == "node_cap"
    assert not trace.converged
    assert len(trace.rounds) == rounds
    assert g.object_size(trace.apex) == 2**rounds
    # no graph the reflection made exceeds the cap
    assert all(graph.node_count <= node_cap for graph in g._graphs[known:])
    assert check_proof(g, h, reflection_proof(trace)) == trace.reflection


def test_stop_reasons_name_the_budget_or_the_fixpoint():
    g, h, start = point_to_edge()
    assert reflect(g, h, start, max_rounds=3).stop_reason == "max_rounds"
    assert reflect(g, h, start, max_rounds=0).stop_reason == "max_rounds"
    cat = diamond()
    p = MorphismSet.of([("p", cat.mor("0", "a"))])
    for max_rounds in (1, 16):
        trace = reflect(cat, p, cat.obj("0"), max_rounds=max_rounds)
        assert (trace.stop_reason, trace.converged) == ("converged", True)
    assert reflect(cat, p, cat.obj("0"), max_rounds=0).stop_reason == "max_rounds"


@pytest.mark.parametrize("budget", ["max_rounds", "node_cap"])
def test_reflect_refuses_a_negative_budget(budget):
    cat = diamond()
    p = MorphismSet.of([("p", cat.mor("0", "a"))])
    with pytest.raises(ValueError, match=f"^{budget} must be non-negative, got -3$"):
        reflect(cat, p, cat.obj("0"), **{budget: -3})


def test_the_default_node_cap_bounds_the_point_to_edge_trace():
    # unbounded, 16 rounds reach 65,536 nodes and a trace of about 13 GB
    g, h, start = point_to_edge()
    trace = reflect(g, h, start)
    assert (trace.stop_reason, len(trace.rounds)) == ("node_cap", 10)
    assert g.object_size(trace.apex) == 1024
    assert len(trace_to_text(g, trace)) < 3 * 2**20
    out = consequence_via_reflection(g, h, h.get("e"))
    assert out.status == "inconclusive" and out.trace.stop_reason == "node_cap"


@given(st.integers(0, 10**6))
@settings(max_examples=40)
def test_attach_size_bounds_the_apex(seed):
    rng = random.Random(seed)
    g = GraphCategory()
    x = g.obj(random_graph(rng, max_nodes=3))
    squares = []
    for _ in range(rng.randint(0, 3)):
        dom = g.obj(random_graph(rng, max_nodes=2))
        hs = g.enumerate_homs(dom, g.obj(random_graph(rng, max_nodes=3)))
        fs = g.enumerate_homs(dom, x)
        if hs and fs:
            squares.append((rng.choice(hs), rng.choice(fs)))
    bound = g.attach_size(x, squares)
    size = g.object_size(g.attach(x, squares).composite.cod)
    assert size <= bound
    if all(len(set(h.payload.mapping)) == len(h.payload.mapping) for h, _ in squares):
        assert size == bound  # no node of x merges unless some h merges nodes

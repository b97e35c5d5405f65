import random
import re
from itertools import islice

import pytest
from hypothesis import given, strategies as st

from injlog.core import (
    Category,
    CategoryError,
    MorphismSet,
    MorphismSetError,
    MorRef,
    ObjRef,
    WidePushoutResult,
    semantic_consequence,
)
from injlog import kernels
from injlog.graphs import Graph, GraphCategory, GraphHom, clique, empty_graph, loop_point
from injlog.proofs import Hyp, WidePushN, check_proof
from injlog.lattice import (
    LatticeCategory,
    presentation_from_pairs,
    random_lattice,
)
import oracles
from oracles import random_graph, random_hypotheses, random_union, verify_pushout_square, wide_pushout
from test_graphs import forged_graph_refs
from test_kernels import product_homs
from test_lattice import forged_morphisms


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


def test_morphism_set_keeps_declaration_order():
    cat = chain3()
    h = MorphismSet.of([("q", cat.mor("1", "2")), ("p", cat.mor("0", "1"))])
    assert h.names() == ["q", "p"]
    assert h.get("p") == cat.mor("0", "1")
    assert h.get("absent") is None
    assert len(h) == 2


def test_morphism_set_rejects_duplicate_names():
    cat = chain3()
    with pytest.raises(MorphismSetError):
        MorphismSet.of([("p", cat.mor("0", "1")), ("p", cat.mor("1", "2"))])


@pytest.mark.parametrize(
    "entry",
    [("h", 3), (1, "m"), ("h",), ("h", "m", "m"), "hm", ["h", "m"]],
    ids=["int-morphism", "int-name", "one-item", "three-items", "string", "list"],
)
def test_morphism_set_refuses_malformed_entries(entry):
    # "m" stands for a real morphism ref; a bare 3 used to raise
    # AttributeError, and an int name was accepted
    m = chain3().mor("0", "1")
    if not isinstance(entry, str):
        entry = type(entry)(m if v == "m" else v for v in entry)
    with pytest.raises(MorphismSetError, match="is not a \\(name, MorRef\\) pair"):
        MorphismSet.of([("g", m), entry])


def test_morphism_set_rejects_mixed_categories():
    cat = chain3()
    g = GraphCategory()
    m = g.mor(GraphHom.identity(loop_point()))
    with pytest.raises(MorphismSetError):
        MorphismSet.of([("p", cat.mor("0", "1")), ("m", m)])


def test_morphism_set_refuses_a_plain_tuple_of_a_refs_fields():
    m = chain3().mor("0", "1")
    with pytest.raises(MorphismSetError, match="is not a \\(name, MorRef\\) pair"):
        MorphismSet.of([("h", (m.dom, m.cod, m.payload))])


def test_refs_hash_as_the_tuples_of_their_fields():
    # what keeps the iteration order of sets and dicts of refs fixed
    hom = GraphHom(Graph.of(1), Graph.of(2, [(0, 1)]), (1,))
    for m in [chain3().mor("0", "2"), GraphCategory().mor(hom)]:
        assert hash(m.dom) == hash((m.dom.cat_id, m.dom.index))
        assert hash(m) == hash((m.dom, m.cod, m.payload))
    # and so do a graph ref's payload and its graphs
    for g in (hom.source, hom.target):
        assert hash(g) == hash((g.node_count, g.edges))
    assert hash(hom) == hash((hom.source, hom.target, hom.mapping))


def test_refs_repr_with_their_field_names():
    # proof-term reprs and engine dumps print refs this way
    cat = chain3()
    c = repr(cat.cat_id)
    assert repr(cat.obj("1")) == f"ObjRef(cat_id={c}, index=1)"
    assert repr(cat.mor("1", "2")) == (
        f"MorRef(dom=ObjRef(cat_id={c}, index=1), cod=ObjRef(cat_id={c}, index=2), payload=(1, 2))"
    )
    graphs = GraphCategory()
    g = repr(graphs.cat_id)
    assert repr(graphs.mor(GraphHom(Graph.of(1), Graph.of(2, [(0, 1)]), (1,)))) == (
        f"MorRef(dom=ObjRef(cat_id={g}, index=0), cod=ObjRef(cat_id={g}, index=1), "
        "payload=GraphHom(source=Graph(1, []), target=Graph(2, [(0, 1)]), mapping=(1,)))"
    )


def test_wide_pushout_of_diamond_legs_is_join():
    cat = diamond()
    mors = [cat.mor("0", "a"), cat.mor("0", "b")]
    res = wide_pushout(cat, mors)
    assert res.composite == cat.mor("0", "1")
    assert res.apex == cat.obj("1")
    for inj, m in zip(res.injections, mors):
        assert cat.compose(inj, m) == res.composite


def test_wide_pushout_single_morphism_is_identity_injection():
    cat = chain3()
    m = cat.mor("0", "2")
    res = wide_pushout(cat, [m])
    assert res.composite == m
    assert res.injections == (cat.identity(cat.obj("2")),)


def staged_wide_pushout(cat, mors):
    """Reference: fold binary pushouts, recomposing every earlier injection
    with each connector (quadratic in the legs)."""
    composite = mors[0]
    injections = [cat.identity(mors[0].cod)]
    for m in mors[1:]:
        # the leg opposite the running composite becomes m's injection
        new_inj, connector = cat.pushout(composite, m)
        injections = [cat.compose(connector, k) for k in injections]
        injections.append(new_inj)
        composite = cat.compose(new_inj, m)
    return WidePushoutResult(composite, tuple(injections))


def lattice_fan(rng, count):
    cat = random_lattice(rng, max_size=6)
    dom = rng.choice(cat.objects())
    out = [m for m in cat.all_morphisms() if m.dom == dom]
    return cat, [rng.choice(out) for _ in range(count)]


def graph_fan(rng, count):
    """Legs out of a random graph with at most two nodes."""
    g = GraphCategory()
    dom = g.obj(random_graph(rng, max_nodes=2))
    legs = []
    while len(legs) < count:
        homs = g.enumerate_homs(dom, g.obj(random_graph(rng, max_nodes=3)))
        if homs:
            legs.append(rng.choice(homs))
    return g, legs


@given(st.integers(0, 10**6), st.integers(1, 5))
def test_wide_pushout_injections_close_the_fan(seed, count):
    rng = random.Random(seed)
    for cat, mors in (lattice_fan(rng, count), graph_fan(rng, count)):
        res = wide_pushout(cat, mors)
        assert res == staged_wide_pushout(cat, mors)
        for inj, m in zip(res.injections, mors):
            assert cat.compose(inj, m) == res.composite
        if count == 2:
            assert res.apex == cat.pushout(*mors)[0].cod
        hyps = MorphismSet.of((f"m{i}", m) for i, m in enumerate(mors))
        term = WidePushN(tuple(Hyp(name) for name in hyps.names()))
        assert check_proof(cat, hyps, term) == res.composite


def test_wide_pushout_glues_in_one_category_operation(monkeypatch):
    rng = random.Random(5)
    fans = [lattice_fan(rng, 4), graph_fan(rng, 4)]
    expected = [staged_wide_pushout(cat, mors) for cat, mors in fans]

    def refuse(self, *args):
        raise AssertionError("wide pushout staged through pushout or compose")

    for cls in (LatticeCategory, GraphCategory):
        monkeypatch.setattr(cls, "pushout", refuse)
        monkeypatch.setattr(cls, "compose", refuse)
    assert [wide_pushout(cat, mors) for cat, mors in fans] == expected


def test_semantic_consequence_exact_labels():
    cat = diamond()
    h = MorphismSet.of([("p", cat.mor("0", "a"))])
    holds = semantic_consequence(
        cat, h, cat.mor("0", "a"), cat.search_universe(), exact=True
    )
    assert holds.holds and holds.label() == "holds"
    refuted = semantic_consequence(
        cat, h, cat.mor("0", "b"), cat.search_universe(), exact=True
    )
    assert not refuted.holds
    assert refuted.label() == "counterexample"
    assert refuted.counterexample == cat.obj("a")


def test_semantic_consequence_bounded_label():
    g = GraphCategory()
    goal = g.mor(GraphHom.identity(loop_point()))
    verdict = semantic_consequence(
        g, MorphismSet.of([]), goal, g.universe(2), exact=False, bound=2
    )
    assert verdict.holds
    assert verdict.label() == "holds-up-to(2)"


def test_semantic_consequence_refuses_foreign_refs_the_walk_never_tests():
    # the walk tests a hypothesis only where the goal fails, and the goal
    # only on universe objects: an identity goal fails nowhere, and an
    # empty universe has no object
    cat = chain3()
    foreign = diamond().mor("0", "a")
    with pytest.raises(CategoryError):
        semantic_consequence(
            cat, MorphismSet.of([("p", foreign)]), cat.identity(cat.obj("0")), cat.objects(), exact=True
        )
    with pytest.raises(CategoryError):
        semantic_consequence(cat, MorphismSet.of([]), foreign, [], exact=True)


def test_pushout_square_commutes_and_is_universal_on_lattice():
    cat = diamond()
    h, f = cat.mor("0", "a"), cat.mor("0", "b")
    h_prime, f_prime = cat.pushout(h, f)
    assert cat.compose(h_prime, f) == cat.compose(f_prime, h)
    report = verify_pushout_square(cat, h, f, cat.search_universe())
    assert report.verified
    assert report.failing_witness is None


def test_pushout_square_universal_on_graphs():
    g = GraphCategory()
    node = Graph.of(1)
    edge = Graph.of(2, [(0, 1)])
    h = g.mor(GraphHom(node, edge, (0,)))
    f = g.mor(GraphHom(node, loop_point(), (0,)))
    report = verify_pushout_square(g, h, f, g.universe(3))
    assert report.verified


@given(st.integers(0, 10**6))
def test_pushout_square_universal_on_random_lattices(seed):
    rng = random.Random(seed)
    cat = random_lattice(rng, max_size=5)
    mors = cat.all_morphisms()
    h = rng.choice(mors)
    candidates = [m for m in mors if m.dom == h.dom]
    f = rng.choice(candidates)
    assert verify_pushout_square(cat, h, f, cat.search_universe()).verified


@pytest.mark.parametrize("question", ["find_factorization", "is_injective", "cancellations"])
def test_each_category_answers_the_three_injectivity_questions_itself(question):
    # a body for every other abstract method, so only the question is missing
    body = lambda self, *args: None  # noqa: E731
    others = {name: body for name in Category.__abstractmethods__ if name != question}
    with pytest.raises(TypeError, match=question):
        type("WithoutIt", (Category,), others)()
    type("WithIt", (Category,), {**others, question: body})()


@pytest.mark.parametrize("member", ["_glue", "_check_obj", "_check_mor"])
def test_each_category_builds_its_glue_and_checks_its_refs_itself(member):
    # the colimits and the input checks written on Category call these
    body = lambda self, *args: None  # noqa: E731
    others = {name: body for name in Category.__abstractmethods__ if name != member}
    with pytest.raises(TypeError, match=member):
        type("WithoutIt", (Category,), others)()
    type("WithIt", (Category,), {**others, member: body})()


def test_categories_write_no_colimit_but_their_glue():
    for cls in (GraphCategory, LatticeCategory):
        assert "_glue" in cls.__dict__
        for name in ("attach", "coproduct", "cotuple", "pushout", "coproduct_morphism"):
            assert name not in cls.__dict__


def two_categories():
    """(category, a leg into one of its objects, an object of another
    category) for a lattice and for graphs."""
    lattice = diamond()
    graphs = GraphCategory()
    return [
        (lattice, lattice.mor("0", "a"), chain3().obj("1")),
        (graphs, graphs.mor(GraphHom(Graph.of(1), clique(2), (0,))), GraphCategory().obj(clique(3))),
    ]


@pytest.mark.parametrize("case", [0, 1], ids=["lattice", "graph"])
def test_cotuple_refuses_a_foreign_target_before_its_legs(case):
    # the target is checked first, so a leg into another object does not
    # decide the error
    cat, leg, foreign = two_categories()[case]
    message = f"^{re.escape(f'object {foreign} is not from {cat.cat_id}')}$"
    for legs in ([], [leg], [leg, leg]):
        with pytest.raises(CategoryError, match=message):
            cat.cotuple(legs, foreign)


@pytest.mark.parametrize("case", [0, 1], ids=["lattice", "graph"])
def test_compose_refuses_maps_that_do_not_meet(case):
    cat, leg, _ = two_categories()[case]
    message = "^composability mismatch: cod of inner != dom of outer$"
    with pytest.raises(CategoryError, match=message):
        cat.compose(leg, leg)
    with pytest.raises(CategoryError, match=message):
        cat.compose(cat.identity(leg.dom), cat.identity(leg.cod))


def test_find_factorization_prefers_canonical_order():
    cat = chain3()
    assert cat.find_factorization(cat.mor("0", "1"), cat.mor("0", "2")) == cat.mor(
        "1", "2"
    )
    assert cat.find_factorization(cat.mor("0", "2"), cat.mor("0", "1")) is None


def test_find_factorization_needs_common_domain():
    cat = chain3()
    with pytest.raises(CategoryError):
        cat.find_factorization(cat.mor("1", "2"), cat.mor("0", "1"))


def test_generic_injectivity_agrees_with_lattice_shortcut():
    cat = diamond()
    for x in cat.objects():
        for h in cat.all_morphisms():
            fast = cat.is_injective(x, h)
            slow = oracles.generic_is_injective(cat, x, h)
            assert fast.holds == slow.holds
            if not fast.holds:
                assert fast.counterexample == slow.counterexample


@given(st.integers(0, 10**6))
def test_generic_injectivity_agrees_on_random_lattices(seed):
    rng = random.Random(seed)
    cat = random_lattice(rng, max_size=6)
    hyps = random_hypotheses(rng, cat, max_count=4)
    x = rng.choice(cat.objects())
    for h in hyps.morphisms():
        assert cat.is_injective(x, h).holds == oracles.generic_is_injective(cat, x, h).holds


def test_enumerate_homs_respects_limit():
    g = GraphCategory()
    a = g.obj(Graph.of(1))
    x = g.obj(Graph.of(3, [(i, j) for i in range(3) for j in range(3)]))
    homs = g.enumerate_homs(a, x)
    assert len(homs) == 3
    for k in range(5):
        assert g.enumerate_homs(a, x, limit=k) == homs[:k]


def test_object_size_and_labels():
    cat = chain3()
    assert cat.object_size(cat.obj("1")) == 1
    assert cat.object_label(cat.obj("1")) == "1"
    assert cat.morphism_label(cat.mor("0", "2")) == "0->2"
    g = GraphCategory()
    assert g.object_size(g.obj(Graph.of(3))) == 3


def free_homs(a: Graph, x: Graph) -> list[tuple[int, ...]]:
    return product_homs(a, x, [-1] * a.node_count)


def product_injective(x: Graph, h: GraphHom) -> bool:
    """Brute force: every map dom h -> x is some map cod h -> x after h."""
    extended = {tuple(g[v] for v in h.mapping) for g in free_homs(h.target, x)}
    return all(f in extended for f in free_homs(h.source, x))


def hypothesis_first(hyps, goal, universe, injective):
    """Reference walk: the first object injective for every hypothesis
    (tested first) and not for the goal, or None."""
    for x in universe:
        if all(injective(x, m) for m in hyps.morphisms()) and not injective(x, goal):
            return x
    return None


def random_graph_mor(g: GraphCategory, rng: random.Random) -> MorRef:
    """A random map from a graph of up to 2 nodes into one of up to 3."""
    while True:
        homs = free_homs(dom := random_graph(rng, max_nodes=2), cod := random_graph(rng, max_nodes=3))
        if homs:
            return g.mor(GraphHom(dom, cod, rng.choice(homs)))


@pytest.mark.parametrize("seed", range(4))
def test_consequence_agrees_with_a_hypothesis_first_walk(seed):
    rng = random.Random(seed)
    for _ in range(10):
        g = GraphCategory()
        hyps = MorphismSet.of((f"h{k}", random_graph_mor(g, rng)) for k in range(rng.randint(0, 2)))
        goal = random_graph_mor(g, rng)
        universe = list(g.universe(3))
        verdict = semantic_consequence(g, hyps, goal, universe, exact=False, bound=3)
        witness = hypothesis_first(
            hyps, goal, universe, lambda x, m: product_injective(g.graph_of(x), m.payload)
        )
        assert verdict.counterexample == witness
        assert verdict.label() == ("counterexample" if witness else "holds-up-to(3)")
    for i in range(25):
        cat = random_lattice(rng, max_size=7, name=f"L{i}")
        hyps = random_hypotheses(rng, cat, max_count=6)
        leq = cat.p.leq
        # on a lattice, x is injective for a -> b iff a <= x implies b <= x
        injective = lambda x, m: not leq[m.dom.index, x.index] or leq[m.cod.index, x.index]
        for goal in cat.all_morphisms():
            verdict = semantic_consequence(cat, hyps, goal, cat.objects(), exact=True)
            witness = hypothesis_first(hyps, goal, cat.objects(), injective)
            assert verdict.counterexample == witness
            assert verdict.label() == ("counterexample" if witness else "holds")


def test_an_exact_verdict_needs_a_closed_universe():
    # K3 refutes {e->K3} |= e->loop at 3 nodes, so "holds" over the graphs
    # of up to 2 nodes is no exact verdict
    g = GraphCategory()
    hyps = MorphismSet.of([("c3", g.mor(GraphHom(empty_graph(), clique(3), ())))])
    goal = g.mor(GraphHom(empty_graph(), loop_point(), ()))
    with pytest.raises(ValueError, match="no closed universe"):
        semantic_consequence(g, hyps, goal, g.universe(2), exact=True)
    assert semantic_consequence(g, hyps, goal, g.universe(2), exact=False, bound=2).label() == "holds-up-to(2)"
    assert semantic_consequence(g, hyps, goal, g.universe(3), exact=False, bound=3).label() == "counterexample"


def test_consequence_tests_hypotheses_only_where_the_goal_fails(monkeypatch):
    g = GraphCategory()
    hyps = MorphismSet.of((f"c{k}", g.mor(GraphHom(empty_graph(), clique(k), ()))) for k in range(1, 5))
    goal = g.mor(GraphHom(empty_graph(), loop_point(), ()))
    goal_fails: set = set()
    tested = []  # per hypothesis test: whether x had already failed the goal

    def recording(x, h):
        if h != goal:
            tested.append(x in goal_fails)
        result = GraphCategory.is_injective(g, x, h)
        if h == goal and not result:
            goal_fails.add(x)
        return result

    monkeypatch.setattr(g, "is_injective", recording)
    verdict = semantic_consequence(g, hyps, goal, g.universe(3), exact=False, bound=3)
    assert verdict.label() == "holds-up-to(3)"
    assert tested and all(tested)


# --- cancellations and injectivity against brute force -----------------------


def product_cancellations(m: GraphHom, x: Graph, limit: int | None) -> list:
    """Brute force: the (first, rest) mappings with rest after first = m,
    first over product-order homs dom m -> x and rest the first such hom
    x -> cod m; [None] when those homs reach limit."""
    firsts = free_homs(m.source, x)
    if limit is not None and len(firsts) >= limit:
        return [None]
    pairs = []
    rests = free_homs(x, m.target)
    for first in firsts:
        rest = next((r for r in rests if all(r[w] == v for w, v in zip(first, m.mapping))), None)
        if rest is not None:
            pairs.append((first, rest))
    return pairs


def product_counterexample(x: Graph, h: GraphHom) -> tuple[int, ...] | None:
    """Brute force: the first product-order map dom h -> x that does not
    extend along h, or None."""
    extended = {tuple(g[v] for v in h.mapping) for g in free_homs(h.target, x)}
    return next((f for f in free_homs(h.source, x) if f not in extended), None)


def premises(g: GraphCategory, rng: random.Random) -> list[MorRef]:
    """Random graph premises of every kind the pins must handle: identities,
    maps out of the empty graph, maps that merge nodes and any map."""
    found = []
    while len(found) < 4:
        dom, cod = random_graph(rng), random_graph(rng)
        homs = free_homs(dom, cod)
        merging = [h for h in homs if len(set(h)) < len(h)]
        found += [g.identity(g.obj(dom)), g.mor(GraphHom(empty_graph(), cod, ()))]
        found += [g.mor(GraphHom(dom, cod, rng.choice(pool))) for pool in (merging, homs) if pool]
    return found


def pairs_of(answers) -> list:
    """The mappings of each (first, rest) pair; None stays None."""
    return [pair and (pair[0].payload.mapping, pair[1].payload.mapping) for pair in answers]


@pytest.mark.parametrize("seed", range(4))
def test_graph_cancellations_match_the_generic_loop_and_brute_force(seed):
    rng = random.Random(seed)
    g = GraphCategory()
    merged = 0
    for _ in range(15):
        x = g.obj(random_graph(rng))
        for m in premises(g, rng):
            limit = rng.choice([None, None, 0, 1, 2, 3, 5])
            fast = list(g.cancellations(m, [x], limit))
            assert fast == list(oracles.generic_cancellations(g, m, [x], limit))
            assert pairs_of(fast) == product_cancellations(m.payload, g.graph_of(x), limit)
            for first, rest in filter(None, fast):
                assert (first.dom, first.cod, rest.dom, rest.cod) == (m.dom, x, x, m.cod)
                assert g.compose(rest, first) == m
            merged += len(set(m.payload.mapping)) < len(m.payload.mapping)
    assert merged


@pytest.mark.parametrize("seed", range(4))
def test_graph_injectivity_matches_the_generic_loop_and_brute_force(seed):
    rng = random.Random(seed)
    g = GraphCategory()
    for _ in range(15):
        x = g.obj(random_graph(rng))
        for h in premises(g, rng):
            fast = g.is_injective(x, h)
            slow = oracles.generic_is_injective(g, x, h)
            assert (fast.holds, fast.counterexample) == (slow.holds, slow.counterexample)
            witness = product_counterexample(g.graph_of(x), h.payload)
            assert fast.holds == (witness is None)
            if witness is not None:
                assert fast.counterexample.payload.mapping == witness
                assert (fast.counterexample.dom, fast.counterexample.cod) == (h.dom, x)


# --- searches out of graphs in parts -----------------------------------------


def union_premises(g: GraphCategory, rng: random.Random) -> list[MorRef]:
    """Premises whose codomain is a random disjoint union: its identity, the
    map from the empty graph and a random map into it."""
    found = []
    while len(found) < 4:
        dom, cod = random_graph(rng, 2), random_union(rng, 3, 2)
        homs = free_homs(dom, cod)
        found += [g.identity(g.obj(cod)), g.mor(GraphHom(empty_graph(), cod, ()))]
        if homs:
            found.append(g.mor(GraphHom(dom, cod, rng.choice(homs))))
    return found


@pytest.mark.parametrize("seed", range(4))
def test_graph_extensions_through_unions_match_the_generic_loops_and_brute_force(seed):
    rng = random.Random(seed)
    g = GraphCategory()
    through = 0  # factorizations found through a cod h in several parts
    for _ in range(10):
        x = g.obj(random_graph(rng))
        for h in union_premises(g, rng):
            fast = g.is_injective(x, h)
            slow = oracles.generic_is_injective(g, x, h)
            assert (fast.holds, fast.counterexample) == (slow.holds, slow.counterexample)
            witness = product_counterexample(g.graph_of(x), h.payload)
            assert fast.holds == (witness is None)
            if witness is not None:
                assert fast.counterexample.payload.mapping == witness
            for f in g.enumerate_homs(h.dom, x, 6):
                rest = g.find_factorization(h, f)
                assert rest == oracles.generic_find_factorization(g, h, f)
                through += rest is not None and len(h.payload.target.parts) > 1
    assert through


def whole_cancellations(m: GraphHom, x: Graph, limit: int | None) -> list:
    """The (first, rest) mappings with each rest found by one search over
    all of x, pinned at the image of first; [None] when the firsts reach
    limit."""
    firsts = list(islice(kernels.homs(m.source, x), limit))
    if len(firsts) == limit:
        return [None]
    pairs = []
    for first in firsts:
        pinned: dict[int, int] = {}
        if all(pinned.setdefault(w, v) == v for w, v in zip(first, m.mapping)):
            rest = next(kernels.homs(x, m.target, [pinned.get(w, -1) for w in range(x.node_count)]), None)
            if rest is not None:
                pairs.append((first, rest))
    return pairs


@pytest.mark.parametrize("seed", range(2))
def test_graph_cancellations_on_objects_in_parts_match_the_oracles(seed):
    rng = random.Random(seed)
    g = GraphCategory()
    k1, k2, k3, k4 = (g.obj(clique(n)) for n in range(1, 5))

    def union(*parts):
        return g.coproduct(parts)[0]

    unions = [union(k3, k4), union(k4, k4), union(k3, k3, k1)]
    premises_in_parts = [
        g.identity(union(k3, k4)),
        g.identity(union(k1, k2)),
        g.identity(union(k3, k1)),
        g.mor(GraphHom(empty_graph(), clique(3), ())),
        g.mor(GraphHom(Graph.of(1), clique(3), (2,))),
        g.mor(GraphHom(g.graph_of(union(k2, k1)), clique(3), (0, 1, 0))),  # merges two nodes
        g.coproduct([k2, k1])[1][0],
        g.coproduct([k3, k2])[1][1],
        *union_premises(g, rng),
    ]
    answered = dropped = listed = 0
    for m in premises_in_parts:
        for limit in (None, 0, 1, 2, 3):
            objects = [*unions, *rng.sample(unions, 2)]
            fast = list(g.cancellations(m, objects, limit))
            assert fast == list(oracles.generic_cancellations(g, m, objects, limit))
            want = [p for x in objects for p in whole_cancellations(m.payload, g.graph_of(x), limit)]
            assert pairs_of(fast) == want
            for x in unions:
                # the product order, where the maps x -> cod m are few enough to list
                xg = g.graph_of(x)
                if m.payload.target.node_count ** xg.node_count <= 7000:
                    assert pairs_of(g.cancellations(m, [x], limit)) == product_cancellations(m.payload, xg, limit)
                    listed += 1
            answered += sum(pair is not None for pair in fast)
            pool = [f for x in set(objects) for f in g.enumerate_homs(m.dom, x, 40)]
            dropped += check_held(
                lambda held: g.cancellations(m, objects, limit, held), fast, first_of, pool, rng
            )
    assert answered and dropped and listed


@pytest.mark.parametrize("seed", range(4))
def test_lattice_cancellations_match_the_generic_loop_and_the_order(seed):
    rng = random.Random(seed)
    for i in range(10):
        cat = random_lattice(rng, max_size=7, name=f"L{i}")
        leq = cat.p.leq
        for m in cat.all_morphisms():
            a, b = m.dom.index, m.cod.index
            for x in cat.objects():
                for limit in (None, 0, 1, 2):
                    fast = list(cat.cancellations(m, [x], limit))
                    assert fast == list(oracles.generic_cancellations(cat, m, [x], limit))
                    # one hom a -> x when a <= x; m factors through it when x <= b
                    if limit is not None and int(leq[a, x.index]) >= limit:
                        assert fast == [None]
                    elif leq[a, x.index] and leq[x.index, b]:
                        assert fast == [(cat.mor(a, x.index), cat.mor(x.index, b))]
                    else:
                        assert fast == []


def test_cancellations_return_none_exactly_when_the_listing_reaches_limit():
    g = GraphCategory()
    point, edge = g.obj(Graph.of(1)), g.obj(Graph.of(2, [(0, 1)]))
    # the point maps into the edge twice
    for m in (g.identity(point), g.mor(GraphHom(Graph.of(1), Graph.of(2, [(0, 1)]), (1,)))):
        assert list(g.cancellations(m, [edge], 2)) == [None]
        listed = list(g.cancellations(m, [edge], 3))
        assert listed != [None] and listed == list(g.cancellations(m, [edge]))
        assert listed == list(oracles.generic_cancellations(g, m, [edge], 3))
    # only the second hom: no map edge -> edge sends the tail onto the head
    assert [first.payload.mapping for first, _ in listed] == [(1,)]
    cat = chain3()
    m = cat.mor("0", "2")
    assert list(cat.cancellations(m, [cat.obj("1")], 1)) == [None]
    assert list(cat.cancellations(m, [cat.obj("1")], 2)) == [(cat.mor("0", "1"), cat.mor("1", "2"))]


@pytest.mark.parametrize("kind", ["lattice", "graph"])
def test_pushouts_refuse_a_forged_premise_with_no_hom_to_try(kind):
    # the premise is refused before any object is read: with no object at
    # all, and with the least one (the empty graph, the bottom), which most
    # premises have no hom into, so no pushout is built to refuse it
    if kind == "graph":
        cat = GraphCategory()
        edge, swapped = Graph.of(2, [(0, 1)]), Graph.of(2, [(1, 0)])
        cat.obj(swapped)
        _, forged = forged_graph_refs(cat, edge, swapped)
        least = cat.obj(empty_graph())
    else:
        cat = diamond()
        forged = forged_morphisms(cat)
        least = cat.obj("0")
    for objects in ([], [least]):
        for h in forged:
            with pytest.raises(CategoryError):
                list(cat.pushouts(h, objects))


# --- the rule questions per premise, over lists of objects -------------------


def object_list(rng: random.Random, pool: list, over_cap) -> list:
    """Objects of pool in random order, with repeats, and over_cap in the
    middle."""
    objects = [rng.choice(pool) for _ in range(rng.randint(0, 6))]
    objects.insert(len(objects) // 2, over_cap)
    return objects


def product_pushouts(g: GraphCategory, h: MorRef, x, limit: int | None) -> list:
    """Brute force: each product-order hom f: dom h -> x with the leg of
    pushout(h, f) opposite h; [None] when those homs reach limit."""
    homs = free_homs(h.payload.source, g.graph_of(x))
    if limit is not None and len(homs) >= limit:
        return [None]
    fs = [g.mor(GraphHom(h.payload.source, g.graph_of(x), f)) for f in homs]
    return [(f, g.pushout(h, f)[0]) for f in fs]


@pytest.mark.parametrize("seed", range(4))
def test_graph_rules_per_premise_match_the_generic_loops_and_brute_force(seed):
    rng = random.Random(seed)
    g = GraphCategory()
    pool = [g.obj(random_graph(rng)) for _ in range(6)] + [g.obj(clique(4))]
    # every map into the looped 3-clique is a hom: 3^|dom| of them
    full = g.obj(Graph.of(3, [(i, j) for i in range(3) for j in range(3)]))
    capped = 0
    for _ in range(6):
        for m in premises(g, rng):
            for limit in (None, 1, 2, 3):
                objects = object_list(rng, pool, full)
                fast = list(g.cancellations(m, objects, limit))
                assert fast == list(oracles.generic_cancellations(g, m, objects, limit))
                want = [p for x in objects for p in product_cancellations(m.payload, g.graph_of(x), limit)]
                assert pairs_of(fast) == want
                pushed = list(g.pushouts(m, objects, limit))
                assert pushed == [p for x in objects for p in product_pushouts(g, m, x, limit)]
                for f, h_prime in filter(None, pushed):
                    assert f.dom == m.dom and h_prime.dom == f.cod
                capped += None in fast
    assert capped


def test_graph_cancellations_skip_objects_with_no_hom_into_cod_m(monkeypatch):
    g = GraphCategory()
    k3, k4 = g.obj(clique(3)), g.obj(clique(4))
    pinned = []  # the middle graph of each pinned rest search
    starts = []  # the source graph of every search

    def counting(src, dst, pins=None):
        starts.append(src)
        if pins is not None:
            pinned.append(src)
        return homs(src, dst, pins)

    homs = kernels.homs
    monkeypatch.setattr(kernels, "homs", counting)
    searched = 0
    # K2+K4 has rows from K3, and its K2 part maps into K3 but its K4 part
    # does not: the existence test is a count, part by part, so no search,
    # pinned or not, starts from the union
    union = g.coproduct([g.obj(clique(2)), k4])[0]
    m = g.identity(k3)
    for limit in (None, 1, 2, 3):
        starts.clear()
        fast = list(g.cancellations(m, [union], limit))
        assert g.graph_of(union) not in starts
        assert fast == list(oracles.generic_cancellations(g, m, [union], limit))
        assert pairs_of(fast) == product_cancellations(m.payload, g.graph_of(union), limit)
    # K4 has rows from each dom m but no map into K3, so no rest at all
    for m in (
        g.mor(GraphHom(Graph.of(1), clique(3), (2,))),
        g.mor(GraphHom(empty_graph(), clique(3), ())),
        g.identity(k3),
    ):
        for limit in (None, 2, 3, 30):
            objects = [k4, k3, k4]
            pinned.clear()
            fast = list(g.cancellations(m, objects, limit))
            assert clique(4) not in pinned
            searched += len(pinned)
            assert fast == list(oracles.generic_cancellations(g, m, objects, limit))
            want = [p for x in objects for p in product_cancellations(m.payload, g.graph_of(x), limit)]
            assert pairs_of(fast) == want
            assert list(g.cancellations(m, [k4], limit)) in ([], [None])
    assert searched  # the rows into K3 are still searched


@pytest.mark.parametrize("small", [loop_point(), Graph.of(1)], ids=["loop", "point"])
def test_graph_cancellations_list_no_rows_on_an_object_smaller_than_m_s_image(monkeypatch, small):
    # every first into a 1-node graph merges the two nodes m separates, so
    # the homs dom m -> x are only counted; the point maps into cod m, the
    # loop does not
    g = GraphCategory()
    m = g.identity(g.obj(Graph.of(2)))
    x = g.obj(small)
    searched = []

    def counting(src, dst, pins=None):
        searched.append((src, dst))
        return homs(src, dst, pins)

    homs = kernels.homs
    monkeypatch.setattr(kernels, "homs", counting)
    answers = {}
    for limit in (None, 0, 1, 2, 3):
        searched.clear()
        answers[limit] = list(g.cancellations(m, [x], limit))
        assert searched == []
        assert answers[limit] == list(oracles.generic_cancellations(g, m, [x], limit))
        assert pairs_of(answers[limit]) == product_cancellations(m.payload, small, limit)
    # one hom dom m -> x: it reaches limit 1 and not limit 2
    assert answers == {None: [], 0: [None], 1: [None], 2: [], 3: []}


# --- the engine's held set: answers whose conclusion it holds may go ---------


def take_growing(answers, held: set, grow: list) -> list:
    """Take every answer while the caller adds grow[k] to held after the
    k-th answer taken, as the engine adds what it learns between answers."""
    taken = []
    for pair in answers:
        taken.append(pair)
        held |= grow[len(taken) % len(grow)]
    return taken


def without_held(full: list, held: set, grow: list, conclusion) -> list:
    """The oracle: the answers given no held set, less each whose
    conclusion is held when the body reaches it; every None stays."""
    taken = []
    for pair in full:
        if pair is not None and conclusion(pair) in held:
            continue
        taken.append(pair)
        held |= grow[len(taken) % len(grow)]
    return taken


def first_of(pair):
    return pair[0]


def opposite_leg(pair):
    return pair[1]


def held_cases(rng: random.Random, pool: list) -> list[tuple[set, list]]:
    """Held sets drawn from pool: empty, all of it and random halves, each
    with what the caller adds after each answer (sometimes nothing)."""
    def some():
        return {ref for ref in pool if rng.random() < 0.5}

    drawn = [(some(), [some() if rng.random() < 0.3 else set() for _ in range(5)]) for _ in range(3)]
    return [(set(), [set()]), (set(pool), [set()]), *drawn]


def check_held(body, full: list, conclusion, pool: list, rng: random.Random) -> int:
    """Assert the body with each held case equals the oracle; returns how
    many answers the cases left out."""
    dropped = 0
    for start, grow in held_cases(rng, pool):
        held = set(start)
        got = take_growing(body(held), held, grow)
        assert got == without_held(full, set(start), grow, conclusion)
        assert got.count(None) == full.count(None)
        dropped += len(full) - len(got)
    return dropped


@pytest.mark.parametrize("seed", range(4))
def test_lattice_rules_leave_out_exactly_the_held_conclusions(seed):
    rng = random.Random(seed)
    dropped = {"base": 0, "cancellations": 0, "pushouts": 0}
    for i in range(8):
        cat = random_lattice(rng, max_size=7, name=f"L{i}")
        pool = cat.all_morphisms()
        for m in pool:
            for limit, objects in [
                *((limit, object_list(rng, cat.objects(), m.cod)) for limit in (None, 0, 1, 2)),
                # objects=None is the whole universe, walked on up-set bits
                *((limit, None) for limit in (None, 1, 2, 3)),
            ]:
                full = list(oracles.generic_cancellations(cat, m, objects, limit))
                dropped["base"] += check_held(
                    lambda held: oracles.generic_cancellations(cat, m, objects, limit, held),
                    full, first_of, pool, rng,
                )
                dropped["cancellations"] += check_held(
                    lambda held: cat.cancellations(m, objects, limit, held), full, first_of, pool, rng
                )
                pushed = list(Category.pushouts(cat, m, objects, limit))
                dropped["pushouts"] += check_held(
                    lambda held: cat.pushouts(m, objects, limit, held), pushed, opposite_leg, pool, rng
                )
                # the base pushouts keep every answer
                assert list(Category.pushouts(cat, m, objects, limit, set(pool))) == pushed
    assert all(dropped.values())


@pytest.mark.parametrize("seed", range(4))
def test_graph_cancellations_leave_out_exactly_the_held_firsts(seed):
    rng = random.Random(seed)
    g = GraphCategory()
    pool_objects = [g.obj(random_graph(rng)) for _ in range(5)] + [g.obj(clique(4))]
    full_objects = g.obj(Graph.of(3, [(i, j) for i in range(3) for j in range(3)]))
    dropped = {"base": 0, "graph": 0}
    for _ in range(4):
        for m in premises(g, rng):
            for limit in (None, 1, 2, 3):
                objects = object_list(rng, pool_objects, full_objects)
                full = list(oracles.generic_cancellations(g, m, objects, limit))
                # every hom dom m -> x may be held, answer or not
                pool = [f for x in set(objects) for f in g.enumerate_homs(m.dom, x, 40)]
                dropped["base"] += check_held(
                    lambda held: oracles.generic_cancellations(g, m, objects, limit, held),
                    full, first_of, pool, rng,
                )
                dropped["graph"] += check_held(
                    lambda held: g.cancellations(m, objects, limit, held), full, first_of, pool, rng
                )
    assert all(dropped.values())


def test_a_held_first_runs_no_pinned_search(monkeypatch):
    g = GraphCategory()
    searched = []  # the pins of each pinned rest search

    def counting(src, dst, pins=None):
        if pins is not None:
            searched.append(tuple(pins))
        return homs(src, dst, pins)

    homs = kernels.homs
    monkeypatch.setattr(kernels, "homs", counting)
    # every map from the point into K3 extends along the point's map into K3
    k3 = g.obj(clique(3))
    m = g.mor(GraphHom(Graph.of(1), clique(3), (2,)))
    firsts = g.enumerate_homs(m.dom, k3)

    def pins(first):  # the rest pinned at the image of first, sent to 2
        return tuple(2 if v == first.payload.mapping[0] else -1 for v in range(3))

    assert list(g.cancellations(m, [k3])) and searched == [pins(f) for f in firsts]
    for held in ({firsts[0]}, set(firsts[1:]), set(firsts)):
        searched.clear()
        answers = list(g.cancellations(m, [k3], None, held))
        assert [first for first, _ in answers] == [f for f in firsts if f not in held]
        assert searched == [pins(f) for f in firsts if f not in held]


def test_a_pinned_search_out_of_a_union_never_spans_two_parts(monkeypatch):
    g = GraphCategory()
    searched = []  # the source of each pinned search

    def counting(src, dst, pins=None):
        if pins is not None:
            searched.append(src)
        return homs(src, dst, pins)

    homs = kernels.homs
    monkeypatch.setattr(kernels, "homs", counting)
    # each triangle maps into K3 six ways and K4 none: a search over the
    # whole union would try the 6^4 maps of the triangles before K4 fails
    k3, k4 = clique(3), clique(4)
    union = g.coproduct([g.obj(k3)] * 4 + [g.obj(k4)])[0]
    h = g.mor(GraphHom(empty_graph(), g.graph_of(union), ()))
    f = g.mor(GraphHom(empty_graph(), k3, ()))
    assert g.find_factorization(h, f) is None
    assert searched == [k3] * 4 + [k4]
    searched.clear()
    assert not g.is_injective(g.obj(k3), h).holds
    assert searched == [k3] * 4 + [k4]
    # the search stops at the first part with no map
    searched.clear()
    union = g.coproduct([g.obj(k4), g.obj(k3)])[0]
    assert g.find_factorization(g.mor(GraphHom(empty_graph(), g.graph_of(union), ())), f) is None
    assert searched == [k4]


@pytest.mark.parametrize("seed", range(4))
def test_lattice_rules_per_premise_match_the_generic_loops_and_the_order(seed):
    rng = random.Random(seed)
    for i in range(10):
        cat = random_lattice(rng, max_size=7, name=f"L{i}")
        leq, join = cat.p.leq, cat.p.join
        for m in cat.all_morphisms():
            a, b = m.dom.index, m.cod.index
            for limit in (None, 0, 1, 2, 3):
                # the codomain is above a, so it has a hom from a: at limit 1
                # it is over the cap.  objects=None is the whole universe,
                # walked on up-set bits past the cap
                for objects in (object_list(rng, cat.objects(), m.cod), None):
                    cancelled = list(cat.cancellations(m, objects, limit))
                    pushed = list(cat.pushouts(m, objects, limit))
                    assert cancelled == list(oracles.generic_cancellations(cat, m, objects, limit))
                    assert pushed == list(Category.pushouts(cat, m, objects, limit))
                    if objects is None:
                        objects = cat.search_universe()
                        assert cancelled == list(cat.cancellations(m, objects, limit))
                        assert pushed == list(cat.pushouts(m, objects, limit))
                    # one hom a -> x when a <= x; m factors through it when
                    # x <= b, and pushes out to x -> join(x, b)
                    want_cancelled, want_pushed = [], []
                    for x in objects:
                        j = x.index
                        if limit is not None and int(leq[a, j]) >= limit:
                            want_cancelled.append(None)
                            want_pushed.append(None)
                        elif leq[a, j]:
                            if leq[j, b]:
                                want_cancelled.append((cat.mor(a, j), cat.mor(j, b)))
                            want_pushed.append((cat.mor(a, j), cat.mor(j, join[j][b])))
                    assert cancelled == want_cancelled
                    assert pushed == want_pushed
        # compose reads the category's hom table: f: a -> dom g composes to
        # the one map a -> cod g
        for g in cat.all_morphisms():
            for f in cat.all_morphisms():
                if f.cod == g.dom:
                    assert cat.compose(g, f) == cat.mor(f.dom.index, g.cod.index)


@pytest.mark.parametrize("kind", ["lattice", "graph"])
def test_attach_size_refuses_what_attach_refuses(kind):
    if kind == "graph":
        cat = GraphCategory()
        x = cat.obj(Graph.of(2, [(0, 1)]))
        f = cat.identity(cat.obj(Graph.of(1)))  # ends at the point, not at x
    else:
        cat = diamond()
        x = cat.obj("a")
        f = cat.mor("0", "b")  # ends at b, not at x
    for where, squares in [(ObjRef("x", 99), []), (x, [(f, f)])]:
        for body in (cat.attach, cat.attach_size):
            with pytest.raises(CategoryError):
                body(where, squares)

import itertools
import random

import pytest
from hypothesis import given, settings, strategies as st

from injlog import kernels, proofs
from injlog.core import CategoryError, MorphismSet, MorRef, semantic_consequence
from injlog.graphs import Graph, GraphCategory, GraphHom, clique, empty_graph, loop_point
from injlog.lattice import LatticeCategory, presentation_from_pairs, random_lattice
from injlog.proofs import (
    RULES,
    Cancel,
    CancelMismatch,
    Compose,
    ComposabilityError,
    CoprodN,
    Hyp,
    Identity,
    MacroShapeError,
    ProofError,
    Push,
    PushDomainMismatch,
    RefusedReference,
    UnresolvedHypothesis,
    WidePushN,
    _fixpoint,
    check_proof,
    elaborate_macro,
    prove,
    saturate,
    subterms,
    used_hypotheses,
)
from injlog.reflection import consequence_via_reflection, reflect, reflection_proof
from oracles import random_graph, random_hypotheses, wide_pushout


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


def test_hypothesis_and_identity_conclusions():
    cat = chain3()
    h = MorphismSet.of([("h", cat.mor("0", "2"))])
    assert check_proof(cat, h, Hyp("h")) == cat.mor("0", "2")
    assert check_proof(cat, h, Identity(cat.obj("1"))) == cat.identity(cat.obj("1"))


def test_unknown_hypothesis_is_reported():
    cat = chain3()
    with pytest.raises(UnresolvedHypothesis):
        check_proof(cat, MorphismSet.of([]), Hyp("missing"))


def test_compose_checks_composability():
    cat = chain3()
    h = MorphismSet.of([("p", cat.mor("0", "1")), ("q", cat.mor("1", "2"))])
    assert check_proof(cat, h, Compose(Hyp("q"), Hyp("p"))) == cat.mor("0", "2")
    with pytest.raises(ComposabilityError):
        check_proof(cat, h, Compose(Hyp("p"), Hyp("q")))


def test_cancel_demands_the_exact_composite():
    cat = chain3()
    h = MorphismSet.of([("h", cat.mor("0", "2"))])
    good = Cancel(Hyp("h"), first=cat.mor("0", "1"), rest=cat.mor("1", "2"))
    assert check_proof(cat, h, good) == cat.mor("0", "1")
    bad = Cancel(Hyp("h"), first=cat.mor("0", "0"), rest=cat.mor("1", "2"))
    with pytest.raises(CancelMismatch):
        check_proof(cat, h, bad)
    # factors that compose, but not to the derived morphism
    miss = Cancel(Hyp("h"), first=cat.mor("0", "1"), rest=cat.mor("1", "1"))
    with pytest.raises(CancelMismatch):
        check_proof(cat, h, miss)
    g = GraphCategory()
    point, edge = Graph.of(1), Graph.of(2, [(0, 1)])
    tail = MorphismSet.of([("tail", g.mor(GraphHom(point, edge, (0,))))])
    head = g.mor(GraphHom(point, edge, (1,)))
    with pytest.raises(CancelMismatch):
        check_proof(g, tail, Cancel(Hyp("tail"), first=head, rest=g.identity(g.obj(edge))))


def test_push_requires_shared_domain_and_concludes_the_opposite_leg():
    cat = diamond()
    h = MorphismSet.of([("p", cat.mor("0", "a"))])
    term = Push(Hyp("p"), along=cat.mor("0", "b"))
    assert check_proof(cat, h, term) == cat.mor("b", "1")
    with pytest.raises(PushDomainMismatch):
        check_proof(cat, h, Push(Hyp("p"), along=cat.mor("a", "1")))


def test_terms_differing_only_in_a_ref_field_are_unequal_and_hash_apart():
    cat, d = chain3(), diamond()
    pairs = [
        (Cancel(Hyp("h"), first=cat.mor("0", "1"), rest=cat.mor("1", "2")),
         Cancel(Hyp("h"), first=cat.mor("0", "0"), rest=cat.mor("1", "2"))),
        (Cancel(Hyp("h"), first=cat.mor("0", "1"), rest=cat.mor("1", "2")),
         Cancel(Hyp("h"), first=cat.mor("0", "1"), rest=cat.mor("1", "1"))),
        (Push(Hyp("p"), along=d.mor("0", "a")), Push(Hyp("p"), along=d.mor("0", "b"))),
        (Identity(cat.obj("0")), Identity(cat.obj("1"))),
    ]
    for a, b in pairs:
        assert a != b and hash(a) != hash(b)
        # and one level down, where the ref field is not the root's
        assert Compose(a, Hyp("q")) != Compose(b, Hyp("q"))
        assert hash(WidePushN((a,))) != hash(WidePushN((b,)))
        assert a == type(a)(**vars(a)) and hash(a) == hash(type(a)(**vars(a)))


def test_used_hypotheses_is_sorted_and_deduplicated():
    term = Compose(Compose(Hyp("b"), Hyp("a")), Hyp("b"))
    assert used_hypotheses(term) == ["a", "b"]
    assert used_hypotheses(Identity(chain3().obj("0"))) == []


def test_errors_share_the_proof_error_base():
    for err in (
        UnresolvedHypothesis, ComposabilityError, CancelMismatch, PushDomainMismatch, MacroShapeError,
        RefusedReference,
    ):
        assert issubclass(err, ProofError)


# macros


def test_coprod_elaborates_to_pushes_on_a_lattice():
    cat = diamond()
    h = MorphismSet.of([("p", cat.mor("0", "a")), ("q", cat.mor("0", "b"))])
    term = CoprodN((Hyp("p"), Hyp("q")))
    elaborated = elaborate_macro(cat, h, term)
    assert isinstance(elaborated, Compose)
    assert isinstance(elaborated.outer, Push)
    assert isinstance(elaborated.inner, Push)
    concl = check_proof(cat, h, term)
    assert concl == cat.coproduct_morphism([cat.mor("0", "a"), cat.mor("0", "b")])
    assert concl == cat.mor("0", "1")


def test_widepush_elaborates_to_staged_pushes_on_a_lattice():
    cat = diamond()
    h = MorphismSet.of([("p", cat.mor("0", "a")), ("q", cat.mor("0", "b"))])
    term = WidePushN((Hyp("p"), Hyp("q")))
    concl = check_proof(cat, h, term)
    assert concl == wide_pushout(cat, [cat.mor("0", "a"), cat.mor("0", "b")]).composite
    assert concl == cat.mor("0", "1")


def test_macros_of_one_part_collapse_to_the_part():
    cat = chain3()
    h = MorphismSet.of([("h", cat.mor("0", "2"))])
    for macro in (CoprodN((Hyp("h"),)), WidePushN((Hyp("h"),))):
        assert elaborate_macro(cat, h, macro) == Hyp("h")


def test_empty_coprod_is_the_identity_of_the_initial_object():
    cat = chain3()
    h = MorphismSet.of([])
    assert check_proof(cat, h, CoprodN(())) == cat.identity(cat.obj("0"))
    g = GraphCategory()
    assert check_proof(g, h, CoprodN(())) == g.identity(g.obj(empty_graph()))


def test_empty_widepush_is_rejected():
    cat = chain3()
    with pytest.raises(MacroShapeError):
        check_proof(cat, MorphismSet.of([]), WidePushN(()))


def test_graph_coprod_concludes_the_canonical_coproduct_morphism():
    g = GraphCategory()
    node = Graph.of(1)
    edge = Graph.of(2, [(0, 1)])
    h1 = g.mor(GraphHom(node, edge, (0,)))
    h2 = g.mor(GraphHom(node, loop_point(), (0,)))
    h = MorphismSet.of([("h1", h1), ("h2", h2)])
    concl = check_proof(g, h, CoprodN((Hyp("h1"), Hyp("h2"))))
    assert concl == g.coproduct_morphism([h1, h2])


def test_graph_widepush_concludes_the_canonical_composite():
    g = GraphCategory()
    node = Graph.of(1)
    edge = Graph.of(2, [(0, 1)])
    h1 = g.mor(GraphHom(node, edge, (0,)))
    h2 = g.mor(GraphHom(node, loop_point(), (0,)))
    h3 = g.mor(GraphHom(node, clique(2), (0,)))
    h = MorphismSet.of([("h1", h1), ("h2", h2), ("h3", h3)])
    concl = check_proof(g, h, WidePushN((Hyp("h1"), Hyp("h2"), Hyp("h3"))))
    assert concl == wide_pushout(g, [h1, h2, h3]).composite


@given(st.integers(0, 10**6), st.integers(2, 3))
@settings(max_examples=25)
def test_macros_match_category_core_on_random_lattices(seed, count):
    rng = random.Random(seed)
    cat = random_lattice(rng, max_size=6)
    dom = rng.choice(cat.objects())
    outgoing = [m for m in cat.all_morphisms() if m.dom == dom]
    mors = [rng.choice(outgoing) for _ in range(count)]
    h = MorphismSet.of([(f"m{i}", m) for i, m in enumerate(mors)])
    parts = tuple(Hyp(f"m{i}") for i in range(count))
    assert check_proof(cat, h, CoprodN(parts)) == cat.coproduct_morphism(mors)
    assert check_proof(cat, h, WidePushN(parts)) == wide_pushout(cat, mors).composite


@given(st.integers(0, 10**6), st.integers(2, 4))
@settings(max_examples=25)
def test_macros_match_category_core_on_random_graph_legs(seed, count):
    rng = random.Random(seed)
    cat = GraphCategory()

    def domain() -> Graph:
        while not (g := random_graph(rng, max_nodes=3)).node_count:
            pass
        return g

    def leg(src: Graph):
        for _ in range(30):
            homs = cat.enumerate_homs(cat.obj(src), cat.obj(random_graph(rng, max_nodes=4)))
            if homs:
                return rng.choice(homs)
        return cat.identity(cat.obj(src))

    legs = [leg(domain()) for _ in range(count)]
    h = MorphismSet.of([(f"m{i}", m) for i, m in enumerate(legs)])
    term = CoprodN(tuple(Hyp(f"m{i}") for i in range(count)))
    # the staging numbers its apex otherwise in most cases; the
    # elaboration must cancel back onto the canonical morphism
    assert check_proof(cat, h, term) == cat.coproduct_morphism(legs)
    assert check_proof(cat, h, elaborate_macro(cat, h, term)) == cat.coproduct_morphism(legs)
    src = domain()
    fan = [leg(src) for _ in range(count)]
    h = MorphismSet.of([(f"m{i}", m) for i, m in enumerate(fan)])
    term = WidePushN(tuple(Hyp(f"m{i}") for i in range(count)))
    assert check_proof(cat, h, term) == wide_pushout(cat, fan).composite


class PushoutCountingLattice(LatticeCategory):
    pushouts = 0

    def pushout(self, h, f):
        self.pushouts += 1
        return super().pushout(h, f)


def test_nested_macros_check_in_linearly_many_pushouts():
    def pushouts(n: int) -> int:
        cat = PushoutCountingLattice(chain3().p)
        h = MorphismSet.of([("h", cat.mor("0", "2"))])
        term = Hyp("h")
        for _ in range(n):
            term = CoprodN((term, Identity(cat.obj("0"))))
        assert check_proof(cat, h, term) == cat.mor("0", "2")
        return cat.pushouts

    calls = {n: pushouts(n) for n in (50, 100, 200)}
    # re-checking each macro's parts at every level would make this quadratic
    assert calls[100] <= 2 * calls[50] + 4
    assert calls[200] <= 2 * calls[100] + 4


def test_a_defect_of_the_outer_part_is_reported_before_one_inside_a_macro():
    cat = diamond()
    h = MorphismSet.of([("p", cat.mor("0", "a"))])
    bad_macro = CoprodN((Push(Hyp("p"), along=cat.mor("a", "1")), Hyp("p")))
    with pytest.raises(PushDomainMismatch):
        check_proof(cat, h, bad_macro)
    # premises are checked outer before inner, macros in the same pass
    with pytest.raises(UnresolvedHypothesis):
        check_proof(cat, h, Compose(Hyp("nowhere"), bad_macro))


def holds_a_macro(term) -> bool:
    return any(isinstance(s, (CoprodN, WidePushN)) for s in subterms(term))


def nested_macro_terms(rng: random.Random, cat, hyps, objs, steps: int = 8, max_nodes: int = 6) -> list:
    """Valid terms built at random from the hypotheses and identities by
    composition, cancellation, pushout and both macros, so that macros
    land under comp, push and cancel and inside other macros; the terms
    that hold a macro."""
    pool = [(Hyp(name), m) for name, m in hyps] + [(Identity(x), cat.identity(x)) for x in objs]
    for _ in range(steps * 4):
        if sum(holds_a_macro(t) for t, _ in pool) >= steps:
            break
        t, c = rng.choice(pool)
        kind = rng.choice(["coprod", "coprod", "widepush", "widepush", "comp", "push", "cancel"])
        if kind == "coprod":
            term = CoprodN(tuple(rng.choice(pool)[0] for _ in range(rng.randint(0, 2))) + (t,))
        elif kind == "widepush":
            fan = [u for u, d in pool if d.dom == c.dom]
            term = WidePushN((t, *(rng.choice(fan) for _ in range(rng.randint(0, 2)))))
        elif kind == "comp":
            after = [u for u, d in pool if d.dom == c.cod] or [Identity(c.cod)]
            before = [u for u, d in pool if d.cod == c.dom] or [Identity(c.dom)]
            term = rng.choice([Compose(rng.choice(after), t), Compose(t, rng.choice(before))])
        elif kind == "push":
            homs = [f for x in objs for f in cat.enumerate_homs(c.dom, x)]
            term = Push(t, along=rng.choice(homs)) if homs else t
        else:
            firsts = [f for x in objs for f in cat.enumerate_homs(c.dom, x)]
            first = rng.choice(firsts) if firsts else c
            rest = cat.find_factorization(first, c)
            term = Cancel(t, first, rest) if rest is not None else Cancel(t, c, cat.identity(c.cod))
        concl = check_proof(cat, hyps, term)
        if cat.object_size(concl.cod) <= max_nodes:
            pool.append((term, concl))
    return [t for t, _ in pool if holds_a_macro(t)]


def assert_elaboration_agrees(cat, hyps, terms):
    for term in terms:
        elaborated = elaborate_macro(cat, hyps, term)
        assert not holds_a_macro(elaborated)
        assert check_proof(cat, hyps, term) == check_proof(cat, hyps, elaborated)


@given(st.integers(0, 10**6))
@settings(max_examples=25, deadline=None)
def test_nested_macros_elaborate_to_agreeing_primitives_on_lattices(seed):
    rng = random.Random(seed)
    cat = random_lattice(rng, max_size=6)
    hyps = random_hypotheses(rng, cat, max_count=3)
    terms = nested_macro_terms(rng, cat, hyps, cat.objects())
    assert terms
    assert_elaboration_agrees(cat, hyps, terms)


@given(st.integers(0, 10**6))
@settings(max_examples=15, deadline=None)
def test_nested_macros_elaborate_to_agreeing_primitives_on_graphs(seed):
    rng = random.Random(seed)
    cat, hyps, objs, _ = graph_theory(rng)
    terms = nested_macro_terms(rng, cat, hyps, objs)
    assert terms
    assert_elaboration_agrees(cat, hyps, terms)


# saturation


def test_saturation_demands_cancellation_for_the_chain_goal():
    cat = chain3()
    h = MorphismSet.of([("h", cat.mor("0", "2"))])
    goal = cat.mor("0", "1")
    full = saturate(cat, h)
    assert full.has(goal)
    assert check_proof(cat, h, full.provenance[goal]) == goal
    partial = saturate(cat, h, tuple(r for r in RULES if r != "cancellation"))
    assert not partial.has(goal)
    assert partial.rule_mask == frozenset(RULES) - {"cancellation"}


def test_saturation_demands_composition_for_the_two_step_goal():
    cat = chain3()
    h = MorphismSet.of([("p", cat.mor("0", "1")), ("q", cat.mor("1", "2"))])
    goal = cat.mor("0", "2")
    assert saturate(cat, h).has(goal)
    assert not saturate(cat, h, tuple(r for r in RULES if r != "composition")).has(goal)


def test_saturation_demands_pushout_for_the_transported_goal():
    cat = diamond()
    h = MorphismSet.of([("p", cat.mor("0", "a"))])
    goal = cat.mor("b", "1")
    assert saturate(cat, h).has(goal)
    assert not saturate(cat, h, tuple(r for r in RULES if r != "pushout")).has(goal)


def test_saturation_of_nothing_yields_exactly_the_identities():
    cat = chain3()
    empty = MorphismSet.of([])
    full = saturate(cat, empty)
    assert set(full.derived) == {cat.identity(x) for x in cat.objects()}
    bare = saturate(cat, empty, tuple(r for r in RULES if r != "identity"))
    assert bare.derived == ()


def test_saturation_provenance_all_recheck():
    cat = diamond()
    h = MorphismSet.of([("p", cat.mor("0", "a"))])
    result = saturate(cat, h)
    for m in result.derived:
        assert check_proof(cat, h, result.provenance[m]) == m


def boolean_lattice(k: int) -> LatticeCategory:
    """The subsets of k atoms, each element named by its bitmask."""
    elements = [str(s) for s in range(1 << k)]
    pairs = [(str(s), str(s | 1 << i)) for s in range(1 << k) for i in range(k) if not s >> i & 1]
    return LatticeCategory(presentation_from_pairs(f"B{k}", elements, pairs))


def test_saturation_builds_one_rule_term_per_morphism_it_learns(monkeypatch):
    # the engine tests each conclusion against what it holds before it
    # builds the term, so no term is built for a morphism already held
    built = []
    for cls in (Compose, Cancel, Push):
        def counting(self, *args, _init=cls.__init__, **kwargs):
            built.append(self)
            _init(self, *args, **kwargs)

        monkeypatch.setattr(cls, "__init__", counting)
    b4 = boolean_lattice(4)
    atoms = MorphismSet.of((f"a{i}", b4.mor("0", str(1 << i))) for i in range(4))
    rng = random.Random(3)
    cases = [(b4, atoms)] + [(cat, random_hypotheses(rng, cat)) for cat in (random_lattice(rng) for _ in range(20))]
    for cat, hyps in cases:
        built.clear()
        result = saturate(cat, hyps)
        by_rule = [t for t in result.provenance.values() if not isinstance(t, (Hyp, Identity))]
        assert sorted(map(id, built)) == sorted(map(id, by_rule))
    assert len(saturate(b4, atoms).derived) == 81  # every a <= b among 16 subsets


def test_saturation_rejects_open_categories_and_bad_rules():
    g = GraphCategory()
    with pytest.raises(CategoryError):
        saturate(g, MorphismSet.of([]))
    with pytest.raises(ValueError):
        saturate(chain3(), MorphismSet.of([]), ("identity", "osmosis"))


@given(st.integers(0, 10**6))
@settings(max_examples=20)
def test_saturation_matches_semantics_on_random_lattices(seed):
    rng = random.Random(seed)
    cat = random_lattice(rng, max_size=6)
    h = random_hypotheses(rng, cat, max_count=4)
    derived = set(saturate(cat, h).derived)
    semantic = {
        m
        for m in cat.all_morphisms()
        if semantic_consequence(cat, h, m, cat.search_universe(), exact=True).holds
    }
    assert derived == semantic


def naive_closure(cat, hypotheses, mask, node_cap=None, depth_cap=None):
    """Reference closure: every round recombines every pair of known
    morphisms, and every known morphism with every object in play."""
    in_play = list(cat.search_universe() or ())

    def admit(x):
        if x in in_play or (node_cap is not None and cat.object_size(x) > node_cap):
            return False
        in_play.append(x)
        return True

    for _, m in hypotheses:
        admit(m.dom)
        admit(m.cod)
    known = {}
    for name, m in hypotheses:
        known.setdefault(m, Hyp(name))
    if "identity" in mask:
        for x in in_play:
            known.setdefault(cat.identity(x), Identity(x))
    rounds = 0
    while depth_cap is None or rounds < depth_cap:
        mors = list(known)
        homs_from = lambda a: [f for x in in_play for f in cat.enumerate_homs(a, x)]
        offers = []
        if "composition" in mask:
            offers += [(cat.compose(g, f), Compose(known[g], known[f])) for g in mors for f in mors if f.cod == g.dom]
        if "cancellation" in mask:
            for m in mors:
                for first in homs_from(m.dom):
                    for rest in cat.enumerate_homs(first.cod, m.cod):
                        if cat.compose(rest, first) == m:
                            offers.append((first, Cancel(known[m], first=first, rest=rest)))
        if "pushout" in mask:
            for h in mors:
                for f in homs_from(h.dom):
                    h_prime = cat.pushout(h, f)[0]
                    if node_cap is None or cat.object_size(h_prime.cod) <= node_cap:
                        offers.append((h_prime, Push(known[h], along=f)))
        fresh = {}
        for m, term in offers:
            if m not in known and m not in fresh:
                fresh[m] = term
        if not fresh:
            break
        known.update(fresh)
        rounds += 1
        for m in fresh:
            for x in (m.dom, m.cod):
                if admit(x) and "identity" in mask:
                    known.setdefault(cat.identity(x), Identity(x))
    return known, rounds


MASKS = [mask for k in range(len(RULES) + 1) for mask in itertools.combinations(RULES, k)]


@given(st.integers(0, 10**6))
@settings(max_examples=40)
def test_saturation_matches_the_naive_closure_under_every_rule_mask(seed):
    rng = random.Random(seed)
    cat = random_lattice(rng, max_size=6)
    h = random_hypotheses(rng, cat, max_count=4)
    assert len(MASKS) == 16
    for mask in MASKS:
        result = saturate(cat, h, mask)
        known, rounds = naive_closure(cat, h, mask)
        assert list(result.provenance.items()) == list(known.items())
        assert result.derived == tuple(sorted(known, key=lambda m: (m.dom.index, m.cod.index)))
        assert result.rounds == rounds


@pytest.mark.parametrize("names", [("zp", "pe"), ("zp", "te"), ("pe", "pl"), ("te",)])
def test_bounded_closure_on_graphs_matches_the_naive_closure(names):
    # on an open category objects enter during the run, so round 2 must
    # also attach round-0 morphisms to the objects round 1 brought in
    g = GraphCategory()
    point, two = Graph.of(1), Graph.of(2)
    edge = Graph.of(2, [(0, 1)])
    homs = {
        "zp": GraphHom(empty_graph(), point, ()),
        "pe": GraphHom(point, edge, (0,)),
        "pl": GraphHom(point, loop_point(), (0,)),
        "te": GraphHom(two, edge, (0, 1)),
    }
    h = MorphismSet.of((n, g.mor(homs[n])) for n in names)
    known, rounds, reason = _fixpoint(g, h, frozenset(RULES), node_cap=3, depth_cap=2)
    want, want_rounds = naive_closure(g, h, RULES, node_cap=3, depth_cap=2)
    assert list(known.items()) == list(want.items())
    assert rounds == want_rounds == 2
    assert reason == "depth_cap"


@given(st.integers(0, 10**6))
@settings(max_examples=20)
def test_prove_agrees_with_saturation_on_random_lattices(seed):
    rng = random.Random(seed)
    cat = random_lattice(rng, max_size=6)
    h = random_hypotheses(rng, cat, max_count=4)
    closure = saturate(cat, h)
    # node_cap=0 admits no object, so only composition can derive anything
    composed = saturate(cat, h, ["composition"])
    for g in cat.all_morphisms():
        result = prove(cat, h, g)
        if closure.has(g):
            assert result.status == "found"
            assert result.proof == closure.provenance[g]
        else:
            assert result.status == "refuted"
        capped = prove(cat, h, g, node_cap=0)
        if composed.has(g):
            assert capped.status == "found"
            assert capped.proof == composed.provenance[g]
        else:
            assert (capped.status, capped.stop_reason) == ("inconclusive", "node_cap")


# bounded search


def test_prove_finds_the_chain_cancellation():
    cat = chain3()
    h = MorphismSet.of([("h", cat.mor("0", "2"))])
    result = prove(cat, h, cat.mor("0", "1"))
    assert result.found()
    assert result.status == "found"
    assert result.rounds_used == 1
    assert result.stop_reason == "goal"
    assert check_proof(cat, h, result.proof) == cat.mor("0", "1")


def test_prove_identity_goal_needs_no_rounds():
    cat = chain3()
    result = prove(cat, MorphismSet.of([]), cat.identity(cat.obj("1")))
    assert result.found()
    assert result.rounds_used == 0
    assert result.proof == Identity(cat.obj("1"))


def test_prove_refutes_on_a_closed_category():
    cat = diamond()
    h = MorphismSet.of([("p", cat.mor("0", "a"))])
    result = prove(cat, h, cat.mor("0", "b"))
    assert result.status == "refuted"
    assert result.stop_reason == "fixpoint"
    assert result.proof is None


@pytest.mark.parametrize("budget", ["node_cap", "hom_cap"])
def test_prove_does_not_refute_when_a_budget_pruned_the_search(budget):
    # node_cap=0 admits no object, hom_cap=0 skips every attachment; the
    # default budgets derive the goal in one round
    cat = chain3()
    h = MorphismSet.of([("h", cat.mor("0", "2"))])
    result = prove(cat, h, cat.mor("0", "1"), **{budget: 0})
    assert result.status == "inconclusive"
    assert result.stop_reason == budget
    assert result.proof is None


def forged_hypotheses() -> list[tuple]:
    """(category, forged morphism, a genuine morphism) on both categories:
    on the diamond, 0 -> 1 carrying the payload of 0 -> b; on graphs, the
    edge's identity whose payload starts at the reversed edge."""
    cat = diamond()
    o = cat.objects()
    g = GraphCategory()
    edge, swapped = Graph.of(2, [(0, 1)]), Graph.of(2, [(1, 0)])
    e = g.obj(edge)
    g.obj(swapped)
    return [
        (cat, MorRef(o[0], o[3], (0, 2)), cat.mor("0", "a")),
        (g, MorRef(e, e, GraphHom(swapped, edge, (1, 0))), g.identity(e)),
    ]


@pytest.mark.parametrize("mask", MASKS)
def test_the_engine_refuses_a_forged_hypothesis_under_every_rule_mask(mask):
    # checked where it enters: with no rule that builds on it, a forged
    # hypothesis would otherwise come back among the derived morphisms
    for cat, forged, genuine in forged_hypotheses():
        hyps = MorphismSet.of([("ok", genuine), ("forged", forged)])
        with pytest.raises(CategoryError):
            _fixpoint(cat, hyps, frozenset(mask), node_cap=2, depth_cap=2)
    cat, forged, genuine = forged_hypotheses()[0]
    with pytest.raises(CategoryError):
        saturate(cat, MorphismSet.of([("forged", forged)]), mask)


def test_prove_refuses_a_forged_goal():
    # a goal no rule can reach would otherwise be refuted on a lattice
    for cat, forged, genuine in forged_hypotheses():
        with pytest.raises(CategoryError):
            prove(cat, MorphismSet.of([("ok", genuine)]), forged, node_cap=2, depth_cap=2)


def test_the_checker_refuses_a_foreign_hypothesis_set():
    # checked where it enters, as in the engines: a hypothesis read as a
    # leaf would otherwise come back as a checked conclusion of the chain,
    # and one the term never reads would pass unchecked
    c = chain3()
    h = MorphismSet.of([("p", diamond().mor("0", "a"))])
    cases = [
        lambda: check_proof(c, h, Hyp("p")),
        lambda: check_proof(c, h, Identity(c.obj("0"))),
        lambda: elaborate_macro(c, h, WidePushN((Hyp("p"),))),
    ]
    for case in cases:
        with pytest.raises(RefusedReference, match=f"is not from {c.cat_id}$"):
            case()


@pytest.mark.parametrize("budget", ["node_cap", "depth_cap", "hom_cap", "mor_cap"])
def test_prove_refuses_a_negative_budget(budget):
    # hom_cap=-1 would put every listing over the cap, and mor_cap=-1 would
    # stop before anything is learned
    cat = chain3()
    h = MorphismSet.of([("h", cat.mor("0", "2"))])
    with pytest.raises(ValueError, match=f"^{budget} must be non-negative, got -1$"):
        prove(cat, h, cat.mor("0", "1"), **{budget: -1})


def test_prove_skips_an_attachment_past_hom_cap():
    g = GraphCategory()
    point, edge = Graph.of(1), Graph.of(2, [(0, 1)])
    inc = g.mor(GraphHom(point, edge, (0,)))
    h = MorphismSet.of([("inc", inc)])
    goal = g.pushout(inc, g.mor(GraphHom(point, edge, (1,))))[0]
    listed = []
    enumerate_homs = g.enumerate_homs

    def spy(a, x, limit=None):
        homs = enumerate_homs(a, x, limit)
        listed.append((limit, len(homs)))
        return homs

    g.enumerate_homs = spy
    # the point maps into the edge twice, one hom past the cap
    result = prove(g, h, goal, node_cap=3, hom_cap=1)
    assert (result.status, result.stop_reason) == ("inconclusive", "hom_cap")
    assert {limit for limit, _ in listed} == {2}
    assert (2, 2) in listed
    assert prove(g, h, goal, node_cap=3, hom_cap=2).found()


def test_prove_stops_on_hom_cap_when_only_a_cancellation_listing_is_over():
    g = GraphCategory()
    point, edge = Graph.of(1), Graph.of(2, [(0, 1)])
    h = MorphismSet.of([("inc", g.mor(GraphHom(point, edge, (0,))))])
    goal = g.mor(GraphHom(point, edge, (1,)))
    asked = []

    def nothing(a, x, limit=None):
        # pushout lists through enumerate_homs and cancellation does not:
        # no pushout listing is over the cap, and none attaches anything
        asked.append(limit)
        return []

    g.enumerate_homs = nothing
    # the point maps into the edge twice, one hom past the cap
    result = prove(g, h, goal, node_cap=3, hom_cap=1)
    assert (result.status, result.stop_reason) == ("inconclusive", "hom_cap")
    assert set(asked) == {2}
    # with room for both homs, the same search runs dry uncut
    assert prove(g, h, goal, node_cap=3, hom_cap=2).stop_reason == "fixpoint"


def test_a_mor_cap_stop_in_the_pushout_pass_builds_no_later_pushout(monkeypatch):
    # the point maps into the edge twice, so the pushout pass over the edge
    # has a second pushout to build after the first
    point, edge = Graph.of(1), Graph.of(2, [(0, 1)])
    stops = []  # (pairs the engine took, pushouts built) at each mor_cap stop

    class Stop(proofs._BudgetStop):
        def __init__(self):
            stops.append((len(cat.taken), len(cat.made)))

    class RecordingGraphs(GraphCategory):
        def __init__(self):
            super().__init__()
            self.taken = []  # each pair the engine took from pushouts
            self.made = []  # the leg opposite h of each pushout built

        def pushout(self, h, f):
            legs = super().pushout(h, f)
            self.made.append(legs[0])
            return legs

        def pushouts(self, h, objects, limit=None, held=frozenset()):
            for pair in super().pushouts(h, objects, limit, held):
                self.taken.append(pair)
                yield pair

    monkeypatch.setattr(proofs, "_BudgetStop", Stop)
    in_pushout_pass = 0
    for mor_cap in range(1, 40):
        cat = RecordingGraphs()
        h = MorphismSet.of([("pe", cat.mor(GraphHom(point, edge, (0,))))])
        known, _, reason = _fixpoint(cat, h, frozenset(RULES), mor_cap=mor_cap)
        assert reason == "mor_cap"
        # the last pushout built is the one whose pair was offered last
        taken, made = stops[-1]
        assert taken == made == len(cat.made)
        # with no node_cap every pushout of a finished round is known, so a
        # last pushout not known is the one whose offer raised
        in_pushout_pass += bool(cat.made) and cat.made[-1] not in known
    assert in_pushout_pass


def test_prove_finds_graph_compositions():
    g = GraphCategory()
    node = Graph.of(1)
    edge = Graph.of(2, [(0, 1)])
    path = Graph.of(3, [(0, 1), (1, 2)])
    first = g.mor(GraphHom(node, edge, (0,)))
    second = g.mor(GraphHom(edge, path, (0, 1)))
    h = MorphismSet.of([("a", first), ("b", second)])
    result = prove(g, h, g.compose(second, first), depth_cap=2)
    assert result.found()
    assert check_proof(g, h, result.proof) == g.compose(second, first)


def test_prove_reports_inconclusive_on_the_clique_family():
    g = GraphCategory()
    zero = empty_graph()
    h = MorphismSet.of(
        [(f"c{k}", g.mor(GraphHom(zero, clique(k), ()))) for k in range(1, 5)]
    )
    goal = g.mor(GraphHom(zero, loop_point(), ()))
    result = prove(g, h, goal, node_cap=6, depth_cap=3)
    assert result.status == "inconclusive"
    assert result.stop_reason == "mor_cap"
    assert result.proof is None
    assert not result.found()


def test_the_clique_prove_searches_each_part_of_an_object_alone(monkeypatch):
    # a rest x -> cod m out of a union such as K4+K4 is searched part by
    # part, each part's pins once per object; searched whole, each object
    # would take 7,592 searches in all
    pinned = []

    def counting(src, dst, pins=None):
        if pins is not None:
            pinned.append(src)
        return homs(src, dst, pins)

    homs = kernels.homs
    monkeypatch.setattr(kernels, "homs", counting)
    g = GraphCategory()
    zero = empty_graph()
    h = MorphismSet.of(
        [(f"c{k}", g.mor(GraphHom(zero, clique(k), ()))) for k in range(1, 5)]
    )
    goal = g.mor(GraphHom(zero, loop_point(), ()))
    result = prove(g, h, goal, node_cap=8, depth_cap=4)
    assert (result.status, result.stop_reason) == ("inconclusive", "mor_cap")
    assert 0 < len(pinned) <= 2000
    assert all(len(src.parts) == 1 for src in pinned)


# --- mutation fuzzing of lattice proof terms ---------------------------------


def one_step_mutants(term, mors, names):
    """Every term one edit away: first and rest swapped in a Cancel, a Push
    retargeted along another morphism, a Hyp renamed (to another
    hypothesis or to none), the parts of a macro reordered."""
    if isinstance(term, Hyp):
        for name in [*names, "nowhere"]:
            if name != term.name:
                yield Hyp(name)
    elif isinstance(term, Compose):
        for outer in one_step_mutants(term.outer, mors, names):
            yield Compose(outer, term.inner)
        for inner in one_step_mutants(term.inner, mors, names):
            yield Compose(term.outer, inner)
    elif isinstance(term, Cancel):
        yield Cancel(term.whole, first=term.rest, rest=term.first)
        for whole in one_step_mutants(term.whole, mors, names):
            yield Cancel(whole, term.first, term.rest)
    elif isinstance(term, Push):
        for m in mors:
            if m != term.along:
                yield Push(term.proof, along=m)
        for proof in one_step_mutants(term.proof, mors, names):
            yield Push(proof, term.along)
    elif isinstance(term, (WidePushN, CoprodN)):
        parts = term.parts
        for k in range(1, len(parts)):
            yield type(term)(parts[k:] + parts[:k])
        if len(parts) > 1:
            yield type(term)(parts[::-1])
        for i, p in enumerate(parts):
            for q in one_step_mutants(p, mors, names):
                yield type(term)(parts[:i] + (q,) + parts[i + 1 :])


def entailed(leq, hyps, a, b) -> bool:
    """Whether a -> b holds in every element injective for all hyps, read
    off the leq matrix alone."""
    def injective(x, c, d):
        return not leq[c][x] or leq[d][x]

    return all(
        injective(x, a, b)
        for x in range(len(leq))
        if all(injective(x, c, d) for c, d in hyps)
    )


@given(st.integers(0, 10**6))
@settings(max_examples=25)
def test_mutated_lattice_proofs_fail_or_stay_sound(seed):
    rng = random.Random(seed)
    cat = random_lattice(rng, max_size=6)
    hyps = random_hypotheses(rng, cat, max_count=4)
    leq = cat.p.leq.tolist()
    pairs = [(m.dom.index, m.cod.index) for m in hyps.morphisms()]
    mors = cat.all_morphisms()
    terms = list(saturate(cat, hyps).provenance.values())
    # reflection proofs are where WidePushN parts come from
    for goal in mors:
        out = consequence_via_reflection(cat, hyps, goal)
        if out.proof is not None:
            terms.append(out.proof)
    terms += nested_macro_terms(rng, cat, hyps, cat.objects())
    for term in terms:
        mutants = list(one_step_mutants(term, mors, hyps.names()))
        for mutant in rng.sample(mutants, min(12, len(mutants))):
            try:
                m = check_proof(cat, hyps, mutant)
            except (ProofError, CategoryError):
                continue
            assert m.dom.cat_id == cat.cat_id and m.payload == (m.dom.index, m.cod.index)
            assert leq[m.dom.index][m.cod.index]
            assert entailed(leq, pairs, m.dom.index, m.cod.index), mutant


def graph_theory(rng: random.Random):
    """A graph category, one to three hypotheses among graphs of at most
    three nodes (the empty graph among them), and every morphism among
    those graphs."""
    cat = GraphCategory()
    objs = [cat.obj(g) for g in [empty_graph(), *(random_graph(rng, max_nodes=3) for _ in range(3))]]
    mors = [m for a in objs for x in objs for m in cat.enumerate_homs(a, x)]
    hyps = MorphismSet.of((f"h{i}", rng.choice(mors)) for i in range(rng.randint(1, 3)))
    return cat, hyps, objs, mors


@given(st.integers(0, 10**6))
@settings(max_examples=15, deadline=None)
def test_mutated_graph_proofs_fail_or_stay_sound(seed):
    rng = random.Random(seed)
    cat, hyps, objs, mors = graph_theory(rng)
    terms = []
    for goal in rng.sample(mors, min(4, len(mors))):
        out = prove(cat, hyps, goal, node_cap=6, depth_cap=2, mor_cap=400)
        if out.proof is not None:
            terms.append(out.proof)
    for start in objs:
        terms.append(reflection_proof(reflect(cat, hyps, start, max_rounds=2, node_cap=8)))
    terms += nested_macro_terms(rng, cat, hyps, objs)
    # a mutant is the term one edit away, or the term checked against the
    # hypotheses with one of them dropped
    mutants = [(mutant, hyps) for term in terms for mutant in one_step_mutants(term, mors, hyps.names())]
    for name in hyps.names():
        fewer = MorphismSet.of((n, m) for n, m in hyps if n != name)
        mutants += [(term, fewer) for term in terms]
    universe = list(cat.universe(3))
    for mutant, given_hyps in rng.sample(mutants, min(40, len(mutants))):
        try:
            m = check_proof(cat, given_hyps, mutant)
        except (ProofError, CategoryError):
            continue
        hom = cat.hom_of(m)
        assert GraphHom(hom.source, hom.target, hom.mapping) == hom
        verdict = semantic_consequence(cat, given_hyps, m, universe, exact=False, bound=3)
        assert verdict.holds, mutant

"""End-to-end acceptance suite with pinned runtime budgets.

Each criterion prints one pass/fail line on the terminal (bypassing
capture) and then asserts.  Later criteria audit the artifacts the
earlier ones produced, so the expensive fixtures are module-scoped.
"""

import os
import random
import time

import pytest

from injlog.core import MorphismSet, semantic_consequence
from injlog.graphs import (
    Graph,
    GraphCategory,
    GraphHom,
    clique,
    empty_graph,
    loop_point,
)
from injlog.lattice import (
    LatticeCategory,
    presentation_from_pairs,
    random_lattice,
)
from injlog.proofs import (
    RULES,
    CoprodN,
    Hyp,
    WidePushN,
    check_proof,
    elaborate_macro,
    prove,
    saturate,
    used_hypotheses,
)
from injlog.reflection import consequence_via_reflection, reflect, verify_weak_reflection
from oracles import count_graphs, enumerate_graphs, random_graph, random_hypotheses, wide_pushout

SEED = int(os.environ.get("INJLOG_SEED", "0"))
LATTICE_FIXTURE_COUNT = 200


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


def without(rule: str) -> tuple[str, ...]:
    return tuple(r for r in RULES if r != rule)


@pytest.fixture
def report(capsys):
    def _report(num: int, name: str, problems: list[str], elapsed: float | None = None):
        ok = not problems
        timing = f"  [{elapsed:.2f}s]" if elapsed is not None else ""
        with capsys.disabled():
            print(f"acceptance {num} {name}: {'pass' if ok else 'FAIL'}{timing}")
        assert ok, f"criterion {num} ({name}): " + "; ".join(problems)

    return _report


# --- criterion 1: each rule is load-bearing on the chain and diamond -------


@pytest.fixture(scope="module")
def crit1():
    t0 = time.perf_counter()
    chain = chain3()
    dia = diamond()
    cases = [
        # (category, hypotheses, goal present with all rules, rule whose
        #  removal must lose the goal)
        (chain, [("h", ("0", "2"))], ("0", "1"), "cancellation"),
        (chain, [("p", ("0", "1")), ("q", ("1", "2"))], ("0", "2"), "composition"),
        (dia, [("h", ("0", "a"))], ("b", "1"), "pushout"),
    ]
    runs = []
    for cat, hyp_spec, goal_spec, rule in cases:
        hyps = MorphismSet.of((n, cat.mor(*pair)) for n, pair in hyp_spec)
        goal = cat.mor(*goal_spec)
        full = saturate(cat, hyps)
        crippled = saturate(cat, hyps, rule_mask=without(rule))
        runs.append((cat, hyps, goal, rule, full, crippled))
    empty = MorphismSet.of([])
    with_id = saturate(chain, empty)
    without_id = saturate(chain, empty, rule_mask=without("identity"))
    elapsed = time.perf_counter() - t0
    return {
        "runs": runs,
        "identity_pair": (chain, with_id, without_id),
        "elapsed": elapsed,
    }


def test_criterion_1_rule_necessity(crit1, report):
    problems = []
    for cat, _, goal, rule, full, crippled in crit1["runs"]:
        if goal not in full.derived:
            problems.append(f"{cat.p.name}: full saturation misses {cat.morphism_label(goal)}")
        if goal in crippled.derived:
            problems.append(f"{cat.p.name}: goal survives without {rule}")
    chain, with_id, without_id = crit1["identity_pair"]
    ids = {chain.identity(x) for x in chain.objects()}
    if set(with_id.derived) != ids:
        problems.append("empty hypotheses should derive exactly the identities")
    if without_id.derived:
        problems.append("nothing should be derivable without the identity axiom")
    if crit1["elapsed"] >= 1.0:
        problems.append(f"runtime {crit1['elapsed']:.2f}s exceeds 1s")
    report(1, "rule necessity", problems, crit1["elapsed"])


# --- criterion 2: saturation matches the semantic oracle at scale ----------


@pytest.fixture(scope="module")
def crit2():
    rng = random.Random(SEED)
    t0 = time.perf_counter()
    fixtures = []
    mismatches = []
    for i in range(LATTICE_FIXTURE_COUNT):
        cat = random_lattice(rng, max_size=7, name=f"L{i}")
        hyps = random_hypotheses(rng, cat, max_count=6)
        result = saturate(cat, hyps)
        semantic = {
            m
            for m in cat.all_morphisms()
            if semantic_consequence(cat, hyps, m, cat.objects(), exact=True).holds
        }
        if set(result.derived) != semantic:
            missing = {cat.morphism_label(m) for m in semantic - set(result.derived)}
            extra = {cat.morphism_label(m) for m in set(result.derived) - semantic}
            mismatches.append(f"fixture {i}: missing={missing} unsound={extra}")
        fixtures.append((cat, hyps, result, semantic))
    elapsed = time.perf_counter() - t0
    return {"fixtures": fixtures, "mismatches": mismatches, "elapsed": elapsed}


def test_criterion_2_completeness_oracle(crit2, report):
    problems = list(crit2["mismatches"])
    if len(crit2["fixtures"]) < 200:
        problems.append("fewer than 200 fixtures")
    if crit2["elapsed"] >= 10.0:
        problems.append(f"runtime {crit2['elapsed']:.2f}s exceeds 10s")
    report(2, "completeness oracle", problems, crit2["elapsed"])


# --- criterion 3: cliques separate bounded truth from derivability ---------


@pytest.fixture(scope="module")
def crit3():
    t0 = time.perf_counter()
    g = GraphCategory()
    zero = empty_graph()

    def from_zero(tgt):
        return g.mor(GraphHom(zero, tgt, ()))

    to_c4 = from_zero(clique(4))
    hyps = MorphismSet.of((f"c{k}", from_zero(clique(k))) for k in range(1, 5))
    goal = from_zero(loop_point())

    # the labeled walk, not the one-per-class universe: all 531 graphs are checked
    small = [g.obj(x) for x in enumerate_graphs(3)]
    loopless_injective = [
        x
        for x in small
        if g.is_injective(x, to_c4) and not g.graph_of(x).has_loop()
    ]
    c4_injective_all = all(g.is_injective(g.obj(clique(4)), m) for m in hyps.morphisms())
    verdict = semantic_consequence(g, hyps, goal, g.universe(4), exact=False, bound=4)
    search = prove(g, hyps, goal, node_cap=8, depth_cap=4)
    elapsed = time.perf_counter() - t0
    return {
        "g": g,
        "hyps": hyps,
        "goal": goal,
        "small_count": len(small),
        "loopless_injective": loopless_injective,
        "c4_injective_all": c4_injective_all,
        "verdict": verdict,
        "search": search,
        "elapsed": elapsed,
    }


def test_criterion_3_clique_compactness(crit3, report):
    g = crit3["g"]
    problems = []
    if crit3["small_count"] != count_graphs(3) or crit3["small_count"] != 531:
        problems.append("universe of 3-node graphs has the wrong size")
    if crit3["loopless_injective"]:
        problems.append(
            "a loopless small graph admits the 4-clique: "
            + str([g.graph_of(x) for x in crit3["loopless_injective"]])
        )
    if not crit3["c4_injective_all"]:
        problems.append("the 4-clique is not injective for every clique arrow")
    if clique(4).has_loop():
        problems.append("the 4-clique should be loopless")
    verdict = crit3["verdict"]
    if verdict.holds:
        problems.append("bounded semantics should refute the loop goal")
    elif g.graph_of(verdict.counterexample) != clique(4):
        problems.append(f"counterexample is {g.graph_of(verdict.counterexample)}")
    if verdict.label() == "holds":
        problems.append("bounded verdict must never read as exact")
    search = crit3["search"]
    if search.status != "inconclusive" or search.proof is not None:
        problems.append(f"proof search ended {search.status} instead of inconclusive")
    if crit3["elapsed"] >= 60.0:
        problems.append(f"runtime {crit3['elapsed']:.2f}s exceeds 60s")
    report(3, "clique compactness", problems, crit3["elapsed"])


# --- criterion 4: every produced proof re-checks and is semantically sound -


def _graph_reflection_fixture():
    g = GraphCategory()
    hyps = MorphismSet.of(
        [("c3", g.mor(GraphHom(empty_graph(), clique(3), ())))]
    )
    return g, hyps


def test_criterion_4_soundness(crit1, crit2, crit3, report):
    problems = []

    def audit(cat, hyps, term, universe, *, exact, bound=None, expect=None):
        try:
            concl = check_proof(cat, hyps, term)
        except Exception as err:
            problems.append(f"proof fails to re-check: {err}")
            return
        if expect is not None and concl != expect:
            problems.append(f"proof concludes {cat.morphism_label(concl)} not {cat.morphism_label(expect)}")
            return
        v = semantic_consequence(cat, hyps, concl, universe, exact=exact, bound=bound)
        if not v.holds:
            problems.append(f"unsound conclusion {cat.morphism_label(concl)}")

    for cat, hyps, goal, _, full, _ in crit1["runs"]:
        for m, term in full.provenance.items():
            audit(cat, hyps, term, cat.objects(), exact=True, expect=m)
        found = prove(cat, hyps, goal)
        if not found.found():
            problems.append(f"search misses the saturation-derivable {cat.morphism_label(goal)}")
        else:
            audit(cat, hyps, found.proof, cat.objects(), exact=True, expect=goal)
        via = consequence_via_reflection(cat, hyps, goal)
        if via.status != "derived":
            problems.append(f"reflection route fails on {cat.morphism_label(goal)}")
        else:
            audit(cat, hyps, via.proof, cat.objects(), exact=True, expect=goal)

    for cat, hyps, result, semantic in crit2["fixtures"]:
        for m, term in result.provenance.items():
            try:
                concl = check_proof(cat, hyps, term)
            except Exception as err:
                problems.append(f"{cat.p.name}: proof fails to re-check: {err}")
                continue
            if concl != m:
                problems.append(f"{cat.p.name}: provenance concludes the wrong arrow")
            elif m not in semantic:
                problems.append(f"{cat.p.name}: unsound conclusion {cat.morphism_label(m)}")

    g, hyps3, bound3 = crit3["g"], crit3["hyps"], 3
    names = tuple(Hyp(n) for n in hyps3.names())
    for macro in (CoprodN(names), WidePushN(names)):
        term = elaborate_macro(g, hyps3, macro)
        audit(g, hyps3, term, g.universe(bound3), exact=False, bound=bound3)

    gr, hr = _graph_reflection_fixture()
    via = consequence_via_reflection(gr, hr, hr.get("c3"))
    if via.status != "derived":
        problems.append("reflection route fails on the 3-clique hypothesis")
    else:
        audit(gr, hr, via.proof, gr.universe(3), exact=False, bound=3, expect=hr.get("c3"))

    report(4, "soundness", problems)


# --- criterion 5: reflections are least injective covers -------------------


def test_criterion_5_reflection(crit2, report):
    problems = []
    for cat, hyps, _, _ in crit2["fixtures"]:
        objs = cat.objects()
        inj = [
            x for x in objs if all(cat.is_injective(x, m) for m in hyps.morphisms())
        ]
        for start in objs:
            trace = reflect(cat, hyps, start)
            if not trace.converged:
                problems.append(f"{cat.p.name}: no convergence from {cat.object_label(start)}")
                continue
            # the meet of the injectives above start, by brute force over leq
            leq = cat.p.leq
            above = [x.index for x in inj if leq[start.index, x.index]]
            lower = [m for m in range(cat.p.size) if all(leq[m, u] for u in above)]
            (expected,) = [m for m in lower if all(leq[v, m] for v in lower)]
            if trace.apex.index != expected:
                problems.append(
                    f"{cat.p.name}: reflection of {cat.object_label(start)} "
                    f"is not the least injective cover"
                )
            check = verify_weak_reflection(cat, hyps, trace, objs)
            if not check.verified:
                problems.append(f"{cat.p.name}: {check.failing_witness.detail}")
        if problems:
            break
    g, hyps = _graph_reflection_fixture()
    trace = reflect(g, hyps, g.obj(empty_graph()))
    if not trace.converged or len(trace.rounds) != 1:
        problems.append("graph reflection should converge in one round")
    elif g.graph_of(trace.apex) != clique(3):
        problems.append("graph reflection apex is not the 3-clique")
    else:
        check = verify_weak_reflection(g, hyps, trace, g.universe(3))
        if not check.verified:
            problems.append(f"graph reflection: {check.failing_witness.detail}")
    report(5, "reflection", problems)


# --- criterion 6: macro elaborations agree with the category core ----------


def _random_lattice_case(rng):
    cat = random_lattice(rng, max_size=6, name="M")
    mors = cat.all_morphisms()
    n = rng.choice([2, 3])
    legs = [mors[rng.randrange(len(mors))] for _ in range(n)]
    dom = legs[0].dom
    shared = [m for m in mors if m.dom == dom]
    fan = [shared[rng.randrange(len(shared))] for _ in range(n)]
    return cat, legs, fan


def _random_graph_case(rng):
    cat = GraphCategory()
    src = random_graph(rng, max_nodes=3)
    n = rng.choice([2, 3])

    def leg():
        for _ in range(30):
            tgt = random_graph(rng, max_nodes=4)
            if src.node_count and not tgt.node_count:
                continue
            mapping = tuple(
                rng.randrange(tgt.node_count) for _ in range(src.node_count)
            )
            try:
                return cat.mor(GraphHom(src, tgt, mapping))
            except ValueError:
                continue
        return cat.mor(GraphHom.identity(src))

    fan = [leg() for _ in range(n)]
    return cat, fan, fan


def test_criterion_6_macro_elaboration(report):
    rng = random.Random(SEED)
    problems = []
    for case in range(20):
        cat, legs, fan = (
            _random_lattice_case(rng) if case % 2 == 0 else _random_graph_case(rng)
        )
        hyps = MorphismSet.of((f"m{i}", m) for i, m in enumerate(legs))
        term = elaborate_macro(cat, hyps, CoprodN(tuple(Hyp(n) for n in hyps.names())))
        if check_proof(cat, hyps, term) != cat.coproduct_morphism(legs):
            problems.append(f"case {case}: coproduct macro mismatch")
        hyps = MorphismSet.of((f"w{i}", m) for i, m in enumerate(fan))
        term = elaborate_macro(cat, hyps, WidePushN(tuple(Hyp(n) for n in hyps.names())))
        if check_proof(cat, hyps, term) != wide_pushout(cat, fan).composite:
            problems.append(f"case {case}: wide pushout macro mismatch")
    report(6, "macro elaboration", problems)


# --- criterion 7: derivations only lean on the hypotheses they cite --------


def test_criterion_7_compactness(crit2, report):
    problems = []
    for cat, hyps, result, _ in crit2["fixtures"]:
        for m, term in result.provenance.items():
            cited = used_hypotheses(term)
            subset = MorphismSet.of((n, hyps.get(n)) for n in cited)
            v = semantic_consequence(cat, subset, m, cat.objects(), exact=True)
            if not v.holds:
                problems.append(
                    f"{cat.p.name}: {cat.morphism_label(m)} does not follow from {cited}"
                )
    report(7, "compactness extraction", problems)

"""The benchmark's four workloads, built from a seed through injlog's public API.

Each workload is a list of queries.  A query's ``run`` is the timed call
into injlog; its ``check`` runs afterwards, outside the timed region, and
returns the problems found in the answer (an empty list means correct).
Checks compare against ``oracle`` and the paper's clique argument, and
re-check every returned proof term with ``check_proof``.

Calls go through module attributes (``proofs.prove``, not a name bound at
import) so that the traced run's wrappers see them.  No call passes a
``backend=`` argument or reads a private attribute.
"""

from __future__ import annotations

import contextlib
import functools
import io
import json
import random
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable

import numpy as np

import injlog
from injlog import cli, proofs, reflection

from oracle import LatticeOracle, clique_components, is_clique

NAMES = ("graph-bounded", "graph-prove", "lattice-theory", "cli-session")

# lattice-theory: criterion-2 theories per (size, hypothesis count) cell,
# and down-set lattices in the tail next to B4, B5 and B6.
SMALL_PER_CELL = 8
DOWNSET_THEORIES = 4
DOWNSET_SIZES = (16, 24)
# cli-session: generated lattice workspaces per pass; each gets 14 calls.
CLI_WORKSPACES = 36


@dataclass
class Query:
    label: str
    run: Callable[[], Any]
    check: Callable[[Any], list[str]]


@dataclass
class Workload:
    queries: list[Query]
    warm_up: Callable[[], Any]


def build(name: str, seed: int, workdir: Path) -> Workload:
    """Fixtures for one workload; cli-session writes its files into workdir."""
    if name == "graph-bounded":
        return _graph_bounded()
    if name == "graph-prove":
        return _graph_prove()
    if name == "lattice-theory":
        return _lattice_theory(seed)
    if name == "cli-session":
        return _cli_session(seed, workdir)
    raise ValueError(f"unknown workload {name!r}")


# ---------------------------------------------------------------------------
# graphs: the section-7 clique family.  Hypotheses are the arrows from the
# empty graph to the cliques K1..Kn, the goal is the arrow to the loop.  A
# graph is injective for all of them iff it receives a map from Kn, i.e. it
# has an n-clique or a loop.  So up to `bound` nodes the first counterexample
# in enumeration order is Kn itself when n <= bound, and none otherwise.


def _from_empty(G, target):
    return G.mor(injlog.GraphHom(injlog.empty_graph(), target, ()))


def _clique_arrows(G, ks):
    return injlog.MorphismSet.of((f"c{k}", _from_empty(G, injlog.clique(k))) for k in ks)


def _bounded_query(n: int, bound: int) -> Query:
    def run():
        G = injlog.GraphCategory()
        goal = _from_empty(G, injlog.loop_point())
        verdict = injlog.semantic_consequence(
            G, _clique_arrows(G, range(1, n + 1)), goal, G.universe(bound), exact=False, bound=bound
        )
        witness = None if verdict.counterexample is None else G.graph_of(verdict.counterexample)
        return verdict, witness

    def check(answer):
        verdict, witness = answer
        if n <= bound:
            if verdict.label() != "counterexample":
                return [f"expected a counterexample, got {verdict.label()}"]
            if not is_clique(witness.node_count, witness.edges, n):
                return [f"counterexample is not exactly K{n}: {witness}"]
            return []
        if verdict.label() != f"holds-up-to({bound})" or verdict.exact:
            return [f"expected holds-up-to({bound}), got {verdict.label()}"]
        return []

    return Query(f"consequence c1..c{n} bound {bound}", run, check)


def _graph_bounded() -> Workload:
    # Query B ({c1..c5}) runs at bound 3: at bound 4 it walks all 66,069
    # graphs in about 30 s, more than one measured run allows.
    queries = [_bounded_query(4, 4), _bounded_query(5, 3)]
    return Workload(queries, _bounded_query(3, 2).run)


def _proof_problems(G, hyps, proof, goal) -> list[str]:
    if proof is None:
        return ["no proof term returned"]
    try:
        conclusion = proofs.check_proof(G, hyps, proof)
    except proofs.ProofError as err:
        return [f"proof does not re-check: {err}"]
    if conclusion != goal:
        return ["proof concludes another morphism than the goal"]
    return []


def _prove_query(label, ks, target, status, **caps) -> Query:
    def run():
        G = injlog.GraphCategory()
        hyps = _clique_arrows(G, ks)
        goal = _from_empty(G, target())
        return G, hyps, goal, proofs.prove(G, hyps, goal, **caps)

    def check(answer):
        G, hyps, goal, result = answer
        if result.status != status:
            return [f"expected {status}, got {result.status}"]
        if status == "found":
            return _proof_problems(G, hyps, result.proof, goal)
        return [] if result.proof is None else ["a proof came with a non-found status"]

    return Query(label, run, check)


def _reflect_query(k: int) -> Query:
    def run():
        G = injlog.GraphCategory()
        hyps = _clique_arrows(G, [k])
        trace = reflection.reflect(G, hyps, G.obj(injlog.empty_graph()))
        report = reflection.verify_weak_reflection(G, hyps, trace, G.universe(3))
        return G, trace, report

    def check(answer):
        G, trace, report = answer
        apex = G.graph_of(trace.apex)
        problems = []
        if not trace.converged:
            problems.append("reflection did not converge")
        if not is_clique(apex.node_count, apex.edges, k):
            problems.append(f"apex is not K{k}: {apex}")
        if not report.verified:
            problems.append(f"weak reflection check failed: {report.failing_witness}")
        return problems

    return Query(f"reflect empty into c{k}", run, check)


def _via_query(target_name: str, target, status: str) -> Query:
    def run():
        G = injlog.GraphCategory()
        hyps = _clique_arrows(G, [3])
        goal = _from_empty(G, target())
        return G, hyps, goal, reflection.consequence_via_reflection(G, hyps, goal)

    def check(answer):
        G, hyps, goal, result = answer
        if result.status != status:
            return [f"expected {status}, got {result.status}"]
        if status == "derived":
            return _proof_problems(G, hyps, result.proof, goal)
        return []

    return Query(f"via reflection c3 => {target_name}", run, check)


def _macro_query(form) -> Query:
    def run():
        G = injlog.GraphCategory()
        hyps = _clique_arrows(G, range(1, 5))
        term = proofs.elaborate_macro(G, hyps, form(tuple(proofs.Hyp(f"c{k}") for k in range(1, 5))))
        return G, proofs.check_proof(G, hyps, term)

    def check(answer):
        # Both macros over arrows out of the empty graph conclude the arrow
        # into the disjoint union K1 + K2 + K3 + K4.
        G, conclusion = answer
        dom, cod = G.graph_of(conclusion.dom), G.graph_of(conclusion.cod)
        if dom.node_count != 0 or clique_components(cod.node_count, cod.edges) != [1, 2, 3, 4]:
            return [f"{form.__name__} concludes {dom} -> {cod}"]
        return []

    return Query(f"{form.__name__} c1..c4", run, check)


def _graph_prove() -> Workload:
    queries = [
        _prove_query(
            "prove c1..c4 => loop", range(1, 5), injlog.loop_point, "inconclusive", node_cap=8, depth_cap=4
        ),
        _prove_query("prove c3 => K2", [3], lambda: injlog.clique(2), "found"),
        _reflect_query(3),
        _reflect_query(4),
        _via_query("K2", lambda: injlog.clique(2), "derived"),
        _via_query("loop", injlog.loop_point, "inconclusive"),
        _macro_query(proofs.CoprodN),
        _macro_query(proofs.WidePushN),
    ]
    return Workload(queries, queries[1].run)


# ---------------------------------------------------------------------------
# lattices


def _presented(name: str, leq) -> injlog.LatticeCategory:
    elements = tuple(f"e{i}" for i in range(len(leq)))
    p = injlog.LatticePresentation(name, elements, np.array(leq, dtype=bool))
    return injlog.LatticeCategory(injlog.validate(p, require_lattice=True))


def boolean_lattice(k: int) -> injlog.LatticeCategory:
    """Subsets of a k-set under inclusion; element i is the subset with bits i."""
    n = 1 << k
    return _presented(f"B{k}", [[a & b == a for b in range(n)] for a in range(n)])


def downset_lattice(rng: random.Random, name: str) -> injlog.LatticeCategory:
    """Down-sets of a random poset under inclusion, with DOWNSET_SIZES elements."""
    lo, hi = DOWNSET_SIZES
    while True:
        m = rng.randint(5, 8)
        below = [[i == j or (i < j and rng.random() < 0.3) for j in range(m)] for i in range(m)]
        for k in range(m):
            for i in range(m):
                for j in range(m):
                    below[i][j] = below[i][j] or (below[i][k] and below[k][j])
        masks = [
            s
            for s in range(1 << m)
            if all(not (s >> j) & 1 or all((s >> i) & 1 for i in range(m) if below[i][j]) for j in range(m))
        ]
        if lo <= len(masks) <= hi:
            return _presented(name, [[a & b == a for b in masks] for a in masks])


@dataclass
class Theory:
    cat: injlog.LatticeCategory
    hyps: injlog.MorphismSet
    goals: list


def _pick_hypotheses(rng: random.Random, cat, count: int) -> injlog.MorphismSet:
    mors = cat.all_morphisms()
    return injlog.MorphismSet.of((f"h{i}", rng.choice(mors)) for i in range(count))


def criterion2_theory(rng: random.Random, size: int, count: int, name: str) -> Theory:
    """A theory from the criterion-2 generator with exactly `size` elements
    and `count` hypotheses; goals are left to the caller."""
    while True:
        cat = injlog.random_lattice(rng, max_size=size, name=name)
        if cat.p.size == size:
            return Theory(cat, _pick_hypotheses(rng, cat, count), [])


def lattice_theories(seed: int) -> list[Theory]:
    """Small theories on every (size, hypothesis count) cell, then a tail.

    Cells are stratified rather than drawn, and the Boolean tail has fixed
    hypotheses and goals, so that the pass time moves little with the seed.
    """
    rng = random.Random(seed)
    theories = []
    for size in range(1, 8):
        for count in range(7):
            for _ in range(SMALL_PER_CELL):
                t = criterion2_theory(rng, size, count, f"L{len(theories)}")
                mors = t.cat.all_morphisms()
                t.goals = rng.sample(mors, min(3, len(mors)))
                theories.append(t)
    for k in (4, 5, 6):
        cat = boolean_lattice(k)
        atoms = injlog.MorphismSet.of((f"a{i}", cat.mor(0, 1 << i)) for i in range(k))
        theories.append(Theory(cat, atoms, [cat.mor(0, (1 << k) - 1), cat.mor(0, 3)]))
    for i in range(DOWNSET_THEORIES):
        cat = downset_lattice(rng, f"D{i}")
        theories.append(Theory(cat, _pick_hypotheses(rng, cat, 3), rng.sample(cat.all_morphisms(), 2)))
    return theories


def _pair(m) -> tuple[int, int]:
    return m.dom.index, m.cod.index


def theory_query(t: Theory) -> Query:
    """Saturate, prove each sampled goal, and reflect from every element."""

    def run():
        saturated = proofs.saturate(t.cat, t.hyps)
        proved = [proofs.prove(t.cat, t.hyps, g) for g in t.goals]
        traces = [reflection.reflect(t.cat, t.hyps, x) for x in t.cat.objects()]
        return saturated, proved, traces

    @functools.cache
    def oracle():  # built on the first check, outside set-up and timing
        return LatticeOracle(t.cat.p.leq, [_pair(m) for m in t.hyps.morphisms()])

    def check(answer):
        saturated, proved, traces = answer
        semantic = oracle().semantic
        problems = []
        derived = {_pair(m) for m in saturated.derived}
        if derived != semantic:
            problems.append(
                f"derived set differs from the semantic set: missing "
                f"{sorted(semantic - derived)}, unsound {sorted(derived - semantic)}"
            )
        for m in saturated.derived:
            problems += _proof_problems(t.cat, t.hyps, saturated.provenance.get(m), m)
        for goal, result in zip(t.goals, proved):
            want = "found" if _pair(goal) in semantic else "refuted"
            if result.status != want:
                problems.append(f"prove {_pair(goal)}: expected {want}, got {result.status}")
            elif want == "found":
                problems += _proof_problems(t.cat, t.hyps, result.proof, goal)
        for x, trace in zip(t.cat.objects(), traces):
            want = oracle().reflection_apex(x.index)
            if not trace.converged or trace.apex.index != want:
                problems.append(f"reflection of {x.index}: apex {trace.apex.index}, expected {want}")
        return problems

    return Query(f"theory {t.cat.p.name} ({t.cat.p.size} elements)", run, check)


def _lattice_theory(seed: int) -> Workload:
    queries = [theory_query(t) for t in lattice_theories(seed)]
    return Workload(queries, queries[0].run)


# ---------------------------------------------------------------------------
# cli-session: in-process `injlog.cli.main` calls on generated workspaces.

GRAPH_WORKSPACE = """\
graph e { nodes: ; }
graph k1 { nodes: a; }
graph k2 { nodes: a b; edges: a->b, b->a; }
graph k3 { nodes: a b c; edges: a->b, a->c, b->a, b->c, c->a, c->b; }
graph lp { nodes: q; edges: q->q; }
mor c1 : e -> k1 { }
mor c2 : e -> k2 { }
mor c3 : e -> k3 { }
mor loop : e -> lp { }
mor to1 : e -> k1 { }
mor to2 : e -> k2 { }
mor into : k1 -> lp { a |-> q }
mor edge : k1 -> k2 { a |-> a }
hset C { c1, c2, c3 }
hset C3 { c3 }
proof pk { (push (hyp c2) to1) }
"""

K3_LABEL = "graph<3;0->1,0->2,1->0,1->2,2->0,2->1>"

# (argv after the file, expected verdict, exit code, expected extra fields)
GRAPH_CALLS = [
    (["check-inj", "--cat", "graphs", "--object", "k3", "--hset", "C"], "all-injective", 0, {}),
    (["check-inj", "--cat", "graphs", "--object", "k2", "--hset", "C"], "not-injective", 1, {}),
    (["consequence", "--hset", "C", "--goal", "loop", "--max-size", "2"], "holds-up-to(2)", 2, {}),
    (["prove", "--hset", "C3", "--goal", "to2"], "found", 0, {}),
    # Pushing K2 out along the empty graph's map into K1 gives K2 + K1,
    # with K1's node numbered after K2's two.
    (
        ["check-proof", "--proof", "pk", "--hset", "C"],
        "valid",
        0,
        {"conclusion": "[2]:graph<1;>=>graph<3;0->1,1->0>"},
    ),
    (["reflect", "--cat", "graphs", "--object", "e", "--hset", "C3"], "converged", 0, {"apex": K3_LABEL}),
    (["sentence", "--mor", "into"], "ok", 0, {"sentence": "∀x0 ( true → E(x0,x0) )"}),
    (
        ["sentence", "--mor", "edge"],
        "ok",
        0,
        {"sentence": "∀x0 ( true → ∃y0 ( E(x0,y0) ∧ E(y0,x0) ) )"},
    ),
]


def lattice_workspace_text(t: Theory, goal) -> str:
    p = t.cat.p
    els = p.elements
    pairs = ", ".join(
        f"{els[a]}<{els[b]}" for a in range(p.size) for b in range(p.size) if a != b and p.leq[a, b]
    )
    lines = [f"lattice {p.name} {{ elements: {' '.join(els)}; leq: {pairs}; }}"]
    for name, m in t.hyps:
        lines.append(f"mor {name} : {els[m.dom.index]} -> {els[m.cod.index]};")
    lines.append(f"mor goal : {els[goal.dom.index]} -> {els[goal.cod.index]};")
    lines.append(f"hset H {{ {', '.join(t.hyps.names())} }}")
    return "\n".join(lines) + "\n"


def run_cli(argv: list[str]) -> tuple[int, str]:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli.main(argv)
    return code, out.getvalue()


def _reported(text: str, as_json: bool) -> dict:
    """The report fields a check needs, from JSON or from the text lines."""
    if as_json:
        return json.loads(text)
    report: dict[str, Any] = {"lines": text.splitlines()}
    for line in report["lines"]:
        key, sep, value = line.partition(": ")
        if sep and key in ("verdict", "conclusion", "proof", "counterexample"):
            report.setdefault(key, value)
    return report


def _proof_text_problems(ws, cat, hyps, text, label) -> list[str]:
    if text is None:
        return ["no proof in the report"]
    try:
        conclusion = proofs.check_proof(cat, hyps, injlog.parse_proof_text(ws, text))
    except (proofs.ProofError, injlog.DslError) as err:
        return [f"reported proof does not re-check: {err}"]
    if cat.morphism_label(conclusion) != label:
        return [f"reported proof concludes {cat.morphism_label(conclusion)}, not {label}"]
    return []


def _cli_query(path: Path, args: list[str], as_json: bool, expect: Callable[[dict, int], list[str]]) -> Query:
    argv = [args[0], str(path), *args[1:]] + (["--json"] if as_json else [])

    def check(answer):
        code, text = answer
        try:
            report = _reported(text, as_json)
        except json.JSONDecodeError:
            return [f"unreadable JSON report: {text[:80]!r}"]
        return expect(report, code)

    label = " ".join(args[:1] + [path.name] + args[1:]) + (" --json" if as_json else "")
    return Query(label, lambda: run_cli(argv), check)


def _expecting(verdict: str | None, code: int, **fields) -> Callable[[dict, int], list[str]]:
    def expect(report, got_code):
        problems = []
        if verdict is not None and report.get("verdict") != verdict:
            problems.append(f"verdict {report.get('verdict')!r}, expected {verdict!r}")
        if got_code != code:
            problems.append(f"exit code {got_code}, expected {code}")
        for key, want in fields.items():
            got = report.get(key) if key in report else _from_lines(report, key)
            if got != want:
                problems.append(f"{key} {got!r}, expected {want!r}")
        return problems

    return expect


def _from_lines(report: dict, key: str):
    """Text-mode stand-ins for JSON fields that have no `key: value` line."""
    lines = report.get("lines", [])
    if key == "apex":
        # the trace's last line: "reflection a->b" or "reflection [..]:G=>H"
        line = next((ln for ln in lines if ln.startswith("reflection ")), "")
        return line.rsplit("=>" if "=>" in line else "->", 1)[-1] or None
    if key == "sentence":
        return lines[0] if lines else None
    return None


def _lattice_calls(path: Path, ws, t: Theory, goal, obj: int, proof_label: str):
    """The seven lattice subcommands on one workspace.  Their expected
    answers come from the oracle, built on the first check."""
    name, x = t.cat.p.name, t.cat.p.elements[obj]
    argvs = [
        ["check-inj", "--cat", name, "--object", x, "--hset", "H"],
        ["consequence", "--hset", "H", "--goal", "goal"],
        ["prove", "--hset", "H", "--goal", "goal"],
        ["check-proof", "--proof", "p", "--hset", "H"],
        ["saturate", "--cat", name, "--hset", "H"],
        ["saturate", "--cat", name, "--hset", "H", "--goal", "goal"],
        ["reflect", "--cat", name, "--object", x, "--hset", "H"],
    ]
    expectations = functools.cache(lambda: _lattice_expectations(ws, t, goal, obj, proof_label))
    return [
        (args, lambda report, code, i=i: expectations()[i](report, code)) for i, args in enumerate(argvs)
    ]


def _lattice_expectations(ws, t: Theory, goal, obj: int, proof_label: str):
    cat, hyps = ws.lattices[t.cat.p.name].category, ws.hsets["H"].morphisms
    els = t.cat.p.elements
    oracle = LatticeOracle(t.cat.p.leq, [_pair(m) for m in t.hyps.morphisms()])
    holds = _pair(goal) in oracle.semantic
    cx = oracle.counterexample(*_pair(goal))
    goal_label = f"{els[goal.dom.index]}->{els[goal.cod.index]}"
    semantic_labels = {f"{els[a]}->{els[b]}" for a, b in oracle.semantic}

    def proof_found(report, code):
        problems = _expecting("found" if holds else "refuted", 0 if holds else 1)(report, code)
        if holds and not problems:
            problems += _proof_text_problems(ws, cat, hyps, report.get("proof"), goal_label)
        return problems

    def saturated(report, code):
        problems = _expecting("complete", 0)(report, code)
        if "derived" in report:
            rows = [(d["morphism"], d["proof"]) for d in report["derived"]]
        else:
            rows = [
                tuple(ln[len("derived ") :].split("  via ", 1))
                for ln in report["lines"]
                if ln.startswith("derived ")
            ]
        if {label for label, _ in rows} != semantic_labels:
            problems.append("derived labels differ from the semantic set")
        for label, text in rows:
            problems += _proof_text_problems(ws, cat, hyps, text, label)
        return problems

    injective = oracle.injective_for_all(obj)
    # in the order of the argument lists in _lattice_calls
    return [
        _expecting("all-injective" if injective else "not-injective", 0 if injective else 1),
        _expecting(
            "holds" if holds else "counterexample",
            0 if holds else 1,
            counterexample=None if cx is None else els[cx],
        ),
        proof_found,
        _expecting("valid", 0, conclusion=proof_label),
        saturated,
        _expecting("derived" if holds else "not-derived", 0 if holds else 1),
        _expecting("converged", 0, apex=els[oracle.reflection_apex(obj)]),
    ]


def _cli_session(seed: int, workdir: Path) -> Workload:
    rng = random.Random(seed)
    workdir.mkdir(parents=True, exist_ok=True)
    queries: list[Query] = []
    for i in range(CLI_WORKSPACES):
        # sizes 2..7 in turn, each with a different hypothesis count per round
        t = criterion2_theory(rng, 2 + i % 6, 1 + (i % 6 + 2 * (i // 6)) % 6, f"L{i}")
        cat = t.cat
        goal = rng.choice(cat.all_morphisms())
        obj = rng.randrange(cat.p.size)
        text = lattice_workspace_text(t, goal)
        # The stored proof is a saturation proof of a seeded derived morphism.
        ws = injlog.parse(text)
        wcat, whyps = ws.lattices[cat.p.name].category, ws.hsets["H"].morphisms
        saturated = proofs.saturate(wcat, whyps)
        m = rng.choice(list(saturated.derived))
        text += f"proof p {{ {injlog.proof_to_text(ws, saturated.provenance[m])} }}\n"
        path = workdir / f"{cat.p.name}.inj"
        path.write_text(text)
        ws = injlog.parse(text)
        label = f"{cat.p.elements[m.dom.index]}->{cat.p.elements[m.cod.index]}"
        for args, expect in _lattice_calls(path, ws, t, goal, obj, label):
            queries += [_cli_query(path, args, as_json, expect) for as_json in (False, True)]
    path = workdir / "graphs.inj"
    path.write_text(GRAPH_WORKSPACE)
    ws = injlog.parse(GRAPH_WORKSPACE)
    for args, verdict, code, fields in GRAPH_CALLS:
        for as_json in (False, True):
            # the text form of `sentence` prints the sentence alone
            shown = verdict if as_json or args[0] != "sentence" else None
            expect = _expecting(shown, code, **fields)
            if args[0] == "prove":
                expect = _graph_proof_check(ws, expect)
            queries.append(_cli_query(path, args, as_json, expect))
    return Workload(queries, queries[0].run)


def _graph_proof_check(ws, expect):
    G, hyps = ws.graph_category, ws.hsets["C3"].morphisms
    label = G.morphism_label(ws.morphisms["to2"].ref)

    def check(report, code):
        return expect(report, code) or _proof_text_problems(ws, G, hyps, report.get("proof"), label)

    return check

"""Command line surface.

Every subcommand reads a workspace file, runs one query, prints a plain
text report (or the same data as JSON with --json), and exits with:

    0   all-injective, holds, found, valid, derived, complete, converged,
        ok, pass
    1   not-injective, counterexample, refuted, invalid, not-derived,
        incomplete, fail
    2   any other verdict: holds-up-to(N), inconclusive, not-converged
    64  usage error (bad flags, unknown or foreign names, unwritable output)
    65  workspace parse error
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
import time
from pathlib import Path
from typing import Sequence

from .core import Category, MorphismSet, MorRef, ObjRef, semantic_consequence
from .dsl import DslError, Workspace, parse, proof_to_text
from .graphs import GraphCategory, clique, empty_graph, loop_point, GraphHom
from .lattice import LatticeCategory, LatticeError, presentation_from_pairs
from .proofs import (
    RULES,
    Cancel,
    Identity,
    ProofError,
    ProofTerm,
    Push,
    check_proof,
    fold,
    prove,
    saturate,
    used_hypotheses,
)
from .reflection import reflect, trace_to_text
from .sentences import render_regular_sentence

__all__ = ["main"]


class UsageError(Exception):
    pass


class _ArgumentParser(argparse.ArgumentParser):
    def error(self, message: str):  # noqa: D102 - argparse hook
        raise UsageError(message)


def _budget(value: int, flag: str) -> int:
    if value < 0:
        raise UsageError(f"{flag} must be non-negative, got {value}")
    return value


def _load(path: str) -> Workspace:
    try:
        source = Path(path).read_text()
    except OSError as err:
        raise UsageError(f"cannot read {path!r}: {err.strerror}") from err
    return parse(source)


def _write(path: str, text: str) -> None:
    try:
        Path(path).write_text(text)
    except OSError as err:
        raise UsageError(f"cannot write {path!r}: {err.strerror}") from err


def _category_arg(ws: Workspace, name: str) -> Category:
    if name in ws.lattices:
        return ws.lattices[name].category
    if name in ("graph", "graphs"):
        return ws.graph_category
    raise UsageError(f"unknown category {name!r}: use a declared lattice name or 'graphs'")


def _object_arg(ws: Workspace, cat: Category, name: str) -> ObjRef:
    if isinstance(cat, GraphCategory):
        decl = ws.graphs.get(name)
        if decl is None:
            raise UsageError(f"unknown graph {name!r}")
        return decl.obj
    assert isinstance(cat, LatticeCategory)
    if name.startswith(f"{cat.p.name}."):
        name = name[len(cat.p.name) + 1 :]
    if name not in cat.p.elements:
        raise UsageError(f"lattice {cat.p.name!r} has no element {name!r}")
    return cat.obj(name)


def _mor_arg(ws: Workspace, name: str, cat: Category | None = None) -> MorRef:
    """The named morphism; with a category, it must belong to it."""
    decl = ws.morphisms.get(name)
    if decl is None:
        raise UsageError(f"unknown morphism {name!r}")
    if cat is not None and decl.ref.dom.cat_id != cat.cat_id:
        raise UsageError(f"morphism {name!r} is not in the selected category")
    return decl.ref


def _hset_arg(ws: Workspace, name: str, cat: Category | None) -> MorphismSet:
    """The named hset; with a category, every member must belong to it."""
    decl = ws.hsets.get(name)
    if decl is None:
        raise UsageError(f"unknown hset {name!r}")
    if cat is not None and any(m.dom.cat_id != cat.cat_id for m in decl.morphisms.morphisms()):
        raise UsageError(f"hset {name!r} is not in the selected category")
    return decl.morphisms


def _hset_category(ws: Workspace, name: str) -> Category:
    mors = _hset_arg(ws, name, None).morphisms()
    if not mors:
        raise UsageError("cannot infer the category from an empty hset")
    return ws.category_of(mors[0])


def _term_category(ws: Workspace, term: ProofTerm) -> Category | None:
    """The category of the first reference met, a Push's premise before its along."""

    def category(t: ProofTerm, cats: list[Category | None]) -> Category | None:
        if isinstance(t, (Identity, Cancel)):
            return ws.category_of(t.obj if isinstance(t, Identity) else t.first)
        found = next(filter(None, cats), None)
        return found or (ws.category_of(t.along) if isinstance(t, Push) else None)

    return fold(term, category)


def _goal_args(ws: Workspace, args) -> tuple[MorRef, Category, MorphismSet]:
    """--goal, its category and --hset, which must be in that category."""
    goal = _mor_arg(ws, args.goal)
    cat = ws.category_of(goal)
    return goal, cat, _hset_arg(ws, args.hset, cat)


def _object_args(ws: Workspace, args) -> tuple[Category, ObjRef, MorphismSet]:
    """--cat, its --object and --hset, which must be in that category."""
    cat = _category_arg(ws, args.cat)
    return cat, _object_arg(ws, cat, args.object), _hset_arg(ws, args.hset, cat)


# ---------------------------------------------------------------------------
# subcommands: each returns (report dict, text lines); main adds "command"
# first and "timing" last, and reads the exit code off the report's verdict

# every other verdict, holds-up-to(N), inconclusive and not-converged, exits 2
_EXIT_CODES = {
    "all-injective": 0, "holds": 0, "found": 0, "valid": 0, "derived": 0, "complete": 0,
    "converged": 0, "ok": 0, "pass": 0,
    "not-injective": 1, "counterexample": 1, "refuted": 1, "invalid": 1, "not-derived": 1,
    "incomplete": 1, "fail": 1,
}


def _cmd_check_inj(args) -> tuple[dict, list[str]]:
    ws = _load(args.file)
    cat, obj, hset = _object_args(ws, args)
    members = []
    lines = []
    for name, h in hset:
        res = cat.is_injective(obj, h)
        witness = None if res.holds else cat.morphism_label(res.counterexample)
        members.append({"name": name, "injective": res.holds, "counterexample": witness})
        if res.holds:
            lines.append(f"{name}: injective")
        else:
            lines.append(f"{name}: not injective (no extension of {witness})")
    verdict = "all-injective" if all(m["injective"] for m in members) else "not-injective"
    lines.append(f"verdict: {verdict}")
    report = {
        "object": cat.object_label(obj),
        "members": members,
        "verdict": verdict,
    }
    return report, lines


def _cmd_consequence(args) -> tuple[dict, list[str]]:
    bound = _budget(args.max_size, "--max-size")
    ws = _load(args.file)
    goal, cat, hset = _goal_args(ws, args)
    closed = cat.search_universe()
    if closed is not None:
        verdict = semantic_consequence(cat, hset, goal, closed, exact=True)
    else:
        verdict = semantic_consequence(cat, hset, goal, cat.universe(bound), exact=False, bound=bound)
    label = verdict.label()
    witness = (
        None if verdict.counterexample is None else cat.object_label(verdict.counterexample)
    )
    lines = [f"verdict: {label}"]
    if witness is not None:
        lines.append(f"counterexample: {witness}")
    if not verdict.exact:
        lines.append(f"bound: {verdict.bound} nodes (finite graphs up to the bound only)")
    report = {
        "goal": cat.morphism_label(goal),
        "verdict": label,
        "counterexample": witness,
        "exact": verdict.exact,
        "bound": verdict.bound,
    }
    return report, lines


def _cmd_prove(args) -> tuple[dict, list[str]]:
    node_cap = _budget(args.node_cap, "--node-cap")
    depth = _budget(args.depth, "--depth")
    ws = _load(args.file)
    goal, cat, hset = _goal_args(ws, args)
    result = prove(cat, hset, goal, node_cap=node_cap, depth_cap=depth)
    proof_text = None if result.proof is None else proof_to_text(ws, result.proof)
    lines = [
        f"verdict: {result.status}",
        f"rounds: {result.rounds_used}",
        f"stopped: {result.stop_reason}",
    ]
    if proof_text is not None:
        lines.append(f"proof: {proof_text}")
        if args.emit_proof:
            _write(args.emit_proof, f"proof found {{ {proof_text} }}\n")
            lines.append(f"wrote {args.emit_proof}")
    report = {
        "goal": cat.morphism_label(goal),
        "verdict": result.status,
        "rounds": result.rounds_used,
        "stop_reason": result.stop_reason,
        "proof": proof_text,
    }
    return report, lines


def _cmd_check_proof(args) -> tuple[dict, list[str]]:
    ws = _load(args.file)
    decl = ws.proofs.get(args.proof)
    if decl is None:
        raise UsageError(f"unknown proof {args.proof!r}")
    cat = _term_category(ws, decl.term) or _hset_category(ws, args.hset)
    hset = _hset_arg(ws, args.hset, cat)
    try:
        conclusion = check_proof(cat, hset, decl.term)
    except ProofError as err:
        report = {
            "proof": args.proof,
            "verdict": "invalid",
            "error": str(err),
            "conclusion": None,
        }
        return report, ["verdict: invalid", f"error: {err}"]
    label = cat.morphism_label(conclusion)
    used = used_hypotheses(decl.term)
    lines = [
        "verdict: valid",
        f"conclusion: {label}",
        f"hypotheses used: {', '.join(used) if used else '(none)'}",
    ]
    report = {
        "proof": args.proof,
        "verdict": "valid",
        "conclusion": label,
        "hypotheses": used,
    }
    return report, lines


def _cmd_saturate(args) -> tuple[dict, list[str]]:
    ws = _load(args.file)
    cat = _category_arg(ws, args.cat)
    if cat.search_universe() is None:
        raise UsageError("saturation needs a finite closed category: pick a lattice")
    hset = _hset_arg(ws, args.hset, cat)
    goal = None if args.goal is None else _mor_arg(ws, args.goal, cat)
    rules = tuple(r for r in RULES if r not in set(args.disable))
    result = saturate(cat, hset, rules)
    derived = [
        {
            "morphism": cat.morphism_label(m),
            "proof": proof_to_text(ws, result.provenance[m]),
        }
        for m in result.derived
    ]
    lines = [f"rules: {', '.join(rules) if rules else '(none)'}"]
    lines += [f"derived {d['morphism']}  via {d['proof']}" for d in derived]
    report = {
        "rules": list(rules),
        "rounds": result.rounds,
        "derived": derived,
    }
    if goal is not None:
        ok = result.has(goal)
        verdict = "derived" if ok else "not-derived"
        lines.append(f"goal {cat.morphism_label(goal)}: {verdict}")
        report["goal"] = cat.morphism_label(goal)
        report["verdict"] = verdict
        lines.append(f"verdict: {verdict}")
        return report, lines
    # m is a semantic consequence iff every element injective for the
    # hypotheses is m-injective
    injectives = cat.injectives(hset)
    semantic = [m for m in cat.all_morphisms() if all(cat.is_injective(x, m) for x in injectives)]
    missing = [cat.morphism_label(m) for m in semantic if not result.has(m)]
    semantic_set = set(semantic)
    extra = [cat.morphism_label(m) for m in result.derived if m not in semantic_set]
    verdict = "complete" if not missing and not extra else "incomplete"
    report["missing"] = missing
    report["unsound"] = extra
    report["verdict"] = verdict
    for label in missing:
        lines.append(f"missing {label}")
    for label in extra:
        lines.append(f"unsound {label}")
    lines.append(f"verdict: {verdict}")
    return report, lines


def _cmd_reflect(args) -> tuple[dict, list[str]]:
    max_rounds = _budget(args.max_rounds, "--max-rounds")
    node_cap = _budget(args.node_cap, "--node-cap")
    ws = _load(args.file)
    cat, obj, hset = _object_args(ws, args)
    trace = reflect(cat, hset, obj, max_rounds=max_rounds, node_cap=node_cap)
    text = trace_to_text(cat, trace)
    verdict = "converged" if trace.converged else "not-converged"
    lines = text.rstrip("\n").split("\n")
    lines.append(f"verdict: {verdict}")
    lines.append(f"stopped: {trace.stop_reason}")
    if args.emit_trace:
        _write(args.emit_trace, text)
        lines.append(f"wrote {args.emit_trace}")
    report = {
        "start": cat.object_label(trace.start),
        "apex": cat.object_label(trace.apex),
        "rounds": len(trace.rounds),
        "verdict": verdict,
        "stop_reason": trace.stop_reason,
        "trace": text,
    }
    return report, lines


def _cmd_sentence(args) -> tuple[dict, list[str]]:
    ws = _load(args.file)
    ref = _mor_arg(ws, args.mor)
    cat = ws.category_of(ref)
    if not isinstance(cat, GraphCategory):
        raise UsageError("sentences are rendered for graph morphisms only")
    sentence = render_regular_sentence(cat.hom_of(ref))
    report = {
        "morphism": args.mor,
        "sentence": sentence,
        "verdict": "ok",
    }
    return report, [sentence]


def _demo_checks() -> list[tuple[str, bool]]:
    chain = LatticeCategory(
        presentation_from_pairs("chain", ["0", "1", "2"], [("0", "1"), ("1", "2")])
    )
    diamond = LatticeCategory(
        presentation_from_pairs(
            "diamond", ["0", "a", "b", "1"], [("0", "a"), ("0", "b"), ("a", "1"), ("b", "1")]
        )
    )

    def without(rule: str):
        return tuple(r for r in RULES if r != rule)

    # (check, lattice, hypotheses, goal, rule): the goal is derived, and not without the rule
    needed = [
        ("0->1 from {0->2} on the 3-chain", chain, [("h", "0", "2")], ("0", "1"), "cancellation"),
        (
            "0->2 from {0->1, 1->2} on the 3-chain",
            chain, [("p", "0", "1"), ("q", "1", "2")], ("0", "2"), "composition",
        ),
        ("b->1 from {0->a} on the diamond", diamond, [("p", "0", "a")], ("b", "1"), "pushout"),
    ]
    checks: list[tuple[str, bool]] = []
    for check, lattice, hypotheses, (a, b), rule in needed:
        hset = MorphismSet.of((name, lattice.mor(x, y)) for name, x, y in hypotheses)
        goal = lattice.mor(a, b)
        ok = saturate(lattice, hset).has(goal) and not saturate(lattice, hset, without(rule)).has(goal)
        checks.append((f"{rule} needed: {check}", ok))

    empty = MorphismSet.of([])
    with_id = saturate(chain, empty)
    no_id = saturate(chain, empty, without("identity"))
    ok = (
        all(with_id.has(chain.identity(x)) for x in chain.objects())
        and len(no_id.derived) == 0
    )
    checks.append(("identity axiom: identities from H = {} and nothing without it", ok))

    G = GraphCategory()
    zero = empty_graph()
    hset = MorphismSet.of(
        [(f"c{k}", G.mor(GraphHom(zero, clique(k), ()))) for k in range(1, 5)]
    )
    # a graph has a loop exactly when it is injective for {} -> loop
    goal = G.mor(GraphHom(zero, loop_point(), ()))
    c4_only = MorphismSet.of(hset.entries[3:])
    ok = semantic_consequence(G, c4_only, goal, G.universe(3), exact=False, bound=3).holds
    checks.append(("every graph on <= 3 nodes injective for {} -> C4 has a loop", ok))

    verdict = semantic_consequence(G, hset, goal, G.universe(4), exact=False, bound=4)
    c4 = G.obj(clique(4))
    ok = (
        not verdict.holds
        and verdict.counterexample == c4
        and not clique(4).has_loop()
        and all(G.is_injective(c4, h).holds for h in hset.morphisms())
    )
    checks.append(("C4 is the bound-4 counterexample to a forced loop", ok))

    result = prove(G, hset, goal, node_cap=8, depth_cap=4)
    checks.append(
        ("proof search for the forced loop stays inconclusive", result.status == "inconclusive")
    )
    return checks


def _cmd_demo(args) -> tuple[dict, list[str]]:
    checks = _demo_checks()
    lines = [f"{'pass' if ok else 'FAIL'}  {name}" for name, ok in checks]
    note = (
        "bounded graph verdicts inspect the finite graphs up to the bound only; "
        "holds-up-to(N) is never reported as holds"
    )
    lines.append(f"note: {note}")
    all_ok = all(ok for _, ok in checks)
    lines.append(f"verdict: {'pass' if all_ok else 'fail'}")
    report = {
        "topic": args.topic,
        "checks": [{"name": name, "pass": ok} for name, ok in checks],
        "note": note,
        "verdict": "pass" if all_ok else "fail",
    }
    return report, lines


# ---------------------------------------------------------------------------


@functools.cache
def _build_parser() -> _ArgumentParser:
    parser = _ArgumentParser(prog="injlog", description=__doc__)
    sub = parser.add_subparsers(dest="subcommand", parser_class=_ArgumentParser)

    def add(name: str, handler, with_file: bool = True):
        p = sub.add_parser(name)
        if with_file:
            p.add_argument("file", help="workspace file")
        p.add_argument("--json", action="store_true", help="print the report as JSON")
        p.set_defaults(handler=handler)
        return p

    p = add("check-inj", _cmd_check_inj)
    p.add_argument("--cat", required=True, help="lattice name or 'graphs'")
    p.add_argument("--object", required=True)
    p.add_argument("--hset", required=True)

    p = add("consequence", _cmd_consequence)
    p.add_argument("--hset", required=True)
    p.add_argument("--goal", required=True)
    p.add_argument("--max-size", type=int, default=4, help="graph node bound")

    p = add("prove", _cmd_prove)
    p.add_argument("--hset", required=True)
    p.add_argument("--goal", required=True)
    p.add_argument("--node-cap", type=int, default=12)
    p.add_argument("--depth", type=int, default=6)
    p.add_argument("--emit-proof", metavar="OUT")

    p = add("check-proof", _cmd_check_proof)
    p.add_argument("--proof", required=True)
    p.add_argument("--hset", required=True)

    p = add("saturate", _cmd_saturate)
    p.add_argument("--cat", required=True, help="lattice name")
    p.add_argument("--hset", required=True)
    p.add_argument("--disable", action="append", default=[], choices=RULES, metavar="RULE")
    p.add_argument("--goal")

    p = add("reflect", _cmd_reflect)
    p.add_argument("--cat", required=True, help="lattice name or 'graphs'")
    p.add_argument("--object", required=True)
    p.add_argument("--hset", required=True)
    p.add_argument("--max-rounds", type=int, default=16)
    p.add_argument("--node-cap", type=int, default=1024, help="largest apex a round may build")
    p.add_argument("--emit-trace", metavar="OUT")

    p = add("sentence", _cmd_sentence)
    p.add_argument("--mor", required=True)

    p = add("demo", _cmd_demo, with_file=False)
    p.add_argument("topic", choices=["section7"])

    return parser


def _refuse(args, kind: str, message: str, **fields) -> None:
    """Print a usage or parse error, as JSON with --json."""
    if args.json:
        print(json.dumps({"verdict": f"{kind}-error", "error": message, **fields}))
    else:
        print(f"{kind} error: {message}", file=sys.stderr)


def main(argv: Sequence[str] | None = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except UsageError as err:
        print(f"usage error: {err}", file=sys.stderr)
        return 64
    if not hasattr(args, "handler"):
        parser.print_usage(sys.stderr)
        return 64
    start = time.perf_counter()
    try:
        report, lines = args.handler(args)
    except (UsageError, LatticeError) as err:
        message = str(err)
        if isinstance(err, LatticeError) and err.kind == "no-join":
            # a colimit query on a declared poset that is not a complete lattice
            joined = " and ".join(err.witness) or "no elements (there is no bottom)"
            message = f"not a complete lattice: no join of {joined}"
        _refuse(args, "usage", message)
        return 64
    except DslError as err:
        diag = err.diagnostic
        _refuse(args, "parse", diag.render(), line=diag.line, col=diag.col)
        return 65
    code = _EXIT_CODES.get(report["verdict"], 2)
    report = {"command": args.subcommand, **report, "timing": round(time.perf_counter() - start, 6)}
    if args.json:
        print(json.dumps(report, indent=2))
    else:
        for line in lines:
            print(line)
    return code


if __name__ == "__main__":
    sys.exit(main())

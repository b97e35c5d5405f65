import json
import random
import re
import sys
from pathlib import Path

import pytest

from injlog import cli
from injlog.cli import main
from injlog.core import semantic_consequence
from injlog.dsl import MAX_PROOF_DEPTH, parse, print_workspace, proof_to_text
from injlog.lattice import random_lattice
from injlog.proofs import RULES, check_proof, saturate, used_hypotheses
from oracles import random_hypotheses

WORKSPACE = """
lattice chain {
  elements: 0 1 2;
  leq: 0<1, 1<2;
}

mor h : 0 -> 2;
mor goal : 0 -> 1;
mor rest : 1 -> 2;
mor idzero : 0 -> 0;

hset H { h }
hset none { }

graph zero { nodes: ; }
graph pt { nodes: p; }
graph edge { nodes: u v; edges: u->v; }
graph lp { nodes: q; edges: q->q; }
graph c4 { nodes: n0 n1 n2 n3; edges: n0->n1, n1->n2, n2->n3, n3->n0; }

mor inc : pt -> edge { p |-> u }
mor zp : zero -> pt { }
mor zl : zero -> lp { }
mor zc4 : zero -> c4 { }

hset HL { zl }
hset HP { zp }
hset HC { zc4 }

proof step { (cancel (hyp h) goal rest) }
proof broken { (cancel (hyp h) rest goal) }
proof mixed { (comp (id 0) (id pt)) }
"""


@pytest.fixture(scope="module")
def ws_file(tmp_path_factory):
    path = tmp_path_factory.mktemp("cli") / "work.inj"
    path.write_text(WORKSPACE)
    return str(path)


def run(capsys, *argv):
    code = main(list(argv))
    return code, capsys.readouterr().out


def test_saturate_complete(ws_file, capsys):
    code, out = run(capsys, "saturate", ws_file, "--cat", "chain", "--hset", "H")
    assert code == 0
    assert "verdict: complete" in out


def test_disabled_rules_do_not_carry_over_to_the_next_call(ws_file, capsys):
    code, out = run(
        capsys, "saturate", ws_file, "--cat", "chain", "--hset", "H", "--disable", "cancellation"
    )
    assert code == 1
    assert "verdict: incomplete" in out
    code, out = run(capsys, "saturate", ws_file, "--cat", "chain", "--hset", "H")
    assert code == 0
    assert "verdict: complete" in out


def test_saturate_without_cancellation_is_incomplete(ws_file, capsys):
    code, out = run(
        capsys, "saturate", ws_file, "--cat", "chain", "--hset", "H",
        "--disable", "cancellation",
    )
    assert code == 1
    assert "verdict: incomplete" in out
    assert "0->1" in out


def test_saturate_goal_modes(ws_file, capsys):
    code, out = run(
        capsys, "saturate", ws_file, "--cat", "chain", "--hset", "H", "--goal", "goal"
    )
    assert code == 0 and "verdict: derived" in out
    code, out = run(
        capsys, "saturate", ws_file, "--cat", "chain", "--hset", "H",
        "--goal", "goal", "--disable", "cancellation",
    )
    assert code == 1 and "verdict: not-derived" in out


def test_consequence_lattice_holds(ws_file, capsys):
    code, out = run(capsys, "consequence", ws_file, "--hset", "none", "--goal", "idzero")
    assert code == 0
    assert "verdict: holds" in out


def test_consequence_graph_counterexample(ws_file, capsys):
    code, out = run(capsys, "consequence", ws_file, "--hset", "HP", "--goal", "zl")
    assert code == 1
    assert "verdict: counterexample" in out


def test_consequence_graph_bounded_verdict_is_qualified(ws_file, capsys):
    code, out = run(
        capsys, "consequence", ws_file, "--hset", "HL", "--goal", "zp",
        "--max-size", "3",
    )
    assert code == 2
    assert "verdict: holds-up-to(3)" in out
    assert "verdict: holds\n" not in out


def test_prove_found_and_emitted_proof_rechecks(ws_file, tmp_path, capsys):
    out_file = tmp_path / "found.inj"
    code, out = run(
        capsys, "prove", ws_file, "--hset", "H", "--goal", "goal",
        "--emit-proof", str(out_file),
    )
    assert code == 0
    assert "verdict: found" in out
    emitted = out_file.read_text()
    assert emitted.startswith("proof found {")
    combined = tmp_path / "combined.inj"
    combined.write_text(WORKSPACE + "\n" + emitted)
    code, out = run(
        capsys, "check-proof", str(combined), "--proof", "found", "--hset", "H"
    )
    assert code == 0
    assert "verdict: valid" in out
    assert "0->1" in out


def test_prove_finds_cancellation_through_the_point(ws_file, capsys):
    # the empty-to-loop arrow factors through the loopless point
    code, out = run(capsys, "prove", ws_file, "--hset", "HL", "--goal", "zp")
    assert code == 0
    assert "verdict: found\nrounds: 1\nstopped: goal\n" in out
    code, out = run(capsys, "prove", ws_file, "--hset", "HL", "--goal", "zp", "--json")
    assert json.loads(out)["stop_reason"] == "goal"


def test_prove_inconclusive_under_tight_budget(ws_file, capsys):
    code, out = run(
        capsys, "prove", ws_file, "--hset", "HC", "--goal", "zl",
        "--node-cap", "4", "--depth", "2",
    )
    assert code == 2
    assert "verdict: inconclusive" in out
    # every pushout apex has more than 4 nodes, so the node cap emptied the search
    assert "stopped: node_cap" in out


def test_prove_pruned_by_the_node_cap_is_inconclusive(ws_file, capsys):
    # the goal is derivable, but a node cap of 0 admits no lattice element
    code, out = run(
        capsys, "prove", ws_file, "--hset", "H", "--goal", "goal", "--node-cap", "0",
    )
    assert code == 2
    assert "verdict: inconclusive\nrounds: 0\nstopped: node_cap\n" in out


def test_check_proof_valid_and_invalid(ws_file, capsys):
    code, out = run(capsys, "check-proof", ws_file, "--proof", "step", "--hset", "H")
    assert code == 0
    assert "verdict: valid" in out
    assert "hypotheses used: h" in out
    code, out = run(capsys, "check-proof", ws_file, "--proof", "broken", "--hset", "H")
    assert code == 1
    assert "verdict: invalid" in out


def test_a_proof_mixing_categories_is_invalid(ws_file, capsys):
    # the lattice refuses the graph object pt: an invalid proof, not a crash
    argv = ("check-proof", ws_file, "--proof", "mixed", "--hset", "H")
    code, out = run(capsys, *argv)
    assert code == 1
    assert out.startswith("verdict: invalid\nerror: ") and "is not from lattice:chain" in out
    code, out = run(capsys, *argv, "--json")
    assert code == 1
    report = json.loads(out)
    assert (report["verdict"], report["conclusion"]) == ("invalid", None)
    assert "is not from lattice:chain" in report["error"]


def nested(wrap: str, depth: int) -> str:
    """A proof of the given depth: (id 2) wrapped depth - 1 times."""
    term = "(id 2)"
    for _ in range(depth - 1):
        term = wrap.format(term)
    return term


@pytest.mark.parametrize("wrap", [
    "(comp (id 2) {})",
    "(push {} (lmor 2 2))",
    "(cancel {} (lmor 2 2) (lmor 2 2))",
    "(coprod {})",
    "(widepush {})",
], ids=lambda w: w.split()[0][1:])
def test_proofs_nest_up_to_the_depth_limit(tmp_path, capsys, wrap):
    path = tmp_path / "deep.inj"
    argv = ("check-proof", str(path), "--proof", "deep", "--hset", "H", "--json")
    path.write_text(f"{WORKSPACE}proof deep {{ {nested(wrap, MAX_PROOF_DEPTH)} }}\n")
    code, out = run(capsys, *argv)
    assert (code, json.loads(out)["verdict"]) == (0, "valid")
    printed = print_workspace(parse(path.read_text()))
    assert print_workspace(parse(printed)) == printed
    ws, again = parse(path.read_text()), parse(path.read_text())
    term, cat, hset = ws.proofs["deep"].term, ws.lattices["chain"].category, ws.hsets["H"].morphisms
    # every walk over a parsed term keeps its own stack: with room for
    # 100 more frames, none may recurse once per level
    depth, frame = 0, sys._getframe()
    while frame is not None:
        depth, frame = depth + 1, frame.f_back
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(depth + 100)
    try:
        assert check_proof(cat, hset, term) == cat.identity(cat.obj("2"))
        assert f"proof deep {{ {proof_to_text(ws, term)} }}" in printed
        assert used_hypotheses(term) == []
        assert ws == again
        assert term == again.proofs["deep"].term and hash(term) == hash(again.proofs["deep"].term)
        shown = repr(term)
        assert shown.count("Identity(obj=") == nested(wrap, MAX_PROOF_DEPTH).count("(id ")
        assert shown in repr(ws)
    finally:
        sys.setrecursionlimit(limit)

    line = nested(wrap, MAX_PROOF_DEPTH + 1)
    path.write_text(f"{WORKSPACE}proof deep {{ {line} }}\n")
    code, out = run(capsys, *argv)
    assert code == 65
    report = json.loads(out)
    depth = 0  # the first form past the limit is the first "(" that deep
    for col, ch in enumerate(line, start=len("proof deep { ") + 1):
        depth += (ch == "(") - (ch == ")")
        if depth > MAX_PROOF_DEPTH:
            break
    assert (report["line"], report["col"]) == (WORKSPACE.count("\n") + 1, col)
    assert f"nested deeper than {MAX_PROOF_DEPTH} forms" in report["error"]


def test_the_readme_workspace_and_commands(tmp_path, capsys):
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    section = readme[readme.index("## Command line"):]
    path = tmp_path / "readme.inj"
    path.write_text(section.split("```")[1])
    listed = [
        re.sub(r"\[[^]]*\]", "", command).split()
        for command in re.findall(r"^- `injlog (.*?)`", section, flags=re.M | re.S)
    ]
    on_file = [argv for argv in listed if "FILE" in argv]
    assert len(on_file) == 7
    # as the README says: each exits 0 there, but check-inj exits 1
    for argv in on_file:
        code, _ = run(capsys, *(str(path) if a == "FILE" else a for a in argv))
        assert code == (1 if argv[0] == "check-inj" else 0), argv


def test_check_inj_lattice(ws_file, capsys):
    code, out = run(
        capsys, "check-inj", ws_file, "--cat", "chain", "--object", "2", "--hset", "H"
    )
    assert code == 0 and "verdict: all-injective" in out
    code, out = run(
        capsys, "check-inj", ws_file, "--cat", "chain", "--object", "1", "--hset", "H"
    )
    assert code == 1 and "verdict: not-injective" in out


def test_check_inj_graphs(ws_file, capsys):
    code, out = run(
        capsys, "check-inj", ws_file, "--cat", "graphs", "--object", "lp", "--hset", "HL"
    )
    assert code == 0
    code, out = run(
        capsys, "check-inj", ws_file, "--cat", "graphs", "--object", "pt", "--hset", "HL"
    )
    assert code == 1


def test_reflect_graphs_converges_and_emits_trace(ws_file, tmp_path, capsys):
    trace_file = tmp_path / "trace.txt"
    code, out = run(
        capsys, "reflect", ws_file, "--cat", "graphs", "--object", "zero",
        "--hset", "HL", "--emit-trace", str(trace_file),
    )
    assert code == 0
    assert "verdict: converged" in out
    text = trace_file.read_text()
    assert text.startswith("reflection-trace")
    assert "converged true" in text


def test_reflect_without_rounds_does_not_converge(ws_file, capsys):
    code, out = run(
        capsys, "reflect", ws_file, "--cat", "graphs", "--object", "zero",
        "--hset", "HL", "--max-rounds", "0",
    )
    assert code == 2
    assert "verdict: not-converged" in out


def test_sentence_renders_graph_morphism(ws_file, capsys):
    code, out = run(capsys, "sentence", ws_file, "--mor", "inc")
    assert code == 0
    assert "∀x0 ( true → ∃y0 ( E(x0,y0) ) )" in out


def test_sentence_rejects_lattice_morphism(ws_file, capsys):
    code, _ = run(capsys, "sentence", ws_file, "--mor", "h")
    assert code == 64


def test_usage_errors(ws_file, capsys):
    assert run(capsys, "saturate", "/no/such/file", "--cat", "chain", "--hset", "H")[0] == 64
    assert run(capsys, "saturate", ws_file, "--cat", "nope", "--hset", "H")[0] == 64
    assert run(capsys, "check-inj", ws_file, "--cat", "chain", "--object", "9", "--hset", "H")[0] == 64
    assert run(capsys, "frobnicate", ws_file)[0] == 64


def assert_usage_error(capsys, argv, message):
    """Exit 64 with message on stderr, and the same error under --json."""
    assert main(argv) == 64
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"usage error: {message}\n"
    code, out = run(capsys, *argv, "--json")
    assert code == 64
    assert json.loads(out) == {"verdict": "usage-error", "error": message}


def test_no_subcommand_prints_the_usage_and_exits_64(capsys):
    assert main([]) == 64
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("usage: injlog [-h]")
    # --json belongs to the subcommands, so alone it is a usage error too
    assert main(["--json"]) == 64
    captured = capsys.readouterr()
    assert (captured.out, captured.err) == ("", "usage error: unrecognized arguments: --json\n")


@pytest.mark.parametrize(
    "argv, message",
    [
        (("check-inj", "--cat", "graphs", "--object", "nope", "--hset", "HL"), "unknown graph 'nope'"),
        (("prove", "--hset", "H", "--goal", "nope"), "unknown morphism 'nope'"),
        (("check-inj", "--cat", "chain", "--object", "0", "--hset", "nope"), "unknown hset 'nope'"),
        (("check-proof", "--proof", "nope", "--hset", "H"), "unknown proof 'nope'"),
        (
            ("check-inj", "--cat", "chain", "--object", "0", "--hset", "HL"),
            "hset 'HL' is not in the selected category",
        ),
        (
            ("saturate", "--cat", "graphs", "--hset", "HL"),
            "saturation needs a finite closed category: pick a lattice",
        ),
    ],
    ids=["graph", "morphism", "hset", "proof", "foreign-hset", "saturate-graphs"],
)
def test_unknown_and_misplaced_names_are_usage_errors(ws_file, capsys, argv, message):
    assert_usage_error(capsys, [argv[0], ws_file, *argv[1:]], message)


def test_a_qualified_object_names_its_element(ws_file, capsys):
    argv = ["check-inj", ws_file, "--cat", "chain", "--hset", "H", "--object"]
    assert run(capsys, *argv, "chain.1") == run(capsys, *argv, "1") == (
        1, "h: not injective (no extension of 0->1)\nverdict: not-injective\n"
    )
    code, out = run(capsys, *argv, "chain.1", "--json")
    report = json.loads(out)
    assert (code, report["object"], report["verdict"]) == (1, "1", "not-injective")


def test_a_proof_naming_no_object_takes_its_category_from_the_hset(tmp_path, capsys):
    path = tmp_path / "bare.inj"
    path.write_text(WORKSPACE + "proof bare { (hyp h) }\n")
    argv = ["check-proof", str(path), "--proof", "bare", "--hset"]
    assert run(capsys, *argv, "H") == (0, "verdict: valid\nconclusion: 0->2\nhypotheses used: h\n")
    code, out = run(capsys, *argv, "H", "--json")
    assert (code, json.loads(out)["conclusion"]) == (0, "0->2")
    assert_usage_error(capsys, [*argv, "none"], "cannot infer the category from an empty hset")


@pytest.mark.parametrize("goal", ["inc", "xy"])
def test_saturate_refuses_a_goal_from_another_category(tmp_path, capsys, goal):
    path = tmp_path / "two.inj"
    path.write_text(WORKSPACE + "lattice two { elements: x y; leq: x<y; }\nmor xy : x -> y;\n")
    argv = ["saturate", str(path), "--cat", "chain", "--hset", "H", "--goal", goal]
    assert_usage_error(capsys, argv, f"morphism {goal!r} is not in the selected category")


@pytest.mark.parametrize(
    "argv",
    [
        ("prove", "--hset", "H", "--goal", "goal", "--emit-proof"),
        ("reflect", "--cat", "graphs", "--object", "zero", "--hset", "HL", "--emit-trace"),
    ],
    ids=lambda argv: argv[-1],
)
def test_an_unwritable_output_path_is_a_usage_error(ws_file, tmp_path, capsys, argv):
    out = str(tmp_path / "missing" / "out.txt")
    message = f"cannot write {out!r}: No such file or directory"
    assert_usage_error(capsys, [argv[0], ws_file, *argv[1:], out], message)


@pytest.mark.parametrize(
    "argv",
    [
        ("consequence", "--hset", "HL", "--goal", "zp", "--max-size", "-2"),
        ("prove", "--hset", "H", "--goal", "goal", "--depth", "-1"),
        ("prove", "--hset", "H", "--goal", "goal", "--node-cap", "-1"),
        ("reflect", "--cat", "graphs", "--object", "zero", "--hset", "HL", "--max-rounds", "-1"),
    ],
    ids=lambda argv: argv[-2],
)
def test_negative_budgets_are_usage_errors(ws_file, capsys, argv):
    assert main([argv[0], ws_file, *argv[1:]]) == 64
    captured = capsys.readouterr()
    assert captured.out == ""
    assert f"{argv[-2]} must be non-negative" in captured.err
    code, out = run(capsys, argv[0], ws_file, *argv[1:], "--json")
    assert code == 64
    report = json.loads(out)
    assert report["verdict"] == "usage-error"
    assert argv[-2] in report["error"]


NO_JOIN = """
lattice P { elements: a b; }
mor ida : a -> a;
hset H { ida }
"""


@pytest.mark.parametrize(
    "argv",
    [
        ("reflect", "--cat", "P", "--object", "a", "--hset", "H"),
        ("prove", "--hset", "H", "--goal", "ida"),
        ("saturate", "--cat", "P", "--hset", "H"),
    ],
    ids=lambda argv: argv[0],
)
def test_a_poset_without_a_join_is_a_usage_error(tmp_path, capsys, argv):
    path = tmp_path / "nojoin.inj"
    path.write_text(NO_JOIN)
    assert main([argv[0], str(path), *argv[1:]]) == 64
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "usage error: not a complete lattice: no join of a and b" in captured.err
    code, out = run(capsys, argv[0], str(path), *argv[1:], "--json")
    assert code == 64
    report = json.loads(out)
    assert report == {
        "verdict": "usage-error",
        "error": "not a complete lattice: no join of a and b",
    }


def test_parse_error_exit_code_and_json_shape(tmp_path, capsys):
    bad = tmp_path / "bad.inj"
    bad.write_text("lattice L { elements: a a; }")
    code, _ = run(capsys, "saturate", str(bad), "--cat", "L", "--hset", "H")
    assert code == 65
    code, out = run(capsys, "saturate", str(bad), "--cat", "L", "--hset", "H", "--json")
    assert code == 65
    report = json.loads(out)
    assert report["verdict"] == "parse-error"
    assert report["line"] == 1


def test_parse_error_at_an_earlier_token_reports_its_position(tmp_path, capsys):
    # the mixed hset is refused after its closing brace, at its keyword
    bad = tmp_path / "mixed.inj"
    bad.write_text(WORKSPACE + "\n   hset across {\n  h, inc }\n")
    code, out = run(capsys, "saturate", str(bad), "--cat", "chain", "--hset", "H", "--json")
    assert code == 65
    report = json.loads(out)
    line = WORKSPACE.count("\n") + 2
    assert (report["verdict"], report["line"], report["col"]) == ("parse-error", line, 4)
    assert report["error"] == (
        f"line {line}, col 4: hypotheses span more than one category (hint: an hset lives in a single category)"
    )


def test_a_dotted_lattice_name_is_a_parse_error(tmp_path, capsys):
    bad = tmp_path / "dotted.inj"
    bad.write_text("lattice M.N { elements: x y; leq: x<y; }\nmor h : M.N.x -> M.N.y;\nhset H { h }\n")
    code, _ = run(capsys, "saturate", str(bad), "--cat", "M.N", "--hset", "H")
    assert code == 65
    code, out = run(capsys, "saturate", str(bad), "--cat", "M.N", "--hset", "H", "--json")
    assert code == 65
    report = json.loads(out)
    assert (report["verdict"], report["line"], report["col"]) == ("parse-error", 1, 9)
    assert report["error"] == "line 1, col 9: lattice name 'M.N' has a dot (hint: name a lattice without '.')"


def text_verdict(out: str) -> str:
    for line in out.splitlines():
        if line.startswith("verdict: "):
            return line[len("verdict: "):]
    raise AssertionError("no verdict line in output")


AGREEMENT_CASES = [
    ("saturate", "--cat", "chain", "--hset", "H"),
    ("saturate", "--cat", "chain", "--hset", "H", "--disable", "pushout"),
    ("consequence", "--hset", "none", "--goal", "idzero"),
    ("consequence", "--hset", "HP", "--goal", "zl"),
    ("consequence", "--hset", "HL", "--goal", "zp", "--max-size", "3"),
    ("prove", "--hset", "H", "--goal", "goal"),
    ("check-proof", "--proof", "step", "--hset", "H"),
    ("check-inj", "--cat", "chain", "--object", "1", "--hset", "H"),
    ("reflect", "--cat", "graphs", "--object", "zero", "--hset", "HL"),
]


@pytest.mark.parametrize("case", AGREEMENT_CASES, ids=lambda c: "-".join(c[:3]))
def test_json_and_text_modes_agree(ws_file, capsys, case):
    argv = [case[0], ws_file, *case[1:]]
    text_code, out = run(capsys, *argv)
    json_code, jout = run(capsys, *argv, "--json")
    assert text_code == json_code
    report = json.loads(jout)
    assert report["verdict"] == text_verdict(out)
    assert "timing" in report


def test_demo_section7_passes(capsys):
    code, out = run(capsys, "demo", "section7")
    assert code == 0
    assert "verdict: pass" in out
    assert "FAIL" not in out
    assert "holds-up-to(N) is never reported as holds" in out


POINT_TO_EDGE = """
graph pt { nodes: p; }
graph edge { nodes: u v; edges: u->v; }
mor inc : pt -> edge { p |-> u }
hset HI { inc }
"""


def test_reflect_reports_what_stopped_it(ws_file, tmp_path, capsys):
    path = tmp_path / "grow.inj"
    path.write_text(POINT_TO_EDGE)
    base = ("reflect", str(path), "--cat", "graphs", "--object", "pt", "--hset", "HI")
    code, out = run(capsys, *base, "--max-rounds", "2")
    assert code == 2
    assert out.endswith("verdict: not-converged\nstopped: max_rounds\n")
    # each round doubles the object, so a cap of 4 nodes allows two rounds
    code, out = run(capsys, *base, "--node-cap", "4", "--json")
    report = json.loads(out)
    assert code == 2
    assert (report["verdict"], report["stop_reason"], report["rounds"]) == ("not-converged", "node_cap", 2)
    assert main([*base, "--node-cap", "-1"]) == 64
    assert "--node-cap must be non-negative" in capsys.readouterr().err
    code, out = run(capsys, "reflect", ws_file, "--cat", "chain", "--object", "0", "--hset", "H")
    assert code == 0
    assert out.endswith("verdict: converged\nstopped: converged\n")


# (argv after the subcommand and file, verdict, exit code): every verdict
# each subcommand can give on WORKSPACE
VERDICT_CASES = {
    "check-inj": [
        (("--cat", "chain", "--object", "2", "--hset", "H"), "all-injective", 0),
        (("--cat", "chain", "--object", "1", "--hset", "H"), "not-injective", 1),
    ],
    "consequence": [
        (("--hset", "none", "--goal", "idzero"), "holds", 0),
        (("--hset", "HP", "--goal", "zl"), "counterexample", 1),
        (("--hset", "HL", "--goal", "zp", "--max-size", "3"), "holds-up-to(3)", 2),
    ],
    "prove": [
        (("--hset", "H", "--goal", "goal"), "found", 0),
        (("--hset", "none", "--goal", "rest"), "refuted", 1),
        (("--hset", "HC", "--goal", "zl", "--node-cap", "4", "--depth", "2"), "inconclusive", 2),
    ],
    "check-proof": [
        (("--proof", "step", "--hset", "H"), "valid", 0),
        (("--proof", "broken", "--hset", "H"), "invalid", 1),
    ],
    "saturate": [
        (("--cat", "chain", "--hset", "H"), "complete", 0),
        (("--cat", "chain", "--hset", "H", "--disable", "cancellation"), "incomplete", 1),
        (("--cat", "chain", "--hset", "H", "--goal", "goal"), "derived", 0),
        (("--cat", "chain", "--hset", "H", "--goal", "goal", "--disable", "cancellation"), "not-derived", 1),
    ],
    "reflect": [
        (("--cat", "chain", "--object", "0", "--hset", "H"), "converged", 0),
        (("--cat", "graphs", "--object", "zero", "--hset", "HL", "--max-rounds", "0"), "not-converged", 2),
    ],
    "sentence": [(("--mor", "inc"), "ok", 0)],
}
# verdicts that exit 2, outside the table
UNDECIDED = ("holds-up-to(3)", "inconclusive", "not-converged")


@pytest.mark.parametrize(
    "command, args, verdict, code",
    [(command, *case) for command, cases in VERDICT_CASES.items() for case in cases],
    ids=lambda v: v if isinstance(v, str) else None,
)
def test_every_verdict_exits_with_its_code(ws_file, capsys, command, args, verdict, code):
    for mode in ((), ("--json",)):
        got, out = run(capsys, command, ws_file, *args, *mode)
        if mode:
            shown = json.loads(out)["verdict"]
        else:  # the text form of sentence prints the sentence alone
            shown = "ok" if command == "sentence" else text_verdict(out)
        assert (shown, got) == (verdict, code)


@pytest.mark.parametrize("passed, verdict, code", [(True, "pass", 0), (False, "fail", 1)])
def test_the_demo_exits_with_its_verdicts_code(capsys, monkeypatch, passed, verdict, code):
    # the real checks all pass (test_demo_section7_passes); a stand-in list
    # reaches the other verdict
    monkeypatch.setattr(cli, "_demo_checks", lambda: [("stand-in check", passed)])
    got, out = run(capsys, "demo", "section7")
    assert (text_verdict(out), got) == (verdict, code)


def test_the_exit_code_table_holds_every_decided_verdict_and_no_other():
    met = {(verdict, code) for cases in VERDICT_CASES.values() for _, verdict, code in cases}
    met |= {("pass", 0), ("fail", 1)}
    assert {(v, cli._EXIT_CODES.get(v, 2)) for v, _ in met} == met
    assert set(cli._EXIT_CODES) == {v for v, _ in met} - set(UNDECIDED)


def per_morphism_saturate_report(text: str, rules: tuple[str, ...]) -> tuple[list[str], list[str]]:
    """missing and unsound as the CLI computed them with one exact
    semantic_consequence per morphism: the reference for the reading off
    LatticeCategory.injectives."""
    ws = parse(text)
    cat, hset = ws.lattices["L"].category, ws.hsets["H"].morphisms
    result = saturate(cat, hset, rules)
    universe = cat.search_universe()
    semantic = [m for m in cat.all_morphisms() if semantic_consequence(cat, hset, m, universe, exact=True).holds]
    missing = [cat.morphism_label(m) for m in semantic if not result.has(m)]
    extra = [cat.morphism_label(m) for m in result.derived if m not in set(semantic)]
    return missing, extra


def random_lattice_workspace(seed: int) -> str:
    rng = random.Random(seed)
    cat = random_lattice(rng, max_size=6)
    els, up = cat.p.elements, cat.p.up
    leq = [f"{els[a]}<{els[b]}" for a in range(len(els)) for b in range(len(els)) if a != b and up[a] >> b & 1]
    lines = [f"lattice L {{ elements: {' '.join(els)}; leq: {', '.join(leq)}; }}"]
    hyps = random_hypotheses(rng, cat, max_count=4)
    lines += [f"mor {name} : {els[m.dom.index]} -> {els[m.cod.index]};" for name, m in hyps]
    lines.append(f"hset H {{ {', '.join(hyps.names())} }}")
    return "\n".join(lines) + "\n"


@pytest.mark.parametrize("seed", range(16))
def test_saturate_missing_and_unsound_match_the_per_morphism_loop(tmp_path, capsys, seed):
    text = random_lattice_workspace(seed)
    path = tmp_path / "random.inj"
    path.write_text(text)
    for disabled in (None, *RULES):
        flags = () if disabled is None else ("--disable", disabled)
        code, out = run(capsys, "saturate", str(path), "--cat", "L", "--hset", "H", "--json", *flags)
        report = json.loads(out)
        missing, unsound = per_morphism_saturate_report(text, tuple(r for r in RULES if r != disabled))
        assert (report["missing"], report["unsound"]) == (missing, unsound)
        assert report["verdict"] == ("incomplete" if missing or unsound else "complete")
        assert code == (1 if missing or unsound else 0)

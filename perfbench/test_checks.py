"""The benchmark's own checks: planted wrong answers must be counted.

    python3 -m pytest perfbench -q
"""

from __future__ import annotations

import dataclasses
import json
import random
import signal
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import injlog  # noqa: E402
import pytest  # noqa: E402

import hostspeed  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402
from oracle import LatticeOracle, clique_components, is_clique  # noqa: E402


def chain_theory() -> workloads.Theory:
    cat = injlog.LatticeCategory(injlog.presentation_from_pairs("chain", ["0", "1", "2"], [("0", "1"), ("1", "2")]))
    hyps = injlog.MorphismSet.of([("h", cat.mor("0", "1"))])
    return workloads.Theory(cat, hyps, [cat.mor("0", "1"), cat.mor("1", "2")])


def test_oracle_on_the_three_chain():
    oracle = LatticeOracle([[1, 1, 1], [0, 1, 1], [0, 0, 1]], [(0, 2)])
    assert oracle.injectives == [2]
    assert oracle.semantic == {(a, b) for a in range(3) for b in range(a, 3)}
    assert [oracle.reflection_apex(x) for x in range(3)] == [2, 2, 2]
    empty = LatticeOracle([[1, 1, 1], [0, 1, 1], [0, 0, 1]], [])
    assert empty.semantic == {(0, 0), (1, 1), (2, 2)}
    assert empty.counterexample(0, 1) == 0


def test_clique_shapes():
    assert is_clique(4, injlog.clique(4).edges, 4)
    assert not is_clique(4, injlog.clique(3).edges, 4)
    assert is_clique(0, (), 0)
    assert clique_components(3, [(1, 2), (2, 1)]) == [1, 2]
    assert clique_components(1, [(0, 0)]) is None


def test_lattice_theory_answers_pass_and_planted_errors_fail():
    q = workloads.theory_query(chain_theory())
    saturated, proved, traces = q.run()
    assert q.check((saturated, proved, traces)) == []
    missing = dataclasses.replace(saturated, derived=saturated.derived[1:])
    assert q.check((missing, proved, traces))
    flipped = [dataclasses.replace(proved[0], status="refuted", proof=None), *proved[1:]]
    assert q.check((saturated, flipped, traces))
    assert q.check((saturated, proved, traces[1:] + traces[:1]))
    wrong_proof = dict(saturated.provenance)
    first, second = saturated.derived[0], saturated.derived[-1]
    wrong_proof[first] = wrong_proof[second]
    assert q.check((dataclasses.replace(saturated, provenance=wrong_proof), proved, traces))


def test_clique_verdict_checks_reject_a_wrong_witness_and_an_exact_holds():
    q = workloads._bounded_query(4, 4)
    ref = injlog.ObjRef("graphs", 0)
    assert q.check((injlog.ConsequenceVerdict(False, ref, False, 4), injlog.clique(4))) == []
    assert q.check((injlog.ConsequenceVerdict(False, ref, False, 4), injlog.clique(3)))
    assert q.check((injlog.ConsequenceVerdict(True, None, True, None), None))
    b = workloads._bounded_query(5, 3)
    assert b.check((injlog.ConsequenceVerdict(True, None, False, 3), None)) == []
    assert b.check((injlog.ConsequenceVerdict(True, None, True, None), None))


def test_cli_checks_reject_a_wrong_verdict(tmp_path):
    wl = workloads.build("cli-session", 0, tmp_path)
    assert len(wl.queries) >= 100
    for q in wl.queries[:14] + wl.queries[-16:]:
        code, text = q.run()
        assert q.check((code, text)) == [], q.label
        if q.label.endswith("--json"):
            report = json.loads(text)
            report["verdict"] = "planted"
            assert q.check((code, json.dumps(report))), q.label
        else:
            assert q.check((code + 1, text)), q.label


def test_run_pass_counts_planted_and_raising_queries():
    good = workloads.theory_query(chain_theory())
    planted = workloads.Query("planted", good.run, lambda answer: ["planted wrong answer"])

    def boom():
        raise RuntimeError("planted failure")

    raising = workloads.Query("raising", boom, good.check)
    tally = run.Tally()
    run.run_pass([good, planted, raising], tally)
    assert (tally.attempted, tally.failed) == (3, 2)
    assert len(tally.passes) == 1 and len(tally.passes[0]) == 3


def test_lattice_fixtures_repeat_per_seed():
    def shape(seed):
        return [
            (t.cat.p.size, t.cat.p.leq.tobytes(), [(m.dom.index, m.cod.index) for m in t.hyps.morphisms()])
            for t in workloads.lattice_theories(seed)
        ]

    first = shape(3)
    assert len(first) >= 100
    assert first == shape(3)
    assert first != shape(4)


def test_benchmark_json_matches_the_reported_metrics():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == tracing.PER_LAYER
    assert [w["name"] for w in spec["workloads"]] == list(run.NAMES) == list(workloads.NAMES)
    tracer = tracing.Tracer()
    assert [(k, v["unit"]) for k, v in tracer.metrics(0.0).items()] == tracing.PER_LAYER


def test_tracer_counts_calls_and_restores_the_originals():
    t = chain_theory()
    saturate = injlog.proofs.saturate
    tracer = tracing.Tracer()
    tracer.install()
    try:
        injlog.proofs.saturate(t.cat, t.hyps)
        with tracer.paused():
            injlog.proofs.saturate(t.cat, t.hyps)
        assert injlog.cli.saturate is not saturate
    finally:
        tracer.uninstall()
    assert injlog.proofs.saturate is saturate and injlog.cli.saturate is saturate
    metrics = tracer.metrics(0.0)
    assert metrics["proofs.saturate.calls"]["value"] == 1
    assert metrics["proofs.saturate.attempts"]["value"] > 0
    assert metrics["kernels.first.calls"]["value"] == 0
    assert metrics["proofs.saturate.self_s"]["value"] <= metrics["proofs.saturate.busy_s"]["value"]


@pytest.mark.parametrize("seed", [0, 1])
def test_downset_lattices_are_complete(seed):
    cat = workloads.downset_lattice(random.Random(seed), "D")
    lo, hi = workloads.DOWNSET_SIZES
    assert lo <= cat.p.size <= hi and cat.p.is_complete_lattice


def test_host_clock_samples_while_entered_and_averages_a_window():
    before = signal.getsignal(signal.SIGALRM)
    with hostspeed.HostClock() as clock:
        end = time.perf_counter() + 0.3
        while time.perf_counter() < end:
            pass
    assert signal.getsignal(signal.SIGALRM) is before
    assert len(clock.speeds) >= 5 and clock.spent > 0
    mid = clock.times[len(clock.times) // 2]
    assert clock.speed(mid, mid) > 0
    fixed = hostspeed.HostClock()
    fixed.times, fixed.speeds = [0.0, 1.0, 9.0], [0.5, 1.5, 4.0]
    assert fixed.speed(0.0, 1.0) == 1.0
    with pytest.raises(RuntimeError):
        fixed.speed(5.0, 5.0)

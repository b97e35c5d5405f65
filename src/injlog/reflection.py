"""Weak reflections into the injectivity class of a hypothesis set.

Each round attaches every hypothesis along every map from its domain
into the current object, all at once, by one ``Category.attach``.  On
a complete lattice this converges to the meet of the injective
elements above the start; over graphs the rounds may
grow forever, so a round budget and a node budget bound them, and
non-convergence is a legitimate, explicitly reported outcome that names
the budget that ended it.
"""

from __future__ import annotations

from dataclasses import dataclass

from .core import (
    Category,
    CoconeCheckReport,
    CoconeFailure,
    MorphismSet,
    MorRef,
    ObjRef,
    check_budgets,
    semantic_consequence,
)
from .proofs import Cancel, Compose, Hyp, Identity, ProofTerm, Push, WidePushN


@dataclass(frozen=True)
class ReflectionRound:
    """One simultaneous attachment round, built by one ``attach``.

    squares lists (hypothesis name, attaching map) in hypothesis order
    then canonical hom order; connecting is the attachment's composite
    from the round's input object to its output object.
    """

    squares: tuple[tuple[str, MorRef], ...]
    connecting: MorRef


@dataclass(frozen=True)
class ReflectionTrace:
    start: ObjRef
    rounds: tuple[ReflectionRound, ...]
    reflection: MorRef
    stop_reason: str  # "converged" | "max_rounds" | "node_cap"

    @property
    def converged(self) -> bool:
        return self.stop_reason == "converged"

    @property
    def apex(self) -> ObjRef:
        return self.reflection.cod


def reflect(
    cat: Category,
    hypotheses: MorphismSet,
    start: ObjRef,
    max_rounds: int = 16,
    node_cap: int = 1024,
) -> ReflectionTrace:
    """Iterate attachment rounds from start until the current object is
    injective for every hypothesis, or a budget ends the run: the round
    budget, or node_cap, which stops before a round whose apex could
    exceed it (``Category.attach_size``), so no such apex is built.  A
    negative budget raises ValueError."""
    check_budgets(max_rounds=max_rounds, node_cap=node_cap)
    cat.validate_for_colimits()
    current = start
    composite = cat.identity(start)
    rounds: list[ReflectionRound] = []

    def injective(x: ObjRef) -> bool:
        return all(cat.is_injective(x, m) for m in hypotheses.morphisms())

    def stop(reason: str) -> ReflectionTrace:
        return ReflectionTrace(start, tuple(rounds), composite, reason)

    for _ in range(max_rounds):
        if injective(current):
            return stop("converged")
        squares = [(name, h, f) for name, h in hypotheses for f in cat.enumerate_homs(h.dom, current)]
        attached = [(h, f) for _, h, f in squares]
        if cat.attach_size(current, attached) > node_cap:
            return stop("node_cap")
        connecting = cat.attach(current, attached).composite
        rounds.append(ReflectionRound(tuple((name, f) for name, _, f in squares), connecting))
        composite = cat.compose(connecting, composite)
        current = connecting.cod
    return stop("converged" if injective(current) else "max_rounds")


def round_proof(rnd: ReflectionRound) -> ProofTerm:
    """Derivation of the round's connecting morphism from the hypotheses."""
    return WidePushN(tuple(Push(Hyp(name), along=f) for name, f in rnd.squares))


def reflection_proof(trace: ReflectionTrace) -> ProofTerm:
    """Derivation of the full reflection morphism."""
    term: ProofTerm = Identity(trace.start)
    for k, rnd in enumerate(trace.rounds):
        term = round_proof(rnd) if k == 0 else Compose(round_proof(rnd), term)
    return term


def verify_weak_reflection(
    cat: Category, hypotheses: MorphismSet, trace: ReflectionTrace, universe
) -> CoconeCheckReport:
    """Check both weak reflection properties by enumeration.

    (i) the apex is injective for every hypothesis; (ii) every map from
    the start into an injective universe object factors through the
    reflection morphism, that is, the reflection morphism is a semantic
    consequence of the hypotheses over the universe.
    """
    apex = trace.apex
    for _, m in hypotheses:
        if not cat.is_injective(apex, m):
            return CoconeCheckReport(
                False, CoconeFailure(apex, "apex not injective for a hypothesis", (m,))
            )
    verdict = semantic_consequence(cat, hypotheses, trace.reflection, universe, exact=False)
    if verdict.holds:
        return CoconeCheckReport(True)
    x = verdict.counterexample
    unfactored = cat.is_injective(x, trace.reflection).counterexample
    return CoconeCheckReport(
        False, CoconeFailure(x, "no factorization through the reflection", (unfactored,))
    )


@dataclass(frozen=True)
class ReflectionConsequence:
    """Outcome of deriving a goal through the reflection route."""

    status: str  # "derived" | "not-consequence" | "inconclusive"
    proof: ProofTerm | None
    trace: ReflectionTrace


def consequence_via_reflection(
    cat: Category,
    hypotheses: MorphismSet,
    goal: MorRef,
) -> ReflectionConsequence:
    """Build the reflection of the goal's domain and cancel through it.

    If the reflection morphism factors as u . goal, the cancellation of
    the (provable) reflection morphism derives the goal.  On a finite
    closed category a missing factorization refutes the consequence; over
    an open universe it stays inconclusive, as does a non-converged
    reflection.
    """
    trace = reflect(cat, hypotheses, goal.dom)
    if not trace.converged:
        return ReflectionConsequence("inconclusive", None, trace)
    u = cat.find_factorization(goal, trace.reflection)
    if u is None:
        closed = cat.search_universe() is not None
        status = "not-consequence" if closed else "inconclusive"
        return ReflectionConsequence(status, None, trace)
    if goal == trace.reflection:
        return ReflectionConsequence("derived", reflection_proof(trace), trace)
    proof = Cancel(reflection_proof(trace), first=goal, rest=u)
    return ReflectionConsequence("derived", proof, trace)


def trace_to_text(cat: Category, trace: ReflectionTrace) -> str:
    """Line-oriented deterministic rendering, suitable for golden tests."""
    lines = [
        "reflection-trace",
        f"start {cat.object_label(trace.start)}",
        f"converged {'true' if trace.converged else 'false'}",
        f"rounds {len(trace.rounds)}",
    ]
    for k, rnd in enumerate(trace.rounds, start=1):
        lines.append(
            f"round {k} squares {len(rnd.squares)} "
            f"-> {cat.object_label(rnd.connecting.cod)}"
        )
        for name, f in rnd.squares:
            lines.append(f"  square {name} along {cat.morphism_label(f)}")
    lines.append(f"reflection {cat.morphism_label(trace.reflection)}")
    return "\n".join(lines) + "\n"

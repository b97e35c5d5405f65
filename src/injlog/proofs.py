"""Proof terms and the deduction engine.

The primitive rules are: identity (axiom), composition, cancellation
(from a derivation of rest . first conclude first), and pushout of a
derived morphism along an arbitrary morphism.  Two macros stand for
primitive steps: WidePushN (wide pushout, staged through binary pushouts)
and CoprodN (each part pushed out along its injection into the coproduct
of the domains, staged as a WidePushN, then cancelled onto the canonical
coproduct morphism if numbered otherwise).

Walks over terms keep their own stack: `fold` visits premises first,
outer before inner, and `subterms` each term before its premises.
Checking is one fold that yields each subterm's elaborated form and
conclusion once; a macro stages its steps from its parts' conclusions
and checks each step as any other.  Nothing in a term is trusted.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from typing import Callable, Iterator, Sequence, TypeVar

from .core import Category, CategoryError, MorphismSet, MorRef, ObjRef, check_budgets

T = TypeVar("T")


class ProofError(Exception):
    pass


class UnresolvedHypothesis(ProofError):
    pass


class ComposabilityError(ProofError):
    pass


class CancelMismatch(ProofError):
    pass


class PushDomainMismatch(ProofError):
    pass


class MacroShapeError(ProofError):
    pass


class RefusedReference(ProofError):
    """A reference the category refuses: foreign, forged or out of range."""


class _Term:
    """Equality and hash compare the pre-order sequence of (type, arity,
    non-term fields), so terms of any depth compare without recursion;
    repr is a fold, in the dataclass form ``Compose(outer=..., inner=...)``.
    A macro's parts are the one field that is a plain tuple: a ref is a
    tuple too, and is a non-term field, so both sites test the exact type."""

    def _nodes(self) -> list[tuple]:
        return [
            (type(t), len(premises(t)),
             *(v for v in vars(t).values() if not isinstance(v, _Term) and type(v) is not tuple))
            for t in subterms(self)
        ]

    def __eq__(self, other: object) -> bool:
        return self._nodes() == other._nodes() if isinstance(other, _Term) else NotImplemented

    def __hash__(self) -> int:
        return hash(tuple(self._nodes()))

    def __repr__(self) -> str:
        def step(t: ProofTerm, done: list[str]) -> str:
            shown = iter(done)
            fields = []
            for f in dataclasses.fields(t):
                v = getattr(t, f.name)
                if isinstance(v, _Term):
                    v = next(shown)
                elif type(v) is tuple:  # the parts of a macro
                    v = "(" + ", ".join(next(shown) for _ in v) + ("," if len(v) == 1 else "") + ")"
                else:
                    v = repr(v)
                fields.append(f"{f.name}={v}")
            return f"{type(t).__qualname__}({', '.join(fields)})"

        return fold(self, step)


@dataclass(frozen=True, eq=False, repr=False)
class Hyp(_Term):
    """Named hypothesis leaf."""

    name: str


@dataclass(frozen=True, eq=False, repr=False)
class Identity(_Term):
    """Identity axiom at an object."""

    obj: ObjRef


@dataclass(frozen=True, eq=False, repr=False)
class Compose(_Term):
    """Concludes outer composed after inner."""

    outer: "ProofTerm"
    inner: "ProofTerm"


@dataclass(frozen=True, eq=False, repr=False)
class Cancel(_Term):
    """From a derivation of rest . first, conclude first.

    Both factors are carried explicitly; the checker verifies the
    factorization equation on the nose.
    """

    whole: "ProofTerm"
    first: MorRef
    rest: MorRef


@dataclass(frozen=True, eq=False, repr=False)
class Push(_Term):
    """Concludes the canonical pushout of the sub-derivation along `along`."""

    proof: "ProofTerm"
    along: MorRef


@dataclass(frozen=True, eq=False, repr=False)
class CoprodN(_Term):
    """Macro: coproduct of the concluded morphisms."""

    parts: tuple["ProofTerm", ...]


@dataclass(frozen=True, eq=False, repr=False)
class WidePushN(_Term):
    """Macro: wide pushout composite of the concluded morphisms."""

    parts: tuple["ProofTerm", ...]


ProofTerm = Hyp | Identity | Compose | Cancel | Push | CoprodN | WidePushN
Checked = tuple[ProofTerm, MorRef]  # (elaborated form, conclusion)


def premises(t: ProofTerm) -> tuple[ProofTerm, ...]:
    """The subterms a term concludes from, outer before inner."""
    if isinstance(t, (Hyp, Identity)):
        return ()
    if isinstance(t, Compose):
        return (t.outer, t.inner)
    if isinstance(t, (Cancel, Push)):
        return (t.whole if isinstance(t, Cancel) else t.proof,)
    if isinstance(t, (CoprodN, WidePushN)):
        return t.parts
    raise MacroShapeError(f"unknown proof term {type(t).__name__}")


def subterms(term: ProofTerm) -> Iterator[ProofTerm]:
    """Every subterm, each before its premises (pre-order)."""
    todo = [term]
    while todo:
        t = todo.pop()
        yield t
        todo += reversed(premises(t))


def fold(term: ProofTerm, step: Callable[[ProofTerm, list[T]], T]) -> T:
    """step(t, the values of t's premises) over every subterm, premises
    first and outer before inner; returns the value of the term."""
    todo: list[tuple[ProofTerm, int]] = [(term, -1)]  # (term, premise count, or -1 until queued)
    done: list[T] = []
    while todo:
        t, n = todo.pop()
        if n > 0:
            done[-n:] = [step(t, done[-n:])]
        elif ps := premises(t):
            todo += [(t, len(ps))] + [(p, -1) for p in reversed(ps)]
        else:
            done.append(step(t, []))
    return done[0]


def check_proof(cat: Category, hypotheses: MorphismSet, term: ProofTerm) -> MorRef:
    """Conclusion of the term, or a ProofError describing the first defect.

    The hypotheses are checked first, where they enter, whether or not
    the term reads them.  Then one pass checks the term and its macros'
    steps, premises first and outer before inner: in a Compose, a defect
    of the outer part is reported before one of the inner part, even when
    that is a macro.  A ref the category refuses, in the hypotheses or in
    the term, raises RefusedReference.
    """
    return _elaborate_and_check(cat, hypotheses, term)[1]


def elaborate_macro(cat: Category, hyps: MorphismSet, term: ProofTerm) -> ProofTerm:
    """The term with its macros rewritten into primitive steps, checked on the way."""
    return _elaborate_and_check(cat, hyps, term)[0]


def used_hypotheses(term: ProofTerm) -> list[str]:
    """Sorted names of the Hyp leaves."""
    return sorted({t.name for t in subterms(term) if isinstance(t, Hyp)})


def _elaborate_and_check(cat: Category, hyps: MorphismSet, term: ProofTerm) -> Checked:
    """(elaborated form, conclusion) of the term, from one fold, once the
    hypotheses are checked."""

    def step(t: ProofTerm, done: list[Checked]) -> Checked:
        if isinstance(t, Hyp):
            m = hyps.get(t.name)
            if m is None:
                raise UnresolvedHypothesis(f"hypothesis {t.name!r} is not in the set")
            return t, m
        if isinstance(t, Identity):
            return t, cat.identity(t.obj)
        if isinstance(t, Compose):
            (outer_t, outer), (inner_t, inner) = done
            if inner.cod != outer.dom:
                raise ComposabilityError(
                    f"cannot compose: inner ends at {cat.object_label(inner.cod)}, "
                    f"outer starts at {cat.object_label(outer.dom)}"
                )
            same = outer_t is t.outer and inner_t is t.inner
            return t if same else Compose(outer_t, inner_t), cat.compose(outer, inner)
        if isinstance(t, Cancel):
            [(whole_t, whole)] = done
            if t.first.cod != t.rest.dom:
                raise CancelMismatch("claimed factors do not compose")
            recomposed = cat.compose(t.rest, t.first)
            if recomposed != whole:
                raise CancelMismatch(
                    f"factorization equation fails: rest.first is "
                    f"{cat.morphism_label(recomposed)}, derived {cat.morphism_label(whole)}"
                )
            return t if whole_t is t.whole else Cancel(whole_t, t.first, t.rest), t.first
        if isinstance(t, Push):
            [(inner_t, inner)] = done
            if t.along.dom != inner.dom:
                raise PushDomainMismatch(
                    f"pushout attachment starts at {cat.object_label(t.along.dom)}, "
                    f"derived morphism at {cat.object_label(inner.dom)}"
                )
            return t if inner_t is t.proof else Push(inner_t, t.along), cat.pushout(inner, t.along)[0]
        return _widepush(step, done) if isinstance(t, WidePushN) else _coprod(cat, step, done)

    try:
        cat._check_theory(hyps)
        return fold(term, step)
    except CategoryError as err:
        raise RefusedReference(str(err)) from None


def _widepush(step: Callable[..., Checked], parts: list[Checked]) -> Checked:
    """Wide pushout of the checked (part, conclusion) pairs, staged
    through binary pushouts that step checks one by one."""
    if not parts:
        raise MacroShapeError("wide pushout macro needs at least one part")
    if any(c.dom != parts[0][1].dom for _, c in parts):
        raise MacroShapeError("wide pushout parts must share a domain")
    cur = parts[0]
    for p, c in parts[1:]:
        pushed = step(Push(cur[0], along=c), [cur])
        cur = step(Compose(pushed[0], p), [pushed, (p, c)])
    return cur


def _coprod(cat: Category, step: Callable[..., Checked], parts: list[Checked]) -> Checked:
    """Coproduct of the checked (part, conclusion) pairs: each part pushed
    out along its injection, staged as a wide pushout, checked by step."""
    cat.validate_for_colimits()
    if len(parts) == 1:
        return parts[0]
    if not parts:
        return step(Identity(cat.coproduct([])[0]), [])
    concls = [c for _, c in parts]
    canonical = cat.coproduct_morphism(concls)
    _, injections = cat.coproduct([c.dom for c in concls])
    staged = _widepush(step, [step(Push(p[0], along=i), [p]) for p, i in zip(parts, injections)])
    if staged[1] == canonical:
        return staged
    # the staged apex is the coproduct of the codomains up to renumbering
    rest = cat.find_factorization(canonical, staged[1])
    if rest is None:
        raise MacroShapeError("the staged coproduct does not factor through the canonical one")
    return step(Cancel(staged[0], first=canonical, rest=rest), [staged])


RULES = ("identity", "composition", "cancellation", "pushout")


@dataclass(frozen=True)
class SaturationResult:
    """Closure of a hypothesis set under the enabled rules, with one
    shallowest proof per derived morphism (breadth-first order)."""

    derived: tuple[MorRef, ...]
    provenance: dict[MorRef, ProofTerm]
    rounds: int
    rule_mask: frozenset[str]

    def has(self, m: MorRef) -> bool:
        return m in self.provenance


def saturate(
    cat: Category,
    hypotheses: MorphismSet,
    rule_mask: Sequence[str] = RULES,
) -> SaturationResult:
    """Least fixpoint of the enabled rules over a finite closed category.

    Only complete lattices are supported: the morphism universe must be
    finite and pushouts total.  Round k adds everything derivable in one
    step from rounds < k, so recorded proofs have minimal depth; within a
    round the rules run in RULES order over morphisms in the order they
    became known.  The closure is the semi-naive engine `prove` also
    runs, here with no goal and no budgets.
    """
    mask = frozenset(rule_mask)
    unknown = mask - set(RULES)
    if unknown:
        raise ValueError(f"unknown rules: {sorted(unknown)}")
    cat.validate_for_colimits()
    if cat.search_universe() is None:
        raise CategoryError("saturation needs a finite closed category")
    known, rounds, _ = _fixpoint(cat, hypotheses, mask)
    derived = tuple(sorted(known, key=lambda m: (m.dom.index, m.cod.index)))
    return SaturationResult(derived, known, rounds, mask)


@dataclass(frozen=True)
class ProveResult:
    status: str  # "found" | "refuted" | "inconclusive"
    proof: ProofTerm | None
    rounds_used: int
    stop_reason: str  # "goal" | "fixpoint" | "depth_cap" | "mor_cap" | "node_cap" | "hom_cap"

    def found(self) -> bool:
        return self.status == "found"


def prove(
    cat: Category,
    hypotheses: MorphismSet,
    goal: MorRef,
    *,
    node_cap: int = 12,
    depth_cap: int = 6,
    hom_cap: int = 4096,
    mor_cap: int = 2000,
) -> ProveResult:
    """Bounded forward search for a derivation of the goal.

    Runs the semi-naive engine behind `saturate` with every rule, so the
    first hit has minimal derivation depth.  New objects enter only
    through pushouts and are discarded above node_cap; attachment
    enumerations are skipped past hom_cap maps; the run stops once
    mor_cap morphisms are known or after depth_cap rounds.  On a finite
    closed category a fixpoint that no budget pruned refutes the goal;
    otherwise exhaustion is inconclusive, since derivability over an open
    universe is only semi-decidable.  stop_reason names what ended the
    run: a run that ran dry after node_cap or hom_cap pruned a step stops
    on that budget.  A negative budget raises ValueError, and a hypothesis
    or goal the category refuses raises CategoryError.
    """
    check_budgets(node_cap=node_cap, depth_cap=depth_cap, hom_cap=hom_cap, mor_cap=mor_cap)
    cat.validate_for_colimits()
    known, rounds, reason = _fixpoint(
        cat, hypotheses, frozenset(RULES), goal,
        node_cap=node_cap, depth_cap=depth_cap, hom_cap=hom_cap, mor_cap=mor_cap,
    )
    if reason == "goal":
        return ProveResult("found", known[goal], rounds, reason)
    closed = cat.search_universe() is not None
    status = "refuted" if reason == "fixpoint" and closed else "inconclusive"
    return ProveResult(status, None, rounds, reason)


class _BudgetStop(Exception):
    pass


def _fixpoint(
    cat: Category,
    hypotheses: MorphismSet,
    mask: frozenset[str],
    goal: MorRef | None = None,
    *,
    node_cap: int | None = None,
    depth_cap: int | None = None,
    hom_cap: int | None = None,
    mor_cap: int | None = None,
) -> tuple[dict[MorRef, ProofTerm], int, str]:
    """Semi-naive closure of the hypotheses under the rules in mask.

    The hypotheses and the goal are checked where they enter, by the
    category's input check; every other ref the engine handles the
    category made.  Objects are in play from the start when the category
    is closed, and otherwise enter with the morphisms that reach them
    (within node_cap).  When in play is the whole closed universe, the
    rule bodies are handed objects=None for it.
    A round only tries steps with a premise, or a cancellation or
    pushout object, added by the round before: every other step was
    tried in an earlier round and yields nothing new.  The steps it does
    try keep the naive order (rules in RULES order, premises in known
    order, partners in known or in-play order), so the first term
    offered for each morphism, and the order of the returned dict, are
    those of naive evaluation.  A budget of None is no budget.

    One live set, held, is known plus the round's fresh morphisms.  Each
    pass tests a conclusion against it before it builds the proof term,
    and hands it to cancellations and pushouts, which may leave out an
    answer whose conclusion is held: a held conclusion is never offered
    again, so leaving it out changes nothing but the work.  A held
    morphism past node_cap had its codomain refused on admission, so the
    pushout pass may skip it before its size test.

    Returns (known, rounds, stop_reason); stop_reason is "goal",
    "depth_cap" or "mor_cap" when that ended the run; on running dry it is
    "node_cap" if that budget ever pruned a step, else "hom_cap" if that
    one did, else "fixpoint".
    """
    in_play: list[ObjRef] = []
    in_play_set: set[ObjRef] = set()
    pruned: set[str] = set()  # the budgets that have cut a step

    def admit(obj: ObjRef) -> bool:
        if obj in in_play_set:
            return False
        if node_cap is not None and cat.object_size(obj) > node_cap:
            pruned.add("node_cap")
            return False
        in_play.append(obj)
        in_play_set.add(obj)
        return True

    cat._check_theory(hypotheses, goal)

    universe = cat.search_universe()
    for x in universe or ():
        admit(x)
    # when admission pruned none of a closed universe, in_play is all of it
    # in search_universe() order, and stays so, since no object lies outside
    # it: the rule bodies are then handed None, which means just that
    everything = None if universe is not None and not pruned else in_play
    for _, m in hypotheses:
        admit(m.dom)
        admit(m.cod)
    if goal is not None:
        admit(goal.dom)
        admit(goal.cod)

    known: dict[MorRef, ProofTerm] = {}
    by_cod: dict[ObjRef, list[MorRef]] = {}  # known morphisms per codomain, in known order
    held: set[MorRef] = set()  # known and the round's fresh morphisms

    def learn(m: MorRef, term: ProofTerm) -> None:
        if m not in known:
            known[m] = term
            by_cod.setdefault(m.cod, []).append(m)
            held.add(m)

    for name, m in hypotheses:
        learn(m, Hyp(name))
    if "identity" in mask:
        for x in in_play:
            learn(cat.identity(x), Identity(x))
    if goal in known:
        return known, 0, "goal"

    # what predates the last round's additions: a prefix of known, of
    # each codomain list, and of in_play
    old_mors = old_objs = 0
    old_by_cod: dict[ObjRef, int] = {}

    # a listing that reaches hom_cap + 1 homs is over the cap
    limit = None if hom_cap is None else hom_cap + 1
    rounds = 0
    while depth_cap is None or rounds < depth_cap:
        fresh: dict[MorRef, ProofTerm] = {}

        def offer(m: MorRef, term: ProofTerm) -> None:
            """Add m, which is not held, with its term."""
            if mor_cap is not None and len(held) >= mor_cap:
                raise _BudgetStop
            fresh[m] = term
            held.add(m)

        mors = list(known)
        new_objs = in_play[old_objs:]

        def visits():
            """The (premise, objects) pairs cancellation and pushout try:
            every object for a premise of the last round, the new objects
            for an older one."""
            if new_objs:
                for m in mors[:old_mors]:
                    yield m, new_objs
            for m in mors[old_mors:]:
                yield m, everything

        try:
            if "composition" in mask:
                for i, g in enumerate(mors):
                    partners = by_cod.get(g.dom, [])
                    if i < old_mors:
                        partners = partners[old_by_cod.get(g.dom, 0) :]
                    for f in partners:
                        gf = cat.compose(g, f)
                        if gf not in held:
                            offer(gf, Compose(known[g], known[f]))
            # one call per premise and rule, over its objects.  Pushout has
            # a pass of its own, so every cancellation is offered before any
            # pushout, as in naive evaluation: a pass fusing the two
            # computes pushouts in a round that mor_cap ends during
            # cancellation, and took the clique prove's registry from 26
            # graphs to 260
            if "cancellation" in mask:
                for m, objects in visits():
                    for pair in cat.cancellations(m, objects, limit, held):
                        if pair is None:
                            pruned.add("hom_cap")
                            continue
                        first, rest = pair
                        if first not in held:
                            offer(first, Cancel(known[m], first=first, rest=rest))
            if "pushout" in mask:
                for h, objects in visits():
                    for pair in cat.pushouts(h, objects, limit, held):
                        if pair is None:
                            pruned.add("hom_cap")
                            continue
                        f, h_prime = pair
                        if h_prime in held:
                            continue
                        if node_cap is None or cat.object_size(h_prime.cod) <= node_cap:
                            offer(h_prime, Push(known[h], along=f))
                        else:
                            pruned.add("node_cap")
        except _BudgetStop:
            return known, rounds + 1, "mor_cap"

        if not fresh:
            return known, rounds, next((b for b in ("node_cap", "hom_cap") if b in pruned), "fixpoint")
        rounds += 1
        old_mors, old_objs = len(known), len(in_play)
        old_by_cod = {c: len(ms) for c, ms in by_cod.items()}
        for m, term in fresh.items():
            learn(m, term)
        for m in fresh:
            for obj in (m.dom, m.cod):
                if admit(obj) and "identity" in mask:
                    learn(cat.identity(obj), Identity(obj))
        if goal in known:
            return known, rounds, "goal"
    return known, rounds, "depth_cap"

"""Category interface shared by the finite lattice and finite graph categories.

Objects and morphisms are referenced by value; all equality is on the nose.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from dataclasses import dataclass
from typing import Any, Container, Iterable, Iterator, NamedTuple, Sequence


class ObjRef(NamedTuple):
    """Reference to an object of a presented category.

    A NamedTuple, so the engine's dict and set probes hash and compare in
    C.  It is a tuple in every respect: it equals and hashes as the plain
    tuple (cat_id, index), iterates, has a len and orders; the field
    ``index`` shadows the method ``tuple.index``."""

    cat_id: str
    index: int


class MorRef(NamedTuple):
    """Reference to a morphism: endpoints plus a category-specific payload.

    Lattice payload is the pair of element indices (a, b) with a <= b.
    Graph payload is a GraphHom.  Two refs are equal iff endpoints and
    payload are equal, so composites compare on the nose.  A NamedTuple,
    as ObjRef: it equals and hashes as the plain tuple (dom, cod,
    payload), iterates and orders, so a field-wise check that must tell a
    ref from a tuple tests its type (MorphismSet does).
    """

    dom: ObjRef
    cod: ObjRef
    payload: Any


class MorphismSetError(ValueError):
    pass


@dataclass(frozen=True)
class MorphismSet:
    """Named, ordered set of hypothesis morphisms from one category."""

    entries: tuple[tuple[str, MorRef], ...]

    def __post_init__(self) -> None:
        seen = set()
        cats = set()
        for entry in self.entries:
            if not (isinstance(entry, tuple) and len(entry) == 2 and isinstance(entry[0], str)
                    and isinstance(entry[1], MorRef)):
                raise MorphismSetError(f"hypothesis {entry!r} is not a (name, MorRef) pair")
            name, m = entry
            if name in seen:
                raise MorphismSetError(f"duplicate hypothesis name {name!r}")
            seen.add(name)
            cats.add(m.dom.cat_id)
        if len(cats) > 1:
            raise MorphismSetError("hypotheses span more than one category")

    @staticmethod
    def of(pairs: Iterable[tuple[str, MorRef]]) -> "MorphismSet":
        return MorphismSet(tuple(pairs))

    def names(self) -> list[str]:
        return [name for name, _ in self.entries]

    def get(self, name: str) -> MorRef | None:
        for n, m in self.entries:
            if n == name:
                return m
        return None

    def morphisms(self) -> list[MorRef]:
        return [m for _, m in self.entries]

    def __len__(self) -> int:
        return len(self.entries)

    def __iter__(self) -> Iterator[tuple[str, MorRef]]:
        return iter(self.entries)


@dataclass(frozen=True)
class InjectivityResult:
    """Outcome of one injectivity check; counterexample is a non-factorable map."""

    holds: bool
    counterexample: MorRef | None = None

    def __bool__(self) -> bool:
        return self.holds


@dataclass(frozen=True)
class ConsequenceVerdict:
    """Semantic consequence verdict; exact on lattices, bounded on graphs."""

    holds: bool
    counterexample: ObjRef | None
    exact: bool
    bound: int | None = None

    def label(self) -> str:
        if not self.holds:
            return "counterexample"
        if self.exact:
            return "holds"
        return f"holds-up-to({self.bound})"


@dataclass(frozen=True)
class CoconeFailure:
    at_object: ObjRef
    detail: str
    morphisms: tuple[MorRef, ...] = ()


@dataclass(frozen=True)
class CoconeCheckReport:
    verified: bool
    failing_witness: CoconeFailure | None = None

    def __bool__(self) -> bool:
        return self.verified


class CategoryError(ValueError):
    pass


@dataclass(frozen=True)
class WidePushoutResult:
    """Composite into the apex from the object attached to, plus the
    injection from each glued-on codomain."""

    composite: MorRef
    injections: tuple[MorRef, ...]

    @property
    def apex(self) -> ObjRef:
        return self.composite.cod


class Category(ABC):
    """Finitely computable category: identities, composites, hom sets and
    finite colimits.  A category builds one colimit, _glue (a coproduct
    with parts glued along maps); attach (a wide pushout, or a weak
    reflection round, glues many codomains onto one object at once),
    pushout, coproduct, cotuple and coproduct_morphism are written here
    on top of it.  Four questions factor maps or apply a rule:
    find_factorization (does f extend along h), is_injective (does every
    map dom h -> x extend along h), and the cancellation and pushout
    rules' questions, asked once per premise over a list of objects, or
    over objects=None, which on a closed category means every object of
    search_universe(), in its order: cancellations (which homs dom m -> x
    does m factor through) and pushouts (the pushout of h along each hom
    dom h -> x).  Each category answers the first three itself, from its
    own structure; pushouts has a base body, one pushout per hom over
    enumerate_homs, which a category may override.
    The two rule questions take the engine's held set, the morphisms it
    already has, and may leave out an answer whose conclusion is held, so
    the work that answer costs is not done.
    Deterministic: equal inputs give equal outputs, and hom enumeration
    follows a fixed canonical order."""

    cat_id: str

    @abstractmethod
    def identity(self, obj: ObjRef) -> MorRef: ...

    @abstractmethod
    def compose(self, g: MorRef, f: MorRef) -> MorRef:
        """g after f; raises CategoryError unless cod f = dom g on the nose."""

    @abstractmethod
    def enumerate_homs(self, a: ObjRef, x: ObjRef, limit: int | None = None) -> list[MorRef]:
        """Morphisms a -> x in canonical order; with limit, the first limit."""

    @abstractmethod
    def _glue(self, parts: Sequence[ObjRef], seams: Sequence[tuple]) -> tuple[ObjRef, list[MorRef]]:
        """The coproduct of parts with p and q made to agree for each seam
        (i, j, p, q), where p: S -> parts[i] and q: S -> parts[j]; the
        apex and the injection from each part.  Parts and seams come
        checked."""

    # the input checks: each raises CategoryError on any ref the category
    # did not make, whatever the types of its fields.  Operations check
    # their own refs; the engines check a theory once, where it enters,
    # with _check_theory, since a rule that never reads a ref would
    # otherwise pass it through unchecked
    @abstractmethod
    def _check_obj(self, obj: ObjRef) -> None: ...

    @abstractmethod
    def _check_mor(self, m: MorRef) -> None: ...

    def _check_theory(self, hypotheses: MorphismSet, goal: MorRef | None = None) -> None:
        """Each hypothesis, then the goal, when there is one."""
        for _, m in hypotheses:
            self._check_mor(m)
        if goal is not None:
            self._check_mor(goal)

    @abstractmethod
    def object_label(self, obj: ObjRef) -> str: ...

    @abstractmethod
    def morphism_label(self, m: MorRef) -> str: ...

    def attach(self, x: ObjRef, squares: Sequence[tuple[MorRef, MorRef]]) -> WidePushoutResult:
        """Pushout of each h along its f at once, for squares (h, f) with
        dom h = dom f and cod f = x: every cod h glued onto x.  The
        composite is x -> apex; the injections come from each cod h."""
        self._check_squares(x, squares)
        # x after the first cod h: a graph numbers the apex by its parts in
        # order, so a fan (each f an identity) is numbered as its leg codomains
        at = min(1, len(squares))
        parts = [h.cod for h, _ in squares]
        parts.insert(at, x)
        _, injections = self._glue(parts, [(i + (i >= at), at, h, f) for i, (h, f) in enumerate(squares)])
        composite = injections.pop(at)
        return WidePushoutResult(composite, tuple(injections))

    def coproduct(self, objs: Sequence[ObjRef]) -> tuple[ObjRef, list[MorRef]]:
        """Finite coproduct with injections; empty input gives the initial object."""
        self.validate_for_colimits()
        for o in objs:
            self._check_obj(o)
        return self._glue(objs, ())

    def cotuple(self, legs: Sequence[MorRef], target: ObjRef) -> MorRef:
        """Mediator out of the coproduct of the leg domains into target.

        Every leg must end at target; the result composed with the i-th
        canonical injection gives the i-th leg: it is the coproduct's
        injection into target glued to it along the legs.
        """
        self.validate_for_colimits()
        self._check_obj(target)
        for m in legs:
            self._check_mor(m)
            if m.cod != target:
                raise CategoryError("cotuple legs must share the target")
        src, injections = self.coproduct([m.dom for m in legs])
        _, (_, mediator) = self._glue([target, src], [(0, 1, m, inj) for m, inj in zip(legs, injections)])
        return mediator

    def pushout(self, h: MorRef, f: MorRef) -> tuple[MorRef, MorRef]:
        """Canonical pushout of the span (h, f) sharing a domain, as the
        one-square attach(cod f, [(h, f)]).  Returns (h_prime, f_prime):
        h_prime is the leg opposite h with domain cod f, f_prime the leg
        opposite f with domain cod h.  The square commutes on the nose."""
        wp = self.attach(f.cod, [(h, f)])
        return wp.composite, wp.injections[0]

    def coproduct_morphism(self, mors: Sequence[MorRef]) -> MorRef:
        """The canonical morphism between coproducts acting blockwise: the
        cotuple of each morphism followed by its codomain injection."""
        target, injections = self.coproduct([m.cod for m in mors])
        return self.cotuple([self.compose(inj, m) for inj, m in zip(injections, mors)], target)

    def object_size(self, obj: ObjRef) -> int:
        """Growth measure used by search budgets; 1 unless overridden."""
        return 1

    def attach_size(self, x: ObjRef, squares: Sequence[tuple[MorRef, MorRef]]) -> int:
        """An upper bound on the object_size of attach(x, squares)'s apex,
        read without building it; 1, as object_size, unless overridden.
        Checks its input as attach does."""
        self._check_squares(x, squares)
        return 1

    def search_universe(self) -> list[ObjRef] | None:
        """All objects when the category is finite and closed, else None."""
        return None

    def validate_for_colimits(self) -> None:
        """Raise when pushouts/coproducts are unavailable (e.g. a poset
        that is not a complete lattice); no-op otherwise."""

    @abstractmethod
    def find_factorization(self, h: MorRef, f: MorRef) -> MorRef | None:
        """First g with g after h = f, in canonical hom order; None if none.

        h: A -> B, f: A -> X; g ranges over homs B -> X.
        """

    @abstractmethod
    def is_injective(self, x: ObjRef, h: MorRef) -> InjectivityResult:
        """Whether every map dom h -> x extends along h; first failure is
        reported in canonical hom order."""

    @abstractmethod
    def cancellations(
        self,
        m: MorRef,
        objects: Iterable[ObjRef] | None,
        limit: int | None = None,
        held: Container[MorRef] = frozenset(),
    ) -> Iterator[tuple[MorRef, MorRef] | None]:
        """The cancellation rule's answers for premise m, object by object
        in the order given: None once when the homs dom m -> x reach
        limit, else each hom first: dom m -> x that m factors through, in
        canonical hom order, paired with rest: x -> cod m, the first g
        with g after first = m (what find_factorization(first, m)
        returns).  Lazy: nothing is asked about an object before the
        answers for the ones ahead of it are taken.  objects=None, on a
        closed category, is search_universe().

        A first in held may be left out, and is tested when the body
        reaches it, since the caller may add to held between answers;
        every other answer and every None keeps its value and place."""

    def pushouts(
        self,
        h: MorRef,
        objects: Iterable[ObjRef] | None,
        limit: int | None = None,
        held: Container[MorRef] = frozenset(),
    ) -> Iterator[tuple[MorRef, MorRef] | None]:
        """The pushout rule's answers for premise h, object by object in
        the order given: None once when the homs dom h -> x reach limit,
        else each hom f: dom h -> x in canonical hom order, paired with
        h_prime, the leg of pushout(h, f) opposite h.  Lazy per hom: no
        pushout is built before the pairs ahead of it are taken.

        An h_prime in held may be left out, as a held first in
        cancellations.  This body keeps them all: h_prime exists only once
        the pushout is built.  The premise is checked first."""
        self._check_mor(h)
        for x in self.search_universe() if objects is None else objects:
            homs = self.enumerate_homs(h.dom, x, limit)
            if len(homs) == limit:
                yield None
                continue
            for f in homs:
                yield f, self.pushout(h, f)[0]

    def _check_squares(self, x: ObjRef, squares: Sequence[tuple[MorRef, MorRef]]) -> None:
        """The input check of attach and attach_size: x, then each square's
        h and f, and then the square's shape."""
        self._check_obj(x)
        for h, f in squares:
            self._check_mor(h)
            self._check_mor(f)
            if h.dom != f.dom or f.cod != x:
                raise CategoryError("attachment squares need dom h = dom f and cod f = x")


def check_budgets(**budgets: int) -> None:
    """Raise ValueError naming the first negative budget."""
    for name, value in budgets.items():
        if value < 0:
            raise ValueError(f"{name} must be non-negative, got {value}")


def semantic_consequence(
    cat: Category,
    hypotheses: MorphismSet,
    goal: MorRef,
    universe: Iterable[ObjRef],
    *,
    exact: bool,
    bound: int | None = None,
) -> ConsequenceVerdict:
    """Whether every universe object injective for all hypotheses is
    injective for the goal.  Exact iff the universe is the whole category
    (finite lattices); on graphs the verdict only covers the given bound,
    and asking for an exact one is a ValueError.

    Only an object that fails the goal can refute it, so the goal is
    tested first and the hypotheses only there; both tests are pure, so
    the first counterexample is the same in either order.  The refs are
    checked once, where they enter, since the walk may never test one."""
    if exact and cat.search_universe() is None:
        raise ValueError(f"{cat.cat_id} has no closed universe, so no verdict over it is exact")
    cat._check_theory(hypotheses, goal)
    mors = hypotheses.morphisms()
    for x in universe:
        if not cat.is_injective(x, goal) and all(cat.is_injective(x, m) for m in mors):
            return ConsequenceVerdict(False, x, exact, bound)
    return ConsequenceVerdict(True, None, exact, bound)

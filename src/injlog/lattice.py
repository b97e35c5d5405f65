"""Finite posets presented by a leq matrix, viewed as thin categories.

A morphism a -> b exists exactly when a <= b.  Complete lattices (bottom
plus all binary joins, which at finite size gives all joins and meets)
additionally support pushouts and coproducts, hence saturation and
reflection.  Plain posets still answer injectivity and semantic queries.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Iterable, Sequence

import numpy as np

from .core import (
    Category,
    CategoryError,
    InjectivityResult,
    MorphismSet,
    MorRef,
    ObjRef,
    WidePushoutResult,
)


class LatticeError(ValueError):
    """Structured presentation failure: kind plus offending witness."""

    def __init__(self, kind: str, witness: tuple | None = None):
        self.kind = kind
        self.witness = witness
        detail = "" if witness is None else f" at {witness}"
        super().__init__(f"{kind}{detail}")


@dataclass
class LatticePresentation:
    """Elements plus a reflexive-transitive leq matrix.

    join/meet tables are filled by validate(); they stay None for posets
    that are not complete lattices.  Treated as immutable once validated.
    """

    name: str
    elements: tuple[str, ...]
    leq: np.ndarray
    join: np.ndarray | None = field(default=None, repr=False)
    meet: np.ndarray | None = field(default=None, repr=False)
    is_complete_lattice: bool = False
    missing_join: tuple[int, int] | None = None

    def index(self, element: str) -> int:
        try:
            return self.elements.index(element)
        except ValueError:
            raise LatticeError("unknown-element", (element,)) from None

    @property
    def size(self) -> int:
        return len(self.elements)


def presentation_from_pairs(
    name: str, elements: Sequence[str], pairs: Iterable[tuple[str, str]]
) -> LatticePresentation:
    """Build a presentation from generating leq pairs; the reflexive and
    transitive closure is taken automatically, then validated."""
    elems = tuple(elements)
    n = len(elems)
    for i, e in enumerate(elems):
        if e in elems[:i]:
            raise LatticeError("duplicate-element", (e,))
    leq = np.eye(n, dtype=bool)
    idx = {e: i for i, e in enumerate(elems)}
    for a, b in pairs:
        if a not in idx:
            raise LatticeError("unknown-element", (a,))
        if b not in idx:
            raise LatticeError("unknown-element", (b,))
        leq[idx[a], idx[b]] = True
    for k in range(n):
        # Warshall closure
        leq |= np.outer(leq[:, k], leq[k, :])
    p = LatticePresentation(name, elems, leq)
    validate(p)
    return p


def validate(p: LatticePresentation, require_lattice: bool = False) -> LatticePresentation:
    """Confirm the order axioms and fill join/meet tables where they exist.

    Raises LatticeError("not-reflexive"/"not-transitive"/"not-antisymmetric")
    with a witness pair on a broken order.  A poset lacking some join is
    accepted with is_complete_lattice False unless require_lattice is set,
    in which case LatticeError("no-join", (a, b)) is raised (witness ()
    when only the bottom is missing).
    """
    n = p.size
    leq = p.leq
    if leq.shape != (n, n):
        raise LatticeError("bad-shape", leq.shape)
    for i in range(n):
        if not leq[i, i]:
            raise LatticeError("not-reflexive", (p.elements[i],))
    for i in range(n):
        for j in range(n):
            if i != j and leq[i, j] and leq[j, i]:
                raise LatticeError("not-antisymmetric", (p.elements[i], p.elements[j]))
            if leq[i, j]:
                for k in range(n):
                    if leq[j, k] and not leq[i, k]:
                        raise LatticeError(
                            "not-transitive", (p.elements[i], p.elements[j], p.elements[k])
                        )

    join = np.full((n, n), -1, dtype=np.int64)
    meet = np.full((n, n), -1, dtype=np.int64)
    missing: tuple[int, int] | None = None
    for a in range(n):
        for b in range(n):
            uppers = [c for c in range(n) if leq[a, c] and leq[b, c]]
            least = [c for c in uppers if all(leq[c, d] for d in uppers)]
            if len(least) == 1:
                join[a, b] = least[0]
            elif missing is None:
                missing = (a, b)
            lowers = [c for c in range(n) if leq[c, a] and leq[c, b]]
            greatest = [c for c in lowers if all(leq[d, c] for d in lowers)]
            if len(greatest) == 1:
                meet[a, b] = greatest[0]
    has_bottom = any(bool(leq[i].all()) for i in range(n)) if n else False
    complete = n > 0 and missing is None and has_bottom and (meet >= 0).all()
    p.join = join if complete else None
    p.meet = meet if complete else None
    p.is_complete_lattice = complete
    p.missing_join = missing
    if require_lattice and not complete:
        raise _no_join(p)
    return p


def _no_join(p: LatticePresentation) -> LatticeError:
    """The no-join error for a poset that is not a complete lattice: its
    witness names the first pair of elements without a join, or is empty
    when every pair has one but the join of no elements, the bottom, is
    missing."""
    if p.missing_join is None:
        return LatticeError("no-join", ())
    a, b = p.missing_join
    return LatticeError("no-join", (p.elements[a], p.elements[b]))


class LatticeCategory(Category):
    """Thin category of a validated presentation."""

    def __init__(self, presentation: LatticePresentation):
        self.p = presentation
        self.cat_id = f"lattice:{presentation.name}"

    def obj(self, element: str | int) -> ObjRef:
        i = element if isinstance(element, int) else self.p.index(element)
        if not 0 <= i < self.p.size:
            raise CategoryError(f"no element with index {i}")
        return ObjRef(self.cat_id, i)

    def objects(self) -> list[ObjRef]:
        return [ObjRef(self.cat_id, i) for i in range(self.p.size)]

    def mor(self, a: str | int, b: str | int) -> MorRef:
        ra, rb = self.obj(a), self.obj(b)
        if not self.p.leq[ra.index, rb.index]:
            raise CategoryError(
                f"no morphism {self.p.elements[ra.index]} -> {self.p.elements[rb.index]}"
            )
        return MorRef(ra, rb, (ra.index, rb.index))

    def all_morphisms(self) -> list[MorRef]:
        out = []
        for a in range(self.p.size):
            for b in range(self.p.size):
                if self.p.leq[a, b]:
                    out.append(self.mor(a, b))
        return out

    def identity(self, obj: ObjRef) -> MorRef:
        self._check_obj(obj)
        return MorRef(obj, obj, (obj.index, obj.index))

    def compose(self, g: MorRef, f: MorRef) -> MorRef:
        self._check_mor(g)
        self._check_mor(f)
        if f.cod != g.dom:
            raise CategoryError("composability mismatch: cod of inner != dom of outer")
        return MorRef(f.dom, g.cod, (f.dom.index, g.cod.index))

    def enumerate_homs(self, a: ObjRef, x: ObjRef, limit: int | None = None) -> list[MorRef]:
        self._check_obj(a)
        self._check_obj(x)
        if self.p.leq[a.index, x.index] and limit != 0:
            return [MorRef(a, x, (a.index, x.index))]
        return []

    def pushout(self, h: MorRef, f: MorRef) -> tuple[MorRef, MorRef]:
        self._check_mor(h)
        self._check_mor(f)
        if h.dom != f.dom:
            raise CategoryError("pushout span must share a domain")
        self._require_lattice()
        _, (h_prime, f_prime) = self._join([f.cod, h.cod])
        return h_prime, f_prime

    def attach(self, x: ObjRef, squares: Sequence[tuple[MorRef, MorRef]]) -> WidePushoutResult:
        self._check_obj(x)
        for h, f in squares:
            self._check_mor(h)
            self._check_mor(f)
            if h.dom != f.dom or f.cod != x:
                raise CategoryError("attachment squares need dom h = dom f and cod f = x")
        self._require_lattice()
        _, (composite, *injections) = self._join([x, *(h.cod for h, _ in squares)])
        return WidePushoutResult(composite, tuple(injections))

    def coproduct(self, objs) -> tuple[ObjRef, list[MorRef]]:
        self._require_lattice()
        for o in objs:
            self._check_obj(o)
        return self._join(objs)

    def cotuple(self, legs, target: ObjRef) -> MorRef:
        self._require_lattice()
        self._check_obj(target)
        for m in legs:
            self._check_mor(m)
            if m.cod != target:
                raise CategoryError("cotuple legs must share the target")
        src, _ = self._join([m.dom for m in legs])
        return self.mor(src.index, target.index)

    def _join(self, objs: Sequence[ObjRef]) -> tuple[ObjRef, list[MorRef]]:
        """Join of objs (bottom when there are none) with the injection
        from each; the one place a lattice glues objects."""
        top = objs[0].index if objs else next(i for i in range(self.p.size) if self.p.leq[i].all())
        for o in objs[1:]:
            top = int(self.p.join[top, o.index])
        apex = ObjRef(self.cat_id, top)
        return apex, [MorRef(o, apex, (o.index, top)) for o in objs]

    def search_universe(self) -> list[ObjRef]:
        return self.objects()

    def validate_for_colimits(self) -> None:
        self._require_lattice()

    def is_injective(self, x: ObjRef, h: MorRef) -> InjectivityResult:
        # thin shortcut: x is h-injective iff dom h <= x implies cod h <= x
        self._check_obj(x)
        self._check_mor(h)
        if self.p.leq[h.dom.index, x.index] and not self.p.leq[h.cod.index, x.index]:
            return InjectivityResult(False, MorRef(h.dom, x, (h.dom.index, x.index)))
        return InjectivityResult(True)

    def injectives(self, hypotheses: MorphismSet) -> list[ObjRef]:
        """Elements injective for every hypothesis, in element order."""
        return [
            x
            for x in self.objects()
            if all(self.is_injective(x, m) for m in hypotheses.morphisms())
        ]

    def object_label(self, obj: ObjRef) -> str:
        self._check_obj(obj)
        return self.p.elements[obj.index]

    def morphism_label(self, m: MorRef) -> str:
        self._check_mor(m)
        return f"{self.p.elements[m.dom.index]}->{self.p.elements[m.cod.index]}"

    def _require_lattice(self) -> None:
        if not self.p.is_complete_lattice:
            raise _no_join(self.p)

    def _check_obj(self, obj: ObjRef) -> None:
        if obj.cat_id != self.cat_id or not 0 <= obj.index < self.p.size:
            raise CategoryError(f"object {obj} is not from {self.cat_id}")

    def _check_mor(self, m: MorRef) -> None:
        self._check_obj(m.dom)
        self._check_obj(m.cod)
        if m.payload != (m.dom.index, m.cod.index) or not self.p.leq[m.dom.index, m.cod.index]:
            raise CategoryError(f"morphism {m} is not from {self.cat_id}")


def random_lattice(rng: random.Random, max_size: int = 7, name: str = "L") -> LatticeCategory:
    """Random finite complete lattice with at most max_size elements.

    Rejection sampling: draw a ranked random order with forced bottom and
    top, keep it when every pair has a unique join.  Deterministic per rng.
    """
    while True:
        n = rng.randint(1, max_size)
        leq = np.eye(n, dtype=bool)
        for i in range(n):
            for j in range(i + 1, n):
                if i == 0 or j == n - 1 or rng.random() < 0.4:
                    leq[i, j] = True
        for k in range(n):
            leq |= np.outer(leq[:, k], leq[k, :])
        p = LatticePresentation(name, tuple(f"e{i}" for i in range(n)), leq)
        validate(p)
        if p.is_complete_lattice:
            return LatticeCategory(p)


def random_hypotheses(
    rng: random.Random, cat: LatticeCategory, max_count: int = 6
) -> MorphismSet:
    """Random named hypothesis set drawn from the lattice's morphisms."""
    mors = cat.all_morphisms()
    count = rng.randint(0, max_count)
    picks = [mors[rng.randrange(len(mors))] for _ in range(count)]
    return MorphismSet.of((f"h{i}", m) for i, m in enumerate(picks))

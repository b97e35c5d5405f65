"""Search kernel for graph homomorphism queries.

One backtracking search with forward checking over bitset domains
(Ullmann, J. ACM 1976; bitset domains as in the Glasgow Subgraph Solver)
serves every query, read two ways.  ``homs`` lists its rows lazily, in
lexicographic order, node 0 most significant, so whether a map exists is
its first row and the first k homs are its first k rows.  ``count``
answers how many homs there are, up to a limit, without listing them:
the last source node narrows no later domain, so each leaf of the search
is that node's domain, and its bit count is the number of rows it
stands for.  A source falls apart into its connected parts
(``Graph.parts``), whose counts multiply, so a disjoint union of cliques
is counted clique by clique, and a part with no map answers 0 at once.
Cancellation asks ``count`` whether an object maps into cod m (up to 1)
and, on an object that can hold no answer, the hom-cap question, where
the rows would only be counted.

Pinned searches go part by part too, in ``graphs``: a map out of a
disjoint union is a tuple of maps out of its parts, so each part is
searched alone with its own pins, and a part with no map ends the
search before any other part's maps are tried.  Searched whole, a
failing last part would be tried again for each way the parts ahead of
it map.  The answer is the same: the parts fix disjoint nodes, so the
lex-first row of the union is its parts' lex-first rows put together.

A graph is read through its search plan, in two halves built once per
graph and cached on it: the target half (``Plan``) on its first search,
the source half (``SourcePlan``), read off the target half, on its
first search as a source.  A graph searched only as a target, as a
universe graph is, never builds the source half.  A pin sequence has
one entry per source node: ``pins[i] >= 0`` forces node i to that
target node, -1 leaves it free.  The kernel does not check pins: its
callers build them from checked refs or from its own rows.
"""
from __future__ import annotations

from typing import TYPE_CHECKING, Iterator, NamedTuple, Sequence

if TYPE_CHECKING:
    from .graphs import Graph


class Plan(NamedTuple):
    """What the search reads of a target graph: bit j of ``succ[i]`` is
    edge i->j, bit j of ``pred[i]`` is edge j->i, and bit i of ``looped``
    says node i has a loop."""

    succ: tuple[int, ...]
    pred: tuple[int, ...]
    looped: int


class SourcePlan(NamedTuple):
    """What the search reads of a source graph: ``loops[i]`` says node i
    has a loop, and ``later_out[i]`` and ``later_in[i]`` list the nodes
    j > i with edge i->j and j->i: assigning i narrows their domains."""

    loops: tuple[bool, ...]
    later_out: tuple[tuple[int, ...], ...]
    later_in: tuple[tuple[int, ...], ...]


def plan(node_count: int, edges) -> Plan:
    """The target half of the plan of the graph with nodes
    0..node_count-1 and these edges."""
    succ = [0] * node_count
    pred = [0] * node_count
    looped = 0
    for i, j in edges:
        succ[i] |= 1 << j
        pred[j] |= 1 << i
        if i == j:
            looped |= 1 << i
    return Plan(tuple(succ), tuple(pred), looped)


def source_plan(p: Plan) -> SourcePlan:
    """The source half of a plan, read off its target half."""
    nodes = range(len(p.succ))
    return SourcePlan(
        tuple(bool(p.looped >> i & 1) for i in nodes),
        tuple(tuple(_bits(p.succ[i] >> i + 1 << i + 1)) for i in nodes),
        tuple(tuple(_bits(p.pred[i] >> i + 1 << i + 1)) for i in nodes),
    )


def homs(src: Graph, dst: Graph, pins: Sequence[int] | None = None) -> Iterator[tuple[int, ...]]:
    """Every pin-respecting homomorphism src -> dst, in lex order, lazily;
    no pins leaves every node free."""
    return _search(src, dst, pins, True)


def count(src: Graph, dst: Graph, limit: int) -> int:
    """min(number of homomorphisms src -> dst, limit), without listing
    them: the homs of a disjoint union are the product of its parts'
    homs, and each part's are counted leaf by leaf, up to limit."""
    total = 1
    for _, part in src.parts:
        n = 0
        for leaf in _search(part, dst, None, False):
            n += leaf.bit_count()
            if n >= limit:
                break
        if not n:
            return 0
        # capped only now: a part with no hom must still answer 0
        total *= min(n, limit)
    return min(total, limit)


def _search(
    src: Graph, dst: Graph, pins: Sequence[int] | None, rows: bool
) -> Iterator[tuple[int, ...] | int]:
    """The search: with rows, every pin-respecting hom src -> dst in lex
    order; else one bitset per leaf, the last node's domain once every
    other node is set, whose bits count the homs that leaf stands for."""
    s = src.node_count
    if s == 0:
        yield () if rows else 1
        return
    dp, sp = dst.plan, src.source_plan
    later_out, later_in = sp.later_out, sp.later_in
    succ, pred, looped = dp.succ, dp.pred, dp.looped
    full = (1 << dst.node_count) - 1
    domain = []
    for pin, loop in zip([-1] * s if pins is None else pins, sp.loops):
        d = full if pin < 0 else 1 << pin
        if loop:
            d &= looped
        if not d:
            return
        domain.append(d)
    # the last node narrows no later domain, so every value left in its
    # domain once the others are set completes a hom
    last = s - 1
    if not last:
        bits = domain[0]
        if not rows:
            yield bits
            return
        while bits:
            low = bits & -bits
            yield (low.bit_length() - 1,)
            bits ^= low
        return
    assign = [0] * s
    domains = [domain] + [None] * (s - 1)
    left = [domain[0]] + [0] * (s - 1)
    i = 0
    while i >= 0:
        rest = left[i]
        if not rest:
            i -= 1
            continue
        low = rest & -rest
        left[i] = rest ^ low
        c = low.bit_length() - 1
        d = domains[i]
        outs, ins = later_out[i], later_in[i]
        if outs or ins:
            # assigning i to c narrows each later neighbour's domain to the
            # successors or predecessors of c; only those can run empty
            d = d[:]
            dead = False
            row = succ[c]
            for j in outs:
                d[j] &= row
                if not d[j]:
                    dead = True
                    break
            if not dead:
                row = pred[c]
                for j in ins:
                    d[j] &= row
                    if not d[j]:
                        dead = True
                        break
            if dead:
                continue
        assign[i] = c
        if i + 1 < last:
            i += 1
            domains[i] = d
            left[i] = d[i]
            continue
        bits = d[last]
        if not rows:
            yield bits
            continue
        while bits:
            low = bits & -bits
            assign[last] = low.bit_length() - 1
            yield tuple(assign)
            bits ^= low


def _bits(x: int) -> Iterator[int]:
    while x:
        low = x & -x
        yield low.bit_length() - 1
        x ^= low

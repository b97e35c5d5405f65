"""Search kernel for graph homomorphism queries.

One backtracking search with forward checking over bitset domains
(Ullmann, J. ACM 1976; bitset domains as in the Glasgow Subgraph Solver)
serves every query.  It yields node assignments in lexicographic order,
node 0 most significant, so the first hom and any prefix of the list
come from the same sequence.

A graph is read through its ``links`` tuple (see ``links``).  A pin
sequence has one entry per source node: ``pinned[i] >= 0`` forces node i
to that target node, -1 leaves it free.
"""

from __future__ import annotations

from itertools import islice
from typing import TYPE_CHECKING, Iterator, Sequence

if TYPE_CHECKING:
    from .graphs import Graph


def links(node_count: int, edges) -> tuple[int, ...]:
    """Successor bitsets of nodes 0..n-1 followed by their predecessor
    bitsets: bit j of ``links[i]`` is edge i->j, bit j of ``links[n + i]``
    is edge j->i."""
    bits = [0] * (2 * node_count)
    for i, j in edges:
        bits[i] |= 1 << j
        bits[node_count + j] |= 1 << i
    return tuple(bits)


def _checked_pins(src: Graph, dst: Graph, pinned: Sequence[int] | None) -> list[int]:
    """The pins as a list, checked eagerly so that no query skips the check."""
    s, t = src.node_count, dst.node_count
    if pinned is None:
        return [-1] * s
    pins = [int(p) for p in pinned]
    if len(pins) != s:
        raise ValueError(f"need one pin per source node: {len(pins)} pins for {s} nodes")
    for p in pins:
        if not -1 <= p < t:
            raise ValueError(f"pin {p} out of range for {t} target nodes")
    return pins


def _homs(src: Graph, dst: Graph, pins: list[int]) -> Iterator[tuple[int, ...]]:
    """Every pin-respecting homomorphism src -> dst, in lex order."""
    s, t = src.node_count, dst.node_count
    if s == 0:
        yield ()
        return
    sl, dl = src.links, dst.links
    looped = sum(1 << v for v in range(t) if dl[v] >> v & 1)
    domain = []
    # checks[i]: (j, offset) for each edge between i and a later node j;
    # assigning i to c narrows j's domain to dl[offset + c], the
    # successors (offset 0) or predecessors (offset t) of c.
    checks = []
    for i in range(s):
        d = (1 << t) - 1 if pins[i] < 0 else 1 << pins[i]
        if sl[i] >> i & 1:
            d &= looped
        domain.append(d)
        later = ~((2 << i) - 1)
        checks.append(
            [(j, 0) for j in _bits(sl[i] & later)] + [(j, t) for j in _bits(sl[s + i] & later)]
        )
    if not all(domain):
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
        if checks[i]:
            d = d[:]
            for j, offset in checks[i]:
                d[j] &= dl[offset + c]
            if not all(d[i + 1 :]):
                continue
        assign[i] = c
        if i + 1 == s:
            yield tuple(assign)
        else:
            i += 1
            domains[i] = d
            left[i] = d[i]


def _bits(x: int) -> Iterator[int]:
    while x:
        low = x & -x
        yield low.bit_length() - 1
        x ^= low


def hom_first(src: Graph, dst: Graph, pinned: Sequence[int] | None = None) -> tuple[int, ...] | None:
    """First pin-respecting homomorphism in lex order, or None."""
    return next(_homs(src, dst, _checked_pins(src, dst, pinned)), None)


def hom_list(
    src: Graph, dst: Graph, pinned: Sequence[int] | None = None, limit: int | None = None
) -> list[tuple[int, ...]]:
    """Pin-respecting homomorphisms in lex order; with limit, the first limit."""
    return list(islice(_homs(src, dst, _checked_pins(src, dst, pinned)), limit))

"""Reference answers that do not run the engines under test.

Lattice answers come from the leq matrix alone: an element x is injective
for a -> b exactly when a <= x implies b <= x.  Graph answers come from
the paper's clique argument and from direct graph-shape checks.
"""

from __future__ import annotations


class LatticeOracle:
    """Semantic consequence, counterexamples and reflection apexes of one
    hypothesis set on one finite lattice, from its leq matrix."""

    def __init__(self, leq, hypotheses):
        self.leq = [[bool(v) for v in row] for row in leq]
        self.n = len(self.leq)
        self.hyps = list(hypotheses)
        self.injectives = [
            x for x in range(self.n) if all(self._injective(x, a, b) for a, b in self.hyps)
        ]
        self.semantic = frozenset(
            (a, b)
            for a in range(self.n)
            for b in range(self.n)
            if self.leq[a][b] and self.counterexample(a, b) is None
        )

    def _injective(self, x: int, a: int, b: int) -> bool:
        return not self.leq[a][x] or self.leq[b][x]

    def injective_for_all(self, x: int) -> bool:
        return x in self.injectives

    def counterexample(self, a: int, b: int) -> int | None:
        """First element, in element order, injective for every hypothesis
        but not for a -> b."""
        for x in self.injectives:
            if not self._injective(x, a, b):
                return x
        return None

    def reflection_apex(self, start: int) -> int:
        """Meet of the injective elements above start (the top is one)."""
        above = [x for x in self.injectives if self.leq[start][x]]
        lower = [m for m in range(self.n) if all(self.leq[m][u] for u in above)]
        (meet,) = [m for m in lower if all(self.leq[l][m] for l in lower)]
        return meet


def clique_components(node_count: int, edges) -> list[int] | None:
    """Sizes of the connected components, sorted, when the graph is a
    disjoint union of loopless cliques; None otherwise."""
    parent = list(range(node_count))

    def find(v: int) -> int:
        while parent[v] != v:
            v = parent[v]
        return v

    for i, j in edges:
        if i == j:
            return None
        parent[find(i)] = find(j)
    members: dict[int, list[int]] = {}
    for v in range(node_count):
        members.setdefault(find(v), []).append(v)
    edge_set = set(edges)
    for part in members.values():
        for i in part:
            for j in part:
                if i != j and (i, j) not in edge_set:
                    return None
    if len(edge_set) != sum(len(p) * (len(p) - 1) for p in members.values()):
        return None
    return sorted(len(p) for p in members.values())


def is_clique(node_count: int, edges, k: int) -> bool:
    """Whether the graph is exactly the loopless complete graph on k nodes."""
    return node_count == k and clique_components(node_count, edges) == ([k] if k else [])

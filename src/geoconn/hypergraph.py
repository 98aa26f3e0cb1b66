"""Immutable k-uniform hypergraphs and their combinatorial operations.

Vertices carry 1-based labels 1..n. Edges are stored as sorted tuples of k
distinct labels; the edge list keeps its construction order. Every value is
immutable after construction, so instances can be shared freely.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Iterable, Sequence

from .errors import (
    DuplicateEdge,
    InvalidSubset,
    LabelOutOfRange,
    MalformedEdge,
    WrongUniformity,
)

Edge = tuple[int, ...]


@dataclass(frozen=True)
class Hypergraph:
    """A k-uniform hypergraph on vertices 1..n.

    Construction validates every invariant: each edge has exactly k distinct
    in-range members and no two edges coincide as sets. Edge members are
    normalized to ascending order.
    """

    n: int
    k: int
    edges: tuple[Edge, ...] = ()

    def __post_init__(self):
        if not isinstance(self.n, int) or self.n < 1:
            raise ValueError(f"vertex count must be a positive integer, got {self.n!r}")
        if not isinstance(self.k, int) or self.k < 2:
            raise ValueError(f"uniformity k must be an integer >= 2, got {self.k!r}")
        seen: set[Edge] = set()
        normalized: list[Edge] = []
        for idx, raw in enumerate(self.edges):
            members = tuple(raw)
            if len(set(members)) != len(members):
                raise MalformedEdge(f"edge {idx} has a repeated vertex: {list(members)}", idx)
            if len(members) != self.k:
                raise WrongUniformity(
                    f"edge {idx} has {len(members)} vertices, expected k={self.k}", idx)
            for v in members:
                if not isinstance(v, int) or isinstance(v, bool) or not 1 <= v <= self.n:
                    raise LabelOutOfRange(
                        f"edge {idx}: vertex label {v!r} outside 1..{self.n}", idx)
            edge = tuple(sorted(members))
            if edge in seen:
                raise DuplicateEdge(f"edge {idx} duplicates an earlier edge: {list(edge)}", idx)
            seen.add(edge)
            normalized.append(edge)
        object.__setattr__(self, "edges", tuple(normalized))

    @property
    def m(self) -> int:
        """Number of edges."""
        return len(self.edges)

    def vertices(self) -> range:
        """Labels 1..n in ascending order."""
        return range(1, self.n + 1)


@dataclass(frozen=True)
class ComponentDecomposition:
    """Partition of the vertices into connected components.

    ``parts`` lists the components by smallest member ascending, each part
    sorted ascending; every edge lies inside one part.
    """

    parts: tuple[tuple[int, ...], ...]

    @property
    def count(self) -> int:
        return len(self.parts)


def construct(n: int, k: int, edges: Iterable[Sequence[int]]) -> Hypergraph:
    """Validate and build a hypergraph from raw edge lists.

    Raises MalformedEdge, WrongUniformity, LabelOutOfRange or DuplicateEdge
    when the edge list is invalid; the exception records the offending edge
    index.
    """
    return Hypergraph(n, k, tuple(tuple(e) for e in edges))


def degrees(g: Hypergraph) -> tuple[int, ...]:
    """Per-vertex degree d_i = number of edges containing vertex i."""
    out = [0] * g.n
    for edge in g.edges:
        for v in edge:
            out[v - 1] += 1
    return tuple(out)


def connected_components(g: Hypergraph) -> ComponentDecomposition:
    """Partition the vertices into connected components.

    Two vertices are connected when a path of alternating vertices and edges
    joins them, i.e. when they are reachable in the bipartite vertex-edge
    incidence structure. Breadth-first search over that structure runs in
    O(k*m + n). Isolated vertices form singleton parts.
    """
    incident: list[list[int]] = [[] for _ in range(g.n + 1)]
    for j, edge in enumerate(g.edges):
        for v in edge:
            incident[v].append(j)
    seen_vertex = [False] * (g.n + 1)
    seen_edge = [False] * g.m
    parts: list[tuple[int, ...]] = []
    for start in range(1, g.n + 1):
        if seen_vertex[start]:
            continue
        seen_vertex[start] = True
        queue = deque([start])
        members = []
        while queue:
            v = queue.popleft()
            members.append(v)
            for j in incident[v]:
                if seen_edge[j]:
                    continue
                seen_edge[j] = True
                for u in g.edges[j]:
                    if not seen_vertex[u]:
                        seen_vertex[u] = True
                        queue.append(u)
        parts.append(tuple(sorted(members)))
    return ComponentDecomposition(tuple(parts))


def induced(g: Hypergraph, subset: Iterable[int]) -> tuple[Hypergraph, dict[int, int]]:
    """Sub-hypergraph induced by a vertex subset.

    Keeps exactly the edges entirely contained in the subset. Vertices are
    relabeled 1..|subset| preserving label order; the returned map sends old
    labels to new ones.
    """
    labels = sorted(set(subset))
    if not labels:
        raise InvalidSubset("vertex subset must be nonempty")
    if labels[0] < 1 or labels[-1] > g.n:
        raise InvalidSubset(f"vertex subset contains labels outside 1..{g.n}")
    relabel = {old: new for new, old in enumerate(labels, start=1)}
    kept = []
    for edge in g.edges:
        if all(v in relabel for v in edge):
            kept.append(tuple(relabel[v] for v in edge))
    return Hypergraph(len(labels), g.k, tuple(kept)), relabel


def is_regular(g: Hypergraph) -> int | None:
    """The common degree d when every vertex has it, otherwise None."""
    degs = degrees(g)
    first = degs[0]
    if all(d == first for d in degs):
        return first
    return None

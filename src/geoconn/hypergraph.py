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
    """Partition of the vertices into connected components, isolated
    vertices as singletons, with the search tree as witness.

    ``parts`` lists the components by smallest member ascending, each part
    sorted ascending. ``order`` lists all n vertices as the search reached
    them, part by part; ``reached_by[v - 1]`` indexes the edge that reached
    v, or is -1 at a part's start."""

    parts: tuple[tuple[int, ...], ...]
    order: tuple[int, ...]
    reached_by: tuple[int, ...]

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
    O(k*m + n); it records its spanning tree, so that ``check_components``
    checks each part's connectivity instead of trusting the search.
    """
    incident: list[list[int]] = [[] for _ in range(g.n + 1)]
    for j, edge in enumerate(g.edges):
        for v in edge:
            incident[v].append(j)
    seen_edge = [False] * g.m
    reached_by: list[int | None] = [None] * (g.n + 1)  # None until reached
    order: list[int] = []
    parts: list[tuple[int, ...]] = []
    for start in range(1, g.n + 1):
        if reached_by[start] is not None:
            continue
        reached_by[start] = -1
        queue = deque([start])
        first = len(order)
        while queue:
            v = queue.popleft()
            order.append(v)
            for j in incident[v]:
                if seen_edge[j]:
                    continue
                seen_edge[j] = True
                for u in g.edges[j]:
                    if reached_by[u] is None:
                        reached_by[u] = j
                        queue.append(u)
        parts.append(tuple(sorted(order[first:])))
    return ComponentDecomposition(tuple(parts), tuple(order), tuple(reached_by[1:]))


def check_components(g: Hypergraph, d: ComponentDecomposition) -> ComponentDecomposition:
    """Return ``d`` once checked to hold the components of ``g``, else raise
    ValueError, in O(n + k*m) with no search: no edge leaves a part, so none
    is split, and every vertex but one start per part is reached through an
    edge holding an earlier vertex of ``d.order``, so each part is connected."""
    owner = [-1] * (g.n + 1)
    for index, part in enumerate(d.parts):
        for v in part:
            if owner[v] >= 0:
                raise ValueError(f"vertex {v} lies in parts {owner[v] + 1} and {index + 1}")
            owner[v] = index
    if -1 in owner[1:]:
        raise ValueError(f"vertex {owner.index(-1, 1)} lies in no part")
    for j, edge in enumerate(g.edges):
        index = owner[edge[0]]
        for v in edge:
            if owner[v] != index:
                raise ValueError(f"edge {j} {list(edge)} leaves its component {index + 1}")
    if len(d.order) != g.n or len(d.reached_by) != g.n:
        raise ValueError("the search order must list every vertex once")
    listed: set[int] = set()
    for v in d.order:
        if v in listed or not 1 <= v <= g.n:
            raise ValueError("the search order must list every vertex once")
        j = d.reached_by[v - 1]
        edge = g.edges[j] if 0 <= j < g.m else ()
        if j != -1 and v not in edge:
            raise ValueError(f"vertex {v} is not in edge {j}, which reached it")
        if j != -1 and listed.isdisjoint(edge):
            raise ValueError(f"edge {j} reaches vertex {v} from no earlier vertex")
        listed.add(v)
    # no edge leaves a part, so its first listed vertex is a start: one each
    if d.reached_by.count(-1) != d.count:
        raise ValueError(f"the search has {d.reached_by.count(-1)} starts for {d.count} parts")
    return d


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

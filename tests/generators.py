"""Seeded random hypergraph generators shared across the test suite."""

from __future__ import annotations

import itertools
import random
from math import comb

from geoconn import Hypergraph, construct


def random_hypergraph(rng: random.Random, k_choices=(2, 3, 4),
                      max_n: int = 12, max_m: int = 15) -> Hypergraph:
    """General instance: connected, multi-component or edgeless."""
    k = rng.choice(list(k_choices))
    n = rng.randint(1, max_n)
    if n < k:
        return construct(n, k, [])
    edges = set()
    for _ in range(rng.randint(0, max_m)):
        edges.add(tuple(sorted(rng.sample(range(1, n + 1), k))))
    return construct(n, k, sorted(edges))


def connected_hypergraph(rng: random.Random, k_choices=(2, 3, 4),
                         max_n: int = 10, extra: int = 4) -> Hypergraph:
    """Connected instance: a chain of edges overlapping in one vertex covers
    a shuffled vertex order, then a few extra random edges."""
    k = rng.choice(list(k_choices))
    n = rng.randint(k, max_n)
    order = list(range(1, n + 1))
    rng.shuffle(order)
    edges = set()
    i = 0
    while i + k <= n:
        edges.add(tuple(sorted(order[i:i + k])))
        i += k - 1
    if i < n:
        edges.add(tuple(sorted(order[n - k:n])))
    for _ in range(rng.randint(0, extra)):
        edges.add(tuple(sorted(rng.sample(range(1, n + 1), k))))
    return construct(n, k, sorted(edges))


def regular_connected_hypergraph(rng: random.Random, k_choices=(3, 4),
                                 max_n: int = 10) -> tuple[Hypergraph, int]:
    """Connected d-regular instance, returned with its degree d.

    Either the complete k-uniform hypergraph on n vertices (degree
    C(n-1, k-1)) or an edge-disjoint union of tight cycles on a shuffled
    vertex order (degree k per cycle)."""
    k = rng.choice(list(k_choices))
    if rng.random() < 0.5:
        n = rng.randint(k + 1, min(max_n, 7))
        edges = list(itertools.combinations(range(1, n + 1), k))
        return construct(n, k, edges), comb(n - 1, k - 1)
    n = rng.randint(k + 1, max_n)
    cycles = rng.randint(1, 2)
    while True:
        edges: set[tuple[int, ...]] = set()
        clash = False
        for _ in range(cycles):
            order = list(range(1, n + 1))
            rng.shuffle(order)
            for i in range(n):
                edge = tuple(sorted(order[(i + j) % n] for j in range(k)))
                clash = clash or edge in edges
                edges.add(edge)
        if not clash:
            return construct(n, k, sorted(edges)), cycles * k
        cycles = 1


def loose_path(length: int, k: int = 3) -> Hypergraph:
    """k-uniform loose path with ``length`` edges: consecutive edges share
    one vertex, on (k-1)*length + 1 vertices in path order."""
    return construct((k - 1) * length + 1, k,
                     [tuple(range((k - 1) * i + 1, (k - 1) * i + k + 1))
                      for i in range(length)])


def hypertree(rng: random.Random, k: int, m: int, shape: str = "random") -> Hypergraph:
    """Connected Berge-acyclic k-uniform hypergraph with m edges, so that
    m*(k-1) = n-1, on a shuffled labelling. Each edge after the first holds
    k-1 new vertices and one placed vertex: a random one ("random"), the
    first one ("star"), or, for a "caterpillar", the newest vertex of the
    spine on even edges and a random spine vertex on odd ones."""
    n = m * (k - 1) + 1
    labels = list(range(1, n + 1))
    rng.shuffle(labels)
    edges = [labels[:k]]
    spine = [labels[k - 1]]
    placed = k
    for j in range(1, m):
        if shape == "star":
            anchor = labels[0]
        elif shape == "caterpillar":
            anchor = spine[-1] if j % 2 == 0 else rng.choice(spine)
        else:
            anchor = labels[rng.randrange(placed)]
        fresh = labels[placed:placed + k - 1]
        placed += k - 1
        if j % 2 == 0:
            spine.append(fresh[-1])
        edges.append([anchor, *fresh])
    return construct(n, k, sorted(tuple(sorted(edge)) for edge in edges))

"""Seeded input generators for the geoconn benchmark.

Every generator takes a ``random.Random`` built from the workload seed and
returns ``(k, n, edges)`` with 1-based labels. Each workload fixes its shape
(n, m, k and the component sizes); the seed only draws the random edges of
the one random input and relabels vertices and reorders edges everywhere
else, so the cost of a pass barely moves from seed to seed while the program
still sees different files.
"""

from __future__ import annotations

import random

Edge = tuple[int, ...]

# many-components: (component size, how many). 250 loose chains on
# 1616 vertices with 739 edges; sizes 4, 9 and 16 are perfect squares, so
# their unit indicators stay exact Fractions on the Z path.
CHAIN_SIZES = ((3, 50), (4, 45), (5, 35), (6, 25), (7, 20), (8, 15), (9, 14),
               (10, 10), (11, 8), (12, 7), (13, 6), (14, 5), (15, 5), (16, 5))
ISOLATED = 83


def _relabel(rng: random.Random, n: int, edges: list[Edge]) -> list[Edge]:
    # random vertex permutation and edge order; structure is unchanged
    perm = list(range(1, n + 1))
    rng.shuffle(perm)
    out = [tuple(sorted(perm[v - 1] for v in e)) for e in edges]
    rng.shuffle(out)
    return out


def random_connected(rng: random.Random, k: int, n: int, m: int) -> tuple[int, int, list[Edge]]:
    """Connected random k-uniform input: in a shuffled vertex order, the first
    k vertices form an edge and every later vertex joins one with k-1 random
    earlier vertices; random distinct edges fill up to m."""
    order = list(range(1, n + 1))
    rng.shuffle(order)
    listed = [tuple(sorted(order[:k]))]
    for j in range(k, n):
        listed.append(tuple(sorted(rng.sample(order[:j], k - 1) + [order[j]])))
    edges = set(listed)
    while len(listed) < m:
        edge = tuple(sorted(rng.sample(range(1, n + 1), k)))
        if edge not in edges:
            edges.add(edge)
            listed.append(edge)
    rng.shuffle(listed)
    return k, n, listed


def tight_cycles(rng: random.Random, k: int, n: int, cycles: int) -> tuple[int, int, list[Edge]]:
    """Union of edge-disjoint tight k-uniform cycles, each on its own
    shuffled vertex order: (cycles*k)-regular and connected."""
    while True:
        edges: list[Edge] = []
        seen: set[Edge] = set()
        for _ in range(cycles):
            order = list(range(1, n + 1))
            rng.shuffle(order)
            for i in range(n):
                edge = tuple(sorted(order[(i + j) % n] for j in range(k)))
                if edge in seen:
                    break
                seen.add(edge)
                edges.append(edge)
        if len(edges) == cycles * n:
            rng.shuffle(edges)
            return k, n, edges


def _chain(members: list[int]) -> list[Edge]:
    # 3-uniform chain: consecutive edges share one vertex; an even-sized
    # chain closes with an edge sharing two, so every vertex is covered
    out = []
    i = 0
    while i + 3 <= len(members):
        out.append(tuple(members[i:i + 3]))
        i += 2
    if i < len(members) - 1:
        out.append(tuple(members[-3:]))
    return out


def many_chains(rng: random.Random, sizes=CHAIN_SIZES,
                isolated: int = ISOLATED) -> tuple[int, int, list[Edge]]:
    """Disjoint 3-uniform loose chains of the given sizes plus isolated
    vertices, relabeled at random."""
    edges: list[Edge] = []
    next_label = 1
    for size, count in sizes:
        for _ in range(count):
            edges.extend(_chain(list(range(next_label, next_label + size))))
            next_label += size
    n = next_label - 1 + isolated
    return 3, n, _relabel(rng, n, edges)


def loose_path(rng: random.Random, length: int) -> tuple[int, int, list[Edge]]:
    """3-uniform loose path with ``length`` edges on 2*length+1 vertices."""
    n = 2 * length + 1
    edges = [(2 * j + 1, 2 * j + 2, 2 * j + 3) for j in range(length)]
    return 3, n, _relabel(rng, n, edges)


def serialize(k: int, n: int, edges: list[Edge]) -> str:
    """The ``k n m`` + edge-lines file format the CLI reads."""
    lines = [f"{k} {n} {len(edges)}"]
    lines.extend(" ".join(map(str, e)) for e in edges)
    return "\n".join(lines) + "\n"

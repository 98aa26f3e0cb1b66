"""Independent reference computations the library results are checked
against. Nothing here goes through the implicit contraction kernel, the
BFS decomposition or its checker. Weak irreducibility is checked the way
it is defined: ``support_digraph_of`` builds the support digraph of
materialized tensor entries and ``strongly_connected_components``
(iterative Tarjan) splits it; the library itself only runs a
breadth-first search."""

from __future__ import annotations

from fractions import Fraction
from itertools import permutations
from math import cos, factorial, pi
from typing import Mapping, Sequence

from geoconn import Hypergraph


def union_find_parts(g: Hypergraph) -> list[tuple[int, ...]]:
    """Connected components by union-find, by smallest member ascending,
    each sorted ascending."""
    parent = list(range(g.n + 1))

    def find(a: int) -> int:
        while parent[a] != a:
            parent[a] = parent[parent[a]]
            a = parent[a]
        return a

    for edge in g.edges:
        root = find(edge[0])
        for v in edge[1:]:
            parent[find(v)] = root
    parts: dict[int, list[int]] = {}
    for v in range(1, g.n + 1):
        parts.setdefault(find(v), []).append(v)
    return sorted(tuple(part) for part in parts.values())


def union_find_components(g: Hypergraph) -> int:
    return len(union_find_parts(g))


def spanning_forest_holds(g: Hypergraph, parts: Sequence[Sequence[int]],
                          order: Sequence[int], reached_by: Sequence[int]) -> bool:
    """Whether ``order`` and ``reached_by`` witness that every part is
    connected: ``order`` lists each vertex once, the parts one after the
    other; each part has exactly one vertex with ``reached_by`` -1, and
    every other vertex v is a member of edge ``reached_by[v - 1]``, which
    also holds a vertex of v's part that ``order`` lists before v."""
    if sorted(order) != list(range(1, g.n + 1)) or len(reached_by) != g.n:
        return False
    part_of = {v: index for index, part in enumerate(parts) for v in part}
    if len(part_of) != g.n or [part_of[v] for v in order] != sorted(part_of.values()):
        return False
    position = {v: index for index, v in enumerate(order)}
    starts = [0] * len(parts)
    for v in order:
        j = reached_by[v - 1]
        if j == -1:
            starts[part_of[v]] += 1
        elif not (0 <= j < g.m and v in g.edges[j] and any(
                part_of[u] == part_of[v] and position[u] < position[v] for u in g.edges[j])):
            return False
    return starts == [1] * len(parts)


def adjacency_entries(g: Hypergraph) -> dict[tuple[int, ...], Fraction]:
    """All nonzero adjacency entries, 1-based indices: 1/(k-1)! on every
    permutation of every edge tuple."""
    weight = Fraction(1, factorial(g.k - 1))
    entries: dict[tuple[int, ...], Fraction] = {}
    for edge in g.edges:
        for index in permutations(edge):
            entries[index] = weight
    return entries


def laplacian_entries(g: Hypergraph) -> dict[tuple[int, ...], Fraction]:
    entries: dict[tuple[int, ...], Fraction] = {}
    degree = [0] * (g.n + 1)
    for edge in g.edges:
        for v in edge:
            degree[v] += 1
    for v in range(1, g.n + 1):
        if degree[v]:
            entries[(v,) * g.k] = Fraction(degree[v])
    for index, value in adjacency_entries(g).items():
        entries[index] = entries.get(index, Fraction(0)) - value
    return {index: value for index, value in entries.items() if value != 0}


def shifted_laplacian_entries(g: Hypergraph, shift: int) -> dict[tuple[int, ...], Fraction]:
    """shift*I - L_G from the Laplacian entries: shift on the diagonal plus
    the negated Laplacian."""
    entries = {index: -value for index, value in laplacian_entries(g).items()}
    for v in range(1, g.n + 1):
        entries[(v,) * g.k] = shift + entries.get((v,) * g.k, Fraction(0))
    return {index: value for index, value in entries.items() if value != 0}


def dense_apply(entries: dict[tuple[int, ...], Fraction], dim: int, x) -> list:
    """Brute-force (T x^{m-1})_i by summing over the stored entries."""
    out = [0] * dim
    for index, value in entries.items():
        term = value
        for j in index[1:]:
            term = term * x[j - 1]
        out[index[0] - 1] = out[index[0] - 1] + term
    return out


def edge_by_edge_apply(view, x) -> list:
    """T x^{k-1} of a hypergraph view by the per-edge kernel: for each edge
    in order, its prefix and suffix products, and one sum into every member.
    It adds each term in the same order and associates each product the
    same way as the library's column-wise kernel, so it pins that kernel's
    results to the bit, types and signs of zero included."""
    xs = list(x)
    power = view.graph.k - 1
    out = [c * (v ** power) for c, v in zip(view.diagonal, xs)]
    for edge in view.graph.edges:
        values = [xs[i - 1] for i in edge]
        prefix = 1
        prefixes = []
        for v in values:
            prefixes.append(prefix)
            prefix = prefix * v
        suffix = 1
        for pos in range(len(edge) - 1, -1, -1):
            i = edge[pos] - 1
            out[i] = out[i] + view.sign * (prefixes[pos] * suffix)
            suffix = suffix * values[pos]
    return out


def support_digraph_of(entries: Mapping[tuple[int, ...], Fraction],
                       dim: int) -> dict[int, tuple[int, ...]]:
    """Arcs (i, j) for every entry t_{i i2..im} and every j among i2..im, on
    vertices 1..dim; the entries must be positive (absent ones are zero)."""
    successors: dict[int, set[int]] = {i: set() for i in range(1, dim + 1)}
    for index, value in entries.items():
        assert value > 0, f"entry {index} is not positive: {value}"
        successors[index[0]].update(index[1:])
    return {i: tuple(sorted(s)) for i, s in successors.items()}


def strongly_connected_components(
        graph: Mapping[int, Sequence[int]]) -> list[tuple[int, ...]]:
    """Strongly connected components of a digraph given as adjacency lists.

    Iterative Tarjan. Each component is a sorted tuple and the components
    are listed by smallest member, so the output is deterministic.
    """
    index: dict[int, int] = {}
    lowlink: dict[int, int] = {}
    on_stack: set[int] = set()
    stack: list[int] = []
    result: list[tuple[int, ...]] = []
    counter = 0
    for root in sorted(graph):
        if root in index:
            continue
        work: list[tuple[int, int]] = [(root, 0)]
        while work:
            node, next_succ = work[-1]
            if next_succ == 0:
                index[node] = lowlink[node] = counter
                counter += 1
                stack.append(node)
                on_stack.add(node)
            descended = False
            successors = graph[node]
            for pos in range(next_succ, len(successors)):
                succ = successors[pos]
                if succ not in index:
                    work[-1] = (node, pos + 1)
                    work.append((succ, 0))
                    descended = True
                    break
                if succ in on_stack:
                    lowlink[node] = min(lowlink[node], index[succ])
            if descended:
                continue
            work.pop()
            if lowlink[node] == index[node]:
                component = []
                while True:
                    member = stack.pop()
                    on_stack.discard(member)
                    component.append(member)
                    if member == node:
                        break
                result.append(tuple(sorted(component)))
            if work:
                parent = work[-1][0]
                lowlink[parent] = min(lowlink[parent], lowlink[node])
    result.sort()
    return result


def strongly_connected(entries: Mapping[tuple[int, ...], Fraction], dim: int) -> bool:
    """Weak irreducibility of a nonnegative tensor by its definition."""
    return len(strongly_connected_components(support_digraph_of(entries, dim))) == 1


def loose_path_spectral_radius(length: int, k: int = 3) -> float:
    """Spectral radius of the adjacency tensor of the k-uniform loose path
    with ``length`` edges. It is the k-th power hypergraph of the path
    P_{length+1}, whose radius is 2*cos(pi/(length+2)), and
    rho(G^{(k)}) = rho(G)^{2/k} (Zhou, Sun, Wang and Bu, Electron. J.
    Combin. 21(4), 2014)."""
    return (2.0 * cos(pi / (length + 2))) ** (2.0 / k)


def power_iteration(entries: dict[tuple[int, ...], Fraction], order: int, dim: int,
                    tol: float = 1e-12, max_iter: int = 200000) -> float:
    """Spectral radius of a nonnegative weakly irreducible tensor by the
    plain unit-shifted power iteration x -> ((T + I) x^{m-1})^{1/(m-1)} on
    ``dense_apply``, stopped when the Collatz-Wielandt bracket is narrower
    than ``tol``."""
    power = order - 1
    floats = {index: float(value) for index, value in entries.items()}
    x = [1.0] * dim
    for _ in range(max_iter):
        z = [yi + xi ** power for yi, xi in zip(dense_apply(floats, dim, x), x)]
        ratios = [zi / xi ** power for zi, xi in zip(z, x)]
        if max(ratios) - min(ratios) < tol:
            return (max(ratios) + min(ratios)) / 2.0 - 1.0
        scaled = [zi ** (1.0 / power) for zi in z]
        top = max(scaled)
        x = [si / top for si in scaled]
    raise AssertionError(f"oracle power iteration did not converge in {max_iter} steps")


def laplacian_matrix(g: Hypergraph) -> list[list[Fraction]]:
    """Ordinary graph Laplacian, k = 2 only."""
    assert g.k == 2
    matrix = [[Fraction(0)] * g.n for _ in range(g.n)]
    for a, b in g.edges:
        matrix[a - 1][a - 1] += 1
        matrix[b - 1][b - 1] += 1
        matrix[a - 1][b - 1] -= 1
        matrix[b - 1][a - 1] -= 1
    return matrix


def rational_nullity(matrix: list[list[Fraction]]) -> int:
    """dim ker by exact Gaussian elimination."""
    rows = [list(row) for row in matrix]
    n_rows = len(rows)
    n_cols = len(rows[0]) if rows else 0
    rank = 0
    for col in range(n_cols):
        pivot = next((r for r in range(rank, n_rows) if rows[r][col] != 0), None)
        if pivot is None:
            continue
        rows[rank], rows[pivot] = rows[pivot], rows[rank]
        lead = rows[rank][col]
        for r in range(n_rows):
            if r != rank and rows[r][col] != 0:
                factor = rows[r][col] / lead
                rows[r] = [a - factor * b for a, b in zip(rows[r], rows[rank])]
        rank += 1
    return n_cols - rank

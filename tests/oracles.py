"""Independent reference computations the library results are checked
against. Nothing here goes through the implicit contraction kernel or the
BFS decomposition."""

from __future__ import annotations

from fractions import Fraction
from itertools import permutations
from math import cos, factorial, pi

from geoconn import Hypergraph


def union_find_components(g: Hypergraph) -> int:
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
    return len({find(v) for v in range(1, g.n + 1)})


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

"""Output oracles for the geoconn benchmark.

Nothing here imports geoconn: components come from a union-find over the
generated edge list, degrees from counting, and Perron pairs are re-checked
with a contraction written out below. Each oracle returns a ``Verdict``:
``failed`` when the command gave no certified answer (any exit code other
than 0, or a wrong answer), ``wrong`` when what it said is false or it
rejected a valid input. Exit 3 (no convergence) is a missing answer, not a
wrong one.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

Edge = tuple[int, ...]

EXIT_NO_CONVERGENCE = 3


@dataclass(frozen=True)
class Verdict:
    failed: bool
    wrong: bool
    reason: str = ""


OK = Verdict(False, False)


def _wrong(reason: str) -> Verdict:
    return Verdict(True, True, reason)


def _exit_verdict(code) -> Verdict | None:
    # None when the exit code is 0 and the output still needs checking
    if code == 0:
        return None
    if code == EXIT_NO_CONVERGENCE:
        return Verdict(True, False, "exit 3: no convergence")
    return _wrong(f"exit {code}")


def components(n: int, edges: list[Edge]) -> list[tuple[int, ...]]:
    """Connected components by union-find, each sorted, listed by smallest
    member (the order the CLI prints them in)."""
    parent = list(range(n + 1))

    def find(a: int) -> int:
        while parent[a] != a:
            parent[a] = parent[parent[a]]
            a = parent[a]
        return a

    for edge in edges:
        root = find(edge[0])
        for v in edge[1:]:
            parent[find(v)] = root
    groups: dict[int, list[int]] = {}
    for v in range(1, n + 1):
        groups.setdefault(find(v), []).append(v)
    return sorted(tuple(group) for group in groups.values())


def degree_list(n: int, edges: list[Edge]) -> list[int]:
    out = [0] * n
    for edge in edges:
        for v in edge:
            out[v - 1] += 1
    return out


def regular_degree(n: int, edges: list[Edge]) -> int | None:
    degs = set(degree_list(n, edges))
    return degs.pop() if len(degs) == 1 else None


def contract(n: int, edges: list[Edge], diagonal: list[float], x: list[float]) -> list[float]:
    """(T x^{k-1})_i for T = diag(diagonal) + adjacency tensor: the adjacency
    part sums, over edges through i, the product of the other members."""
    k = len(edges[0]) if edges else 2
    out = [d * xi ** (k - 1) for d, xi in zip(diagonal, x)]
    for edge in edges:
        for i in edge:
            product = 1.0
            for j in edge:
                if j != i:
                    product *= x[j - 1]
            out[i - 1] += product
    return out


def perron_residual(n: int, edges: list[Edge], diagonal: list[float],
                    rho: float, x: list[float]) -> float:
    """max_i |(T x^{k-1})_i - rho x_i^{k-1}| / max(1, max_i x_i^{k-1})."""
    power = (len(edges[0]) if edges else 2) - 1
    y = contract(n, edges, diagonal, x)
    defect = max(abs(yi - rho * xi ** power) for yi, xi in zip(y, x))
    return defect / max(1.0, max(abs(xi) for xi in x) ** power)


def _check_perron_pair(n, edges, diagonal, rho, vector, tol) -> str:
    if len(vector) != n:
        return f"vector has {len(vector)} entries, expected {n}"
    if not all(v > 0 for v in vector):
        return "Perron vector is not positive"
    residual = perron_residual(n, edges, diagonal, rho, vector)
    if not residual <= 10.0 * tol:
        return f"Perron residual {residual!r} above 10*tol"
    return ""


def check_text(n: int, edges: list[Edge]) -> str:
    """The exact stdout of ``geoconn check`` on a correct run."""
    count = len(components(n, edges))
    lines = ["ok: beta equals component count",
             "ok: beta_z equals component count",
             "ok: null certificates accepted"]
    if regular_degree(n, edges) is not None:
        lines += ["ok: beta_rho equals component count",
                  "ok: rho certificates accepted"]
    lines.append(f"beta = {count} = components")
    return "\n".join(lines) + "\n"


def check_check(n: int, edges: list[Edge], code, out: str) -> Verdict:
    verdict = _exit_verdict(code)
    if verdict is not None:
        return verdict
    if out != check_text(n, edges):
        return _wrong(f"check printed {out.strip()!r}")
    return OK


def check_report(k: int, n: int, edges: list[Edge], source: str, code, out: str) -> Verdict:
    verdict = _exit_verdict(code)
    if verdict is not None:
        return verdict
    try:
        doc = json.loads(out)
    except ValueError as exc:
        return _wrong(f"report is not JSON: {exc}")
    parts = components(n, edges)
    count = len(parts)
    degree = regular_degree(n, edges)
    expected = {
        "input": {"k": k, "n": n, "m": len(edges), "source": source},
        "components": [list(p) for p in parts],
        "beta": count,
        "beta_z": count,
        "beta_rho": count if degree is not None else None,
        "connected": count == 1,
        "weakly_irreducible": count == 1,
        "regular_degree": degree,
    }
    for key, value in expected.items():
        if doc.get(key) != value:
            shown = repr(doc.get(key))[:80]
            return _wrong(f"report {key} is {shown}, expected {repr(value)[:80]}")
    certificates = doc.get("certificates")
    if not isinstance(certificates, list) or len(certificates) != count:
        return _wrong("report needs one certificate per component")
    for part, cert in zip(parts, certificates):
        members = set(part)
        indicator = ["1" if v in members else "0" for v in range(1, n + 1)]
        if cert.get("vector") != indicator or cert.get("lambda") != "0":
            return _wrong("certificate is not the component's indicator at 0")
        if cert.get("exact") is not True or cert.get("residual") != "0":
            return _wrong(f"exact certificate has residual {cert.get('residual')!r}")
    block = doc.get("perron")
    if block is not None:
        # Perron pair of the shifted Laplacian shift*I - L, shift = max degree
        degs = degree_list(n, edges)
        shift = max(degs)
        diagonal = [float(shift - d) for d in degs]
        problem = _check_perron_pair(n, edges, diagonal, float(block["rho"]),
                                     [float(v) for v in block["vector"]],
                                     float(block["tolerance"]))
        if problem:
            return _wrong(f"report perron block: {problem}")
    return OK


def check_perron(n: int, edges: list[Edge], tol: float, code, out: str) -> Verdict:
    """``geoconn perron`` text output on the adjacency tensor."""
    verdict = _exit_verdict(code)
    if verdict is not None:
        return verdict
    fields = {}
    for line in out.splitlines():
        key, _, value = line.partition(": ")
        fields[key] = value
    try:
        rho = float(fields["rho"])
        vector = [float(v) for v in fields["vector"].split()]
        int(fields["iterations"])
    except (KeyError, ValueError):
        return _wrong(f"perron printed {out[:80]!r}")
    problem = _check_perron_pair(n, edges, [0.0] * n, rho, vector, tol)
    return _wrong(problem) if problem else OK


def check_components(n: int, edges: list[Edge], code, out: str) -> Verdict:
    """``geoconn components`` text output."""
    verdict = _exit_verdict(code)
    if verdict is not None:
        return verdict
    parts = components(n, edges)
    lines = [f"components: {len(parts)}"]
    lines += [f"  {i}: {' '.join(map(str, p))}" for i, p in enumerate(parts, start=1)]
    if out != "\n".join(lines) + "\n":
        return _wrong(f"components printed {out.strip()[:80]!r}")
    return OK

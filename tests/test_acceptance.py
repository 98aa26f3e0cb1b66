"""Acceptance gate: nine criteria covering component counting with exact
certificates, the signed-vector contrast fixture, weak irreducibility,
Perron behavior on regular and shifted tensors, the Z and matrix
cross-checks, the contraction oracle and the CLI goldens.

Each criterion prints one ``acceptance N PASS/FAIL`` line (visible with
``pytest -s``) and then asserts."""

import json
import math
import random
import subprocess
import sys
import time
from fractions import Fraction

from geoconn import (
    SparseTensor,
    adjacency,
    apply,
    connected_components,
    construct,
    degrees,
    explicit,
    geometry_connectivity,
    is_weakly_irreducible,
    laplacian,
    perron,
    shifted_laplacian,
    signed_null_vectors_demo,
    z_geometry_connectivity,
)

from generators import (
    connected_hypergraph,
    random_hypergraph,
    regular_connected_hypergraph,
)
from oracles import (
    adjacency_entries,
    dense_apply,
    laplacian_entries,
    laplacian_matrix,
    rational_nullity,
    union_find_components,
)

_SUITE_RNG = random.Random(20240811)
SUITE = [random_hypergraph(_SUITE_RNG) for _ in range(500)]

SINGLE_EDGE_4 = construct(4, 4, [(1, 2, 3, 4)])
SIGNED_COUNT = 4
CITED_NULL_MULTIPLICITY = 16  # documented constant, not recomputed


def _line(number: int, ok: bool, text: str) -> None:
    print(f"acceptance {number} {'PASS' if ok else 'FAIL'}: {text}")


def _cosine_with_ones(vector) -> float:
    n = len(vector)
    return sum(vector) / math.sqrt(n * sum(v * v for v in vector))


def test_acceptance_1_beta_counts_components_with_exact_certificates():
    start = time.perf_counter()
    failures = 0
    for g in SUITE:
        report = geometry_connectivity(g)
        good = (report.beta == report.component_count == union_find_components(g)
                and all(c.exact and c.residual == 0 for c in report.certificates))
        failures += 0 if good else 1
    elapsed = time.perf_counter() - start
    ok = failures == 0 and elapsed < 5.0
    _line(1, ok, f"beta == component count with exact residual-0 certificates "
          f"on {len(SUITE)} random hypergraphs ({elapsed:.2f}s)")
    assert failures == 0
    assert elapsed < 5.0


def test_acceptance_2_signed_null_vector_contrast_fixture():
    demo = signed_null_vectors_demo(SINGLE_EDGE_4)
    all_accepted = (demo.independent_count == SIGNED_COUNT and demo.rejected == ()
                    and all(c.exact and c.residual == 0 for c in demo.accepted))
    contrast = (demo.beta == 1 and demo.beta != SIGNED_COUNT
                and demo.beta != CITED_NULL_MULTIPLICITY)
    ok = all_accepted and contrast
    _line(2, ok, "single-edge 4-uniform fixture: four exact signed null "
          f"vectors, beta = {demo.beta} (vs {SIGNED_COUNT} signed, "
          f"{CITED_NULL_MULTIPLICITY} cited multiplicity)")
    assert ok


def test_acceptance_3_weak_irreducibility_iff_connected():
    mismatches = sum(
        1 for g in SUITE
        if is_weakly_irreducible(adjacency(g)) != (connected_components(g).count == 1))
    # Tarjan on the materialized tensor, independent of the BFS
    tarjan_mismatches = sum(
        1 for g in SUITE
        if is_weakly_irreducible(explicit(SparseTensor(g.k, g.n, adjacency_entries(g))))
        != (union_find_components(g) == 1))
    ok = mismatches == tarjan_mismatches == 0
    _line(3, ok, f"weak irreducibility of the adjacency tensor, implicit and "
          f"materialized, matches connectivity on all {len(SUITE)} instances")
    assert mismatches == 0
    assert tarjan_mismatches == 0


def test_acceptance_4_perron_on_regular_adjacency_recovers_degree():
    rng = random.Random(41)
    failures = 0
    for _ in range(50):
        g, degree = regular_connected_hypergraph(rng)
        result = perron(adjacency(g))
        good = (abs(result.rho - degree) <= 1e-8
                and all(v > 0 for v in result.vector)
                and _cosine_with_ones(result.vector) >= 1.0 - 1e-8)
        failures += 0 if good else 1
    ok = failures == 0
    _line(4, ok, "perron on 50 regular connected instances: |rho - d| <= 1e-8, "
          "positive vector parallel to ones")
    assert ok


def test_acceptance_5_perron_on_shifted_laplacian_certifies_beta_one():
    rng = random.Random(51)
    failures = 0
    for _ in range(100):
        g = connected_hypergraph(rng)
        shift = max(degrees(g))
        result = perron(shifted_laplacian(g))
        good = (abs(result.rho - shift) <= 1e-8
                and _cosine_with_ones(result.vector) >= 1.0 - 1e-8)
        failures += 0 if good else 1
    ok = failures == 0
    _line(5, ok, "perron on shift*I - L of 100 connected instances: "
          "|rho - shift| <= 1e-8, vector parallel to ones")
    assert ok


def test_acceptance_6_beta_z_equals_beta_with_tight_z_residuals():
    failures = 0
    for g in SUITE:
        report = z_geometry_connectivity(g)
        good = report.beta_z == report.beta == union_find_components(g)
        for cert in report.certificates:
            norm_defect = abs(sum(v * v for v in cert.vector) - 1)
            good = good and norm_defect <= 1e-12 and cert.residual <= 1e-12
        failures += 0 if good else 1
    ok = failures == 0
    _line(6, ok, f"beta_z == beta with |x'x - 1| and Z-residual <= 1e-12 "
          f"on all {len(SUITE)} instances")
    assert ok


def test_acceptance_7_k2_beta_equals_rational_laplacian_nullity():
    rng = random.Random(71)
    failures = 0
    for _ in range(100):
        g = random_hypergraph(rng, k_choices=(2,), max_n=12)
        beta = geometry_connectivity(g).beta
        nullity = rational_nullity(laplacian_matrix(g))
        failures += 0 if beta == nullity else 1
    ok = failures == 0
    _line(7, ok, "beta equals the exact rational nullity of the Laplacian "
          "matrix on 100 ordinary graphs")
    assert ok


def test_acceptance_8_implicit_apply_matches_materialized_tensor():
    rng = random.Random(81)
    failures = 0
    for _ in range(100):
        g = random_hypergraph(rng, max_n=8, max_m=10)
        views = ((adjacency(g), adjacency_entries(g)), (laplacian(g), laplacian_entries(g)))
        for _ in range(10):
            x = [rng.uniform(-2.0, 2.0) for _ in range(g.n)]
            for implicit, entries in views:
                got = apply(implicit, x)
                want = dense_apply(entries, g.n, x)
                scale = max(1.0, max(abs(w) for w in want))
                gap = max(abs(a - b) for a, b in zip(got, want)) / scale
                failures += 0 if gap <= 1e-12 else 1
    ok = failures == 0
    _line(8, ok, "implicit contraction matches materialized tensors within "
          "1e-12 relative max-norm (100 instances x 10 vectors)")
    assert ok


FIXTURES = {
    "single_edge.hg": "4 4 1\n1 2 3 4\n",
    "two_components.hg": "3 7 2\n1 2 3\n4 5 6\n",
    "edgeless.hg": "2 3 0\n",
    "cycle.hg": "2 4 4\n1 2\n2 3\n3 4\n1 4\n",
    "tight_cycle.hg": "3 5 5\n1 2 3\n2 3 4\n3 4 5\n4 5 1\n5 1 2\n",
}


def _cli(*argv: str) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, "-m", "geoconn.cli", *argv],
                          capture_output=True, text=True)


def test_acceptance_9_cli_goldens(tmp_path):
    paths = []
    for name, text in FIXTURES.items():
        path = tmp_path / name
        path.write_text(text)
        paths.append(path)
    check_ok = all(_cli("check", str(p)).returncode == 0 for p in paths)
    stable = True
    round_trips = True
    for path in paths:
        first = _cli("report", str(path))
        second = _cli("report", str(path))
        stable = stable and first.returncode == 0 and first.stdout == second.stdout
        document = json.loads(first.stdout)
        round_trips = (round_trips
                       and json.dumps(document, indent=2) + "\n" == first.stdout
                       and list(document) == ["schema_version", "input",
                                              "components", "beta", "beta_z",
                                              "beta_rho", "connected",
                                              "weakly_irreducible",
                                              "regular_degree", "certificates",
                                              "perron"])
    ok = check_ok and stable and round_trips
    _line(9, ok, "CLI check exits 0 on the fixture set; report output is "
          "byte-identical across runs and round-trips as JSON")
    assert check_ok
    assert stable
    assert round_trips

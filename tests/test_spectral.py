"""Eigenpair verification, Perron iteration and the connectivity reports."""

import math
import random
from dataclasses import replace
from fractions import Fraction

import pytest

import geoconn.spectral as spectral
from geoconn import (
    DimensionError,
    NoConvergence,
    NotIrreducible,
    NotRegular,
    PERRON_TOL,
    ZeroVector,
    adjacency,
    apply,
    connected_components,
    construct,
    degrees,
    geometry_connectivity,
    induced,
    laplacian,
    perron,
    rho_connectivity,
    shifted_laplacian,
    verify_h_eigenpair,
    verify_z_eigenpair,
    z_geometry_connectivity,
)
from geoconn.cli import EXIT_MISMATCH, run

from generators import (
    connected_hypergraph,
    hypertree,
    loose_path,
    random_hypergraph,
    regular_connected_hypergraph,
)
from oracles import (
    adjacency_entries,
    dense_apply,
    loose_path_spectral_radius,
    power_iteration,
    rational_nullity,
    shifted_laplacian_entries,
    spanning_forest_holds,
    union_find_components,
)

SINGLE_EDGE_4 = construct(4, 4, [(1, 2, 3, 4)])
# a loose 3-uniform 5-cycle with a pendant edge: connected, not a hypertree,
# since m*(k-1) = 12 and n-1 = 11
CYCLE_AND_PENDANT = construct(12, 3, [(1, 2, 3), (3, 4, 5), (5, 6, 7), (7, 8, 9),
                                      (1, 9, 10), (2, 11, 12)])
SIGNED = ((1, 1, 1, 1), (1, 1, -1, -1), (1, -1, 1, -1), (1, -1, -1, 1))


def padded(report) -> list[tuple]:
    """The component-local certificate vectors as length-n vectors, zero
    off their parts."""
    n = sum(map(len, report.decomposition.parts))
    vectors = []
    for cert, part in zip(report.certificates, report.decomposition.parts):
        full = [0] * n
        for v, entry in zip(part, cert.vector):
            full[v - 1] = entry
        vectors.append(tuple(full))
    return vectors


def test_verify_h_accepts_signed_null_vectors_exactly():
    lap = laplacian(SINGLE_EDGE_4)
    for x in SIGNED:
        cert = verify_h_eigenpair(lap, 0, x)
        assert cert.accepted
        assert cert.exact
        assert cert.residual == 0
        assert isinstance(cert.residual, Fraction)


def test_verify_h_residual_is_scale_normalized():
    lap = laplacian(SINGLE_EDGE_4)
    huge = tuple(10 ** 6 * v for v in SIGNED[1])
    cert = verify_h_eigenpair(lap, 0, huge)
    assert cert.residual == 0
    # a wrong eigenvalue is off by exactly |lambda| after normalization
    wrong = verify_h_eigenpair(lap, Fraction(1, 7), huge)
    assert not wrong.accepted
    assert wrong.residual == Fraction(1, 7)


def test_verify_h_rejects_near_miss():
    lap = laplacian(SINGLE_EDGE_4)
    cert = verify_h_eigenpair(lap, 0, (1, 1, 1, 1 + 10 ** -6))
    assert not cert.accepted
    assert not cert.exact


def test_verify_h_small_vectors_use_unit_scale_floor():
    # scale = max(1, ||x||_inf^{m-1}) so tiny vectors are not flattered
    lap = laplacian(construct(2, 2, [(1, 2)]))
    cert = verify_h_eigenpair(lap, 0, (Fraction(1, 10 ** 6), 0))
    assert cert.residual == Fraction(1, 10 ** 6)
    assert not cert.accepted


def test_verify_refuses_non_finite_numbers():
    lap = laplacian(construct(3, 2, [(1, 2), (2, 3)]))
    nan, inf = float("nan"), float("inf")
    for verify in (verify_h_eigenpair, verify_z_eigenpair):
        for eigenvalue, x in ((0, (1, nan, 1)), (0, (inf, 1, 1)), (nan, (1, 1, 1))):
            with pytest.raises(ValueError, match="not finite"):
                verify(lap, eigenvalue, x)
    # finite input whose check overflows: inf - inf is NaN, which rejects
    g = construct(4, 3, [(1, 2, 3), (2, 3, 4), (3, 4, 1), (4, 1, 2)])
    cert = verify_h_eigenpair(laplacian(g), 2, (1.3e154,) * 4)
    assert math.isnan(cert.residual) and not cert.accepted
    assert not verify_h_eigenpair(laplacian(g), 2, (1,) * 4).accepted
    # a float power or product that overflows rejects the same way
    edge = laplacian(construct(3, 3, [(1, 2, 3)]))
    for verify in (verify_h_eigenpair, verify_z_eigenpair):
        for eigenvalue, x in ((0, (1e200, 1, 1)), (0.5, (10 ** 400, 1, 1))):
            cert = verify(edge, eigenvalue, x)
            assert math.isnan(cert.residual) and not cert.accepted


def test_verify_z_unit_indicator_is_exact_on_squares():
    g = construct(4, 2, [(1, 2), (2, 3), (3, 4), (1, 4), (1, 3)])
    cert = verify_z_eigenpair(laplacian(g), 0, (Fraction(1, 2),) * 4)
    assert cert.accepted
    assert cert.exact
    assert cert.residual == 0


def test_verify_z_checks_normalization():
    g = construct(4, 2, [(1, 2), (2, 3), (3, 4), (1, 4)])
    cert = verify_z_eigenpair(laplacian(g), 0, (1, 1, 1, 1))
    assert not cert.accepted
    assert cert.residual == 3  # |x'x - 1|


def test_verify_z_adjacency_frozen_example():
    # single edge, k=3: x = 1/sqrt(3) on the edge gives A x^2 = (1/3)e
    g = construct(3, 3, [(1, 2, 3)])
    entry = 1.0 / math.sqrt(3.0)
    cert = verify_z_eigenpair(adjacency(g), entry, (entry,) * 3)
    assert cert.accepted
    assert not cert.exact
    assert cert.residual <= 1e-15


def test_verify_rejects_degenerate_vectors():
    lap = laplacian(SINGLE_EDGE_4)
    with pytest.raises(ZeroVector):
        verify_h_eigenpair(lap, 0, (0, 0, 0, 0))
    with pytest.raises(DimensionError):
        verify_h_eigenpair(lap, 0, (1, 1))
    with pytest.raises(ZeroVector):
        verify_z_eigenpair(lap, 0, (0, 0, 0, 0))


def test_exactness_flag_follows_inputs():
    lap = laplacian(SINGLE_EDGE_4)
    assert verify_h_eigenpair(lap, 0, (1, 1, 1, 1)).exact
    assert verify_h_eigenpair(lap, Fraction(1, 3), (1, 1, 1, 1)).exact
    assert not verify_h_eigenpair(lap, 0.0, (1, 1, 1, 1)).exact
    assert not verify_h_eigenpair(lap, 0, (1.0, 1, 1, 1)).exact


def test_perron_single_edge_adjacency():
    result = perron(adjacency(SINGLE_EDGE_4))
    assert abs(result.rho - 1.0) <= 1e-9
    assert result.vector == (1.0, 1.0, 1.0, 1.0)
    assert result.iterations == 1


def test_perron_cycle_and_complete_graph():
    cycle = construct(5, 2, [(1, 2), (2, 3), (3, 4), (4, 5), (1, 5)])
    assert abs(perron(adjacency(cycle)).rho - 2.0) <= 1e-9
    k4 = construct(4, 2, [(1, 2), (1, 3), (1, 4), (2, 3), (2, 4), (3, 4)])
    assert abs(perron(adjacency(k4)).rho - 3.0) <= 1e-9


def test_perron_path_graph_known_radius():
    p3 = construct(3, 2, [(1, 2), (2, 3)])
    result = perron(adjacency(p3))
    assert abs(result.rho - math.sqrt(2.0)) <= 1e-8
    assert all(v > 0 for v in result.vector)
    assert max(result.vector) == 1.0


def test_perron_pair_passes_verification():
    rng = random.Random(111)
    for _ in range(25):
        g = connected_hypergraph(rng, max_n=8)
        result = perron(shifted_laplacian(g))
        cert = verify_h_eigenpair(shifted_laplacian(g), result.rho,
                                  result.vector, tol=1e-9)
        assert cert.accepted
        assert all(v > 0 for v in result.vector)


def test_perron_explicit_permutation_matrix():
    # the adjacency matrix of one edge is the swap [[0, 1], [1, 0]]
    swap = adjacency(construct(2, 2, [(1, 2)]))
    result = perron(swap)
    assert abs(result.rho - 1.0) <= 1e-9
    assert result.vector == (1.0, 1.0)


def test_perron_requires_weak_irreducibility():
    g = construct(6, 3, [(1, 2, 3), (4, 5, 6)])
    with pytest.raises(NotIrreducible):
        perron(adjacency(g))


def test_perron_reports_bracket_on_iteration_cap(monkeypatch):
    p3 = construct(3, 2, [(1, 2), (2, 3)])
    with pytest.raises(NoConvergence) as err:
        perron(adjacency(p3), max_iter=1)
    assert err.value.iterations == 1
    assert err.value.lower <= math.sqrt(2.0) <= err.value.upper
    # tol 0 runs on past the float fixed point, where the residuals stop
    # changing and the mixing history has a zero Gram matrix
    with pytest.raises(NoConvergence) as err:
        perron(adjacency(loose_path(5, 4)), tol=0.0, max_iter=2000)
    assert err.value.iterations == 2000
    assert err.value.upper - err.value.lower <= 1e-12
    assert err.value.lower - 1e-12 <= loose_path_spectral_radius(5, 4) <= err.value.upper + 1e-12
    # the loose path is a hypertree, whose Newton-Noda solve does not break
    # down there, so Anderson mixing and its zero Gram matrix are reached
    # on a hypergraph with a cycle
    zero_grams = []

    def ridge_spy(gram, rhs):
        zero_grams.append(max(gram[i][i] for i in range(len(rhs))) == 0.0)
        return ridge_solve(gram, rhs)

    ridge_solve = spectral._ridge_solve
    monkeypatch.setattr(spectral, "_ridge_solve", ridge_spy)
    with pytest.raises(NoConvergence) as err:
        perron(adjacency(CYCLE_AND_PENDANT), tol=0.0, max_iter=2000)
    assert err.value.iterations == 2000
    assert err.value.upper - err.value.lower <= 1e-12
    rho = power_iteration(adjacency_entries(CYCLE_AND_PENDANT), 3, 12)
    assert err.value.lower - 1e-12 <= rho <= err.value.upper + 1e-12
    assert any(zero_grams)


def test_perron_refuses_a_converged_pair_that_fails_verification(monkeypatch, tmp_path,
                                                                  capsys):
    # the 10*tol check of the converged pair is a certificate too: once it
    # rejects, perron raises with the final bracket instead of returning
    g = loose_path(5)
    result = perron(adjacency(g))
    verify = spectral.verify_h_eigenpair

    def rejected(view, eigenvalue, x, tol):
        return replace(verify(view, eigenvalue, x, tol), residual=0.5, accepted=False)

    monkeypatch.setattr(spectral, "verify_h_eigenpair", rejected)
    with pytest.raises(NoConvergence, match=r"failed verification \(residual 0\.5\)") as err:
        perron(adjacency(g))
    assert err.value.iterations == result.iterations
    assert err.value.lower <= result.rho <= err.value.upper
    assert 0 <= err.value.upper - err.value.lower < PERRON_TOL
    path = tmp_path / "g.hg"
    path.write_text("3 11 5\n" + "".join(f"{u} {u + 1} {u + 2}\n" for u in range(1, 11, 2)))
    assert run(["perron", str(path)]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("geoconn: error: converged ratios failed verification")
    assert captured.err.count("\n") == 1


@pytest.mark.parametrize("length, k",
                         [(5, 3), (20, 3), (80, 3), (160, 3), (99, 2), (4, 120)])
def test_perron_loose_path_closed_form(length, k):
    # far from the all-ones start; the plain iteration needs over 10000
    # steps at 160 edges, the k = 2 path on 100 vertices is bipartite, and
    # k = 120 needs iterates of mean 1: entries near 1/n underflow in x^{k-1}
    result = perron(adjacency(loose_path(length, k)), tol=1e-9)
    assert abs(result.rho - loose_path_spectral_radius(length, k)) <= 1e-9
    assert all(v > 0 for v in result.vector)
    assert max(result.vector) == 1.0


@pytest.mark.parametrize("length", [5, 20, 80, 160, 960])
def test_perron_newton_noda_on_loose_paths(length):
    # a loose path is a hypertree: Newton-Noda steps, whose count does not
    # grow with the length, where Anderson mixing needed about 2.2 per edge
    result = perron(adjacency(loose_path(length)))
    assert abs(result.rho - loose_path_spectral_radius(length)) <= 1e-9
    assert result.iterations <= 20


def test_perron_converges_on_a_7000_edge_loose_path():
    # Anderson mixing spent all 10000 steps here and raised NoConvergence
    # even at a cap of 50
    result = perron(adjacency(loose_path(7000)), tol=1e-9, max_iter=50)
    assert abs(result.rho - loose_path_spectral_radius(7000)) <= 1e-9
    assert all(v > 0 for v in result.vector) and max(result.vector) == 1.0


def test_perron_vector_leaving_the_float_range_stops_with_the_last_bracket(tmp_path, capsys):
    # a star of 400 leaves with a 300-vertex path hung from its centre: the
    # Perron vector falls by about 20 per step along the path, below the
    # smallest float, where the bracket used to divide by zero (exit 1)
    edges = [(1, v) for v in range(2, 402)] + [(1, 402)] + [(v, v + 1) for v in range(402, 701)]
    with pytest.raises(NoConvergence, match="leaves the float range") as err:
        perron(adjacency(construct(701, 2, edges)))
    assert err.value.lower <= 20.0 <= err.value.upper  # rho > sqrt(400)
    assert math.isfinite(err.value.upper) and err.value.iterations > 0
    path = tmp_path / "g.hg"
    path.write_text("2 701 700\n" + "".join(f"{u} {v}\n" for u, v in edges))
    assert run(["perron", str(path)]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("geoconn: error: the Perron vector leaves the float range")
    assert captured.err.count("\n") == 1


@pytest.mark.parametrize("m", [90, 120])
def test_perron_leaves_stagnated_mixing(tmp_path, capsys, m):
    # a loose path with a chord is not a hypertree; Anderson mixing stalled
    # here and spent all 10000 steps with the bracket still 0.5 and 0.3 wide
    n = 2 * m + 1
    edges = [(2 * j + 1, 2 * j + 2, 2 * j + 3) for j in range(m)] + [(2, n // 2, n - 1)]
    path = tmp_path / "g.hg"
    path.write_text(f"3 {n} {m + 1}\n" + "".join(f"{a} {b} {c}\n" for a, b, c in edges))
    assert run(["perron", str(path)]) == 0
    rho, iterations = capsys.readouterr().out.splitlines()[:2]
    assert int(iterations.removeprefix("iterations: ")) < 2000
    oracle = power_iteration(adjacency_entries(construct(n, 3, edges)), 3, n, tol=1e-10)
    assert abs(float(rho.removeprefix("rho: ")) - oracle) <= 1e-8


def test_perron_on_random_hypertrees_matches_the_oracles():
    rng = random.Random(1606)
    for k in (2, 3, 4, 5):
        for shape in ("random", "star", "caterpillar"):
            for m in (rng.randint(2, 12 // k), rng.randint(40, 120)):
                g = hypertree(rng, k, m, shape)
                shift = max(degrees(g))
                for view, entries in (
                        (adjacency(g), lambda: adjacency_entries(g)),
                        (shifted_laplacian(g), lambda: shifted_laplacian_entries(g, shift))):
                    result = perron(view)
                    assert verify_h_eigenpair(view, result.rho, result.vector,
                                              10 * PERRON_TOL).accepted
                    assert all(v > 0 for v in result.vector)
                    assert max(result.vector) == 1.0
                    if g.n <= 12:
                        rho = power_iteration(entries(), k, g.n)
                        assert abs(result.rho - rho) <= 1e-8
    path = loose_path(399, 2)
    result = perron(adjacency(path))
    assert abs(result.rho - loose_path_spectral_radius(399, 2)) <= 1e-9
    assert result.iterations <= 20


def spy(monkeypatch, name, replacement=None):
    """Record the arguments of every call of ``geoconn.spectral.<name>``,
    which then runs ``replacement`` (default: itself)."""
    calls = []
    target = replacement or getattr(spectral, name)

    def recorded(*args):
        calls.append(args)
        return target(*args)

    monkeypatch.setattr(spectral, name, recorded)
    return calls


def test_newton_noda_step_runs_on_open_brackets_of_hypertrees_only(monkeypatch):
    steps = spy(monkeypatch, "_newton_noda_step")
    builds = spy(monkeypatch, "_hypertree_blocks")
    rng = random.Random(1607)
    graphs = [CYCLE_AND_PENDANT]
    while len(graphs) < 30:
        g = connected_hypergraph(rng, k_choices=(2, 3, 4, 5), max_n=14)
        if g.m * (g.k - 1) != g.n - 1:
            graphs.append(g)
    for g in graphs:
        perron(adjacency(g))
    # fixed points: a regular adjacency tensor, a shifted Laplacian
    for _ in range(10):
        regular, _ = regular_connected_hypergraph(rng)
        assert perron(adjacency(regular)).iterations == 1
        tree = hypertree(rng, rng.choice((2, 3, 4)), rng.randint(1, 30))
        assert perron(shifted_laplacian(tree)).iterations == 1
    assert steps == builds == []
    result = perron(adjacency(loose_path(20)))
    assert len(steps) == result.iterations - 1 and len(builds) == 1


def test_newton_noda_breakdown_falls_back_to_anderson(monkeypatch):
    step = spectral._newton_noda_step

    def fail_first(*args):
        return None if len(steps) == 1 else step(*args)

    steps = spy(monkeypatch, "_newton_noda_step", fail_first)
    mixes = spy(monkeypatch, "_ridge_solve")
    result = perron(adjacency(loose_path(20)), tol=1e-9)
    assert len(steps) == 1 and mixes
    assert abs(result.rho - loose_path_spectral_radius(20)) <= 1e-9


def test_perron_matches_plain_power_iteration_oracle():
    oracle_rho = power_iteration(adjacency_entries(loose_path(5)), 3, 11)
    assert abs(oracle_rho - loose_path_spectral_radius(5)) <= 1e-10
    rng = random.Random(303)
    checked = 0
    while checked < 30:
        g = connected_hypergraph(rng, max_n=12)
        degree = [0] * (g.n + 1)
        for edge in g.edges:
            for v in edge:
                degree[v] += 1
        if len(set(degree[1:])) == 1:
            continue  # the all-ones start is the fixed point of a regular input
        entries = adjacency_entries(g)
        rho = power_iteration(entries, g.k, g.n)
        result = perron(adjacency(g))
        assert result.iterations > 1
        assert abs(result.rho - rho) <= 1e-8
        assert all(v > 0 for v in result.vector) and max(result.vector) == 1.0
        y = dense_apply(entries, g.n, result.vector)
        residual = max(abs(yi - result.rho * xi ** (g.k - 1))
                       for yi, xi in zip(y, result.vector))
        assert residual <= 10 * PERRON_TOL
        checked += 1


def test_perron_evaluates_positive_iterates_only(monkeypatch):
    # the bracket holds at positive vectors only; on this graph the mixed
    # step has an entry <= 0 twice, and perron takes the plain step instead
    g = construct(11, 2, [(1, 4), (1, 5), (2, 6), (2, 9), (2, 10), (2, 11), (3, 5),
                          (3, 8), (4, 7), (6, 7), (7, 9), (9, 11), (10, 11)])
    smallest = []

    def spy(view, x):
        smallest.append(min(x))
        return apply(view, x)

    monkeypatch.setattr("geoconn.spectral.apply", spy)
    result = perron(adjacency(g))
    assert min(smallest) > 0
    rho = power_iteration(adjacency_entries(g), g.k, g.n)
    assert abs(result.rho - rho) <= 1e-8


def test_geometry_connectivity_single_edge():
    report = geometry_connectivity(SINGLE_EDGE_4)
    assert report.beta == 1
    assert report.component_count == 1
    assert report.beta_z == 1
    assert report.beta_rho == 1
    assert report.weakly_irreducible
    assert report.regular_degree == 1
    cert = report.certificates[0]
    assert cert.vector == (1, 1, 1, 1)
    assert cert.variant == "H"
    assert cert.residual == 0 and cert.exact


def test_geometry_connectivity_counts_and_certifies():
    rng = random.Random(222)
    for _ in range(150):
        g = random_hypergraph(rng)
        report = geometry_connectivity(g)
        assert report.beta == union_find_components(g)
        assert len(report.certificates) == report.beta
        for part, cert in zip(report.decomposition.parts, report.certificates):
            assert cert.accepted and cert.exact and cert.residual == 0
            assert sum(cert.vector) == len(part)
        # each vector is local to its part, whatever the number of parts
        sizes = [len(part) for part in report.decomposition.parts]
        for certificates in filter(None, (report.certificates, report.z_certificates,
                                          report.rho_certificates)):
            assert [len(cert.vector) for cert in certificates] == sizes
        assert report.beta_rho == (report.beta if report.regular_degree is not None
                                   else None)


def test_geometry_connectivity_singletons_are_trivial():
    g = construct(5, 3, [(1, 2, 3)])
    report = geometry_connectivity(g)
    assert report.beta == report.beta_z == 3
    assert padded(report) == [(1, 1, 1, 0, 0), (0, 0, 0, 1, 0), (0, 0, 0, 0, 1)]
    for cert in report.certificates[1:] + report.z_certificates[1:]:
        assert cert.exact and cert.residual == 0


def test_restriction_to_a_component_keeps_the_residual():
    # the per-component certificates rest on this: a vector supported on a
    # component has the same residual against the component's Laplacian
    rng = random.Random(707)
    for _ in range(60):
        g = random_hypergraph(rng, max_n=9, max_m=10)
        part = rng.choice(connected_components(g).parts)
        sub, _ = induced(g, part)
        restricted = [Fraction(rng.randint(-6, 6), rng.randint(1, 4)) for _ in part]
        restricted[0] = restricted[0] or 1
        full = [0] * g.n
        for v, entry in zip(part, restricted):
            full[v - 1] = entry
        lam = Fraction(rng.randint(-3, 3), rng.randint(1, 3))
        whole = verify_h_eigenpair(laplacian(g), lam, full)
        alone = verify_h_eigenpair(laplacian(sub), lam, restricted)
        assert whole.exact and alone.exact
        assert whole.residual == alone.residual


def test_rejected_certificate_lowers_beta_and_fails_check(monkeypatch, tmp_path, capsys):
    # one corrupted entry of the contraction rejects exactly the certificates
    # of the part holding that vertex, in every set
    corrupted = []

    def perturbed(view, x):
        out = apply(view, x)
        out[corrupted[0] - 1] += 1
        return out

    two_edges = construct(7, 3, [(1, 2, 3), (4, 5, 6)])
    triangles = construct(6, 2, [(1, 2), (2, 3), (1, 3), (4, 5), (5, 6), (4, 6)])
    monkeypatch.setattr("geoconn.spectral.apply", perturbed)
    for g, vertex in ((two_edges, 1), (two_edges, 5), (two_edges, 7),
                      (triangles, 1), (triangles, 6)):
        corrupted[:] = [vertex]
        report = geometry_connectivity(g)
        r = report.component_count
        assert report.beta == report.beta_z == r - 1
        assert report.beta_rho == (r - 1 if g is triangles else None)
        hit = next(i for i, part in enumerate(report.decomposition.parts) if vertex in part)
        for certificates in filter(None, (report.certificates, report.z_certificates,
                                          report.rho_certificates)):
            assert [c.accepted for c in certificates] == [i != hit for i in range(r)]
    corrupted[:] = [1]
    path = tmp_path / "g.hg"
    path.write_text("3 7 2\n1 2 3\n4 5 6\n")
    assert run(["check", str(path)]) == EXIT_MISMATCH
    assert "MISMATCH: beta equals component count" in capsys.readouterr().out.splitlines()


def test_edge_leaving_its_part_is_refused(monkeypatch):
    # vertex 2 forged as a start splits edge 0 between two runs
    g = construct(4, 3, [(1, 2, 3)])
    cut = replace(connected_components(g), reached_by=(-1, -1, 0, -1))
    monkeypatch.setattr("geoconn.spectral.connected_components", lambda _: cut)
    with pytest.raises(ValueError, match=r"edge 0 \[1, 2, 3\] leaves its component 1"):
        geometry_connectivity(g)


@pytest.mark.parametrize("field, value, message", [
    # two components merged into one run: vertex 4 said to be reached
    # through its own edge, of which it is the first listed member
    ("reached_by", (-1, 0, 0, 1, 1, 1), "edge 1 reaches vertex 4 from no earlier vertex"),
    # vertex 5 said to be reached through the edge 1 2 3
    ("reached_by", (-1, 0, 0, -1, 0, 1), "vertex 5 is not in edge 0"),
    # an extra start on vertex 6 splits the second component
    ("reached_by", (-1, 0, 0, -1, 1, -1), r"edge 1 \[4, 5, 6\] leaves its component 2"),
    # vertex 2 listed before any other member of the edge that reached it
    ("order", (2, 1, 3, 4, 5, 6), "edge 0 reaches vertex 2 from no earlier vertex"),
    ("order", (1, 2, 3, 4, 5), "the search order must list every vertex once"),
    ("order", (1, 2, 3, 4, 5, 5), "the search order must list every vertex once"),
    ("order", (1, 2, 3, 4, 5, 7), "the search order must list every vertex once"),
])
def test_broken_component_witness_is_refused(monkeypatch, tmp_path, field, value, message):
    g = construct(6, 3, [(1, 2, 3), (4, 5, 6)])
    witnessed = connected_components(g)
    assert witnessed.order == (1, 2, 3, 4, 5, 6)
    assert witnessed.reached_by == (-1, 0, 0, -1, 1, 1)
    broken = replace(witnessed, **{field: value})
    assert not spanning_forest_holds(g, broken.order, broken.reached_by)
    for module in ("spectral", "tensor", "cli"):
        monkeypatch.setattr(f"geoconn.{module}.connected_components", lambda _: broken)
    with pytest.raises(ValueError, match=message):
        geometry_connectivity(g)
    # the connectivity gate of perron checks the same witness
    with pytest.raises(ValueError, match=message):
        perron(adjacency(g))
    path = tmp_path / "g.hg"
    path.write_text("3 6 2\n1 2 3\n4 5 6\n")
    for argv in (["report"], ["beta"], ["beta", "--z"], ["check"], ["components"], ["perron"]):
        with pytest.raises(ValueError, match=message):
            run(argv + [str(path)])


def test_regular_degree_is_read_off_the_laplacian():
    # the analysis takes the common degree from the Laplacian's diagonal
    for g, degree in ((construct(4, 4, [(1, 2, 3, 4)]), 1),
                      (construct(4, 2, [(1, 2), (2, 3), (3, 4), (1, 4)]), 2),
                      (construct(3, 2, [(1, 2)]), None),
                      (construct(3, 2, [(2, 3)]), None),
                      (construct(3, 2, []), 0)):  # edgeless is 0-regular
        assert geometry_connectivity(g).regular_degree == degree


def test_z_connectivity_exact_on_perfect_square_components():
    g = construct(5, 2, [(1, 2), (2, 3), (3, 4), (1, 4)])  # sizes 4 and 1
    report = z_geometry_connectivity(g)
    assert report.beta_z == 2
    first, second = report.certificates
    assert first.exact and first.residual == 0
    assert second.exact
    assert padded(report) == [(Fraction(1, 2),) * 4 + (0,), (0, 0, 0, 0, 1)]


def test_z_connectivity_float_on_other_components():
    g = construct(3, 3, [(1, 2, 3)])
    report = z_geometry_connectivity(g)
    cert = report.certificates[0]
    assert not cert.exact
    assert cert.accepted
    assert cert.residual <= 1e-12
    assert abs(sum(v * v for v in cert.vector) - 1) <= 1e-15


def test_z_residual_is_the_exact_defect_of_the_printed_vector():
    # parts of 1 to 20 vertices: at tol 0 a Z certificate passes exactly when
    # its entry 1/sqrt(size) is rational, and an inexact residual is the norm
    # defect of the printed float entry, rounded once
    for k in (2, 3):
        sizes = [size for size in range(1, 21) if size == 1 or size >= k]
        edges, first = [], 1
        for size in sizes:
            edges += [tuple(range(v, v + k)) for v in range(first, first + size - k + 1)]
            first += size
        report = geometry_connectivity(construct(first - 1, k, edges), tol=0.0)
        assert [len(part) for part in report.decomposition.parts] == sizes
        squares = 0
        for part, cert in zip(report.decomposition.parts, report.z_certificates):
            square = math.isqrt(len(part)) ** 2 == len(part)
            squares += square
            assert cert.accepted == cert.exact == square
            defect = abs(len(part) * Fraction(cert.vector[0]) ** 2 - 1)
            if square:
                assert cert.residual == defect == 0
                assert isinstance(cert.residual, Fraction)
            else:
                assert isinstance(cert.residual, float)
                assert cert.residual == float(defect) > 0
        assert report.beta_z == squares
        assert report.beta == len(sizes)


def test_zero_residual_takes_no_power_of_the_z_entry(monkeypatch):
    # with h = 0 the term c^(k-1)*h is 0; its exact power alone took 0.35 s
    # on one edge of 100000 vertices and grows to 60-million-bit integers
    powers = []
    power = Fraction.__pow__

    def recorded(base, exponent, *rest):
        powers.append(exponent)
        return power(base, exponent, *rest)

    monkeypatch.setattr(Fraction, "__pow__", recorded)
    g = construct(13, 5, [(1, 2, 3, 4, 5), (5, 6, 7, 8, 9)])  # parts of 9, 1, 1, 1, 1
    report = geometry_connectivity(g, tol=0.0)
    assert powers == []
    assert [c.residual for c in report.z_certificates] == [0] * 5
    assert all(isinstance(c.residual, Fraction) for c in report.z_certificates)
    assert report.beta_z == report.beta == 5


def test_z_connectivity_agrees_with_beta():
    rng = random.Random(333)
    for _ in range(80):
        g = random_hypergraph(rng, max_n=9)
        report = z_geometry_connectivity(g)
        assert report.beta_z == report.beta == union_find_components(g)
        for cert in report.certificates:
            assert cert.variant == "Z"
            assert cert.accepted


def test_rho_connectivity_regular_cases():
    rng = random.Random(444)
    for _ in range(20):
        g, degree = regular_connected_hypergraph(rng)
        report = rho_connectivity(g)
        assert report.beta_rho == 1
        assert report.regular_degree == degree
        cert = report.certificates[0]
        assert cert.eigenvalue == degree
        assert cert.accepted and cert.exact and cert.residual == 0


def test_rho_connectivity_disconnected_regular():
    # two disjoint triangles: 2-regular, two components
    g = construct(6, 2, [(1, 2), (2, 3), (1, 3), (4, 5), (5, 6), (4, 6)])
    report = rho_connectivity(g)
    assert report.beta_rho == 2
    assert report.regular_degree == 2
    for cert in report.certificates:
        assert cert.eigenvalue == 2 and cert.residual == 0


def test_rho_certificates_restate_the_h_certificates(monkeypatch):
    # L = d*I - A: the rho set is the H set at eigenvalue d, so a defect in
    # the Laplacian contraction rejects both
    def perturbed(view, x):
        out = apply(view, x)
        if view.sign < 0:  # the Laplacian
            out[0] += 1
        return out

    rng = random.Random(445)
    inputs = [regular_connected_hypergraph(rng)[0] for _ in range(10)]
    inputs.append(construct(6, 2, [(1, 2), (2, 3), (1, 3), (4, 5), (5, 6), (4, 6)]))
    monkeypatch.setattr("geoconn.spectral.apply", perturbed)
    for g in inputs:
        report = geometry_connectivity(g)
        assert report.rho_certificates == tuple(
            replace(h, eigenvalue=report.regular_degree) for h in report.certificates)
        assert report.beta_rho == report.beta < report.component_count


def test_rho_connectivity_rejects_irregular():
    g = construct(3, 2, [(1, 2)])
    with pytest.raises(NotRegular):
        rho_connectivity(g)


def test_certificate_combinations_stay_null_vectors():
    # disjoint supports: any nonnegative combination of the indicator basis
    # is itself a 0-eigenvector
    rng = random.Random(555)
    for _ in range(40):
        g = random_hypergraph(rng, max_n=9)
        report = geometry_connectivity(g)
        coefficients = [rng.randint(0, 5) for _ in report.certificates]
        if not any(coefficients):
            coefficients[0] = 1
        combined = [0] * g.n
        for c, vector in zip(coefficients, padded(report)):
            combined = [acc + c * v for acc, v in zip(combined, vector)]
        check = verify_h_eigenpair(laplacian(g), 0, combined)
        assert check.accepted and check.residual == 0


def test_certificate_scaling_preserves_acceptance():
    g = construct(5, 3, [(1, 2, 3)])
    lap = laplacian(g)
    for vector in padded(geometry_connectivity(g)):
        for scale in (Fraction(1, 7), 3, 10 ** 9):
            scaled = tuple(scale * v for v in vector)
            again = verify_h_eigenpair(lap, 0, scaled)
            assert again.accepted and again.residual == 0


def test_beta_is_invariant_under_relabeling():
    rng = random.Random(666)
    for _ in range(30):
        g = random_hypergraph(rng, max_n=9)
        perm = list(range(1, g.n + 1))
        rng.shuffle(perm)
        relabeled = construct(g.n, g.k,
                              [tuple(perm[v - 1] for v in e) for e in g.edges])
        base = geometry_connectivity(g)
        moved = geometry_connectivity(relabeled)
        assert moved.beta == base.beta
        # certificate entries permute with the vertices
        base_supports = {frozenset(perm[v - 1] for v, entry
                                   in zip(range(1, g.n + 1), vector)
                                   if entry)
                         for vector in padded(base)}
        moved_supports = {frozenset(v for v, entry
                                    in zip(range(1, g.n + 1), vector)
                                    if entry)
                          for vector in padded(moved)}
        assert base_supports == moved_supports


def test_signed_demo_single_edge_fixture():
    # four linearly independent signed null vectors, yet beta is 1
    lap = laplacian(SINGLE_EDGE_4)
    for x in SIGNED:
        cert = verify_h_eigenpair(lap, 0, x)
        assert cert.accepted and cert.exact and cert.residual == 0
    assert rational_nullity([[Fraction(v) for v in x] for x in SIGNED]) == 0
    assert geometry_connectivity(SINGLE_EDGE_4).beta == 1


def test_signed_demo_extra_candidate_rejected_with_unit_residual():
    cert = verify_h_eigenpair(laplacian(SINGLE_EDGE_4), 0, (1, 0, 0, 0))
    assert not cert.accepted
    assert cert.residual == 1


def test_signed_demo_rejects_non_null_candidates():
    # complete graph K4: only the constant pattern is a null vector
    k4 = construct(4, 2, [(1, 2), (1, 3), (1, 4), (2, 3), (2, 4), (3, 4)])
    accepted = [verify_h_eigenpair(laplacian(k4), 0, x).accepted for x in SIGNED]
    assert accepted == [True, False, False, False]
    assert geometry_connectivity(k4).beta == 1


def test_signed_demo_needs_candidates_when_n_is_not_4():
    g = construct(3, 3, [(1, 2, 3)])
    with pytest.raises(DimensionError):
        verify_h_eigenpair(laplacian(g), 0, SIGNED[1])
    assert verify_h_eigenpair(laplacian(g), 0, (1, 1, 1)).accepted
    assert not verify_h_eigenpair(laplacian(g), 0, (1, -1, 0)).accepted

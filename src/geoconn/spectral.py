"""Eigenpair verification, Perron iteration and connectivity certificates.

Two eigenpair notions are handled for an order-m tensor T:

    H:  T x^{m-1} = lambda * x^{[m-1]}        (x^{[p]} = entrywise p-th power)
    Z:  T x^{m-1} = lambda * x  and  x'x = 1

``geometry_connectivity`` certifies that the number of connected components
of a k-uniform hypergraph equals the maximum number of linearly independent
nonnegative null eigenvectors of its Laplacian tensor.
``perron`` is a standalone solver for the spectral radius.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from fractions import Fraction
from itertools import groupby
from math import inf, isfinite, isqrt, nan, sqrt
from typing import Sequence

from .errors import DimensionError, NoConvergence, NotIrreducible, NotRegular, ZeroVector
from .hypergraph import ComponentDecomposition, Hypergraph, check_components, connected_components
from .tensor import (HypergraphView, Number, _require_nonnegative, apply, is_exact_scalar,
                     laplacian)

DEFAULT_TOL = 1e-9
PERRON_TOL = 1e-10
MAX_ITER = 10000

# Anderson mixing in perron: the number of past steps it combines, and the
# ridge of its least-squares solve relative to the largest Gram entry
_DEPTH = 8
_RIDGE = 1e-12

VARIANT_H = "H"
VARIANT_Z = "Z"


@dataclass(frozen=True)
class EigenpairCertificate:
    """A checked eigenpair candidate.

    ``residual`` is the scale-normalized max-norm defect (exact definition
    depends on the variant, see the verify functions); it is exactly 0 when
    a true eigenpair is checked in exact arithmetic. ``exact`` records
    whether integer/rational arithmetic was used throughout. ``accepted``
    is ``residual <= tol`` at the tolerance of the check, decided once when
    the certificate is made, with the residual unrounded.
    """

    eigenvalue: Number
    vector: tuple[Number, ...]
    variant: str
    residual: Number
    exact: bool
    accepted: bool


@dataclass(frozen=True)
class PerronResult:
    """Certified output of ``perron``.

    ``rho`` is the midpoint of the last Collatz-Wielandt bracket, narrower
    than ``tolerance``, and ``vector`` the positive iterate it was taken at,
    scaled to maximum 1; the pair passed verify_h_eigenpair at 10 times
    ``tolerance``. ``iterations`` counts the brackets evaluated, one tensor
    application each, whether the steps between them were Newton-Noda or
    Anderson steps: 1 when the all-ones start is already the fixed point.
    """

    rho: float
    vector: tuple[float, ...]
    iterations: int
    tolerance: float


@dataclass(frozen=True)
class ConnectivityReport:
    """Everything the connectivity analysis certifies about one hypergraph.

    Each certificate set holds one eigenpair per component, in component
    order: the vector of the c-th certificate has one entry per vertex of
    ``decomposition.parts[c]``, in that order, and vanishes on every other
    vertex. ``certificates`` holds the indicators as H-eigenvectors of the
    Laplacian at 0, ``z_certificates`` the unit-norm indicators as
    Z-eigenvectors at 0, and ``rho_certificates`` (regular input only,
    otherwise None) the indicators as H-eigenvectors of the adjacency
    tensor at the degree d. ``beta``, ``beta_z`` and ``beta_rho`` count
    the accepted certificates of each set. The report takes O(n + k*m)
    memory for any number of components; only output that pads every
    vector to length n is O(r*n).
    """

    component_count: int
    beta: int
    beta_z: int
    beta_rho: int | None
    certificates: tuple[EigenpairCertificate, ...]
    weakly_irreducible: bool
    regular_degree: int | None
    decomposition: ComponentDecomposition = field(repr=False)
    z_certificates: tuple[EigenpairCertificate, ...] = field(repr=False)
    rho_certificates: tuple[EigenpairCertificate, ...] | None = field(repr=False)


def _checked_vector(view: HypergraphView, eigenvalue: Number,
                    x: Sequence[Number]) -> tuple[Number, ...]:
    xs = tuple(x)
    if len(xs) != view.dim:
        raise DimensionError(f"vector has length {len(xs)}, tensor dimension is {view.dim}")
    if isinstance(eigenvalue, float) and not isfinite(eigenvalue):
        raise ValueError(f"eigenvalue is not finite: {eigenvalue!r}")
    for i, v in enumerate(xs, start=1):
        if isinstance(v, float) and not isfinite(v):
            raise ValueError(f"vector entry {i} is not finite: {v!r}")
    if all(v == 0 for v in xs):
        raise ZeroVector("candidate eigenvector must be nonzero")
    return xs


def _verify(view: HypergraphView, eigenvalue: Number, x: Sequence[Number],
            tol: float, variant: str) -> EigenpairCertificate:
    """The check behind ``verify_h_eigenpair`` and ``verify_z_eigenpair``:
    one contraction y = T x^{m-1} and one max-norm defect of y - lambda*x^{[p]}
    that keeps NaN, with p = m-1 for H and 1 for Z; only the normalization
    differs (see the two docstrings). A float OverflowError anywhere in the
    check gives a NaN residual, so the certificate is rejected."""
    xs = _checked_vector(view, eigenvalue, x)
    # every view's diagonal is an integer, so exactness rests on lambda and x
    exact = is_exact_scalar(eigenvalue) and all(map(is_exact_scalar, xs))
    power = view.order - 1 if variant == VARIANT_H else 1
    try:
        defect: Number = 0
        for yi, xi in zip(apply(view, xs), xs):
            d = abs(yi - eigenvalue * (xi ** power))
            if d > defect or d != d:  # float overflow gives NaN, which must reject
                defect = d
        if variant == VARIANT_H:
            scale = max(max(abs(xi) for xi in xs) ** power, 1)
            residual = Fraction(defect, scale) if exact else defect / scale
        else:
            residual = max(defect, abs(sum(xi * xi for xi in xs) - 1))
            if exact:
                residual = Fraction(residual)
    except OverflowError:
        residual = nan
    return EigenpairCertificate(eigenvalue, xs, variant, residual, exact,
                                residual <= tol)


def verify_h_eigenpair(view: HypergraphView, eigenvalue: Number, x: Sequence[Number],
                       tol: float = DEFAULT_TOL) -> EigenpairCertificate:
    """Check T x^{m-1} = lambda * x^{[m-1]}.

    residual = ||T x^{m-1} - lambda * x^{[m-1]}||_inf / max(1, ||x||_inf^{m-1}),
    kept as an exact rational when the eigenvalue and vector are exact.
    Raises ValueError when the eigenvalue or an entry is not finite; a
    float overflow inside the check gives a NaN residual, which rejects.
    """
    return _verify(view, eigenvalue, x, tol, VARIANT_H)


def verify_z_eigenpair(view: HypergraphView, eigenvalue: Number, x: Sequence[Number],
                       tol: float = DEFAULT_TOL) -> EigenpairCertificate:
    """Check T x^{m-1} = lambda * x together with the normalization x'x = 1.

    residual = max(||T x^{m-1} - lambda * x||_inf, |x'x - 1|), with the
    same finiteness rules as ``verify_h_eigenpair``.
    """
    return _verify(view, eigenvalue, x, tol, VARIANT_Z)


def _dot(u: Sequence[float], v: Sequence[float]) -> float:
    return sum([a * b for a, b in zip(u, v)])


def _ridge_solve(gram: list[list[float]], rhs: list[float]) -> list[float]:
    """Solve (gram + ridge*I) c = rhs for a Gram matrix, ridge = _RIDGE
    times its largest diagonal entry, by elimination without pivoting (the
    ridged matrix is positive definite); all zeros for a zero matrix."""
    size = len(rhs)
    ridge = _RIDGE * max(gram[i][i] for i in range(size))
    if ridge == 0.0:
        return [0.0] * size
    a = [row + [b] for row, b in zip(gram, rhs)]
    for i in range(size):
        a[i][i] += ridge
    for col in range(size):
        pivot = a[col]
        for r in range(col + 1, size):
            factor = a[r][col] / pivot[col]
            a[r] = [u - factor * v for u, v in zip(a[r], pivot)]
    c = [0.0] * size
    for i in range(size - 1, -1, -1):
        c[i] = (a[i][size] - sum([a[i][j] * c[j] for j in range(i + 1, size)])) / a[i][i]
    return c


class _Anderson:
    """Anderson mixing (Walker and Ni, SIAM J. Numer. Anal. 49, 2011) for
    a fixed-point iteration x -> F(x) on positive vectors.

    With residuals g = F(x) - x, the history holds the last _DEPTH steps
    dg_j = g_{j+1} - g_j and df_j = F(x_{j+1}) - F(x_j). The next iterate
    is F(x) - sum_j c_j df_j, with c minimizing ||g - sum_j c_j dg_j|| by
    ridged least squares. The Gram matrix of the dg_j and the products
    dg_j . g are updated in O(_DEPTH * n) per step.
    """

    def __init__(self) -> None:
        self.last: tuple[list[float], list[float]] | None = None  # (g, F(x))
        self.dgs: list[list[float]] = []  # oldest first
        self.dfs: list[list[float]] = []
        self.gram: list[list[float]] = []  # gram[i][j] = dgs[i] . dgs[j]
        self.rhs: list[float] = []  # rhs[i] = dgs[i] . g of the last step

    def next_iterate(self, fx: list[float], g: list[float]) -> list[float]:
        """The mixed iterate when every entry is positive; otherwise the
        plain step fx, and the history is cleared."""
        if self.last is not None:
            self._push(fx, g)
        self.last = (g, fx)
        if not self.dgs:
            return fx
        mixed = fx
        for c, df in zip(_ridge_solve(self.gram, self.rhs), self.dfs):
            mixed = [m - c * d for m, d in zip(mixed, df)]
        if min(mixed) > 0.0:
            return mixed
        self.dgs, self.dfs, self.gram, self.rhs = [], [], [], []
        return fx

    def _push(self, fx: list[float], g: list[float]) -> None:
        last_g, last_f = self.last
        if len(self.dgs) == _DEPTH:
            del self.dgs[0], self.dfs[0], self.gram[0], self.rhs[0]
            for row in self.gram:
                del row[0]
        dg = [a - b for a, b in zip(g, last_g)]
        row = [_dot(d, dg) for d in self.dgs]
        # d . g = d . last_g + d . dg
        self.rhs = [r + v for r, v in zip(self.rhs, row)]
        self.rhs.append(_dot(dg, g))
        for entries, value in zip(self.gram, row):
            entries.append(value)
        row.append(_dot(dg, dg))
        self.gram.append(row)
        self.dgs.append(dg)
        self.dfs.append([a - b for a, b in zip(fx, last_f)])


def _hypertree_blocks(g: Hypergraph, search: ComponentDecomposition
                      ) -> tuple[int, list, list[list[int]]]:
    """The elimination structure of a connected Berge-acyclic hypergraph
    from its checked search, 0-based: the start, the edges in discovery
    order as (head, children), and their members as k columns, heads first.
    The children are the k-1 members the edge reached, the head the other."""
    blocks = []
    for j, reached in groupby(search.order[1:], key=lambda v: search.reached_by[v - 1]):
        children = tuple(v - 1 for v in reached)
        (head,) = {v - 1 for v in g.edges[j]}.difference(children)
        blocks.append((head, children))
    columns = [list(column) for column in zip(*((h, *kids) for h, kids in blocks))]
    return search.order[0] - 1, blocks, columns


def _newton_noda_step(tree: tuple[int, list, list[list[int]]], diagonal: Sequence[int],
                      x: list[float], xp: list[float], lam: float,
                      power: int) -> list[float] | None:
    """The Newton-Noda iterate after x > 0 on a hypertree, or None when the
    solve breaks down. ``tree`` is ``_hypertree_blocks`` of the hypergraph,
    ``xp`` is x^{[k-1]} and ``lam`` the upper Collatz-Wielandt bound of
    T + I at x.

    Solves (lam*diag(x^{[k-2]}) - M) w = x^{[k-1]}, M = (T + I) x^{k-2},
    whose diagonal is (c_i + 1)*x_i^{k-2} and whose entry for two members
    i != j of an edge e is alpha/(x_i*x_j), alpha = prod_{l in e} x_l/(k-1).
    Scaled by diag(x) on both sides, each edge's block is a diagonal minus
    alpha times the all-ones matrix, so eliminating each edge's children in
    reverse discovery order makes no fill, and Sherman-Morrison gives each
    Schur complement update in O(k). While the bracket is open the system
    is a nonsingular M-matrix, so w > 0. The next iterate is
    ((k-2)*x + s*w)/(k-1) with s = sum(x)/sum(w), which keeps the sum of x.
    """
    root, blocks, columns = tree
    alpha = [1.0 / power] * len(blocks)
    for column in columns:
        alpha = [a * x[v] for a, v in zip(alpha, column)]
    # the scaled system: diagonal d_i*x_i^2, right side b_i*x_i, unknowns w_i/x_i
    rhs = [v * xi for v, xi in zip(xp, x)]
    diag = [(lam - c - 1.0) * v for c, v in zip(diagonal, rhs)]
    pivots = x[:]
    factors = []
    try:
        for (head, children), a in zip(reversed(blocks), reversed(alpha)):
            s = t = 0.0
            for c in children:
                pivot = pivots[c] = diag[c] + a
                s += 1.0 / pivot
                t += rhs[c] / pivot
            pi = 1.0 - a * s
            if not pi > 0.0:
                return None
            diag[head] -= a * a * s / pi
            rhs[head] += a * t / pi
            factors.append((s, t, pi))
        if not diag[root] > 0.0:
            return None
        w = pivots  # w_i / x_i, each entry written after its pivot is read
        w[root] = rhs[root] / diag[root]
        for (head, children), a, (s, t, pi) in zip(blocks, alpha, reversed(factors)):
            beta = a * w[head]
            shift = beta + a * (t + beta * s) / pi
            for c in children:
                wc = w[c] = (rhs[c] + shift) / pivots[c]
                if not wc > 0.0:
                    return None
        w = [wi * xi for wi, xi in zip(w, x)]
        scale = sum(x) / sum(w)
    except ZeroDivisionError:
        return None
    if not scale > 0.0:
        return None
    return [((power - 1) * xi + scale * wi) / power for xi, wi in zip(x, w)]


def perron(view: HypergraphView, tol: float = PERRON_TOL,
           max_iter: int = MAX_ITER) -> PerronResult:
    """Spectral radius and positive eigenvector of a nonnegative weakly
    irreducible tensor by a power iteration on T + I (weak irreducibility
    alone does not make the plain iteration converge; the unit shift does).

    From the all-ones x each step computes z = (T + I) x^{m-1}, whose
    Collatz-Wielandt ratios z_i / x_i^{m-1} bracket the radius of T + I
    (Chang, Pearson and Zhang, Commun. Math. Sci. 6, 2008); the iteration
    stops once max - min < tol and returns the midpoint minus 1 with x
    sup-normalized, at iteration 1 on a fixed point. On a hypertree
    (connected with m*(k-1) = n-1) the next iterate is a Newton-Noda step
    (``_newton_noda_step``; Liu, Guo and Lin, Numer. Math. 137, 2017),
    whose step count does not grow with the path length. Elsewhere, and
    once that solve breaks down, it mixes the plain step F(x), the
    (m-1)-th root of z normalized to mean 1, with the last _DEPTH steps
    (``_Anderson``), and takes F(x) itself when the mix has an entry <= 0
    or while the mixing stagnates: once _DEPTH brackets in a row are no
    narrower than the narrowest seen, until one is.

    One checked search (``check_components``) is both the connectivity
    gate and a hypertree's elimination order. The returned pair passes
    verify_h_eigenpair at 10*tol, with a positive vector of maximum 1.
    Raises NotIrreducible when the hypergraph is not connected,
    NotNonnegative for a Laplacian view with an edge, ValueError when the
    search fails its check, and NoConvergence with the last bracket when
    max_iter is hit, the verification fails, or x^{[m-1]} underflows to 0
    (the Perron vector spans more than the float range).
    """
    _require_nonnegative(view)
    search = check_components(view.graph, connected_components(view.graph))
    if search.count != 1:
        raise NotIrreducible("power iteration requires a weakly irreducible tensor")
    power = view.order - 1
    root = 1.0 / power
    x = [1.0] * view.dim
    lower = upper = 0.0
    history = _Anderson()
    # a connected hypergraph is Berge-acyclic exactly when m*(k-1) = n-1
    hypertree = view.graph.m * power == view.dim - 1
    tree = None
    narrowest, stalled = inf, 0  # over the brackets of Anderson steps
    for iteration in range(1, max_iter + 1):
        xp = [xi ** power for xi in x]
        if min(xp) == 0.0:
            raise NoConvergence(
                f"the Perron vector leaves the float range after {iteration - 1} iterations "
                f"(spectral radius in [{lower - 1.0}, {upper - 1.0}])",
                lower - 1.0, upper - 1.0, iteration - 1)
        y = apply(view, x)
        z = [float(yi) + v for yi, v in zip(y, xp)]
        ratios = [zi / v for zi, v in zip(z, xp)]
        upper = max(ratios)
        lower = min(ratios)
        if upper - lower < tol:
            rho = (upper + lower) / 2.0 - 1.0
            top = max(x)
            vector = tuple(xi / top for xi in x)
            certificate = verify_h_eigenpair(view, rho, vector, 10.0 * tol)
            if not certificate.accepted:
                raise NoConvergence(
                    f"converged ratios failed verification (residual {certificate.residual})",
                    lower - 1.0, upper - 1.0, iteration)
            return PerronResult(rho, vector, iteration, tol)
        if hypertree:
            if tree is None:
                tree = _hypertree_blocks(view.graph, search)
            step = _newton_noda_step(tree, view.diagonal, x, xp, upper, power)
            if step is not None:
                x = step
                continue
            hypertree = False
        stalled = 0 if upper - lower < narrowest else stalled + 1
        narrowest = min(narrowest, upper - lower)
        scaled = [zi ** root for zi in z]
        mean = sum(scaled) / view.dim
        fx = [si / mean for si in scaled]
        mixed = history.next_iterate(fx, [fi - xi for fi, xi in zip(fx, x)])
        # the mixing has stagnated: plain steps until a bracket narrows
        x = fx if stalled >= _DEPTH else mixed
    raise NoConvergence(
        f"no convergence after {max_iter} iterations "
        f"(spectral radius in [{lower - 1.0}, {upper - 1.0}])",
        lower - 1.0, upper - 1.0, max_iter)


def _accepted(certificates: Sequence[EigenpairCertificate]) -> int:
    return sum(1 for c in certificates if c.accepted)


def _indicator_certificates(size: int, h: int, k: int, tol: float
                            ) -> tuple[EigenpairCertificate, EigenpairCertificate]:
    """The H certificate (0, 1) of a part of ``size`` vertices on which L*1
    has max-norm h, and the Z certificate (0, c*1) with c = 1/sqrt(size),
    a Fraction when size is a perfect square and a float otherwise.

    The H residual is h. L(c*1) = c^(k-1)*L*1, so the Z residual is the
    exact defect of the printed vector, max(c^(k-1)*h, |size*c^2 - 1|),
    rounded once to float when c is; both are accepted unrounded. At h = 0
    the power, millions of bits at large k, is not taken.
    """
    residual = Fraction(h)
    h_cert = EigenpairCertificate(0, (1,) * size, VARIANT_H, residual, True,
                                  residual <= tol)
    root = isqrt(size)
    exact = root * root == size
    entry: Number = Fraction(1, root) if exact else 1.0 / sqrt(size)
    c = Fraction(entry)
    defect = abs(size * c * c - 1)
    if h:
        defect = max(c ** (k - 1) * h, defect)
    z_cert = EigenpairCertificate(0, (entry,) * size, VARIANT_Z,
                                  defect if exact else float(defect), exact,
                                  defect <= tol)
    return h_cert, z_cert


def geometry_connectivity(g: Hypergraph, tol: float = DEFAULT_TOL) -> ConnectivityReport:
    """Compute beta(G), beta_Z(G) and, for a regular input, beta_rho(G),
    with certificates, in one O(n + k*m) pass.

    ``check_components`` first raises ValueError unless the runs of the
    search forest are the components. No edge leaves a part C, so (L*1_C)_i
    is (L*1)_i on C and 0 elsewhere: one exact contraction y = L*1 gives
    each indicator's H residual, max |y_i| over C, and from it the Z
    residual (``_indicator_certificates``). On a d-regular input A*1 - d*1
    = -L*1 restates them as adjacency eigenpairs at d. The betas count the
    accepted certificates, so a rejected one lowers them.

    Maximality is not computed; it rests on two theorems that hold for the
    checked parts. A weakly irreducible nonnegative tensor has a unique
    positive eigenvector up to scale (Friedland, Gaubert and Han, Linear
    Algebra Appl. 438, 2013), and the nonnegative null vectors of L are the
    nonnegative combinations of the component indicators (Hu and Qi,
    Discrete Appl. Math. 169, 2014).
    """
    decomposition = check_components(g, connected_components(g))
    view = laplacian(g)
    # the Laplacian's diagonal is the degree sequence
    degree = view.diagonal[0] if len(set(view.diagonal)) == 1 else None
    y = apply(view, [1] * g.n)
    keys = [(len(part), max(abs(y[v - 1]) for v in part)) for part in decomposition.parts]
    # parts of one size and one residual share their certificates, so the
    # Fraction arithmetic runs once per distinct pair, not once per part
    pairs = {key: _indicator_certificates(*key, g.k, tol) for key in set(keys)}
    h_certs = tuple(pairs[key][0] for key in keys)
    z_certs = tuple(pairs[key][1] for key in keys)
    rho_certs = None if degree is None else tuple(replace(h, eigenvalue=degree) for h in h_certs)
    return ConnectivityReport(
        component_count=decomposition.count,
        beta=_accepted(h_certs),
        beta_z=_accepted(z_certs),
        beta_rho=None if rho_certs is None else _accepted(rho_certs),
        certificates=h_certs,
        weakly_irreducible=decomposition.count == 1,  # see is_weakly_irreducible
        regular_degree=degree,
        decomposition=decomposition,
        z_certificates=z_certs,
        rho_certificates=rho_certs,
    )


def z_geometry_connectivity(g: Hypergraph, tol: float = DEFAULT_TOL) -> ConnectivityReport:
    """The geometry_connectivity report with the unit-norm Z certificates as
    ``certificates``. They stay exact whenever the component size is a
    perfect square."""
    report = geometry_connectivity(g, tol)
    return replace(report, certificates=report.z_certificates)


def rho_connectivity(g: Hypergraph, tol: float = DEFAULT_TOL) -> ConnectivityReport:
    """The geometry_connectivity report of a d-regular hypergraph with the
    adjacency certificates at d as ``certificates``, component-local like
    the others.

    For a d-regular hypergraph L = d*I - A, and the all-ones vector is a
    positive eigenvector of A at d, which forces the spectral radius to be
    d. Raises NotRegular otherwise.
    """
    report = geometry_connectivity(g, tol)
    if report.regular_degree is None:
        raise NotRegular("beta_rho is defined for regular hypergraphs only")
    return replace(report, certificates=report.rho_certificates)

"""Command line front end.

Hypergraph files are plain text: a header line ``k n m`` followed by m edge
lines of k vertex labels each, whitespace separated, 1-based labels, with
n at most ``MAX_VERTICES`` (1,000,000).  Blank lines and ``#`` comments
(full line or trailing) are ignored.  Vector files hold one number per
line, as an integer, a rational ``p/q`` or a finite decimal; integer and
rational entries keep the computation exact.  Files must be UTF-8.

Exit codes: 0 success, 1 analysis mismatch or rejected certificate,
2 malformed input, 3 iteration did not converge (``perron`` only).
"""

from __future__ import annotations

import argparse
import json
import sys
from fractions import Fraction
from math import inf, isfinite, nan
from typing import Iterator, Sequence, TextIO

from .errors import EdgeError, GeoconnError, IoError, NoConvergence, ParseError
from .hypergraph import Hypergraph, connected_components, construct, degrees
from .spectral import (
    DEFAULT_TOL,
    MAX_ITER,
    PERRON_TOL,
    ConnectivityReport,
    EigenpairCertificate,
    geometry_connectivity,
    perron,
    verify_h_eigenpair,
    verify_z_eigenpair,
)
from .tensor import Number, adjacency, laplacian, shifted_laplacian

EXIT_OK = 0
EXIT_MISMATCH = 1
EXIT_INPUT = 2
EXIT_NO_CONVERGENCE = 3

MAX_VERTICES = 1_000_000

TENSOR_VIEWS = {"adjacency": adjacency, "laplacian": laplacian,
                "laplacian-shifted": shifted_laplacian}


def _content_lines(text: str) -> Iterator[tuple[int, str]]:
    # yields (1-based line number, stripped content) for non-empty lines
    for number, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if line:
            yield number, line


def parse_hypergraph(text: str) -> Hypergraph:
    """Parse the ``k n m`` + edge-lines format. Raises ParseError with the
    offending 1-based line number, or the underlying edge validation error
    wrapped with its line."""
    lines = list(_content_lines(text))
    if not lines:
        raise ParseError("empty input, expected a 'k n m' header", line=None)
    header_line, header = lines[0]
    fields = header.split()
    if len(fields) != 3:
        raise ParseError(f"header must be 'k n m', got {header!r}", line=header_line)
    try:
        k, n, m = (int(f) for f in fields)
    except ValueError:
        raise ParseError(f"header must hold three integers, got {header!r}",
                         line=header_line) from None
    if k < 2:
        raise ParseError(f"uniformity k must be at least 2, got {k}", line=header_line)
    if n < 1:
        raise ParseError(f"vertex count n must be positive, got {n}", line=header_line)
    if n > MAX_VERTICES:
        raise ParseError(f"vertex count n must be at most {MAX_VERTICES}, got {n}",
                         line=header_line)
    if m < 0:
        raise ParseError(f"edge count m must be nonnegative, got {m}", line=header_line)
    body = lines[1:]
    if len(body) != m:
        raise ParseError(f"header promises {m} edges, file has {len(body)}",
                         line=header_line)
    edges = []
    for line_number, line in body:
        parts = line.split()
        try:
            edge = tuple(int(p) for p in parts)
        except ValueError:
            raise ParseError(f"edge line must hold integer labels, got {line!r}",
                             line=line_number) from None
        edges.append((line_number, edge))
    try:
        return construct(n, k, [edge for _, edge in edges])
    except EdgeError as exc:
        line_number = edges[exc.edge_index][0] if exc.edge_index is not None else None
        raise ParseError(str(exc), line=line_number) from exc


def parse_scalar(token: str) -> Number:
    """int, then ``p/q`` rational, then finite decimal float; nan, inf and
    decimals beyond the float range are refused."""
    try:
        return int(token)
    except ValueError:
        pass
    if "/" in token:
        try:
            return Fraction(token)
        except (ValueError, ZeroDivisionError):
            raise ParseError(f"bad rational {token!r}", line=None) from None
    try:
        value = float(token)
    except ValueError:
        raise ParseError(f"bad number {token!r}", line=None) from None
    if not isfinite(value):
        raise ParseError(f"number {token!r} is not finite", line=None)
    return value


def parse_vector(text: str) -> list[Number]:
    values: list[Number] = []
    for line_number, line in _content_lines(text):
        for token in line.split():
            try:
                values.append(parse_scalar(token))
            except ParseError as exc:
                raise ParseError(str(exc), line=line_number) from None
    if not values:
        raise ParseError("empty vector file", line=None)
    return values


def _load(path: str, parse):
    """parse() of the file's text, with ``path:line`` before a ParseError."""
    try:
        with open(path, "r", encoding="utf-8") as handle:
            text = handle.read()
    except OSError as exc:
        raise IoError(f"cannot read {path}: {exc}") from exc
    except UnicodeDecodeError as exc:
        raise ParseError(f"{path}: byte {exc.start} is not UTF-8", line=None) from None
    try:
        return parse(text)
    except ParseError as exc:
        location = f"{path}:{exc.line}" if exc.line is not None else path
        raise ParseError(f"{location}: {exc}", line=exc.line) from None


def _decimal(value: Number) -> str:
    """Serialize a real for JSON output: exact values verbatim, floats via
    repr (round-trips)."""
    if isinstance(value, Fraction):
        if value.denominator == 1:
            return str(value.numerator)
        return f"{value.numerator}/{value.denominator}"
    if isinstance(value, int):
        return str(value)
    return repr(value)


def _printed_vector(certificate: EigenpairCertificate, part: Sequence[int],
                    n: int) -> list[str]:
    """The certificate's vector, whose entries belong to the vertices of
    ``part`` in order, as n decimals with "0" on every other vertex."""
    entries = ["0"] * n
    for v, entry in zip(part, certificate.vector):
        entries[v - 1] = _decimal(entry)
    return entries


def _certificate_document(certificate: EigenpairCertificate, part: Sequence[int],
                          n: int) -> dict:
    return {
        "vector": _printed_vector(certificate, part, n),
        "lambda": _decimal(certificate.eigenvalue),
        "variant": certificate.variant,
        "residual": _decimal(certificate.residual),
        "exact": certificate.exact,
    }


def _perron_block(g: Hypergraph, certificate: EigenpairCertificate) -> dict | None:
    """The Perron pair of the shifted Laplacian s*I - L_G of a connected
    input with edges, s the maximum degree, restated from the H certificate
    (0, all-ones) of L_G; None when that certificate's residual is not 0.

    The pair is (s, all-ones): (s*I - L_G) 1 - s 1 = -L_G 1, so it has the
    certificate's exact residual, and a weakly irreducible nonnegative
    tensor has a unique positive eigenvector up to scale (Friedland, Gaubert
    and Han). ``perron`` stops at this pair after one step.
    """
    if certificate.residual != 0:
        return None
    return {
        "rho": _decimal(float(max(degrees(g)))),
        "vector": [_decimal(float(v)) for v in certificate.vector],
        "iterations": 1,
        "tolerance": _decimal(PERRON_TOL),
    }


def _report_document(g: Hypergraph, source: str, report: ConnectivityReport) -> dict:
    connected = report.component_count == 1
    parts = report.decomposition.parts
    return {
        "schema_version": "1",
        "input": {"k": g.k, "n": g.n, "m": g.m, "source": source},
        "components": [list(part) for part in parts],
        "beta": report.beta,
        "beta_z": report.beta_z,
        "beta_rho": report.beta_rho,
        "connected": connected,
        "weakly_irreducible": report.weakly_irreducible,
        "regular_degree": report.regular_degree,
        "certificates": [_certificate_document(c, part, g.n)
                         for c, part in zip(report.certificates, parts)],
        "perron": (_perron_block(g, report.certificates[0])
                   if connected and g.n > 1 else None),
    }


def _emit(text: str, out: str | None) -> None:
    if out is None:
        sys.stdout.write(text)
        if not text.endswith("\n"):
            sys.stdout.write("\n")
        return
    try:
        with open(out, "w", encoding="utf-8") as handle:
            handle.write(text)
            if not text.endswith("\n"):
                handle.write("\n")
    except OSError as exc:
        raise IoError(f"cannot write {out}: {exc}") from exc


def _union_find_count(g: Hypergraph) -> int:
    # independent of the BFS decomposition used everywhere else
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


def _cmd_components(args: argparse.Namespace) -> int:
    g = _load(args.hypergraph, parse_hypergraph)
    decomposition = connected_components(g)
    if args.format == "json":
        document = {
            "components": decomposition.count,
            "parts": [list(part) for part in decomposition.parts],
        }
        _emit(json.dumps(document, indent=2), args.out)
    else:
        lines = [f"components: {decomposition.count}"]
        for index, part in enumerate(decomposition.parts, start=1):
            lines.append(f"  {index}: {' '.join(map(str, part))}")
        _emit("\n".join(lines), args.out)
    return EXIT_OK


def _cmd_beta(args: argparse.Namespace) -> int:
    g = _load(args.hypergraph, parse_hypergraph)
    report = geometry_connectivity(g, tol=args.tol)
    if args.z:
        label, value, certificates = "beta_z", report.beta_z, report.z_certificates
    else:
        label, value, certificates = "beta", report.beta, report.certificates
    parts = report.decomposition.parts
    if args.format == "json":
        document = {
            label: value,
            "certificates": [_certificate_document(c, part, g.n)
                             for c, part in zip(certificates, parts)],
        }
        _emit(json.dumps(document, indent=2), args.out)
    else:
        lines = [f"{label} = {value}"]
        for number, (cert, part) in enumerate(zip(certificates, parts), start=1):
            entries = ", ".join(_printed_vector(cert, part, g.n))
            suffix = " (exact)" if cert.exact else ""
            lines.append(f"certificate {number}: ({entries}) "
                         f"residual {_decimal(cert.residual)}{suffix}")
        _emit("\n".join(lines), args.out)
    return EXIT_OK if all(c.accepted for c in certificates) else EXIT_MISMATCH


def _cmd_perron(args: argparse.Namespace) -> int:
    g = _load(args.hypergraph, parse_hypergraph)
    result = perron(TENSOR_VIEWS[args.tensor](g), tol=args.tol, max_iter=args.max_iter)
    if args.format == "json":
        document = {
            "rho": _decimal(result.rho),
            "vector": [_decimal(v) for v in result.vector],
            "iterations": result.iterations,
            "tolerance": _decimal(result.tolerance),
        }
        _emit(json.dumps(document, indent=2), args.out)
    else:
        lines = [
            f"rho: {result.rho!r}",
            f"iterations: {result.iterations}",
            "vector: " + " ".join(repr(v) for v in result.vector),
        ]
        _emit("\n".join(lines), args.out)
    return EXIT_OK


def _cmd_verify(args: argparse.Namespace) -> int:
    g = _load(args.hypergraph, parse_hypergraph)
    x = _load(args.vector, parse_vector)
    try:
        lam = parse_scalar(args.lam)
    except ParseError as exc:
        raise ParseError(f"--lambda: {exc}", line=None) from None
    view = TENSOR_VIEWS[args.tensor](g)
    if args.z:
        certificate = verify_z_eigenpair(view, lam, x, tol=args.tol)
    else:
        certificate = verify_h_eigenpair(view, lam, x, tol=args.tol)
    verdict = "ACCEPTED" if certificate.accepted else "REJECTED"
    if args.format == "json":
        document = _certificate_document(certificate, g.vertices(), g.n)
        document["accepted"] = certificate.accepted
        _emit(json.dumps(document, indent=2), args.out)
    else:
        suffix = " (exact)" if certificate.exact else ""
        _emit(f"{verdict} residual {_decimal(certificate.residual)}{suffix}",
              args.out)
    return EXIT_OK if certificate.accepted else EXIT_MISMATCH


def _cmd_check(args: argparse.Namespace) -> int:
    g = _load(args.hypergraph, parse_hypergraph)
    report = geometry_connectivity(g, tol=args.tol)
    expected = _union_find_count(g)
    checks = [
        ("beta equals component count", report.beta == expected),
        ("beta_z equals component count", report.beta_z == expected),
        ("null certificates accepted",
         all(c.accepted for c in report.certificates + report.z_certificates)),
    ]
    if report.regular_degree is not None:
        checks.append(("beta_rho equals component count", report.beta_rho == expected))
        checks.append(("rho certificates accepted",
                       all(c.accepted for c in report.rho_certificates)))
    lines = [f"{'ok' if passed else 'MISMATCH'}: {name}" for name, passed in checks]
    lines.append(f"beta = {expected} = components")
    _emit("\n".join(lines), args.out)
    return EXIT_OK if all(passed for _, passed in checks) else EXIT_MISMATCH


def _cmd_report(args: argparse.Namespace) -> int:
    g = _load(args.hypergraph, parse_hypergraph)
    report = geometry_connectivity(g, tol=args.tol)
    _emit(json.dumps(_report_document(g, args.hypergraph, report), indent=2), args.out)
    certificates = (report.certificates + report.z_certificates
                    + (report.rho_certificates or ()))
    return EXIT_OK if all(c.accepted for c in certificates) else EXIT_MISMATCH


def _add_common(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("hypergraph", help="hypergraph file (k n m header + edge lines)")
    sub.add_argument("--out", default=None, help="write output to a file")


def _at_least(parse, low: int, what: str, strict: bool = False):
    """An argparse type requiring low <= parse(text) < inf (low < when strict); nan fails."""
    def convert(text: str):
        try:
            value = parse(text)
        except ValueError:
            value = nan
        if not (low < value if strict else low <= value) or not value < inf:
            raise argparse.ArgumentTypeError(
                f"expected {what} {'>' if strict else '>='} {low}, got {text!r}")
        return value
    return convert


def _add_tol(sub: argparse.ArgumentParser, strict: bool = False) -> None:
    sub.add_argument("--tol", type=_at_least(float, 0, "a finite number", strict),
                     default=DEFAULT_TOL, help="acceptance tolerance (default 1e-9)")


def _add_max_iter(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--max-iter", type=_at_least(int, 1, "an integer"), default=MAX_ITER,
                     help="power iteration cap (default 10000)")


def _add_format(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--format", choices=("json", "text"), default="text",
                     help="output format (default text)")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="geoconn",
        description="connectivity certificates for k-uniform hypergraphs")
    commands = parser.add_subparsers(dest="command", required=True)

    sub = commands.add_parser("components", help="connected components")
    _add_common(sub)
    _add_format(sub)

    sub = commands.add_parser("beta", help="geometry connectivity with certificates")
    _add_common(sub)
    _add_tol(sub)
    _add_format(sub)
    sub.add_argument("--z", action="store_true", help="use Z-eigenvector normalization")

    sub = commands.add_parser("perron", help="spectral radius by power iteration")
    _add_common(sub)
    _add_tol(sub, strict=True)  # its stop rule upper - lower < tol never holds at 0
    _add_max_iter(sub)
    _add_format(sub)
    # a Laplacian with an edge has negative entries; one without is connected only at n = 1
    sub.add_argument("--tensor", choices=("adjacency", "laplacian-shifted"),
                     default="adjacency", help="tensor to iterate on (default adjacency)")

    sub = commands.add_parser("verify", help="check a candidate eigenpair")
    _add_common(sub)
    _add_tol(sub)
    _add_format(sub)
    sub.add_argument("--vector", required=True,
                     help="vector file, one number per line")
    sub.add_argument("--lambda", dest="lam", required=True,
                     help="candidate eigenvalue (int, p/q or decimal)")
    sub.add_argument("--tensor", choices=TENSOR_VIEWS, default="laplacian",
                     help="tensor to verify against (default laplacian)")
    sub.add_argument("--z", action="store_true", help="check as a Z-eigenpair")

    sub = commands.add_parser("check",
                              help="cross-check beta variants against components")
    _add_common(sub)
    _add_tol(sub)

    sub = commands.add_parser("report", help="full JSON connectivity report")
    _add_common(sub)
    _add_tol(sub)

    return parser


def run(argv: Sequence[str] | None = None, *, stderr: TextIO | None = None) -> int:
    if stderr is None:
        stderr = sys.stderr
    parser = build_parser()
    args = parser.parse_args(argv)
    handlers = {
        "components": _cmd_components,
        "beta": _cmd_beta,
        "perron": _cmd_perron,
        "verify": _cmd_verify,
        "check": _cmd_check,
        "report": _cmd_report,
    }
    try:
        return handlers[args.command](args)
    except NoConvergence as exc:
        print(f"geoconn: error: {exc}", file=stderr)
        return EXIT_NO_CONVERGENCE
    except GeoconnError as exc:
        print(f"geoconn: error: {exc}", file=stderr)
        return EXIT_INPUT


def main() -> None:
    sys.exit(run())


if __name__ == "__main__":
    main()

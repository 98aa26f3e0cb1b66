"""Command line front end.

Hypergraph files are plain text: a header line ``k n m`` followed by m edge
lines of k 1-based vertex labels each, whitespace separated, every field
ASCII [0-9]+, with 2 <= k <= n and n at most ``MAX_VERTICES`` (1,000,000).
Blank lines and ``#`` comments (full line or trailing) are ignored.  The
edge lines are read ``CHUNK_LINES`` at a time into one flat list of labels;
only a file with a wrong line count, field count or token is read again line
by line, to name the line of that fault.  ``construct`` validates the edges
once, and the line of the edge its error names is found by counting.  Vector
files hold one number per line, as an integer, a rational ``p/q`` or a
finite decimal; integer and rational entries keep the computation exact.
Files must be UTF-8.

JSON output (``--format json`` and ``report``) is ``json.dumps(document,
indent=2)`` byte for byte; ``_json`` renders it in pieces, its lists of
scalars through the C encoder.  A certificate vector padded with zeros to
length n (``_Padded``) renders as runs of zeros between the vertices of its
part, so schema "1" output, O(r*n) bytes for r components, takes O(n + r)
Python steps.  ``_emit`` writes every output, JSON or text, joined
``EMIT_CHARS`` characters at a time, so it is never held whole and the
commands need O(n + k*m) memory.

Exit codes: 0 success, 1 analysis mismatch or rejected certificate,
2 malformed input or a failed write (a closed stdout too), 3 iteration did
not converge (``perron`` only).
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from fractions import Fraction
from itertools import chain, islice
from math import inf, isfinite, nan
from typing import Iterable, Iterator, Sequence, TextIO

from .errors import EdgeError, GeoconnError, IoError, NoConvergence, ParseError
from .hypergraph import Hypergraph, check_components, connected_components, construct, degrees
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


# body lines tokenized at a time: the ingest holds the string tokens of one
# chunk, never of the whole file
CHUNK_LINES = 4096


def _content_lines(lines: Sequence[str], start: int = 0) -> Iterator[tuple[int, str]]:
    # yields (1-based line number, stripped content) for non-empty lines[start:]
    for number, raw in enumerate(islice(lines, start, None), start=start + 1):
        line = raw.split("#", 1)[0].strip()
        if line:
            yield number, line


def _unsigned(line: str) -> tuple[int, ...] | None:
    """The line's fields as integers when each is ASCII [0-9]+, else None;
    int() alone also takes signs, underscores and non-ASCII digits."""
    fields = line.split()
    joined = "".join(fields)
    try:  # int() also refuses a field longer than sys.int_max_str_digits
        return tuple(map(int, fields)) if joined.isascii() and joined.isdigit() else None
    except ValueError:
        return None


def _body_labels(lines: list[str], start: int, k: int, m: int,
                 comments: bool) -> list[int] | None:
    """The labels of the m edge lines in lines[start:], flat in file order,
    or None unless every field is ASCII [0-9]+ and there are exactly m
    non-empty lines of k fields each. Works CHUNK_LINES lines at a time."""
    labels: list[int] = []
    rows_seen = 0
    for first in range(start, len(lines), CHUNK_LINES):
        chunk = lines[first:first + CHUNK_LINES]
        if comments:
            chunk = [line.split("#", 1)[0] for line in chunk]
        rows = list(filter(None, map(str.split, chunk)))
        rows_seen += len(rows)
        if not rows:
            continue
        if rows_seen > m or set(map(len, rows)) != {k}:
            return None
        joined = "".join(chain.from_iterable(rows))
        if not (joined.isascii() and joined.isdigit()):
            return None
        try:  # int() refuses a field longer than sys.int_max_str_digits
            labels.extend(map(int, chain.from_iterable(rows)))
        except ValueError:
            return None
    return labels if rows_seen == m else None


def parse_hypergraph(text: str) -> Hypergraph:
    """Parse the ``k n m`` + edge-lines format. Raises ParseError with the
    offending 1-based line number, or the underlying edge validation error
    wrapped with its line.

    The edge lines are tokenized in chunks of CHUNK_LINES into one flat
    label list. Only when the chunks cannot place a label in a k-tuple are
    the lines read one at a time, to name a wrong line count or the first
    bad token. ``construct`` then validates all edges once, and its
    EdgeError is reported on the line of the edge it names."""
    lines = text.splitlines()
    header_line, header = next(_content_lines(lines), (None, ""))
    if header_line is None:
        raise ParseError("empty input, expected a 'k n m' header", line=None)
    numbers = _unsigned(header)
    if numbers is None or len(numbers) != 3:
        raise ParseError(f"header must be 'k n m', three unsigned integers, got {header!r}",
                         line=header_line)
    k, n, m = numbers
    if k < 2:
        raise ParseError(f"uniformity k must be at least 2, got {k}", line=header_line)
    if n > MAX_VERTICES:
        raise ParseError(f"vertex count n must be at most {MAX_VERTICES}, got {n}",
                         line=header_line)
    if k > n:
        # no edge of k distinct labels fits in 1..n (this covers n = 0); it
        # also bounds the exponent k - 1 of every contraction by MAX_VERTICES
        raise ParseError(f"uniformity k must be at most n = {n}, got {k}", line=header_line)
    labels = _body_labels(lines, header_line, k, m, "#" in text)
    if labels is None:
        body = list(_content_lines(lines, header_line))
        if len(body) != m:
            raise ParseError(f"header promises {m} edges, file has {len(body)}",
                             line=header_line)
        edges = [_unsigned(line) for _, line in body]
        if None in edges:
            line_number, line = body[edges.index(None)]
            raise ParseError(f"edge line must hold unsigned integer labels, got {line!r}",
                             line=line_number)
    else:
        edges = zip(*[iter(labels)] * k)
    try:
        g = construct(n, k, edges)
    except EdgeError as exc:
        line_number, _ = next(islice(_content_lines(lines, header_line), exc.edge_index, None))
        raise ParseError(str(exc), line=line_number) from exc
    if labels is None:
        raise RuntimeError("internal error: the bulk parse refused a file "
                           "in which the line-by-line re-scan finds no fault")
    return g


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
    for line_number, line in _content_lines(text.splitlines()):
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


class _Padded:
    """A vector of n decimals: the ``_decimal`` of ``vector[i]`` on vertex
    ``part[i]`` of the ascending ``part`` and "0" on every other vertex.
    It is kept as its part, so it renders in O(len(part)) steps as runs of
    zeros between the part's vertices, plus copying the bytes. A decimal
    holds no character that JSON escapes."""

    __slots__ = ("part", "entries", "n")

    def __init__(self, part: Sequence[int], vector: Sequence[Number], n: int):
        self.part, self.entries, self.n = part, [_decimal(v) for v in vector], n

    def joined(self, separator: str, quote: str = "") -> Iterator[str]:
        """``separator.join`` of the n items, each between two ``quote``s,
        in pieces: "0" off the part and the entries on it. The entries on a
        run of consecutive vertices are joined in one call."""
        zero = quote + "0" + quote
        item = zero + separator
        between = quote + separator + quote
        part, n = self.part, self.n
        previous = 0  # the last vertex printed
        start = 0  # the index in part where the current run starts
        for end in range(1, len(part) + 1):
            if end == len(part) or part[end] != part[end - 1] + 1:
                yield (item * (part[start] - previous - 1)
                       + quote + between.join(self.entries[start:end]) + quote)
                previous = part[end - 1]
                if previous < n:
                    yield separator
                start = end
        if previous < n:
            yield item * (n - previous - 1) + zero


def _certificate_document(certificate: EigenpairCertificate, part: Sequence[int],
                          n: int) -> dict:
    return {
        "vector": _Padded(part, certificate.vector, n),
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
        "perron": _perron_block(g, report.certificates[0]) if connected else None,
    }


def _json(value) -> Iterator[str]:
    """``json.dumps(value, indent=2)``, byte for byte, in pieces.

    ``json.dumps`` takes its C encoder only when ``indent`` is None, so with
    an indent it yields every certificate entry from pure Python.  This
    walks dicts and lists of containers as that encoder does, and hands
    each list of scalars to the C encoder in one call, with the newline and
    padding in the item separator.  A ``_Padded`` vector prints as the list
    of its n strings, its zeros as runs of the quoted ``"0"`` and that
    separator, its entries quoted as they are.  A list is classified by its
    first item: every list the CLI emits holds only containers or only
    scalars.  Dict keys are strings.
    """
    def chunks(value, pad: str) -> Iterator[str]:
        inner = pad + "  "
        if isinstance(value, dict) and value:
            opener = "{"
            for key, item in value.items():
                yield f"{opener}\n{inner}{json.dumps(key)}: "
                yield from chunks(item, inner)
                opener = ","
            yield f"\n{pad}}}"
        elif isinstance(value, _Padded):
            yield f"[\n{inner}"
            yield from value.joined(",\n" + inner, '"')
            yield f"\n{pad}]"
        elif isinstance(value, (list, tuple)) and value:
            if isinstance(value[0], (dict, list, tuple)):
                opener = "["
                for item in value:
                    yield f"{opener}\n{inner}"
                    yield from chunks(item, inner)
                    opener = ","
            else:
                yield f"[\n{inner}"
                yield json.dumps(value, separators=(",\n" + inner, ": "))[1:-1]
            yield f"\n{pad}]"
        else:
            yield json.dumps(value)  # a scalar, {} or []

    return chunks(value, "")


# characters joined per write, so no output is held whole; 256 KiB gave the
# lowest and steadiest peak RSS of the sizes measured (see CHANGES.md)
EMIT_CHARS = 1 << 18


def _write(pieces: Iterable[str], handle: TextIO) -> None:
    """Write the pieces joined about EMIT_CHARS characters at a time, then
    a newline unless the last piece ends in one."""
    batch: list[str] = []
    size = 0
    piece = ""
    for piece in pieces:
        batch.append(piece)
        size += len(piece)
        if size >= EMIT_CHARS:
            handle.write("".join(batch))
            batch, size = [], 0
    handle.write("".join(batch))
    if not piece.endswith("\n"):
        handle.write("\n")


def _emit(pieces: Iterable[str], out: str | None) -> None:
    """``_write`` the pieces to ``out``, or to stdout when it is None."""
    if out is None:
        _write(pieces, sys.stdout)
        return
    try:
        with open(out, "w", encoding="utf-8") as handle:
            _write(pieces, handle)
    except OSError as exc:
        raise IoError(f"cannot write {out}: {exc}") from exc


def _cmd_components(args: argparse.Namespace) -> int:
    g = _load(args.hypergraph, parse_hypergraph)
    decomposition = check_components(g, connected_components(g))
    if args.format == "json":
        document = {
            "components": decomposition.count,
            "parts": [list(part) for part in decomposition.parts],
        }
        _emit(_json(document), args.out)
    else:
        lines = [f"components: {decomposition.count}"]
        for index, part in enumerate(decomposition.parts, start=1):
            lines.append(f"  {index}: {' '.join(map(str, part))}")
        _emit(["\n".join(lines)], args.out)
    return EXIT_OK


def _beta_lines(label: str, value: int, certificates: Sequence[EigenpairCertificate],
                parts: Sequence[Sequence[int]], n: int) -> Iterator[str]:
    yield f"{label} = {value}"
    for number, (cert, part) in enumerate(zip(certificates, parts), start=1):
        suffix = " (exact)" if cert.exact else ""
        yield f"\ncertificate {number}: ("
        yield from _Padded(part, cert.vector, n).joined(", ")
        yield f") residual {_decimal(cert.residual)}{suffix}"


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
        _emit(_json(document), args.out)
    else:
        _emit(_beta_lines(label, value, certificates, parts, g.n), args.out)
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
        _emit(_json(document), args.out)
    else:
        lines = [
            f"rho: {result.rho!r}",
            f"iterations: {result.iterations}",
            "vector: " + " ".join(repr(v) for v in result.vector),
        ]
        _emit(["\n".join(lines)], args.out)
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
        _emit(_json(document), args.out)
    else:
        suffix = " (exact)" if certificate.exact else ""
        _emit([f"{verdict} residual {_decimal(certificate.residual)}{suffix}"],
              args.out)
    return EXIT_OK if certificate.accepted else EXIT_MISMATCH


def _cmd_check(args: argparse.Namespace) -> int:
    g = _load(args.hypergraph, parse_hypergraph)
    report = geometry_connectivity(g, tol=args.tol)
    expected = report.component_count
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
    _emit(["\n".join(lines)], args.out)
    return EXIT_OK if all(passed for _, passed in checks) else EXIT_MISMATCH


def _cmd_report(args: argparse.Namespace) -> int:
    g = _load(args.hypergraph, parse_hypergraph)
    report = geometry_connectivity(g, tol=args.tol)
    _emit(_json(_report_document(g, args.hypergraph, report)), args.out)
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
    try:
        code = run()
        sys.stdout.flush()
    except BrokenPipeError:
        # stdout was closed: devnull takes it, so the flush at exit succeeds
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        code = EXIT_INPUT
    sys.exit(code)


if __name__ == "__main__":
    main()

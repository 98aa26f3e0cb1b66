"""Command line front end.

Hypergraph files are UTF-8 text: a header line ``k n m`` followed by m edge
lines of k 1-based vertex labels each, every field ASCII [0-9]+, with
2 <= k <= n and n at most ``MAX_VERTICES`` (1,000,000).  A line ends at
LF, CRLF or CR.  Outside a ``#`` comment (full line or trailing), which may
hold any text, fields are separated by spaces and tabs only: other
whitespace, such as a form feed or a no-break space, is refused on its
line.  Blank lines and comments are ignored.  The text is read in blocks
of about ``BLOCK_CHARS`` characters cut at a line end, each into sorted
label tuples; the labels 1..n are shared, one int object each.  Only a file
with a wrong character, line count, field count or token is read again
line by line, with the same line splitter, to name the line of that fault.
``construct`` validates the edges once, and the line of the edge its error
names is found by counting.  Vector files hold one or more numbers per
line, as integers, rationals ``p/q`` or finite decimals, under the same
line rules; integer and rational entries keep the computation exact.

JSON output (``--format json`` and ``report``) is ``json.dumps(document,
indent=2)`` byte for byte; ``_json`` renders it in pieces, its lists of
scalars through the C encoder.  A certificate vector padded with zeros to
length n (``_Padded``) renders as runs of zeros between the vertices of its
part, so schema "1" output, O(r*n) bytes for r components, takes O(n + r)
Python steps.  ``_emit`` writes every output, JSON or text, joined
``EMIT_CHARS`` characters at a time, so it is never held whole and the
commands need O(n + k*m) memory.

Exit codes: 0 success, 1 analysis mismatch or rejected certificate,
2 malformed input, a failed write (a closed stdout too) or no memory left,
3 iteration did not converge (``perron`` only).
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import re
import sys
from fractions import Fraction
from itertools import chain, islice
from math import inf, isfinite, nan
from typing import Iterable, Iterator, Sequence, TextIO

from .errors import EdgeError, GeoconnError, IoError, NoConvergence, ParseError
from .hypergraph import (Edge, Hypergraph, check_components, connected_components, construct,
                         degrees)
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


# characters of text split into lines at a time, up to the next line end:
# the ingest holds the lines and tokens of one block, never of the whole file
BLOCK_CHARS = 1 << 16

# in ASCII text without line ends, str.split() splits at spaces and tabs
# alone once VT, FF and the four ASCII separators are absent, and int()
# takes exactly the fields [0-9]+ once signs and underscores are absent too
_REFUSED_IN_BULK = ("\x0b", "\x0c", "\x1c", "\x1d", "\x1e", "\x1f", "+", "-", "_")
# whitespace that is not a space or a tab, as str.split() and str.isspace() see it
_NOT_SPACE_OR_TAB = re.compile(r"[^\S \t]")


def _blocks(text: str) -> Iterator[str]:
    """The text in blocks of whole lines, each cut at the first LF at least
    BLOCK_CHARS characters after its start, with every line end (LF, CRLF
    or CR) written as LF and the one ending the block dropped."""
    start = 0
    while start < len(text):
        cut = text.find("\n", start + BLOCK_CHARS)
        end = len(text) if cut < 0 else cut + 1
        block = text[start:end]
        start = end
        if "\r" in block:
            block = block.replace("\r\n", "\n").replace("\r", "\n")
        yield block.removesuffix("\n")


def _lines(text: str) -> Iterator[str]:
    """The lines of text, without their ends, as ``_blocks`` cuts them."""
    for block in _blocks(text):
        yield from block.split("\n")


def _content(line: str, number: int) -> str:
    """The line's text before any ``#``, stripped of spaces and tabs.
    Raises ParseError, on line ``number``, when that text holds other
    whitespace."""
    content = line.split("#", 1)[0]
    other = _NOT_SPACE_OR_TAB.search(content)
    if other:
        raise ParseError(f"fields must be separated by spaces and tabs, got {other[0]!r}",
                         line=number)
    return content.strip(" \t")


def _content_lines(lines: Iterable[str], first: int = 1) -> Iterator[tuple[int, str]]:
    """(line number, content) for each line whose ``_content`` is not
    empty, the lines numbered from ``first``."""
    for number, line in enumerate(lines, start=first):
        content = _content(line, number)
        if content:
            yield number, content


def _header(blocks: Iterator[str]) -> tuple[int | None, str, str]:
    """The number and content of the first line with content, and the text
    after that line in its block; the lines up to it are read one at a
    time, so no block is split. (None, "", "") when no line has content."""
    number = 0
    for block in blocks:
        start = 0
        while start <= len(block):
            end = block.find("\n", start)
            end = len(block) if end < 0 else end
            number += 1
            content = _content(block[start:end], number)
            if content:
                return number, content, block[end + 1:]
            start = end + 1
    return None, "", ""


def _unsigned(line: str) -> tuple[int, ...] | None:
    """The line's fields as integers when each is ASCII [0-9]+, else None;
    int() alone also takes signs, underscores and non-ASCII digits."""
    fields = line.split()
    joined = "".join(fields)
    try:  # int() also refuses a field longer than sys.int_max_str_digits
        return tuple(map(int, fields)) if joined.isascii() and joined.isdigit() else None
    except ValueError:
        return None


def _edges(blocks: Iterable[str], k: int, n: int, m: int) -> list[Edge] | None:
    """The edges on the lines of the blocks, each a sorted tuple of labels,
    or None unless every line is blank, a comment or k ASCII [0-9]+ fields
    separated by spaces and tabs, with m lines of fields in all. Works a
    block at a time; the labels 1..n are shared through one table, a label
    above n stays for construct to refuse."""
    table = list(range(n + 1))
    edges: list[Edge] = []
    rows_seen = 0
    for block in blocks:
        lines = block.split("\n")
        if "#" in block:
            lines = [line.split("#", 1)[0] for line in lines]
            content = "".join(lines)
        else:
            content = block
        if not content.isascii() or any(map(content.__contains__, _REFUSED_IN_BULK)):
            return None
        rows = list(filter(None, map(str.split, lines)))
        rows_seen += len(rows)
        if not rows:
            continue
        if rows_seen > m or set(map(len, rows)) != {k}:
            return None
        try:  # a field that is not [0-9]+, or longer than sys.int_max_str_digits
            labels = list(map(int, chain.from_iterable(rows)))
        except ValueError:
            return None
        try:
            labels = list(map(table.__getitem__, labels))
        except IndexError:
            labels = [table[v] if v <= n else v for v in labels]
        edges += map(tuple, map(sorted, zip(*[iter(labels)] * k)))
    return edges if rows_seen == m else None


def parse_hypergraph(text: str) -> Hypergraph:
    """Parse the ``k n m`` + edge-lines format. Raises ParseError with the
    offending 1-based line number, or the underlying edge validation error
    wrapped with its line.

    The edge lines are read in blocks of about BLOCK_CHARS characters into
    sorted label tuples (``_edges``). Only when a block cannot be read so
    are the lines read one at a time, to name a bad character, a wrong
    line count or the first bad token. ``construct`` then validates all
    edges once, and its EdgeError is reported on the line of the edge it
    names."""
    blocks = _blocks(text)
    header_line, header, rest = _header(blocks)
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

    def body() -> Iterator[tuple[int, str]]:
        return _content_lines(islice(_lines(text), header_line, None), header_line + 1)

    edges = _edges(chain([rest], blocks), k, n, m)
    if edges is None:
        count = sum(1 for _ in body())
        if count != m:
            raise ParseError(f"header promises {m} edges, file has {count}",
                             line=header_line)
        for line_number, line in body():
            if _unsigned(line) is None:
                raise ParseError(f"edge line must hold unsigned integer labels, got {line!r}",
                                 line=line_number)
    rows = (_unsigned(line) for _, line in body()) if edges is None else edges
    try:
        g = construct(n, k, rows)
    except EdgeError as exc:
        line_number, _ = next(islice(body(), exc.edge_index, None))
        raise ParseError(str(exc), line=line_number) from exc
    if edges is None:
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
    for line_number, line in _content_lines(_lines(text)):
        for token in line.split():
            try:
                values.append(parse_scalar(token))
            except ParseError as exc:
                raise ParseError(str(exc), line=line_number) from None
    if not values:
        raise ParseError("empty vector file", line=None)
    return values


def _load(path: str, parse):
    """parse() of the file's text, with ``path:line`` before a ParseError.
    The cyclic collector is paused while parse() runs, then restored as it
    was: a hypergraph parse makes a tuple per edge and no reference cycle,
    so the collections that set off only cost time, 2.7 % of the
    ``connected`` benchmark's batch_s (Python 3.11, 2 shared vCPUs)."""
    try:
        with open(path, "r", encoding="utf-8") as handle:
            text = handle.read()
    except OSError as exc:
        raise IoError(f"cannot read {path}: {exc}") from exc
    except UnicodeDecodeError as exc:
        raise ParseError(f"{path}: byte {exc.start} is not UTF-8", line=None) from None
    enabled = gc.isenabled()
    gc.disable()
    try:
        return parse(text)
    except ParseError as exc:
        location = f"{path}:{exc.line}" if exc.line is not None else path
        raise ParseError(f"{location}: {exc}", line=exc.line) from None
    finally:
        if enabled:
            gc.enable()


def _decimal(value: Number) -> str:
    """Serialize a real for JSON output: exact values verbatim, floats via
    repr (round-trips). Floats are tested first: they are most entries, and
    isinstance(value, Fraction) goes through the ABC machinery."""
    if type(value) is float:
        return repr(value)
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
    except MemoryError:
        print("geoconn: error: out of memory", file=stderr)
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

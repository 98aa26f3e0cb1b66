"""The byte corpus: input files built in code, each run through the
command line in process, with the exit code, the stderr text and the
length and SHA-256 of stdout of every run kept in ``golden.json``.

``test_corpus.py`` holds the program to that file, so a change that moves
one output byte, exit code or stderr line fails there by name. A change
that means to move bytes regenerates the file from the repository root:

    PYTHONPATH=src python tests/corpus.py --write

and lists the entries it changed. Every file is run as ``input.hg`` in the
current directory, with the all-ones vector as ``ones.vec``, so no output
holds a temporary path. ``perron`` runs with ``--max-iter 1``: it either
stops at a fixed point or exits 3 with the first bracket, which comes from
integer-valued floats. Later iterates take ``sum()`` of floats, and Python
3.12 sums floats with compensation, so their digits may differ between the
versions the tests run on.
"""

from __future__ import annotations

import hashlib
import io
import json
import os
import random
import sys
import tempfile
from contextlib import redirect_stdout
from pathlib import Path

from geoconn import cli
from test_acceptance import FIXTURES

GOLDEN = Path(__file__).with_name("golden.json")
HYPERGRAPH = "input.hg"
VECTOR = "ones.vec"

COMMANDS = {
    "components": ["components"],
    "components json": ["components", "--format", "json"],
    "check": ["check"],
    "report": ["report"],
    "beta": ["beta"],
    "beta z": ["beta", "--z"],
    "beta json": ["beta", "--format", "json"],
    "verify ones": ["verify", "--vector", VECTOR, "--lambda", "0"],
    "perron": ["perron", "--max-iter", "1"],
    "perron json": ["perron", "--max-iter", "1", "--format", "json"],
    "perron shifted": ["perron", "--max-iter", "1", "--tensor", "laplacian-shifted"],
}
# `check` with the analysis out of memory, as it is when the address space
# runs out; a real MemoryError cannot be provoked safely in process
OUT_OF_MEMORY = "check, out of memory"
LONG_LABEL = "9" * 5000  # past int()'s default limit of 4300 digits


def _hostile() -> dict[str, bytes]:
    """Files of every fault class and of the edges of the line grammar."""
    good = "1 2 3\n4 5 6\n"
    files = {
        "empty": "",
        "only comments": "# nothing\n\n   # here\n",
        "header of two fields": "3 6\n" + good,
        "header of four fields": "3 6 2 1\n" + good,
        "header k below 2": "1 3 0\n",
        "header k above n": "4 3 0\n",
        "header n above the cap": "2 1000001 0\n",
        "header of huge numbers": "3 99999999999999999999 1\n1 2 3\n",
        "header sign": "3 +6 2\n" + good,
        "header underscore": "3 6_0 2\n" + good,
        "header byte order mark": "\ufeff3 6 2\n" + good,
        "fewer edges than promised": "3 6 3\n" + good,
        "more edges than promised": "3 6 1\n" + good,
        "minus sign": "3 6 2\n1 2 3\n4 -5 6\n",
        "plus sign": "3 6 2\n1 2 3\n4 +5 6\n",
        "underscore": "3 20 2\n1 2 3\n4 1_0 6\n",
        "arabic-indic digit": "3 6 2\n1 2 3\n4 \u0665 6\n",
        "fullwidth digit": "3 6 2\n1 2 3\n4 \uff15 6\n",
        "decimal point": "3 6 2\n1 2 3\n4 5.0 6\n",
        "5000-digit label": f"3 6 2\n1 2 3\n4 5 {LONG_LABEL}\n",
        "5000-digit label of leading zeros": f"3 6 2\n1 2 3\n4 5 {'0' * 4999}6\n",
        "40-digit label": f"3 6 2\n1 2 3\n4 5 {'9' * 40}\n",
        "nul": "3 6 2\n1 2 3\n4\x005 6\n",
        "leading zeros": "3 6 2\n001 2 3\n4 5 06\n",
        "cr line ends": "3 6 2\r1 2 3\r4 5 6\r",
        "cr line ends with a fault": "3 6 2\r1 2 3\r\r4 5 7\r",
        "mixed line ends": "3 6 2\r\n1 2 3\r4 5 6\n",
        "mixed line ends with a fault": "3 6 2\r\n\n1 2 3\r\n4 5 5\r",
        "tabs": "3\t6\t2\n1\t2 3\n\t4 5\t6\t\n",
        "utf-8 comments": "# été ✓\n3 6 2 # ü\n1 2 3\n4 5 6 # ☃\n",
        "form feed": "3 6 2\n1 2 3\n4 5\x0c6\n",
        "form feed in a comment": "3 6 2 # \x0c\n1 2 3\n4 5 6\n",
        "vertical tab line": "3 6 2\n1 2 3\n\x0b\n4 5 6\n",
        "no-break space": "3 6 2\n1 2 3\n4\u00a05 6\n",
        "no-break space in a comment": "3 6 2\n1 2 3 # a\u00a0b\n4 5 6\n",
        "next line": "3 6 2\n1 2 3\n4 5\x856\n",
        "next line in the header": "3 6\x852\n" + good,
        "next line in a comment": "3 6 2\n# one\x85two 1 2 3\n1 2 3\n4 5 6\n",
        "line separator": "3 6 2\n1 2 3\u20284 5 6\n",
        "unit separator": "3 6 2\n1 2 3\n4 5\x1f6\n",
        "repeated vertex": "3 6 2\n1 2 3\n3 2 3\n",
        "label 0": "3 6 2\n1 2 3\n4 0 6\n",
        "label above n": "3 6 2\n1 2 3\n4 5 7\n",
        "labels out of order and range": "3 10 2\n1 2 3\n99 0 5\n",
        "duplicate edge": "3 6 2\n1 2 3\n3 1 2\n",
        "too many labels": "3 6 2\n1 2 3\n4 5 6 1\n",
        "cut last line": "3 6 2\n1 2 3\n4 5\n",
        "blank lines and trailing spaces": "\n3 6 2   \n\n1 2 3 \n\n  4 5 6\n\n",
    }
    # more than cli.BLOCK_CHARS characters of comment lines before the header
    comments = "#\n" * 40_000
    files["header past the first block"] = comments + "3 6 2\n" + good
    files["header k below 2 past the first block"] = comments + "1 3 0\n"
    files["no-break space line before the header past the first block"] = (
        comments + "\u00a0\n3 6 2\n" + good)
    out = {name: text.encode("utf-8") for name, text in files.items()}
    out["not utf-8"] = b"3 3 1\n1 2 \xff\n"
    out["not utf-8 in a comment"] = b"# \xff\n3 3 1\n1 2 3\n"
    return out


def _fixtures() -> dict[str, bytes]:
    """The acceptance-9 fixtures."""
    return {f"fixture {name}": text.encode() for name, text in FIXTURES.items()}


def _file(k: int, n: int, edges: list[list[int]]) -> bytes:
    lines = [f"{k} {n} {len(edges)}"] + [" ".join(map(str, edge)) for edge in edges]
    return ("\n".join(lines) + "\n").encode()


def _generated() -> dict[str, bytes]:
    """A few small seeded files: random ones with members in random order,
    loose paths, tight cycles and chains with isolated vertices."""
    files = {}
    for seed in range(6):
        rng = random.Random(seed)
        k = rng.choice((2, 3, 4))
        n = rng.randint(k, 12)
        seen: set[frozenset[int]] = set()
        edges = []
        for _ in range(rng.randint(0, 12)):
            edge = rng.sample(range(1, n + 1), k)
            if frozenset(edge) not in seen:
                seen.add(frozenset(edge))
                edges.append(edge)
        files[f"random seed {seed}"] = _file(k, n, edges)
    for k, length in ((2, 6), (3, 5), (4, 3)):
        edges = [list(range((k - 1) * j + 1, (k - 1) * j + k + 1)) for j in range(length)]
        files[f"loose path k={k}"] = _file(k, (k - 1) * length + 1, edges)
    for k, n in ((3, 7), (4, 9)):
        edges = [[(i + j) % n + 1 for j in range(k)] for i in range(n)]
        files[f"tight cycle k={k}"] = _file(k, n, edges)
    rng = random.Random(19)
    edges, v = [], 1
    for size in (3, 5, 7, 9):  # loose 3-uniform chains of 1 to 4 edges
        edges += [[v + j, v + j + 1, v + j + 2] for j in range(0, size - 2, 2)]
        v += size
    rng.shuffle(edges)
    files["chains and isolated vertices"] = _file(3, v + 2, edges)
    return files


def corpus() -> dict[str, bytes]:
    """Every corpus file by name."""
    return {**_hostile(), **_fixtures(), **_generated()}


def _ones(data: bytes) -> str:
    """The all-ones vector at the header's n, or of length 1 when the
    header does not give a small n."""
    fields = data.split(b"\n", 1)[0].split()
    n = int(fields[1]) if len(fields) == 3 and fields[1].isdigit() and len(fields[1]) < 4 else 1
    return "1\n" * max(n, 1)


def _raise_memory_error(*args, **kwargs):
    raise MemoryError


def _run(argv: list[str], out_of_memory: bool = False) -> dict:
    stdout, stderr = io.StringIO(), io.StringIO()
    analysis = cli.geometry_connectivity
    if out_of_memory:
        cli.geometry_connectivity = _raise_memory_error
    try:
        with redirect_stdout(stdout):
            code = cli.run(argv, stderr=stderr)
    finally:
        cli.geometry_connectivity = analysis
    data = stdout.getvalue().encode("utf-8")
    return {"exit": code, "stderr": stderr.getvalue(), "stdout_bytes": len(data),
            "stdout_sha256": hashlib.sha256(data).hexdigest()}


def outputs() -> dict[str, dict[str, dict]]:
    """Run every command on every corpus file in the current directory:
    {file: {command: {exit, stderr, stdout_bytes, stdout_sha256}}}."""
    results = {}
    for name, data in corpus().items():
        Path(HYPERGRAPH).write_bytes(data)
        Path(VECTOR).write_text(_ones(data))
        runs = {label: _run([argv[0], HYPERGRAPH, *argv[1:]])
                for label, argv in COMMANDS.items()}
        runs[OUT_OF_MEMORY] = _run(["check", HYPERGRAPH], out_of_memory=True)
        results[name] = runs
    return results


def main(argv: list[str]) -> int:
    if argv != ["--write"]:
        print("usage: PYTHONPATH=src python tests/corpus.py --write", file=sys.stderr)
        return 2
    here = os.getcwd()
    with tempfile.TemporaryDirectory() as scratch:
        os.chdir(scratch)
        try:
            results = outputs()
        finally:
            os.chdir(here)
    GOLDEN.write_text(json.dumps(results, indent=1, sort_keys=True, ensure_ascii=False) + "\n",
                      encoding="utf-8")
    print(f"wrote {sum(map(len, results.values()))} outputs of {len(results)} files to {GOLDEN}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

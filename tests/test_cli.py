"""File formats, argument handling and exit codes of the command line."""

import gc
import json
import os
import random
import resource
import subprocess
import sys
from fractions import Fraction

import pytest

from geoconn import (
    LabelOutOfRange,
    MalformedEdge,
    NotNonnegative,
    ParseError,
    WrongUniformity,
    construct,
    laplacian,
    perron,
)
from geoconn.cli import (
    BLOCK_CHARS,
    EXIT_INPUT,
    EXIT_MISMATCH,
    EXIT_NO_CONVERGENCE,
    EXIT_OK,
    MAX_VERTICES,
    parse_hypergraph,
    parse_scalar,
    parse_vector,
    run,
)

SINGLE_EDGE = "4 4 1\n1 2 3 4\n"
TWO_COMPONENTS = "3 7 2\n1 2 3\n4 5 6\n"
CYCLE = "2 4 4\n1 2\n2 3\n3 4\n1 4\n"
TIGHT_CYCLE = "3 5 5\n1 2 3\n2 3 4\n3 4 5\n4 5 1\n5 1 2\n"


def write(tmp_path, name, text):
    path = tmp_path / name
    path.write_text(text)
    return str(path)


def test_parse_hypergraph_basic():
    g = parse_hypergraph("3 5 2\n1 2 3\n3 4 5\n")
    assert (g.k, g.n, g.m) == (3, 5, 2)
    assert g.edges == ((1, 2, 3), (3, 4, 5))
    # each label is the one int object of its vertex, whichever line it is on
    g = parse_hypergraph("3 1000 2\n700 300 500\n500 900 800\n")
    assert g.edges == ((300, 500, 700), (500, 800, 900)) and g.edges[0][1] is g.edges[1][0]


def test_parse_hypergraph_comments_blank_lines_and_crlf():
    text = "# demo\r\n\r\n2 3 2   # header\r\n1 2\r\n\r\n2 3  # last edge\r\n"
    g = parse_hypergraph(text)
    assert g.edges == ((1, 2), (2, 3))


def test_parse_hypergraph_edgeless():
    g = parse_hypergraph("2 3 0\n")
    assert g.m == 0 and g.n == 3
    assert parse_hypergraph("2 1000000 0\n").n == MAX_VERTICES == 1_000_000


def test_parse_hypergraph_header_errors_carry_line_numbers():
    with pytest.raises(ParseError) as err:
        parse_hypergraph("")
    assert err.value.line is None
    with pytest.raises(ParseError) as err:
        parse_hypergraph("# only a comment\n3 5\n")
    assert err.value.line == 2
    with pytest.raises(ParseError) as err:
        parse_hypergraph("3 five 2\n")
    assert err.value.line == 1
    # labels and counts are ASCII [0-9]+: int() would read 1_0 as 10, +3 as 3
    # and the Arabic-Indic or fullwidth digits as 3
    for bad in ("1 5 0\n", "3 0 0\n", "3 5 -1\n", "2 1000001 0\n", "2 1 0\n", "5 3 0\n",
                "3 1_0 0\n", "+3 5 0\n", "3 5 0 0\n", "\u0663 5 0\n", "\uff13 5 0\n",
                # int() refuses more digits than sys.int_max_str_digits
                f"3 {'1' * 5000} 0\n"):
        with pytest.raises(ParseError) as err:
            parse_hypergraph(bad)
        assert err.value.line == 1
    # no edge of k distinct labels fits in 1..n
    with pytest.raises(ParseError, match="uniformity k must be at most n = 3, got 5"):
        parse_hypergraph("5 3 0\n")


def test_parse_hypergraph_edge_count_mismatch():
    with pytest.raises(ParseError) as err:
        parse_hypergraph("3 5 2\n1 2 3\n")
    assert err.value.line == 1
    with pytest.raises(ParseError):
        parse_hypergraph("3 5 0\n1 2 3\n")


def test_parse_hypergraph_edge_errors_carry_line_numbers():
    with pytest.raises(ParseError) as err:
        parse_hypergraph("3 3 1\n1 2\n")
    assert err.value.line == 2
    for label in ("x", "1_0", "+4", "-4", "4.0", "\u0664", "\uff14", "1" * 5000):
        with pytest.raises(ParseError, match="unsigned integer labels") as err:
            parse_hypergraph(f"3 10 2\n1 2 3\n{label} 5 6\n")
        assert err.value.line == 3
    # wrong uniformity detected by validation, reported on the edge's line
    with pytest.raises(ParseError) as err:
        parse_hypergraph("3 5 2\n1 2 3\n4 5\n")
    assert err.value.line == 3
    with pytest.raises(ParseError) as err:
        parse_hypergraph("# c\n3 5 2\n1 2 3\n3 2 1\n")
    assert err.value.line == 4
    # the edge lines are read in blocks of BLOCK_CHARS characters: a fault
    # past the first two blocks, in a CRLF file with comment lines, keeps its line
    for fault, message in (
            ("13801 x 13803",
             "edge line must hold unsigned integer labels, got '13801 x 13803'"),
            ("13801 13802", "edge 6900 has 2 vertices, expected k=3"),
            ("13801 13801 13803  # repeated",
             "edge 6900 has a repeated vertex: [13801, 13801, 13803]"),
            ("0 13802 13803", "edge 6900: vertex label 0 outside 1..14001"),
            ("13801 13802 14002", "edge 6900: vertex label 14002 outside 1..14001"),
            ("3 2 1", "edge 6900 duplicates an earlier edge: [1, 2, 3]")):
        text = long_path_file(fault_at_edge_6900=fault)
        assert text.index(f"\r\n{fault}\r\n") > 2 * BLOCK_CHARS
        with pytest.raises(ParseError) as err:
            parse_hypergraph(text)
        assert (err.value.line, str(err.value)) == (8629, message)
    assert parse_hypergraph(long_path_file("13801 13802 13803")).m == 7000


def long_path_file(fault_at_edge_6900: str) -> str:
    """A 3-uniform loose path of 7,000 edges in 8,752 CRLF lines, with a
    comment line before every fourth edge; edge 6900 sits on line 8629 and
    its line is replaced by the given text."""
    m = 7000
    lines = ["# a loose path, CRLF line ends", f"3 {2 * m + 1} {m}  # k n m"]
    for j in range(m):
        if j % 4 == 0:
            lines.append(f"# edges {j}..{j + 3}")
        lines.append(fault_at_edge_6900 if j == 6900 else f"{2 * j + 1} {2 * j + 2} {2 * j + 3}")
    return "\r\n".join(lines) + "\r\n"


def test_parse_hypergraph_reports_the_first_fault_of_several():
    # the line count first, then the first bad token, then the earliest
    # faulty edge; within one edge a repeated vertex comes first
    with pytest.raises(ParseError, match="header promises 2 edges, file has 1") as err:
        parse_hypergraph("3 5 2\n1 2 x\n")
    assert err.value.line == 1
    with pytest.raises(ParseError, match="unsigned integer labels, got '9 x 10'") as err:
        parse_hypergraph("3 10 4\n1 2 3\n4 5 11\n6 7 8\n9 x 10\n")
    assert err.value.line == 5
    for text, error, line, message in (
            ("3 10 2\n1 2 11\n4 5\n", LabelOutOfRange, 2,
             "edge 0: vertex label 11 outside 1..10"),
            ("3 10 2\n4 5\n1 2 11\n", WrongUniformity, 2,
             "edge 0 has 2 vertices, expected k=3"),
            ("3 10 2\n1 2 3\n1 1\n", MalformedEdge, 3,
             "edge 1 has a repeated vertex: [1, 1]")):
        with pytest.raises(ParseError) as err:
            parse_hypergraph(text)
        assert type(err.value.__cause__) is error
        assert (err.value.line, str(err.value)) == (line, message)


def test_parse_hypergraph_validates_edges_once(monkeypatch):
    # a refused file is not validated a second time to find its line
    calls = []

    def counted(n, k, edges):
        calls.append(n)
        return construct(n, k, edges)

    monkeypatch.setattr("geoconn.cli.construct", counted)
    for text in ("3 5 2\n1 2 3\n3 4 6\n", "3 5 2\n1 2 3\n3 4\n", "3 5 2\n1 2 3\n3 4 5\n"):
        calls.clear()
        try:
            parse_hypergraph(text)
        except ParseError:
            pass
        assert calls == [5], text


def test_the_cli_pauses_the_collector_while_it_parses(tmp_path, monkeypatch):
    seen = []

    def parse(text):
        seen.append(gc.isenabled())
        return parse_hypergraph(text)

    monkeypatch.setattr("geoconn.cli.parse_hypergraph", parse)
    good = write(tmp_path, "good.hg", "3 5 2\n1 2 3\n3 4 5\n")
    bad = write(tmp_path, "bad.hg", "3 5 2\n1 2 3\n3 4 x\n")
    try:
        for enabled in (True, False):
            (gc.enable if enabled else gc.disable)()
            for path, code in ((good, EXIT_OK), (bad, EXIT_INPUT)):
                assert run(["check", path]) == code
                assert gc.isenabled() is enabled
    finally:
        gc.enable()
    assert seen == [False] * 4


# whitespace that str.split() and str.splitlines() take but the format does not
OTHER_WHITESPACE = ("\x0b", "\x0c", "\x1c", "\x1d", "\x1e", "\x1f",
                    "\x85", "\xa0", "\u2028", "\u2029", "\u3000")


@pytest.mark.parametrize("char", OTHER_WHITESPACE)
def test_other_whitespace_is_refused_on_its_line_and_allowed_in_comments(char, monkeypatch):
    # with 12-character blocks the plain file's first block ends after line 3
    # and line 4 starts the second; 1 puts every line in a block of its own
    lines = ["3 9 3", "1 2 3", "4 5 6", "7 8 9"]
    plain = parse_hypergraph("\n".join(lines) + "\n")
    message = f"fields must be separated by spaces and tabs, got {char!r}"
    for size in (1, 12, 13, BLOCK_CHARS):
        monkeypatch.setattr("geoconn.cli.BLOCK_CHARS", size)
        for number in (1, 3, 4):
            for bad in (lines[number - 1].replace(" ", char, 1), char,
                        f"{lines[number - 1]} {char}"):
                text = "\n".join(lines[:number - 1] + [bad] + lines[number:]) + "\n"
                with pytest.raises(ParseError) as err:
                    parse_hypergraph(text)
                assert (err.value.line, str(err.value)) == (number, message), (size, bad)
            commented = lines[:number - 1] + [f"{lines[number - 1]} # a{char}b",
                                              f"# {char}"] + lines[number:]
            assert parse_hypergraph("\n".join(commented)) == plain, size
    with pytest.raises(ParseError) as err:
        parse_vector(f"1\n0 # {char}\n1{char}2\n")
    assert (err.value.line, str(err.value)) == (3, message)


def test_a_form_feed_names_its_line(tmp_path, capsys):
    # str.splitlines() broke this line in two: "header promises 2 edges,
    # file has 3", on line 1
    path = write(tmp_path, "g.hg", "3 10 2\n1 2 3\n4 5\x0c6\n")
    assert run(["check", path]) == EXIT_INPUT
    assert capsys.readouterr().err == (f"geoconn: error: {path}:3: fields must be separated "
                                       "by spaces and tabs, got '\\x0c'\n")


def test_lines_end_at_lf_crlf_or_cr(tmp_path, capsys, monkeypatch):
    # the line numbers of the library agree with those of the command line,
    # which reads the file in text mode
    text = "# CR\r3 9 3\r\n1 2 3\n\r4 5 6\r7 8 x\r\n"
    with pytest.raises(ParseError) as err:
        parse_hypergraph(text)
    assert err.value.line == 6
    path = tmp_path / "g.hg"
    path.write_bytes(text.encode())
    for size in (1, 8, BLOCK_CHARS):
        monkeypatch.setattr("geoconn.cli.BLOCK_CHARS", size)
        assert run(["components", str(path)]) == EXIT_INPUT
        assert f"{path}:6: edge line must hold" in capsys.readouterr().err
        for ends in ("\n", "\r\n", "\r"):
            assert parse_hypergraph(text.replace("x", "9").replace("\r\n", ends)).m == 3


def test_parse_scalar_forms():
    assert parse_scalar("7") == 7 and isinstance(parse_scalar("7"), int)
    assert parse_scalar("-3") == -3
    assert parse_scalar("1/3") == Fraction(1, 3)
    assert parse_scalar("-2/5") == Fraction(-2, 5)
    assert parse_scalar("0.5") == 0.5 and isinstance(parse_scalar("0.5"), float)
    assert parse_scalar("1e-3") == 1e-3
    for bad in ("abc", "1/0", "1//2", "0x3", "nan", "inf", "-inf", "1e400"):
        with pytest.raises(ParseError):
            parse_scalar(bad)


def test_parse_vector_mixed_lines_and_comments():
    values = parse_vector("# v\n1\n1/2 0.25\n\n-3\n")
    assert values == [1, Fraction(1, 2), 0.25, -3]
    with pytest.raises(ParseError):
        parse_vector("# nothing\n")
    with pytest.raises(ParseError) as err:
        parse_vector("1\nbad\n")
    assert err.value.line == 2


def test_components_text_and_json(tmp_path, capsys):
    path = write(tmp_path, "g.hg", TWO_COMPONENTS)
    assert run(["components", path]) == EXIT_OK
    out = capsys.readouterr().out
    assert out.splitlines()[0] == "components: 3"
    assert run(["components", path, "--format", "json"]) == EXIT_OK
    document = json.loads(capsys.readouterr().out)
    assert document == {"components": 3,
                        "parts": [[1, 2, 3], [4, 5, 6], [7]]}


def test_beta_text_and_exact_json(tmp_path, capsys):
    path = write(tmp_path, "g.hg", SINGLE_EDGE)
    assert run(["beta", path]) == EXIT_OK
    out = capsys.readouterr().out.splitlines()
    assert out[0] == "beta = 1"
    assert out[1] == "certificate 1: (1, 1, 1, 1) residual 0 (exact)"
    assert run(["beta", path, "--z", "--format", "json"]) == EXIT_OK
    document = json.loads(capsys.readouterr().out)
    assert document["beta_z"] == 1
    cert = document["certificates"][0]
    assert cert["vector"] == ["1/2", "1/2", "1/2", "1/2"]
    assert cert["residual"] == "0"
    assert cert["exact"] is True
    assert cert["variant"] == "Z"


def test_verify_accepts_and_rejects(tmp_path, capsys):
    g = write(tmp_path, "g.hg", SINGLE_EDGE)
    good = write(tmp_path, "good.vec", "1\n1\n-1\n-1\n")
    assert run(["verify", g, "--vector", good, "--lambda", "0"]) == EXIT_OK
    assert capsys.readouterr().out.strip() == "ACCEPTED residual 0 (exact)"
    bad = write(tmp_path, "bad.vec", "1\n1\n1\n-1\n")
    assert run(["verify", g, "--vector", bad, "--lambda", "0"]) == EXIT_MISMATCH
    assert capsys.readouterr().out.startswith("REJECTED")


def test_verify_refuses_non_finite_numbers(tmp_path, capsys):
    # all but the inf vector used to print ACCEPTED: the defect loop skipped NaN
    g = write(tmp_path, "p.hg", "2 3 2\n1 2\n2 3\n")
    ones = write(tmp_path, "ones.vec", "1\n1\n1\n")
    cases = [("1\nnan\n1\n", ["--lambda", "0"], ":2: number 'nan' is not finite"),
             ("inf\n1\n1\n", ["--lambda", "0"], ":1: number 'inf' is not finite"),
             (None, ["--lambda", "nan"], "--lambda: number 'nan' is not finite"),
             ("nan\n1\n1\n", ["--lambda", "0", "--z"], ":1: number 'nan' is not finite")]
    for text, extra, message in cases:
        vector = write(tmp_path, "v.vec", text) if text else ones
        assert run(["verify", g, "--vector", vector] + extra) == EXIT_INPUT
        captured = capsys.readouterr()
        assert captured.out == ""
        assert message in captured.err


def test_verify_rejects_a_check_that_overflows(tmp_path, capsys):
    # each of these used to end in an OverflowError traceback
    g = write(tmp_path, "e.hg", "3 3 1\n1 2 3\n")
    cases = [("1e200\n1\n1\n", "0"), (f"{10 ** 400}\n1\n1\n", "0.5")]
    for text, lam in cases:
        vector = write(tmp_path, "v.vec", text)
        for extra in ([], ["--z"]):
            argv = ["verify", g, "--vector", vector, "--lambda", lam] + extra
            assert run(argv) == EXIT_MISMATCH
            captured = capsys.readouterr()
            assert captured.out == "REJECTED residual nan\n"
            assert captured.err == ""


def test_verify_tensor_choices_and_z(tmp_path, capsys):
    g = write(tmp_path, "g.hg", SINGLE_EDGE)
    ones = write(tmp_path, "ones.vec", "1\n1\n1\n1\n")
    assert run(["verify", g, "--vector", ones, "--lambda", "1",
                "--tensor", "adjacency"]) == EXIT_OK
    half = write(tmp_path, "half.vec", "1/2\n1/2\n1/2\n1/2\n")
    assert run(["verify", g, "--vector", half, "--lambda", "0", "--z"]) == EXIT_OK
    capsys.readouterr()
    assert run(["verify", g, "--vector", half, "--lambda", "0", "--z",
                "--format", "json"]) == EXIT_OK
    document = json.loads(capsys.readouterr().out)
    assert document["accepted"] is True
    assert document["exact"] is True
    assert document["residual"] == "0"


def test_perron_text_and_shifted(tmp_path, capsys):
    path = write(tmp_path, "g.hg", CYCLE)
    assert run(["perron", path]) == EXIT_OK
    out = capsys.readouterr().out
    assert out.splitlines()[0] == "rho: 2.0"
    assert run(["perron", path, "--tensor", "laplacian-shifted",
                "--format", "json"]) == EXIT_OK
    document = json.loads(capsys.readouterr().out)
    assert float(document["rho"]) == pytest.approx(2.0, abs=1e-9)
    assert document["iterations"] >= 1


def test_perron_error_exit_codes(tmp_path, capsys):
    disconnected = write(tmp_path, "d.hg", TWO_COMPONENTS)
    assert run(["perron", disconnected]) == EXIT_INPUT
    path = write(tmp_path, "p3.hg", "2 3 2\n1 2\n2 3\n")
    assert run(["perron", path, "--max-iter", "1"]) == EXIT_NO_CONVERGENCE
    capsys.readouterr()
    # perron offers only the views that can be nonnegative and connected
    with pytest.raises(SystemExit) as exc:
        run(["perron", path, "--tensor", "laplacian"])
    assert exc.value.code == EXIT_INPUT
    assert "argument --tensor" in capsys.readouterr().err
    with pytest.raises(NotNonnegative, match="negative off-diagonal entries"):
        perron(laplacian(parse_hypergraph("2 3 2\n1 2\n2 3\n")))


def test_beta_prints_rejected_certificates_then_exits_1(tmp_path, capsys):
    # the Z certificate of a 5-vertex component is a float, so --tol 0 rejects it
    path = write(tmp_path, "g.hg", TIGHT_CYCLE)
    assert run(["beta", path, "--z", "--tol", "0"]) == EXIT_MISMATCH
    out = capsys.readouterr().out.splitlines()
    assert out[0] == "beta_z = 0"
    assert out[1].startswith("certificate 1: (0.4472135954999579, ")
    assert run(["beta", path, "--z", "--tol", "0", "--format", "json"]) == EXIT_MISMATCH
    document = json.loads(capsys.readouterr().out)
    assert document["beta_z"] == 0
    assert len(document["certificates"][0]["vector"]) == 5
    assert float(document["certificates"][0]["residual"]) > 0


def run_in_address_space(*argv, limit=1 << 30):
    """``geoconn *argv`` in a subprocess limited to a ``limit``-byte address
    space, 1 GB by default."""
    def cap_address_space():
        resource.setrlimit(resource.RLIMIT_AS, (limit, limit))

    return subprocess.run([sys.executable, "-m", "geoconn.cli", *argv],
                          capture_output=True, text=True, preexec_fn=cap_address_space,
                          timeout=120)


def test_check_on_many_isolated_vertices_stays_small(tmp_path):
    # 20000 components: the analysis keeps one component-local vector per
    # certificate, so it needs O(n) memory, not O(r*n)
    done = run_in_address_space("check", write(tmp_path, "g.hg", "2 20000 0\n"))
    assert done.returncode == EXIT_OK, done.stderr
    assert done.stdout.splitlines()[-1] == "beta = 20000 = components"


def test_check_on_one_edge_of_100000_vertices(tmp_path):
    # the witness check used to scan the reaching edge once per vertex,
    # O(n*k): 41.7 s here; one pass over the forest takes well under a second
    labels = " ".join(map(str, range(1, 100001)))
    path = write(tmp_path, "g.hg", f"100000 100000 1\n{labels}\n")
    done = subprocess.run([sys.executable, "-m", "geoconn.cli", "check", path],
                          capture_output=True, text=True, timeout=20)
    assert done.returncode == EXIT_OK, done.stderr
    assert done.stdout.splitlines()[-1] == "beta = 1 = components"


def linear_connected_file(n: int, m: int, seed: int) -> str:
    """A connected 3-uniform file with n vertices and m edges: each vertex
    from 4 on joins an edge with two earlier ones, then random distinct
    edges fill up to m."""
    rng = random.Random(seed)
    edges = {(1, 2, 3)}
    edges.update(tuple(sorted((v, *rng.sample(range(1, v), 2)))) for v in range(4, n + 1))
    while len(edges) < m:
        edges.add(tuple(sorted(rng.sample(range(1, n + 1), 3))))
    return f"3 {n} {m}\n" + "".join(f"{a} {b} {c}\n" for a, b, c in edges)


def test_check_of_100000_vertices_fits_in_112_megabytes(tmp_path):
    # parsed a block at a time into shared labels and rows sorted once, the
    # ingest peaks near the size of the hypergraph; it needed more than 144 MB
    path = write(tmp_path, "g.hg", linear_connected_file(100_000, 300_000, seed=19))
    done = run_in_address_space("check", path, limit=112 << 20)
    assert done.returncode == EXIT_OK, done.stderr
    assert done.stdout.splitlines()[-1] == "beta = 1 = components"


def test_padded_output_is_written_in_256_megabytes(tmp_path):
    # 5000 vectors of length 5000, 326 MB of output: rendered as runs of
    # zeros and written in batches, the output needs O(n) memory, where
    # the whole text used to end in a MemoryError under this limit
    path = write(tmp_path, "g.hg", "2 5000 0\n")
    for argv in (["report", path], ["beta", path, "--z", "--format", "json"]):
        done = run_in_address_space(*argv, "--out", os.devnull, limit=256 << 20)
        assert done.returncode == EXIT_OK, done.stderr
        assert done.stdout == done.stderr == ""


def test_closed_stdout_exits_2_without_a_traceback(tmp_path):
    # a reader that stops early, like `geoconn report g.hg | head`, used to
    # get a BrokenPipeError traceback and exit 1
    path = write(tmp_path, "g.hg", "2 2000 0\n")
    with subprocess.Popen([sys.executable, "-m", "geoconn.cli", "report", path],
                          stdout=subprocess.PIPE, stderr=subprocess.PIPE) as child:
        assert len(child.stdout.read(100)) == 100
        child.stdout.close()
        _, stderr = child.communicate(timeout=120)
    assert (child.returncode, stderr) == (EXIT_INPUT, b"")


def test_huge_header_is_refused_before_allocating(tmp_path):
    # n = 10^9 used to end in a MemoryError traceback under this limit
    path = write(tmp_path, "g.hg", "2 1000000000 0\n")
    for command in ("check", "components"):
        done = run_in_address_space(command, path)
        assert done.returncode == EXIT_INPUT, done.stderr
        assert done.stdout == ""
        assert f"g.hg:1: vertex count n must be at most {MAX_VERTICES}" in done.stderr
    # an edgeless header with k = 10^12 used to make verify compute 2 ** (k - 1)
    path = write(tmp_path, "k.hg", "1000000000000 3 0\n")
    vector = write(tmp_path, "v.vec", "2\n1\n1\n")
    done = run_in_address_space("verify", path, "--vector", vector, "--lambda", "0")
    assert done.returncode == EXIT_INPUT, done.stderr
    assert done.stdout == ""
    assert "k.hg:1: uniformity k must be at most n = 3" in done.stderr


def test_running_out_of_memory_exits_2_with_one_line(tmp_path):
    # a legal file of 100,000 edges needs about 90 MB to check; out of
    # memory used to end in a MemoryError traceback with exit 1, the code
    # of a rejected certificate
    lines = ["3 300000 100000"]
    lines += [f"{3 * j + 1} {3 * j + 2} {3 * j + 3}" for j in range(100000)]
    path = write(tmp_path, "g.hg", "\n".join(lines) + "\n")
    done = run_in_address_space("check", path, limit=48 << 20)
    assert done.returncode == EXIT_INPUT, done.stderr
    assert done.stdout == ""
    assert done.stderr == "geoconn: error: out of memory\n"


def test_non_utf8_hypergraph_file_exits_2(tmp_path, capsys):
    # used to end in a UnicodeDecodeError traceback with exit 1
    bad_graph = tmp_path / "bad.hg"
    bad_graph.write_bytes(b"3 3 1\n1 2 \xff\n")
    assert run(["check", str(bad_graph)]) == EXIT_INPUT
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"geoconn: error: {bad_graph}: byte 10 is not UTF-8\n"


def test_non_utf8_vector_file_exits_2(tmp_path, capsys):
    # used to end in a UnicodeDecodeError traceback with exit 1
    g = write(tmp_path, "e.hg", "3 3 1\n1 2 3\n")
    bad_vector = tmp_path / "bad.vec"
    bad_vector.write_bytes(b"1\n1\n\xfe\n")
    assert run(["verify", g, "--vector", str(bad_vector), "--lambda", "0"]) == EXIT_INPUT
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"geoconn: error: {bad_vector}: byte 4 is not UTF-8\n"


def test_parse_errors_exit_2(tmp_path, capsys):
    assert run(["beta", str(tmp_path / "missing.hg")]) == EXIT_INPUT
    bad = write(tmp_path, "bad.hg", "4 4 1\n1 2 3\n")
    assert run(["beta", bad]) == EXIT_INPUT
    err = capsys.readouterr().err
    assert "bad.hg:2" in err
    # int() reads 1_0 as vertex 10, which once gave 9 components
    loose = write(tmp_path, "loose.hg", "2 1_0 1\n1 1_0\n")
    assert run(["components", loose]) == EXIT_INPUT
    assert "loose.hg:1: header must be 'k n m'" in capsys.readouterr().err


def test_check_passes_on_good_input(tmp_path, capsys):
    for text, count in ((SINGLE_EDGE, 1), (TWO_COMPONENTS, 3), (CYCLE, 1),
                        ("2 3 0\n", 3)):
        path = write(tmp_path, "g.hg", text)
        assert run(["check", path]) == EXIT_OK
        out = capsys.readouterr().out.splitlines()
        assert all(not line.startswith("MISMATCH") for line in out)
        assert out[0].startswith("ok:")
        assert out[-1] == f"beta = {count} = components"


def test_check_two_disjoint_edges(tmp_path, capsys):
    path = write(tmp_path, "g.hg", "3 6 2\n1 2 3\n4 5 6\n")
    assert run(["check", path]) == EXIT_OK
    assert capsys.readouterr().out.splitlines()[-1] == "beta = 2 = components"


def test_report_document_shape(tmp_path, capsys):
    path = write(tmp_path, "g.hg", SINGLE_EDGE)
    assert run(["report", path]) == EXIT_OK
    document = json.loads(capsys.readouterr().out)
    assert list(document) == ["schema_version", "input", "components", "beta",
                              "beta_z", "beta_rho", "connected",
                              "weakly_irreducible", "regular_degree",
                              "certificates", "perron"]
    assert document["schema_version"] == "1"
    assert document["input"] == {"k": 4, "n": 4, "m": 1, "source": path}
    assert document["components"] == [[1, 2, 3, 4]]
    assert document["beta"] == 1 and document["beta_rho"] == 1
    assert document["connected"] is True
    assert document["perron"]["iterations"] >= 1
    assert list(document["certificates"][0]) == ["vector", "lambda", "variant",
                                                 "residual", "exact"]
    assert len(document["certificates"]) == document["beta"]
    assert len(document["components"]) == document["beta"]


def test_report_disconnected_has_no_perron_block(tmp_path, capsys):
    path = write(tmp_path, "g.hg", TWO_COMPONENTS)
    assert run(["report", path]) == EXIT_OK
    document = json.loads(capsys.readouterr().out)
    assert document["connected"] is False
    assert document["perron"] is None
    assert document["beta_rho"] is None
    assert document["components"] == [[1, 2, 3], [4, 5, 6], [7]]


def test_report_perron_block_matches_the_power_iteration(tmp_path, capsys, monkeypatch):
    # the report states the shifted Laplacian's Perron pair in closed form
    path = write(tmp_path, "g.hg", "3 6 3\n1 2 3\n3 4 5\n2 5 6\n")
    assert run(["perron", path, "--tensor", "laplacian-shifted", "--format", "json"]) == EXIT_OK
    solved = json.loads(capsys.readouterr().out)
    monkeypatch.setattr("geoconn.spectral.perron", None)
    monkeypatch.setattr("geoconn.cli.perron", None)
    assert run(["report", path]) == EXIT_OK
    block = json.loads(capsys.readouterr().out)["perron"]
    assert float(block["rho"]) == float(solved["rho"]) == 2.0
    assert block["vector"] == solved["vector"] == ["1.0"] * 6


def test_report_rejected_perron_pair_exits_1(tmp_path, capsys, monkeypatch):
    from geoconn import apply

    # the Perron pair is restated from the Laplacian certificate
    def perturbed(view, x):
        out = apply(view, x)
        if view.sign < 0:  # the Laplacian
            out[0] += 1
        return out

    path = write(tmp_path, "g.hg", SINGLE_EDGE)
    with monkeypatch.context() as patch:
        patch.setattr("geoconn.spectral.apply", perturbed)
        assert run(["report", path]) == EXIT_MISMATCH
    assert json.loads(capsys.readouterr().out)["perron"] is None
    # any rejected certificate fails the report, here the inexact Z ones
    path = write(tmp_path, "g.hg", TIGHT_CYCLE)
    assert run(["report", path, "--tol", "0"]) == EXIT_MISMATCH
    document = json.loads(capsys.readouterr().out)
    assert document["beta"] == 1 and document["beta_z"] == 0


def test_analysis_contracts_the_laplacian_once(tmp_path, capsys, monkeypatch):
    # one exact contraction L*1 of the whole hypergraph gives every
    # component's H, Z and rho certificate and the report's Perron block,
    # and one degree pass gives L and the regular degree
    from geoconn import apply, degrees

    views = []
    degree_passes = []

    def counted(view, x):
        views.append("laplacian" if view.sign < 0 else "nonnegative")
        return apply(view, x)

    def counted_degrees(g):
        degree_passes.append(g.n)
        return degrees(g)

    monkeypatch.setattr("geoconn.spectral.apply", counted)
    for module in ("hypergraph", "tensor", "cli"):
        monkeypatch.setattr(f"geoconn.{module}.degrees", counted_degrees)
    for text, count in ((CYCLE, 1), (TWO_COMPONENTS, 3)):
        path = write(tmp_path, "g.hg", text)
        outputs = {}
        for argv in (["report", path], ["check", path], ["beta", path, "--z"]):
            views.clear()
            degree_passes.clear()
            assert run(argv) == EXIT_OK
            outputs[argv[0]] = capsys.readouterr().out
            assert views == ["laplacian"], argv
            # the report's Perron block takes the maximum degree once more
            perron_block = argv[0] == "report" and count == 1
            assert len(degree_passes) == 1 + perron_block, argv
        document = json.loads(outputs["report"])
        assert document["beta_z"] == count
        assert (document["perron"] is not None) == (count == 1)
        assert outputs["check"].splitlines()[-1] == f"beta = {count} = components"
        assert outputs["beta"].splitlines()[0] == f"beta_z = {count}"


def test_out_writes_file(tmp_path, capsys):
    g = write(tmp_path, "g.hg", SINGLE_EDGE)
    target = tmp_path / "report.json"
    assert run(["report", g, "--out", str(target)]) == EXIT_OK
    assert capsys.readouterr().out == ""
    document = json.loads(target.read_text())
    assert document["beta"] == 1


def loose_chains(sizes, isolated):
    """A 3-uniform hypergraph file: one loose chain of s edges for each s in
    sizes, then ``isolated`` isolated vertices."""
    edges, first = [], 1
    for size in sizes:
        edges += [(first + 2 * i, first + 2 * i + 1, first + 2 * i + 2) for i in range(size)]
        first += 2 * size + 1
    n = first - 1 + isolated
    return f"3 {n} {len(edges)}\n" + "".join(f"{a} {b} {c}\n" for a, b, c in edges)


def test_batches_do_not_change_the_bytes(tmp_path, capsys, monkeypatch):
    # stdout and --out print the same bytes in batches of any size
    chains = write(tmp_path, "chains.hg", loose_chains([1, 2, 3] * 10, isolated=7))
    target = tmp_path / "out.txt"
    for argv in (["report", chains], ["beta", chains], ["components", chains]):
        assert run(argv) == EXIT_OK
        whole = capsys.readouterr().out
        for size in (1, 7, 4096):
            monkeypatch.setattr("geoconn.cli.EMIT_CHARS", size)
            assert run(argv) == EXIT_OK
            assert capsys.readouterr().out == whole, (argv, size)
            assert run([*argv, "--out", str(target)]) == EXIT_OK
            assert target.read_bytes() == whole.encode(), (argv, size)
        monkeypatch.undo()


def test_block_size_does_not_change_the_bytes(tmp_path, capsys, monkeypatch):
    # blocks of one character or a few lines print what the default prints
    text = loose_chains([1, 2, 3] * 10, isolated=7).replace("\n", "  # edge\r\n", 5)
    chains = write(tmp_path, "chains.hg", text)
    for argv in (["components", chains], ["check", chains], ["report", chains]):
        assert run(argv) == EXIT_OK
        whole = capsys.readouterr().out
        for size in (1, 30):
            monkeypatch.setattr("geoconn.cli.BLOCK_CHARS", size)
            assert run(argv) == EXIT_OK
            assert capsys.readouterr().out == whole, (argv, size)
        monkeypatch.undo()


def test_unwritable_out_exits_2(tmp_path, capsys, monkeypatch):
    g = write(tmp_path, "g.hg", TWO_COMPONENTS)
    targets = [tmp_path, tmp_path / "missing" / "x.json"]
    if os.path.exists("/dev/full"):
        # every write fails there, so the error comes mid-output
        targets.append("/dev/full")
        monkeypatch.setattr("geoconn.cli.EMIT_CHARS", 1)
    for target in targets:
        for argv in (["report", g], ["beta", g], ["check", g]):
            assert run([*argv, "--out", str(target)]) == EXIT_INPUT, (argv, target)
            captured = capsys.readouterr()
            assert captured.out == ""
            assert captured.err.startswith(f"geoconn: error: cannot write {target}: ")
            assert captured.err.count("\n") == 1


def test_json_output_is_json_dumps_indent_2(tmp_path, capsys):
    # every JSON document is printed exactly as json.dumps(document, indent=2)
    chains = write(tmp_path, "chains.hg", loose_chains([1, 2, 3] * 10, isolated=7))
    cycle = write(tmp_path, "cycle.hg", TIGHT_CYCLE)
    ones = write(tmp_path, "ones.vec", "1\n1\n1\n1\n1\n")
    commands = [["report", chains], ["beta", chains, "--format", "json"],
                ["beta", chains, "--z", "--format", "json"],
                ["components", chains, "--format", "json"],
                ["perron", cycle, "--format", "json"],
                ["verify", cycle, "--vector", ones, "--lambda", "0", "--format", "json"]]
    target = tmp_path / "out.json"
    for argv in commands:
        assert run(argv) == EXIT_OK, argv
        out = capsys.readouterr().out
        assert out == json.dumps(json.loads(out), indent=2) + "\n", argv
        if argv[0] == "report":
            assert json.loads(out)["beta"] == 30 + 7
        assert run([*argv, "--out", str(target)]) == EXIT_OK
        assert capsys.readouterr().out == ""
        assert target.read_bytes() == out.encode(), argv


def test_bad_usage_raises_system_exit(capsys):
    with pytest.raises(SystemExit):
        run(["perron", "x.hg", "--tensor", "bogus"])
    # each subcommand accepts only the flags it reads
    for argv in (["check", "x.hg", "--format", "json"], ["report", "x.hg", "--max-iter", "5"],
                 ["components", "x.hg", "--tol", "0.1"], ["beta", "x.hg", "--max-iter", "5"]):
        with pytest.raises(SystemExit):
            run(argv)
    # a tolerance must be finite and >= 0, an iteration cap >= 1
    for argv in (["check", "x.hg", "--tol", "nan"], ["check", "x.hg", "--tol", "-1"],
                 ["beta", "x.hg", "--tol", "inf"], ["report", "x.hg", "--tol", "x"],
                 ["perron", "x.hg", "--max-iter", "0"], ["perron", "x.hg", "--max-iter", "-5"],
                 ["perron", "x.hg", "--max-iter", "2.5"], ["perron", "x.hg", "--tol", "0"]):
        with pytest.raises(SystemExit) as exc:
            run(argv)
        assert exc.value.code == 2
        assert f"argument {argv[2]}" in capsys.readouterr().err
    with pytest.raises(SystemExit):
        run([])

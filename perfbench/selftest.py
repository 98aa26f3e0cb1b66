"""Self-test of the benchmark itself.

    python3 perfbench/selftest.py

1. A tiny-size pass of every workload in both trace modes emits every
   metric BENCHMARK.json names, with its unit, and is correct.
2. Two traced runs with the same seed give identical counts and
   ``cli.out_bytes``.
3. Corrupted outputs (a wrong beta, a nonzero exact residual, a perturbed
   Perron pair, a changed second pass) count as failed and wrong; exit 3
   counts as failed only.
4. In a directory holding only BENCHMARK.json and the benchmark, run.py
   exits non-zero without printing a result.

Prints one line per check and exits 0 when all pass.
"""

from __future__ import annotations

import contextlib
import json
import random
import shutil
import subprocess
import sys
from functools import partial

import gen
import oracle
import run

BENCH = json.loads((run.ROOT / "BENCHMARK.json").read_text())
failures: list[str] = []


def expect(condition: bool, what: str) -> None:
    print(f"{'ok  ' if condition else 'FAIL'} {what}")
    if not condition:
        failures.append(what)


def smoke() -> None:
    for workload in BENCH["workloads"]:
        name = workload["name"]
        for trace, key in ((0, "end_to_end"), (1, "per_layer")):
            result, details = run.benchmark(name, 1, 0, bool(trace), "tiny")
            metrics = result["metrics"]
            declared = {m["name"]: m["unit"] for m in BENCH[key]}
            emitted = {m: v["unit"] for m, v in metrics.items()}
            expect(emitted == declared, f"{name} trace {trace}: emits every {key} metric")
            expect(result["correct"] and result["failed"] == 0,
                   f"{name} trace {trace}: correct, nothing failed {details['failures']}")
            if trace:
                again, _ = run.benchmark(name, 1, 0, True, "tiny")
                counts = {m: v for m, v in metrics.items() if v["unit"] != "s"
                          and m != "trace.overhead_ratio"}
                repeat = {m: again["metrics"][m] for m in counts}
                expect(counts == repeat, f"{name}: counts repeat between traced runs")


def _cli_output(cli, argv):
    _, code, out = run.run_command(cli, run.Command(tuple(argv), None))
    return code, out


def corrupted(cli, work) -> None:
    k, n, edges = gen.random_connected(random.Random(3), 3, 30, 60)
    path = str((work / "g.hg").relative_to(run.ROOT))
    (work / "g.hg").write_text(gen.serialize(k, n, edges))

    code, out = _cli_output(cli, ["check", path])
    expect(oracle.check_check(n, edges, code, out) == oracle.OK, "check: true output passes")
    bad = out.replace("beta = 1 =", "beta = 2 =")
    expect(bad != out and oracle.check_check(n, edges, code, bad).wrong,
           "check: wrong beta is caught")

    code, out = _cli_output(cli, ["report", path])
    doc = json.loads(out)
    expect(oracle.check_report(k, n, edges, path, code, out) == oracle.OK,
           "report: true output passes")
    for what, mutate in (
            ("wrong beta", lambda d: d.update(beta=d["beta"] + 1)),
            ("wrong beta_z", lambda d: d.update(beta_z=2)),
            ("nonzero exact residual", lambda d: d["certificates"][0].update(residual="1/7")),
            ("perturbed Perron rho",
             lambda d: d["perron"].update(rho=repr(float(d["perron"]["rho"]) + 1e-3)))):
        broken = json.loads(out)
        mutate(broken)
        verdict = oracle.check_report(k, n, edges, path, code, json.dumps(broken))
        expect(verdict.failed and verdict.wrong, f"report: {what} is caught")
    expect(doc["perron"] is not None, "report: connected input has a Perron block")

    k, n, edges = gen.loose_path(random.Random(4), 6)
    path = str((work / "p.hg").relative_to(run.ROOT))
    (work / "p.hg").write_text(gen.serialize(k, n, edges))
    code, out = _cli_output(cli, ["perron", path])
    expect(oracle.check_perron(n, edges, run.CLI_TOL, code, out) == oracle.OK,
           "perron: true output passes")
    lines = out.splitlines()
    vector = lines[2].split()
    vector[1] = repr(float(vector[1]) * (1 + 1e-4))
    bad = "\n".join(lines[:2] + [" ".join(vector)]) + "\n"
    verdict = oracle.check_perron(n, edges, run.CLI_TOL, code, bad)
    expect(verdict.failed and verdict.wrong, "perron: perturbed vector is caught")
    verdict = oracle.check_perron(n, edges, run.CLI_TOL, 3, "")
    expect(verdict.failed and not verdict.wrong, "perron: exit 3 is failed, not wrong")

    ledger = run.Ledger()
    command = run.Command(("perron", path),
                          partial(oracle.check_perron, n, edges, run.CLI_TOL))
    ledger.record(command, code, out)
    ledger.record(command, code, out.replace("iterations:", "iterations: 1"))
    expect((ledger.attempted, ledger.failed, ledger.wrong) == (2, 1, 1),
           "ledger: a second pass that differs is caught")


def bare_directory(work) -> None:
    bare = work / "bare"
    bare.mkdir()
    shutil.copy(run.ROOT / "BENCHMARK.json", bare)
    shutil.copytree(run.ROOT / "perfbench", bare / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "connected", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=bare, capture_output=True, text=True, timeout=120)
    expect(proc.returncode != 0 and proc.stdout == "",
           f"bare directory: exit {proc.returncode}, no result printed")


def main() -> int:
    work = run.ROOT / run.WORK / "selftest"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    try:
        smoke()
        corrupted(run.load_cli(), work)
        bare_directory(work)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        with contextlib.suppress(OSError):
            work.parent.rmdir()
    print(f"selftest: {len(failures)} failed")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())

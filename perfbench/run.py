"""Benchmark of the geoconn command line on generated hypergraph files.

    python3 perfbench/run.py --workload connected --seed 1 --seconds 40 --trace 0

Run from the repository root (any directory works; the script finds the
root from its own path). It imports geoconn from ``src/`` of the same tree
and refuses to run against any other copy. Each workload writes its seeded
input files under ``.bench_work/`` and calls ``geoconn.cli.run`` in process,
one command at a time (a closed loop with one client), passing over the
workload's fixed command list until ``--seconds`` would be exceeded.
``gc.collect()`` runs between commands, outside the timed interval. Every
output is checked by ``oracle.py``, which never calls the library.

``--trace 0`` reports the end-to-end metrics; ``--trace 1`` alternates plain
and traced passes (see ``spans.py``) and reports the per-layer metrics of
the traced passes. The last line of stdout is the result object; the line
before it holds the environment stamp, the sample counts and every failure.
See README.md for the metric definitions.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import hashlib
import importlib
import io
import json
import os
import platform
import random
import resource
import shutil
import statistics
import subprocess
import sys
from collections import Counter
from dataclasses import dataclass, field
from functools import partial
from math import exp, lgamma, log, log1p
from pathlib import Path
from time import perf_counter
from typing import Callable

import gen
import oracle
import spans

ROOT = Path(__file__).resolve().parent.parent
WORK = ".bench_work"

# the CLI's documented --tol default; perron's acceptance bound is 10*tol
CLI_TOL = 1e-9

COLD_STARTS = {"full": 21, "tiny": 3}
MIN_PASSES = 3
MIN_TRACED_PAIRS = 2


class ProgramMissing(Exception):
    """The geoconn sources are not in this tree."""


@dataclass(frozen=True)
class Command:
    argv: tuple[str, ...]
    check: Callable[[object, str], oracle.Verdict] = field(compare=False)

    @property
    def label(self) -> str:
        return f"{self.argv[0]} {Path(self.argv[1]).name}"


def _write(work: Path, name: str, spec) -> tuple[str, int, int, list]:
    k, n, edges = spec
    path = work / f"{name}.hg"
    path.write_text(gen.serialize(k, n, edges), encoding="utf-8")
    return str(path.relative_to(ROOT)), k, n, edges


def _check_and_report(work: Path, name: str, spec) -> list[Command]:
    path, k, n, edges = _write(work, name, spec)
    return [Command(("check", path), partial(oracle.check_check, n, edges)),
            Command(("report", path), partial(oracle.check_report, k, n, edges, path))]


def connected(rng: random.Random, work: Path, size: str) -> list[Command]:
    n_a, m_a, n_b = (5000, 15000, 4000) if size == "full" else (60, 150, 40)
    return (_check_and_report(work, "random", gen.random_connected(rng, 3, n_a, m_a))
            + _check_and_report(work, "cycles", gen.tight_cycles(rng, 4, n_b, 2)))


def many_components(rng: random.Random, work: Path, size: str) -> list[Command]:
    if size == "full":
        spec = gen.many_chains(rng)
    else:
        spec = gen.many_chains(rng, ((3, 3), (4, 3), (9, 2), (16, 1)), 5)
    return _check_and_report(work, "chains", spec)


def perron_paths(rng: random.Random, work: Path, size: str) -> list[Command]:
    lengths = (20, 40, 80, 120) if size == "full" else (2, 4, 8, 16)
    commands = []
    for length in lengths:
        path, _, n, edges = _write(work, f"path{length}", gen.loose_path(rng, length))
        commands.append(Command(("perron", path),
                                partial(oracle.check_perron, n, edges, CLI_TOL)))
    return commands


WORKLOADS = {
    "connected": connected,
    "many-components": many_components,
    "perron-paths": perron_paths,
}


def load_cli():
    """Import geoconn.cli from this tree's src/, and only from there."""
    src = ROOT / "src"
    if not (src / "geoconn" / "cli.py").is_file():
        raise ProgramMissing(f"no geoconn sources under {src}")
    sys.path.insert(0, str(src))
    cli = importlib.import_module("geoconn.cli")
    if Path(cli.__file__).resolve().parent != (src / "geoconn").resolve():
        raise ProgramMissing(f"imported geoconn from {cli.__file__}, not from {src}")
    return cli


def _git_sha() -> str | None:
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def stamp() -> dict:
    try:
        nproc = len(os.sched_getaffinity(0))
    except AttributeError:
        nproc = os.cpu_count()
    return {"python": platform.python_version(), "git_sha": _git_sha(),
            "nproc": nproc, "loadavg": list(os.getloadavg())}


class Ledger:
    """Verdicts of every command run. A command's first output is checked by
    its oracle; a later pass must print the same bytes with the same exit
    code, or it counts as wrong."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.wrong = 0
        self.reasons: Counter[tuple[str, str]] = Counter()
        self._first: dict[Command, tuple[object, bytes, oracle.Verdict]] = {}

    def record(self, command: Command, code, out: str) -> None:
        digest = hashlib.sha256(out.encode()).digest()
        if command in self._first:
            first_code, first_digest, verdict = self._first[command]
            if (code, digest) != (first_code, first_digest):
                verdict = oracle.Verdict(True, True, "output differs from the first pass")
        else:
            verdict = command.check(code, out)
            self._first[command] = (code, digest, verdict)
        self.add(command.label, verdict)

    def add(self, label: str, verdict: oracle.Verdict) -> None:
        self.attempted += 1
        self.failed += verdict.failed
        self.wrong += verdict.wrong
        if verdict.failed:
            self.reasons[(label, verdict.reason)] += 1

    def failures(self) -> list[dict]:
        return [{"command": label, "reason": reason, "count": count}
                for (label, reason), count in sorted(self.reasons.items())]


def run_command(cli, command: Command) -> tuple[float, object, str]:
    """One in-process CLI call: (seconds, exit code, stdout)."""
    gc.collect()
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out):
        t0 = perf_counter()
        try:
            code = cli.run(list(command.argv), stderr=err)
        except SystemExit as exc:
            code = exc.code
        except Exception as exc:
            # a crash is a wrong answer; the run goes on and reports it
            code = f"{type(exc).__name__}: {exc}"
        elapsed = perf_counter() - t0
    return elapsed, code, out.getvalue()


def run_pass(cli, commands: list[Command], ledger: Ledger) -> tuple[float, list[float], int]:
    """(pass seconds, per-command seconds, stdout bytes) of one pass."""
    times = []
    out_bytes = 0
    for command in commands:
        elapsed, code, out = run_command(cli, command)
        times.append(elapsed)
        out_bytes += len(out.encode())
        ledger.record(command, code, out)
    return sum(times), times, out_bytes


def _should_stop(start: float, rounds: int, minimum: int, seconds: float) -> bool:
    # stop before a round that would end after the deadline
    spent = perf_counter() - start
    return rounds >= minimum and spent + spent / rounds > seconds


def cold_starts(work: Path, count: int, ledger: Ledger) -> list[float]:
    """Wall times of fresh interpreters running ``geoconn components`` on a
    one-edge file; one untimed start first compiles the bytecode cache.
    Verdicts go to their own ledger: they are not workload commands."""
    path, _, n, edges = _write(work, "one-edge", (3, 3, [(1, 2, 3)]))
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    argv = [sys.executable, "-m", "geoconn.cli", "components", path]
    check = partial(oracle.check_components, n, edges)
    times = []
    for i in range(count + 1):
        t0 = perf_counter()
        proc = subprocess.run(argv, cwd=ROOT, env=env, capture_output=True,
                              text=True, timeout=60)
        elapsed = perf_counter() - t0
        if i:
            times.append(elapsed)
            ledger.add("cold-start components", check(proc.returncode, proc.stdout))
    return times


def harrell_davis(samples: list[float], p: float) -> float:
    """Harrell-Davis estimate of the p-quantile: a Beta((n+1)p, (n+1)(1-p))
    weighted mean of all order statistics. On a few dozen samples it moves
    less from run to run than interpolating between the two nearest ones."""
    ordered = sorted(samples)
    n = len(ordered)
    a, b = p * (n + 1), (1 - p) * (n + 1)
    log_norm = lgamma(a + b) - lgamma(a) - lgamma(b)
    grid = 256
    weights = []
    for i in range(n):
        # the Beta mass on [i/n, (i+1)/n], by the midpoint rule
        points = ((i + (j + 0.5) / grid) / n for j in range(grid))
        weights.append(sum(exp(log_norm + (a - 1) * log(x) + (b - 1) * log1p(-x))
                           for x in points))
    return sum(w * x for w, x in zip(weights, ordered)) / sum(weights)


def end_to_end(cli, commands, ledger, seconds, work, size) -> tuple[dict, dict]:
    starts = Ledger()
    setup = cold_starts(work, COLD_STARTS[size], starts)
    pass_times: list[float] = []
    per_pass: list[list[float]] = []
    start = perf_counter()
    while not _should_stop(start, len(pass_times), MIN_PASSES, seconds):
        total, times, _ = run_pass(cli, commands, ledger)
        pass_times.append(total)
        per_pass.append(times)
    cmd_times = [t for times in per_pass for t in times]
    # The host's speed switches between a fast and a slow state every few
    # passes. A median picks one of the two and flips between them from run
    # to run; a mean over the run weighs both by the time spent in each.
    # The commands of a workload differ in cost by up to 100x, so the plain
    # sample median falls between two commands' times and swings with the
    # extremes of each; the median of each command's mean does not.
    typical = [statistics.fmean(column) for column in zip(*per_pass)]
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    metrics = {
        "batch_s": (statistics.fmean(pass_times), "s"),
        "cmd_p50_s": (statistics.median(typical), "s"),
        "cmd_p90_s": (harrell_davis(cmd_times, 0.9), "s"),
        "peak_rss_mb": (rss_mb, "MB"),
        "setup_s": (statistics.median(setup), "s"),
    }
    details = {"passes": len(pass_times), "cmd_samples": len(cmd_times),
               "cold_starts": len(setup), "cold_start_failures": starts.failures()}
    return metrics, details


def _ratio(part: float, whole: float) -> float:
    return part / whole if whole else 0.0


def layer_metrics(stats: dict, out_bytes: int) -> dict:
    """Per-layer values of one traced pass, keyed by metric name."""
    def get(span, key):
        return stats.get(span, {}).get(key, 0)

    values = {"cli.out_bytes": (out_bytes, "bytes")}
    timed = ("cli.run", "cli.parse_hypergraph", "hypergraph.construct",
             "hypergraph.induced", "hypergraph.connected_components",
             "hypergraph.degrees", "tensor.apply", "tensor.is_weakly_irreducible",
             "spectral.geometry_connectivity", "spectral.verify_h_eigenpair",
             "spectral.verify_z_eigenpair", "spectral.perron")
    for span in timed:
        values[f"{span}.self_s"] = (get(span, "self_s"), "s")
    counted = ("hypergraph.induced", "hypergraph.connected_components",
               "hypergraph.degrees", "tensor.apply", "tensor.is_weakly_irreducible",
               "spectral.geometry_connectivity", "spectral.z_geometry_connectivity",
               "spectral.rho_connectivity", "spectral.verify_h_eigenpair",
               "spectral.verify_z_eigenpair", "spectral.perron")
    for span in counted:
        values[f"{span}.calls"] = (get(span, "calls"), "count")
    values["tensor.apply.entries"] = (get("tensor.apply", "entries"), "count")
    values["tensor.apply.useful_ratio"] = (
        _ratio(get("tensor.apply", "nonzero"), get("tensor.apply", "entries")), "ratio")
    values["tensor.support_arcs"] = (get("tensor.support_digraph", "arcs"), "count")
    values["spectral.perron.iterations"] = (get("spectral.perron", "iterations"), "count")
    values["spectral.perron.failed"] = (get("spectral.perron", "failed"), "count")
    values["spectral.perron.vacuous_ratio"] = (
        _ratio(get("spectral.perron", "vacuous"), get("spectral.perron", "calls")), "ratio")
    return values


def per_layer(cli, commands, ledger, seconds) -> tuple[dict, dict]:
    plain: list[float] = []
    traced: list[float] = []
    layers: list[dict] = []
    start = perf_counter()
    while not _should_stop(start, len(traced), MIN_TRACED_PAIRS, seconds):
        plain.append(run_pass(cli, commands, ledger)[0])
        with spans.Tracer() as tracer:
            total, _, out_bytes = run_pass(cli, commands, ledger)
        traced.append(total)
        layers.append(layer_metrics(tracer.stats, out_bytes))
    metrics = {}
    unsteady = []
    for name, (_, unit) in layers[0].items():
        samples = [layer[name][0] for layer in layers]
        if unit == "s":
            metrics[name] = (statistics.median(samples), unit)
        else:
            metrics[name] = (samples[0], unit)
            if any(s != samples[0] for s in samples):
                unsteady.append(name)
    metrics["trace.overhead_ratio"] = (
        statistics.median(traced) / statistics.median(plain), "ratio")
    metrics["failed_ratio"] = (_ratio(ledger.failed, ledger.attempted), "ratio")
    details = {"traced_passes": len(traced), "plain_passes": len(plain),
               "counts_differ_between_passes": unsteady}
    return metrics, details


def benchmark(workload: str, seed: int, seconds: float, trace: bool,
              size: str = "full") -> tuple[dict, dict]:
    """Run one workload; returns (result object, details)."""
    environment = stamp()
    cli = load_cli()
    work = ROOT / WORK / f"{workload}-{seed}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    try:
        commands = WORKLOADS[workload](random.Random(seed), work, size)
        ledger = Ledger()
        if trace:
            metrics, details = per_layer(cli, commands, ledger, seconds)
        else:
            metrics, details = end_to_end(cli, commands, ledger, seconds, work, size)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        with contextlib.suppress(OSError):
            work.parent.rmdir()
    correct = (ledger.wrong == 0 and not details.get("cold_start_failures")
               and not details.get("counts_differ_between_passes"))
    result = {
        "correct": correct,
        "attempted": ledger.attempted,
        "failed": ledger.failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }
    details = {"workload": workload, "seed": seed, "trace": int(trace), "size": size,
               "stamp": environment, **details,
               "failed_ratio": _ratio(ledger.failed, ledger.attempted),
               "failures": ledger.failures()}
    return result, details


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    try:
        result, details = benchmark(args.workload, args.seed, args.seconds,
                                    bool(args.trace))
    except ProgramMissing as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    for failure in details["failures"] + details.get("cold_start_failures", []):
        print(f"perfbench: failed {failure['count']}x: {failure['command']}: "
              f"{failure['reason']}", file=sys.stderr)
    print(json.dumps(details))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""Per-layer spans recorded from outside the program.

``Tracer.install`` replaces the public functions named in ``SPANS`` by timing
wrappers in every ``geoconn`` module that refers to them (the modules import
each other's functions by name, so ``geoconn.spectral.apply`` and
``geoconn.tensor.apply`` are separate references to the same function);
``uninstall`` puts the originals back. A span's self time is its duration
minus the time spent in the wrapped calls it made, including their
bookkeeping, so the bookkeeping lands in no span's self time.
"""

from __future__ import annotations

import sys
from time import perf_counter

# (module, function) pairs timed as spans, named "<module>.<function>"
SPANS = (
    ("cli", "run"),
    ("cli", "parse_hypergraph"),
    ("hypergraph", "construct"),
    ("hypergraph", "induced"),
    ("hypergraph", "connected_components"),
    ("hypergraph", "degrees"),
    ("tensor", "apply"),
    ("tensor", "is_weakly_irreducible"),
    ("spectral", "geometry_connectivity"),
    ("spectral", "z_geometry_connectivity"),
    ("spectral", "rho_connectivity"),
    ("spectral", "verify_h_eigenpair"),
    ("spectral", "verify_z_eigenpair"),
    ("spectral", "perron"),
)


def _count_apply(stats, args, result, error):
    xs = args[1]
    stats["entries"] += len(xs)
    stats["nonzero"] += len(xs) - xs.count(0)


def _count_perron(stats, args, result, error):
    if result is not None:
        stats["iterations"] += result.iterations
        stats["vacuous"] += result.iterations == 1
    elif getattr(error, "iterations", None) is not None:
        stats["iterations"] += error.iterations
        stats["failed"] += 1


def _count_arcs(stats, args, result, error):
    if result is not None:
        stats["arcs"] += sum(map(len, result.values()))


COUNTERS = {
    "tensor.apply": (_count_apply, ("entries", "nonzero")),
    "spectral.perron": (_count_perron, ("iterations", "vacuous", "failed")),
}

# counted but not timed: support_digraph's time stays in the self time of
# is_weakly_irreducible, its caller
COUNT_ONLY = {("tensor", "support_digraph"): (_count_arcs, ("arcs",))}


class Tracer:
    """Spans and counts of one traced pass; ``stats[name]`` holds ``calls``,
    ``self_s`` and the span's extra counters."""

    def __init__(self):
        self.stats: dict[str, dict[str, float]] = {}
        self._frames: list[list[float]] = []
        self._patched: list[tuple[object, str, object]] = []

    def _wrap(self, name, fn, count, keys, timed):
        stats = self.stats.setdefault(name, dict.fromkeys(("calls", "self_s") + keys, 0))
        frames = self._frames

        def wrapper(*args, **kwargs):
            frame = [0.0]
            if timed:
                frames.append(frame)
            result = error = None
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
                return result
            except Exception as caught:
                error = caught
                raise
            finally:
                t1 = perf_counter()
                if timed:
                    frames.pop()
                    stats["self_s"] += (t1 - t0) - frame[0]
                stats["calls"] += 1
                if count is not None:
                    count(stats, args, result, error)
                if frames:
                    # the caller excludes this call, or for a count-only
                    # wrapper just its bookkeeping
                    frames[-1][0] += perf_counter() - (t0 if timed else t1)

        return wrapper

    def install(self) -> None:
        modules = [m for name, m in sys.modules.items()
                   if name == "geoconn" or name.startswith("geoconn.")]
        targets = [(mod, fn, True) for mod, fn in SPANS]
        targets += [(mod, fn, False) for mod, fn in COUNT_ONLY]
        for mod, fn_name, timed in targets:
            name = f"{mod}.{fn_name}"
            original = getattr(sys.modules[f"geoconn.{mod}"], fn_name)
            if timed:
                count, keys = COUNTERS.get(name, (None, ()))
            else:
                count, keys = COUNT_ONLY[(mod, fn_name)]
            wrapper = self._wrap(name, original, count, keys, timed)
            for module in modules:
                if getattr(module, fn_name, None) is original:
                    setattr(module, fn_name, wrapper)
                    self._patched.append((module, fn_name, original))

    def uninstall(self) -> None:
        for module, fn_name, original in reversed(self._patched):
            setattr(module, fn_name, original)
        self._patched.clear()

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc_info):
        self.uninstall()
        return False

"""Time to verdict for cutgame's verifiers, solver and graph oracles.

End to end, and per layer in a separate traced run.

Run from the root of a source checkout (the package is imported from
``./src``; nothing needs building):

    python3 perfbench/run.py --workload marker-exhaustive --seed 1 --seconds 15 --trace 0

One client calls cutgame in-process, in a closed loop, without
threads.  The run repeats *passes* of its workload (see ``workloads.py``)
until ``--seconds`` have gone by, clearing every functools cache of the
package before each pass so that no work carries over.  Every op's
output is checked against its pin.

``--trace 0`` reports the end-to-end metrics.  Their times are at
reference speed: a gauge samples the host's speed while each pass runs,
and durations are rescaled by it (see ``gauge.py``).  ``--trace 1``
alternates untraced and traced passes and reports per-layer call
counts, self times in wall seconds and ratios, plus the tracing
overhead; its spans are written to ``.bench_build/perfbench/``.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import subprocess
import sys
import time
import traceback
from typing import Optional

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, BENCH_DIR)

from gauge import SpeedGauge  # noqa: E402
from tracer import Tracer, TracerError, cutgame_modules  # noqa: E402
from workloads import WORKLOADS, Workload  # noqa: E402

MIN_PASSES = 2  # even a short run has a median of more than one pass
SETUP_SAMPLES = 8  # fresh interpreters timed over the first passes, one per pass after
SPAN_DIR = os.path.join(".bench_build", "perfbench")

# layers reported with call counts and self times, both per traced pass
CALLS_AND_SELF = (
    "core.cutter_replies", "core.enumerate_marker_moves",
    "equivalence.legal_replies", "equivalence.precedes", "equivalence.canonical_key",
    "potential.state_potential", "potential.segment_potential", "potential.component_potential",
    "strategy.mark", "strategy.advance", "strategy.verify_bindings",
    "strategy.classify_configuration", "strategy.cutter_move",
    "arena.ply_record", "kernels.attractor", "kernels.genus_sweep",
)
# layers reported with self times only
SELF_ONLY = ("arena.driver", "graphs.pursuit.build", "graphs.genus.lower_bound",
             "graphs.corpus.check_corpus")
# per-pass call counts that must be nonzero on each workload
EXPECTED_CALLS = {
    "marker-exhaustive": (
        "core.cutter_replies", "equivalence.legal_replies", "equivalence.precedes",
        "equivalence.canonical_key", "potential.state_potential", "potential.component_potential",
        "potential.segment_potential", "strategy.mark", "strategy.advance",
        "strategy.verify_bindings", "strategy.classify_configuration", "arena.ply_record",
        "arena.driver",
    ),
    "cutter-sampled": (
        "core.cutter_replies", "core.enumerate_marker_moves", "equivalence.legal_replies",
        "equivalence.precedes", "equivalence.canonical_key", "potential.state_potential",
        "potential.segment_potential", "strategy.cutter_move", "arena.ply_record", "arena.driver",
    ),
    "exact-solve": (
        "core.cutter_replies", "core.enumerate_marker_moves", "equivalence.legal_replies",
        "equivalence.precedes", "equivalence.canonical_key", "arena.driver",
    ),
    "graph-oracles": (
        "graphs.pursuit.build", "kernels.attractor", "kernels.genus_sweep",
        "graphs.genus.genus_exact", "graphs.genus.lower_bound", "graphs.corpus.check_corpus",
    ),
}
# named caches whose hit ratios are reported: metric prefix -> qualified name
NAMED_CACHES = {
    "equivalence.shape_cache": "cutgame.equivalence._cached_shape",
    "equivalence.precedes_cache": "cutgame.equivalence._shape_precedes",
}
TAIL_PERCENTILES = (99.9, 99.0, 95.0, 90.0, 75.0, 50.0)


# -- statistics ---------------------------------------------------------------

def tail_percentile(n: int) -> Optional[float]:
    """Highest of ``TAIL_PERCENTILES`` with at least ten of ``n`` samples
    beyond it, or None when even the lowest has fewer."""
    for p in TAIL_PERCENTILES:
        if n * (1000 - round(p * 10)) >= 10 * 1000:
            return p
    return None


def percentile(samples: list[float], p: float) -> float:
    """Linear interpolation between closest ranks (``inclusive``)."""
    if len(samples) == 1:
        return samples[0]
    return statistics.quantiles(samples, n=1000, method="inclusive")[round(p * 10) - 1]


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


# -- running passes -----------------------------------------------------------

def find_caches() -> dict[str, object]:
    """Every functools cache bound as an attribute of a loaded cutgame
    module, by qualified name.  Found generically, so a cache added
    later is cleared too."""
    caches: dict[str, object] = {}
    for mod in cutgame_modules():
        for val in vars(mod).values():
            if callable(getattr(val, "cache_clear", None)) and callable(getattr(val, "cache_info", None)):
                caches[f"{val.__module__}.{val.__qualname__}"] = val
    return caches


def reset_caches(caches: dict[str, object]) -> None:
    for cache in caches.values():
        cache.cache_clear()


class Run:
    """One workload in this process: passes, op latencies and failures."""

    def __init__(self, workload: Workload, caches: dict):
        self.workload = workload
        self.caches = caches
        self.latencies: list[float] = []
        self.raw_walls: list[float] = []
        self.attempted = 0
        self.failures: list[str] = []

    def one_pass(self, tracer: Optional[Tracer] = None, gauge: Optional[SpeedGauge] = None) -> float:
        """Run one pass cold and return its duration: at reference speed
        with a gauge, else in wall seconds.  Outputs are checked after the
        clock stops."""
        reset_caches(self.caches)
        ops = self.workload.next_pass()
        outputs = []  # (output, error message of a raising op)
        spans = []
        t_pass = time.perf_counter()
        for op in ops:
            t_op = time.perf_counter()
            try:
                outputs.append((op.call() if tracer is None else self._traced(tracer, op), None))
            except Exception as exc:  # a raising op counts as failed; the run goes on
                traceback.print_exc()
                outputs.append((None, f"raised {exc!r}"))
            spans.append((t_op, time.perf_counter()))
        t_end = time.perf_counter()
        duration = gauge.scaled if gauge is not None else (lambda start, end: end - start)
        self.latencies += [duration(start, end) for start, end in spans]
        self.raw_walls.append(t_end - t_pass)
        for op, (out, error) in zip(ops, outputs):
            self.attempted += 1
            msg = error or op.check(out)
            if msg is not None:
                self.failures.append(f"{op.label}: {msg}")
        return duration(t_pass, t_end)

    def _traced(self, tracer: Tracer, op):
        before = {k: c.cache_info() for k, c in self.caches.items()}
        try:
            return tracer.run_op(op.call)
        finally:
            for k, c in self.caches.items():
                info, old = c.cache_info(), before[k]
                tracer.add(f"{k}.hits", info.hits - old.hits)
                tracer.add(f"{k}.lookups", info.hits - old.hits + info.misses - old.misses)


def _setup_probe(workload: str, seed: int) -> float:
    """Set-up time of a fresh interpreter, at reference speed: import
    cutgame and build the inputs."""
    code = (
        "import sys, time\n"
        f"sys.path[:0] = [{os.path.abspath('src')!r}, {BENCH_DIR!r}]\n"
        "import gauge, workloads\n"
        "with gauge.SpeedGauge() as g:\n"
        "    t0 = time.perf_counter()\n"
        f"    workloads.WORKLOADS[{workload!r}]().build({seed})\n"
        "    t1 = time.perf_counter()\n"
        "print(g.scaled(t0, t1))\n"
    )
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         timeout=120, check=True)
    return float(out.stdout.strip().splitlines()[-1])


def end_to_end(run: Run, setup: list[float], passes: list[float]) -> dict:
    return {
        "setup_s": (statistics.median(setup), "s"),
        "wall_s": (statistics.median(passes), "s"),
        "play_p50_ms": (1e3 * statistics.median(run.latencies), "ms"),
        "play_p99_ms": (1e3 * percentile(run.latencies, 99.0), "ms"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
        "ok_ratio": (1 - _ratio(len(run.failures), run.attempted), "ratio"),
    }


# -- tracing ------------------------------------------------------------------

def _hooks() -> dict:
    """Counters measured from outside, keyed by target attribute name."""

    def legal(t: Tracer, result, _elapsed) -> None:
        t.add("legal", len(result))

    def replies(t: Tracer, result, _elapsed) -> None:
        if t.open_name() == "equivalence.legal_replies":
            t.add("candidates", len(result))

    def report(t: Tracer, result, elapsed) -> None:
        t.add("states", result.states_explored)
        t.add("states_time", elapsed)

    def positions(t: Tracer, result, _elapsed) -> None:
        t.add("positions", len(result[0]))

    def genus(t: Tracer, result, elapsed) -> None:
        t.add("systems", result.systems_checked)
        t.add("systems_time", elapsed)

    return {
        "legal_replies": legal, "cutter_replies": replies,
        "verify_marker_bound": report, "verify_refined": report, "verify_cutter_bound": report,
        "cop_win_positions": positions, "genus_exact": genus,
    }


def per_layer(tracer: Tracer, caches: dict, traced: list[float], untraced: list[float]):
    """Per-layer metrics averaged per traced pass, plus the call counts
    and the sum of all self times.  Layers whose target functions are
    gone read None (absent); a ratio with nothing counted under it
    reads 0."""
    n = len(traced)
    calls: dict[str, int] = {}
    self_s: dict[str, float] = {}
    for i, st in enumerate(tracer.self_times()):
        name = tracer.names[tracer.span_name[i]]
        calls[name] = calls.get(name, 0) + 1
        self_s[name] = self_s.get(name, 0.0) + st
    present = tracer.present
    c = tracer.counters
    out: dict[str, tuple[Optional[float], str]] = {}

    def put(name: str, value: float, unit: str, needs: tuple[str, ...]) -> None:
        out[name] = (value if all(layer in present for layer in needs) else None, unit)

    for layer in CALLS_AND_SELF:
        put(f"{layer}.calls", calls.get(layer, 0) / n, "count", (layer,))
        put(f"{layer}.self_s", self_s.get(layer, 0.0) / n, "s", (layer,))
    for layer in SELF_ONLY:
        put(f"{layer}.self_s", self_s.get(layer, 0.0) / n, "s", (layer,))
    put("equivalence.legal_replies.legal_ratio", _ratio(c.get("legal", 0), c.get("candidates", 0)),
        "ratio", ("equivalence.legal_replies", "core.cutter_replies"))
    for prefix, qualname in NAMED_CACHES.items():
        value = _ratio(c.get(f"{qualname}.hits", 0), c.get(f"{qualname}.lookups", 0))
        out[f"{prefix}.hit_ratio"] = (value if qualname in caches else None, "ratio")
    put("arena.states_per_s", _ratio(c.get("states", 0), c.get("states_time", 0)), "1/s",
        ("arena.driver",))
    put("graphs.pursuit.positions", c.get("positions", 0) / n, "count", ("graphs.pursuit.build",))
    put("graphs.genus.systems_checked", c.get("systems", 0) / n, "count", ("graphs.genus.genus_exact",))
    put("graphs.genus.systems_per_s", _ratio(c.get("systems", 0), c.get("systems_time", 0)), "1/s",
        ("graphs.genus.genus_exact",))
    out["trace.overhead"] = (statistics.median(traced) / statistics.median(untraced) - 1, "ratio")
    return out, calls, sum(self_s.values())


def measure_end_to_end(run: Run, args, problems: list[str]) -> dict:
    """Passes until the deadline, tracing off, and at least
    ``MIN_PASSES``.  Set-up probes run between passes, so that their
    median spans the run rather than one moment of it."""
    setup: list[float] = []
    passes: list[float] = []
    deadline = time.perf_counter() + args.seconds
    while len(passes) < MIN_PASSES or time.perf_counter() < deadline:
        probes = SETUP_SAMPLES // MIN_PASSES if len(passes) < MIN_PASSES else 1
        setup += [_setup_probe(args.workload, args.seed) for _ in range(probes)]
        with SpeedGauge() as gauge:
            passes.append(run.one_pass(gauge=gauge))
    tail = tail_percentile(len(run.latencies))
    print(f"{args.workload}: {len(passes)} passes, {len(run.latencies)} ops; pass times at "
          f"reference speed {[round(p, 4) for p in passes]}, in wall seconds "
          f"{[round(p, 4) for p in run.raw_walls]}")
    print(f"fail_ratio {_ratio(len(run.failures), run.attempted):.6g} "
          f"({len(run.failures)} of {run.attempted} ops)")
    print(f"highest percentile with ten samples beyond it: {tail}")
    if args.workload == "cutter-sampled" and (tail is None or tail < 99.0):
        problems.append(f"play_p99_ms needs at least 1000 plays, got {len(run.latencies)}")
    return end_to_end(run, setup, passes)


def measure_layers(run: Run, args, problems: list[str]) -> dict:
    """Untraced and traced passes in turn until the deadline, at least
    one of each; the spans are written out at the end."""
    tracer = Tracer()
    hooks = _hooks()
    traced: list[float] = []
    untraced: list[float] = []
    deadline = time.perf_counter() + args.seconds
    while not traced or time.perf_counter() < deadline:
        untraced.append(run.one_pass())
        try:
            tracer.install(hooks)
        except TracerError as exc:
            problems.append(str(exc))
            return {}
        try:
            traced.append(run.one_pass(tracer))
        finally:
            tracer.uninstall()
    metrics, calls, self_total = per_layer(tracer, run.caches, traced, untraced)
    for layer in EXPECTED_CALLS[args.workload]:
        if layer in tracer.present and not calls.get(layer):
            problems.append(f"{layer} was never called on {args.workload}")
    if self_total > sum(traced) + 1e-9:
        problems.append(f"self times sum to {self_total} s, over the traced {sum(traced)} s")
    os.makedirs(SPAN_DIR, exist_ok=True)
    spans = os.path.join(SPAN_DIR, f"spans-{args.workload}-seed{args.seed}.csv")
    tracer.write(spans)
    print(f"{args.workload}: {len(untraced)} untraced and {len(traced)} traced passes, "
          f"{len(tracer.span_start)} spans in {spans}; self times sum to "
          f"{self_total:.4f} s of {sum(traced):.4f} s traced")
    return metrics


# -- main ---------------------------------------------------------------------

def main(argv: Optional[list[str]] = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    src = os.path.abspath("src")
    if not os.path.isfile(os.path.join(src, "cutgame", "__init__.py")):
        print("perfbench: no cutgame sources under ./src; run from the repository root",
              file=sys.stderr)
        return 2
    sys.path.insert(0, src)

    workload = WORKLOADS[args.workload]()
    workload.build(args.seed)
    import cutgame

    if not os.path.abspath(cutgame.__file__).startswith(src + os.sep):
        print(f"perfbench: imported cutgame from {cutgame.__file__}, not ./src", file=sys.stderr)
        return 2
    run = Run(workload, find_caches())
    problems: list[str] = []
    measure = measure_layers if args.trace else measure_end_to_end
    metrics = measure(run, args, problems)
    for name, (value, unit) in metrics.items():
        shown = "absent" if value is None else f"{value:.6g}"
        print(f"  {name:44s} {shown:>14s} {unit}")
    for msg in problems + run.failures[:20]:
        print(f"FAILED {msg}", file=sys.stderr)

    result = {
        "correct": not problems and not run.failures,
        "attempted": run.attempted,
        "failed": len(run.failures),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""Before/after benchmark of the bitset pursuit solver: writes BENCH_pursuit.json.

    python3 tools/bench_pursuit.py --parent DIR --change DIR --out BENCH_pursuit.json

``--parent`` and ``--change`` are two source checkouts (made with
``git archive``, say) of the commit before the change and of the change.
Every run is ``python3 perfbench/run.py`` from the root of one checkout,
with that checkout's own benchmark code, in a fresh interpreter; runs
are serial and pairs alternate which side goes first.

- graph-oracles: ten pairs at ``--seconds 15`` (the claim);
- marker-exhaustive, cutter-sampled, exact-solve: three pairs each;
- one traced graph-oracles run per side (per-layer rows);
- ``cop_number(toroidal_grid(a, b), 3)`` for 5x5 and 6x6, three
  alternating fresh-interpreter timings per side, with peak RSS.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time

SECONDS = 15
CLAIM_WORKLOAD = "graph-oracles"
CLAIM_SEEDS = range(1101, 1111)
ENGINE_WORKLOADS = ("marker-exhaustive", "cutter-sampled", "exact-solve")
ENGINE_SEEDS = range(1121, 1124)
TRACE_SEED = 1131
TORI = ((5, 5), (6, 6))
TORUS_REPEATS = 3
BOUNDS = {"setup_s": 0.25, "wall_s": 0.25, "play_p50_ms": 0.25, "play_p99_ms": 0.25,
          "peak_rss_mb": 0.1, "ok_ratio": 0.01}
HIGHER_IS_BETTER = {"ok_ratio"}

TORUS_TIMER = """
import json, resource, sys, time
from cutgame.graphs import cop_number, toroidal_grid
g = toroidal_grid({a}, {b})
t = time.perf_counter()
k = cop_number(g, 3)
wall = time.perf_counter() - t
print(json.dumps({{"cop_number": k, "wall_s": wall,
                   "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024}}))
"""


def bench_run(root: str, workload: str, seed: int, trace: int) -> dict:
    cmd = ["python3", "perfbench/run.py", "--workload", workload, "--seed", str(seed),
           "--seconds", str(SECONDS), "--trace", str(trace)]
    out = subprocess.run(cmd, cwd=root, capture_output=True, text=True, check=True).stdout
    return {"command": " ".join(cmd), "result": json.loads(out.strip().splitlines()[-1])}


def torus_run(root: str, a: int, b: int) -> dict:
    env = dict(os.environ, PYTHONPATH=os.path.join(root, "src"))
    out = subprocess.run([sys.executable, "-c", TORUS_TIMER.format(a=a, b=b)], cwd=root, env=env,
                         capture_output=True, text=True, check=True).stdout
    return json.loads(out.strip().splitlines()[-1])


def pairs(sides: dict, workload: str, seeds, trace: int, log: list) -> None:
    for pair, seed in enumerate(seeds):
        order = ("parent", "change") if pair % 2 == 0 else ("change", "parent")
        for position, side in enumerate(order):
            run = bench_run(sides[side], workload, seed, trace)
            run.update(side=side, workload=workload, seed=seed, trace=trace, pair=pair,
                       order_in_pair=position, started=time.strftime("%H:%M:%S"))
            log.append(run)
            print(side, workload, seed, run["result"]["metrics"].get("wall_s"), flush=True)


def quartiles(xs: list[float]) -> tuple[float, float, float]:
    if len(xs) < 2:
        return xs[0], xs[0], xs[0]
    q1, q2, q3 = statistics.quantiles(xs, n=4, method="inclusive")
    return q1, q2, q3


def summarise(runs: list[dict], workload: str) -> dict:
    mine = [r for r in runs if r["workload"] == workload and r["trace"] == 0]
    out = {}
    for metric, bound in BOUNDS.items():
        by_pair: dict[int, dict[str, float]] = {}
        for r in mine:
            by_pair.setdefault(r["pair"], {})[r["side"]] = r["result"]["metrics"][metric]["value"]
        parent = [p["parent"] for p in by_pair.values()]
        change = [p["change"] for p in by_pair.values()]
        higher = metric in HIGHER_IS_BETTER
        wins = sum((c > p) if higher else (c < p) for p, c in zip(parent, change))
        ties = sum(c == p for p, c in zip(parent, change))
        pq1, pmed, pq3 = quartiles(parent)
        cq1, cmed, cq3 = quartiles(change)
        ratio = cmed / pmed if pmed else None
        worse = (1 - ratio) if higher else (ratio - 1)
        out[metric] = {"parent_median": pmed, "parent_q1": pq1, "parent_q3": pq3,
                       "change_median": cmed, "change_q1": cq1, "change_q3": cq3,
                       "ratio": ratio, "change_wins": wins, "ties": ties, "pairs": len(by_pair),
                       "bound": bound, "within_bound": ratio is not None and worse <= bound}
    out["ok"] = all(r["result"]["correct"] and r["result"]["failed"] == 0 for r in mine)
    return out


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--parent", required=True)
    ap.add_argument("--change", required=True)
    ap.add_argument("--out", required=True)
    args = ap.parse_args()
    sides = {"parent": os.path.abspath(args.parent), "change": os.path.abspath(args.change)}

    runs: list[dict] = []
    pairs(sides, CLAIM_WORKLOAD, CLAIM_SEEDS, 0, runs)
    for workload in ENGINE_WORKLOADS:
        pairs(sides, workload, ENGINE_SEEDS, 0, runs)
    traced = {}
    for side in ("parent", "change"):
        run = bench_run(sides[side], CLAIM_WORKLOAD, TRACE_SEED, 1)
        run.update(side=side, workload=CLAIM_WORKLOAD, seed=TRACE_SEED, trace=1, pair=None,
                   order_in_pair=None, started=time.strftime("%H:%M:%S"))
        runs.append(run)
        traced[side] = {k: v["value"] for k, v in run["result"]["metrics"].items()}

    tori: dict[str, dict[str, list[dict]]] = {}
    for a, b in TORI:
        row = tori.setdefault(f"cop_number(toroidal_grid({a}, {b}), 3)", {"parent": [], "change": []})
        for i in range(TORUS_REPEATS):
            for side in (("parent", "change") if i % 2 == 0 else ("change", "parent")):
                row[side].append(torus_run(sides[side], a, b))
                print(side, a, b, row[side][-1], flush=True)
    torus_rows = {name: {side: {"cop_number": sorted({t["cop_number"] for t in ts}),
                                "wall_s_median": statistics.median(t["wall_s"] for t in ts),
                                "wall_s": [t["wall_s"] for t in ts],
                                "peak_rss_mb_median": statistics.median(t["peak_rss_mb"] for t in ts)}
                         for side, ts in row.items()}
                  for name, row in tori.items()}

    end_to_end = {w: summarise(runs, w) for w in (CLAIM_WORKLOAD,) + ENGINE_WORKLOADS}
    wall = end_to_end[CLAIM_WORKLOAD]["wall_s"]
    parent_iqr = wall["parent_q3"] - wall["parent_q1"]
    claim = {"workload": CLAIM_WORKLOAD, "metric": "wall_s", "target_ratio_at_most": 1 / 3,
             "parent_median": wall["parent_median"], "change_median": wall["change_median"],
             "ratio": wall["ratio"], "parent_iqr": parent_iqr, "change_wins": wall["change_wins"],
             "pairs": wall["pairs"],
             "met": (wall["ratio"] <= 1 / 3 and wall["change_wins"] >= 9
                     and wall["parent_median"] - wall["change_median"] > parent_iqr)}
    bench = {
        "title": "Cop numbers by bitset retrograde analysis: one robber-vertex mask per cop multiset",
        "machine": f"{platform.machine()} {os.cpu_count()}-core host, Python {platform.python_version()}; "
                   "perfbench times are at the gauge's reference speed (perfbench/gauge.py); "
                   "torus timings are plain wall time in a fresh interpreter",
        "method": "python3 tools/bench_pursuit.py --parent P --change C --out BENCH_pursuit.json. "
                  f"Every run is python3 perfbench/run.py --seconds {SECONDS} from the root of its "
                  "own checkout; pairs alternate which side runs first (pair 0 parent first). "
                  f"{CLAIM_WORKLOAD}: ten pairs on seeds {CLAIM_SEEDS.start}-{CLAIM_SEEDS.stop - 1}; "
                  f"{', '.join(ENGINE_WORKLOADS)}: three pairs each on seeds "
                  f"{ENGINE_SEEDS.start}-{ENGINE_SEEDS.stop - 1}; one traced {CLAIM_WORKLOAD} run "
                  f"per side on seed {TRACE_SEED}.",
        "claim": claim,
        "end_to_end": end_to_end,
        "per_layer_traced": {CLAIM_WORKLOAD: traced},
        "units": {"graphs.pursuit.positions": "len(result[0]) of cop_win_positions: positions "
                  "(cop multiset, robber, side) at the parent, cop multisets (rows) in the change; "
                  "a change of unit, not a saving"},
        "tori": torus_rows,
        "runs": runs,
    }
    with open(args.out, "w", encoding="utf-8") as fh:
        json.dump(bench, fh, indent=1)
        fh.write("\n")
    print(json.dumps(claim))


if __name__ == "__main__":
    main()

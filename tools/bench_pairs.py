"""Paired before/after runs of the benchmark: writes one BENCH_*.json.

    python3 tools/bench_pairs.py --parent DIR --change DIR --out BENCH_x.json \\
        --title "what the change does" [--claim WORKLOAD:METRIC]

``--parent`` and ``--change`` are two source checkouts (made with
``git archive``, say) of the commit before the change and of the change.
The workloads, the run length and each end-to-end metric's bound and
direction come from the change's ``BENCHMARK.json``.  Every run is
``python3 perfbench/run.py`` from the root of one checkout, with that
checkout's own benchmark code, in a fresh interpreter; runs are serial
and pairs alternate which side goes first.

- the claimed workload, if any: ten pairs;
- every other workload: three pairs;
- every workload: one traced run per side (per-layer rows).

A claim is met when the change wins at least nine of the ten pairs on
the claimed metric (ties count for neither side) and the gap between
the two medians exceeds the parent's interquartile range.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import time

CLAIM_SEEDS = range(1101, 1111)
OTHER_SEEDS = range(1121, 1124)
TRACE_SEED = 1131


def bench_run(root: str, workload: str, seed: int, seconds: int, trace: int) -> dict:
    cmd = ["python3", "perfbench/run.py", "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    out = subprocess.run(cmd, cwd=root, capture_output=True, text=True, check=True).stdout
    return {"command": " ".join(cmd), "result": json.loads(out.strip().splitlines()[-1])}


def pairs(sides: dict, workload: str, seeds, seconds: int, log: list) -> None:
    for pair, seed in enumerate(seeds):
        order = ("parent", "change") if pair % 2 == 0 else ("change", "parent")
        for position, side in enumerate(order):
            run = bench_run(sides[side], workload, seed, seconds, 0)
            run.update(side=side, workload=workload, seed=seed, trace=0, pair=pair,
                       order_in_pair=position, started=time.strftime("%H:%M:%S"))
            log.append(run)
            print(side, workload, seed, run["result"]["metrics"].get("wall_s"), flush=True)


def quartiles(xs: list[float]) -> tuple[float, float, float]:
    if len(xs) < 2:
        return xs[0], xs[0], xs[0]
    q1, q2, q3 = statistics.quantiles(xs, n=4, method="inclusive")
    return q1, q2, q3


def summarise(runs: list[dict], workload: str, metrics: list[dict]) -> dict:
    """Each metric's medians and pair wins over the untraced runs of
    ``workload``; ``ok`` holds when every run of it, traced ones too,
    was correct and had no failed operation."""
    every_run = [r for r in runs if r["workload"] == workload]
    mine = [r for r in every_run if r["trace"] == 0]
    out = {}
    for metric in metrics:
        name, higher = metric["name"], metric["better"] == "higher"
        by_pair: dict[int, dict[str, float]] = {}
        for r in mine:
            by_pair.setdefault(r["pair"], {})[r["side"]] = r["result"]["metrics"][name]["value"]
        parent = [p["parent"] for p in by_pair.values()]
        change = [p["change"] for p in by_pair.values()]
        wins = sum((c > p) if higher else (c < p) for p, c in zip(parent, change))
        ties = sum(c == p for p, c in zip(parent, change))
        pq1, pmed, pq3 = quartiles(parent)
        cq1, cmed, cq3 = quartiles(change)
        ratio = cmed / pmed if pmed else None
        worse = None if ratio is None else (1 - ratio) if higher else (ratio - 1)
        out[name] = {"parent_median": pmed, "parent_q1": pq1, "parent_q3": pq3,
                     "change_median": cmed, "change_q1": cq1, "change_q3": cq3,
                     "ratio": ratio, "change_wins": wins, "ties": ties, "pairs": len(by_pair),
                     "bound": metric["bound"], "within_bound": worse is not None and worse <= metric["bound"]}
    out["ok"] = all(r["result"]["correct"] and r["result"]["failed"] == 0 for r in every_run)
    return out


def judge(row: dict, workload: str, metric: str, higher: bool) -> dict:
    """The claim on one summarised metric, by the rule in the module doc."""
    parent_iqr = row["parent_q3"] - row["parent_q1"]
    gap = (row["change_median"] - row["parent_median"]) * (1 if higher else -1)
    return {"workload": workload, "metric": metric, "parent_median": row["parent_median"],
            "change_median": row["change_median"], "ratio": row["ratio"], "parent_iqr": parent_iqr,
            "change_wins": row["change_wins"], "pairs": row["pairs"],
            "met": row["change_wins"] >= 9 and gap > parent_iqr}


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--parent", required=True)
    ap.add_argument("--change", required=True)
    ap.add_argument("--out", required=True)
    ap.add_argument("--title", required=True)
    ap.add_argument("--claim", default=None, help="WORKLOAD:METRIC; without it no gain is claimed")
    args = ap.parse_args()
    sides = {"parent": os.path.abspath(args.parent), "change": os.path.abspath(args.change)}
    with open(os.path.join(sides["change"], "BENCHMARK.json"), encoding="utf-8") as fh:
        contract = json.load(fh)
    workloads = [w["name"] for w in contract["workloads"]]
    metrics = contract["end_to_end"]
    seconds = contract["run_seconds"]
    claim_workload = claim_metric = None
    if args.claim:
        claim_workload, _, claim_metric = args.claim.partition(":")
        if claim_workload not in workloads or claim_metric not in {m["name"] for m in metrics}:
            ap.error(f"--claim {args.claim!r} names no workload:metric of BENCHMARK.json")

    runs: list[dict] = []
    for workload in workloads:
        pairs(sides, workload, CLAIM_SEEDS if workload == claim_workload else OTHER_SEEDS, seconds, runs)
    traced: dict[str, dict] = {}
    for workload in workloads:
        for side in ("parent", "change"):
            run = bench_run(sides[side], workload, TRACE_SEED, seconds, 1)
            run.update(side=side, workload=workload, seed=TRACE_SEED, trace=1, pair=None,
                       order_in_pair=None, started=time.strftime("%H:%M:%S"))
            runs.append(run)
            traced.setdefault(workload, {})[side] = {k: v["value"] for k, v in run["result"]["metrics"].items()}

    end_to_end = {w: summarise(runs, w, metrics) for w in workloads}
    claim = None
    if claim_workload:
        higher = next(m["better"] == "higher" for m in metrics if m["name"] == claim_metric)
        claim = judge(end_to_end[claim_workload][claim_metric], claim_workload, claim_metric, higher)
    pair_counts = ", ".join(f"{w}: {len(CLAIM_SEEDS) if w == claim_workload else len(OTHER_SEEDS)} pairs"
                            for w in workloads)
    bench = {
        "title": args.title,
        "machine": f"{platform.machine()} {os.cpu_count()}-core host, Python {platform.python_version()}; "
                   "perfbench times are at the gauge's reference speed (perfbench/gauge.py)",
        "method": f"python3 tools/bench_pairs.py --parent P --change C --out {os.path.basename(args.out)}"
                  + (f" --claim {args.claim}" if args.claim else "")
                  + f". Every run is python3 perfbench/run.py --seconds {seconds} from the root of its "
                  "own checkout; pairs alternate which side runs first (pair 0 parent first). "
                  f"{pair_counts}; ten-pair seeds {CLAIM_SEEDS.start}-{CLAIM_SEEDS.stop - 1}, "
                  f"three-pair seeds {OTHER_SEEDS.start}-{OTHER_SEEDS.stop - 1}; one traced run per "
                  f"side and workload on seed {TRACE_SEED}.",
        "claim": claim,
        "end_to_end": end_to_end,
        "per_layer_traced": traced,
        "runs": runs,
    }
    with open(args.out, "w", encoding="utf-8") as fh:
        json.dump(bench, fh, indent=1)
        fh.write("\n")
    print(json.dumps(claim))


if __name__ == "__main__":
    main()

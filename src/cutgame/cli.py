"""Command-line surface.

Exit codes: 0 = pass, 1 = fail (a bound was violated), 2 = inconclusive
(a state budget, the genus search's node budget or the pursuit budget,
which counts positions plus joint-move list entries, was exhausted, or
the cop number lies above ``--k-max``; ``genus`` and ``cop-number``
print one ``inconclusive:`` line on stderr), 64 = usage error or bad
input (a negative genus or budget, a sampled run of fewer than one
play, a seeded game below genus one, ``--k-max`` below one, a
disconnected graph for an oracle, an empty graph for the cop oracle,
malformed graph6, an unreadable file), with one ``error:`` line on
stderr, 70 = internal error (a ``RuntimeError`` or a ``StrategyError``
out of an engine, such as the exact solver meeting a legal reply that
does not raise the value by one), with one ``error: internal:`` line on
stderr.  ``exact-value`` fails when the value lies outside
``[cutter_value_threshold(g0), marker_value_bound(g0)]``.  Every run
echoes its resolved configuration, seeds included; JSON is the stable
output format, text is for humans only.
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import Optional

from .arena import (
    FAIL,
    INCONCLUSIVE,
    PASS,
    SearchBudget,
    VerificationReport,
    cutter_value_threshold,
    emit_trace,
    exact_value,
    marker_value_bound,
    play_game,
    verify_cutter_bound,
    verify_marker_bound,
    verify_refined,
)
from .strategy import StrategyError

EXIT_PASS = 0
EXIT_FAIL = 1
EXIT_INCONCLUSIVE = 2
EXIT_USAGE = 64
EXIT_SOFTWARE = 70


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="cutgame",
        description="Boundary-cutting game verifiers and the cops-and-robbers graph suite.",
    )
    parser.add_argument("--budget-states", type=int, default=2_000_000,
                        help="state exploration budget (search nodes for genus; for exact-value "
                             "every visit to a state at the threshold counts, the others once each)")
    parser.add_argument("--out", type=str, default=None, help="write the JSON report to this path")
    parser.add_argument("--format", choices=("json", "text"), default="text")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("verify-marker", help="marker value bound, exhaustive over cutter replies")
    p.add_argument("--g0", type=int, required=True)

    p = sub.add_parser("verify-cutter", help="cutter value threshold with potential audit")
    p.add_argument("--g0", type=int, required=True)
    p.add_argument("--sample", type=int, default=0, help="random marker plays (0 = exhaustive)")
    p.add_argument("--seed", type=int, default=0)

    p = sub.add_parser("exact-value", help="exact forced game value by threshold minimax")
    p.add_argument("--g0", type=int, required=True)
    p.add_argument("--no-memo", action="store_true", help="disable canonical-form memoization")

    p = sub.add_parser("verify-refined", help="seeded-game bound with the cops switch")
    p.add_argument("--g0", type=int, required=True)

    p = sub.add_parser("play", help="run one game and optionally dump its trace")
    p.add_argument("--g0", type=int, required=True)
    p.add_argument("--marker", choices=("auto", "random"), default="auto")
    p.add_argument("--cutter", choices=("auto", "random"), default="auto")
    p.add_argument("--refined", action="store_true")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--trace", type=str, default=None)

    p = sub.add_parser("cop-number", help="exact cop number by retrograde analysis")
    src = p.add_mutually_exclusive_group(required=True)
    src.add_argument("--graph", type=str, help="path to a graph6 file (first line)")
    src.add_argument("--g6", type=str, help="graph6 string")
    p.add_argument("--k-max", type=int, default=4)

    p = sub.add_parser("genus", help="exact orientable genus by rotation-system search")
    src = p.add_mutually_exclusive_group(required=True)
    src.add_argument("--graph", type=str)
    src.add_argument("--g6", type=str)

    p = sub.add_parser("check-corpus", help="cop/genus oracles plus bound checks over a corpus")
    p.add_argument("--dir", type=str, default=None, help="corpus directory (default: bundled)")
    p.add_argument("--k-max", type=int, default=4)

    return parser


def _emit(args, payload: dict, text: str) -> None:
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            json.dump(payload, fh, indent=1, sort_keys=True)
    if args.format == "json":
        print(json.dumps(payload, indent=1, sort_keys=True))
    else:
        print(text)


def _report_exit(report: VerificationReport) -> int:
    if report.verdict == PASS:
        return EXIT_PASS
    if report.verdict == INCONCLUSIVE:
        return EXIT_INCONCLUSIVE
    return EXIT_FAIL


def _load_graph(args):
    from .graphs import parse_graph6

    if args.g6:
        return parse_graph6(args.g6)
    with open(args.graph, "r", encoding="utf-8") as fh:
        for line in fh:
            line = line.strip()
            if line:
                return parse_graph6(line)
    raise ValueError(f"no graph6 line found in {args.graph}")


def dispatch(argv: Optional[list[str]] = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_USAGE if exc.code not in (0, None) else 0
    try:
        return _run(args)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (RuntimeError, StrategyError) as exc:
        print(f"error: internal: {exc}", file=sys.stderr)
        return EXIT_SOFTWARE


def _run(args) -> int:
    if args.budget_states < 0:
        raise ValueError(f"--budget-states must be non-negative, got {args.budget_states}")
    if args.command == "verify-marker":
        budget = SearchBudget(max_states=args.budget_states)
        report = verify_marker_bound(args.g0, budget)
        _emit(args, report.to_dict(), _verdict_text(report))
        return _report_exit(report)

    if args.command == "verify-cutter":
        sampling = "random" if args.sample else "exhaustive"
        budget = SearchBudget(
            max_states=args.budget_states,
            marker_sampling=sampling,
            sample_plays=args.sample or 10_000,
            seed=args.seed,
        )
        report = verify_cutter_bound(args.g0, budget)
        _emit(args, report.to_dict(), _verdict_text(report))
        return _report_exit(report)

    if args.command == "exact-value":
        budget = SearchBudget(max_states=args.budget_states)
        result = exact_value(args.g0, budget, use_memo=not args.no_memo)
        if result == INCONCLUSIVE:
            verdict = INCONCLUSIVE
        elif cutter_value_threshold(args.g0) <= result <= marker_value_bound(args.g0):
            verdict = PASS
        else:
            verdict = FAIL
        payload = {
            "g0": args.g0,
            "mode": "exact_value",
            "value": result if result != INCONCLUSIVE else None,
            "verdict": verdict,
            "memo": not args.no_memo,
            "budget": {"max_states": args.budget_states},
        }
        _emit(args, payload, str(result) if verdict != FAIL else f"{result}\nverdict: {FAIL}")
        return {PASS: EXIT_PASS, FAIL: EXIT_FAIL, INCONCLUSIVE: EXIT_INCONCLUSIVE}[verdict]

    if args.command == "verify-refined":
        budget = SearchBudget(max_states=args.budget_states)
        report = verify_refined(args.g0, budget)
        _emit(args, report.to_dict(), _verdict_text(report))
        return _report_exit(report)

    if args.command == "play":
        records, outcome = play_game(
            args.g0, marker=args.marker, cutter=args.cutter, seed=args.seed, refined=args.refined
        )
        if args.trace:
            emit_trace(records, args.trace)
        payload = {
            "g0": args.g0,
            "mode": "play",
            "marker": args.marker,
            "cutter": args.cutter,
            "refined": args.refined,
            "seed": args.seed,
            "outcome": outcome,
            "plies": len(records) - 1,
        }
        _emit(args, payload, json.dumps(outcome))
        return EXIT_PASS

    if args.command == "cop-number":
        from .graphs import CopNumberAboveError, StateSpaceError, cop_number

        g = _load_graph(args)
        try:
            k = cop_number(g, args.k_max)
        except (StateSpaceError, CopNumberAboveError) as exc:
            print(f"inconclusive: {exc}", file=sys.stderr)
            return EXIT_INCONCLUSIVE
        payload = {"mode": "cop_number", "n": g.n, "edges": g.edge_count(), "k_max": args.k_max, "cop_number": k}
        _emit(args, payload, str(k))
        return EXIT_PASS

    if args.command == "genus":
        from .graphs import genus_exact
        from .graphs.genus import RotationBudgetError

        g = _load_graph(args)
        try:
            res = genus_exact(g, max_systems=max(args.budget_states, 1))
        except RotationBudgetError as exc:
            print(f"inconclusive: {exc}", file=sys.stderr)
            return EXIT_INCONCLUSIVE
        payload = {
            "mode": "genus",
            "n": g.n,
            "edges": g.edge_count(),
            "genus": res.genus,
            "systems_checked": res.systems_checked,
            "lower_bound": res.lower_bound,
        }
        _emit(args, payload, str(res.genus))
        return EXIT_PASS

    if args.command == "check-corpus":
        from .graphs import bundled_corpus, check_corpus, load_corpus

        entries = load_corpus(args.dir) if args.dir else bundled_corpus()
        report = check_corpus(entries, k_max=args.k_max)
        payload = {"mode": "check_corpus", "k_max": args.k_max, **report.to_dict()}
        text = "\n".join(
            f"{e['name']}: cop={e.get('cop_number')} genus={e.get('genus')} "
            + ("ok" if "error" not in e and e.get("bounds", {}).get("ok") else f"FAIL {e.get('error', '')}")
            for e in report.entries
        )
        _emit(args, payload, text)
        return EXIT_PASS if report.ok else EXIT_FAIL

    return EXIT_USAGE


def _verdict_text(report: VerificationReport) -> str:
    lines = [
        f"mode: {report.mode}  g0={report.g0}",
        f"verdict: {report.verdict}",
        f"bound: {report.bound}  max value seen: {report.max_value_seen}",
        f"states explored: {report.states_explored}  terminal plays: {report.terminal_plays}",
    ]
    if report.failure:
        lines.append(f"failure: {report.failure}")
    return "\n".join(lines)


def main() -> None:
    sys.exit(dispatch())


if __name__ == "__main__":
    main()

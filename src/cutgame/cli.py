"""Command-line surface: one table of subcommands, each naming its
handler.  The global flags ``--budget-states``, ``--out`` and
``--format`` may come before or after the subcommand; given on both
sides, the later one wins.  ``dispatch`` alone maps an outcome to an
exit code.

Exit codes: 0 pass, 1 fail, 2 inconclusive, 64 usage error or bad
input, 70 internal error (any other exception); README's "Exit codes"
table gives the causes of each.
``exact-value`` searches past the marker bound and fails when the value
lies outside ``[cutter_value_threshold(g0), marker_value_bound(g0)]``.
Every run echoes its resolved configuration, seeds included; JSON is the
stable output format, text is for humans only.
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
from .errors import InputError

EXIT_PASS = 0
EXIT_FAIL = 1
EXIT_INCONCLUSIVE = 2
EXIT_USAGE = 64
EXIT_SOFTWARE = 70


def _add_global_flags(parser: argparse.ArgumentParser, defaults: bool) -> None:
    """``--budget-states``, ``--out`` and ``--format``.  The top parser
    holds their defaults; each subcommand's copy has none, so a flag
    given after the subcommand overrides one given before it, and a flag
    it lacks leaves the top parser's value alone."""
    def default(value):
        return value if defaults else argparse.SUPPRESS

    parser.add_argument("--budget-states", type=int, default=default(2_000_000),
                        help="state exploration budget (search nodes for genus and check-corpus; for exact-value "
                             "every visit to a state at the threshold counts, the others once each)")
    parser.add_argument("--out", type=str, default=default(None), help="write the JSON report to this path")
    parser.add_argument("--format", choices=("json", "text"), default=default("text"))


def _build_parser() -> argparse.ArgumentParser:
    """The command table: each subcommand names its handler as ``run``."""
    parser = argparse.ArgumentParser(
        prog="cutgame",
        description="Boundary-cutting game verifiers and the cops-and-robbers graph suite.",
    )
    _add_global_flags(parser, defaults=True)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("verify-marker", help="marker value bound, exhaustive over cutter replies")
    p.add_argument("--g0", type=int, required=True)
    p.set_defaults(run=_verify, verify=verify_marker_bound)

    p = sub.add_parser("verify-cutter", help="cutter value threshold with potential audit")
    p.add_argument("--g0", type=int, required=True)
    p.add_argument("--sample", type=int, default=0, help="random marker plays (0 = exhaustive)")
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(run=_verify, verify=verify_cutter_bound)

    p = sub.add_parser("exact-value", help="exact forced game value by threshold minimax")
    p.add_argument("--g0", type=int, required=True)
    p.add_argument("--no-memo", action="store_true", help="disable canonical-form memoization")
    p.set_defaults(run=_exact_value)

    p = sub.add_parser("verify-refined", help="seeded-game bound with the cops switch")
    p.add_argument("--g0", type=int, required=True)
    p.set_defaults(run=_verify, verify=verify_refined)

    p = sub.add_parser("play", help="run one game and optionally dump its trace")
    p.add_argument("--g0", type=int, required=True)
    p.add_argument("--marker", choices=("auto", "random"), default="auto")
    p.add_argument("--cutter", choices=("auto", "random"), default="auto")
    p.add_argument("--refined", action="store_true")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--trace", type=str, default=None)
    p.set_defaults(run=_play)

    p = sub.add_parser("cop-number", help="exact cop number by retrograde analysis")
    src = p.add_mutually_exclusive_group(required=True)
    src.add_argument("--graph", type=str, help="path to a graph6 file (first line)")
    src.add_argument("--g6", type=str, help="graph6 string")
    p.add_argument("--k-max", type=int, default=4)
    p.set_defaults(run=_cop_number)

    p = sub.add_parser("genus", help="exact orientable genus by rotation-system search")
    src = p.add_mutually_exclusive_group(required=True)
    src.add_argument("--graph", type=str)
    src.add_argument("--g6", type=str)
    p.set_defaults(run=_genus)

    p = sub.add_parser("check-corpus", help="cop/genus oracles plus bound checks over a corpus")
    p.add_argument("--dir", type=str, default=None, help="corpus directory (default: bundled)")
    p.add_argument("--k-max", type=int, default=4)
    p.set_defaults(run=_check_corpus)

    for p in sub.choices.values():
        _add_global_flags(p, defaults=False)
    return parser


def _emit(args, payload: dict, text: str) -> None:
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            json.dump(payload, fh, indent=1, sort_keys=True)
    if args.format == "json":
        print(json.dumps(payload, indent=1, sort_keys=True))
    else:
        print(text)


VERDICT_EXIT = {PASS: EXIT_PASS, FAIL: EXIT_FAIL, INCONCLUSIVE: EXIT_INCONCLUSIVE}


def _load_graph(args):
    from .graphs.graph6 import parse_graph6, read_graph6_lines

    if args.g6 is not None:
        return parse_graph6(args.g6)
    lines = read_graph6_lines(args.graph)
    if not lines:
        raise InputError(f"no graph6 line found in {args.graph}")
    return parse_graph6(lines[0])


def _oracle_limits() -> tuple:
    """The graph oracles' inconclusive outcomes.  Read only once a
    handler has raised, so a run that needs no oracle loads none."""
    from .graphs import CopNumberAboveError, RotationBudgetError, StateSpaceError

    return StateSpaceError, CopNumberAboveError, RotationBudgetError


def dispatch(argv: Optional[list[str]] = None) -> int:
    """Run one command line; the only place an exception becomes an exit code."""
    try:
        args = _build_parser().parse_args(argv)
    except SystemExit as exc:
        return EXIT_USAGE if exc.code not in (0, None) else 0
    try:
        if args.budget_states < 0:
            raise InputError(f"--budget-states must be non-negative, got {args.budget_states}")
        return args.run(args)
    except _oracle_limits() as exc:  # first: CopNumberAboveError is a ValueError
        print(f"inconclusive: {exc}", file=sys.stderr)
        return EXIT_INCONCLUSIVE
    except (InputError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except Exception as exc:  # any other exception is a fault of the program
        print(f"error: internal: {str(exc) or type(exc).__name__}", file=sys.stderr)
        return EXIT_SOFTWARE


def _verify(args) -> int:
    """verify-marker, verify-refined and verify-cutter: the report of
    ``args.verify``; only verify-cutter has ``--sample`` and ``--seed``."""
    sample = getattr(args, "sample", 0)
    budget = SearchBudget(
        max_states=args.budget_states,
        marker_sampling="random" if sample else "exhaustive",
        sample_plays=sample or 10_000,
        seed=getattr(args, "seed", 0),
    )
    report = args.verify(args.g0, budget)
    _emit(args, report.to_dict(), _verdict_text(report))
    return VERDICT_EXIT[report.verdict]


def _exact_value(args) -> int:
    result = exact_value(args.g0, SearchBudget(max_states=args.budget_states), use_memo=not args.no_memo)
    if result == INCONCLUSIVE:
        verdict = INCONCLUSIVE
    elif cutter_value_threshold(args.g0) <= result <= marker_value_bound(args.g0):
        verdict = PASS
    else:
        verdict = FAIL
    payload = {"g0": args.g0, "mode": "exact_value", "value": result if result != INCONCLUSIVE else None,
               "verdict": verdict, "memo": not args.no_memo, "budget": {"max_states": args.budget_states}}
    _emit(args, payload, str(result) if verdict != FAIL else f"{result}\nverdict: {FAIL}")
    return VERDICT_EXIT[verdict]


def _play(args) -> int:
    records, outcome = play_game(args.g0, marker=args.marker, cutter=args.cutter, seed=args.seed, refined=args.refined)
    if args.trace:
        emit_trace(records, args.trace)
    payload = {"g0": args.g0, "mode": "play", "marker": args.marker, "cutter": args.cutter,
               "refined": args.refined, "seed": args.seed, "outcome": outcome, "plies": len(records) - 1}
    _emit(args, payload, json.dumps(outcome))
    return EXIT_PASS


def _cop_number(args) -> int:
    from .graphs import cop_number

    g = _load_graph(args)
    k = cop_number(g, args.k_max)
    payload = {"mode": "cop_number", "n": g.n, "edges": g.edge_count(), "k_max": args.k_max, "cop_number": k}
    _emit(args, payload, str(k))
    return EXIT_PASS


def _genus(args) -> int:
    from .graphs import genus_exact

    g = _load_graph(args)
    res = genus_exact(g, max_systems=args.budget_states)
    payload = {"mode": "genus", "n": g.n, "edges": g.edge_count(), "genus": res.genus,
               "systems_checked": res.systems_checked, "lower_bound": res.lower_bound}
    _emit(args, payload, str(res.genus))
    return EXIT_PASS


def _check_corpus(args) -> int:
    from .graphs import bundled_corpus, check_corpus, entry_status, load_corpus

    entries = load_corpus(args.dir) if args.dir else bundled_corpus()
    report = check_corpus(entries, k_max=args.k_max, max_systems=args.budget_states)
    payload = {"mode": "check_corpus", "k_max": args.k_max, **report.to_dict()}
    lines = []
    for e in report.entries:
        status, reason = entry_status(e)
        lines.append(f"{e['name']}: cop={e.get('cop_number')} genus={e.get('genus')} "
                     + ("ok" if status == PASS else f"{status.upper()} {reason}"))
    _emit(args, payload, "\n".join(lines))
    return VERDICT_EXIT[report.verdict]


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

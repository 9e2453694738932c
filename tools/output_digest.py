"""One sha256 per output family of a cutgame checkout, for byte-identity
checks between two commits.

    python3 tools/output_digest.py [--root DIR]

``--root`` is the source checkout to import ``cutgame`` from (its
``src`` directory); it defaults to the checkout holding this script, so
the script can digest an older commit that lacks it.  Run it on both
commits and compare the lines: equal digests mean equal bytes.  The
families are

- ``reports``: JSON reports of ``verify_marker_bound`` g0 0..11,
  ``verify_refined`` 1..11 and exhaustive ``verify_cutter_bound`` 0..2;
- ``sampled``: the ``verify_cutter_bound`` report at g0=3, 2 000 sampled
  plays, seed 7;
- ``exact``: ``exact_value`` 0..2, memo on and off;
- ``plays``: the records and outcomes of 36 ``play_game`` runs (g0 0..2,
  auto or random marker and cutter, seeds 0..2) and their ``emit_trace``
  files;
- ``forced-fail``: the reports of the marker, refined and cutter
  verifiers, exhaustive and sampled, with ``equivalence.precedes``
  forced False, each a FAIL with a witness; every ``cutgame`` cache is
  emptied before the fault is planted and after it is removed, so that
  no run reads an answer memoised on the other side of it;
- ``deep``: JSON reports of ``verify_marker_bound`` and
  ``verify_refined`` g0 12..15, where nesting chains first reach depth
  4 and 5 (chain depth grows about g0/3);
- ``cutter-deep``: the ``verify_cutter_bound`` reports at g0 4..6,
  1 000 sampled plays each, seed 7;
- ``auto-plays``: auto marker against auto cutter, g0 0..30 plain and
  1..30 seeded, each play's records and outcome, or the text of the
  ``RuntimeError`` it raised;
- ``kernels``: the canonical shape (a canonical key less its genus)
  of every cycle tuple the canonical form is asked for, read where the
  key path ``equivalence._cached_shape`` is called (on older commits it
  calls ``_canonical_shape``, which nothing else calls, so the two read
  the same inputs), and the
  answer of every ``classify_configuration`` call, in
  ``verify_marker_bound`` 0..13, the ``sampled`` run and
  ``verify_refined`` 1..11, every cache emptied first, so that no input
  is missed;
- ``deep-kernels``: the same canonical shapes in ``verify_marker_bound``
  14..17, where the states carry up to seventeen loop pairs (a)(a);
- ``solver-kernels``: the same canonical shapes in ``exact_value``
  0..4, memo on, whose memo keys are canonical keys;
- ``cli``: ``cli.dispatch`` over ``CLI_ARGV``, each run's exit code,
  stdout, stderr and the files it wrote.  The runs are the README's
  examples (but ``exact-value --g0 4``, which takes 23 s on commits
  before the solver's genus floor), bad input that exits 64, budget and
  ``--k-max`` runs that exit 2, ``--format json`` and ``--out``;
- ``replies``: every reply ``equivalence.cutter_replies`` builds in
  ``verify_marker_bound`` 0..11, ``verify_refined`` 1..11 and
  exhaustive ``verify_cutter_bound`` 0..1, one output per call: each
  reply's kind, next cycles and genus, and its provenance (``derived``,
  ``edge_map``, ``new_edges``), read for every reply, so that both
  readings of the reply assembly are hashed;
- ``sampled-replies``: the same for the calls of the ``sampled`` run,
  started with every cache empty.  Sampled plays share a table of
  audited plies on commits that have one, so a (state, mark) pair that
  recurs while it is in the table makes no call: kept apart, the table
  changes this family alone;
- ``solver-replies``: the same for the calls of ``exact_value`` 0..2,
  kept apart so that a change that prunes only the solver's search
  leaves the verifiers' digest alone.

Each line reads ``family outputs sha256``.  A full run takes about 23 s
on a 2-core x86-64 VM with Python 3.11.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import itertools
import json
import os
import sys
import tempfile

# ``{tmp}`` is a fresh directory per run, ``{corpus}`` the checkout's bundled corpus
# (src/cutgame/graphs/bundled, or data/corpus on commits that kept it there),
# ``{c300}`` the graph6 of a 300-cycle (two cops on it pass the pursuit budget)
CLI_ARGV = [
    ["verify-marker", "--g0", "4"],
    ["verify-cutter", "--g0", "2", "--sample", "10000", "--seed", "7"],
    ["exact-value", "--g0", "1"],
    ["verify-refined", "--g0", "3"],
    ["play", "--g0", "3", "--refined", "--trace", "{tmp}/game.jsonl"],
    ["cop-number", "--g6", "C~", "--k-max", "3"],
    ["genus", "--g6", "D~{"],
    ["check-corpus", "--dir", "{corpus}"],
    ["no-such-command"],
    ["verify-marker", "--g0", "-1"],
    ["verify-refined", "--g0", "0"],
    ["verify-cutter", "--g0", "2", "--sample", "-3"],
    ["--budget-states", "-1", "exact-value", "--g0", "1"],
    ["genus", "--g6", "!!"],
    ["cop-number", "--g6", "C?"],
    ["cop-number", "--graph", "no-such-dir/graph.g6"],
    ["check-corpus", "--k-max", "0"],
    ["--budget-states", "3", "verify-marker", "--g0", "2"],
    ["--budget-states", "10", "exact-value", "--g0", "2"],
    ["--budget-states", "0", "genus", "--g6", "E~~w"],
    ["cop-number", "--g6", "IheA@GUAo", "--k-max", "2"],
    ["cop-number", "--g6", "{c300}", "--k-max", "2"],
    ["--format", "json", "--out", "{tmp}/r.json", "verify-refined", "--g0", "2"],
    ["--out", "{tmp}/r.json", "verify-cutter", "--g0", "2", "--sample", "50", "--seed", "3"],
    ["--format", "json", "exact-value", "--g0", "0", "--no-memo"],
    ["--format", "json", "play", "--g0", "2", "--marker", "random", "--cutter", "random", "--seed", "1"],
    ["--format", "json", "--out", "{tmp}/r.json", "genus", "--g6", "H{S{aSf"],
    ["--format", "json", "cop-number", "--g6", "IheA@GUAo", "--k-max", "3"],
    ["--format", "json", "--out", "{tmp}/r.json", "--budget-states", "0", "check-corpus", "--k-max", "2"],
]


def clear_caches() -> None:
    """Empty every functools cache bound in a loaded ``cutgame`` module."""
    for name, module in list(sys.modules.items()):
        if name == "cutgame" or name.startswith("cutgame."):
            for val in vars(module).values():
                if callable(getattr(val, "cache_clear", None)):
                    val.cache_clear()


def families(root: str):
    """(family, outputs) pairs, each output a string or bytes."""
    from cutgame import arena, equivalence
    from cutgame.arena import SearchBudget
    from cutgame.cli import dispatch
    from cutgame.graphs import cycle_graph, emit_graph6

    reports = [arena.verify_marker_bound(g0).to_json() for g0 in range(12)]
    reports += [arena.verify_refined(g0).to_json() for g0 in range(1, 12)]
    reports += [arena.verify_cutter_bound(g0).to_json() for g0 in range(3)]
    yield "reports", reports

    sampled = SearchBudget(marker_sampling="random", sample_plays=2_000, seed=7)
    yield "sampled", [arena.verify_cutter_bound(3, sampled).to_json()]

    yield "exact", [repr(arena.exact_value(g0, use_memo=memo)) for memo in (True, False) for g0 in range(3)]

    plays = []
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "trace.jsonl")
        for g0, marker, cutter, seed in itertools.product(range(3), ("auto", "random"), ("auto", "random"), range(3)):
            records, outcome = arena.play_game(g0, marker=marker, cutter=cutter, seed=seed)
            arena.emit_trace(records, path)
            with open(path, "rb") as fh:
                plays += [json.dumps([records, outcome], sort_keys=True), fh.read()]
    yield "plays", plays

    real = equivalence.precedes
    clear_caches()
    equivalence.precedes = lambda candidate, earlier: False
    try:
        failed = [arena.verify_marker_bound(3), arena.verify_refined(3), arena.verify_cutter_bound(2),
                  arena.verify_cutter_bound(3, SearchBudget(marker_sampling="random", sample_plays=50, seed=1))]
    finally:
        equivalence.precedes = real
        clear_caches()
    if any(r.verdict != arena.FAIL or not r.witness for r in failed):
        raise SystemExit("a forced fault did not fail with a witness")
    yield "forced-fail", [r.to_json() for r in failed]

    yield "deep", [verify(g0).to_json() for verify in (arena.verify_marker_bound, arena.verify_refined)
                   for g0 in range(12, 16)]

    deep_sampled = SearchBudget(marker_sampling="random", sample_plays=1_000, seed=7)
    yield "cutter-deep", [arena.verify_cutter_bound(g0, deep_sampled).to_json() for g0 in range(4, 7)]

    auto_plays = []
    for refined in (False, True):
        for g0 in range(int(refined), 31):
            try:
                auto_plays.append(json.dumps(arena.play_game(g0, refined=refined), sort_keys=True))
            except RuntimeError as exc:
                auto_plays.append(f"error: {exc}")
    yield "auto-plays", auto_plays

    yield "kernels", kernel_outputs(arena, equivalence, sampled)
    yield "deep-kernels", shape_outputs(equivalence, lambda: [arena.verify_marker_bound(g0) for g0 in range(14, 18)])
    yield "solver-kernels", shape_outputs(equivalence, lambda: [arena.exact_value(g0) for g0 in range(5)])

    corpus = os.path.join(root, "src", "cutgame", "graphs", "bundled")
    if not os.path.isdir(corpus):
        corpus = os.path.join(root, "data", "corpus")
    fill = {"{corpus}": corpus, "{c300}": emit_graph6(cycle_graph(300))}
    runs = []
    for argv in CLI_ARGV:
        with tempfile.TemporaryDirectory() as tmp:
            out, err = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = dispatch([fill.get(a, a).replace("{tmp}", tmp) for a in argv])
            written = {}
            for name in sorted(os.listdir(tmp)):
                with open(os.path.join(tmp, name), encoding="utf-8") as fh:
                    written[name] = fh.read()
        runs.append(json.dumps([argv, code, out.getvalue(), err.getvalue(), written]))
    yield "cli", runs

    verifiers, sampled_replies, solver = reply_outputs(arena, equivalence, sampled)
    yield "replies", verifiers
    yield "sampled-replies", sampled_replies
    yield "solver-replies", solver


def shape_outputs(equivalence, run) -> list[str]:
    """Every distinct input of the key path ``_cached_shape`` during
    ``run()``, read at its call sites, with the shape it gave, sorted;
    every cache is emptied first, so that none is missed."""
    shapes: dict = {}
    real = equivalence._cached_shape

    def shape(cycles):
        shapes[tuple(cycles)] = out = real(cycles)
        return out

    clear_caches()
    equivalence._cached_shape = shape
    try:
        run()
    finally:
        equivalence._cached_shape = real
        clear_caches()
    return sorted(f"{cycles!r} {out!r}" for cycles, out in shapes.items())


def kernel_outputs(arena, equivalence, sampled) -> list[str]:
    """The two search kernels under each marker node, read at their call
    sites: the canonical shapes (``shape_outputs``) of marker 0..13, the
    sampled run and refined 1..11, then every ``classify_configuration``
    call in call order with its answer."""
    calls = []
    real = arena.classify_configuration

    def classify(active, state, allow_pseudo=False):
        got = real(active, state, allow_pseudo=allow_pseudo)
        calls.append(repr((active, state.cycles, state.genus, allow_pseudo, got)))
        return got

    def run():
        for g0 in range(14):
            arena.verify_marker_bound(g0)
        arena.verify_cutter_bound(3, sampled)
        for g0 in range(1, 12):
            arena.verify_refined(g0)

    arena.classify_configuration = classify
    try:
        shapes = shape_outputs(equivalence, run)
    finally:
        arena.classify_configuration = real
    return shapes + calls


def reply_outputs(arena, equivalence, sampled) -> tuple[list[str], list[str], list[str]]:
    """Every ``cutter_replies`` call of the exhaustive verifiers, of the
    sampled run (the caches emptied first) and of the solver, read at its
    call site in ``legal_replies``, with every reply's provenance."""
    replies: list[str] = []
    real = equivalence.cutter_replies

    def record(marked):
        got = real(marked)
        replies.append(repr([(r.kind, r.next.cycles, r.next.genus, r.derived, r.edge_map, r.new_edges)
                             for r in got]))
        return got

    equivalence.cutter_replies = record
    try:
        for g0 in range(12):
            arena.verify_marker_bound(g0)
        for g0 in range(1, 12):
            arena.verify_refined(g0)
        for g0 in range(2):
            arena.verify_cutter_bound(g0)
        verifiers, replies = replies, []
        clear_caches()
        arena.verify_cutter_bound(3, sampled)
        sampled_replies, replies = replies, []
        for g0 in range(3):
            arena.exact_value(g0)
    finally:
        equivalence.cutter_replies = real
    return verifiers, sampled_replies, replies


def digest(outputs) -> str:
    """sha256 over the outputs, each length-prefixed so that no two
    sequences of outputs hash alike by concatenation."""
    h = hashlib.sha256()
    for out in outputs:
        data = out.encode("utf-8") if isinstance(out, str) else out
        h.update(len(data).to_bytes(8, "big"))
        h.update(data)
    return h.hexdigest()


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--root", default=os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                    help="source checkout to digest (default: this one)")
    args = ap.parse_args()
    root = os.path.abspath(args.root)
    sys.path.insert(0, os.path.join(root, "src"))
    for family, outputs in families(root):
        print(family, len(outputs), digest(outputs), flush=True)


if __name__ == "__main__":
    main()

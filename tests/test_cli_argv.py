"""Drawn command lines: ``dispatch`` answers every one with a documented
exit code and never raises.

The argv are bounded so the suite stays fast: starting genus -1..2,
a state budget of at most 20 000 on every run, sampled runs of up to
50 plays, global flags before or after the subcommand, graph6
strings of at most six characters that may carry bytes outside the
alphabet, and paths that do not exist.
"""

import contextlib
import io
import os

from hypothesis import given, settings
from hypothesis import strategies as st

from cutgame.cli import EXIT_FAIL, EXIT_INCONCLUSIVE, EXIT_PASS, EXIT_SOFTWARE, EXIT_USAGE, dispatch

EXITS = {EXIT_PASS, EXIT_FAIL, EXIT_INCONCLUSIVE, EXIT_USAGE, EXIT_SOFTWARE}
MISSING = os.path.join(os.path.dirname(__file__), "no-such-dir", "graph.g6")

graph6 = st.one_of(
    st.sampled_from(["@", "A_", "Bw", "C~", "Cr", "D~{", "E~~w", "FQhVo", "G~~~~{"]),  # valid: K1..K6, K8 and two sparser
    st.text(st.sampled_from([chr(c) for c in range(63, 127)] + [" ", "!", "\x7f", "\xe9", "\n"]), max_size=6),
)


def flag(name: str, values) -> st.SearchStrategy:
    """``[name, value]`` or nothing."""
    return st.one_of(st.just([]), values.map(lambda v: [name, v]))


def switch(name: str) -> st.SearchStrategy:
    return st.sampled_from([[], [name]])


def command(name: str, *parts: st.SearchStrategy) -> st.SearchStrategy:
    return st.tuples(*parts).map(lambda drawn: [name] + [a for part in drawn for a in part])


g0 = st.integers(-1, 2).map(lambda v: ["--g0", str(v)])
seed = flag("--seed", st.integers(0, 9).map(str))
k_max = flag("--k-max", st.integers(-1, 4).map(str))
graph = st.one_of(graph6.map(lambda s: ["--g6", s]), st.just(["--graph", MISSING]))

commands = st.one_of(
    command("verify-marker", g0),
    command("verify-refined", g0),
    command("verify-cutter", g0, flag("--sample", st.integers(-1, 50).map(str)), seed),
    command("exact-value", g0, switch("--no-memo")),
    command("play", g0, flag("--marker", st.sampled_from(["auto", "random"])),
            flag("--cutter", st.sampled_from(["auto", "random"])), switch("--refined"), seed,
            flag("--trace", st.just(MISSING))),
    command("cop-number", graph, k_max),
    command("genus", graph),
    command("check-corpus", flag("--dir", st.just(os.path.dirname(MISSING))), k_max),
    st.lists(st.sampled_from(["--g0", "2", "play", "x", "--sample"]), max_size=3),
)


def either_side(tokens: st.SearchStrategy) -> st.SearchStrategy:
    """``(tokens, after)``: a global flag goes before the subcommand or after it."""
    return st.tuples(tokens, st.booleans())


def place(drawn) -> list[str]:
    *flags, cmd = drawn
    return ([a for tokens, after in flags if not after for a in tokens] + cmd
            + [a for tokens, after in flags if after for a in tokens])


argvs = st.tuples(
    either_side(st.integers(-1, 20_000).map(lambda n: ["--budget-states", str(n)])),
    either_side(flag("--format", st.sampled_from(["json", "text"]))),
    either_side(flag("--out", st.just(MISSING))),
    commands,
).map(place)


@given(argvs)
@settings(max_examples=200, deadline=None, derandomize=True, database=None)
def test_dispatch_answers_every_argv_with_an_exit_code(argv):
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        code = dispatch(argv)
    assert code in EXITS, (argv, code)

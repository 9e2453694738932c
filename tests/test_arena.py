import copy
import dataclasses
import json
import os

import pytest

from cutgame import arena, equivalence
from cutgame.arena import (
    SearchBudget,
    cutter_value_threshold,
    emit_trace,
    exact_value,
    marker_value_bound,
    play_game,
    ply_record,
    refined_value_bound,
    switch_value_bound,
    verify_cutter_bound,
    verify_marker_bound,
    verify_refined,
)
from cutgame.cli import dispatch
from cutgame.core import enumerate_marker_moves, value
from cutgame.equivalence import canonical_key, legal_replies
from cutgame.errors import InputError
from cutgame.strategy import ActiveCycle

ALLOWED_TRANSITIONS = {
    (1, "A"), (1, "B"), (1, "C"),
    (2, "D"),
    (3, "A"),
    (4, "A"), (4, "B"), (4, "C"),
    (5, "A"), (6, "A"), (7, "A"),
    (8, "A"), (8, "B"), (8, "C"),
    (9, "A"), (10, "A"), (11, "A"), (12, "A"),
}


def test_bound_formulas():
    assert [marker_value_bound(n) for n in range(5)] == [3, 4, 6, 7, 8]
    assert [cutter_value_threshold(n) for n in range(4)] == [2, 4, 5, 6]
    assert [refined_value_bound(n) for n in (1, 2, 3)] == [3, 5, 6]
    assert switch_value_bound(4) == 5


def test_marker_bound_small():
    for g0 in (0, 1, 2):
        report = verify_marker_bound(g0)
        assert report.verdict == "pass", report.failure
        assert report.max_value_seen <= report.bound
        assert set(report.transitions_seen) <= ALLOWED_TRANSITIONS
        assert report.details["max_ply_depth"] <= report.bound + 1


def test_cutter_bound_exhaustive_small():
    for g0, threshold in ((0, 2), (1, 4)):
        report = verify_cutter_bound(g0)
        assert report.verdict == "pass", report.failure
        assert report.bound == threshold


def test_cutter_bound_sampled_deterministic():
    budget = SearchBudget(marker_sampling="random", sample_plays=200, seed=42)
    a = verify_cutter_bound(2, budget)
    b = verify_cutter_bound(2, budget)
    assert a.verdict == "pass"
    assert a.to_json() == b.to_json()


def test_exact_values():
    assert exact_value(0) == 2
    assert exact_value(1) == 4


def test_exact_value_memo_oracle():
    for g0 in (0, 1):
        assert exact_value(g0, use_memo=True) == exact_value(g0, use_memo=False)


def test_refined_small():
    for g0 in (1, 2, 3):
        report = verify_refined(g0)
        assert report.verdict == "pass", report.failure
        assert report.max_value_seen <= report.bound
        assert report.details["seed_potential"] == "-3/1"


def test_refined_switch_at_four():
    report = verify_refined(4)
    assert report.verdict == "pass", report.failure
    assert report.details.get("switches", 0) >= 1


def test_budget_exhaustion_is_inconclusive():
    report = verify_marker_bound(2, SearchBudget(max_states=3))
    assert report.verdict == "inconclusive"
    report = verify_cutter_bound(1, SearchBudget(max_states=3))
    assert report.verdict == "inconclusive"
    report = verify_cutter_bound(2, SearchBudget(marker_sampling="random", sample_plays=30, max_depth=1))
    assert report.verdict == "inconclusive" and report.failure == "depth budget exhausted"
    assert exact_value(1, SearchBudget(max_states=3)) == "inconclusive"


def test_report_roundtrip():
    report = verify_marker_bound(1)
    data = json.loads(report.to_json())
    assert data["verdict"] == "pass"
    assert data["g0"] == 1
    assert data["budget"]["max_states"] == 2_000_000


def read_trace(path: str) -> list[dict]:
    """The records of an ``emit_trace`` file, one per non-blank line."""
    with open(path, "r", encoding="utf-8") as fh:
        return [json.loads(line) for line in fh if line.strip()]


def test_trace_roundtrip(tmp_path):
    records, outcome = play_game(1, marker="auto", cutter="auto")
    path = os.path.join(tmp_path, "trace.jsonl")
    emit_trace(records, path)
    back = read_trace(path)
    assert back == records
    assert len(back) == len(records)
    emit_trace([], path)
    assert read_trace(path) == []
    assert os.path.getsize(path) == 0


def test_refined_trace_first_line(tmp_path):
    records, _ = play_game(3, marker="auto", cutter="auto", refined=True)
    path = os.path.join(tmp_path, "t.jsonl")
    emit_trace(records, path)
    first = read_trace(path)[0]
    assert first["ply"] == 0
    assert first["value"] == 3
    assert first["potential"] == "-3/1"


def test_play_random_vs_random_reproducible():
    a = play_game(2, marker="random", cutter="random", seed=9)
    b = play_game(2, marker="random", cutter="random", seed=9)
    assert a == b


@pytest.mark.usefixtures("tripled_label")
@pytest.mark.parametrize("marker, cutter", [("auto", "auto"), ("random", "random"), ("auto", "random")])
def test_play_validates_every_state(marker, cutter):
    with pytest.raises(RuntimeError, match=r"^invalid state \(properness\): label 0 appears on 3 edges$"):
        play_game(2, marker=marker, cutter=cutter, seed=1)


_BUDGET = {"marker_sampling": "exhaustive", "max_depth": None, "max_states": 2000000, "sample_plays": 10000, "seed": 0}
_REPORT = {"details": {}, "failure": None, "opponent_model": "restricted-cutter", "terminal_plays": 0,
           "transitions_seen": {}, "verdict": "pass", "witness": None}

# whole reports as the verifiers wrote them before their searches shared
# one loop, and (marker g0=5, cutter g0=2 at 5 000 states) before that
# loop merged equal nodes
GOLDEN = {
    "marker g0=3": (lambda: verify_marker_bound(3), {
        "bound": 7, "details": {"max_ply_depth": 7}, "g0": 3, "max_value_seen": 7,
        "mode": "marker_bound", "states_explored": 78, "terminal_plays": 20,
        "transitions_seen": {"1-A": 12, "1-B": 2, "2-D": 12, "3-A": 6, "4-A": 2}}),
    "refined g0=4": (lambda: verify_refined(4), {
        "bound": 7, "details": {"max_ply_depth": 1, "seed_potential": "-3/1", "switch_bound": 5, "switches": 1},
        "g0": 4, "max_value_seen": 5, "mode": "refined", "states_explored": 2, "terminal_plays": 1,
        "transitions_seen": {"1-A": 1}}),
    "cutter exhaustive g0=1": (lambda: verify_cutter_bound(1), {
        "bound": 4, "g0": 1, "max_value_seen": 4, "mode": "cutter_bound", "states_explored": 2552,
        "terminal_plays": 2414}),
    "cutter sampled g0=2": (
        lambda: verify_cutter_bound(2, SearchBudget(marker_sampling="random", sample_plays=200, seed=42)), {
            "bound": 5, "budget": dict(_BUDGET, marker_sampling="random", sample_plays=200, seed=42),
            "g0": 2, "max_value_seen": 5, "mode": "cutter_bound", "states_explored": 1000, "terminal_plays": 200}),
    "marker g0=2 max_states=3": (lambda: verify_marker_bound(2, SearchBudget(max_states=3)), {
        "bound": 6, "budget": dict(_BUDGET, max_states=3), "details": {"frontier": 4, "max_ply_depth": 2},
        "failure": "state budget exhausted", "g0": 2, "max_value_seen": 2, "mode": "marker_bound",
        "states_explored": 4, "transitions_seen": {"1-A": 1}, "verdict": "inconclusive"}),
    "marker g0=3 max_depth=2": (lambda: verify_marker_bound(3, SearchBudget(max_depth=2)), {
        "bound": 7, "budget": dict(_BUDGET, max_depth=2), "details": {"max_ply_depth": 3},
        "failure": "depth budget exhausted", "g0": 3, "max_value_seen": 3, "mode": "marker_bound",
        "states_explored": 4, "transitions_seen": {"1-A": 1}, "verdict": "inconclusive"}),
    "marker g0=5": (lambda: verify_marker_bound(5), {
        "bound": 10, "details": {"max_ply_depth": 10}, "g0": 5, "max_value_seen": 10,
        "mode": "marker_bound", "states_explored": 218, "terminal_plays": 48,
        "transitions_seen": {"1-A": 36, "1-B": 12, "10-A": 6, "11-A": 2, "2-D": 36, "3-A": 22, "4-A": 12,
                             "4-C": 2}}),
    "cutter exhaustive g0=2 max_states=5000": (lambda: verify_cutter_bound(2, SearchBudget(max_states=5000)), {
        "bound": 5, "budget": dict(_BUDGET, max_states=5000), "details": {"frontier": 69},
        "failure": "state budget exhausted", "g0": 2, "max_value_seen": 5, "mode": "cutter_bound",
        "states_explored": 5001, "terminal_plays": 4867, "verdict": "inconclusive"}),
}


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_report_matches_golden(name):
    run, fields = GOLDEN[name]
    expected = {**_REPORT, "budget": _BUDGET, **fields}
    assert run().to_json() == json.dumps(expected, sort_keys=True)


def _runs(budgets: list) -> list:
    """One verifier call per budget: marker g0=2..4, refined 2..5 and
    exhaustive cutter 1..2."""
    return [lambda verify=verify, g0=g0, budget=budget: verify(g0, budget)
            for budget in budgets
            for verify, genera in ((verify_marker_bound, range(2, 5)), (verify_refined, range(2, 6)),
                                   (verify_cutter_bound, range(1, 3)))
            for g0 in genera]


MERGE_CASES = {
    "unbudgeted": [lambda g0=g0: verify_marker_bound(g0) for g0 in range(10)]
    + [lambda g0=g0: verify_refined(g0) for g0 in range(1, 10)]
    + [lambda g0=g0: verify_cutter_bound(g0) for g0 in range(2)],
    "max_states": _runs([SearchBudget(max_states=n) for n in (0, 3, 50, 200, 1000)]),
    "max_depth": _runs([SearchBudget(max_depth=d) for d in range(4)]),
}


@pytest.mark.parametrize("case", sorted(MERGE_CASES))
def test_merged_search_reports_the_unmerged_tree(request, case):
    """Merging equal nodes changes no byte of a report, budget stops
    included."""
    runs = MERGE_CASES[case]
    merged = [run().to_json() for run in runs]
    request.getfixturevalue("unmerged")
    assert merged == [run().to_json() for run in runs]


def _bumping_search(key, budget: SearchBudget) -> tuple[str, int]:
    """Every legal reply to every mark from genus one to value 3, each
    node adding to every additive field of the report; returns the
    report's JSON and how many nodes were expanded."""
    report = arena.VerificationReport(1, "test", 3, budget)
    expanded = []

    def expand(node):
        expanded.append(node)
        v = value(node.state)
        report.details["switches"] = report.details.get("switches", 0) + 1
        report.details["rebinds"] = report.details.get("rebinds", 0) + v
        report.transitions_seen[(v, "A")] = report.transitions_seen.get((v, "A"), 0) + 1
        if v >= 3:
            report.terminal_plays += 1
            return []
        return [node.child(marked, reply) for marked in enumerate_marker_moves(node.state)
                for reply in legal_replies(marked)]

    arena._search(report, [arena._Node.root(arena._start(1))], budget, expand, key)
    return report.to_json(), len(expanded)


@pytest.mark.parametrize("max_states", [2_000_000, 300])
def test_merged_search_replays_every_additive_field(max_states):
    budget = SearchBudget(max_states=max_states)
    merged, merged_expanded = _bumping_search(lambda node: node.state, budget)
    unmerged, unmerged_expanded = _bumping_search(None, budget)
    assert merged == unmerged
    assert merged_expanded < unmerged_expanded


def test_marker_search_expands_each_distinct_node_once(monkeypatch, request):
    # one legality call per expanded node: 513 distinct (state, phase)
    # pairs among the 1 016 nodes of the tree
    calls = []
    real = arena.legal_replies
    monkeypatch.setattr(arena, "legal_replies", lambda marked: calls.append(1) or real(marked))
    assert verify_marker_bound(9).states_explored == 1016
    merged = len(calls)
    request.getfixturevalue("unmerged")
    assert verify_marker_bound(9).states_explored == 1016
    assert (merged, len(calls) - merged) == (513, 1016)


def test_fault_at_a_repeated_state_fails_alike_merged_or_not(monkeypatch, request):
    """A classifier that fails at one bounding state which the tree
    reaches twice gives one failure, text and witness in both modes."""
    classified = []
    real = arena.classify_configuration
    with monkeypatch.context() as patch:
        patch.setattr(arena, "_marker_key", None)
        patch.setattr(arena, "classify_configuration",
                      lambda active, state, allow_pseudo: classified.append(state) or real(active, state, allow_pseudo))
        assert verify_marker_bound(6).verdict == "pass"
    target = next(state for state in classified if classified.count(state) > 1)
    monkeypatch.setattr(arena, "classify_configuration", lambda active, state, allow_pseudo: (
        None if state == target else real(active, state, allow_pseudo)))
    merged = verify_marker_bound(6)
    assert merged.verdict == "fail"
    assert merged.failure.startswith("classifier saw configuration None, strategy claims ")
    assert merged.witness[-1]["canonical_key"] == canonical_key(target)
    request.getfixturevalue("unmerged")
    assert verify_marker_bound(6).to_json() == merged.to_json()


@pytest.mark.parametrize("attr, shift, run", [
    ("marker_value_bound", -1, lambda: verify_marker_bound(3)),
    ("refined_value_bound", -1, lambda: verify_refined(3)),
    ("cutter_value_threshold", 1, lambda: verify_cutter_bound(1)),
    ("cutter_value_threshold", 1,
     lambda: verify_cutter_bound(0, SearchBudget(marker_sampling="random", sample_plays=20, seed=3))),
], ids=["marker", "refined", "cutter-exhaustive", "cutter-sampled"])
def test_witness_runs_from_root_to_failing_ply(monkeypatch, attr, shift, run):
    original = getattr(arena, attr)
    monkeypatch.setattr(arena, attr, lambda g0: original(g0) + shift)
    report = run()
    assert report.verdict == "fail"
    plies = [rec["ply"] for rec in report.witness]
    values = [rec["value"] for rec in report.witness]
    assert len(plies) > 2
    assert plies == list(range(len(plies)))
    assert values == list(range(values[0], values[0] + len(values)))
    assert report.witness[0]["mover"] is None
    assert all(rec["mover"] == "cutter" for rec in report.witness[1:])


def test_explored_states_are_validated(monkeypatch):
    """A reply whose state puts one label on three edges fails the run,
    also as the last, unpushed state of a sampled play."""
    real = arena.cutter_move
    improper = []

    def cutter_move(marked, legal):
        reply, anomaly = real(marked, legal)
        state = reply.next
        if value(state) < 2:
            return reply, anomaly
        first = state.cycles[0]
        first += (first[0],) * (3 - state.label_counts()[first[0]])
        bad = dataclasses.replace(state, cycles=(first,) + state.cycles[1:])
        improper.append(canonical_key(bad))
        return dataclasses.replace(reply, next=bad), anomaly

    monkeypatch.setattr(arena, "cutter_move", cutter_move)
    for budget in (None, SearchBudget(marker_sampling="random", sample_plays=50, seed=1)):
        report = verify_cutter_bound(0, budget)
        assert report.verdict == "fail"
        assert "properness" in report.failure and "3 edges" in report.failure
        assert report.witness[-1]["canonical_key"] in improper
        assert [rec["ply"] for rec in report.witness] == [0, 1, 2]


def test_too_loose_legality_is_caught_by_every_engine(monkeypatch):
    """With ``precedes`` always False the replies that lose a label are
    legal too: every verifier fails with a witness that ends at one, the
    cutter's even where the reply it plays is sound, and the solver and
    a random play raise."""
    monkeypatch.setattr(equivalence, "precedes", lambda candidate, earlier: False)
    sampled = SearchBudget(marker_sampling="random", sample_plays=50, seed=1)
    for report in (verify_marker_bound(3), verify_refined(3), verify_cutter_bound(2), verify_cutter_bound(3, sampled)):
        assert report.verdict == "fail"
        assert report.failure == "value did not increase by one"
        *_, before, last = report.witness
        assert last["value"] <= before["value"]
    with pytest.raises(RuntimeError, match="not by one"):
        exact_value(1)
    with pytest.raises(RuntimeError, match="^value did not increase by one$"):
        play_game(2, marker="random", cutter="random")


@pytest.mark.usefixtures("swapped_arcs")
@pytest.mark.parametrize("g0, budget", [
    (0, None), (1, None), (2, None),
    (3, SearchBudget(marker_sampling="random", sample_plays=2_000, seed=7)),
], ids=["exhaustive-0", "exhaustive-1", "exhaustive-2", "sampled-3"])
def test_cutter_with_swapped_arcs_fails(g0, budget):
    """A cutter that licenses B and C the wrong way round has no
    licensed reply that keeps the potential from rising, and it plays
    no other: the verifier fails with a witness."""
    report = verify_cutter_bound(g0, budget)
    assert report.verdict == "fail"
    assert report.failure == "cutter had no potential-non-increasing reply"
    assert report.witness and report.witness[-1]["mover"] == "cutter"


def _sampled(seed: int, plays: int = 2_000) -> SearchBudget:
    return SearchBudget(marker_sampling="random", sample_plays=plays, seed=seed)


def _reports_and_plies(monkeypatch, g0: int, budgets: list) -> tuple[list, list]:
    """The sampled runs' JSON reports, and each ply the sampled verifier
    was given: its mark's fields, depth, failure, reply and record."""
    plies = []
    audit = arena._tabled_reply

    def recording(marked, depth):
        failure, reply, record = got = audit(marked, depth)
        plies.append((marked.state, marked.v, marked.w, marked.same_dummy, depth,
                      failure, reply and (reply.kind, reply.next), record))
        return got

    with monkeypatch.context() as patch:
        patch.setattr(arena, "_tabled_reply", recording)
        return [verify_cutter_bound(g0, budget).to_json() for budget in budgets], plies


@pytest.mark.parametrize("g0", range(5))
def test_tabled_sampled_plays_match_untabled(monkeypatch, request, g0):
    """Sampled runs that share the table of audited plies, one after
    another, give the reports and plies of runs that audit every ply
    afresh."""
    budgets = [_sampled(seed, 300) for seed in (0, 7, 1101)]
    tabled = _reports_and_plies(monkeypatch, g0, budgets)
    assert arena._tabled_reply.cache_info().hits > 0
    request.getfixturevalue("untabled")
    assert _reports_and_plies(monkeypatch, g0, budgets) == tabled


@pytest.mark.usefixtures("swapped_arcs")
def test_tabled_failures_match_untabled(request):
    """Under a cutter fault, each sampled run fails alike, text and
    witness, with the table (warmed by the runs before it) or without."""
    budgets = [_sampled(seed) for seed in (7, 1, 2, 3)]
    tabled = [verify_cutter_bound(3, budget) for budget in budgets]
    assert all(r.verdict == "fail" and r.witness for r in tabled)
    assert arena._tabled_reply.cache_info().hits > 0
    request.getfixturevalue("untabled")
    assert [verify_cutter_bound(3, budget).to_json() for budget in budgets] == [r.to_json() for r in tabled]


@pytest.mark.usefixtures("swapped_arcs")
def test_witness_consumers_leave_shared_records_alone(tmp_path, capsys):
    """Sampled plays share the ply records of the table of audited
    plies, so no consumer of a witness may change one: the report's JSON,
    a trace and the CLI's outputs leave the witness as it was, and a run
    that reads the same records from the table reports the same."""
    report = verify_cutter_bound(3, _sampled(7))
    assert report.verdict == "fail"
    before, first = copy.deepcopy(report.witness), report.to_json()
    emit_trace(report.witness, str(tmp_path / "trace.jsonl"))
    for argv in (["--out", str(tmp_path / "r.json")], ["--format", "json"]):
        assert dispatch(argv + ["verify-cutter", "--g0", "3", "--sample", "2000", "--seed", "7"]) == 1
    capsys.readouterr()
    assert report.witness == before
    assert report.to_json() == first == verify_cutter_bound(3, _sampled(7)).to_json()


def test_mark_off_the_state_is_a_strategy_failure(monkeypatch):
    """A marker strategy whose mark names a vertex the state lacks fails
    its verifier with a witness, and a play raises ``RuntimeError``: the
    fault is the strategy's, not the caller's input."""
    monkeypatch.setattr(ActiveCycle, "mark_vertex", lambda self, atom_idx: (self.cycle, 99))
    for report in (verify_marker_bound(3), verify_refined(3)):
        assert report.verdict == "fail"
        assert report.failure.startswith("marking failed in configuration 1: mark references missing vertex (")
        assert report.witness
    with pytest.raises(RuntimeError, match=r"^marking failed in configuration 1: mark references missing vertex"):
        play_game(3)


@pytest.mark.parametrize("call, match", [
    (lambda: verify_marker_bound(-1), "genus"),
    (lambda: verify_cutter_bound(-1), "genus"),
    (lambda: exact_value(-1), "genus"),
    (lambda: play_game(-1), "genus"),
    (lambda: verify_refined(0), "genus"),
    (lambda: play_game(0, refined=True), "genus"),
    (lambda: play_game(2, marker="randon"), "^unknown marker player 'randon'$"),
    (lambda: play_game(2, cutter="atuo"), "^unknown cutter player 'atuo'$"),
], ids=["marker", "cutter", "exact", "play", "refined", "play-refined", "play-marker-name", "play-cutter-name"])
def test_bad_genus_raises(call, match):
    """Bad input, a genus out of range or an unknown player name, is an
    ``InputError`` that names it."""
    with pytest.raises(InputError, match=match):
        call()


@pytest.mark.parametrize("kwargs", [
    dict(marker_sampling="random", sample_plays=0),
    dict(marker_sampling="random", sample_plays=-2),
    dict(marker_sampling="rnd"),
    dict(max_states=-1),
    dict(max_depth=-1),
], ids=["no-plays", "negative-plays", "unknown-mode", "negative-states", "negative-depth"])
def test_bad_budget_raises(kwargs):
    """A sampled run of no plays would pass having explored nothing."""
    with pytest.raises(ValueError):
        verify_cutter_bound(2, SearchBudget(**kwargs))


def test_zero_budgets_stay_valid():
    assert verify_marker_bound(2, SearchBudget(max_states=0)).verdict == "inconclusive"
    assert verify_marker_bound(2, SearchBudget(max_depth=0)).verdict == "inconclusive"
    assert verify_cutter_bound(0, SearchBudget(sample_plays=0)).verdict == "pass"


def test_ply_record_fields():
    from cutgame.core import empty_state

    rec = ply_record(0, None, None, None, empty_state(2))
    assert set(rec) == {"ply", "mover", "mark", "reply", "value", "genus", "potential", "canonical_key"}
    assert rec["potential"] == "0/1"


@pytest.mark.slow
def test_exact_value_two_handles():
    # the theorems bracket the genus-2 value to {5, 6}; the solver pins 5
    assert exact_value(2, SearchBudget(max_states=30_000_000)) == 5


@pytest.mark.slow
def test_marker_bound_full_depth():
    for g0 in (5, 6, 7, 8, 9):
        report = verify_marker_bound(g0)
        assert report.verdict == "pass", (g0, report.failure)
        assert set(report.transitions_seen) <= ALLOWED_TRANSITIONS
    # by genus nine every arrow of the automaton has fired
    assert set(verify_marker_bound(9).transitions_seen) == {
        (1, "A"), (1, "B"), (2, "D"), (3, "A"), (4, "A"), (4, "C"),
        (5, "A"), (6, "A"), (7, "A"), (8, "A"), (8, "B"), (9, "A"),
        (10, "A"), (11, "A"), (12, "A"),
    }


@pytest.mark.slow
def test_marker_bound_ten_and_eleven():
    for g0, states, top in ((10, 1415, 16), (11, 1942, 18)):
        report = verify_marker_bound(g0)
        assert report.verdict == "pass", (g0, report.failure)
        assert (report.states_explored, report.max_value_seen) == (states, top)
        assert top <= marker_value_bound(g0)


@pytest.mark.slow
def test_refined_rebind_full_game():
    report = verify_refined(7)
    assert report.verdict == "pass", report.failure
    assert report.details.get("rebinds", 0) >= 1
    assert report.details.get("switches", 0) >= 1

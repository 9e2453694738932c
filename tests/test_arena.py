import dataclasses
import json
import os

import pytest

from cutgame import arena
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
from cutgame.core import value
from cutgame.equivalence import canonical_key

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


_BUDGET = {"marker_sampling": "exhaustive", "max_depth": None, "max_states": 2000000, "sample_plays": 10000, "seed": 0}
_REPORT = {"details": {}, "failure": None, "opponent_model": "restricted-cutter", "terminal_plays": 0,
           "transitions_seen": {}, "verdict": "pass", "witness": None}

# whole reports as the verifiers wrote them before their searches shared one loop
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
}


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_report_matches_golden(name):
    run, fields = GOLDEN[name]
    expected = {**_REPORT, "budget": _BUDGET, **fields}
    assert run().to_json() == json.dumps(expected, sort_keys=True)


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
        improper.append(str(canonical_key(bad)))
        return dataclasses.replace(reply, next=bad), anomaly

    monkeypatch.setattr(arena, "cutter_move", cutter_move)
    for budget in (None, SearchBudget(marker_sampling="random", sample_plays=50, seed=1)):
        report = verify_cutter_bound(0, budget)
        assert report.verdict == "fail"
        assert "properness" in report.failure and "3 edges" in report.failure
        assert report.witness[-1]["canonical_key"] in improper
        assert [rec["ply"] for rec in report.witness] == [0, 1, 2]


@pytest.mark.parametrize("call", [
    lambda: verify_marker_bound(-1),
    lambda: verify_cutter_bound(-1),
    lambda: exact_value(-1),
    lambda: play_game(-1),
    lambda: verify_refined(0),
    lambda: play_game(0, refined=True),
], ids=["marker", "cutter", "exact", "play", "refined", "play-refined"])
def test_bad_genus_raises(call):
    with pytest.raises(ValueError, match="genus"):
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

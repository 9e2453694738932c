"""The exact solver against the reference that builds every reply, the
marks that end the game, and the bounds around the game value."""

import dataclasses

import pytest

import reference_solver
from cutgame import arena, equivalence
from cutgame.arena import SearchBudget, cutter_value_threshold, ending_marks, exact_value, marker_value_bound
from cutgame.core import GameState, enumerate_marker_moves
from cutgame.equivalence import legal_replies
from fuzz import all_proper_states
from reference_solver import reference_exact_value


def _point(marked) -> tuple:
    return marked.v, marked.w, marked.same_dummy


def _points(marks) -> set:
    return set(map(_point, marks))


def test_ending_marks_are_the_marks_without_legal_replies():
    # every mark of every proper state with at most four edges, genus 0
    # and 1 and several cycles included
    marks = stuck_marks = 0
    for state in all_proper_states(4):
        moves = enumerate_marker_moves(state)
        flagged = _points(ending_marks(state))
        assert flagged <= _points(moves)
        for marked in moves:
            stuck = not legal_replies(marked)
            assert (_point(marked) in flagged) == stuck, (state, marked.v, marked.w)
            marks += 1
            stuck_marks += stuck
    assert marks > 2_000 and stuck_marks > 0


def test_ending_marks_match_legality_where_the_reference_solver_looks(monkeypatch):
    # the reference solver asks about every mark of every state it
    # reaches, by the rule over the play's every state
    seen = []
    real = reference_solver.restricted_replies

    def recording(play, marked):
        legal = real(play, marked)
        seen.append((marked, not legal))
        return legal

    monkeypatch.setattr(reference_solver, "restricted_replies", recording)
    for g0 in range(3):
        reference_exact_value(g0)
    flagged: dict[GameState, set] = {}
    for marked, stuck in seen:
        if marked.state not in flagged:
            flagged[marked.state] = _points(ending_marks(marked.state))
        assert (_point(marked) in flagged[marked.state]) == stuck, (marked.state, marked.v, marked.w)
    assert len(seen) > 10_000 and any(stuck for _, stuck in seen)


@pytest.mark.parametrize("use_memo", [True, False])
def test_solver_agrees_with_reference(use_memo):
    for g0 in range(3):
        assert exact_value(g0, use_memo=use_memo) == reference_exact_value(g0, use_memo=use_memo)
        budget = SearchBudget(max_states=3)
        assert exact_value(g0, budget, use_memo) == reference_exact_value(g0, budget, use_memo) == "inconclusive"


@pytest.mark.parametrize("g0", range(3))
def test_exact_value_between_the_bounds(g0):
    assert cutter_value_threshold(g0) <= exact_value(g0) <= marker_value_bound(g0)


def test_exact_value_three():
    # with the genus-keeping replies tried first, about 36 k states
    value = exact_value(3, SearchBudget(max_states=40_000))
    assert value == 7
    assert cutter_value_threshold(3) <= value <= marker_value_bound(3)


@pytest.mark.slow
def test_exact_value_four():
    # about 592 k states and 25 s under the default budget; one solve
    # meets both verified bounds
    assert exact_value(4) == 8 == cutter_value_threshold(4) == marker_value_bound(4)


def test_solver_raises_on_a_legal_reply_that_skips_a_value(monkeypatch):
    original = equivalence.cutter_replies

    def jumping(marked):
        # every reply's state gains a loop with one more fresh label
        out = []
        for reply in original(marked):
            nxt = reply.next
            bigger = GameState(nxt.cycles + ((nxt.next_label,),), nxt.genus, nxt.initial_genus, nxt.next_label + 1)
            out.append(dataclasses.replace(reply, next=bigger))
        return out

    monkeypatch.setattr(equivalence, "cutter_replies", jumping)
    with pytest.raises(RuntimeError, match="not by one"):
        exact_value(1)


@pytest.mark.usefixtures("tripled_label")
@pytest.mark.parametrize("use_memo", [True, False])
def test_solver_raises_on_an_improper_state(use_memo):
    with pytest.raises(RuntimeError, match=r"invalid state \(properness\): label \d+ appears on 3 edges"):
        exact_value(1, use_memo=use_memo)


def test_memo_off_solve_computes_no_keys(monkeypatch):
    calls = []
    original = arena.canonical_key

    def counting(state):
        calls.append(state)
        return original(state)

    monkeypatch.setattr(arena, "canonical_key", counting)
    assert exact_value(1, use_memo=False) == 4
    assert calls == []

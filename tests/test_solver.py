"""The exact solver against the reference that builds every reply, the
marks that end the game, and the bounds around the game value."""

import dataclasses

import pytest

import reference_solver
from cutgame import arena, equivalence
from cutgame.arena import (
    SearchBudget, cutter_value_threshold, ending_marks, exact_value, genus_floor, marker_value_bound,
)
from cutgame.core import GameState, cutter_replies, enumerate_marker_moves, value
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
    # with the genus floor, 366 states
    value = exact_value(3, SearchBudget(max_states=40_000))
    assert value == 7
    assert cutter_value_threshold(3) <= value <= marker_value_bound(3)


def test_exact_value_four():
    # one solve meets both verified bounds
    assert exact_value(4) == 8 == cutter_value_threshold(4) == marker_value_bound(4)


def test_exact_value_five():
    # 7 499 states, about 3 s
    found = exact_value(5)
    assert found == 9
    assert cutter_value_threshold(5) <= found <= marker_value_bound(5)


def _positive_genus_states():
    return all_proper_states(5, genus_pairs=((1, 1), (2, 2), (1, 2)))


def test_every_mark_at_positive_genus_has_a_reply_that_keeps_every_label():
    # the genus floor: a legal A (one component) or D (two) keeps every
    # label and raises the value by one, and no legal reply lowers the floor
    marks = 0
    for state in _positive_genus_states():
        if not state.cycles:
            continue
        labels, v = state.label_counts().keys(), value(state)
        for marked in enumerate_marker_moves(state):
            legal = legal_replies(marked)
            assert any(labels <= r.next.label_counts().keys() and value(r.next) == v + 1 for r in legal), (
                state, marked.v, marked.w, marked.same_dummy)
            assert all(genus_floor(r.next) >= genus_floor(state) for r in legal), (state, marked.v, marked.w)
            marks += 1
    assert marks == 14_904


def _loses_a_label(state, reply) -> bool:
    return not state.label_counts().keys() <= reply.next.label_counts().keys()


def _assert_forcing_marks_lose_both_arcs(state):
    """``_forcing_marks`` are exactly the marks on one cycle whose built B
    and C replies both lose a label."""
    expected = set()
    for marked in enumerate_marker_moves(state):
        if marked.v is None or marked.w is None or marked.v[0] != marked.w[0]:
            continue
        arcs = [r for r in cutter_replies(marked) if r.kind in "BC"]
        assert len(arcs) == 2
        if all(_loses_a_label(state, r) for r in arcs):
            expected.add(_point(marked))
    assert _points(arena._forcing_marks(state)) == expected, state


def test_forcing_marks_are_the_marks_whose_arcs_both_lose_a_label(monkeypatch):
    for state in _positive_genus_states():
        _assert_forcing_marks_lose_both_arcs(state)
    # and every state the solver draws forcing marks for, tight states
    # at positive genus among them
    asked = []
    real = arena._forcing_marks

    def recording(state):
        asked.append(state)
        return real(state)

    monkeypatch.setattr(arena, "_forcing_marks", recording)
    for g0 in range(5):
        exact_value(g0)
    monkeypatch.undo()
    assert sum(state.genus > 0 for state in asked) > 100
    for state in asked:
        _assert_forcing_marks_lose_both_arcs(state)


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

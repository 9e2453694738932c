"""Lean successors against the eager builders they replaced.

``cutter_replies`` builds next states from labels and derives provenance
on first read, ``enumerate_marker_moves`` builds each mark when it is
read, and ``ending_marks`` decides marks from label positions.  Each is
checked against its reference (``reference_core``, ``reference_solver``)
on every mark of every proper state with at most four edges (five for
``ending_marks``) and on every mark the verifiers and the solver reach.
"""

import random

import pytest

from cutgame import arena, core
from cutgame.arena import (
    SearchBudget, ending_marks, exact_value, verify_cutter_bound, verify_marker_bound, verify_refined,
)
from cutgame.core import GameState, MarkedState, cutter_replies, enumerate_marker_moves
from fuzz import all_proper_states
from reference_core import reference_cutter_replies, reference_marker_moves
from reference_solver import reference_ending_marks


def _point(marked: MarkedState) -> tuple:
    return marked.v, marked.w, marked.same_dummy


def _reply(reply) -> tuple:
    return reply.kind, reply.next, reply.derived, reply.edge_map, reply.new_edges


@pytest.fixture(scope="module")
def reached():
    """(marks, states): every mark whose legality the marker verifier
    (g0 0..9), the refined verifier (1..9) and the exhaustive cutter
    verifier (0..2) ask, and every state they mark or the solver (0..2)
    asks the ending marks of, each state once."""
    marks, states = [], {}
    real_legal, real_ending = arena.legal_replies, arena.ending_marks

    def legal_replies(marked):
        marks.append(marked)
        states.setdefault(marked.state)
        return real_legal(marked)

    def ending(state):
        states.setdefault(state)
        return real_ending(state)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(arena, "legal_replies", legal_replies)
        patch.setattr(arena, "ending_marks", ending)
        runs = [verify_marker_bound(g0) for g0 in range(10)]
        runs += [verify_refined(g0) for g0 in range(1, 10)]
        runs += [verify_cutter_bound(g0) for g0 in range(3)]
        assert {report.verdict for report in runs} == {"pass"}
        assert [exact_value(g0) for g0 in range(3)] == [2, 4, 5]
    return marks, list(states)


def _proper_marks():
    for state in all_proper_states(4):
        yield from reference_marker_moves(state)


def test_replies_match_the_eager_builder(reached):
    marks, _ = reached
    checked = kinds = 0
    for marks_of in (_proper_marks(), marks):
        seen = set()
        for marked in marks_of:
            lean, eager = cutter_replies(marked), reference_cutter_replies(marked)
            assert list(map(_reply, lean)) == list(map(_reply, eager)), (marked.state, _point(marked))
            assert all(r.marked is marked for r in lean)
            seen.update(r.kind for r in lean)
            checked += 1
        kinds += seen == set("ABCD")
    assert kinds == 2 and checked > 35_000


def test_ending_marks_match_the_split_cycle_form(reached):
    _, states = reached
    ending = 0
    for state in (*all_proper_states(5), *states):
        marks = ending_marks(state)
        assert list(map(_point, marks)) == list(map(_point, reference_ending_marks(state))), state
        assert all(m.state is state for m in marks)
        ending += bool(marks)
    assert ending > 500


def test_lazy_marks_match_the_list(reached):
    _, states = reached
    for k, state in enumerate((*all_proper_states(4), *states)):
        lazy, eager = enumerate_marker_moves(state), reference_marker_moves(state)
        points = list(map(_point, eager))
        assert len(lazy) == len(eager)
        assert list(map(_point, lazy)) == points
        assert [_point(lazy[i]) for i in range(len(lazy))] == points
        assert all(m.state is state for m in lazy)
        assert _point(random.Random(k).choice(lazy)) == _point(random.Random(k).choice(eager))


def test_lazy_marks_refuse_indices_off_the_sequence():
    # indices 0..len-1 read marks, any other raises, a negative one too
    state = GameState(((0, 1), (0,)), 0, 0, 2)
    lazy, eager = enumerate_marker_moves(state), reference_marker_moves(state)
    assert len(lazy) == 6 + 3 + 2
    assert _point(lazy[10]) == _point(eager[-1]) == (None, None, False)
    for i in (11, -1):
        with pytest.raises(IndexError):
            lazy[i]


def test_solver_and_sampled_play_build_no_provenance(monkeypatch):
    """The solver and a sampled cutter play never read a reply's
    provenance, and the play builds one mark per ply."""
    def provenance(reply):
        raise AssertionError("reply provenance computed")

    monkeypatch.setattr(core.CutterReply, "_provenance", property(provenance))
    assert [exact_value(g0) for g0 in range(3)] == [2, 4, 5]
    assert exact_value(1, use_memo=False) == 4
    built = []
    real_init = MarkedState.__init__

    def counting(self, *args, **kwargs):
        built.append(args)
        real_init(self, *args, **kwargs)

    monkeypatch.setattr(MarkedState, "__init__", counting)
    report = verify_cutter_bound(3, SearchBudget(marker_sampling="random", sample_plays=1, seed=7))
    assert report.verdict == "pass"
    assert len(built) == report.states_explored == 6

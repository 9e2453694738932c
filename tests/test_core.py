import random

import pytest

from cutgame.core import (
    GameState,
    MarkedState,
    Violation,
    cutter_replies,
    empty_state,
    enumerate_marker_moves,
    split_cycle,
    validate,
    value,
)

from fuzz import label_status, random_state

SEED_CYCLE = GameState(cycles=((0, 1, 0, 2),), genus=2, initial_genus=3, next_label=3)


def test_value_examples():
    assert value(empty_state(0)) == 0
    assert value(SEED_CYCLE) == 3
    two_loops = GameState(((7,), (7,)), 0, 0, 8)
    assert value(two_loops) == 1


def test_value_is_counted_once_and_kept():
    rng = random.Random(37)
    for _ in range(2_000):
        state = random_state(rng)
        fresh = len({lab for cyc in state.cycles for lab in cyc})
        assert value(state) == fresh
        # value is the size of the label counts, counted once and kept
        kept = vars(state)["_label_counts"]
        assert len(kept) == fresh
        assert state.label_counts() is kept
        assert value(state) == fresh


def test_label_status_examples():
    assert label_status(SEED_CYCLE, 1) == "uniquely_appearing"
    assert label_status(SEED_CYCLE, 0) == "isolated_twice"
    split = GameState(((0, 1), (0, 2)), 0, 0, 3)
    assert label_status(split, 0) == "split_across_cycles"
    assert label_status(split, 9) == "absent"


def test_marker_move_counts():
    two_cycle = GameState(((0, 1),), 0, 0, 2)
    assert len(enumerate_marker_moves(two_cycle)) == 7
    assert len(enumerate_marker_moves(empty_state(1))) == 2
    loop = GameState(((0,),), 0, 0, 1)
    assert len(enumerate_marker_moves(loop)) == 4


def test_split_cycle_examples():
    assert split_cycle((0, 1, 0, 2), 3, 0) == ((3,), (0, 1, 2))
    assert split_cycle((0, 1), 0, 1) == ((0,), (1,))
    assert split_cycle((0,), 0, 0) == ((0,), ())
    with pytest.raises(ValueError):
        split_cycle((0, 1), 0, 5)


def test_dummy_pair_replies():
    marked = MarkedState(empty_state(2), None, None, same_dummy=True)
    replies = {r.kind: r for r in cutter_replies(marked)}
    assert set(replies) == {"A", "B", "C"}
    assert replies["A"].next.cycles == ((0,), (0,))
    assert replies["A"].next.genus == 1
    assert replies["B"].next.cycles == ((0,),)
    assert replies["B"].next.genus == 2
    assert replies["C"].next.cycles == ((0,),)


def test_two_distinct_dummies_amalgamate():
    marked = MarkedState(empty_state(2), None, None, same_dummy=False)
    (reply,) = cutter_replies(marked)
    assert reply.kind == "D"
    assert reply.next.cycles == ((0, 0),)
    assert reply.next.genus == 2


def test_seed_split_at_short_edge():
    marked = MarkedState(SEED_CYCLE, (0, 3), (0, 0))
    replies = {r.kind: r for r in cutter_replies(marked)}
    a = replies["A"]
    assert a.next.cycles == ((2, 3), (0, 1, 0, 3))
    assert a.next.genus == 1
    assert a.new_edges == ((0, 1), (1, 3))
    assert [a.next.cycles[ci][p] for ci, p in a.new_edges] == [marked.state.next_label] * 2


def test_no_genus_burn_at_zero():
    flat = GameState(((0, 1),), 0, 2, 2)
    marked = MarkedState(flat, (0, 0), (0, 1))
    kinds = {r.kind for r in cutter_replies(marked)}
    assert "A" not in kinds


def test_same_vertex_mark_opens_whole_cycle():
    loop_state = GameState(((0,),), 1, 1, 1)
    marked = MarkedState(loop_state, (0, 0), (0, 0))
    replies = {r.kind: r for r in cutter_replies(marked)}
    assert replies["B"].next.cycles == ((0, 1),)
    assert replies["C"].next.cycles == ((1,),)
    assert replies["A"].next.cycles == ((0, 1), (1,))


def test_edge_count_bookkeeping():
    rng = random.Random(5)
    from fuzz import random_marked, random_state

    for _ in range(400):
        state = random_state(rng)
        marked = random_marked(rng, state)
        for reply in cutter_replies(marked):
            n_before = state.edge_count()
            n_after = reply.next.edge_count()
            if marked.same_component():
                cyc_len = 0 if marked.v is None else len(state.cycles[marked.v[0]])
                if reply.kind == "A":
                    assert n_after == n_before + 2
                    assert reply.next.genus == state.genus - 1
                else:
                    arcs = ((), ()) if marked.v is None else split_cycle(
                        state.cycles[marked.v[0]], marked.v[1], marked.w[1])
                    kept = len(arcs[0]) if reply.kind == "B" else len(arcs[1])
                    assert n_after == n_before - cyc_len + kept + 1
                    assert reply.next.genus == state.genus
            else:
                assert reply.kind == "D"
                assert n_after == n_before + 2
                assert reply.next.genus == state.genus
            assert validate(reply.next) is None


def test_labels_never_silently_duplicated():
    rng = random.Random(6)
    from fuzz import random_marked, random_state

    for _ in range(400):
        state = random_state(rng)
        marked = random_marked(rng, state)
        for reply in cutter_replies(marked):
            counts = reply.next.label_counts()
            new = marked.state.next_label
            expected_new = 2 if reply.kind in ("A", "D") else 1
            assert counts.get(new, 0) == expected_new
            # surviving labels keep at most their old multiplicity
            old = state.label_counts()
            for lab, n in counts.items():
                if lab != new:
                    assert n <= old.get(lab, 0)


def test_validate_reports():
    assert validate(SEED_CYCLE) is None
    bad = GameState(((0, 0), (0,)), 0, 0, 1)
    v = validate(bad)
    assert isinstance(v, Violation) and v.rule == "properness"
    bad_genus = GameState(((0,),), 3, 2, 1)
    assert validate(bad_genus).rule == "genus range"

import os
import random
import subprocess
import sys
from fractions import Fraction

import pytest

import cutgame
from cutgame import arena, strategy
from cutgame.core import GameState, empty_state, split_cycle
from cutgame.equivalence import canonical_key
from cutgame.potential import (
    QUARTER,
    component_potential,
    is_nesting_path,
    nesting_supports,
    positive_component_sum,
    potential_text,
    segment_potential,
    state_potential,
    xtzt_start,
)

from fuzz import mark_relation, nesting_state, random_state
from reference_potential import (
    edge_potential,
    reads_xtzt,
    reference_component_potential,
    reference_is_nesting_path,
    reference_nesting_y_edge,
    reference_positive_component_sum,
    reference_segment_potential,
    reference_state_potential,
)

SEED = GameState(((0, 1, 0, 2),), 2, 3, 3)


def test_edge_potential_cases():
    assert edge_potential(SEED, 0, 1) == Fraction(3, 2)
    assert edge_potential(SEED, 0, 0) == Fraction(1, 2)
    assert edge_potential(SEED, 0, 2) == Fraction(1, 2)
    pair = GameState(((5, 5),), 0, 0, 6)
    assert edge_potential(pair, 0, 0) == Fraction(3, 4)
    assert edge_potential(pair, 0, 1) == Fraction(3, 4)
    with pytest.raises(ValueError):
        edge_potential(SEED, 0, 0, (1,))


def test_adjacent_same_label_within_path_only():
    # the two same-label edges meet inside the cycle but a path that
    # separates them scores them 1/2
    state = GameState(((3, 3, 4),), 0, 0, 5)
    assert edge_potential(state, 0, 0) == Fraction(3, 4)
    assert edge_potential(state, 0, 0, (0,)) == Fraction(1, 2)


def test_segment_potential_examples():
    assert segment_potential(SEED, 0) == 2 * QUARTER
    xtzt_fresh = GameState(((0, 1, 2, 1),), 0, 0, 3)
    assert segment_potential(xtzt_fresh, 0) == 2 * QUARTER
    xtzt_dull = GameState(((0, 1, 2, 1), (0, 3), (2, 3)), 0, 0, 4)
    assert segment_potential(xtzt_dull, 0) == 0
    assert segment_potential(SEED, 0, ()) == -2 * QUARTER


def test_state_potential_examples():
    assert state_potential(empty_state(4)) == 0
    assert state_potential(SEED) == -3 * QUARTER
    prep_end = GameState(((0, 1),), 2, 2, 2)  # both labels unique
    assert state_potential(prep_end) == -5 * QUARTER


def test_potential_text_matches_fraction():
    for q in range(-40, 41):
        p = Fraction(q, QUARTER)
        assert potential_text(q) == f"{p.numerator}/{p.denominator}"
    assert [potential_text(q) for q in (-6, 0, 8)] == ["-3/2", "0/1", "2/1"]


def test_engine_imports_no_fractions():
    """Potentials are integer quarters: loading the engine pulls in
    neither ``fractions`` nor what it imports."""
    src = os.path.dirname(os.path.dirname(cutgame.__file__))
    probe = "import sys, cutgame.arena; print(sorted({'fractions', 'decimal', 'numbers'} & set(sys.modules)))"
    out = subprocess.run([sys.executable, "-c", probe], env={**os.environ, "PYTHONPATH": src},
                         capture_output=True, text=True, check=True).stdout
    assert out.strip() == "[]"


def test_potential_invariant_under_relabelling():
    rng = random.Random(23)
    for _ in range(300):
        state = random_state(rng)
        labels = sorted({l for c in state.cycles for l in c})
        perm = labels[:]
        rng.shuffle(perm)
        mapping = dict(zip(labels, perm))
        cycles = [tuple(mapping[l] for l in cyc) for cyc in state.cycles]
        rng.shuffle(cycles)
        other = GameState(tuple(cycles), state.genus, state.initial_genus, state.next_label)
        assert canonical_key(other) == canonical_key(state)
        assert state_potential(other) == state_potential(state)


def test_edge_potential_range():
    rng = random.Random(29)
    allowed = {Fraction(1, 2), Fraction(3, 4), Fraction(3, 2)}
    for _ in range(300):
        state = random_state(rng)
        for ci in range(len(state.cycles)):
            for p in range(len(state.cycles[ci])):
                assert edge_potential(state, ci, p) in allowed


def test_nesting_path_examples():
    assert is_nesting_path(SEED, 0, (1,))  # edge 1 is uniquely appearing
    state, run = nesting_state(random.Random(0), depth=1)
    assert is_nesting_path(state, 0, run)
    assert not is_nesting_path(state, 0, (0, 1))


def test_nesting_path_requires_support():
    # same run labels but the (x,t,z,t) anchor is missing
    state = GameState(((1, 2, 3, 9), (1, 4, 3, 5), (2, 6)), 0, 0, 10)
    assert not is_nesting_path(state, 0, (0, 1, 2))


def test_nesting_recursion_terminates_on_cyclic_support(time_limit):
    # two y-cycles referring to each other cannot loop the checker
    state = GameState(((1, 2, 3, 9), (1, 4, 3, 4), (2, 5), (5, 2)), 0, 0, 10)
    # (1, 2, 3)'s y-cycle holds the run (5, 4, 6), whose y-cycle is the
    # host again: supports that lead round make no nesting path
    looped = GameState(((1, 2, 3, 4), (2, 5, 4, 6), (1, 7, 3, 7), (5, 8, 6, 8)), 0, 0, 9)
    with time_limit(10):
        is_nesting_path(state, 0, (0, 1, 2))  # must return, value irrelevant
        for run in ((0, 1, 2), (1, 2, 3)):
            assert nesting_supports(looped, run[0], run) is not None
            assert not is_nesting_path(looped, run[0], run)


def test_xtzt_start_examples():
    assert xtzt_start((7, 1, 3, 1), 7, 3) == 0
    assert xtzt_start((1, 3, 1, 7), 7, 3) == 3
    assert xtzt_start((7, 1, 3, 1), 3, 7) == 2
    assert xtzt_start((7, 1, 3, 2), 7, 3) is None  # the two t edges differ
    assert xtzt_start((7, 3, 3, 3), 7, 3) is None  # t must differ from x and z
    assert xtzt_start((7, 1, 3, 1, 7, 1), 7, 3) is None  # not a four-cycle


def test_nesting_path_matches_reference(monkeypatch):
    """Every call the classifier makes while marker g0=0..10 and refined
    g0=1..10 pass, and every run of one to four edges on every cycle of
    those states, with pseudo edges allowed and not: the label-count
    predicate answers as the replaced per-label cycle scans do."""
    calls = []
    real = strategy.is_nesting_path

    def recording(state, host, run, allow_pseudo=False):
        calls.append((state, host, run, allow_pseudo))
        return real(state, host, run, allow_pseudo)

    with monkeypatch.context() as patch:
        patch.setattr(strategy, "is_nesting_path", recording)
        for g0 in range(11):
            assert arena.verify_marker_bound(g0).verdict == "pass"
        for g0 in range(1, 11):
            assert arena.verify_refined(g0).verdict == "pass"
    assert len(calls) > 5000
    for state in {id(state): state for state, _, _, _ in calls}.values():
        for ci, cyc in enumerate(state.cycles):
            n = len(cyc)
            for k in range(1, min(4, n) + 1):
                for p in range(n):
                    run = tuple((p + j) % n for j in range(k))
                    calls += [(state, ci, run, False), (state, ci, run, True)]
    answers, chains = set(), 0
    for state, host, run, allow_pseudo in calls:
        got = is_nesting_path(state, host, run, allow_pseudo)
        assert got == reference_is_nesting_path(state, host, run, allow_pseudo), (
            state.cycles, host, run, allow_pseudo)
        answers.add(got)
        labels = [state.cycles[host][p] for p in run]
        if got and len(labels) == 3 and len(set(labels)) == 3:
            # the reader's supports are the ones the scans found
            xz_cycle, y_edge, _ = nesting_supports(state, host, run)
            assert reads_xtzt(state.cycles[xz_cycle], labels[0], labels[2])
            assert y_edge == reference_nesting_y_edge(state, host, run, allow_pseudo)
            chains += 1
    assert answers == {True, False} and chains > 0


def test_mark_relation_examples():
    assert mark_relation(SEED, 0, 3, 0, (2, 1)) == "separates"
    assert mark_relation(SEED, 0, 3, 0, (0,)) == "gathers"
    assert mark_relation(SEED, 0, 1, 3, (0,)) == "neither"
    with pytest.raises(ValueError):
        mark_relation(SEED, 0, 0, 1, (9,))


def test_component_potential_matches_segment():
    """A component is what ``segment_potential`` reads with no run; the
    empty run on any cycle is worth -2."""
    rng = random.Random(31)
    for _ in range(200):
        state = random_state(rng)
        for ci in range(len(state.cycles)):
            assert component_potential(state, ci) == segment_potential(state, ci)
            assert segment_potential(state, ci, ()) == -2 * QUARTER


def _assert_matches_reference(state):
    """State, component and positive-sum potentials, and every arc of
    every vertex pair, in quarters against the Fraction path."""
    assert type(state_potential(state)) is int, state
    assert Fraction(state_potential(state), QUARTER) == reference_state_potential(state), state
    assert Fraction(positive_component_sum(state), QUARTER) == reference_positive_component_sum(state), state
    for ci, cyc in enumerate(state.cycles):
        assert Fraction(component_potential(state, ci), QUARTER) == reference_component_potential(state, ci), (
            state, ci)
        for v in range(len(cyc)):
            for w in range(len(cyc)):
                for arc in split_cycle(cyc, v, w):
                    assert Fraction(segment_potential(state, ci, arc), QUARTER) == reference_segment_potential(
                        state, ci, arc), (state, ci, arc)


def test_integer_potential_matches_reference_on_random_states():
    rng = random.Random(37)
    for _ in range(10_000):
        _assert_matches_reference(random_state(rng, max_labels=8, max_genus=4))


@pytest.mark.usefixtures("unmerged")
def test_integer_potential_matches_reference_on_explored_states(monkeypatch):
    """Every state the marker and refined verifiers build, with the
    potentials the search itself cached on it."""
    explored = []
    real = arena.validate

    def validate(state):
        explored.append(state)
        return real(state)

    monkeypatch.setattr(arena, "validate", validate)
    assert arena.verify_marker_bound(7).verdict == "pass"
    for g0 in range(1, 8):
        assert arena.verify_refined(g0).verdict == "pass"
    assert len(explored) > 500
    for state in explored:
        _assert_matches_reference(state)


def test_cached_potential_equals_fresh_computation():
    rng = random.Random(41)
    for _ in range(500):
        state = random_state(rng, max_labels=8, max_genus=4)
        first = state_potential(state)
        comps = [component_potential(state, ci) for ci in range(len(state.cycles))]
        assert state_potential(state) is first  # computed once, then read
        fresh = GameState(state.cycles, state.genus, state.initial_genus, state.next_label)
        assert fresh == state and hash(fresh) == hash(state)
        assert state_potential(fresh) == first
        assert [component_potential(fresh, ci) for ci in range(len(fresh.cycles))] == comps
        assert positive_component_sum(fresh) == positive_component_sum(state)


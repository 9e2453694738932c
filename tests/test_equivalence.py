import random
from collections import Counter
from typing import Optional

import pytest

from cutgame import arena, equivalence
from cutgame.arena import exact_value, verify_cutter_bound, verify_marker_bound, verify_refined
from cutgame.core import GameState, MarkedState, cutter_replies, empty_state, enumerate_marker_moves, value

import reference_solver
from fuzz import random_marked, random_state
from reference_legality import (
    contract_edge,
    reductions,
    reference_canonical_shape,
    reference_shape_precedes,
    reply_loses_label,
)
from reference_solver import reference_exact_value


def equivalence_witness(a: GameState, b: GameState) -> Optional[dict[int, int]]:
    """A label bijection mapping ``a`` onto ``b``, or None if inequivalent."""
    if a.genus != b.genus:
        return None
    shape_a, ren_a = equivalence._canonical_shape(a.cycles)
    shape_b, ren_b = equivalence._canonical_shape(b.cycles)
    if shape_a != shape_b:
        return None
    inv_b = {v: k for k, v in ren_b.items()}
    return {lab: inv_b[idx] for lab, idx in ren_a.items()}


def test_contract_examples():
    seed = GameState(((0, 1, 0, 2),), 1, 1, 3)
    assert contract_edge(seed, (0, 1)).cycles == ((0, 0, 2),)
    loop = GameState(((0,),), 0, 0, 1)
    assert contract_edge(loop, (0, 0)).cycles == ()
    two = GameState(((0, 1),), 0, 0, 2)
    assert contract_edge(two, (0, 0)).cycles == ((1,),)
    with pytest.raises(ValueError):
        contract_edge(two, (5, 0))


def test_canonical_key_examples():
    a = GameState(((0, 1),), 3, 5, 2)
    b = GameState(((7, 9),), 3, 9, 10)
    assert equivalence.canonical_key(a) == equivalence.canonical_key(b)
    rot1 = GameState(((0, 1, 0, 2),), 2, 2, 3)
    rot2 = GameState(((0, 2, 0, 1),), 2, 2, 3)
    assert equivalence.canonical_key(rot1) == equivalence.canonical_key(rot2)
    key = equivalence.canonical_key
    assert key(GameState(((0, 1),), 2, 5, 2)) != key(GameState(((0, 1),), 3, 5, 2))


def test_canonical_component_order_invariance():
    a = GameState(((0, 1), (2, 3, 2)), 1, 1, 4)
    b = GameState(((5, 9, 5), (7, 0)), 1, 1, 10)
    assert equivalence.canonical_key(a) == equivalence.canonical_key(b)


def test_orientation_not_identified():
    # (0,1,2) read forwards vs backwards: inequivalent labelled cycles
    a = GameState(((0, 1, 2), (0, 1, 2)), 0, 0, 3)
    b = GameState(((0, 1, 2), (2, 1, 0)), 0, 0, 3)
    assert equivalence.canonical_key(a) != equivalence.canonical_key(b)


def test_witness_roundtrip_fuzz():
    rng = random.Random(11)
    for _ in range(10_000):
        state = random_state(rng)
        labels = sorted({l for c in state.cycles for l in c})
        perm = labels[:]
        rng.shuffle(perm)
        mapping = dict(zip(labels, perm))
        cycles = []
        for cyc in state.cycles:
            r = rng.randrange(len(cyc))
            cycles.append(tuple(mapping[l] for l in cyc[r:] + cyc[:r]))
        rng.shuffle(cycles)
        other = GameState(tuple(cycles), state.genus, state.initial_genus, state.next_label)
        assert equivalence.canonical_key(state) == equivalence.canonical_key(other)
        phi = equivalence_witness(state, other)
        assert phi is not None
        relabelled = GameState(
            tuple(tuple(phi[l] for l in cyc) for cyc in state.cycles),
            state.genus,
            state.initial_genus,
            state.next_label,
        )
        assert equivalence.canonical_key(relabelled) == equivalence.canonical_key(other)


def test_precedes_examples():
    seed = GameState(((0, 1, 0, 2), (3, 4)), 2, 3, 5)
    small = GameState(((0, 2),), 1, 3, 5)
    assert equivalence.precedes(small, seed)
    assert equivalence.precedes(seed, seed)
    bigger = GameState(((0, 1, 0, 2, 5),), 2, 3, 6)
    assert not equivalence.precedes(bigger, seed)
    # a label bijection is allowed
    renamed = GameState(((9, 8),), 2, 3, 10)
    assert equivalence.precedes(renamed, seed)


def test_precedes_genus_mask():
    a = GameState(((0, 1),), 2, 3, 2)
    b = GameState(((0, 1),), 1, 3, 2)
    assert equivalence.precedes(b, a)  # reductions may lower the counter
    assert not equivalence.precedes(a, b)


def test_precedes_against_bruteforce():
    rng = random.Random(13)
    for _ in range(300):
        earlier = random_state(rng, max_labels=3)
        candidate = random_state(rng, max_labels=3)
        if candidate.genus > earlier.genus:
            continue
        key = equivalence.canonical_key
        brute = any(
            key(GameState(red, candidate.genus, earlier.initial_genus, earlier.next_label))
            == key(GameState(candidate.cycles, candidate.genus, earlier.initial_genus, earlier.next_label))
            for red in reductions(earlier)
        )
        assert equivalence.precedes(candidate, earlier) == brute, (candidate, earlier)


def test_precedes_reflexive_transitive_fuzz():
    rng = random.Random(17)
    for _ in range(300):
        s0 = random_state(rng, max_labels=4)
        assert equivalence.precedes(s0, s0)
        if s0.edge_count() == 0:
            continue
        edges = list(s0.edges())
        s1 = contract_edge(s0, rng.choice(edges))
        assert equivalence.precedes(s1, s0)
        if s1.edge_count():
            s2 = contract_edge(s1, rng.choice(list(s1.edges())))
            assert equivalence.precedes(s2, s1)
            assert equivalence.precedes(s2, s0)  # transitivity along the chain


def test_kind_c_reduction_is_illegal():
    # gathering an isolated label with the label on the kept-away side
    state = GameState(((0, 1, 0, 2),), 1, 1, 3)
    marked = MarkedState(state, (0, 3), (0, 0))  # arcs: (2) and (0,1,0)
    kinds = {r.kind for r in equivalence.legal_replies(marked)}
    assert "C" not in kinds  # dropping the lone short edge loses its label
    assert "B" not in kinds  # dropping the long arc loses two labels
    assert kinds == {"A"}


def test_legal_replies_history_filter():
    state = empty_state(0)
    marked = MarkedState(state, None, None, same_dummy=True)
    kinds = {r.kind for r in equivalence.legal_replies(marked)}
    assert kinds == {"B", "C"}


def test_label_loss_equals_restricted_legality_exhaustive():
    # over every proper state with at most four edges: a reply is legal
    # against the current state alone iff it loses no label
    from fuzz import all_proper_states

    checked = 0
    for state in all_proper_states(4):
        for marked in enumerate_marker_moves(state):
            legal = equivalence.legal_replies(marked)
            for reply in cutter_replies(marked):
                assert (reply in legal) == (not reply_loses_label(state, reply))
                checked += 1
    assert checked > 4_000


def test_label_loss_equals_restricted_legality_on_plays():
    # on random legal plays, a reply is legal iff it loses no label, iff
    # the reference rule over every state of the play walked so far allows it
    rng = random.Random(19)
    for _ in range(120):
        state = empty_state(rng.randint(0, 2))
        play = (state,)
        for _ply in range(6):
            marked = random_marked(rng, state)
            legal = equivalence.legal_replies(marked)
            for reply in cutter_replies(marked):
                expected = not reply_loses_label(state, reply)
                assert (reply in legal) == expected, (state, marked.v, marked.w, reply.kind)
                assert _reference_rule(play, reply) == expected, (play, marked.v, marked.w, reply.kind)
            if not legal:
                break
            state = rng.choice(legal).next
            play += (state,)


# -- cross-checks against the enumerating reference (tests/reference_legality.py)

def _realises(cycles, renaming: dict[int, int], shape) -> bool:
    """Whether ``renaming`` is a bijection onto the key's indices that
    turns ``cycles`` into the key's cycles, up to rotation and order."""
    labels = {lab for cyc in cycles for lab in cyc}
    if set(renaming) != labels or sorted(renaming.values()) != list(range(len(labels))):
        return False

    def least_rotation(cyc):
        return min(cyc[r:] + cyc[:r] for r in range(len(cyc)))

    renamed = sorted(least_rotation(tuple(renaming[lab] for lab in cyc)) for cyc in cycles)
    return renamed == sorted(least_rotation(piece[1:]) for piece in shape)


def _record_calls(monkeypatch, name: str) -> set:
    """Record the distinct arguments of every call of ``equivalence.<name>``."""
    seen: set = set()
    original = getattr(equivalence, name)

    def recording(*args):
        seen.add(args)
        return original(*args)

    monkeypatch.setattr(equivalence, name, recording)
    return seen


def _harvest_precedes(monkeypatch) -> set:
    """The (candidate, earlier) pairs ``precedes`` sees in marker 0..7,
    refined 1..7 (every tree node under the ``unmerged`` fixture) and
    exact 0..2, by both solvers (the reference asks about every mark of
    every state, ``exact_value`` about few)."""
    pairs = _record_calls(monkeypatch, "precedes")
    for g0 in range(8):
        verify_marker_bound(g0)
    for g0 in range(1, 8):
        verify_refined(g0)
    for g0 in range(3):
        exact_value(g0)
        reference_exact_value(g0)
    return pairs


def _canonical_cycles(state: GameState) -> tuple[tuple[int, ...], ...]:
    return tuple(piece[1:] for piece in equivalence._canonical_shape(state.cycles)[0])


@pytest.mark.usefixtures("unmerged")
def test_matcher_agrees_with_reference_on_harvested_pairs(monkeypatch):
    # the kept-label witness answers every pair the drivers ask about, so
    # the matcher's inputs are made here from the arguments of precedes
    pairs = {(_canonical_cycles(cand), _canonical_cycles(earl)) for cand, earl in _harvest_precedes(monkeypatch)}
    assert len(pairs) > 2_000
    for cand, earl in pairs:
        expected = reference_shape_precedes(cand, earl)
        assert equivalence._shape_precedes.__wrapped__(cand, earl) == expected, (cand, earl)


def _random_pairs(seed: int, count: int):
    """Random (candidate, earlier) pairs, half of them contractions of
    the earlier state relabelled: mostly reductions, not where the
    random relabelling is not a bijection."""
    rng = random.Random(seed)
    for i in range(count):
        earlier = random_state(rng, max_labels=5)
        if i % 2 or earlier.edge_count() == 0:
            candidate = random_state(rng, max_labels=4)
        else:
            candidate = earlier
            for _ in range(rng.randint(0, candidate.edge_count() - 1)):
                candidate = contract_edge(candidate, rng.choice(list(candidate.edges())))
            labels = sorted({lab for cyc in candidate.cycles for lab in cyc})
            if i % 4:
                image = rng.sample(range(len(labels) + 1), len(labels))
            else:
                image = [rng.randrange(len(labels) + 1) for _ in labels]
            mapping = dict(zip(labels, image))
            candidate = GameState(
                tuple(tuple(mapping[lab] for lab in cyc) for cyc in candidate.cycles),
                candidate.genus, candidate.initial_genus, candidate.next_label,
            )
        yield candidate, earlier


def test_matcher_agrees_with_reference_on_random_pairs():
    answers = {True: 0, False: 0}
    for candidate, earlier in _random_pairs(23, 10_000):
        cand, earl = _canonical_cycles(candidate), _canonical_cycles(earlier)
        expected = reference_shape_precedes(cand, earl)
        assert equivalence._shape_precedes.__wrapped__(cand, earl) == expected, (cand, earl)
        answers[expected] += 1
    assert min(answers.values()) > 2_000, answers


def _refuted_witnesses(pairs) -> tuple[int, list]:
    """How many pairs the kept-label witness places, and those of them
    the reference refutes."""
    witnessed = [(cand, earl) for cand, earl in pairs if equivalence._kept_label_witness(cand, earl)]
    refuted = [(cand, earl) for cand, earl in witnessed
               if not reference_shape_precedes(_canonical_cycles(cand), _canonical_cycles(earl))]
    return len(witnessed), refuted


@pytest.mark.usefixtures("unmerged")
def test_kept_label_witness_is_sound_on_driver_pairs(monkeypatch):
    witnessed, refuted = _refuted_witnesses(_harvest_precedes(monkeypatch))
    assert witnessed > 2_000
    assert refuted == []


def test_kept_label_witness_is_sound_on_random_pairs():
    witnessed, refuted = _refuted_witnesses(_random_pairs(23, 10_000))
    assert witnessed > 2_000
    assert refuted == []


def test_witness_without_embedding_check_is_caught(monkeypatch):
    # the planted fault: a candidate cycle goes onto any free host cycle
    # long enough for it
    monkeypatch.setattr(equivalence, "_embeds", lambda cyc, host: len(cyc) <= len(host))
    _, refuted = _refuted_witnesses(_random_pairs(23, 2_000))
    assert refuted


def _reference_precedes(candidate: GameState, earlier: GameState) -> bool:
    return candidate.genus <= earlier.genus and reference_shape_precedes(candidate.cycles, earlier.cycles)


def _reference_rule(play: tuple[GameState, ...], reply) -> bool:
    """The paper's legality over a whole play, its last state marked: the
    reply's value exceeds every value of the play, or no state of the
    play precedes the reply's state."""
    return value(reply.next) > max(map(value, play)) or not any(_reference_precedes(reply.next, s) for s in play)


@pytest.mark.usefixtures("unmerged")
def test_legal_replies_agree_with_reference_rule_at_every_node(monkeypatch):
    # each node's play is rebuilt from the parent links of the node being
    # expanded, or taken from the states the reference solver threads
    plays = []

    def checked(play, marked):
        assert play[-1] is marked.state
        legal = equivalence.legal_replies(marked)
        expected = [r for r in cutter_replies(marked) if _reference_rule(play, r)]
        assert legal == expected, (play, marked.v, marked.w, marked.same_dummy)
        plays.append(len(play))
        return legal

    expanding = []
    real_search = arena._search

    def search(report, roots, budget, expand, key=None):
        def tracked(node):
            expanding[:] = [node]
            return expand(node)

        return real_search(report, roots, budget, tracked, key)

    def at_node(marked):
        play, node = [], expanding[0]
        while node is not None:
            play.append(node.state)
            node = node.parent
        return checked(tuple(play[::-1]), marked)

    monkeypatch.setattr(arena, "_search", search)
    monkeypatch.setattr(arena, "legal_replies", at_node)
    monkeypatch.setattr(reference_solver, "restricted_replies", checked)
    for g0 in range(8):
        assert verify_marker_bound(g0).verdict == "pass"
    for g0 in range(1, 8):
        assert verify_refined(g0).verdict == "pass"
    for g0 in range(2):
        assert verify_cutter_bound(g0).verdict == "pass"
    for g0 in range(3):
        assert reference_exact_value(g0) == [2, 4, 5][g0]
    assert len(plays) > 10_000
    assert sum(n > 3 for n in plays) > 5_000


def _assert_key_text_injective(states) -> None:
    """Two states' key texts are equal exactly when their (genus,
    canonical shape) pairs are."""
    by_text: dict = {}
    by_pair: dict = {}
    for state in states:
        text, pair = equivalence.canonical_key(state), (state.genus, equivalence._cached_shape(state.cycles))
        assert by_text.setdefault(text, pair) == pair, text
        assert by_pair.setdefault(pair, text) == text, pair


@pytest.mark.usefixtures("unmerged")
def test_canonical_shape_agrees_with_reference_on_marker_states(monkeypatch):
    # the states ply records key, and the states precedes compares (the
    # kept-label witness asks for no canonical form of them)
    equivalence._cached_shape.cache_clear()
    inputs = _record_calls(monkeypatch, "_canonical_shape")
    pairs = _record_calls(monkeypatch, "precedes")
    assert verify_marker_bound(9).verdict == "pass"
    inputs |= {(state.cycles,) for pair in pairs for state in pair}
    assert len(inputs) > 1_000
    for (cycles,) in inputs:
        shape, renaming = equivalence._canonical_shape(cycles)
        assert shape == reference_canonical_shape(cycles)[0], cycles
        assert _realises(cycles, renaming, shape), cycles
    _assert_key_text_injective(state for pair in pairs for state in pair)


def _loop_pairs(cycles) -> int:
    return sum(1 for cyc, k in Counter(cycles).items() if len(cyc) == 1 and k == 2)


def test_canonical_shape_agrees_with_reference_on_deep_marker_states(monkeypatch):
    # marker g0=13 keys states with up to thirteen loop pairs (a)(a), where
    # tied partial orderings are heaviest: a seeded sample of 60 of them,
    # 20 with four loop pairs or more
    equivalence._cached_shape.cache_clear()
    inputs = _record_calls(monkeypatch, "_canonical_shape")
    assert verify_marker_bound(13).verdict == "pass"
    states = sorted(cycles for (cycles,) in inputs)
    heavy = [cycles for cycles in states if _loop_pairs(cycles) >= 4]
    rng = random.Random(13)
    sample = rng.sample(heavy, 20) + rng.sample([cycles for cycles in states if _loop_pairs(cycles) < 4], 40)
    assert max(_loop_pairs(cycles) for cycles in sample) >= 10
    for cycles in sample:
        shape, renaming = equivalence._canonical_shape(cycles)
        assert shape == reference_canonical_shape(cycles)[0], cycles
        assert _realises(cycles, renaming, shape), cycles


def test_canonical_shape_agrees_with_reference_on_random_states():
    rng = random.Random(29)
    states = [random_state(rng, max_labels=8) for _ in range(10_000)]
    for state in states:
        cycles = state.cycles
        shape, renaming = equivalence._canonical_shape(cycles)
        assert shape == reference_canonical_shape(cycles)[0], cycles
        assert _realises(cycles, renaming, shape), cycles
    _assert_key_text_injective(states)


def _loop_heavy_state(rng: random.Random) -> tuple[tuple[int, ...], ...]:
    """A random state with two to five loop pairs (a)(a) on fresh labels
    and one to three single loops whose label recurs on a longer cycle
    (an edge moved off a cycle of three edges or more), its cycles
    shuffled and rotated."""
    while True:
        cycles = [list(c) for c in random_state(rng, max_labels=7).cycles]
        counts = Counter(lab for c in cycles for lab in c)
        if any(len(c) >= 3 and counts[lab] == 2 for c in cycles for lab in c):
            break
    moved: set[int] = set()
    for _ in range(rng.randint(1, 3)):
        spots = [(c, i) for c in cycles if len(c) >= 3 for i, lab in enumerate(c) if counts[lab] == 2 and lab not in moved]
        if spots:
            c, i = rng.choice(spots)
            moved.add(c[i])
            cycles.append([c.pop(i)])
    fresh = max(counts, default=-1) + 1
    cycles += [[fresh + j] for j in range(rng.randint(2, 5)) for _ in range(2)]
    rng.shuffle(cycles)
    return tuple(tuple(c[r:] + c[:r]) for c in cycles for r in [rng.randrange(len(c))])


def test_canonical_shape_agrees_with_reference_on_loop_pairs_and_single_loops():
    # the loop pairs lead in closed form, and the single loops, whose
    # labels recur on longer cycles, follow them
    rng = random.Random(37)
    for _ in range(300):
        cycles = _loop_heavy_state(rng)
        shape, renaming = equivalence._canonical_shape(cycles)
        assert shape == reference_canonical_shape(cycles)[0], cycles
        assert _realises(cycles, renaming, shape), cycles


def test_relabelled_copies_share_one_shape():
    # relabelled, reordered and rotated copies of one state share one
    # normal form's search: each gets the reference's shape and its own
    # renaming, which realises it on the copy's labels
    rng = random.Random(41)
    for i in range(300):
        cycles = _loop_heavy_state(rng) if i % 2 else random_state(rng, max_labels=8).cycles
        expected = reference_canonical_shape(cycles)[0]
        labels = sorted({lab for cyc in cycles for lab in cyc})
        for _ in range(3):
            mapping = dict(zip(labels, rng.sample(range(100), len(labels))))
            copy = [tuple(mapping[lab] for lab in cyc) for cyc in cycles]
            copy = [cyc[r:] + cyc[:r] for cyc in copy for r in [rng.randrange(len(cyc))]]
            rng.shuffle(copy)
            shape, renaming = equivalence._canonical_shape(tuple(copy))
            assert shape == expected, copy
            assert sorted(renaming) == sorted(mapping.values()), copy
            assert _realises(copy, renaming, shape), copy

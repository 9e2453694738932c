from fractions import Fraction

import pytest

from cutgame.arena import verify_marker_bound, verify_refined
from cutgame.core import GameState, MarkedState, cutter_replies, empty_state, value
from cutgame.equivalence import legal_replies, start_history
from cutgame.potential import state_potential
from cutgame.strategy import (
    ActiveCycle,
    BoundingPhase,
    MarkerStrategy,
    NestPseudo,
    NestUnique,
    PreparatoryPhase,
    SeedPhase,
    StrategyError,
    SwitchToCops,
    TEMPLATES,
    classify_configuration,
    cutter_move,
    verify_bindings,
)
from reference_strategy import bound_cycles, phase_signature, reference_advance, var_labels


def marker_move(phase: BoundingPhase, state: GameState) -> tuple[MarkedState, dict]:
    """The marker's mark for this phase plus the reply kinds it absorbs,
    each with its target configuration."""
    arrows = TEMPLATES[phase.config].arrows
    return MarkerStrategy().mark(phase, state), {kind: target for kind, (target, _) in arrows.items()}


def _config3_state(genus: int) -> tuple[GameState, BoundingPhase]:
    state = GameState(((9, 1, 2, 1, 8, 2),), genus, max(genus, 1), 10)
    phase = BoundingPhase(
        3,
        (ActiveCycle(0, (NestUnique(0), 1, 2, 3, 4, 5)),),
    )
    return state, phase


def _config2_state(genus: int) -> tuple[GameState, BoundingPhase]:
    state = GameState(((5, 6), (5, 7)), genus, max(genus, 1), 8)
    phase = BoundingPhase(
        2,
        (ActiveCycle(0, (0, 1)), ActiveCycle(1, (0, NestUnique(1)))),
    )
    return state, phase


def test_preparatory_marks():
    strat = MarkerStrategy()
    marked = strat.mark(PreparatoryPhase(0), empty_state(2))
    assert marked.v is None and marked.w is None and marked.same_dummy
    loop = GameState(((0,),), 1, 1, 1)
    marked = strat.mark(PreparatoryPhase(1), loop)
    assert marked.v == (0, 0) and marked.w == (0, 0)


def test_preparatory_to_configuration_one():
    strat = MarkerStrategy()
    state = empty_state(0)
    hist = start_history(state)
    phase = strat.initial_phase(state)
    for expected_kinds in ({"B", "C"}, {"B"}):
        marked = strat.mark(phase, state)
        legal = legal_replies(hist, marked)
        assert {r.kind for r in legal} == expected_kinds
        reply = [r for r in legal if r.kind == "B"][0]
        phase = strat.advance(phase, state, reply)
        state = reply.next
        hist = hist.extended(state)
    assert isinstance(phase, BoundingPhase) and phase.config == 1
    verify_bindings(state, phase)
    assert state_potential(state) == Fraction(-5)
    # configuration 1 with a single-edge nesting path and no genus: over
    marked = strat.mark(phase, state)
    assert legal_replies(hist, marked) == []


def test_configuration3_forces_genus_burn():
    state, phase = _config3_state(genus=1)
    verify_bindings(state, phase)
    marked, expected = marker_move(phase, state)
    assert marked.v == (0, 1) and marked.w == (0, 4)
    assert expected == {"A": 4}
    legal = legal_replies(start_history(state), marked)
    assert {r.kind for r in legal} == {"A"}
    strat = MarkerStrategy()
    nxt = strat.advance(phase, state, legal[0])
    assert nxt.config == 4
    verify_bindings(legal[0].next, nxt)


def test_configuration3_at_zero_genus_ends_game():
    state, phase = _config3_state(genus=0)
    marked = MarkerStrategy().mark(phase, state)
    assert legal_replies(start_history(state), marked) == []


def test_configuration2_forces_amalgamation():
    state, phase = _config2_state(genus=1)
    verify_bindings(state, phase)
    marked, expected = marker_move(phase, state)
    assert marked.v == (0, 0) and marked.w == (1, 1)
    assert expected == {"D": 3}
    legal = legal_replies(start_history(state), marked)
    assert {r.kind for r in legal} == {"D"}
    strat = MarkerStrategy()
    nxt = strat.advance(phase, state, legal[0])
    assert nxt.config == 3
    verify_bindings(legal[0].next, nxt)


def test_classify_examples():
    # 2-cycle with two uniquely appearing labels
    state = GameState(((0, 1),), 1, 1, 2)
    assert classify_configuration((0,), state) == 1
    # seeded continuation with a pseudo edge
    cont = GameState(((2, 3), (0, 1, 0, 3)), 1, 3, 4)
    assert classify_configuration((1,), cont, allow_pseudo=True) == 1
    assert classify_configuration((1,), cont) is None
    # two 2-cycles sharing a label, partners unique
    state2, phase2 = _config2_state(1)
    assert classify_configuration((0, 1), state2) == 2


def test_classify_rejects_noise():
    state = GameState(((0, 1), (0, 1)), 1, 1, 2)
    assert classify_configuration((0, 1), state) is None


def test_seed_phase_marks_short_edge():
    strat = MarkerStrategy(refined=True)
    seed = GameState(((0, 1, 0, 2),), 2, 3, 3)
    phase = strat.initial_phase(seed)
    assert isinstance(phase, SeedPhase)
    marked = strat.mark(phase, seed)
    assert marked.v == (0, 3) and marked.w == (0, 0)
    legal = legal_replies(start_history(seed), marked)
    assert {r.kind for r in legal} == {"A"}
    nxt = strat.advance(phase, seed, legal[0])
    assert isinstance(nxt, BoundingPhase) and nxt.config == 1
    verify_bindings(legal[0].next, nxt, allow_pseudo=True)
    active = nxt.actives[0]
    assert isinstance(active.pos[1], NestPseudo)


def test_seed_phase_dead_at_zero_genus():
    strat = MarkerStrategy(refined=True)
    seed = GameState(((0, 1, 0, 2),), 0, 1, 3)
    marked = strat.mark(strat.initial_phase(seed), seed)
    assert legal_replies(start_history(seed), marked) == []


def test_switch_to_cops_at_genus_one():
    strat = MarkerStrategy(refined=True)
    # configuration 1 with the pseudo edge; the burn lands at genus one
    state = GameState(((2, 3), (0, 1, 0, 3)), 2, 4, 4)
    phase = BoundingPhase(
        1,
        (ActiveCycle(1, (1, NestPseudo((2, 3, 0)))),),
    )
    verify_bindings(state, phase, allow_pseudo=True)
    marked = strat.mark(phase, state)
    legal = legal_replies(start_history(state), marked)
    assert {r.kind for r in legal} == {"A"}
    nxt = strat.advance(phase, state, legal[0])
    assert isinstance(nxt, SwitchToCops)
    assert nxt.genus == 1 and nxt.value == value(state) + 1


def test_pseudo_rebind_at_genus_four():
    strat = MarkerStrategy(refined=True)
    state = GameState(((2, 3), (0, 1, 0, 3)), 5, 7, 4)
    phase = BoundingPhase(
        1,
        (ActiveCycle(1, (1, NestPseudo((2, 3, 0)))),),
    )
    marked = strat.mark(phase, state)
    legal = legal_replies(start_history(state), marked)
    nxt = strat.advance(phase, state, legal[0])
    assert isinstance(nxt, BoundingPhase) and nxt.config == 2
    # the pseudo edge was re-anchored around the new shared label
    verify_bindings(legal[0].next, nxt, allow_pseudo=True)
    rebound = nxt.actives[1].pos[1]
    assert isinstance(rebound, NestPseudo)


def test_cutter_prefers_forced_amalgamation():
    state = GameState(((0, 1), (2, 3)), 1, 1, 4)
    marked = MarkedState(state, (0, 0), (1, 0))
    reply, anomaly = cutter_move(marked, legal_replies(start_history(state), marked))
    assert reply.kind == "D" and not anomaly


def test_cutter_burns_genus_on_rich_arcs():
    state = GameState(((0, 1),), 1, 1, 2)
    marked = MarkedState(state, (0, 0), (0, 1))
    reply, anomaly = cutter_move(marked, legal_replies(start_history(state), marked))
    assert reply.kind == "A" and not anomaly


def test_cutter_discards_poor_arc():
    seed = GameState(((0, 1, 0, 2),), 0, 2, 3)
    marked = MarkedState(seed, (0, 0), (0, 1))  # arcs: (a) and (b,a,c)
    reply, anomaly = cutter_move(marked, legal_replies(start_history(seed), marked))
    assert reply.kind == "C" and not anomaly
    assert state_potential(reply.next) <= state_potential(seed)


def test_cutter_requires_legal_reply():
    state = GameState(((0, 1),), 0, 0, 2)
    marked = MarkedState(state, (0, 0), (0, 1))
    with pytest.raises(ValueError):
        cutter_move(marked, legal_replies(start_history(state), marked))


def test_verify_bindings_catches_drift():
    _, phase = _config2_state(1)
    # variable 0's two edges read 5 and 7; every "U" and "N" edge is unique
    drifted = GameState(((5, 6), (7, 8)), 1, 1, 9)
    with pytest.raises(StrategyError, match="variable 0 bound to 5 but edge reads 7"):
        verify_bindings(drifted, phase)


def test_every_arrow_has_one_source_per_target_cycle():
    for cfg, template in TEMPLATES.items():
        for kind, (target, sources) in template.arrows.items():
            tcycles = TEMPLATES[target].cycles
            assert len(sources) == len(tcycles), (cfg, kind)
            for source, atoms in zip(sources, tcycles):
                if isinstance(source, int):
                    # carried whole: the active cycle keeps its atom count
                    assert len(template.cycles[source]) == len(atoms), (cfg, kind, source)
                elif source[0] == "xz":
                    t = atoms[0]
                    assert isinstance(t, int) and atoms == (t, "U", t, "U"), (cfg, kind, source)
                elif source[0] == "y":
                    assert atoms == ("U", "N"), (cfg, kind, source)
                else:
                    assert len(source) == len(atoms), (cfg, kind, source)


def _bounding_nodes(monkeypatch) -> list:
    """(phase, state) of every bounding node the marker verifiers visit."""
    nodes = []
    original = MarkerStrategy.mark

    def recording(self, phase, state):
        if isinstance(phase, BoundingPhase):
            nodes.append((phase, state))
        return original(self, phase, state)

    monkeypatch.setattr(MarkerStrategy, "mark", recording)
    for g0 in range(10):
        assert verify_marker_bound(g0).verdict == "pass"
    for g0 in range(1, 10):
        assert verify_refined(g0).verdict == "pass"
    monkeypatch.undo()
    return nodes


def test_transition_table_matches_reference_handlers(monkeypatch):
    """Every reply to the strategy's own mark, at every bounding node of
    marker g0=0..9 and refined g0=1..9: the table and the reference
    handlers give the same phase, or both refuse the reply.  The refined
    switch and re-anchoring act after the table and are not compared."""
    strat = MarkerStrategy()
    nodes = _bounding_nodes(monkeypatch)
    assert len(nodes) > 1000
    absorbed, refused = set(), 0
    for phase, state in nodes:
        for reply in cutter_replies(strat.mark(phase, state)):
            try:
                ref = reference_advance(phase, state, reply)
            except (StrategyError, KeyError):
                ref = None
            try:
                nxt = strat.advance(phase, state, reply)
            except (StrategyError, KeyError):
                nxt = None
            assert (nxt is None) == (ref is None), (phase.config, reply.kind)
            if nxt is None:
                refused += 1
                continue
            absorbed.add((phase.config, reply.kind))
            target, ref_cycles, ref_labels = ref
            assert tuple(rc.atoms for rc in ref_cycles) == TEMPLATES[target].cycles
            assert (phase_signature(nxt.config, bound_cycles(nxt), reply.next)
                    == phase_signature(target, ref_cycles, reply.next))
            assert var_labels(ref_cycles, reply.next) == ref_labels
    assert refused > 0
    # every arrow is taken
    assert absorbed == {(cfg, kind) for cfg, t in TEMPLATES.items() for kind in t.arrows}

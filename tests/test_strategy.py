import itertools
import random

import pytest

from cutgame import arena
from cutgame.arena import verify_marker_bound, verify_refined
from cutgame.core import GameState, MarkedState, cutter_replies, empty_state, value
from cutgame.equivalence import legal_replies
from cutgame.potential import QUARTER, nesting_supports, state_potential
from cutgame.strategy import (
    ActiveCycle,
    BoundingPhase,
    MarkerStrategy,
    PreparatoryPhase,
    SeedPhase,
    StrategyError,
    SwitchToCops,
    TEMPLATES,
    classify_configuration,
    cutter_move,
    verify_bindings,
)
from reference_strategy import (
    NestChain,
    bound_cycles,
    phase_signature,
    reference_advance,
    reference_classify,
    run_of,
    var_labels,
)


def marker_move(phase: BoundingPhase, state: GameState) -> tuple[MarkedState, dict]:
    """The marker's mark for this phase plus the reply kinds it absorbs,
    each with its target configuration."""
    arrows = TEMPLATES[phase.config].arrows
    return MarkerStrategy().mark(phase, state), {kind: target for kind, (target, _) in arrows.items()}


def _config3_state(genus: int) -> tuple[GameState, BoundingPhase]:
    state = GameState(((9, 1, 2, 1, 8, 2),), genus, max(genus, 1), 10)
    phase = BoundingPhase(
        3,
        (ActiveCycle(0, ((0,), 1, 2, 3, 4, 5)),),
    )
    return state, phase


def _config2_state(genus: int) -> tuple[GameState, BoundingPhase]:
    state = GameState(((5, 6), (5, 7)), genus, max(genus, 1), 8)
    phase = BoundingPhase(
        2,
        (ActiveCycle(0, (0, 1)), ActiveCycle(1, (0, (1,)))),
    )
    return state, phase


def test_phases_are_equal_exactly_when_every_field_is():
    def phase(run: tuple[int, ...]) -> BoundingPhase:
        return BoundingPhase(4, (ActiveCycle(0, (0, 1, 2, 3)), ActiveCycle(1, (run, 4, 0, 5))))

    assert phase((1, 2, 3)) == phase((1, 2, 3)) and hash(phase((1, 2, 3))) == hash(phase((1, 2, 3)))
    assert phase((1, 2, 3)) != phase((2, 3, 1))  # differ only in the nesting run
    assert phase((1,)) != phase((1, 2, 3))
    assert PreparatoryPhase(1) == PreparatoryPhase(1) != PreparatoryPhase(0)
    assert SeedPhase() == SeedPhase() != PreparatoryPhase(0)
    assert len({phase((1, 2, 3)), phase((1, 2, 3)), phase((2, 3, 1)), SeedPhase(), SeedPhase()}) == 3


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
    phase = strat.initial_phase(state)
    for expected_kinds in ({"B", "C"}, {"B"}):
        marked = strat.mark(phase, state)
        legal = legal_replies(marked)
        assert {r.kind for r in legal} == expected_kinds
        reply = [r for r in legal if r.kind == "B"][0]
        phase = strat.advance(phase, state, reply)
        state = reply.next
    assert isinstance(phase, BoundingPhase) and phase.config == 1
    verify_bindings(state, phase)
    assert state_potential(state) == -5 * QUARTER
    # configuration 1 with a single-edge nesting path and no genus: over
    marked = strat.mark(phase, state)
    assert legal_replies(marked) == []


def test_configuration3_forces_genus_burn():
    state, phase = _config3_state(genus=1)
    verify_bindings(state, phase)
    marked, expected = marker_move(phase, state)
    assert marked.v == (0, 1) and marked.w == (0, 4)
    assert expected == {"A": 4}
    legal = legal_replies(marked)
    assert {r.kind for r in legal} == {"A"}
    strat = MarkerStrategy()
    nxt = strat.advance(phase, state, legal[0])
    assert nxt.config == 4
    verify_bindings(legal[0].next, nxt)


def test_configuration3_at_zero_genus_ends_game():
    state, phase = _config3_state(genus=0)
    marked = MarkerStrategy().mark(phase, state)
    assert legal_replies(marked) == []


def test_configuration2_forces_amalgamation():
    state, phase = _config2_state(genus=1)
    verify_bindings(state, phase)
    marked, expected = marker_move(phase, state)
    assert marked.v == (0, 0) and marked.w == (1, 1)
    assert expected == {"D": 3}
    legal = legal_replies(marked)
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
    legal = legal_replies(marked)
    assert {r.kind for r in legal} == {"A"}
    nxt = strat.advance(phase, seed, legal[0])
    assert isinstance(nxt, BoundingPhase) and nxt.config == 1
    verify_bindings(legal[0].next, nxt, allow_pseudo=True)
    run = nxt.actives[0].pos[1]
    cyc = legal[0].next.cycles[nxt.actives[0].cycle]
    assert len(run) == 3 and cyc[run[0]] == cyc[run[2]] != cyc[run[1]]  # a pseudo edge (x, m, x)


def test_seed_phase_dead_at_zero_genus():
    strat = MarkerStrategy(refined=True)
    seed = GameState(((0, 1, 0, 2),), 0, 1, 3)
    marked = strat.mark(strat.initial_phase(seed), seed)
    assert legal_replies(marked) == []


def test_switch_to_cops_at_genus_one():
    strat = MarkerStrategy(refined=True)
    # configuration 1 with the pseudo edge; the burn lands at genus one
    state = GameState(((2, 3), (0, 1, 0, 3)), 2, 4, 4)
    phase = BoundingPhase(
        1,
        (ActiveCycle(1, (1, (2, 3, 0))),),
    )
    verify_bindings(state, phase, allow_pseudo=True)
    marked = strat.mark(phase, state)
    legal = legal_replies(marked)
    assert {r.kind for r in legal} == {"A"}
    assert isinstance(strat.advance(phase, state, legal[0]), SwitchToCops)
    assert legal[0].next.genus == 1 and value(legal[0].next) == value(state) + 1


def test_pseudo_rebind_at_genus_four():
    strat = MarkerStrategy(refined=True)
    state = GameState(((2, 3), (0, 1, 0, 3)), 5, 7, 4)
    phase = BoundingPhase(
        1,
        (ActiveCycle(1, (1, (2, 3, 0))),),
    )
    marked = strat.mark(phase, state)
    legal = legal_replies(marked)
    nxt = strat.advance(phase, state, legal[0])
    assert isinstance(nxt, BoundingPhase) and nxt.config == 2
    # the pseudo edge was re-anchored around the new shared label
    verify_bindings(legal[0].next, nxt, allow_pseudo=True)
    rebound = nxt.actives[1].pos[1]
    cyc = legal[0].next.cycles[nxt.actives[1].cycle]
    assert len(rebound) == 3 and cyc[rebound[0]] == cyc[rebound[2]] != cyc[rebound[1]]


def test_pseudo_rebind_refuses_cyclic_supports(time_limit):
    """Re-anchoring walks the nesting chain down to the pseudo edge by
    its supports; supports that lead back round, or a chain that ends
    anywhere but at a pseudo edge, are a StrategyError, never a hang."""
    strat = MarkerStrategy(refined=True)
    # (1, 2, 3)'s y-cycle (2, 5, 4, 6) holds the run (5, 4, 6), whose
    # y-cycle is the host again, with the run (1, 2, 3)
    looped = GameState(((1, 2, 3, 4), (2, 5, 4, 6), (1, 7, 3, 7), (5, 8, 6, 8)), 4, 6, 9)
    # the state of test_nesting_recursion_terminates_on_cyclic_support
    tangled = GameState(((1, 2, 3, 9), (1, 4, 3, 4), (2, 5), (5, 2)), 4, 6, 10)
    for state, match in ((looped, "lead back"), (tangled, "lost track")):
        phase = BoundingPhase(2, (ActiveCycle(2, (0, 1)), ActiveCycle(0, (3, (0, 1, 2)))))
        with time_limit(10), pytest.raises(StrategyError, match=match):
            strat._rebind_pseudo(phase, state)


def test_cutter_prefers_forced_amalgamation():
    state = GameState(((0, 1), (2, 3)), 1, 1, 4)
    marked = MarkedState(state, (0, 0), (1, 0))
    reply, anomaly = cutter_move(marked, legal_replies(marked))
    assert reply.kind == "D" and not anomaly


def test_cutter_burns_genus_on_rich_arcs():
    state = GameState(((0, 1),), 1, 1, 2)
    marked = MarkedState(state, (0, 0), (0, 1))
    reply, anomaly = cutter_move(marked, legal_replies(marked))
    assert reply.kind == "A" and not anomaly


def test_cutter_discards_poor_arc():
    seed = GameState(((0, 1, 0, 2),), 0, 2, 3)
    marked = MarkedState(seed, (0, 0), (0, 1))  # arcs: (a) and (b,a,c)
    reply, anomaly = cutter_move(marked, legal_replies(marked))
    assert reply.kind == "C" and not anomaly
    assert state_potential(reply.next) <= state_potential(seed)


def test_cutter_requires_legal_reply():
    state = GameState(((0, 1),), 0, 0, 2)
    marked = MarkedState(state, (0, 0), (0, 1))
    with pytest.raises(ValueError):
        cutter_move(marked, legal_replies(marked))


def test_verify_bindings_catches_drift():
    _, phase = _config2_state(1)
    # variable 0's two edges read 5 and 7; every "U" and "N" edge is unique
    drifted = GameState(((5, 6), (7, 8)), 1, 1, 9)
    with pytest.raises(StrategyError, match="variable 0 bound to 5 but edge reads 7"):
        verify_bindings(drifted, phase)


def _recorded_calls(monkeypatch, name: str, runs) -> list:
    """The argument tuples of every call the marker verifiers make to
    ``arena.<name>`` (one per distinct bounding node) over ``runs``."""
    calls = []
    real = getattr(arena, name)

    def recording(*args, **kwargs):
        calls.append((*args, *kwargs.values()))
        return real(*args, **kwargs)

    with monkeypatch.context() as patch:
        patch.setattr(arena, name, recording)
        for run in runs:
            assert run().verdict == "pass"
    return calls


def test_verify_bindings_rejects_runs_without_their_supports(monkeypatch):
    """On every bounding node of marker g0=0..9, giving the second t edge
    of a three-edge run's (x, t, z, t) support a fresh label fails the
    audit: the run reads the same labels, but is no nesting path."""
    runs = [lambda g0=g0: verify_marker_bound(g0) for g0 in range(10)]
    broken = 0
    for state, phase, _ in _recorded_calls(monkeypatch, "verify_bindings", runs):
        for ac, atoms in zip(phase.actives, TEMPLATES[phase.config].cycles):
            for atom, run in zip(atoms, ac.pos):
                if atom != "N" or len(run) == 1:
                    continue
                xz_cycle = nesting_supports(state, ac.cycle, run)[0]
                cyc = state.cycles[xz_cycle]
                x = state.cycles[ac.cycle][run[0]]
                q = (cyc.index(x) + 3) % 4
                cycles = list(state.cycles)
                cycles[xz_cycle] = cyc[:q] + (state.next_label,) + cyc[q + 1:]
                unsupported = GameState(tuple(cycles), state.genus, state.initial_genus, state.next_label + 1)
                with pytest.raises(StrategyError, match="is not a nesting path"):
                    verify_bindings(unsupported, phase)
                broken += 1
    assert broken > 100


def test_classifier_matches_reference_matcher(monkeypatch):
    """The template walk and the replaced size-combination matcher agree
    on every bounding node of marker g0=0..13 and refined g0=1..11, and
    on 4 000 seeded random subsets of those nodes' cycles, each with
    pseudo edges allowed and not."""
    runs = [lambda g0=g0: verify_marker_bound(g0) for g0 in range(14)]
    runs += [lambda g0=g0: verify_refined(g0) for g0 in range(1, 12)]
    calls = _recorded_calls(monkeypatch, "classify_configuration", runs)
    assert len(calls) > 5000
    rng = random.Random(21)
    for _ in range(4000):
        active, state, _ = rng.choice(calls)
        n = len(state.cycles)
        k = len(active) if rng.random() < 0.5 else rng.randint(1, min(4, n))
        subset = tuple(rng.sample(range(n), k))
        calls += [(subset, state, False), (subset, state, True)]
    answers = set()
    for active, state, allow_pseudo in calls:
        got = classify_configuration(active, state, allow_pseudo=allow_pseudo)
        assert got == reference_classify(active, state, allow_pseudo=allow_pseudo), (active, state.cycles)
        answers.add(got)
    assert None in answers and len(answers) > 1


def _retyped(phase: BoundingPhase, state: GameState):
    """Each copy of ``phase`` with one atom bound to the wrong kind: an
    "N" atom's lone edge as a position, a "U" or variable atom's edge as
    a one-edge run, an "N" atom's three-edge run as its first position,
    or an "N" atom's run as the two edges from its first."""
    for a, (ac, atoms) in enumerate(zip(phase.actives, TEMPLATES[phase.config].cycles)):
        n = len(state.cycles[ac.cycle])
        for i, (atom, p) in enumerate(zip(atoms, ac.pos)):
            if atom != "N":
                wrongs = [(atom if isinstance(atom, str) else "variable", (p,))]
            else:
                wrongs = [("N" if len(p) == 1 else "three-edge run as int", p[0]),
                          ("two-edge run", (p[0], (p[0] + 1) % n))]
            for what, q in wrongs:
                pos = ac.pos[:i] + (q,) + ac.pos[i + 1:]
                actives = phase.actives[:a] + (ActiveCycle(ac.cycle, pos),) + phase.actives[a + 1:]
                yield what, BoundingPhase(phase.config, actives)


def test_verify_bindings_rejects_mistyped_bindings(monkeypatch):
    """On every bounding node of marker g0=9, binding one atom to the
    wrong kind fails the audit, though the edge it names is the atom's
    own: an "N" atom takes only a run of one or three edges."""
    calls = _recorded_calls(monkeypatch, "verify_bindings", [lambda: verify_marker_bound(9)])
    kinds = dict.fromkeys(("N", "U", "variable", "three-edge run as int", "two-edge run"), 0)
    for state, phase, _ in calls:
        verify_bindings(state, phase)
        for what, wrong in _retyped(phase, state):
            kinds[what] += 1
            with pytest.raises(StrategyError, match="bound to"):
                verify_bindings(state, wrong)
    assert min(kinds.values()) > 0 and kinds["N"] + kinds["U"] == 1223, kinds


def test_verify_bindings_reads_atoms_in_order(monkeypatch):
    """On every bounding node of marker g0=0..9, swapping the positions
    bound to two edge atoms of one active cycle fails the audit: the
    positions still cover the cycle, but no longer read it in template
    order.  On a two-cycle such a swap is a rotation and is not tried."""
    runs = [lambda g0=g0: verify_marker_bound(g0) for g0 in range(10)]
    calls = _recorded_calls(monkeypatch, "verify_bindings", runs)
    swaps = 0
    for state, phase, allow_pseudo in calls:
        for a, ac in enumerate(phase.actives):
            if len(state.cycles[ac.cycle]) == 2:
                continue
            edges = [i for i, p in enumerate(ac.pos) if isinstance(p, int)]
            for i, j in itertools.combinations(edges, 2):
                pos = list(ac.pos)
                pos[i], pos[j] = pos[j], pos[i]
                actives = phase.actives[:a] + (ActiveCycle(ac.cycle, tuple(pos)),) + phase.actives[a + 1:]
                swaps += 1
                with pytest.raises(StrategyError):
                    verify_bindings(state, BoundingPhase(phase.config, actives), allow_pseudo)
    assert swaps > 5000


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
    """(phase, state) of every bounding node the marker verifiers expand
    (every node of their trees under the ``unmerged`` fixture)."""
    nodes = []
    original = MarkerStrategy.mark

    def recording(self, phase, state):
        if isinstance(phase, BoundingPhase):
            nodes.append((phase, state))
        return original(self, phase, state)

    with monkeypatch.context() as patch:
        patch.setattr(MarkerStrategy, "mark", recording)
        for g0 in range(10):
            assert verify_marker_bound(g0).verdict == "pass"
        for g0 in range(1, 10):
            assert verify_refined(g0).verdict == "pass"
    return nodes


@pytest.mark.usefixtures("unmerged")
def test_transition_table_matches_reference_handlers(monkeypatch):
    """Every reply to the strategy's own mark, at every bounding node of
    marker g0=0..9 and refined g0=1..9: the table and the reference
    handlers give the same phase, or both refuse the reply.  The refined
    switch and re-anchoring act after the table and are not compared."""
    strat = MarkerStrategy()
    nodes = _bounding_nodes(monkeypatch)
    assert len(nodes) > 1000
    absorbed, refused, chains = set(), 0, 0
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
            # the supports the handlers carried are the ones the labels read
            for rc in ref_cycles:
                for atom, binding in zip(rc.atoms, rc.pos):
                    host = rc.cycle
                    while atom == "N" and isinstance(binding, NestChain):
                        xz_cycle, (y_cycle, _), inner = nesting_supports(reply.next, host, binding.run)
                        assert (xz_cycle, y_cycle, inner) == (
                            binding.xz_cycle, binding.y_cycle, run_of(binding.inner)), (phase.config, reply.kind)
                        chains += 1
                        host, binding = binding.y_cycle, binding.inner
    assert refused > 0 and chains > 0
    # every arrow is taken
    assert absorbed == {(cfg, kind) for cfg, t in TEMPLATES.items() for kind in t.arrows}


def _off_the_end(run: tuple[int, ...], state: GameState, host: int):
    """(what moved, copy) for each copy of a nesting run on cycle
    ``host`` with one position moved a lap past its cycle's end."""
    cyc = state.cycles[host]
    what = "unique" if len(run) == 1 else "pseudo" if cyc[run[0]] == cyc[run[2]] else "chain"
    for i in range(len(run)):
        yield what, run[:i] + (run[i] + len(cyc),) + run[i + 1:]


def test_verify_bindings_rejects_positions_off_the_state(monkeypatch):
    """On every bounding node of marker g0=0..9 and refined g0=1..9,
    moving one bound position a lap past its cycle's end, or one active
    cycle past the last, fails the audit with a ``StrategyError``: the
    position names the right edge modulo the cycle, but indexing with it
    would raise ``IndexError``."""
    runs = [lambda g0=g0: verify_marker_bound(g0) for g0 in range(10)]
    runs += [lambda g0=g0: verify_refined(g0) for g0 in range(1, 10)]
    calls = _recorded_calls(monkeypatch, "verify_bindings", runs)
    moved = dict.fromkeys(("active", "edge", "unique", "pseudo", "chain"), 0)
    for state, phase, allow_pseudo in calls:
        for a, ac in enumerate(phase.actives):
            n = len(state.cycles[ac.cycle])
            variants = [("active", ActiveCycle(ac.cycle + len(state.cycles), ac.pos))]
            for i, p in enumerate(ac.pos):
                for what, q in [("edge", p + n)] if isinstance(p, int) else _off_the_end(p, state, ac.cycle):
                    variants.append((what, ActiveCycle(ac.cycle, ac.pos[:i] + (q,) + ac.pos[i + 1:])))
            for what, moved_ac in variants:
                actives = phase.actives[:a] + (moved_ac,) + phase.actives[a + 1:]
                with pytest.raises(StrategyError):
                    verify_bindings(state, BoundingPhase(phase.config, actives), allow_pseudo)
                moved[what] += 1
    assert min(moved.values()) > 0, moved

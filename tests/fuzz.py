"""Shared random generators, the potential-lemma fuzz drivers, and the
paper's label and mark classifications (``label_status``,
``mark_relation``), which only the tests read.

The drivers return the number of cases actually checked so callers can
enforce coverage floors; any violation raises AssertionError with the
offending state baked into the message.
"""

from __future__ import annotations

import random
from fractions import Fraction

from cutgame.core import (
    GameState,
    MarkedState,
    cutter_replies,
    enumerate_marker_moves,
    split_cycle,
    validate,
    value,
)
from cutgame.equivalence import legal_replies
from cutgame.graphs import Graph
from cutgame.potential import QUARTER, is_nesting_path, segment_potential, state_potential
from reference_potential import edge_potential

HALF = -QUARTER // 2  # -1/2 in the engine's quarters


def random_state(rng: random.Random, max_labels: int = 5, max_genus: int = 3) -> GameState:
    """A random proper state: labels with multiplicity one or two,
    shuffled and cut into cycles."""
    n_labels = rng.randint(0, max_labels)
    edges: list[int] = []
    for lab in range(n_labels):
        edges.extend([lab] * rng.randint(1, 2))
    rng.shuffle(edges)
    cycles: list[tuple[int, ...]] = []
    i = 0
    while i < len(edges):
        k = rng.randint(1, min(4, len(edges) - i))
        cycles.append(tuple(edges[i : i + k]))
        i += k
    g0 = rng.randint(0, max_genus)
    g = rng.randint(0, g0)
    state = GameState(tuple(cycles), g, g0, n_labels)
    assert validate(state) is None
    return state


def random_connected_graph(rng: random.Random, n: int) -> Graph:
    """A random spanning tree on shuffled labels plus up to ``2n`` more edges."""
    order = list(range(n))
    rng.shuffle(order)
    pairs = {tuple(sorted((order[rng.randrange(i)], order[i]))) for i in range(1, n)}
    others = [(u, v) for u in range(n) for v in range(u + 1, n) if (u, v) not in pairs]
    pairs |= set(rng.sample(others, rng.randint(0, min(len(others), 2 * n))))
    return Graph.from_edges(n, pairs)


def random_marked(rng: random.Random, state: GameState) -> MarkedState:
    return rng.choice(enumerate_marker_moves(state))


def _arc_potentials(state: GameState, marked: MarkedState) -> tuple[int, int]:
    """The potentials of the two split arcs of a same-component mark
    (a dummy marked twice has two empty arcs): the one kind B keeps,
    then the one kind C keeps."""
    ci, arcs = None, ((), ())
    if marked.v is not None:
        ci = marked.v[0]
        arcs = split_cycle(state.cycles[ci], marked.v[1], marked.w[1])
    return tuple(segment_potential(state, ci, arc) for arc in arcs)


def _gathers_all(state: GameState, marked: MarkedState) -> bool:
    """Whether the marks gather every label of the marked cycle."""
    if marked.v is None:
        return True  # a trivial component carries no labels
    ci = marked.v[0]
    cyc = state.cycles[ci]
    p, q = split_cycle(cyc, marked.v[1], marked.w[1])
    side_p = {cyc[i] for i in p}
    side_q = {cyc[i] for i in q}
    return not (side_p & side_q)


def fuzz_move_d(rng: random.Random, cases: int) -> int:
    """Amalgamation never raises the potential; a rich pair preserves it."""
    checked = 0
    while checked < cases:
        state = random_state(rng)
        marks = [m for m in enumerate_marker_moves(state) if not m.same_component()]
        if not marks:
            continue
        marked = rng.choice(marks)
        (reply,) = cutter_replies(marked)
        p0, p1 = state_potential(state), state_potential(reply.next)
        assert p1 <= p0, f"kind D raised potential on {state} marks {marked.v},{marked.w}"
        if marked.v is not None and marked.w is not None:
            from cutgame.potential import component_potential

            cv, cw = marked.v[0], marked.w[0]
            rich = component_potential(state, cv) >= 0 and component_potential(state, cw) >= 0
            def mixed(p):
                cyc = state.cycles[p[0]]
                return cyc[p[1]] != cyc[p[1] - 1]
            if rich and mixed(marked.v) and mixed(marked.w):
                assert p1 == p0, f"rich kind D changed potential on {state}"
        checked += 1
    return checked


def fuzz_move_a(rng: random.Random, cases: int) -> int:
    """Genus burn: rich arcs never raise the potential, gathering marks
    never lower it."""
    checked = 0
    while checked < cases:
        state = random_state(rng)
        if state.genus < 1:
            continue
        marked = random_marked(rng, state)
        if not marked.same_component():
            continue
        replies = {r.kind: r for r in cutter_replies(marked)}
        if "A" not in replies:
            continue
        reply = replies["A"]
        p_p, p_q = _arc_potentials(state, marked)
        p0, p1 = state_potential(state), state_potential(reply.next)
        if p_p >= HALF and p_q >= HALF:
            assert p1 <= p0, f"kind A with rich arcs raised potential on {state}"
        if _gathers_all(state, marked):
            assert p1 >= p0, f"gathering kind A lowered potential on {state}"
        checked += 1
    return checked


def fuzz_move_bc(rng: random.Random, cases: int) -> int:
    """Discarding a poor arc never raises the potential (restricted-legal
    replies only)."""
    checked = 0
    while checked < cases:
        state = random_state(rng)
        marked = random_marked(rng, state)
        if not marked.same_component():
            continue
        legal = {r.kind: r for r in legal_replies(marked)}
        p_p, p_q = _arc_potentials(state, marked)
        hit = False
        for kind, arc_potential in (("B", p_q), ("C", p_p)):
            reply = legal.get(kind)
            if reply is None:
                continue
            if arc_potential < HALF:
                p0, p1 = state_potential(state), state_potential(reply.next)
                assert p1 <= p0, f"kind {kind} over a poor arc raised potential on {state}"
                hit = True
        if hit:
            checked += 1
    return checked


def nesting_state(rng: random.Random, depth: int = 1, extra_cycles: int = 0) -> tuple[GameState, tuple[int, ...]]:
    """A state containing a nesting path of the given recursion depth on
    its first cycle, plus optional passive clutter; returns the state and
    the path's positions on that cycle."""
    labels = iter(range(100))

    def build(depth: int) -> tuple[list[tuple[int, ...]], tuple[int, ...]]:
        """Returns (support cycles, labels of the nesting run)."""
        if depth == 0:
            u = next(labels)
            return [], (u,)
        x, y, z, t = (next(labels) for _ in range(4))
        support, inner_run = build(depth - 1)
        # the y-cycle: one y-edge plus the inner nesting path
        y_cycle = (y,) + inner_run
        xz_cycle = (x, t, z, t)
        return support + [xz_cycle, y_cycle], (x, y, z)

    support, run = build(depth)
    host_extra = next(labels)
    host = run + (host_extra,)
    cycles = [host] + support
    for _ in range(extra_cycles):
        lab = next(labels)
        cycles.append((lab, lab))
    g0 = rng.randint(1, 3)
    state = GameState(tuple(cycles), rng.randint(0, g0), g0, 100)
    assert validate(state) is None
    return state, tuple(range(len(run)))


def fuzz_nesting_discard(rng: random.Random, cases: int) -> int:
    """Discarding a nesting path preserves the potential exactly."""
    checked = 0
    while checked < cases:
        depth = rng.randint(0, 2)
        state, run = nesting_state(rng, depth=depth, extra_cycles=rng.randint(0, 2))
        assert is_nesting_path(state, 0, run), f"generator failed for depth {depth}"
        run_len = len(run)
        host = state.cycles[0]
        # mark the run's endpoints: the arc P is the run itself
        v = (0, 0)
        w = (0, run_len % len(host))
        marked = MarkedState(state, v, w)
        legal = {r.kind: r for r in legal_replies(marked)}
        if depth == 0:
            assert "C" not in legal, f"single-edge discard was legal on {state}"
            checked += 1
            continue
        reply = legal["C"]  # keeps the arc away from the run
        p0, p1 = state_potential(state), state_potential(reply.next)
        assert p1 == p0, f"nesting discard changed potential {p0} -> {p1} on {state}"
        checked += 1
    return checked


def fuzz_nesting_contribution(rng: random.Random, cases: int) -> int:
    """A nesting path always contributes 3/2 to its segment sum."""
    checked = 0
    while checked < cases:
        depth = rng.randint(0, 2)
        state, run = nesting_state(rng, depth=depth, extra_cycles=rng.randint(0, 1))
        total = sum(edge_potential(state, 0, p) for p in run)
        assert total == Fraction(3, 2), f"nesting run contributes {total} on {state}"
        checked += 1
    return checked


def _length_partitions(total: int, max_part: int | None = None):
    if total == 0:
        yield ()
        return
    cap = total if max_part is None else max_part
    for first in range(min(total, cap), 0, -1):
        for rest in _length_partitions(total - first, first):
            yield (first,) + rest


def _pairings(items: tuple[int, ...]):
    """Partitions of the items into singletons and pairs (labelings of
    the edge slots up to label bijection)."""
    if not items:
        yield ()
        return
    first, rest = items[0], items[1:]
    for sub in _pairings(rest):
        yield ((first,),) + sub
    for k, j in enumerate(rest):
        remaining = rest[:k] + rest[k + 1 :]
        for sub in _pairings(remaining):
            yield ((first, j),) + sub


def all_proper_states(max_edges: int, genus_pairs=((0, 0), (1, 1), (0, 1))):
    """Every proper state with at most ``max_edges`` edges, up to label
    bijection, for each (genus, initial_genus) pair."""
    for e in range(0, max_edges + 1):
        for lengths in _length_partitions(e):
            for blocks in _pairings(tuple(range(e))):
                labels = [0] * e
                for lab, block in enumerate(blocks):
                    for slot in block:
                        labels[slot] = lab
                cycles = []
                i = 0
                for n in lengths:
                    cycles.append(tuple(labels[i : i + n]))
                    i += n
                for g, g0 in genus_pairs:
                    state = GameState(tuple(cycles), g, g0, len(blocks))
                    if validate(state) is None:
                        yield state


def exhaustive_value_increase(max_edges: int) -> int:
    """Corollary check over every proper state with few edges: each legal
    reply raises the value by exactly one.  Returns replies checked."""
    checked = 0
    for state in all_proper_states(max_edges):
        for marked in enumerate_marker_moves(state):
            for reply in legal_replies(marked):
                assert value(reply.next) == value(state) + 1, (state, marked.v, marked.w, reply.kind)
                checked += 1
    return checked


def fuzz_value_increase(rng: random.Random, cases: int) -> int:
    """Every restricted-legal reply raises the value by exactly one."""
    checked = 0
    while checked < cases:
        state = random_state(rng)
        marked = random_marked(rng, state)
        for reply in legal_replies(marked):
            assert value(reply.next) == value(state) + 1, f"value jump on {state}"
            checked += 1
    return checked


def fuzz_limited_choice(rng: random.Random, cases: int) -> int:
    """Gathering an isolated label forbids the reply that drops it."""
    checked = 0
    while checked < cases:
        state = random_state(rng)
        # find a cycle with an isolated label
        targets = []
        for ci, cyc in enumerate(state.cycles):
            for lab in set(cyc):
                others = [cj for cj, c2 in enumerate(state.cycles) for l in c2 if l == lab]
                if all(cj == ci for cj in others):
                    targets.append((ci, lab))
        if not targets:
            continue
        ci, lab = rng.choice(targets)
        cyc = state.cycles[ci]
        if len(cyc) < 2:
            continue
        v_pos, w_pos = rng.sample(range(len(cyc)), 2)
        p, q = split_cycle(cyc, v_pos, w_pos)
        on_p = any(cyc[i] == lab for i in p)
        on_q = any(cyc[i] == lab for i in q)
        if on_p and on_q:
            continue  # not gathered
        marked = MarkedState(state, (ci, v_pos), (ci, w_pos))
        legal_kinds = {r.kind for r in legal_replies(marked)}
        # the label sits on one arc; dropping that arc is illegal
        forbidden = "C" if on_p else "B"
        assert forbidden not in legal_kinds, (
            f"dropping gathered isolated label {lab} was legal on {state}"
        )
        checked += 1
    return checked


def fuzz_no_choice(rng: random.Random, cases: int) -> int:
    """Separating two isolated labels leaves only the genus burn."""
    checked = 0
    while checked < cases:
        state = random_state(rng)
        found = None
        for ci, cyc in enumerate(state.cycles):
            isolated = [
                lab
                for lab in set(cyc)
                if all(cj == ci for cj, c2 in enumerate(state.cycles) for l in c2 if l == lab)
            ]
            if len(isolated) < 2 or len(cyc) < 2:
                continue
            a, b = rng.sample(isolated, 2)
            for v_pos in range(len(cyc)):
                for w_pos in range(len(cyc)):
                    if v_pos == w_pos:
                        continue
                    p, q = split_cycle(cyc, v_pos, w_pos)
                    side_p = {cyc[i] for i in p}
                    side_q = {cyc[i] for i in q}
                    if (a in side_p) == (a in side_q) or (b in side_p) == (b in side_q):
                        continue
                    if (a in side_p) != (b in side_p):
                        found = (ci, v_pos, w_pos)
                        break
                if found:
                    break
            if found:
                break
        if not found:
            continue
        ci, v_pos, w_pos = found
        marked = MarkedState(state, (ci, v_pos), (ci, w_pos))
        kinds = {r.kind for r in legal_replies(marked)}
        assert kinds <= {"A"}, f"separating marks left kinds {kinds} on {state}"
        checked += 1
    return checked


def label_status(state: GameState, label: int) -> str:
    """Classify how a label occurs: on one edge, twice on one cycle,
    on two different cycles, or not at all."""
    hits = [ci for ci, cyc in enumerate(state.cycles) for lab in cyc if lab == label]
    if not hits:
        return "absent"
    if len(hits) == 1:
        return "uniquely_appearing"
    return "isolated_twice" if hits[0] == hits[1] else "split_across_cycles"


def mark_relation(state: GameState, ci: int, v_pos: int, w_pos: int, labels: tuple[int, ...]) -> str:
    """Classify a vertex pair against one or two labels of its cycle.

    The pair *gathers* a label when all its edges sit on one of the two
    arcs; it *separates* two labels when each arc holds exactly one of
    them.
    """
    cyc = state.cycles[ci]
    for lab in labels:
        if lab not in cyc:
            raise ValueError(f"label {lab} absent from cycle {ci}")
    p, q = split_cycle(cyc, v_pos, w_pos)
    side_p = {cyc[i] for i in p}
    side_q = {cyc[i] for i in q}

    def gathered(lab: int) -> bool:
        return not (lab in side_p and lab in side_q)

    if len(labels) == 1:
        return "gathers" if gathered(labels[0]) else "neither"
    a, b = labels
    if gathered(a) and gathered(b):
        return "separates" if (a in side_p) != (b in side_p) else "gathers"
    if gathered(a) or gathered(b):
        return "gathers"
    return "neither"

"""Adversarial verification of the value bounds and an exact solver.

Four drivers, one per claim:

* ``verify_marker_bound``: the marker's strategy keeps the value at or
  below ``floor(4*g0/3 + 10/3)`` against every legal restricted-cutter
  reply, with the configuration automaton closed under all transitions.
* ``verify_cutter_bound``: the cutter's potential-guarding strategy
  reaches value ``ceil(4*g0/3 + 2)`` against every marker, the potential
  never rising along the way.
* ``exact_value``: threshold minimax over canonical forms for the least
  value bound the marker can force while ending the game.
* ``verify_refined``: the seeded variant holds value at
  ``floor(4*g0/3 + 7/3)`` or exits to the cops game at
  ``floor(4*g0/3 - 1/3)`` with genus one.

The three verifiers share one depth-first search, ``_search``; each
driver supplies only the audit that expands a node into its children.
Every explored state passes ``validate`` and every ply is audited: value
rises by exactly one, potentials move the right way, and the marker's
bindings survive an independent re-classification.  A failure carries a
witness, the ply records from the root to the failing ply, rebuilt from
parent links.  Budget exhaustion yields the distinct verdict
``inconclusive``, never a silent pass.  A negative starting genus, or a
seeded game below genus one, raises ``ValueError``.
"""

from __future__ import annotations

import itertools
import random
from typing import Callable, Iterable, Optional, Union

from .core import (
    CutterReply, GameState, MarkedState, empty_state, enumerate_marker_moves, split_cycle, validate, value,
)
from .equivalence import History, canonical_key, legal_replies, start_history
from .potential import component_potential, positive_component_sum, state_potential
from .strategy import (
    BoundingPhase,
    CAP_CONFIGS,
    ACTIVE_SUM_CAP,
    MarkerStrategy,
    PreparatoryPhase,
    SeedPhase,
    StrategyError,
    SwitchToCops,
    classify_configuration,
    cutter_move,
    verify_bindings,
)

PASS = "pass"
FAIL = "fail"
INCONCLUSIVE = "inconclusive"


def marker_value_bound(g0: int) -> int:
    return (4 * g0 + 10) // 3


def cutter_value_threshold(g0: int) -> int:
    return -((-4 * g0 - 6) // 3)


def refined_value_bound(g0: int) -> int:
    return (4 * g0 + 7) // 3


def switch_value_bound(g0: int) -> int:
    return (4 * g0 - 1) // 3


class SearchBudget:
    """Exploration limits; the random mode records its seed in reports."""

    __slots__ = ("max_depth", "max_states", "marker_sampling", "sample_plays", "seed")

    def __init__(self, max_depth: Optional[int] = None, max_states: int = 2_000_000,
                 marker_sampling: str = "exhaustive", sample_plays: int = 10_000, seed: int = 0):
        if marker_sampling not in ("exhaustive", "random"):
            raise ValueError(f"unknown marker sampling {marker_sampling!r}")
        if marker_sampling == "random" and sample_plays < 1:
            raise ValueError(f"a sampled run needs at least one play, got {sample_plays}")
        if max_states < 0 or (max_depth or 0) < 0:
            raise ValueError(f"budgets must be non-negative: max_depth={max_depth}, max_states={max_states}")
        self.max_depth, self.max_states, self.marker_sampling = max_depth, max_states, marker_sampling
        self.sample_plays, self.seed = sample_plays, seed

    def resolved_depth(self, natural_bound: int) -> int:
        return self.max_depth if self.max_depth is not None else natural_bound + 1


class VerificationReport:
    """A verifier's verdict, what its search saw, and its failure witness."""

    def __init__(self, g0: int, mode: str, bound: int, budget: Optional[SearchBudget] = None):
        self.g0, self.mode, self.bound, self.budget = g0, mode, bound, budget
        self.max_value_seen = self.states_explored = self.terminal_plays = 0
        self.verdict = INCONCLUSIVE
        self.witness: Optional[list] = None
        self.failure: Optional[str] = None
        self.transitions_seen: dict = {}
        self.details: dict = {}

    def to_dict(self) -> dict:
        out = {
            "g0": self.g0,
            "mode": self.mode,
            "opponent_model": "restricted-cutter",
            "bound": self.bound,
            "max_value_seen": self.max_value_seen,
            "states_explored": self.states_explored,
            "terminal_plays": self.terminal_plays,
            "verdict": self.verdict,
            "witness": self.witness,
            "failure": self.failure,
            "budget": None
            if self.budget is None
            else {
                "max_depth": self.budget.max_depth,
                "max_states": self.budget.max_states,
                "marker_sampling": self.budget.marker_sampling,
                "sample_plays": self.budget.sample_plays,
                "seed": self.budget.seed,
            },
            "transitions_seen": {f"{k[0]}-{k[1]}": v for k, v in sorted(self.transitions_seen.items())},
            "details": self.details,
        }
        return out

    def to_json(self) -> str:
        import json

        return json.dumps(self.to_dict(), sort_keys=True)


def _mark_json(marked: MarkedState) -> dict:
    def point(p):
        return list(p) if p is not None else "dummy"

    return {"v": point(marked.v), "w": point(marked.w), "same_dummy": marked.same_dummy}


def ply_record(ply: int, mover: Optional[str], marked: Optional[MarkedState],
               reply_kind: Optional[str], state: GameState) -> dict:
    p = state_potential(state)
    return {
        "ply": ply,
        "mover": mover,
        "mark": None if marked is None else _mark_json(marked),
        "reply": reply_kind,
        "value": value(state),
        "genus": state.genus,
        "potential": f"{p.numerator}/{p.denominator}",
        "canonical_key": str(canonical_key(state)),
    }


class _Stop(Exception):
    """Ends a search with a verdict; ``node`` is the last ply of the witness."""

    def __init__(self, failure: str, node: Optional["_Node"] = None, verdict: str = FAIL):
        super().__init__(failure)
        self.failure, self.node, self.verdict = failure, node, verdict


class _Node:
    """One explored state, linked to the node it was reached from."""

    __slots__ = ("state", "hist", "phase", "record", "depth", "parent")

    def __init__(self, state: GameState, hist: History, phase: object, record: dict,
                 depth: int = 0, parent: Optional["_Node"] = None):
        self.state, self.hist, self.phase, self.record = state, hist, phase, record
        self.depth, self.parent = depth, parent

    @classmethod
    def root(cls, state: GameState, phase: object = None) -> "_Node":
        return cls(state, start_history(state), phase, ply_record(0, None, None, None, state))

    def child(self, marked: MarkedState, reply: CutterReply) -> "_Node":
        nxt, depth = reply.next, self.depth + 1
        record = ply_record(depth, "cutter", marked, reply.kind, nxt)
        return _Node(nxt, self.hist.extended(nxt), None, record, depth, self).validated()

    def validated(self) -> "_Node":
        violation = validate(self.state)
        if violation is not None:
            raise _Stop(f"invalid state ({violation.rule}): {violation.detail}", self)
        return self

    def check_depth(self, max_depth: int) -> None:
        if self.depth > max_depth:
            raise _Stop("depth budget exhausted", verdict=INCONCLUSIVE)

    def witness(self) -> list:
        records, node = [], self
        while node is not None:
            records.append(node.record)
            node = node.parent
        return records[::-1]


def _search(report: VerificationReport, roots: Iterable[_Node], budget: SearchBudget,
            expand: Callable[[_Node], list]) -> VerificationReport:
    """Depth-first search from each root in turn, shared by the verifiers.

    Each root must pass ``validate`` (every child does so where
    ``_Node.child`` builds it); every popped node is counted against the
    state budget and raises the running maximum value; ``expand`` runs
    the driver's own audit and returns the children to push.  A ``_Stop``
    becomes the report's verdict, its witness rebuilt from parent links.
    """
    try:
        for root in roots:
            stack = [root.validated()]
            while stack:
                node = stack.pop()
                report.states_explored += 1
                if report.states_explored > budget.max_states:
                    report.details["frontier"] = len(stack) + 1
                    raise _Stop("state budget exhausted", verdict=INCONCLUSIVE)
                report.max_value_seen = max(report.max_value_seen, value(node.state))
                stack.extend(expand(node))
    except _Stop as stop:
        report.verdict, report.failure = stop.verdict, stop.failure
        report.witness = None if stop.node is None else stop.node.witness()
        return report
    report.verdict = PASS
    return report


def _start(g0: int, refined: bool = False) -> GameState:
    """The starting state: empty, or the seeded game's four-cycle."""
    if g0 < 0:
        raise ValueError(f"starting genus must be non-negative, got {g0}")
    if not refined:
        return empty_state(g0)
    if g0 < 1:
        raise ValueError(f"the seeded game needs starting genus at least one, got {g0}")
    return GameState(((0, 1, 0, 2),), genus=g0 - 1, initial_genus=g0, next_label=3)


def _phase_name(phase) -> str:
    if isinstance(phase, PreparatoryPhase):
        return f"preparatory({phase.non_a_replies})"
    if isinstance(phase, SeedPhase):
        return "seed"
    return f"configuration {phase.config}"


def _check_bounding_state(state: GameState, phase: BoundingPhase, refined: bool) -> Optional[str]:
    """Audit one bounding-phase node; returns a failure message or None."""
    try:
        verify_bindings(state, phase, allow_pseudo=refined)
    except StrategyError as exc:
        return f"binding audit failed in configuration {phase.config}: {exc}"
    active = tuple(ac.cycle for ac in phase.actives)
    independent = classify_configuration(active, state, allow_pseudo=refined)
    if independent != phase.config:
        return f"classifier saw configuration {independent}, strategy claims {phase.config}"
    for ci in range(len(state.cycles)):
        if ci not in active and component_potential(state, ci) > 0:
            return f"passive cycle {ci} has positive potential"
    total = positive_component_sum(state)
    if total > ACTIVE_SUM_CAP:
        return f"active potential sum {total} exceeds the cap"
    if total == ACTIVE_SUM_CAP and phase.config not in CAP_CONFIGS:
        return f"active potential sum at cap in configuration {phase.config}"
    return None


def _run_marker(g0: int, budget: SearchBudget, refined: bool) -> VerificationReport:
    root = _start(g0, refined)
    bound = refined_value_bound(g0) if refined else marker_value_bound(g0)
    mode = "refined" if refined else "marker_bound"
    report = VerificationReport(g0=g0, mode=mode, bound=bound, budget=budget)
    strat = MarkerStrategy(refined=refined)
    if refined:
        seed_p = state_potential(root)
        report.details["seed_potential"] = f"{seed_p.numerator}/{seed_p.denominator}"
        report.details["switch_bound"] = switch_value_bound(g0)
    max_depth = budget.resolved_depth(bound)

    def expand(node: _Node) -> list:
        state, phase, v = node.state, node.phase, value(node.state)
        report.details["max_ply_depth"] = max(report.details.get("max_ply_depth", 0), node.depth)
        if v > bound:
            raise _Stop(f"value {v} exceeds bound {bound}", node)
        node.check_depth(max_depth)
        if isinstance(phase, BoundingPhase):
            msg = _check_bounding_state(state, phase, refined)
            if msg is not None:
                raise _Stop(msg, node)
        try:
            marked = strat.mark(phase, state)
        except StrategyError as exc:
            raise _Stop(f"marking failed in {_phase_name(phase)}: {exc}", node) from exc
        legal = legal_replies(node.hist, marked)
        if not legal:
            report.terminal_plays += 1
            return []
        p_now = state_potential(state)
        children = []
        for reply in legal:
            child = node.child(marked, reply)
            if value(reply.next) != v + 1:
                raise _Stop("value did not increase by one", child)
            try:
                nxt = strat.advance(phase, state, reply)
            except (StrategyError, KeyError) as exc:
                raise _Stop(f"transition from {_phase_name(phase)} on kind {reply.kind}: {exc}", child) from exc
            if isinstance(phase, BoundingPhase):
                arrow = (phase.config, reply.kind)
                report.transitions_seen[arrow] = report.transitions_seen.get(arrow, 0) + 1
                if state_potential(reply.next) < p_now:
                    raise _Stop("potential decreased during the bounding phase", child)
            if isinstance(phase, SeedPhase) and state_potential(reply.next) < p_now:
                raise _Stop("potential decreased after the seed split", child)
            if isinstance(nxt, SwitchToCops):
                report.terminal_plays += 1
                report.max_value_seen = max(report.max_value_seen, nxt.value)
                report.details["switches"] = report.details.get("switches", 0) + 1
                if nxt.genus != 1 or nxt.value > switch_value_bound(g0):
                    raise _Stop(f"switch to cops at value {nxt.value}, genus {nxt.genus}", child)
                continue
            if isinstance(nxt, BoundingPhase) and isinstance(phase, BoundingPhase) and nxt.config == 2 and phase.config == 1 and refined and reply.next.genus == 4:
                report.details["rebinds"] = report.details.get("rebinds", 0) + 1
            if isinstance(nxt, BoundingPhase) and not isinstance(phase, BoundingPhase):
                if state_potential(reply.next) < -5:
                    raise _Stop("potential below -5 at the end of the preparatory phase", child)
            child.phase = nxt
            children.append(child)
        return children

    return _search(report, [_Node.root(root, strat.initial_phase(root))], budget, expand)


def verify_marker_bound(g0: int, budget: Optional[SearchBudget] = None) -> VerificationReport:
    """Play the marker strategy against every legal reply, asserting the
    value bound and the automaton's closure throughout."""
    return _run_marker(g0, budget or SearchBudget(), refined=False)


def verify_refined(g0: int, budget: Optional[SearchBudget] = None) -> VerificationReport:
    """Seeded-game verification: value stays within the refined bound or
    the play exits to the cops game at genus one."""
    return _run_marker(g0, budget or SearchBudget(), refined=True)


def verify_cutter_bound(g0: int, budget: Optional[SearchBudget] = None) -> VerificationReport:
    """Play the potential-guarding cutter against the marker.

    Exhaustive mode branches over every marker mark; sampling mode plays
    ``budget.sample_plays`` random marker games.  Every play must reach
    the threshold value before the cutter runs out of legal replies, and
    the potential must never rise.
    """
    root = _Node.root(_start(g0))
    budget = budget or SearchBudget()
    threshold = cutter_value_threshold(g0)
    report = VerificationReport(g0=g0, mode="cutter_bound", bound=threshold, budget=budget)
    max_depth = budget.resolved_depth(threshold)

    def respond(node: _Node, marked: MarkedState) -> _Node:
        """The cutter's audited reply to one mark."""
        legal = legal_replies(node.hist, marked)
        if not legal:
            report.terminal_plays += 1
            raise _Stop(f"game ended at value {value(node.state)} below threshold {threshold}", node)
        reply, anomaly = cutter_move(marked, legal)
        child = node.child(marked, reply)
        if anomaly:
            raise _Stop("cutter had no potential-non-increasing reply", child)
        if state_potential(child.state) > state_potential(node.state):
            raise _Stop("potential increased under the cutter strategy", child)
        if value(child.state) != value(node.state) + 1:
            raise _Stop("value did not increase by one", child)
        return child

    def exhaustive(node: _Node) -> list:
        if value(node.state) >= threshold:
            report.terminal_plays += 1
            return []
        node.check_depth(max_depth)
        return [respond(node, marked) for marked in enumerate_marker_moves(node.state)]

    rng = random.Random(budget.seed)

    def sampled(node: _Node) -> list:
        # a play counts only the states the cutter moves from, so a child
        # at the threshold ends it unpushed; every child's value is seen
        node.check_depth(max_depth)
        child = respond(node, rng.choice(enumerate_marker_moves(node.state)))
        report.max_value_seen = max(report.max_value_seen, value(child.state))
        if value(child.state) < threshold:
            return [child]
        report.terminal_plays += 1
        return []

    if budget.marker_sampling == "exhaustive":
        return _search(report, [root], budget, exhaustive)
    return _search(report, itertools.repeat(root, budget.sample_plays), budget, sampled)


def ending_marks(state: GameState) -> list[MarkedState]:
    """The marks that can leave the restricted cutter no legal reply.

    Along a play whose value rises by one each turn, a reply that keeps
    every label has a value above every earlier one, so it is legal, and
    a reply that loses a label is equivalent to a reduction of the
    current state, so it is not.  Reply A (genus above 0), reply D
    (points on two components) and the loops made for one dummy marked
    twice keep every label.  That leaves two points of one cycle at
    genus 0: replies B and C each keep one of ``split_cycle``'s two arcs
    of it, and the mark ends the game exactly when each arc misses some
    label that no other cycle carries.
    """
    if state.genus:
        return []
    counts = state.label_counts()
    out = []
    for ci, cyc in enumerate(state.cycles):
        private = {lab for lab in cyc if counts[lab] == cyc.count(lab)}
        for i, j in itertools.combinations(range(len(cyc)), 2):
            p, q = split_cycle(cyc, i, j)
            if not private <= {cyc[k] for k in p} and not private <= {cyc[k] for k in q}:
                out.append(MarkedState(state, (ci, i), (ci, j)))
    return out


def exact_value(g0: int, budget: Optional[SearchBudget] = None, use_memo: bool = True) -> Union[int, str]:
    """Smallest value bound the marker can force while ending the game.

    Threshold iteration over a minimax with canonical-form memoization:
    the marker needs a mark leaving the restricted cutter without legal
    replies, all other replies staying capped recursively.  Since legal
    play raises the value each turn, legality depends only on the current
    state, which keeps the memo key to the canonical form alone; the
    memo-off mode cross-checks that.

    A state first tries the marks of ``ending_marks``, each confirmed by
    ``legal_replies``.  That decides a state at the threshold, so replies
    are built only below it, where the search recurses; a legal reply
    there that does not raise the value by exactly one raises
    ``RuntimeError``.  Only states below the threshold are keyed and
    memoized: with the memo on, every visit to a threshold state counts
    against ``budget.max_states``, and every other state counts once.
    ``exact_value(3)`` is 7, found in about 9 s on a 2-core x86-64 VM
    with Python 3.11.
    """
    budget = budget or SearchBudget()
    counter = {"states": 0}

    def can_cap(state: GameState, hist: History, t: int, memo: dict) -> bool:
        v = value(state)
        if v > t:
            return False
        keyed = use_memo and v < t
        if keyed:
            key = canonical_key(state)
            if key in memo:
                return memo[key]
        counter["states"] += 1
        if counter["states"] > budget.max_states:
            raise _Stop("state budget exhausted", verdict=INCONCLUSIVE)
        result = any(not legal_replies(hist, marked) for marked in ending_marks(state))
        if not result and v < t:
            for marked in enumerate_marker_moves(state):
                legal = legal_replies(hist, marked)
                for r in legal:
                    if value(r.next) != v + 1:
                        raise RuntimeError(f"a legal kind-{r.kind} reply moved the value from {v} "
                                           f"to {value(r.next)}, not by one")
                if all(can_cap(r.next, hist.extended(r.next), t, memo) for r in legal):
                    result = True
                    break
        if keyed:
            memo[key] = result
        return result

    root = _start(g0)
    try:
        for t in range(marker_value_bound(g0) + 1):
            if can_cap(root, start_history(root), t, {}):
                return t
    except _Stop:
        return INCONCLUSIVE
    return INCONCLUSIVE


def play_game(g0: int, marker: str = "auto", cutter: str = "auto", seed: int = 0,
              refined: bool = False) -> tuple[list[dict], dict]:
    """One full play of at most ``4 * g0 + 16`` plies; returns (ply
    records, outcome summary).

    ``marker``/``cutter`` are ``"auto"`` (the packaged strategies) or
    ``"random"`` (uniform legal choices from the given seed).
    """
    state = _start(g0, refined)
    rng = random.Random(seed)
    strat = MarkerStrategy(refined=refined) if marker == "auto" else None
    hist = start_history(state)
    phase = strat.initial_phase(state) if strat else None
    records = [ply_record(0, None, None, None, state)]
    limit = 4 * g0 + 16
    outcome: dict = {"result": "ply_limit", "plies": 0}
    for ply in range(1, limit + 1):
        if strat:
            marked = strat.mark(phase, state)
        else:
            marked = rng.choice(enumerate_marker_moves(state))
        legal = legal_replies(hist, marked)
        if not legal:
            outcome = {"result": "cutter_stuck", "plies": ply - 1}
            break
        if cutter == "auto":
            reply, _ = cutter_move(marked, legal)
        else:
            reply = rng.choice(legal)
        records.append(ply_record(ply, "cutter", marked, reply.kind, reply.next))
        if strat:
            nxt = strat.advance(phase, state, reply)
            if isinstance(nxt, SwitchToCops):
                outcome = {"result": "switch_to_cops", "plies": ply, "value": nxt.value, "genus": nxt.genus}
                state = reply.next
                break
            phase = nxt
        state = reply.next
        hist = hist.extended(state)
        outcome = {"result": "ply_limit", "plies": ply}
    outcome["final_value"] = value(state)
    outcome["final_genus"] = state.genus
    return records, outcome


def emit_trace(records: list[dict], path: str) -> None:
    """JSON-lines trace, one record per line, stable field order."""
    import json

    fields = ["ply", "mover", "mark", "reply", "value", "genus", "potential", "canonical_key"]
    with open(path, "w", encoding="utf-8") as fh:
        for rec in records:
            fh.write(json.dumps({k: rec[k] for k in fields}) + "\n")

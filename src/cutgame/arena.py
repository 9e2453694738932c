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
driver supplies only the audit that expands a node into its children,
and the exhaustive drivers a key under which equal nodes are merged: a
node whose key was already searched adds that subtree's counts to the
report instead of being expanded again.  Reports still count the tree,
so ``states_explored`` and the state budget count tree nodes, merged or
not.
Every explored state passes ``validate`` and every ply is audited: value
rises by exactly one, potentials move the right way, and the marker's
bindings survive an independent re-classification.  A failure carries a
witness, the ply records from the root to the failing ply, rebuilt from
parent links.  Budget exhaustion yields the distinct verdict
``inconclusive``, never a silent pass.  A negative starting genus, or a
seeded game below genus one, raises ``errors.InputError``.

The cutter verifier audits each ply in one pure function of the mark
and the ply number, ``_audited_reply``.  Sampled plays repeat their
plies, so they share one table of the last 512 audited plies,
``_tabled_reply`` (a ``functools.lru_cache``; ``cache_clear`` empties
it).  Exhaustive mode calls the audit directly: its merge key already
expands each state once, so a table there only costs lookups.
"""

from __future__ import annotations

import functools
import itertools
import random
from typing import Callable, Iterable, NamedTuple, Optional, Union

from .core import (
    CutterReply, GameState, MarkedState, empty_state, enumerate_marker_moves, validate, value,
)
from .equivalence import canonical_key, legal_replies
from .errors import InputError
from .potential import QUARTER, component_potential, positive_component_sum, potential_text, state_potential
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
            raise InputError(f"unknown marker sampling {marker_sampling!r}")
        if marker_sampling == "random" and sample_plays < 1:
            raise InputError(f"a sampled run needs at least one play, got {sample_plays}")
        if max_states < 0 or (max_depth or 0) < 0:
            raise InputError(f"budgets must be non-negative: max_depth={max_depth}, max_states={max_states}")
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
        return {
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
            "budget": None if self.budget is None else {k: getattr(self.budget, k) for k in SearchBudget.__slots__},
            "transitions_seen": {f"{k[0]}-{k[1]}": v for k, v in sorted(self.transitions_seen.items())},
            "details": self.details,
        }

    def to_json(self) -> str:
        import json

        return json.dumps(self.to_dict(), sort_keys=True)


def _mark_json(marked: MarkedState) -> dict:
    def point(p):
        return list(p) if p is not None else "dummy"

    return {"v": point(marked.v), "w": point(marked.w), "same_dummy": marked.same_dummy}


def ply_record(ply: int, mover: Optional[str], marked: Optional[MarkedState],
               reply_kind: Optional[str], state: GameState) -> dict:
    return {
        "ply": ply,
        "mover": mover,
        "mark": None if marked is None else _mark_json(marked),
        "reply": reply_kind,
        "value": value(state),
        "genus": state.genus,
        "potential": potential_text(state_potential(state)),
        "canonical_key": canonical_key(state),
    }


class _Stop(Exception):
    """Ends a search with a verdict; ``node`` is the last ply of the witness."""

    def __init__(self, failure: str, node: Optional["_Node"] = None, verdict: str = FAIL):
        super().__init__(failure)
        self.failure, self.node, self.verdict = failure, node, verdict


class _Node:
    """One explored state, linked to the node it was reached from."""

    __slots__ = ("state", "phase", "record", "depth", "parent")

    def __init__(self, state: GameState, phase: object, record: dict,
                 depth: int = 0, parent: Optional["_Node"] = None):
        self.state, self.phase, self.record = state, phase, record
        self.depth, self.parent = depth, parent

    @classmethod
    def root(cls, state: GameState, phase: object = None) -> "_Node":
        return cls(state, phase, ply_record(0, None, None, None, state))

    def child(self, marked: MarkedState, reply: CutterReply) -> "_Node":
        nxt, depth = reply.next, self.depth + 1
        record = ply_record(depth, "cutter", marked, reply.kind, nxt)
        return _Node(nxt, None, record, depth, self).validated()

    def marked_by(self, strat: MarkerStrategy) -> MarkedState:
        """The marker strategy's mark here.  A strategy fault, or a mark
        off the state, is the strategy's failure, not bad input."""
        try:
            return strat.mark(self.phase, self.state)
        except (StrategyError, ValueError) as exc:
            raise _Stop(f"marking failed in {_phase_name(self.phase)}: {exc}", self) from exc

    def advanced(self, strat: MarkerStrategy, marked: MarkedState, reply: CutterReply) -> "_Node":
        """The child for ``reply``, in the marker strategy's next phase; a
        fault in the strategy's transition is the strategy's failure."""
        child = self.child(marked, reply)
        try:
            child.phase = strat.advance(self.phase, self.state, reply)
        except (StrategyError, KeyError) as exc:
            raise _Stop(f"transition from {_phase_name(self.phase)} on kind {reply.kind}: {exc}", child) from exc
        return child

    def check_replies(self, marked: MarkedState, legal: list[CutterReply]) -> None:
        """Every legal reply must raise the value by exactly one; the
        witness of a failure ends at the first that does not."""
        v = value(self.state)
        for reply in legal:
            if value(reply.next) != v + 1:
                raise _Stop("value did not increase by one", self.child(marked, reply))

    def check_switch(self) -> None:
        """A switch to the cops must come at genus one, within the starting
        genus's ``switch_value_bound``; both are read off this state."""
        v, genus = value(self.state), self.state.genus
        if genus != 1 or v > switch_value_bound(self.state.initial_genus):
            raise _Stop(f"switch to cops at value {v}, genus {genus}", self)

    def validated(self) -> "_Node":
        failure = validate(self.state)
        if failure is not None:
            raise _Stop(failure, self)
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


# the report's ``details`` counts that a subtree adds to
_ADDED_DETAILS = ("switches", "rebinds")


class _Counts(NamedTuple):
    """A report's additive fields at one moment of a search, the dicts
    as tuples of (key, count) pairs.  Taken when a node is popped and
    again when its subtree is done, their difference is what the
    subtree added to the report."""

    states: int
    terminal: int
    transitions: tuple
    details: tuple

    @classmethod
    def of(cls, report: VerificationReport) -> "_Counts":
        return cls(report.states_explored, report.terminal_plays, tuple(report.transitions_seen.items()),
                   tuple((k, report.details.get(k, 0)) for k in _ADDED_DETAILS))

    def since(self, earlier: "_Counts") -> "_Counts":
        def gained(now: tuple, then: tuple) -> tuple:
            then = dict(then)
            return tuple((k, n - then.get(k, 0)) for k, n in now if n != then.get(k, 0))

        return _Counts(self.states - earlier.states, self.terminal - earlier.terminal,
                       gained(self.transitions, earlier.transitions), gained(self.details, earlier.details))

    def add_to(self, report: VerificationReport) -> None:
        report.states_explored += self.states
        report.terminal_plays += self.terminal
        for counts, added in ((report.transitions_seen, self.transitions), (report.details, self.details)):
            for k, n in added:
                counts[k] = counts.get(k, 0) + n


def _search(report: VerificationReport, roots: Iterable[_Node], budget: SearchBudget,
            expand: Callable[[_Node], list], key: Optional[Callable[[_Node], object]] = None) -> VerificationReport:
    """Depth-first search from each root in turn, shared by the verifiers.

    Each root must pass ``validate`` (every child does so where
    ``_Node.child`` builds it); every popped node is counted against the
    state budget and raises the running maximum value; ``expand`` runs
    the driver's own audit and returns the children to push.  A ``_Stop``
    becomes the report's verdict, its witness rebuilt from parent links.

    With a ``key``, a node whose key names a subtree already searched is
    merged with it: the report gets that subtree's counts (states,
    terminal plays, transitions, switches and rebinds), and the node is
    not expanded.  A node is still expanded when those counts would take
    ``states_explored`` past ``budget.max_states``, and ``frontier``
    counts nodes only, so a budget stop reads as it does on the unmerged
    tree.  The maxima need no replay: the first copy of the subtree has
    already raised them.  Merging is sound on every driver's key:

    * ``MarkerStrategy`` and ``cutter_move`` are stateless, so the moves
      from a node depend only on its state and (marker) phase;
    * a node's depth is its value minus the root's, so equal states sit
      at equal depths;
    * ``legal_replies`` reads the marked state alone, so a node's
      replies depend on nothing above it;
    * depth-first search completes a subtree before it pops any later
      duplicate, and a duplicate is never an ancestor, because the value
      rises every ply;
    * a merged subtree has passed already, so verdicts, failures and
      witnesses are those of the unmerged tree.
    """
    def out_of_states(stack: list) -> _Stop:
        report.details["frontier"] = 1 + sum(isinstance(item, _Node) for item in stack)
        return _Stop("state budget exhausted", verdict=INCONCLUSIVE)

    searched: dict = {}  # key -> what its subtree added to the report
    try:
        for root in roots:
            stack = [root.validated()]
            while stack:
                node = stack.pop()
                if type(node) is tuple:  # (key, counts at the pop): that subtree is done
                    searched[node[0]] = _Counts.of(report).since(node[1])
                    continue
                if key is not None:
                    k = key(node)
                    added = searched.get(k)
                    if added is not None and report.states_explored + added.states <= budget.max_states:
                        added.add_to(report)
                        continue
                    stack.append((k, _Counts.of(report)))
                report.states_explored += 1
                if report.states_explored > budget.max_states:
                    raise out_of_states(stack)
                report.max_value_seen = max(report.max_value_seen, value(node.state))
                stack.extend(expand(node))
    except _Stop as stop:
        report.verdict, report.failure = stop.verdict, stop.failure
        report.witness = None if stop.node is None else stop.node.witness()
        return report
    report.verdict = PASS
    return report


def _state_key(state: GameState) -> tuple:
    """The fields of a state that vary within one search (all but
    ``initial_genus``), so equal exactly when the states are; unlike the
    state, it keeps none of the potentials and counts it caches alive."""
    return state.cycles, state.genus, state.next_label


def _marker_key(node: _Node) -> tuple:
    return _state_key(node.state), node.phase


def _cutter_key(node: _Node) -> tuple:
    return _state_key(node.state)


def _start(g0: int, refined: bool = False) -> GameState:
    """The starting state: empty, or the seeded game's four-cycle."""
    if g0 < 0:
        raise InputError(f"starting genus must be non-negative, got {g0}")
    if not refined:
        return empty_state(g0)
    if g0 < 1:
        raise InputError(f"the seeded game needs starting genus at least one, got {g0}")
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
        return f"active potential sum {potential_text(total)} exceeds the cap"
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
        report.details["seed_potential"] = potential_text(state_potential(root))
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
        marked = node.marked_by(strat)
        legal = legal_replies(marked)
        if not legal:
            report.terminal_plays += 1
            return []
        node.check_replies(marked, legal)
        p_now = state_potential(state)
        children = []
        for reply in legal:
            child = node.advanced(strat, marked, reply)
            nxt = child.phase
            if isinstance(phase, BoundingPhase):
                arrow = (phase.config, reply.kind)
                report.transitions_seen[arrow] = report.transitions_seen.get(arrow, 0) + 1
                if state_potential(reply.next) < p_now:
                    raise _Stop("potential decreased during the bounding phase", child)
            if isinstance(phase, SeedPhase) and state_potential(reply.next) < p_now:
                raise _Stop("potential decreased after the seed split", child)
            if isinstance(nxt, SwitchToCops):
                report.terminal_plays += 1
                report.max_value_seen = max(report.max_value_seen, value(reply.next))
                report.details["switches"] = report.details.get("switches", 0) + 1
                child.check_switch()
                continue
            if isinstance(nxt, BoundingPhase) and isinstance(phase, BoundingPhase) and nxt.config == 2 and phase.config == 1 and refined and reply.next.genus == 4:
                report.details["rebinds"] = report.details.get("rebinds", 0) + 1
            if isinstance(nxt, BoundingPhase) and not isinstance(phase, BoundingPhase):
                if state_potential(reply.next) < -5 * QUARTER:
                    raise _Stop("potential below -5 at the end of the preparatory phase", child)
            children.append(child)
        return children

    return _search(report, [_Node.root(root, strat.initial_phase(root))], budget, expand, _marker_key)


def verify_marker_bound(g0: int, budget: Optional[SearchBudget] = None) -> VerificationReport:
    """Play the marker strategy against every legal reply, asserting the
    value bound and the automaton's closure throughout."""
    return _run_marker(g0, budget or SearchBudget(), refined=False)


def verify_refined(g0: int, budget: Optional[SearchBudget] = None) -> VerificationReport:
    """Seeded-game verification: value stays within the refined bound or
    the play exits to the cops game at genus one."""
    return _run_marker(g0, budget or SearchBudget(), refined=True)


def _audited_reply(marked: MarkedState, depth: int) -> tuple[Optional[str], Optional[CutterReply], Optional[dict]]:
    """The cutter's audited reply to one mark, the ply at ``depth``:
    ``(failure or None, reply, record)``, ``record`` the ply record of
    the reply's state.

    With no legal reply the game ended below the cutter's threshold, and
    the result is ``(failure, None, None)``.  Otherwise every legal reply
    must raise the value by exactly one, and the first that does not is
    the reply the failure names; else the reply is ``cutter_move``'s,
    which must have been found without the anomaly flag and must not
    raise the potential.  Either way the reply's state is validated
    first: an invalid state is the failure.  The result depends on the
    arguments alone, and sampled plays share it: do not mutate the
    record.
    """
    state = marked.state
    legal = legal_replies(marked)
    if not legal:
        threshold = cutter_value_threshold(state.initial_genus)
        return f"game ended at value {value(state)} below threshold {threshold}", None, None
    v = value(state)
    bad = next((r for r in legal if value(r.next) != v + 1), None)
    reply, anomaly = (bad, False) if bad is not None else cutter_move(marked, legal)
    record = ply_record(depth, "cutter", marked, reply.kind, reply.next)
    failure = validate(reply.next)
    if failure is None:
        if bad is not None:
            failure = "value did not increase by one"
        elif anomaly:
            failure = "cutter had no potential-non-increasing reply"
        elif state_potential(reply.next) > state_potential(state):
            failure = "potential increased under the cutter strategy"
    return failure, reply, record


# sampled plays' table of audited plies, keyed on (mark, depth).  A pass
# of 1 000 plays at g0 2 and 3 (5 500 plies, 2 388 distinct) finds 49%
# of its plies here with 512 entries, 54% with 1 024 and 57% unbounded,
# for about 0.8, 1.2 and 3.4 MB
_tabled_reply = functools.lru_cache(maxsize=512)(_audited_reply)


def verify_cutter_bound(g0: int, budget: Optional[SearchBudget] = None) -> VerificationReport:
    """Play the potential-guarding cutter against the marker.

    Exhaustive mode branches over every marker mark; sampling mode plays
    ``budget.sample_plays`` random marker games.  Every play must reach
    the threshold value before the cutter runs out of legal replies, and
    the potential must never rise.

    Each ply is ``_audited_reply``.  Sampled plays share one table of
    the last 512 audited plies (``_tabled_reply``, emptied by its
    ``cache_clear``), so a (state, mark) pair that recurs is audited
    once while it stays in the table.  Exhaustive mode calls the audit
    directly: its merge key already expands each state once, and a table
    there made ``verify_cutter_bound(2)`` about 12% slower.
    """
    root = _Node.root(_start(g0))
    budget = budget or SearchBudget()
    threshold = cutter_value_threshold(g0)
    report = VerificationReport(g0=g0, mode="cutter_bound", bound=threshold, budget=budget)
    max_depth = budget.resolved_depth(threshold)

    def respond(node: _Node, marked: MarkedState, audit: Callable) -> _Node:
        """The child for the cutter's audited reply to one mark."""
        failure, reply, record = audit(marked, node.depth + 1)
        if reply is None:
            report.terminal_plays += 1
            raise _Stop(failure, node)
        child = _Node(reply.next, None, record, node.depth + 1, node)
        if failure is not None:
            raise _Stop(failure, child)
        return child

    def exhaustive(node: _Node) -> list:
        if value(node.state) >= threshold:
            report.terminal_plays += 1
            return []
        node.check_depth(max_depth)
        return [respond(node, marked, _audited_reply) for marked in enumerate_marker_moves(node.state)]

    rng = random.Random(budget.seed)

    def sampled(node: _Node) -> list:
        # a play counts only the states the cutter moves from, so a child
        # at the threshold ends it unpushed; every child's value is seen
        node.check_depth(max_depth)
        child = respond(node, rng.choice(enumerate_marker_moves(node.state)), _tabled_reply)
        report.max_value_seen = max(report.max_value_seen, value(child.state))
        if value(child.state) < threshold:
            return [child]
        report.terminal_plays += 1
        return []

    if budget.marker_sampling == "exhaustive":
        return _search(report, [root], budget, exhaustive, _cutter_key)
    return _search(report, itertools.repeat(root, budget.sample_plays), budget, sampled)


def ending_marks(state: GameState) -> list[MarkedState]:
    """The marks that can leave the restricted cutter no legal reply.

    Along a play whose value rises by one each turn, a reply that keeps
    every label has a value above every earlier one, so it is legal, and
    a reply that loses a label is equivalent to a reduction of the
    current state, so it is not.  Reply A (genus above 0), reply D
    (points on two components) and the loops made for one dummy marked
    twice keep every label.  That leaves the marks of ``_forcing_marks``
    at genus 0.
    """
    return [] if state.genus else _forcing_marks(state)


def _forcing_marks(state: GameState) -> list[MarkedState]:
    """The marks whose replies B and C both lose a label, at any genus.

    Two points ``i < j`` of one cycle: reply B keeps the arc of edges
    ``[i, j)`` and C the rest (``split_cycle``), and each loses a label
    exactly when its arc misses some label that no other cycle carries:
    one such *private* label has all its edges in ``[i, j)`` and one has
    none.  For a fixed ``i`` that is a run of ``j``, built without arcs.
    """
    counts = state.label_counts()
    out = []
    for ci, cyc in enumerate(state.cycles):
        n = len(cyc)
        where: dict[int, list[int]] = {}
        for k, lab in enumerate(cyc):
            where.setdefault(lab, []).append(k)
        private = [ps for lab, ps in where.items() if len(ps) == counts[lab]]  # positions, ascending
        for i in range(n):
            # all edges of a label in [i, j): j past its last, for a label starting at i or later
            inside = [ps[-1] for ps in private if ps[0] >= i]
            if not inside:
                break
            # no edge of a label in [i, j): j up to its first edge from i on (any j if none)
            last = max(next((p for p in ps if p >= i), n - 1) for ps in private)
            out.extend(MarkedState(state, (ci, i), (ci, j))
                       for j in range(max(i, min(inside)) + 1, last + 1))
    return out


def genus_floor(state: GameState) -> int:
    """The least value at which a play from ``state`` can end: its value
    plus its genus (``exact_value``)."""
    return value(state) + state.genus


def exact_value(g0: int, budget: Optional[SearchBudget] = None, use_memo: bool = True) -> Union[int, str]:
    """Smallest value bound the marker can force while ending the game.

    Threshold iteration over a minimax with canonical-form memoization:
    the marker needs a mark leaving the restricted cutter without legal
    replies, all other replies staying capped recursively.  Thresholds
    rise from 0 with no cap, past the bound under test too, until one
    caps or the state budget runs out (``"inconclusive"``).
    ``legal_replies`` reads the marked state alone, so what follows a
    state depends on the state and not on the play that reached it, and
    since the game is blind to labels, on its canonical form alone: that
    is the memo key.  The memo-off mode cross-checks it.

    The genus floor (``genus_floor``): at genus 1 or more every mark has
    a legal reply that keeps every label, A on one component and D on
    two, and no mark ends the game; a legal reply raises the value by one
    and lowers the genus by at most one, so every play from value ``v``
    at genus ``g`` ends at ``v + g`` or more.  A state whose floor is
    above the threshold is counted and validated, then refused before any
    key, mark or reply is built.  At a tight state (``v + g`` at the threshold) only
    the marks of ``_forcing_marks`` can cap, those whose B and C replies
    both lose a label: after any other the cutter keeps every label and
    lands above the floor.  At genus 0 they are ``ending_marks``, each
    confirmed by ``legal_replies``, and they decide a state at the
    threshold, so replies are built only below it.  A mark caps once
    every reply caps, so the search tries the replies most likely to
    escape first: those that keep the genus (B, then C), then A, which
    spends a unit of it.  The order is the solver's own:
    ``cutter_replies`` keeps its build order, which random plays and the
    verifiers read.  Every counted state must pass ``validate``, and
    every legal reply below the threshold must raise the value by exactly
    one; either failure raises ``RuntimeError``.  Only states below the
    threshold and on or below the floor are keyed and memoized: with the
    memo on, every visit to any other state counts against
    ``budget.max_states``, and a keyed state counts once.
    ``exact_value(4)`` is 8, found in about 0.2 s (1 029 states), and
    ``exact_value(5)`` is 9, found in about 3 s (7 499 states), on a
    2-core x86-64 VM with Python 3.11.
    """
    budget = budget or SearchBudget()
    counter = {"states": 0}

    def can_cap(state: GameState, t: int, memo: dict) -> bool:
        v, floor = value(state), genus_floor(state)
        keyed = use_memo and v < t and floor <= t
        if keyed:
            key = canonical_key(state)
            if key in memo:
                return memo[key]
        counter["states"] += 1
        if counter["states"] > budget.max_states:
            raise _Stop("state budget exhausted", verdict=INCONCLUSIVE)
        failure = validate(state)
        if failure is not None:
            raise RuntimeError(failure)
        if floor > t:
            return False
        result = any(not legal_replies(marked) for marked in ending_marks(state))
        if not result and v < t:
            for marked in _forcing_marks(state) if floor == t else enumerate_marker_moves(state):
                legal = legal_replies(marked)
                for r in legal:
                    if value(r.next) != v + 1:
                        raise RuntimeError(f"a legal kind-{r.kind} reply moved the value from {v} "
                                           f"to {value(r.next)}, not by one")
                if all(can_cap(r.next, t, memo) for r in sorted(legal, key=lambda r: r.kind == "A")):
                    result = True
                    break
        if keyed:
            memo[key] = result
        return result

    root = _start(g0)
    try:
        return next(t for t in itertools.count() if can_cap(root, t, {}))
    except _Stop:
        return INCONCLUSIVE


def play_game(g0: int, marker: str = "auto", cutter: str = "auto", seed: int = 0,
              refined: bool = False) -> tuple[list[dict], dict]:
    """One full play of at most ``4 * g0 + 16`` plies; returns (ply
    records, outcome summary).

    ``marker``/``cutter`` are ``"auto"`` (the packaged strategies) or
    ``"random"`` (uniform legal choices from the given seed); any other
    name raises ``errors.InputError``.  The play is audited like the
    verifiers' searches: every state must pass ``validate``, every legal
    reply must raise the value by exactly one, the marker strategy must
    mark vertices of the state and take each reply without a fault, a
    switch to the cops must come at genus one within
    ``switch_value_bound(g0)`` (``_Node.check_switch``), and the auto
    cutter must find a reply that keeps the potential from rising; a
    failure raises ``RuntimeError``.
    The cutter's claim holds only in the plain game below
    ``cutter_value_threshold(g0)``, so only there is a missing reply a
    fault; anywhere else the auto cutter plays the reply ``cutter_move``
    falls back to.
    """
    for player, name in (("marker", marker), ("cutter", cutter)):
        if name not in ("auto", "random"):
            raise InputError(f"unknown {player} player {name!r}")
    start = _start(g0, refined)
    claimed = None if refined else cutter_value_threshold(g0)
    rng = random.Random(seed)
    strat = MarkerStrategy(refined=refined) if marker == "auto" else None
    node = _Node.root(start, strat.initial_phase(start) if strat else None)
    result, switch = "ply_limit", {}
    try:
        node.validated()
        for _ in range(4 * g0 + 16):
            marked = node.marked_by(strat) if strat else rng.choice(enumerate_marker_moves(node.state))
            legal = legal_replies(marked)
            if not legal:
                result = "cutter_stuck"
                break
            node.check_replies(marked, legal)
            if cutter == "auto":
                reply, anomaly = cutter_move(marked, legal)
                if anomaly and claimed is not None and value(node.state) < claimed:
                    raise RuntimeError("cutter had no potential-non-increasing reply")
            else:
                reply = rng.choice(legal)
            node = node.advanced(strat, marked, reply) if strat else node.child(marked, reply)
            if isinstance(node.phase, SwitchToCops):
                node.check_switch()
                result, switch = "switch_to_cops", {"value": value(node.state), "genus": node.state.genus}
                break
    except _Stop as stop:
        raise RuntimeError(stop.failure) from None
    outcome = {"result": result, "plies": node.depth, **switch,
               "final_value": value(node.state), "final_genus": node.state.genus}
    return node.witness(), outcome


def emit_trace(records: list[dict], path: str) -> None:
    """JSON-lines trace, one record per line, each as ``ply_record``
    built it, so its fields keep their order."""
    import json

    with open(path, "w", encoding="utf-8") as fh:
        for rec in records:
            fh.write(json.dumps(rec) + "\n")

"""Reference exact solver: threshold minimax that builds every reply.

``cutgame.arena.exact_value`` decides the states at the threshold from
the marks that can end the game (``arena.ending_marks``) and builds
replies only where it recurses, and its legality reads the marked state
alone.  The tests keep the solver it replaced here: at every state it
builds the replies to every mark and keeps those the paper's rule allows
over the whole play (``restricted_replies``), so restricted legality
alone decides each ending.  ``reference_ending_marks`` is the
``split_cycle`` form of ``arena.ending_marks``, which decides each mark
from label positions without building arcs.
"""

from __future__ import annotations

import itertools
from typing import Optional, Union

from cutgame import equivalence
from cutgame.arena import INCONCLUSIVE, SearchBudget, _start, marker_value_bound
from cutgame.core import (
    CutterReply, GameState, MarkedState, cutter_replies, enumerate_marker_moves, split_cycle, value,
)
from cutgame.equivalence import canonical_key


class _BudgetExhausted(Exception):
    pass


def restricted_replies(play: tuple[GameState, ...], marked: MarkedState) -> list[CutterReply]:
    """The replies to ``marked``, the last state of ``play`` marked, whose
    next state is not equivalent to a reduction of any state of the play:
    those above every value of the play, and those no state precedes
    (``equivalence.precedes``, looked up at each call, so that tests can
    watch it)."""
    top = max(map(value, play))
    return [r for r in cutter_replies(marked)
            if value(r.next) > top or not any(equivalence.precedes(r.next, s) for s in reversed(play))]


def reference_ending_marks(state: GameState) -> list[MarkedState]:
    """The marks of ``arena.ending_marks``, read off ``split_cycle``'s
    arcs: two points of one cycle at genus 0 whose arcs each miss some
    label that no other cycle carries."""
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


def reference_exact_value(g0: int, budget: Optional[SearchBudget] = None,
                          use_memo: bool = True) -> Union[int, str]:
    """Smallest value bound the marker can force while ending the game,
    or ``"inconclusive"`` when ``budget.max_states`` runs out."""
    budget = budget or SearchBudget()
    counter = {"states": 0}

    def can_cap(play: tuple[GameState, ...], t: int, memo: dict) -> bool:
        state = play[-1]
        if value(state) > t:
            return False
        key = canonical_key(state)
        if use_memo and key in memo:
            return memo[key]
        counter["states"] += 1
        if counter["states"] > budget.max_states:
            raise _BudgetExhausted
        result = False
        for marked in enumerate_marker_moves(state):
            legal = restricted_replies(play, marked)
            if not legal:
                result = True
                break
            if value(state) + 1 > t:
                continue
            if all(can_cap(play + (r.next,), t, memo) for r in legal):
                result = True
                break
        if use_memo:
            memo[key] = result
        return result

    root = _start(g0)
    try:
        for t in range(marker_value_bound(g0) + 1):
            if can_cap((root,), t, {}):
                return t
    except _BudgetExhausted:
        return INCONCLUSIVE
    return INCONCLUSIVE

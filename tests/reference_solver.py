"""Reference exact solver: threshold minimax that builds every reply.

``cutgame.arena.exact_value`` decides the states at the threshold from
the marks that can end the game (``arena.ending_marks``) and builds
replies only where it recurses.  The tests keep the solver it replaced
here: at every state it asks ``legal_replies`` about every mark, so
restricted legality alone decides each ending.
"""

from __future__ import annotations

from typing import Optional, Union

from cutgame.arena import INCONCLUSIVE, SearchBudget, _start, marker_value_bound
from cutgame.core import GameState, enumerate_marker_moves, value
from cutgame.equivalence import History, canonical_key, legal_replies, start_history


class _BudgetExhausted(Exception):
    pass


def reference_exact_value(g0: int, budget: Optional[SearchBudget] = None,
                          use_memo: bool = True) -> Union[int, str]:
    """Smallest value bound the marker can force while ending the game,
    or ``"inconclusive"`` when ``budget.max_states`` runs out."""
    budget = budget or SearchBudget()
    counter = {"states": 0}

    def can_cap(state: GameState, hist: History, t: int, memo: dict) -> bool:
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
            legal = legal_replies(hist, marked)
            if not legal:
                result = True
                break
            if value(state) + 1 > t:
                continue
            if all(can_cap(r.next, hist.extended(r.next), t, memo) for r in legal):
                result = True
                break
        if use_memo:
            memo[key] = result
        return result

    root = _start(g0)
    try:
        for t in range(marker_value_bound(g0) + 1):
            if can_cap(root, start_history(root), t, {}):
                return t
    except _BudgetExhausted:
        return INCONCLUSIVE
    return INCONCLUSIVE

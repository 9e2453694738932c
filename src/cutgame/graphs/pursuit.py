"""Exact cop numbers by retrograde analysis of the pursuit game.

Positions are (cop multiset, robber vertex, side to move).  Capture
positions seed the win set; ``cutgame.kernels.attractor`` (pure Python)
then iterates over flat successor lists: a cop-move position is winning
when some joint cop move wins, a robber-move position when every robber
option loses.  The cops choose their placement first and move first,
and may share vertices.
"""

from __future__ import annotations

import itertools

from ..kernels import attractor
from .graph import Graph, is_connected


class StateSpaceError(RuntimeError):
    """The position space exceeds the configured budget."""


class CopNumberAboveError(ValueError):
    """No winning strategy with up to ``k_max`` cops: the cop number
    lies beyond the search.  A ``ValueError``, as this outcome was
    before it had its own type."""


def _cop_multisets(n: int, k: int) -> list[tuple[int, ...]]:
    return list(itertools.combinations_with_replacement(range(n), k))


def _joint_moves(g: Graph, cops: tuple[int, ...]) -> set[tuple[int, ...]]:
    choices = [tuple(g.neighbours(c)) + (c,) for c in cops]
    return {tuple(sorted(m)) for m in itertools.product(*choices)}


def cop_win_positions(g: Graph, k: int, max_positions: int = 5_000_000) -> tuple[dict, bytearray]:
    """Win set over all positions for ``k`` cops.  Returns the position
    index map and win flags."""
    multisets = _cop_multisets(g.n, k)
    total = len(multisets) * g.n * 2
    if total > max_positions:
        raise StateSpaceError(f"{total} positions exceed the budget {max_positions}")
    index: dict[tuple[tuple[int, ...], int, int], int] = {}
    for cops in multisets:
        for r in range(g.n):
            for side in (0, 1):  # 0 = cops to move, 1 = robber to move
                index[(cops, r, side)] = len(index)
    kinds = bytearray((0, 1)) * (total // 2)  # the cops need one winning move, the robber all
    wins = bytearray(total)
    indptr = [0]
    succs: list[int] = []
    # (cops, r, side) sits at index[(cops, 0, 0)] + 2 * r + side.  The
    # successor lists hold the index's own int objects (``ids``), so the
    # millions of entries share them instead of each boxing a new int
    ids = list(index.values())
    for cops in multisets:
        base = index[(cops, 0, 0)]
        # row r: the robber-to-move positions after each joint cop move,
        # built once per multiset rather than once per robber vertex
        turns = [index[(mv, 0, 1)] for mv in sorted(_joint_moves(g, cops))]
        rows = list(zip(*(ids[t:t + 2 * g.n:2] for t in turns)))
        for r in range(g.n):
            if r in cops:
                wins[base + 2 * r] = wins[base + 2 * r + 1] = 1
                indptr += (len(succs), len(succs))
                continue
            succs.extend(rows[r])
            indptr.append(len(succs))
            succs.extend(ids[base + 2 * r2] for r2 in tuple(g.neighbours(r)) + (r,))
            indptr.append(len(succs))
    wins = attractor(kinds, indptr, succs, wins)
    return index, wins


def cop_win(g: Graph, k: int, max_positions: int = 5_000_000) -> bool:
    """Whether ``k`` cops catch the robber on ``g`` under optimal play."""
    if k < 1:
        raise ValueError("at least one cop is required")
    if not is_connected(g):
        raise ValueError("the pursuit game needs a connected graph")
    index, wins = cop_win_positions(g, k, max_positions)
    for cops in _cop_multisets(g.n, k):
        if all(wins[index[(cops, r, 0)]] for r in range(g.n)):
            return True
    return False


def cop_number(g: Graph, k_max: int, max_positions: int = 5_000_000) -> int:
    """Least ``k <= k_max`` with a winning cop strategy.

    Raises :class:`CopNumberAboveError` when no ``k`` up to ``k_max``
    wins, and a plain ``ValueError`` for bad input (``k_max`` below one,
    a disconnected graph).
    """
    if k_max < 1:
        raise ValueError("at least one cop is required")
    for k in range(1, k_max + 1):
        if cop_win(g, k, max_positions):
            return k
    raise CopNumberAboveError(f"no winning strategy with up to {k_max} cops")

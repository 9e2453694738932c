"""Exact cop numbers by retrograde analysis of the pursuit game
(Berarducci & Intrigila, "On the cop number of a graph", 1993).

Positions are (cop multiset, robber vertex, side to move); the cops
choose their placement first, move first and may share vertices.  Each
cop multiset is one row of two robber-vertex masks, which
``cutgame.kernels.attractor`` (pure Python) grows to the fixpoint.
"""

from __future__ import annotations

import itertools
import math
from functools import reduce
from operator import or_

from ..errors import InputError
from ..kernels import attractor
from .graph import Graph, is_connected


class StateSpaceError(RuntimeError):
    """The position space exceeds the configured budget."""


class CopNumberAboveError(ValueError):
    """No winning strategy with up to ``k_max`` cops: the cop number
    lies beyond the search.  A ``ValueError``, as this outcome was
    before it had its own type."""


def _joint_moves(g: Graph, k: int, max_entries: int) -> tuple[list[tuple[int, ...]], list[list[int]]]:
    """The multisets of ``k`` cops in lexicographic order and, for each,
    the rows one joint cop move away (each cop steps to a neighbour or
    stays).  Built one cop at a time: ``P`` plus a largest cop ``c`` has
    the moves ``Q + x`` for ``Q`` in ``J(P)`` and ``x`` in ``N[c]``, read
    from a table of the rows ``Q + x``, so no product tuple is sorted.

    Raises :class:`StateSpaceError` as soon as one level's lists hold
    more than ``max_entries`` rows in all.
    """
    closed = [(v,) + g.neighbours(v) for v in range(g.n)]
    multisets, moves = [()], [[0]]  # no cops: one multiset, which stays
    for j in range(1, k + 1):
        bigger = list(itertools.combinations_with_replacement(range(g.n), j))
        row = {cops: i for i, cops in enumerate(bigger)}
        add = [[row[tuple(sorted(cops + (x,)))] for cops in multisets] for x in range(g.n)]
        prefix = {cops: i for i, cops in enumerate(multisets)}
        level, entries = [], 0
        for cops in bigger:
            level.append(list({add[x][q] for x in closed[cops[-1]] for q in moves[prefix[cops[:-1]]]}))
            entries += len(level[-1])
            if entries > max_entries:
                raise StateSpaceError(f"the {j}-cop joint moves exceed the {max_entries} entries left in the budget")
        multisets, moves = bigger, level
    return multisets, moves


def cop_win_positions(g: Graph, k: int, max_positions: int = 5_000_000,
                      ) -> tuple[list[tuple[int, ...]], list[int], list[int]]:
    """Win masks for ``k`` cops: ``(multisets, w0, w1)``, the cop
    multisets in lexicographic order and, for the ``i``-th, the robber
    vertices from which the cops win with the cops (``w0[i]``) and with
    the robber (``w1[i]``) to move.  The budget counts positions
    (multisets times vertices times two sides) plus the entries of the
    joint-move lists, which are counted while they are built.
    """
    total = math.comb(g.n + k - 1, k) * g.n * 2
    if total > max_positions:
        raise StateSpaceError(f"{total} positions exceed the budget {max_positions}")
    multisets, moves = _joint_moves(g, k, max_positions - total)
    closed = [(1 << v) | sum(1 << u for u in g.neighbours(v)) for v in range(g.n)]
    # with the robber to move the cops have won where they stand; with
    # the cops to move, wherever one cop can step
    w0 = [reduce(or_, (closed[c] for c in cops)) for cops in multisets]
    w1 = [reduce(or_, (1 << c for c in cops)) for cops in multisets]
    return (multisets, *attractor(moves, closed, w0, w1))


def cop_win(g: Graph, k: int, max_positions: int = 5_000_000) -> bool:
    """Whether ``k`` cops catch the robber on ``g`` under optimal play."""
    if k < 1:
        raise InputError("at least one cop is required")
    if g.n == 0:
        raise InputError("the pursuit game needs a graph with at least one vertex")
    if not is_connected(g):
        raise InputError("the pursuit game needs a connected graph")
    _, w0, _ = cop_win_positions(g, k, max_positions)
    return (1 << g.n) - 1 in w0


def cop_number(g: Graph, k_max: int, max_positions: int = 5_000_000) -> int:
    """Least ``k <= k_max`` with a winning cop strategy.

    Raises :class:`CopNumberAboveError` when no ``k`` up to ``k_max``
    wins, and an ``InputError`` for bad input (``k_max`` below one,
    a graph that is empty or disconnected).
    """
    if k_max < 1:
        raise InputError("at least one cop is required")
    for k in range(1, k_max + 1):
        if cop_win(g, k, max_positions):
            return k
    raise CopNumberAboveError(f"no winning strategy with up to {k_max} cops")

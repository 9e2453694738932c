"""Reference pursuit solver: the flat position graph and the sweep attractor.

``cutgame.graphs.pursuit.cop_win_positions`` keeps one robber-vertex
mask per cop multiset and side, and ``cutgame.kernels.attractor`` runs
a worklist over those rows.  The tests keep the solver they replaced
here: one position per (cop multiset, robber vertex, side to move),
successor lists in flat ``indptr``/``succs`` arrays and an AND/OR
attractor that sweeps every position until nothing changes.
"""

from __future__ import annotations

import itertools

from cutgame.graphs.graph import Graph
from cutgame.graphs.pursuit import StateSpaceError


def cop_multisets(n: int, k: int) -> list[tuple[int, ...]]:
    return list(itertools.combinations_with_replacement(range(n), k))


def joint_moves(g: Graph, cops: tuple[int, ...]) -> set[tuple[int, ...]]:
    choices = [tuple(g.neighbours(c)) + (c,) for c in cops]
    return {tuple(sorted(m)) for m in itertools.product(*choices)}


def reference_cop_win_positions(g: Graph, k: int,
                                max_positions: int = 5_000_000) -> tuple[dict, bytearray]:
    """Win set over all positions for ``k`` cops.  Returns the position
    index map, keyed ``(cops, robber, side)`` with side 0 for the cops
    to move and 1 for the robber, and the win flags."""
    multisets = cop_multisets(g.n, k)
    total = len(multisets) * g.n * 2
    if total > max_positions:
        raise StateSpaceError(f"{total} positions exceed the budget {max_positions}")
    index: dict[tuple[tuple[int, ...], int, int], int] = {}
    for cops in multisets:
        for r in range(g.n):
            for side in (0, 1):
                index[(cops, r, side)] = len(index)
    kinds = bytearray((0, 1)) * (total // 2)  # the cops need one winning move, the robber all
    wins = bytearray(total)
    indptr = [0]
    succs: list[int] = []
    # (cops, r, side) sits at index[(cops, 0, 0)] + 2 * r + side
    ids = list(index.values())
    for cops in multisets:
        base = index[(cops, 0, 0)]
        turns = [index[(mv, 0, 1)] for mv in sorted(joint_moves(g, cops))]
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
    wins = reference_attractor(kinds, indptr, succs, wins)
    return index, wins


def reference_attractor(kinds: bytes, indptr: list[int], succs: list[int],
                        wins: bytearray) -> bytearray:
    """Monotone win-set fixpoint over an AND/OR graph.

    ``kinds[i]`` is 0 for an OR position (one winning successor suffices)
    and 1 for an AND position (all successors must win); positions with
    no successors keep their initial flag.  Sweeps until stable.
    """
    n = len(kinds)
    changed = True
    while changed:
        changed = False
        for i in range(n):
            if wins[i]:
                continue
            lo, hi = indptr[i], indptr[i + 1]
            if lo == hi:
                continue
            if kinds[i] == 0:
                hit = False
                for j in range(lo, hi):
                    if wins[succs[j]]:
                        hit = True
                        break
            else:
                hit = True
                for j in range(lo, hi):
                    if not wins[succs[j]]:
                        hit = False
                        break
            if hit:
                wins[i] = 1
                changed = True
    return wins

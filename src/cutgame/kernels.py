"""Hot loops of the graph oracles: rotation-system genus sweep and
win-set attractor.

``graphs.genus`` and ``graphs.pursuit`` import these by name; both are
plain Python over flat lists and byte arrays.
"""

from __future__ import annotations

import itertools


def genus_sweep(degrees: list[int], vertex_darts: list[list[int]], rev: list[int],
                lower_bound: int, max_systems: int) -> tuple[int, int, bool]:
    """Minimum genus over all rotation systems of a connected graph.

    ``vertex_darts[v]`` lists the darts leaving ``v`` in a fixed base
    order; ``rev`` maps each dart to its reversal.  Rotations fix the
    first dart of each vertex and permute the rest in lexicographic
    order.  Returns ``(best_genus, systems_checked, swept_all)``; the
    sweep stops early at ``lower_bound`` or after ``max_systems``.
    """
    n = len(degrees)
    n_darts = len(rev)
    e = n_darts // 2
    dart_tail = [0] * n_darts
    for v, darts in enumerate(vertex_darts):
        for d in darts:
            dart_tail[d] = v

    per_vertex = []
    for v, darts in enumerate(vertex_darts):
        if len(darts) <= 1:
            per_vertex.append([tuple(darts)])
        else:
            head, rest = darts[0], darts[1:]
            per_vertex.append([(head,) + p for p in itertools.permutations(rest)])

    best = 1 + e  # above any achievable genus
    checked = 0
    rot_next = [0] * n_darts
    for rotation in itertools.product(*per_vertex):
        if checked >= max_systems:
            return best, checked, False
        checked += 1
        for order in rotation:
            k = len(order)
            for i in range(k):
                rot_next[order[i]] = order[(i + 1) % k]
        seen = [False] * n_darts
        faces = 0
        for d0 in range(n_darts):
            if seen[d0]:
                continue
            faces += 1
            d = d0
            while not seen[d]:
                seen[d] = True
                d = rot_next[rev[d]]
        genus = (2 - n + e - faces) // 2
        if genus < best:
            best = genus
            if best <= lower_bound:
                return best, checked, False
    return best, checked, True


def attractor(kinds: bytes, indptr: list[int], succs: list[int], wins: bytearray) -> bytearray:
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

"""Reference genus oracle: the exhaustive rotation-system sweep.

``cutgame.kernels.genus_sweep`` replaced this lexicographic sweep with a
branch-and-bound search; the tests keep it as the slow path that the
search must agree with, and ``rotation_system_count`` to pick graphs
small enough for it.
"""

from __future__ import annotations

import itertools
import math

from cutgame.graphs.graph import Graph


def reference_genus_sweep(degrees: list[int], vertex_darts: list[list[int]], rev: list[int],
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


def rotation_system_count(g: Graph) -> int:
    """How many rotation systems ``g`` has: the product of (degree - 1)!."""
    total = 1
    for v in range(g.n):
        total *= math.factorial(max(0, g.degree(v) - 1))
    return total

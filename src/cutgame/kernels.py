"""Hot loops of the graph oracles: branch-and-bound genus search and
the pursuit game's win-mask attractor.

``graphs.genus`` and ``graphs.pursuit`` import these by name; both are
plain Python, over flat dart lists and over robber-vertex bitmasks held
in Python ints.
"""

from __future__ import annotations

import itertools
from collections import deque


def genus_sweep(degrees: list[int], vertex_darts: list[list[int]], rev: list[int],
                lower_bound: int, max_systems: int) -> tuple[int, int, bool]:
    """Orientable genus of a connected graph with at least one edge, by
    branch-and-bound over partial rotation systems (after Brinkmann, "A
    practical algorithm for the computation of the genus",
    arXiv:2005.08243).

    ``vertex_darts[v]`` lists the darts leaving ``v``; ``rev`` maps each
    dart to its reversal.  By Euler's formula an embedding has genus at
    most ``t`` exactly when it has at least ``2 - 2t - n + e`` faces.
    The targets ``t = lower_bound, lower_bound + 1, ...`` are tried in
    turn; the first one with an embedding gives the genus.

    For one target the search traces faces one at a time.  A face walk
    goes from dart ``d`` to the rotation successor of ``rev[d]``, which
    the search fixes when the walk reaches it: it branches over the free
    darts at that vertex, skipping any choice that would close a
    rotation cycle shorter than the vertex degree.  When a face closes, the next
    one starts at the first untraced dart.  Every face has at least
    ``f`` darts (see :func:`_face_floor`), so with ``L`` darts in the
    open face and ``R`` darts outside the closed faces at most
    ``closed + 1 + (R - max(L, f)) // f`` faces remain possible; the
    branch is cut when that is below the target's face count.  The
    search keeps its own stack, so its depth (about twice the number of
    darts) is not bounded by the interpreter's recursion limit.

    Returns ``(genus, systems_checked, complete)``.  ``systems_checked``
    counts search nodes over all targets: one per choice tried where two
    or more rotation successors were open.  ``complete`` is False when
    ``max_systems`` nodes were spent first; ``genus`` is then the target
    under search, a lower bound.
    """
    n = len(degrees)
    n_darts = len(rev)
    e = n_darts // 2
    tail = [0] * n_darts
    for v, darts in enumerate(vertex_darts):
        for d in darts:
            tail[d] = v
    floor = _face_floor(degrees, vertex_darts, rev, tail)
    checked = 0
    for t in itertools.count(lower_bound):
        faces, nodes = _embed(2 - 2 * t - n + e, floor, vertex_darts, rev, tail,
                              max_systems - checked)
        checked += nodes
        if faces < 0:
            return t, checked, False
        if faces:
            return (2 - n + e - faces) // 2, checked, True


def _embed(needed: int, floor: int, vertex_darts: list[list[int]], rev: list[int],
           tail: list[int], budget: int) -> tuple[int, int]:
    """Depth-first search for a rotation system with at least ``needed``
    faces.  Returns ``(faces, nodes)``: the face count of the first one
    found, 0 when there is none, -1 when ``budget`` nodes ran out."""
    n_darts = len(rev)
    if 1 + (n_darts - floor) // floor < needed:
        return 0, 0
    pred = [-1] * n_darts  # rotation predecessor of a dart at its tail; -1 while open
    traced = [False] * n_darts
    # undo log: d for "d was traced", ~b for "pred[b] was fixed"
    trail = [0]
    traced[0] = True
    # open branch points: [trail length, options, next option, a, face state]
    frames: list[list] = []
    nodes = 0
    start = d = 0  # first and last dart of the open face
    length, closed, rest, scan = 1, 0, n_darts, 1  # rest: darts outside closed faces
    b = -1
    while True:
        if b < 0:
            a = rev[d]
            darts = vertex_darts[tail[a]]
            head, size = a, 1
            while pred[head] >= 0:
                head = pred[head]
                size += 1
            if size == len(darts):  # the last open link closes the rotation
                b = head
            else:
                options = [x for x in darts if pred[x] < 0 and x != head]
                b = options[0]
                if len(options) > 1:
                    if nodes >= budget:
                        return -1, nodes
                    nodes += 1
                    frames.append([len(trail), options, 1, a, start, length, closed, rest, scan])
            pred[b] = a
            trail.append(~b)
        if b == start:
            closed += 1
            rest -= length
            if rest == 0:
                return closed, nodes
            while traced[scan]:
                scan += 1
            start = d = scan
            length = 1
        else:
            d = b
            length += 1
        traced[d] = True
        trail.append(d)
        b = -1
        if closed + 1 + (rest - max(length, floor)) // floor >= needed:
            continue
        while frames:
            frame = frames[-1]
            mark, options, i, a = frame[:4]
            while len(trail) > mark:
                x = trail.pop()
                if x >= 0:
                    traced[x] = False
                else:
                    pred[~x] = -1
            if i < len(options):
                if nodes >= budget:
                    return -1, nodes
                nodes += 1
                frame[2] = i + 1
                start, length, closed, rest, scan = frame[4:]
                b = options[i]
                pred[b] = a
                trail.append(~b)
                break
            frames.pop()
        else:
            return 0, nodes


def _face_floor(degrees: list[int], vertex_darts: list[list[int]], rev: list[int],
                tail: list[int]) -> int:
    """Fewest darts a face can have in any embedding of a connected graph.

    With minimum degree at least 2 it is the girth: a facial walk turns
    back only at a degree-1 vertex, so otherwise it contains a cycle.  A
    face of one or two darts needs both ends of an edge to have degree
    1, so it is 3 for every other graph with two or more edges, and 2
    for K2.
    """
    if min(degrees) < 2:
        return 3 if len(rev) > 2 else 2
    return _girth([[tail[rev[d]] for d in darts] for darts in vertex_darts])


def _girth(adj: list[list[int]]) -> int:
    """Length of a shortest cycle of a graph with minimum degree 2.

    Breadth-first search from each vertex in turn, which is then deleted
    together with every vertex this leaves with fewer than two
    neighbours (those lie on no remaining cycle).  The first vertex of a
    shortest cycle to be searched still has that whole cycle, so its
    search measures it, and every length a search reports closes a walk
    that contains a cycle, so none is below the girth.
    """
    n = len(adj)
    degree = [len(row) for row in adj]
    alive = [True] * n
    best = n + 1
    for root in range(n):
        if not alive[root]:
            continue
        dist = {root: 0}
        parent = {root: -1}
        level, depth = [root], 0
        while level and 2 * depth + 1 < best:
            nxt = []
            for x in level:
                for y in adj[x]:
                    if not alive[y] or y == parent[x]:
                        continue
                    if y in dist:
                        best = min(best, depth + dist[y] + 1)
                    else:
                        dist[y] = depth + 1
                        parent[y] = x
                        nxt.append(y)
            level, depth = nxt, depth + 1
        alive[root] = False
        dead = [root]
        while dead:
            for y in adj[dead.pop()]:
                if alive[y]:
                    degree[y] -= 1
                    if degree[y] < 2:
                        alive[y] = False
                        dead.append(y)
    return best


def attractor(moves: list[list[int]], closed: list[int], w0: list[int],
              w1: list[int]) -> tuple[list[int], list[int]]:
    """Win masks of the pursuit game, one row per cop multiset.

    ``w0[i]`` and ``w1[i]`` mask the robber vertices from which the cops
    win at row ``i`` with the cops and with the robber to move;
    ``closed[v]`` masks ``v`` and its neighbours, and ``moves[i]`` lists
    the rows one joint cop move away (a symmetric relation).  A robber
    to move at ``r`` loses when ``closed[r]`` lies in ``w0``, and each
    bit a row's ``w1`` gains is OR-ed into ``w0`` of the rows in its
    ``moves``; the seeds must already obey that second rule.  Rows whose
    ``w0`` grew are revisited, first in first out, until none changes.
    Both lists grow in place.
    """
    full = (1 << len(closed)) - 1
    todo = deque(range(len(moves)))
    queued = bytearray(b"\x01") * len(moves)
    while todo:
        i = todo.popleft()
        queued[i] = 0
        missing, reach = full ^ w0[i], 0  # w1 = the complement of the union of closed[missing]
        while missing:
            low = missing & -missing
            reach |= closed[low.bit_length() - 1]
            missing ^= low
        gained = full & ~reach & ~w1[i]
        if gained:
            w1[i] |= gained
            for j in moves[i]:
                if gained & ~w0[j]:
                    w0[j] |= gained
                    if not queued[j]:
                        queued[j] = 1
                        todo.append(j)
    return w0, w1

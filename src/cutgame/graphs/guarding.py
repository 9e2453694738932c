"""Single-cop guarding of a geodesic by shadowing.

The cop tracks the robber's projection onto the path: vertex ``i`` of a
geodesic is at distance ``i`` from its start, so the projection
``min(d(start, robber), length)`` moves by at most one per robber move.
After a finite positioning phase the cop sits on the projection, and any
robber step onto the path is answered by a capture.
"""

from __future__ import annotations

from dataclasses import dataclass

from .graph import Graph, bfs_distances, is_geodesic


@dataclass
class GeodesicGuard:
    """Per-turn cop move function guarding one geodesic."""

    graph: Graph
    path: tuple[int, ...]

    def __post_init__(self) -> None:
        if not is_geodesic(self.graph, self.path):
            raise ValueError("the guarded path must be a shortest path")
        self._index = {v: i for i, v in enumerate(self.path)}
        self._dist_start = bfs_distances(self.graph, self.path[0])
        # distances to the path, for the walk-on phase
        from_path = [bfs_distances(self.graph, p) for p in self.path]
        self._dist_to_path = [min(d[v] for d in from_path) for v in range(self.graph.n)]

    def start_vertex(self) -> int:
        return self.path[0]

    def shadow(self, robber: int) -> int:
        return self.path[min(self._dist_start[robber], len(self.path) - 1)]

    def positioned(self, cop: int, robber: int) -> bool:
        return cop == self.shadow(robber)

    def move(self, cop: int, robber: int) -> int:
        """The cop's reply after the robber moved to ``robber``."""
        target = self.shadow(robber)
        if cop == target:
            return cop
        if cop in self._index:
            i, j = self._index[cop], self._index[target]
            return self.path[i + 1] if j > i else self.path[i - 1]
        # walk towards the path, preferring vertices closer to the shadow
        best = cop
        for v in self.graph.neighbours(cop):
            if self._dist_to_path[v] < self._dist_to_path[best]:
                best = v
            elif self._dist_to_path[v] == self._dist_to_path[best] and best != cop:
                if self._dist_start[v] < self._dist_start[best]:
                    best = v
        return best


def guard_geodesic(g: Graph, path: tuple[int, ...]) -> GeodesicGuard:
    """Guarding strategy for a shortest path (checked)."""
    return GeodesicGuard(g, tuple(path))


@dataclass
class GuardReport:
    ok: bool
    states_explored: int
    failure: str = ""


def verify_guarding(g: Graph, path: tuple[int, ...], max_states: int = 1_000_000) -> GuardReport:
    """Exhaustive robber play against the guard.

    Checks that positioning always completes (no unpositioned cycle in
    the reachable state graph) and that after positioning the robber
    never occupies a path vertex without being captured on the cop's
    next move.
    """
    guard = guard_geodesic(g, path)
    on_path = set(path)
    explored = 0

    # state: (cop, robber, latched), robber to move next; one root per
    # robber start that the cop's first move does not capture
    roots: list[tuple[int, int, bool]] = []
    cop0 = guard.start_vertex()
    for robber0 in range(g.n):
        if robber0 == cop0:
            continue
        cop = guard.move(cop0, robber0)  # cops move first
        if cop == robber0:
            continue
        roots.append((cop, robber0, guard.positioned(cop, robber0)))

    # iterative DFS with an unpositioned-cycle check via colouring
    colour: dict[tuple[int, int, bool], int] = {}
    stack2: list[tuple[tuple[int, int, bool], int]] = []

    def successors(state):
        cop, robber, latched = state
        out = []
        for r2 in tuple(g.neighbours(robber)) + (robber,):
            if r2 == cop:
                continue  # the robber walked into the cop: captured
            if latched and r2 in on_path:
                nxt = guard.move(cop, r2)
                if nxt != r2:
                    return None, (cop, robber, r2)
                continue  # captured on the cop's move
            nxt = guard.move(cop, r2)
            if nxt == r2:
                continue  # captured
            out.append((nxt, r2, latched or guard.positioned(nxt, r2)))
        return out, None

    for root in roots:
        if root in colour:
            continue
        stack2.append((root, 0))
        succ_cache: dict = {}
        while stack2:
            state, idx = stack2.pop()
            if idx == 0:
                if colour.get(state) == 2:
                    continue
                colour[state] = 1
            if state not in succ_cache:
                explored += 1
                if explored > max_states:
                    return GuardReport(False, explored, "state budget exhausted")
                succ, violation = successors(state)
                if succ is None:
                    cop, robber, r2 = violation
                    return GuardReport(
                        False,
                        explored,
                        f"robber reached path vertex {r2} uncaptured (cop at {cop})",
                    )
                succ_cache[state] = succ
            succ = succ_cache[state]
            if idx < len(succ):
                stack2.append((state, idx + 1))
                child = succ[idx]
                c = colour.get(child)
                if c == 1:
                    if not child[2] or not state[2]:
                        return GuardReport(
                            False, explored, f"unpositioned play can cycle through {child}"
                        )
                    continue
                if c is None:
                    stack2.append((child, 0))
            else:
                colour[state] = 2
    return GuardReport(True, explored)

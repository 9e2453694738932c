"""Single-cop guarding of a geodesic by shadowing.

The cop tracks the robber's projection onto the path: vertex ``i`` of a
geodesic is at distance ``i`` from its start, so the projection
``min(d(start, robber), length)`` moves by at most one per robber move.
After a finite positioning phase the cop sits on the projection, and any
robber step onto the path is answered by a capture.
"""

from __future__ import annotations

from dataclasses import dataclass
from graphlib import CycleError, TopologicalSorter

from ..errors import InputError
from .graph import Graph, bfs_distances, is_geodesic
from .pursuit import StateSpaceError


@dataclass
class GeodesicGuard:
    """Per-turn cop move function guarding one geodesic."""

    graph: Graph
    path: tuple[int, ...]

    def __post_init__(self) -> None:
        if not is_geodesic(self.graph, self.path):
            raise InputError("the guarded path must be a shortest path")
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

    One pass over the reachable states (cop, robber, latched), robber to
    move, ``latched`` once the cop has been positioned, checks that
    after positioning the robber never steps onto the path without being
    captured on the cop's next move.  Latching never undoes itself, so
    positioning always completes exactly when the unpositioned states
    hold no cycle, which one topological sort of them checks.  Raises
    :class:`StateSpaceError` past ``max_states`` states.
    """
    guard = guard_geodesic(g, path)
    on_path = set(path)
    # one root per robber start that the cops' first move does not capture
    cop0 = guard.start_vertex()
    stack, explored = [], 0
    for robber0 in range(g.n):
        cop = guard.move(cop0, robber0)
        if robber0 != cop0 and cop != robber0:
            stack.append((cop, robber0, guard.positioned(cop, robber0)))
    seen = set(stack)
    unpositioned: dict[tuple[int, int, bool], list] = {}  # state -> its unpositioned successors
    while stack:
        explored += 1
        if explored > max_states:
            raise StateSpaceError(f"the guarding check needs more than {max_states} states")
        cop, robber, latched = state = stack.pop()
        succ = []
        for r2 in g.neighbours(robber) + (robber,):
            if r2 == cop:
                continue  # the robber walked into the cop: captured
            nxt = guard.move(cop, r2)
            if nxt == r2:
                continue  # captured on the cop's move
            if latched and r2 in on_path:
                return GuardReport(False, explored, f"robber reached path vertex {r2} uncaptured (cop at {cop})")
            succ.append((nxt, r2, latched or guard.positioned(nxt, r2)))
        if not latched:
            unpositioned[state] = [s for s in succ if not s[2]]
        stack.extend(s for s in succ if s not in seen)
        seen.update(succ)
    try:
        TopologicalSorter(unpositioned).prepare()
    except CycleError as exc:
        return GuardReport(False, explored, f"unpositioned play can cycle through {exc.args[1][0]}")
    return GuardReport(True, explored)

"""Simple undirected graphs with the few primitives the suite needs."""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Iterable, Iterator

from ..errors import InputError


@dataclass(frozen=True)
class Graph:
    """Simple, loop-free, undirected graph on vertices ``0..n-1``."""

    n: int
    edges: frozenset[frozenset]

    @staticmethod
    def from_edges(n: int, pairs: Iterable[tuple[int, int]]) -> "Graph":
        es = set()
        for u, v in pairs:
            if u == v:
                raise InputError("loops are not allowed")
            if not (0 <= u < n and 0 <= v < n):
                raise InputError(f"edge ({u},{v}) out of range")
            es.add(frozenset((u, v)))
        return Graph(n, frozenset(es))

    def edge_count(self) -> int:
        return len(self.edges)

    def has_edge(self, u: int, v: int) -> bool:
        return frozenset((u, v)) in self.edges

    def neighbours(self, v: int) -> tuple[int, ...]:
        return _adjacency(self)[v]

    def degree(self, v: int) -> int:
        return len(self.neighbours(v))

    def edge_pairs(self) -> Iterator[tuple[int, int]]:
        for e in sorted(tuple(sorted(x)) for x in self.edges):
            yield e


@lru_cache(maxsize=4096)
def _adjacency(g: Graph) -> tuple[tuple[int, ...], ...]:
    adj: list[list[int]] = [[] for _ in range(g.n)]
    for e in g.edges:
        u, v = sorted(e)
        adj[u].append(v)
        adj[v].append(u)
    return tuple(tuple(sorted(row)) for row in adj)


def bfs_distances(g: Graph, source: int) -> list[int]:
    dist = [-1] * g.n
    dist[source] = 0
    adj = _adjacency(g)
    frontier = [source]
    while frontier:
        nxt = []
        for u in frontier:
            for v in adj[u]:
                if dist[v] < 0:
                    dist[v] = dist[u] + 1
                    nxt.append(v)
        frontier = nxt
    return dist


def is_connected(g: Graph) -> bool:
    if g.n == 0:
        return True
    return all(d >= 0 for d in bfs_distances(g, 0))


def is_geodesic(g: Graph, path: tuple[int, ...]) -> bool:
    """Whether the vertex sequence is a shortest path between its ends;
    an empty one, or one with a vertex outside ``0..n-1``, is not."""
    if not path or not all(0 <= v < g.n for v in path):
        return False
    if len(path) == 1:
        return True
    if len(set(path)) != len(path):
        return False
    for a, b in zip(path, path[1:]):
        if not g.has_edge(a, b):
            return False
    return bfs_distances(g, path[0])[path[-1]] == len(path) - 1


def complete_graph(n: int) -> Graph:
    return Graph.from_edges(n, [(i, j) for i in range(n) for j in range(i + 1, n)])


def cycle_graph(n: int) -> Graph:
    return Graph.from_edges(n, [(i, (i + 1) % n) for i in range(n)])


def path_graph(n: int) -> Graph:
    return Graph.from_edges(n, [(i, i + 1) for i in range(n - 1)])


def complete_bipartite(a: int, b: int) -> Graph:
    return Graph.from_edges(a + b, [(i, a + j) for i in range(a) for j in range(b)])


def petersen_graph() -> Graph:
    outer = [(i, (i + 1) % 5) for i in range(5)]
    spokes = [(i, i + 5) for i in range(5)]
    inner = [(5 + i, 5 + (i + 2) % 5) for i in range(5)]
    return Graph.from_edges(10, outer + spokes + inner)


def toroidal_grid(rows: int, cols: int) -> Graph:
    def idx(r: int, c: int) -> int:
        return r * cols + c

    edges = []
    for r in range(rows):
        for c in range(cols):
            edges.append((idx(r, c), idx(r, (c + 1) % cols)))
            edges.append((idx(r, c), idx((r + 1) % rows, c)))
    return Graph.from_edges(rows * cols, edges)

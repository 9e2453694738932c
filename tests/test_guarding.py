import pytest

from cutgame.graphs import (
    StateSpaceError,
    bundled_corpus,
    bfs_distances,
    complete_graph,
    cycle_graph,
    guard_geodesic,
    is_geodesic,
    petersen_graph,
    verify_guarding,
)
from cutgame.errors import InputError
from cutgame.graphs.graph import Graph
from cutgame.graphs.guarding import GeodesicGuard


def all_geodesics(g: Graph) -> list[tuple[int, ...]]:
    """Every shortest path (as a vertex sequence) between every ordered
    pair, plus the single-vertex paths."""
    out = [(v,) for v in range(g.n)]
    dist = {v: bfs_distances(g, v) for v in range(g.n)}
    for s in range(g.n):
        paths: list[list[int]] = [[s]]
        for _ in range(g.n):
            nxt = []
            for p in paths:
                u = p[-1]
                for w in g.neighbours(u):
                    if dist[s][w] == len(p):
                        nxt.append(p + [w])
            if not nxt:
                break
            out.extend(tuple(p) for p in nxt)
            paths = nxt
    return out


def test_rejects_non_geodesic():
    c6 = cycle_graph(6)
    # the long way round, no vertex at all, and a vertex off the graph
    for path in ((0, 1, 2, 3, 4), (), (7,)):
        assert not is_geodesic(c6, path)
        with pytest.raises(InputError, match="shortest path"):
            guard_geodesic(c6, path)
        with pytest.raises(InputError, match="shortest path"):
            verify_guarding(c6, path)


def test_single_vertex_guard():
    k5 = complete_graph(5)
    report = verify_guarding(k5, (0,))
    assert report.ok, report.failure


def test_guard_examples():
    c8 = cycle_graph(8)
    report = verify_guarding(c8, (0, 1, 2, 3))
    assert report.ok, report.failure
    pet = petersen_graph()
    for path in ((0, 1, 2), (0, 5, 7)):
        assert is_geodesic(pet, path)
        report = verify_guarding(pet, path)
        assert report.ok, report.failure


def test_guard_every_geodesic_small_corpus():
    for entry in bundled_corpus():
        g = entry.graph
        if g.n > 8:
            continue
        for path in all_geodesics(g):
            report = verify_guarding(g, path)
            assert report.ok, (entry.name, path, report.failure)


def test_shadow_tracks_by_one():
    pet = petersen_graph()
    guard = guard_geodesic(pet, (0, 1, 2))
    idx = {v: i for i, v in enumerate(guard.path)}
    for r in range(pet.n):
        for r2 in pet.neighbours(r):
            a, b = idx[guard.shadow(r)], idx[guard.shadow(r2)]
            assert abs(a - b) <= 1


def test_budget_exhaustion_raises():
    with pytest.raises(StateSpaceError):
        verify_guarding(petersen_graph(), (0, 1, 2), max_states=3)


_real_move = GeodesicGuard.move

# planted guards: (move, what it breaks)
PLANTED = {
    "never-moves": lambda self, cop, robber: cop,
    "first-neighbour": lambda self, cop, robber: self.graph.neighbours(cop)[0],
    "skips-capture": lambda self, cop, robber: cop if _real_move(self, cop, robber) == robber
    else _real_move(self, cop, robber),
}
UNCAPTURED, CYCLE = "robber reached path vertex", "unpositioned play can cycle"


@pytest.mark.parametrize("fault, graph, path, failure", [
    ("never-moves", cycle_graph(8), (0, 1, 2, 3), CYCLE),
    ("never-moves", petersen_graph(), (0, 1, 2), CYCLE),
    ("first-neighbour", cycle_graph(8), (0, 1, 2, 3), UNCAPTURED),
    ("first-neighbour", petersen_graph(), (0, 5, 7), CYCLE),
    ("skips-capture", cycle_graph(8), (0, 1, 2, 3), UNCAPTURED),
    ("skips-capture", petersen_graph(), (0, 1, 2), UNCAPTURED),
], ids=["never-moves-C8", "never-moves-petersen", "first-neighbour-C8", "first-neighbour-petersen",
        "skips-capture-C8", "skips-capture-petersen"])
def test_planted_guard_faults_are_caught(monkeypatch, fault, graph, path, failure):
    assert verify_guarding(graph, path).ok
    monkeypatch.setattr(GeodesicGuard, "move", PLANTED[fault])
    report = verify_guarding(graph, path)
    assert not report.ok
    assert report.failure.startswith(failure), report.failure

import random

import pytest

from cutgame.graphs import (
    Graph,
    complete_bipartite,
    complete_graph,
    cycle_graph,
    genus_exact,
    genus_lower_bound,
    petersen_graph,
    toroidal_grid,
)
from cutgame.graphs.genus import _darts
from cutgame.kernels import attractor, genus_sweep
from fuzz import random_connected_graph
from reference_genus import reference_genus_sweep, rotation_system_count
from reference_pursuit import reference_attractor


def _two_k33_joined() -> Graph:
    """Two K3,3 joined by an edge: planarity gives the lower bound 1, and
    genus adds over blocks, so the search must refute genus 1."""
    pairs = [tuple(e) for e in complete_bipartite(3, 3).edges]
    return Graph.from_edges(12, pairs + [(u + 6, v + 6) for u, v in pairs] + [(0, 6)])


# name, graph, genus, lower bound
KNOWN_GENERA = [
    ("K7", complete_graph(7), 1, 1),
    ("K8", complete_graph(8), 2, 2),
    ("K4,4", complete_bipartite(4, 4), 1, 1),
    ("K4,5", complete_bipartite(4, 5), 2, 1),
    ("K5,5", complete_bipartite(5, 5), 3, 1),
    ("petersen", petersen_graph(), 1, 1),
    ("torus3x4", toroidal_grid(3, 4), 1, 1),
    ("torus4x4", toroidal_grid(4, 4), 1, 1),
    ("torus6x6", toroidal_grid(6, 6), 1, 1),
    ("two-K3,3", _two_k33_joined(), 2, 1),
]


@pytest.mark.parametrize("g, genus, lower_bound", [case[1:] for case in KNOWN_GENERA],
                         ids=[case[0] for case in KNOWN_GENERA])
def test_known_genus_with_witness_pair(g, genus, lower_bound):
    result = genus_exact(g)
    assert (result.genus, result.lower_bound) == (genus, lower_bound)
    # the search had to refute its lower bound exactly when the genus lies above it
    assert result.swept_all == (genus > lower_bound)


def test_search_matches_reference_sweep():
    rng = random.Random(2005)
    graphs = [complete_graph(2)]
    while len(graphs) < 320:
        g = random_connected_graph(rng, rng.randint(3, 8))
        if rotation_system_count(g) <= 200_000:
            graphs.append(g)
    genera = {}
    for g in graphs:
        degrees, vertex_darts, rev = _darts(g)
        lb = genus_lower_bound(g)
        expected = reference_genus_sweep(degrees, vertex_darts, rev, lb, 200_001)[0]
        genus, _, complete = genus_sweep(degrees, vertex_darts, rev, lb, 10**7)
        assert complete and genus == expected, sorted(tuple(sorted(e)) for e in g.edges)
        genera[genus] = genera.get(genus, 0) + 1
    trees = sum(g.edge_count() == g.n - 1 for g in graphs)
    with_leaves = sum(any(g.degree(v) == 1 for v in range(g.n)) for g in graphs)
    assert trees >= 10 and with_leaves >= 50 and genera.get(1, 0) >= 10


def test_deep_graphs_do_not_overflow_stack():
    assert genus_exact(cycle_graph(2000)).genus == 0
    assert genus_exact(toroidal_grid(12, 12)).genus == 1


def test_attractor_fixpoint_chain():
    # OR chain 0 -> 1 -> 2 with 2 seeded: everything wins
    kinds = bytes([0, 0, 0])
    indptr = [0, 1, 2, 2]
    succs = [1, 2]
    wins = reference_attractor(kinds, indptr, succs, bytearray([0, 0, 1]))
    assert list(wins) == [1, 1, 1]


def test_attractor_and_or_semantics():
    # 0: OR over {2}; 1: AND over {0, 2}; 2: seeded win
    kinds = bytes([0, 1, 0])
    indptr = [0, 1, 3, 3]
    succs = [2, 0, 2]
    wins = reference_attractor(kinds, indptr, succs, bytearray([0, 0, 1]))
    assert list(wins) == [1, 1, 1]
    # flip the seed: nobody wins
    wins = reference_attractor(kinds, indptr, succs, bytearray([0, 0, 0]))
    assert list(wins) == [0, 0, 0]


def test_attractor_masks_path_and_cycle():
    # one cop, rows indexed by its vertex; seeds: w0 = closed[c], w1 = {c}
    # path 0-1-2: the cop at the middle captures at once, so every row wins
    closed = [0b011, 0b111, 0b110]
    w0, w1 = attractor([[0, 1], [0, 1, 2], [1, 2]], closed, list(closed), [1, 2, 4])
    assert w0 == w1 == [0b111] * 3
    # 4-cycle: the robber keeps away from the cop, so nothing grows
    closed = [0b1011, 0b0111, 0b1110, 0b1101]
    moves = [[3, 0, 1], [0, 1, 2], [1, 2, 3], [2, 3, 0]]
    w0, w1 = attractor(moves, closed, list(closed), [1, 2, 4, 8])
    assert w0 == closed and w1 == [1, 2, 4, 8]

from cutgame.graphs.genus import _darts
from cutgame.graphs.graph import cycle_graph
from cutgame.kernels import attractor, genus_sweep


def test_python_sweep_counts_systems():
    degrees, vd, rev = _darts(cycle_graph(5))
    best, checked, swept = genus_sweep(degrees, vd, rev, -1, 10**6)
    assert best == 0 and checked == 1 and swept  # one rotation system only


def test_attractor_fixpoint_chain():
    # OR chain 0 -> 1 -> 2 with 2 seeded: everything wins
    kinds = bytes([0, 0, 0])
    indptr = [0, 1, 2, 2]
    succs = [1, 2]
    wins = attractor(kinds, indptr, succs, bytearray([0, 0, 1]))
    assert list(wins) == [1, 1, 1]


def test_attractor_and_or_semantics():
    # 0: OR over {2}; 1: AND over {0, 2}; 2: seeded win
    kinds = bytes([0, 1, 0])
    indptr = [0, 1, 3, 3]
    succs = [2, 0, 2]
    wins = attractor(kinds, indptr, succs, bytearray([0, 0, 1]))
    assert list(wins) == [1, 1, 1]
    # flip the seed: nobody wins
    wins = attractor(kinds, indptr, succs, bytearray([0, 0, 0]))
    assert list(wins) == [0, 0, 0]

import random

import pytest

from cutgame.graphs import (
    Graph,
    StateSpaceError,
    bundled_corpus,
    check_bounds,
    check_corpus,
    classical_bound,
    complete_bipartite,
    complete_graph,
    cop_number,
    cop_win,
    cycle_graph,
    embedding_exists,
    genus_exact,
    genus_lower_bound,
    improved_bound,
    is_connected,
    path_graph,
    petersen_graph,
    toroidal_grid,
)
from cutgame.graphs.genus import RotationBudgetError
from cutgame.graphs.pursuit import cop_win_positions
from reference_genus import rotation_system_count


def test_cop_number_examples():
    for n in range(2, 6):
        assert cop_number(complete_graph(n), 2) == 1
    for n in range(4, 9):
        assert cop_number(cycle_graph(n), 3) == 2
    assert cop_number(petersen_graph(), 4) == 3
    assert not cop_win(petersen_graph(), 2)


def test_trees_are_one_cop_win():
    rng = random.Random(3)
    for _ in range(10):
        n = rng.randint(2, 10)
        edges = [(rng.randint(0, i - 1), i) for i in range(1, n)]
        tree = Graph.from_edges(n, edges)
        assert cop_number(tree, 2) == 1


def test_cop_win_monotone_in_k():
    for entry in bundled_corpus():
        g = entry.graph
        if g.n > 10:
            continue
        wins = [cop_win(g, k) for k in (1, 2, 3)]
        for a, b in zip(wins, wins[1:]):
            assert (not a) or b


def test_cop_number_insufficient_budget():
    with pytest.raises(ValueError):
        cop_number(petersen_graph(), 2)
    with pytest.raises(StateSpaceError):
        cop_win(petersen_graph(), 3, max_positions=10)


def test_attractor_sweep_order_independent():
    # randomized sweep orders must produce the same win set
    from cutgame.kernels import attractor

    rng = random.Random(7)
    for _ in range(20):
        g = cycle_graph(rng.randint(4, 7))
        index, wins = cop_win_positions(g, 1)
        # recompute with a shuffled position order
        items = list(index.items())
        rng.shuffle(items)
        remap = {old: new for new, (key, old) in enumerate(items)}
        kinds = bytearray(len(items))
        seeds = bytearray(len(items))
        succ_lists: list[list[int]] = [[] for _ in items]
        index2, _ = cop_win_positions(g, 1)
        # rebuild transitions directly from the shuffled keys
        import itertools

        for new_i, ((cops, r, side), old_i) in enumerate(items):
            kinds[new_i] = 0 if side == 0 else 1
            if r in cops:
                seeds[new_i] = 1
                continue
            if side == 0:
                choices = [tuple(g.neighbours(c)) + (c,) for c in cops]
                for mv in {tuple(sorted(m)) for m in itertools.product(*choices)}:
                    succ_lists[new_i].append(remap[index2[(mv, r, 1)]])
            else:
                for r2 in tuple(g.neighbours(r)) + (r,):
                    succ_lists[new_i].append(remap[index2[(cops, r2, 0)]])
        indptr = [0]
        succs: list[int] = []
        for lst in succ_lists:
            succs.extend(lst)
            indptr.append(len(succs))
        wins2 = attractor(bytes(kinds), indptr, succs, seeds)
        for (key, old_i) in items:
            assert wins[old_i] == wins2[remap[old_i]]


def test_genus_examples():
    assert genus_exact(complete_graph(4)).genus == 0
    assert genus_exact(complete_graph(5)).genus == 1
    assert genus_exact(complete_bipartite(3, 3)).genus == 1
    assert genus_exact(petersen_graph()).genus == 1
    assert genus_exact(cycle_graph(6)).genus == 0
    assert genus_exact(path_graph(4)).genus == 0


def test_genus_lower_bound_and_witness():
    assert genus_lower_bound(complete_graph(5)) == 1
    assert genus_lower_bound(complete_graph(4)) == 0
    assert embedding_exists(toroidal_grid(3, 3), 1)
    assert not embedding_exists(complete_graph(5), 0)


def test_planar_corpus_genus_zero():
    import networkx as nx

    for entry in bundled_corpus():
        g = entry.graph
        h = nx.Graph()
        h.add_nodes_from(range(g.n))
        h.add_edges_from(g.edge_pairs())
        if nx.check_planarity(h)[0] and rotation_system_count(g) <= 500_000:
            assert genus_exact(g).genus == 0, entry.name


def test_rotation_budget_guard():
    big = complete_graph(7)
    with pytest.raises(RotationBudgetError):
        genus_exact(big, max_systems=100)


def test_genus_disconnected_rejected():
    g = Graph.from_edges(4, [(0, 1), (2, 3)])
    assert not is_connected(g)
    with pytest.raises(ValueError):
        genus_exact(g)


def test_embedding_exists_disconnected_rejected():
    # two disjoint K5s have genus 2, but their faces meet the connected
    # Euler count for genus 1
    k5 = complete_graph(5)
    two = Graph.from_edges(10, [(u + s, v + s) for s in (0, 5) for u, v in k5.edge_pairs()])
    with pytest.raises(ValueError):
        embedding_exists(two, 1)
    with pytest.raises(ValueError):
        embedding_exists(Graph.from_edges(3, []), 0)


def test_bound_check_examples():
    assert check_bounds("petersen", 1, 3).ok
    assert check_bounds("K5", 1, 1).ok
    assert check_bounds("K4", 0, 1).ok
    bad = check_bounds("fake", 0, 4)
    assert not bad.ok


def test_bound_formulas():
    assert improved_bound(0) == 3 and improved_bound(4) == 8
    assert classical_bound(0) == 3 and classical_bound(4) == 9


def test_corpus_checks():
    report = check_corpus(bundled_corpus())
    assert report.ok, [e for e in report.entries if "error" in e]
    for e in report.entries:
        genus = e["genus"]
        cop = e["cop_number"]
        assert cop <= improved_bound(genus)
        assert cop <= classical_bound(genus)
        if genus <= 1:
            assert cop <= 3


def test_shipped_corpus_matches_bundled():
    import os

    from cutgame.graphs import load_corpus

    directory = os.path.join(os.path.dirname(__file__), "..", "data", "corpus")
    shipped = load_corpus(directory)
    bundled = bundled_corpus()
    assert [e.name for e in shipped] == [e.name for e in bundled]
    for a, b in zip(shipped, bundled):
        assert a.graph.edges == b.graph.edges, a.name
        assert a.declared_genus == b.declared_genus, a.name
        assert a.expected_cop_number == b.expected_cop_number, a.name


def test_corpus_roundtrip(tmp_path):
    from cutgame.graphs import load_corpus, write_corpus

    entries = bundled_corpus()[:4]
    write_corpus(str(tmp_path), entries)
    back = load_corpus(str(tmp_path))
    assert [e.name for e in back] == [e.name for e in entries]
    assert all(a.graph.edges == b.graph.edges for a, b in zip(back, entries))
    assert back[0].declared_genus == entries[0].declared_genus

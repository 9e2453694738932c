import os
import random
import subprocess
import sys

import pytest

from cutgame.arena import marker_value_bound
from cutgame.graphs import (
    CopNumberAboveError,
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
from fuzz import random_connected_graph
from reference_genus import rotation_system_count
from reference_pursuit import joint_moves, reference_attractor, reference_cop_win_positions


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
        wins = [cop_win(entry.graph, k) for k in (1, 2, 3)]
        for a, b in zip(wins, wins[1:]):
            assert (not a) or b


def test_cop_number_insufficient_budget():
    with pytest.raises(ValueError):
        cop_number(petersen_graph(), 2)
    with pytest.raises(StateSpaceError):
        cop_win(petersen_graph(), 3, max_positions=10)


def test_pursuit_budget_counts_joint_moves():
    # 8,736 positions fit in the budget, but with them the 132,496
    # joint-move entries (every row of K12 at k=3 reaches all 364 rows)
    # do not
    with pytest.raises(StateSpaceError, match="joint moves"):
        cop_win(complete_graph(12), 3, max_positions=50_000)


def test_attractor_sweep_order_independent():
    # randomized sweep orders must produce the same win set
    rng = random.Random(7)
    for _ in range(20):
        g = cycle_graph(rng.randint(4, 7))
        index, wins = reference_cop_win_positions(g, 1)
        # recompute with a shuffled position order
        items = list(index.items())
        rng.shuffle(items)
        remap = {old: new for new, (key, old) in enumerate(items)}
        kinds = bytearray(len(items))
        seeds = bytearray(len(items))
        succ_lists: list[list[int]] = [[] for _ in items]
        # rebuild transitions directly from the shuffled keys
        for new_i, ((cops, r, side), old_i) in enumerate(items):
            kinds[new_i] = 0 if side == 0 else 1
            if r in cops:
                seeds[new_i] = 1
                continue
            if side == 0:
                for mv in joint_moves(g, cops):
                    succ_lists[new_i].append(remap[index[(mv, r, 1)]])
            else:
                for r2 in tuple(g.neighbours(r)) + (r,):
                    succ_lists[new_i].append(remap[index[(cops, r2, 0)]])
        indptr = [0]
        succs: list[int] = []
        for lst in succ_lists:
            succs.extend(lst)
            indptr.append(len(succs))
        wins2 = reference_attractor(bytes(kinds), indptr, succs, seeds)
        for (key, old_i) in items:
            assert wins[old_i] == wins2[remap[old_i]]


def _pursuit_cross_check_graphs() -> list[tuple[str, Graph]]:
    graphs = [(entry.name, entry.graph) for entry in bundled_corpus()]
    graphs += [(f"torus{a}x{b}", toroidal_grid(a, b)) for a, b in ((3, 3), (3, 4), (4, 4))]
    rng = random.Random(1993)
    graphs += [(f"random{i}", random_connected_graph(rng, rng.randint(2, 10))) for i in range(64)]
    return graphs


@pytest.mark.parametrize("k", [1, 2, 3])
def test_mask_solver_matches_reference(k):
    for name, g in _pursuit_cross_check_graphs():
        multisets, w0, w1 = cop_win_positions(g, k)
        index, wins = reference_cop_win_positions(g, k)
        assert len(multisets) * g.n * 2 == len(index), name
        for i, cops in enumerate(multisets):
            for r in range(g.n):
                assert w0[i] >> r & 1 == wins[index[(cops, r, 0)]], (name, cops, r)
                assert w1[i] >> r & 1 == wins[index[(cops, r, 1)]], (name, cops, r)


def test_toroidal_grids_need_three_cops():
    # C_m x C_n with m, n >= 4 has cop number 3 (Neufeld & Nowakowski, 1998)
    assert cop_number(toroidal_grid(5, 5), 3) == 3
    assert cop_number(toroidal_grid(6, 6), 3) == 3


def test_empty_graph_is_rejected():
    empty = Graph.from_edges(0, [])
    with pytest.raises(ValueError, match="at least one vertex") as info:
        cop_number(empty, 3)
    assert not isinstance(info.value, CopNumberAboveError)
    with pytest.raises(ValueError, match="at least one vertex"):
        cop_win(empty, 1)


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
    assert genus_exact(toroidal_grid(3, 3)).genus == 1
    assert genus_exact(complete_graph(5)).genus > 0


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


def test_bound_check_examples():
    assert check_bounds("petersen", 1, 3).ok
    assert check_bounds("K5", 1, 1).ok
    assert check_bounds("K4", 0, 1).ok
    bad = check_bounds("fake", 0, 4)
    assert not bad.ok


def test_bound_formulas():
    assert improved_bound(0) == 3 and improved_bound(4) == 8
    assert classical_bound(0) == 3 and classical_bound(4) == 9
    # the graph bound and the game's marker bound state floor((4g+10)/3) apart
    assert [improved_bound(g) for g in range(101)] == [marker_value_bound(g) for g in range(101)]


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


def test_corpus_budget_outcomes_are_inconclusive():
    from cutgame.graphs import CorpusEntry

    k5, petersen = complete_graph(5), petersen_graph()
    runs = [
        check_corpus([CorpusEntry("petersen", petersen, 1, 3)], k_max=2),  # cop number above k_max
        check_corpus([CorpusEntry("petersen", petersen, 1, 3)], max_positions=10),  # pursuit budget
        check_corpus([CorpusEntry("K5", k5)], max_systems=0),  # genus budget, no declared genus
    ]
    for report in runs:
        (item,) = report.entries
        assert report.verdict == "inconclusive" and not report.ok
        assert "inconclusive" in item and "error" not in item, item
    declared = check_corpus([CorpusEntry("K5", k5, 1, 1)], max_systems=0)
    assert declared.ok and declared.entries[0]["genus_source"] == "declared"
    with pytest.raises(ValueError):
        check_corpus([CorpusEntry("K5", k5)], k_max=0)


def test_corpus_roundtrip(tmp_path):
    from cutgame.graphs import load_corpus, write_corpus

    entries = bundled_corpus()
    write_corpus(str(tmp_path), entries)
    # every field: the name, the graph (order and edges), the declared
    # genus and the expected cop number
    assert load_corpus(str(tmp_path)) == entries


def test_graph_suite_loads_without_networkx():
    # only the planarity test needs networkx, and the cop oracle never
    # asks for it
    code = ("import sys; from cutgame.graphs import cop_number, cycle_graph; "
            "assert cop_number(cycle_graph(5), 3) == 2; assert 'networkx' not in sys.modules")
    src = os.path.join(os.path.dirname(__file__), "..", "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    subprocess.run([sys.executable, "-c", code], env=env, check=True)

"""Acceptance suite: the eight exit criteria at their stated tolerances.

Each test prints one pass/fail line (run with ``pytest -s`` to see them
all).  Thresholds are pinned here, not configurable: bounds are exact
integers and potentials exact integer quarters, so there are no
tolerances to tune.
"""

import random
import time

from cutgame.arena import (
    SearchBudget,
    exact_value,
    verify_cutter_bound,
    verify_marker_bound,
    verify_refined,
)
from cutgame.core import GameState
from cutgame.potential import QUARTER, segment_potential, state_potential

from fuzz import (
    fuzz_limited_choice,
    fuzz_move_a,
    fuzz_move_bc,
    fuzz_move_d,
    fuzz_nesting_contribution,
    fuzz_nesting_discard,
    fuzz_no_choice,
    fuzz_value_increase,
)

FULL = 10_000


def _report(criterion: str, detail: str) -> None:
    print(f"\nacceptance {criterion}: PASS - {detail}")


def test_criterion_1_marker_bound():
    t0 = time.time()
    bounds = {}
    for g0, bound in ((0, 3), (1, 4), (2, 6), (3, 7), (4, 8)):
        report = verify_marker_bound(g0)
        assert report.verdict == "pass", (g0, report.failure)
        assert report.bound == bound
        assert report.max_value_seen <= bound
        bounds[g0] = report.bound
    _report("1 (marker bound)", f"g0 0..4 exhaustive, bounds {bounds}, {time.time()-t0:.1f}s")


def test_criterion_2_cutter_bound():
    t0 = time.time()
    for g0, threshold in ((0, 2), (1, 4), (2, 5)):
        report = verify_cutter_bound(g0)
        assert report.verdict == "pass", (g0, report.failure)
        assert report.bound == threshold
    # the whole tree at g0=2, every marker line: a proof, not a sample
    assert (report.states_explored, report.terminal_plays) == (76_226, 73_674)
    budget = SearchBudget(marker_sampling="random", sample_plays=FULL, seed=2024)
    report = verify_cutter_bound(3, budget)
    assert report.verdict == "pass", report.failure
    assert report.bound == 6
    assert report.terminal_plays == FULL
    _report(
        "2 (cutter bound)",
        f"exhaustive g0 0,1,2 at thresholds 2,4,5; {FULL} sampled plays for g0 3 "
        f"at 6 with the potential audited every ply, {time.time()-t0:.1f}s",
    )


def test_criterion_3_exact_value():
    t0 = time.time()
    assert exact_value(1) == 4
    v0 = exact_value(0)
    assert v0 == 2
    assert exact_value(0, use_memo=False) == v0
    assert exact_value(1, use_memo=False) == 4
    elapsed = time.time() - t0
    assert elapsed < 120
    _report("3 (exact values)", f"g0=1 -> 4, g0=0 -> {v0}, memo on/off stable, {elapsed:.1f}s")


def test_criterion_4_lemma_property_suites():
    t0 = time.time()
    counts = {
        "amalgamation": fuzz_move_d(random.Random(201), FULL),
        "genus burn": fuzz_move_a(random.Random(202), FULL),
        "poor-arc discard": fuzz_move_bc(random.Random(203), FULL),
        "nesting discard": fuzz_nesting_discard(random.Random(204), FULL),
        "nesting worth": fuzz_nesting_contribution(random.Random(205), FULL),
        "gathered label": fuzz_limited_choice(random.Random(206), FULL),
        "separating marks": fuzz_no_choice(random.Random(207), FULL),
        "value increase": fuzz_value_increase(random.Random(208), FULL),
    }
    assert all(n >= FULL for n in counts.values()), counts
    # pinned corner cases: an empty run is worth -2 and the
    # (x,t,z,t) cycle jumps from 0 to 2 when its partners disappear
    some = GameState(((0, 1, 0, 2),), 1, 1, 3)
    assert segment_potential(some, 0, ()) == -2 * QUARTER
    dull = GameState(((0, 1, 2, 1), (0, 3), (2, 3)), 0, 0, 4)
    fresh = GameState(((0, 1, 2, 1),), 0, 0, 4)
    assert segment_potential(dull, 0) == 0
    assert segment_potential(fresh, 0) == 2 * QUARTER
    _report(
        "4 (lemma properties)",
        f"eight suites x {FULL} randomized cases, zero violations, {time.time()-t0:.1f}s",
    )


def test_criterion_5_refined_bound():
    t0 = time.time()
    for g0, bound in ((1, 3), (2, 5), (3, 6)):
        report = verify_refined(g0)
        assert report.verdict == "pass", (g0, report.failure)
        assert report.bound == bound
        assert report.details["seed_potential"] == "-3/1"
    seed = GameState(((0, 1, 0, 2),), 0, 1, 3)
    assert state_potential(seed) == -3 * QUARTER
    _report("5 (refined bound)", f"g0 1..3 pass, seed potential exactly -3, {time.time()-t0:.1f}s")


def test_criterion_6_automaton_closure():
    t0 = time.time()
    table = {
        (1, "A"): 2, (1, "B"): 10, (1, "C"): 10,
        (2, "D"): 3,
        (3, "A"): 4,
        (4, "A"): 1, (4, "B"): 5, (4, "C"): 5,
        (5, "A"): 6, (6, "A"): 7, (7, "A"): 8,
        (8, "A"): 1, (8, "B"): 9, (8, "C"): 9,
        (9, "A"): 10, (10, "A"): 11, (11, "A"): 12, (12, "A"): 1,
    }
    seen = set()
    for g0 in range(5):
        report = verify_marker_bound(g0)
        assert report.verdict == "pass", (g0, report.failure)
        seen |= set(report.transitions_seen)
    assert seen <= set(table), seen - set(table)
    # the per-node audits inside the verifier enforce the active-potential
    # cap of 5 (attained only in configurations 5 and 9) on every state
    _report(
        "6 (automaton closure)",
        f"g0 <= 4: transition pairs {sorted(f'{c}-{k}' for c, k in seen)} all in the table, "
        f"active-sum cap audited per node, {time.time()-t0:.1f}s",
    )


def test_criterion_7_graph_suite():
    t0 = time.time()
    from cutgame.graphs import (
        bundled_corpus,
        check_corpus,
        classical_bound,
        complete_bipartite,
        complete_graph,
        cop_number,
        cycle_graph,
        genus_exact,
        improved_bound,
        petersen_graph,
    )

    for n in range(2, 6):
        assert cop_number(complete_graph(n), 2) == 1
    for n in range(4, 9):
        assert cop_number(cycle_graph(n), 3) == 2
    assert cop_number(petersen_graph(), 4) == 3
    assert genus_exact(complete_graph(4)).genus == 0
    assert genus_exact(complete_graph(5)).genus == 1
    assert genus_exact(complete_bipartite(3, 3)).genus == 1
    report = check_corpus(bundled_corpus())
    assert report.ok, [e for e in report.entries if "error" in e]
    for e in report.entries:
        if e["genus"] <= 1:
            assert e["cop_number"] <= 3, e
        assert e["cop_number"] <= improved_bound(e["genus"]), e
        assert e["cop_number"] <= classical_bound(e["genus"]), e
    elapsed = time.time() - t0
    assert elapsed < 300
    _report(
        "7 (graph suite)",
        f"cop and genus oracles reproduce the known values; {len(report.entries)} corpus "
        f"graphs satisfy every bound, {elapsed:.1f}s",
    )


def test_criterion_8_guarding():
    t0 = time.time()
    from cutgame.graphs import bundled_corpus, verify_guarding
    from test_guarding import all_geodesics

    graphs = 0
    paths = 0
    for entry in bundled_corpus():
        if entry.graph.n > 10:
            continue
        graphs += 1
        for path in all_geodesics(entry.graph):
            report = verify_guarding(entry.graph, path)
            assert report.ok, (entry.name, path, report.failure)
            paths += 1
    _report(
        "8 (geodesic guarding)",
        f"{paths} geodesics over {graphs} corpus graphs, exhaustive robber play, "
        f"{time.time()-t0:.1f}s",
    )

"""Tests of the benchmark's own code.

    python3 -m pytest -q perfbench
"""

from __future__ import annotations

import json
import os
import sys

import pytest

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
sys.path[:0] = [os.path.join(os.path.dirname(BENCH_DIR), "src"), BENCH_DIR]

import gauge  # noqa: E402
import run  # noqa: E402
import tracer as tracing  # noqa: E402
import workloads  # noqa: E402

with open(os.path.join(os.path.dirname(BENCH_DIR), "BENCHMARK.json"), encoding="utf-8") as fh:
    BENCHMARK = json.load(fh)


def _declared(kind: str) -> dict[str, str]:
    return {m["name"]: m["unit"] for m in BENCHMARK[kind]}


def test_self_times_of_nested_spans():
    # root [0, 10] holds a [1, 4] (holding g [2, 3]), b [5, 9] and c [8, 11];
    # c overlaps b and runs past the root, so only [9, 10] of it is new cover
    starts = [0.0, 1.0, 2.0, 5.0, 8.0]
    ends = [10.0, 4.0, 3.0, 9.0, 11.0]
    parents = [-1, 0, 1, 0, 0]
    assert tracing.self_times(starts, ends, parents) == [2.0, 2.0, 1.0, 4.0, 3.0]


def test_self_times_of_a_tree_sum_to_its_root():
    starts = [0.0, 0.5, 0.75, 2.0, 2.5, 6.0]
    ends = [8.0, 1.5, 1.25, 5.0, 3.0, 7.5]
    parents = [-1, 0, 1, 0, 3, 0]
    assert sum(tracing.self_times(starts, ends, parents)) == pytest.approx(8.0)


def test_tracer_spans_record_nesting_and_ops():
    t = tracing.Tracer()
    outer, inner = t._name_id("outer"), t._name_id("inner")

    def op():
        i = t.begin(outer)
        j = t.begin(inner)
        t.end(j)
        t.end(i)

    t.run_op(op)
    t.run_op(op)
    assert [t.names[k] for k in t.span_name] == ["op", "outer", "inner"] * 2
    assert list(t.span_parent) == [-1, 0, 1, -1, 3, 4]
    assert list(t.span_op) == [0, 0, 0, 1, 1, 1]
    assert all(s >= 0 for s in t.self_times())


def test_gauge_scales_by_the_mean_speed_inside_an_interval():
    g = gauge.SpeedGauge()
    g.starts, g.costs, g.speeds = [0.0, 1.0, 2.0, 3.0], [0.1, 0.1, 0.2, 0.1], [1.0, 0.5, 0.25, 2.0]
    # samples at 1 and 2 fall inside [0.5, 2.5]: mean speed 0.375, 0.3 s spent sampling
    assert g.scaled(0.5, 2.5) == pytest.approx((2.0 - 0.3) * 0.375)
    # no sample inside [2.5, 2.9]: the ones at 2 and 3 set the speed
    assert g.scaled(2.5, 2.9) == pytest.approx(0.4 * 1.125)
    # none after [3.5, 3.6] either: the one at 3 alone
    assert g.scaled(3.5, 3.6) == pytest.approx(0.1 * 2.0)


def test_gauge_samples_while_active_and_restores_the_handler():
    import signal
    import time

    before = signal.getsignal(signal.SIGALRM)
    with gauge.SpeedGauge() as g:
        t0 = time.perf_counter()
        while time.perf_counter() - t0 < 6 * gauge.INTERVAL:
            pass
        t1 = time.perf_counter()
    assert len(g.speeds) >= 4 and all(v > 0 for v in g.speeds)
    assert 0 < g.scaled(t0, t1)
    assert signal.getsignal(signal.SIGALRM) is before
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)


@pytest.mark.parametrize("n, expected", [
    (10_000, 99.9), (1000, 99.0), (999, 95.0), (200, 95.0), (199, 90.0),
    (100, 90.0), (40, 75.0), (20, 50.0), (19, None), (0, None),
])
def test_tail_percentile_keeps_ten_samples_beyond(n, expected):
    assert run.tail_percentile(n) == expected


def test_percentile_interpolates_inside_the_samples():
    samples = [float(i) for i in range(1, 101)]
    assert run.percentile(samples, 50.0) == pytest.approx(50.5)
    assert run.percentile(samples, 99.0) == pytest.approx(99.01)
    assert run.percentile([3.0], 99.0) == 3.0


def test_cache_reset_finds_the_package_caches():
    import cutgame.graphs  # noqa: F401

    caches = run.find_caches()
    assert {
        "cutgame.equivalence._cached_shape",
        "cutgame.equivalence._shape_precedes",
        "cutgame.graphs.graph._adjacency",
    } <= set(caches)
    from cutgame.equivalence import _cached_shape

    _cached_shape(((0, 1, 0, 1),))
    assert _cached_shape.cache_info().currsize > 0
    run.reset_caches(caches)
    assert all(c.cache_info().currsize == 0 for c in caches.values())


def test_tracer_wraps_every_binding_site_and_restores_them():
    import cutgame.graphs  # noqa: F401
    from cutgame import arena, equivalence, strategy

    original = equivalence.legal_replies
    t = tracing.Tracer()
    t.install()
    try:
        for module, attr in tracing.BINDING_SITES:
            assert hasattr(getattr(sys.modules[module], attr), "__wrapped__"), (module, attr)
        assert arena.legal_replies is strategy.legal_replies is equivalence.legal_replies
        assert equivalence.legal_replies is not original
        assert {layer for layer, _, _ in tracing.TARGETS} == t.present
    finally:
        t.uninstall()
    assert arena.legal_replies is strategy.legal_replies is equivalence.legal_replies is original


def test_tracer_reports_a_missing_target_as_absent(monkeypatch):
    targets = tracing.TARGETS + (("gone.layer", "cutgame.core", "no_such_function"),
                                 ("gone.module", "cutgame.no_such_module", "f"))
    monkeypatch.setattr(tracing, "TARGETS", targets)
    t = tracing.Tracer()
    t.install()
    t.uninstall()
    assert "gone.layer" not in t.present and "gone.module" not in t.present
    assert "core.cutter_replies" in t.present


def test_traced_cutter_plays_count_every_layer():
    w = workloads.WORKLOADS["cutter-sampled"]()
    w.build(7)
    bench = run.Run(w, run.find_caches())
    plays = w.next_pass()[:20]
    w.next_pass = lambda: plays
    t = tracing.Tracer()
    t.install(run._hooks())
    try:
        wall = bench.one_pass(t)
    finally:
        t.uninstall()
    assert not bench.failures
    metrics, calls, self_total = run.per_layer(t, bench.caches, [wall], [wall])
    for layer in run.EXPECTED_CALLS["cutter-sampled"]:
        assert calls.get(layer), layer
    assert self_total <= wall
    assert 0 < metrics["equivalence.legal_replies.legal_ratio"][0] <= 1
    assert metrics["arena.states_per_s"][0] > 0
    assert {k: u for k, (_, u) in metrics.items()} == _declared("per_layer")


def test_end_to_end_metrics_are_the_declared_ones():
    bench = run.Run(None, {})
    bench.latencies = [0.001 * i for i in range(1, 1001)]
    bench.attempted = 1000
    metrics = run.end_to_end(bench, [0.2, 0.1, 0.3], [2.0, 1.0, 3.0])
    assert {k: u for k, (_, u) in metrics.items()} == _declared("end_to_end")
    assert metrics["setup_s"][0] == 0.2 and metrics["wall_s"][0] == 2.0
    assert metrics["play_p50_ms"][0] == pytest.approx(500.5)
    assert metrics["ok_ratio"][0] == 1.0
    assert {w["name"] for w in BENCHMARK["workloads"]} == set(workloads.WORKLOADS)


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_pins_match_a_fresh_pass(name):
    w = workloads.WORKLOADS[name]()
    w.build(2024)
    bench = run.Run(w, run.find_caches())
    bench.one_pass()
    assert bench.attempted > 0
    assert bench.failures == []

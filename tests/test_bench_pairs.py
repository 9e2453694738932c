"""``tools/bench_pairs.py``'s summary of paired benchmark runs."""

import importlib.util
import os

import pytest

_PATH = os.path.join(os.path.dirname(__file__), "..", "tools", "bench_pairs.py")
_spec = importlib.util.spec_from_file_location("bench_pairs", _PATH)
bench_pairs = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(bench_pairs)

METRICS = [{"name": "wall_s", "better": "lower", "bound": 0.25}]


def _run(side: str, wall_s: float, trace: int = 0, correct: bool = True, failed: int = 0) -> dict:
    return {"workload": "w", "side": side, "trace": trace, "pair": None if trace else 0,
            "result": {"correct": correct, "failed": failed, "metrics": {"wall_s": {"value": wall_s}}}}


def test_summarise_pairs_untraced_runs():
    row = bench_pairs.summarise([_run("parent", 2.0), _run("change", 1.0)], "w", METRICS)
    wall = row["wall_s"]
    assert (wall["parent_median"], wall["change_median"], wall["ratio"]) == (2.0, 1.0, 0.5)
    assert (wall["change_wins"], wall["pairs"], wall["within_bound"]) == (1, 1, True)
    assert row["ok"]


@pytest.mark.parametrize("traced", [dict(correct=False), dict(failed=1)], ids=["incorrect", "failed-op"])
def test_summarise_is_not_ok_when_a_traced_run_is_not(traced):
    """A traced run's verdict counts toward ``ok`` though its timings
    take no part in the medians."""
    runs = [_run("parent", 2.0), _run("change", 1.0), _run("change", 9.0, trace=1, **traced)]
    row = bench_pairs.summarise(runs, "w", METRICS)
    assert row["wall_s"]["change_median"] == 1.0
    assert not row["ok"]

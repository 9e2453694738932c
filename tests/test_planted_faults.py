"""Planted faults: each row plants one fault in the engine and names a
verifier run that must turn from PASS to FAIL under it, with a witness
and the failure it reports."""

import pytest

from cutgame import potential, strategy
from cutgame.arena import FAIL, PASS, verify_cutter_bound, verify_marker_bound


def flip_rich_poor_threshold(monkeypatch):
    monkeypatch.setattr(strategy, "_HALF", -strategy._HALF)


def negate_potential(monkeypatch):
    real = potential._quarters
    monkeypatch.setattr(potential, "_quarters", lambda *args: -real(*args))


def swap_sources_of_arrow_3a(monkeypatch):
    """The two active cycles that arrow 3-A builds trade places."""
    template = strategy.TEMPLATES[3]
    target, (first, second) = template.arrows["A"]
    arrows = {**template.arrows, "A": (target, (second, first))}
    monkeypatch.setitem(strategy.TEMPLATES, 3, strategy.Template(template.cycles, template.mark, arrows))


@pytest.mark.parametrize("plant, verify, g0, failure", [
    (flip_rich_poor_threshold, verify_cutter_bound, 1, "cutter had no potential-non-increasing reply"),
    (flip_rich_poor_threshold, verify_cutter_bound, 2, "cutter had no potential-non-increasing reply"),
    (negate_potential, verify_marker_bound, 2, "potential below -5 at the end of the preparatory phase"),
    (swap_sources_of_arrow_3a, verify_marker_bound, 2, "binding audit failed in configuration 4"),
], ids=["rich-poor-threshold-cutter-1", "rich-poor-threshold-cutter-2", "potential-sign-marker-2",
        "arrow-3A-sources-marker-2"])
def test_a_planted_fault_fails_its_verifier(monkeypatch, plant, verify, g0, failure):
    assert verify(g0).verdict == PASS
    plant(monkeypatch)
    report = verify(g0)
    assert report.verdict == FAIL
    assert report.failure.startswith(failure), report.failure
    assert report.witness

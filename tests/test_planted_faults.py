"""Planted faults: each row plants one fault in the engine and names a
verifier run that must turn from PASS to FAIL under it, with a witness
and the failure it reports, or a cross-check against a reference that
must fail under it (unplanted, that cross-check is a test of its own)."""

import pytest

from cutgame import equivalence, potential, strategy
from cutgame.arena import FAIL, PASS, verify_cutter_bound, verify_marker_bound

import test_equivalence
import test_strategy


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


def window_counts_nesting_as_one_edge(monkeypatch):
    """The classifier's length window reads every "N" atom as one edge."""
    monkeypatch.setattr(strategy, "_readers", lambda components, atoms, state: [
        ci for ci in components if len(state.cycles[ci]) == len(atoms)])


def classify_in_given_order(monkeypatch):
    """The classifier gives template cycle i the i-th active component
    only, instead of any component not yet used."""
    real = strategy._readers
    monkeypatch.setattr(strategy, "_readers", lambda components, atoms, state: real(components[:1], atoms, state))


def merge_signature_without_pool(monkeypatch):
    """Tied partial orderings of the canonical form merge whatever their
    deferred cycles and reserved blocks."""
    real = equivalence._free_label_signature
    monkeypatch.setattr(equivalence, "_free_label_signature", lambda rest, renaming, pool: real(rest, renaming, {}))


@pytest.mark.parametrize("plant, verify, g0, failure", [
    (flip_rich_poor_threshold, verify_cutter_bound, 1, "cutter had no potential-non-increasing reply"),
    (flip_rich_poor_threshold, verify_cutter_bound, 2, "cutter had no potential-non-increasing reply"),
    (negate_potential, verify_marker_bound, 2, "potential below -5 at the end of the preparatory phase"),
    (swap_sources_of_arrow_3a, verify_marker_bound, 2, "binding audit failed in configuration 4"),
    (window_counts_nesting_as_one_edge, verify_marker_bound, 3, "classifier saw configuration None"),
], ids=["rich-poor-threshold-cutter-1", "rich-poor-threshold-cutter-2", "potential-sign-marker-2",
        "arrow-3A-sources-marker-2", "classifier-window-marker-3"])
def test_a_planted_fault_fails_its_verifier(monkeypatch, plant, verify, g0, failure):
    assert verify(g0).verdict == PASS
    plant(monkeypatch)
    report = verify(g0)
    assert report.verdict == FAIL
    assert report.failure.startswith(failure), report.failure
    assert report.witness


@pytest.mark.parametrize("plant, cross_check", [
    (classify_in_given_order, test_strategy.test_classifier_matches_reference_matcher),
    (merge_signature_without_pool,
     lambda monkeypatch: test_equivalence.test_canonical_shape_agrees_with_reference_on_random_states()),
], ids=["classifier-given-order", "tie-merge-without-pool"])
def test_a_planted_fault_fails_its_cross_check(monkeypatch, plant, cross_check):
    plant(monkeypatch)
    # an answer differs from the reference's, not a floor or a count
    with pytest.raises(AssertionError, match="=="):
        cross_check(monkeypatch)

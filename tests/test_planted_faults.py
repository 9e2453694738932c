"""Planted faults: each row plants one fault in the engine and names a
verifier run that must turn from PASS to FAIL under it, with a witness
and the failure it reports, or a cross-check against a reference that
must fail under it (unplanted, that cross-check is a test of its own).

Every functools cache of the loaded ``cutgame`` modules is cleared once
the fault is planted, as well as before and after each test (conftest's
``cold_caches``): a run must not read answers memoised before the fault,
and later tests must not read answers memoised under it."""

import collections
import functools

import pytest

from cutgame import arena, core, equivalence, potential, strategy
from cutgame.arena import FAIL, PASS, SearchBudget, verify_cutter_bound, verify_marker_bound, verify_refined
from cutgame.core import MarkedState, value

from conftest import clear_caches, swap_arcs, switch_at_genus_two
import test_arena
import test_equivalence
import test_solver
import test_strategy
import test_successors
from test_successors import reached  # noqa: F401  (a fixture of the replies cross-check)


def verify_cutter_sampled(g0):
    """50 sampled plays, seed 7, which share the table of audited plies.
    Their plies fit in the table, so the clean run before the fault
    leaves every ply of the faulty run in it, and only clearing the table
    lets the fault show."""
    return verify_cutter_bound(g0, SearchBudget(marker_sampling="random", sample_plays=50, seed=7))


def flip_rich_poor_threshold(monkeypatch):
    monkeypatch.setattr(strategy, "_HALF", -strategy._HALF)


def negate_potential(monkeypatch):
    real = potential._quarters
    monkeypatch.setattr(potential, "_quarters", lambda *args: -real(*args))


def empty_run_worth_zero(monkeypatch):
    """An empty run, a trivial arc, is worth 0 instead of -2."""
    real = potential._quarters
    monkeypatch.setattr(potential, "_quarters", lambda labels, wrap, counts: real(labels, wrap, counts) if labels else 0)


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


def defer_despite_recurring_label(monkeypatch):
    """The canonical form defers a class of cycles although one of their
    labels recurs on another cycle of the block: ``_defer`` counts each
    label of the block once."""
    real = equivalence._defer

    def once_each(partial, n):
        equivalence.Counter = lambda labels: collections.Counter(set(labels))
        try:
            return real(partial, n)
        finally:
            equivalence.Counter = collections.Counter

    monkeypatch.setattr(equivalence, "_defer", once_each)


def deferred_into_last_block(monkeypatch):
    """A deferred cycle that a piece reads goes into the last free block
    of its class instead of the first: ``_place`` sees every class's free
    blocks in reverse order."""
    real = equivalence._place
    flip = lambda pool: {k: (cycles, blocks[::-1]) for k, (cycles, blocks) in pool.items()}  # noqa: E731

    def last_block(rot, renaming, next_index, pool, owner, bound):
        placed = real(rot, renaming, next_index, flip(pool), owner, bound)
        return placed and (placed[0], [(ren, nxt, flip(p), own) for ren, nxt, p, own in placed[1]])

    monkeypatch.setattr(equivalence, "_place", last_block)


def singles_before_loop_pairs(monkeypatch):
    """The loop pairs' closed form puts them after the core's single
    loops: the loop block reads (1,0), ..., (1,s-1) for the s single
    loops and then each pair twice, and every core index past the single
    loops moves past the pairs."""
    def singles_first(p, shape):
        s = sum(piece[0] == 1 for piece in shape)
        move = lambda i: i if i < s else i + p  # noqa: E731
        loops = list(shape[:s]) + [(1, s + i) for i in range(p) for _ in (0, 1)]
        return tuple(loops + [(piece[0],) + tuple(map(move, piece[1:])) for piece in shape[s:]])

    monkeypatch.setattr(equivalence, "_after_pairs", singles_first)


def core_not_shifted(monkeypatch):
    """The loop pairs lead the shape, but the core's indices are not
    moved past them: the core's first labels take the pairs' indices."""
    monkeypatch.setattr(equivalence, "_after_pairs", lambda p, shape: tuple(
        (1, i) for i in range(p) for _ in (0, 1)) + shape)


def renaming_not_composed(monkeypatch):
    """The canonical form returns the memoised renaming of the core's
    normal form as it is, keyed by the normal form's labels, instead of
    composing it onto the input's labels."""
    real = equivalence._normal_form

    def own_names(cycles):
        pairs, normal, names = real(cycles)
        return pairs, normal, {x: x for x in names.values()}

    monkeypatch.setattr(equivalence, "_normal_form", own_names)


def keep_every_reply(monkeypatch):
    """Legality too loose: the restricted cutter may play every reply,
    those that lose a label too."""
    monkeypatch.setattr(arena, "legal_replies", core.cutter_replies)


def refuse_amalgams(monkeypatch):
    """Legality too strict: the restricted cutter may not amalgamate two
    components (kind D), a reply that always raises the value."""
    real = equivalence.legal_replies
    monkeypatch.setattr(equivalence, "legal_replies", lambda marked: [r for r in real(marked) if r.kind != "D"])


def provenance_swaps_new_cycles(monkeypatch):
    """Provenance reads the two new cycles of a one-component reply in
    swapped order; the next states are right.  The exhaustive cutter
    verifier at g0 0..2 and ``exact_value`` 0..2 read no provenance, and
    their verdicts and values do not change."""
    real = core._assemble

    def swapped(cycles, marked, new):
        kept, made = real(cycles, marked, new)
        return kept, made[::-1] if new is None else made

    monkeypatch.setattr(core, "_assemble", swapped)


def amalgam_opens_one_vertex_late(monkeypatch):
    """The amalgam opens each cycle one vertex after its marked one, in
    next states and provenance alike.  That keeps every value, so the
    exhaustive cutter verifier at g0 0..2 and ``exact_value`` 0..2 give
    the same verdicts and values under it."""
    real = core._assemble

    def late(cycles, marked, new):
        if not marked.same_component():
            state = marked.state
            step = lambda p: None if p is None else (p[0], (p[1] + 1) % len(state.cycles[p[0]]))  # noqa: E731
            marked = MarkedState(state, step(marked.v), step(marked.w))
        return real(cycles, marked, new)

    monkeypatch.setattr(core, "_assemble", late)


def floor_off_by_one(monkeypatch):
    """The exact solver's genus floor sits one value high at positive
    genus, so it refuses a state with value plus genus at the threshold:
    ``exact_value`` 0..4 gives 2, 4, 6, 7, 9."""
    monkeypatch.setattr(arena, "genus_floor", lambda state: value(state) + state.genus + (state.genus > 0))


def hosts_taken_twice(monkeypatch):
    """The matcher may place two candidate cycles on one host cycle:
    every host cycle is offered twice."""
    real = equivalence._shape_precedes.__wrapped__
    monkeypatch.setattr(equivalence, "_shape_precedes",
                        functools.lru_cache(maxsize=None)(lambda cand, earl: real(cand, earl + earl)))


def precedes_by_witness_alone(monkeypatch):
    """``precedes`` trusts the kept-label witness alone and never runs
    the matcher, so a reduction that needs relabelling goes unseen."""
    monkeypatch.setattr(equivalence, "precedes", lambda candidate, earlier: (
        candidate.genus <= earlier.genus and equivalence._kept_label_witness(candidate, earlier)))


def validate_accepts_every_state(monkeypatch):
    monkeypatch.setattr(arena, "validate", lambda state: None)


@pytest.mark.parametrize("plant, verify, g0, failure", [
    (flip_rich_poor_threshold, verify_cutter_bound, 1, "cutter had no potential-non-increasing reply"),
    (flip_rich_poor_threshold, verify_cutter_bound, 2, "cutter had no potential-non-increasing reply"),
    (empty_run_worth_zero, verify_cutter_bound, 1, "cutter had no potential-non-increasing reply"),
    (negate_potential, verify_marker_bound, 2, "potential below -5 at the end of the preparatory phase"),
    (swap_sources_of_arrow_3a, verify_marker_bound, 2, "binding audit failed in configuration 4"),
    (window_counts_nesting_as_one_edge, verify_marker_bound, 3, "classifier saw configuration None"),
    (provenance_swaps_new_cycles, verify_marker_bound, 1,
     "transition from configuration 1 on kind A: active cycle split across cycles"),
    (amalgam_opens_one_vertex_late, verify_marker_bound, 1,
     "binding audit failed in configuration 3: atoms do not read cycle 0 in order"),
    (keep_every_reply, verify_marker_bound, 1, "value did not increase by one"),
    (swap_arcs, verify_cutter_sampled, 3, "cutter had no potential-non-increasing reply"),
    (switch_at_genus_two, verify_refined, 5, "switch to cops at value 5, genus 2"),
], ids=["rich-poor-threshold-cutter-1", "rich-poor-threshold-cutter-2", "empty-run-zero-cutter-1",
        "potential-sign-marker-2", "arrow-3A-sources-marker-2", "classifier-window-marker-3",
        "provenance-swapped-marker-1", "amalgam-late-marker-1", "legality-too-loose-marker-1",
        "swapped-arcs-tabled-cutter-sampled-3", "switch-at-genus-two-refined-5"])
def test_a_planted_fault_fails_its_verifier(monkeypatch, plant, verify, g0, failure):
    assert verify(g0).verdict == PASS
    plant(monkeypatch)
    clear_caches()
    report = verify(g0)
    assert report.verdict == FAIL
    assert report.failure.startswith(failure), report.failure
    assert report.witness


@pytest.mark.parametrize("plant, cross_check, needs", [
    (classify_in_given_order, test_strategy.test_classifier_matches_reference_matcher, ["monkeypatch"]),
    (merge_signature_without_pool,
     test_equivalence.test_canonical_shape_agrees_with_reference_where_merges_read_deferred_classes, []),
    (defer_despite_recurring_label, test_equivalence.test_canonical_shape_agrees_with_reference_on_random_states, []),
    (deferred_into_last_block,
     test_equivalence.test_canonical_shape_agrees_with_reference_on_loop_pairs_and_single_loops, []),
    (amalgam_opens_one_vertex_late, test_successors.test_replies_match_the_eager_builder, ["reached"]),
    (floor_off_by_one, functools.partial(test_solver.test_solver_agrees_with_reference, True), []),
    (floor_off_by_one, test_solver.test_exact_value_four, []),
    (singles_before_loop_pairs,
     test_equivalence.test_canonical_shape_agrees_with_reference_on_loop_pairs_and_single_loops, []),
    (core_not_shifted,
     test_equivalence.test_canonical_shape_agrees_with_reference_on_loop_pairs_and_single_loops, []),
    (renaming_not_composed, test_equivalence.test_relabelled_copies_share_one_shape, []),
    (refuse_amalgams, test_equivalence.test_label_loss_equals_restricted_legality_exhaustive, []),
    (hosts_taken_twice, test_equivalence.test_matcher_agrees_with_reference_on_random_pairs, []),
    (precedes_by_witness_alone, test_equivalence.test_precedes_against_bruteforce, []),
    (validate_accepts_every_state, test_arena.test_explored_states_are_validated, ["monkeypatch"]),
], ids=["classifier-given-order", "tie-merge-without-pool", "defer-despite-recurring-label",
        "deferred-into-last-block", "amalgam-late-replies", "floor-off-by-one-reference",
        "floor-off-by-one-value-four", "singles-before-loop-pairs", "core-not-shifted", "renaming-not-composed",
        "legality-too-strict", "matcher-hosts-taken-twice", "precedes-by-witness-alone", "validate-off"])
def test_a_planted_fault_fails_its_cross_check(request, monkeypatch, plant, cross_check, needs):
    # the cross-check's fixtures are built before the fault is planted
    args = [request.getfixturevalue(name) for name in needs]
    plant(monkeypatch)
    clear_caches()
    # an answer differs from the reference's, not a floor or a count
    with pytest.raises(AssertionError, match="=="):
        cross_check(*args)

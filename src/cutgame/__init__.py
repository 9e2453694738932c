"""Combinatorial boundary-cutting game engine and cops-and-robbers suite.

The package has two halves: an exact engine for the marker/cutter game on
labelled boundary cycles (states, moves, restricted-cutter legality, the
conserved potential, both players' strategies and adversarial verifiers)
and a small graph suite (cop numbers by retrograde analysis, orientable
genus by rotation systems, geodesic guarding, genus/cop-number bound
checks over a bundled corpus).
"""

from .core import (
    CutterReply,
    GameState,
    MarkedState,
    cutter_replies,
    empty_state,
    enumerate_marker_moves,
    split_cycle,
    validate,
    value,
)
from .equivalence import (
    CanonicalKey,
    History,
    canonical_key,
    equivalent,
    legal_replies,
    precedes,
    start_history,
)
from .potential import (
    Segment,
    is_nesting_path,
    segment_potential,
    state_potential,
)
from .arena import (
    SearchBudget,
    VerificationReport,
    emit_trace,
    exact_value,
    play_game,
    read_trace,
    verify_cutter_bound,
    verify_marker_bound,
    verify_refined,
)
from .strategy import (
    MarkerStrategy,
    SwitchToCops,
    classify_configuration,
    cutter_move,
)

__all__ = [
    "CanonicalKey",
    "CutterReply",
    "GameState",
    "History",
    "MarkedState",
    "MarkerStrategy",
    "SearchBudget",
    "Segment",
    "SwitchToCops",
    "VerificationReport",
    "canonical_key",
    "classify_configuration",
    "cutter_move",
    "cutter_replies",
    "emit_trace",
    "empty_state",
    "enumerate_marker_moves",
    "equivalent",
    "exact_value",
    "is_nesting_path",
    "legal_replies",
    "play_game",
    "precedes",
    "read_trace",
    "segment_potential",
    "split_cycle",
    "start_history",
    "state_potential",
    "validate",
    "value",
    "verify_cutter_bound",
    "verify_marker_bound",
    "verify_refined",
]

__version__ = "0.1.0"

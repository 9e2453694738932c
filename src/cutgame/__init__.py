"""Combinatorial boundary-cutting game engine and cops-and-robbers suite.

The package has two halves: an exact engine for the marker/cutter game on
labelled boundary cycles (states, moves, restricted-cutter legality, the
conserved potential, both players' strategies and adversarial verifiers)
and a small graph suite (cop numbers by retrograde analysis, orientable
genus by rotation systems, geodesic guarding, genus/cop-number bound
checks over a bundled corpus).

The root exports the verifier drivers and the state types; everything
else lives in its submodule (``core``, ``equivalence``, ``potential``,
``strategy``, ``arena``, ``graphs``, ``kernels``).  ``graphs`` is not
imported here, so the engine loads without networkx.
"""

from .core import CutterReply, GameState, MarkedState
from .arena import (
    SearchBudget,
    VerificationReport,
    emit_trace,
    exact_value,
    play_game,
    verify_cutter_bound,
    verify_marker_bound,
    verify_refined,
)

__all__ = [
    "CutterReply",
    "GameState",
    "MarkedState",
    "SearchBudget",
    "VerificationReport",
    "emit_trace",
    "exact_value",
    "play_game",
    "verify_cutter_bound",
    "verify_marker_bound",
    "verify_refined",
]

__version__ = "0.1.0"

"""Reference potential: the exact-rational path, one edge at a time.

``cutgame.potential`` sums potentials in integer quarter-units and
computes each state's profile once.  The tests keep the per-edge
``Fraction`` computation it replaced here, recomputed on every call, so
that nothing it returns comes from the code under test.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Optional

from cutgame.core import Edge, GameState, value
from cutgame.potential import Segment


def edge_potential(edge: Edge, segment: Segment, state: GameState) -> Fraction:
    """Potential of one edge within a segment of the state."""
    ci, pos = edge
    if ci != segment.cycle or pos not in segment.positions:
        raise ValueError(f"edge {edge} not on segment")
    label = state.cycles[ci][pos]
    counts = state.label_counts()
    if counts[label] == 1:
        return Fraction(3, 2)
    idx = segment.positions.index(pos)
    neighbours = []
    if idx > 0:
        neighbours.append(segment.positions[idx - 1])
    if idx + 1 < len(segment.positions):
        neighbours.append(segment.positions[idx + 1])
    if segment.closed and len(segment.positions) > 1:
        if idx == 0:
            neighbours.append(segment.positions[-1])
        if idx == len(segment.positions) - 1:
            neighbours.append(segment.positions[0])
    if any(state.cycles[ci][p] == label for p in set(neighbours) - {pos}):
        return Fraction(3, 4)
    return Fraction(1, 2)


def reference_segment_potential(segment: Optional[Segment], state: GameState) -> Fraction:
    """-2 plus the edge potentials; a trivial segment is worth -2."""
    total = Fraction(-2)
    if segment is None:
        return total
    for pos in segment.positions:
        total += edge_potential((segment.cycle, pos), segment, state)
    return total


def reference_component_potential(state: GameState, ci: int) -> Fraction:
    return reference_segment_potential(Segment.whole_cycle(state, ci), state)


def reference_positive_component_sum(state: GameState) -> Fraction:
    total = Fraction(0)
    for ci in range(len(state.cycles)):
        p = reference_component_potential(state, ci)
        if p > 0:
            total += p
    return total


def reference_state_potential(state: GameState) -> Fraction:
    base = Fraction(4 * (state.initial_genus - state.genus) - 3 * value(state))
    return base + reference_positive_component_sum(state)

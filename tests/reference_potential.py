"""Reference potential: the exact-rational path, one edge at a time.

``cutgame.potential`` sums potentials in integer quarter-units and
computes each state's profile once.  The tests keep the per-edge
``Fraction`` computation it replaced here, recomputed on every call, so
that nothing it returns comes from the code under test.

It also keeps the nesting-path predicate that ``is_nesting_path``
replaced, :func:`reference_is_nesting_path`, which decides isolation by
scanning every cycle for each label and looks for the supports on every
cycle; :func:`reference_nesting_y_edge` names the y-edge it accepts.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Optional

from cutgame.core import Edge, GameState, value


def edge_potential(state: GameState, ci: int, pos: int, run: Optional[tuple[int, ...]] = None) -> Fraction:
    """Potential of the edge at ``pos`` within the run ``run`` of cycle
    ``ci``, or within the whole cycle, closed, when ``run`` is None."""
    closed = run is None
    positions = tuple(range(len(state.cycles[ci]))) if closed else run
    if pos not in positions:
        raise ValueError(f"edge {(ci, pos)} not on run")
    label = state.cycles[ci][pos]
    counts = state.label_counts()
    if counts[label] == 1:
        return Fraction(3, 2)
    idx = positions.index(pos)
    neighbours = []
    if idx > 0:
        neighbours.append(positions[idx - 1])
    if idx + 1 < len(positions):
        neighbours.append(positions[idx + 1])
    if closed and len(positions) > 1:
        if idx == 0:
            neighbours.append(positions[-1])
        if idx == len(positions) - 1:
            neighbours.append(positions[0])
    if any(state.cycles[ci][p] == label for p in set(neighbours) - {pos}):
        return Fraction(3, 4)
    return Fraction(1, 2)


def reference_segment_potential(state: GameState, ci: int, run: Optional[tuple[int, ...]] = None) -> Fraction:
    """-2 plus the edge potentials of the run, or of the whole cycle when
    ``run`` is None; the empty run is worth -2."""
    positions = range(len(state.cycles[ci])) if run is None else run
    return Fraction(-2) + sum(edge_potential(state, ci, pos, run) for pos in positions)


def reference_component_potential(state: GameState, ci: int) -> Fraction:
    return reference_segment_potential(state, ci)


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


def reads_xtzt(cycle: tuple[int, ...], x: int, z: int) -> bool:
    """Whether the cycle reads (x, t, z, t) for some label t, up to
    rotation."""
    if len(cycle) != 4:
        return False
    for r in range(4):
        rot = cycle[r:] + cycle[:r]
        if rot[0] == x and rot[2] == z and rot[1] == rot[3] and rot[1] not in (x, z):
            return True
    return False


def reference_is_nesting_path(state: GameState, host: int, run: tuple[int, ...], allow_pseudo: bool = False,
                              _visited: Optional[frozenset] = None) -> bool:
    """Whether the run of cycle ``host`` is a nesting path, by the
    definition of ``cutgame.potential.is_nesting_path``."""
    labels = [state.cycles[host][p] for p in run]
    counts = state.label_counts()

    if len(labels) == 1:
        return counts[labels[0]] == 1

    if len(labels) != 3:
        return False

    if allow_pseudo and labels[0] == labels[2] and labels[0] != labels[1]:
        occurrences = [
            (ci, p)
            for ci, cyc in enumerate(state.cycles)
            for p, lab in enumerate(cyc)
            if lab == labels[0]
        ]
        if all(ci == host for ci, _ in occurrences):
            return True

    x, y, z = labels
    if len({x, y, z}) != 3:
        return False
    # non-isolated: each label must occur on a second, different cycle
    for lab in (x, y, z):
        others = {ci for ci, cyc in enumerate(state.cycles) for l in cyc if l == lab}
        if others == {host}:
            return False

    has_anchor = any(
        ci != host and reads_xtzt(cyc, x, z)
        for ci, cyc in enumerate(state.cycles)
    )
    if not has_anchor:
        return False
    return reference_nesting_y_edge(state, host, run, allow_pseudo, _visited) is not None


def reference_nesting_y_edge(state: GameState, host: int, run: tuple[int, ...], allow_pseudo: bool = False,
                             _visited: Optional[frozenset] = None) -> Optional[Edge]:
    """The first edge off cycle ``host`` that carries the label of the
    run's middle edge y and whose cycle's other edges form a nesting
    path, or None."""
    y = state.cycles[host][run[1]]
    visited = _visited or frozenset()
    for ci, cyc in enumerate(state.cycles):
        if ci == host:
            continue
        for p, lab in enumerate(cyc):
            if lab != y or (ci, p) in visited:
                continue
            rest = tuple(q % len(cyc) for q in range(p + 1, p + len(cyc)))
            if not rest:
                continue
            if reference_is_nesting_path(state, ci, rest, allow_pseudo, visited | {(ci, p)}):
                return ci, p
    return None

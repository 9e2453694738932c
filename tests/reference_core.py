"""Reference successor builders: every reply with its provenance, every
mark in a list.

``cutgame.core.cutter_replies`` builds each reply's next state from
labels alone and derives ``derived``, ``edge_map`` and ``new_edges``
only when the marker strategy reads them, and
``enumerate_marker_moves`` returns a lazy sequence that builds a mark
when it is read.  The tests keep the eager builders they replaced here,
and check the package against them.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Optional

from cutgame.core import Edge, GameState, MarkedState, ReplyKind, split_cycle


@dataclass(frozen=True)
class EagerReply:
    """A cutter reply with its provenance built up front."""

    kind: ReplyKind
    next: GameState
    derived: tuple[int, ...]
    edge_map: tuple[tuple[Edge, Edge], ...]
    new_edges: tuple[Edge, ...]


def reference_marker_moves(state: GameState) -> list[MarkedState]:
    """All unordered marker choices, built at once: vertex pairs (repeats
    allowed), one vertex plus a dummy, the same dummy twice, and two
    distinct dummies."""
    verts = list(state.vertices())
    moves = [MarkedState(state, v, w) for v, w in itertools.combinations_with_replacement(verts, 2)]
    moves.extend(MarkedState(state, v, None) for v in verts)
    moves.append(MarkedState(state, None, None, same_dummy=True))
    moves.append(MarkedState(state, None, None, same_dummy=False))
    return moves


def _assemble(
    state: GameState,
    kind: ReplyKind,
    removed: tuple[int, ...],
    new_cycles: list[list[tuple[Optional[Edge], int]]],
    new_genus: int,
) -> EagerReply:
    """Build the next state plus provenance.  ``new_cycles`` lists, per
    derived cycle, (source edge or None for a fresh edge, label)."""
    keep = [ci for ci in range(len(state.cycles)) if ci not in removed]
    cycles: list[tuple[int, ...]] = [state.cycles[ci] for ci in keep]
    edge_map: list[tuple[Edge, Edge]] = []
    for nci, oci in enumerate(keep):
        edge_map.extend(((oci, p), (nci, p)) for p in range(len(state.cycles[oci])))
    derived = []
    new_edges: list[Edge] = []
    for spec in new_cycles:
        nci = len(cycles)
        derived.append(nci)
        cycles.append(tuple(lab for _, lab in spec))
        for pos, (src, _) in enumerate(spec):
            if src is None:
                new_edges.append((nci, pos))
            else:
                edge_map.append((src, (nci, pos)))
    next_state = GameState(
        cycles=tuple(cycles),
        genus=new_genus,
        initial_genus=state.initial_genus,
        next_label=state.next_label + 1,
    )
    return EagerReply(kind, next_state, tuple(derived), tuple(edge_map), tuple(new_edges))


def reference_cutter_replies(marked: MarkedState) -> list[EagerReply]:
    """All cutter replies to a marked state, under the restricted
    convention: the untouched cycles are kept in full and the genus
    counter is left alone for kinds B and C.
    """
    state = marked.state
    label = state.next_label

    if marked.same_component():
        if marked.v is None:  # one dummy marked twice: both arcs trivial
            ci: Optional[int] = None
            path: tuple[int, ...] = ()
            path_prime: tuple[int, ...] = ()
        else:
            ci = marked.v[0]
            path, path_prime = split_cycle(state.cycles[ci], marked.v[1], marked.w[1])
        removed = () if ci is None else (ci,)
        src = lambda p: None if ci is None else state.cycles[ci][p]  # noqa: E731
        c_hat_1 = [((ci, p), src(p)) for p in path] + [(None, label)]
        c_hat_2 = [((ci, p), src(p)) for p in path_prime] + [(None, label)]
        replies: list[EagerReply] = []

        def emit(kind: ReplyKind, parts: list[list], genus: int) -> None:
            replies.append(_assemble(state, kind, removed, parts, genus))

        if state.genus >= 1:
            emit("A", [c_hat_1, c_hat_2], state.genus - 1)
        emit("B", [c_hat_1], state.genus)
        emit("C", [c_hat_2], state.genus)
        return replies

    # Different components (a vertex may be a dummy, or both are distinct
    # dummies): the cutter has no choice, the two cycles amalgamate.
    removed_list: list[int] = []
    opened: list[list[tuple[Optional[Edge], int]]] = []
    for point in (marked.v, marked.w):
        if point is None:
            opened.append([])
            continue
        ci, pos = point
        removed_list.append(ci)
        whole, _ = split_cycle(state.cycles[ci], pos, pos)
        opened.append([((ci, p), state.cycles[ci][p]) for p in whole])
    amalgam = opened[0] + [(None, label)] + opened[1] + [(None, label)]
    return [_assemble(state, "D", tuple(removed_list), [amalgam], state.genus)]

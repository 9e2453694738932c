"""Game states and moves of the combinatorial boundary-cutting game.

A game state is a finite collection of directed, edge-labelled cycles
(the boundary cycles) together with a genus counter.  Labels are plain
integers drawn from a per-state monotone allocator; a state is *proper*
when no label occurs on more than two edges.  One full turn consists of
the marker choosing two points (vertices of the cycles, or up to two
fresh "dummy" points) and the cutter answering with one of four replies
that reassemble the cycles around the marked points.

Everything in this module is immutable; states and replies can be shared
freely between threads or search branches.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Iterator, Literal, Optional

# A vertex is addressed positionally: (cycle_index, i) is the vertex at the
# tail of edge i, i.e. between edges i-1 and i of that cycle.  A cycle of
# length L has exactly L vertices.
Vertex = tuple[int, int]
Edge = tuple[int, int]  # same addressing: (cycle_index, edge_position)

ReplyKind = Literal["A", "B", "C", "D"]


@dataclass(frozen=True)
class GameState:
    """Immutable game state: labelled directed cycles plus a genus counter.

    ``cycles`` holds one tuple of integer labels per boundary cycle, read
    in cycle orientation.  ``genus`` may only decrease during play and
    never exceeds ``initial_genus``.  ``next_label`` is the fresh-label
    allocator; every label present is strictly below it.
    """

    cycles: tuple[tuple[int, ...], ...]
    genus: int
    initial_genus: int
    next_label: int = 0

    def edges(self) -> Iterator[Edge]:
        for ci, cyc in enumerate(self.cycles):
            for pos in range(len(cyc)):
                yield (ci, pos)

    def vertices(self) -> Iterator[Vertex]:
        return self.edges()

    def edge_count(self) -> int:
        return sum(len(c) for c in self.cycles)

    def label_counts(self) -> dict[int, int]:
        """How many edges carry each label, counted on first use and kept
        in the state's ``__dict__``.  Every caller only reads the dict,
        so it is shared, never copied: do not mutate it."""
        counts = vars(self).get("_label_counts")
        if counts is None:
            counts = vars(self)["_label_counts"] = {}
            for cyc in self.cycles:
                for lab in cyc:
                    counts[lab] = counts.get(lab, 0) + 1
        return counts


def empty_state(g0: int) -> GameState:
    """The starting state: no cycles, genus counter at ``g0``."""
    return GameState(cycles=(), genus=g0, initial_genus=g0, next_label=0)


def value(state: GameState) -> int:
    """Number of distinct labels present in the state."""
    return len(state.label_counts())


def uniquely_appearing_labels(state: GameState) -> set[int]:
    counts = state.label_counts()
    return {lab for lab, n in counts.items() if n == 1}


class MarkedState:
    """A game state with the marker's chosen pair of points.

    ``v`` and ``w`` are vertex references or ``None`` for a dummy point.
    ``same_dummy`` distinguishes one dummy chosen twice from two distinct
    dummies; it may only be set when both points are dummies.  Marks are
    built by the thousand and never compared, so this is a plain class.
    """

    __slots__ = ("state", "v", "w", "same_dummy")

    def __init__(self, state: GameState, v: Optional[Vertex], w: Optional[Vertex], same_dummy: bool = False):
        if same_dummy and not (v is None and w is None):
            raise ValueError("same_dummy requires both marks to be dummies")
        for p in (v, w):
            if p is not None:
                ci, pos = p
                if not (0 <= ci < len(state.cycles)):
                    raise ValueError(f"mark references missing cycle {ci}")
                if not (0 <= pos < len(state.cycles[ci])):
                    raise ValueError(f"mark references missing vertex {p}")
        self.state, self.v, self.w, self.same_dummy = state, v, w, same_dummy

    def same_component(self) -> bool:
        if self.v is None and self.w is None:
            return self.same_dummy
        if self.v is None or self.w is None:
            return False
        return self.v[0] == self.w[0]


def enumerate_marker_moves(state: GameState) -> list[MarkedState]:
    """All unordered marker choices: vertex pairs (repeats allowed), one
    vertex plus a dummy, the same dummy twice, and two distinct dummies."""
    verts = list(state.vertices())
    moves = [MarkedState(state, v, w) for v, w in itertools.combinations_with_replacement(verts, 2)]
    moves.extend(MarkedState(state, v, None) for v in verts)
    moves.append(MarkedState(state, None, None, same_dummy=True))
    moves.append(MarkedState(state, None, None, same_dummy=False))
    return moves


def split_cycle(cycle: tuple[int, ...], v_pos: int, w_pos: int) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """Split a cycle at two of its vertices into the arc positions.

    Returns ``(P, P_prime)`` as tuples of edge positions: ``P`` runs from
    ``v`` forward to ``w``, ``P_prime`` from ``w`` back round to ``v``.
    When ``v_pos == w_pos`` the first arc is the whole cycle opened at
    that vertex and the second is trivial.
    """
    n = len(cycle)
    if not (0 <= v_pos < n and 0 <= w_pos < n):
        raise ValueError("vertex not on cycle")
    if v_pos == w_pos:
        return tuple((v_pos + i) % n for i in range(n)), ()
    p = tuple(i % n for i in range(v_pos, v_pos + (w_pos - v_pos) % n))
    q = tuple(i % n for i in range(w_pos, w_pos + (v_pos - w_pos) % n))
    return p, q


@dataclass(frozen=True)
class CutterReply:
    """One cutter reply and the state it produces.

    Provenance fields record how the new state's cycles were assembled so
    that the marker strategy can trace every surviving edge:

    * ``derived``: indices of the freshly assembled cycles in ``next``
      (``C_hat_1`` and/or ``C_hat_2``, or the amalgam for kind D).
    * ``edge_map``: pairs ``(old_edge, new_edge)`` for every edge of the
      previous state that survives into ``next``.
    * ``new_edges``: positions of the new edge(s), which carry the
      previous state's ``next_label``.

    The split arcs are ``split_cycle`` of the marked cycle.
    """

    kind: ReplyKind
    next: GameState
    derived: tuple[int, ...]
    edge_map: tuple[tuple[Edge, Edge], ...]
    new_edges: tuple[Edge, ...]


def _surviving_indices(n_cycles: int, removed: tuple[int, ...]) -> list[int]:
    return [ci for ci in range(n_cycles) if ci not in removed]


def _assemble(
    state: GameState,
    kind: ReplyKind,
    removed: tuple[int, ...],
    new_cycles: list[list[tuple[Optional[Edge], int]]],
    new_genus: int,
) -> CutterReply:
    """Build the next state plus provenance.  ``new_cycles`` lists, per
    derived cycle, (source edge or None for a fresh edge, label)."""
    keep = _surviving_indices(len(state.cycles), removed)
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
    return CutterReply(
        kind=kind,
        next=next_state,
        derived=tuple(derived),
        edge_map=tuple(edge_map),
        new_edges=tuple(new_edges),
    )


def cutter_replies(marked: MarkedState) -> list[CutterReply]:
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
        replies: list[CutterReply] = []

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


class Violation:
    """The first rule a state breaks, and how."""

    __slots__ = ("rule", "detail")

    def __init__(self, rule: str, detail: str):
        self.rule, self.detail = rule, detail


def validate(state: GameState) -> Optional[Violation]:
    """Check properness, cycle well-formedness, label-allocator consistency
    and the genus range.  Returns the first violation found, else None."""
    for ci, cyc in enumerate(state.cycles):
        if len(cyc) == 0:
            return Violation("cycle", f"cycle {ci} is empty")
    counts = state.label_counts()
    for lab, n in counts.items():
        if n > 2:
            return Violation("properness", f"label {lab} appears on {n} edges")
        if lab >= state.next_label or lab < 0:
            return Violation("labels", f"label {lab} outside allocator range")
    if not (0 <= state.genus <= state.initial_genus):
        return Violation("genus range", f"genus {state.genus} not in [0, {state.initial_genus}]")
    return None

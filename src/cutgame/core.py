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
from collections.abc import Sequence
from dataclasses import dataclass, field
from functools import cached_property
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
    built one per read of ``MarkerMoves``, so this is a plain class; two
    marks are equal, and hash alike, when their states and points are,
    so that a mark can key a table of audited plies.
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

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, MarkedState):
            return NotImplemented
        return (self.state, self.v, self.w, self.same_dummy) == (other.state, other.v, other.w, other.same_dummy)

    def __hash__(self) -> int:
        return hash((self.state, self.v, self.w, self.same_dummy))

    def same_component(self) -> bool:
        if self.v is None and self.w is None:
            return self.same_dummy
        if self.v is None or self.w is None:
            return False
        return self.v[0] == self.w[0]


class MarkerMoves(Sequence):
    """The marks of one state in ``enumerate_marker_moves``' order, each
    built when it is read: a random draw builds one mark, not all of
    them.  Vertex pairs come first in ``combinations_with_replacement``
    order, then each vertex with a dummy, then the same dummy twice and
    two distinct dummies."""

    __slots__ = ("state", "verts")

    def __init__(self, state: GameState):
        self.state, self.verts = state, tuple(state.vertices())

    def __len__(self) -> int:
        n = len(self.verts)
        return n * (n + 1) // 2 + n + 2

    def __getitem__(self, i: int) -> MarkedState:
        size = len(self)
        if not 0 <= i < size:
            raise IndexError("mark index out of range")
        state, verts = self.state, self.verts
        if i >= size - 2:
            return MarkedState(state, None, None, same_dummy=i == size - 2)
        row = len(verts)
        pairs = row * (row + 1) // 2
        if i >= pairs:
            return MarkedState(state, verts[i - pairs], None)
        a = 0
        while i >= row:  # row a holds the pairs (a, b) with b >= a
            i, a, row = i - row, a + 1, row - 1
        return MarkedState(state, verts[a], verts[a + i])

    def __iter__(self) -> Iterator[MarkedState]:
        state, verts = self.state, self.verts
        for v, w in itertools.combinations_with_replacement(verts, 2):
            yield MarkedState(state, v, w)
        for v in verts:
            yield MarkedState(state, v, None)
        yield MarkedState(state, None, None, same_dummy=True)
        yield MarkedState(state, None, None, same_dummy=False)


def enumerate_marker_moves(state: GameState) -> MarkerMoves:
    """All unordered marker choices: vertex pairs (repeats allowed), one
    vertex plus a dummy, the same dummy twice, and two distinct dummies;
    a lazy sequence, each mark built when it is read."""
    return MarkerMoves(state)


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

    ``next`` keeps the untouched cycles in order, then the freshly
    assembled ones (``C_hat_1`` and/or ``C_hat_2``, or the amalgam for
    kind D), each opened at a marked point as ``split_cycle`` splits the
    marked cycle.  ``marked`` is the mark the reply answers.

    Provenance records how ``next`` was assembled, so that the marker
    strategy can trace every surviving edge.  It is the same assembly,
    ``_assemble``, read over edge addresses instead of labels.  Only the
    strategy reads it, so each reply derives it on first read:

    * ``derived``: indices of the freshly assembled cycles in ``next``.
    * ``edge_map``: pairs ``(old_edge, new_edge)`` for every edge of the
      previous state that survives into ``next``.
    * ``new_edges``: positions of the new edge(s), which carry the
      previous state's ``next_label``.
    """

    kind: ReplyKind
    next: GameState
    marked: MarkedState = field(compare=False, repr=False)

    @cached_property
    def _provenance(self) -> tuple[tuple[int, ...], tuple[tuple[Edge, Edge], ...], tuple[Edge, ...]]:
        """``(derived, edge_map, new_edges)``: ``next`` assembled from
        each edge's address, with None for the new edge."""
        addresses = tuple([tuple([(ci, p) for p in range(len(cyc))])
                           for ci, cyc in enumerate(self.marked.state.cycles)])
        kept, new = _assemble(addresses, self.marked, None)
        cycles = kept + new[_PARTS[self.kind]]
        placed = [(src, (nci, p)) for nci, cyc in enumerate(cycles) for p, src in enumerate(cyc)]
        edge_map = tuple([pair for pair in placed if pair[0] is not None])
        new_edges = tuple([edge for src, edge in placed if src is None])
        return tuple(range(len(kept), len(cycles))), edge_map, new_edges

    @property
    def derived(self) -> tuple[int, ...]:
        return self._provenance[0]

    @property
    def edge_map(self) -> tuple[tuple[Edge, Edge], ...]:
        return self._provenance[1]

    @property
    def new_edges(self) -> tuple[Edge, ...]:
        return self._provenance[2]


# which of ``_assemble``'s new cycles each reply keeps
_PARTS = {"A": slice(None), "B": slice(1), "C": slice(1, None), "D": slice(None)}


def _assemble(cycles: tuple[tuple, ...], marked: MarkedState, new: Optional[int]) -> tuple[tuple, tuple]:
    """The move rule over per-edge tuples: ``cycles`` holds one entry per
    edge of ``marked.state`` (its labels, or any other per-edge data),
    and ``new`` stands for the new edge.  Returns the kept cycles, then
    the new ones: ``(C_hat_1, C_hat_2)`` when the marks share a
    component, the amalgam, each cycle opened at its marked point, when
    they do not."""
    if marked.same_component():
        if marked.v is None:  # one dummy marked twice: both arcs trivial
            return cycles, ((new,), (new,))
        ci, i = marked.v
        cyc = cycles[ci]
        # split_cycle's arcs: P from v to w, P' from w back to v
        opened = cyc[i:] + cyc[:i]
        k = (marked.w[1] - i) % len(cyc) or len(cyc)
        return cycles[:ci] + cycles[ci + 1:], (opened[:k] + (new,), opened[k:] + (new,))
    amalgam: tuple = ()
    for point in (marked.v, marked.w):
        if point is not None:
            ci, pos = point
            amalgam += cycles[ci][pos:] + cycles[ci][:pos]
        amalgam += (new,)
    removed = {p[0] for p in (marked.v, marked.w) if p is not None}
    return tuple(cyc for ci, cyc in enumerate(cycles) if ci not in removed), (amalgam,)


def cutter_replies(marked: MarkedState) -> list[CutterReply]:
    """All cutter replies to a marked state, under the restricted
    convention: the untouched cycles are kept in full and the genus
    counter is left alone for kinds B and C.  Marks on one component
    get A (when the genus allows), B and C; marks on two (a vertex may
    be a dummy, or both are distinct dummies) leave the cutter no
    choice, D.  Each next state is built from labels alone; provenance
    waits until it is read.
    """
    state = marked.state
    label, genus = state.next_label, state.genus
    kept, new = _assemble(state.cycles, marked, label)

    def reply(kind: ReplyKind, new_genus: int) -> CutterReply:
        next_state = GameState(kept + new[_PARTS[kind]], new_genus, state.initial_genus, label + 1)
        return CutterReply(kind, next_state, marked)

    if not marked.same_component():
        return [reply("D", genus)]
    replies = [reply("A", genus - 1)] if genus >= 1 else []
    return replies + [reply("B", genus), reply("C", genus)]


def validate(state: GameState) -> Optional[str]:
    """Check properness, cycle well-formedness, label-allocator consistency
    and the genus range.  Returns the first failure as
    ``"invalid state (rule): detail"``, else None."""
    for ci, cyc in enumerate(state.cycles):
        if len(cyc) == 0:
            return f"invalid state (cycle): cycle {ci} is empty"
    counts = state.label_counts()
    for lab, n in counts.items():
        if n > 2:
            return f"invalid state (properness): label {lab} appears on {n} edges"
        if lab >= state.next_label or lab < 0:
            return f"invalid state (labels): label {lab} outside allocator range"
    if not (0 <= state.genus <= state.initial_genus):
        return f"invalid state (genus range): genus {state.genus} not in [0, {state.initial_genus}]"
    return None

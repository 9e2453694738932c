"""Reference restricted legality and canonical forms: the enumerating paths.

``cutgame.equivalence`` decides ``_shape_precedes`` by a backtracking
match and merges the canonical form's tied partial orderings by a
free-label signature.  The tests keep the slower paths those replaced
here, with a cache of their own so that nothing they compute comes from
the code under test:

- ``reference_canonical_shape`` expands every tied partial ordering,
  merging only those with the same remaining cycles and the same
  renaming of the labels still visible;
- ``reference_shape_precedes`` enumerates every contraction of the
  earlier collection whose cycle lengths fit the candidate's and
  compares canonical forms;
- ``contract_edge`` contracts one edge, the step every reduction is
  made of;
- ``reply_loses_label`` is the label-loss rule that equals restricted
  legality along value-monotone plays.
"""

from __future__ import annotations

import itertools
from collections import Counter
from functools import lru_cache
from typing import Iterable, Iterator, Optional, Sequence

from cutgame.core import CutterReply, Edge, GameState


def reference_canonical_shape(
    cycles: Sequence[tuple[int, ...]],
) -> tuple[tuple[tuple[int, ...], ...], dict[int, int]]:
    """Lexicographically minimal encoding of a cycle multiset under
    rotation, reordering and first-occurrence label renaming.  Also
    returns one renaming that realizes the minimum.

    Partial orderings that agree on every label still visible in the
    remaining cycles are interchangeable, which keeps collections of
    like-shaped components from exploding the tie set.
    """
    remaining0 = frozenset(range(len(cycles)))
    label_sets = [frozenset(c) for c in cycles]
    partials: list[tuple[frozenset, dict[int, int]]] = [(remaining0, {})]
    encoding: tuple = ()
    for _ in range(len(cycles)):
        best_piece = None
        best: list[tuple[frozenset, dict[int, int]]] = []
        seen = set()
        for remaining, renaming in partials:
            for i in remaining:
                cyc = cycles[i]
                n = len(cyc)
                for r in range(n):
                    ren = dict(renaming)
                    out = [n]
                    for k in range(n):
                        lab = cyc[(r + k) % n]
                        if lab not in ren:
                            ren[lab] = len(ren)
                        out.append(ren[lab])
                    piece = tuple(out)
                    if best_piece is None or piece < best_piece:
                        best_piece = piece
                        best = []
                        seen = set()
                    if piece == best_piece:
                        rest = remaining - {i}
                        relevant = frozenset().union(*(label_sets[j] for j in rest)) if rest else frozenset()
                        sig = (rest, frozenset((l, x) for l, x in ren.items() if l in relevant))
                        if sig not in seen:
                            seen.add(sig)
                            best.append((rest, ren))
        assert best_piece is not None
        encoding += (best_piece,)
        partials = best
    _, renaming = partials[0] if partials else (remaining0, {})
    return encoding, renaming


@lru_cache(maxsize=None)
def _reference_shape(cycles: tuple[tuple[int, ...], ...]) -> tuple[tuple[int, ...], ...]:
    return reference_canonical_shape(cycles)[0]


def reductions(state: GameState, keep_counts: Optional[Sequence[int]] = None) -> Iterable[tuple[tuple[int, ...], ...]]:
    """All cycle collections obtainable by contracting edges of ``state``.

    ``keep_counts``, when given, restricts each surviving cycle to one of
    those lengths.
    """
    per_cycle: list[list[tuple[tuple[int, ...], ...]]] = []
    allowed = None if keep_counts is None else set(keep_counts) | {0}
    for cyc in state.cycles:
        options: list[tuple[int, ...]] = []
        for r in range(len(cyc) + 1):
            if allowed is not None and r not in allowed:
                continue
            options.extend(
                tuple(cyc[p] for p in keep) for keep in itertools.combinations(range(len(cyc)), r)
            )
        per_cycle.append(options)
    for choice in itertools.product(*per_cycle):
        yield tuple(c for c in choice if c)


def _size_assignments(host_lengths: tuple[int, ...], need: Counter) -> Iterator[tuple[int, ...]]:
    """Ways to pick, per host cycle, how many edges it keeps (0 = dropped)
    so that the kept sizes realize exactly the needed length multiset."""

    def rec(idx: int, remaining: Counter) -> Iterator[tuple[int, ...]]:
        if idx == len(host_lengths):
            if not remaining:
                yield ()
            return
        slots_left = len(host_lengths) - idx
        if sum(remaining.values()) > slots_left:
            return
        options = [0] + [n for n in remaining if n <= host_lengths[idx]]
        for size in options:
            if size:
                remaining[size] -= 1
                if not remaining[size]:
                    del remaining[size]
            for rest in rec(idx + 1, remaining):
                yield (size,) + rest
            if size:
                remaining[size] += 1

    yield from rec(0, Counter(need))


@lru_cache(maxsize=None)
def reference_shape_precedes(cand_cycles: tuple[tuple[int, ...], ...], earl_cycles: tuple[tuple[int, ...], ...]) -> bool:
    """Whether some contraction of ``earl_cycles`` has the canonical
    shape of ``cand_cycles``: each size assignment, then each choice of
    kept subsequences under it."""
    target = _reference_shape(cand_cycles)
    need = Counter(len(c) for c in cand_cycles)
    host_lengths = tuple(len(c) for c in earl_cycles)
    for sizes in _size_assignments(host_lengths, need):
        per_cycle = [
            list(itertools.combinations(range(len(cyc)), size))
            for cyc, size in zip(earl_cycles, sizes)
        ]
        for keeps in itertools.product(*per_cycle):
            reduced = tuple(
                tuple(cyc[p] for p in keep)
                for cyc, keep in zip(earl_cycles, keeps)
                if keep
            )
            if _reference_shape(reduced) == target:
                return True
    return False


def reply_loses_label(parent: GameState, reply: CutterReply) -> bool:
    """Whether some label of ``parent`` is absent from the reply's state.

    Along value-monotone histories this is exactly restricted-cutter
    illegality for kinds B and C, and kinds A and D never lose a label;
    the test suite checks that equivalence against ``legal_replies``."""
    parent_labels = {lab for cyc in parent.cycles for lab in cyc}
    next_labels = {lab for cyc in reply.next.cycles for lab in cyc}
    return not parent_labels <= next_labels


def contract_edge(state: GameState, edge: Edge) -> GameState:
    """Contract one edge, merging its endpoints.  Contracting a loop
    deletes its vertex and drops the resulting empty component."""
    ci, pos = edge
    if not (0 <= ci < len(state.cycles)) or not (0 <= pos < len(state.cycles[ci])):
        raise ValueError(f"edge {edge} not in state")
    cyc = state.cycles[ci]
    rest = cyc[:pos] + cyc[pos + 1 :]
    cycles = list(state.cycles)
    if rest:
        cycles[ci] = rest
    else:
        del cycles[ci]
    return GameState(tuple(cycles), state.genus, state.initial_genus, state.next_label)

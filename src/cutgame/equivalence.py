"""Contraction, canonical forms and restricted-cutter legality.

Two states are equivalent when some label bijection turns one cycle
collection into the other (orientation preserved, genus equal).  A
*reduction* of a state contracts any set of edges — every cycle keeps a
cyclic subsequence of its edges, a fully contracted cycle disappears —
and may lower the genus counter.  The restricted cutter must never move
to a state that is equivalent to a reduction of an earlier state of the
play, the current one included.

Equivalence compares canonical keys: the lexicographically least
encoding of the cycles under rotation, reordering and first-occurrence
renaming (``_canonical_shape``, which merges and defers tied partial
orderings instead of expanding each one).  ``precedes`` decides the
reduction relation: first by a kept-label witness on the concrete
labels, which settles every reply a value-monotone play refuses, then
on canonical cycles by a backtracking match (``_shape_precedes``)
instead of enumerating contractions.  The enumerating versions of both
stay in the tests as the reference.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from functools import lru_cache
from typing import Optional, Sequence

from .core import CutterReply, GameState, MarkedState, cutter_replies, value


@dataclass(frozen=True)
class CanonicalKey:
    """Rotation-, ordering- and relabelling-invariant fingerprint."""

    genus: int
    shape: tuple[tuple[int, ...], ...]

    def __str__(self) -> str:
        cycles = "|".join(",".join(map(str, cyc[1:])) for cyc in self.shape)
        return f"g{self.genus}#{cycles}"


# A partial ordering of the canonical-form search is a tuple
#   (rest, renaming, next_index, pool, owner):
# ``rest`` holds the cycles still to place, ``renaming`` the indices given
# so far and ``next_index`` the next unused index.  ``pool`` maps the
# pattern of a class of deferred cycles (see ``_canonical_shape``) to its
# unplaced cycles and the starts of its reserved, still free index
# blocks; ``owner`` maps each label of an unplaced deferred cycle to
# (pattern, cycle, renamings of the rotations that realise the pattern).


def _cycle_class(cyc: tuple[int, ...]) -> tuple[tuple[int, ...], tuple[dict[int, int], ...]]:
    """A cycle's least first-occurrence pattern over its rotations, and
    the distinct renamings of the rotations that realise it."""
    found = []
    for r in range(len(cyc)):
        ren: dict[int, int] = {}
        found.append((tuple(ren.setdefault(lab, len(ren)) for lab in cyc[r:] + cyc[:r]), ren))
    pattern = min(p for p, _ in found)
    renamings: list[dict[int, int]] = []
    for p, ren in found:
        if p == pattern and ren not in renamings:
            renamings.append(ren)
    return pattern, tuple(renamings)


def _free_label_signature(rest: tuple[tuple[int, ...], ...], renaming: dict[int, int], pool: dict) -> tuple:
    """What a partial ordering's continuations depend on: its remaining
    cycles, sorted by length and by the pattern of renamed indices (free
    labels as one placeholder), then its deferred classes with their
    free blocks.  Renamed labels are written as their index and free
    labels numbered by first appearance (negative, so the two never
    collide)."""
    free: dict[int, int] = {}

    def encode(cyc: tuple[int, ...]) -> tuple[int, ...]:
        return tuple(renaming[lab] if lab in renaming else free.setdefault(lab, -1 - len(free)) for lab in cyc)

    ordered = sorted(rest, key=lambda c: (len(c), [renaming.get(lab, -1) for lab in c]))
    return (
        tuple(encode(c) for c in ordered),
        tuple((k, blocks, tuple(sorted([encode(c) for c in cycles]))) for k, (cycles, blocks) in sorted(pool.items())),
    )


def _defer(partial: tuple, n: int) -> tuple:
    """Move into the pool each class of two or more cycles of length
    ``n`` whose labels are all new and appear in no other remaining
    cycle of that length.  (A lone cycle of its class saves no
    branching.)"""
    rest, renaming, next_index, pool, owner = partial
    same = [c for c in rest if len(c) == n]
    if len(same) < 2:
        return partial
    counts = Counter(lab for c in same for lab in c)
    classes: dict[tuple[int, ...], list] = {}
    for c in same:
        if all(lab not in renaming and lab not in owner and counts[lab] == c.count(lab) for lab in c):
            k, renamings = _cycle_class(c)
            classes.setdefault(k, []).append((c, renamings))
    moved = {c for members in classes.values() if len(members) > 1 for c, _ in members}
    if not moved:
        return partial
    pool, owner = dict(pool), dict(owner)
    for k, members in classes.items():
        if len(members) > 1:
            pool[k] = (tuple(c for c, _ in members), ())
            for c, renamings in members:
                for lab in c:
                    owner[lab] = (k, c, renamings)
    return tuple(c for c in rest if c not in moved), renaming, next_index, pool, owner


def _place(
    rot: tuple[int, ...], renaming: dict[int, int], next_index: int, pool: dict, owner: dict
) -> tuple[tuple[int, ...], list[tuple]]:
    """The least piece for this rotation of a cycle that reads labels of
    deferred cycles, and every way to reach it.  Each deferred cycle is
    put into the first free block of its class, with the rotations that
    give the label read the least index: any other block or rotation
    gives that label a larger index, every earlier element of the piece
    being the same, so it cannot give the least piece.

    Returns the piece and a list of (renaming, next index, pool, owner).
    """
    # per way: new indices, blocks taken per class, new labels, placed cycles
    ways: list[tuple[dict, dict, int, tuple]] = [({}, {}, 0, ())]
    out = [len(rot)]
    for lab in rot:
        least = None
        kept: list[tuple[dict, dict, int, tuple]] = []
        for given, taken, fresh, placed in ways:
            x = renaming.get(lab, given.get(lab))
            if x is not None:
                options = [(given, taken, fresh, placed)]
            elif lab in owner:
                k, cyc, renamings = owner[lab]
                used = taken.get(k, 0)
                start = pool[k][1][used]
                rank = min(ren[lab] for ren in renamings)
                x = start + rank
                options = [
                    ({**given, **{l: start + i for l, i in ren.items()}}, {**taken, k: used + 1}, fresh, placed + (cyc,))
                    for ren in renamings
                    if ren[lab] == rank
                ]
            else:
                x = next_index + fresh
                options = [({**given, lab: x}, taken, fresh + 1, placed)]
            if least is None or x < least:
                least = x
                kept = []
            if x == least:
                kept.extend(options)
        ways = kept
        out.append(least)
    results = []
    for given, _, fresh, placed in ways:
        pool2, owner2 = dict(pool), dict(owner)
        for cyc in placed:
            k = owner[cyc[0]][0]
            cycles, blocks = pool2[k]
            if len(cycles) == 1:
                del pool2[k]
            else:
                pool2[k] = (tuple(c for c in cycles if c != cyc), blocks[1:])
            for lab in set(cyc):
                del owner2[lab]
        results.append(({**renaming, **given}, next_index + fresh, pool2, owner2))
    return tuple(out), results


def _canonical_shape(cycles: Sequence[tuple[int, ...]]) -> tuple[tuple[tuple[int, ...], ...], dict[int, int]]:
    """Lexicographically minimal encoding of a cycle multiset under
    rotation, reordering and first-occurrence label renaming.  Also
    returns one renaming that realizes the minimum.

    Each level appends the least piece any tied partial ordering can
    produce.  A piece starts with its cycle's length, so the pieces come
    in blocks of equal length, and within one partial each distinct
    cycle is tried once.  Two devices keep the tie set small:

    - *Merged ties.*  Tied partials with equal free-label signatures are
      merged.  Sound: equal signatures give a bijection of the free
      labels that carries one remaining collection onto the other while
      fixing every renamed index, so both produce the same
      continuations.
    - *Deferred cycles.*  When a block of length n starts, the cycles of
      length n whose labels are all new and appear in no other cycle of
      that length are deferred, where two or more share a class pattern
      (``_defer``).  Such a cycle's piece is its pattern shifted to the
      next index wherever the block places it, and no other piece of the
      block reads its labels, so a level reserves an index block for
      *some* deferred cycle of a class instead of branching on which
      one.  The cycle is placed when a later piece first reads one of
      its labels (``_place``); those still unread at the end fill the
      remaining blocks in any order, which changes no piece.
    """
    partials = [(tuple(cycles), {}, 0, {}, {})]
    encoding = []
    block = 0
    for _ in range(len(cycles)):
        rest0, _, _, pool0, _ = partials[0]
        # every tied partial has the same lengths left to place
        n = min([len(c) for c in rest0] + [len(k) for k, (cs, bl) in pool0.items() if len(cs) > len(bl)])
        if n != block:
            block = n
            partials = [_defer(p, n) for p in partials]
        best_piece: Optional[tuple[int, ...]] = None
        best: list[tuple] = []

        def offer(piece: tuple[int, ...], made: list[tuple]) -> None:
            nonlocal best_piece, best
            if best_piece is None or piece < best_piece:
                best_piece = piece
                best = []
            if piece == best_piece:
                best.extend(made)

        for rest, renaming, next_index, pool, owner in partials:
            for k, (cs, bl) in pool.items():
                if len(k) == n and len(cs) > len(bl):
                    offer((n,) + tuple(next_index + i for i in k),
                          [(rest, renaming, next_index + max(k) + 1, {**pool, k: (cs, bl + (next_index,))}, owner)])
            tried = set()
            for i, cyc in enumerate(rest):
                if len(cyc) != n or cyc in tried:
                    continue
                tried.add(cyc)
                others = rest[:i] + rest[i + 1 :]
                reads_deferred = bool(owner) and any(lab in owner for lab in cyc)
                for r in range(n):
                    rot = cyc[r:] + cyc[:r]
                    if reads_deferred:
                        piece, results = _place(rot, renaming, next_index, pool, owner)
                        offer(piece, [(others,) + res for res in results])
                        continue
                    fresh: dict[int, int] = {}
                    out = [n]
                    for lab in rot:
                        x = renaming.get(lab)
                        if x is None:
                            x = fresh.setdefault(lab, next_index + len(fresh))
                        out.append(x)
                    piece = tuple(out)
                    if best_piece is None or piece <= best_piece:
                        offer(piece, [(others, {**renaming, **fresh}, next_index + len(fresh), pool, owner)])
        assert best_piece is not None
        encoding.append(best_piece)
        if len(best) > 1:
            merged: dict[tuple, tuple] = {}
            for p in best:
                merged.setdefault(_free_label_signature(p[0], p[1], p[3]), p)
            best = list(merged.values())
        partials = best
    _, renaming, _, pool, _ = partials[0]
    renaming = dict(renaming)
    for cs, bl in pool.values():
        for cyc, start in zip(cs, bl):
            for lab, i in _cycle_class(cyc)[1][0].items():
                renaming[lab] = start + i
    return tuple(encoding), renaming


@lru_cache(maxsize=1 << 18)
def _cached_shape(cycles: tuple[tuple[int, ...], ...]) -> tuple[tuple[int, ...], ...]:
    return _canonical_shape(cycles)[0]


def canonical_key(state: GameState) -> CanonicalKey:
    return CanonicalKey(genus=state.genus, shape=_cached_shape(state.cycles))


@lru_cache(maxsize=1 << 16)
def _shape_precedes(cand_cycles: tuple[tuple[int, ...], ...], earl_cycles: tuple[tuple[int, ...], ...]) -> bool:
    """Whether contracting edges of ``earl_cycles`` can give
    ``cand_cycles`` up to relabelling, by a backtracking match.

    Candidate cycles are placed longest first, each on a distinct unused
    host cycle at least as long; each distinct rotation of the candidate
    is embedded as a linear subsequence of the host, growing one
    injective candidate-to-host label map that is undone on backtrack.
    Sound and complete: a kept cyclic subsequence of a host equals a
    rotation of the candidate exactly when that rotation is a linear
    subsequence of the host, and an injective label map whose image is
    the kept edges is a bijection onto the contracted collection's
    labels.
    """
    cands = sorted(cand_cycles, key=len, reverse=True)
    host_free = [True] * len(earl_cycles)
    image: dict[int, int] = {}  # candidate label -> host label
    taken: set[int] = set()  # host labels already an image

    def place(ci: int) -> bool:
        if ci == len(cands):
            return True
        cyc = cands[ci]
        rotations = dict.fromkeys(cyc[r:] + cyc[:r] for r in range(len(cyc)))
        for hi, host in enumerate(earl_cycles):
            if host_free[hi] and len(host) >= len(cyc):
                host_free[hi] = False
                if any(embed(rot, 0, host, 0, ci) for rot in rotations):
                    return True
                host_free[hi] = True
        return False

    def embed(rot: tuple[int, ...], k: int, host: tuple[int, ...], start: int, ci: int) -> bool:
        if k == len(rot):
            return place(ci + 1)
        lab = rot[k]
        mapped = image.get(lab)
        for p in range(start, len(host) - len(rot) + k + 1):
            h = host[p]
            if mapped is not None:
                if h == mapped and embed(rot, k + 1, host, p + 1, ci):
                    return True
            elif h not in taken:
                image[lab] = h
                taken.add(h)
                if embed(rot, k + 1, host, p + 1, ci):
                    return True
                del image[lab]
                taken.discard(h)
        return False

    return place(0)


def _embeds(cyc: tuple[int, ...], host: tuple[int, ...]) -> bool:
    """Whether some rotation of ``cyc`` is a linear subsequence of ``host``."""
    if len(cyc) > len(host):
        return False
    for r in range(len(cyc)):
        it = iter(host)
        if all(lab in it for lab in cyc[r:] + cyc[:r]):
            return True
    return False


def _kept_label_witness(candidate: GameState, earlier: GameState) -> bool:
    """A cheap sufficient test for ``precedes``, genus aside: a label map
    that fixes the labels the two states share and sends the candidate's
    one other label, if any, to a label of ``earlier`` the candidate
    lacks, under which each candidate cycle equals or embeds in its own
    cycle of ``earlier``.  Contracting the unused edges of ``earlier``
    and renaming then gives the candidate, so True is a proof; False
    proves nothing.

    Along a value-monotone play, a reply that loses a label ``l`` is the
    current state with the discarded arc contracted except one
    ``l``-edge and ``l`` renamed to the new label, so the map sending
    the new label to ``l`` places every cycle.
    """
    cand_counts, earl_counts = candidate.label_counts(), earlier.label_counts()
    extra = [lab for lab in cand_counts if lab not in earl_counts]
    if not extra:
        return _placed(candidate.cycles, earlier.cycles)
    if len(extra) > 1:
        return False
    new = extra[0]
    for image in earl_counts:
        if image not in cand_counts:
            cycles = tuple(tuple(image if lab == new else lab for lab in c) if new in c else c
                           for c in candidate.cycles)
            if _placed(cycles, earlier.cycles):
                return True
    return False


def _placed(cands: tuple[tuple[int, ...], ...], hosts: tuple[tuple[int, ...], ...]) -> bool:
    """Whether each candidate cycle goes onto its own host cycle: first
    every one that equals a free host, then each other one onto the
    first free host it embeds in."""
    free = list(hosts)
    rest = []
    for cyc in cands:
        if cyc in free:
            free.remove(cyc)
        else:
            rest.append(cyc)
    for cyc in rest:
        for i, host in enumerate(free):
            if _embeds(cyc, host):
                del free[i]
                break
        else:
            return False
    return True


def precedes(candidate: GameState, earlier: GameState) -> bool:
    """Whether ``candidate`` is equivalent to a reduction of ``earlier``.

    Reductions may lower the genus counter, so only ``candidate.genus <=
    earlier.genus`` is required on that coordinate.  The kept-label
    witness (``_kept_label_witness``) answers True on the concrete
    labels, with no canonical form; it settles every reply a driver
    rejects.  Otherwise label multiplicity and cycle-count arguments
    prune before the match on canonical cycles (``_shape_precedes``),
    whose cache is keyed on them.
    """
    if candidate.genus > earlier.genus:
        return False
    if _kept_label_witness(candidate, earlier):
        return True
    if candidate.edge_count() > earlier.edge_count():
        return False
    if value(candidate) > value(earlier):
        return False
    if len(candidate.cycles) > len(earlier.cycles):
        return False
    cand_lengths = sorted(len(c) for c in candidate.cycles)
    earl_lengths = sorted(len(c) for c in earlier.cycles)
    if any(
        sum(1 for l in earl_lengths if l >= n) < sum(1 for m in cand_lengths if m >= n)
        for n in cand_lengths
    ):
        return False
    doubled_cand = sum(1 for n in candidate.label_counts().values() if n == 2)
    doubled_earl = sum(1 for n in earlier.label_counts().values() if n == 2)
    if doubled_cand > doubled_earl:
        return False
    # canonical forms make the check independent of concrete labels;
    # strip the length prefix off each encoded cycle
    cand_cycles = tuple(c[1:] for c in _cached_shape(candidate.cycles))
    earl_cycles = tuple(c[1:] for c in _cached_shape(earlier.cycles))
    return _shape_precedes(cand_cycles, earl_cycles)


class History:
    """The states of one play, oldest first, current state last; ``top``
    is the largest value among them."""

    __slots__ = ("states", "top")

    def __init__(self, states: tuple[GameState, ...], top: Optional[int] = None):
        self.states = states
        self.top = max(map(value, states)) if top is None else top

    @property
    def current(self) -> GameState:
        return self.states[-1]

    def extended(self, state: GameState) -> "History":
        return History(self.states + (state,), max(self.top, value(state)))


def start_history(state: GameState) -> History:
    return History((state,))


def legal_replies(history: History, marked: MarkedState) -> list[CutterReply]:
    """Restricted-cutter replies: those whose next state is not equivalent
    to a reduction of any state in the history (current state included).

    Along a real play the value rises by one per turn, so any reply whose
    value exceeds every historical value is legal without enumeration;
    ``precedes`` handles the remaining candidates exactly.
    """
    if history.current is not marked.state and canonical_key(history.current) != canonical_key(marked.state):
        raise ValueError("history does not end at the marked state")
    out = []
    for reply in cutter_replies(marked):
        if value(reply.next) > history.top:
            out.append(reply)
        elif not any(precedes(reply.next, s) for s in reversed(history.states)):
            out.append(reply)
    return out


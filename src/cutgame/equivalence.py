"""Contraction, canonical forms and restricted-cutter legality.

Two states are equivalent when some label bijection turns one cycle
collection into the other (orientation preserved, genus equal).  A
*reduction* of a state contracts any set of edges — every cycle keeps a
cyclic subsequence of its edges, a fully contracted cycle disappears —
and may lower the genus counter.  The restricted cutter must never move
to a state that is equivalent to a reduction of an earlier state of the
play, the current one included.  Every legal reply raises the value by
exactly one, so a reply that does not is a reduction of the current
state, and one that does is a reduction of no earlier state: on every
legal play the earlier states add nothing, and ``legal_replies`` reads
the marked state alone.

Equivalence compares canonical keys, the text of the genus and of the
lexicographically least encoding of the cycles under rotation,
reordering and first-occurrence renaming (``_canonical_shape``; a key
reads the shape alone).  The loop pairs (a)(a) are split off before the
normal form and lead in closed form, so one search serves each normal
form of the rest at every pair count; it merges or defers tied partial
orderings, where they arise, instead of expanding each one.
``precedes`` decides the reduction relation: by the genus, then by a
kept-label witness on the concrete labels, which settles every reply
a value-monotone play refuses, then on canonical cycles by a
backtracking match (``_shape_precedes``) instead of enumerating
contractions.  The enumerating versions of both stay in the tests as
the reference.
"""

from __future__ import annotations

from collections import Counter
from functools import lru_cache
from typing import Optional, Sequence

from .core import CutterReply, GameState, MarkedState, cutter_replies, value


@lru_cache(maxsize=1 << 12)
def _shape_text(shape: tuple[tuple[int, ...], ...]) -> str:
    return "|".join(",".join(map(str, cyc[1:])) for cyc in shape)


# A partial ordering of the canonical-form search is a tuple
#   (rest, renaming, next_index, pool, owner):
# ``rest`` holds the cycles still to place, ``renaming`` the indices given
# so far and ``next_index`` the next unused index.  ``pool`` maps the
# pattern of a class of deferred cycles (see ``_normal_shape``) to its
# unplaced cycles and the starts of its reserved, still free index
# blocks; ``owner`` maps each label of an unplaced deferred cycle to
# (pattern, cycle, the renamings of the rotations that realise the
# pattern and give that label its least index).


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
    get = renaming.get
    free: dict[int, int] = {}

    def encode(cyc: tuple[int, ...]) -> tuple[int, ...]:
        out = []
        for lab in cyc:
            x = get(lab)
            out.append(free.setdefault(lab, -1 - len(free)) if x is None else x)
        return tuple(out)

    ordered = sorted(rest, key=lambda c: (len(c), [get(lab, -1) for lab in c])) if len(rest) > 1 else rest
    remaining = tuple([encode(c) for c in ordered])
    return remaining, tuple([(k, blocks, tuple(sorted([encode(c) for c in cycles])))
                             for k, (cycles, blocks) in sorted(pool.items())])


def _defer(partial: tuple, n: int) -> tuple:
    """Move into the pool each class of two or more cycles of length
    ``n`` whose labels are all new and appear in no other remaining
    cycle of that length.  (A lone cycle of its class saves no
    branching.)"""
    rest, renaming, next_index, pool, owner = partial
    same = [c for c in rest if len(c) == n]
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
                    rank = min(ren[lab] for ren in renamings)
                    owner[lab] = (k, c, tuple(ren for ren in renamings if ren[lab] == rank))
    return tuple(c for c in rest if c not in moved), renaming, next_index, pool, owner


def _place(rot: tuple[int, ...], renaming: dict[int, int], next_index: int, pool: dict, owner: dict,
           bound: Optional[tuple[int, ...]]) -> Optional[tuple[tuple[int, ...], list[tuple]]]:
    """The least piece for this rotation of a cycle that reads labels of
    deferred cycles and every way to reach it, a list of (renaming, next
    index, pool, owner), or None once an entry exceeds ``bound``'s (the
    best piece so far).  Each deferred cycle is put into the first free
    block of its class, with the rotations that give the label read the
    least index: any other block or rotation gives that label a larger
    index, every earlier element of the piece being the same, so it
    cannot give the least piece."""
    # per way: new indices, blocks taken per class, new labels, placed cycles
    ways: list[tuple[dict, dict, int, tuple]] = [({}, {}, 0, ())]
    out = [len(rot)]
    less = bound is None
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
                x = start + renamings[0][lab]
                options = [({**given, **{l: start + i for l, i in ren.items()}}, {**taken, k: used + 1}, fresh,
                            placed + (cyc,)) for ren in renamings]
            else:
                x = next_index + fresh
                options = [({**given, lab: x}, taken, fresh + 1, placed)]
            if least is None or x < least:
                least = x
                kept = []
            if x == least:
                kept.extend(options)
        if not less:
            if least > bound[len(out)]:
                return None
            less = least < bound[len(out)]
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
    rotation, reordering and first-occurrence label renaming, as the key
    path gives it (``_cached_shape``), and one renaming that realizes it:
    the core's final partial ordering composed onto the input's labels,
    which only this function, called by the tests, builds."""
    pairs, normal, names = _normal_form(cycles)
    shape, (_, renaming, _, pool, _) = _normal_shape(normal)
    renaming = dict(renaming)
    for cs, bl in pool.values():  # unread deferred cycles fill their blocks in any order
        for cyc, start in zip(cs, bl):
            for lab, i in _cycle_class(cyc)[1][0].items():
                renaming[lab] = start + i
    p = len(pairs)
    return _after_pairs(p, shape), {**dict(zip(pairs, range(p))), **{lab: renaming[x] + p for lab, x in names.items()}}


def _after_pairs(p: int, shape: tuple) -> tuple:
    """A core's shape led by its ``p`` loop pairs in closed form,
    (1,0),(1,0),(1,1),(1,1),..., every core index moved past them.  Pairs
    lead, as (1,i),(1,i) is below a single loop's (1,i),(1,i+1);
    exchanging two pairs fixes all else, and a uniform shift changes no
    comparison of the search."""
    return tuple((1, i) for i in range(p) for _ in (0, 1)) + tuple(
        (piece[0],) + tuple(x + p for x in piece[1:]) for piece in shape) if p else shape


def _normal_form(cycles: Sequence[tuple[int, ...]]) -> tuple[list[int], tuple[tuple[int, ...], ...], dict[int, int]]:
    """The labels of the loop pairs (a)(a), split off when no other label
    is on two loops, and the normal form of the rest, the core, with its
    renaming: the cycles sorted by length (a stable sort), their labels
    renamed 0, 1, ... by first occurrence, then sorted by length and
    content, so that equal cycles sit side by side."""
    loops = [c[0] for c in cycles if len(c) == 1]
    pairs = dict.fromkeys(lab for lab, k in Counter(loops).items() if k > 1) if len(set(loops)) < len(loops) else {}
    if pairs and sum(lab in pairs for c in cycles for lab in c) > 2 * len(pairs):
        pairs = {}  # a label on two loops and elsewhere, or on three: no closed form
    names: dict[int, int] = {}
    core = sorted([c for c in cycles if len(c) > 1 or c[0] not in pairs] if pairs else cycles, key=len)
    normal = sorted([tuple([names.setdefault(lab, len(names)) for lab in c]) for c in core])
    normal.sort(key=len)
    return list(pairs), tuple(normal), names


# copies of one state come close together (within 1 000 plays of a
# sampled run), so a small cache keeps nearly every hit
@lru_cache(maxsize=1 << 12)
def _normal_shape(cycles: tuple[tuple[int, ...], ...]) -> tuple[tuple[tuple[int, ...], ...], tuple]:
    """The canonical shape of a normal-form core and a partial ordering
    that reaches it, which only ``_canonical_shape`` reads a renaming
    off: one search serves every loop-pair count.

    The search appends, level by level, the least piece any tied partial
    ordering can produce.  A piece starts with its cycle's length, so
    the pieces come in blocks of equal length; the remaining cycles stay
    sorted by length, so a level scans the prefix of its length, tries
    each distinct cycle once, skips a rotation whose first entry is
    above the best piece's and gives up one at the first larger entry.
    Two devices keep the tie set small, each only where it applies:

    - *Merged ties.*  Tied partials with equal free-label signatures are
      merged.  Sound: equal signatures give a bijection of the free
      labels that carries one remaining collection onto the other while
      fixing every renamed index, so both produce the same
      continuations.  Ties are signed once a run of them survives a
      level, and never at the last: one partial's ties mostly differ in
      the indices their remaining cycles read, and one level ends them.
    - *Deferred cycles.*  When a block of length n starts, the cycles of
      length n whose labels are all new and appear in no other cycle of
      that length are deferred, where two or more share a class pattern
      (``_defer``, called only on a block of two cycles or more).  Such
      a cycle's piece is its pattern shifted to the next index wherever
      the block places it, and no other piece of the block reads its
      labels, so a level reserves an index block for *some* deferred
      cycle of a class instead of branching on which one.  The cycle is
      placed when a later piece first reads one of its labels
      (``_place``); those still unread at the end fill the remaining
      blocks in any order, which changes no piece.
    """
    encoding: list[tuple[int, ...]] = []
    partials = [(cycles, {}, 0, {}, {})]
    n = 0  # the current block's length
    for left in range(len(cycles) - 1, -1, -1):
        rest0, _, _, pool0, _ = partials[0]
        # every tied partial has the same lengths left to place, and a
        # class with a free block always has the current block's length
        if rest0 and len(rest0[0]) != n and not (pool0 and any(len(cs) > len(bl) for cs, bl in pool0.values())):
            n = len(rest0[0])
            if len(rest0) > 1 and len(rest0[1]) == n:
                partials = [_defer(p, n) for p in partials]
        best_piece: Optional[tuple[int, ...]] = None
        best: list[tuple] = []
        for rest, renaming, next_index, pool, owner in partials:
            for k, (cs, bl) in pool.items():
                if len(cs) > len(bl):
                    piece = (n,) + tuple(next_index + i for i in k)
                    if best_piece is None or piece < best_piece:
                        best_piece, best = piece, []
                    if piece == best_piece:
                        best.append((rest, renaming, next_index + max(k) + 1, {**pool, k: (cs, bl + (next_index,))}, owner))
            prev = None
            for i, cyc in enumerate(rest):
                if len(cyc) != n:
                    break
                if cyc == prev:
                    continue
                prev = cyc
                if owner and any(lab in owner for lab in cyc):
                    for r in range(n):
                        placed = _place(cyc[r:] + cyc[:r], renaming, next_index, pool, owner, best_piece)
                        if placed is not None:
                            if best_piece is None or placed[0] < best_piece:
                                best_piece, best = placed[0], []
                            best.extend((rest[:i] + rest[i + 1 :],) + res for res in placed[1])
                    continue
                for r in range(n):
                    if best_piece is not None and renaming.get(cyc[r], next_index) > best_piece[1]:
                        continue
                    fresh: dict[int, int] = {}
                    out = [n]
                    less = best_piece is None
                    for lab in cyc[r:] + cyc[:r]:
                        x = renaming.get(lab)
                        if x is None:
                            x = fresh.setdefault(lab, next_index + len(fresh))
                        if not less:
                            y = best_piece[len(out)]
                            if x > y:
                                break
                            less = x < y
                        out.append(x)
                    else:
                        if less:
                            best_piece, best = tuple(out), []
                        best.append((rest[:i] + rest[i + 1 :], {**renaming, **fresh}, next_index + len(fresh), pool, owner))
        assert best_piece is not None
        encoding.append(best_piece)
        if left and len(best) > 1 and len(partials) > 1:
            merged: dict[tuple, tuple] = {}
            for p in best:
                merged.setdefault(_free_label_signature(p[0], p[1], p[3]), p)
            best = list(merged.values())
        partials = best
    return tuple(encoding), partials[0]


@lru_cache(maxsize=1 << 18)
def _cached_shape(cycles: tuple[tuple[int, ...], ...]) -> tuple[tuple[int, ...], ...]:
    pairs, normal, _ = _normal_form(cycles)
    return _after_pairs(len(pairs), _normal_shape(normal)[0])


def canonical_key(state: GameState) -> str:
    """``g<genus>#<shape text>``, as reports print it.  One text per
    (genus, shape): the genus ends at ``#``, ``|`` splits the pieces and
    ``,`` their entries, and the length each piece drops is its count."""
    return f"g{state.genus}#{_shape_text(_cached_shape(state.cycles))}"


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
    rejects.  Otherwise the match on canonical cycles
    (``_shape_precedes``) decides.
    """
    if candidate.genus > earlier.genus:
        return False
    if _kept_label_witness(candidate, earlier):
        return True
    # canonical forms make the check independent of concrete labels;
    # strip the length prefix off each encoded cycle
    cand_cycles = tuple(c[1:] for c in _cached_shape(candidate.cycles))
    earl_cycles = tuple(c[1:] for c in _cached_shape(earlier.cycles))
    return _shape_precedes(cand_cycles, earl_cycles)


def legal_replies(marked: MarkedState) -> list[CutterReply]:
    """Restricted-cutter replies: those whose next state is not equivalent
    to a reduction of any earlier state of the play, the marked one
    included.

    Every legal reply raises the value by exactly one, so on a legal play
    the marked state has the largest value so far.  A reply whose value
    exceeds it is therefore legal without a check, and any other reply
    loses a label, which makes it a reduction of the marked state itself
    (see ``_kept_label_witness``).  The earlier states add nothing, so
    only the marked state is read: ``precedes`` decides the replies that
    do not raise the value.
    """
    state = marked.state
    v = value(state)
    return [r for r in cutter_replies(marked) if value(r.next) > v or not precedes(r.next, state)]
